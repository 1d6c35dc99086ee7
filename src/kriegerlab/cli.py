"""Command-line front end.

Commands: classify, witness, sample, oracle, report, convert.  Exit
codes: 0 definite result, 1 input error, 2 inconclusive or
nothing-in-scope, 3 internal error, 141 standard output closed before
the output was written (as by ``| head``), with nothing on stderr.

All randomness flows from one ``--seed`` flag; without it a fixed
documented default is used (the 64-bit integer spelled by the ASCII
bytes "B3RN0U11"), never wall-clock entropy.  Structured (JSON) output
is deterministic: the same spec, flags, and seed produce byte-identical
documents.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .exact import ScalarError, as_mode, format_scalar
from .classify import (
    LABEL_I_INF, LABEL_II_1, LABEL_II_INF, LABEL_III_0,
    LABEL_III_1, LABEL_III_LAMBDA, LABEL_INCONCLUSIVE, classify,
)
from .cocycle import (
    DEFAULT_DELTA, DEFAULT_SEED, DEFAULT_STATE_CAP, InsufficientSamples,
    SearchBudgetExceeded, block_for, brute_force_block, estimate_ratio_set,
    lattice_detect, mc_sample_cocycle, witness_search,
)
from .scheme import (
    FactorSpec, SpecError, ValidatedScheme, factor_to_scheme, normalize,
    scheme_to_factor, validate,
)
from .specfile import SpecFileError, dump_spec, load_spec, to_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_INTERNAL = 3
EXIT_CLOSED_STDOUT = 141         # a shell's status for a process that SIGPIPE ended


def _fraction_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _seed_flag(text: str) -> int:
    value = int(text, 0)
    if not (0 <= value < 1 << 64):
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return value


def _emit(doc: dict, fmt: str, render_text):
    if fmt == "json":
        print(to_json(doc))
    else:
        render_text(doc)


def _load_scheme(path) -> ValidatedScheme:
    """Parse a spec file (scheme or factor data), normalize and validate it."""
    spec = load_spec(path)
    if isinstance(spec, FactorSpec):
        return validate(factor_to_scheme(spec))
    return validate(normalize(spec).spec)


def _check_positive(name, value):
    if value < 1:
        raise SpecError(f"{name} must be a positive integer, got {value}")


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args) -> int:
    vs = _load_scheme(args.spec)
    verdict = classify(vs)
    doc = {"command": "classify", "spec": args.spec, "verdict": verdict.to_dict()}

    def render(doc):
        print(verdict.describe())
        cert = doc["verdict"]["certificate"]
        print(f"  mode: {cert['mode']}   C: {cert['C']}")
        print(f"  fired: {', '.join(cert['fired'])}")
        for w in cert["warnings"]:
            print(f"  warning: {w}")

    _emit(doc, args.format, render)
    return EXIT_INCONCLUSIVE if verdict.label == LABEL_INCONCLUSIVE else EXIT_OK


# ---------------------------------------------------------------------------
# witness

def cmd_witness(args) -> int:
    vs = _load_scheme(args.spec)
    _check_positive("max-block", args.max_block)
    _check_positive("state-cap", args.state_cap)
    target = as_mode(args.target, vs.mode)
    eps = as_mode(args.eps, vs.mode)
    scope = {"start": args.start, "max_block": args.max_block,
             "delta": format_scalar(args.delta), "state_cap": args.state_cap}
    try:
        witness = witness_search(vs, target, eps, start=args.start,
                                 max_block=args.max_block, delta=args.delta,
                                 state_cap=args.state_cap)
        budget_note = None
    except SearchBudgetExceeded as exc:
        witness = None
        budget_note = str(exc)
    doc = {"command": "witness", "spec": args.spec,
           "target": format_scalar(target), "eps": format_scalar(eps),
           "scope": scope,
           "witness": None if witness is None else witness.to_dict()}
    if budget_note:
        doc["budget_exceeded"] = budget_note

    def render(doc):
        if doc["witness"] is None:
            print("no witness in scope "
                  f"(max_block={args.max_block}, delta={doc['scope']['delta']})")
            if budget_note:
                print(f"  note: {budget_note}")
        else:
            w = doc["witness"]
            print(f"witness on coordinates {w['coordinates']}")
            print(f"  x = {w['x']}")
            print(f"  y = {w['y']}")
            print(f"  D = {w['value']}  (target {w['target']}, eps {w['eps']})")

    _emit(doc, args.format, render)
    return EXIT_OK if witness is not None else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# sample

def cmd_sample(args) -> int:
    vs = _load_scheme(args.spec)
    samples = mc_sample_cocycle(vs, seed=args.seed, n_samples=args.samples,
                                window=args.window, start=args.start,
                                delta=args.delta)
    lattice = None
    lattice_error = None
    try:
        lattice = lattice_detect(samples)
    except InsufficientSamples as exc:
        lattice_error = str(exc)
    lines = samples.export_lines()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    doc = {"command": "sample", "spec": args.spec, "seed": args.seed,
           "n_samples": args.samples, "window": args.window, "start": args.start,
           "delta": format_scalar(args.delta),
           "lattice": None if lattice is None else lattice.to_dict(),
           "lattice_error": lattice_error,
           "records": lines if args.out is None else f"written to {args.out}"}

    def render(doc):
        if args.out is None:
            for line in lines:
                print(line)
        else:
            print(f"{len(lines)} records written to {args.out}")
        if lattice is not None:
            if lattice.kind == "lattice":
                print(f"lattice: period {lattice.period:.12g}")
            else:
                print(f"lattice: {lattice.kind}")
        else:
            print(f"lattice: undecided ({lattice_error})")

    _emit(doc, args.format, render)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args) -> int:
    vs = _load_scheme(args.spec)
    targets = [as_mode(t, vs.mode) for t in args.targets]
    block = block_for(vs, args.start, args.length, args.delta)
    results = brute_force_block(vs, block, targets)
    doc = {"command": "oracle", "spec": args.spec, "start": args.start,
           "length": args.length, "delta": format_scalar(args.delta),
           "results": [{"target": format_scalar(r["target"]),
                        "distance": format_scalar(r["distance"]),
                        "x": list(r["x"]), "y": list(r["y"])}
                       for r in results]}

    def render(doc):
        for r in doc["results"]:
            print(f"target {r['target']}: min distance {r['distance']} "
                  f"at x={r['x']} y={r['y']}")

    _emit(doc, args.format, render)
    return EXIT_OK


# ---------------------------------------------------------------------------
# report

_AGREEMENT = {
    LABEL_I_INF: "II-like", LABEL_II_1: "II-like", LABEL_II_INF: "II-like",
    LABEL_III_0: "III_0-like", LABEL_III_1: "III_1-like",
    LABEL_III_LAMBDA: "III_lambda-like",
}

LAMBDA_AGREE_TOL = 1e-3


def _labels_agree(verdict, empirical) -> bool:
    expected = _AGREEMENT.get(verdict.label)
    if expected is None or empirical["label"] != expected:
        return False
    if verdict.label == LABEL_III_LAMBDA:
        la = float(verdict.lam)
        le = empirical["lambda"]
        if le is None or le <= 0 or la <= 0 or la == 1.0:
            return False
        return abs(math.log(le) / math.log(la) - 1.0) < LAMBDA_AGREE_TOL
    return True


def cmd_report(args) -> int:
    vs = _load_scheme(args.spec)
    _check_positive("max-block", args.max_block)
    verdict = classify(vs)
    empirical = estimate_ratio_set(
        vs, seed=args.seed, n_samples=args.samples, window=args.window,
        start=args.start, delta=args.delta, search_block=args.max_block)
    agreement = _labels_agree(verdict, empirical)
    doc = {"command": "report", "spec": args.spec,
           "analytic": verdict.to_dict(),
           "empirical": empirical,
           "agreement": agreement,
           "lambda_tolerance": LAMBDA_AGREE_TOL,
           "seed": args.seed}

    def render(doc):
        print(f"analytic:  {verdict.describe()}")
        emp = doc["empirical"]
        lam = "" if emp["lambda"] is None else f" lambda~{emp['lambda']:.9g}"
        print(f"empirical: {emp['label']}{lam}")
        print(f"agreement: {str(doc['agreement']).lower()}")
        for w in doc["analytic"]["certificate"]["warnings"]:
            print(f"  warning: {w}")

    _emit(doc, args.format, render)
    return EXIT_INCONCLUSIVE if verdict.label == LABEL_INCONCLUSIVE else EXIT_OK


# ---------------------------------------------------------------------------
# convert

def cmd_convert(args) -> int:
    spec = load_spec(args.input)
    if args.source == "factor":
        if not isinstance(spec, FactorSpec):
            spec = FactorSpec(spec.mode, spec.prefix, spec.classes)
        out = validate(factor_to_scheme(spec)).spec
    else:
        if isinstance(spec, FactorSpec):
            raise SpecError("input is factor data; use --from factor")
        out = scheme_to_factor(normalize(spec).spec)
    text = dump_spec(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p):
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (json is the structured report)")


def _add_sampling(p):
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--start", type=int, default=1000,
                   help="coordinates start+1..start+window are sampled")
    p.add_argument("--seed", type=_seed_flag, default=DEFAULT_SEED)
    p.add_argument("--delta", type=_fraction_flag, default=DEFAULT_DELTA,
                   help="truncation mass budget for infinite alphabets")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kriegerlab",
        description="Classify infinite product measures by Krieger type and "
                    "cross-check the verdict with exact cocycle probes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="assign a type label with a certificate")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("witness", help="search for a cocycle value near a target")
    p.add_argument("spec")
    p.add_argument("--target", type=_fraction_flag, required=True)
    p.add_argument("--eps", type=_fraction_flag, required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--max-block", type=int, default=8, dest="max_block")
    p.add_argument("--delta", type=_fraction_flag, default=DEFAULT_DELTA)
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP, dest="state_cap")
    _add_common(p)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("sample", help="seeded Monte Carlo log-cocycle samples")
    p.add_argument("spec")
    p.add_argument("--out", help="write the sample export to this file")
    _add_sampling(p)
    _add_common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("oracle", help="brute-force minimum distances on a block")
    p.add_argument("spec")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--delta", type=_fraction_flag, default=DEFAULT_DELTA)
    p.add_argument("--targets", type=_fraction_flag, nargs="+", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("report", help="analytic and empirical verdicts side by side")
    p.add_argument("spec")
    p.add_argument("--max-block", type=int, default=8, dest="max_block")
    _add_sampling(p)
    _add_common(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("convert", help="convert between factor and scheme files")
    p.add_argument("input")
    p.add_argument("--from", dest="source", choices=("factor", "scheme"),
                   required=True, help="what the input file holds")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_convert)
    return parser


# built once: with no append actions or mutable defaults, parse_args keeps no state
_PARSER = build_parser()


def _plain_table(name, parser):
    """(defaults, positionals, options, required) of a subcommand.

    ``options`` maps each option string of a single-value store action to
    it; the defaults are the namespace argparse starts from, with no
    string default converted (none of them has a type).
    """
    defaults = {"command": name, **parser._defaults,
                **{a.dest: a.default for a in parser._actions
                   if a.default is not argparse.SUPPRESS}}
    options = {s: a for a in parser._actions for s in a.option_strings
               if type(a) is argparse._StoreAction and a.nargs is None}
    return (defaults, [a for a in parser._actions if not a.option_strings], options,
            {a for a in parser._actions if a.required})


_PLAIN = {name: _plain_table(name, p) for name, p in next(
    a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices.items()}


def _plain_args(argv):
    """The namespace ``_PARSER.parse_args(argv)`` gives a plain argv, read
    from the subcommand's own action table; None for any other argv.

    Plain is the command, its positionals, then whole ``--option value``
    pairs of single-value store actions, with every value converting and
    within its choices, no value starting with "-", and every required
    option given.  Anything else (help, abbreviations, ``--opt=value``,
    lists, unknown options, bad values, missing arguments) is argparse's
    to parse, so every usage text, error and exit code stays its own.
    """
    if not argv or argv[0] not in _PLAIN:
        return None
    defaults, positionals, options, required = _PLAIN[argv[0]]
    k = 1 + len(positionals)
    if len(argv) < k or (len(argv) - k) % 2:
        return None
    pairs = list(zip(positionals, argv[1:k]))
    for i in range(k, len(argv), 2):
        action = options.get(argv[i])
        if action is None:
            return None
        pairs.append((action, argv[i + 1]))
    values = dict(defaults)
    for action, text in pairs:
        if text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= {a for a, _ in pairs}:
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:
            return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: drop the stream, so that exit flushes nothing
        sys.stdout = None
        return EXIT_CLOSED_STDOUT
    except (SpecFileError, SpecError, ScalarError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SearchBudgetExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
