"""Seeded inputs of the three workloads.

Every input is built from ``--seed`` alone: the same seed writes the
same spec files and the same argument lists.  Specs are written as JSON
documents into the run's work directory; an operation is one argument
list for ``kriegerlab.cli.main``.

Each operation carries what its check needs: the spec document and,
where the input was built to have a known type, the expected
(label, lambda).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks

F = Fraction

SPEC_DIR_NAME = "specs"

# Two fixed semiprimes with 10- and 12-digit prime factors.  They are the
# same for every seed: the time sympy.factorint takes on a semiprime of
# this size varies by three orders of magnitude from one pair of primes to
# the next (2 ms to 3.6 s measured), so seeded primes would make the
# workload's speed depend on the seed.  The seed still chooses exponents,
# numerators and layout.  Each takes about 0.5 s to factor.
BIG_SEMIPRIMES = (
    3002333857 * 779175948119,
    7257764329 * 718621510487,
)


@dataclass
class Op:
    kind: str                         # input kind, for the mix tables
    argv: list
    doc: dict = None                  # spec document the operation reads
    family: str = None                # invariance family (classify)
    expected: tuple = None            # (label, lambda) by construction
    params: dict = field(default_factory=dict)


def fs(x):
    """'p/q' text of an exact rational."""
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# templates

def t_const(lam):
    return {"kind": "two_point", "lambda": {"form": "const", "value": fs(lam)}}


def t_explicit(weights):
    return {"kind": "explicit", "weights": [fs(w) for w in weights]}


def t_perturbed(limit):
    return {"kind": "perturbed", "limit": [fs(w) for w in limit]}


def t_geometric(base, q):
    return {"kind": "geometric_tail", "base": [fs(b) for b in base], "ratio": fs(q)}


def t_capped(q, cap, size_start=2, size_step=1):
    return {"kind": "capped_geometric", "ratio": fs(q), "cap": cap,
            "size_start": size_start, "size_step": size_step}


def t_weight(dev):
    return {"kind": "two_point", "lambda": {"form": "weight", "deviation": dev}}


def spec_doc(templates, prefix=(), mode="rational", data="scheme"):
    """Classes on interleaved progressions after a prefix of explicit vectors."""
    p, c = len(prefix), len(templates)
    return {"mode": mode, "data": data,
            "prefix": [[fs(w) if mode == "rational" else w for w in vec] for vec in prefix],
            "classes": [{"indices": {"start": p + 1 + k, "step": c}, "template": t}
                        for k, t in enumerate(templates)]}


# ---------------------------------------------------------------------------
# seeded building blocks

def _content(x: Fraction) -> int:
    g = 0
    for part in (x.numerator, x.denominator):
        n = part
        for p in checks.SMALL_PRIMES:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            g = math.gcd(g, e)
    return g


def primitive_ratio(rng):
    """A rational in (0,1) that is not a proper power (small primes only)."""
    while True:
        b = rng.randint(2, 12)
        a = rng.randint(1, b - 1)
        h = F(a, b)
        if _content(h) == 1:
            return h


def independent_pair(rng):
    """Two ratios in (0,1) whose logs are rationally independent."""
    while True:
        a, b = primitive_ratio(rng), primitive_ratio(rng)
        if checks.RatioGroup([a, b]).kind == "dense":
            return a, b


def random_vector(rng, size=None):
    size = size or rng.randint(2, 3)
    return [F(rng.randint(1, 9)) for _ in range(size)]


def random_prefix(rng, length=None):
    length = rng.randint(0, 3) if length is None else length
    return [random_vector(rng) for _ in range(length)]


# ---------------------------------------------------------------------------
# invariance variants: each keeps (label, lambda)

def _scaled(vec, s):
    return [fs(F(w) * s) for w in vec]


def v_reorder(doc, rng):
    out = json.loads(json.dumps(doc))
    temps = [c["template"] for c in out["classes"]]
    order = list(range(len(temps)))
    if len(order) > 1:
        while order == sorted(order):
            rng.shuffle(order)
    for c, k in zip(out["classes"], order):
        c["template"] = temps[k]
    return out


def v_prefix(doc, rng):
    out = json.loads(json.dumps(doc))
    extra = random_prefix(rng, rng.randint(1, 2))
    out["prefix"] = [[fs(w) for w in vec] for vec in extra] + out["prefix"]
    for c in out["classes"]:
        c["indices"]["start"] += len(extra)
    return out


def _map_vectors(doc, fn, perturbed_fn=None):
    out = json.loads(json.dumps(doc))
    out["prefix"] = [fn(vec) for vec in out["prefix"]]
    for c in out["classes"]:
        t = c["template"]
        if t["kind"] == "explicit":
            t["weights"] = fn(t["weights"])
        elif t["kind"] == "perturbed":
            t["limit"] = (perturbed_fn or fn)(t["limit"])
        elif t["kind"] == "two_point" and t["lambda"]["form"] == "const":
            lam = t["lambda"]["value"]
            c["template"] = {"kind": "explicit", "weights": fn(["1", lam])}
    return out


def v_permute(doc, rng):
    def perm(vec):
        vec = list(vec)
        rng.shuffle(vec)
        return vec
    return _map_vectors(doc, perm)


def v_rescale(doc, rng):
    s = rng.randint(2, 9)

    def scale(vec):
        return _scaled(vec, s)
    out = _map_vectors(doc, scale)
    for c in out["classes"]:
        t = c["template"]
        if t["kind"] == "geometric_tail":
            t["base"] = _scaled(t["base"], s)
    return out


def v_factor(doc, rng):
    """The same data as eigenvalue lists, rescaled, with a zero eigenvalue."""
    s = rng.randint(2, 5)

    def eig(vec):
        vec = _scaled(vec, s)
        vec.insert(rng.randint(0, len(vec)), "0")
        return vec
    # zero eigenvalues are dropped from explicit lists only
    out = _map_vectors(doc, eig, lambda vec: _scaled(vec, s))
    out["data"] = "factor"
    return out


VARIANTS = {"reorder": v_reorder, "prefix": v_prefix, "permute": v_permute,
            "rescale": v_rescale, "factor": v_factor}


# ---------------------------------------------------------------------------
# classify_corpus families: (kind, base doc, expected, allowed variants)

def fam_const_power(rng):
    """lambda_k = h**e_k on 1-3 classes: III_lambda, lambda = h**gcd(e)."""
    h = primitive_ratio(rng)
    es = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    temps = [t_const(h ** e) if rng.random() < 0.7 else t_explicit([1, h ** e]) for e in es]
    doc = spec_doc(temps, random_prefix(rng))
    return "const_power", doc, ("III_lambda", h ** math.gcd(*es)), ("reorder", "prefix", "permute", "rescale", "factor")


def fam_const_dense(rng):
    """lambda values with independent logs: III_1."""
    a, b = independent_pair(rng)
    lams = [a, b] + ([a * b] if rng.random() < 0.3 else [])
    doc = spec_doc([t_const(x) for x in lams], random_prefix(rng))
    return "const_dense", doc, ("III_1", None), ("reorder", "prefix", "permute", "rescale")


def fam_uniform(rng):
    """uniform explicit alphabets on every class: II_1."""
    temps = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(2, 4)
        temps.append(t_explicit([1] * k) if rng.random() < 0.7 else t_perturbed([1] * k))
    doc = spec_doc(temps, random_prefix(rng))
    return "uniform", doc, ("II_1", None), ("reorder", "prefix", "permute", "rescale", "factor")


def fam_weight(rng):
    """weights (1 - eps_n, eps_n) with summable eps_n: I_inf."""
    temps = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.6:
            dev = {"family": "geometric", "rho": fs(rng.choice([F(1, 2), F(1, 3), F(2, 3)])),
                   "coeff": "1/2"}
        else:
            dev = {"family": "power", "exponent": rng.choice(["2", "3"]), "coeff": "1/2"}
        temps.append(t_weight(dev))
    doc = spec_doc(temps, random_prefix(rng))
    return "weight", doc, ("I_inf", None), ("reorder", "prefix", "permute")


def fam_capped(rng):
    """capped geometric alphabets (and const classes) with ratios h**e: III_{h**gcd}."""
    h = primitive_ratio(rng)
    temps, es = [], []
    for k in range(rng.randint(1, 3)):
        e = rng.randint(1, 3)
        es.append(e)
        if k == 0 or rng.random() < 0.6:
            temps.append(t_capped(h ** e, rng.randint(1, 4), rng.randint(2, 3), rng.randint(1, 2)))
        else:
            temps.append(t_const(h ** e))
    doc = spec_doc(temps, random_prefix(rng))
    return "capped", doc, ("III_lambda", h ** math.gcd(*es)), ("reorder", "prefix", "permute", "rescale")


def fam_geometric_dense(rng, q):
    """a geometric tail of ratio q next to an independent ratio r: III_1.

    The ratio q is fixed per slot: the per-coordinate series test sums
    O(n**2) exact terms over the tail, so q sets the cost, and a seeded q
    would make the workload's speed depend on the seed.
    """
    while True:
        r = primitive_ratio(rng)
        if checks.RatioGroup([q, r]).kind == "dense":
            break
    if rng.random() < 0.5:
        # one class: base (1, r), then the tail r*q**j
        temps = [t_geometric([1, r], q)]
    else:
        temps = [t_geometric([1], q), t_const(r)]
    doc = spec_doc(temps, random_prefix(rng))
    return "geometric_dense", doc, ("III_1", None), ("reorder", "prefix", "rescale")


def fam_float_exp(rng):
    """float mode, lambda_n = v*exp(-eps_n) with summable eps_n: III_v."""
    v = float(primitive_ratio(rng))
    temps = []
    for _ in range(rng.randint(1, 2)):
        rho = rng.choice([0.5, 0.25])
        temps.append({"kind": "two_point", "lambda": {
            "form": "exp", "value": v, "deviation": {"family": "geometric", "rho": rho}}})
    doc = spec_doc(temps, mode="float")
    return "float_exp", doc, ("III_lambda", v), ("reorder",)


def fam_float_zero_one(rng):
    """float mode, lambda_n -> 1 on one class and -> 0 on another: III_0."""
    one = {"kind": "two_point", "lambda": {
        "form": "exp", "value": 1.0,
        "deviation": {"family": "geometric", "rho": rng.choice([0.5, 0.25])}}}
    zero = {"kind": "two_point", "lambda": {
        "form": "one_minus_exp",
        "deviation": {"family": "power", "exponent": rng.choice([1.0, 0.5])}}}
    doc = spec_doc([one, zero], mode="float")
    return "float_zero_one", doc, ("III_0", None), ("reorder",)


def fam_big_lambda(rng, semiprime):
    """two const classes lambda = h**e with h = a/N, N a large semiprime."""
    h = F(rng.randint(1, 9), semiprime)
    es = rng.sample([1, 2, 3], 2)
    doc = spec_doc([t_const(h ** e) for e in es], random_prefix(rng))
    return "big_lambda", doc, ("III_lambda", h ** math.gcd(*es)), ("reorder",)


# the single-ratio geometric tails the program labels III_1; Araki & Woods
# (Publ. RIMS 4, 1968) give III_q.  Fixed inputs, the same for every seed.
FAULT_SPECS = (
    ("geom_half", spec_doc([t_geometric([F(1, 2)], F(1, 2))]), F(1, 2)),
    ("geom_third_prefix", spec_doc([t_geometric([F(2, 3)], F(1, 3))], [[F(1), F(1)]]), F(1, 3)),
)

# families per round and how many variants each gets: the mix is weighted
# so that the cheap analytic path sets the median and the slow kinds
# (geometric tails, big lambda) take a visible but bounded share of time
CORPUS_MIX = (
    (fam_const_power, 22, 3),
    (fam_const_dense, 14, 3),
    (fam_uniform, 14, 3),
    (fam_weight, 10, 2),
    (fam_capped, 14, 3),
    (fam_float_exp, 6, 1),
    (fam_float_zero_one, 4, 1),
)
GEOMETRIC_SLOTS = (F(2, 3), F(3, 4), F(4, 5), F(5, 7))


def _write(spec_dir: Path, name: str, doc: dict) -> str:
    path = spec_dir / f"{name}.spec"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def classify_corpus(seed: int, work: Path):
    rng = random.Random(seed)
    spec_dir = work / SPEC_DIR_NAME
    ops = []

    def add(kind, family, doc, expected):
        name = f"{family}_{len(ops):03d}"
        path = _write(spec_dir, name, doc)
        ops.append(Op(kind, ["classify", path, "--format", "json"], doc, family, expected))

    fams = [(fn, None, n_var) for fn, count, n_var in CORPUS_MIX for _ in range(count)]
    fams += [(fam_geometric_dense, q, 1) for q in GEOMETRIC_SLOTS]
    fams += [(fam_big_lambda, n, 0) for n in BIG_SEMIPRIMES]
    for i, (fn, arg, n_var) in enumerate(fams):
        kind, doc, expected, allowed = fn(rng) if arg is None else fn(rng, arg)
        family = f"f{i:03d}"
        add(kind, family, doc, expected)
        for name in rng.sample(allowed, min(n_var, len(allowed))):
            add(kind, family, VARIANTS[name](doc, rng), expected)
    for name, doc, q in FAULT_SPECS:
        add("geometric_single_ratio", name, doc, ("III_lambda", q))
    return ops


# ---------------------------------------------------------------------------
# report_sampling

SHIPPED = ("powers_half.spec", "powers_half.factor", "uniform.spec", "geom_half.spec",
           "interleave_2_3.spec", "lambda_zero_one.spec", "two_inf.spec", "type_one.spec",
           "capped_half.spec")

# analytic (label, lambda) of each shipped spec by theory, and the empirical
# label sampling must show; geom_half is III_q by Araki & Woods
SHIPPED_THEORY = {
    "powers_half.spec": (("III_lambda", F(1, 2)), ("III_lambda-like", 0.5)),
    "powers_half.factor": (("III_lambda", F(1, 2)), ("III_lambda-like", 0.5)),
    "uniform.spec": (("II_1", None), ("II-like", None)),
    "geom_half.spec": (("III_lambda", F(1, 2)), ("III_lambda-like", 0.5)),
    "interleave_2_3.spec": (("III_1", None), ("III_1-like", None)),
    "lambda_zero_one.spec": (("III_0", None), ("III_0-like", None)),
    "two_inf.spec": (("II_inf", None), ("II-like", None)),
    "type_one.spec": (("I_inf", None), ("II-like", None)),
    "capped_half.spec": (("III_lambda", F(1, 2)), ("III_lambda-like", 0.5)),
}

REPORT_SAMPLES = 400
REPORT_WINDOW = 20
REPORT_SEEDS_PER_SPEC = 3     # sampling seeds per shipped spec and round
CAPPED_DEEP_START = 200       # capped_half once per round, alphabets of about 200 symbols
SAMPLE_CHECKS = 3             # (spec, seed) pairs whose sample records are checked


def report_sampling(seed: int, work: Path, specs_root: Path):
    rng = random.Random(seed)
    spec_dir = work / SPEC_DIR_NAME
    ops = []
    for name in SHIPPED:
        doc = json.loads((specs_root / name).read_text(encoding="utf-8"))
        path = _write(spec_dir, name.replace(".", "_"), doc)
        analytic, empirical = SHIPPED_THEORY[name]
        deep = name == "capped_half.spec"
        for _ in range(1 if deep else REPORT_SEEDS_PER_SPEC):
            s = rng.getrandbits(64)
            argv = ["report", path, "--format", "json", "--seed", str(s),
                    "--samples", str(REPORT_SAMPLES), "--window", str(REPORT_WINDOW)]
            if deep:
                argv += ["--start", str(CAPPED_DEEP_START)]
            ops.append(Op(name, argv, doc, name, analytic,
                          {"empirical": empirical, "seed": s,
                           "start": CAPPED_DEEP_START if deep else 1000}))
    finite = [op for op in ops if checks.spec_ratio_generators(op.doc) is not None]
    for op in rng.sample(finite, SAMPLE_CHECKS):
        op.params["check_samples"] = True
    return ops


# ---------------------------------------------------------------------------
# witness_exact

WITNESS_EPS = F(1, 10 ** 12)

# (name, spec document, start, max_block, reach): ratio groups of rank 1
# to 4.  max_block is sized so that a search through the whole scope takes
# about 0.3 s for every spec: the misses then form one dense run of costs,
# and the median operation falls inside it rather than between two specs.
WITNESS_SPECS = (
    ("powers_half", spec_doc([t_const(F(1, 2))]), 0, 46, True),
    ("interleave_2_3", spec_doc([t_const(F(1, 2)), t_const(F(1, 3))]), 0, 28, True),
    ("three_class", spec_doc([t_const(F(1, 2)), t_const(F(1, 3)), t_const(F(2, 5))]), 0, 21, True),
    ("explicit_7532", spec_doc([t_explicit([F(7, 17), F(5, 17), F(3, 17), F(2, 17)])]), 0, 11, False),
    ("geom_half", spec_doc([t_geometric([F(1, 2)], F(1, 2))]), 0, 13, False),
    ("capped_half_deep", spec_doc([t_capped(F(1, 2), 3)]), 40, 6, False),
)
WITNESS_MISSES_PER_SPEC = 3   # seeded targets, tiny eps: the whole scope is searched
REACH_LENGTH = 3              # seeded word pairs on short blocks: found early
ORACLE_OPS = (("explicit_7532", 6), ("three_class", 10))


def _seeded_target(rng):
    return F(rng.randint(10 ** 5, 9 * 10 ** 5), 10 ** 6) + F(1, 7 * 10 ** 7)


def witness_exact(seed: int, work: Path):
    rng = random.Random(seed)
    spec_dir = work / SPEC_DIR_NAME
    ops = []
    paths = {}
    for name, doc, start, max_block, reach in WITNESS_SPECS:
        path = paths[name] = _write(spec_dir, name, doc)
        base = ["witness", path, "--eps", fs(WITNESS_EPS), "--max-block", str(max_block),
                "--start", str(start), "--format", "json"]
        targets = [("miss", _seeded_target(rng)) for _ in range(WITNESS_MISSES_PER_SPEC)]
        if reach:
            # a target achieved by a seeded word pair on a short block
            alphabets = checks.block_alphabets(doc, start, REACH_LENGTH)
            while True:
                x = [rng.randrange(len(a)) for a in alphabets]
                y = [rng.randrange(len(a)) for a in alphabets]
                d = checks.word_ratio(alphabets, x, y)
                if d != 1:
                    break
            targets.append(("reach", d))
        for what, target in targets:
            ops.append(Op(f"witness_{what}/{name}", base + ["--target", fs(target)], doc, name,
                          None, {"start": start, "max_block": max_block, "target": target,
                                 "eps": WITNESS_EPS}))
    specs = {name: doc for name, doc, *_ in WITNESS_SPECS}
    for name, length in ORACLE_OPS:
        targets = [_seeded_target(rng) for _ in range(3)]
        ops.append(Op(f"oracle/{name}", ["oracle", paths[name], "--length", str(length), "--targets"]
                      + [fs(t) for t in targets] + ["--format", "json"], specs[name], name, None,
                      {"start": 0, "length": length, "targets": targets}))
    return ops


WORKLOADS = ("classify_corpus", "report_sampling", "witness_exact")


def build(workload: str, seed: int, work: Path, specs_root: Path):
    (work / SPEC_DIR_NAME).mkdir(parents=True, exist_ok=True)
    if workload == "classify_corpus":
        return classify_corpus(seed, work)
    if workload == "report_sampling":
        return report_sampling(seed, work, specs_root)
    if workload == "witness_exact":
        return witness_exact(seed, work)
    raise ValueError(f"unknown workload {workload!r}")
