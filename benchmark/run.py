"""kriegerlab benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of the repository:

    python3 benchmark/run.py --workload classify_corpus --seed 1 --seconds 25 --trace 0

Workloads: classify_corpus, report_sampling, witness_exact (see
README.md).  One process, one caller, closed loop: each operation is one
in-process call of ``kriegerlab.cli.main`` with stdout captured, and the
next starts when it returns.  Operations run in whole rounds, each round
in a seeded order, until ``--seconds`` have passed.  Outputs are checked
after the timed loop by the independent checks in ``checks.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPECS = ROOT / "specs"
WORK_ROOT = ROOT / ".bench_work"
SETUP_STARTS = 5              # fresh interpreters per run; setup_s is their median

import checks                 # noqa: E402  (benchmark-local modules)
import corpus                 # noqa: E402
import tracing                # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """kriegerlab's CLI module from this checkout's source tree, or None."""
    if not (SRC / "kriegerlab" / "__init__.py").is_file() or not SPECS.is_dir():
        return None
    sys.path.insert(0, str(SRC))
    import kriegerlab
    import kriegerlab.cli
    if Path(kriegerlab.__file__).resolve().parent != (SRC / "kriegerlab").resolve():
        return None
    return kriegerlab.cli


def measure_setup(work, ops):
    """Median wall time of fresh interpreters doing the run's set-up."""
    paths = sorted({op.argv[1] for op in ops})
    listing = work / "inputs.txt"
    listing.write_text("\n".join(paths) + "\n", encoding="utf-8")
    cmd = [sys.executable, str(BENCH_DIR / "probe_setup.py"), str(SRC), str(listing)]
    times = []
    for _ in range(SETUP_STARTS):
        # no timeout: with one, the wait polls in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def clear_process_caches():
    """Forget what an earlier operation left in process-wide caches.

    sympy keeps the prime factors it finds; a fresh ``kriegerlab``
    process starts without them, so each operation does too.
    """
    factor_ = sys.modules.get("sympy.ntheory.factor_")
    if factor_ is not None and hasattr(factor_, "factor_cache"):
        factor_.factor_cache.cache_clear()


def run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        rc = main(argv)
        t1 = time.perf_counter_ns()
    return t1 - t0, rc, out.getvalue()


# ---------------------------------------------------------------------------
# checks of the first output of every operation

def check_outputs(workload, ops, first, main):
    """(problems, faulty op indices, notes)."""
    problems, faults = [], set()
    notes = {"enumerated": 0, "not_enumerated": 0, "sample_checks": 0}

    def bad(i, msg):
        problems.append(f"op {i} ({ops[i].kind}, {' '.join(ops[i].argv[:2])}): {msg}")

    families = {}
    for i, op in enumerate(ops):
        rc, text = first[i]
        try:
            out = json.loads(text)
        except ValueError:
            bad(i, f"exit {rc}, output is not JSON")
            continue
        if workload == "classify_corpus":
            if rc != 0:
                bad(i, f"exit code {rc}")
            found, fault = checks.verdict_problems(op.doc, out["verdict"], op.expected)
            families.setdefault(op.family, set()).add(checks.label_lambda(out["verdict"]))
        elif workload == "report_sampling":
            if rc != 0:
                bad(i, f"exit code {rc}")
            found, fault = checks.verdict_problems(op.doc, out["analytic"], op.expected)
            found += report_problems(op, out)
            if op.params.get("check_samples"):
                found += sample_check(main, op)
                notes["sample_checks"] += 1
        else:
            fault = None
            if op.kind.startswith("oracle"):
                found = [] if rc == 0 else [f"exit code {rc}"]
                found += checks.oracle_problems(op.doc, out, op.params["start"],
                                                op.params["length"], op.params["targets"])
            else:
                found = [] if rc == (0 if out["witness"] is not None else 2) \
                    else [f"exit code {rc}"]
                if op.kind.startswith("witness_reach") and out["witness"] is None:
                    found.append("no witness for a target a short word pair achieves")
                more, enumerated = checks.witness_problems(
                    op.doc, out, op.params["start"], op.params["max_block"],
                    op.params["target"], op.params["eps"])
                found += more
                notes["enumerated" if enumerated else "not_enumerated"] += 1
        for msg in found:
            bad(i, msg)
        if fault is not None:
            faults.add(i)
    for family, verdicts in families.items():
        if len(verdicts) > 1:
            problems.append(f"family {family}: variants disagree: {sorted(map(str, verdicts))}")
    return problems, faults, notes


def report_problems(op, out):
    found = []
    emp = out["empirical"]
    label, lam = op.params["empirical"]
    if emp["label"] != label:
        found.append(f"empirical label {emp['label']}, theory says {label}")
    elif lam is not None and (emp["lambda"] is None or abs(emp["lambda"] - lam) > 1e-3):
        found.append(f"empirical lambda {emp['lambda']}, theory says {lam}")
    ev = emp["evidence"]
    want = {"n_samples": corpus.REPORT_SAMPLES, "window": corpus.REPORT_WINDOW,
            "seed": op.params["seed"], "start": op.params["start"]}
    for key, value in want.items():
        if ev.get(key) != value:
            found.append(f"evidence {key} = {ev.get(key)}, asked for {value}")
    return found


def sample_check(main, op):
    """Run ``sample`` with the report's parameters and check its records."""
    argv = ["sample", op.argv[1], "--format", "json", "--seed", str(op.params["seed"]),
            "--samples", str(corpus.REPORT_SAMPLES), "--window", str(corpus.REPORT_WINDOW),
            "--start", str(op.params["start"])]
    _, rc, text = run_op(main, argv)
    if rc != 0:
        return [f"sample exit code {rc}"]
    return checks.sample_problems(op.doc, json.loads(text), corpus.REPORT_SAMPLES)


# ---------------------------------------------------------------------------
# the timed loop

# round modes of a traced run: span tracing and tracemalloc slow the
# program by different amounts, so each gets rounds of its own, and the
# untraced rounds in between give the overhead
TRACE_CYCLE = ("plain", "spans", "plain", "memory")


class RunLog:
    """What the timed loop saw."""

    def __init__(self, n_ops):
        self.rounds = 0
        self.plain_wall = 0.0
        self.ns = {"plain": [], "spans": [], "memory": []}
        self.plain_by_op = [[] for _ in range(n_ops)]
        self.first = [None] * n_ops
        self.drift = set()
        self.mem_peaks = []
        self.tracer = None


def timed_rounds(cli, ops, seconds, seed, trace):
    """Whole rounds, each in a seeded order, until ``seconds`` have passed."""
    log = RunLog(len(ops))
    cycle = TRACE_CYCLE if trace else ("plain",)
    if trace:
        log.tracer = tracing.Tracer()
    t_start = time.perf_counter()
    while True:
        order = list(range(len(ops)))
        random.Random(seed * 1_000_003 + log.rounds).shuffle(order)
        mode = cycle[log.rounds % len(cycle)]
        if mode == "spans":
            log.tracer.install()
        elif mode == "memory":
            tracemalloc.start()
        r_start = time.perf_counter()
        for i in order:
            clear_process_caches()
            if mode == "spans":
                log.tracer.op += 1
            elif mode == "memory":
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            # looked up per call, so the tracer's wrapper of main is used
            ns, rc, text = run_op(cli.main, ops[i].argv)
            if mode == "memory":
                log.mem_peaks.append(tracemalloc.get_traced_memory()[1] - base)
            elif mode == "plain":
                log.plain_by_op[i].append(ns)
            log.ns[mode].append(ns)
            if log.first[i] is None:
                log.first[i] = (rc, text)
            elif log.first[i] != (rc, text):
                log.drift.add(i)
        if mode == "spans":
            log.tracer.uninstall()
        elif mode == "memory":
            tracemalloc.stop()
        else:
            log.plain_wall += time.perf_counter() - r_start
        log.rounds += 1
        if time.perf_counter() - t_start >= seconds and log.rounds % len(cycle) == 0:
            return log


def kind_table(ops, log):
    """Per input kind: operations per round, median ms, share of untraced time."""
    total = sum(sum(t) for t in log.plain_by_op) or 1
    table = {}
    for i, op in enumerate(ops):
        row = table.setdefault(op.kind, {"per_round": 0, "ns": []})
        row["per_round"] += 1
        row["ns"] += log.plain_by_op[i]
    return {kind: {"per_round": row["per_round"],
                   "median_ms": statistics.median(row["ns"]) / 1e6,
                   "time_share": sum(row["ns"]) / total}
            for kind, row in sorted(table.items())}


def main(argv=None):
    args = parse_args(argv)
    cli = load_program()
    if cli is None:
        print(f"error: no kriegerlab source tree and specs under {ROOT}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = corpus.build(args.workload, args.seed, work, SPECS)
        setup_s = None if args.trace else measure_setup(work, ops)
        imports = tracing.import_times(SRC) if args.trace else {}
        log = timed_rounds(cli, ops, args.seconds, args.seed, args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, faults, notes = check_outputs(args.workload, ops, log.first, cli.main)
    finally:
        shutil.rmtree(work / corpus.SPEC_DIR_NAME, ignore_errors=True)
    for i in sorted(log.drift):
        problems.append(f"op {i}: output differs between rounds")

    plain = log.ns["plain"]
    if args.trace:
        metrics = dict(imports)
        metrics.update(log.tracer.layer_metrics(len(log.ns["spans"])))
        metrics["mem.tracemalloc_peak_mb"] = (max(log.mem_peaks) / 2 ** 20, "MB")
        overhead = statistics.fmean(log.ns["spans"]) / statistics.fmean(plain) - 1.0
        metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
        trace_file = WORK_ROOT / "traces" / f"{args.workload}-{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        doc = log.tracer.dump()
        doc["ops"] = [{"kind": op.kind, "argv": op.argv} for op in ops]
        trace_file.write_text(json.dumps(doc), encoding="utf-8")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(plain) / log.plain_wall, "1/s"),
            "op_ms_p50": (statistics.median(plain) / 1e6, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {"correct": not problems, "attempted": log.rounds * len(ops),
              "failed": log.rounds * len(faults),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    summary = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                   rounds=log.rounds, ops_per_round=len(ops), fault_ops=len(faults),
                   op_ms_p90=statistics.quantiles(plain, n=10)[-1] / 1e6,
                   kinds=kind_table(ops, log), problems=problems, check_notes=notes)
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
