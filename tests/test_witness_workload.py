"""The benchmark's witness_exact operations pass the benchmark's own checks.

``benchmark/corpus.py`` builds the operations of a seed and
``benchmark/checks.py`` checks each witness and oracle output against
its own block enumeration.  Running them here on one seed makes a
search that returns a wrong, non-minimal or late witness fail in this
suite, not first in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

from kriegerlab.cli import main

from conftest import SPEC_DIR

BENCH = Path(__file__).resolve().parent.parent / "benchmark"


def _load(monkeypatch, name):
    # registered under its own name, as corpus.py imports checks, and
    # leaving no bytecode in the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_witness_exact_ops_pass_the_benchmark_checks(tmp_path, monkeypatch, capsys):
    checks = _load(monkeypatch, "checks")
    corpus = _load(monkeypatch, "corpus")
    ops = corpus.build("witness_exact", 5, tmp_path, SPEC_DIR)
    kinds = {op.kind.split("/")[0] for op in ops}
    assert kinds == {"witness_miss", "witness_reach", "oracle"}
    for op in ops:
        code = main(op.argv)
        out = json.loads(capsys.readouterr().out)
        p = op.params
        if op.kind.startswith("oracle"):
            assert code == 0
            assert checks.oracle_problems(op.doc, out, p["start"], p["length"],
                                          p["targets"]) == [], op.argv
        else:
            assert code == (2 if out["witness"] is None else 0)
            if op.kind.startswith("witness_reach"):
                assert out["witness"] is not None, op.argv
            problems, _ = checks.witness_problems(op.doc, out, p["start"], p["max_block"],
                                                  p["target"], p["eps"])
            assert problems == [], op.argv
