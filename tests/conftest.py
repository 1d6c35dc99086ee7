"""Shared spec factories and benchmark runners for the test suite."""

import hashlib
import importlib.util
import io
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from kriegerlab import (
    CappedGeometric, Deviation, ExplicitWeights, GeometricTail, IndexClass,
    Indices, SchemeSpec, TwoPoint, validate,
)
from kriegerlab.cli import main

F = Fraction
SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
BENCH = Path(__file__).resolve().parent.parent / "benchmark"

ALL_N = Indices(1, 1)
ODDS = Indices(1, 2)
EVENS = Indices(2, 2)


def single_class(template, mode="rational", prefix=(), indices=ALL_N):
    return SchemeSpec(mode, prefix, (IndexClass(indices, template),))


def dyadic_indices(depth, offset=0) -> list:
    """The partition of offset+1, offset+2, ... into offset + 2**j + 2**(j+1)*k
    for j < depth and offset + 2**depth + 2**depth*k: lcm of the steps 2**depth."""
    return [Indices(offset + 2 ** j, 2 ** (j + 1)) for j in range(depth)] \
        + [Indices(offset + 2 ** depth, 2 ** depth)]


def powers(lam) -> SchemeSpec:
    """Constant two-point spec with lambda_n = lam."""
    return single_class(TwoPoint("const", F(lam)))


def uniform_two_point() -> SchemeSpec:
    return single_class(ExplicitWeights((F(1, 2), F(1, 2))))


def type_one_spec() -> SchemeSpec:
    """mu_n = (1 - 2**-(n+1), 2**-(n+1))."""
    return single_class(TwoPoint("weight", None,
                                 Deviation("geometric", rho=F(1, 2), coeff=F(1, 2))))


def interleave(r, s) -> SchemeSpec:
    """Constant two-point lambda = r on odds, lambda = s on evens."""
    return SchemeSpec("rational", (), (
        IndexClass(ODDS, TwoPoint("const", F(r))),
        IndexClass(EVENS, TwoPoint("const", F(s)))))


def zero_one_spec() -> SchemeSpec:
    """Evens lambda_n = 1 - e**(-1/n), odds lambda_n = e**(-2**-n)."""
    return SchemeSpec("float", (), (
        IndexClass(EVENS, TwoPoint("one_minus_exp", None,
                                   Deviation("power", exponent=1.0))),
        IndexClass(ODDS, TwoPoint("exp", 1.0, Deviation("geometric", rho=0.5)))))


def geometric_scheme(q=F(1, 2)) -> SchemeSpec:
    """Constant fully geometric vectors (1-q) q**i."""
    return single_class(GeometricTail((1 - F(q),), F(q)))


def capped_scheme(q=F(1, 2), cap=3) -> SchemeSpec:
    return single_class(CappedGeometric(F(q), cap))


def two_inf_spec() -> SchemeSpec:
    return SchemeSpec("rational", (), (
        IndexClass(EVENS, TwoPoint("weight", None,
                                   Deviation("geometric", rho=F(1, 2), coeff=F(1, 2)))),
        IndexClass(ODDS, ExplicitWeights((F(1, 2), F(1, 2))))))


@pytest.fixture
def powers_half():
    return validate(powers(F(1, 2)))


@pytest.fixture
def spec_dir():
    return SPEC_DIR


def _load_benchmark_module(monkeypatch, name):
    # registered under its own name, as corpus.py imports checks, and
    # leaving no bytecode in the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def run_benchmark_ops(workload, seed, work):
    """The benchmark's checks module and (op, exit code, stdout) of each op.

    ``benchmark/corpus.py`` builds the operations of the workload and seed
    in ``work``; each runs in process, as the benchmark runs it.
    """
    with pytest.MonkeyPatch.context() as monkeypatch:
        checks = _load_benchmark_module(monkeypatch, "checks")
        corpus = _load_benchmark_module(monkeypatch, "corpus")
        ops = corpus.build(workload, seed, work, SPEC_DIR)
    runs = []
    for op in ops:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(op.argv)
        runs.append((op, code, out.getvalue()))
    return checks, runs


def output_digests(runs, work):
    """(kind, exit code, sha256 of stdout with ``work`` written "<work>") per op."""
    return [(op.kind, code,
             hashlib.sha256(stdout.replace(str(work), "<work>").encode()).hexdigest())
            for op, code, stdout in runs]
