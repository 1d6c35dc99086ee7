"""Tests of the benchmark's independent checkers and its input generator.

Run from the root of the repository:

    python3 -m pytest benchmark/tests -q
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402

P1, Q1 = 3002333857, 779175948119


def shipped(name):
    return json.loads((ROOT / "specs" / name).read_text())


# ---------------------------------------------------------------------------
# exponent vectors and groups

def test_coprime_basis_small_and_large():
    assert checks.coprime_basis([12, 18]) == [2, 3]
    basis = checks.coprime_basis([P1 * Q1, P1 * 7, Q1 ** 2])
    assert basis == sorted([7, P1, Q1])


def test_coprime_basis_refines_shared_factors_without_factoring():
    n = P1 * Q1
    basis = checks.coprime_basis([n, n ** 2 * 5])
    assert basis == [5, n]
    assert checks.exponent_vector(F(5, n ** 3), basis) == (1, -3)


def test_exponent_vector_rejects_values_outside_the_basis():
    assert checks.exponent_vector(F(4, 9), [2, 3]) == (2, -2)
    assert checks.exponent_vector(F(5, 9), [2, 3]) is None


@pytest.mark.parametrize("gens, kind, generator", [
    ([F(1, 2), F(1, 4)], "cyclic", F(1, 2)),
    ([F(1, 4), F(1, 8)], "cyclic", F(1, 2)),
    ([F(4, 9), F(8, 27)], "cyclic", F(2, 3)),
    ([F(1, 2), F(1, 3)], "dense", None),
    ([F(3), F(6)], "dense", None),
    ([F(6), F(3)], "dense", None),
    ([F(1)], "trivial", None),
    ([F(1, P1 * Q1), F(1, (P1 * Q1) ** 2)], "cyclic", F(1, P1 * Q1)),
])
def test_ratio_group_kind(gens, kind, generator):
    g = checks.RatioGroup(gens)
    assert g.kind == kind
    if generator is not None:
        assert g.generator() == generator


def test_ratio_group_membership():
    g = checks.RatioGroup([F(1, 4)])
    assert g.contains(F(1, 16)) and g.contains(F(4)) and g.contains(F(1))
    assert not g.contains(F(1, 2))
    assert not g.contains(F(1, 5))
    h = checks.RatioGroup([F(6), F(3)])
    assert h.contains(F(2)) and h.contains(F(9, 4))
    assert not h.contains(F(5))
    assert not checks.RatioGroup([F(1)]).contains(F(1, 2))


def test_spec_ratio_generators_of_shipped_specs():
    assert checks.RatioGroup(checks.spec_ratio_generators(shipped("geom_half.spec"))).kind == "cyclic"
    assert checks.RatioGroup(checks.spec_ratio_generators(shipped("interleave_2_3.spec"))).kind == "dense"
    assert checks.RatioGroup(checks.spec_ratio_generators(shipped("uniform.spec"))).kind == "trivial"
    factor = checks.RatioGroup(checks.spec_ratio_generators(shipped("powers_half.factor")))
    assert factor.generator() == F(1, 2)
    assert checks.spec_ratio_generators(shipped("type_one.spec")) is None
    assert checks.spec_ratio_generators(shipped("lambda_zero_one.spec")) is None


# ---------------------------------------------------------------------------
# alphabets and block enumeration

def test_geometric_alphabet_is_truncated_at_the_mass_budget():
    a = checks.coordinate_alphabet(shipped("geom_half.spec"), 1)
    assert a == tuple(F(1, 2 ** (i + 1)) for i in range(10))


def test_geometric_alphabet_merges_base_and_tail_in_descending_order():
    doc = corpus.spec_doc([corpus.t_geometric([1, F(1, 10)], F(1, 2))])
    a = checks.coordinate_alphabet(doc, 1, F(1, 10 ** 6))
    assert list(a) == sorted(a, reverse=True)
    total = 1 + F(1, 10) / (1 - F(1, 2))
    assert a[:3] == (1 / total, F(1, 10) / total, F(1, 20) / total)


def test_capped_alphabet_grows_with_the_class_position():
    a = checks.coordinate_alphabet(shipped("capped_half.spec"), 5)
    raw = [1, F(1, 2), F(1, 4), F(1, 8), F(1, 8), F(1, 8)]
    assert a == tuple(w / sum(raw) for w in raw)


def test_block_values_min_distance():
    doc = shipped("powers_half.spec")
    vals = checks.BlockValues(checks.block_alphabets(doc, 0, 3))
    assert vals.complete and len(vals.values) == 7
    assert vals.min_distance(F(3, 10)) == F(1, 20)
    assert vals.min_distance(F(8)) == 0


def test_block_values_stop_at_the_cap():
    doc = corpus.spec_doc([corpus.t_explicit([F(7), F(5), F(3), F(2)])])
    vals = checks.BlockValues(checks.block_alphabets(doc, 0, 12), cap=1000)
    assert not vals.complete


# ---------------------------------------------------------------------------
# witness and oracle checks on hand-made outputs

def _witness_out(coords, x, y, value):
    return {"witness": {"coordinates": coords, "x": x, "y": y, "value": value}}


def test_witness_check_accepts_a_true_minimal_witness():
    doc = shipped("powers_half.spec")
    out = _witness_out([1, 2], [0, 0], [1, 1], "1/4")
    problems, enumerated = checks.witness_problems(doc, out, 0, 8, F(1, 4), F(1, 10 ** 9))
    assert problems == [] and enumerated


def test_witness_check_catches_wrong_value_and_non_minimal_length():
    doc = shipped("powers_half.spec")
    wrong = _witness_out([1, 2], [0, 0], [1, 1], "1/3")
    assert checks.witness_problems(doc, wrong, 0, 8, F(1, 4), F(1, 10 ** 9))[0]
    longer = _witness_out([1, 2, 3], [0, 0, 0], [1, 0, 0], "1/2")
    problems, _ = checks.witness_problems(doc, longer, 0, 8, F(1, 2), F(1, 10 ** 9))
    assert any("shorter block" in p for p in problems)


def test_witness_check_catches_a_missed_witness():
    doc = shipped("powers_half.spec")
    problems, _ = checks.witness_problems(doc, {"witness": None}, 0, 4, F(1, 8), F(1, 10 ** 9))
    assert problems
    problems, _ = checks.witness_problems(doc, {"witness": None}, 0, 4, F(3, 10), F(1, 10 ** 9))
    assert problems == []


def test_oracle_check():
    doc = shipped("powers_half.spec")
    good = {"results": [{"target": "3/10", "distance": "1/20", "x": [0, 0], "y": [1, 1]}]}
    assert checks.oracle_problems(doc, good, 0, 2, [F(3, 10)]) == []
    far = {"results": [{"target": "3/10", "distance": "7/10", "x": [0, 0], "y": [0, 0]}]}
    assert checks.oracle_problems(doc, far, 0, 2, [F(3, 10)])


def test_sample_check():
    doc = shipped("powers_half.spec")
    ok = {"records": ["0, 0, 1, 1", f"1, {-0.6931471805599453:.17g}, 1, 2"]}
    assert checks.sample_problems(doc, ok, 2) == []
    outside = {"records": ["0, 0, 1, 1", f"1, {-1.0986122886681098:.17g}, 1, 3"]}
    assert checks.sample_problems(doc, outside, 2)
    bad_log = {"records": ["0, 0.5, 1, 1"]}
    assert checks.sample_problems(doc, bad_log, 1)


# ---------------------------------------------------------------------------
# verdict checks on the program's own outputs

def _classify(path):
    from kriegerlab.cli import main
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(["classify", str(path), "--format", "json"])
    return json.loads(buf.getvalue())["verdict"]


def test_verdict_check_passes_a_correct_verdict():
    v = _classify(ROOT / "specs" / "powers_half.spec")
    problems, fault = checks.verdict_problems(shipped("powers_half.spec"), v, ("III_lambda", F(1, 2)))
    assert problems == [] and fault is None


def test_verdict_check_names_the_geometric_fault():
    v = _classify(ROOT / "specs" / "geom_half.spec")
    problems, fault = checks.verdict_problems(shipped("geom_half.spec"), v, ("III_lambda", F(1, 2)))
    assert fault == checks.FAULT_GEOMETRIC_III_1 and problems == []


def test_verdict_check_rejects_a_lambda_outside_the_group():
    v = _classify(ROOT / "specs" / "powers_half.spec")
    problems, _ = checks.verdict_problems(shipped("powers_half.spec"), dict(v, **{"lambda": "1/3"}))
    assert problems


# ---------------------------------------------------------------------------
# the generator

@pytest.mark.parametrize("seed", range(12))
def test_corpus_is_seeded_and_keeps_the_fault_count_fixed(seed, tmp_path):
    ops = corpus.build("classify_corpus", seed, tmp_path / "a", ROOT / "specs")
    again = corpus.build("classify_corpus", seed, tmp_path / "b", ROOT / "specs")
    assert [op.doc for op in ops] == [op.doc for op in again]
    assert len(ops) == len(again)
    cyclic_iii_1 = []
    for op in ops:
        gens = checks.spec_ratio_generators(op.doc)
        label, lam = op.expected
        if gens is None:
            continue
        group = checks.RatioGroup(gens)
        if label == "III_lambda":
            assert group.contains(lam)
        if op.kind == "geometric_dense":
            assert group.kind == "dense"
        if group.kind == "cyclic" and op.kind.startswith("geometric"):
            cyclic_iii_1.append(op)
    assert len(cyclic_iii_1) == len(corpus.FAULT_SPECS)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "witness_exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
