"""Randomized robustness checks over generated specs.

Each generated spec is valid by construction: classes partition the
coordinates beyond a random prefix into arithmetic progressions of a
common step.  The properties are global ones that every spec must
satisfy, whatever its templates.
"""

import contextlib
import io
import math
import os
import tempfile
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kriegerlab import (
    CappedGeometric, Deviation, ExplicitWeights, GeometricTail, IndexClass,
    Indices, Perturbed, SchemeSpec, TwoPoint, block_for, brute_force_block,
    classify, dump_spec, normalize, replay, validate, witness_search,
)
from kriegerlab import test_type_I as type_I_series
from kriegerlab import test_type_II1 as type_II1_series
from kriegerlab import test_type_III as type_III_series
from kriegerlab.classify import ratio_defect, uniformity_defect
from kriegerlab.cli import main
from kriegerlab.exact import format_scalar

from conftest import dyadic_indices

F = Fraction

ADMISSIBLE = {"I_inf", "II_1", "II_inf", "III_0", "III_lambda", "III_1",
              "inconclusive"}


# float two-point constants: 0.5 and 0.5000000005 lie within the 1e-9
# cluster tolerance, and 0.125 = 0.5**3 is a power of one of them only
NEAR_TIE = (0.5, 0.5000000005, 0.125, 1 / 3)

# three float classes whose lambda limits 0.5000000005 and 0.5 merge
NEAR_TIE_SPEC = SchemeSpec("float", (), tuple(
    IndexClass(Indices(j + 1, 3), TwoPoint("const", lam))
    for j, lam in enumerate((0.5000000005, 0.5, 0.125))))


def _scalar(mode):
    """Rationals as they are in rational mode, as doubles in float mode."""
    return float if mode == "float" else (lambda x: x)


@st.composite
def rational_weights(draw, min_size=2, max_size=4, mode="rational"):
    raw = draw(st.lists(st.integers(1, 12), min_size=min_size, max_size=max_size))
    total = sum(raw)
    return tuple(_scalar(mode)(F(r, total)) for r in raw)


@st.composite
def deviations(draw, mode="rational"):
    kind = draw(st.sampled_from(["geometric", "power"]))
    x = _scalar(mode)
    if kind == "geometric":
        return Deviation("geometric", rho=x(F(draw(st.integers(1, 4)), 5)),
                         coeff=x(F(draw(st.integers(1, 4)), 10)))
    return Deviation("power", exponent=x(F(draw(st.integers(1, 3)))),
                     coeff=x(F(draw(st.integers(1, 4)), 10)))


@st.composite
def templates(draw, mode="rational"):
    kind = draw(st.sampled_from(
        ["explicit", "two_point_const", "two_point_weight", "geometric_tail",
         "capped", "perturbed"]))
    x = _scalar(mode)
    if kind == "explicit":
        return ExplicitWeights(draw(rational_weights(mode=mode)))
    if kind == "two_point_const":
        if mode == "float":
            return TwoPoint("const", draw(st.sampled_from(NEAR_TIE)))
        num = draw(st.integers(1, 9))
        den = draw(st.integers(2, 10).filter(lambda d: d > num))
        return TwoPoint("const", F(num, den))
    if kind == "two_point_weight":
        return TwoPoint("weight", None, draw(deviations(mode)))
    if kind == "geometric_tail":
        return GeometricTail(draw(rational_weights(min_size=1, max_size=3, mode=mode)),
                             x(F(draw(st.integers(1, 3)), 4)))
    if kind == "capped":
        return CappedGeometric(x(F(draw(st.integers(1, 3)), 4)),
                               draw(st.integers(1, 4)),
                               draw(st.integers(2, 4)),
                               draw(st.integers(1, 2)))
    return Perturbed(draw(rational_weights(mode=mode)))


@st.composite
def schemes(draw, modes=("rational",)):
    mode = draw(st.sampled_from(modes))
    prefix = tuple(draw(rational_weights(mode=mode))
                   for _ in range(draw(st.integers(0, 3))))
    p = len(prefix)
    if draw(st.integers(0, 4)) == 0:
        # many classes whose steps have an lcm up to 2**40
        indices = dyadic_indices(draw(st.integers(1, 40)), offset=p)
    else:
        k = draw(st.integers(1, 3))
        indices = [Indices(p + 1 + j, k) for j in range(k)]
    return SchemeSpec(mode, prefix, tuple(IndexClass(ix, draw(templates(mode)))
                                          for ix in indices))


BOTH_MODES = ("rational", "float")


@settings(max_examples=80, deadline=None)
@given(schemes(BOTH_MODES))
def test_random_specs_classify_with_replayable_certificates(spec):
    spec = normalize(spec).spec
    validate(spec)
    v = classify(spec)
    assert v.label in ADMISSIBLE
    if v.label == "III_lambda":
        assert 0 < v.lam < 1
    label, lam = replay(v.to_dict())
    assert label == v.label
    assert lam == (None if v.lam is None else format_scalar(v.lam))


@settings(max_examples=40, deadline=None)
@given(schemes(BOTH_MODES))
@example(NEAR_TIE_SPEC)
def test_random_specs_class_order_invariance(spec):
    v1 = classify(spec)
    v2 = classify(SchemeSpec(spec.mode, spec.prefix, tuple(reversed(spec.classes))))
    assert (v1.label, v1.lam) == (v2.label, v2.lam)


# a replacement for each flag or group a branch prints beside its values
TAMPERED = {
    "zero_cluster": st.booleans(),
    "zero_one": st.booleans(),
    "inf_liminf_zero": st.booleans(),
    "group": st.none() | st.fixed_dictionaries({
        "kind": st.sampled_from(["trivial", "cyclic", "dense"]),
        "generator": st.sampled_from([None, "1/3", 0.25])}),
}


@settings(max_examples=60, deadline=None)
@given(schemes(BOTH_MODES), st.data())
def test_replay_ignores_recorded_flags_and_group(spec, data):
    doc = classify(spec).to_dict()
    honest = replay(doc)
    ev = doc["certificate"]["evidence"]
    branch = ev.get(ev.get("branch"))       # bounded_multisymbol records no dict
    for key, replacement in TAMPERED.items():
        if isinstance(branch, dict) and key in branch:
            branch[key] = data.draw(replacement, label=key)
    assert replay(doc) == honest


# the per-coordinate value of each series, as the series tests define it
SERIES = (
    (type_I_series, lambda w: 1 - max(w)),
    (type_II1_series, lambda w: 0 if len(set(w)) == 1 else uniformity_defect(w)),
    (type_III_series, ratio_defect),
)


@settings(max_examples=40, deadline=None)
@given(schemes(BOTH_MODES))
def test_reported_totals_are_direct_sums(spec):
    # a reported total is the sum over every coordinate; 200 coordinates leave
    # a geometric tail below (4/5)**200
    vs = validate(normalize(spec).spec)
    for series, value in SERIES:
        total = series(vs).total
        if total is None:
            continue
        direct = sum(value(vs.weights_at(n)) for n in range(1, 201))
        assert abs(float(total) - float(direct)) <= 1e-9
        if vs.mode == "rational":
            assert direct <= total


@settings(max_examples=40, deadline=None)
@given(schemes(), st.integers(0, 50))
def test_random_specs_search_matches_oracle(spec, salt):
    vs = validate(normalize(spec).spec)
    delta = F(1, 64)
    block = block_for(vs, 0, 3, delta)
    words = 1
    for s in block.sizes():
        words *= s
    if words > 10 ** 4:
        return
    target = F(2 * salt + 1, 51)
    eps = F(1, 97)
    if eps >= target:
        return
    oracle = brute_force_block(vs, block, [target])[0]["distance"]
    found = witness_search(vs, target, eps, start=0, max_block=3, delta=delta)
    assert (found is not None) == (oracle < eps)
    if found is not None:
        assert abs(found.value - target) < eps


@settings(max_examples=40, deadline=None)
@given(schemes())
def test_random_specs_normalized_weights_descend_and_sum(spec):
    vs = validate(normalize(spec).spec)
    for n in (1, 2, 5, 11):
        size = vs.alphabet_size(n)
        if size is None:
            continue
        w = vs.weights_at(n)
        assert sum(w) == 1
        assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))
        assert max(w) == w[0]


# ---------------------------------------------------------------------------
# exit codes of every command on tiny-weight specs far out

@st.composite
def tiny_templates(draw):
    """Templates whose small weights shrink to hundreds of bits far out."""
    kind = draw(st.sampled_from(
        ["two_point_const", "two_point_weight", "explicit", "geometric_tail", "capped"]))
    tiny = F(1, 2 ** draw(st.integers(1, 300)))
    if kind == "two_point_const":
        return TwoPoint("const", tiny)
    if kind == "two_point_weight":
        return TwoPoint("weight", None, Deviation(
            "geometric", rho=F(1, 2 ** draw(st.integers(1, 8))), coeff=F(1, 2)))
    if kind == "explicit":
        small = F(1, 10 ** draw(st.integers(1, 60)))
        return ExplicitWeights((1 - tiny / 2 - small / 2, tiny / 2, small / 2))
    if kind == "geometric_tail":
        q = F(1, 2 ** draw(st.integers(1, 40)))
        return GeometricTail((1 - q,), q)
    return CappedGeometric(tiny, draw(st.integers(1, 3)), 2, 1)


@st.composite
def tiny_specs(draw):
    # float mode underflows where rational mode stays exact
    mode = draw(st.sampled_from(["rational", "float"]))
    k = draw(st.integers(1, 3))
    return SchemeSpec(mode, (), tuple(
        IndexClass(Indices(1 + j, k), draw(tiny_templates())) for j in range(k)))


def _commands(path, start, out):
    far = ["--start", str(start)]
    sampling = ["--samples", "20", "--window", "4", *far]
    return [
        ["classify", path, "--format", "json"],
        ["witness", path, "--target", "1/3", "--eps", "1/1000", "--max-block", "4", *far],
        ["sample", path, *sampling, "--format", "json"],
        ["oracle", path, "--length", "2", "--targets", "1/2", "1/3", *far],
        ["report", path, *sampling, "--max-block", "4", "--format", "json"],
        ["convert", path, "--from", "scheme", "--out", out],
    ]


@settings(max_examples=25, deadline=None)
@given(tiny_specs(), st.integers(500, 3000))
def test_every_command_exits_0_1_or_2_on_tiny_weights_far_out(spec, start):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tiny.spec")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_spec(spec))
        for argv in _commands(path, start, os.path.join(tmp, "out.factor")):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 1, 2), (argv[0], err.getvalue())
