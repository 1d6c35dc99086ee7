import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kriegerlab import (
    CappedGeometric, Deviation, ExplicitWeights, GeometricTail, IndexClass,
    Indices, Perturbed, SchemeSpec, TwoPoint, classify, mult_group, normalize,
    load_spec, replay, union_cluster_report, validate,
)
from kriegerlab import test_type_I as type_I_series
from kriegerlab import test_type_II1 as type_II1_series
from kriegerlab import test_type_III as type_III_series
from kriegerlab.classify import uniformity_defect, ratio_defect
from kriegerlab.exact import format_scalar

from conftest import (
    EVENS, F, ODDS, SPEC_DIR, capped_scheme, geometric_scheme, interleave, powers,
    single_class, two_inf_spec, type_one_spec, uniform_two_point,
    zero_one_spec,
)


# ---------------------------------------------------------------------------
# the three series tests

def test_type_I_summable_with_exact_half():
    v = type_I_series(validate(type_one_spec()))
    assert v.summable
    assert v.total == F(1, 2)


def test_type_I_divergent_for_constant_weights():
    assert type_I_series(validate(powers(F(1, 2)))).divergent
    assert type_I_series(validate(uniform_two_point())).divergent


def test_type_II1_uniform_sum_exactly_zero():
    v = type_II1_series(validate(uniform_two_point()))
    assert v.summable
    assert v.total == 0


def test_type_II1_divergent_constant_term():
    # oracle: the per-coordinate value for weights (2/3, 1/3)
    oracle = (abs(1 - math.sqrt(4 / 3)) ** 2 + abs(1 - math.sqrt(2 / 3)) ** 2) / 2
    assert abs(uniformity_defect((F(2, 3), F(1, 3))) - oracle) < 1e-15
    assert oracle > 0
    assert type_II1_series(validate(powers(F(1, 2)))).divergent


def test_type_II1_infinite_alphabet_precondition():
    v = type_II1_series(validate(geometric_scheme(F(1, 2))))
    assert v.divergent
    assert "precondition" in v.evidence


def test_type_III_constant_term_exact():
    # oracle by direct evaluation: (2/9)*min(1,C) + (2/9)*min(1/4,C)
    t = ratio_defect((F(2, 3), F(1, 3)), F(1))
    assert t == F(2, 9) + F(1, 18) == F(5, 18)
    assert t > 0
    v = type_III_series(validate(powers(F(1, 2))), F(1))
    assert v.divergent


def _pairwise_ratio_defect(weights, c):
    """sum over i != j of w_i w_j min((w_i/w_j - 1)**2, C), pair by pair."""
    total = F(0)
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            if i != j:
                total += wi * wj * min((F(wi) / wj - 1) ** 2, c)
    return total


# small numerators repeat weights and hit the cap boundary d**2 == C:
# 2:1 at C = 1, 3:2 and 1:2 at C = 1/4, 5:2 at C = 9/4
weight_values = st.one_of(st.integers(1, 12),
                          st.builds(F, st.integers(1, 12), st.integers(1, 6)))
caps = st.one_of(st.sampled_from((F(1), F(1, 4), F(9, 4))),
                 st.builds(F, st.integers(1, 40), st.integers(1, 12)))


@settings(max_examples=300, deadline=None)
@given(st.lists(weight_values, min_size=1, max_size=9), caps)
def test_exact_ratio_defect_matches_pairwise_sum(weights, c):
    value = ratio_defect(tuple(weights), c)
    assert isinstance(value, F)
    assert value == _pairwise_ratio_defect(weights, c)


@pytest.mark.parametrize("weights, c, expected", [
    ((F(1, 2),), F(1), 0),
    ((2, 1), F(1), 2 * 1 + 2 * F(1, 4)),                 # 2:1 sits on the cap
    ((F(2, 3), F(1, 3)), F(1, 4), F(2, 9) * (F(1, 4) + F(1, 4))),
    ((5, 2, 5), F(9, 4), 2 * 10 * F(9, 4) + 2 * 10 * F(9, 25)),
])
def test_exact_ratio_defect_on_the_cap_boundary(weights, c, expected):
    assert ratio_defect(weights, c) == expected


def test_type_III_uniform_is_summable_zero():
    v = type_III_series(validate(uniform_two_point()), F(1))
    assert v.summable
    assert v.total == 0


def test_type_III_type_one_spec_summable():
    # terms comparable to the geometric weight deviation
    assert type_III_series(validate(type_one_spec()), F(1)).summable


def test_type_III_cap_choice_does_not_change_verdict():
    vs = validate(powers(F(1, 2)))
    for c in (F(1, 100), F(1), F(10)):
        assert type_III_series(vs, c).divergent
    vs2 = validate(type_one_spec())
    for c in (F(1, 100), F(1), F(10)):
        assert type_III_series(vs2, c).summable


def test_type_III_zero_one_spec_comparable_to_harmonic():
    spec = zero_one_spec()
    vs = validate(spec)
    v = type_III_series(vs, 1.0)
    assert v.divergent
    # oracle: the even-coordinate value behaves like 2/n
    for n in (10 ** 3, 10 ** 5):
        t = ratio_defect(vs.weights_at(2 * ((n + 1) // 2)), 1.0)
        m = 2 * ((n + 1) // 2)
        assert 1.5 / m < t < 2.5 / m


def prefixed_finite_spec(mode="rational"):
    """Prefix (1/3, 2/3) on coordinate 1, (1/4, 3/4) on the finite class
    {2, 3}, uniform explicit (1/2, 1/2) from coordinate 4 on; every vector
    is given unsorted, so the spec needs normalizing."""
    if mode == "rational":
        prefix, finite, uniform = (F(1, 3), F(2, 3)), (F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))
    else:
        prefix, finite, uniform = (1 / 3, 2 / 3), (0.25, 0.75), (0.5, 0.5)
    return SchemeSpec(mode, (prefix,), (
        IndexClass(Indices(members=(2, 3)), ExplicitWeights(finite)),
        IndexClass(Indices(4, 1), ExplicitWeights(uniform))))


def test_series_add_prefix_and_finite_class_parts():
    vs = validate(normalize(prefixed_finite_spec()).spec)
    # the uniform infinite class has type-I term 1/2 at every coordinate
    v1 = type_I_series(vs)
    assert v1.divergent
    assert v1.total is None
    # the infinite class adds nothing to the other two series, so each total
    # is the prefix value plus twice the finite-class value
    def ud(w):
        return sum(abs(1 - math.sqrt(2 * x)) ** 2 for x in w) / 2

    v2 = type_II1_series(vs)
    assert v2.summable
    assert abs(v2.total - (ud((2 / 3, 1 / 3)) + 2 * ud((3 / 4, 1 / 4)))) < 1e-15
    # ratio defect at C = 1: (2/9)*1 + (2/9)*(1/4) = 5/18 for the prefix and
    # (3/16)*1 + (3/16)*(4/9) = 13/48 for each finite coordinate
    v3 = type_III_series(vs, F(1))
    assert v3.summable
    assert v3.total == F(5, 18) + 2 * F(13, 48) == F(59, 72)
    assert classify(vs).label == "II_1"


@pytest.mark.parametrize("spec", [prefixed_finite_spec(), prefixed_finite_spec("float"),
                                  interleave(F(1, 2), F(1, 3)), zero_one_spec()])
def test_classify_takes_a_validated_scheme_as_given(spec):
    vs = validate(normalize(spec).spec)
    assert classify(vs).to_dict() == classify(spec).to_dict()


# ---------------------------------------------------------------------------
# canonical classifications

def test_classify_powers_half():
    v = classify(powers(F(1, 2)))
    assert v.label == "III_lambda"
    assert v.lam == F(1, 2)


def test_classify_uniform():
    assert classify(uniform_two_point()).label == "II_1"


def test_classify_type_one():
    v = classify(type_one_spec())
    assert v.label == "I_inf"
    assert v.certificate.evidence["type_I"]["total"] == "1/2"


def test_classify_interleave_dense():
    assert classify(interleave(F(1, 2), F(1, 3))).label == "III_1"


def test_classify_zero_one():
    v = classify(zero_one_spec())
    assert v.label == "III_0"
    assert v.certificate.evidence["two_point"]["zero_one"] is True


def test_classify_geometric_tail():
    v = classify(geometric_scheme(F(1, 2)))
    assert v.label == "III_1"
    assert "unbounded-liminf-zero" in v.certificate.fired


def test_classify_two_inf_by_elimination():
    v = classify(two_inf_spec())
    assert v.label == "II_inf"
    assert "II-infinity-by-elimination" in v.certificate.fired


# ---------------------------------------------------------------------------
# type-III branches

def test_bounded_multisymbol_is_inconclusive():
    spec = single_class(ExplicitWeights((F(4, 7), F(2, 7), F(1, 7))))
    v = classify(spec)
    assert v.label == "inconclusive"
    assert "bounded-multisymbol-unresolved" in v.certificate.fired


def test_capped_growing_alphabets_cyclic():
    # cluster set {1/2, 1/4, 1/8}, exponents (1,2,3) with gcd 1
    spec = capped_scheme(F(1, 2), 3)
    vs = validate(spec)
    rep = union_cluster_report(vs)
    values = sorted(rep.values())
    assert values == [F(1, 8), F(1, 4), F(1, 2)]
    exps = [round(math.log(float(x)) / math.log(0.5)) for x in values]
    assert math.gcd(*exps) == 1
    v = classify(spec)
    assert v.label == "III_lambda"
    assert v.lam == F(1, 2)


def test_capped_two_classes_dense():
    spec = SchemeSpec("rational", (), (
        IndexClass(EVENS, CappedGeometric(F(1, 2), 2)),
        IndexClass(ODDS, CappedGeometric(F(1, 3), 1))))
    v = classify(spec)
    assert v.label == "III_1"
    assert "unbounded-dense-group" in v.certificate.fired


def test_unbounded_zero_cluster_via_two_point_limit():
    # a two-point class with vanishing lambda next to an unbounded capped class
    spec = SchemeSpec("float", (), (
        IndexClass(EVENS, TwoPoint("one_minus_exp", None,
                                   Deviation("power", exponent=1.0))),
        IndexClass(ODDS, CappedGeometric(0.5, 2))))
    v = classify(spec)
    assert v.label == "III_1"
    assert v.certificate.fired[-1] in ("unbounded-zero-cluster", "unbounded-liminf-zero")


# ---------------------------------------------------------------------------
# two-point subtleties

def test_zero_one_precedence_warning():
    # deviations at limit 1 diverge, which alone would force the other label;
    # the {0,1} rule is applied first and the suppressed condition is surfaced
    spec = SchemeSpec("float", (), (
        IndexClass(EVENS, TwoPoint("one_minus_exp", None,
                                   Deviation("power", exponent=1.0))),
        IndexClass(ODDS, TwoPoint("exp", 1.0, Deviation("power", exponent=1.0)))))
    v = classify(spec)
    assert v.label == "III_0"
    assert any(w.startswith("zero-one-precedence") for w in v.certificate.warnings)


def test_lambda_one_with_divergent_deviations_is_III_1():
    spec = single_class(TwoPoint("exp", 1.0, Deviation("power", exponent=0.5)),
                        mode="float")
    v = classify(spec)
    assert v.label == "III_1"
    assert "two-point-deviations-divergent" in v.certificate.fired


def test_near_tie_float_lambdas_merge_to_the_smallest_in_either_class_order():
    # 0.5 and 0.5000000005 are one cluster value within 1e-9: the point, its
    # lambda group and the lambda set all carry the smallest, 0.5
    classes = tuple(IndexClass(Indices(j + 1, 3), TwoPoint("const", lam))
                    for j, lam in enumerate((0.5000000005, 0.5, 0.125)))
    for order in (classes, classes[::-1]):
        v = classify(SchemeSpec("float", (), order))
        assert v.describe() == "III_lambda lambda=0.5"
        ev = v.to_dict()["certificate"]["evidence"]["two_point"]
        points = ev["lambda_report"]["clusters"]["points"]
        groups = ev["lambda_report"]["groups"]
        assert [p["value"] for p in points] == [g["limit"] for g in groups] \
            == ev["lambda_set"] == [0.125, 0.5]
        assert [p["witnesses"] for p in points] == [g["classes"] for g in groups]


def test_lambda_one_with_summable_deviations_is_II_1():
    spec = single_class(TwoPoint("exp", 1.0, Deviation("power", exponent=1.0)),
                        mode="float")
    # deviations 1/n: squared comparison 1/n**2 summable, so not type III
    assert classify(spec).label == "II_1"


def test_ambiguous_zero_warning():
    spec = SchemeSpec("float", (), (
        IndexClass(EVENS, TwoPoint("one_minus_exp", None,
                                   Deviation("power", exponent=1.0))),
        IndexClass(ODDS, TwoPoint("const", 0.5))))
    v = classify(spec)
    assert v.label == "III_lambda"
    assert abs(float(v.lam) - 0.5) < 1e-12
    assert any(w.startswith("ambiguous-zero") for w in v.certificate.warnings)


def test_prefix_coordinates_ignored_by_two_point_branch():
    prefix = ((F(1, 2), F(1, 4), F(1, 8), F(1, 8)),)
    spec = SchemeSpec("rational", prefix,
                      (IndexClass(Indices(2, 1), TwoPoint("const", F(1, 2))),))
    v = classify(spec)
    assert v.label == "III_lambda"
    assert v.lam == F(1, 2)


# ---------------------------------------------------------------------------
# product rule conformance

PRODUCT_GRID = [F(1, 2), F(1, 3), F(1, 4), F(2, 3), F(4, 9)]


@pytest.mark.parametrize("r", PRODUCT_GRID)
@pytest.mark.parametrize("s", PRODUCT_GRID)
def test_product_rule_conformance(r, s):
    expected = mult_group([r, s])
    v = classify(interleave(r, s))
    if expected.kind == "dense":
        assert v.label == "III_1"
    else:
        assert v.label == "III_lambda"
        assert v.lam == expected.generator


# ---------------------------------------------------------------------------
# invariance (small versions; the full randomized suites run in acceptance)

def _random_prefix(rng, length):
    out = []
    for _ in range(length):
        k = rng.randint(2, 5)
        vec = [F(rng.randint(1, 9)) for _ in range(k)]
        total = sum(vec)
        out.append(tuple(v / total for v in vec))
    return tuple(out)


def _permute_spec(spec, rng):
    prefix = []
    for vec in spec.prefix:
        order = list(range(len(vec)))
        rng.shuffle(order)
        prefix.append(tuple(vec[i] for i in order))
    classes = []
    for cls in spec.classes:
        tpl = cls.template
        if isinstance(tpl, ExplicitWeights):
            order = list(range(len(tpl.weights)))
            rng.shuffle(order)
            tpl = ExplicitWeights(tuple(tpl.weights[i] for i in order))
        elif isinstance(tpl, TwoPoint) and tpl.form == "const" and rng.random() < 0.5:
            lam = tpl.value
            tpl = ExplicitWeights((lam / (1 + lam), 1 / (1 + lam)))
        elif isinstance(tpl, Perturbed) and tpl.deviation.family == "zero":
            order = list(range(len(tpl.limit)))
            rng.shuffle(order)
            tpl = Perturbed(tuple(tpl.limit[i] for i in order), tpl.deviation)
        classes.append(IndexClass(cls.indices, tpl))
    return SchemeSpec(spec.mode, tuple(prefix), tuple(classes))


def _invariance_corpus():
    shifted = lambda spec, p: SchemeSpec(
        spec.mode, _random_prefix(random.Random(0), p),
        tuple(IndexClass(Indices(c.indices.start + p, c.indices.step), c.template)
              for c in spec.classes))
    return [
        powers(F(1, 2)),
        uniform_two_point(),
        type_one_spec(),
        interleave(F(1, 2), F(1, 3)),
        geometric_scheme(F(1, 2)),
        capped_scheme(F(1, 2), 3),
        two_inf_spec(),
    ]


def test_permutation_invariance_small():
    rng = random.Random(11)
    for spec in _invariance_corpus():
        base = classify(spec)
        for _ in range(5):
            v = classify(_permute_spec(spec, rng))
            assert (v.label, v.lam) == (base.label, base.lam)


def test_prefix_invariance_small():
    rng = random.Random(13)
    for spec in _invariance_corpus():
        p = 4
        shifted = SchemeSpec(
            spec.mode, _random_prefix(rng, p),
            tuple(IndexClass(Indices(c.indices.start + p, c.indices.step),
                             c.template) for c in spec.classes))
        base = classify(shifted)
        for _ in range(5):
            again = SchemeSpec(shifted.mode, _random_prefix(rng, p), shifted.classes)
            v = classify(again)
            assert (v.label, v.lam) == (base.label, base.lam)


def test_normalization_invariance_small():
    for spec in _invariance_corpus():
        assert classify(normalize(spec).spec).label == classify(spec).label


# ---------------------------------------------------------------------------
# certificates

def test_certificate_replay_matches_labels():
    for spec in _invariance_corpus() + [zero_one_spec(),
                                        single_class(ExplicitWeights((F(4, 7), F(2, 7), F(1, 7))))]:
        v = classify(spec)
        doc = v.to_dict()
        label, lam = replay(doc)
        assert label == v.label
        assert lam == (None if v.lam is None else format_scalar(v.lam))


def _tampered(flag, value):
    if flag == "group":         # the other non-trivial kind
        return {**value, "kind": "cyclic" if value["kind"] == "dense" else "dense"}
    return not value


@pytest.mark.parametrize("name, branch, flag, honest", [
    ("lambda_zero_one.spec", "two_point", "zero_one", ("III_0", None)),
    ("interleave_2_3.spec", "two_point", "zero_one", ("III_1", None)),
    ("capped_half.spec", "unbounded", "inf_liminf_zero", ("III_lambda", "1/2")),
    ("capped_half.spec", "unbounded", "zero_cluster", ("III_lambda", "1/2")),
    ("powers_half.spec", "two_point", "group", ("III_lambda", "1/2")),
    ("interleave_2_3.spec", "two_point", "group", ("III_1", None)),
])
def test_replay_decides_from_recorded_values_not_flags(name, branch, flag, honest):
    # the flags and the group are printed for the reader; replay re-derives
    # them from the recorded lambda_set, inf_liminf and cluster points, so
    # tampering with one changes nothing
    doc = classify(load_spec(SPEC_DIR / name)).to_dict()
    assert replay(doc) == honest
    ev = doc["certificate"]["evidence"][branch]
    ev[flag] = _tampered(flag, ev[flag])
    assert replay(doc) == honest


def test_certificate_records_mode_and_cap():
    v = classify(powers(F(1, 2)), c=F(2))
    assert v.certificate.mode == "rational"
    assert v.certificate.c_parameter == F(2)
    assert v.certificate.to_dict()["C"] == "2"


def test_labels_always_admissible():
    admissible = {"I_inf", "II_1", "II_inf", "III_0", "III_lambda", "III_1",
                  "inconclusive"}
    for spec in _invariance_corpus() + [zero_one_spec()]:
        v = classify(spec)
        assert v.label in admissible
        if v.label == "III_lambda":
            assert 0 < v.lam < 1


def test_unbounded_trivial_group_decision_path():
    # not constructible from the shipped templates (an unbounded-size class
    # always contributes a cluster point below 1), so the decision function
    # is exercised directly on synthetic evidence
    from kriegerlab.classify import _decide_unbounded

    def evidence(points, inf_liminf, unbounded=False):
        return {"inf_liminf": inf_liminf,
                "cluster_report": {"points": [{"value": v, "recurring": r} for v, r in points],
                                   "unbounded": unbounded}}

    trivial, dense = mult_group([F(1)]), mult_group([F(1, 2), F(1, 3)])
    eighth = [("1/8", True)]
    assert _decide_unbounded(evidence(eighth, "1/8"), trivial) == ("III_0", "unbounded-trivial-group")
    assert _decide_unbounded(evidence([(0.125, True)], 0.125), dense) \
        == ("III_1", "unbounded-dense-group")
    assert _decide_unbounded(evidence([], "0", unbounded=True), None) \
        == ("III_1", "unbounded-liminf-zero")
    assert _decide_unbounded(evidence([], "1/8", unbounded=True), None) \
        == ("III_1", "unbounded-zero-cluster")
    assert _decide_unbounded(evidence([("0", True), *eighth], "1/8"), None) \
        == ("III_1", "unbounded-zero-cluster")
    assert _decide_unbounded(evidence([(1e-10, True), (0.125, True)], 0.125), None) \
        == ("III_1", "unbounded-zero-cluster")
    # a point attained only on finitely many coordinates is no cluster point
    assert _decide_unbounded(evidence([("0", False), *eighth], "1/8"), trivial) \
        == ("III_0", "unbounded-trivial-group")
    assert _decide_unbounded(evidence(eighth, "0"), None) == ("III_1", "unbounded-liminf-zero")
    assert _decide_unbounded(evidence(eighth, 1e-10), None) == ("III_1", "unbounded-liminf-zero")


def test_mixed_infinite_alphabet_with_two_point_class():
    spec = SchemeSpec("rational", (), (
        IndexClass(ODDS, GeometricTail((F(1, 2),), F(1, 2))),
        IndexClass(EVENS, TwoPoint("const", F(1, 2)))))
    v = classify(spec)
    assert v.label == "III_1"
    assert "unbounded-liminf-zero" in v.certificate.fired


def test_perturbed_uniform_two_point_divergent_deviations():
    spec = single_class(Perturbed((0.5, 0.5), Deviation("power", exponent=0.5)),
                        mode="float")
    v = classify(spec)
    assert v.label == "III_1"
    assert "two-point-deviations-divergent" in v.certificate.fired


def test_perturbed_uniform_square_summable_deviations_is_II_1():
    spec = single_class(Perturbed((0.5, 0.5), Deviation("power", exponent=0.75)),
                        mode="float")
    assert classify(spec).label == "II_1"


def test_two_point_divergent_deviation_rule_as_specified():
    # the documented decision rule: non-summable deviations at a nonzero
    # cluster value force the dense-type label
    spec = single_class(TwoPoint("exp", 0.5, Deviation("power", exponent=1.0)),
                        mode="float")
    v = classify(spec)
    assert v.label == "III_1"
    assert "two-point-deviations-divergent" in v.certificate.fired
