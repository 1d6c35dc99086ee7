import math

import pytest

from kriegerlab import (
    CappedGeometric, Deviation, ExplicitWeights, GeometricTail, IndexClass,
    Indices, Perturbed, SchemeSpec, TwoPoint, constant_series,
    geometric_series, lambda_clusters, power_series, summability,
    union_cluster_report, validate,
)

from conftest import (
    EVENS, F, ODDS, capped_scheme, geometric_scheme, powers, single_class,
    zero_one_spec,
)


# ---------------------------------------------------------------------------
# the union cluster report

def test_cluster_perturbed_limit_ratio():
    spec = single_class(Perturbed((F(2, 3), F(1, 3)),
                                  Deviation("power", exponent=2.0)), mode="float")
    rep = union_cluster_report(validate(spec))
    assert len(rep.points) == 1
    assert abs(float(rep.points[0].value) - 0.5) < 1e-12


def test_cluster_attainment_along_the_template():
    # every reported point is approached by the actual ratio sequence:
    # re-evaluating at large coordinates comes within 1e-6 at least once
    spec = single_class(Perturbed((F(2, 3), F(1, 3)),
                                  Deviation("power", exponent=1.0)), mode="float")
    vs = validate(spec)
    point = float(union_cluster_report(vs).points[0].value)
    samples = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    best = min(abs(_ratio_at(vs, n, 1) - point) for n in samples)
    assert best <= 1e-6


def _ratio_at(vs, n, i):
    w = vs.weights_at(n)
    return float(w[i]) / float(w[0])


def test_cluster_sets_invariant_under_class_order():
    # an explicit and a capped class share the points 1/2 and 1/4
    a = SchemeSpec("rational", (), (
        IndexClass(EVENS, ExplicitWeights((F(4, 7), F(2, 7), F(1, 7)))),
        IndexClass(ODDS, CappedGeometric(F(1, 2), 3))))
    b = SchemeSpec("rational", (), tuple(reversed(a.classes)))

    def points(spec):
        vs = validate(spec)
        kinds = {label: c.template.kind for label, c in zip(vs.class_labels(), vs.classes)}
        return [(p.value, {kinds[w] for w in p.witnesses})
                for p in union_cluster_report(vs).points]

    assert points(a) == points(b) == [(F(1, 8), {"capped_geometric"}),
                                      (F(1, 4), {"explicit", "capped_geometric"}),
                                      (F(1, 2), {"explicit", "capped_geometric"})]


# ---------------------------------------------------------------------------
# the zero flag of a cluster report

def test_prefix_ratios_near_zero_set_the_flag():
    # a float within 1e-9 of 0 is 0, as in every cluster decision
    lr = lambda_clusters(validate(single_class(TwoPoint("const", 1e-15), mode="float")))
    assert lr.clusters.contains_zero


def test_rational_prefix_ratios_near_zero_are_not_zero():
    # rationals compare exactly: 1/10**15 is not 0
    lr = lambda_clusters(validate(powers(F(1, 10 ** 15))))
    assert lr.clusters.values() == (F(1, 10 ** 15),)
    assert not lr.clusters.contains_zero


# ---------------------------------------------------------------------------
# lambda clusters

def test_lambda_constant_half():
    lr = lambda_clusters(validate(powers(F(1, 2))))
    assert lr.limits() == (F(1, 2),)
    assert lr.groups[0].deviations[0].family == "zero"


def test_lambda_zero_one_limits():
    lr = lambda_clusters(validate(zero_one_spec()))
    assert [float(t) for t in lr.limits()] == [0.0, 1.0]
    fams = {float(g.limit): g.deviations[0].family for g in lr.groups}
    assert fams[0.0] == "power"
    assert fams[1.0] == "geometric"


def test_lambda_alternating_limits():
    spec = SchemeSpec("rational", (), (
        IndexClass(ODDS, TwoPoint("const", F(1, 2))),
        IndexClass(EVENS, TwoPoint("const", F(1, 3)))))
    lr = lambda_clusters(validate(spec))
    assert set(lr.limits()) == {F(1, 2), F(1, 3)}


def test_rationals_that_share_a_float_are_one_point_each():
    # 2**-1100 and 2**-1101 are both 0.0 as doubles; classes C1 and C3
    # share the first
    a, b = F(1, 2 ** 1100), F(1, 2 ** 1101)
    spec = SchemeSpec("rational", (), tuple(
        IndexClass(Indices(j + 1, 3), TwoPoint("const", lam))
        for j, lam in enumerate((a, b, a))))
    lr = lambda_clusters(validate(spec))
    assert lr.clusters.values() == lr.limits() == (a, b)
    assert [g.classes for g in lr.groups] == [("C1", "C3"), ("C2",)]


def test_lambda_matches_generic_ratio_clusters():
    # the two-point parametrization agrees with the generic symbol-1 ratios
    spec = SchemeSpec("rational", (), (
        IndexClass(ODDS, TwoPoint("const", F(1, 2))),
        IndexClass(EVENS, TwoPoint("const", F(2, 5)))))
    vs = validate(spec)
    assert set(lambda_clusters(vs).limits()) == set(union_cluster_report(vs).values())


# ---------------------------------------------------------------------------
# summability rule table

def test_geometric_series_summable_with_exact_total():
    v = summability(geometric_series(F(1), F(1, 2)))
    assert v.summable
    # oracle: partial sums of 2**-n converge to 1
    partial = sum(F(1, 2) ** n for n in range(1, 40))
    assert v.total == 1
    assert abs(float(partial) - float(v.total)) < 1e-9


def test_harmonic_series_divergent_with_integral_test_oracle():
    v = summability(power_series(F(1)))
    assert v.divergent
    # oracle: S_N >= log(N+1) at sampled N confirms the integral test
    for n_max in (10 ** 2, 10 ** 4):
        s = sum(1.0 / n for n in range(1, n_max + 1))
        assert s >= math.log(n_max + 1)


def test_p_series_two_summable_with_bounded_partial_sums():
    v = summability(power_series(F(2)))
    assert v.summable
    # oracle: partial sums stay below 2
    s = sum(1.0 / n ** 2 for n in range(1, 10 ** 5))
    assert s < 2


def test_constant_series_divergent():
    assert summability(constant_series(F(1, 3))).divergent


def test_geometric_series_over_progression_total():
    # sum of (1/2)**n over n = 1, 3, 5, ... equals (1/2)/(1 - 1/4) = 2/3
    v = summability(geometric_series(F(1), F(1, 2), ODDS))
    assert v.total == F(2, 3)


def test_geometric_series_far_out_is_summable_without_forming_its_total():
    # (1/2)**(2**40) has 2**40 bits: the verdict stands, the total is left out
    v = summability(geometric_series(F(1), F(1, 2), Indices(2 ** 39, 2 ** 40)))
    assert v.summable and v.total is None
    near = summability(geometric_series(F(1), F(1, 2), Indices(2 ** 16, 2 ** 16)))
    assert near.total == F(1, 2 ** 2 ** 16 - 1)


# ---------------------------------------------------------------------------
# inf liminf, read off the union report

def test_inf_liminf_infinite_alphabets_is_zero():
    assert union_cluster_report(validate(geometric_scheme(F(1, 2)))).inf_liminf() == 0


def test_inf_liminf_bounded_alphabets_min_cluster():
    spec = SchemeSpec("rational", (), (
        IndexClass(ODDS, ExplicitWeights((F(4, 7), F(2, 7), F(1, 7)))),
        IndexClass(EVENS, ExplicitWeights((F(2, 3), F(1, 3))))))
    assert union_cluster_report(validate(spec)).inf_liminf() == F(1, 4)


def test_inf_liminf_mixed_any_infinite_gives_zero():
    spec = SchemeSpec("rational", (), (
        IndexClass(ODDS, GeometricTail((F(1, 2),), F(1, 2))),
        IndexClass(EVENS, ExplicitWeights((F(2, 3), F(1, 3))))))
    assert union_cluster_report(validate(spec)).inf_liminf() == 0


def test_capped_liminf_positive_and_union_report():
    rep = union_cluster_report(validate(capped_scheme(F(1, 2), 3)))
    assert rep.inf_liminf() == F(1, 8)
    assert set(rep.values()) == {F(1, 2), F(1, 4), F(1, 8)}
    assert not rep.unbounded


def test_union_report_flags_infinite_alphabet():
    rep = union_cluster_report(validate(geometric_scheme(F(1, 2))))
    assert rep.unbounded


def test_lambda_clusters_rejects_wider_alphabets():
    from kriegerlab import NotTwoPoint
    spec = single_class(ExplicitWeights((F(4, 7), F(2, 7), F(1, 7))))
    with pytest.raises(NotTwoPoint):
        lambda_clusters(validate(spec))


def test_divergent_corpus_exceeds_bound_numerically():
    # the shipped divergent series cross B = 1e3 well before N_max = 1e6
    assert 10 ** 6 * (1 / 3) > 1e3
    s, n = 0.0, 0
    while s <= 1e3:
        n += 1
        s += n ** -0.5
    assert n <= 10 ** 6
    assert summability(constant_series(F(1, 3))).divergent
    assert summability(power_series(F(1, 2))).divergent


def test_summable_partial_sums_stay_within_closed_form():
    v = summability(geometric_series(F(1), F(1, 2)))
    partial = sum(F(1, 2) ** n for n in range(1, 60))
    assert partial <= v.total
