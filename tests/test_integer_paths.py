"""Exact weight-vector arithmetic on integer numerators equals the Fraction
expression it stands for, and float input keeps its float code, bit for bit."""

import operator
from fractions import Fraction as F
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from kriegerlab import CappedGeometric, GeometricTail, TwoPoint, truncate_alphabet, validate
from kriegerlab.classify import (
    _SERIES_RULES, _ratio_defect_exact, _ratio_defect_geometric_tail,
    _ratio_defect_numerators, _two_point_I, _two_point_III, _type_I_value, ratio_defect,
)
from kriegerlab.exact import FLOAT, RATIONAL, _exact_sum, _numerators
from kriegerlab.scheme import (
    ExplicitWeights, _descending_normalized, _div, _is_sorted_desc, _sum_and_order,
    _two_point_weights,
)

from conftest import single_class

positive = st.builds(F, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
# 2-6 entries drawn from a pool of at most 4, so repeats are common
vectors = st.lists(positive, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=6))
float_vectors = st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=6)
unit = st.builds(lambda n, d: F(n, n + d), st.integers(1, 60), st.integers(1, 60))


def _pairwise_defect(weights):
    """The type-III value by its definition, pair by pair in Fractions."""
    return sum((wi * wj * min((wi / wj - 1) ** 2, 1)
                for i, wi in enumerate(weights) for j, wj in enumerate(weights) if i != j),
               F(0))


def _bits(values):
    return [(type(x), x.hex()) for x in values]


@settings(max_examples=300, deadline=None)
@given(vectors, st.integers(1, 30))
def test_exact_vectors_equal_their_fraction_expressions(vec, scale):
    total = sum(vec)
    normal = _descending_normalized(vec)
    assert normal == tuple(_div(w, total) for w in sorted(vec, reverse=True))
    assert all(type(w) is F for w in normal)
    assert _sum_and_order(vec, RATIONAL) == (total == 1, _is_sorted_desc(vec))
    assert _sum_and_order(normal, RATIONAL) == (True, True)
    assert _type_I_value(vec) == 1 - max(vec)
    explicit_I = _SERIES_RULES[ExplicitWeights.kind][0]
    assert explicit_I(ExplicitWeights(normal), RATIONAL).value == 1 - _div(max(normal), sum(normal))
    assert _exact_sum(vec) == total and type(_exact_sum(vec)) is F
    # any common denominator gives the same reduced value
    lcm, nums = _numerators(vec)
    expected = _pairwise_defect(vec)
    assert _ratio_defect_exact(vec) == expected
    assert _ratio_defect_numerators(scale * lcm, [scale * n for n in nums]) == expected


@settings(max_examples=200, deadline=None)
@given(unit)
def test_two_point_const_values(lam):
    tpl = TwoPoint("const", lam)
    assert _two_point_I(tpl, RATIONAL).value == lam / (1 + lam)
    assert _two_point_III(tpl, RATIONAL).value == _pairwise_defect(_two_point_weights(lam))


@settings(max_examples=100, deadline=None)
@given(unit, st.integers(1, 6), st.integers(2, 5), st.integers(1, 3), st.integers(1, 40))
def test_capped_numerators_equal_those_of_the_weights(q, cap, size_start, size_step, n):
    vs = validate(single_class(CappedGeometric(q, cap, size_start, size_step)))
    alphabet = truncate_alphabet(vs, n, F(1, 1000))
    weights = vs.weights_at(n)
    assert alphabet.numerators == _numerators(weights)
    assert alphabet.retained_mass == sum(weights)


def _tail_weights(tpl, mode):
    """The symbols of a tail until their mass reaches 1 - 1e-9 or 200 of
    them: rational ones grow by w q, float ones come from ``tpl.weight``."""
    total = tpl.total()
    weights, mass = [], F(0) if mode == RATIONAL else 0.0
    while float(mass) < 1 - 1e-9 and len(weights) < 200:
        i = len(weights)
        if mode == RATIONAL and i >= len(tpl.base):
            w = weights[-1] * tpl.ratio
        else:
            w = _div(tpl.weight(i), total)
        weights.append(w if mode == RATIONAL else float(w))
        mass += weights[-1]
    return tuple(weights)


@settings(max_examples=150, deadline=None)
@given(st.lists(positive, min_size=1, max_size=3), unit)
def test_tail_defect_equals_that_of_its_fraction_weights(base, q):
    tpl = GeometricTail(tuple(base), q)
    assert _ratio_defect_geometric_tail(tpl, RATIONAL) == _ratio_defect_exact(_tail_weights(tpl, RATIONAL))
    ftpl = GeometricTail(tuple(map(float, base)), float(q))
    assert _bits([_ratio_defect_geometric_tail(ftpl, FLOAT)]) \
        == _bits([ratio_defect(_tail_weights(ftpl, FLOAT))])


@settings(max_examples=300, deadline=None)
@given(float_vectors)
def test_float_vectors_keep_the_float_code(vec):
    total = sum(vec)
    assert _bits(_descending_normalized(vec)) == _bits(w / total for w in sorted(vec, reverse=True))
    assert _bits([_type_I_value(vec)]) == _bits([1 - max(vec)])
    assert _sum_and_order(vec, FLOAT) == (abs(total - 1.0) <= 1e-12, _is_sorted_desc(vec))


@settings(max_examples=300, deadline=None)
@given(st.lists(positive | st.floats(0, 1e6), max_size=5))
def test_exact_sum_equals_a_fold_from_fraction_zero(values):
    # a series total was folded as Fraction(0) + t_1 + t_2 + ...
    old = reduce(operator.add, values, F(0))
    new = _exact_sum(values)
    if type(old) is F:
        assert type(new) is F and new == old
    else:
        assert _bits([new]) == _bits([old])
