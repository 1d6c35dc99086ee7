import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kriegerlab import (
    CappedGeometric, CoverageGap, Deviation, ExplicitWeights, FactorSpec, GeometricTail,
    IndexClass, Indices, NonPositiveWeight, NotNormalized, Overlap, Perturbed,
    SchemeSpec, SpecError, TwoPoint, classify, factor_to_scheme, normalize,
    scheme_to_factor, truncate_alphabet, validate,
)
from kriegerlab.cli import main
from kriegerlab.exact import ScalarError, as_mode
from kriegerlab.scheme import ModeError, _div

from conftest import ALL_N, EVENS, ODDS, F, dyadic_indices, powers, single_class


# ---------------------------------------------------------------------------
# validation

def test_constant_two_point_is_valid():
    vs = validate(powers(F(1, 2)))
    assert vs.alphabet_size(1) == 2
    assert vs.alphabet_size(17) == 2
    assert vs.weights_at(5) == (F(2, 3), F(1, 3))


def test_evens_odds_cover_is_valid():
    spec = SchemeSpec("rational", (), (
        IndexClass(EVENS, TwoPoint("const", F(1, 2))),
        IndexClass(ODDS, TwoPoint("const", F(1, 3)))))
    vs = validate(spec)
    assert vs.locate(4)[0] == 0
    assert vs.locate(7)[0] == 1


def test_zero_weight_rejected():
    with pytest.raises(NonPositiveWeight):
        validate(single_class(ExplicitWeights((F(1, 2), F(1, 2), F(0)))))


def test_coverage_gap_detected():
    spec = SchemeSpec("rational", (), (
        IndexClass(Indices(1, 3), TwoPoint("const", F(1, 2))),
        IndexClass(Indices(2, 3), TwoPoint("const", F(1, 2)))))
    with pytest.raises(CoverageGap):
        validate(spec)


def test_many_class_cover_is_validated_without_a_coordinate_scan(monkeypatch):
    # 41 dyadic classes: the steps' lcm is 2**40, far past any scan of the cover
    calls = [0]
    contains = Indices.contains

    def counted(self, n):
        calls[0] += 1
        if calls[0] > 10_000:
            raise AssertionError("more than 10,000 membership tests")
        return contains(self, n)

    monkeypatch.setattr(Indices, "contains", counted)
    spec = SchemeSpec("rational", (), tuple(
        IndexClass(ix, TwoPoint("const", F(1, 2))) for ix in dyadic_indices(40)))
    assert classify(spec).describe() == "III_lambda lambda=1/2"
    # without its last class the cover first misses that class's start
    with pytest.raises(CoverageGap, match=f"coordinate {2 ** 40} is not covered"):
        validate(SchemeSpec("rational", (), spec.classes[:-1]))


def test_overlap_detected():
    spec = SchemeSpec("rational", (), (
        IndexClass(ALL_N, TwoPoint("const", F(1, 2))),
        IndexClass(EVENS, TwoPoint("const", F(1, 3)))))
    with pytest.raises(Overlap):
        validate(spec)


def test_prefix_class_overlap_detected():
    spec = SchemeSpec("rational", ((F(1, 2), F(1, 2)),),
                      (IndexClass(ALL_N, TwoPoint("const", F(1, 2))),))
    with pytest.raises(Overlap):
        validate(spec)


def test_unnormalized_rejected_with_pointer_to_normalize():
    with pytest.raises(NotNormalized):
        validate(single_class(ExplicitWeights((F(1, 3), F(1, 3)))))
    # a prefix vector must carry its largest weight at symbol 0, as a class does
    with pytest.raises(NotNormalized):
        validate(single_class(TwoPoint("const", F(1, 2)), indices=Indices(2, 1),
                              prefix=((F(1, 6), F(1, 2), F(1, 3)),)))


def test_transcendental_template_needs_float_mode():
    with pytest.raises(ModeError):
        validate(single_class(
            TwoPoint("exp", F(1, 2), Deviation("power", exponent=F(2)))))


def test_no_infinite_class_is_a_gap():
    spec = SchemeSpec("rational", ((F(1, 2), F(1, 2)),), ())
    with pytest.raises(CoverageGap):
        validate(spec)


# ---------------------------------------------------------------------------
# normalization

def test_normalize_sorts_and_records_swap():
    spec = SchemeSpec("rational", ((F(1, 3), F(2, 3)),),
                      (IndexClass(ALL_N, TwoPoint("const", F(1, 2))),))
    result = normalize(spec)
    assert result.spec.prefix[0] == (F(2, 3), F(1, 3))


def test_normalize_identity_on_sorted():
    spec = SchemeSpec("rational", ((F(2, 3), F(1, 3)),),
                      (IndexClass(ALL_N, TwoPoint("const", F(1, 2))),))
    result = normalize(spec)
    assert result.spec.prefix[0] == (F(2, 3), F(1, 3))


def test_normalize_rescales_unnormalized_vector():
    spec = SchemeSpec("rational", ((F(2), F(1)),),
                      (IndexClass(ALL_N, TwoPoint("const", F(1, 2))),))
    out = normalize(spec).spec
    assert out.prefix[0] == (F(2, 3), F(1, 3))


def test_normalize_idempotent_on_classes():
    spec = single_class(ExplicitWeights((F(1, 6), F(3, 6), F(2, 6))))
    once = normalize(spec).spec
    twice = normalize(once).spec
    assert once == twice
    assert once.classes[0].template.weights == (F(1, 2), F(1, 3), F(1, 6))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=6))
def test_normalize_idempotent_and_sorted(raw):
    spec = single_class(ExplicitWeights(tuple(F(x) for x in raw)))
    once = normalize(spec).spec
    tpl = once.classes[0].template
    assert sum(tpl.weights) == 1
    assert all(tpl.weights[i] >= tpl.weights[i + 1] for i in range(len(raw) - 1))
    assert normalize(once).spec == once
    vs = validate(once)
    w = vs.weights_at(3)
    assert max(w) == w[0]


# ---------------------------------------------------------------------------
# factor <-> scheme

def test_powers_factor_data_round_trip():
    factor = FactorSpec("rational", (),
                        (IndexClass(ALL_N, ExplicitWeights((F(2, 3), F(1, 3)))),))
    scheme = factor_to_scheme(factor)
    vs = validate(scheme)
    # eigenvalue list {2/3, 1/3} is the two-point vector with ratio 1/2
    w = vs.weights_at(1)
    assert len(w) == 2 and w[1] / w[0] == F(1, 2)
    back = scheme_to_factor(scheme)
    assert back.classes == scheme.classes
    assert factor_to_scheme(FactorSpec(back.mode, back.prefix, back.classes)) == scheme


def test_uniform_factor_data():
    factor = FactorSpec("rational", (),
                        (IndexClass(ALL_N, ExplicitWeights((F(1, 2), F(1, 2)))),))
    scheme = factor_to_scheme(factor)
    assert validate(scheme).weights_at(4) == (F(1, 2), F(1, 2))


def test_unnormalized_factor_vector_rescaled():
    factor = FactorSpec("rational", (),
                        (IndexClass(ALL_N, ExplicitWeights((F(2), F(1)))),))
    scheme = factor_to_scheme(factor)
    assert scheme.classes[0].template.weights == (F(2, 3), F(1, 3))


def test_geometric_spectra_round_trip():
    factor = FactorSpec("rational", (),
                        (IndexClass(ALL_N, GeometricTail((F(1, 2),), F(1, 2))),))
    scheme = factor_to_scheme(factor)
    vs = validate(scheme)
    assert vs.has_infinite_alphabet()
    assert scheme_to_factor(scheme).classes == scheme.classes


# ---------------------------------------------------------------------------
# truncation

def geometric_vs():
    return validate(single_class(GeometricTail((F(1, 2),), F(1, 2))))


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100),
       st.integers(1, 6), st.integers(2, 5), st.integers(1, 4), st.integers(0, 30),
       st.sampled_from(["rational", "float"]))
def test_capped_weights_match_per_symbol_formula(ratio, cap, size_start, size_step, pos, mode):
    # weight i is ratio**min(i, cap) / total, also where the tail repeats
    if mode == "float":
        ratio = float(ratio)
    tpl = CappedGeometric(ratio, cap, size_start, size_step)
    size = tpl.alphabet_size(pos)
    total = tpl._norm(size)
    want = tuple(as_mode(_div(ratio ** min(i, cap), total), mode) for i in range(size))
    got = tpl.weights_at(pos + 1, pos, mode)
    assert got == want
    assert [type(w) for w in got] == [type(w) for w in want]


@pytest.mark.parametrize("template", [CappedGeometric(0.5, 3), TwoPoint("const", 0.5)])
def test_rational_mode_rejects_a_float_ratio(template):
    # the exact weights are built from the ratio's integers, which a float
    # in rational mode does not have: an input error, not a binary fraction
    vs = validate(single_class(template))
    with pytest.raises(ScalarError, match="is not exact; rational mode requires Fraction data"):
        vs.weights_at(3)


def test_truncate_geometric_budget_eighth():
    # independent oracle: cumulative sums of (1/2)**(i+1) are 1/2, 3/4, 7/8
    t = truncate_alphabet(geometric_vs(), 1, F(1, 8))
    assert t.weights == (F(1, 2), F(1, 4), F(1, 8))
    assert t.retained_mass == F(7, 8)
    assert not t.full


def test_truncate_geometric_budget_half_minus():
    t = truncate_alphabet(geometric_vs(), 1, F(49, 100))
    assert t.weights == (F(1, 2), F(1, 4))
    assert t.retained_mass == F(3, 4)


def test_truncate_finite_alphabet_keeps_everything():
    vs = validate(powers(F(1, 2)))
    t = truncate_alphabet(vs, 3, F(1, 100))
    assert t.full
    assert t.weights == (F(2, 3), F(1, 3))
    assert t.retained_mass == 1


@pytest.mark.parametrize("spec", [
    powers(F(1, 2)),
    single_class(ExplicitWeights((F(7, 17), F(5, 17), F(3, 17), F(2, 17)))),
    single_class(CappedGeometric(F(2, 3), 2)),
    SchemeSpec("rational", ((F(2, 3), F(1, 3)), (F(1, 2), F(1, 3), F(1, 6))),
               (IndexClass(Indices(3, 1), TwoPoint("const", F(2, 5))),)),
    single_class(ExplicitWeights((F(1, 2), F(1, 3), F(1, 6))), mode="float"),
])
def test_truncate_finite_alphabet_retains_its_exact_sum(spec):
    vs = validate(normalize(spec).spec)
    for n in (1, 2, 5, 40):
        t = truncate_alphabet(vs, n, F(1, 100))
        assert t.full
        assert t.retained_mass == sum(t.weights)
        assert type(t.retained_mass) is type(sum(t.weights))


def test_truncate_retained_mass_meets_budget_and_is_monotone():
    vs = geometric_vs()
    last = F(0)
    for denom in (3, 5, 9, 17, 33):
        t = truncate_alphabet(vs, 1, F(1, denom))
        assert t.retained_mass >= 1 - F(1, denom)
        assert t.retained_mass >= last
        last = t.retained_mass


def _summed_truncation(tpl, delta):
    # one Fraction mass per symbol, each weight from the template's formula
    target = 1 - delta
    weights, mass = [], F(0)
    while mass < target:
        weights.append(as_mode(tpl.weight(len(weights)), "rational"))
        mass += weights[-1]
    return tuple(weights), mass


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 30), max_size=3),
       st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100),
       st.fractions(min_value=F(1, 50), max_value=F(49, 50), max_denominator=60),
       st.fractions(min_value=F(1, 10 ** 6), max_value=F(1, 2), max_denominator=10 ** 6))
def test_truncate_rational_tail_matches_summed_loop(raw, share, q, delta):
    # head weights of total mass share (the budget may end inside them),
    # then a tail b*q**i carrying the rest
    head = [F(r, sum(raw)) * share for r in raw]
    b = (1 - sum(head)) * (1 - q)
    vs = validate(normalize(single_class(GeometricTail(tuple(head) + (b,), q))).spec)
    tpl = vs.classes[0].template
    t = truncate_alphabet(vs, 1, delta)
    assert (t.weights, t.retained_mass) == _summed_truncation(tpl, delta)
    assert not t.full
    assert all(type(w) is F for w in t.weights)


def test_truncate_rejects_bad_budget():
    with pytest.raises(SpecError):
        truncate_alphabet(geometric_vs(), 1, F(3, 4))


# ---------------------------------------------------------------------------
# misc structure queries

def test_limsup_and_two_point_flags():
    assert validate(powers(F(1, 2))).limsup_alphabet() == 2
    assert validate(powers(F(1, 2))).all_two_point()
    geo = geometric_vs()
    assert geo.limsup_alphabet() is None
    assert geo.has_infinite_alphabet()


def test_weights_sum_exactly_in_rational_mode():
    vs = validate(normalize(single_class(
        ExplicitWeights((F(5), F(3), F(2))))).spec)
    for n in (1, 2, 10, 101):
        assert sum(vs.weights_at(n)) == 1


def test_weight_form_needs_exact_deviation_in_rational_mode():
    with pytest.raises(ModeError):
        validate(single_class(
            TwoPoint("weight", None,
                     Deviation("power", exponent=F(1, 2), coeff=F(1, 4)))))
    # integer exponents are fine
    validate(single_class(
        TwoPoint("weight", None,
                 Deviation("power", exponent=F(2), coeff=F(1, 4)))))


def test_factor_conversion_strips_zero_eigenvalues():
    factor = FactorSpec("rational", (),
                        (IndexClass(ALL_N, ExplicitWeights((F(2, 3), F(1, 3), F(0)))),))
    scheme = factor_to_scheme(factor)
    assert scheme.classes[0].template.weights == (F(2, 3), F(1, 3))
    with pytest.raises(NonPositiveWeight):
        factor_to_scheme(FactorSpec(
            "rational", (), (IndexClass(ALL_N, ExplicitWeights((F(1), F(0)))),)))


def test_truncate_geometric_budget_half():
    t = truncate_alphabet(geometric_vs(), 1, F(1, 2))
    assert t.weights == (F(1, 2),)
    assert t.retained_mass == F(1, 2)


def test_geometric_tail_normalize_preserves_weight_multiset():
    # the tail continues from the last base entry; normalizing an unsorted
    # base must keep the same weights, pulling tail elements forward
    tpl = GeometricTail((F(1, 4), F(1, 2)), F(1, 2))
    new = tpl.normalized()
    total = tpl.total()
    assert total == F(5, 4)
    # original scaled vector: 1/5, 2/5, 1/5, 1/10, 1/20, ...
    assert new.base == (F(2, 5), F(1, 5), F(1, 5))
    assert new.ratio == F(1, 2)
    assert new.is_normalized("rational")
    assert new.normalized() == new
    vs = validate(single_class(new))
    w = truncate_alphabet(vs, 1, F(1, 10))
    assert w.weights == (F(2, 5), F(1, 5), F(1, 5), F(1, 10))


def test_perturbed_deviation_anchor_respected():
    # with a deviation, symbol 0 must stay put: only the rest is sorted
    tpl = Perturbed((F(1, 2), F(1, 8), F(3, 8)), Deviation("power", exponent=1.0))
    new = tpl.normalized()
    assert new.limit == (F(1, 2), F(3, 8), F(1, 8))
    # a limit whose maximum is elsewhere cannot be anchored and is rejected
    bad = single_class(Perturbed((F(1, 8), F(1, 2), F(3, 8)),
                                 Deviation("power", exponent=1.0)), mode="float")
    with pytest.raises(NotNormalized):
        validate(normalize(bad).spec)


def test_alphabet_key_is_shared_by_equal_alphabets_only():
    # six classes of step 6 after a two-coordinate prefix; the first four
    # templates give every coordinate of their class one alphabet
    templates = (
        ExplicitWeights((F(3, 5), F(2, 5))),
        GeometricTail((F(1, 2),), F(1, 2)),
        TwoPoint("const", F(1, 3)),
        Perturbed((F(1, 2), F(1, 4), F(1, 4))),
        CappedGeometric(F(1, 2), 3),
        TwoPoint("weight", None, Deviation("geometric", rho=F(1, 2), coeff=F(1, 2))),
    )
    vs = validate(normalize(SchemeSpec(
        "rational", ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        tuple(IndexClass(Indices(3 + k, 6), t) for k, t in enumerate(templates)))).spec)
    keys = {n: vs.alphabet_key(n) for n in range(1, 40)}
    for n, key in keys.items():
        where, _ = vs.locate(n)
        assert key == (("class", where) if where != "prefix" and where < 4
                       else ("coordinate", n))
    # a shared key implies equal alphabets, not the converse: the two equal
    # prefix vectors keep their own keys
    alphabets = {}
    for n, key in keys.items():
        weights = truncate_alphabet(vs, n, F(1, 1000)).weights
        assert alphabets.setdefault(key, weights) == weights
    assert len(set(keys.values())) == 4 + sum(
        1 for n in keys if vs.locate(n)[0] in ("prefix", 4, 5))
    float_vs = validate(single_class(
        Perturbed((F(1, 2), F(1, 4), F(1, 4)), Deviation("power", exponent=1.0)),
        mode="float"))
    assert float_vs.alphabet_key(5) == ("coordinate", 5)


# ---------------------------------------------------------------------------
# the explicit deviation family

EXPLICIT_DEVIATION = {"family": "explicit", "values": [0.3, 0.1, 0.7]}


def _exp_two_point_doc(mode, lam):
    return {"mode": mode, "prefix": [],
            "classes": [{"indices": {"start": 1, "step": 1}, "template": {
                "kind": "two_point", "lambda": lam}}]}


def test_explicit_deviation_survives_convert_both_ways(tmp_path, capsys):
    src = tmp_path / "exp.spec"
    src.write_text(json.dumps(_exp_two_point_doc("float", {
        "form": "exp", "value": 0.5, "deviation": EXPLICIT_DEVIATION})), encoding="utf-8")
    factor = tmp_path / "exp.factor"
    assert main(["convert", str(src), "--from", "scheme", "--out", str(factor)]) == 0
    capsys.readouterr()
    assert main(["convert", str(factor), "--from", "factor"]) == 0
    back = json.loads(capsys.readouterr().out)
    for doc in (json.loads(factor.read_text(encoding="utf-8")), back):
        assert doc["classes"][0]["template"]["lambda"]["deviation"] == EXPLICIT_DEVIATION
    assert back["data"] == "scheme"


def test_explicit_deviation_classifies_by_its_limit(tmp_path, capsys):
    src = tmp_path / "exp.spec"
    src.write_text(json.dumps(_exp_two_point_doc("float", {
        "form": "exp", "value": 0.5, "deviation": EXPLICIT_DEVIATION})), encoding="utf-8")
    assert main(["classify", str(src), "--format", "json"]) == 0
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert (verdict["label"], verdict["lambda"]) == ("III_lambda", 0.5)
    cert = verdict["certificate"]
    assert "two-point-cyclic-group" in cert["fired"]
    groups = cert["evidence"]["two_point"]["lambda_report"]["groups"]
    assert [g["deviations"] for g in groups] == [["explicit(3 values)"]]


def test_explicit_deviation_is_not_a_weight(tmp_path, capsys):
    # eps_n = 0 past the listed values would zero a weight
    src = tmp_path / "weight.spec"
    src.write_text(json.dumps(_exp_two_point_doc("rational", {
        "form": "weight", "deviation": {"family": "explicit", "values": ["1/3", "1/4"]}})),
        encoding="utf-8")
    assert main(["classify", str(src)]) == 1
    assert capsys.readouterr().err == (
        "error: two-point weight form needs a strictly positive deviation "
        "(eps_n = 0 would zero a weight)\n")


def test_explicit_deviation_is_read_by_position_in_the_class():
    dev = Deviation("explicit", values=(0.3, 0.1, 0.7))
    vs = validate(SchemeSpec("float", (), (
        IndexClass(ODDS, TwoPoint("const", 0.5)),
        IndexClass(EVENS, TwoPoint("exp", 0.5, dev)))))
    # coordinates 2, 4, 6, 8 are positions 0 to 3 of the even class
    for n, eps in ((2, 0.3), (4, 0.1), (6, 0.7), (8, 0.0)):
        w0, w1 = vs.weights_at(n)
        assert w1 / w0 == pytest.approx(0.5 * math.exp(-eps), rel=1e-15)
