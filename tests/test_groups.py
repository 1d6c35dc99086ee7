import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kriegerlab import DomainError, ZeroInSet, commensurable, format_scalar, mult_group
from kriegerlab.cli import main
from kriegerlab.groups import _primitive_root, _verify_power_equation

from conftest import SPEC_DIR

F = Fraction

# primes of 20, 26 and 27 digits: far beyond what trial division or
# general-purpose factoring finishes on when multiplied together
R = 10000000000000000051
P = 10000000000000000000000013
Q = 100000000000000000000000067


# ---------------------------------------------------------------------------
# independent falsification oracle: no continued-fraction convergent p/q of
# log(a)/log(b) with q <= bound satisfies a**q == b**p (exact arithmetic)

def cf_falsification_oracle(a: Fraction, b: Fraction, bound: int = 10 ** 6) -> bool:
    """True when every convergent fails the power equation up to the bound."""
    x = math.log(float(a)) / math.log(float(b))
    h0, h1, k0, k1 = 1, 0, 0, 1
    value = x
    for _ in range(64):
        step = math.floor(value)
        h0, h1 = step * h0 + h1, h0
        k0, k1 = step * k0 + k1, k0
        if k0 > bound or h0 > bound:
            break
        if h0 > 0 and k0 > 0 and a ** k0 == b ** h0:
            return False
        frac = value - step
        if frac <= 1e-18:
            break
        value = 1.0 / frac
    return True


# ---------------------------------------------------------------------------
# commensurable

def test_quarter_and_half():
    assert commensurable(F(1, 4), F(1, 2)) == (2, 1)


def test_half_and_third_incommensurable():
    assert commensurable(F(1, 2), F(1, 3)) is None
    assert cf_falsification_oracle(F(1, 2), F(1, 3))


def test_identity_pair():
    assert commensurable(F(3, 7), F(3, 7)) == (1, 1)


def test_symmetry_up_to_swap():
    for a, b in [(F(1, 4), F(1, 2)), (F(8, 27), F(4, 9)), (F(1, 9), F(1, 3))]:
        pq = commensurable(a, b)
        qp = commensurable(b, a)
        assert pq is not None and qp == (pq[1], pq[0])


def test_domain_errors():
    with pytest.raises(DomainError):
        commensurable(F(3, 2), F(1, 2))
    with pytest.raises(DomainError):
        commensurable(F(1, 2), F(0))


def test_float_path_agrees_on_easy_pairs():
    assert commensurable(0.25, 0.5) == (2, 1)
    assert commensurable(0.5, 1 / 3) is None


# convergents with max(p, q) > 64 are verified in 60-digit decimal logs

def test_wide_convergent_is_verified_at_high_precision():
    assert commensurable(2.0 ** -67, 2.0 ** -65) == (67, 65)
    assert commensurable(F(1, 2 ** 67), 2.0 ** -65) == (67, 65)
    assert commensurable(2.0 ** -67 * (1 + 1e-11), 2.0 ** -65) is None


def _mpmath_power_equation(a, b, p, q, rel_tol=1e-12):
    with mpmath.workdps(60):
        err = q * mpmath.log(mpmath.mpf(a)) - p * mpmath.log(mpmath.mpf(b))
        return abs(err) <= rel_tol


def test_power_equation_matches_mpmath_near_the_tolerance():
    # a = b**(p/q) * (1 + delta) puts |q log a - p log b| within a factor
    # of five of the 1e-12 tolerance, on both sides
    rng = random.Random(20251)
    outcomes = []
    for _ in range(400):
        q = rng.randint(65, 5000)
        p = rng.randint(1, 5000)
        b = rng.uniform(0.05, 0.95)
        delta = rng.choice((-1, 1)) * rng.uniform(0.2, 5.0) * 1e-12 / q
        a = b ** (p / q) * (1 + delta)
        if rng.random() < 0.5:
            p, q = q, p
            a, b = b, a
        expected = _mpmath_power_equation(a, b, p, q)
        assert _verify_power_equation(a, b, p, q) == expected
        assert _verify_power_equation(F(a), b, p, q) == expected
        outcomes.append(expected)
    assert 50 < sum(outcomes) < 350


def test_mixed_prime_support_is_exactly_dense():
    # 2/3 and 1/2: valuation vectors {2:1,3:-1} and {2:-1} are not parallel
    assert commensurable(F(2, 3), F(1, 2)) is None
    assert cf_falsification_oracle(F(2, 3), F(1, 2))


# ---------------------------------------------------------------------------
# mult_group

def test_trivial_group():
    g = mult_group([F(1)])
    assert g.kind == "trivial"


def test_only_an_exact_one_is_dropped():
    assert mult_group([1.0]).kind == "trivial"
    g = mult_group([F(1, 2), F(1)])
    assert (g.kind, g.generator) == ("cyclic", F(1, 2))
    # the series tests see a float just below 1 as a constant ratio, and so
    # does the group
    g = mult_group([0.9999999999999])
    assert (g.kind, g.generator) == ("cyclic", 0.9999999999999)


def test_cyclic_from_powers_of_half():
    g = mult_group([F(1, 2), F(1, 8)])
    assert g.kind == "cyclic"
    assert g.generator == F(1, 2)
    assert g.confidence == "exact"


def test_dense_half_third():
    g = mult_group([F(1, 2), F(1, 3)])
    assert g.kind == "dense"
    assert g.confidence == "exact"


def test_zero_rejected():
    with pytest.raises(ZeroInSet):
        mult_group([F(0), F(1, 2)])


def test_generator_is_largest_below_one():
    # 1/4 and 1/8 generate powers of 1/2 jointly
    g = mult_group([F(1, 4), F(1, 8)])
    assert g.generator == F(1, 2)


def test_non_dyadic_generator_recovery():
    g = mult_group([F(4, 9), F(8, 27)])
    assert g.kind == "cyclic"
    assert g.generator == F(2, 3)


def test_exhaustive_small_exponent_gcd():
    # oracle: integer gcd of the exponents
    for lam in (F(1, 2), F(2, 3), F(1, R)):
        for a in range(1, 8):
            for b in range(1, 8):
                g = mult_group([lam ** a, lam ** b])
                assert g.kind == "cyclic"
                assert g.generator == lam ** math.gcd(a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.sampled_from([F(1, 2), F(1, 3), F(3, 5), F(2, 3), F(1, R)]))
def test_insert_one_and_duplicates_do_not_matter(a, b, lam):
    base = [lam ** a, lam ** b]
    g1 = mult_group(base)
    g2 = mult_group(base + [F(1)] + base)
    assert (g1.kind, g1.generator) == (g2.kind, g2.generator)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=15), min_size=1, max_size=4),
       st.sampled_from([F(1, 2), F(2, 5), F(3, 7), F(1, R)]))
def test_cyclic_output_reproduces_inputs(exponents, lam):
    pts = [lam ** k for k in exponents]
    g = mult_group(pts)
    assert g.kind == "cyclic"
    for x in pts:
        k = round(math.log(float(x)) / math.log(float(g.generator)))
        assert g.generator ** k == x


@pytest.mark.parametrize("pts, evidence", [
    ([F(1, 4)], "common generator 1/2 with exponents (2,), gcd 2"),
    ([F(1, R ** 2)], f"common generator 1/{R} with exponents (2,), gcd 2"),
    ([F(1, (P * Q) ** 6), F(1, (P * Q) ** 4)],
     f"common generator 1/{P * Q} with exponents (6, 4), gcd 2"),
])
def test_cyclic_evidence_names_the_primitive_generator(pts, evidence):
    assert mult_group(pts).evidence == (evidence,)


def test_large_semiprime_spec_is_exactly_dense(tmp_path, capsys):
    text = (SPEC_DIR / "interleave_2_3.spec").read_text()
    assert '"1/3"' in text
    path = tmp_path / "semiprime.spec"
    path.write_text(text.replace('"1/3"', f'"1/{P * Q}"'))
    start = time.perf_counter()
    code = main(["classify", str(path), "--format", "json"])
    elapsed = time.perf_counter() - start
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert code == 0
    assert verdict["label"] == "III_1"
    group = verdict["certificate"]["evidence"]["two_point"]["group"]
    assert (group["kind"], group["confidence"]) == ("dense", "exact")
    assert elapsed < 1.0


def test_high_prime_power_exponents_are_fast():
    # powers are divided out by repeated squares, not one factor at a time
    e = 50_000
    start = time.perf_counter()
    g = mult_group([Fraction(1, 2 ** e), Fraction(1, 2 ** (e + 1))])
    elapsed = time.perf_counter() - start
    assert (g.kind, g.generator) == ("cyclic", Fraction(1, 2))
    assert g.evidence == (f"common generator 1/2 with exponents ({e}, {e + 1}), gcd 1",)
    assert elapsed < 0.5


class _CountingInt(int):
    """An int that counts the floor divisions it is the dividend of."""

    divisions = 0

    def __floordiv__(self, other):
        _CountingInt.divisions += 1
        return int(self) // other


def test_wide_non_power_has_a_fast_primitive_root():
    # every prime k up to the bit length is tried: each costs a float
    # estimate, and Newton only where the root is wide.  The work is the
    # number of Newton divisions n // r**(k-1): a few hundred from the float
    # estimate, tens of thousands from 1 << ceil(bits / k) (as in
    # _reference_primitive_root)
    n = _CountingInt(2 * 3 ** 10000)
    _CountingInt.divisions = 0
    assert _primitive_root(n) == n
    assert 0 < _CountingInt.divisions < 1000


def _reference_primitive_root(n: int) -> int:
    """Newton from 1 << ceil(bits / k) at every prime k up to the bit length."""
    k = 2
    while k <= n.bit_length():
        r = 1 << -(-n.bit_length() // k)
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
        if r ** k == n:
            n = r
        else:
            k += 1
            while any(k % d == 0 for d in range(2, math.isqrt(k) + 1)):
                k += 1
    return n


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(2, 10 ** 6), st.integers(2 ** 31, 2 ** 33),
                 st.integers(2 ** 51, 2 ** 54)),
       st.integers(1, 24), st.sampled_from((0, 0, 1, -1, 2)))
def test_primitive_root_matches_reference(r, k, offset):
    # perfect powers r**k (r itself may be one) and their near misses, with
    # roots next to 2**32, where the estimate changes method, and 2**52
    n = r ** k + offset
    assert _primitive_root(n) == _reference_primitive_root(n)


# ---------------------------------------------------------------------------
# reference: prime valuation vectors by trial division over a known prime
# list, then Euclid on the exponents

REF_PRIMES = (2, 3, 5, 7, 11, 13, 101, 997, R)


def ref_valuation(x: Fraction) -> dict:
    vec = {}
    for n, sign in ((x.numerator, 1), (x.denominator, -1)):
        for p in REF_PRIMES:
            while n % p == 0:
                n //= p
                vec[p] = vec.get(p, 0) + sign
        assert n == 1, "point outside the reference prime list"
    return vec


def ref_ratio(va: dict, vb: dict):
    """t with va = t*vb, else None."""
    if set(va) != set(vb):
        return None
    t = {Fraction(va[p], vb[p]) for p in vb}
    return t.pop() if len(t) == 1 else None


def ref_commensurable(a: Fraction, b: Fraction):
    t = ref_ratio(ref_valuation(a), ref_valuation(b))
    return None if t is None else (t.numerator, t.denominator)


def ref_group(pts) -> dict:
    """mult_group(pts).to_dict() for exact points in (0,1]."""
    pts = [x for x in pts if x != 1]
    if not pts:
        return {"kind": "trivial", "generator": None, "confidence": "exact",
                "max_denominator": None, "evidence": ["all points equal 1"]}
    vectors = [ref_valuation(x) for x in pts]
    for x, vec in zip(pts[1:], vectors[1:]):
        if ref_ratio(vec, vectors[0]) is None:
            return {"kind": "dense", "generator": None, "confidence": "exact",
                    "max_denominator": None,
                    "evidence": [f"log {format_scalar(x)} / log {format_scalar(pts[0])} "
                                 "is irrational (prime valuation vectors not parallel)"]}
    content = math.gcd(*vectors[0].values())
    unit = {p: e // content for p, e in vectors[0].items()}
    h = math.prod(Fraction(p) ** e for p, e in unit.items())
    if h > 1:
        h, unit = 1 / h, {p: -e for p, e in unit.items()}
    p0 = min(unit)
    exponents = tuple(vec[p0] // unit[p0] for vec in vectors)
    g = math.gcd(*exponents)
    return {"kind": "cyclic", "generator": format_scalar(h ** g), "confidence": "exact",
            "max_denominator": None,
            "evidence": [f"common generator {format_scalar(h)} with exponents "
                         f"{exponents}, gcd {g}"]}


def _point(exponents: dict) -> Fraction:
    x = math.prod(Fraction(p) ** e for p, e in exponents.items())
    return x if x <= 1 else 1 / x


prime_powers = st.dictionaries(st.sampled_from(REF_PRIMES), st.integers(-4, 4),
                               min_size=1, max_size=3).map(_point)


@st.composite
def point_sets(draw):
    """Points from the reference primes, many of them powers h**k of one h."""
    h = draw(prime_powers)
    parts = draw(st.lists(st.tuples(st.booleans(), prime_powers, st.integers(1, 6)),
                          min_size=1, max_size=4))
    return [(h if shared else x) ** k for shared, x, k in parts]


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_exact_path_matches_prime_valuation_reference(pts):
    assert mult_group(pts).to_dict() == ref_group(pts)
    for a, b in combinations([x for x in pts if x != 1], 2):
        expected = (1, 1) if a == b else ref_commensurable(a, b)
        assert commensurable(a, b) == expected


def test_float_path_cyclic_with_bounded_confidence():
    g = mult_group([0.25, 0.125])
    assert g.kind == "cyclic"
    assert g.confidence == "bounded_denominator"
    assert abs(g.generator - 0.5) < 1e-9


def test_float_path_dense():
    g = mult_group([0.5, 1 / 3])
    assert g.kind == "dense"
    assert g.max_denominator == 10 ** 6
