import bisect
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kriegerlab import (
    BlockTooLarge, ExplicitWeights, InsufficientSamples, OverlappingBlocks,
    SearchBudgetExceeded, SpecError, SymbolOutOfRange, Witness, WordLengthMismatch,
    block_for, brute_force_block, cocycle_ratio, compose_witnesses, estimate_ratio_set,
    lattice_detect, log_cocycle, mc_sample_cocycle, replay_witness, truncate_alphabet,
    validate, witness_search,
)
from kriegerlab import cocycle, normalize
from kriegerlab.cli import _load_scheme
from kriegerlab.cocycle import _moves, _ratio_moves

from conftest import (
    F, SPEC_DIR, capped_scheme, geometric_scheme, interleave, powers, single_class,
    type_one_spec, uniform_two_point,
)

LOG2 = math.log(2.0)


def normalize_spec(spec):
    return normalize(spec).spec


# ---------------------------------------------------------------------------
# the cocycle itself

def test_identity_word_pair(powers_half):
    blk = block_for(powers_half, 0, 4)
    x = (0, 1, 0, 1)
    assert cocycle_ratio(blk, x, x) == 1
    assert log_cocycle(blk, x, x) == 0.0


def test_single_flip_ratio(powers_half):
    blk = block_for(powers_half, 0, 1)
    assert cocycle_ratio(blk, (0,), (1,)) == F(1, 2)
    assert cocycle_ratio(blk, (1,), (0,)) == F(2)


def test_geometric_coordinate_ratio():
    vs = validate(geometric_scheme(F(1, 2)))
    blk = block_for(vs, 0, 1, F(1, 100))
    assert cocycle_ratio(blk, (0,), (2,)) == F(1, 4)


def test_word_errors(powers_half):
    blk = block_for(powers_half, 0, 2)
    with pytest.raises(WordLengthMismatch):
        cocycle_ratio(blk, (0,), (0, 1))
    with pytest.raises(SymbolOutOfRange):
        cocycle_ratio(blk, (0, 2), (0, 1))


def test_antisymmetry_and_additivity(powers_half):
    blk = block_for(powers_half, 0, 6)
    rng = random.Random(3)
    for _ in range(20):
        x = tuple(rng.randint(0, 1) for _ in range(6))
        y = tuple(rng.randint(0, 1) for _ in range(6))
        assert abs(log_cocycle(blk, x, y) + log_cocycle(blk, y, x)) < 1e-12
    # additivity over disjoint sub-blocks
    left = block_for(powers_half, 0, 3)
    right = block_for(powers_half, 3, 3)
    x, y = (0, 1, 1, 0, 0, 1), (1, 1, 0, 0, 1, 0)
    assert abs(log_cocycle(blk, x, y)
               - log_cocycle(left, x[:3], y[:3])
               - log_cocycle(right, x[3:], y[3:])) < 1e-12


# ---------------------------------------------------------------------------
# witness search and the brute-force oracle

def test_witness_single_flip(powers_half):
    w = witness_search(powers_half, F(1, 2), F(1, 1000), max_block=8)
    assert len(w.coordinates) == 1
    assert w.value == F(1, 2)
    assert replay_witness(powers_half, w) == w.value


def test_witness_none_in_scope(powers_half):
    # achievable values are powers of 2; the nearest to 1/3 is 1/4, at 1/12
    assert witness_search(powers_half, F(1, 3), F(1, 100), max_block=12) is None
    blk = block_for(powers_half, 0, 12)
    res = brute_force_block(powers_half, blk, [F(1, 3)])
    assert res[0]["distance"] == F(1, 12)



def test_witness_target_must_be_finite(powers_half):
    # an infinite float target has no exact form to search against
    with pytest.raises(SpecError, match="finite"):
        witness_search(powers_half, float("inf"), 0.1)

def test_witness_geometric_symbol_jump():
    vs = validate(geometric_scheme(F(1, 2)))
    w = witness_search(vs, F(1, 4), F(1, 10 ** 6), max_block=4, delta=F(1, 100))
    assert len(w.coordinates) == 1
    assert w.value == F(1, 4)


def test_witness_smallest_block_reported(powers_half):
    w = witness_search(powers_half, F(1, 4), F(1, 1000), max_block=8)
    assert len(w.coordinates) == 2
    assert w.value == F(1, 4)


def test_brute_force_exact_hits(powers_half):
    blk = block_for(powers_half, 0, 3)
    res = brute_force_block(powers_half, blk, [F(1, 2), F(1, 4), F(1, 8)])
    assert all(r["distance"] == 0 for r in res)


def test_brute_force_uniform_only_value_is_one():
    vs = validate(uniform_two_point())
    blk = block_for(vs, 0, 4)
    res = brute_force_block(vs, blk, [F(3, 4), F(2)])
    assert res[0]["distance"] == F(1, 4)
    assert res[1]["distance"] == F(1)


def test_brute_force_against_direct_pair_enumeration(powers_half):
    # third, fully independent oracle at tiny size: enumerate every word pair
    blk = block_for(powers_half, 0, 3)
    targets = [F(1, 3), F(3, 5), F(2)]
    res = brute_force_block(powers_half, blk, targets)
    words = list(itertools.product(range(2), repeat=3))
    for t, r in zip(targets, res):
        direct = min(abs(t - cocycle_ratio(blk, x, y))
                     for x in words for y in words)
        assert r["distance"] == direct


def test_search_agrees_with_oracle_on_borderlines(powers_half):
    # eps just below and just above the true minimum distance
    blk = block_for(powers_half, 0, 6)
    target = F(1, 3)
    dist = brute_force_block(powers_half, blk, [target])[0]["distance"]
    assert witness_search(powers_half, target, dist, max_block=6) is None
    w = witness_search(powers_half, target, dist + F(1, 10 ** 9), max_block=6)
    assert w is not None
    assert abs(w.value - target) < dist + F(1, 10 ** 9)


def test_repeated_searches_agree():
    # the scheme keeps no memo, so a search depends only on its arguments
    # and never on the searches run before it on the same scheme
    vs = validate(interleave(F(1, 2), F(1, 3)))
    target = F(1, 2) ** 5 * F(1, 3) ** 5

    def outcome():
        try:
            return witness_search(vs, target, F(1, 10 ** 12), max_block=40,
                                  state_cap=400)
        except SearchBudgetExceeded as exc:
            return str(exc)

    first = outcome()
    assert all(outcome() == first for _ in range(3))


def _lexicographic_first_pairs(weights):
    # reference: every ordered pair of positions, in lexicographic order
    out = {}
    for i, j in itertools.product(range(len(weights)), repeat=2):
        out.setdefault(weights[j] / weights[i], (i, j))
    return out


def _check_ratio_moves(weights):
    # every ratio w[j]/w[i] once, increasing, with its lexicographically first pair
    moves = _ratio_moves(weights)
    ratios = [r for r, _ in moves]
    assert ratios == sorted(set(ratios))
    assert dict(moves) == _lexicographic_first_pairs(weights)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ratio_moves_first_pairs_with_repeated_weights(data):
    pool = data.draw(st.lists(st.fractions(min_value=F(1, 1000), max_value=1),
                              min_size=1, max_size=5, unique=True))
    weights = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    if data.draw(st.booleans()):
        weights = [float(w) for w in weights]
    _check_ratio_moves(weights)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_ratio_moves_capped_geometric_alphabet(mode):
    # 200 symbols but only cap + 1 = 4 distinct weights
    vs = validate(capped_scheme(F(1, 2), 3))
    weights = block_for(vs, 198, 1).alphabets[0]
    assert len(weights) == 200
    if mode == "float":
        weights = tuple(float(w) for w in weights)
    _check_ratio_moves(weights)
    assert len(_ratio_moves(weights)) == 7


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_moves_match_fraction_moves(data):
    # the same ratios as integers over the scale, pairs and order unchanged
    pool = data.draw(st.lists(st.fractions(min_value=F(1, 10 ** 6), max_value=1,
                                           max_denominator=10 ** 6).filter(lambda w: w > 0),
                              min_size=1, max_size=5, unique=True))
    weights = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    scale, moves = _moves(weights)
    assert [(F(m, scale), pair) for m, pair in moves] == _ratio_moves(weights)
    floats = [float(w) for w in weights]
    assert _moves(floats) == (1, _ratio_moves(floats))


def _fraction_search(vs, target, eps, start=0, max_block=8, delta=F(1, 1000),
                     state_cap=10 ** 8):
    """witness_search with Fraction values throughout: the loop that the
    integer keys replace, kept as the reference."""
    t = F(target)
    counter = [0]

    def extend(values, weights):
        moves = _ratio_moves(weights)
        counter[0] += len(values) * len(moves)
        if counter[0] > state_cap:
            raise SearchBudgetExceeded(f"enumeration exceeded the state cap of {state_cap}")
        nxt = {}
        for value, (xw, yw) in values.items():
            for r, (i, j) in moves:
                if value * r not in nxt:
                    nxt[value * r] = (xw + (i,), yw + (j,))
        return nxt

    alphabets = []
    left = {F(1): ((), ())}
    for length in range(1, max_block + 1):
        alphabets.append(truncate_alphabet(vs, start + length, delta).weights)
        mid = (length + 1) // 2
        if length % 2:
            left = extend(left, alphabets[mid - 1])
            right = {F(1): ((), ())}
            for weights in alphabets[mid:]:
                right = extend(right, weights)
        else:
            right = extend(right, alphabets[-1])
        right_vals, right_words = zip(*sorted(right.items()))
        best = None
        for lv, lw in sorted(left.items()):
            idx = bisect.bisect_right(right_vals, t / lv)
            for j in (idx - 1, idx):
                if 0 <= j < len(right_vals):
                    value = lv * right_vals[j]
                    dist = abs(value - t)
                    if dist < eps and (best is None or dist < best[0]):
                        best = (dist, value, lw, right_words[j])
        if best is not None:
            _, value, lw, rw = best
            return Witness(tuple(range(start + 1, start + length + 1)),
                           lw[0] + rw[0], lw[1] + rw[1], value, target, eps, delta)
    return None


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except SearchBudgetExceeded as exc:
        return str(exc)


RATIONAL_SCHEMES = {
    "powers_2_3": lambda: powers(F(2, 3)),
    "interleave_2_7": lambda: interleave(F(1, 2), F(2, 7)),
    "explicit_7532": lambda: single_class(ExplicitWeights(
        (F(7, 17), F(5, 17), F(3, 17), F(2, 17)))),
    "geometric_2_5": lambda: geometric_scheme(F(2, 5)),
    "capped_1_3": lambda: capped_scheme(F(1, 3), 2),
    "type_one": type_one_spec,
}


@st.composite
def search_inputs(draw):
    """(scheme, target, eps, start, max_block, state_cap); targets either
    random or next to a value that a random word pair achieves."""
    vs = validate(normalize_spec(RATIONAL_SCHEMES[draw(st.sampled_from(sorted(RATIONAL_SCHEMES)))]()))
    start = draw(st.integers(0, 12))
    max_block = draw(st.integers(1, 5))
    if draw(st.booleans()):
        target = draw(st.fractions(min_value=F(1, 50), max_value=5, max_denominator=10 ** 4))
    else:
        blk = block_for(vs, start, max_block)
        x, y = ([draw(st.integers(0, size - 1)) for size in blk.sizes()] for _ in range(2))
        offset = F(draw(st.integers(-999, 999)), 10 ** draw(st.integers(3, 12)))
        target = cocycle_ratio(blk, x, y) * (1 + offset)
    eps = target * F(draw(st.integers(1, 99)), 100 * 10 ** draw(st.integers(0, 10)))
    if draw(st.booleans()):
        target = float(target)
    if draw(st.booleans()):
        eps = float(eps)
    state_cap = draw(st.sampled_from([10 ** 8, 10 ** 8, 40, 300]))
    return vs, target, eps, start, max_block, state_cap


@settings(max_examples=150, deadline=None)
@given(search_inputs())
def test_integer_search_matches_fraction_search(inputs):
    vs, target, eps, start, max_block, state_cap = inputs
    if not 0 < eps < target:
        return
    args = (vs, target, eps)
    kwargs = {"start": start, "max_block": max_block, "state_cap": state_cap}
    assert _outcome(witness_search, *args, **kwargs) == _outcome(_fraction_search, *args, **kwargs)


@pytest.mark.parametrize("name", sorted(RATIONAL_SCHEMES))
def test_eps_at_oracle_distance_finds_nothing(name):
    # the distance is strict: eps equal to the block's minimum distance
    # finds no witness on that block or on any shorter one
    vs = validate(normalize_spec(RATIONAL_SCHEMES[name]()))
    target = F(1000, 1013)
    dist = brute_force_block(vs, block_for(vs, 3, 4), [target])[0]["distance"]
    assert witness_search(vs, target, dist, start=3, max_block=4) is None
    assert _fraction_search(vs, target, dist, start=3, max_block=4) is None
    above = dist + F(1, 10 ** 15)
    w = witness_search(vs, target, above, start=3, max_block=4)
    assert w is not None
    assert w == _fraction_search(vs, target, above, start=3, max_block=4)


def test_search_budget_message_matches_reference():
    vs = validate(normalize_spec(RATIONAL_SCHEMES["explicit_7532"]()))
    with pytest.raises(SearchBudgetExceeded) as caught:
        witness_search(vs, F(1000, 1013), F(1, 10 ** 12), max_block=6, state_cap=500)
    assert str(caught.value) == _outcome(_fraction_search, vs, F(1000, 1013), F(1, 10 ** 12),
                                         max_block=6, state_cap=500)
    assert str(caught.value) == "enumeration exceeded the state cap of 500"


def _fraction_oracle(block, targets):
    # every achievable Fraction value, then a linear scan of |t - v|
    values = {F(1): ((), ())}
    for weights in block.alphabets:
        nxt = {}
        for value, (xw, yw) in values.items():
            for r, (i, j) in _ratio_moves(weights):
                if value * r not in nxt:
                    nxt[value * r] = (xw + (i,), yw + (j,))
        values = nxt
    out = []
    for t in targets:
        best = best_pair = None
        for v, pair in values.items():
            d = abs(t - v)
            if best is None or d < best:
                best, best_pair = d, pair
        out.append({"target": t, "distance": best, "x": best_pair[0], "y": best_pair[1]})
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(RATIONAL_SCHEMES)), st.integers(0, 12), st.integers(1, 4),
       st.lists(st.fractions(min_value=F(1, 100), max_value=10, max_denominator=10 ** 5),
                min_size=1, max_size=4),
       st.lists(st.booleans(), min_size=4, max_size=4))
def test_oracle_matches_fraction_scan(name, start, length, targets, as_float):
    # float targets keep their float distances
    vs = validate(normalize_spec(RATIONAL_SCHEMES[name]()))
    targets = [float(t) if f else t for t, f in zip(targets, as_float)]
    blk = block_for(vs, start, length)
    got = brute_force_block(vs, blk, targets)
    want = _fraction_oracle(blk, targets)
    assert got == want
    assert [type(r["distance"]) for r in got] == [type(r["distance"]) for r in want]
    assert [type(r["distance"]) for r in got] == [float if f else F for f in as_float[:len(targets)]]


def test_block_too_large_guard():
    vs = validate(geometric_scheme(F(1, 2)))
    blk = block_for(vs, 0, 8, F(1, 10 ** 9))
    with pytest.raises(BlockTooLarge):
        brute_force_block(vs, blk, [F(1, 2)], state_cap=10 ** 3)


# ---------------------------------------------------------------------------
# witness composition

def test_compose_exact_witnesses(powers_half):
    w1 = witness_search(powers_half, F(1, 2), F(1, 1000), start=0, max_block=2)
    w2 = witness_search(powers_half, F(1, 2), F(1, 1000), start=5, max_block=2)
    w = compose_witnesses(w1, w2)
    assert w.target == F(1, 4)
    assert w.value == F(1, 4)
    assert replay_witness(powers_half, w) == F(1, 4)


def test_compose_identity(powers_half):
    w1 = witness_search(powers_half, F(1, 2), F(1, 1000), start=0, max_block=1)
    blk = block_for(powers_half, 5, 1)
    ident = Witness((6,), (0,), (0,), F(1), F(1), F(1, 1000), blk.delta)
    w = compose_witnesses(w1, ident)
    assert w.target == F(1, 2)
    assert w.value == F(1, 2)


def test_compose_rejects_overlap(powers_half):
    w1 = witness_search(powers_half, F(1, 2), F(1, 1000), start=0, max_block=2)
    with pytest.raises(OverlappingBlocks):
        compose_witnesses(w1, w1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compose_error_bound_random_rationals(data):
    # |D1*D2 - r1*r2| <= e1*r2 + e2*r1 + e1*e2 whenever |Di - ri| < ei
    def triple(tag):
        r = F(data.draw(st.integers(1, 40), label=f"r{tag}"), 20)
        e = F(data.draw(st.integers(1, 30), label=f"e{tag}"), 100)
        off = F(data.draw(st.integers(-29, 29), label=f"d{tag}"), 100)
        d = r + e * off / 30
        return r, e, d
    r1, e1, d1 = triple(1)
    r2, e2, d2 = triple(2)
    assert abs(d1 - r1) < e1 and abs(d2 - r2) < e2
    bound = e1 * r2 + e2 * r1 + e1 * e2
    assert abs(d1 * d2 - r1 * r2) <= bound


# ---------------------------------------------------------------------------
# Monte Carlo sampling

def test_samples_deterministic(powers_half):
    a = mc_sample_cocycle(powers_half, seed=42, n_samples=50, window=8)
    b = mc_sample_cocycle(powers_half, seed=42, n_samples=50, window=8)
    assert a.log_values == b.log_values
    assert a.moves == b.moves
    c = mc_sample_cocycle(powers_half, seed=43, n_samples=50, window=8)
    assert a.log_values != c.log_values


def test_samples_exact_powers_of_two(powers_half):
    s = mc_sample_cocycle(powers_half, seed=7, n_samples=300, window=12)
    for r in s.ratios:
        assert r.numerator & (r.numerator - 1) == 0
        assert r.denominator & (r.denominator - 1) == 0


def test_samples_uniform_all_zero():
    vs = validate(uniform_two_point())
    s = mc_sample_cocycle(vs, seed=1, n_samples=100, window=10)
    assert all(v == 0.0 for v in s.log_values)
    assert all(r == 1 for r in s.ratios)


def test_interleaved_samples_mix_both_primes():
    vs = validate(interleave(F(1, 2), F(1, 3)))
    s = mc_sample_cocycle(vs, seed=5, n_samples=2000, window=20)
    # decompose each exact ratio as 2**a * 3**b and find a genuinely mixed one
    found_mixed = False
    for r in s.ratios:
        n, d = r.numerator, r.denominator
        a = b = 0
        while n % 2 == 0:
            n //= 2
            a += 1
        while n % 3 == 0:
            n //= 3
            b += 1
        while d % 2 == 0:
            d //= 2
            a -= 1
        while d % 3 == 0:
            d //= 3
            b -= 1
        assert n == 1 and d == 1  # only the primes 2 and 3 can occur
        if a != 0 and b != 0:
            found_mixed = True
    assert found_mixed


def test_export_format(powers_half):
    s = mc_sample_cocycle(powers_half, seed=9, n_samples=3, window=4)
    lines = s.export_lines()
    assert len(lines) == 3
    idx, log_d, num, den = lines[0].split(", ")
    assert idx == "0"
    float(log_d)
    int(num), int(den)


def _reference_pick(weights, retained, k):
    # bisection of u * retained in the cumulative Fractions, clamped
    cums = list(itertools.accumulate(weights))
    return min(bisect.bisect_right(cums, F(k, 2 ** 53) * retained), len(cums) - 1)


@st.composite
def rational_alphabets(draw):
    """(weights, retained): truncated geometric tails with retained < 1,
    explicit alphabets whose retained mass may exceed their sum so that the
    clamp acts, and dyadic ones whose cumulative boundaries are exact
    multiples of retained / 2**53."""
    kind = draw(st.sampled_from(["tail", "explicit", "dyadic"]))
    if kind == "tail":
        q = draw(st.fractions(min_value=F(1, 20), max_value=F(9, 10), max_denominator=60))
        delta = draw(st.fractions(min_value=F(1, 10 ** 6), max_value=F(1, 2),
                                  max_denominator=10 ** 6))
        block = block_for(validate(geometric_scheme(q)), 0, 1, delta)
        return block.alphabets[0], block.retained[0]
    if kind == "dyadic":
        counts = draw(st.lists(st.integers(1, 128), min_size=1, max_size=8))
        counts[-1] += (1 << (sum(counts) - 1).bit_length()) - sum(counts)
        weights = tuple(F(n, 1024) for n in counts)
        return weights, sum(weights)
    weights = draw(st.lists(st.fractions(min_value=F(1, 10 ** 9), max_value=1,
                                         max_denominator=10 ** 9).filter(lambda w: w > 0),
                            min_size=1, max_size=8))
    retained = sum(weights)
    if draw(st.booleans()):
        retained *= draw(st.fractions(min_value=1, max_value=2, max_denominator=100))
    return tuple(weights), retained


@settings(max_examples=200, deadline=None)
@given(rational_alphabets(), st.lists(st.integers(0, 2 ** 53 - 1), max_size=20))
def test_integer_draw_matches_fraction_bisection(alphabet, random_ks):
    weights, retained = alphabet
    assert 0 < retained
    # every k next to or at a cumulative boundary, both ends, random k
    ks = {0, 2 ** 53 - 1, *random_ks}
    for c in itertools.accumulate(weights):
        edge = c * 2 ** 53 // retained
        ks.update(k for k in (edge - 1, edge, edge + 1) if 0 <= k < 2 ** 53)
    ks = sorted(ks)
    table = cocycle._exact_table(weights, retained)
    assert len(table) == len(weights) - 1
    picks = [bisect.bisect_right(table, k * 2.0 ** -53) for k in ks]
    assert picks == [_reference_pick(weights, retained, k) for k in ks]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=8),
       st.floats(min_value=0.5, max_value=2.0),
       st.lists(st.integers(0, 2 ** 53 - 1), max_size=20))
def test_float_draw_matches_clamped_bisection(weights, factor, random_ks):
    cums = list(itertools.accumulate(weights))
    retained = cums[-1] * factor
    # every k next to or at a cumulative boundary, both ends, random k
    ks = {0, 2 ** 53 - 1, *random_ks}
    for c in cums:
        edge = int(c / retained * 2 ** 53)
        ks.update(k for k in (edge - 1, edge, edge + 1) if 0 <= k < 2 ** 53)
    table = cocycle._float_table(weights)
    for k in sorted(ks):
        u = k * 2.0 ** -53
        assert bisect.bisect_right(table, retained * u) \
            == min(bisect.bisect_right(cums, u * retained), len(weights) - 1)


def _reference_samples(vs, seed, n_samples, window, start):
    """A plain per-coordinate sampler: one random() per coordinate, x then y."""
    block = block_for(vs, start, window)
    cums = [list(itertools.accumulate(a)) for a in block.alphabets]
    exact = vs.mode == "rational"
    logs, ratios, moves = [], [], []
    for i in range(n_samples):
        rng = random.Random(cocycle._derived_seed(seed, i))
        words = []
        for _ in range(2):
            word = []
            for c, r in zip(cums, block.retained):
                u = F(rng.random()) if exact else rng.random()
                word.append(min(bisect.bisect_right(c, u * r), len(c) - 1))
            words.append(tuple(word))
        x, y = words
        if exact:
            d = cocycle_ratio(block, x, y)
            ratios.append(d)
            logs.append(math.log(d.numerator) - math.log(d.denominator))
        else:
            logs.append(log_cocycle(block, x, y))
        moves.append((x, y))
    return tuple(logs), tuple(ratios) if exact else None, tuple(moves)


SHIPPED = sorted(SPEC_DIR.glob("*.spec")) + [SPEC_DIR / "powers_half.factor"]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_sampler_matches_reference_loop(path):
    vs = _load_scheme(path)
    for seed in (3, cocycle.DEFAULT_SEED):
        s = mc_sample_cocycle(vs, seed=seed, n_samples=40, window=12, start=30)
        assert (s.log_values, s.ratios, s.moves) \
            == _reference_samples(vs, seed, 40, 12, 30)


# ---------------------------------------------------------------------------
# lattice detection

def test_lattice_simple_multiples():
    v = lattice_detect([0.0, LOG2, -3 * LOG2])
    assert v.kind == "lattice"
    assert abs(v.period - LOG2) < 1e-9


def test_lattice_all_zero():
    assert lattice_detect([0.0]).kind == "all_zero"
    assert lattice_detect([0.0, 0.0]).kind == "all_zero"


def test_lattice_insufficient():
    with pytest.raises(InsufficientSamples):
        lattice_detect([0.0, LOG2])


def test_no_lattice_for_log2_log3():
    # oracle: the remainder cascade on (log 3, log 2) falls below 1e-6 fast
    a, b = math.log(3.0), math.log(2.0)
    steps = 0
    while b > 1e-6 and steps < 40:
        a, b = b, abs(a - b * round(a / b))
        steps += 1
    assert b <= 1e-6 and steps <= 40
    v = lattice_detect([LOG2, math.log(3.0)])
    assert v.kind == "no_lattice"


def test_lattice_respects_gcd_of_coefficients():
    v = lattice_detect([2 * LOG2, 6 * LOG2, -4 * LOG2])
    assert v.kind == "lattice"
    assert abs(v.period - 2 * LOG2) < 1e-9


# ---------------------------------------------------------------------------
# empirical ratio-set estimate

def test_estimate_powers_is_lattice_like(powers_half):
    est = estimate_ratio_set(powers_half, seed=7, n_samples=800, window=16,
                             start=100)
    assert est["label"] == "III_lambda-like"
    assert abs(est["lambda"] - 0.5) < 1e-9
    assert all(g["found"] for g in est["witness_grid"])


def test_estimate_interleave_is_dense_like():
    vs = validate(interleave(F(1, 2), F(1, 3)))
    est = estimate_ratio_set(vs, seed=7, n_samples=800, window=16, start=100)
    assert est["label"] == "III_1-like"


def test_estimate_uniform_is_trivial_like():
    vs = validate(uniform_two_point())
    est = estimate_ratio_set(vs, seed=7, n_samples=200, window=12, start=100)
    assert est["label"] == "II-like"


@pytest.mark.parametrize("lam", [F(1, 3), F(2, 3)])
def test_samples_exact_lattice_for_rational_lambda(lam):
    vs = validate(powers(lam))
    s = mc_sample_cocycle(vs, seed=11, n_samples=200, window=10)
    for r in s.ratios:
        if r == 1:
            continue
        k = round(math.log(float(r)) / math.log(float(lam)))
        assert lam ** k == r


def test_geometric_achieves_every_dyadic_value():
    # the achievability cross-check behind the infinite-alphabet verdict:
    # the value 2**-k is hit exactly for every k <= 20 on a single coordinate
    vs = validate(geometric_scheme(F(1, 2)))
    delta = F(1, 2) ** 25
    for k in range(1, 21):
        w = witness_search(vs, F(1, 2) ** k, F(1, 10 ** 9), max_block=1,
                           delta=delta)
        assert w is not None
        assert w.value == F(1, 2) ** k
