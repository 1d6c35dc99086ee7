"""Exact finite-block cocycle arithmetic and its empirical probes.

The density ratio of changing a finite word x to y over a block of
coordinates is the product of per-coordinate weight ratios
``D(x -> y) = prod mu_k(y_k) / mu_k(x_k)`` (this orientation, y over x,
is the value compared against search targets throughout).  Everything
here works with true weights: truncating an infinite alphabet keeps the
surviving ratios exact and can only remove candidate words, never
create spurious ones.

Contents: a meet-in-the-middle witness search over achievable log
values, a brute-force enumeration oracle for it, witness composition
over disjoint blocks, seeded Monte Carlo sampling of log-cocycle
increments, and a real-gcd lattice detector for the sampled values.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, cycle
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .exact import RATIONAL, Num, format_scalar, is_exact
from .groups import exponent_moves, grow, split_words, window_hits
from .scheme import SpecError, ValidatedScheme, truncate_alphabet

DEFAULT_STATE_CAP = 10 ** 8
ORACLE_STATE_CAP = 10 ** 7
DEFAULT_DELTA = Fraction(1, 1000)
LATTICE_TOL = 1e-6

# 64-bit default seed: the ASCII bytes of "B3RN0U11"
DEFAULT_SEED = int.from_bytes(b"B3RN0U11", "big")

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class WordLengthMismatch(SpecError):
    pass


class SymbolOutOfRange(SpecError):
    pass


class SearchBudgetExceeded(RuntimeError):
    pass


class OverlappingBlocks(SpecError):
    pass


class InsufficientSamples(ValueError):
    pass


# ---------------------------------------------------------------------------
# blocks and the cocycle

@dataclass(frozen=True)
class Block:
    """Finitely many coordinates with true (unrenormalized) weights."""

    coordinates: tuple          # strictly increasing coordinate indices
    alphabets: tuple            # per coordinate: tuple of true weights
    retained: tuple             # per coordinate: retained mass (1 when full)
    delta: Num                  # truncation budget used
    numerators: tuple           # per coordinate: (L, N) of its weights, None in float mode

    def __len__(self):
        return len(self.coordinates)

    def sizes(self):
        return tuple(len(a) for a in self.alphabets)


def block_for(vs: ValidatedScheme, start: int, length: int,
              delta: Num = DEFAULT_DELTA) -> Block:
    """The block of coordinates start+1 .. start+length."""
    if length < 1:
        raise SpecError("block length must be >= 1")
    if start < 0:
        raise SpecError("block start must be >= 0")
    return _block(vs, tuple(range(start + 1, start + length + 1)), delta)


def _block(vs: ValidatedScheme, coords: tuple, delta: Num) -> Block:
    """The block on the given coordinates, which need not be contiguous."""
    truncated = list(_by_alphabet(vs, coords, lambda n: truncate_alphabet(vs, n, delta)))
    return Block(coords, tuple(t.weights for t in truncated),
                 tuple(t.retained_mass for t in truncated), delta,
                 tuple(t.numerators for t in truncated))


def _by_alphabet(vs: ValidatedScheme, coords: Iterable[int], build) -> Iterator:
    """``build(n)`` for each coordinate n in turn, once per alphabet key.

    Coordinates of one :meth:`~kriegerlab.scheme.ValidatedScheme.alphabet_key`
    share the first result.  The memo lives in one call only, and the
    coordinates are reached lazily, so a search that stops early never
    builds the coordinates past its stop.
    """
    memo = {}
    for n in coords:
        key = vs.alphabet_key(n)
        if key not in memo:
            memo[key] = build(n)
        yield memo[key]


def _check_words(block: Block, x: Sequence[int], y: Sequence[int]):
    if len(x) != len(block) or len(y) != len(block):
        raise WordLengthMismatch(
            f"words must have length {len(block)}, got {len(x)} and {len(y)}")
    for k, (a, b) in enumerate(zip(x, y)):
        size = len(block.alphabets[k])
        if not (0 <= a < size) or not (0 <= b < size):
            raise SymbolOutOfRange(
                f"symbol out of range at block position {k} (alphabet size {size})")


def cocycle_ratio(block: Block, x: Sequence[int], y: Sequence[int]) -> Num:
    """D(x -> y) = prod over the block of mu_k(y_k)/mu_k(x_k).

    Exact (a Fraction) whenever the weights are rational.
    """
    _check_words(block, x, y)
    num = 1
    for k in range(len(block)):
        w = block.alphabets[k]
        num = num * w[y[k]] / w[x[k]]
    return num


# ---------------------------------------------------------------------------
# witnesses

@dataclass(frozen=True)
class Witness:
    """A word pair certifying an achievable cocycle value near a target."""

    coordinates: tuple
    x: tuple
    y: tuple
    value: Num            # exact D(x -> y)
    target: Num
    eps: Num
    delta: Num            # truncation budget under which it was found

    def __post_init__(self):
        # exact when the value is, as in witness_search
        target = Fraction(self.target) if is_exact(self.value) else self.target
        if not abs(self.value - target) < self.eps:
            raise SpecError("witness does not certify its target within eps")

    def to_dict(self):
        return {"coordinates": list(self.coordinates),
                "x": list(self.x), "y": list(self.y),
                "value": format_scalar(self.value),
                "target": format_scalar(self.target),
                "eps": format_scalar(self.eps),
                "delta": format_scalar(self.delta)}


def replay_witness(vs: ValidatedScheme, w: Witness) -> Num:
    """Recompute the witness value from the spec (must equal w.value)."""
    return cocycle_ratio(_block(vs, tuple(w.coordinates), w.delta), w.x, w.y)


# ---------------------------------------------------------------------------
# achievable-value enumeration
#
# On rational schemes a coordinate's ratios are integers over a common
# scale (see _moves), so a block value is an integer key A over the
# product S of its coordinates' scales: D = A / S.  For one block S is
# fixed, so distinct keys are exactly the distinct values, and every
# comparison with a target is one in integers.  Float schemes keep float
# values, with scale 1.  Where every ratio is a power g**d of one g, the
# witness search runs on exponents: a level is an int mask of them.

def _ratio_moves(weights) -> list:
    """Distinct ratios w[j]/w[i], increasing, each with its first (i, j).

    The lexicographically first pair joins first occurrences of both
    weights, so only distinct weights are divided.
    """
    first = {}
    for i, w in enumerate(weights):
        first.setdefault(w, i)
    out = {}
    for wi, i in first.items():
        for wj, j in first.items():
            out.setdefault(wj / wi, (i, j))
    return sorted(out.items())


def _moves(weights, numerators) -> tuple:
    """(scale, moves): the moves of :func:`_ratio_moves` as integers over scale.

    With (L, N) = ``numerators``, the :func:`_numerators` of the weights,
    w[j]/w[i] = N[j]/N[i] = N[j] * (scale // N[i]) / scale with scale =
    lcm(N).  Equal ratios give equal integers, so the moves, their pairs
    and their order are those of :func:`_ratio_moves`.  Float weights,
    whose ``numerators`` are None, keep their float ratios over scale 1.
    """
    if numerators is None:
        return 1, _ratio_moves(weights)
    first = {}
    for i, n in enumerate(numerators[1]):
        first.setdefault(n, i)
    scale = math.lcm(*first)
    out = {}
    for ni, i in first.items():
        for nj, j in first.items():
            out.setdefault(nj * (scale // ni), (i, j))
    return scale, sorted(out.items())


def _charge(counter: list, states: int, state_cap: int):
    """Add ``states`` to ``counter`` and raise once it passes the cap."""
    counter[0] += states
    if counter[0] > state_cap:
        raise SearchBudgetExceeded(
            f"enumeration exceeded the state cap of {state_cap}")


def _extend(values: dict, ratios: list) -> dict:
    """Extend achievable values by one coordinate's ``ratios`` (see :func:`_moves`).

    Maps each new value to the first value of ``values`` that reached it.
    """
    nxt = {}
    for value in values:
        for r in ratios:
            v = value * r
            if v not in nxt:
                nxt[v] = value
    return nxt


# level 0: the empty word, whose int value keeps the moves' own arithmetic type
_ROOT = ({1: None},)


def _levels(coordinate_moves, state_cap: int, counter: list, levels=_ROOT,
            shared=((), ())) -> list:
    """``levels`` extended by one :func:`_extend` dict per coordinate, or
    on the exponent path one ``groups.grow`` mask of exponents.

    Level k holds the values achievable on the first k coordinates, each
    mapped to its parent on level k - 1.  ``shared`` holds the (levels,
    coordinate moves) of another enumeration from the same root: where
    level k - 1 is its level k - 1 and coordinate k carries the very same
    move list, level k is its level k, taken instead of rebuilt.  Each
    level's states, level size times move count, are counted as it is
    reached, taken or built, so a cap trips where a rebuild trips.
    """
    levels = list(levels)
    other, other_moves = shared
    for moves in coordinate_moves:
        last, k = levels[-1], len(levels)
        exponents = type(last) is not dict
        _charge(counter, (last.bit_count() if exponents else len(last)) * len(moves),
                state_cap)
        if k < len(other) and last is other[k - 1] and moves is other_moves[k - 1]:
            levels.append(other[k])
        else:
            levels.append(grow(last, moves) if exponents
                          else _extend(last, [r for r, _ in moves]))
    return levels


def _words(levels: list, coordinate_moves, value) -> tuple:
    """The word pair (x, y) that first reached ``value`` on the last level.

    Walks the parents back: at each coordinate the move is the first in
    :func:`_moves` order with parent * r == value.  With integer keys that
    move is the only one; in float mode the same product picks the same
    first move that :func:`_extend` met.
    """
    x, y = [], []
    for k in range(len(coordinate_moves), 0, -1):
        parent = levels[k][value]
        i, j = next(pair for r, pair in coordinate_moves[k - 1] if parent * r == value)
        x.append(i)
        y.append(j)
        value = parent
    return tuple(reversed(x)), tuple(reversed(y))


def _exponent_search(vs: ValidatedScheme, coords: range, delta: Num, state_cap: int,
                     truncated: list, tn: int, td: int, en: int, ed: int) -> tuple:
    """(True, (length, x, y, value) or None) as :func:`witness_search` finds
    it, while every move is an integer power g**d of one rational g > 1,
    else (False, None) at the first alphabet whose moves are not.

    Levels are masks of exponents, counted in the same order and size as
    the integer keys.  A length hits where the block's exponents meet the
    window within eps = en/ed of target = tn/td; the pair and its words
    are the ones :func:`_closest` and the back-pointers give.
    ``truncated`` receives each coordinate's truncated alphabet.
    """
    g = None

    def alphabet_moves(n):
        nonlocal g
        alphabet = truncate_alphabet(vs, n, delta)
        g, moves = exponent_moves(alphabet.numerators[1], g)
        return alphabet, moves
    counter, moves, left, right, full, low, window = [0], [], (1,), (1,), 1, 0, None
    for length, (alphabet, m) in enumerate(_by_alphabet(vs, coords, alphabet_moves), 1):
        truncated.append(alphabet)
        if m is None:
            return False, None
        moves.append(m)
        mid = (length + 1) // 2
        if length % 2:
            left = _levels(moves[mid - 1:mid], state_cap, counter, left)
            right = _levels(moves[mid:], state_cap, counter, (1,), (left, moves))
        else:
            right = _levels(moves[-1:], state_cap, counter, right, (left, moves))
        full, low = grow(full, m), low + m[0][0]
        window, near = window_hits(g, window, full, low, tn, td, en, ed)
        if near:
            e, x, y = split_words(near, moves[:mid], moves[mid:], left[-1], right[-1])
            return True, (length, x, y, g ** e if e else Fraction(1))
    return True, None


def _fresh(level: dict, parent: dict, s: int) -> list:
    """The keys of ``level`` that are no key of ``parent`` times ``s``.

    Every move list holds the identity ratio, s over scale s, so ``level``
    holds each key of ``parent`` times s, at the same value.
    """
    return [b for b in level if b % s or b // s not in parent]


def _closest(fresh, left_vals: list, td: int, t_s: int, best_g: int) -> Optional[tuple]:
    """The pair (a, b) of least g = |a*b*td - t_s| < best_g, least on a tie, or None.

    a runs over the sorted ``left_vals`` and b over ``fresh``.  With d =
    td*b the a in the window lo < a*d <= hi run down from the largest <=
    hi // d.  The window is g < best_g until a hit, so a miss costs one
    bisection per fresh key, and then g <= the least g yet, so ties are seen.
    """
    best = None
    lo, hi = t_s - best_g, t_s + best_g - 1
    for b in fresh:
        d = td * b
        i = bisect_right(left_vals, hi // d)
        while i and left_vals[i - 1] * d > lo:
            i -= 1
            a = left_vals[i]
            g = abs(a * d - t_s)
            if best is None or (g, a, b) < best:
                best = g, a, b
                lo, hi = t_s - g - 1, t_s + g
    return None if best is None else best[1:]


def witness_search(vs: ValidatedScheme, target: Num, eps: Num,
                   start: int = 0, max_block: int = 8,
                   delta: Num = DEFAULT_DELTA,
                   state_cap: int = DEFAULT_STATE_CAP) -> Optional[Witness]:
    """Search for a word pair with |D(x->y) - target| < eps.

    Meet in the middle: exact values of the first ceil(length/2)
    coordinates (grown at odd lengths) against the values of the rest
    (rebuilt at odd lengths, grown by the new coordinate at even
    lengths).  Returns a witness on the smallest block length admitting
    one, or None: a bounded-scope statement over (max_block, delta,
    state_cap), the cap counting the states of this call, not a proof
    that the target is unreachable.

    Each distinct alphabet (see :func:`_by_alphabet`) is truncated and
    turned into moves once per call.  Where the right half's first
    coordinates carry the left half's alphabets, its levels are the
    left's, shared rather than rebuilt (see :func:`_levels`); a shared
    level counts against the cap as if it were enumerated, so the cap
    trips exactly where a rebuild trips.  Each value keeps one
    back-pointer, and words are rebuilt for the returned pair only.

    On rational schemes values are integer keys over the block's scale S;
    with target = tn/td and eps = en/ed (exactly, also when passed as
    floats) keys A and B are within eps when |A*B*td - tn*S| * ed < en *
    td * S.  Each length makes one pass, :func:`_closest`, over its fresh
    right keys (see :func:`_fresh`): a right key reached through the last
    coordinate's identity move pairs to a value of the length before,
    which missed.  Float schemes pair each left value with its neighbours
    among the sorted right values, as rounding makes a window inexact.

    A rational search runs on exponents (:func:`_exponent_search`) while
    every ratio is a power of one generator; at the first alphabet whose
    ratios are not, it starts over on integer keys, with a fresh count and
    the alphabets truncated so far.
    """
    if not 0 < target < math.inf:
        raise SpecError("target must be positive and finite")
    if not (0 < eps < target):
        raise SpecError("eps must lie in (0, target)")
    exact = vs.mode == RATIONAL
    coords = range(start + 1, start + max_block + 1)
    truncated = []      # per coordinate the exponent path reached, its alphabet
    if exact:
        tn, td = Fraction(target).as_integer_ratio()
        en, ed = Fraction(eps).as_integer_ratio()
        done, found = _exponent_search(vs, coords, delta, state_cap, truncated, tn, td, en, ed)
        if done:
            return found and Witness(tuple(coords[:found[0]]), *found[1:], target, eps, delta)
    counter = [0]

    def alphabet_moves(n):
        k = n - start - 1
        t = truncated[k] if k < len(truncated) else truncate_alphabet(vs, n, delta)
        return _moves(t.weights, t.numerators)
    per_alphabet = _by_alphabet(vs, coords, alphabet_moves)
    moves = []      # per coordinate; one list object per alphabet
    scale = 1
    left = _ROOT
    for length, (s, m) in enumerate(per_alphabet, 1):
        moves.append(m)
        scale *= s
        mid = (length + 1) // 2
        if length % 2:
            left = _levels(moves[mid - 1:mid], state_cap, counter, left)
            left_vals = sorted(left[-1])
            right = _levels(moves[mid:], state_cap, counter, shared=(left, moves))
        else:
            right = _levels(moves[-1:], state_cap, counter, right, (left, moves))
        k = len(right) - 1
        if exact:
            fresh = _fresh(right[k], right[k - 1], s) if k else right[k]
            # g * ed < en * td * S exactly when g < ceil(en * td * S / ed)
            best = _closest(fresh, left_vals, td, tn * scale, -(-en * td * scale // ed))
        else:
            # left values ascending, idx - 1 before idx; a strict < keeps
            # the first pair found
            right_vals = left_vals if right[k] is left[-1] else sorted(right[k])
            best_g, best = eps, None
            for a in left_vals:
                # a left value that underflowed to 0.0 completes to 0, never close
                idx = bisect_right(right_vals, target / a if a else math.inf)
                for b in right_vals[idx - 1 if idx else 0:idx + 1]:
                    g = abs(a * b - target)
                    if g < best_g:
                        best_g, best = g, (a, b)
        if best is not None:
            a, b = best
            lx, ly = _words(left, moves[:mid], a)
            rx, ry = _words(right, moves[mid:], b)
            value = a * b
            return Witness(tuple(range(start + 1, start + length + 1)), lx + rx, ly + ry,
                           Fraction(value, scale) if exact else value,
                           target, eps, delta)
    return None


def brute_force_block(vs: ValidatedScheme, block: Block, targets: Iterable[Num],
                      state_cap: int = ORACLE_STATE_CAP) -> list:
    """Exact minimum of |target - D(x,y)| over all word pairs, per target.

    Serves as the independence oracle for :func:`witness_search`: a
    direct product enumeration of every achievable value (deduplicated
    exactly, one back-pointer each), then a linear scan; words are
    rebuilt for each target's closest value only.  Raises
    SearchBudgetExceeded beyond the state cap.  On rational blocks an
    exact target t = tn/td is at distance |tn*S - A*td| / (td*S) from the
    key A over the block's scale S; a float target, as in float
    arithmetic, at |t - A/S|.
    """
    counter = [0]
    columns = dict(zip(block.coordinates, zip(block.alphabets, block.numerators)))
    per_coordinate = list(_by_alphabet(vs, block.coordinates, lambda n: _moves(*columns[n])))
    scale = math.prod(s for s, _ in per_coordinate)
    moves = [m for _, m in per_coordinate]
    levels = _levels(moves, state_cap, counter)
    exact = vs.mode == RATIONAL
    out = []
    for t in targets:
        if exact and is_exact(t):
            tn, td = Fraction(t).as_integer_ratio()
            t_s = tn * scale
            gap = lambda v: abs(t_s - v * td)
        elif exact:
            gap = lambda v: abs(t - v / scale)
        else:
            gap = lambda v: abs(t - v)
        # min keeps the first value of least gap, in enumeration order
        value = min(levels[-1], key=gap)
        best = gap(value)
        if exact and is_exact(t):
            best = Fraction(best, td * scale)
        x, y = _words(levels, moves, value)
        out.append({"target": t, "distance": best, "x": x, "y": y})
    return out


def compose_witnesses(w1: Witness, w2: Witness) -> Witness:
    """Concatenate witnesses on disjoint blocks: the product group law.

    The composed witness certifies target r1*r2 with tolerance
    eps' = eps1*r2 + eps2*r1 + eps1*eps2.
    """
    if set(w1.coordinates) & set(w2.coordinates):
        raise OverlappingBlocks("witnesses share coordinates")
    merged = sorted(zip(w1.coordinates, w1.x, w1.y))
    merged += sorted(zip(w2.coordinates, w2.x, w2.y))
    merged.sort()
    coords = tuple(m[0] for m in merged)
    x = tuple(m[1] for m in merged)
    y = tuple(m[2] for m in merged)
    if w1.delta != w2.delta:
        raise SpecError("witnesses were found under different truncation budgets")
    eps = w1.eps * abs(w2.target) + w2.eps * abs(w1.target) + w1.eps * w2.eps
    return Witness(coords, x, y, w1.value * w2.value,
                   w1.target * w2.target, eps, w1.delta)


# ---------------------------------------------------------------------------
# seeded Monte Carlo sampling

@dataclass(frozen=True)
class CocycleSampleSet:
    seed: int
    start: int
    window: int
    delta: Num
    coordinates: tuple
    log_values: tuple            # floats
    ratios: Optional[tuple]      # exact Fractions in rational mode, else None
    moves: tuple                 # (x word, y word) per sample

    def export_lines(self):
        """Records ``index, log_D, D_num, D_den`` (num/den in rational mode).

        Through ``Decimal``: ``str(int)`` has a digit limit that ratios pass.
        """
        lines = []
        for i, s in enumerate(self.log_values):
            if self.ratios is not None:
                f = self.ratios[i]
                lines.append(f"{i}, {s:.17g}, {Decimal(f.numerator)}, {Decimal(f.denominator)}")
            else:
                lines.append(f"{i}, {s:.17g}")
        return lines


def _derived_seed(seed: int, stream: int) -> int:
    return (seed ^ ((stream + 1) * _GOLDEN)) & _MASK64


def _exact_table(numerators, retained) -> list:
    """Exact symbol thresholds of one rational coordinate for ``random()``.

    ``random()`` returns u = k / 2**53.  With (L, N) = ``numerators``, the
    :func:`_numerators` of the weights, C_i = L * cums[i] and retained =
    R / S, cums[i] <= u * retained exactly when k >= T_i = ceil(C_i * S *
    2**53 / (R * L)), and min(T_i, 2**53) / 2**53 is an exact double.  The
    last one is dropped, which clamps the pick to the alphabet.
    """
    lcm, nums = numerators
    num, den = retained.denominator << 53, retained.numerator * lcm
    return [min(-(-c * num // den), 1 << 53) * 2.0 ** -53
            for c in accumulate(nums[:-1])]


def _float_table(weights) -> list:
    """The cumulative float weights without the last, which clamps the pick."""
    return list(accumulate(weights))[:-1]


def mc_sample_cocycle(vs: ValidatedScheme, seed: int = DEFAULT_SEED,
                      n_samples: int = 1000, window: int = 20,
                      start: int = 0, delta: Num = DEFAULT_DELTA) -> CocycleSampleSet:
    """Sample log D between independent product-measure draws on a window.

    x-words and y-words are drawn independently from the (truncated,
    renormalized) product measure, one ``random()`` value u per
    coordinate bisected in :func:`_exact_table` or, in float mode, in the
    cumulative float weights at retained * u; the recorded ratio uses
    true weights and is exact in rational mode.  Fully deterministic
    given the seed: sample i uses a seed derived from (seed, i), so the
    stream does not depend on evaluation order or parallelism.
    """
    if n_samples < 1:
        raise SpecError("n_samples must be >= 1")
    block = block_for(vs, start, window, delta)
    exact = vs.mode == RATIONAL
    columns = dict(zip(block.coordinates,
                       zip(block.alphabets, block.retained, block.numerators)))

    def tabulate(n):
        weights, retained, numerators = columns[n]
        if exact:
            # w[b]/w[a] = N[b]/N[a] over the coordinate's common denominator
            return _exact_table(numerators, retained), numerators[1]
        return _float_table(weights), [math.log(w) for w in weights]
    # per coordinate, built once per distinct alphabet as the block
    # truncates it: the draw thresholds, and each symbol's numerator
    # (rational) or log weight (float)
    tables, per_symbol = zip(*_by_alphabet(vs, block.coordinates, tabulate))
    logs = []
    ratios = [] if exact else None
    moves = []
    rng = random.Random()
    # for an int, Random.seed only dispatches on its type to this C method
    reseed = super(random.Random, rng).seed
    draws = iter(rng.random, None)
    # tables go first in each word's map, so a word pulls exactly one query
    # per coordinate, and the float queries retained * u stay in step
    queries = draws if exact else map(mul, cycle(block.retained), draws)
    for i in range(n_samples):
        reseed(_derived_seed(seed, i))
        x = tuple(map(bisect_right, tables, queries))
        y = tuple(map(bisect_right, tables, queries))
        if exact:
            # the reduced exact ratio over the changed coordinates; its log
            # is 0.0 exactly when D = 1
            num = den = 1
            for n, a, b in zip(per_symbol, x, y):
                if a != b:
                    num *= n[b]
                    den *= n[a]
            d = Fraction(num, den)
            ratios.append(d)
            logs.append(math.log(d.numerator) - math.log(d.denominator))
        else:
            # added left to right, in coordinate order; sum() may compensate
            total = 0.0
            for lg, a, b in zip(per_symbol, x, y):
                total += lg[b] - lg[a]
            logs.append(total)
        moves.append((x, y))
    return CocycleSampleSet(seed, start, window, delta, block.coordinates,
                            tuple(logs), None if ratios is None else tuple(ratios),
                            tuple(moves))


# ---------------------------------------------------------------------------
# lattice detection

ALL_ZERO = "all_zero"
LATTICE = "lattice"
NO_LATTICE = "no_lattice"


@dataclass(frozen=True)
class LatticeVerdict:
    kind: str
    period: Optional[float] = None

    def to_dict(self):
        return {"kind": self.kind, "period": self.period}


def _real_gcd(a: float, b: float) -> float:
    a, b = abs(a), abs(b)
    if a < b:
        a, b = b, a
    steps = 0
    while b > LATTICE_TOL and steps < 200:
        a, b = b, abs(a - b * round(a / b))
        steps += 1
    return a if b <= LATTICE_TOL else b


def lattice_detect(samples: Union[CocycleSampleSet, Iterable[float]]) -> LatticeVerdict:
    """Classify sampled log-cocycle values as {0}, c*Z, or non-lattice.

    The candidate period is the real gcd of the nonzero samples by an
    iterated-remainder cascade with cutoff tol = ``LATTICE_TOL``.  A lattice
    verdict requires c > tol and every sample within min(tol, c/1000) of c*Z;
    the relative part of that bound rejects the near-tol pseudo-periods
    that the cascade produces on incommensurable inputs (where, by
    construction, the plain absolute bound would always pass).  Needs
    two nonzero samples to discriminate lattice from non-lattice.
    """
    values = list(samples.log_values) if isinstance(samples, CocycleSampleSet) \
        else [float(s) for s in samples]
    nonzero = [abs(s) for s in values if abs(s) > LATTICE_TOL]
    if not nonzero:
        return LatticeVerdict(ALL_ZERO)
    if len(nonzero) < 2:
        raise InsufficientSamples(
            "need at least two nonzero samples to discriminate lattice from "
            "non-lattice")
    g = nonzero[0]
    for s in nonzero[1:]:
        g = _real_gcd(g, s)
        if g <= LATTICE_TOL:
            return LatticeVerdict(NO_LATTICE)
    bound = min(LATTICE_TOL, g / 1000.0)
    for s in values:
        if abs(s - g * round(s / g)) > bound:
            return LatticeVerdict(NO_LATTICE)
    return LatticeVerdict(LATTICE, period=g)


# ---------------------------------------------------------------------------
# empirical ratio-set estimate

ZERO_BAND = 0.05
FAR_BAND = 5.0
GRID_DEPTH = 3                # witness-grid targets exp(-c k), k = 1..GRID_DEPTH
GRID_EPS = 1e-3               # their eps, at most half the target


def estimate_ratio_set(vs: ValidatedScheme, seed: int = DEFAULT_SEED,
                       n_samples: int = 1000, window: int = 20,
                       start: int = 1000, delta: Num = DEFAULT_DELTA,
                       search_block: int = 8) -> dict:
    """Empirical subtype estimate from sampling plus witness probes.

    Heuristic, reported side by side with the analytic verdict and never
    overriding it.  Labels: ``II-like`` when every fiber increment is
    zero (consistent with type I or II), ``III_0-like`` when nonzero
    increments exist but all have magnitude >= FAR_BAND (achievable
    ratios collapse toward 0 and 1), ``III_lambda-like`` on a detected
    lattice, ``III_1-like`` otherwise.
    """
    samples = mc_sample_cocycle(vs, seed=seed, n_samples=n_samples,
                                window=window, start=start, delta=delta)
    values = samples.log_values
    significant = [abs(s) for s in values if abs(s) > ZERO_BAND]
    evidence = {
        "n_samples": n_samples, "window": window, "start": start,
        "seed": seed, "zero_band": ZERO_BAND, "far_band": FAR_BAND,
        "significant": len(significant),
    }
    label = None
    lam = None
    lattice = None
    if not significant:
        label = "II-like"
        if all(abs(s) <= LATTICE_TOL for s in values):
            lattice = LatticeVerdict(ALL_ZERO)
        evidence["note"] = ("all fiber increments vanish at this scope; "
                            "consistent with type I or type II")
    elif min(significant) >= FAR_BAND:
        label = "III_0-like"
        evidence["note"] = ("every substantial increment has magnitude >= far_band; "
                            "achievable ratios collapse toward 0 and 1")
    else:
        try:
            lattice = lattice_detect(samples)
        except InsufficientSamples:
            lattice = None
        if lattice is not None and lattice.kind == LATTICE:
            label = "III_lambda-like"
            lam = math.exp(-lattice.period)
        else:
            label = "III_1-like"
    out = {
        "label": label,
        "lambda": lam,
        "lattice": None if lattice is None else lattice.to_dict(),
        "evidence": evidence,
        "witness_grid": [],
        "scope": {"max_block": search_block, "delta": format_scalar(delta),
                  "note": "a missing witness is a bounded-scope statement"},
    }
    if label in ("III_lambda-like", "III_1-like"):
        c = lattice.period if (lattice is not None and lattice.kind == LATTICE) \
            else math.log(2.0)
        for k in range(1, GRID_DEPTH + 1):
            target = math.exp(-c * k)
            eps = min(GRID_EPS, target / 2)
            try:
                w = witness_search(vs, target, eps, start=start,
                                   max_block=search_block, delta=delta)
            except SearchBudgetExceeded:
                w = None
            out["witness_grid"].append({
                "target": target, "eps": eps,
                "found": w is not None,
                "block_length": None if w is None else len(w.coordinates)})
    return out
