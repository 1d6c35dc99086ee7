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
from typing import Iterable, Optional, Sequence, Union

from .exact import RATIONAL, Num, _numerators, format_scalar, is_exact
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


class BlockTooLarge(RuntimeError):
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
    truncated = [truncate_alphabet(vs, n, delta) for n in coords]
    return Block(coords, tuple(t.weights for t in truncated),
                 tuple(t.retained_mass for t in truncated), delta)


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


def log_cocycle(block: Block, x: Sequence[int], y: Sequence[int]) -> float:
    """log D(x -> y) as a float; exactness lives in :func:`cocycle_ratio`."""
    _check_words(block, x, y)
    total = 0.0
    for k in range(len(block)):
        w = block.alphabets[k]
        total += _log_of(w[y[k]]) - _log_of(w[x[k]])
    return total


def _log_of(w: Num) -> float:
    if is_exact(w):
        f = Fraction(w)
        return math.log(f.numerator) - math.log(f.denominator)
    return math.log(w)


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
# values, with scale 1.

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


def _moves(weights) -> tuple:
    """(scale, moves): the moves of :func:`_ratio_moves` as integers over scale.

    Over a common denominator the distinct weights have numerators N, and
    w[j]/w[i] = N[j]/N[i] = N[j] * (scale // N[i]) / scale with scale =
    lcm(N).  Equal ratios give equal integers, so the moves, their pairs
    and their order are those of :func:`_ratio_moves`.  Float weights
    keep their float ratios over scale 1.
    """
    if not is_exact(weights[0]):
        return 1, _ratio_moves(weights)
    first = {}
    for i, w in enumerate(weights):
        first.setdefault(w, i)
    _, nums = _numerators(list(first))
    scale = math.lcm(*nums)
    out = {}
    for ni, i in zip(nums, first.values()):
        for nj, j in zip(nums, first.values()):
            out.setdefault(nj * (scale // ni), (i, j))
    return scale, sorted(out.items())


def _extend(values: dict, moves: list, state_cap: int, counter: list) -> dict:
    """Extend achievable values by one coordinate's ``moves`` (see :func:`_moves`).

    Keeps the first word pair per value; ``counter`` accumulates
    enumerated states against the cap.
    """
    counter[0] += len(values) * len(moves)
    if counter[0] > state_cap:
        raise SearchBudgetExceeded(
            f"enumeration exceeded the state cap of {state_cap}")
    nxt = {}
    for value, (xw, yw) in values.items():
        for r, (i, j) in moves:
            v = value * r
            if v not in nxt:
                nxt[v] = (xw + (i,), yw + (j,))
    return nxt


def _product_values(coordinate_moves, state_cap: int, counter: list) -> dict:
    """All achievable block values with one representative word pair each.

    Keys are over the product of the coordinates' scales; starts from the
    int 1, which keeps the moves' own arithmetic type.
    """
    values = {1: ((), ())}
    for moves in coordinate_moves:
        values = _extend(values, moves, state_cap, counter)
    return values


def _closest(left, right, query, gap, close):
    """The (gap, value, left words, right words) of smallest gap that is close.

    ``left`` and ``right`` are sorted (values, words) pairs; for each left
    value a the right values next to query(a) are tried, with value the
    product of the two.  Ties keep the first pair found.
    """
    best = None
    right_vals, right_words = right
    for a, lw in zip(*left):
        idx = bisect_right(right_vals, query(a))
        for j in (idx - 1, idx):
            if 0 <= j < len(right_vals):
                value = a * right_vals[j]
                g = gap(value)
                if close(g) and (best is None or g < best[0]):
                    best = (g, value, lw, right_words[j])
    return best


def witness_search(vs: ValidatedScheme, target: Num, eps: Num,
                   start: int = 0, max_block: int = 8,
                   delta: Num = DEFAULT_DELTA,
                   state_cap: int = DEFAULT_STATE_CAP) -> Optional[Witness]:
    """Search for a word pair with |D(x->y) - target| < eps.

    Meet in the middle: exact values of the first ceil(length/2)
    coordinates (grown at odd lengths) against the sorted values of the
    rest (grown by the new coordinate at even lengths).  Returns a witness
    on the smallest block length admitting one, or None: a bounded-scope
    statement over (max_block, delta, state_cap), the cap counting the
    states of this call, not a proof that the target is unreachable.

    On rational schemes values are integer keys over the block's scale S
    and target = tn/td, eps = en/ed (exactly, also when passed as
    floats): a left key A is completed by the right keys B next to
    (tn*S) // (td*A), and a pair is within eps when
    |A*B*td - tn*S| * ed < en * td * S.
    """
    if not 0 < target < math.inf:
        raise SpecError("target must be positive and finite")
    if not (0 < eps < target):
        raise SpecError("eps must lie in (0, target)")
    exact = vs.mode == RATIONAL
    if exact:
        tn, td = Fraction(target).as_integer_ratio()
        en, ed = Fraction(eps).as_integer_ratio()
    counter = [0]
    moves = []
    scale = 1
    left = {1: ((), ())}
    for length in range(1, max_block + 1):
        s, m = _moves(truncate_alphabet(vs, start + length, delta).weights)
        moves.append(m)
        scale *= s
        mid = (length + 1) // 2
        if length % 2:
            left = _extend(left, moves[mid - 1], state_cap, counter)
            left_sorted = tuple(zip(*sorted(left.items())))
            right = _product_values(moves[mid:], state_cap, counter)
        else:
            right = _extend(right, moves[-1], state_cap, counter)
        right_sorted = tuple(zip(*sorted(right.items())))
        if exact:
            t_s, bound = tn * scale, en * td * scale
            best = _closest(left_sorted, right_sorted, lambda a: t_s // (td * a),
                            lambda v: abs(v * td - t_s), lambda g: g * ed < bound)
        else:
            # a left value that underflowed to 0.0 completes to 0, never close
            best = _closest(left_sorted, right_sorted,
                            lambda a: target / a if a else math.inf,
                            lambda v: abs(v - target), lambda g: g < eps)
        if best is not None:
            _, value, lw, rw = best
            return Witness(tuple(range(start + 1, start + length + 1)),
                           lw[0] + rw[0], lw[1] + rw[1],
                           Fraction(value, scale) if exact else value,
                           target, eps, delta)
    return None


def brute_force_block(vs: ValidatedScheme, block: Block, targets: Iterable[Num],
                      state_cap: int = ORACLE_STATE_CAP) -> list:
    """Exact minimum of |target - D(x,y)| over all word pairs, per target.

    Serves as the independence oracle for :func:`witness_search`: a
    direct product enumeration of every achievable value (deduplicated
    exactly), then a linear scan.  Raises BlockTooLarge beyond the
    state cap.  On rational blocks an exact target t = tn/td is at
    distance |tn*S - A*td| / (td*S) from the key A over the block's
    scale S; a float target, as in float arithmetic, at |t - A/S|.
    """
    counter = [0]
    per_coordinate = [_moves(weights) for weights in block.alphabets]
    scale = math.prod(s for s, _ in per_coordinate)
    try:
        values = _product_values([m for _, m in per_coordinate], state_cap, counter)
    except SearchBudgetExceeded as exc:
        raise BlockTooLarge(str(exc)) from None
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
        best = None
        best_pair = None
        for v, pair in values.items():
            d = gap(v)
            if best is None or d < best:
                best, best_pair = d, pair
        if exact and is_exact(t):
            best = Fraction(best, td * scale)
        out.append({"target": t, "distance": best,
                    "x": best_pair[0], "y": best_pair[1]})
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


def _exact_table(weights, retained) -> list:
    """Exact symbol thresholds of one rational coordinate for ``random()``.

    ``random()`` returns u = k / 2**53.  With L the lcm of the weight
    denominators, C_i = L * cums[i] and retained = R / S, cums[i] <= u *
    retained exactly when k >= T_i = ceil(C_i * S * 2**53 / (R * L)), and
    min(T_i, 2**53) / 2**53 is an exact double.  The last one is dropped,
    which clamps the pick to the alphabet.
    """
    lcm, nums = _numerators(weights)
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
    if exact:
        tables = [_exact_table(a, r) for a, r in zip(block.alphabets, block.retained)]
        # w[b]/w[a] = N[b]/N[a] over each coordinate's common denominator
        nums = [_numerators(a)[1] for a in block.alphabets]
    else:
        tables = [_float_table(a) for a in block.alphabets]
        lgs = [[_log_of(w) for w in a] for a in block.alphabets]
    logs = []
    ratios = [] if exact else None
    moves = []
    rng = random.Random()
    draws = iter(rng.random, None)
    # tables go first in each word's map, so a word pulls exactly one query
    # per coordinate, and the float queries retained * u stay in step
    queries = draws if exact else map(mul, cycle(block.retained), draws)
    for i in range(n_samples):
        rng.seed(_derived_seed(seed, i))
        x = tuple(map(bisect_right, tables, queries))
        y = tuple(map(bisect_right, tables, queries))
        if exact:
            # the reduced exact ratio over the changed coordinates; its log
            # is 0.0 exactly when D = 1
            num = den = 1
            for n, a, b in zip(nums, x, y):
                if a != b:
                    num *= n[b]
                    den *= n[a]
            d = Fraction(num, den)
            ratios.append(d)
            logs.append(_log_of(d))
        else:
            # added left to right as log_cocycle does; sum() may compensate
            total = 0.0
            for lg, a, b in zip(lgs, x, y):
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


def _real_gcd(a: float, b: float, tol: float) -> float:
    a, b = abs(a), abs(b)
    if a < b:
        a, b = b, a
    steps = 0
    while b > tol and steps < 200:
        a, b = b, abs(a - b * round(a / b))
        steps += 1
    return a if b <= tol else b


def lattice_detect(samples: Union[CocycleSampleSet, Iterable[float]],
                   tol: float = LATTICE_TOL) -> LatticeVerdict:
    """Classify sampled log-cocycle values as {0}, c*Z, or non-lattice.

    The candidate period is the real gcd of the nonzero samples by an
    iterated-remainder cascade with cutoff ``tol``.  A lattice verdict
    requires c > tol and every sample within min(tol, c/1000) of c*Z;
    the relative part of that bound rejects the near-tol pseudo-periods
    that the cascade produces on incommensurable inputs (where, by
    construction, the plain absolute bound would always pass).  Needs
    two nonzero samples to discriminate lattice from non-lattice.
    """
    values = list(samples.log_values) if isinstance(samples, CocycleSampleSet) \
        else [float(s) for s in samples]
    nonzero = [abs(s) for s in values if abs(s) > tol]
    if not nonzero:
        return LatticeVerdict(ALL_ZERO)
    if len(nonzero) < 2:
        raise InsufficientSamples(
            "need at least two nonzero samples to discriminate lattice from "
            "non-lattice")
    g = nonzero[0]
    for s in nonzero[1:]:
        g = _real_gcd(g, s, tol)
        if g <= tol:
            return LatticeVerdict(NO_LATTICE)
    bound = min(tol, g / 1000.0)
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
                       tol: float = LATTICE_TOL, search_block: int = 8) -> dict:
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
        if all(abs(s) <= tol for s in values):
            lattice = LatticeVerdict(ALL_ZERO)
        evidence["note"] = ("all fiber increments vanish at this scope; "
                            "consistent with type I or type II")
    elif min(significant) >= FAR_BAND:
        label = "III_0-like"
        evidence["note"] = ("every substantial increment has magnitude >= far_band; "
                            "achievable ratios collapse toward 0 and 1")
    else:
        try:
            lattice = lattice_detect(samples, tol)
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
