"""Closed multiplicative group generated by finitely many reals in (0,1].

A finite point set generates a closed multiplicative group that is
trivial {1}, cyclic {lambda**k}, or dense in (0,infinity).  Which one
is decided by pairwise log-commensurability.

Two decision paths exist:

* exact (rational points): numerators and denominators are refined by
  gcd, without factoring, into pairwise coprime integers > 1, whose logs
  are linearly independent over the rationals.  Each point is the list
  of its integer exponents, one per basis element in basis order; a and
  b are commensurable iff their lists are parallel.  This decides the
  question outright and the confidence is ``exact``.
* float path: continued-fraction convergents of log(a)/log(b) up to a
  denominator bound Q, each candidate verified by checking
  a**q = b**p to 1e-12 relative error.  A miss only certifies
  incommensurability *up to Q*, so the confidence is
  ``bounded_denominator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

from .exact import Num, format_scalar, is_exact

MAX_DENOMINATOR = 10 ** 6        # Q of the float path

EXACT = "exact"
BOUNDED = "bounded_denominator"

TRIVIAL = "trivial"
CYCLIC = "cyclic"
DENSE = "dense"


class DomainError(ValueError):
    pass


class ZeroInSet(ValueError):
    """0 must be stripped and handled by the caller."""


@dataclass(frozen=True)
class GroupStructure:
    kind: str                      # trivial | cyclic | dense
    generator: Optional[Num]       # cyclic generator in (0,1)
    confidence: str                # exact | bounded_denominator
    max_denominator: Optional[int]
    evidence: tuple

    def to_dict(self):
        return {"kind": self.kind,
                "generator": None if self.generator is None else format_scalar(self.generator),
                "confidence": self.confidence,
                "max_denominator": self.max_denominator,
                "evidence": list(self.evidence)}


# ---------------------------------------------------------------------------
# valuation vectors over a coprime basis (exact path)

def _primitive_root(n: int) -> int:
    """r with n = r**k for the largest possible k."""
    k = 2
    while k <= n.bit_length():
        if (r := _exact_root(n, k)) is not None:
            n = r
        else:                                        # next prime k
            k += 1
            while any(k % d == 0 for d in range(2, math.isqrt(k) + 1)):
                k += 1
    return n


def _exact_root(n: int, k: int) -> Optional[int]:
    """r with r**k == n, or None.

    The float estimate 2**e of the root, e = log2(n)/k, is off by a
    relative error of about e * 2**-52.  For a root below 2**32 that is
    under 0.01 in absolute terms, so the nearest integer is the only
    candidate; above, Newton descends from the estimate raised by a
    margin of e * 2**-50.
    """
    e = math.log2(n) / k
    if e < 32:
        x = 2.0 ** e
        r = round(x)
        return r if abs(x - r) < 0.01 and r ** k == n else None
    s = max(0, int(e) - 52)                          # 2**(e - s) < 2**54
    r = (int(2.0 ** (e - s) * (1 + e * 2.0 ** -50)) + 1) << s
    while (t := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = t                                        # Newton: r -> floor root of n
    return r if r ** k == n else None


def _divide_out(n: int, b: int) -> tuple:
    """(m, e) with n = m * b**e and b not dividing m, by repeated squares of b:
    about log e divisions instead of e."""
    if n % b:
        return n, 0
    m, e = _divide_out(n // b, b * b)                # n/b = m * b**(2e)
    if m % b == 0:
        return m // b, 2 * e + 2
    return m, 2 * e + 1


def _coprime_basis(values) -> list:
    """Pairwise coprime integers > 1, none a perfect power, generating every
    numerator and denominator of the values: a pair a, b with g = gcd(a, b)
    > 1 is replaced by g and what is left of a and b once every power of g
    is divided out, until no pair shares a factor."""
    todo = [n for x in values for n in (x.numerator, x.denominator) if n > 1]
    basis = []
    while todo:
        a = todo.pop()
        for i, b in enumerate(basis):
            g = math.gcd(a, b)
            if g > 1:
                del basis[i]
                todo.extend(n for n in (_divide_out(a, g)[0], g, _divide_out(b, g)[0])
                            if n > 1)
                break
        else:
            basis.append(a)
    return [_primitive_root(b) for b in basis]


def _exponents(x: Fraction, basis) -> list:
    """Exponent of every basis element in x = prod b**e: parallel, and of
    equal content (gcd), exactly when the prime valuation vectors are,
    since no basis element is a perfect power."""
    return [_divide_out(x.numerator, b)[1] - _divide_out(x.denominator, b)[1]
            for b in basis]


def _parallel(va: list, vb: list) -> bool:
    """Whether va = t*vb for a rational t; vb != 0."""
    i = next(i for i, e in enumerate(vb) if e)
    n, d = va[i], vb[i]
    return all(a * d == b * n for a, b in zip(va, vb))


# ---------------------------------------------------------------------------
# continued fractions (float path, also the test-side falsification oracle)

def convergents(x: float, max_denominator: int):
    """Continued-fraction convergents (p, q) of x with q <= max_denominator."""
    h0, h1 = 1, 0
    k0, k1 = 0, 1
    value = x
    for _ in range(64):
        a = math.floor(value)
        h0, h1 = a * h0 + h1, h0
        k0, k1 = a * k0 + k1, k0
        if k0 > max_denominator:
            break
        yield h0, k0
        frac = value - a
        if frac <= 1e-18:
            break
        value = 1.0 / frac


def _verify_power_equation(a: Num, b: Num, p: int, q: int, rel_tol: float = 1e-12) -> bool:
    """Check a**q = b**p to rel_tol (float path)."""
    if max(p, q) > 64:
        with localcontext() as ctx:
            ctx.prec = 60
            err = q * _ln(a) - p * _ln(b)
        return abs(err) <= rel_tol
    return abs(q * math.log(a) - p * math.log(b)) <= rel_tol


def _ln(x: Num) -> Decimal:
    """ln x in the current decimal context, from the exact value of a float
    or Fraction."""
    x = Fraction(x)
    return (Decimal(x.numerator) / x.denominator).ln()


def commensurable(a: Num, b: Num) -> Optional[tuple]:
    """Coprime (p, q) with log(a)/log(b) = p/q, or None.

    None means "incommensurable up to MAX_DENOMINATOR" on the float
    path; on the exact path (both arguments rational) None is a proof
    of incommensurability.  Returned pairs always satisfy a**q = b**p.
    """
    for x in (a, b):
        if not (0 < x < 1):
            raise DomainError(f"commensurable needs arguments in (0,1), got {x}")
    if a == b:
        return (1, 1)
    if is_exact(a) and is_exact(b):
        h, k = _root((a, b))
        if h is None:
            return None
        g = math.gcd(*k)
        return (k[0] // g, k[1] // g)
    t = math.log(a) / math.log(b)
    for p, q in convergents(t, MAX_DENOMINATOR):
        if p <= 0 or q <= 0:
            continue
        if max(p, q) > MAX_DENOMINATOR:
            break
        if _verify_power_equation(a, b, p, q):
            g = math.gcd(p, q)
            return (p // g, q // g)
    return None


# ---------------------------------------------------------------------------
# group structure

def mult_group(points) -> GroupStructure:
    """Structure of the closed multiplicative group generated by the points.

    Points must be a finite non-empty subset of (0,1].  Only a point equal
    to 1 exactly is dropped, as the series tests treat only an exact 1 as
    1; a float just below 1 generates like any other.  A cyclic result
    reports the largest generator in (0,1); exact inputs are decided by
    exponent vectors over a coprime basis (Euclid on exponents), float
    inputs by iterated continued-fraction reduction.
    """
    pts = list(points)
    if not pts:
        raise DomainError("empty point set")
    if any(x == 0 for x in pts):
        raise ZeroInSet("0 in point set; strip it and handle it separately")
    if any(not (0 < x <= 1) for x in pts):
        raise DomainError("points must lie in (0,1]")
    pts = [x for x in pts if x != 1]
    if not pts:
        return GroupStructure(TRIVIAL, None, EXACT, None,
                              ("all points equal 1",))
    if all(is_exact(x) for x in pts):
        return _mult_group_exact(pts)
    return _mult_group_float([float(x) for x in pts])


def _root(pts) -> tuple:
    """(h, k): h in (0,1) and integers k with pts[i] == h ** k[i], for
    rationals other than 1 that generate a cyclic group, else (None, i)
    for the first point i not commensurable with pts[0].

    h is no perfect power: its exponent vector is the primitive direction
    of pts[0]'s, so every rational power of h that is rational is an
    integer power of it.
    """
    basis = _coprime_basis(pts)
    vectors = [_exponents(x, basis) for x in pts]
    base = vectors[0]
    for i, vec in enumerate(vectors):
        if not _parallel(vec, base):
            return None, i
    # every vector is an integer multiple of the primitive direction of base
    content = math.gcd(*base)
    unit = [e // content for e in base]
    h = Fraction(math.prod(b ** e for b, e in zip(basis, unit) if e > 0),
                 math.prod(b ** -e for b, e in zip(basis, unit) if e < 0))
    if h > 1:
        h = 1 / h
        unit = [-e for e in unit]
    i = next(i for i, e in enumerate(unit) if e)
    return h, [vec[i] // unit[i] for vec in vectors]


def _mult_group_exact(pts) -> GroupStructure:
    h, exponents = _root(pts)
    if h is None:
        return GroupStructure(
            DENSE, None, EXACT, None,
            (f"log {format_scalar(pts[exponents])} / log {format_scalar(pts[0])} is irrational "
             "(prime valuation vectors not parallel)",))
    g = math.gcd(*exponents)
    lam = h ** g
    hn, hd = h.numerator, h.denominator
    for x, k in zip(pts, exponents):        # x == h**k, with k >= 1 as x, h lie in (0,1)
        assert x.numerator * hd ** k == x.denominator * hn ** k, \
            "exponent reconstruction failed"
    return GroupStructure(
        CYCLIC, lam, EXACT, None,
        (f"common generator {format_scalar(h)} with exponents "
         f"{tuple(exponents)}, gcd {g}",))


def _mult_group_float(pts) -> GroupStructure:
    gen = pts[0]
    evidence = []
    for x in pts[1:]:
        pair = commensurable(x, gen)
        if pair is None:
            return GroupStructure(
                DENSE, None, BOUNDED, MAX_DENOMINATOR,
                (f"no convergent p/q of log({x})/log({gen}) with denominator <= "
                 f"{MAX_DENOMINATOR} satisfies the power equation",))
        p, q = pair
        evidence.append(f"log({x})/log({gen}) = {p}/{q}")
        gen = math.exp(math.log(gen) / q)
    exponents = [round(math.log(x) / math.log(gen)) for x in pts]
    g = math.gcd(*exponents)
    lam = math.exp(g * math.log(gen))
    for x in pts:
        k = round(math.log(x) / math.log(lam))
        if abs(x - lam ** k) > 1e-9:
            return GroupStructure(
                DENSE, None, BOUNDED, MAX_DENOMINATOR,
                (f"generator verification failed for {x}",))
    return GroupStructure(CYCLIC, lam, BOUNDED, MAX_DENOMINATOR,
                          tuple(evidence + [f"exponents {tuple(exponents)}, gcd {g}"]))


# ---------------------------------------------------------------------------
# exponents of one generator g > 1 (the witness search on rank-1 schemes);
# a set of exponents is an int mask whose bit n stands for exponent low + n

def _log_ratio(n: int, d: int) -> float:
    """log(n/d) for positive integers, without cancellation near n = d."""
    return math.log1p((n - d) / d) if d < 2 * n and n < 2 * d else math.log(n) - math.log(d)


def _power_sign(p: int, q: int, k: int, n: int, d: int) -> int:
    """The sign of (p/q)**k - n/d, for positive integers."""
    x, y = (p ** k * d, q ** k * n) if k >= 0 else (q ** -k * d, p ** -k * n)
    return (x > y) - (x < y)


def exponent_moves(nums, g=None) -> tuple:
    """(g, moves) for an alphabet's integer numerators nums: its moves
    w[j]/w[i] as exponents d of the rational g > 1, ascending, each with
    its lexicographically first (i, j), or (g, None) where a ratio is no
    integer power of g.

    A g of None is taken from the first two distinct nums: their ratio,
    oriented above 1, or its :func:`_root` where numerator and denominator
    are both perfect powers; it stays None on one distinct weight.  Such
    a g is no perfect power, so a ratio in a cyclic group with it is an
    integer power of it.  Each exponent of consecutive distinct nums is a
    rounded logarithm checked in integers.  Row i of the differences is
    the mask of the exponents shifted by -a[i]; its bits not set before
    are the moves it is first to reach.
    """
    first = {}
    for i, n in enumerate(nums):
        first.setdefault(n, i)
    nums = list(first)
    if g is None and len(nums) > 1:
        g = Fraction(max(nums[:2]), min(nums[:2]))
        p, q = g.as_integer_ratio()
        if _primitive_root(p) != p and (q == 1 or _primitive_root(q) != q):
            g = 1 / _root([g])[0]
    a = [0]
    if g is not None:
        p, q = g.as_integer_ratio()
        lg = _log_ratio(p, q)
        for x, y in zip(nums, nums[1:]):
            r = _log_ratio(y, x)
            # g too near 1 for a double, or a k off the bound p**|k| <= max(x, y)
            if not lg or abs(r) > (math.log(max(x, y)) / math.log(p) + 1) * lg:
                return g, None
            k = round(r / lg)
            if _power_sign(p, q, k, y, x):
                return g, None
            a.append(a[-1] + k)
    low, top = min(a), max(a)
    row = sum(1 << (e - low) for e in a)
    symbol = dict(zip(a, first.values()))
    seen, moves = 0, []
    for e, i in symbol.items():
        new = row << (top - e) & ~seen          # bit d + top - low for d = a[j] - e
        seen |= new
        while new:
            d = (new & -new).bit_length() - 1 - top + low
            moves.append((d, (i, symbol[e + d])))
            new &= new - 1
    return g, sorted(moves)


def window_hits(g, window, full: int, low: int, tn: int, td: int, en: int, ed: int) -> tuple:
    """(window, near): the exponents e of the mask ``full`` with |g**e -
    tn/td| < en/ed that lie nearest below and above the target, the
    least gap first, with both on a tie; g > 1, or None where full is {0}.

    ``window`` caches (g, exact, a, c, b) from the call before: g**e lies
    in the window exactly for a < e <= b, and at most at the target for
    e <= c.  Each bound is a float logarithm, clamped to the exponents
    within 64 of full's range, then corrected by exact comparisons of
    powers g**k in there only; bounds inside are final.
    """
    high = low + full.bit_length() - 1
    if window is None or window[0] is not g or not window[1]:
        p, q = (g or Fraction(2)).as_integer_ratio()
        lg, lo_e, hi_e = _log_ratio(p, q), low - 64, high + 64
        floors = []
        for n, d, strict in ((tn * ed - en * td, td * ed, 0), (tn, td, 0),
                             (tn * ed + en * td, td * ed, 1)):
            e = math.floor(min(max(_log_ratio(n, d) / lg, lo_e - 1), hi_e + 1))
            while e >= lo_e and _power_sign(p, q, e, n, d) + strict > 0:
                e -= 1
            while e <= hi_e and _power_sign(p, q, e + 1, n, d) + strict <= 0:
                e += 1
            floors.append(e)
        window = (g, all(lo_e - 1 < e < hi_e + 1 for e in floors), *floors)
    _, _, a, c, b = window
    hits = between(full, low, a + 1, b)
    below = between(hits, low, low, c)
    above = hits ^ below
    near = [low + h.bit_length() - 1 for h in (below, above & -above) if h]
    if len(near) == 2:
        gaps = [abs(g ** e - Fraction(tn, td)) for e in near]
        near = [e for e, gap in zip(near, gaps) if gap == min(gaps)]
    return window, near


def grow(mask: int, moves: list) -> int:
    """The exponents of ``mask`` plus each move of ``moves``; the least
    exponent grows by the least move."""
    out, low = 0, moves[0][0]
    for d, _ in moves:
        out |= mask << (d - low)
    return out


def between(mask: int, low: int, a: int, b: int) -> int:
    """The bits of ``mask``, whose least exponent is low, at exponents a..b."""
    a, b = max(a, low) - low, min(b - low, mask.bit_length())
    return mask >> a << a & ((1 << (b + 1)) - 1) if a <= b else 0


def exponent_word(coordinate_moves, e: int) -> tuple:
    """(x, y): the lexicographically least sequence of moves reaching e.

    Each coordinate takes its least move from which the coordinates after
    it still reach e, read off the masks of their sums.
    """
    suffixes = [(1, 0)]
    for moves in reversed(coordinate_moves[1:]):
        mask, low = suffixes[-1]
        suffixes.append((grow(mask, moves), low + moves[0][0]))
    x, y = [], []
    for moves, (rest, low) in zip(coordinate_moves, reversed(suffixes)):
        d, (i, j) = next(m for m in moves if e - m[0] >= low and rest >> (e - m[0] - low) & 1)
        x.append(i)
        y.append(j)
        e -= d
    return tuple(x), tuple(y)


def split_words(near, left_moves, right_moves, left: int, right: int) -> tuple:
    """(e, x, y): of the exponents ``near`` the one with the least exponent
    ea of the mask ``left`` such that e - ea is one of ``right``, the least
    e on a tie, and the words of ea and e - ea on the two sides."""
    left_low = sum(m[0][0] for m in left_moves)
    right_low = sum(m[0][0] for m in right_moves)

    def least(e, rest):
        while True:
            ea = left_low + (rest & -rest).bit_length() - 1
            if e - ea >= right_low and right >> (e - ea - right_low) & 1:
                return ea
            rest &= rest - 1
    ea, e = min((least(e, left), e) for e in near)
    lx, ly = exponent_word(left_moves, ea)
    rx, ry = exponent_word(right_moves, e - ea)
    return e, lx + rx, ly + ry
