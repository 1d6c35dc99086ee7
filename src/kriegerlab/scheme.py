"""Data model for infinite product measure specifications.

A scheme describes a fully supported probability vector ``mu_n`` for
every coordinate ``n = 1, 2, ...`` through finitely many *index
classes* (arithmetic progressions or explicit finite index lists, each
carrying one weight template) plus a finite explicit prefix.  The same
structure doubles as the eigenvalue-list description of an infinite
tensor product factor; the two views are interconvertible with
:func:`factor_to_scheme` / :func:`scheme_to_factor`.

Coordinates are 1-indexed.  Symbols within a coordinate are 0-indexed,
and after :func:`normalize` the symbol 0 always carries the maximum
weight.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import RATIONAL, Num, _numerators, as_mode, check_mode, is_exact

MAX_SYMBOLS = 10_000_000        # the most symbols one coordinate's weights may hold


# ---------------------------------------------------------------------------
# errors

class SpecError(ValueError):
    """Base class for validation failures."""


class CoverageGap(SpecError):
    pass


class Overlap(SpecError):
    pass


class NonPositiveWeight(SpecError):
    pass


class NotNormalized(SpecError):
    pass


class ModeError(SpecError):
    pass


class BudgetUnreachable(SpecError):
    pass


class InfiniteAlphabet(SpecError):
    """Raised when a finite weight tuple is requested for an infinite alphabet."""


# ---------------------------------------------------------------------------
# deviation families

ZERO = "zero"
GEOMETRIC = "geometric"
POWER = "power"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class Deviation:
    """A vanishing sequence eps_n attached to a template.

    Families:
      * ``zero``       -- eps_n = 0
      * ``geometric``  -- eps_n = coeff * rho**n          (rho in (0,1))
      * ``power``      -- eps_n = coeff * n**(-exponent)  (exponent > 0)
      * ``explicit``   -- finite list indexed by the position of the
                          coordinate inside its class, then 0

    ``n`` is the global (1-indexed) coordinate for geometric/power
    families; ``explicit`` uses the within-class position.
    """

    family: str
    rho: Optional[Num] = None
    exponent: Optional[Num] = None
    coeff: Num = Fraction(1)
    values: tuple = ()

    def __post_init__(self):
        if self.family not in (ZERO, GEOMETRIC, POWER, EXPLICIT):
            raise SpecError(f"unknown deviation family {self.family!r}")
        if self.family == GEOMETRIC:
            if self.rho is None or not (0 < self.rho < 1):
                raise SpecError("geometric deviation needs rho in (0,1)")
            if self.coeff <= 0:
                raise SpecError("geometric deviation needs coeff > 0")
        if self.family == POWER:
            if self.exponent is None or self.exponent <= 0:
                raise SpecError("power deviation needs exponent > 0")
            if self.coeff <= 0:
                raise SpecError("power deviation needs coeff > 0")
        if self.family == EXPLICIT and any(v < 0 for v in self.values):
            raise SpecError("explicit deviations must be non-negative")

    def at(self, n: int, pos: int) -> Num:
        if self.family == ZERO:
            return Fraction(0)
        if self.family == GEOMETRIC:
            return self.coeff * self.rho ** n
        if self.family == POWER:
            if is_exact(self.exponent) and Fraction(self.exponent).denominator == 1:
                return self.coeff / Fraction(n) ** int(self.exponent)
            return self.coeff * float(n) ** -float(self.exponent)
        if pos < len(self.values):
            return self.values[pos]
        return Fraction(0)

    def strictly_positive(self) -> bool:
        """True when eps_n > 0 for every coordinate."""
        return self.family in (GEOMETRIC, POWER)

    def squared(self):
        """The family of eps_n**2, used for quadratic comparison rules."""
        if self.family == GEOMETRIC:
            return Deviation(GEOMETRIC, rho=self.rho * self.rho,
                             coeff=self.coeff * self.coeff)
        if self.family == POWER:
            return Deviation(POWER, exponent=2 * self.exponent,
                             coeff=self.coeff * self.coeff)
        if self.family == EXPLICIT:
            return Deviation(EXPLICIT, values=tuple(v * v for v in self.values))
        return self

    def exact_in_rational_mode(self) -> bool:
        """True when every value eps_n is an exact rational."""
        if self.family == ZERO:
            return True
        if self.family == GEOMETRIC:
            return is_exact(self.rho) and is_exact(self.coeff)
        if self.family == POWER:
            return (is_exact(self.coeff) and is_exact(self.exponent)
                    and Fraction(self.exponent).denominator == 1)
        return all(is_exact(v) for v in self.values)

    def describe(self) -> str:
        if self.family == ZERO:
            return "zero"
        if self.family == GEOMETRIC:
            return f"geometric(coeff={self.coeff}, rho={self.rho})"
        if self.family == POWER:
            return f"power(coeff={self.coeff}, p={self.exponent})"
        return f"explicit({len(self.values)} values)"


ZERO_DEVIATION = Deviation(ZERO)


# ---------------------------------------------------------------------------
# index sets

@dataclass(frozen=True)
class Indices:
    """An arithmetic progression ``start + step*k`` or a finite list."""

    start: Optional[int] = None
    step: Optional[int] = None
    members: Optional[tuple] = None

    def __post_init__(self):
        if self.members is not None:
            if self.start is not None or self.step is not None:
                raise SpecError("index set is either a progression or a list, not both")
            if not self.members:
                raise SpecError("empty index list")
            if any(m < 1 for m in self.members):
                raise SpecError("coordinates are 1-indexed")
            if len(set(self.members)) != len(self.members):
                raise SpecError("duplicate coordinate in index list")
            object.__setattr__(self, "members", tuple(sorted(self.members)))
        else:
            if self.start is None or self.step is None:
                raise SpecError("progression needs start and step")
            if self.start < 1 or self.step < 1:
                raise SpecError("progression needs start >= 1 and step >= 1")

    @property
    def infinite(self) -> bool:
        return self.members is None

    def contains(self, n: int) -> bool:
        if self.members is not None:
            return n in self.members
        return n >= self.start and (n - self.start) % self.step == 0

    def position_of(self, n: int) -> int:
        if self.members is not None:
            return self.members.index(n)
        return (n - self.start) // self.step

    def describe(self) -> str:
        if self.members is not None:
            return f"{{{', '.join(map(str, self.members))}}}"
        return f"{self.start} + {self.step}*k"


def _progressions_overlap(a: Indices, b: Indices) -> bool:
    g = math.gcd(a.step, b.step)
    return (a.start - b.start) % g == 0


# ---------------------------------------------------------------------------
# weight templates

TP_CONST = "const"
TP_EXP = "exp"
TP_ONE_MINUS_EXP = "one_minus_exp"
TP_WEIGHT = "weight"


class _Template:
    """The base of the weight templates, with their defaults.

    Each template gives ``check(mode, first)``, which refuses what its
    class cannot carry from its first coordinate on; a finite-alphabet one
    gives ``ratio_limits()``, the limits of mu_n(i)/mu_n(0) for its symbols
    i >= 1, in symbol order, repeats kept.  By default a template has the
    zero deviation, one alphabet on its whole class exactly when the
    deviation is zero (``coordinate_free``, see
    ValidatedScheme.alphabet_key), its alphabet size as its largest
    alphabet, and itself as its normalized form.
    """

    deviation = ZERO_DEVIATION

    @property
    def coordinate_free(self) -> bool:
        return self.deviation.family == ZERO

    def max_alphabet(self):
        return self.alphabet_size()

    def normalized(self):
        return self

    def is_normalized(self, mode: str) -> bool:
        return True


@dataclass(frozen=True)
class ExplicitWeights(_Template):
    """One fixed finite weight vector for every coordinate of the class."""

    weights: tuple

    kind = "explicit"

    def alphabet_size(self, pos: int = 0) -> int:
        return len(self.weights)

    def total(self) -> Num:
        return sum(self.weights)

    def weights_at(self, n: int, pos: int, mode: str) -> tuple:
        return tuple(as_mode(w, mode) for w in self.weights)

    def ratio_limits(self) -> tuple:
        return tuple(_div(w, self.weights[0]) for w in self.weights[1:])

    def check(self, mode: str, first: int):
        if len(self.weights) < 2:
            raise SpecError("alphabet size must be >= 2")
        if not _positive(self.weights):
            raise NonPositiveWeight(f"explicit template has a non-positive weight")

    def normalized(self):
        return ExplicitWeights(_descending_normalized(self.weights))

    def is_normalized(self, mode: str) -> bool:
        return all(_sum_and_order(self.weights, mode))

    def describe(self) -> str:
        return f"explicit({', '.join(str(w) for w in self.weights)})"


@dataclass(frozen=True)
class GeometricTail(_Template):
    """Countably infinite alphabet with a geometric tail.

    The weight vector is ``base[0], ..., base[m-2]`` followed by
    ``base[m-1] * ratio**j`` for ``j = 0, 1, 2, ...`` (the last base
    entry starts the tail).  The canonical fully geometric vector
    ``(1-q) q^i`` is ``GeometricTail(base=(1-q,), ratio=q)``.
    """

    base: tuple
    ratio: Num

    kind = "geometric_tail"

    def alphabet_size(self, pos: int = 0):
        return None

    def total(self) -> Num:
        head = sum(self.base[:-1]) if len(self.base) > 1 else 0
        return head + _div(self.base[-1], (1 - self.ratio))

    def weight(self, i: int) -> Num:
        m = len(self.base)
        if i < m - 1:
            return self.base[i]
        return self.base[-1] * self.ratio ** (i - m + 1)

    def weights_at(self, n: int, pos: int, mode: str):
        raise InfiniteAlphabet("a geometric_tail alphabet is infinite and has no "
                               "finite weight vector")

    def check(self, mode: str, first: int):
        if not self.base:
            raise SpecError("geometric tail needs a non-empty base")
        if not _positive(self.base):
            raise NonPositiveWeight("geometric tail base has a non-positive weight")
        if not (0 < self.ratio < 1):
            raise SpecError("geometric tail ratio must be in (0,1)")

    def normalized(self):
        # The tail continues from the LAST base entry, so plain reordering
        # of the base would change the weight multiset.  Instead, pull tail
        # elements into the explicit part until the continuation anchor is
        # the minimum, then sort; the resulting vector is the descending
        # rearrangement of the same weights.
        total = self.total()
        base = [_div(b, total) for b in self.base]
        anchor = base[-1]
        smallest = min(base)
        pulled = []
        t = anchor
        while t > smallest:
            t = t * self.ratio
            pulled.append(t)
        return GeometricTail(tuple(sorted(base + pulled, reverse=True)), self.ratio)

    def is_normalized(self, mode: str) -> bool:
        return _is_sorted_desc(self.base) and _sums_to_one_value(self.total(), mode)

    def describe(self) -> str:
        return f"geometric_tail(base=({', '.join(str(w) for w in self.base)}), q={self.ratio})"


@dataclass(frozen=True)
class TwoPoint(_Template):
    """Two-symbol coordinates parametrized by lambda_n = mu_n(1)/mu_n(0).

    Forms of the lambda expression:
      * ``const``          -- lambda_n = value, value in (0,1)
      * ``exp``            -- lambda_n = value * exp(-eps_n), value in (0,1]
      * ``one_minus_exp``  -- lambda_n = 1 - exp(-eps_n)  (limit 0)
      * ``weight``         -- mu_n = (1 - eps_n, eps_n) exactly, so
                              lambda_n = eps_n / (1 - eps_n)  (limit 0);
                              needs eps_n <= 1/2 on the class's coordinates

    ``exp`` and ``one_minus_exp`` are transcendental and require float
    mode; ``const`` and ``weight`` stay exact in rational mode.
    """

    form: str
    value: Optional[Num] = None
    deviation: Deviation = ZERO_DEVIATION

    kind = "two_point"

    def alphabet_size(self, pos: int = 0) -> int:
        return 2

    def needs_float(self) -> bool:
        return self.form in (TP_EXP, TP_ONE_MINUS_EXP)

    def lam_at(self, n: int, pos: int, mode: str) -> Num:
        """lambda_n of the const, exp and one_minus_exp forms."""
        if self.form == TP_CONST:
            return as_mode(self.value, mode)
        if self.form == TP_EXP:
            return float(self.value) * math.exp(-self.deviation.at(n, pos))
        return 1.0 - math.exp(-self.deviation.at(n, pos))

    def lam_limit(self) -> Num:
        if self.form in (TP_ONE_MINUS_EXP, TP_WEIGHT):
            return Fraction(0)
        return self.value  # const and exp forms

    def weights_at(self, n: int, pos: int, mode: str) -> tuple:
        if self.form == TP_WEIGHT:
            eps = as_mode(self.deviation.at(n, pos), mode)
            return (1 - eps, eps)
        return _two_point_weights(self.lam_at(n, pos, mode))

    def ratio_limits(self) -> tuple:
        return (self.lam_limit(),)

    def check(self, mode: str, first: int):
        if self.form == TP_CONST:
            if self.value is None or not (0 < self.value < 1):
                raise SpecError("two-point const form needs lambda in (0,1)")
        elif self.form == TP_EXP:
            if self.value is None or not (0 < self.value <= 1):
                raise SpecError("two-point exp form needs limit in (0,1]")
            if self.value == 1 and not self.deviation.strictly_positive():
                raise SpecError(
                    "two-point exp form with limit 1 needs a strictly positive "
                    "deviation (otherwise some lambda_n = 1)")
        elif self.form in (TP_ONE_MINUS_EXP, TP_WEIGHT):
            if not self.deviation.strictly_positive():
                raise NonPositiveWeight(
                    f"two-point {self.form} form needs a strictly positive deviation "
                    "(eps_n = 0 would zero a weight)")
            # (1-eps, eps) keeps symbol 0 maximal iff eps <= 1/2; eps falls in n, so
            # the class's first coordinate decides, and m = 1, 2, 4, ..., first stops
            # at the first eps_m <= 1/2, sparing an exact rho**first on a pass
            m = 1
            while self.form == TP_WEIGHT and self.deviation.at(m, 0) > Fraction(1, 2):
                if m == first:
                    raise NotNormalized(
                        "two-point weight form needs eps_n <= 1/2 at every coordinate")
                m = min(2 * m, first)
        else:
            raise SpecError(f"unknown two-point form {self.form!r}")
        if self.needs_float() and mode == RATIONAL:
            raise ModeError(
                f"two-point {self.form} form is transcendental; use float mode")
        if (self.form == TP_WEIGHT and mode == RATIONAL
                and not self.deviation.exact_in_rational_mode()):
            raise ModeError(
                "two-point weight form needs exact rational deviations "
                "(integer power exponents) in rational mode")

    def describe(self) -> str:
        if self.form == TP_CONST:
            return f"two_point(lambda={self.value})"
        if self.form == TP_EXP:
            return f"two_point(lambda={self.value}*exp(-eps), eps={self.deviation.describe()})"
        if self.form == TP_ONE_MINUS_EXP:
            return f"two_point(lambda=1-exp(-eps), eps={self.deviation.describe()})"
        return f"two_point(weights=(1-eps, eps), eps={self.deviation.describe()})"


@dataclass(frozen=True)
class Perturbed(_Template):
    """A limit weight vector approached multiplicatively.

    Coordinate ``n`` carries the normalization of
    ``(v_0, v_1*s_n, ..., v_{k-1}*s_n)`` with ``s_n = exp(-eps_n)``, so
    every ratio ``mu_n(i)/mu_n(0)`` converges to ``v_i/v_0``.  A zero
    deviation makes the class constant (exact in rational mode); any
    other family requires float mode.
    """

    limit: tuple
    deviation: Deviation = ZERO_DEVIATION

    kind = "perturbed"

    def alphabet_size(self, pos: int = 0) -> int:
        return len(self.limit)

    def needs_float(self) -> bool:
        return not self.deviation.family == ZERO

    def weights_at(self, n: int, pos: int, mode: str) -> tuple:
        if self.deviation.family == ZERO:
            total = sum(self.limit)
            return tuple(as_mode(_div(v, total), mode) for v in self.limit)
        s = math.exp(-self.deviation.at(n, pos))
        raw = [float(self.limit[0])] + [float(v) * s for v in self.limit[1:]]
        total = sum(raw)
        return tuple(v / total for v in raw)

    def ratio_limits(self) -> tuple:
        return tuple(_div(v, self.limit[0]) for v in self.limit[1:])

    def check(self, mode: str, first: int):
        if len(self.limit) < 2:
            raise SpecError("alphabet size must be >= 2")
        if not _positive(self.limit):
            raise NonPositiveWeight("perturbed limit vector has a non-positive entry")
        if self.needs_float() and mode == RATIONAL:
            raise ModeError("perturbed template with a non-zero deviation needs float mode")
        if self.deviation.family != ZERO and self.limit[0] < max(self.limit):
            raise NotNormalized(
                "perturbed limit vector must carry its maximum at symbol 0, "
                "which anchors the deviation")

    def normalized(self):
        # symbol 0 anchors the deviation, so with a non-zero deviation only
        # the symbols >= 1 (which all scale by the same factor) may be
        # reordered; a constant class permutes freely
        k = len(self.limit)
        if self.deviation.family != ZERO:
            order = [0] + sorted(range(1, k), key=lambda i: (-self.limit[i], i))
        else:
            order = sorted(range(k), key=lambda i: (-self.limit[i], i))
        total = sum(self.limit)
        return Perturbed(tuple(_div(self.limit[i], total) for i in order), self.deviation)

    def is_normalized(self, mode: str) -> bool:
        return all(_sum_and_order(self.limit, mode))

    def describe(self) -> str:
        vec = ", ".join(str(v) for v in self.limit)
        return f"perturbed(limit=({vec}), eps={self.deviation.describe()})"


@dataclass(frozen=True)
class CappedGeometric(_Template):
    """Finite alphabets of growing size with capped geometric ratios.

    The coordinate at class position ``pos`` has alphabet size
    ``size_start + size_step*pos`` and weights proportional to
    ``ratio**min(i, cap)``.  Every ratio ``mu_n(i)/mu_n(0)`` equals
    ``ratio**min(i, cap)`` exactly, so the ratio data clusters at the
    finite set ``{ratio**k : k <= cap}`` while the alphabet sizes are
    unbounded.  Exact in rational mode.
    """

    ratio: Num
    cap: int
    size_start: int = 2
    size_step: int = 1

    kind = "capped_geometric"
    coordinate_free = False          # the alphabet grows with the class position

    def alphabet_size(self, pos: int = 0) -> int:
        return self.size_start + self.size_step * pos

    def max_alphabet(self):
        return None  # unbounded (but every coordinate is finite)

    def _norm(self, size: int) -> Num:
        head = min(size, self.cap)
        s = _div(1 - self.ratio ** head, 1 - self.ratio)
        if size > self.cap:
            s += (size - self.cap) * self.ratio ** self.cap
        return s

    def weights_at(self, n: int, pos: int, mode: str) -> tuple:
        size = self.alphabet_size(pos)
        if size > MAX_SYMBOLS:
            raise BudgetUnreachable(
                f"coordinate {n} has {size} symbols, more than the bound of {MAX_SYMBOLS}")
        k = min(size - 1, self.cap)
        if mode == RATIONAL and is_exact(self.ratio):
            # with ratio = a/b, weight i <= k is a**i * b**(k-i) / T over
            # T = sum_i a**i * b**(k-i) + (size - k - 1) * a**k
            a, b = self.ratio.as_integer_ratio()
            nums = [a ** i * b ** (k - i) for i in range(k + 1)]
            total = sum(nums) + (size - k - 1) * nums[-1]
            head = [Fraction(m, total) for m in nums]
        else:
            total = self._norm(size)
            head = [as_mode(_div(self.ratio ** i, total), mode) for i in range(k + 1)]
        # symbols from cap on share the weight ratio**cap / total
        return tuple(head) + (head[-1],) * (size - len(head))

    def ratio_limits(self) -> tuple:
        return tuple(self.ratio ** k for k in range(1, self.cap + 1))

    def check(self, mode: str, first: int):
        if not (0 < self.ratio < 1):
            raise SpecError("capped geometric ratio must be in (0,1)")
        if self.cap < 1:
            raise SpecError("capped geometric needs cap >= 1")
        if self.size_start < 2 or self.size_step < 1:
            raise SpecError("capped geometric needs size_start >= 2 and size_step >= 1")

    def describe(self) -> str:
        return (f"capped_geometric(q={self.ratio}, cap={self.cap}, "
                f"sizes={self.size_start}+{self.size_step}*pos)")


def _div(a, b) -> Num:
    if type(a) is Fraction and type(b) is Fraction:
        return a / b
    if is_exact(a) and is_exact(b):
        return Fraction(a) / Fraction(b)
    return a / b


def _two_point_weights(lam: Num) -> tuple:
    if is_exact(lam):
        n, d = lam.as_integer_ratio()           # 1/(1 + lam) = d/(n + d), from integers
        return Fraction(d, n + d), Fraction(n, n + d)
    return (_div(1, 1 + lam), _div(lam, 1 + lam))


def _descending_normalized(vec) -> tuple:
    if all(map(is_exact, vec)):
        _, nums = _numerators(vec)
        total = sum(nums)
        return tuple(Fraction(n, total) for n in sorted(nums, reverse=True))
    total = sum(vec)
    return tuple(_div(w, total) for w in sorted(vec, reverse=True))


def _positive(values) -> bool:
    """Whether every weight is > 0, read off a Fraction's numerator."""
    return not any((w.numerator if type(w) is Fraction else w) <= 0 for w in values)


def _is_sorted_desc(values) -> bool:
    return all(values[i] >= values[i + 1] for i in range(len(values) - 1))


def _sum_and_order(values, mode: str) -> tuple:
    """(sums to 1, sorted descending) of a weight vector: with (L, N) its
    numerators, sum N == L and N descending when it is exact in rational mode."""
    if mode == RATIONAL and all(map(is_exact, values)):
        lcm, nums = _numerators(values)
        return sum(nums) == lcm, _is_sorted_desc(nums)
    return _sums_to_one_value(sum(values), mode), _is_sorted_desc(values)


def _sums_to_one_value(total, mode: str) -> bool:
    if mode == RATIONAL:
        return total == 1
    return abs(float(total) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# scheme and factor specifications

@dataclass(frozen=True)
class IndexClass:
    indices: Indices
    template: _Template

    def describe(self) -> str:
        return f"{self.indices.describe()} -> {self.template.describe()}"


@dataclass(frozen=True)
class SchemeSpec:
    """Prefix vectors for coordinates 1..P plus classes covering the rest."""

    mode: str
    prefix: tuple = ()
    classes: tuple = ()

    def __post_init__(self):
        check_mode(self.mode)
        object.__setattr__(self, "prefix", tuple(tuple(v) for v in self.prefix))
        object.__setattr__(self, "classes", tuple(self.classes))


class FactorSpec(SchemeSpec):
    """Per-coordinate eigenvalue lists, possibly unnormalized.

    Shares the prefix/class structure of :class:`SchemeSpec`; templates
    are read as eigenvalue vectors.
    """


# ---------------------------------------------------------------------------
# validation

class ValidatedScheme:
    """A checked spec.

    Immutable by convention: nothing mutates after construction, and it
    keeps no memo, so a search on it depends only on the search's own
    arguments, never on searches run before.
    """

    def __init__(self, spec: SchemeSpec):
        self.spec = spec
        self.mode = spec.mode
        self.prefix = spec.prefix
        self.classes = spec.classes
        self._check()

    # -- validation -------------------------------------------------------

    def _check(self):
        spec = self.spec
        _check_before_normalize(spec)
        for v, vec in enumerate(spec.prefix, start=1):
            sums, descending = _sum_and_order(vec, spec.mode)
            if not sums:
                raise NotNormalized(
                    f"prefix coordinate {v} does not sum to 1 (run normalize)")
            if not descending:
                raise NotNormalized(
                    f"prefix coordinate {v} is not sorted descending (run normalize)")
            if spec.mode == RATIONAL and not all(map(is_exact, vec)):
                raise ModeError(f"prefix coordinate {v} carries floats in rational mode")
        for cls in spec.classes:
            if not cls.template.is_normalized(spec.mode):
                raise NotNormalized(
                    f"class {cls.describe()} is not normalized (run normalize)")
        self._check_cover()

    def _check_cover(self):
        spec = self.spec
        p = len(spec.prefix)
        progressions = [c.indices for c in spec.classes if c.indices.infinite]
        finite_sets = [c.indices for c in spec.classes if not c.indices.infinite]
        if not progressions:
            raise CoverageGap("no infinite index class; coordinates beyond a finite "
                              "range are uncovered")
        # pairwise disjointness
        for i, a in enumerate(progressions):
            if a.start <= p:
                raise Overlap(f"progression {a.describe()} overlaps the prefix 1..{p}")
            for b in progressions[i + 1:]:
                if _progressions_overlap(a, b):
                    raise Overlap(f"progressions {a.describe()} and {b.describe()} intersect")
        seen = set()
        for s in finite_sets:
            for m in s.members:
                if m <= p:
                    raise Overlap(f"coordinate {m} is covered by the prefix and a class")
                if m in seen:
                    raise Overlap(f"coordinate {m} appears in two classes")
                seen.add(m)
                for a in progressions:
                    if a.contains(m):
                        raise Overlap(
                            f"coordinate {m} lies in progression {a.describe()}")
        # exact cover on a window that is conclusive for the periodic part:
        # the parts are disjoint, so m - covered(m) never falls, and the first
        # gap is the least m at which it is positive
        lcm = 1
        for a in progressions:
            lcm = lcm * a.step // math.gcd(lcm, a.step)
        marks = [p, lcm] + [a.start for a in progressions]
        marks += [max(s.members) for s in finite_sets]
        horizon = max(marks) + 2 * lcm

        def covered(m):
            return min(p, m) \
                + sum((m - a.start) // a.step + 1 for a in progressions if m >= a.start) \
                + sum(bisect_right(s.members, m) for s in finite_sets)

        lo, hi = 1, horizon + 1          # bisection over 1..horizon, on any size of int
        while lo < hi:
            mid = (lo + hi) // 2
            if covered(mid) < mid:
                hi = mid
            else:
                lo = mid + 1
        if lo <= horizon:
            raise CoverageGap(f"coordinate {lo} is not covered")

    # -- structure queries --------------------------------------------------

    def class_labels(self):
        return tuple(f"C{i+1}" for i in range(len(self.classes)))

    def locate(self, n: int):
        """Return ('prefix', index) or (class_index, position) for coordinate n."""
        if n < 1:
            raise SpecError("coordinates are 1-indexed")
        if n <= len(self.prefix):
            return ("prefix", n - 1)
        for k, cls in enumerate(self.classes):
            if cls.indices.contains(n):
                return (k, cls.indices.position_of(n))
        raise CoverageGap(f"coordinate {n} is not covered")

    def alphabet_size(self, n: int):
        where, pos = self.locate(n)
        if where == "prefix":
            return len(self.prefix[pos])
        return self.classes[where].template.alphabet_size(pos)

    def weights_at(self, n: int) -> tuple:
        """Full weight vector of coordinate n (finite alphabets only)."""
        where, pos = self.locate(n)
        if where == "prefix":
            return tuple(as_mode(w, self.mode) for w in self.prefix[pos])
        return self.classes[where].template.weights_at(n, pos, self.mode)

    def alphabet_key(self, n: int):
        """A key that two coordinates share only if their alphabets are equal.

        The class, when its template gives every coordinate of the class
        one alphabet (``coordinate_free``); otherwise the coordinate.
        """
        where, _ = self.locate(n)
        if where != "prefix" and self.classes[where].template.coordinate_free:
            return ("class", where)
        return ("coordinate", n)

    def infinite_classes(self):
        return tuple((k, c) for k, c in enumerate(self.classes) if c.indices.infinite)

    def has_infinite_alphabet(self) -> bool:
        return any(c.template.alphabet_size() is None for _, c in self.infinite_classes())

    def limsup_alphabet(self):
        """Largest alphabet size along infinitely many coordinates (None = infinite)."""
        sup = 0
        for _, c in self.infinite_classes():
            m = c.template.max_alphabet()
            if m is None:
                return None
            sup = max(sup, m)
        return sup

    def all_two_point(self) -> bool:
        """True when every infinitely recurring coordinate is two-point."""
        return all(c.template.max_alphabet() == 2 for _, c in self.infinite_classes())


def _check_before_normalize(spec: SchemeSpec):
    """The checks a spec passes before it is normalized: each prefix
    vector's size and positivity, and each class's template check."""
    for v, vec in enumerate(spec.prefix, start=1):
        if len(vec) < 2:
            raise SpecError(f"prefix coordinate {v}: alphabet size must be >= 2")
        if not _positive(vec):
            raise NonPositiveWeight(f"prefix coordinate {v} has a non-positive weight")
    for cls in spec.classes:
        cls.template.check(spec.mode, cls.indices.start or cls.indices.members[0])


def validate(spec: SchemeSpec) -> ValidatedScheme:
    """Check every invariant and return the checked spec; it keeps no memo."""
    return ValidatedScheme(spec)


# ---------------------------------------------------------------------------
# normalization

@dataclass(frozen=True)
class NormalizeResult:
    spec: SchemeSpec


def normalize(spec: SchemeSpec) -> NormalizeResult:
    """Sort every weight vector descending and rescale to sum 1.

    Symbol 0 carries the maximum weight afterwards.  Idempotent.  The
    spec passes its size, positivity and template checks first, which
    the arithmetic of normalizing assumes.
    """
    _check_before_normalize(spec)
    prefix = tuple(_descending_normalized(vec) for vec in spec.prefix)
    classes = tuple(IndexClass(cls.indices, cls.template.normalized())
                    for cls in spec.classes)
    return NormalizeResult(SchemeSpec(spec.mode, prefix, classes))


# ---------------------------------------------------------------------------
# factor <-> scheme conversion

def _strip_zero_entries(vec):
    kept = tuple(w for w in vec if w > 0)
    if any(w < 0 for w in vec):
        raise NonPositiveWeight("eigenvalue lists must be non-negative")
    if len(kept) < 2:
        raise NonPositiveWeight(
            "a coordinate needs at least two positive eigenvalues to carry a "
            "fully supported weight vector")
    return kept


def factor_to_scheme(factor: FactorSpec) -> SchemeSpec:
    """Eigenvalue lists to weight vectors: normalize each list descending.

    Zero eigenvalues carry no weight and are dropped.  Inverse of
    :func:`scheme_to_factor` up to the order of each vector's entries.
    The result is not validated.
    """
    prefix = tuple(_strip_zero_entries(vec) for vec in factor.prefix)
    classes = []
    for cls in factor.classes:
        tpl = cls.template
        if isinstance(tpl, ExplicitWeights):
            tpl = ExplicitWeights(_strip_zero_entries(tpl.weights))
        classes.append(IndexClass(cls.indices, tpl))
    return normalize(SchemeSpec(factor.mode, prefix, tuple(classes))).spec


def scheme_to_factor(spec: SchemeSpec) -> FactorSpec:
    """Repackage a normalized scheme as factor data (eigenvalue lists)."""
    validate(spec)
    return FactorSpec(spec.mode, spec.prefix, spec.classes)


# ---------------------------------------------------------------------------
# alphabet truncation

@dataclass(frozen=True)
class TruncatedAlphabet:
    weights: tuple          # true weights, NOT renormalized
    retained_mass: Num
    full: bool
    numerators: Optional[tuple] = None      # rational mode: _numerators(weights)


def truncate_alphabet(vs: ValidatedScheme, n: int, delta) -> TruncatedAlphabet:
    """Shortest prefix of the descending weight vector with mass >= 1-delta.

    Weights are returned unrenormalized: cocycle ratios must use true
    weights, and dropping symbols can only remove candidate words, never
    distort a ratio.
    """
    if not (0 < delta <= Fraction(1, 2)):
        raise SpecError("truncation budget delta must be in (0, 1/2]")
    where, pos = vs.locate(n)
    tpl = None if where == "prefix" else vs.classes[where].template
    if tpl is None or tpl.alphabet_size(pos) is not None:
        w = vs.weights_at(n)
        if vs.mode == RATIONAL:
            # summed over the common denominator, one Fraction in all; a capped
            # class repeats its weight from the cap on, so its k + 1 distinct
            # weights give (L, N)
            k = min(len(w) - 1, tpl.cap) + 1 if isinstance(tpl, CappedGeometric) else len(w)
            lcm, nums = _numerators(w[:k])
            nums += (nums[-1],) * (len(w) - k)
            return TruncatedAlphabet(w, Fraction(sum(nums), lcm), True, (lcm, nums))
        if not min(w) > 0:
            raise NonPositiveWeight(f"a weight of coordinate {n} underflows to 0 "
                                    "in float mode; use rational mode")
        return TruncatedAlphabet(w, sum(w), True)
    # tpl is a geometric tail, the one infinite alphabet
    target = 1 - as_mode(delta, vs.mode)
    if vs.mode == RATIONAL:
        weights, mass = _truncate_rational_tail(tpl, target)
        return TruncatedAlphabet(weights, mass, False, _numerators(weights))
    weights = []
    mass = 0.0
    while mass < target:
        w = as_mode(tpl.weight(len(weights)), vs.mode)
        weights.append(w)
        mass += w
        if len(weights) > MAX_SYMBOLS:
            raise BudgetUnreachable("truncation did not reach the mass budget")
    return TruncatedAlphabet(tuple(weights), mass, False)


def _truncate_rational_tail(tpl: GeometricTail, target: Fraction) -> tuple:
    """(weights, mass): the rational tail's shortest prefix with mass >= target, in closed form.

    j tail symbols b*q**i have mass b*(1 - q**j)/(1 - q), so the prefix
    grows by w*q until q**j <= 1 - (target - head)*(1 - q)/b.
    """
    weights, mass = [], Fraction(0)
    for w in tpl.base[:-1]:
        if mass >= target:
            return tuple(weights), mass
        weights.append(w)
        mass += w
    b, q = tpl.base[-1], tpl.ratio
    tn, td = (1 - (target - mass) * (1 - q) / b).as_integer_ratio()
    qn, qd = q.as_integer_ratio()
    w, pn, pd = b, 1, 1
    while pn * td > tn * pd:
        weights.append(w)
        w, pn, pd = w * q, pn * qn, pd * qd
        if len(weights) > MAX_SYMBOLS:
            raise BudgetUnreachable("truncation did not reach the mass budget")
    mass += b * (1 - Fraction(pn, pd)) / (1 - q)
    return tuple(weights), mass
