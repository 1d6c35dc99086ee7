"""Cluster-point sets and series summability verdicts.

Cluster points are computed symbolically from template limits, never by
numeric epsilon-clustering, except for finite explicit data (prefix
vectors and finite classes) where values are grouped exactly (rational
mode) or within 1e-9 (float mode).  Summability verdicts come from a
fixed rule table over closed-form term families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import RATIONAL, Num, format_scalar, is_exact
from .scheme import (
    Deviation, GEOMETRIC, Indices, POWER, SpecError, ValidatedScheme, ZERO, _div,
)

FINITE_CLUSTER_TOL = 1e-9

# the exact sum of scale*rho**n over start + step*k holds rho**(start+step); past
# this many bits it is not formed, and the summable verdict carries no total
MAX_TOTAL_BITS = 1 << 18


class SymbolFinite(SpecError):
    """The symbol does not appear in infinitely many coordinates."""


class NotTwoPoint(SpecError):
    pass


# ---------------------------------------------------------------------------
# term forms and the summability rule table

SUMMABLE = "summable"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Term:
    """Closed-form description of one class's contribution to a series.

    Kinds:
      * ``zero``       -- every term is 0
      * ``finite``     -- finitely many non-zero terms, with their total
      * ``const``      -- term = value at every coordinate of an infinite set
      * ``converges``  -- terms converge to value > 0
      * ``geometric``  -- term = scale*rho**n exactly (``exact=True``) or
                          comparable to rho**n (``exact=False``)
      * ``power``      -- term comparable to scale*n**(-p)
    """

    kind: str
    value: Optional[Num] = None
    rho: Optional[Num] = None
    p: Optional[Num] = None
    scale: Optional[Num] = None
    exact: bool = False

    @staticmethod
    def from_deviation(dev: Deviation, exact: bool = False):
        """Term comparable to (or equal to, when exact) the deviation values."""
        if dev.family == ZERO:
            return Term("zero")
        if dev.family == GEOMETRIC:
            return Term("geometric", rho=dev.rho, scale=dev.coeff, exact=exact)
        if dev.family == POWER:
            return Term("power", p=dev.exponent, scale=dev.coeff, exact=exact)
        total = sum(dev.values) if exact else None
        return Term("finite", value=total)


@dataclass(frozen=True)
class SeriesPart:
    label: str
    indices: Optional[Indices]  # None marks purely finite contributions
    term: Term


@dataclass(frozen=True)
class SummabilityVerdict:
    verdict: str
    evidence: str
    total: Optional[Num] = None      # exact closed-form sum when available

    @property
    def summable(self):
        return self.verdict == SUMMABLE

    @property
    def divergent(self):
        return self.verdict == DIVERGENT

    @property
    def inconclusive(self):
        return self.verdict == INCONCLUSIVE

    def to_dict(self):
        out = {"verdict": self.verdict, "evidence": self.evidence}
        if self.total is not None:
            out["total"] = format_scalar(self.total)
        return out


def _geometric_tail_sum(rho: Num, scale: Num, indices: Indices) -> Optional[Num]:
    # sum of scale*rho**n over n = a, a+d, a+2d, ...
    a, d = indices.start, indices.step
    if not (is_exact(rho) and is_exact(scale)):
        return float(scale) * float(rho) ** a / (1 - float(rho) ** d)
    if (a + d) * max(rho.numerator.bit_length(), rho.denominator.bit_length()) > MAX_TOTAL_BITS:
        return None
    return scale * rho ** a / (1 - rho ** d)


def _part_verdict(part: SeriesPart) -> SummabilityVerdict:
    t = part.term
    if t.kind == "zero":
        return SummabilityVerdict(SUMMABLE, f"{part.label}: terms identically zero",
                                  total=Fraction(0))
    if t.kind == "finite":
        return SummabilityVerdict(SUMMABLE, f"{part.label}: finitely many non-zero terms",
                                  total=t.value)
    if t.kind == "const":
        if t.value == 0:
            return SummabilityVerdict(SUMMABLE, f"{part.label}: terms identically zero",
                                      total=Fraction(0))
        return SummabilityVerdict(
            DIVERGENT,
            f"{part.label}: constant positive term {format_scalar(t.value)} on an "
            "infinite index set")
    if t.kind == "converges":
        if t.value <= 0:
            raise SpecError("converges-term with non-positive limit is not decidable")
        return SummabilityVerdict(
            DIVERGENT,
            f"{part.label}: terms converge to {format_scalar(t.value)} > 0, so they "
            "exceed a positive constant eventually")
    if t.kind == "geometric":
        total = None
        if t.exact and part.indices is not None and part.indices.infinite:
            total = _geometric_tail_sum(t.rho, t.scale, part.indices)
        word = "equal to" if t.exact else "bounded by a multiple of"
        return SummabilityVerdict(
            SUMMABLE,
            f"{part.label}: terms {word} {format_scalar(t.rho)}**n (geometric rule)",
            total=total)
    # power: the p-series and integral-test rules
    if t.p > 1:
        return SummabilityVerdict(
            SUMMABLE,
            f"{part.label}: terms comparable to n**(-{format_scalar(t.p)}), "
            "p-series rule with p > 1")
    return SummabilityVerdict(
        DIVERGENT,
        f"{part.label}: terms comparable to n**(-{format_scalar(t.p)}) with "
        "p <= 1, integral-test rule")


def summability(series: tuple) -> SummabilityVerdict:
    """Combine the rule-table verdicts of a tuple of ``SeriesPart``.

    Any divergent part makes the series divergent; otherwise the series
    is summable with an exact total when every part has one.
    """
    verdicts = [_part_verdict(p) for p in series]
    for v in verdicts:
        if v.divergent:
            return v
    evidence = "; ".join(v.evidence for v in verdicts) or "empty series"
    total = Fraction(0)
    for v in verdicts:
        if v.total is None:
            total = None
            break
        total = total + v.total
    return SummabilityVerdict(SUMMABLE, evidence, total=total)


# one-part series, for building summability examples by hand

def geometric_series(coeff: Num, rho: Num, indices: Indices = Indices(1, 1)) -> tuple:
    return (SeriesPart("series", indices, Term("geometric", rho=rho, scale=coeff, exact=True)),)


def power_series(p: Num, coeff: Num = 1, indices: Indices = Indices(1, 1)) -> tuple:
    return (SeriesPart("series", indices, Term("power", p=p, scale=coeff, exact=True)),)


def constant_series(c: Num, indices: Indices = Indices(1, 1)) -> tuple:
    return (SeriesPart("series", indices, Term("const", value=c)),)


# ---------------------------------------------------------------------------
# cluster reports

@dataclass(frozen=True)
class ClusterPoint:
    value: Num
    witnesses: tuple          # class labels or coordinate tags
    recurring: bool           # attained along an infinite index family

    def to_dict(self):
        return {"value": format_scalar(self.value),
                "witnesses": list(self.witnesses),
                "recurring": self.recurring}


@dataclass(frozen=True)
class ClusterReport:
    points: tuple
    liminf: Optional[Num]
    contains_zero: bool
    unbounded: bool = False
    note: str = ""

    def values(self, recurring_only: bool = False):
        return tuple(p.value for p in self.points
                     if p.recurring or not recurring_only)

    def inf_liminf(self) -> Num:
        """Infimum over the ratio sequences of their liminf: 0 on an
        unbounded report (the tail ratios vanish over the symbol index),
        otherwise the least cluster point."""
        return Fraction(0) if self.unbounded else self.liminf

    def to_dict(self):
        return {"points": [p.to_dict() for p in self.points],
                "liminf": None if self.liminf is None else format_scalar(self.liminf),
                "contains_zero": self.contains_zero,
                "unbounded": self.unbounded,
                "note": self.note}


def _is_limit(printed, target: int) -> bool:
    """Whether a printed cluster value is ``target`` (0 or 1): a rational's
    string exactly, a float within 1e-9.  The flags the reports and branches
    print and the deciders that replay them all go through here."""
    if isinstance(printed, str):
        return printed == str(target)
    return abs(printed - target) <= FINITE_CLUSTER_TOL


def _merge_points(raw, mode: str):
    """Group (value, witness, recurring) triples into cluster points, in
    increasing order of their floats.

    Rational mode groups by exact equality, so distinct rationals that
    share a float stay apart and each stays one point.  Float mode merges each value into the
    point of the smallest value within 1e-9 below it, so a point carries
    the smallest value it merged, whatever the order of ``raw``.
    """
    points = {}                 # point value -> [witnesses, recurring]
    anchor = None
    for value, witness, recurring in sorted(raw, key=lambda t: float(t[0])):
        if mode == RATIONAL or anchor is None \
                or abs(float(value) - float(anchor)) > FINITE_CLUSTER_TOL:
            anchor = value
        point = points.setdefault(anchor, [[], False])
        point[0].append(witness)
        point[1] = point[1] or recurring
    return tuple(ClusterPoint(v, tuple(dict.fromkeys(w)), r) for v, (w, r) in points.items())


def _cluster_report(raw, mode: str, note: str) -> ClusterReport:
    points = _merge_points(raw, mode)
    return ClusterReport(points, min((p.value for p in points), default=None),
                         contains_zero=any(_is_limit(format_scalar(p.value), 0)
                                           for p in points),
                         note=note)


def cluster_set_M_i(vs: ValidatedScheme, symbol: int) -> ClusterReport:
    """Cluster points of the weight ratios of ``symbol`` against symbol 0.

    Computed per class from template limits; only infinite classes
    whose alphabets contain the symbol contribute.
    """
    if symbol < 0:
        raise SpecError("symbols are 0-indexed")
    if not vs.symbol_recurs(symbol):
        raise SymbolFinite(f"symbol {symbol} appears in only finitely many coordinates")
    raw = []
    labels = vs.class_labels()
    for k, cls in vs.infinite_classes():
        m = cls.template.max_alphabet()
        if m is not None and symbol >= m:
            continue
        raw.append((cls.template.ratio_limit(symbol), labels[k], True))
    if not raw:
        raise SymbolFinite(f"symbol {symbol} appears in only finitely many coordinates")
    return _cluster_report(raw, vs.mode, f"ratios of symbol {symbol} against symbol 0")


def cluster_set_M_F(vs: ValidatedScheme) -> ClusterReport:
    """Ratio values of symbols that appear only finitely often.

    These come from prefix coordinates and finite classes, so the data
    is finite; groups are reported with ``recurring=False`` and never
    count as genuine cluster points downstream.  Empty when every
    symbol recurs infinitely.
    """
    sup = vs.limsup_alphabet()
    raw = []
    if sup is not None:
        for v, vec in enumerate(vs.prefix, start=1):
            for i in range(sup, len(vec)):
                raw.append((_div(vec[i], vec[0]), f"prefix[{v}]", False))
        labels = vs.class_labels()
        for k, cls in enumerate(vs.classes):
            if cls.indices.infinite:
                continue
            for n in cls.indices.members:
                pos = cls.indices.position_of(n)
                w = cls.template.weights_at(n, pos, vs.mode)
                for i in range(sup, len(w)):
                    raw.append((_div(w[i], w[0]), labels[k], False))
    return _cluster_report(raw, vs.mode,
                           "finite-data ratio groups of transiently appearing symbols")


def union_cluster_report(vs: ValidatedScheme) -> ClusterReport:
    """Genuine cluster points of all symbol ratios (symbol 0 excluded).

    This is the classifier's combined cluster set: the union over every
    infinitely recurring symbol i >= 1 of the per-symbol reports, plus
    the transient-symbol report, keeping only points attained along an
    infinite index family.  When some class has an infinite alphabet the
    set is infinite and the report carries ``unbounded=True``.
    """
    if vs.has_infinite_alphabet():
        return ClusterReport((), None, contains_zero=True, unbounded=True,
                             note="infinite alphabet: ratio values accumulate at 0")
    raw = []
    labels = vs.class_labels()
    for k, cls in vs.infinite_classes():
        m = cls.template.max_alphabet()
        sizes = range(1, m) if m is not None else None
        if sizes is None:
            # capped templates: unbounded sizes, finitely many distinct ratios
            distinct = set()
            i = 1
            while True:
                r = cls.template.ratio_limit(i)
                if r in distinct:
                    break
                distinct.add(r)
                raw.append((r, labels[k], True))
                i += 1
        else:
            for i in sizes:
                raw.append((cls.template.ratio_limit(i), labels[k], True))
    return _cluster_report(raw, vs.mode, "union of per-symbol cluster sets, symbol 0 excluded")


def inf_liminf(vs: ValidatedScheme) -> Num:
    """Infimum over recurring symbols i >= 1 of the liminf of each ratio
    sequence, read off the union report."""
    return union_cluster_report(vs).inf_liminf()


# ---------------------------------------------------------------------------
# the two-point view

@dataclass(frozen=True)
class LambdaGroup:
    """One cluster value of the lambda sequence with its index classes."""

    limit: Num
    classes: tuple            # class labels
    deviations: tuple         # one Deviation per class, comparable to the
                              # multiplicative deviation of lambda_n from the limit

    def to_dict(self):
        return {"limit": format_scalar(self.limit),
                "classes": list(self.classes),
                "deviations": [d.describe() for d in self.deviations]}


@dataclass(frozen=True)
class LambdaReport:
    clusters: ClusterReport
    groups: tuple
    ignored_prefix: int

    def limits(self):
        return tuple(g.limit for g in self.groups)

    def to_dict(self):
        return {"clusters": self.clusters.to_dict(),
                "groups": [g.to_dict() for g in self.groups],
                "ignored_prefix": self.ignored_prefix}


def lambda_clusters(vs: ValidatedScheme) -> LambdaReport:
    """Cluster values of lambda_n = mu_n(1)/mu_n(0) with the class partition.

    Requires every infinite class to be two-point.  Each group is one
    merged point of the cluster report, with its classes' deviations.
    Prefix coordinates and finite classes are finitely many and cannot
    create cluster values; they are ignored and counted in
    ``ignored_prefix``.
    """
    ignored = len(vs.prefix)
    labels = vs.class_labels()
    raw, deviations = [], {}
    for k, cls in enumerate(vs.classes):
        if not cls.indices.infinite:
            ignored += len(cls.indices.members)
            continue
        if cls.template.max_alphabet() != 2:
            raise NotTwoPoint(f"template {cls.template.describe()} is not two-point")
        raw.append((cls.template.ratio_limit(1), labels[k], True))
        deviations[labels[k]] = cls.template.deviation
    report = _cluster_report(raw, vs.mode, "cluster values of the lambda sequence")
    groups = tuple(LambdaGroup(p.value, p.witnesses, tuple(deviations[w] for w in p.witnesses))
                   for p in report.points)
    return LambdaReport(report, groups, ignored)
