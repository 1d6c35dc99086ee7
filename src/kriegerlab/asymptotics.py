"""Cluster-point sets and series summability verdicts.

Cluster points are computed symbolically from the template limits of
the infinite classes, never from sampled ratios; equal limits are
grouped exactly (rational mode) or within 1e-9 (float mode).
Summability verdicts come from a fixed rule table over closed-form term
families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import RATIONAL, Num, _exact_sum, format_scalar, is_exact
from .scheme import (
    Deviation, GEOMETRIC, Indices, POWER, SpecError, ValidatedScheme, ZERO,
)

FINITE_CLUSTER_TOL = 1e-9

# the exact sum of scale*rho**n over start + step*k holds rho**(start+step); past
# this many bits it is not formed, and the summable verdict carries no total
MAX_TOTAL_BITS = 1 << 18


class NotTwoPoint(SpecError):
    pass


# ---------------------------------------------------------------------------
# term forms and the summability rule table

SUMMABLE = "summable"
DIVERGENT = "divergent"


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
        total = _exact_sum(dev.values) if exact else None
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
    totals = [v.total for v in verdicts]
    total = None if any(t is None for t in totals) else _exact_sum(totals)
    return SummabilityVerdict(SUMMABLE, evidence, total=total)


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

    def values(self):
        return tuple(p.value for p in self.points)

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


def _ratio_points(vs: ValidatedScheme) -> list:
    """(value, class label, True) for each ratio limit of an infinite class."""
    labels = vs.class_labels()
    return [(r, labels[k], True)
            for k, cls in vs.infinite_classes() for r in cls.template.ratio_limits()]


def union_cluster_report(vs: ValidatedScheme) -> ClusterReport:
    """Genuine cluster points of all symbol ratios (symbol 0 excluded).

    This is the classifier's combined cluster set: the union over every
    infinitely recurring symbol i >= 1 of the limits of mu_n(i)/mu_n(0)
    along each infinite class, so every point is attained along an
    infinite index family.  When some class has an infinite alphabet the
    set is infinite and the report carries ``unbounded=True``.
    """
    if vs.has_infinite_alphabet():
        return ClusterReport((), None, contains_zero=True, unbounded=True,
                             note="infinite alphabet: ratio values accumulate at 0")
    return _cluster_report(_ratio_points(vs), vs.mode,
                           "union of per-symbol cluster sets, symbol 0 excluded")


# ---------------------------------------------------------------------------
# the two-point view

@dataclass(frozen=True)
class LambdaReport:
    clusters: ClusterReport
    deviations: dict          # class label -> its Deviation, comparable to the
                              # multiplicative deviation of lambda_n from its limit
    ignored_prefix: int

    def to_dict(self):
        return {"clusters": self.clusters.to_dict(),
                "groups": [{"limit": format_scalar(p.value),
                            "classes": list(p.witnesses),
                            "deviations": [self.deviations[w].describe()
                                           for w in p.witnesses]}
                           for p in self.clusters.points],
                "ignored_prefix": self.ignored_prefix}


def lambda_clusters(vs: ValidatedScheme) -> LambdaReport:
    """Cluster values of lambda_n = mu_n(1)/mu_n(0) with the class partition.

    Requires every infinite class to be two-point.  Each cluster point
    is a group of classes, each with its deviation.  Prefix coordinates
    and finite classes are finitely many and cannot create cluster
    values; they are ignored and counted in ``ignored_prefix``.
    """
    labels = vs.class_labels()
    deviations = {}
    for k, cls in vs.infinite_classes():
        if cls.template.max_alphabet() != 2:
            raise NotTwoPoint(f"template {cls.template.describe()} is not two-point")
        deviations[labels[k]] = cls.template.deviation
    ignored = len(vs.prefix) + sum(len(c.indices.members) for c in vs.classes
                                   if not c.indices.infinite)
    report = _cluster_report(_ratio_points(vs), vs.mode, "cluster values of the lambda sequence")
    return LambdaReport(report, deviations, ignored)
