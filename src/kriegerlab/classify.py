"""The full type decision procedure with machine-checkable certificates.

Pipeline: the type-I series test, then the type-II_1 test, then the
type-III series test; a type-III scheme is branched on whether the
alphabet sizes are bounded, and II_infinity is assigned purely by
elimination when all three series tests reject.  Every verdict carries
a certificate whose stored evidence replays to the same label through
:func:`replay` without touching the original spec.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Union

from .exact import RATIONAL, Num, _numerators, as_mode, format_scalar, is_exact
from .asymptotics import (
    DIVERGENT, INCONCLUSIVE, SUMMABLE,
    SeriesPart, SummabilityVerdict, Term, _is_limit,
    lambda_clusters, summability, union_cluster_report,
)
from .groups import CYCLIC, DENSE, TRIVIAL, mult_group
from .scheme import (
    CappedGeometric, ExplicitWeights, GeometricTail, Perturbed, SchemeSpec,
    TP_CONST, TP_EXP, TP_WEIGHT, TwoPoint, ValidatedScheme, ZERO, _div,
    _two_point_weights, normalize, validate,
)

LABEL_I_INF = "I_inf"
LABEL_II_1 = "II_1"
LABEL_II_INF = "II_inf"
LABEL_III_0 = "III_0"
LABEL_III_LAMBDA = "III_lambda"
LABEL_III_1 = "III_1"
LABEL_INCONCLUSIVE = "inconclusive"

LABELS = (LABEL_I_INF, LABEL_II_1, LABEL_II_INF,
          LABEL_III_0, LABEL_III_LAMBDA, LABEL_III_1, LABEL_INCONCLUSIVE)

# the cap C of the type-III series: min(x**2, C) and min(x**2, C') bound each
# other up to a constant, so every C > 0 gives the same verdicts
RATIO_DEFECT_CAP = Fraction(1)


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class Certificate:
    fired: tuple
    mode: str
    warnings: tuple
    evidence: dict
    notes: tuple = ()

    def to_dict(self):
        return {"fired": list(self.fired),
                "mode": self.mode,
                "C": format_scalar(as_mode(RATIO_DEFECT_CAP, self.mode)),
                "warnings": list(self.warnings),
                "evidence": self.evidence,
                "notes": list(self.notes)}


@dataclass(frozen=True)
class TypeVerdict:
    label: str
    lam: Optional[Num]
    certificate: Certificate

    def to_dict(self):
        return {"label": self.label,
                "lambda": None if self.lam is None else format_scalar(self.lam),
                "certificate": self.certificate.to_dict()}

    def describe(self) -> str:
        if self.label == LABEL_III_LAMBDA:
            return f"III_lambda lambda={format_scalar(self.lam)}"
        return self.label


# ---------------------------------------------------------------------------
# per-coordinate series values

def _is_uniform(weights) -> bool:
    return all(w == weights[0] for w in weights)


def uniformity_defect(weights) -> float:
    """Average of |1 - sqrt(w_i * k)|**2 over a finite weight vector."""
    k = len(weights)
    return sum(abs(1.0 - math.sqrt(float(w) * k)) ** 2 for w in weights) / k


def ratio_defect(weights) -> Num:
    """Sum over ordered pairs i != j of w_i w_j min((w_i/w_j - 1)**2, C),
    C = :data:`RATIO_DEFECT_CAP` = 1.

    Exact when the weights are rational, on plain integers: over the lcm
    L of the weight denominators, w_i = N_i/L.  A pair is uncapped exactly
    when N_i < 2 N_j and adds N_i (N_i - N_j)**2 / N_j to L**2 times the
    sum; a capped pair adds N_i N_j.  The diagonal is uncapped and adds 0.
    Float input keeps the pairwise loop and its summation order.
    """
    if all(is_exact(w) for w in weights):
        return _ratio_defect_exact(weights)
    total = 0.0
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            if i == j:
                continue
            d = _div(wi, wj) - 1
            d2 = d * d
            total += wi * wj * (d2 if d2 < 1 else 1)
    return total


def _ratio_defect_exact(weights) -> Fraction:
    """:func:`ratio_defect` from prefix sums P1, P2, P3 of the sorted N, N**2, N**3.

    The uncapped i of a j are the first k sorted numerators, those below
    2 N_j, and sum to P3[k] - 2 N_j P2[k] + N_j**2 P1[k]; the capped ones
    add (P1[n] - P1[k]) N_j.
    """
    lcm, ns = _numerators(weights)
    ns = sorted(ns)
    p1 = [0, *accumulate(ns)]
    p2 = [0, *accumulate(n * n for n in ns)]
    p3 = [0, *accumulate(n * n * n for n in ns)]
    uncapped = []               # (sum over uncapped i of N_i (N_i - N_j)**2, N_j)
    capped = 0                  # sum over capped pairs of N_i N_j
    for nj in ns:
        k = bisect_left(ns, 2 * nj)
        uncapped.append((p3[k] - 2 * nj * p2[k] + nj * nj * p1[k], nj))
        capped += (p1[-1] - p1[k]) * nj
    den = math.lcm(*ns)
    num = sum(s * (den // nj) for s, nj in uncapped)
    return Fraction(num + den * capped, den * lcm * lcm)


# ---------------------------------------------------------------------------
# the three series tests: one rule table and one driver

def _zero_if_uniform(weights, defect) -> Term:
    return Term("zero") if _is_uniform(weights) else Term("const", value=defect(weights))


def _limit_term(tpl: Perturbed, value: Num) -> Term:
    return Term("const" if tpl.deviation.family == ZERO else "converges", value=value)


def _normalized_limit(tpl: Perturbed) -> tuple:
    return tuple(_div(v, sum(tpl.limit)) for v in tpl.limit)


def _two_point_I(tpl: TwoPoint, mode) -> Term:
    if tpl.form in (TP_CONST, TP_EXP):
        lam = tpl.value
        return Term("const" if tpl.form == TP_CONST else "converges",
                    value=_div(lam, 1 + lam))
    # the weight form's defect equals eps_n exactly, with closed-form sums;
    # otherwise defect = lam/(1+lam) with lam = 1-exp(-eps) <= eps
    return Term.from_deviation(tpl.deviation, exact=tpl.form == TP_WEIGHT)


def _two_point_II1(tpl: TwoPoint, mode) -> Term:
    lam = tpl.lam_limit()
    if tpl.form == TP_CONST:
        return Term("const", value=uniformity_defect(_two_point_weights(lam)))
    if lam == 1:
        # defect comparable to eps_n**2 (verified bound: term <= (1-lam_n)**2)
        return Term.from_deviation(tpl.deviation.squared())
    limit_term = uniformity_defect(_two_point_weights(float(lam)) if lam else (1.0, 0.0))
    return Term("converges", value=limit_term)


def _two_point_III(tpl: TwoPoint, mode) -> Term:
    lam = tpl.lam_limit()
    if tpl.form == TP_CONST:
        return Term("const", value=ratio_defect(_two_point_weights(lam)))
    if lam == 1:
        return Term.from_deviation(tpl.deviation.squared())
    if lam == 0:
        # term comparable to lam_n, hence to eps_n
        return Term.from_deviation(tpl.deviation)
    return Term("converges", value=ratio_defect(_two_point_weights(float(lam))))


def _perturbed_II1(tpl: Perturbed, mode) -> Term:
    if _is_uniform(tpl.limit):
        # comparable to eps_n**2 (the zero term for a zero deviation)
        return Term.from_deviation(tpl.deviation.squared())
    return _limit_term(tpl, uniformity_defect(_normalized_limit(tpl)))


def _perturbed_III(tpl: Perturbed, mode) -> Term:
    if _is_uniform(tpl.limit):
        # comparable to eps_n**2 (the zero term for a zero deviation)
        return Term.from_deviation(tpl.deviation.squared())
    return _limit_term(tpl, ratio_defect(_normalized_limit(tpl)))


# The term of an infinite class, by template kind, in the type-I, type-II_1
# and type-III series.  Each rule is called as rule(template, mode).
_SERIES_RULES = {
    ExplicitWeights.kind: (
        lambda t, mode: Term("const", value=1 - _div(max(t.weights), t.total())),
        lambda t, mode: _zero_if_uniform(t.weights_at(0, 0, mode), uniformity_defect),
        lambda t, mode: _zero_if_uniform(t.weights_at(0, 0, mode), ratio_defect),
    ),
    GeometricTail.kind: (
        lambda t, mode: Term("const", value=1 - _div(max(t.base), t.total())),
        None,  # the II_1 test rejects infinite alphabets before consulting the table
        lambda t, mode: Term("const", value=_ratio_defect_geometric_tail(t, mode)),
    ),
    TwoPoint.kind: (_two_point_I, _two_point_II1, _two_point_III),
    Perturbed.kind: (
        lambda t, mode: _limit_term(t, 1 - _div(max(t.limit), sum(t.limit))),
        _perturbed_II1,
        _perturbed_III,
    ),
    CappedGeometric.kind: (
        lambda t, mode: Term("converges", value=1),
        # per-coordinate values scale like 1/|X_n| with affine sizes
        lambda t, mode: Term("power", p=Fraction(1)),
        lambda t, mode: Term("power", p=Fraction(1)),
    ),
}

_TYPE_I, _TYPE_II1, _TYPE_III = range(3)


def _finite_part(label: str, vectors, per_vector) -> SeriesPart:
    values = [per_vector(vec) for vec in vectors]
    total = sum(values) if values else Fraction(0)
    return SeriesPart(label, None, Term("finite", value=total))


def _series_verdict(vs: ValidatedScheme, series: int, per_vector) -> SummabilityVerdict:
    """Sum the prefix and finite classes through ``per_vector`` and take
    the infinite classes' terms from the rule table.  A finite class of
    infinite alphabets has no weight vectors to sum: its finitely many
    terms are summable, with no total."""
    parts = [_finite_part("prefix", vs.prefix, per_vector)]
    for label, cls in zip(vs.class_labels(), vs.classes):
        tpl = cls.template
        if cls.indices.infinite:
            term = _SERIES_RULES[tpl.kind][series](tpl, vs.mode)
            parts.append(SeriesPart(label, cls.indices, term))
        elif tpl.alphabet_size() is None:
            parts.append(SeriesPart(label, None, Term("finite")))
        else:
            vectors = [tpl.weights_at(n, cls.indices.position_of(n), vs.mode)
                       for n in cls.indices.members]
            parts.append(_finite_part(label, vectors, per_vector))
    return summability(tuple(parts))


def test_type_I(vs: ValidatedScheme) -> SummabilityVerdict:
    """Summability of the defect series sum_n (1 - max_a mu_n(a))."""
    return _series_verdict(vs, _TYPE_I, lambda w: 1 - max(w))


def test_type_II1(vs: ValidatedScheme) -> SummabilityVerdict:
    """Summability of the uniformity-defect series.

    Requires every alphabet finite; an infinite alphabet fails the
    finite-alphabet precondition and the verdict is reported divergent
    with that reason (the scheme is not II_1 either way).
    """
    if any(cls.template.alphabet_size() is None for cls in vs.classes):
        return SummabilityVerdict(
            DIVERGENT,
            "some coordinates have infinite alphabets; the finite-alphabet "
            "precondition of the II_1 criterion fails")
    return _series_verdict(vs, _TYPE_II1, _uniformity_defect_finite)


def _uniformity_defect_finite(weights):
    if _is_uniform(weights):
        return Fraction(0)
    return uniformity_defect(weights)


def test_type_III(vs: ValidatedScheme) -> SummabilityVerdict:
    """Summability of the capped pairwise ratio-defect series; divergence
    means type III.  The cap is the constant :data:`RATIO_DEFECT_CAP`,
    which the certificate records; the verdict does not depend on it."""
    return _series_verdict(vs, _TYPE_III, ratio_defect)


def _ratio_defect_geometric_tail(tpl: GeometricTail, mode: str) -> Num:
    """Lower bound of the per-coordinate value on a truncated symbol range.

    All pair contributions are non-negative, so the truncated double sum
    is a rigorous lower bound; it is positive from two symbols on, which
    is what the divergence verdict needs.  Rational tails grow by
    w_{i+1} = w_i q; float tails take each weight from ``tpl.weight``,
    whose rounding the printed value depends on.
    """
    total = tpl.total()
    weights = []
    mass = Fraction(0) if mode == RATIONAL else 0.0
    i = 0
    while float(mass) < 1 - 1e-9 and i < 200:
        if mode == RATIONAL and i >= len(tpl.base):
            w = weights[-1] * tpl.ratio
        else:
            w = _div(tpl.weight(i), total)
        weights.append(w if mode == RATIONAL else float(w))
        mass += weights[-1]
        i += 1
    return ratio_defect(tuple(weights))


# ---------------------------------------------------------------------------
# type-III subtype branches: a builder records the evidence and the group of
# its non-zero cluster values, and a decider reads the label off both;
# replay runs the same decider on the recorded evidence and its regrouped values

def _group_kind(group) -> Optional[str]:
    return None if group is None else group.kind


def _zero_one(lambda_set) -> bool:
    return len(lambda_set) == 2 and any(_is_limit(t, 0) for t in lambda_set) \
        and any(_is_limit(t, 1) for t in lambda_set)


def _decide_unbounded(ev: dict, group):
    report = ev["cluster_report"]
    zero_cluster = report["unbounded"] or any(
        p["recurring"] and _is_limit(p["value"], 0) for p in report["points"])
    liminf_zero = _is_limit(ev["inf_liminf"], 0)
    if zero_cluster or liminf_zero:
        fired = "unbounded-liminf-zero" if liminf_zero else "unbounded-zero-cluster"
        return LABEL_III_1, fired
    if _group_kind(group) == DENSE:
        return LABEL_III_1, "unbounded-dense-group"
    if _group_kind(group) == CYCLIC:
        return LABEL_III_LAMBDA, "unbounded-cyclic-group"
    return LABEL_III_0, "unbounded-trivial-group"


def _decide_two_point(ev: dict, group):
    verdicts = [e["series"]["verdict"] for e in ev["eps_verdicts"]]
    if _zero_one(ev["lambda_set"]):
        return LABEL_III_0, "two-point-lambda-set-zero-one"
    if DIVERGENT in verdicts:
        return LABEL_III_1, "two-point-deviations-divergent"
    if INCONCLUSIVE in verdicts:
        return LABEL_INCONCLUSIVE, "two-point-deviations-inconclusive"
    if _group_kind(group) == DENSE:
        return LABEL_III_1, "two-point-dense-group"
    if _group_kind(group) == CYCLIC:
        return LABEL_III_LAMBDA, "two-point-cyclic-group"
    if not verdicts:            # one deviation verdict per non-zero cluster value
        return LABEL_INCONCLUSIVE, "two-point-lambda-only-zero"
    return LABEL_INCONCLUSIVE, "two-point-trivial-group-contradiction"


def _recorded_group(ev: dict):
    """The group of the non-zero cluster values a branch's evidence records:
    the lambda set, or the recurring points of the union report."""
    printed = ev["lambda_set"] if "lambda_set" in ev else \
        [p["value"] for p in ev["cluster_report"]["points"] if p["recurring"]]
    values = [Fraction(t) if isinstance(t, str) else t
              for t in printed if not _is_limit(t, 0)]
    return mult_group(values) if values else None


def classify_III_unbounded(vs: ValidatedScheme) -> tuple:
    """Evidence, group, warnings and notes of a type-III scheme with
    unbounded alphabet sizes."""
    union = union_cluster_report(vs)
    il = format_scalar(union.inf_liminf())
    liminf_zero = _is_limit(il, 0)
    zero_cluster = union.contains_zero      # every point of the union recurs
    group = None
    if not (zero_cluster or liminf_zero):
        group = mult_group(union.values())
    ev = {
        "inf_liminf": il,
        "inf_liminf_zero": liminf_zero,
        "zero_cluster": zero_cluster,
        "cluster_report": union.to_dict(),
        "group": None if group is None else group.to_dict(),
    }
    return ev, group, (), ("symbol 0 (ratios identically 1) is excluded from cluster sets",)


def classify_III_two_point(vs: ValidatedScheme) -> tuple:
    """Evidence, group, warnings and notes of a type-III scheme whose
    recurring coordinates are two-point.

    Finitely many coordinates (the prefix and finite classes) never
    change the subtype and are ignored here, whatever their alphabets.
    """
    lr = lambda_clusters(vs)
    limits = lr.clusters.values()
    lambda_set = [format_scalar(t) for t in limits]
    nonzero = [t for t, p in zip(limits, lambda_set) if not _is_limit(p, 0)]
    zero_one = _zero_one(lambda_set)

    warnings = []
    if len(nonzero) < len(limits) and set(map(float, nonzero)) - {1.0}:
        warnings.append(
            "ambiguous-zero-in-lambda-set: 0 is a cluster value; the group is "
            "generated from the non-zero values only")

    indices = dict(zip(vs.class_labels(), (c.indices for c in vs.classes)))
    eps_verdicts = {}
    for point, printed in zip(lr.clusters.points, lambda_set):
        if _is_limit(printed, 0):
            continue
        eps_verdicts[point.value] = summability(tuple(
            SeriesPart(label, indices[label],
                       Term.from_deviation(lr.deviations[label], exact=True))
            for label in point.witnesses))

    if zero_one:
        divergent_at = [str(format_scalar(t)) for t, v in eps_verdicts.items()
                        if v.divergent]
        if divergent_at:
            warnings.append(
                "zero-one-precedence: deviations at limit(s) "
                f"{', '.join(divergent_at)} diverge, which on its own would force "
                "III_1; the lambda-set {0,1} rule takes precedence by the "
                "documented decision order")

    group_struct = None
    if not zero_one and all(v.summable for v in eps_verdicts.values()):
        if nonzero:
            group_struct = mult_group(nonzero)
            if group_struct.kind == TRIVIAL:
                warnings.append(
                    "two-point-trivial-group-contradicts-type-III: every lambda "
                    "cluster value is 1 and all deviations are summable, which "
                    "contradicts the established type-III verdict")
        else:
            warnings.append(
                "ambiguous-zero-in-lambda-set: the lambda sequence clusters only "
                "at 0; no group criterion applies")

    ev = {
        "lambda_report": lr.to_dict(),
        "lambda_set": lambda_set,
        "zero_one": zero_one,
        "eps_verdicts": [{"limit": format_scalar(t), "series": v.to_dict()}
                         for t, v in eps_verdicts.items()],
        "group": None if group_struct is None else group_struct.to_dict(),
    }
    return ev, group_struct, tuple(warnings), (
        "deviation summability stands in for the multiplicative deviation "
        "of the lambda sequence; the two are comparable for every "
        "supported form",
        f"{lr.ignored_prefix} finitely-covered coordinates ignored")


# Each type-III branch by its evidence key: the name of its builder, looked up
# at call time like the series tests, and its decider.
_BRANCHES = {"unbounded": ("classify_III_unbounded", _decide_unbounded),
             "two_point": ("classify_III_two_point", _decide_two_point)}


# ---------------------------------------------------------------------------
# the complete pipeline

# The series tests in decision order: (evidence key, certificate name, label
# of a summable series).  A divergent type-III series goes on to a branch.
_CHAIN = (("type_I", "type-I", LABEL_I_INF),
          ("type_II1", "type-II1", LABEL_II_1),
          ("type_III", "type-III", LABEL_II_INF))


def classify(spec: Union[SchemeSpec, ValidatedScheme]) -> TypeVerdict:
    """Assign a type label with a replayable certificate.

    Accepts a raw spec (normalized internally) or an already validated
    scheme, which is used as it is: validation already requires the
    normalized form.  Never raises on decidability gaps; those become the
    ``inconclusive`` label with the blocking evidence recorded.
    """
    vs = spec if isinstance(spec, ValidatedScheme) else validate(normalize(spec).spec)
    notes = ("normalized before classification",
             "every alphabet has at least two symbols, so a type-I scheme "
             "has infinitely many atoms")
    evidence, fired = {}, ()
    for key, name, label in _CHAIN:
        # looked up at call time, so a wrapper put on the module attribute sees the call
        verdict = globals()["test_" + key](vs)
        evidence[key] = verdict.to_dict()
        if verdict.inconclusive:
            cert = Certificate((f"{name}-series-inconclusive",), vs.mode,
                               ("a series verdict is inconclusive; no label can be "
                                "assigned from the rule table",),
                               evidence)
            return TypeVerdict(LABEL_INCONCLUSIVE, None, cert)
        if verdict.summable:
            fired += (f"{name}-series-summable",)
            if label == LABEL_II_INF:
                fired += ("II-infinity-by-elimination",)
            return TypeVerdict(label, None, Certificate(fired, vs.mode, (), evidence, notes))
        fired += (f"{name}-series-divergent",)

    if vs.limsup_alphabet() is None:
        branch = "unbounded"
    elif vs.all_two_point():
        branch = "two_point"
    else:
        evidence["branch"] = "bounded_multisymbol"
        cert = Certificate(
            fired + ("bounded-multisymbol-unresolved",), vs.mode,
            ("bounded alphabets with more than two symbols: such a scheme is "
             "isomorphic to a two-point one, but the reduction is not "
             "constructive here; rebuild the spec with two-point templates",),
            evidence, notes)
        return TypeVerdict(LABEL_INCONCLUSIVE, None, cert)

    build, decide = _BRANCHES[branch]
    ev, group, warnings, branch_notes = globals()[build](vs)
    label, rule = decide(ev, group)
    evidence.update({"branch": branch, branch: ev})
    cert = Certificate(fired + (rule,), vs.mode, warnings, evidence, notes + branch_notes)
    return TypeVerdict(label, group.generator if label == LABEL_III_LAMBDA else None, cert)


# ---------------------------------------------------------------------------
# certificate replay

def replay(verdict_dict: dict) -> tuple:
    """Recompute (label, lambda) from a serialized verdict's evidence only.

    The replay never sees the spec: it walks the same decision table and
    runs the same branch deciders on the stored evidence, so a tampered
    certificate that does not support its label is detected by comparing
    the outputs.
    """
    ev = verdict_dict["certificate"]["evidence"]
    for key, _, label in _CHAIN:
        verdict = ev[key]["verdict"]
        if verdict == INCONCLUSIVE:
            return LABEL_INCONCLUSIVE, None
        if verdict == SUMMABLE:
            return label, None
    name = ev.get("branch")
    if name not in _BRANCHES:
        return LABEL_INCONCLUSIVE, None
    group = _recorded_group(ev[name])
    label, _ = _BRANCHES[name][1](ev[name], group)
    return label, format_scalar(group.generator) if label == LABEL_III_LAMBDA else None
