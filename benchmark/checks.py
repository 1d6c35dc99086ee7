"""Independent correctness checks for the benchmark's operations.

Nothing here imports kriegerlab except :func:`replay_label`, which runs
the program's certificate replay on a verdict the program printed.  Every
expected value is computed from the spec documents themselves:

* weights per coordinate are read from the JSON spec documents;
* the group generated by the weight ratios is computed exactly from
  exponent vectors over a coprime basis (trial division by small primes,
  then gcd refinement of what is left), without sympy;
* achievable cocycle values on a block are enumerated as exponent
  vectors, a method the program does not use.
"""

from __future__ import annotations

import math
from fractions import Fraction

SMALL_PRIME_LIMIT = 1000
ENUM_CAP = 400_000          # distinct block values above which a block is not enumerated

# the one fault this benchmark counts instead of flagging as incorrect
FAULT_GEOMETRIC_III_1 = "III_1-on-cyclic-ratio-group"


def _small_primes(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\0\0"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(limit + 1) if sieve[p]]


SMALL_PRIMES = _small_primes(SMALL_PRIME_LIMIT)


# ---------------------------------------------------------------------------
# exponent vectors over a coprime basis

def _strip_small(n):
    """Small prime factors of n by trial division, and the cofactor."""
    found = []
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            found.append(p)
            while n % p == 0:
                n //= p
    if 1 < n <= SMALL_PRIME_LIMIT:
        found.append(n)
        n = 1
    return found, n


def coprime_basis(integers):
    """Pairwise coprime integers > 1 over which every input factors."""
    basis = set()
    rest = []
    for n in integers:
        small, cofactor = _strip_small(abs(n))
        basis.update(small)
        if cofactor > 1:
            rest.append(cofactor)
    # gcd refinement of the large cofactors: replace a, b by a/g, g, b/g
    pool = set(rest)
    changed = True
    while changed:
        changed = False
        items = sorted(pool)
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                g = math.gcd(a, b)
                if g > 1:
                    pool.discard(a)
                    pool.discard(b)
                    pool.update(x for x in (a // g, g, b // g) if x > 1)
                    changed = True
                    break
            if changed:
                break
    return sorted(basis | pool)


def exponent_vector(x: Fraction, basis):
    """Exponents of x over the basis, or None when x does not factor over it."""
    vec = []
    num, den = x.numerator, x.denominator
    for b in basis:
        e = 0
        while num % b == 0:
            num //= b
            e += 1
        while den % b == 0:
            den //= b
            e -= 1
        vec.append(e)
    if num != 1 or den != 1:
        return None
    return tuple(vec)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


class RatioGroup:
    """The subgroup of the positive rationals generated by finitely many values.

    Kept as an integer echelon form of the generators' exponent vectors,
    so rank and membership are exact.
    """

    def __init__(self, generators):
        gens = [Fraction(g) for g in generators if Fraction(g) != 1]
        ints = []
        for g in gens:
            ints += [g.numerator, g.denominator]
        self.basis = coprime_basis(ints)
        self.rows = []                    # (pivot column, row) with distinct pivots
        for g in gens:
            self._add(list(exponent_vector(g, self.basis)))

    def _add(self, v):
        pivots = {pc: k for k, (pc, _) in enumerate(self.rows)}
        for c in range(len(v)):
            if v[c] == 0:
                continue
            if c not in pivots:
                # every entry of v before column c is zero: a new pivot row
                self.rows.append((c, v))
                self.rows.sort(key=lambda pr: pr[0])
                return
            k = pivots[c]
            row = self.rows[k][1]
            # unimodular combination: gcd at the pivot, zero in v
            g, s, t = _xgcd(row[c], v[c])
            a, b = row[c] // g, v[c] // g
            self.rows[k] = (c, [s * r + t * x for r, x in zip(row, v)])
            v = [a * x - b * r for r, x in zip(row, v)]

    @property
    def rank(self):
        return len(self.rows)

    @property
    def kind(self):
        return ("trivial", "cyclic")[self.rank] if self.rank < 2 else "dense"

    def generator(self) -> Fraction:
        """The generator in (0,1) of a cyclic group."""
        if self.rank != 1:
            raise ValueError("not a cyclic group")
        h = Fraction(1)
        for b, e in zip(self.basis, self.rows[0][1]):
            h *= Fraction(b) ** e
        return h if h < 1 else 1 / h

    def contains(self, x) -> bool:
        x = Fraction(x)
        if x == 1:
            return True
        if self.rank == 0:
            return False
        v = exponent_vector(x, self.basis)
        if v is None:
            return False
        v = list(v)
        for pc, row in self.rows:
            if v[pc] % row[pc]:
                return False
            q = v[pc] // row[pc]
            v = [x - q * r for r, x in zip(row, v)]
        return not any(v)


# ---------------------------------------------------------------------------
# the spec documents

def _frac(s):
    return Fraction(str(s))


def _is_exact_doc(doc):
    return doc.get("mode", "rational") == "rational"


def _positive(vec):
    return [w for w in vec if w > 0]


def template_ratios(tpl):
    """The finitely many weight ratios a template produces, or None."""
    kind = tpl["kind"]
    if kind == "explicit":
        w = _positive([_frac(x) for x in tpl["weights"]])
        return [x / w[0] for x in w[1:]]
    if kind == "geometric_tail":
        base = [_frac(x) for x in tpl["base"]]
        return [x / base[0] for x in base[1:]] + [_frac(tpl["ratio"])]
    if kind == "capped_geometric":
        return [_frac(tpl["ratio"])]
    if kind == "perturbed":
        dev = tpl.get("deviation", {"family": "zero"})
        if dev.get("family", "zero") != "zero":
            return None
        w = [_frac(x) for x in tpl["limit"]]
        return [x / w[0] for x in w[1:]]
    if kind == "two_point":
        lam = tpl["lambda"]
        if lam.get("form", "const") == "const":
            return [_frac(lam["value"])]
        return None
    raise ValueError(f"unknown template kind {kind!r}")


def spec_ratio_generators(doc):
    """Generators of the group of every achievable density ratio of the spec.

    Every finite change of a word multiplies ratios of weights of single
    coordinates, so the group generated by all per-coordinate weight
    ratios (prefix included) bounds the ratio set.  None when some class
    has infinitely many distinct ratios or the spec is in float mode.
    """
    if not _is_exact_doc(doc):
        return None
    gens = []
    for vec in doc.get("prefix", []):
        w = _positive([_frac(x) for x in vec])
        gens += [x / w[0] for x in w[1:]]
    for cls in doc["classes"]:
        r = template_ratios(cls["template"])
        if r is None:
            return None
        gens += r
    return gens


def coordinate_alphabet(doc, n, delta=Fraction(1, 1000)):
    """Normalized weights of coordinate n in descending order.

    Geometric-tail alphabets are cut to the shortest descending prefix of
    mass at least 1 - delta, as the program's truncation documents.
    """
    prefix = doc.get("prefix", [])
    if n <= len(prefix):
        return _normalized_desc(_positive([_frac(x) for x in prefix[n - 1]]))
    for cls in doc["classes"]:
        ix = cls["indices"]
        if "list" in ix:
            if n not in ix["list"]:
                continue
            pos = sorted(ix["list"]).index(n)
        else:
            if n < ix["start"] or (n - ix["start"]) % ix["step"]:
                continue
            pos = (n - ix["start"]) // ix["step"]
        return _template_alphabet(cls["template"], n, pos, delta)
    raise ValueError(f"coordinate {n} is not covered")


def _normalized_desc(weights):
    total = sum(weights)
    return tuple(sorted((w / total for w in weights), reverse=True))


def _template_alphabet(tpl, n, pos, delta):
    kind = tpl["kind"]
    if kind == "explicit":
        return _normalized_desc(_positive([_frac(x) for x in tpl["weights"]]))
    if kind == "perturbed":
        return _normalized_desc([_frac(x) for x in tpl["limit"]])
    if kind == "two_point":
        lam = tpl["lambda"]
        form = lam.get("form", "const")
        if form == "const":
            v = _frac(lam["value"])
            return _normalized_desc([Fraction(1), v])
        raise ValueError(f"no alphabet for the two-point {form} form")
    if kind == "capped_geometric":
        q = _frac(tpl["ratio"])
        size = int(tpl.get("size_start", 2)) + int(tpl.get("size_step", 1)) * pos
        return _normalized_desc([q ** min(i, int(tpl["cap"])) for i in range(size)])
    if kind == "geometric_tail":
        base = [_frac(x) for x in tpl["base"]]
        q = _frac(tpl["ratio"])
        total = sum(base[:-1]) + base[-1] / (1 - q)
        head = sorted(base[:-1], reverse=True)
        out, mass, j, tail = [], Fraction(0), 0, base[-1]
        while mass < 1 - delta:
            # merge the explicit head with the decreasing tail
            if head and head[0] >= tail * q ** j:
                w = head.pop(0)
            else:
                w = tail * q ** j
                j += 1
            out.append(w / total)
            mass += w / total
        return tuple(out)
    raise ValueError(f"unknown template kind {kind!r}")


def block_alphabets(doc, start, length, delta=Fraction(1, 1000)):
    return [coordinate_alphabet(doc, n, delta) for n in range(start + 1, start + length + 1)]


def word_ratio(alphabets, x, y) -> Fraction:
    d = Fraction(1)
    for a, i, j in zip(alphabets, x, y):
        d *= a[j] / a[i]
    return d


class BlockValues:
    """Every achievable value D(x -> y) on a block, as exponent vectors."""

    def __init__(self, alphabets, cap=ENUM_CAP):
        ints = []
        for a in alphabets:
            for w in a:
                ints += [w.numerator, w.denominator]
        self.basis = coprime_basis(ints)
        self.logs = [math.log(b) for b in self.basis]
        zero = (0,) * len(self.basis)
        values = {zero}
        self.complete = True
        for a in alphabets:
            vecs = [exponent_vector(w, self.basis) for w in a]
            moves = {tuple(p - q for p, q in zip(vj, vi)) for vi in vecs for vj in vecs}
            if len(values) * len(moves) > 20 * cap:
                self.complete = False
                break
            values = {tuple(s + m for s, m in zip(v, mv)) for v in values for mv in moves}
            if len(values) > cap:
                self.complete = False
                break
        self.values = values if self.complete else None

    def _exact(self, vec) -> Fraction:
        out = Fraction(1)
        for b, e in zip(self.basis, vec):
            if e:
                out *= Fraction(b) ** e
        return out

    def min_distance(self, target: Fraction) -> Fraction:
        """Exact min |v - target| over the block's achievable values."""
        t = float(target)
        scored = []
        for v in self.values:
            lg = sum(e * l for e, l in zip(v, self.logs))
            fv = math.exp(lg) if lg < 700 else math.inf
            scored.append((abs(fv - t), v))
        best_float = min(s for s, _ in scored)
        slack = best_float * 1e-6 + 1e-300 + abs(t) * 1e-15
        return min(abs(self._exact(v) - target) for s, v in scored
                   if s <= best_float + slack)


# ---------------------------------------------------------------------------
# verdict checks

def label_lambda(verdict):
    return verdict["label"], verdict.get("lambda")


def _lambda_value(text):
    if text is None:
        return None
    if isinstance(text, float):
        return text
    return Fraction(text)


def replay_label(verdict):
    """The program's own certificate replay of a printed verdict."""
    from kriegerlab import replay
    return replay(verdict)


def verdict_problems(doc, verdict, expected=None):
    """Problems of one analytic verdict against replay, theory and the bound.

    Returns (problems, fault): ``fault`` is FAULT_GEOMETRIC_III_1 when the
    only thing wrong is a III_1 verdict on a spec whose ratio group is
    cyclic, the known fault this benchmark counts as a failed operation.
    """
    problems = []
    label, lam_text = label_lambda(verdict)
    lam = _lambda_value(lam_text)
    if tuple(replay_label(verdict)) != (label, lam_text):
        problems.append(f"replay gives {replay_label(verdict)}, verdict says {(label, lam_text)}")
    if (label == "III_lambda") != (lam is not None):
        problems.append(f"label {label} with lambda {lam_text}")
    fault = None
    gens = spec_ratio_generators(doc)
    if gens is not None:
        group = RatioGroup(gens)
        if group.kind == "trivial" and label.startswith("III"):
            problems.append(f"{label} although every weight ratio is 1")
        if group.kind == "cyclic" and label == "III_1":
            fault = FAULT_GEOMETRIC_III_1
        if label == "III_lambda" and lam is not None and not group.contains(lam):
            problems.append(f"lambda {lam_text} lies outside the ratio group")
    if expected is not None and fault is None:
        exp_label, exp_lam = expected
        if label != exp_label:
            problems.append(f"label {label}, expected {exp_label}")
        elif exp_lam is not None:
            if isinstance(exp_lam, float):
                if not isinstance(lam, float) or abs(lam - exp_lam) > 1e-9 * exp_lam:
                    problems.append(f"lambda {lam_text}, expected {exp_lam!r}")
            elif lam != exp_lam:
                problems.append(f"lambda {lam_text}, expected {exp_lam}")
    return problems, fault


def witness_problems(doc, out, start, max_block, target, eps, delta=Fraction(1, 1000)):
    """Check a printed witness (or its absence) against direct enumeration.

    Returns (problems, enumerated): ``enumerated`` is False when the block
    was too large to enumerate and only the witness arithmetic was checked.
    """
    problems = []
    w = out["witness"]
    if w is None:
        vals = BlockValues(block_alphabets(doc, start, max_block, delta))
        if not vals.complete:
            return problems, False
        if vals.min_distance(target) < eps:
            problems.append("no witness reported, but one exists in scope")
        return problems, True
    coords = tuple(w["coordinates"])
    length = len(coords)
    if coords != tuple(range(start + 1, start + length + 1)) or length > max_block:
        problems.append(f"witness block {coords} is outside the searched scope")
        return problems, False
    alphabets = block_alphabets(doc, start, length, delta)
    value = word_ratio(alphabets, w["x"], w["y"])
    if value != Fraction(w["value"]):
        problems.append(f"witness value {w['value']} recomputes to {value}")
    if not abs(value - target) < eps:
        problems.append("witness value is not within eps of the target")
    full = BlockValues(alphabets)
    if not full.complete:
        return problems, False
    if full.min_distance(target) != abs(value - target):
        problems.append("a closer value exists at the witness's block length")
    if length > 1:
        shorter = BlockValues(alphabets[:-1])
        if shorter.complete and shorter.min_distance(target) < eps:
            problems.append("a shorter block already holds a witness")
    return problems, True


def oracle_problems(doc, out, start, length, targets, delta=Fraction(1, 1000)):
    problems = []
    alphabets = block_alphabets(doc, start, length, delta)
    vals = BlockValues(alphabets)
    for t, r in zip(targets, out["results"]):
        d = word_ratio(alphabets, r["x"], r["y"])
        if abs(d - t) != Fraction(r["distance"]):
            problems.append(f"oracle distance for {t} does not match its words")
        if vals.complete and vals.min_distance(t) != Fraction(r["distance"]):
            problems.append(f"oracle distance for {t} is not the minimum")
    if len(out["results"]) != len(targets):
        problems.append("oracle result count differs from the target count")
    return problems


def sample_problems(doc, out, n_samples):
    """Each record's num/den lies in the ratio group and log_D matches it."""
    problems = []
    records = out["records"]
    if len(records) != n_samples:
        problems.append(f"{len(records)} records, expected {n_samples}")
    gens = spec_ratio_generators(doc)
    group = RatioGroup(gens) if gens is not None else None
    for i, line in enumerate(records):
        parts = [p.strip() for p in line.split(",")]
        if int(parts[0]) != i or len(parts) != 4:
            problems.append(f"malformed record {line!r}")
            break
        num, den = int(parts[2]), int(parts[3])
        log_d = float(parts[1])
        expect = math.log(num) - math.log(den)
        if abs(log_d - expect) > 1e-12 * max(1.0, abs(expect)):
            problems.append(f"record {i}: log_D {log_d} differs from log(num/den)")
            break
        if group is not None and not group.contains(Fraction(num, den)):
            problems.append(f"record {i}: {num}/{den} lies outside the ratio group")
            break
    return problems
