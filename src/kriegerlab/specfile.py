"""Reading and writing spec files.

A spec file is a JSON document (a key-value tree, so any JSON-compatible
config tooling can produce it):

    {
      "mode": "rational",
      "data": "scheme",                       # or "factor"
      "prefix": [["2/3", "1/3"], ...],        # optional, coordinates 1..P
      "classes": [
        {"indices": {"start": 1, "step": 2},  # or {"list": [4, 9]}
         "template": {"kind": "two_point",
                      "lambda": {"form": "const", "value": "1/2"}}},
        ...
      ]
    }

Rationals are written bit-exactly as "p/q" strings.  Template kinds and
their parameters:

  explicit          weights: [scalar, ...]
  geometric_tail    base: [scalar, ...], ratio: scalar
  two_point         lambda: {form: const|exp|one_minus_exp|weight,
                             value?: scalar, deviation?: {...}}
  perturbed         limit: [scalar, ...], deviation?: {...}
  capped_geometric  ratio: scalar, cap: int, size_start?: int, size_step?: int

Deviations: {"family": "zero"} | {"family": "geometric", "rho": s, "coeff"?: s}
          | {"family": "power", "exponent": s, "coeff"?: s}
          | {"family": "explicit", "values": [s, ...]}
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Union

from .exact import check_mode, format_scalar, parse_scalar
from .scheme import (
    CappedGeometric, Deviation, ExplicitWeights, FactorSpec, GeometricTail,
    IndexClass, Indices, Perturbed, SchemeSpec, SpecError, TwoPoint,
    ZERO_DEVIATION,
)


class SpecFileError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


def _parse_deviation(node, mode) -> Deviation:
    if node is None:
        return ZERO_DEVIATION
    family = node.get("family")
    if family == "zero":
        return ZERO_DEVIATION
    coeff = parse_scalar(node.get("coeff", 1), mode)
    if family == "geometric":
        return Deviation("geometric", rho=parse_scalar(node["rho"], mode), coeff=coeff)
    if family == "power":
        return Deviation("power", exponent=parse_scalar(node["exponent"], mode),
                         coeff=coeff)
    if family == "explicit":
        return Deviation("explicit",
                         values=tuple(parse_scalar(v, mode) for v in node["values"]))
    raise SpecFileError(f"unknown deviation family {family!r}")


def _parse_template(node, mode):
    kind = node.get("kind")
    if kind == "explicit":
        return ExplicitWeights(tuple(parse_scalar(w, mode) for w in node["weights"]))
    if kind == "geometric_tail":
        return GeometricTail(tuple(parse_scalar(w, mode) for w in node["base"]),
                             parse_scalar(node["ratio"], mode))
    if kind == "two_point":
        lam = node.get("lambda", {})
        form = lam.get("form", "const")
        value = lam.get("value")
        return TwoPoint(form,
                        None if value is None else parse_scalar(value, mode),
                        _parse_deviation(lam.get("deviation"), mode))
    if kind == "perturbed":
        return Perturbed(tuple(parse_scalar(v, mode) for v in node["limit"]),
                         _parse_deviation(node.get("deviation"), mode))
    if kind == "capped_geometric":
        return CappedGeometric(parse_scalar(node["ratio"], mode),
                               int(node["cap"]),
                               int(node.get("size_start", 2)),
                               int(node.get("size_step", 1)))
    raise SpecFileError(f"unknown template kind {kind!r}")


def _parse_indices(node) -> Indices:
    if "list" in node:
        return Indices(members=tuple(int(m) for m in node["list"]))
    return Indices(start=int(node["start"]), step=int(node["step"]))


def parse_spec(text: str) -> Union[SchemeSpec, FactorSpec]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"not valid JSON: {exc.msg}",
                            line=exc.lineno, column=exc.colno) from None
    if not isinstance(doc, dict):
        raise SpecFileError("spec file must be a JSON object")
    try:
        mode = check_mode(doc.get("mode", "rational"))
        data = doc.get("data", "scheme")
        prefix = tuple(tuple(parse_scalar(w, mode) for w in vec)
                       for vec in doc.get("prefix", []))
        classes = tuple(
            IndexClass(_parse_indices(c["indices"]), _parse_template(c["template"], mode))
            for c in doc.get("classes", []))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SpecFileError):
            raise
        raise SpecFileError(f"malformed spec file: {exc}") from None
    if data == "factor":
        return FactorSpec(mode, prefix, classes)
    if data == "scheme":
        return SchemeSpec(mode, prefix, classes)
    raise SpecFileError(f"unknown data kind {data!r}; expected scheme or factor")


def load_spec(path) -> Union[SchemeSpec, FactorSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def _dump_deviation(dev: Deviation):
    if dev.family == "zero":
        return {"family": "zero"}
    if dev.family == "geometric":
        return {"family": "geometric", "rho": format_scalar(dev.rho),
                "coeff": format_scalar(dev.coeff)}
    if dev.family == "power":
        return {"family": "power", "exponent": format_scalar(dev.exponent),
                "coeff": format_scalar(dev.coeff)}
    return {"family": "explicit", "values": [format_scalar(v) for v in dev.values]}


def _dump_template(tpl):
    if isinstance(tpl, ExplicitWeights):
        return {"kind": "explicit", "weights": [format_scalar(w) for w in tpl.weights]}
    if isinstance(tpl, GeometricTail):
        return {"kind": "geometric_tail",
                "base": [format_scalar(w) for w in tpl.base],
                "ratio": format_scalar(tpl.ratio)}
    if isinstance(tpl, TwoPoint):
        lam = {"form": tpl.form}
        if tpl.value is not None:
            lam["value"] = format_scalar(tpl.value)
        if tpl.deviation.family != "zero":
            lam["deviation"] = _dump_deviation(tpl.deviation)
        return {"kind": "two_point", "lambda": lam}
    if isinstance(tpl, Perturbed):
        out = {"kind": "perturbed", "limit": [format_scalar(v) for v in tpl.limit]}
        if tpl.deviation.family != "zero":
            out["deviation"] = _dump_deviation(tpl.deviation)
        return out
    if isinstance(tpl, CappedGeometric):
        return {"kind": "capped_geometric", "ratio": format_scalar(tpl.ratio),
                "cap": tpl.cap, "size_start": tpl.size_start,
                "size_step": tpl.size_step}
    raise SpecError(f"cannot serialize template {tpl!r}")


def _dump_indices(ix: Indices):
    if ix.members is not None:
        return {"list": list(ix.members)}
    return {"start": ix.start, "step": ix.step}


def dump_spec(spec: Union[SchemeSpec, FactorSpec]) -> str:
    doc = {
        "mode": spec.mode,
        "data": "factor" if isinstance(spec, FactorSpec) else "scheme",
        "prefix": [[format_scalar(w) for w in vec] for vec in spec.prefix],
        "classes": [{"indices": _dump_indices(c.indices),
                     "template": _dump_template(c.template)}
                    for c in spec.classes],
    }
    return to_json(doc) + "\n"


# ---------------------------------------------------------------------------
# JSON output

def to_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` set the stdlib never uses its C encoder; this writes
    the same pieces into one list, joined once.
    """
    out = []
    _write(doc, out.append, "\n")
    return "".join(out)


def _write(o, put, pad: str):
    """Put the pieces of ``o`` at indent ``pad`` (a newline and spaces).

    Module-level and handed ``put``: a closure calling itself would make
    a reference cycle per document, so its pieces would wait for the
    cyclic GC.  No object is two of str, int, float, list, tuple and
    dict, so testing the most frequent first picks the stdlib's case;
    None and the bools go before int, as there.
    """
    if isinstance(o, str):
        put(_quote(o))
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for k in sorted(o):
            put(sep + (_quote(k) if isinstance(k, str) else _key(k)) + ": ")
            _write(o[k], put, inner)
            sep = "," + inner
        put(pad + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for v in o:
            put(sep)
            _write(v, put, inner)
            sep = "," + inner
        put(pad + "]")
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    elif isinstance(o, float):
        put(_float(o))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _float(x: float) -> str:
    """A float as the stdlib writes it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    """A key that is no str, converted as the stdlib converts it."""
    if k is None or isinstance(k, (int, float)):       # bools are ints
        return _quote(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")

