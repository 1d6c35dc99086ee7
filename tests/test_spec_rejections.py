"""Every refusal of a bad spec or flag, with its exact message.

One table: a case either runs the CLI on a spec file (exit 1, and the
message on stderr) or, where no spec file can reach the check, calls the
constructor or ``validate`` on a hand-built spec and reads the message
of the exception.
"""

import json

import pytest

from kriegerlab import Deviation, ExplicitWeights, GeometricTail, Indices, validate
from kriegerlab.cli import main

from conftest import F, SPEC_DIR, single_class

HALF = {"kind": "two_point", "lambda": {"form": "const", "value": "1/2"}}
ALL = {"start": 1, "step": 1}
ODD = {"start": 1, "step": 2}


def spec(template=HALF, indices=ALL, prefix=(), mode="rational", data="scheme", classes=None):
    """A spec document: by default one class of ``template`` on ``indices``."""
    if classes is None:
        classes = [(indices, template)]
    return {"mode": mode, "data": data, "prefix": [list(v) for v in prefix],
            "classes": [{"indices": ix, "template": t} for ix, t in classes]}


def two_point(form, value=None, deviation=None):
    lam = {"form": form}
    if value is not None:
        lam["value"] = value
    if deviation is not None:
        lam["deviation"] = deviation
    return {"kind": "two_point", "lambda": lam}


def geometric(rho="1/2", coeff="1/2"):
    return {"family": "geometric", "rho": rho, "coeff": coeff}


def malformed(message):
    return f"malformed spec file: {message}"


# (id, spec document or raw text, extra CLI arguments, message on stderr);
# the command is classify unless the arguments name another
CLI_CASES = [
    # Deviation.__post_init__, reached through the spec parser
    ("geometric-rho", spec(two_point("weight", deviation=geometric(rho="2"))), None,
     malformed("geometric deviation needs rho in (0,1)")),
    ("geometric-coeff", spec(two_point("weight", deviation=geometric(coeff="0"))), None,
     malformed("geometric deviation needs coeff > 0")),
    ("power-exponent",
     spec(two_point("weight", deviation={"family": "power", "exponent": "0"})), None,
     malformed("power deviation needs exponent > 0")),
    ("power-coeff",
     spec(two_point("weight", deviation={"family": "power", "exponent": "2", "coeff": "-1"})),
     None, malformed("power deviation needs coeff > 0")),
    ("explicit-negative",
     spec(two_point("weight", deviation={"family": "explicit", "values": ["-1/4"]})), None,
     malformed("explicit deviations must be non-negative")),
    # Indices.__post_init__
    ("empty-list", spec(indices={"list": []}), None, malformed("empty index list")),
    ("list-zero", spec(indices={"list": [0]}), None, malformed("coordinates are 1-indexed")),
    ("list-duplicate", spec(indices={"list": [4, 4]}), None,
     malformed("duplicate coordinate in index list")),
    ("progression-start", spec(indices={"start": 0, "step": 1}), None,
     malformed("progression needs start >= 1 and step >= 1")),
    # ExplicitWeights.check
    ("explicit-one-symbol", spec({"kind": "explicit", "weights": ["1"]}), None,
     "alphabet size must be >= 2"),
    ("explicit-zero", spec({"kind": "explicit", "weights": ["1", "0"]}), None,
     "explicit template has a non-positive weight"),
    # TwoPoint.check
    ("const-lambda", spec(two_point("const", "2")), None,
     "two-point const form needs lambda in (0,1)"),
    ("exp-limit", spec(two_point("exp", "2", geometric()), mode="float"), None,
     "two-point exp form needs limit in (0,1]"),
    ("exp-limit-one", spec(two_point("exp", "1"), mode="float"), None,
     "two-point exp form with limit 1 needs a strictly positive deviation "
     "(otherwise some lambda_n = 1)"),
    ("one-minus-exp-zero", spec(two_point("one_minus_exp"), mode="float"), None,
     "two-point one_minus_exp form needs a strictly positive deviation "
     "(eps_n = 0 would zero a weight)"),
    ("weight-first-coordinate", spec(two_point("weight", deviation=geometric("1/2", "2"))),
     None, "two-point weight form needs eps_n <= 1/2 at every coordinate"),
    ("unknown-form", spec(two_point("bogus")), None, "unknown two-point form 'bogus'"),
    ("exp-rational", spec(two_point("exp", "1/2", geometric())), None,
     "two-point exp form is transcendental; use float mode"),
    ("weight-inexact",
     spec(two_point("weight", deviation={"family": "power", "exponent": "3/2",
                                         "coeff": "1/4"})), None,
     "two-point weight form needs exact rational deviations (integer power exponents) "
     "in rational mode"),
    # Perturbed.check
    ("perturbed-one-symbol", spec({"kind": "perturbed", "limit": ["1"]}), None,
     "alphabet size must be >= 2"),
    ("perturbed-zero", spec({"kind": "perturbed", "limit": ["1", "0"]}), None,
     "perturbed limit vector has a non-positive entry"),
    ("perturbed-rational",
     spec({"kind": "perturbed", "limit": ["2", "1"], "deviation": geometric()}), None,
     "perturbed template with a non-zero deviation needs float mode"),
    ("perturbed-anchor",
     spec({"kind": "perturbed", "limit": ["1", "2"], "deviation": geometric()}, mode="float"),
     None, "perturbed limit vector must carry its maximum at symbol 0, which anchors "
           "the deviation"),
    # CappedGeometric.check
    ("capped-ratio", spec({"kind": "capped_geometric", "ratio": "2", "cap": 1}), None,
     "capped geometric ratio must be in (0,1)"),
    ("capped-cap", spec({"kind": "capped_geometric", "ratio": "1/2", "cap": 0}), None,
     "capped geometric needs cap >= 1"),
    ("capped-sizes",
     spec({"kind": "capped_geometric", "ratio": "1/2", "cap": 1, "size_start": 1}), None,
     "capped geometric needs size_start >= 2 and size_step >= 1"),
    # checked before normalizing, whose arithmetic each of these once broke
    ("tail-zero-before-normalize",
     spec({"kind": "geometric_tail", "base": ["0", "1/2"], "ratio": "1/2"}), None,
     "geometric tail base has a non-positive weight"),
    ("tail-negative-before-normalize",
     spec({"kind": "geometric_tail", "base": ["-1", "1/2"], "ratio": "1/2"}), None,
     "geometric tail base has a non-positive weight"),
    ("tail-empty-before-normalize",
     spec({"kind": "geometric_tail", "base": [], "ratio": "1/2"}), None,
     "geometric tail needs a non-empty base"),
    ("tail-ratio-one-before-normalize",
     spec({"kind": "geometric_tail", "base": ["1/2"], "ratio": "1"}), None,
     "geometric tail ratio must be in (0,1)"),
    ("tail-ratio-two-before-normalize",
     spec({"kind": "geometric_tail", "base": ["1/2"], "ratio": "2"}), None,
     "geometric tail ratio must be in (0,1)"),
    ("tail-float-ratio-before-normalize",
     spec({"kind": "geometric_tail", "base": ["1", "1/3", "1/2"], "ratio": "1e300"},
          mode="float"), None,
     "geometric tail ratio must be in (0,1)"),
    ("perturbed-empty-before-normalize",
     spec({"kind": "perturbed", "limit": [], "deviation": geometric()}), None,
     "alphabet size must be >= 2"),
    ("explicit-zero-before-normalize", spec({"kind": "explicit", "weights": ["0"]}), None,
     "alphabet size must be >= 2"),
    ("explicit-zero-float-before-normalize",
     spec({"kind": "explicit", "weights": [0]}, mode="float"), None,
     "alphabet size must be >= 2"),
    ("explicit-negative-before-normalize",
     spec({"kind": "explicit", "weights": ["-1", "-2"]}), None,
     "explicit template has a non-positive weight"),
    ("prefix-zero-sum-before-normalize",
     spec(indices={"start": 2, "step": 1}, prefix=[["1", "-1"]]), None,
     "prefix coordinate 1 has a non-positive weight"),
    # ValidatedScheme._check on the prefix
    ("prefix-one-symbol", spec(indices={"start": 2, "step": 1}, prefix=[["1"]]), None,
     "prefix coordinate 1: alphabet size must be >= 2"),
    ("prefix-zero", spec(indices={"start": 2, "step": 1}, prefix=[["1", "0"]]), None,
     "prefix coordinate 1 has a non-positive weight"),
    # ValidatedScheme._check_cover
    ("no-progression", spec(indices={"list": [1]}), None,
     "no infinite index class; coordinates beyond a finite range are uncovered"),
    ("progression-in-prefix", spec(prefix=[["1/2", "1/2"]]), None,
     "progression 1 + 1*k overlaps the prefix 1..1"),
    ("progressions-intersect",
     spec(classes=[(ALL, HALF), ({"start": 2, "step": 2}, HALF)]), None,
     "progressions 1 + 1*k and 2 + 2*k intersect"),
    ("list-in-prefix",
     spec(classes=[({"start": 2, "step": 1}, HALF), ({"list": [1]}, HALF)],
          prefix=[["1/2", "1/2"]]), None,
     "coordinate 1 is covered by the prefix and a class"),
    ("list-twice",
     spec(classes=[(ODD, HALF), ({"list": [2]}, HALF), ({"list": [2]}, HALF)]), None,
     "coordinate 2 appears in two classes"),
    ("list-in-progression", spec(classes=[(ODD, HALF), ({"list": [3]}, HALF)]), None,
     "coordinate 3 lies in progression 1 + 2*k"),
    ("uncovered", spec(indices=ODD), None, "coordinate 2 is not covered"),
    # _strip_zero_entries, on factor data
    ("factor-negative",
     spec(indices={"start": 2, "step": 1}, prefix=[["1", "-1", "1"]], data="factor"), None,
     "eigenvalue lists must be non-negative"),
    ("factor-one-positive",
     spec(indices={"start": 2, "step": 1}, prefix=[["1", "0"]], data="factor"), None,
     "a coordinate needs at least two positive eigenvalues to carry a fully supported "
     "weight vector"),
    # parse_scalar and check_mode
    ("scalar-zero-denominator", spec(two_point("const", "1/0")), None,
     malformed("cannot parse scalar '1/0': Fraction(1, 0)")),
    ("scalar-bool", spec(two_point("const", True)), None, malformed("not a scalar: True")),
    ("scalar-float-literal", spec(two_point("const", 0.5)), None,
     malformed("float literal 0.5 not allowed in rational mode; write 'p/q'")),
    ("scalar-list", spec(two_point("const", [1])), None,
     malformed("cannot parse scalar of type list")),
    ("mode", spec(mode="decimal"), None,
     malformed("unknown arithmetic mode 'decimal'; expected one of ('rational', 'float')")),
    # parse_spec, _parse_template and _parse_deviation
    ("not-json", "x", None, "not valid JSON: Expecting value (line 1, column 1)"),
    ("not-object", "[]", None, "spec file must be a JSON object"),
    ("missing-key", {"classes": [{"indices": ALL}]}, None, malformed("'template'")),
    ("data-kind", spec(data="table"), None,
     "unknown data kind 'table'; expected scheme or factor"),
    ("template-kind", spec({"kind": "bogus"}), None, "unknown template kind 'bogus'"),
    ("deviation-family", spec(two_point("weight", deviation={"family": "bogus"})), None,
     "unknown deviation family 'bogus'"),
    # block_for
    ("block-length", spec(), ["oracle", "--length", "0", "--targets", "1/2"],
     "block length must be >= 1"),
    ("block-start", spec(), ["oracle", "--start", "-1", "--targets", "1/2"],
     "block start must be >= 0"),
    # cmd_convert
    ("convert-factor", json.loads((SPEC_DIR / "powers_half.factor").read_text()),
     ["convert", "--from", "scheme"], "input is factor data; use --from factor"),
]


def _validate_one(template, prefix=()):
    return lambda: validate(single_class(template, "rational", prefix,
                                         Indices(len(prefix) + 1, 1)))


# (id, call, message of the exception it raises) where no spec file reaches the check
CALL_CASES = [
    ("deviation-family", lambda: Deviation("bogus"), "unknown deviation family 'bogus'"),
    ("indices-both", lambda: Indices(1, 1, (2,)),
     "index set is either a progression or a list, not both"),
    ("indices-no-step", lambda: Indices(start=1), "progression needs start and step"),
    ("tail-empty", _validate_one(GeometricTail((), F(1, 2))),
     "geometric tail needs a non-empty base"),
    ("tail-zero", _validate_one(GeometricTail((F(0), F(1, 2)), F(1, 2))),
     "geometric tail base has a non-positive weight"),
    ("tail-ratio", _validate_one(GeometricTail((F(1, 2),), F(2))),
     "geometric tail ratio must be in (0,1)"),
    ("prefix-sum", _validate_one(ExplicitWeights((F(1, 2), F(1, 2))), [(F(1, 2), F(1, 4))]),
     "prefix coordinate 1 does not sum to 1 (run normalize)"),
    ("prefix-order",
     _validate_one(ExplicitWeights((F(1, 2), F(1, 2))), [(F(1, 4), F(3, 4))]),
     "prefix coordinate 1 is not sorted descending (run normalize)"),
    ("prefix-float",
     _validate_one(ExplicitWeights((F(1, 2), F(1, 2))), [(F(1, 2), 0.5)]),
     "prefix coordinate 1 carries floats in rational mode"),
    ("class-order", _validate_one(ExplicitWeights((F(1, 3), F(2, 3)))),
     "class 1 + 1*k -> explicit(1/3, 2/3) is not normalized (run normalize)"),
]


def _argv(case_id, doc, extra, tmp_path):
    path = tmp_path / f"{case_id}.spec"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    command, *flags = extra or ["classify"]
    return [command, str(path), *flags]


@pytest.mark.parametrize("case_id, doc, extra, message", CLI_CASES,
                         ids=[c[0] for c in CLI_CASES])
def test_cli_refuses_with_the_message(case_id, doc, extra, message, tmp_path, capsys):
    code = main(_argv(case_id, doc, extra, tmp_path))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("case_id, call, message", CALL_CASES,
                         ids=[c[0] for c in CALL_CASES])
def test_constructor_refuses_with_the_message(case_id, call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("argv, message", [
    (["witness", "--target", "x", "--eps", "1/100"], "argument --target: not a number: 'x'"),
    (["witness", "--target", "1/2", "--eps", "1/0"], "argument --eps: not a number: '1/0'"),
    (["sample", "--seed", str(1 << 64)],
     "argument --seed: seed must be a 64-bit unsigned integer"),
])
def test_cli_refuses_a_flag_with_the_message(argv, message, capsys):
    code = main([argv[0], str(SPEC_DIR / "powers_half.spec"), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err.endswith(f"kriegerlab {argv[0]}: error: {message}\n")


# ---------------------------------------------------------------------------
# the weight form's bound eps_n <= 1/2 holds on the class's own coordinates

def _weight_from_three(tmp_path, coeff):
    """Two uniform prefix coordinates, then mu_n = (1 - eps_n, eps_n) with
    eps_n = coeff * 2**-n from coordinate 3 on."""
    doc = spec(two_point("weight", deviation=geometric("1/2", coeff)),
               indices={"start": 3, "step": 1}, prefix=[["1/2", "1/2"]] * 2)
    return _argv("weight", doc, None, tmp_path)


def test_weight_form_bound_starts_at_the_class(tmp_path, capsys):
    # eps_3 = 1/4, although eps_1 = 1 at a coordinate the class does not hold
    code = main(_weight_from_three(tmp_path, "2"))
    assert (code, capsys.readouterr().out.partition("\n")[0]) == (0, "I_inf")


def test_weight_form_bound_fails_at_the_class_first_coordinate(tmp_path, capsys):
    # eps_3 = 5/8
    code = main(_weight_from_three(tmp_path, "5"))
    assert (code, capsys.readouterr().err) == (
        1, "error: two-point weight form needs eps_n <= 1/2 at every coordinate\n")
