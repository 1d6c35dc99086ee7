import gc
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kriegerlab import dump_spec, load_spec, normalize, parse_spec, scheme_to_factor
from kriegerlab.specfile import SpecFileError, to_json

from conftest import SPEC_DIR
from test_fuzz import BOTH_MODES, schemes

ALL_SPECS = sorted(p.name for p in SPEC_DIR.iterdir())


@pytest.mark.parametrize("name", ALL_SPECS)
def test_shipped_specs_round_trip_through_dump(name):
    spec = load_spec(SPEC_DIR / name)
    assert parse_spec(dump_spec(spec)) == spec


def test_parse_error_carries_location():
    with pytest.raises(SpecFileError) as err:
        parse_spec("{\n  ,bad\n}")
    assert err.value.line == 2


def test_unknown_template_kind_rejected():
    doc = {"mode": "rational",
           "classes": [{"indices": {"start": 1, "step": 1},
                        "template": {"kind": "mystery"}}]}
    with pytest.raises(SpecFileError):
        parse_spec(json.dumps(doc))


def test_unknown_data_kind_rejected():
    with pytest.raises(SpecFileError):
        parse_spec(json.dumps({"mode": "rational", "data": "blob"}))


def test_float_literal_rejected_in_rational_mode():
    doc = {"mode": "rational",
           "classes": [{"indices": {"start": 1, "step": 1},
                        "template": {"kind": "explicit", "weights": [0.5, 0.5]}}]}
    with pytest.raises(SpecFileError):
        parse_spec(json.dumps(doc))


def test_value_beyond_the_float_range_rejected_in_float_mode():
    doc = {"mode": "float",
           "classes": [{"indices": {"start": 1, "step": 1},
                        "template": {"kind": "explicit", "weights": ["1e400", "1/2"]}}]}
    with pytest.raises(SpecFileError, match="1E[+]400 lies beyond the range of a float"):
        parse_spec(json.dumps(doc))


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps(indent=2, sort_keys=True), byte for byte

def _stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


# quotes, backslashes, control, non-ASCII and astral characters
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t aZé ퟿\U0001f600'))
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(-10 ** 1000, 10 ** 1000) | st.floats() | _TEXT)


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(_TEXT, children, max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=30))
@example({"a": -0.0, "b": math.nan, "c": math.inf, "d": -math.inf, "e": 5e-324,
          "f": -10 ** 999, "g": {}, "h": [], "i": (), "j": [[{}], ((),)], "k": None})
@example("\"\\\x01é\U0001f600")
def test_writer_equals_json_dumps(doc):
    assert to_json(doc) == _stdlib(doc)


@pytest.mark.parametrize("keys", [
    st.integers(), st.floats(allow_nan=False), st.booleans(), st.none()])
def test_writer_converts_keys_as_json_dumps(keys):
    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(keys, st.integers(), max_size=4))
    def check(doc):
        assert to_json({"k": doc}) == _stdlib({"k": doc})
    check()


@pytest.mark.parametrize("doc", [{"x": Fraction(1, 2)}, [{1.5j}], {(1, 2): 0}, {"a": 1, 2: 1}])
def test_writer_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError) as expected:
        _stdlib(doc)
    with pytest.raises(TypeError) as got:
        to_json(doc)
    assert str(got.value) == str(expected.value)


@settings(max_examples=60, deadline=None)
@given(schemes(BOTH_MODES))
def test_convert_output_equals_json_dumps(spec):
    for out in (spec, scheme_to_factor(normalize(spec).spec)):
        text = dump_spec(out)
        assert text == _stdlib(json.loads(text)) + "\n"


def test_writing_leaves_no_reference_cycle():
    # a document's pieces are freed when it is written, not by the cyclic GC
    doc = {"a": [{"b": (1, "c", None)}, 2.5], "d": {"e": {}}}
    spec = load_spec(SPEC_DIR / "powers_half.factor")
    gc.disable()
    try:
        gc.collect()
        to_json(doc)
        dump_spec(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()
