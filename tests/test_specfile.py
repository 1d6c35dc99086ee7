import json

import pytest

from kriegerlab import dump_spec, load_spec, parse_spec
from kriegerlab.specfile import SpecFileError

from conftest import SPEC_DIR

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
