"""Raw spec documents through ``cli.main``: every one ends in exit 0, 1 or 2.

Each document is valid JSON with any template kind or deviation family;
about one field in 25 takes an adversarial value (0, negatives, 1, 2,
"1/0", "", huge integers, floats in rational mode, empty or one-entry
vectors).  Each example is bounded by work until the time and memory
bounds of ROADMAP item 8 land: capped caps at most 64, capped sizes at
most 64 or else 10**30, past the symbol bound of one coordinate, tails
with q <= 99/100 (q <= 9/10 under ``witness``, where a rational tail at
99/100 beside a second generator takes 25 s in the move enumeration),
and ``--max-block`` at most 6.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kriegerlab.cli import main

HUGE = 10 ** 30
# the adversarial values of every field
BAD = st.sampled_from([0, -1, 1, 2, "1/0", "", HUGE, str(HUGE), f"1/{HUGE}", "-1/2",
                       0.5, 1e-10, 0.9999999999999, 1.0, 1e300, []])
# the adversarial values of a size that the bounds below keep at most 64
SMALL = [0, -1, 1, 2, "1/0", "", "-1/2", 0.5, 1e-10, 1.0, []]
SMALL_BAD = st.sampled_from(SMALL)
# a capped size may also lie past the symbol bound of one coordinate
SIZE_BAD = st.sampled_from(SMALL + [HUGE, str(HUGE)])
FLOATS = {"unit": [0.5, 0.25, 0.9999999999999, 1e-10], "positive": [0.5, 2.0],
          "lambda": [0.5, 1.0, 0.9999999999999, 1e-10], "tail": [0.5, 0.9, 0.99]}
STRINGS = {"unit": ["1/2", "1/3", "2/3", "3/4", "1/1024"], "positive": ["1", "2", "1/3", "5/7"],
           "lambda": ["1/2", "1/3"], "tail": ["1/2", "2/3", "9/10", "99/100"]}


def documents(witness):
    return st.sampled_from(["rational", "float"]).flatmap(lambda m: _documents(m, witness))


@st.composite
def _documents(draw, mode, witness):
    def pool(name, bad=BAD):
        values = STRINGS[name] + (FLOATS[name] if mode == "float" else [])
        if witness and name == "tail":
            values = [q for q in values if q not in ("99/100", 0.99)]
        return field(st.sampled_from(values), bad)

    def vector(name, min_size=2):
        return field(st.lists(pool(name), min_size=min_size, max_size=4),
                     st.lists(BAD, max_size=1))

    deviation = field(st.one_of(
        st.none(),
        st.just({"family": "zero"}),
        st.fixed_dictionaries({"family": st.just("geometric"), "rho": pool("unit")},
                              optional={"coeff": pool("positive")}),
        st.fixed_dictionaries({"family": st.just("power"), "exponent": pool("positive")},
                              optional={"coeff": pool("positive")}),
        st.fixed_dictionaries({"family": st.just("explicit"),
                               "values": vector("unit", min_size=0)})),
        st.fixed_dictionaries({"family": st.sampled_from(["", "bogus"])}))
    lam = st.fixed_dictionaries(
        {"form": field(st.sampled_from(["const", "exp", "one_minus_exp", "weight"]),
                       st.sampled_from(["", "bogus"]))},
        optional={"value": pool("lambda"), "deviation": deviation})
    template = field(st.one_of(
        st.fixed_dictionaries({"kind": st.just("explicit"), "weights": vector("positive")}),
        st.fixed_dictionaries({"kind": st.just("geometric_tail"),
                               "base": vector("positive", min_size=1),
                               "ratio": pool("tail", BAD.filter(lambda x: x != 0.9999999999999))}),
        st.fixed_dictionaries({"kind": st.just("two_point"), "lambda": lam}),
        st.fixed_dictionaries({"kind": st.just("perturbed"), "limit": vector("positive")},
                              optional={"deviation": deviation}),
        st.fixed_dictionaries({"kind": st.just("capped_geometric"), "ratio": pool("unit"),
                               "cap": field(st.sampled_from([1, 2, 5, 64]), SMALL_BAD)},
                              optional={"size_start": field(st.sampled_from([2, 3]), SIZE_BAD),
                                        "size_step": field(st.sampled_from([1, 2]), SIZE_BAD)})),
        st.fixed_dictionaries({"kind": st.sampled_from(["", "bogus"])}))

    prefix = draw(field(st.lists(st.sampled_from([["1/2", "1/2"], ["2/3", "1/3"]]), max_size=2),
                        st.lists(vector("positive"), max_size=2)))
    k = draw(st.integers(1, 3))
    first = (len(prefix) if isinstance(prefix, list) else 0) + 1
    classes = []
    for j in range(k):
        # mostly a partition of the coordinates after the prefix
        indices = draw(field(st.just({"start": first + j, "step": k}), st.one_of(
            st.fixed_dictionaries({"start": BAD, "step": BAD}),
            st.fixed_dictionaries({"list": st.lists(BAD, max_size=3)}),
            st.fixed_dictionaries({"list": st.lists(st.integers(1, 9), max_size=3)}))))
        classes.append({"indices": indices, "template": draw(template)})
    doc = {"mode": draw(field(st.just(mode))),
           "data": draw(field(st.sampled_from(["scheme", "factor"]))),
           "prefix": prefix, "classes": classes}
    return json.dumps(doc)


@st.composite
def field(draw, valid, bad=BAD):
    """Mostly a valid value, about one time in 25 an adversarial one."""
    return draw(bad if draw(st.integers(0, 24)) == 12 else valid)


def options(command):
    if command == "classify":
        return st.sampled_from([[], ["--format", "json"]])
    return st.builds(lambda t, e, b: ["--target", t, "--eps", e, "--max-block", str(b)],
                     st.sampled_from(["1/2", "1/7", "2", "3/4"]),
                     st.sampled_from(["1/100", "1/1000000"]), st.integers(1, 6))


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("raw") / "doc.spec"


@pytest.mark.parametrize("command", ["classify", "witness"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_raw_documents_end_in_a_known_exit_code(doc_path, command, data):
    argv = [command, str(doc_path), *data.draw(options(command))]
    doc_path.write_text(data.draw(documents(command == "witness")))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "internal error" not in err.getvalue()
