"""Malformed complex JSON never gives a traceback: `rootchi complex hom|chi|ss`
exits 0 on a valid complex and 2 on anything else."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from rootchi.cli import main

# n and the gradings stay small: the fuzz is about shape, and the cost of a
# valid complex grows with n and with the filtration width
SMALL_INT = st.integers(-3, 4)
# json.dumps cannot write an integer over int()'s 4,300-digit limit, so the
# strategies draw this marker and _text puts the bare literal in its place
LONG_INT = "<over-long integer>"
ODD_SCALAR = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=True),
                       st.sampled_from(["", "x", "2", "1/2", "1/0", "0/0", "-", "inf", LONG_INT]))
SCALAR = st.one_of(SMALL_INT, ODD_SCALAR)
JSON = st.recursive(SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["n", "generators", "differential", "name",
                                     "deg_times_n", "filt"]), inner, max_size=3)),
    max_leaves=8)

VALID_ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, "0", "1", "-1", "1/2", "-3/4", 0.5])
ENTRY = st.one_of(VALID_ENTRY, VALID_ENTRY, VALID_ENTRY,
                  st.sampled_from(["1/0", "1/0", "x", True, False, None, [], {}, LONG_INT]),
                  st.floats(allow_nan=True))


@st.composite
def complex_json(draw):
    m = draw(st.integers(0, 4))
    gens = []
    for i in range(m):
        g = {"deg_times_n": draw(st.one_of(SMALL_INT, SMALL_INT, ODD_SCALAR))}
        if draw(st.booleans()):
            g["name"] = draw(st.one_of(st.just(f"g{i}"), SCALAR))
        if draw(st.booleans()):
            g["filt"] = draw(st.one_of(SMALL_INT, SMALL_INT, ODD_SCALAR))
        if draw(st.integers(0, 9)) == 0:
            g = draw(JSON)
        gens.append(g)
    # square rows usually; sometimes ragged, missing or not a list of lists
    rows = [[draw(ENTRY) for _ in range(draw(st.sampled_from([m, m, m, m + 1, max(m - 1, 0)])))]
            for _ in range(draw(st.sampled_from([m, m, m, m + 1])))]
    data = {"n": draw(st.one_of(st.integers(1, 4), st.integers(1, 4), SCALAR)),
            "generators": gens, "differential": rows}
    mangle = draw(st.integers(0, 5))
    if mangle == 0:
        del data[draw(st.sampled_from(sorted(data)))]
    elif mangle == 1:
        data[draw(st.sampled_from(sorted(data)))] = draw(JSON)
    return data


def _text(value) -> str:
    return json.dumps(value).replace(json.dumps(LONG_INT), "-" + "9" * 5000)


def _run(action: str, text: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(["complex", action, "-"])
    return code, out.getvalue(), err.getvalue()


def _check(text: str) -> None:
    for action in ("hom", "chi", "ss"):
        code, _, err = _run(action, text)
        assert code in (0, 2, 4), (action, text, code, err)
        assert "Traceback" not in err
        assert (code == 0) == (err == ""), (action, text, err)


@settings(max_examples=60, deadline=None)
@given(complex_json())
def test_malformed_complex_json_exits_cleanly(data):
    _check(_text(data))


@settings(max_examples=25, deadline=None)
@given(st.one_of(JSON, st.text(max_size=12)))
def test_malformed_top_level_exits_cleanly(value):
    _check(value if isinstance(value, str) else _text(value))
