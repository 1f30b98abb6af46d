"""`rootchi poly` and `rootchi verify` never give a traceback.

`poly` exits 0, 2 or 3 on any flags and link text.  `verify` exits 0, 2 or 3
on any corpus text, or 1, and then only with a `FAIL` line for the check
that failed.  About half the examples are drawn well-formed, so that they
reach the engines and the checks; links stay small (a few crossings) so each
example is cheap.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootchi.cli import main


@st.composite
def braid(draw, clean: bool):
    if clean:
        width = draw(st.integers(1, 2))
        letters = st.integers(1, width).flatmap(lambda g: st.sampled_from([g, -g]))
        strands = str(width + 1)
    else:
        strands = draw(st.sampled_from(["1", "2", "3", "0", "x", "9" * 40]))
        width = int(strands) if len(strands) == 1 and strands.isdigit() else 2
        letters = st.integers(-width, width)
    word = " ".join(str(g) for g in draw(st.lists(letters, max_size=5)))
    return f"BR[{strands}; {word}]"


@st.composite
def pd(draw):
    label = st.integers(0, 8)
    crossings = draw(st.lists(st.tuples(label, label, label, label), max_size=4))
    return "PD[" + ",".join(f"X[{a},{b},{c},{d}]" for a, b, c, d in crossings) + "]"


@st.composite
def source(draw, clean: bool):
    """A link text: well-formed, or malformed in one of many ways."""
    if clean:
        return draw(st.one_of(braid(True), st.sampled_from(["U", "U U", "BR[2; 1 1 1] U"])))
    text = draw(st.one_of(braid(False), pd(), braid(True), st.text(max_size=10)))
    text = text[:draw(st.integers(0, len(text)))]
    if text and draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.sampled_from(list("[];,X-0 U⊔"))) + text[i + 1:]
    return text


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refusing a flag
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _option(name: str, values: list[str]):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, v]))


@st.composite
def poly_argv(draw):
    clean = draw(st.booleans())
    link = draw(st.one_of(source(clean), st.sampled_from(["unknot", "trefoil", "hopf_neg"])))
    flags = [_option("--invariant", ["homfly", "alexander", "sln"]),
             _option("--variant", ["reduced", "middle", "unreduced"]),
             _option("--n", ["1", "2", "3", "5"]),
             _option("--format", ["text", "json"])]
    if not clean:
        flags += [_option("--invariant", ["jones", ""]), _option("--variant", ["half"]),
                  _option("--n", ["0", "-2", "two", "201", "9" * 40]),
                  _option("--format", ["xml"])]
    return ["poly", link] + [x for opt in flags for x in draw(opt)]


@settings(max_examples=60, deadline=None)
@given(poly_argv())
def test_poly_exits_cleanly(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    assert (code == 0) == (err == "") == (out != ""), (argv, err)


@st.composite
def corpus_and_range(draw):
    clean = draw(st.booleans())
    names = draw(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=2, unique=True))
    lines = [f"{name}: {draw(source(clean))}" for name in names]
    keys = ["alexander", "homfly_reduced", "homfly_middle", "sln_2_reduced", "sln_3_unreduced"]
    values = ["1", "0", "t - 1 + t^-1", "a^2 + z", "t^(1/2)"]
    ranges = ["1..2", "2", "1"]
    if not clean:
        names += ["z"]
        keys += ["sln_2_middle", "jones", "sln_300_reduced"]
        values += ["q^", "1/0", ""]
        ranges += ["0..1", "2..1", "x"]
    for _ in range(draw(st.integers(0, 3))):
        name, key, value = (draw(st.sampled_from(x)) for x in (names, keys, values))
        lines.append(f"# expect {name} {key}: {value}")
    if not clean and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n", draw(st.sampled_from(ranges))


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "corpus.txt"


@settings(max_examples=40, deadline=None)
@given(corpus_and_range())
def test_verify_exits_cleanly(corpus_path, case):
    text, n_range = case
    corpus_path.write_text(text, encoding="utf-8")
    code, out, err = _run(["verify", "--corpus", str(corpus_path), "--n-range", n_range])
    assert code in (0, 1, 2, 3), (case, code, err)
    assert "Traceback" not in err
    # exit 1 only for a failed check, and a failed check is always printed
    assert (code == 1) == ("\nFAIL " in out), (case, out)
    assert (code in (0, 1)) == (err == ""), (case, err)
