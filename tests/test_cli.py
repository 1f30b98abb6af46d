import io
import json
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from unittest import mock

import pytest

from rootchi.cli import main
from rootchi.frcomplex import (MAX_FILTRATION_WIDTH, MAX_N, complex_from_json,
                               complex_to_json, unknot_hfkn)
from rootchi.linkdiag import MAX_STRANDS
from rootchi import verify as verify_mod
from rootchi.skein import ResourceBoundError
from test_verify_golden import GOLDEN, _short


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_poly_alexander(capsys):
    code, out, _ = run_cli(["poly", "BR[2; 1 1 1]", "--invariant", "alexander"], capsys)
    assert code == 0
    assert out.strip() == "t - 1 + t^-1"


def test_poly_sln_unknot(capsys):
    code, out, _ = run_cli(["poly", "unknot", "--invariant", "sln", "--n", "4",
                            "--variant", "unreduced"], capsys)
    assert code == 0
    assert out.strip() == "q^3 + q + q^-1 + q^-3"


def test_poly_invalid_pd(capsys):
    code, _, err = run_cli(["poly", "PD[X[1,4,2,5]]"], capsys)
    assert code == 2
    assert "error" in err


def test_poly_pd_label_of_5000_digits_is_a_parse_error(capsys):
    code, out, err = run_cli(["poly", f"PD[X[{'1' * 5000},2,3,4]]"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "digits" in err


def test_poly_resource_bound(capsys, monkeypatch):
    monkeypatch.setenv("ROOTCHI_MAX_CROSSINGS", "1")
    code, _, err = run_cli(["poly", "BR[2; 1 1 1]"], capsys)
    assert code == 3


@pytest.mark.parametrize("link", [f"BR[{MAX_STRANDS + 1}; 1]",
                                  " ".join(["U"] * (MAX_STRANDS + 1)),
                                  pytest.param(f"BR[{'9' * 5000}; 1]", id="BR[5000 nines; 1]")])
def test_poly_strands_and_unknots_above_bound_are_a_resource_bound(capsys, link):
    code, out, err = run_cli(["poly", link], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("resource bound:")


def test_poly_json_format(capsys):
    code, out, _ = run_cli(["poly", "hopf_pos", "--invariant", "homfly",
                            "--variant", "reduced", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["poly"] == "a^-1*z + a^-1*z^-1 - a^-3*z^-1"
    # serialized polynomials round-trip through the parser
    from rootchi.laurent import parse_poly, serialize
    assert serialize(parse_poly(data["poly"])) == data["poly"]


@pytest.mark.parametrize("n", [1, 3])
def test_poly_sln_has_no_middle_variant(capsys, n):
    code, out, err = run_cli(["poly", "unknot", "--invariant", "sln", "--n", str(n),
                              "--variant", "middle"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: sl(n) has only reduced and unreduced variants, not middle\n"


def test_poly_prints_the_golden_values(capsys, monkeypatch):
    """Every bundled link, invariant and variant, with n = 1..6 for sl(n), in
    text and in JSON, against ``tests/data/verify_golden.json``."""
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    # one skein memo for all the calls; it never changes a value
    memo, homfly = {}, verify_mod.homfly_unreduced
    monkeypatch.setattr(verify_mod, "homfly_unreduced",
                        lambda d, **_: homfly(d, memo=memo))
    flags = ([("homfly", v, 2, f"homfly_{v}") for v in ("unreduced", "reduced", "middle")]
             + [("alexander", v, 2, "alexander") for v in ("unreduced", "reduced", "middle")]
             + [("sln", v, n, f"sln{n}_{v}") for n in range(1, 7)
                for v in ("reduced", "unreduced")])
    for name, fields in want.items():
        for invariant, variant, n, field in flags:
            args = ["poly", name, "--invariant", invariant, "--variant", variant,
                    "--n", str(n)]
            code, out, err = run_cli(args, capsys)
            text = out.removesuffix("\n")
            assert (code, err, _short(text)) == (0, "", fields[field]), args
            code, out, err = run_cli(args + ["--format", "json"], capsys)
            assert (code, err) == (0, ""), args
            assert json.loads(out) == {"link": name, "invariant": invariant,
                                       "variant": variant, "n": n, "poly": text}, args


def test_verify_bundled_subset(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("tref: BR[2; 1 1 1]\n# expect tref alexander: t - 1 + t^-1\n")
    report = tmp_path / "r.json"
    code, out, _ = run_cli(["verify", "--corpus", str(corpus), "--n-range", "1..3",
                            "--report", str(report)], capsys)
    assert code == 0
    data = json.loads(report.read_text())
    assert {r["n"] for r in data} == {0, 1, 2, 3}
    assert all(c["status"] == "pass" for r in data for c in r["checks"])


def test_verify_corrupted_expectation_fails(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("tref: BR[2; 1 1 1]\n# expect tref alexander: t - 2 + t^-1\n")
    code, out, _ = run_cli(["verify", "--corpus", str(corpus), "--n-range", "2..2"], capsys)
    assert code == 1
    assert "expected_alexander" in out


def test_verify_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("# nothing here\n")
    code, out, _ = run_cli(["verify", "--corpus", str(corpus)], capsys)
    assert code == 0


def test_verify_missing_corpus(capsys):
    code, _, err = run_cli(["verify", "--corpus", "/nonexistent/c.txt"], capsys)
    assert code == 4


def test_verify_jobs_output_matches_serial(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a: BR[2; 1 1]\nb: BR[2; -1 -1 -1]\n")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, _, _ = run_cli(["verify", "--corpus", str(corpus), "--n-range", "1..2",
                           "--report", str(r1)], capsys)
    code2, _, _ = run_cli(["verify", "--corpus", str(corpus), "--n-range", "1..2",
                           "--report", str(r2), "--jobs", "2"], capsys)
    assert code1 == code2 == 0
    d1 = json.loads(r1.read_text())
    d2 = json.loads(r2.read_text())
    strip = lambda rs: [{k: v for k, v in r.items() if k != "ms"} for r in rs]
    assert strip(d1) == strip(d2)


def _stand_in_pool(error=None, seen=None):
    """A stand-in for ProcessPoolExecutor: its map raises ``error``, or runs
    serially when there is none; each pool's max_workers goes into ``seen``."""
    class StandInPool:
        def __init__(self, max_workers):
            if seen is not None:
                seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            if error is not None:
                raise error
            return map(fn, items)

    return StandInPool


def test_verify_jobs_broken_pool_warns_and_runs_serially(tmp_path, capsys, monkeypatch):
    import rootchi.cli as cli_mod

    corpus = tmp_path / "c.txt"
    corpus.write_text("a: BR[2; 1 1]\nb: BR[2; -1 -1 -1]\n")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "--corpus", str(corpus), "--n-range", "1..2", "--report"]
    code1, out1, err1 = run_cli(args + [str(r1)], capsys)
    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor",
                        _stand_in_pool(BrokenProcessPool("a worker died")))
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 2)  # the pool needs 2 cores
    code2, out2, err2 = run_cli(args + [str(r2), "--jobs", "2"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2 and err1 == ""
    assert "warning" in err2 and "BrokenProcessPool" in err2
    strip = lambda rs: [{k: v for k, v in r.items() if k != "ms"} for r in rs]
    assert strip(json.loads(r1.read_text())) == strip(json.loads(r2.read_text()))


def test_verify_jobs_resource_bound_is_not_a_pool_failure(tmp_path, capsys, monkeypatch):
    import rootchi.cli as cli_mod

    corpus = tmp_path / "c.txt"
    corpus.write_text("a: BR[2; 1 1]\nb: BR[2; -1 -1 -1]\n")
    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor",
                        _stand_in_pool(ResourceBoundError("20 crossings exceeds the bound 14")))
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 2)  # the pool needs 2 cores
    code, _, err = run_cli(["verify", "--corpus", str(corpus), "--jobs", "2"], capsys)
    assert code == 3
    assert "resource bound" in err and "warning" not in err


@pytest.mark.parametrize("jobs, cpus, workers", [
    (100000, 64, 2),   # never more workers than links
    (100000, 1, None),  # one core: serial, no pool
    (2, 64, 2),
    (3, 2, 2),         # never more workers than cores
])
def test_verify_jobs_pool_is_capped(tmp_path, capsys, jobs, cpus, workers):
    seen = []
    corpus = tmp_path / "c.txt"
    corpus.write_text("a: BR[2; 1 1]\nb: BR[2; -1 -1 -1]\n")
    args = ["verify", "--corpus", str(corpus), "--n-range", "1..2"]
    _, serial, _ = run_cli(args, capsys)
    with mock.patch("rootchi.cli.ProcessPoolExecutor", _stand_in_pool(seen=seen)), \
            mock.patch("rootchi.cli.os.cpu_count", return_value=cpus):
        code, out, _ = run_cli(args + ["--jobs", str(jobs)], capsys)
    assert code == 0 and out == serial
    assert seen == ([] if workers is None else [workers])


@pytest.mark.parametrize("n, code", [(MAX_N, 0), (MAX_N + 1, 3)])
def test_poly_sln_n_bound(capsys, n, code):
    got, out, err = run_cli(["poly", "BR[2; 1 1 1]", "--invariant", "sln", "--n", str(n)],
                            capsys)
    assert got == code
    assert (out == "") == (code == 3)
    assert err.startswith("resource bound:") == (code == 3)


@pytest.mark.parametrize("n, code", [(MAX_N, 0), (MAX_N + 1, 3)])
def test_verify_n_range_bound(tmp_path, capsys, n, code):
    corpus = tmp_path / "c.txt"
    corpus.write_text("tref: BR[2; 1 1 1]\n")
    got, out, err = run_cli(["verify", "--corpus", str(corpus), "--n-range", f"{n}..{n}"],
                            capsys)
    assert got == code
    assert err.startswith("resource bound:") == (code == 3)


@pytest.mark.parametrize("key, code", [
    ("nonsense", 2), ("sln_x_reduced", 2), ("sln_2", 2), ("sln_2_reduced_x", 2),
    ("sln_0_reduced", 2), (f"sln_{'9' * 5000}_reduced", 2),
    (f"sln_{MAX_N + 1}_unreduced", 3), ("sln_200000_reduced", 3),
    (f"sln_{MAX_N}_reduced", 1),  # a valid key: only its real check fails
])
def test_verify_expect_keys_are_validated_before_any_work(tmp_path, capsys, key, code):
    corpus = tmp_path / "c.txt"
    corpus.write_text(f"tref: BR[2; 1 1 1]\n# expect tref {key}: 1\n")
    got, out, err = run_cli(["verify", "--corpus", str(corpus), "--n-range", "1..2"],
                            capsys)
    assert got == code
    if code == 1:
        assert f"FAIL tref (n=0) expected_{key}" in out
    else:
        assert out == ""
        assert err.startswith("resource bound:" if code == 3 else "error: ")


@pytest.mark.parametrize("comment, code", [
    ("# expect tref alexander t - 1 + t^-1", 2),  # no colon: a malformed directive
    ("#expect tref", 2),
    ("#   # expect <name> <invariant>: <polynomial>", 0),  # the format line
    ("# expected values are in the literature", 0),
])
def test_verify_malformed_expect_directive_is_a_parse_error(tmp_path, capsys,
                                                            comment, code):
    corpus = tmp_path / "c.txt"
    corpus.write_text(f"tref: BR[2; 1 1 1]\n{comment}\n")
    got, out, err = run_cli(["verify", "--corpus", str(corpus), "--n-range", "1..2"],
                            capsys)
    assert got == code
    if code == 2:
        assert out == ""
        assert err.startswith("error: line 2: malformed expect directive")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_overlong_number_in_an_expect_value_is_a_parse_error(tmp_path, capsys, jobs):
    # the product's two factors each pass int(), but str() cannot print the coefficient
    corpus = tmp_path / "c.txt"
    for value in [f"t^{'9' * 5000}", f"{'9' * 4000} {'9' * 4000}*t"]:
        corpus.write_text("a: BR[2; 1 1]\n"
                          f"# expect a alexander: {value}\n"
                          "b: BR[2; -1 -1 -1]\n")
        code, out, err = run_cli(["verify", "--corpus", str(corpus), "--n-range", "1..2",
                                  "--jobs", jobs], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "digit limit" in err


def test_verify_report_to_a_directory_is_an_io_error(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("tref: BR[2; 1 1 1]\n")
    code, _, err = run_cli(["verify", "--corpus", str(corpus), "--n-range", "1..2",
                            "--report", str(tmp_path)], capsys)
    assert code == 4
    assert err.startswith("cannot write report")


def test_verify_corpus_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(b"tref: BR[2; 1 1 1]\n# caf\xff\n")
    code, out, err = run_cli(["verify", "--corpus", str(corpus)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "UTF-8" in err


def test_complex_chi_single_generator(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"n": 1, "generators": [{"name": "x", "deg_times_n": 0}],
                             "differential": [["0"]]}))
    code, out, _ = run_cli(["complex", "chi", str(f)], capsys)
    assert code == 0
    assert out.strip() == "1"


def test_complex_invalid_reports_kind(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"n": 2,
                             "generators": [{"name": "x", "deg_times_n": 0},
                                            {"name": "y", "deg_times_n": 1}],
                             "differential": [["0", "0"], ["1", "0"]]}))
    code, _, err = run_cli(["complex", "chi", str(f)], capsys)
    assert code == 2
    assert "[degree]" in err


@pytest.mark.parametrize("field, value", [
    ("deg_times_n", 1.5),   # was truncated to 1 and accepted
    ("filt", 0.5),          # was accepted as a filtration level
    ("deg_times_n", True),  # was accepted as degree 1
    ("n", "2"),             # was a TypeError traceback
])
def test_complex_non_integer_grading_is_a_shape_error(tmp_path, capsys, field, value):
    data = {"n": 2, "generators": [{"name": "x", "deg_times_n": 1, "filt": 0}],
            "differential": [["0"]]}
    if field == "n":
        data["n"] = value
    else:
        data["generators"][0][field] = value
    f = tmp_path / "c.json"
    f.write_text(json.dumps(data))
    code, out, err = run_cli(["complex", "hom", str(f)], capsys)
    assert code == 2
    assert out == ""
    assert "error [shape]" in err


def test_complex_zero_denominator_is_a_shape_error(tmp_path, capsys):
    f = tmp_path / "z.json"
    f.write_text(json.dumps({"n": 1, "generators": [{"name": "x", "deg_times_n": 0}],
                             "differential": [["1/0"]]}))
    code, out, err = run_cli(["complex", "hom", str(f)], capsys)
    assert code == 2
    assert out == ""
    assert "error [shape]" in err and "Traceback" not in err


def test_complex_n_above_bound_is_a_resource_bound(tmp_path, capsys):
    f = tmp_path / "n.json"
    f.write_text(json.dumps({"n": MAX_N + 1,
                             "generators": [{"name": "x", "deg_times_n": 0}],
                             "differential": [["0"]]}))
    code, out, err = run_cli(["complex", "chi", str(f)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("resource bound:")


def test_unknot_hfkn_n_above_bound_is_a_resource_bound(capsys):
    code, out, err = run_cli(["complex", "unknot-hfkn", "--n", str(MAX_N + 1)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("resource bound:")


def _two_generator_json(entry) -> str:
    return json.dumps({"n": 1, "generators": [{"name": "x", "deg_times_n": 0},
                                              {"name": "y", "deg_times_n": 1}],
                       "differential": [[0, 0], [entry, 0]]})


def test_complex_huge_exponent_entry_is_a_shape_error(tmp_path, capsys):
    f = tmp_path / "e.json"
    f.write_text(_two_generator_json("1e-1000000"))
    code, out, err = run_cli(["complex", "hom", str(f)], capsys)
    assert code == 2
    assert out == ""
    assert "error [shape]" in err and "exponent" in err


@pytest.mark.parametrize("entry, value", [
    (1e-05, Fraction(1, 100000)),
    (5e-324, Fraction(5, 10 ** 324)),
    (1e308, Fraction(10 ** 308)),
])
def test_complex_float_entries_keep_their_decimal_value(entry, value):
    assert complex_from_json(_two_generator_json(entry)).diff[1][0] == value


def _filtered_json(top: int) -> str:
    return json.dumps({"n": 1, "generators": [{"name": "x", "deg_times_n": 0, "filt": 0},
                                              {"name": "y", "deg_times_n": 1, "filt": top}],
                       "differential": [[0, 0], [1, 0]]})


def test_complex_filtration_width_bound(tmp_path, capsys):
    assert complex_from_json(_filtered_json(MAX_FILTRATION_WIDTH)).filtration[1] \
        == MAX_FILTRATION_WIDTH
    with pytest.raises(ResourceBoundError):
        complex_from_json(_filtered_json(MAX_FILTRATION_WIDTH + 1))
    f = tmp_path / "w.json"
    f.write_text(_filtered_json(10 ** 9))
    code, out, err = run_cli(["complex", "ss", str(f)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("resource bound:")


def test_complex_ss_two_level(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text(json.dumps({
        "n": 2,
        "generators": [{"name": "x", "deg_times_n": 0, "filt": 0},
                       {"name": "y", "deg_times_n": 2, "filt": 1}],
        "differential": [["0", "0"], ["1", "0"]]}))
    code, out, _ = run_cli(["complex", "ss", str(f)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "E_0: (p=0, deg=0): 1, (p=1, deg=1): 1"
    assert lines[2] == "E_2: 0"
    assert "stabilizes at E_2" in lines[3]


def test_complex_hom(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text(complex_to_json(unknot_hfkn(2)))
    code, out, _ = run_cli(["complex", "hom", str(f)], capsys)
    assert code == 0
    assert out.splitlines() == ["deg -1/2: 1", "deg 1/2: 1"]


def test_complex_hom_of_an_acyclic_complex(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text(_two_generator_json(1))
    code, out, _ = run_cli(["complex", "hom", str(f)], capsys)
    assert code == 0
    assert out == "homology is zero\n"


@pytest.mark.parametrize("action", ["hom", "chi", "ss"])
def test_complex_non_utf8_file_is_a_shape_error(tmp_path, capsys, action):
    f = tmp_path / "bad.json"
    f.write_bytes(b'{"n": 2, \xff}')
    code, out, err = run_cli(["complex", action, str(f)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error [shape]: ") and "UTF-8" in err


def test_complex_non_utf8_stdin_is_a_shape_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b'{"n": 2, \xff}'),
                                                       encoding="utf-8"))
    code, out, err = run_cli(["complex", "hom", "-"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error [shape]: ") and "UTF-8" in err


@pytest.mark.slow
def test_unknot_hfkn_pipe_subprocess():
    gen = subprocess.run([sys.executable, "-m", "rootchi", "complex",
                          "unknot-hfkn", "--n", "2"],
                         capture_output=True, text=True, check=True)
    chi = subprocess.run([sys.executable, "-m", "rootchi", "complex", "chi", "-"],
                         input=gen.stdout, capture_output=True, text=True, check=True)
    assert chi.stdout.strip() == "0"


def run_cli_usage_error(args, capsys):
    """Run a command argparse must refuse; return its exit code and stderr."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    _, err = capsys.readouterr()
    return exc.value.code, err


@pytest.mark.parametrize("text", ["a..3", "0..1", "3..1"])
def test_verify_bad_n_range_is_a_usage_error(tmp_path, capsys, text):
    corpus = tmp_path / "c.txt"
    corpus.write_text("tref: BR[2; 1 1 1]\n")
    code, err = run_cli_usage_error(["verify", "--corpus", str(corpus),
                                     "--n-range", text], capsys)
    assert code == 2
    assert "--n-range" in err and repr(text) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_bad_jobs_is_a_usage_error(capsys, jobs):
    code, err = run_cli_usage_error(["verify", "--n-range", "1..1", "--jobs", jobs],
                                    capsys)
    assert code == 2
    assert "--jobs" in err and repr(jobs) in err


def test_poly_sln_n_zero_is_a_usage_error(capsys):
    code, err = run_cli_usage_error(["poly", "trefoil", "--invariant", "sln",
                                     "--n", "0"], capsys)
    assert code == 2
    assert "--n" in err


@pytest.mark.parametrize("command", [["poly", "BR[2; 1 1 1]"], ["verify", "--n-range", "1..1"]])
@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_crossing_bound_setting_is_a_usage_error(capsys, monkeypatch, command, value):
    monkeypatch.setenv("ROOTCHI_MAX_CROSSINGS", value)
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert "ROOTCHI_MAX_CROSSINGS" in err and repr(value) in err
    assert out == ""
