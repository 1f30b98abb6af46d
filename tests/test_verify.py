import cmath
import json
import random
import sys
from fractions import Fraction

import pytest

import rootchi.laurent as laurent_mod
import rootchi.skein as skein_mod
import rootchi.verify as verify_mod
from rootchi.corpus import CorpusEntry, bundled_corpus, parse_corpus
from rootchi.cyclo import CycloNum, root
from rootchi.laurent import PolyError, one, substitute, var
from rootchi.linkdiag import SkeinSite, parse_braid_word, parse_link
from rootchi.skein import alexander, homfly_reduced, homfly_unreduced
from rootchi.verify import (CheckResult, LinkValues, reports_to_json, run_link_checks,
                            verify_oracle, verify_polynomial_identities,
                            verify_skein_triple, verify_square, verify_thm_hfk,
                            verify_thm_sln)

a = var("a")
TREFOIL_PD = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"


def test_skein_triple_examples():
    tref = parse_link(TREFOIL_PD)
    assert verify_skein_triple(SkeinSite(tref, 0)).ok
    hopf = parse_link("BR[2; 1 1]")
    assert verify_skein_triple(SkeinSite(hopf, 0)).ok


def test_skein_triple_negative_control():
    tref = parse_link(TREFOIL_PD)
    from rootchi.skein import homfly_unreduced
    corrupted = homfly_unreduced(tref) + a ** 2
    res = verify_skein_triple(SkeinSite(tref, 0), p_plus=corrupted)
    assert not res.ok
    assert res.lhs != res.rhs  # the residual is embedded in the report


def test_polynomial_identities_unknot_and_trefoil():
    for src in ("U", TREFOIL_PD, "U U"):
        checks = verify_polynomial_identities(parse_link(src))
        assert len(checks) == 9
        assert all(c.ok for c in checks), (src, [c.name for c in checks if not c.ok])


def test_polynomial_identities_negative_control():
    tref = parse_link(TREFOIL_PD)
    checks = verify_polynomial_identities(tref, delta=one())
    assert any(not c.ok for c in checks)


def test_thm_sln_values():
    tref = parse_link(TREFOIL_PD)
    checks = verify_thm_sln(tref, 2)
    assert all(c.ok for c in checks)
    assert checks[0].lhs == "-3" and checks[0].rhs == "-3"
    hopf = parse_link("BR[2; 1 1]")
    checks = verify_thm_sln(hopf, 2)
    assert all(c.ok for c in checks)
    from rootchi.cyclo import root
    from rootchi.laurent import parse_poly
    from rootchi.cyclo import eval_at_root
    # both sides are -2i
    assert eval_at_root(parse_poly("q^-1 + q^-5"), 2, 1) == -2 * root(2, 1)
    for n in (1, 5):
        assert all(c.ok for c in verify_thm_sln(parse_link("U"), n))


def test_thm_hfk_values():
    hopf = parse_link("BR[2; 1 1]")
    checks = verify_thm_hfk(hopf, 2)
    assert all(c.ok for c in checks)
    unknot = parse_link("U")
    checks = verify_thm_hfk(unknot, 3)
    assert all(c.ok for c in checks)
    for src in (TREFOIL_PD, "BR[3; 1 -2 1 -2 1]"):
        d = parse_link(src)
        for n in (1, 2, 4):
            assert all(c.ok for c in verify_thm_hfk(d, n)), (src, n)


def test_square_routes_agree():
    tref = parse_link(TREFOIL_PD)
    checks = verify_square(tref, 2)
    assert all(c.ok for c in checks)
    assert checks[0].lhs == "-3"
    unknot = parse_link("U")
    for n in (2, 3, 5):
        checks = verify_square(unknot, n)
        assert all(c.ok for c in checks)
        assert checks[0].lhs == "1"
    for n in (3, 4):
        assert all(c.ok for c in verify_square(tref, n))


def test_oracle_check():
    assert verify_oracle(parse_link(TREFOIL_PD)).ok
    assert verify_oracle(parse_link("BR[3; 1 -2 1 -2 1]")).ok
    assert not verify_oracle(parse_link(TREFOIL_PD), delta=one() + one()).ok


def _corrupt(p, rng):
    """P plus one of its own monomials: the corruption of the mutation controls."""
    exps, _ = p.terms[rng.randrange(len(p.terms))]
    return p + type(p).make(p.vars, {exps: 1})


def test_mutation_negative_controls():
    rng = random.Random(42)
    entries = [e for e in bundled_corpus() if e.diagram().crossings]
    picks = [entries[rng.randrange(len(entries))] for _ in range(20)]
    for entry in picks:
        d = entry.diagram()
        from rootchi.skein import homfly_unreduced
        corrupted = _corrupt(homfly_unreduced(d), rng)
        checks = verify_polynomial_identities(d, homfly=corrupted)
        checks += verify_thm_sln(d, 2, homfly=corrupted)
        assert any(not ch.ok for ch in checks), entry.name


def test_run_link_checks_report_shape():
    entry = CorpusEntry("tref", TREFOIL_PD, {"alexander": "t - 1 + t^-1"})
    reports = run_link_checks("tref", entry.diagram(), [1, 2], expected=entry.expected)
    assert [r.n for r in reports] == [0, 1, 2]
    assert all(r.ok for r in reports)
    data = json.loads(reports_to_json(reports))
    assert data[0]["link"] == "tref" and data[0]["ell"] == 1
    names = {c["name"] for c in data[0]["checks"]}
    assert "expected_alexander" in names
    assert {"name", "status", "lhs", "rhs"} <= set(data[0]["checks"][0])
    assert "ms" in data[0]


def test_run_link_checks_fails_an_unknown_expect_key():
    # parse_corpus refuses such a key; called directly, it is a failing check
    reports = run_link_checks("tref", parse_link(TREFOIL_PD), [], expected={"sln_2": "1"})
    failed = [c for c in reports[0].checks if not c.ok]
    assert [c.name for c in failed] == ["expected_sln_2"]
    assert "unknown expect key" in failed[0].lhs


def test_run_link_checks_computes_each_sln_value_and_evaluation_once(monkeypatch):
    specialized = []
    real_specialize = skein_mod.specialize

    def counting_specialize(p, name, alpha, beta, *signs):
        if name == "q":
            specialized.append((alpha // 2, signs[:1] or (1,)))
        return real_specialize(p, name, alpha, beta, *signs)

    evaluations = []
    real_eval = verify_mod.eval_at_root

    def counting_eval(p, n, k):
        evaluations.append((n, k))
        return real_eval(p, n, k)

    monkeypatch.setattr(skein_mod, "specialize", counting_specialize)
    monkeypatch.setattr(verify_mod, "eval_at_root", counting_eval)
    total = 0
    for entry in bundled_corpus():
        specialized.clear()
        reports = run_link_checks(entry.name, entry.diagram(), range(1, 7),
                                  expected=entry.expected)
        assert all(r.ok for r in reports), entry.name
        # one specialization a -> q^n, z -> q - q^-1 for each n, and route C's
        # one a -> -1, z -> q - q^-1 for the link
        assert sorted(specialized) == [(0, (-1,))] + [(n, (1,)) for n in range(1, 7)], \
            entry.name
        total += len(specialized)
    assert total == 210
    assert len(evaluations) == 750


def test_run_link_checks_divides_p_once_and_never_substitutes(monkeypatch):
    """P is divided by a - a^(-1) once per link; every image of P is taken by
    ``specialize``, never by ``laurent.substitute``."""
    divisor, divided, substituted = a - a ** -1, [], []
    real_div, real_sub = laurent_mod.exact_div, laurent_mod.substitute

    def counting_div(p, d):
        if d == divisor:
            divided.append(p)
        return real_div(p, d)

    def counting_sub(*args):
        substituted.append(args)
        return real_sub(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("rootchi")]:
        for attr, val in list(vars(module).items()):
            if val is real_div or val is real_sub:
                monkeypatch.setattr(module, attr,
                                    counting_div if val is real_div else counting_sub)
    entries = bundled_corpus()
    for entry in entries:
        reports = run_link_checks(entry.name, entry.diagram(), range(1, 4),
                                  expected=entry.expected)
        assert all(r.ok for r in reports), entry.name
    assert len(divided) == len(entries) == 30
    assert substituted == []


def _route_c_by_substitution(d, n):
    """The reduced P with a set to -1 by ``substitute``, then z^m read as
    (e^(pi*i/n) - e^(-pi*i/n))^m, term by term."""
    at_minus_1 = substitute(homfly_reduced(d), "a", Fraction(-1))
    omega = root(n, 1) - root(n, -1)
    value = CycloNum.from_rational(0)
    for exps, coeff in at_minus_1.terms:
        value = value + coeff * omega ** (exps[0] // 2 if exps else 0)
    return value


def test_route_c_matches_the_substitution_route():
    rng = random.Random(2023)
    diagrams = [e.diagram() for e in bundled_corpus()]
    for _ in range(12):  # mixed-sign braids on 3-4 strands, at most 10 crossings
        strands = rng.randint(3, 4)
        word = [rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 10))]
        diagrams.append(parse_braid_word(word, strands))
    for d in diagrams:
        values = LinkValues(d)
        for n in range(1, 13):
            assert values.route_c(n).pretty() == _route_c_by_substitution(d, n).pretty()


def test_shared_values_neither_hide_nor_merge_failures(monkeypatch):
    rng = random.Random(42)
    entries = [e for e in bundled_corpus() if e.diagram().crossings]
    for entry in [entries[rng.randrange(len(entries))] for _ in range(6)]:
        d = entry.diagram()
        corrupted = _corrupt(homfly_unreduced(d), rng)
        # each pick breaks the division by a - a^-1 that Delta starts with
        with pytest.raises(PolyError) as division:
            alexander(d, unreduced=corrupted)
        error = f"error: {division.value}"
        monkeypatch.setattr(verify_mod, "homfly_unreduced",
                            lambda *args, **kwargs: corrupted)
        reports = run_link_checks(entry.name, d, range(1, 7))
        monkeypatch.undo()
        alone = verify_polynomial_identities(d, homfly=corrupted)
        assert reports[0].checks[:len(alone)] == alone, entry.name
        assert reports[0].checks[len(alone)] == CheckResult(
            "alexander_oracle", "fail", error, "")
        for rep in reports[1:]:
            n = rep.n
            alone = (verify_thm_sln(d, n, homfly=corrupted)
                     + verify_thm_hfk(d, n, homfly=corrupted)
                     + (verify_square(d, n, homfly=corrupted) if n >= 2 else []))
            assert rep.checks == alone, (entry.name, n)
            if n >= 2:  # every group that needs Delta reports the error itself
                assert rep.checks == [CheckResult(f"{group}{n}_checks", "fail", error, "")
                                      for group in ("sln", "hfk", "square")]


def test_corpus_parsing_and_expectations():
    entries = parse_corpus("""
# comment
foo: BR[2; 1 1]
# expect foo alexander: t^(1/2) - t^(-1/2)
""")
    assert len(entries) == 1
    assert entries[0].expected == {"alexander": "t^(1/2) - t^(-1/2)"}
    reports = run_link_checks("foo", entries[0].diagram(), [],
                              expected=entries[0].expected)
    assert reports[0].ok


def test_parity_check_counts_wrong_parity_terms():
    z = var("z")
    good = a * z + a ** 2 - z ** -2
    assert verify_mod._parity_check("p", good, want_odd=False) == \
        CheckResult("p", "pass", "0 offending terms", "0 offending terms")
    bad = verify_mod._parity_check("p", good + a * z ** 2, want_odd=False)
    assert bad == CheckResult("p", "fail", "1 offending terms", "0 offending terms")


def test_approx_fields_only_on_cyclotomic_and_rational_sides():
    zeta = root(3, 1) * 2 + Fraction(1, 2)
    assert abs(zeta.to_complex() - (2 * cmath.exp(1j * cmath.pi / 3) + 0.5)) < 1e-12
    rational = CycloNum.from_rational(Fraction(-3, 2), 6)
    rep = verify_mod.VerifyReport("x", 1, 3, [
        verify_mod._check("cyclo", zeta, rational),
        verify_mod._check("poly", a + 1, one()),
        CheckResult("parity", "fail", "1 offending terms", "0 offending terms")])
    fmt = lambda w: f"{w.real:.6g}{w.imag:+.6g}i"
    cyc, poly, parity = json.loads(reports_to_json([rep], approx=True))[0]["checks"]
    assert (cyc["lhs_approx"], cyc["rhs_approx"]) == (fmt(zeta.to_complex()), "-1.5+0i")
    assert "lhs_approx" not in poly and poly["rhs_approx"] == "1+0i"
    assert "lhs_approx" not in parity and "rhs_approx" not in parity
    plain = json.loads(reports_to_json([rep]))[0]["checks"]
    assert not any(k.endswith("_approx") for check in plain for k in check)
