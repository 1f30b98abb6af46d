import json
import random
import time
from fractions import Fraction

import pytest

from rootchi.cyclo import eval_at_root, root
from rootchi.frcomplex import chi_of_dims, unknot_hfkn
from rootchi.gradings import (TableError, chi_bigraded, chi_trigraded,
                              collapse_to_frac, eval_exponent, hfk_shift_spec,
                              homfly_grading_dict, make_table, table_from_json,
                              table_to_json)
from rootchi.laurent import mono, one, parse_poly, substitute, var
from rootchi.synth import random_bigraded_table, random_trigraded_table

F = Fraction
t, a, q = var("t"), var("a"), var("q")


def test_chi_bigraded_examples():
    unknot = make_table(("gr_T", "gr_M"), (True, False), {(0, 0): 1})
    assert chi_bigraded(unknot, "gr_M", "gr_T", out_var="t") == one()
    tref = make_table(("gr_T", "gr_M"), (True, False),
                      {(1, 0): 1, (0, -1): 1, (-1, -2): 1})
    assert chi_bigraded(tref, "gr_M", "gr_T", out_var="t") == t - 1 + t ** -1
    empty = make_table(("x", "y"), (False, False), {})
    assert chi_bigraded(empty, "y", "x").is_zero()


def test_chi_trigraded_examples():
    single = make_table(("i", "j", "k"), (False, False, False), {(0, 0, 0): 1})
    assert chi_trigraded(single) == one()
    with pytest.raises(TableError):
        chi_trigraded(make_table(("i", "j", "k"), (False,) * 3, {(0, 0, 1): 1}))
    # generic sign-slot mode
    tab = make_table(("I", "J", "K"), (False, False, False), {(1, 2, 1): 1})
    assert chi_trigraded(tab, sign_rule="K") == -parse_poly("u*v^2")


def test_homfly_grading_dict_examples():
    tab = make_table(("i", "j", "k"), (False,) * 3, {(2, 0, 0): 1})
    tm, qh = homfly_grading_dict(tab, 2)
    assert tm.as_dict() == {(2, 4): 1}      # gr_T = 1, gr_M = 2 (doubled)
    assert qh.as_dict() == {(4, 0): 1}      # gr_Qn = 2, gr_H = 0
    tab2 = make_table(("i", "j", "k"), (False,) * 3, {(0, 2, 2): 1})
    tm2, qh2 = homfly_grading_dict(tab2, 2)
    assert tm2.as_dict() == {(0, 4): 1}     # gr_T = 0, gr_M = 2
    assert qh2.as_dict() == {(8, 0): 1}     # gr_Q2 = 4, gr_H = 0


def test_homfly_grading_dict_preserves_dimension():
    rng = random.Random(3)
    for _ in range(30):
        tab = random_trigraded_table(rng)
        tm, qh = homfly_grading_dict(tab, rng.randint(1, 6))
        assert tm.total_dim() == tab.total_dim()
        assert qh.total_dim() == tab.total_dim()


def test_collapse_examples():
    unknot = make_table(("gr_T", "gr_M"), (True, False), {(0, 0): 1})
    for n in (1, 2, 5):
        assert collapse_to_frac(unknot, n, "hfk") == {0: 1}
    for n in (1, 2, 3, 6):
        ladder = make_table(("gr_T", "gr_M"), (True, False),
                            {(F(-1, 2) - k, -2 * k): 1 for k in range(n)})
        expect = {u: 1 for u in unknot_hfkn(n).degrees}
        assert collapse_to_frac(ladder, n, "hfk") == expect
    s = make_table(("gr_Qn", "gr_H"), (False, False), {(1, 0): 1})
    col = collapse_to_frac(s, 2, "sln")
    assert col == {1: 1}
    assert chi_of_dims(2, col) == root(2, 1)


def test_collapse_primed_is_negated():
    tab = make_table(("gr_T", "gr_M"), (True, False), {(F(3, 2), 2): 1, (0, -1): 2})
    for n in (2, 3):
        plain = collapse_to_frac(tab, n, "hfk")
        primed = collapse_to_frac(tab, n, "hfk_primed")
        assert primed == {-u: d for u, d in plain.items()}


def test_shift_spec_examples():
    assert hfk_shift_spec("reduced", 1).alexander_shift == 0
    spec = hfk_shift_spec("reduced", 2, 2)
    assert spec.frac_shift_units == -1  # a downward half step
    assert chi_of_dims(2, {spec.frac_shift_units: 1}) == root(2, -1)
    minus = hfk_shift_spec("minus", 1)
    assert minus.alexander_shift == F(1, 2) and minus.maslov_shift == 1
    assert hfk_shift_spec("unreduced", 3).alexander_shift == 1
    with pytest.raises(TableError):
        hfk_shift_spec("reduced", 0)


def test_shift_multiplies_chi():
    rng = random.Random(5)
    for _ in range(20):
        tab = random_bigraded_table(rng)
        n = rng.randint(1, 6)
        s = rng.randint(-3, 3)
        plain = collapse_to_frac(tab, n, "hfk")
        shifted = collapse_to_frac(tab, n, "hfk", extra_shift_units=s)
        assert chi_of_dims(n, shifted) == root(n, s) * chi_of_dims(n, plain)


def test_hat_product_identity():
    # (t^(-1/2) - t^(1/2))^(l-1) = (-1)^(l-1) t^((l-1)/2) (1 - t^(-1))^(l-1)
    s_neg = mono(1, t=F(-1, 2)) - mono(1, t=F(1, 2))
    for ell in range(1, 7):
        lhs = s_neg ** (ell - 1)
        rhs = (-1) ** (ell - 1) * mono(1, t=F(ell - 1, 2)) * \
            (one() - mono(1, t=-1)) ** (ell - 1)
        assert lhs == rhs, ell


def test_collapse_matches_root_evaluation():
    # evaluating chi_t at t^(1/2) = -e^(-pi*i/n) equals the collapsed chi
    rng = random.Random(9)
    for _ in range(40):
        tab = random_bigraded_table(rng)
        n = rng.randint(1, 8)
        chi_t = chi_bigraded(tab, "gr_M", "gr_T", out_var="t")
        lhs = eval_at_root(chi_t, n, 2 * n - 2)
        rhs = chi_of_dims(n, collapse_to_frac(tab, n, "hfk"))
        assert lhs == rhs
        assert eval_exponent("hfk", n) == 2 * n - 2
        # the primed collapse at its own point, t^(1/2) = -e^(pi*i/n)
        primed = eval_at_root(chi_t, n, eval_exponent("hfk_primed", n))
        assert primed == chi_of_dims(n, collapse_to_frac(tab, n, "hfk_primed"))
    with pytest.raises(TableError):
        eval_exponent("sln", 3)


def test_dictionary_intertwines_chi():
    # chi_t of the (gr_T, gr_M) table equals the trigraded chi at a = -1,
    # q = -t^(1/2)
    rng = random.Random(13)
    for _ in range(40):
        tab = random_trigraded_table(rng)
        tm, _ = homfly_grading_dict(tab, rng.randint(1, 6))
        lhs = chi_bigraded(tm, "gr_M", "gr_T", out_var="t")
        tri = chi_trigraded(tab)
        sub = substitute(tri, "a", -1 * one())
        sub = substitute(sub, "q", mono(-1, t=F(1, 2)))
        assert lhs == sub


def test_table_validation():
    with pytest.raises(TableError):
        make_table(("a", "b"), (False, False), {(F(1, 2), 0): 1})
    with pytest.raises(TableError):
        make_table(("a", "b"), (True, False), {(0, 0): 0})
    with pytest.raises(TableError):
        make_table(("a",), (True,), {(0,): 1})


def test_bool_dimension_is_refused():
    with pytest.raises(TableError):
        make_table(("a", "b"), (False, False), {(0, 0): True})


def test_bool_dimension_in_json_is_refused():
    text = json.dumps({"labels": ["a", "b"], "half": [False, False],
                       "entries": [{"deg": [0, 0], "dim": True}]})
    with pytest.raises(TableError):
        table_from_json(text)


def test_bool_degree_is_refused():
    with pytest.raises(TableError):
        make_table(("a", "b"), (False, False), {(True, False): 1})


@pytest.mark.parametrize("degree", [0.5, 1.0, "2", "1/2"])
def test_float_or_string_degree_is_refused(degree):
    with pytest.raises(TableError):
        make_table(("a", "b"), (True, False), {(degree, 0): 1})
    with pytest.raises(TableError):
        make_table(("a", "b"), (True, False), [((0, degree), 1)])
    assert make_table(("a", "b"), (True, False), {(F(1, 2), 2): 1}).entries == (((1, 4), 1),)


def test_bool_degree_in_json_is_refused():
    text = json.dumps({"labels": ["a", "b"], "half": [False, False],
                       "entries": [{"deg": [True, 0], "dim": 2}]})
    with pytest.raises(TableError):
        table_from_json(text)


def test_table_json_round_trip():
    tab = make_table(("gr_T", "gr_M"), (True, False), {(F(1, 2), -1): 2, (0, 0): 1})
    assert table_from_json(table_to_json(tab)) == tab


@pytest.mark.parametrize("degree", ["9" * 5000, '"x"', '"1/0"'],
                         ids=["5000 digits", "not a number", "zero denominator"])
def test_unreadable_degree_in_json_is_a_table_error(degree):
    text = json.dumps({"labels": ["a", "b"], "half": [False, False],
                       "entries": [{"deg": ["<degree>", 0], "dim": 1}]})
    with pytest.raises(TableError):
        table_from_json(text.replace('"<degree>"', degree))


@pytest.mark.parametrize("degree", ["1e-100000", "1e-10000000"])
def test_degree_exponent_beyond_the_bound_is_refused_at_once(degree):
    text = json.dumps({"labels": ["a", "b"], "half": [False, False],
                       "entries": [{"deg": [degree, 0], "dim": 1}]})
    t0 = time.perf_counter()
    with pytest.raises(TableError, match="exceeds 400"):
        table_from_json(text)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("degree", [F(1, 10 ** 5000), F(2 * 10 ** 5000 + 1, 2)],
                         ids=["not a half-integer", "half in an integral slot"])
def test_degree_too_long_to_print_is_a_table_error(degree):
    with pytest.raises(TableError, match="too long to print"):
        make_table(("a", "b"), (False, False), {(degree, 0): 1})
