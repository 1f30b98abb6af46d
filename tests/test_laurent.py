from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootchi.laurent import (ExactDivisionError, LaurentPoly, PolyError, const,
                             PolyParseError, RationalPair, VariableMismatchError, arith,
                             exact_div, mono, one, parse_poly, serialize,
                             substitute, var, zero)

a, q, t, z = var("a"), var("q"), var("t"), var("z")
half_t = mono(1, t=Fraction(1, 2))


def test_arith_examples():
    assert (t - 1) + (1 + t ** -1) == t + t ** -1
    assert (q - q ** -1) * (q + q ** -1) == q ** 2 - q ** -2
    assert ((a - a ** -1) * zero()).is_zero()


def test_arith_entry_point_requires_matching_vars():
    assert arith(t, one(), "add") == t + 1
    with pytest.raises(VariableMismatchError):
        arith(a, q, "add")
    with pytest.raises(Exception):
        arith(a, a, "div")


def test_substitute_examples():
    pbar = -a ** 4 + a ** 2 * q ** 2 + a ** 2 * q ** -2
    assert substitute(pbar, "a", q ** 2) == -q ** 8 + q ** 6 + q ** 2
    # monomial sign flips multiply coefficients by (-1)^(i+j)
    m = a ** 3 * q ** 2
    flipped = substitute(substitute(m, "a", -1 * a), "q", -1 * q)
    assert flipped == -m
    tre = t - 1 + t ** -1
    assert substitute(tre, "t", t ** -1) == tre


def test_substitute_identity_and_absent_var():
    p = a ** 2 - 3 * a + 1
    assert substitute(p, "a", a) == p
    assert substitute(p, "q", q ** 5) == p


def test_substitute_binomial_requires_nonnegative_powers():
    p = z ** -1
    with pytest.raises(Exception):
        substitute(p, "z", q - q ** -1)
    assert substitute(z ** 2 + 2, "z", q - q ** -1) == q ** 2 + q ** -2


@pytest.mark.parametrize("image, p, message", [
    (2 * q, half_t, "cannot raise coefficient 2 to the half-integer power 1/2"),
    (mono(1, q=Fraction(1, 2)), half_t,
     "substitution would create quarter-integer exponents"),
    (q + 1, t ** -1 + 1, "negative powers of t cannot take a non-monomial image; "
                         "clear denominators by exact division first"),
    (q + 1, half_t + 1, "half-integer exponents cannot take a non-monomial image"),
])
def test_substitute_errors(image, p, message):
    with pytest.raises(PolyError) as info:
        substitute(p, "t", image)
    assert type(info.value) is PolyError
    assert str(info.value) == message


def test_exact_div_examples():
    d = a - a ** -1
    assert exact_div(d * z ** -1, d) == z ** -1
    assert exact_div(q ** 2 - q ** -2, q - q ** -1) == q + q ** -1
    with pytest.raises(ExactDivisionError):
        exact_div(q ** 3 + 1, q - q ** -1)


def test_exact_div_stops_at_the_quotient_floor():
    # the quotient's t-exponents lie in [-5 - 0, 0 - 1]; 1 + t^-5 = t^-5 (1 + t)(...)
    assert exact_div(1 + t ** -5, 1 + t) == t ** -1 - t ** -2 + t ** -3 - t ** -4 + t ** -5
    with pytest.raises(ExactDivisionError):  # t = -1 is no root of 1 + t^-4
        exact_div(1 + t ** -4, 1 + t)


def test_exact_div_quantum_integer_200():
    want = LaurentPoly.make(("q",), {(2 * (199 - 2 * k),): 1 for k in range(200)})
    assert len(want.terms) == 200
    assert exact_div(q ** 200 - q ** -200, q - q ** -1) == want


@pytest.mark.parametrize("bad", [0.1, 0.5, True, False, "1/2", None])
def test_mono_refuses_inexact_input(bad):
    with pytest.raises(PolyError):
        mono(bad, t=1)
    with pytest.raises(PolyError):
        mono(1, t=bad)
    assert mono(Fraction(1, 10), t=Fraction(1, 2)) == parse_poly("1/10*t^(1/2)")
    assert mono(1, t=1) == t


@pytest.mark.parametrize("bad", [0.1, 0.5, True, False, 1j])
def test_constants_refuse_inexact_input(bad):
    with pytest.raises(PolyError):
        const(bad)
    for op in (lambda: t + bad, lambda: bad + t, lambda: t - bad, lambda: bad - t,
               lambda: t * bad, lambda: bad * t):
        with pytest.raises(PolyError):
            op()
    assert const(Fraction(1, 10)) == parse_poly("1/10")
    assert t + 1 == parse_poly("t + 1") and 2 * t == parse_poly("2*t")


def test_arithmetic_with_a_non_number_is_a_type_error():
    with pytest.raises(TypeError):
        t + "1"
    with pytest.raises(TypeError):
        None * t


def test_serialize_parse_examples():
    assert serialize(t - 1 + t ** -1) == "t - 1 + t^-1"
    hopf = mono(1, t=Fraction(1, 2)) - mono(1, t=Fraction(-1, 2))
    assert serialize(hopf) == "t^(1/2) - t^(-1/2)"
    assert parse_poly("t^(1/2) - t^(-1/2)") == hopf
    assert hopf.terms[0][0] == (1,) and hopf.terms[1][0] == (-1,)
    assert parse_poly("0").is_zero()
    assert serialize(zero()) == "0"
    with pytest.raises(PolyParseError):
        parse_poly("t^^2")
    with pytest.raises(PolyParseError):
        parse_poly("+")


def test_parse_coefficients_and_multivar():
    p = parse_poly("3/2*a^2*q^-2 - 1/2")
    assert p == Fraction(3, 2) * a ** 2 * q ** -2 - Fraction(1, 2)
    assert parse_poly(serialize(p)) == p


coeffs = st.integers(-5, 5)
exps = st.integers(-4, 4)


def small_poly(names=("a", "q"), last_exps=exps):
    def build(entries):
        total = zero()
        for c, es in entries:
            if c == 0:
                continue
            m = {v: Fraction(e) for v, e in zip(names, es)}
            total = total + mono(c, **m)
        return total
    return st.lists(st.tuples(coeffs, st.tuples(exps, last_exps)), max_size=5).map(build)


@given(small_poly(), small_poly(), small_poly())
@settings(max_examples=60)
def test_ring_axioms(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert p * (r + s) == p * r + p * s
    assert (p * r) * s == p * (r * s)
    assert p * r == r * p


@given(small_poly(), small_poly())
@settings(max_examples=60)
def test_exact_div_inverts_multiplication(p, d):
    if d.is_zero():
        return
    assert exact_div(p * d, d) == p


@given(small_poly())
@settings(max_examples=40)
def test_serialize_round_trip(p):
    if p.is_zero():
        assert parse_poly(serialize(p)).is_zero()
    else:
        assert parse_poly(serialize(p)) == p


@given(small_poly())
@settings(max_examples=40)
def test_parity_lemma_termwise(p):
    flipped = substitute(substitute(p, "a", -1 * a), "q", -1 * q)
    evens = all((sum(e) // 2) % 2 == 0 for e, _ in p.terms)
    assert (flipped == p) == (evens or p.is_zero())


def _reference_substitute(p, name, image):
    """Sum of c * m * image^k over the terms c * m * name^k of p."""
    total = zero()
    for exps, c in p.terms:
        rest = {v: Fraction(e, 2) for v, e in zip(p.vars, exps) if v != name}
        k = dict(zip(p.vars, exps)).get(name, 0) // 2
        total = total + mono(c, **rest) * image ** k
    return total


# nonnegative integer powers of z, so that any image may replace it
@given(small_poly(("a", "z"), st.integers(0, 4)),
       st.sampled_from([q - q ** -1, half_t - half_t ** -1, 2 + t, a + q]))
@settings(max_examples=60)
def test_substitute_non_monomial_matches_reference(p, image):
    assert substitute(p, "z", image) == _reference_substitute(p, "z", image)


def _assert_canonical(p):
    """The module's invariants: sorted, used variables; no zero coefficient;
    strictly descending graded-lex terms."""
    assert list(p.vars) == sorted(set(p.vars))
    for exps, c in p.terms:
        assert len(exps) == len(p.vars)
        assert isinstance(c, Fraction) and c != 0
    for i in range(len(p.vars)):
        assert any(exps[i] != 0 for exps, _ in p.terms)
    keys = [(sum(exps), exps) for exps, _ in p.terms]
    assert all(k1 > k2 for k1, k2 in zip(keys, keys[1:]))


@given(small_poly(), small_poly(("q", "t")), st.integers(0, 3))
@settings(max_examples=60, deadline=None)  # substitute(p * q ** 4, "q", r) can be slow
def test_results_are_canonical(p, r, k):
    results = [p + r, p - r, r - p, p * r, p ** k, r ** k,
               substitute(p, "a", t ** 2 * q ** -1),
               substitute(p * q ** 4, "q", r),
               parse_poly(serialize(p * r))]
    if not r.is_zero():
        results.append(exact_div(p * r, r))
    for result in results:
        _assert_canonical(result)


def test_rational_pair_equality():
    s = mono(1, t=Fraction(1, 2)) - mono(1, t=Fraction(-1, 2))
    assert RationalPair(t - 1 + t ** -1, one()) == t - 1 + t ** -1
    assert RationalPair((t - 1 + t ** -1) * s, s) == t - 1 + t ** -1
    assert RationalPair(s * s, s) == RationalPair(s, one())
    assert RationalPair(one(), s) != RationalPair(one(), -s)


@pytest.mark.parametrize("factor", [0.5, True])
def test_rational_pair_refuses_a_float_or_bool_factor(factor):
    with pytest.raises(PolyError):
        RationalPair(t, one()) * factor


def test_non_numbers_are_a_type_error():
    with pytest.raises(TypeError):
        RationalPair(t, one()) * "x"
    with pytest.raises(TypeError):
        substitute(t, "t", "x")


def test_rational_pair_equals_no_bool():
    assert (RationalPair(one(), one()) == True) is False  # noqa: E712
    assert RationalPair(one(), one()) != True  # noqa: E712
    assert RationalPair(one(), one()) == 1
