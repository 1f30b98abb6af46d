import random
import sys
from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootchi import cyclo
from rootchi.cyclo import CycloNum, cyclotomic_poly, eval_at_root, root, root_sum
from rootchi.frcomplex import kernel
from rootchi.laurent import PolyError, mono, one, var
from rootchi.skein import quantum_integer

q, t = var("q"), var("t")


def test_root_examples():
    assert root(1, 1) == -1
    assert root(2, 2) == -1          # i^2
    for n in range(1, 9):
        assert root(n, 2 * n) == 1
        assert root(n, n) == -1


def test_symmetric_sums():
    # the unknot degree ladder sums to zero for n >= 2 and to 1 for n = 1
    for n in range(1, 9):
        s = CycloNum.from_rational(0)
        for k in range(n):
            s = s + root(n, 1 - n + 2 * k)
        assert s == (1 if n == 1 else 0), n


def test_inverse_pairs():
    for n in range(1, 8):
        for k in range(0, 2 * n + 3):
            assert root(n, k) * root(n, 2 * n - k) == 1


@pytest.mark.parametrize("bad", [0.1, 0.5, True, False, "1/2", None])
def test_from_rational_refuses_inexact_input(bad):
    with pytest.raises(ValueError):
        CycloNum.from_rational(bad)
    with pytest.raises(ValueError):
        CycloNum.from_rational(bad, 6)
    assert CycloNum.from_rational(Fraction(1, 2), 6).coeffs == (Fraction(1, 2), 0)
    assert CycloNum.from_rational(1) == 1


def test_mixed_order_arithmetic():
    assert root(2, 1) * root(3, 1) == root(6, 5)      # e^(pi i/2) e^(pi i/3)
    assert root(2, 2) == root(5, 5)                   # both are -1
    assert root(3, 0) + root(2, 2) == 0


def test_inverse_and_division():
    w = root(4, 1) - root(4, -1)
    assert w * w.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        CycloNum.from_rational(0).inverse()
    assert (root(5, 3) ** -2) * root(5, 6) == 1


def test_eval_examples():
    tre = t - 1 + t ** -1
    assert eval_at_root(tre, 2, 6) == -3          # t^(1/2) -> -e^(pi i/2)
    assert eval_at_root(q + q ** -1, 2, 1) == 0   # q -> i
    assert eval_at_root(one(), 3, 7) == 1


def test_quantum_integer_vanishes_at_primitive_point():
    for n in range(2, 8):
        assert eval_at_root(quantum_integer(n), n, 1) == 0
    assert eval_at_root(quantum_integer(1), 1, 1) == 1


def test_half_integer_evaluation():
    h = mono(1, t=Fraction(1, 2)) - mono(1, t=Fraction(-1, 2))
    # t^(1/2) -> -e^(-pi i/2) = i, so the value is i - (1/i) = 2i
    v = eval_at_root(h, 2, 2 * 2 - 2)
    assert v == root(2, 1) * 2


def test_integrality_flag():
    assert root(6, 1).is_integral()
    assert not (root(6, 1) * Fraction(1, 2)).is_integral()
    assert root(4, 2).is_rational() is False
    assert root(4, 4).rational_value() == -1


def test_cyclotomic_polys():
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_pretty_forms():
    assert root(2, 2).pretty() == "-1"
    assert root(2, 1).pretty() == "cyclo(4)[0, 1]"


small = st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4)), max_size=4)


def _poly(entries):
    total = one() - one()
    for c, e in entries:
        total = total + mono(c, q=e)
    return total


@given(small, small, st.integers(1, 6), st.integers(-5, 5))
@settings(max_examples=60)
def test_eval_is_ring_homomorphism(e1, e2, n, k):
    p1, p2 = _poly(e1), _poly(e2)
    assert eval_at_root(p1 * p2, n, k) == eval_at_root(p1, n, k) * eval_at_root(p2, n, k)
    assert eval_at_root(p1 + p2, n, k) == eval_at_root(p1, n, k) + eval_at_root(p2, n, k)


def test_cyclo_arith_entry_point():
    from rootchi.cyclo import cyclo_arith
    assert cyclo_arith(root(3, 1), root(3, 5), "mul") == 1
    assert cyclo_arith(root(2, 1), root(2, 1), "sub") == 0
    assert cyclo_arith(root(4, 2), root(2, 1), "eq") is True
    assert cyclo_arith(root(4, 1), root(2, 1), "eq") is False
    with pytest.raises(ValueError):
        cyclo_arith(root(2, 1), root(2, 1), "div")


# -- the power table against a plain long division mod Phi_m ----------------------


def _reference_reduce(raw, m):
    """sum raw[k] x^k mod Phi_m by long division, as a vector of length phi(m)."""
    divisor = cyclotomic_poly(m)
    deg = len(divisor) - 1
    rem = list(raw) + [0] * max(0, deg - len(raw))
    for k in range(len(rem) - 1, deg - 1, -1):
        c = rem[k] / divisor[-1]
        if c:
            for i, y in enumerate(divisor):
                rem[k - deg + i] -= c * y
    return tuple(rem[:deg])


def _convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _embedded(coeffs, step):
    """x -> x^step on a coefficient vector, before any reduction."""
    out = [Fraction(0)] * ((len(coeffs) - 1) * step + 1)
    for i, c in enumerate(coeffs):
        out[i * step] = c
    return out


def _seeded(rng, order):
    phi = len(cyclotomic_poly(order)) - 1
    return CycloNum(order, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                 for _ in range(phi)))


def test_root_matches_long_division():
    for n in range(1, 61):
        for k in range(2 * n):
            want = _reference_reduce([0] * k + [1], 2 * n)
            assert root(n, k).coeffs == want, (n, k)


def test_mixed_order_products_match_long_division():
    rng = random.Random(20260418)
    for n in range(1, 13):
        for _ in range(4):
            a, b = _seeded(rng, 2 * n), _seeded(rng, 4 * n)
            want = _reference_reduce(_convolve(_embedded(a.coeffs, 2), b.coeffs), 4 * n)
            assert (a * b).order == 4 * n
            assert (a * b).coeffs == want and (b * a).coeffs == want, n
            square = _reference_reduce(_convolve(a.coeffs, a.coeffs), 2 * n)
            assert (a * a).coeffs == square, n


def test_to_order_matches_long_division():
    rng = random.Random(7)
    for n in range(1, 13):
        a = _seeded(rng, 2 * n)
        for step in (1, 2, 3, 5):
            want = _reference_reduce(_embedded(a.coeffs, step), 2 * n * step)
            assert a.to_order(2 * n * step).coeffs == want, (n, step)


def _sparse(rng, order, terms):
    """A nonzero sum of ``terms`` seeded roots with small rational weights: a
    dense element of order 400 has an inverse with coefficients of hundreds
    of digits, which only slows a test down."""
    x = CycloNum.from_rational(0, order)
    while x.is_zero():
        x = sum((root(order // 2, rng.randrange(order)) * Fraction(rng.randint(-5, 5),
                                                                    rng.randint(1, 4))
                 for _ in range(terms)), x)
    return x


@pytest.mark.parametrize("order", [2, 24, 400])
def test_inverse_at_small_and_large_orders(order):
    x = _sparse(random.Random(order), order, 6)
    inv = x.inverse()
    assert x * inv == 1
    one_vec = _reference_reduce(_convolve(x.coeffs, inv.coeffs), order)
    assert one_vec == (1,) + (0,) * (len(one_vec) - 1)


def _kernel_inverse(x):
    """The construction the norm route replaced: the b with x * b = 1, read
    off the kernel of the multiplication matrix (column j is x * zeta^j)
    with -1 appended as a last column in the constant-term row."""
    phi, z = len(x.coeffs), root(x.order // 2, 1)
    cols, col = [], x
    for _ in range(phi):
        cols.append(col.coeffs)
        col = col * z
    rows = [[c[i] for c in cols] + [-1 if i == 0 else 0] for i in range(phi)]
    (b,) = kernel(rows, phi + 1)  # x is a unit, so b ends in 1
    return tuple(c.numerator if c.denominator == 1 else c for c in b[:phi])


def _assert_inverse_matches_kernel(x):
    got, want = x.inverse().coeffs, _kernel_inverse(x)
    assert got == want, (x.order, x.coeffs)
    assert list(map(type, got)) == list(map(type, want)), (x.order, x.coeffs)


def test_inverse_matches_the_kernel_reference():
    """300 seeded elements: most of orders up to 120, whose references are
    quick, and ten spread over orders up to 400."""
    rng = random.Random(2027)
    orders = [2 + 2 * (k % 60) for k in range(290)]
    orders += [2 * rng.randint(61, 199) for _ in range(8)] + [398, 400]
    for order in orders:
        _assert_inverse_matches_kernel(_sparse(rng, order, rng.randint(1, 6)))


def test_inverse_matches_the_kernel_reference_at_order_800():
    # two seeded terms: the kernel reference takes over 10 s on some
    # elements of three terms at this order
    rng = random.Random(800)
    for _ in range(2):
        _assert_inverse_matches_kernel(_sparse(rng, 800, 2))


def test_inverse_needs_no_complex_layer(monkeypatch):
    """Inverting imports nothing: with rootchi loaded and rootchi.frcomplex
    then made unimportable, an inverse still comes out."""
    monkeypatch.setitem(sys.modules, "rootchi.frcomplex", None)
    x = root(12, 5) + Fraction(2, 3)
    assert x * x.inverse() == 1


def test_a_bool_equals_no_cyclonum():
    x = root(2, 1)
    assert (x == True) is False and (x != True) is True  # noqa: E712
    assert (root(1, 0) == True) is False and root(1, 0) == 1  # noqa: E712
    assert True not in [x] and False not in [CycloNum.from_rational(0)]
    for op in (lambda: x + True, lambda: x * False, lambda: True - x):
        with pytest.raises(PolyError):
            op()


@cache
def _reference_cyclotomic_poly(m):
    """The recursive construction that the Moebius product replaced: x^m - 1
    divided in integers by the monic Phi_d of each proper divisor d."""
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            div = _reference_cyclotomic_poly(d)
            deg = len(div) - 1
            quot = [0] * (len(num) - deg)
            for k in range(len(quot) - 1, -1, -1):
                c = quot[k] = num[k + deg]
                for i, y in enumerate(div):
                    num[k + i] -= c * y
            assert not any(num)
            num = quot
    return tuple(num)


def test_cyclotomic_polys_match_the_reference():
    for m in range(1, 401):
        assert cyclotomic_poly(m) == _reference_cyclotomic_poly(m), m


def test_cyclotomic_polys_are_integral_of_degree_phi():
    for m in range(1, 401):
        coeffs = cyclotomic_poly(m)
        totient = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
        assert all(type(c) is int for c in coeffs), m
        assert len(coeffs) - 1 == totient and coeffs[-1] == 1, m


# -- integral coefficients are ints ---------------------------------------------------


def _is_canonical(x):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in x.coeffs)


_halves = st.lists(st.tuples(st.integers(0, 47), st.integers(-6, 6)), max_size=6)


@given(st.integers(1, 12), _halves, _halves)
@settings(max_examples=60)
def test_coefficients_are_ints_or_proper_fractions(n, xs, ys):
    """Halves whose products and sums are often integral, and integers."""
    x = root_sum(n, ((k, Fraction(c, 2)) for k, c in xs))
    y = root_sum(2 * n, ys)
    results = [x, y, x * y, x * x, y * y, x.to_order(6 * n), y.to_order(4 * n),
               x + x, x - x, CycloNum.from_rational(Fraction(4, 2), 2 * n)]
    results += [z.inverse() for z in (x, y) if not z.is_zero()]
    for r in results:
        assert _is_canonical(r), r
    assert all(type(c) is int for c in (y * y).coeffs + (x + x).coeffs)


def test_evicted_power_table_is_rebuilt_equal():
    table = cyclo._powers(5)
    for n in range(6, 7 + cyclo._POWER_TABLES):
        cyclo._powers(n)
    assert cyclo._powers.cache_info().currsize == cyclo._POWER_TABLES
    rebuilt = cyclo._powers(5)
    assert rebuilt is not table
    assert [(p.order, p.coeffs) for p in rebuilt] == [(p.order, p.coeffs) for p in table]
    assert all(type(c) is int for p in rebuilt for c in p.coeffs)
