"""Exact arithmetic in cyclotomic fields Q(zeta) at even-order roots of unity.

An element is a rational vector in the power basis of Q[x]/Phi_m(x) where
Phi_m is the m-th cyclotomic polynomial, m even, and x stands for the
primitive m-th root of unity e^(2*pi*i/m).  With m = 2n this realizes
e^(pi*i/n) as the basis root, which is the scalar attached to a downward
degree shift of 1/n.

Everything is exact; the only complex floating point in this module lives in
:meth:`CycloNum.to_complex`, which exists for human-readable reports and is
never used in equality logic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .laurent import LaurentPoly, PolyError

Rat = int | Fraction


# -- dense rational polynomial helpers (constant term first) -----------------


def _ptrim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _psub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _ptrim(out)


def _pdivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    q = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        k = len(rem) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            rem[k + i] -= c * y
        _ptrim(rem)
    return _ptrim(q), _ptrim(rem)


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[Fraction, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first."""
    if m < 1:
        raise ValueError("order must be positive")
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            q, r = _pdivmod(num, list(cyclotomic_poly(d)))
            if r:
                raise AssertionError("cyclotomic division must be exact")
            num = q
    return tuple(num)


def _phi(m: int) -> int:
    return len(cyclotomic_poly(m)) - 1


def _reduce(coeffs: list[Fraction], m: int) -> tuple[Fraction, ...]:
    _, r = _pdivmod(list(coeffs), list(cyclotomic_poly(m)))
    r = r + [Fraction(0)] * (_phi(m) - len(r))
    return tuple(r)


@dataclass(frozen=True, eq=False)
class CycloNum:
    """An element of Q(zeta_m) with m = ``order`` even.

    ``coeffs`` has length phi(order) and gives the canonical representative
    modulo the order-th cyclotomic polynomial, so equality of elements of the
    same order is vector equality; mixed orders embed into the lcm first.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 2 or self.order % 2:
            raise ValueError("order must be an even integer >= 2")
        if len(self.coeffs) != _phi(self.order):
            raise ValueError("coefficient vector has wrong length")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rational(c: Rat, order: int = 2) -> "CycloNum":
        vec = [Fraction(0)] * _phi(order)
        vec[0] = Fraction(c)
        return CycloNum(order, tuple(vec))

    # -- order embedding -----------------------------------------------------

    def to_order(self, m: int) -> "CycloNum":
        """Re-express in Q(zeta_m); m must be a multiple of this order."""
        if m == self.order:
            return self
        if m % self.order:
            raise ValueError(f"{m} is not a multiple of order {self.order}")
        step = m // self.order
        raw = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            if c != 0:
                raw[i * step] = c
        return CycloNum(m, _reduce(raw, m))

    @staticmethod
    def _common(a: "CycloNum", b: "CycloNum") -> tuple["CycloNum", "CycloNum", int]:
        m = a.order * b.order // gcd(a.order, b.order)
        return a.to_order(m), b.to_order(m), m

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def is_integral(self) -> bool:
        """True when the element lies in Z[zeta] (integer basis coefficients)."""
        return all(c.denominator == 1 for c in self.coeffs)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, m = CycloNum._common(self, other)
        return CycloNum(m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, m = CycloNum._common(self, other)
        raw = _pmul(list(a.coeffs), list(b.coeffs))
        return CycloNum(m, _reduce(raw, m))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloNum.from_rational(1, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # Phi_m is irreducible, so gcd(self, Phi_m) is a nonzero constant;
        # track the Bezout coefficient s with s*self = gcd (mod Phi_m).
        r0, r1 = list(cyclotomic_poly(self.order)), _ptrim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        if len(r0) != 1:
            raise AssertionError("cyclotomic polynomial must be irreducible over Q")
        inv = [c / r0[0] for c in s0]
        return CycloNum(self.order, _reduce(inv, self.order))

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, _ = CycloNum._common(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):  # canonical only within one order; do not key on these
        return hash(self.is_zero())

    # -- display -------------------------------------------------------------

    def pretty(self) -> str:
        """Exact text: a plain rational when possible, else cyclo(m)[...]"""
        if self.is_rational():
            return str(self.coeffs[0])
        body = ", ".join(str(c) for c in self.coeffs)
        return f"cyclo({self.order})[{body}]"

    def to_complex(self) -> complex:
        """Floating approximation for display only."""
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(float(c) * z ** i for i, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"CycloNum({self.pretty()})"


def _coerce(x):
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum.from_rational(x)
    return NotImplemented


@lru_cache(maxsize=None)
def _powers(n: int) -> tuple[CycloNum, ...]:
    """e^(pi*i*k/n) for k = 0 .. 2n - 1, each reduced once: 2n entries per n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(CycloNum(2 * n, _reduce([Fraction(0)] * k + [Fraction(1)], 2 * n))
                 for k in range(2 * n))


def root(n: int, k: int) -> CycloNum:
    """The root of unity e^(pi*i*k/n) as an element of Q(zeta_2n)."""
    return _powers(n)[k % (2 * n)]


def root_sum(n: int, terms) -> CycloNum:
    """Sum of c * e^(pi*i*k/n) over (k, c) pairs, in Q(zeta_2n): exponents are
    bucketed mod 2n, then the power table is combined once."""
    powers = _powers(n)
    weights = [0] * (2 * n)
    for k, c in terms:
        weights[k % (2 * n)] += c
    vec = [Fraction(0)] * _phi(2 * n)
    for w, power in zip(weights, powers):
        if w:
            for i, x in enumerate(power.coeffs):
                vec[i] += w * x
    return CycloNum(2 * n, tuple(vec))


def cyclo_arith(x: CycloNum, y: CycloNum, op: str):
    """Named arithmetic entry point: add/sub/mul return a CycloNum, eq a bool.

    Mixed orders embed into the lcm order first.
    """
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "eq":
        return x == y
    raise ValueError(f"unknown op {op!r}")


def eval_at_root(p: LaurentPoly, n: int, k: int) -> CycloNum:
    """Evaluate a one-variable polynomial with the variable's square root
    set to e^(pi*i*k/(2n)).

    A term with doubled exponent m (i.e. v^(m/2)) contributes its coefficient
    times e^(pi*i*k*m/(2n)).  For a variable with integer exponents this is
    evaluation at v = e^(pi*i*k/n); setting k = 1 evaluates q-polynomials at
    q = e^(pi*i/n).
    """
    if len(p.vars) > 1:
        raise PolyError("evaluation needs a one-variable polynomial")
    return root_sum(2 * n, ((k * exps[0] if exps else 0, c) for exps, c in p.terms))
