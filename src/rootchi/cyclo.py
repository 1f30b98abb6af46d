"""Exact arithmetic in cyclotomic fields Q(zeta) at even-order roots of unity.

An element is a rational vector in the power basis of Q[x]/Phi_m(x) where
Phi_m is the m-th cyclotomic polynomial, m even, and x stands for the
primitive m-th root of unity e^(2*pi*i/m).  With m = 2n this realizes
e^(pi*i/n) as the basis root, which is the scalar attached to a downward
degree shift of 1/n.

One power table per order does every reduction modulo Phi_m: the 2n powers
of e^(pi*i/n) in Q(zeta_2n), each the one before times x with x^phi(2n)
replaced through the monic Phi_2n.  A sum of c * x^k is read off it by
``root_sum``, and so are products (the convolution of the two vectors),
embeddings into a larger order (x -> x^step) and Galois conjugates
(x -> x^j, j a unit mod the order).  ``CycloNum.inverse`` is the product of
the other conjugates over the rational norm.  The tables hold integers, and
every coefficient of a value is an ``int`` when it is integral and a
``Fraction`` only when it is not, so products and sums of integral values
stay in ``int`` arithmetic.  The tables of the ``_POWER_TABLES`` most
recently used orders are kept.

Everything is exact; the only complex floating point in this module lives in
:meth:`CycloNum.to_complex`, which exists for human-readable reports and is
never used in equality logic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .laurent import LaurentPoly, PolyError, Rat, as_fraction

# power tables kept: corpus verify for n <= 6 reads 8 and --n-range 1..12
# reads 17; one table of order 800 (n = MAX_N) takes about 2.2 MB, so the
# cache stays under 70 MB where keeping every table of a 1..200 run did not
_POWER_TABLES = 32


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first:
    the product of (x^d - 1)^mu(m/d) over the divisors d of m.  The factors
    with mu = +1 are multiplied in first; each with mu = -1 is then divided
    out, the quotient q of p by x^d - 1 read off by q_k = q_(k-d) - p_k."""
    if m < 1:
        raise ValueError("order must be positive")
    # mu(m/d) is nonzero only where m/d is a product of distinct primes of m
    primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % r for r in range(2, p))]
    up, down = [], []
    for mask in range(1 << len(primes)):
        d = m // prod(p for i, p in enumerate(primes) if mask >> i & 1)
        (down if mask.bit_count() % 2 else up).append(d)
    poly = [1]
    for d in up:
        times = [0] * (len(poly) + d)
        for k, c in enumerate(poly):
            times[k] -= c
            times[k + d] += c
        poly = times
    for d in down:
        quot = [0] * (len(poly) - d)
        for k in range(len(quot)):
            quot[k] = (quot[k - d] if k >= d else 0) - poly[k]
        poly = quot
    return tuple(poly)


def _phi(m: int) -> int:
    return len(cyclotomic_poly(m)) - 1


@dataclass(frozen=True, eq=False)
class CycloNum:
    """An element of Q(zeta_m) with m = ``order`` even.

    ``coeffs`` has length phi(order) and gives the canonical representative
    modulo the order-th cyclotomic polynomial, so equality of elements of the
    same order is vector equality; mixed orders embed into the lcm first.
    An integral coefficient is an ``int``, any other a ``Fraction``.
    """

    order: int
    coeffs: tuple[Rat, ...]

    def __post_init__(self):
        if self.order < 2 or self.order % 2:
            raise ValueError("order must be an even integer >= 2")
        if len(self.coeffs) != _phi(self.order):
            raise ValueError("coefficient vector has wrong length")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rational(c: Rat, order: int = 2) -> "CycloNum":
        vec = [0] * _phi(order)
        vec[0] = _canonical(as_fraction(c))
        return CycloNum(order, tuple(vec))

    # -- order embedding -----------------------------------------------------

    def to_order(self, m: int) -> "CycloNum":
        """Re-express in Q(zeta_m); m must be a multiple of this order."""
        if m == self.order:
            return self
        if m % self.order:
            raise ValueError(f"{m} is not a multiple of order {self.order}")
        return self._at_power(m, m // self.order)

    def _at_power(self, m: int, j: int) -> "CycloNum":
        """zeta -> zeta_m^j in Q(zeta_m): an embedding, or with m = order a conjugate."""
        return root_sum(m // 2, ((i * j, c) for i, c in enumerate(self.coeffs) if c))

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

    def rational_value(self) -> Rat:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, m = CycloNum._common(self, other)
        return CycloNum(m, tuple(_canonical(x + y) for x, y in zip(a.coeffs, b.coeffs)))

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
        ys = [(j, y) for j, y in enumerate(b.coeffs) if y]
        return root_sum(m // 2, ((i + j, x * y)
                                 for i, x in enumerate(a.coeffs) if x for j, y in ys))

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
        """With x this element scaled to integer coefficients: the product of its
        conjugates x(zeta^j), j != 1 a unit mod the order, over the norm x * product."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        m, scale = self.order, lcm(*(c.denominator for c in self.coeffs))
        x = CycloNum(m, tuple(_canonical(c * scale) for c in self.coeffs))
        others = prod((x._at_power(m, j) for j in range(3, m, 2) if gcd(j, m) == 1),
                      start=CycloNum.from_rational(1, m))
        norm = (x * others).rational_value()
        return CycloNum(m, tuple(_canonical(Fraction(c * scale, norm)) for c in others.coeffs))

    def __eq__(self, other):
        if type(other) is bool:  # a bool equals no CycloNum, as it equals no LaurentPoly
            return False
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


def _canonical(c: Rat) -> Rat:
    """An integral coefficient as an ``int``; any other as it is."""
    return c.numerator if c.denominator == 1 else c


@lru_cache(maxsize=_POWER_TABLES)
def _powers(n: int) -> tuple[CycloNum, ...]:
    """e^(pi*i*k/n) for k = 0 .. 2n - 1 in Q(zeta_2n): each power is the one
    before times x, with x^phi replaced through the monic Phi_2n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    phi_poly = cyclotomic_poly(2 * n)
    vec = [1] + [0] * (len(phi_poly) - 2)
    out = []
    for _ in range(2 * n):
        out.append(CycloNum(2 * n, tuple(vec)))
        top, vec = vec[-1], [0] + vec[:-1]
        if top:
            vec = [v - top * c for v, c in zip(vec, phi_poly)]
    return tuple(out)


def root(n: int, k: int) -> CycloNum:
    """The root of unity e^(pi*i*k/n) as an element of Q(zeta_2n)."""
    return _powers(n)[k % (2 * n)]


def root_sum(n: int, terms) -> CycloNum:
    """Sum of c * e^(pi*i*k/n) over (k, c) pairs, in Q(zeta_2n): exponents are
    bucketed mod 2n, then the power table is combined once."""
    powers, phi = _powers(n), _phi(2 * n)
    weights = [0] * (2 * n)
    for k, c in terms:
        weights[k % (2 * n)] += _canonical(c)
    vec = weights[:phi]  # x^k with k < phi is a basis vector
    for w, power in zip(weights[phi:], powers[phi:]):
        if w:
            for i, x in enumerate(power.coeffs):
                if x:
                    vec[i] += w * x
    return CycloNum(2 * n, tuple(map(_canonical, vec)))


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
