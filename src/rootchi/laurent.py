"""Exact sparse Laurent polynomials with half-integer exponents.

Exponents are stored doubled: the exponent p/2 is kept as the integer p, so
a term like t^(1/2) has stored exponent 1 and t^2 has stored exponent 4.
This keeps all exponent arithmetic integral.  Coefficients are
arbitrary-precision rationals.

Values are immutable and canonical: zero coefficients are dropped, variables
that occur only with exponent zero are dropped, variable names are kept
sorted, and terms are kept in descending graded-lexicographic order.  Two
equal polynomials therefore compare equal structurally and hash alike.

:func:`serialize` writes the text form; :func:`parse_poly` reads it with one
regular expression for a factor and one loop over the signed terms.
"""

from __future__ import annotations

import heapq
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Number, Rational

Rat = int | Fraction
Terms = tuple[tuple[tuple[int, ...], Fraction], ...]


class PolyError(ValueError):
    """Base error for Laurent polynomial operations."""


class PolyParseError(PolyError):
    """Malformed polynomial text."""


class VariableMismatchError(PolyError):
    """Operands live over incompatible variable sets."""


class ExactDivisionError(PolyError):
    """Division left a nonzero remainder."""


def _term_sort_key(exps: tuple[int, ...]):
    # descending graded lex: sort by this key ascending
    return (-sum(exps), tuple(-e for e in exps))


@dataclass(frozen=True)
class LaurentPoly:
    """A sparse Laurent polynomial over Q in named variables.

    ``vars`` is a sorted tuple of variable names; ``terms`` maps doubled
    exponent vectors (one slot per variable) to nonzero rational
    coefficients, stored as a tuple sorted in descending graded-lex order.
    Use :func:`poly`, :func:`var`, :func:`mono` or the arithmetic operators
    to build values; the raw constructor assumes canonical input.
    """

    vars: tuple[str, ...]
    terms: Terms

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(vars: tuple[str, ...], coeffs: dict[tuple[int, ...], Rat]) -> "LaurentPoly":
        """Canonicalize and build: drops zeros and unused variables."""
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exps, c in coeffs.items():
            if len(exps) != len(vars):
                raise PolyError("exponent vector length does not match variable count")
            c = Fraction(c)
            if c:
                cleaned[exps] = c
        # keep the variables that occur with a nonzero exponent, sorted by name
        keep = sorted((i for i in range(len(vars)) if any(e[i] for e in cleaned)),
                      key=lambda i: vars[i])
        if keep != list(range(len(vars))):
            vars = tuple(vars[i] for i in keep)
            cleaned = {tuple(e[i] for i in keep): c for e, c in cleaned.items()}
        terms = tuple(sorted(cleaned.items(), key=lambda t: _term_sort_key(t[0])))
        return LaurentPoly(vars, terms)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def exponent_range(self, name: str) -> tuple[int, int]:
        """(min, max) doubled exponent of ``name``; (0, 0) if absent."""
        if name not in self.vars or not self.terms:
            return (0, 0)
        i = self.vars.index(name)
        es = [e[i] for e, _ in self.terms]
        return (min(es), max(es))

    # -- alignment ---------------------------------------------------------

    @staticmethod
    def _aligned(p: "LaurentPoly", q: "LaurentPoly") -> tuple[Terms, Terms, tuple[str, ...]]:
        """The terms of ``p`` and ``q`` over the sorted union of their variables."""
        if p.vars == q.vars:
            return p.terms, q.terms, p.vars
        vs = tuple(sorted(set(p.vars) | set(q.vars)))
        return _spread(p, vs), _spread(q, vs), vs

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q, vs = LaurentPoly._aligned(self, other)
        out = dict(p)
        for e, c in q:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.make(vs, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.vars, tuple((e, -c) for e, c in self.terms))

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
        p, q, vs = LaurentPoly._aligned(self, other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in p:
            for e2, c2 in q:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly.make(vs, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if not self.is_monomial():
                raise PolyError("negative powers exist only for monomials")
            exps, c = self.terms[0]
            inv = LaurentPoly.make(self.vars, {tuple(-e for e in exps): Fraction(1) / c})
            return inv ** (-k)
        result = one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return serialize(self)

    def __repr__(self):
        return f"LaurentPoly({serialize(self)!r})"


def _coerce(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    # int and Fraction ahead of the ABC check; a bool, a float or a complex
    # is a PolyError from const
    if isinstance(x, (int, Fraction, Number)):
        return const(x)
    return NotImplemented


def _spread(p: LaurentPoly, vs: tuple[str, ...]) -> Terms:
    """The terms of ``p`` over the sorted superset ``vs`` of its variables."""
    if p.vars == vs:
        return p.terms
    idx = [vs.index(v) for v in p.vars]
    out = []
    for exps, c in p.terms:
        vec = [0] * len(vs)
        for j, e in zip(idx, exps):
            vec[j] = e
        out.append((tuple(vec), c))
    return tuple(out)


# -- convenience constructors ---------------------------------------------


def zero() -> LaurentPoly:
    return LaurentPoly((), ())


def one() -> LaurentPoly:
    return const(1)


def const(c: Rat) -> LaurentPoly:
    """The constant c, read through ``as_fraction``."""
    return LaurentPoly.make((), {(): as_fraction(c)})


def var(name: str) -> LaurentPoly:
    return LaurentPoly.make((name,), {(2,): Fraction(1)})


def as_fraction(x) -> Fraction:
    """An int or another ``numbers.Rational`` as a Fraction; a bool, a float or
    anything else is a PolyError, never read as 0/1 or as a binary expansion."""
    if type(x) is bool or not isinstance(x, Rational):
        raise PolyError(f"expected an int or a Fraction, got the {type(x).__name__} {x!r}")
    return Fraction(x)


def mono(coeff: Rat = 1, /, **exponents: Rat) -> LaurentPoly:
    """Monomial with rational exponents in units of 1/2, e.g.
    ``mono(3, t=Fraction(1, 2))`` is 3*t^(1/2); inputs go through ``as_fraction``."""
    vars = tuple(exponents)
    vec = []
    for v in vars:
        d = as_fraction(exponents[v]) * 2
        if d.denominator != 1:
            raise PolyError(f"exponent of {v} must be a half-integer")
        vec.append(int(d))
    return LaurentPoly.make(vars, {tuple(vec): as_fraction(coeff)})


def arith(p: LaurentPoly, q: LaurentPoly, op: str) -> LaurentPoly:
    """Named arithmetic entry point: op is one of add/sub/mul.

    Requires equal variable sets unless one operand is constant.  The
    Python operators are more permissive and work over the union.
    """
    if not (p.vars == q.vars or p.is_constant() or q.is_constant()):
        raise VariableMismatchError(
            f"variable sets {p.vars} and {q.vars} differ and neither is constant")
    if op == "add":
        return p + q
    if op == "sub":
        return p - q
    if op == "mul":
        return p * q
    raise PolyError(f"unknown op {op!r}")


# -- substitution ------------------------------------------------------------


def substitute(p: LaurentPoly, name: str, image: LaurentPoly | Rat) -> LaurentPoly:
    """Substitute ``image`` for the variable ``name``.

    A monomial image may be raised to any half-integer power that lands on
    half-integer exponents again (the coefficient must be 1 when an odd
    doubled exponent asks for its square root).  A non-monomial image is
    only accepted when every occurrence of the variable has a nonnegative
    integer exponent; clearing denominators first is the caller's job.
    """
    if (image := _coerce(image)) is NotImplemented:
        raise TypeError("the image must be a LaurentPoly, an int or a Fraction")
    if name not in p.vars:
        return p
    monomial = image.is_monomial()
    if not monomial:
        lo, _hi = p.exponent_range(name)
        if lo < 0:
            raise PolyError(
                f"negative powers of {name} cannot take a non-monomial image; "
                "clear denominators by exact division first")
        if any(e[p.vars.index(name)] % 2 for e, _ in p.terms):
            raise PolyError("half-integer exponents cannot take a non-monomial image")
    chain = [one()]  # image^k at index k, for a non-monomial image

    def image_power(m: int) -> LaurentPoly:
        """image^(m/2)."""
        if not monomial:
            while len(chain) <= m // 2:
                chain.append(chain[-1] * image)
            return chain[m // 2]
        iexps, ic = image.terms[0]
        if m % 2 and ic != 1:
            raise PolyError(
                f"cannot raise coefficient {ic} to the half-integer power {m}/2")
        if any(m * e % 2 for e in iexps):
            raise PolyError("substitution would create quarter-integer exponents")
        return LaurentPoly.make(image.vars, {tuple(m * e // 2 for e in iexps): ic ** (m // 2)})

    # work over every variable of p and the image; make drops name if unused
    vs = tuple(sorted(set(p.vars) | set(image.vars)))
    i = vs.index(name)
    powers: dict[int, Terms] = {}  # m -> the terms of image^(m/2) over vs
    acc: dict[tuple[int, ...], Fraction] = {}
    for exps, c in _spread(p, vs):
        m = exps[i]
        if m not in powers:
            powers[m] = _spread(image_power(m), vs)
        rest = exps[:i] + (0,) + exps[i + 1:]
        for iexps, ic in powers[m]:
            key = tuple(a + b for a, b in zip(rest, iexps))
            acc[key] = acc.get(key, 0) + c * ic
    return LaurentPoly.make(vs, acc)


# -- exact division ----------------------------------------------------------


def exact_div(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Return q with p = d*q exactly; raise ExactDivisionError otherwise.

    Long division in descending graded-lex order: the remainder's leading
    terms come off a heap (a sorted term list already is one) and are
    divided by d's leading term, the first of its sorted terms.  In each
    variable a quotient exponent is at least p's least exponent less d's; a
    leading term that gives a smaller one leaves a nonzero remainder.  Above
    that floor graded lex is a well-order, so the division terminates.
    """
    if d.is_zero():
        raise PolyError("division by zero polynomial")
    if p.is_zero():
        return zero()
    p1, d1, vs = LaurentPoly._aligned(p, d)
    floor = [min(e[i] for e, _ in p1) - min(e[i] for e, _ in d1) for i in range(len(vs))]
    (dlead, dlead_c), dtail = d1[0], d1[1:]
    rem = dict(p1)
    heap = [(_term_sort_key(e), e) for e, _ in p1]
    quot: dict[tuple[int, ...], Fraction] = {}
    while heap:
        lead = heapq.heappop(heap)[1]
        c = rem.pop(lead, None)
        if c is None:
            continue  # cancelled after it was pushed
        diff = tuple(a - b for a, b in zip(lead, dlead))
        if any(e < f for e, f in zip(diff, floor)):
            raise ExactDivisionError(
                f"nonzero remainder; leading term {lead} not divisible")
        cq = c / dlead_c
        quot[diff] = cq
        for e, dc in dtail:
            k = tuple(a + b for a, b in zip(diff, e))
            if k in rem:
                nc = rem[k] - cq * dc
                if nc:
                    rem[k] = nc
                else:
                    del rem[k]
            else:
                rem[k] = -cq * dc
                heapq.heappush(heap, (_term_sort_key(k), k))
    return LaurentPoly.make(vs, quot)


# -- text form ----------------------------------------------------------------


def _exp_str(name: str, d: int) -> str:
    if d == 2:
        return name
    if d % 2 == 0:
        return f"{name}^{d // 2}"
    return f"{name}^({d}/2)"


def serialize(p: LaurentPoly) -> str:
    """Deterministic text form, terms in descending graded-lex order."""
    pieces: list[str] = []
    for exps, c in p.terms:
        factors = [_exp_str(v, e) for v, e in zip(p.vars, exps) if e != 0]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        sign = ("" if c > 0 else "-") if not pieces else ("+ " if c > 0 else "- ")
        pieces.append(sign + "*".join(factors))
    return " ".join(pieces) or "0"


_FACTOR = re.compile(r"""
    (?: \s* (?P<sign>[+-]) )?         # a sign opens the next term
    [\s*]*                            # blanks, and any *s before the factor
    (?: (?P<num>\d+) (?: \s* / \s* (?P<den>\d+) )?
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
        (?: \s* \^ \s* (?P<paren>\( \s*)? (?P<neg>-\s*)? (?P<exp>\d+)
            (?(paren) \s* (?: / \s* (?P<half>[12]) (?!\d) \s* )? \) ) )?
    )
    [\s*]*                            # and any *s after it
    """, re.VERBOSE)


def parse_poly(text: str) -> LaurentPoly:
    """Read the text that :func:`serialize` writes, in this grammar, with
    blanks allowed between any two symbols::

        poly     = ["+" | "-"] term {("+" | "-") term}
        term     = {"*"} factor {{"*"} factor} {"*"}
        factor   = digits ["/" digits] | name ["^" exponent]
        exponent = ["-"] digits | "(" ["-"] digits ["/" ("1" | "2")] ")"

    A term is the product of its factors (``2 3 t`` and ``2t*t`` are 6*t and
    2*t^2); a name is ``[A-Za-z_][A-Za-z_0-9]*``, a digit any Unicode decimal
    digit.  A zero denominator, text outside the grammar or a number past
    int()'s digit limit, as read or as the terms form it (a product of
    factors, a sum of exponents or of like terms), is a PolyParseError.
    """
    exps: list[dict[str, int]] = []  # per term: doubled exponent by name
    coeffs: list[Fraction] = []
    pos = 0
    while m := _FACTOR.match(text, pos):
        pos = m.end()
        if m["sign"] or not exps:
            exps.append({})
            coeffs.append(Fraction(-1 if m["sign"] == "-" else 1))
        try:
            num, den, k = (int(m[g] or "1") for g in ("num", "den", "exp"))
        except ValueError:
            raise _past_digit_limit() from None
        if m["name"]:
            d = k * (-2 if m["neg"] else 2) // (2 if m["half"] == "2" else 1)
            d = exps[-1][m["name"]] = exps[-1].get(m["name"], 0) + d
            _printable(Fraction(d, 2))  # serialize prints d / 2
        elif den:
            coeffs[-1] *= Fraction(num, den)
            _printable(coeffs[-1])
        else:
            raise PolyParseError("zero denominator")
    if not exps or pos < len(text):
        raise PolyParseError(f"cannot read {text[pos:]!r}")
    vs = tuple(sorted({v for e in exps for v in e}))
    acc: dict[tuple[int, ...], Fraction] = {}
    for e, c in zip(exps, coeffs):
        key = tuple(e.get(v, 0) for v in vs)
        acc[key] = acc.get(key, 0) + c
        _printable(acc[key])
    return LaurentPoly.make(vs, acc)


def _past_digit_limit() -> PolyParseError:
    return PolyParseError(f"a number past int()'s digit limit "
                          f"({sys.get_int_max_str_digits()} digits)")


def _printable(x: Fraction) -> None:
    """Refuse a number that str(), and so serialize, cannot print."""
    try:
        str(x)
    except ValueError:
        raise _past_digit_limit() from None


_MAX_EXPONENT = 400  # Fraction expands "1e-k" in full; finite floats need 324
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def _parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``, the rationals of the JSON forms, refusing a decimal
    exponent beyond +-400 before Fraction expands it.  A refusal is a
    ValueError or ZeroDivisionError, which each caller maps to its own error."""
    m = _EXPONENT.search(text)
    if m and abs(int(m.group(1))) > _MAX_EXPONENT:
        raise PolyError(f"exponent of {text!r} exceeds {_MAX_EXPONENT}")
    return Fraction(text)


# -- rational pairs -----------------------------------------------------------


@dataclass(frozen=True)
class RationalPair:
    """A fraction of Laurent polynomials, compared by cross-multiplication.

    Used where an identity genuinely lives in the fraction field, e.g. a
    polynomial divided by t^(1/2) - t^(-1/2).
    """

    num: LaurentPoly
    den: LaurentPoly

    def __post_init__(self):
        if self.den.is_zero():
            raise PolyError("zero denominator")

    def __eq__(self, other):
        if type(other) is bool:  # a bool equals no pair, as it equals no LaurentPoly
            return False
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RationalPair(_coerce(other), one())
        if not isinstance(other, RationalPair):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):  # pragma: no cover - pairs are not meant as dict keys
        return hash((self.num.is_zero(),))

    def __mul__(self, other):
        if not isinstance(other, RationalPair):
            # through _coerce, so a bool or a float is a PolyError as for LaurentPoly
            if (other := _coerce(other)) is NotImplemented:
                return NotImplemented
            other = RationalPair(other, one())
        return RationalPair(self.num * other.num, self.den * other.den)

    def __repr__(self):
        return f"({serialize(self.num)}) / ({serialize(self.den)})"
