"""Two-variable link polynomial by skein recursion, with specializations.

The unreduced invariant P lives in exact Laurent polynomials over (a, z).
It is pinned down by the crossing relation

    a*P(L+) - a^(-1)*P(L-) = z*P(L0)

together with the value (a - a^(-1))/z on the unknot, where L+ carries the
positive crossing, L- the switched one and L0 the oriented smoothing.  The
recursion switches the first crossing met on its understrand (fixed
traversal order), smoothing as it goes: switching strictly approaches a
descending diagram, smoothing drops a crossing, and descending diagrams
close up into unlinks.

All other normalizations are derived from P by exact division, never by a
second recursion, so a convention slip shows up as a division error instead
of a silently wrong value.

Every one-variable image of P (sl(n) at a = q^n, z = q - q^-1, Alexander at
a = 1, z = t^(1/2) - t^(-1/2), the verifier's route C at a = -1, z = q - q^-1,
``eval_az`` at a = +-1) is taken on one path: ``clear_z`` shifts the z
exponents by the least k that leaves no negative power of z, ``specialize``
maps each a^i z^j in one pass, as an integer times a cached row of the
binomial expansion of (x - x^-1)^j, and the image of z^k is divided back out.
"""

from __future__ import annotations

import os
from functools import cache
from math import comb

from .laurent import LaurentPoly, PolyError, RationalPair, Rat, exact_div, var
from .linkdiag import (LinkDiagram, ResourceBoundError, canonical_key,
                       first_non_descending, simplify, smooth_crossing,
                       switch_crossing, validate)

DEFAULT_MAX_CROSSINGS = 14
_ENV_BOUND = "ROOTCHI_MAX_CROSSINGS"

_A = var("a")
_Z = var("z")
_Q = var("q")
_DELTA = (_A - _A ** -1) * _Z ** -1  # unreduced unknot value
_A_FACTOR = _A - _A ** -1
# constant factors of the recursion step
_PLUS_SWITCHED = _A ** -2
_PLUS_SMOOTHED = _A ** -1 * _Z
_MINUS_SWITCHED = _A ** 2
_MINUS_SMOOTHED = _A * _Z
_Q_DIFF = _Q - _Q ** -1  # the image of z under the sl(n) specialization
_S = LaurentPoly.make(("t",), {(1,): 1, (-1,): -1})  # t^(1/2) - t^(-1/2)


class BoundSettingError(ValueError):
    """The crossing bound variable holds no non-negative integer."""


def crossing_bound() -> int:
    """The recursion bound from the environment; the default when unset."""
    raw = os.environ.get(_ENV_BOUND)
    if not raw:
        return DEFAULT_MAX_CROSSINGS
    try:
        bound = int(raw)
    except ValueError:
        bound = -1
    if bound < 0:
        raise BoundSettingError(
            f"{_ENV_BOUND} must be a non-negative integer, got {raw!r}")
    return bound


@cache
def _delta_power(k: int) -> LaurentPoly:
    return _DELTA ** k


@cache
def _z_image_power(name: str, beta: int, k: int) -> LaurentPoly:
    """(v^(beta/2) - v^(-beta/2))^k, the image of z^k, in the variable v = ``name``."""
    return LaurentPoly.make((name,), {(beta,): 1, (-beta,): -1}) ** k


def _value(d: LinkDiagram, memo: dict) -> LaurentPoly:
    d = simplify(d)
    if not d.crossings:
        return _delta_power(d.unknot_count)
    key = canonical_key(d)
    cached = memo.get(key)
    if cached is not None:
        return cached
    bad = first_non_descending(d)
    if bad is None:
        val = _delta_power(d.components)
    else:
        switched = switch_crossing(d, bad)
        smoothed = smooth_crossing(d, bad)
        if d.crossings[bad].sign > 0:
            # this diagram is L+: P = a^-2 P(switched) + a^-1 z P(smoothed)
            val = (_PLUS_SWITCHED * _value(switched, memo)
                   + _PLUS_SMOOTHED * _value(smoothed, memo))
        else:
            # this diagram is L-: P = a^2 P(switched) - a z P(smoothed)
            val = (_MINUS_SWITCHED * _value(switched, memo)
                   - _MINUS_SMOOTHED * _value(smoothed, memo))
    memo[key] = val
    return val


def homfly_unreduced(d: LinkDiagram, max_crossings: int | None = None,
                     memo: dict | None = None) -> LaurentPoly:
    """P(L) in (a, z); split unknot components multiply in the unknot value.

    ``memo`` maps ``canonical_key`` of each diagram the recursion visits to
    its P.  The key identifies a diagram up to relabeling of its edges and
    order of its crossings, so isomorphic subdiagrams, met under different
    labels, share one entry.  A caller may pass the same dict to several
    calls so that they share subdiagrams; the key describes a diagram
    completely, so a filled memo never changes a result.  Without one each
    call starts empty.
    ``d`` is validated here once; the recursion below does not revalidate.
    """
    validate(d)
    bound = max_crossings if max_crossings is not None else crossing_bound()
    if len(d.crossings) > bound:
        raise ResourceBoundError(
            f"{len(d.crossings)} crossings exceeds the bound {bound}")
    return _value(d, {} if memo is None else memo)


def homfly_reduced(d: LinkDiagram, unreduced: LaurentPoly | None = None) -> LaurentPoly:
    """P with the unknot value divided out; may carry negative z powers."""
    p = unreduced if unreduced is not None else homfly_unreduced(d)
    return exact_div(p, _A_FACTOR) * _Z


def homfly_middle(d: LinkDiagram, unreduced: LaurentPoly | None = None) -> LaurentPoly:
    """The normalization whose unknot value is -1/z."""
    p = unreduced if unreduced is not None else homfly_unreduced(d)
    return -exact_div(p, _A_FACTOR)


@cache
def _binomial_row(k: int) -> tuple[int, ...]:
    """The coefficients of (x - x^-1)^k at x^k, x^(k-2), ..., x^-k."""
    return tuple(comb(k, i) if i % 2 == 0 else -comb(k, i) for i in range(k + 1))


def specialize(p: LaurentPoly, name: str, alpha: int, beta: int,
               a_sign: int = 1, z_sign: int = 1) -> LaurentPoly:
    """p(a, z) at a = a_sign * v^(alpha/2) and z = z_sign * (v^(beta/2) -
    v^(-beta/2)), where v is the variable ``name``: like stored exponents,
    ``alpha`` and ``beta`` are doubled, and the signs are 1 or -1.

    One pass over the terms: a^k z^j adds its coefficient times the cached
    integer row of (x - x^-1)^j, shifted by the image of a^k, summed as an
    ``int`` while the coefficients are integral.  The exponents of a and z
    must be integers and those of z nonnegative (multiply by a power of z
    first); any other variable is refused.
    """
    other = set(p.vars) - {"a", "z"}
    if other:
        raise PolyError(f"only a and z can be specialized, not {sorted(other)}")
    a_flip, z_flip, step = a_sign < 0, z_sign < 0, 2 * beta
    ia = p.vars.index("a") if "a" in p.vars else None
    iz = p.vars.index("z") if "z" in p.vars else None
    acc: dict[int, Rat] = {}
    for exps, c in p.terms:
        ea = exps[ia] if ia is not None else 0
        ez = exps[iz] if iz is not None else 0
        if ea % 2 or ez % 2:
            raise PolyError("half-integer exponents of a or z cannot be specialized")
        k, j = ea // 2, ez // 2
        if j < 0:
            raise PolyError("negative powers of z cannot be specialized; "
                            "multiply by a power of z first")
        if c.denominator == 1:
            c = c.numerator
        if (a_flip * k + z_flip * j) % 2:
            c = -c
        e = alpha * k + beta * j
        for b in _binomial_row(j):
            acc[e] = acc.get(e, 0) + b * c
            e -= step
    return LaurentPoly.make((name,), {(e,): c for e, c in acc.items()})


def clear_z(p: LaurentPoly) -> tuple[LaurentPoly, int]:
    """(p * z^k, k) for the least k >= 0 that leaves no negative power of z,
    by shifting the z exponents; z goes when they all become 0."""
    lo, _ = p.exponent_range("z")  # doubled exponent: the least power is lo/2
    k = max(0, -(lo // 2))
    if k:
        i = p.vars.index("z")
        p = LaurentPoly.make(p.vars, {e[:i] + (e[i] + 2 * k,) + e[i + 1:]: c for e, c in p.terms})
    return p, k


def _image(p: LaurentPoly, name: str, alpha: int, beta: int, a_sign: int = 1) -> LaurentPoly:
    """p at a = a_sign * v^(alpha/2), z = v^(beta/2) - v^(-beta/2): the image
    of p * z^k divided exactly by the image of z^k."""
    cleared, k = clear_z(p)
    s = specialize(cleared, name, alpha, beta, a_sign)
    return exact_div(s, _z_image_power(name, beta, k)) if k else s


def eval_az(p: LaurentPoly, a_sign: int, z_sign: int) -> RationalPair:
    """p at a = a_sign, z = z_sign * S with S = t^(1/2) - t^(-1/2), signs +-1:
    the image of p * z^k over (z_sign * S)^k, k from ``clear_z``, undivided."""
    cleared, k = clear_z(p)
    return RationalPair(specialize(cleared, "t", 0, 1, a_sign, z_sign), (z_sign * _S) ** k)


def alexander(d: LinkDiagram, unreduced: LaurentPoly | None = None) -> LaurentPoly:
    """Symmetric polynomial in t^(1/2): the reduced P at a = 1 and
    z = t^(1/2) - t^(-1/2), by ``_image``."""
    return _image(homfly_reduced(d, unreduced=unreduced), "t", 0, 1)


@cache
def quantum_integer(n: int) -> LaurentPoly:
    """(q^n - q^-n)/(q - q^-1) as a genuine Laurent polynomial."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return exact_div(_Q ** n - _Q ** -n, _Q_DIFF)


def sln_poly(d: LinkDiagram, n: int, reduced: bool = True,
             unreduced_homfly: LaurentPoly | None = None) -> LaurentPoly:
    """Specialize a -> q^n; the reduced variant divides by (q^n - q^-n)/(q - q^-1).

    The image is taken by ``_image``, so it is always a genuine Laurent
    polynomial in q.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = unreduced_homfly if unreduced_homfly is not None else homfly_unreduced(d)
    s = _image(p, "q", 2 * n, 2)
    return sln_reduce(s, n) if reduced else s


def sln_reduce(unreduced: LaurentPoly, n: int) -> LaurentPoly:
    """The reduced sl(n) polynomial from the unreduced one: exact division by
    the quantum integer [n], the unknot's unreduced value."""
    return exact_div(unreduced, quantum_integer(n))
