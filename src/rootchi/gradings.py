"""Dimension tables for bigraded and trigraded homology stand-ins.

Tables carry finitely many positive dimensions indexed by degree tuples;
degrees are stored doubled so half-integer slots stay integral.  The
operations here are the bookkeeping between grading conventions: graded
Euler characteristics valued in Laurent polynomials, the translation from
triply graded tables to (gr_T, gr_M) and (gr_Qn, gr_H) pairs, the collapse
of a bigrading to a single (1/n)Z grading, and the bookkeeping shifts that
relate reduced, middle and unreduced theories for an l-component link.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import json
from numbers import Rational

from .cyclo import CycloNum, root
from .laurent import LaurentPoly, Rat


class TableError(ValueError):
    pass


def _doubled(x: Rat) -> int:
    """A degree, an int or another ``numbers.Rational``, doubled; a bool, a
    float or a string is a TableError, as an entry is in the complex layer."""
    if type(x) is bool or not isinstance(x, Rational):
        raise TableError(f"degree must be an int or a Fraction, got the "
                         f"{type(x).__name__} {x!r}")
    d = Fraction(x) * 2
    if d.denominator != 1:
        raise TableError(f"degree {x} is not a half-integer")
    return int(d)


@dataclass(frozen=True)
class DimTable:
    """Finitely supported dimension table over 2 or 3 gradings.

    ``half[i]`` says slot i may be half-integral; entries store doubled
    degrees, mapped to positive integer dimensions.
    """

    labels: tuple[str, ...]
    half: tuple[bool, ...]
    entries: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def arity(self) -> int:
        return len(self.labels)

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.entries)

    def total_dim(self) -> int:
        return sum(d for _, d in self.entries)


def make_table(labels, half, entries) -> DimTable:
    """Build a table from {degree tuple: dim}; degrees as halves or exact."""
    labels = tuple(labels)
    half = tuple(bool(h) for h in half)
    if len(labels) != len(half):
        raise TableError("labels and half flags differ in length")
    if len(labels) not in (2, 3):
        raise TableError("tables are bigraded or trigraded")
    acc: dict[tuple[int, ...], int] = {}
    for deg, dim in (entries.items() if isinstance(entries, dict) else entries):
        if len(deg) != len(labels):
            raise TableError("degree tuple has wrong arity")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
            raise TableError(f"dimension must be a positive integer, got {dim!r}")
        key = tuple(_doubled(x) for x in deg)
        for i, d in enumerate(key):
            if not half[i] and d % 2:
                raise TableError(
                    f"slot {labels[i]} is integral but degree {Fraction(d, 2)} is not")
        acc[key] = acc.get(key, 0) + dim
    return DimTable(labels, half, tuple(sorted(acc.items())))


# -- graded Euler characteristics -----------------------------------------------


def chi_bigraded(t: DimTable, sign_label: str, var_label: str,
                 out_var: str | None = None) -> LaurentPoly:
    """Sum of (-1)^J u^I dim over the table; J is the sign slot."""
    if t.arity != 2:
        raise TableError("chi_bigraded needs a bigraded table")
    si = t.labels.index(sign_label)
    return LaurentPoly.make((out_var or var_label,),
                            _signed_sums(t, si, [t.labels.index(var_label)]))


def _signed_sums(t: DimTable, si: int, slots: list[int]) -> dict[tuple[int, ...], Fraction]:
    """Sum of (-1)^J dim per exponent vector of ``slots``; J is slot si, integral."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for deg, dim in t.entries:
        if deg[si] % 2:
            raise TableError("sign slot must be integral")
        sign = -1 if (deg[si] // 2) % 2 else 1
        key = tuple(deg[s] for s in slots)
        acc[key] = acc.get(key, Fraction(0)) + sign * dim
    return acc


def chi_trigraded(t: DimTable, sign_rule: str = "half_k_minus_j") -> LaurentPoly:
    """Two-variable graded Euler characteristic of a trigraded table.

    With labels (i, j, k) and the default rule the sign exponent is
    (k - j)/2 and the output is a Laurent polynomial in (a, q) with a^j q^i;
    passing a label name instead uses (-1)^(that slot) with u^I v^J on the
    remaining two slots in label order.
    """
    if t.arity != 3:
        raise TableError("chi_trigraded needs a trigraded table")
    if sign_rule == "half_k_minus_j":
        acc: dict[tuple[int, int], Fraction] = {}
        for (di, dj, dk), dim in t.entries:
            if (dk - dj) % 4:
                raise TableError(f"k - j must be even, got {Fraction(dk - dj, 2)}")
            sign = -1 if ((dk - dj) // 4) % 2 else 1
            key = (dj, di)  # exponents of a and q
            acc[key] = acc.get(key, Fraction(0)) + sign * dim
        return LaurentPoly.make(("a", "q"), acc)
    si = t.labels.index(sign_rule)
    return LaurentPoly.make(("u", "v"), _signed_sums(t, si, [x for x in range(3) if x != si]))


# -- grading dictionaries ----------------------------------------------------------


def homfly_grading_dict(t: DimTable, n: int) -> tuple[DimTable, DimTable]:
    """Reindex a trigraded (i, j, k) table to (gr_T, gr_M) and (gr_Qn, gr_H).

    gr_T = i/2 and gr_M = i + j/2 + k/2; gr_Qn = i + n*j and gr_H = (k-j)/2.
    Total dimension is preserved by both.
    """
    if t.arity != 3:
        raise TableError("expected a trigraded table")
    tm: dict[tuple[int, int], int] = {}
    qh: dict[tuple[int, int], int] = {}
    for deg, dim in t.entries:
        i, j, k = (d // 2 for d in deg)  # slots are integral, degrees doubled
        d_gr_t = i               # doubled gr_T = 2*(i/2)
        d_gr_m = 2 * i + j + k   # doubled gr_M = 2*(i + j/2 + k/2)
        if d_gr_m % 2:
            raise TableError("gr_M must be integral (j + k must be even)")
        d_gr_qn = 2 * (i + n * j)
        d_gr_h = k - j           # doubled gr_H = 2*((k - j)/2)
        if d_gr_h % 2:
            raise TableError("gr_H must be integral (k - j must be even)")
        tm[(d_gr_t, d_gr_m)] = tm.get((d_gr_t, d_gr_m), 0) + dim
        qh[(d_gr_qn, d_gr_h)] = qh.get((d_gr_qn, d_gr_h), 0) + dim
    table_tm = DimTable(("gr_T", "gr_M"), (True, False), tuple(sorted(tm.items())))
    table_qh = DimTable(("gr_Qn", "gr_H"), (False, False), tuple(sorted(qh.items())))
    return table_tm, table_qh


def collapse_to_frac(t: DimTable, n: int, convention: str,
                     extra_shift_units: int = 0) -> dict[int, int]:
    """Collapse a bigraded table to a (1/n)Z dimension table (units -> dim).

    Conventions: ``hfk`` maps (gr_T, gr_M) to -n*gr_M + 2(n-1)*gr_T;
    ``hfk_primed`` is its negative; ``sln`` maps (gr_Qn, gr_H) to
    gr_Qn + n*gr_H.  ``extra_shift_units`` shifts the result upward.
    """
    if t.arity != 2:
        raise TableError("collapse needs a bigraded table")
    out: dict[int, int] = {}
    for deg, dim in t.entries:
        d0, d1 = deg
        if convention in ("hfk", "hfk_primed"):
            if d1 % 2:
                raise TableError("gr_M slot must be integral")
            units = -n * (d1 // 2) + (n - 1) * d0
            if convention == "hfk_primed":
                units = -units
        elif convention == "sln":
            if d0 % 2 or d1 % 2:
                raise TableError("sl(n) gradings are integral")
            units = d0 // 2 + n * (d1 // 2)
        else:
            raise TableError(f"unknown convention {convention!r}")
        units += extra_shift_units
        out[units] = out.get(units, 0) + dim
    return dict(sorted(out.items()))


def eval_exponent(convention: str, n: int) -> int:
    """The k for which evaluating chi_t at t^(1/2) = e^(pi*i*k/(2n)), as in
    ``cyclo.eval_at_root``, gives the chi of ``collapse_to_frac`` with this
    convention: 2n - 2 (t^(1/2) -> -e^(-pi*i/n)) for ``hfk`` and
    2n + 2 = -(2n - 2) mod 4n (t^(1/2) -> -e^(pi*i/n)) for ``hfk_primed``."""
    if convention == "hfk":
        return 2 * n - 2
    if convention == "hfk_primed":
        return 2 * n + 2
    raise TableError(f"no root evaluation for convention {convention!r}")


def hfk_phase(ell: int, n: int) -> CycloNum:
    """e^(pi*i(1 - ell)/n): the chi of the unprimed (1/n)Z-graded theory of an
    ell-component link is this phase times Delta at t^(1/2) = -e^(-pi*i/n)."""
    return root(n, 1 - ell)


def koszul_factor(ell: int, n: int) -> CycloNum:
    """(1 - e^(2*pi*i/n))^(ell - 1): the factor the hat-theory prediction
    (t^(-1/2) - t^(1/2))^(ell - 1) * Delta carries at t^(1/2) = -e^(-pi*i/n)."""
    return (CycloNum.from_rational(1) - root(n, 2)) ** (ell - 1)


@dataclass(frozen=True)
class ShiftSpec:
    """Grading shifts attached to a homology variant for an l-component link."""

    alexander_shift: Fraction
    maslov_shift: int
    frac_shift_units: int | None  # shift of the (1/n)Z grading, times n


def hfk_shift_spec(variant: str, ell: int, n: int | None = None) -> ShiftSpec:
    """Alexander/Maslov shifts for the reduced, middle and unreduced variants.

    The (1/n)Z-graded shifted variants sit (1 - ell)(1 - 1/n) above the
    unshifted ones, i.e. (1 - ell)(n - 1) units.
    """
    if ell < 1:
        raise TableError("component count must be >= 1")
    if variant in ("reduced", "unreduced"):
        a, m = Fraction(ell - 1, 2), 0
    elif variant == "minus":
        a, m = Fraction(ell, 2), 1
    else:
        raise TableError(f"unknown variant {variant!r}")
    frac = (1 - ell) * (n - 1) if n is not None else None
    return ShiftSpec(a, m, frac)


# -- JSON form -----------------------------------------------------------------------


def _deg_to_json(d: int):
    return d // 2 if d % 2 == 0 else f"{d}/2"


def _deg_from_json(x) -> Fraction:
    if isinstance(x, str) or isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TableError(f"bad degree value {x!r}")


def table_to_json(t: DimTable) -> str:
    entries = [{"deg": [_deg_to_json(d) for d in deg], "dim": dim}
               for deg, dim in t.entries]
    return json.dumps({"labels": list(t.labels), "half": list(t.half),
                       "entries": entries}, indent=1)


def table_from_json(text: str) -> DimTable:
    try:
        data = json.loads(text)
        labels = data["labels"]
        half = data["half"]
        entries = [(tuple(_deg_from_json(x) for x in e["deg"]), e["dim"])
                   for e in data["entries"]]
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:  # also over-long ints
        raise TableError(f"bad table JSON: {e}")
    return make_table(labels, half, entries)
