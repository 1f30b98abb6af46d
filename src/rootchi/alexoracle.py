"""Independent Alexander polynomial via the Wirtinger presentation.

Generators are the arcs of the diagram (maximal overstrand runs); each
crossing contributes one relation row.  With the overarc o and the
understrand running from arc x to arc y the rows are

    positive crossing:  (1-t)*o + t*x - y
    negative crossing:  (t-1)*o + x - t*y      (scaled by the unit t)

Deleting one column and taking the determinant gives the one-variable
Alexander polynomial up to a unit +-t^k; the symmetric representative is
recovered afterwards.  This route shares nothing with the skein recursion,
which is the point: the two must agree on every diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import LaurentPoly, exact_div, one, var, zero
from .linkdiag import LinkDiagram, validate

_T = var("t")
# row entries at the overarc, the incoming and the outgoing underarc, by sign
_ROW = {1: (1 - _T, _T, -one()), -1: (_T - 1, one(), -_T)}


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class AlexClass:
    """A polynomial defined up to multiplication by +-t^k.

    The representative has lowest exponent 0 and positive leading
    coefficient; the zero class stands for vanishing determinant.
    """

    poly: LaurentPoly
    ell: int

    @staticmethod
    def of(p: LaurentPoly, ell: int) -> "AlexClass":
        if p.is_zero():
            return AlexClass(zero(), ell)
        lo, _ = p.exponent_range("t")
        p = p * LaurentPoly.make(("t",), {(-lo,): 1}) if lo else p
        lead = p.terms[0][1]
        if lead < 0:
            p = -p
        return AlexClass(p, ell)

    def is_zero(self) -> bool:
        return self.poly.is_zero()


@dataclass(frozen=True)
class SymmetricAlex:
    """A symmetric representative; the sign is pinned only for knots."""

    poly: LaurentPoly
    sign_fixed: bool

    def matches(self, other: LaurentPoly) -> bool:
        if self.sign_fixed:
            return self.poly == other
        return self.poly == other or self.poly == -other


# -- arcs and the relation matrix ---------------------------------------------


def _arc_classes(d: LinkDiagram) -> dict[int, int]:
    """Map each edge to its arc id: union-find over the edges joined through
    overstrand passes, arcs numbered in the order of their least edge."""
    parent = {e: e for c in d.crossings for e in c.edges()}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in d.crossings:
        rx, ry = find(c.over_in), find(c.over_out)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    least = {e: find(e) for e in parent}
    index = {r: i for i, r in enumerate(sorted(set(least.values())))}
    return {e: index[r] for e, r in least.items()}


def _bareiss_det(m: list[list[LaurentPoly]]) -> LaurentPoly:
    """Fraction-free determinant over the polynomial ring."""
    k = len(m)
    if k == 0:
        return one()
    m = [row[:] for row in m]
    sign = 1
    prev = one()
    for r in range(k - 1):
        piv = None
        for i in range(r, k):
            for j in range(r, k):
                if not m[i][j].is_zero():
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            return zero()
        pi, pj = piv
        if pi != r:
            m[r], m[pi] = m[pi], m[r]
            sign = -sign
        if pj != r:
            for row in m:
                row[r], row[pj] = row[pj], row[r]
            sign = -sign
        for i in range(r + 1, k):
            for j in range(r + 1, k):
                num = m[i][j] * m[r][r] - m[i][r] * m[r][j]
                m[i][j] = exact_div(num, prev) if not num.is_zero() else zero()
        prev = m[r][r]
    det = m[k - 1][k - 1]
    return det if sign > 0 else -det


def alex_matrix_poly(d: LinkDiagram) -> AlexClass:
    """Alexander class from the Wirtinger relation matrix.

    Split diagrams give the zero class; the 0-crossing unknot gives 1.
    Raises ``DiagramError`` on an invalid diagram.
    """
    validate(d)
    ell = d.components
    if not d.crossings:
        return AlexClass.of(one(), ell) if d.unknot_count == 1 else AlexClass(zero(), ell)
    if d.unknot_count:  # a split unknot component
        return AlexClass(zero(), ell)
    arcs = _arc_classes(d)
    n_arcs = max(arcs.values()) + 1
    if n_arcs != len(d.crossings):
        # n_arcs is the crossing count plus the number of components that never
        # pass under, and such a component is split off.  Any other split
        # diagram has a block-diagonal minor with singular blocks: determinant 0.
        return AlexClass(zero(), ell)
    rows: list[list[LaurentPoly]] = []
    for c in d.crossings:
        row = [zero()] * n_arcs
        for a, entry in zip((arcs[c.over_in], arcs[c.under_in], arcs[c.under_out]),
                            _ROW[c.sign]):
            row[a] = row[a] + entry
        rows.append(row)
    return AlexClass.of(_bareiss_det([row[:-1] for row in rows[:-1]]), ell)


def normalize_symmetric(c: AlexClass) -> SymmetricAlex:
    """Center the class so that t -> 1/t acts by (-1)^(ell-1).

    For knots the sign is fixed by value 1 at t = 1; for links the sign
    stays ambiguous.  Raises if no symmetric representative exists.
    """
    if c.is_zero():
        return SymmetricAlex(zero(), True)
    p = c.poly
    _, hi = p.exponent_range("t")  # lowest is 0 by class normalization
    exps = {(e[0] if e else 0): co for e, co in p.terms}
    # reversal must equal (-1)^(ell-1) * p, else no unit can symmetrize
    rev = LaurentPoly.make(("t",), {(hi - e,): co for e, co in exps.items()})
    want = p if (c.ell - 1) % 2 == 0 else -p
    if rev != want:
        raise OracleError("class has no symmetric representative")
    # center: shift every doubled exponent by -hi/2 (i.e. multiply by t^(-deg/2))
    f = LaurentPoly.make(("t",), {(e - hi // 2,): co for e, co in exps.items()})
    if c.ell == 1:
        at_one = sum(co for _, co in f.terms)
        if at_one == 1:
            return SymmetricAlex(f, True)
        if at_one == -1:
            return SymmetricAlex(-f, True)
        raise OracleError(f"knot class evaluates to {at_one} at t=1")
    return SymmetricAlex(f, False)
