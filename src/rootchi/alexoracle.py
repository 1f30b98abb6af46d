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
from .linkdiag import LinkDiagram

_T = var("t")


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


def _classes(d: LinkDiagram, joins) -> dict[int, int]:
    """Union-find over the edges of ``d``: each edge mapped to the least edge
    it is joined to through the edge pairs in ``joins``."""
    parent = {e: e for c in d.crossings for e in c.edges()}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in joins:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return {e: find(e) for e in parent}


def _arc_classes(d: LinkDiagram) -> dict[int, int]:
    """Map each edge to its arc id (edges joined through overstrand passes)."""
    least = _classes(d, ((c.over_in, c.over_out) for c in d.crossings))
    index = {r: i for i, r in enumerate(sorted(set(least.values())))}
    return {e: index[r] for e, r in least.items()}


def _is_connected(d: LinkDiagram) -> bool:
    if d.unknot_count and d.crossings:
        return False
    if d.unknot_count > 1:
        return False
    if not d.crossings:
        return True
    least = _classes(d, ((c.under_in, e) for c in d.crossings for e in c.edges()[1:]))
    return len(set(least.values())) == 1


def _component_passes_under(d: LinkDiagram) -> bool:
    """Every component must pass under somewhere, else the link is split."""
    from .linkdiag import _component_cycles  # traversal helper

    under_edges = set()
    for c in d.crossings:
        under_edges.add(c.under_in)
        under_edges.add(c.under_out)
    for cyc in _component_cycles(d.crossings):
        if not any(e in under_edges for e in cyc):
            return False
    return True


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
    """
    ell = d.components
    if not d.crossings:
        return AlexClass.of(one(), ell) if d.unknot_count == 1 else AlexClass(zero(), ell)
    if not _is_connected(d) or not _component_passes_under(d):
        return AlexClass(zero(), ell)
    arcs = _arc_classes(d)
    n_arcs = max(arcs.values()) + 1
    rows: list[list[LaurentPoly]] = []
    for c in d.crossings:
        row = [zero()] * n_arcs
        o, x, y = arcs[c.over_in], arcs[c.under_in], arcs[c.under_out]
        if c.sign > 0:
            row[o] = row[o] + (one() - _T)
            row[x] = row[x] + _T
            row[y] = row[y] - one()
        else:
            row[o] = row[o] + (_T - one())
            row[x] = row[x] + one()
            row[y] = row[y] - _T
        rows.append(row)
    if n_arcs != len(d.crossings):
        # an arc count mismatch means some component never goes under
        return AlexClass(zero(), ell)
    minor = [row[:-1] for row in rows[:-1]] if n_arcs > 1 else []
    det = _bareiss_det(minor) if n_arcs > 1 else one()
    return AlexClass.of(det, ell)


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
