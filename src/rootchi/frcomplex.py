"""Chain complexes graded by (1/n)Z over the rationals.

Degrees are stored as integers times n (a generator of degree k/n stores k),
so all grading arithmetic is integral.  The differential raises the degree
by exactly one, i.e. by n stored units, and squares to zero; an optional
integer filtration level per generator must never decrease along the
differential.

A differential is held once, as integer columns over one positive denominator;
checks and elimination run on those integers (scaling keeps kernels and ranks).
Every matrix entry, wherever it enters (complexes, chain and module maps,
``Echelon``, ``kernel``, ``rank``), is an int or another ``numbers.Rational``;
anything else, a bool or a float too, is a shape ComplexError.
Complexes and graded modules are valid by construction: their constructors
(and so ``dataclasses.replace``) run every check, once, on the data that
enters.  Operations whose result is valid whenever their checked inputs are
(shift, cones after the chain-map check, the Koszul tensor, homology as a
complex) assemble it without checking it again.
Homology and the spectral sequence of a filtration are read off one cleared
reduction per block of d (``_pairs``), from the highest degree down: a row's
new pivot pairs its target with a source, a pair lives on the pages up to its
difference in level, and the generators left unpaired with every level 0
count the homology.  Every page, and E_infinity, iterates in sorted
(level, degree) order, whatever the pairing.  Homology representatives and
the graded homology share a second walk (``_quotients``): per degree, one
reduction of d over the gens by level descending gives each Z_p as the kernel
of a prefix, and the cycles that raise the rank of Z_p + B are filed by level;
it never reads the pairing, so E_infinity and graded homology stay two routes.

The Euler characteristic of such a complex lives in the ring of integers of
the cyclotomic field generated by e^(pi*i/n): a generator of degree alpha
contributes e^(pi*i*alpha).  It is invariant under homology, degree-zero
cones and acyclic summands, and a downward shift by 1/n multiplies it by
e^(-pi*i/n); those facts are what the verification suite exercises.
"""

from __future__ import annotations

import json
from bisect import bisect
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, compress
from math import gcd, lcm
from numbers import Rational

from .cyclo import CycloNum, root_sum
from .laurent import _parse_fraction
from .linkdiag import ResourceBoundError

Matrix = tuple[tuple[Fraction, ...], ...]
Columns = tuple[dict[int, int], ...]   # cols[j][i]: nonzero integer entry (i, j)
_ZERO = Fraction(0)
_INT = {int}
_EXACT = {int, Fraction}
# largest n read from JSON or the command line: the power table of
# Q(zeta_2n) holds 2n * phi(2n) integers, so its time and memory grow as n^2
MAX_N = 200
MAX_FILTRATION_WIDTH = 1000  # spectral_sequence keeps width + 2 pages


class ComplexError(ValueError):
    """Invalid complex data; ``kind`` is one of degree / d2 / filtration / shape."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _integral(row, i: int | None = None) -> tuple[list[int], int]:
    """The one reader of entries: a row as integers over the lcm of its
    denominators, an all-int row as it is, over 1.  An entry that is not an int
    or another ``numbers.Rational``, in a zero slot too, is a shape ComplexError."""
    kinds = set(map(type, row))
    if kinds <= _INT:
        return row, 1
    if not kinds <= _EXACT:
        for j, x in enumerate(row):
            if type(x) is bool or not isinstance(x, Rational):
                raise ComplexError("shape", f"entry {j if i is None else (i, j)} is the "
                                            f"{type(x).__name__} {x!r}, not an int or a Fraction")
    nonzero = list(compress(range(len(row)), row))
    den = lcm(*[row[j].denominator for j in nonzero])
    out = [0] * len(row)
    for j in nonzero:
        out[j] = row[j].numerator * (den // row[j].denominator)
    return out, den


def _columns(rows, nrows: int, ncols: int) -> tuple[Columns, int]:
    """Read a dense matrix once: its nonzero entries as integer columns over
    the lcm of their denominators.  The types of the whole matrix are read
    once.  An all-int matrix is taken as it is; otherwise the nonzero entries,
    column by column, go through ``_integral`` as one row, and only a matrix
    holding another type has each row checked by ``_integral`` in turn."""
    if len(rows) != nrows:
        raise ComplexError("shape", f"expected {nrows} rows, got {len(rows)}")
    kinds = set(map(type, chain.from_iterable(rows)))
    cols: list[dict] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ComplexError("shape", f"expected {ncols} columns, got {len(row)}")
        if not kinds <= _EXACT:
            _integral(row, i)
        for j in compress(range(ncols), row):
            cols[j][i] = row[j]
    if kinds <= _INT:
        return tuple(cols), 1
    values, den = _integral([x for col in cols for x in col.values()])
    values = iter(values)
    return tuple({i: next(values) for i in col} for col in cols), den


def _dense(cols: Columns, den: int) -> Matrix:
    """The square Fraction matrix cols / den, by rows."""
    return tuple(tuple(Fraction(col[i], den) if i in col else _ZERO for col in cols)
                 for i in range(len(cols)))


def _check_n(n) -> None:
    if type(n) is bool or not isinstance(n, int) or n < 1:
        raise ComplexError("shape", f"n must be an integer >= 1, got {n!r}")


def _integers(values, what: str) -> tuple[int, ...]:
    """Degrees and filtration levels: plain integers only, never truncated."""
    values = tuple(values)
    for x in values:
        if type(x) is bool or not isinstance(x, int):
            raise ComplexError("shape", f"{what} must be an integer, got {x!r}")
    return values


def _width(filtration) -> int:
    """The spread of the filtration levels, at most ``MAX_FILTRATION_WIDTH``."""
    width = max(filtration) - min(filtration) if filtration else 0
    if width > MAX_FILTRATION_WIDTH:
        raise ResourceBoundError(f"filtration width exceeds the bound {MAX_FILTRATION_WIDTH}")
    return width


def _residual(a: Columns, x: dict, b: Columns, y: dict) -> dict:
    """The nonzero entries of a x - b y, for matrices given by their nonzero
    integer columns and sparse integer vectors x and y."""
    out: dict = {}
    for k, v in x.items():
        for i, w in a[k].items():
            out[i] = out.get(i, 0) + w * v
    for k, v in y.items():
        for i, w in b[k].items():
            out[i] = out.get(i, 0) - w * v
    return {i: v for i, v in out.items() if v}


def _moved(col: dict, scale: int, offset: int = 0) -> dict:
    """col scaled and its rows moved down by offset; col itself when that
    changes nothing (columns are never mutated once built)."""
    if scale == 1 and not offset:
        return col
    return {i + offset: v * scale for i, v in col.items()}


def _names(names, m: int) -> tuple[str, ...]:
    """Generator names, x0, x1, ... when none are given."""
    if names is None:
        return tuple(f"x{i}" for i in range(m))
    names = tuple(names)
    if len(names) != m:
        raise ComplexError("shape", "name count does not match generators")
    return names


@dataclass(frozen=True, init=False)
class FracComplex:
    """A (1/n)Z-graded complex, valid by construction.

    The constructor, and so ``dataclasses.replace``, runs every check of
    ``build`` and raises ComplexError with the failing invariant.  It holds
    d = ``cols`` / ``den``, read from the dense ``diff`` given; ``diff`` is a
    view built when first read.  ``names`` may be None for x0, x1, ...
    """

    n: int
    degrees: tuple[int, ...]          # degree*n per generator
    diff: Matrix                      # diff[i][j]: coefficient of gen i in d(gen j)
    names: tuple[str, ...]
    filtration: tuple[int, ...] | None = None

    def __init__(self, n, degrees, diff, names, filtration=None):
        _check_n(n)
        degrees = _integers(degrees, "degree")
        m = len(degrees)
        cols, den = _columns(diff, m, m)
        names = _names(names, m)
        for j in range(m):
            for i in cols[j]:
                if degrees[i] != degrees[j] + n:
                    raise ComplexError(
                        "degree",
                        f"d({names[j]}) hits {names[i]}: degree step "
                        f"{Fraction(degrees[i] - degrees[j], n)} instead of 1")
        # d^2 = 0 in integers: cols squares to d^2 scaled by den squared
        for j, col in enumerate(cols):
            for i, v in _residual(cols, col, cols, {}).items():
                raise ComplexError("d2", f"d^2({names[j]}) has {names[i]}-coefficient "
                                         f"{Fraction(v, den * den)}")
        if filtration is not None:
            filtration = _integers(filtration, "filtration level")
            if len(filtration) != m:
                raise ComplexError("shape", "filtration length does not match generators")
            for j in range(m):
                for i in cols[j]:
                    if filtration[i] < filtration[j]:
                        raise ComplexError(
                            "filtration",
                            f"d({names[j]}) drops filtration {filtration[j]} -> {filtration[i]}")
        vars(self).update(n=n, degrees=degrees, names=names, filtration=filtration,
                          cols=cols, den=den)

    def __getattr__(self, name):
        if name != "diff":
            raise AttributeError(name)
        diff = vars(self)["diff"] = _dense(self.cols, self.den)
        return diff

    @property
    def dim(self) -> int:
        return len(self.degrees)


def _complex(n, degrees, names, filtration, cols: Columns, den: int) -> FracComplex:
    """A FracComplex holding d = cols / den as given, unchecked: only for
    data that is valid by construction from checked complexes."""
    c = object.__new__(FracComplex)
    vars(c).update(n=n, degrees=degrees, names=names, filtration=filtration,
                   cols=cols, den=den)
    return c


def _free(n: int, degrees: tuple[int, ...], names=None) -> FracComplex:
    """The complex with zero differential on integer ``degrees``."""
    return _complex(n, degrees, _names(names, len(degrees)), None,
                    tuple({} for _ in degrees), 1)


def build(n: int, degrees, diff, filtration=None, names=None) -> FracComplex:
    """Validate and build; raises ComplexError with the failing invariant."""
    return FracComplex(n, degrees, diff, names, filtration)


# -- exact elimination ------------------------------------------------------------


def _eliminate(a: list[int], b: list[int], c: int) -> list[int]:
    """Row a with column c cleared by row b (b[c] != 0), divided by its content."""
    g = gcd(a[c], b[c])
    p, q = b[c] // g, a[c] // g
    out = [x * p - y * q for x, y in zip(a, b)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


class Echelon:
    """Row echelon form of rational rows, kept over the integers.

    ``add`` reads a row with the module's one entry rule (an all-int row as it
    is, ``numbers.Rational`` entries scaled by the lcm of the row's
    denominators, any other entry a shape ComplexError) and reduces it against
    the stored rows with fraction-free integer row operations (as in Bareiss
    1968), dividing out each row's content to keep entries small; ``place``
    does the same and returns the new pivot.  Fractions appear only where
    ``rref`` and ``kernel`` divide by the pivots.  Rows stay sorted by pivot
    column and span exactly the rows added.  The first row read sets the
    width; a later row of another width is a shape ComplexError.
    """

    def __init__(self, rows=()):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self._width: int | None = None
        for row in rows:
            self.add(row)

    def add(self, row) -> bool:
        """Add a row; True when it is independent of the rows added before."""
        return self.place(row) is not None

    def place(self, row) -> int | None:
        """Add a row; the column of its new pivot, or None when it depends on
        the rows added before."""
        v, _ = _integral(row)
        if self._width is None:
            self._width = len(v)
        elif len(v) != self._width:
            raise ComplexError("shape", f"row of width {len(v)} after rows of width {self._width}")
        for r, pc in zip(self.rows, self.pivots):
            if v[pc]:
                v = _eliminate(v, r, pc)
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return None
        g = gcd(*v)
        k = bisect(self.pivots, lead)
        self.rows.insert(k, [x // g for x in v])
        self.pivots.insert(k, lead)
        return lead

    def reduced(self) -> list[list[int]]:
        """Integer rows that are zero in every other row's pivot column: the
        reduced row echelon form up to one scale factor per row."""
        rows = list(self.rows)
        for k in range(len(rows) - 1, 0, -1):
            pc = self.pivots[k]
            for i in range(k):
                if rows[i][pc]:
                    rows[i] = _eliminate(rows[i], rows[k], pc)
        return rows

    def rref(self) -> list[list[Fraction]]:
        """The reduced row echelon form, one row per pivot."""
        return [[Fraction(x, r[pc]) for x in r] for r, pc in zip(self.reduced(), self.pivots)]


def _null_space(ech: Echelon, ncols: int) -> list[tuple[int, list[int]]]:
    """Per free column c, the integer kernel vector w with w[c] > 0 and zeros
    at the other free columns; w / w[c] is the kernel vector with 1 at c."""
    reduced, pivots = ech.reduced(), ech.pivots
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        hits = [(row[fc], row[pc], pc) for row, pc in zip(reduced, pivots) if row[fc]]
        w = [0] * ncols
        w[fc] = scale = lcm(*(p for _, p, _ in hits))
        for a, p, pc in hits:
            w[pc] = -a * (scale // p)
        basis.append((fc, w))
    return basis


def rank(rows) -> int:
    """Rank of rational rows, read by the module's one entry rule."""
    return len(Echelon(rows).pivots)


def kernel(matrix, ncols: int) -> list[list[Fraction]]:
    """Basis of the null space of the matrix (rows = constraints), one vector
    per free column, read off the unique reduced row echelon form; entries
    are read by the module's one entry rule, and every row is ``ncols`` wide."""
    ech = Echelon(matrix)
    if ech._width not in (None, ncols):
        raise ComplexError("shape", f"rows of width {ech._width}, not {ncols}")
    return [[Fraction(x, w[fc]) if x else _ZERO for x in w]
            for fc, w in _null_space(ech, ncols)]


def _by_degree(c: FracComplex) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, u in enumerate(c.degrees):
        out.setdefault(u, []).append(i)
    return out


def _block(c: FracComplex, rows: list[int], cols: list[int]):
    """The integer block of d from gens ``cols`` to gens ``rows``, row by row."""
    picked = [c.cols[j] for j in cols]
    return ([col.get(i, 0) for col in picked] for i in rows)


def _pairs(c: FracComplex, levels: tuple[int, ...]) -> list[int | None]:
    """Per generator, level(y) - level(x) of the pair (x, y) it lies in, or
    None when it is unpaired.

    The blocks of d run from the highest degree down, one ``Echelon`` each:
    the sources C_u are its columns by level descending, and the targets
    C_(u+n) are added as rows by level ascending, ties by index both ways; a
    row's new pivot at column k pairs its target with the source at k.  The
    orders drive fill-in: sorting each degree once and reversing that order
    for the sources, which breaks ties the other way, made ``homology`` about
    1.6-1.7x slower in process on the benchmark's complexes.
    Clearing skips the targets paired as sources in the block above: d^2 = 0
    makes each such row a combination of rows of targets of no higher level,
    so no rank between filtration levels, and no page, changes.
    """
    by_degree = _by_degree(c)
    gaps: list[int | None] = [None] * c.dim
    for u in sorted(by_degree, reverse=True):
        if u + c.n in by_degree:
            sources = sorted(by_degree[u], key=levels.__getitem__, reverse=True)
            rows = [y for y in sorted(by_degree[u + c.n], key=levels.__getitem__)
                    if gaps[y] is None]
            ech = Echelon()
            for y, row in zip(rows, _block(c, rows, sources)):
                k = ech.place(row)
                if k is not None:
                    x = sources[k]
                    gaps[x] = gaps[y] = levels[y] - levels[x]
    return gaps


def _scatter(v, positions: list[int], size: int) -> list[int]:
    out = [0] * size
    for x, k in zip(v, positions):
        out[k] = x
    return out


def _quotients(c: FracComplex, filtration) -> dict[tuple[int, int], list[tuple[int, list[int]]]]:
    """Per (level p, degree u), the integer cycles over the gens of C_u that
    raised the rank of Z_p + B, B the image of d, each with its free column.

    In each degree the block of d is reduced once over the gens by level
    descending, ties by index, so each filtered part F_p is a prefix, and the
    kernel vectors of its free columns, zero past them, span Z_p.  One
    ``Echelon`` seeded with B takes them in column order and files each that
    raises its rank under its free column's level, so the cycles at p span
    (Z_p + B) / (Z_(p+1) + B).  Keys run by degree in order of first
    appearance, then by level ascending.
    """
    by_degree = _by_degree(c)
    out: dict[tuple[int, int], list[tuple[int, list[int]]]] = {}
    for u, gens in by_degree.items():
        order = sorted(range(len(gens)), key=lambda k: -filtration[gens[k]])
        block = _block(c, by_degree.get(u + c.n, []), [gens[k] for k in order])
        ech = Echelon([c.cols[j].get(i, 0) for i in gens] for j in by_degree.get(u - c.n, []))
        found: dict[int, list[tuple[int, list[int]]]] = {}
        for fc, w in _null_space(Echelon(block), len(gens)):
            if ech.add(v := _scatter(w, order, len(gens))):
                found.setdefault(filtration[gens[order[fc]]], []).append((order[fc], v))
        out.update(((p, u), vectors) for p, vectors in reversed(found.items()))
    return out


# -- core operations -------------------------------------------------------------


def shift(c: FracComplex, units: int) -> FracComplex:
    """Shift degrees downward by units/n (the translation functor is units = n)."""
    return _complex(c.n, tuple(u - units for u in c.degrees), c.names, c.filtration,
                    c.cols, c.den)


def euler_char(c: FracComplex) -> CycloNum:
    """Sum of e^(pi*i*deg) over generators, an element of Z[e^(pi*i/n)]."""
    return root_sum(c.n, ((u, 1) for u in c.degrees))


def chi_of_dims(n: int, dims: dict[int, int]) -> CycloNum:
    """Euler characteristic of a fractional dimension table (units -> dim)."""
    return root_sum(n, dims.items())


@dataclass(frozen=True)
class HomologyResult:
    """Homology dimensions of ``source`` (degree units -> dim, ascending,
    nonzero only); its representative cycles per degree are built when first
    read."""

    dims: dict[int, int]
    source: FracComplex = field(repr=False, compare=False)

    @cached_property
    def representatives(self) -> dict[int, list[tuple[Fraction, ...]]]:
        """Per degree, ascending, the cycles ``_quotients`` finds with every
        level 0 (one reduction of the block of d, in generator order), each
        scaled to 1 at its free column, over all generators."""
        c = self.source
        by_degree = _by_degree(c)
        return {u: [tuple(Fraction(x, w[fc]) if x else _ZERO
                          for x in _scatter(w, by_degree[u], c.dim)) for fc, w in vectors]
                for (_, u), vectors in sorted(_quotients(c, (0,) * c.dim).items())}


def homology(c: FracComplex) -> HomologyResult:
    """Degree-indexed homology dimensions with representative cycles.

    The dimensions count the generators ``_pairs`` leaves unpaired with every
    level 0: each pivot pairs a source with a target, and clearing pairs a
    generator at most once, so degree u keeps |C_u| - rank d_u - rank d_(u-1).
    The representatives are built when first read (``rootchi complex hom``
    never reads them) by the walk that also gives ``graded_homology_dims``,
    with every level 0: in each degree, the kernel basis vectors that are
    independent of the image and of the representatives chosen before them.
    """
    unpaired = Counter(u for u, gap in zip(c.degrees, _pairs(c, (0,) * c.dim)) if gap is None)
    return HomologyResult(dict(sorted(unpaired.items())), c)


def homology_complex(c: FracComplex) -> FracComplex:
    """Homology as a complex with zero differential (for chaining)."""
    dims = homology(c).dims  # ascending in degree
    return _free(c.n, tuple(u for u, k in dims.items() for _ in range(k)))


def cone(f_matrix, x: FracComplex, y: FracComplex) -> FracComplex:
    """Mapping cone of a degree-zero chain map f: X -> Y.

    Generators are X shifted down by one followed by Y; the characteristic
    satisfies chi(cone) = chi(Y) - chi(X).  Only f is checked: with X and Y
    valid, a degree-preserving chain map makes d = [[-d_X, 0], [f, d_Y]]
    raise the degree by one and square to zero.
    """
    if x.n != y.n:
        raise ComplexError("shape", "root orders differ")
    f, f_den = _columns(f_matrix, y.dim, x.dim)
    for j in range(x.dim):
        for i in f[j]:
            if y.degrees[i] != x.degrees[j]:
                raise ComplexError("degree", "chain map is not degree preserving")
    # f d_X = d_Y f, walking nonzero entries only; with f = F/f_den and
    # d = D/den, in integers: y.den * (F D_X) = x.den * (D_Y F)
    for j in range(x.dim):
        if _residual(f, _moved(x.cols[j], y.den), y.cols, _moved(f[j], x.den)):
            raise ComplexError("d2", "not a chain map")
    den = lcm(x.den, y.den, f_den)
    cols = tuple({**_moved(dx, -(den // x.den)), **_moved(fx, den // f_den, x.dim)}
                 for dx, fx in zip(x.cols, f))
    cols += tuple(_moved(dy, den // y.den, x.dim) for dy in y.cols)
    degrees = tuple(u - x.n for u in x.degrees) + y.degrees
    names = tuple(f"x:{s}" for s in x.names) + tuple(f"y:{s}" for s in y.names)
    return _complex(x.n, degrees, names, None, cols, den)


def unknot_hfkn(n: int) -> FracComplex:
    """n generators in degrees (1-n)/n, (3-n)/n, ..., (n-1)/n, zero differential."""
    _check_n(n)
    degs = [(1 - n) + 2 * k for k in range(n)]
    names = [f"U^{k}" for k in range(n)]
    return _free(n, tuple(degs), names)


# -- graded modules and the Koszul cube ------------------------------------------


@dataclass(frozen=True, init=False)
class GradedModule:
    """Finite-dimensional graded module with commuting degree-(2/n) maps,
    valid by construction: the constructor, and so ``dataclasses.replace``,
    runs every check of ``build_module``.  It holds each map U_t as ``maps[t]``
    = (cols, den), read from the dense ``endos`` given; ``endos`` is a view
    built when first read."""

    n: int
    degrees: tuple[int, ...]
    endos: tuple[Matrix, ...]

    def __init__(self, n, degrees, endos):
        _check_n(n)
        degrees = _integers(degrees, "degree")
        m = len(degrees)
        maps = tuple(_columns(e, m, m) for e in endos)
        cols = [col for col, _ in maps]
        for t, col in enumerate(cols):
            for j in range(m):
                if any(degrees[i] != degrees[j] + 2 for i in col[j]):
                    raise ComplexError("degree", f"U_{t} does not raise degree by 2/n")
        # U_s U_t and U_t U_s carry the same scale, the product of the two denominators
        for (s, a), (t, b) in combinations(enumerate(cols), 2):
            if any(_residual(a, b[j], b, a[j]) for j in range(m)):
                raise ComplexError("d2", f"U_{s} and U_{t} do not commute")
        vars(self).update(n=n, degrees=degrees, maps=maps)

    def __getattr__(self, name):
        if name != "endos":
            raise AttributeError(name)
        endos = vars(self)["endos"] = tuple(_dense(c, d) for c, d in self.maps)
        return endos

    @property
    def dim(self) -> int:
        return len(self.degrees)


def build_module(n: int, degrees, endos) -> GradedModule:
    """Validate and build; raises ComplexError with the failing invariant."""
    return GradedModule(n, degrees, endos)


def koszul_tensor(mod: GradedModule) -> FracComplex:
    """Tensor with the Koszul cube that kills the module maps.

    Vertices are subsets S of the maps; the copy at S not containing i is
    shifted down by 1 - 2/n per missing map, and the edge in direction i
    applies U_i with the usual alternating sign.  The subset size is the
    filtration level, which the differential raises by one.  Nothing is
    checked again: the module's degree and commuting checks make every edge
    raise the degree by one and d square to zero.
    """
    k = len(mod.maps)
    n, m = mod.n, mod.dim
    subsets = sorted(range(1 << k), key=lambda s: (bin(s).count("1"), s))
    index = {}
    degrees = []
    filt = []
    names = []
    for s in subsets:
        size = bin(s).count("1")
        for g in range(m):
            index[(s, g)] = len(degrees)
            degrees.append(mod.degrees[g] - (k - size) * (n - 2))
            filt.append(size)
            names.append(f"g{g}@{s:0{max(k, 1)}b}")
    # each entry of d comes from one edge, so d's denominator is that of all maps
    den = lcm(*(d for _, d in mod.maps))
    cols: list[dict[int, int]] = [{} for _ in degrees]
    for s in subsets:
        for i in range(k):
            if s & (1 << i):
                continue
            target = s | (1 << i)
            sign = (-1) ** bin(s & ((1 << i) - 1)).count("1")
            u, u_den = mod.maps[i]
            for g in range(m):
                col = cols[index[(s, g)]]
                for h, v in u[g].items():
                    col[index[(target, h)]] = sign * v * (den // u_den)
    return _complex(n, tuple(degrees), tuple(names), tuple(filt), tuple(cols), den)


# -- spectral sequence of a filtered complex --------------------------------------


@dataclass(frozen=True)
class SpectralSequence:
    n: int
    pages: tuple[dict[tuple[int, int], int], ...]  # (level, degree units) -> dim
    stabilization: int
    infinity: dict[tuple[int, int], int]

    def page_chi(self, r: int) -> CycloNum:
        return root_sum(self.n, ((u, d) for (_, u), d in self.pages[r].items()))

    def degreewise(self, r: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for (_, u), d in self.pages[r].items():
            out[u] = out.get(u, 0) + d
        return dict(sorted(out.items()))


def spectral_sequence(c: FracComplex) -> SpectralSequence:
    """Pages of the filtration spectral sequence, read off the persistence
    pairing that ``_pairs`` gives with the filtration's levels.

    A pair (x, y) lives on the pages r <= level(y) - level(x), and d_r with
    r = level(y) - level(x) kills it; an unpaired generator lives on every
    page.  Page 0 is the associated graded and E_infinity is page width + 1;
    a width above ``MAX_FILTRATION_WIDTH`` is a ResourceBoundError.  Pages
    are filled in sorted (level, degree) order, so every page iterates sorted.
    """
    filtration = c.filtration or (0,) * c.dim
    last = _width(filtration) + 1
    pages: list[dict[tuple[int, int], int]] = [{} for _ in range(last + 1)]
    for key, top in sorted(((p, u), last if gap is None else gap)
                           for p, u, gap in zip(filtration, c.degrees, _pairs(c, filtration))):
        for page in pages[:top + 1]:
            page[key] = page.get(key, 0) + 1
    infinity = pages[last]
    stab = next(r for r in range(last + 1) if pages[r] == infinity)
    return SpectralSequence(c.n, tuple(pages), stab, infinity)


def graded_homology_dims(c: FracComplex) -> dict[tuple[int, int], int]:
    """Dimensions of the filtration's associated graded on homology: per
    (p, u), the cycles ``_quotients`` files under level p, one reduction per
    degree, in the walk that also gives the homology representatives.  It
    never reads the pairing, so it stays a second route to E_infinity."""
    return {key: len(vectors)
            for key, vectors in _quotients(c, c.filtration or (0,) * c.dim).items()}


# -- JSON form ---------------------------------------------------------------------


def complex_to_json(c: FracComplex) -> str:
    gens = []
    for i in range(c.dim):
        g: dict = {"name": c.names[i], "deg_times_n": c.degrees[i]}
        if c.filtration is not None:
            g["filt"] = c.filtration[i]
        gens.append(g)
    rows = [[str(x) for x in row] for row in c.diff]
    return json.dumps({"n": c.n, "generators": gens, "differential": rows}, indent=1)


def complex_from_json(text: str) -> FracComplex:
    try:
        data = json.loads(text)
    except ValueError as e:  # also an integer literal over int()'s digit limit
        raise ComplexError("shape", f"bad JSON: {e}")
    try:
        n = data["n"]
        gens = data["generators"]
        degrees = [g["deg_times_n"] for g in gens]
        names = [g.get("name", f"x{i}") for i, g in enumerate(gens)]
        filts = [g.get("filt") for g in gens]
        rows = [[_parse_fraction(str(x)) for x in row] for row in data["differential"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ComplexError("shape", f"bad complex JSON: {e}")
    filtration = None
    if any(f is not None for f in filts):
        filtration = [f if f is not None else 0 for f in filts]
    c = build(n, degrees, rows, filtration=filtration, names=names)
    if c.n > MAX_N:
        raise ResourceBoundError(f"n = {c.n} exceeds the bound {MAX_N}")
    _width(c.filtration)
    return c
