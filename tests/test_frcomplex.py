import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootchi import frcomplex
from rootchi.cyclo import CycloNum, root
from rootchi.frcomplex import (MAX_FILTRATION_WIDTH, ComplexError, Echelon, build, build_module,
                               chi_of_dims, complex_from_json, complex_to_json,
                               cone, euler_char, graded_homology_dims, homology,
                               homology_complex, kernel, koszul_tensor, rank,
                               shift, spectral_sequence, unknot_hfkn)
from rootchi.linkdiag import ResourceBoundError
from rootchi.synth import random_chain_map, random_complex, random_graded_module
from test_homology_clearing import filtered_identity_cone

F = Fraction


def test_build_examples():
    assert build(1, [0], [[0]]).dim == 1
    acyclic = build(1, [0, 1], [[0, 0], [1, 0]])
    assert homology(acyclic).dims == {}
    with pytest.raises(ComplexError) as err:
        build(2, [0, 1], [[0, 0], [1, 0]])  # degree step 1/2
    assert err.value.kind == "degree"


def test_build_rejects_nonzero_d_squared():
    with pytest.raises(ComplexError) as err:
        build(1, [0, 1, 2], [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert err.value.kind == "d2"


def test_build_rejects_filtration_drop():
    with pytest.raises(ComplexError) as err:
        build(1, [0, 1], [[0, 0], [1, 0]], filtration=[1, 0])
    assert err.value.kind == "filtration"


def test_shift_examples():
    c = build(3, [0], [[0]])
    assert euler_char(shift(c, 1)) == root(3, -1)
    assert shift(c, 0) == c
    assert shift(shift(c, 1), -1) == c


def test_cone_examples():
    x = build(2, [0], [[0]])
    ident = cone([[1]], x, x)
    assert homology(ident).dims == {}
    assert euler_char(ident) == 0
    zero_map = cone([[0]], x, x)
    assert euler_char(zero_map) == 0
    assert homology(zero_map).dims == {-2: 1, 0: 1}
    with pytest.raises(ComplexError):
        cone([[1]], x, build(2, [1], [[0]]))


def test_homology_examples():
    acyclic = build(1, [0, 1], [[0, 0], [1, 0]])
    assert homology(acyclic).dims == {}
    lazy = build(1, [0, 0, 1], [[0] * 3] * 3)
    assert homology(lazy).dims == {0: 2, 1: 1}
    # one-variable Koszul on the truncated polynomial module
    m = build_module(2, [0, 2, 4], [[[0, 0, 0], [1, 0, 0], [0, 1, 0]]])
    k = koszul_tensor(m)
    h = homology(k)
    assert sum(h.dims.values()) == 2
    assert h.dims == {0: 1, 4: 1}  # cokernel at the bottom, kernel at the top


def test_euler_char_examples():
    assert euler_char(unknot_hfkn(1)) == 1
    for n in range(2, 9):
        assert euler_char(unknot_hfkn(n)) == 0
    single = build(2, [1], [[0]])
    assert single.degrees == (1,)
    assert euler_char(single) == root(2, 1)  # e^(pi i/2) = i


def test_unknot_hfkn_degrees():
    assert unknot_hfkn(2).degrees == (-1, 1)
    assert unknot_hfkn(1).degrees == (0,)
    assert unknot_hfkn(3).degrees == (-2, 0, 2)


def test_koszul_examples():
    m = build_module(2, [0, 2, 4], [[[0, 0, 0], [1, 0, 0], [0, 1, 0]]])
    zero_rows = [[0] * 3 for _ in range(3)]
    chi_m = euler_char(build(2, [0, 2, 4], zero_rows))
    assert chi_m == 1
    assert euler_char(koszul_tensor(m)) == (CycloNum.from_rational(1) - root(2, 2)) * chi_m
    # empty tensor: no endomorphisms leaves the module untouched
    m0 = build_module(3, [0, 1], [])
    k0 = koszul_tensor(m0)
    assert k0.degrees == (0, 1)
    assert all(x == 0 for row in k0.diff for x in row)


def test_koszul_validation():
    with pytest.raises(ComplexError):
        build_module(2, [0, 1], [[[0, 0], [1, 0]]])  # wrong degree step
    bad_commute = [
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0]],
    ]
    with pytest.raises(ComplexError):
        build_module(2, [0, 2, 2, 4], bad_commute)


def test_spectral_sequence_two_level_example():
    c = build(2, [0, 2], [[0, 0], [1, 0]], filtration=[0, 1])
    ss = spectral_sequence(c)
    assert ss.pages[0] == {(0, 0): 1, (1, 2): 1}
    assert ss.pages[1] == {(0, 0): 1, (1, 2): 1}
    assert ss.pages[2] == {}
    assert ss.stabilization == 2
    assert all(ss.page_chi(r) == 0 for r in range(len(ss.pages)))
    assert ss.infinity == graded_homology_dims(c)


def test_spectral_sequence_unfiltered_is_homology():
    c = build(1, [0, 1, 1], [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    ss = spectral_sequence(c)
    assert ss.degreewise(len(ss.pages) - 1) == homology(c).dims
    assert ss.stabilization <= 1


def test_spectral_sequence_zero_maps_stabilize_immediately():
    m = build_module(2, [0, 2], [[[0, 0], [0, 0]]])  # U = 0
    k = koszul_tensor(m)
    ss = spectral_sequence(k)
    assert ss.stabilization == 0
    assert ss.degreewise(0) == dict(
        sorted({u: k.degrees.count(u) for u in set(k.degrees)}.items()))


def test_json_round_trip():
    c = build(3, [0, 3], [[0, 0], [F(2, 3), 0]], filtration=[0, 1], names=["a", "b"])
    assert complex_from_json(complex_to_json(c)) == c
    with pytest.raises(ComplexError):
        complex_from_json("{not json")
    with pytest.raises(ComplexError):
        complex_from_json("{\"n\": 1}")


def test_random_batches_small():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 8)
        c = random_complex(rng, n, max_dim=10)
        assert euler_char(c) == chi_of_dims(n, homology(c).dims)
        # chi of an integer-dimension complex lies in the integer subring
        assert euler_char(c).is_integral()
        y = random_complex(rng, n, max_dim=6)
        f = random_chain_map(rng, c, y)
        assert euler_char(cone(f, c, y)) == euler_char(y) - euler_char(c)


def test_acyclic_summand_invariance():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 6)
        c = random_complex(rng, n, max_dim=8)
        deg = rng.randint(-4, 4)
        m = c.dim
        degrees = list(c.degrees) + [deg, deg + n]
        rows = [list(row) + [F(0), F(0)] for row in c.diff]
        rows.append([F(0)] * (m + 2))
        rows.append([F(0)] * m + [F(3), F(0)])
        bigger = build(n, degrees, rows)
        assert euler_char(bigger) == euler_char(c)
        assert homology(bigger).dims == homology(c).dims


def test_build_rejects_non_integer_grading_data():
    for bad in [dict(n="2"), dict(n=True), dict(degrees=[1.5]), dict(degrees=[True]),
                dict(degrees=[F(1)]), dict(filtration=[0.5])]:
        args = dict(n=2, degrees=[0], diff=[[0]], filtration=None) | bad
        with pytest.raises(ComplexError) as err:
            build(**args)
        assert err.value.kind == "shape"
    for bad in [dict(n="2"), dict(degrees=[2.0, 0])]:
        args = dict(n=2, degrees=[0, 2], endos=[]) | bad
        with pytest.raises(ComplexError) as err:
            build_module(**args)
        assert err.value.kind == "shape"


def test_build_rejects_float_entries():
    with pytest.raises(ComplexError) as err:
        build(1, [0, 1], [[0, 0], [0.1, 0]])
    assert err.value.kind == "shape"


def test_cone_rejects_float_map_entries():
    x = build(1, [0], [[0]])
    with pytest.raises(ComplexError) as err:
        cone([[0.5]], x, x)
    assert err.value.kind == "shape"


def test_build_module_rejects_float_entries():
    with pytest.raises(ComplexError) as err:
        build_module(2, [0, 2], [[[0, 0], [0.25, 0]]])
    assert err.value.kind == "shape"


# -- the elimination kernel against a plain Fraction Gauss-Jordan reference -------


def reference_rref(rows):
    """Textbook Gauss-Jordan elimination over Fraction."""
    rows = [[F(x) for x in r] for r in rows if any(x != 0 for x in r)]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def reference_kernel(rows, ncols):
    reduced, pivots = reference_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


_entries = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 20)))


@st.composite
def _matrices(draw):
    ncols = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["random", "zero", "duplicates"]))
    entry = st.just(F(0)) if kind == "zero" else _entries
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=7))
    if kind == "duplicates" and rows:
        for _ in range(draw(st.integers(1, 3))):
            k = draw(st.integers(0, len(rows) - 1))
            scale = draw(st.sampled_from([F(1), F(-1), F(2, 3)]))
            rows.insert(draw(st.integers(0, len(rows))), [scale * x for x in rows[k]])
    return rows, ncols


@given(_matrices())
@settings(max_examples=300, deadline=None)
def test_elimination_kernel_matches_reference(mat):
    rows, ncols = mat
    want, want_pivots = reference_rref(rows)
    ech = Echelon(rows)
    assert ech.rref() == want
    assert ech.pivots == want_pivots
    assert rank(rows) == len(want_pivots)
    grown = Echelon()
    assert [grown.add(row) for row in rows] == [
        len(reference_rref(rows[:k + 1])[1]) > len(reference_rref(rows[:k])[1])
        for k in range(len(rows))]
    basis = kernel(rows, ncols)
    assert basis == reference_kernel(rows, ncols)
    assert all(type(x) is F for v in basis for x in v)
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for v in basis for row in rows)


def test_ragged_rows_are_a_shape_error():
    for call in (lambda: Echelon([[1, 0, 0], [1, 1]]).rref(),
                 lambda: Echelon([[1, 1], [1, 0, 0]]),
                 lambda: rank([[0, 1], [1, 0, 5]]),
                 lambda: kernel([[1, 2]], 3),
                 lambda: kernel([[1, 0, 0], [0, 1]], 3),
                 lambda: kernel([[1, 2, 3]], 2)):
        with pytest.raises(ComplexError) as err:
            call()
        assert err.value.kind == "shape"
    # a zero first row sets the width too; no row sets it for kernel
    assert kernel([], 2) == [[1, 0], [0, 1]]
    ech = Echelon()
    assert ech.add([0, 0, 0]) is False
    with pytest.raises(ComplexError):
        ech.add([1, 0])
    assert ech.add([0, 0, 1]) and ech.pivots == [2]


# -- the persistence pairing against the cycle spaces Z_r^p ------------------------


def reference_pages(c):
    """Pages of the filtration spectral sequence from the cycle spaces
    Z_r^p = {x in F_p : dx in F_(p+r)}, degree by degree:
    dim E_r^p = dim Z_r^p - dim(Z_(r-1)^(p+1) + d Z_(r-1)^(p-r+1))."""
    filt = c.filtration or (0,) * c.dim
    levels = sorted(set(filt)) or [0]
    d = c.diff

    def z(r, p, u):
        """Basis of Z_r^p in degree u, as vectors over all generators."""
        src = [j for j in range(c.dim) if c.degrees[j] == u and filt[j] >= p]
        tgt = [i for i in range(c.dim) if c.degrees[i] == u + c.n and filt[i] < p + r]
        basis = []
        for w in reference_kernel([[d[i][j] for j in src] for i in tgt], len(src)):
            v = [F(0)] * c.dim
            for j, x in zip(src, w):
                v[j] = x
            basis.append(v)
        return basis

    def image(space):
        return [[sum(d[i][j] * x for j, x in enumerate(v)) for i in range(c.dim)]
                for v in space]

    pages = []
    for r in range(levels[-1] - levels[0] + 2):
        page = {}
        for u in sorted(set(c.degrees)):
            for p in levels:
                quotient = z(r - 1, p + 1, u) + image(z(r - 1, p - r + 1, u - c.n))
                dim = len(z(r, p, u)) - len(reference_rref(quotient)[1])
                if dim:
                    page[(p, u)] = dim
        pages.append(page)
    return pages


@st.composite
def _filtered_complexes(draw):
    """Seeded synth complexes (tied levels, levels spread and moved, some
    conjugated to Fraction entries), filtered cones of the identity, whose
    blocks clearing leaves with only independent rows, Koszul complexes and
    empty complexes."""
    kind = draw(st.sampled_from(["synth", "synth", "rational", "cone", "koszul", "empty"]))
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind == "empty":
        return build(n, [], [], filtration=draw(st.sampled_from([None, []])))
    if kind == "koszul":
        return koszul_tensor(random_graded_module(rng, n, draw(st.integers(0, 3)), max_dim=4))
    c = random_complex(rng, n, max_dim=9, filtered=kind == "cone" or draw(st.booleans()))
    if kind == "cone":
        c = filtered_identity_cone(c)
    rows = [list(row) for row in c.diff]
    if kind == "rational":
        g = rng.randrange(c.dim)
        s = F(draw(st.sampled_from([2, -3, 5])), draw(st.sampled_from([1, 7])))
        rows = [[x * (s if i == g else 1) / (s if j == g else 1) for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    filt = c.filtration
    if filt is not None:
        a, b = draw(st.integers(1, 2)), draw(st.integers(-2, 2))
        filt = [a * p + b for p in filt]
    return build(n, c.degrees, rows, filtration=filt)


@given(_filtered_complexes())
@settings(max_examples=150, deadline=None)
def test_spectral_sequence_matches_reference_pages(c):
    want = reference_pages(c)
    ss = spectral_sequence(c)
    assert ss.pages == tuple(want)
    assert ss.infinity == want[-1]
    assert ss.stabilization == next(r for r, page in enumerate(want) if page == want[-1])


def test_spectral_sequence_bounds_the_filtration_width():
    # the pages are built only after the width is checked, for Python callers too
    c = build(1, [0, 1], [[0, 0], [1, 0]], filtration=[0, MAX_FILTRATION_WIDTH])
    ss = spectral_sequence(c)
    assert len(ss.pages) == MAX_FILTRATION_WIDTH + 2
    assert ss.pages[MAX_FILTRATION_WIDTH] == {(0, 0): 1, (MAX_FILTRATION_WIDTH, 1): 1}
    assert ss.infinity == {}
    with pytest.raises(ResourceBoundError):
        spectral_sequence(build(1, [0, 1], [[0, 0], [1, 0]],
                                filtration=[-1, MAX_FILTRATION_WIDTH]))


def test_spectral_sequence_never_builds_a_kernel(monkeypatch):
    calls = []
    null_space = frcomplex._null_space
    monkeypatch.setattr(frcomplex, "_null_space",
                        lambda *args: calls.append(1) or null_space(*args))
    # d(x0) = x2 + x3 and d(x1) = x3: d_0 pairs x1 with x3, then d_1 pairs x0 with x2
    c = build(1, [0, 0, 1, 1], [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0]],
              filtration=[0, 1, 1, 1])
    ss = spectral_sequence(c)
    assert ss.pages[0] == {(0, 0): 1, (1, 0): 1, (1, 1): 2}
    assert ss.pages[1] == {(0, 0): 1, (1, 1): 1}
    assert ss.pages[2] == {}
    assert calls == []
    assert graded_homology_dims(c) == ss.infinity
    assert calls


def _permuted(c, perm):
    """c with generator k moved to position perm.index(k): the differential,
    filtration and names move with it."""
    d = c.diff
    return build(c.n, [c.degrees[k] for k in perm], [[d[a][b] for b in perm] for a in perm],
                 filtration=[c.filtration[k] for k in perm],
                 names=[c.names[k] for k in perm])


def _filtered_cases(rng):
    """Seeded filtered complexes and filtered cones of seeded chain maps: the
    source at its own levels, the target above all of them."""
    for k in range(40):
        n = rng.randint(1, 4)
        x = random_complex(rng, n, max_dim=9, filtered=True)
        if k % 2 == 0:
            yield x
            continue
        y = random_complex(rng, n, max_dim=6, filtered=True)
        z = cone(random_chain_map(rng, x, y), x, y)
        top = max(x.filtration) + 1
        yield build(n, z.degrees, z.diff, names=z.names,
                    filtration=list(x.filtration) + [top + p for p in y.filtration])


def test_pages_are_canonical_under_a_permutation_of_generators():
    rng = random.Random(26)
    for c in _filtered_cases(rng):
        ss = spectral_sequence(c)
        for page in ss.pages + (ss.infinity,):
            assert list(page) == sorted(page)
        for _ in range(3):
            perm = list(range(c.dim))
            rng.shuffle(perm)
            assert repr(spectral_sequence(_permuted(c, perm))) == repr(ss)


# -- graded homology against the per-level route -----------------------------------


def reference_graded_homology_dims(c):
    """In each degree, dim (Z_p + B) / B for every level p, each from its own
    kernel and rank; the graded piece at p is its drop to the next level up."""
    filt = c.filtration or (0,) * c.dim
    levels = sorted(set(filt))
    d = c.diff
    out = {}
    for u in sorted(set(c.degrees)):
        src = [j for j in range(c.dim) if c.degrees[j] == u]
        tgt = [i for i in range(c.dim) if c.degrees[i] == u + c.n]
        image = [[d[i][j] for i in src] for j in range(c.dim) if c.degrees[j] == u - c.n]
        image_rank = rank(image)

        def part(p):
            pos = [k for k, j in enumerate(src) if filt[j] >= p]
            cycles = []
            for w in kernel([[d[i][src[k]] for k in pos] for i in tgt], len(pos)):
                v = [F(0)] * len(src)
                for k, x in zip(pos, w):
                    v[k] = x
                cycles.append(v)
            return rank(cycles + image) - image_rank

        parts = [part(p) for p in levels] + [0]
        for k, p in enumerate(levels):
            if parts[k] != parts[k + 1]:
                out[(p, u)] = parts[k] - parts[k + 1]
    return out


def _graded_cases():
    """Seeded filtered complexes: integral, rational, with levels that are
    empty in most degrees, unfiltered; Koszul complexes and empty ones."""
    rng = random.Random(17)
    for k in range(80):
        kind = ("integral", "rational", "empty levels", "unfiltered")[k % 4]
        n = rng.randint(1, 4)
        c = random_complex(rng, n, max_dim=10, filtered=kind != "unfiltered")
        degrees, rows, filt = list(c.degrees), [list(row) for row in c.diff], c.filtration
        if kind == "rational":
            g = rng.randrange(c.dim)
            s = F(rng.choice([2, -3, 5]), rng.choice([1, 7]))
            rows = [[x * (s if i == g else 1) / (s if j == g else 1) for j, x in enumerate(row)]
                    for i, row in enumerate(rows)]
        if kind == "empty levels":
            # spread the levels apart and add one cycle alone at a level above them
            filt = [3 * p + 1 for p in filt] + [20]
            degrees.append(max(degrees) + 2 * n)
            rows = [row + [0] for row in rows] + [[0] * (c.dim + 1)]
        yield kind, build(n, degrees, rows, filtration=filt)
    for k in range(12):
        yield "koszul", koszul_tensor(random_graded_module(rng, rng.randint(1, 4), k % 4,
                                                           max_dim=5))
    yield "empty", build(2, [], [], filtration=[])
    yield "empty", build(2, [], [])


def test_graded_homology_matches_the_per_level_route(monkeypatch):
    def refuse(name):
        def refused(*args):
            raise AssertionError(f"graded_homology_dims called {name}")
        return refused

    kinds = set()
    for kind, c in _graded_cases():
        # E_infinity and graded homology stay two routes: the walk never pairs
        with monkeypatch.context() as m:
            for name in ("spectral_sequence", "_pairs"):
                m.setattr(frcomplex, name, refuse(name))
            got = graded_homology_dims(c)
        assert got == reference_graded_homology_dims(c), kind
        assert sum(got.values()) == sum(homology(c).dims.values())
        kinds.add(kind)
    assert len(kinds) == 6


def test_square_zero_is_checked_once_per_complex_that_enters(monkeypatch):
    checked = []
    residual = frcomplex._residual

    def counted(a, x, b, y):
        if a is b:  # one column of d^2 = 0: d (d x) - d 0
            checked.append(1)
        return residual(a, x, b, y)

    monkeypatch.setattr(frcomplex, "_residual", counted)
    rng = random.Random(4)
    x = random_complex(rng, 3, max_dim=8)
    y = random_complex(rng, 3, max_dim=6)
    assert len(checked) == x.dim + y.dim
    c = cone(random_chain_map(rng, x, y), x, y)
    k = koszul_tensor(random_graded_module(rng, 3, 2, max_dim=5))
    shift(c, 3), homology_complex(c), unknot_hfkn(3)
    assert len(checked) == x.dim + y.dim
    build(k.n, k.degrees, k.diff, filtration=k.filtration)
    assert len(checked) == x.dim + y.dim + k.dim
