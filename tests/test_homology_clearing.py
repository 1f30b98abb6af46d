"""Homology dimensions with clearing agree with one plain rank per block.

``reference_homology_dims`` is the rank-per-block route that ``homology``
took before it cleared rows: one ``rank`` of every block of d, dims by
rank-nullity.  Clearing may only skip rows that are known to be dependent,
so the two must agree on every complex, and the rows it still reduces to
zero must be exactly the homology the blocks below leave.
"""

import random
from fractions import Fraction

from rootchi import frcomplex
from rootchi.frcomplex import (_block, _by_degree, build, cone, homology, koszul_tensor,
                               rank, spectral_sequence)
from rootchi.synth import random_chain_map, random_complex, random_graded_module

F = Fraction


def reference_homology_dims(c) -> dict[int, int]:
    by_degree = _by_degree(c)
    rank_out = {u: rank(_block(c, by_degree[u + c.n], cols))
                for u, cols in by_degree.items() if u + c.n in by_degree}
    dims: dict[int, int] = {}
    for u, cols in sorted(by_degree.items()):
        k = len(cols) - rank_out.get(u, 0) - rank_out.get(u - c.n, 0)
        if k:
            dims[u] = k
    return dims


def _rescaled(rng, c):
    """c with one generator rescaled: d^2 = 0 holds and entries turn rational."""
    g = rng.randrange(c.dim)
    s = F(rng.choice([2, 3, 5]), rng.choice([1, 7]))
    rows = [[x * (s if i == g else 1) / (s if j == g else 1) for j, x in enumerate(row)]
            for i, row in enumerate(c.diff)]
    return build(c.n, c.degrees, rows, filtration=c.filtration)


def _identity(c):
    return [[int(i == j) for j in range(c.dim)] for i in range(c.dim)]


def filtered_identity_cone(x):
    """cone(I, x, x) with x's filtration levels on both halves."""
    c = cone(_identity(x), x, x)
    return build(c.n, c.degrees, c.diff, filtration=x.filtration * 2)


def _complexes(seed: int, count: int):
    """Seeded synth complexes, their rescalings, cones of the identity and of
    random chain maps, and Koszul complexes of seeded graded modules."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, 6)
        x = random_complex(rng, n, max_dim=14, filtered=k % 3 == 0)
        yield x
        yield _rescaled(rng, x)
        yield cone(_identity(x), x, x)
        y = random_complex(rng, n, max_dim=14)
        yield cone(random_chain_map(rng, x, y), x, y)
        yield koszul_tensor(random_graded_module(rng, n, rng.randint(1, 3), max_dim=6))


def test_dims_match_the_rank_per_block_route():
    kinds = {"rational": 0, "acyclic": 0, "nonzero": 0}
    for c in _complexes(21, 60):
        dims = homology(c).dims
        assert dims == reference_homology_dims(c)
        kinds["rational"] += c.den > 1
        kinds["acyclic"] += not dims
        kinds["nonzero"] += bool(dims)
    assert min(kinds.values()) > 0


def test_dims_match_on_stacked_blocks():
    # larger complexes at small n: most degrees have a block above and below,
    # so clearing drops rows in most blocks
    rng = random.Random(5)
    for _ in range(20):
        x = random_complex(rng, rng.randint(1, 3), max_dim=24)
        assert homology(x).dims == reference_homology_dims(x)
        assert homology(cone(_identity(x), x, x)).dims == {}


def _dependent_rows(monkeypatch, c, reduction=homology) -> int:
    """How many rows ``reduction(c)`` reduces to zero."""
    zeros = []
    place = frcomplex.Echelon.place

    def counted(self, row):
        k = place(self, row)
        zeros.append(k is None)
        return k

    with monkeypatch.context() as m:
        m.setattr(frcomplex.Echelon, "place", counted)
        reduction(c)
    return sum(zeros)


def test_only_homology_rows_reduce_to_zero(monkeypatch):
    # rows fed to the block at u - n: |C_u| - rank d_u; rank d_(u-n) of them
    # are independent, which leaves dim H_u for each degree u with a block below
    checked = 0
    for c in _complexes(8, 25):
        dims = homology(c).dims
        degrees = set(c.degrees)
        want = sum(k for u, k in dims.items() if u - c.n in degrees)
        assert _dependent_rows(monkeypatch, c) == want
        if c.dim and not dims:
            checked += 1
    assert checked > 0


def test_cone_of_the_identity_reduces_no_row_to_zero(monkeypatch):
    x = build(1, [0, 0, 1, 1, 2, 2], [[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0],
                                      [1, 2, 0, 0, 0, 0], [2, 4, 0, 0, 0, 0],
                                      [0, 0, 2, -1, 0, 0], [0, 0, 0, 0, 0, 0]])
    assert homology(x).dims == {0: 1, 2: 1}
    assert _dependent_rows(monkeypatch, x) == 1  # H at degree 2; degree 0 has no block below
    c = cone(_identity(x), x, x)
    assert homology(c).dims == {}
    assert _dependent_rows(monkeypatch, c) == 0


def test_spectral_sequence_reduces_no_row_of_a_filtered_cone_to_zero(monkeypatch):
    # the cone is acyclic, so clearing leaves each block exactly rank-many rows,
    # whatever the levels: a filtered reduction must clear as homology does
    rng = random.Random(3)
    for _ in range(40):
        x = random_complex(rng, rng.randint(1, 4), max_dim=12, filtered=True)
        c = filtered_identity_cone(x)
        assert spectral_sequence(c).infinity == {}
        assert _dependent_rows(monkeypatch, c, spectral_sequence) == 0
