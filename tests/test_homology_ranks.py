"""Homology dimensions by rank-nullity, representatives built on first read."""

import random
from fractions import Fraction

from rootchi import frcomplex
from rootchi.frcomplex import HomologyResult, build, homology
from rootchi.synth import random_complex

F = Fraction


def _complexes():
    """Seeded synth complexes, each with a rational copy (one generator
    rescaled, which keeps d^2 = 0 and makes the entries non-integral)."""
    rng = random.Random(6)
    for k in range(30):
        n = rng.randint(1, 6)
        c = random_complex(rng, n, max_dim=12, filtered=k % 3 == 0)
        yield c
        g = rng.randrange(c.dim)
        s = F(rng.choice([2, 3, 5]), rng.choice([1, 7]))
        rows = [[x * (s if i == g else 1) / (s if j == g else 1) for j, x in enumerate(row)]
                for i, row in enumerate(c.diff)]
        yield build(n, c.degrees, rows, filtration=c.filtration)


def test_dims_count_the_representatives():
    rational = 0
    for c in _complexes():
        rational += c.den > 1
        h = homology(c)
        assert list(h.dims) == sorted(h.dims)
        assert all(h.dims.values())
        for u in set(h.dims) | set(h.representatives) | set(c.degrees):
            assert h.dims.get(u, 0) == len(h.representatives.get(u, []))
    assert rational > 0


def test_dims_never_build_a_kernel(monkeypatch):
    calls = []
    null_space = frcomplex._null_space
    monkeypatch.setattr(frcomplex, "_null_space",
                        lambda *args: calls.append(1) or null_space(*args))
    c = build(1, [0, 0, 1, 1, 2, 2], [[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0],
                                      [1, 2, 0, 0, 0, 0], [2, 4, 0, 0, 0, 0],
                                      [0, 0, 2, -1, 0, 0], [0, 0, 0, 0, 0, 0]])
    h = homology(c)
    assert h.dims == {0: 1, 2: 1}
    assert calls == []
    reps = h.representatives
    made = len(calls)
    assert made > 0
    assert h.representatives is reps
    assert len(calls) == made
    assert reps == {0: [(F(-2), F(1)) + (F(0),) * 4], 2: [(F(0),) * 5 + (F(1),)]}


def test_equality_and_repr_do_not_depend_on_reading_order():
    for c in list(_complexes())[:12]:
        read_first = homology(c)
        reps = read_first.representatives
        fresh = homology(c)
        assert repr(fresh) == repr(read_first)
        assert homology(c) == read_first
        assert read_first == HomologyResult(dict(read_first.dims), c)
        assert repr(HomologyResult(read_first.dims, c)) == repr(homology(c))
        assert HomologyResult(read_first.dims, c).representatives == reps
