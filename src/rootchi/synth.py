"""Deterministic pseudo-random complexes, modules and tables.

These drive the bulk verification experiments: the identities being checked
are theorems for every input, so breadth matters more than provenance.  All
builders take an explicit Random instance so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .frcomplex import FracComplex, GradedModule, build, build_module, kernel
from .gradings import DimTable, make_table


def random_complex(rng: random.Random, n: int, max_dim: int = 12,
                   filtered: bool = False) -> FracComplex:
    """Random (1/n)Z-graded complex with an honest square-zero differential.

    Generators are spread over a few degrees; the block from each degree is
    drawn from the left null space of the previous block, so d^2 = 0 holds
    by construction without restricting ranks artificially.
    """
    m = rng.randint(1, max_dim)
    base = rng.randint(-2 * n, 2 * n)
    span = rng.randint(1, 4)
    degrees = sorted(base + n * rng.randint(0, span) for _ in range(m))
    rows = [[Fraction(0)] * m for _ in range(m)]
    by_deg: dict[int, list[int]] = {}
    for i, u in enumerate(degrees):
        by_deg.setdefault(u, []).append(i)
    prev_block: list[list[Fraction]] | None = None
    prev_cols: list[int] = []
    for u in sorted(by_deg):
        cols = by_deg[u]
        targets = by_deg.get(u + n, [])
        if not targets:
            prev_block, prev_cols = None, cols
            continue
        if prev_block is None or not prev_cols:
            block = [[Fraction(rng.randint(-2, 2)) for _ in cols] for _ in targets]
        else:
            # rows of the new block must kill the image of the previous one:
            # row . prev_block == 0, i.e. rows lie in the left null space
            constraints = [[prev_block[i][j] for i in range(len(prev_block))]
                           for j in range(len(prev_block[0]))] if prev_block else []
            null = kernel(constraints, len(cols))
            block = []
            for _ in targets:
                vec = [Fraction(0)] * len(cols)
                for b in null:
                    c = rng.randint(-2, 2)
                    if c:
                        vec = [x + c * y for x, y in zip(vec, b)]
                block.append(vec)
        for bi, i in enumerate(targets):
            for bj, j in enumerate(cols):
                rows[i][j] = block[bi][bj]
        prev_block, prev_cols = block, cols
    filtration = None
    if filtered:
        filtration = [rng.randint(0, 3) for _ in range(m)]
        # repair violations in degree order; the differential only points upward
        for u in sorted(by_deg):
            for j in by_deg[u]:
                for i in by_deg.get(u + n, []):
                    if rows[i][j] != 0 and filtration[i] < filtration[j]:
                        filtration[i] = filtration[j]
    return build(n, degrees, rows, filtration=filtration)


def random_chain_map(rng: random.Random, x: FracComplex, y: FracComplex):
    """A random degree-zero chain map x -> y, or None if only zero exists.

    Solves the commutation constraint exactly and draws a random combination
    of the solution basis.
    """
    if x.n != y.n:
        raise ValueError("root orders differ")
    nx, ny = x.dim, y.dim
    unknowns = [(i, j) for i in range(ny) for j in range(nx)
                if y.degrees[i] == x.degrees[j]]
    if not unknowns:
        return [[Fraction(0)] * nx for _ in range(ny)]
    pos = {u: k for k, u in enumerate(unknowns)}
    y_rows: list[dict[int, int]] = [{} for _ in range(ny)]   # y_rows[i][k] = y.cols[k][i]
    for k, col in enumerate(y.cols):
        for i, v in col.items():
            y_rows[i][k] = v
    constraints = []
    for i in range(ny):
        for j in range(nx):
            if y.degrees[i] != x.degrees[j] + x.n:
                continue
            row = [Fraction(0)] * len(unknowns)
            for k, v in x.cols[j].items():
                if (i, k) in pos:
                    row[pos[(i, k)]] += Fraction(v, x.den)
            for k, v in y_rows[i].items():
                if (k, j) in pos:
                    row[pos[(k, j)]] -= Fraction(v, y.den)
            constraints.append(row)
    basis = kernel(constraints, len(unknowns))
    f = [[Fraction(0)] * nx for _ in range(ny)]
    for b in basis:
        c = rng.randint(-2, 2)
        if not c:
            continue
        for (i, j), val in zip(unknowns, b):
            f[i][j] += c * val
    return f


def random_graded_module(rng: random.Random, n: int, k: int,
                         max_dim: int = 8) -> GradedModule:
    """Random module with k commuting degree-(2/n) endomorphisms.

    The maps are simultaneously 'triangular along a ladder': each generator
    sits on a degree ladder and every U_i moves it up one rung with a random
    scalar, so any two of them commute on the nose.
    """
    m = rng.randint(1, max_dim)
    degrees = []
    ladder: list[tuple[int, int]] = []  # (chain id, position)
    chains = 0
    i = 0
    while i < m:
        length = min(rng.randint(1, 4), m - i)
        base = rng.randint(-n, n)
        for p in range(length):
            degrees.append(base + 2 * p)
            ladder.append((chains, p))
            i += 1
        chains += 1
    endos = []
    for _ in range(k):
        mat = [[Fraction(0)] * m for _ in range(m)]
        scale: dict[int, Fraction] = {c: Fraction(rng.randint(-2, 2))
                                      for c in range(chains)}
        for j, (cj, pj) in enumerate(ladder):
            for i2, (ci, pi) in enumerate(ladder):
                if ci == cj and pi == pj + 1:
                    mat[i2][j] = scale[cj]
        endos.append(mat)
    return build_module(n, degrees, endos)


def random_trigraded_table(rng: random.Random, max_entries: int = 8) -> DimTable:
    """Random (i, j, k) table; k - j is kept even, which makes every derived
    grading integral."""
    entries = {}
    for _ in range(rng.randint(1, max_entries)):
        i = rng.randint(-4, 4)
        j = rng.randint(-3, 3)
        k = j + 2 * rng.randint(-2, 2)
        key = (i, j, k)
        entries[key] = entries.get(key, 0) + rng.randint(1, 3)
    return make_table(("i", "j", "k"), (False, False, False), entries)


def random_bigraded_table(rng: random.Random, half_first: bool = True,
                          max_entries: int = 8) -> DimTable:
    """Random (gr_T, gr_M) table; gr_T may be half-integral."""
    entries = {}
    for _ in range(rng.randint(1, max_entries)):
        t2 = rng.randint(-6, 6)
        gt = Fraction(t2, 2) if half_first else Fraction(rng.randint(-4, 4))
        gm = rng.randint(-4, 4)
        key = (gt, Fraction(gm))
        entries[key] = entries.get(key, 0) + rng.randint(1, 3)
    return make_table(("gr_T", "gr_M"), (half_first, False), entries)
