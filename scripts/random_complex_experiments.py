#!/usr/bin/env python3
"""Bulk experiments on random fractionally graded complexes.

Checks, over a reproducible random population: invariance of the Euler
characteristic under homology; the shift and cone laws; the Koszul factor
(1 - e^(2*pi*i/n))^k; and page-constancy plus convergence of the filtration
spectral sequence.  Prints a summary table.

Usage: python scripts/random_complex_experiments.py [--trials 500] [--seed 0]
"""

import argparse
import random
import sys
import time

from rootchi.cyclo import CycloNum, root
from rootchi.frcomplex import (build, chi_of_dims, cone, euler_char,
                               graded_homology_dims, homology, koszul_tensor,
                               shift, spectral_sequence)
from rootchi.synth import (random_chain_map, random_complex,
                           random_graded_module)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.trials < 1:
        ap.error(f"--trials must be an integer >= 1, got {args.trials}")
    rng = random.Random(args.seed)
    bad = 0

    t0 = time.perf_counter()
    for _ in range(args.trials):
        n = rng.randint(1, 8)
        c = random_complex(rng, n, max_dim=12)
        ok = euler_char(c) == chi_of_dims(n, homology(c).dims)
        ok &= euler_char(shift(c, 1)) == root(n, -1) * euler_char(c)
        y = random_complex(rng, n, max_dim=8)
        f = random_chain_map(rng, c, y)
        ok &= euler_char(cone(f, c, y)) == euler_char(y) - euler_char(c)
        bad += not ok
    print(f"chi/shift/cone: {args.trials - bad}/{args.trials} ok "
          f"({time.perf_counter() - t0:.1f}s)")

    t0 = time.perf_counter()
    kbad = 0
    ktrials = max(1, args.trials // 2)
    for _ in range(ktrials):
        n = rng.randint(1, 8)
        k = rng.randint(0, 4)
        mod = random_graded_module(rng, n, k, max_dim=6)
        zero_rows = [[0] * mod.dim for _ in range(mod.dim)]
        chi_m = euler_char(build(n, mod.degrees, zero_rows))
        factor = (CycloNum.from_rational(1) - root(n, 2)) ** k
        kbad += euler_char(koszul_tensor(mod)) != factor * chi_m
    print(f"koszul factor:  {ktrials - kbad}/{ktrials} ok "
          f"({time.perf_counter() - t0:.1f}s)")

    t0 = time.perf_counter()
    sbad = 0
    stab_hist: dict[int, int] = {}
    strials = max(1, args.trials // 5)
    for _ in range(strials):
        n = rng.randint(1, 6)
        c = random_complex(rng, n, max_dim=10, filtered=True)
        ss = spectral_sequence(c)
        chis = [ss.page_chi(r) for r in range(len(ss.pages))]
        ok = all(x == chis[0] for x in chis)
        ok &= ss.infinity == graded_homology_dims(c)
        sbad += not ok
        stab_hist[ss.stabilization] = stab_hist.get(ss.stabilization, 0) + 1
    print(f"spectral pages: {strials - sbad}/{strials} ok "
          f"({time.perf_counter() - t0:.1f}s); stabilization histogram {stab_hist}")
    return 1 if bad or kbad or sbad else 0


if __name__ == "__main__":
    sys.exit(main())
