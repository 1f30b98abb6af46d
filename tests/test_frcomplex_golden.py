"""Byte-for-byte snapshot of the (1/n)Z complex layer.

Every item is a seeded ``synth`` complex (with a random chain map into a
second complex) or the Koszul complex of a seeded graded module.  For each
one the snapshot records homology dimensions and representatives, the
Euler characteristic, the spectral sequence pages with their characteristics,
the stabilization page and E_infinity, the graded homology dimensions, the
complex itself and a mapping cone, all as exact text.  A field whose text is
longer than ``INLINE`` characters is stored as its sha256 digest.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_frcomplex_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

from rootchi.frcomplex import (chi_of_dims, complex_to_json, cone, euler_char,
                               graded_homology_dims, homology, koszul_tensor,
                               spectral_sequence)
from rootchi.synth import random_chain_map, random_complex, random_graded_module

GOLDEN = pathlib.Path(__file__).parent / "data" / "frcomplex_golden.json"
INLINE = 160


def _cells(d: dict) -> str:
    return json.dumps(sorted([*(k if isinstance(k, tuple) else (k,)), v]
                             for k, v in d.items()))


def _record(c, f=None, y=None) -> dict[str, str]:
    h = homology(c)
    ss = spectral_sequence(c)
    fields = {
        "complex": complex_to_json(c),
        "homology": _cells(h.dims),
        "representatives": "\n".join(
            f"{u}: " + " | ".join(",".join(str(x) for x in v) for v in vecs)
            for u, vecs in sorted(h.representatives.items())),
        "chi": euler_char(c).pretty(),
        "chi_of_homology": chi_of_dims(c.n, h.dims).pretty(),
        "pages": "\n".join(_cells(p) for p in ss.pages),
        "page_chi": " ".join(ss.page_chi(r).pretty() for r in range(len(ss.pages))),
        "stabilization": str(ss.stabilization),
        "infinity": _cells(ss.infinity),
        "graded_homology": _cells(graded_homology_dims(c)),
    }
    if f is not None:
        fields["cone"] = complex_to_json(cone(f, c, y))
    return {k: v if len(v) <= INLINE else
            "sha256:" + hashlib.sha256(v.encode()).hexdigest()
            for k, v in fields.items()}


def snapshot() -> dict[str, dict[str, str]]:
    items = {}
    rng = random.Random(20210114)
    for k in range(40):
        n = rng.randint(1, 8)
        c = random_complex(rng, n, max_dim=14, filtered=k % 2 == 0)
        y = random_complex(rng, n, max_dim=8)
        f = random_chain_map(rng, c, y)
        items[f"synth-{k:02d}-n{n}"] = _record(c, f, y)
    rng = random.Random(1968)
    for k, (n, maps, dim) in enumerate([(2, 1, 4), (3, 1, 8), (2, 2, 6), (4, 2, 8),
                                         (3, 3, 5), (5, 3, 7), (2, 3, 8), (6, 3, 8)]):
        mod = random_graded_module(rng, n, maps, max_dim=dim)
        while mod.dim != dim:
            mod = random_graded_module(rng, n, maps, max_dim=dim)
        items[f"koszul-{k}-n{n}-k{maps}-m{mod.dim}"] = _record(koszul_tensor(mod))
    return items


def test_frcomplex_golden_snapshot():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = snapshot()
    assert list(got) == list(want)
    for name, fields in want.items():
        assert got[name] == fields, name


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1) + "\n", encoding="utf-8")
