"""Byte-for-byte snapshot of the link invariants and the verifier.

For every bundled corpus link the snapshot records the serialized HOMFLY
polynomial in its unreduced, reduced and middle normalizations, the
Alexander polynomial, the reduced and unreduced sl(n) polynomials for
n = 1..6, and every check of ``run_link_checks`` over n = 1..6 as
(n, name, status, lhs, rhs).  A text field longer than ``INLINE``
characters is stored as its sha256 digest.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_verify_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

from rootchi.corpus import bundled_corpus
from rootchi.laurent import serialize
from rootchi.skein import (alexander, homfly_middle, homfly_reduced,
                           homfly_unreduced, sln_poly)
from rootchi.verify import run_link_checks

GOLDEN = pathlib.Path(__file__).parent / "data" / "verify_golden.json"
INLINE = 160
N_VALUES = range(1, 7)


def _short(text: str) -> str:
    if len(text) <= INLINE:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _record(entry) -> dict:
    d = entry.diagram()
    p = homfly_unreduced(d)
    polys = {
        "homfly_unreduced": p,
        "homfly_reduced": homfly_reduced(d, unreduced=p),
        "homfly_middle": homfly_middle(d, unreduced=p),
        "alexander": alexander(d, unreduced=p),
    }
    for n in N_VALUES:
        for variant in ("reduced", "unreduced"):
            polys[f"sln{n}_{variant}"] = sln_poly(
                d, n, reduced=(variant == "reduced"), unreduced_homfly=p)
    record: dict = {k: _short(serialize(v)) for k, v in polys.items()}
    record["checks"] = [
        [rep.n, c.name, c.status, _short(c.lhs), _short(c.rhs)]
        for rep in run_link_checks(entry.name, d, N_VALUES, expected=entry.expected)
        for c in rep.checks]
    return record


def snapshot() -> dict[str, dict]:
    return {entry.name: _record(entry) for entry in bundled_corpus()}


def test_verify_golden_snapshot():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = snapshot()
    assert list(got) == list(want)
    for name, fields in want.items():
        assert got[name] == fields, name


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1) + "\n", encoding="utf-8")
