#!/usr/bin/env python3
"""Run the full identity checker over the bundled corpus and write a report.

Usage: python scripts/run_verification.py [--n-range 1..6] [--report out.json]
"""

import argparse
import sys
import time

from rootchi.corpus import bundled_corpus
from rootchi.verify import parse_n_range, reports_to_json, run_link_checks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-range", default="1..6")
    ap.add_argument("--report", default=None)
    args = ap.parse_args()
    try:
        n_values = parse_n_range(args.n_range)
    except ValueError as e:
        ap.error(str(e))

    t0 = time.perf_counter()
    reports = []
    for entry in bundled_corpus():
        reports.extend(run_link_checks(entry.name, entry.diagram(), n_values,
                                       expected=entry.expected))
    elapsed = time.perf_counter() - t0

    total = sum(len(r.checks) for r in reports)
    failures = [(r, c) for r in reports for c in r.checks if not c.ok]
    by_link: dict[str, int] = {}
    for r in reports:
        by_link[r.link] = by_link.get(r.link, 0) + len(r.checks)
    width = max(len(k) for k in by_link)
    for name, count in by_link.items():
        bad = sum(1 for r, c in failures if r.link == name)
        mark = "ok" if bad == 0 else f"{bad} FAILED"
        print(f"{name:<{width}}  {count:4d} checks  {mark}")
    print(f"\n{total - len(failures)}/{total} checks passed in {elapsed:.1f}s")
    for r, c in failures:
        print(f"FAIL {r.link} (n={r.n}) {c.name}: {c.lhs} != {c.rhs}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(reports_to_json(reports))
        print(f"report written to {args.report}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
