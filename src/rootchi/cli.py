"""Command-line front end.

Subcommands: ``poly`` prints an invariant of one link, ``verify`` runs the
identity checker over a corpus, ``complex`` manipulates (1/n)Z-graded
complexes in their JSON form.  Exit codes: 0 success, 1 failed checks,
2 parse/validation errors, 3 resource bound, 4 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import corpus as corpus_mod
from .frcomplex import (MAX_N, ComplexError, complex_from_json, complex_to_json,
                        euler_char, homology, spectral_sequence, unknot_hfkn)
from .laurent import PolyError, serialize
from .linkdiag import DiagramError, LinkDiagram, ResourceBoundError, parse_link
from .skein import BoundSettingError, crossing_bound
from .verify import (LinkValues, VerifyReport, parse_n_range, reports_to_json,
                     run_link_checks)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4


def _resolve_link(spec: str) -> LinkDiagram:
    if spec.startswith(("PD[", "BR[")) or spec.strip("U ⊔") == "":
        return parse_link(spec)
    try:
        return corpus_mod.bundled_entry(spec).diagram()
    except KeyError:
        raise DiagramError(f"not a link expression or bundled corpus name: {spec!r}")


def _check_n_bound(n: int) -> None:
    if n > MAX_N:
        raise ResourceBoundError(f"n = {n} exceeds the bound {MAX_N}")


def cmd_poly(args) -> int:
    if args.invariant == "sln":
        if args.variant == "middle":
            raise DiagramError("sl(n) has only reduced and unreduced variants, not middle")
        _check_n_bound(args.n)
    key = {"alexander": "alexander", "sln": f"sln_{args.n}_{args.variant}",
           "homfly": f"homfly_{args.variant}"}[args.invariant]
    text = serialize(LinkValues(_resolve_link(args.link)).named(key))
    if args.format == "json":
        print(json.dumps({"link": args.link, "invariant": args.invariant,
                          "variant": args.variant, "n": args.n, "poly": text}))
    else:
        print(text)
    return EXIT_OK


def _verify_one(payload) -> list[VerifyReport]:
    name, source, expected, n_values = payload
    entry = corpus_mod.CorpusEntry(name, source, expected)
    return run_link_checks(name, entry.diagram(), n_values, expected=expected)


def cmd_verify(args) -> int:
    crossing_bound()  # a bad setting is a usage error before any work
    _check_n_bound(args.n_range[-1])
    if args.corpus:
        try:
            entries = corpus_mod.load_corpus_file(args.corpus)
        except OSError as e:
            print(f"cannot read corpus: {e}", file=sys.stderr)
            return EXIT_IO
    else:
        entries = corpus_mod.bundled_corpus()
    for e in entries:
        for key in e.expected:
            n = corpus_mod.expected_order(key)
            if n is not None:
                _check_n_bound(n)
    n_values = list(args.n_range)
    payloads = [(e.name, e.source, e.expected, n_values) for e in entries]
    # the pool starts every worker at once, so never more than links or cores
    workers = min(args.jobs, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_verify_one, payloads))
        except ResourceBoundError:
            raise
        except (OSError, RuntimeError) as e:
            print(f"warning: --jobs {args.jobs} failed ({type(e).__name__}: {e}); "
                  "running serially", file=sys.stderr)
            results = [_verify_one(p) for p in payloads]
    else:
        results = [_verify_one(p) for p in payloads]
    reports: list[VerifyReport] = [r for group in results for r in group]
    n_checks = sum(len(r.checks) for r in reports)
    failures = [(r, c) for r in reports for c in r.checks if not c.ok]
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(reports_to_json(reports, approx=args.approx))
        except OSError as e:
            print(f"cannot write report: {e}", file=sys.stderr)
            return EXIT_IO
    print(f"{len(entries)} links, n in {n_values or '-'}: "
          f"{n_checks - len(failures)}/{n_checks} checks passed")
    for r, c in failures:
        print(f"FAIL {r.link} (n={r.n}) {c.name}: {c.lhs} != {c.rhs}")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _read_complex(path: str):
    try:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as e:
        raise ComplexError("shape", f"complex is not UTF-8: {e}") from None
    return complex_from_json(text)


def _fmt_deg(units: int, n: int) -> str:
    return str(Fraction(units, n))


def cmd_complex(args) -> int:
    if args.action == "unknot-hfkn":
        _check_n_bound(args.n)
        print(complex_to_json(unknot_hfkn(args.n)))
        return EXIT_OK
    try:
        c = _read_complex(args.file)
    except OSError as e:
        print(f"cannot read complex: {e}", file=sys.stderr)
        return EXIT_IO
    if args.action == "hom":
        h = homology(c)
        if not h.dims:
            print("homology is zero")
        for units, dim in sorted(h.dims.items()):
            print(f"deg {_fmt_deg(units, c.n)}: {dim}")
    elif args.action == "chi":
        print(euler_char(c).pretty())
    elif args.action == "ss":
        ss = spectral_sequence(c)
        for r, page in enumerate(ss.pages):
            cells = ", ".join(f"(p={p}, deg={_fmt_deg(u, c.n)}): {d}"
                              for (p, u), d in page.items()) or "0"
            print(f"E_{r}: {cells}")
        print(f"stabilizes at E_{ss.stabilization}; chi = {ss.page_chi(0).pretty()}")
    return EXIT_OK


def _n_range_arg(text: str) -> range:
    try:
        return parse_n_range(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rootchi", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print a link invariant")
    p.add_argument("link", help="inline PD[...]/BR[...]/U or a bundled corpus name")
    p.add_argument("--invariant", choices=["homfly", "alexander", "sln"],
                   default="homfly")
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--variant", choices=["reduced", "middle", "unreduced"],
                   default="reduced")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_poly)

    v = sub.add_parser("verify", help="run the identity checker over a corpus")
    v.add_argument("--corpus", help="corpus file (default: bundled)")
    v.add_argument("--n-range", type=_n_range_arg, default="1..6",
                   help="lo..hi with 1 <= lo <= hi, e.g. 1..6")
    v.add_argument("--report", help="write the JSON report here")
    v.add_argument("--jobs", type=_positive_int, default=1)
    v.add_argument("--approx", action="store_true",
                   help="add display-only decimal approximations to the report")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("complex", help="operate on (1/n)Z-graded complex JSON")
    c.add_argument("action", choices=["hom", "chi", "ss", "unknot-hfkn"])
    c.add_argument("file", nargs="?", help="complex JSON file, or - for stdin")
    c.add_argument("--n", type=int, default=2, help="for unknot-hfkn")
    c.set_defaults(func=cmd_complex)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DiagramError, PolyError, ComplexError, BoundSettingError) as e:
        kind = getattr(e, "kind", None)
        label = f" [{kind}]" if kind else ""
        print(f"error{label}: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceBoundError as e:
        print(f"resource bound: {e}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
