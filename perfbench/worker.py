"""One timed pass of a workload, in a fresh interpreter.

Run from the root of a checkout by ``run.py``; not meant to be started by
hand.  It imports rootchi from ``src/``, does the workload's set-up (corpus
parse or seeded input generation), prints nothing until the pass is over and
then writes one JSON line to standard output:

* ``ready``: ``time.perf_counter()`` when set-up ended.  The parent takes
  the same clock before starting this process, and on Linux that clock is
  the system-wide monotonic one, so the difference is the set-up time;
* ``pass_s``, ``op_ms``, ``rss_mb``: the pass, each operation, peak RSS;
* ``outputs``: what each operation returned, as plain JSON, for the parent
  to check against its references;
* ``layers`` (traced passes only): counts and times per wrapped function.

Only the calls into rootchi are inside the timed region; turning results
into plain data happens between operations, outside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402  (the benchmark's own module, next to this file)

N_RANGE = range(1, 7)          # rootchi verify --n-range 1..6
SLN_RANGE = range(2, 7)
MAX_CROSSINGS = 16


def poly_data(p) -> list:
    """A LaurentPoly as [vars, [[doubled exponents], "coefficient"], ...]."""
    return [list(p.vars), [[list(e), str(c)] for e, c in p.terms]]


def cyclo_data(x) -> list:
    return [x.order, [str(c) for c in x.coeffs]]


# -- operations --------------------------------------------------------------
#
# Each ``op_*`` makes only library calls and returns library objects; the
# matching ``export_*`` turns them into plain data outside the timed region.


def op_corpus(R, entry):
    from rootchi import verify
    d = entry.diagram()
    reports = verify.run_link_checks(entry.name, d, N_RANGE, expected=entry.expected)
    return verify.reports_to_json(reports)


def export_corpus(text: str):
    return [[r["n"], [[c["name"], c["status"]] for c in r["checks"]]]
            for r in json.loads(text)]


def op_braid(R, item):
    d = R.parse_link(item["source"])
    p = R.homfly_unreduced(d, max_crossings=MAX_CROSSINGS)
    out = {
        "components": d.components,
        "homfly_unreduced": p,
        "homfly_reduced": R.homfly_reduced(d, unreduced=p),
        "homfly_middle": R.homfly_middle(d, unreduced=p),
        "alexander": R.alexander(d, unreduced=p),
        "sln": [[R.sln_poly(d, n, reduced=True, unreduced_homfly=p),
                 R.sln_poly(d, n, reduced=False, unreduced_homfly=p)] for n in SLN_RANGE],
    }
    sym = R.normalize_symmetric(R.alex_matrix_poly(d))
    out["oracle"] = sym.poly
    out["oracle_sign_fixed"] = sym.sign_fixed
    return out


def export_braid(out: dict):
    data = {}
    for key, val in out.items():
        if key == "sln":
            data[key] = [[poly_data(r), poly_data(u)] for r, u in val]
        elif hasattr(val, "terms"):
            data[key] = poly_data(val)
        else:
            data[key] = val
    return data


def op_complex(R, c):
    from rootchi import frcomplex
    n = c["n"]
    out = {}
    x = R.build(n, c["degrees"], c["diff"])
    out["homology"] = R.homology(x).dims
    chi = R.euler_char(x)
    out["chi"] = chi
    shifted = R.shift(x, c["shift"])
    out["chi_shift"] = R.euler_char(shifted)
    out["chi_shift_law"] = R.root(n, -c["shift"]) * chi
    ident = [[int(i == j) for j in range(x.dim)] for i in range(x.dim)]
    cone_id = R.cone(ident, x, x)
    out["cone_id_homology"] = R.homology(cone_id).dims
    out["cone_id_chi"] = R.euler_char(cone_id)
    y = R.build(n, c["y_degrees"], c["y_diff"])
    cone_inc = R.cone(c["inclusion"], x, y)
    out["cone_inc_homology"] = R.homology(cone_inc).dims
    out["cone_inc_chi"] = R.euler_char(cone_inc)
    out["chi_y_minus_x"] = R.euler_char(y) - chi
    f = R.build(n, c["f_degrees"], c["f_diff"], filtration=c["f_filtration"])
    ss = R.spectral_sequence(f)
    out["page_chi"] = [ss.page_chi(r) for r in range(len(ss.pages))]
    out["e_infinity"] = ss.infinity
    out["graded_homology"] = frcomplex.graded_homology_dims(f)
    mod = R.build_module(n, c["module"]["degrees"], c["module"]["endos"])
    out["koszul_chi"] = R.euler_char(R.koszul_tensor(mod))
    return out


def export_complex(out: dict):
    data = {}
    for key, val in out.items():
        if key == "page_chi":
            data[key] = [cyclo_data(v) for v in val]
        elif hasattr(val, "coeffs"):
            data[key] = cyclo_data(val)
        elif isinstance(val, dict):     # degree -> dim, or (level, degree) -> dim
            data[key] = sorted([*(k if isinstance(k, tuple) else (k,)), v]
                               for k, v in val.items())
        else:
            data[key] = val
    return data


# -- set-up and the pass ---------------------------------------------------------


def setup(workload: str, seed: int):
    import rootchi as R
    from rootchi import corpus
    if workload == "corpus-verify":
        return R, corpus.bundled_corpus(), op_corpus, export_corpus
    items = inputs.generate(workload, seed)
    if workload == "braid-invariants":
        return R, items, op_braid, export_braid
    return R, items, op_complex, export_complex


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", help="trace the pass and write its spans to this file")
    args = ap.parse_args(argv)

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    R, items, op, export = setup(args.workload, args.seed)
    ready = time.perf_counter()

    op_ms, outputs = [], []
    t_start = time.perf_counter()
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            result = op(R, item)
        except Exception:  # one failing operation must not hide the others
            t1 = time.perf_counter()
            outputs.append({"error": traceback.format_exc(limit=3)})
        else:
            t1 = time.perf_counter()
            outputs.append(export(result))
        op_ms.append((t1 - t0) * 1000.0)
    pass_s = time.perf_counter() - t_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"ready": ready, "pass_s": pass_s, "op_ms": op_ms, "rss_mb": rss_mb,
              "outputs": outputs}
    if tracer is not None:
        record["layers"] = tracer.summary()
        tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
