"""rootchi benchmark: one workload, timed pass by pass, checked against references.

Run from the root of a rootchi checkout:

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 40 --trace 0

Each pass runs ``worker.py`` in a fresh interpreter, one after another, so
every pass pays cold caches as a ``rootchi`` command does.  Passes are
started until the next one would end after ``--seconds``, but a run times
at least 100 operations (with ``--trace 1``, at least one untraced and one
traced pass).  Every operation of every pass is then checked by
``checks.py``; a wrong output or an error counts the operation as failed.  Negative controls feed the checks one
corrupted value each and must see it rejected.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including the
tracing overhead.  The last line of standard output is the result object;
the line before it, and ``.perfbench/results/``, hold the run's environment
and details.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import copy
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402

PASS_TIMEOUT_S = 170
MIN_OPS = 100       # so that op_p90_ms has at least ten samples beyond it
CORPUS = os.path.join("src", "rootchi", "data", "corpus.txt")
END_TO_END = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MB"}


# -- the checkout and its environment -------------------------------------------


def src_digest(root: str) -> str:
    """sha256 over the library sources, which names the code under test even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    base = os.path.join(root, "src", "rootchi")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith((".py", ".txt")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_rev(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(root: str) -> dict:
    return {"git_rev": git_rev(root), "src_sha256": src_digest(root),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


# -- passes -----------------------------------------------------------------------


def run_pass(root: str, workload: str, seed: int, spans: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if spans:
        cmd += ["--spans", spans]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {PASS_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        rec = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"worker printed no result: {lines[-1][:200]!r}"}
    rec["setup_s"] = rec.pop("ready") - t_spawn
    rec["traced"] = bool(spans)
    return rec


# -- checking -----------------------------------------------------------------------


class Checker:
    """References for one (workload, seed), and a verdict per operation.

    Outputs repeat from pass to pass, so a verdict is kept per distinct
    output and each pass still counts its own failures.
    """

    def __init__(self, root: str, workload: str, seed: int):
        self.workload = workload
        if workload == "corpus-verify":
            with open(os.path.join(root, CORPUS), encoding="utf-8") as fh:
                self.items = checks.corpus_check_counts(fh.read())
        else:
            self.items = inputs.generate(workload, seed)
        self._refs: dict[int, dict] = {}
        self._verdicts: dict[tuple[int, str], list[str]] = {}

    def problems(self, k: int, out) -> list[str]:
        item = self.items[k]
        if self.workload == "corpus-verify":
            if isinstance(out, dict):
                return [f"{item[0]}: {out['error'].strip().splitlines()[-1]}"]
            return checks.check_corpus(item, out)
        if self.workload == "braid-invariants":
            return checks.check_braid(item, out)
        if k not in self._refs:
            self._refs[k] = checks.complex_references(item)
        return checks.check_complex(item, self._refs[k], out)

    def verdict(self, k: int, out) -> list[str]:
        key = (k, json.dumps(out, sort_keys=True))
        if key not in self._verdicts:
            self._verdicts[key] = self.problems(k, out)
        return self._verdicts[key]

    def block_entries(self) -> int:
        """Matrix entries of the per-degree blocks handed to elimination in one
        pass: main complex, both cones and the filtered complex."""
        if self.workload != "complex-algebra":
            return 0
        total = 0
        for c in self.items:
            n, x = c["n"], c["degrees"]
            shifted = [u - n for u in x]
            for degs in (x, shifted + x, shifted + c["y_degrees"], c["f_degrees"]):
                dims: dict[int, int] = {}
                for u in degs:
                    dims[u] = dims.get(u, 0) + 1
                total += sum(k * dims.get(u + n, 0) for u, k in dims.items())
        return total


def negative_controls(checker: Checker, outputs: list) -> dict[str, bool | None]:
    """Corrupt one value per control; True when the check rejects it, None
    when the uncorrupted output already fails (it is counted as failed)."""
    def detected(k: int, corrupt) -> bool | None:
        if checker.problems(k, outputs[k]):
            return None
        out = copy.deepcopy(outputs[k])
        corrupt(out)
        return bool(checker.problems(k, out))

    def bump(coeff_list, i=0):
        coeff_list[i] = str(Fraction(coeff_list[i]) + 1)

    def flip_term(poly, i=0):
        term = poly[1][i]
        term[1] = str(-Fraction(term[1]))

    if checker.workload == "corpus-verify":
        return {
            "dropped check": detected(0, lambda o: o[0][1].pop()),
            "failing check": detected(1, lambda o: o[1][1][0].__setitem__(1, "fail")),
        }
    if checker.workload == "braid-invariants":
        last = len(outputs) - 1      # a random closure, not a torus knot
        return {
            "flipped HOMFLY coefficient (torus knot)":
                detected(0, lambda o: flip_term(o["homfly_unreduced"])),
            "flipped HOMFLY coefficient (random braid)":
                detected(last, lambda o: flip_term(o["homfly_unreduced"], -1)),
            "wrong Alexander coefficient":
                detected(0, lambda o: flip_term(o["alexander"])),
            "wrong sl(3) coefficient":
                detected(last, lambda o: flip_term(o["sln"][1][0])),
        }
    return {
        "homology dimension off by one":
            detected(0, lambda o: o["homology"][0].__setitem__(-1, o["homology"][0][-1] + 1)),
        "wrong cyclotomic coefficient":
            detected(1, lambda o: bump(o["chi"][1])),
        "wrong Koszul coefficient":
            detected(2, lambda o: bump(o["koszul_chi"][1])),
        "E_infinity off by one":
            detected(3, lambda o: o["e_infinity"][0].__setitem__(-1, o["e_infinity"][0][-1] + 1)),
        "cone of the identity not acyclic":
            detected(4, lambda o: o["cone_id_homology"].append([0, 1])),
    }


# -- metrics ---------------------------------------------------------------------------


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(passes: list[dict]) -> dict:
    ops = [ms for p in passes for ms in p["op_ms"]]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "op_p50_ms": statistics.median(ops),
        "op_p90_ms": p90(ops),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(traced: list[dict], untraced: list[dict], checks_per_pass: int,
              block_entries: int, spec: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics from the traced passes.  Counts come from the first
    traced pass; the flag says whether every traced pass repeated them."""
    layers = [p["layers"] for p in traced]
    calls = layers[0]["calls"]
    repeat = all(L["calls"] == calls for L in layers)
    values: dict[str, float] = {}
    for m in spec:
        name = m["name"]
        parts = name.split(".")
        if name == "verify.checks":
            v = checks_per_pass
        elif name == "frcomplex.block_entries":
            v = block_entries
        elif name == "skein.memo_hit_ratio":
            lookups = calls.get("linkdiag.canonical_key", 0)
            misses = calls.get("linkdiag.first_non_descending", 0)
            v = 1.0 - misses / lookups if lookups else 0.0
        elif name == "trace.overhead_pct":
            traced_s = statistics.median(p["pass_s"] for p in traced)
            plain_s = statistics.median(p["pass_s"] for p in untraced)
            v = 100.0 * (traced_s / plain_s - 1.0)
        elif name == "trace.spans":
            v = layers[0]["spans"]
        elif parts[-1] == "self_s":
            v = statistics.median(L["self_s"][parts[0]] for L in layers)
        elif parts[-1] == "busy_s":
            v = statistics.median(L["busy_s"].get(".".join(parts[:-1]), 0.0) for L in layers)
        else:                                   # <layer>.<function>.calls
            v = calls.get(".".join(parts[:-1]), 0)
        values[name] = {"value": v, "unit": m["unit"]}
    return values, repeat


# -- main ------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rootchi", "__init__.py")):
        print(f"{root} is not a rootchi checkout: src/rootchi is missing", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        layer_spec = json.load(fh)["per_layer"]
    # the build: byte-compile once, so no pass pays for it in its set-up
    compileall.compile_dir(os.path.join(root, "src", "rootchi"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    out_dir = os.path.join(root, ".perfbench")
    spans_path = os.path.join(out_dir, "spans", f"{args.workload}-seed{args.seed}.json")

    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(root, args.workload, args.seed, spans_path if traced else None))
        if "error" in passes[-1]:       # a broken worker: report, do not retry
            break
        elapsed = time.perf_counter() - t0
        plain_ops = sum(len(p["op_ms"]) for p in passes if not p["traced"])
        enough = len(passes) >= 2 if args.trace else plain_ops >= MIN_OPS
        if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    measured_s = time.perf_counter() - t0

    checker = Checker(root, args.workload, args.seed)
    n_ops = len(checker.items)
    attempted = failed = 0
    wrong = False
    problems: list[str] = []
    good = [p for p in passes if "error" not in p]
    for p in passes:
        attempted += n_ops
        if "error" in p:
            failed += n_ops
            problems.append(p["error"])
            continue
        for k, out in enumerate(p["outputs"]):
            found = checker.verdict(k, out)
            if found:
                failed += 1
                wrong = wrong or not (isinstance(out, dict) and "error" in out)
                problems.extend(x for x in found if x not in problems)
    controls = negative_controls(checker, good[0]["outputs"]) if good else {}
    correct = bool(good) and not wrong and False not in controls.values()

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **environment(root),
            "passes": len(passes), "measured_s": measured_s,
            "attempted": attempted, "failed": failed, "problems": problems[:20],
            "negative_controls": {k: {True: "rejected", False: "ACCEPTED", None: "skipped"}[v]
                                  for k, v in controls.items()}}
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    metrics: dict = {}
    if args.trace and traced and plain:
        checks_per_pass = sum(len(cs) for out in traced[0]["outputs"]
                              if isinstance(out, list) for _, cs in out)
        metrics, repeat = per_layer(traced, plain, checks_per_pass, checker.block_entries(),
                                    layer_spec)
        meta["layer_counts_repeat"] = repeat
        meta["spans_file"] = os.path.relpath(spans_path, root)
        correct = correct and repeat
    elif not args.trace and plain:
        metrics = end_to_end(plain)
        meta["op_samples"] = sum(len(p["op_ms"]) for p in plain)
        meta["setup_s_each"] = [p["setup_s"] for p in plain]
        meta["pass_s_each"] = [p["pass_s"] for p in plain]
    result = {"correct": correct and bool(metrics), "attempted": attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**meta, "result": result}, fh, indent=1)
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
