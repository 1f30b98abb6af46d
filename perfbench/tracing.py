"""Span tracing of rootchi's layers from outside the library.

Every function below is replaced, in every rootchi module that holds it, by
a wrapper that records a span: name, start, end, parent span and operation
id.  Operators of ``LaurentPoly`` and ``CycloNum`` are wrapped on the class.
Spans stay in memory until ``write_spans``.

Per name the tracer counts calls and the inclusive time of outermost calls
(a call inside another call of the same name adds no time, so recursion is
not counted twice).  Per layer it sums self time: a span's duration minus
the time of the spans it directly contains.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# layer -> (module, functions, {class: {method: span name}})
_OPS = {"__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
        "__mul__": "mul", "__rmul__": "mul", "__neg__": "neg", "__pow__": "pow"}
TRACED = {
    "verify": ("rootchi.verify", (
        "run_link_checks", "reports_to_json", "verify_skein_triple",
        "verify_polynomial_identities", "verify_oracle", "verify_thm_sln",
        "verify_thm_hfk", "verify_square", "eval_az"), {}),
    "skein": ("rootchi.skein", (
        "homfly_unreduced", "homfly_reduced", "homfly_middle", "alexander",
        "sln_poly", "quantum_integer"), {}),
    "linkdiag": ("rootchi.linkdiag", (
        "parse_link", "parse_pd", "parse_braid", "canonical_key",
        "first_non_descending", "switch_crossing", "smooth_crossing", "simplify",
        "skein_resolve"), {}),
    "laurent": ("rootchi.laurent", ("substitute", "exact_div", "serialize", "parse_poly"), {
        "LaurentPoly": _OPS,
        "RationalPair": {"__eq__": "pair_eq", "__mul__": "pair_mul"}}),
    "cyclo": ("rootchi.cyclo", ("root", "eval_at_root", "cyclo_arith"), {
        "CycloNum": {**_OPS, "inverse": "inverse", "__eq__": "eq", "pretty": "pretty"}}),
    "alexoracle": ("rootchi.alexoracle", ("alex_matrix_poly", "normalize_symmetric"), {}),
    "frcomplex": ("rootchi.frcomplex", (
        "build", "homology", "homology_complex", "euler_char", "chi_of_dims", "shift",
        "cone", "build_module", "koszul_tensor", "spectral_sequence",
        "graded_homology_dims"), {"SpectralSequence": {"page_chi": "page_chi"}}),
    "corpus": ("rootchi.corpus", ("bundled_corpus", "parse_corpus"), {
        "CorpusEntry": {"diagram": "diagram"}}),
}


class Tracer:
    def __init__(self):
        self.op = -1                  # operation id; -1 while setting up
        self.names: list[str] = []
        self.layers = list(TRACED)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op)
        self.calls: list[int] = []
        self.busy: list[float] = []
        self.self_s = [0.0] * len(self.layers)
        self._depth: list[int] = []
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._t0 = time.perf_counter()

    def _wrap(self, fn, name: str, layer: str):
        key = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.busy.append(0.0)
        self._depth.append(0)
        layer_idx = self.layers.index(layer)
        spans, stack, depth = self.spans, self._stack, self._depth
        calls, busy, self_s = self.calls, self.busy, self.self_s
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            depth[key] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                spans.append((sid, key, start, end, parent, tracer.op))
                calls[key] += 1
                self_s[layer_idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                depth[key] -= 1
                if not depth[key]:
                    busy[key] += dur

        return traced

    def install(self) -> None:
        """Import rootchi and patch every traced name wherever it is bound."""
        for modname, _, _ in TRACED.values():
            importlib.import_module(modname)
        loaded = [m for name, m in sys.modules.items()
                  if name == "rootchi" or name.startswith("rootchi.")]
        for layer, (modname, funcs, classes) in TRACED.items():
            mod = sys.modules[modname]
            for fname in funcs:
                orig = getattr(mod, fname)
                wrapper = self._wrap(orig, f"{layer}.{fname}", layer)
                for m in loaded:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
            for cname, methods in classes.items():
                cls = getattr(mod, cname)
                by_orig: dict[int, object] = {}   # aliases such as __radd__ = __add__
                for meth, span in methods.items():
                    orig = cls.__dict__[meth]
                    if id(orig) not in by_orig:
                        by_orig[id(orig)] = self._wrap(orig, f"{layer}.{span}", layer)
                    setattr(cls, meth, by_orig[id(orig)])

    def summary(self) -> dict:
        """Counts and times per span name, self time per layer."""
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        for name, c, b in zip(self.names, self.calls, self.busy):
            calls[name] = calls.get(name, 0) + c
            busy[name] = busy.get(name, 0.0) + b
        return {"calls": calls, "busy_s": busy,
                "self_s": dict(zip(self.layers, self.self_s)),
                "spans": len(self.spans)}

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        t0 = self._t0
        rows = [[sid, key, round(s - t0, 7), round(e - t0, 7), parent, op]
                for sid, key, s, e, parent, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))
