"""Reference checks for the workloads' outputs, computed apart from rootchi.

Each ``check_*`` takes one operation's input and the plain-JSON output the
worker exported, and returns a list of problems; an empty list is a pass.
References come from closed formulas (Jones 1987 for torus knots), from
``sympy`` (cyclotomic remainders), from the benchmark's own small Laurent
arithmetic, from the way the inputs were constructed, or from theorems the
outputs must satisfy.  Nothing here imports rootchi.

Polynomials arrive as ``[vars, [[doubled exponents], "coefficient"], ...]``:
an exponent e/2 is stored as e, as rootchi does.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

# -- corpus-verify ---------------------------------------------------------------

_EXPECT = re.compile(r"#\s*expect\s+(\S+)\s+\S+\s*:")
N_VALUES = range(1, 7)


def corpus_check_counts(text: str) -> list[tuple[str, int]]:
    """(link name, number of checks it must produce) in corpus order.

    Per link: 9 identity checks and 1 oracle check, one skein-triple check
    per crossing, one per ``# expect`` line, then 4 checks for n = 1 and 6
    for each n >= 2.
    """
    links: list[tuple[str, int]] = []
    expects: dict[str, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _EXPECT.match(line)
            if m:
                expects[m.group(1)] = expects.get(m.group(1), 0) + 1
            continue
        name, source = (s.strip() for s in line.split(":", 1))
        if source.startswith("BR["):
            crossings = len(source[source.index(";") + 1:source.rindex("]")].replace(",", " ").split())
        else:
            crossings = source.count("X[")
        links.append((name, crossings))
    per_n = sum(4 if n == 1 else 6 for n in N_VALUES)
    return [(name, 10 + c + expects.get(name, 0) + per_n) for name, c in links]


def check_corpus(expected: tuple[str, int], reports: list) -> list[str]:
    """``reports``: [[n, [[check name, status], ...]], ...] for one link."""
    name, want = expected
    problems = []
    got = sum(len(checks) for _, checks in reports)
    if got != want:
        problems.append(f"{name}: {got} checks, the corpus asks for {want}")
    if [n for n, _ in reports] != [0, *N_VALUES]:
        problems.append(f"{name}: reports for n = {[n for n, _ in reports]}")
    bad = [f"n={n} {c}" for n, checks in reports for c, status in checks if status != "pass"]
    if bad:
        problems.append(f"{name}: failing checks {bad[:5]}")
    return problems


# -- a small Laurent arithmetic of our own -------------------------------------------


def poly_terms(data, names: tuple[str, ...]) -> dict[tuple[int, ...], Fraction]:
    """Terms over the variables ``names`` (absent ones get exponent 0)."""
    vars_, terms = data
    if not set(vars_) <= set(names):
        raise ValueError(f"variables {vars_} outside {names}")
    idx = [vars_.index(v) if v in vars_ else None for v in names]
    out = {}
    for exps, c in terms:
        out[tuple(exps[i] if i is not None else 0 for i in idx)] = Fraction(c)
    return out


def uni(data, name: str) -> dict[int, Fraction]:
    return {e[0]: c for e, c in poly_terms(data, (name,)).items()}


def _add_into(acc: dict, key, c) -> None:
    v = acc.get(key, 0) + c
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2)) if isinstance(e1, tuple) else e1 + e2
            _add_into(out, key, c1 * c2)
    return out


def neg(p: dict) -> dict:
    return {e: -c for e, c in p.items()}


def power(p: dict, k: int) -> dict:
    out = {0: Fraction(1)}
    for _ in range(k):
        out = mul(out, p)
    return out


def exact_div(p: dict[int, Fraction], d: dict[int, Fraction]) -> dict[int, Fraction]:
    """One-variable Laurent division; raises ValueError if it is not exact."""
    p = dict(p)
    q: dict[int, Fraction] = {}
    dtop = max(d)
    floor = (min(p) - min(d)) if p else 0
    while p:
        e = max(p)
        k = e - dtop
        if k < floor:
            raise ValueError("division leaves a remainder")
        c = p[e] / d[dtop]
        q[k] = c
        for de, dc in d.items():
            _add_into(p, k + de, -c * dc)
    return q


S_Q = {2: Fraction(1), -2: Fraction(-1)}          # q - q^-1, doubled exponents


def quantum_n(n: int) -> dict[int, Fraction]:
    """[n] = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    return {2 * (n - 1 - 2 * j): Fraction(1) for j in range(n)}


def specialize_sln(homfly: dict[tuple[int, int], Fraction], n: int) -> dict[int, Fraction]:
    """P(a = q^n, z = q - q^-1) for P over (a, z), by clearing z powers first."""
    lo = min((ez for _, ez in homfly), default=0)
    k = -lo // 2 if lo < 0 else 0
    total: dict[int, Fraction] = {}
    for (ea, ez), c in homfly.items():
        if ez % 2:
            raise ValueError("half-integer power of z")
        term = mul({n * ea: c}, power(S_Q, ez // 2 + k))
        for e, v in term.items():
            _add_into(total, e, v)
    return exact_div(total, power(S_Q, k)) if k else total


# -- closed forms for torus knots (via sympy) ----------------------------------------


@lru_cache(maxsize=None)
def _sympy():
    import sympy
    return sympy


@lru_cache(maxsize=None)
def torus_alexander(p: int, q: int) -> dict[int, Fraction]:
    """(t^pq - 1)(t - 1)/((t^p - 1)(t^q - 1)), centred symmetrically."""
    sp = _sympy()
    t = sp.Symbol("t")
    quo, rem = sp.div(sp.Poly((t ** (p * q) - 1) * (t - 1), t),
                      sp.Poly((t ** p - 1) * (t ** q - 1), t))
    if not rem.is_zero:
        raise ValueError("torus Alexander quotient is not a polynomial")
    deg = (p - 1) * (q - 1)
    return {2 * e - deg: Fraction(int(c)) for (e,), c in quo.terms()}


@lru_cache(maxsize=None)
def torus_jones(p: int, q: int) -> dict[int, Fraction]:
    """t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)."""
    sp = _sympy()
    t = sp.Symbol("t")
    quo, rem = sp.div(sp.Poly(1 - t ** (p + 1) - t ** (q + 1) + t ** (p + q), t),
                      sp.Poly(1 - t ** 2, t))
    if not rem.is_zero:
        raise ValueError("torus Jones quotient is not a polynomial")
    shift = (p - 1) * (q - 1)          # doubled exponent of t^((p-1)(q-1)/2)
    return {2 * e + shift: Fraction(int(c)) for (e,), c in quo.terms()}


# -- braid-invariants --------------------------------------------------------------

AZ = ("a", "z")


def check_braid(item: dict, out: dict) -> list[str]:
    if "error" in out:
        return [f"{item['name']}: {out['error'].strip().splitlines()[-1]}"]
    name, ell = item["name"], item["components"]
    problems = []
    try:
        p = poly_terms(out["homfly_unreduced"], AZ)
        pbar = poly_terms(out["homfly_reduced"], AZ)
        pmid = poly_terms(out["homfly_middle"], AZ)
        delta = uni(out["alexander"], "t")
        oracle = uni(out["oracle"], "t")
        if out["components"] != ell:
            problems.append(f"{name}: {out['components']} components, the braid closes into {ell}")
        # normalizations: P = (a - a^-1)/z * Pbar and Pbar = -z * Pmid
        a_factor = {(2, 0): Fraction(1), (-2, 0): Fraction(-1)}
        if mul(pbar, a_factor) != mul(p, {(0, 2): Fraction(1)}):
            problems.append(f"{name}: unreduced != (a - a^-1)/z * reduced")
        if pbar != neg(mul(pmid, {(0, 2): Fraction(1)})):
            problems.append(f"{name}: reduced != -z * middle")
        # skein Alexander against the relation-matrix one (sign free for links)
        if not (oracle == delta or (ell > 1 and not out["oracle_sign_fixed"]
                                    and oracle == neg(delta))):
            problems.append(f"{name}: skein and relation-matrix Alexander differ")
        for n, (red_data, unred_data) in zip(range(2, 7), out["sln"]):
            red, unred = uni(red_data, "q"), uni(unred_data, "q")
            spec = specialize_sln(p, n)
            if spec != unred:
                problems.append(f"{name}: sl({n}) unreduced != P(q^{n}, q - q^-1)")
            if (exact_div(spec, quantum_n(n)) if spec else {}) != red:
                problems.append(f"{name}: sl({n}) reduced != unreduced / [{n}]")
            if sum(unred.values()) != n ** ell:
                problems.append(f"{name}: sl({n}) unreduced at q=1 is {sum(unred.values())}, not {n}^{ell}")
            if sum(red.values()) != n ** (ell - 1):
                problems.append(f"{name}: sl({n}) reduced at q=1 is {sum(red.values())}, not {n}^{ell - 1}")
        if item["torus"] and ell == 1:
            tp, tq = item["torus"]
            if delta != torus_alexander(tp, tq):
                problems.append(f"{name}: Alexander differs from the torus-knot formula")
            jones = {}
            for e, c in uni(out["sln"][0][0], "q").items():   # q = t^(-1/2)
                if e % 2:
                    raise ValueError("odd q exponent in a knot's sl(2) polynomial")
                jones[-e // 2] = c
            if jones != torus_jones(tp, tq):
                problems.append(f"{name}: sl(2) at q = t^(-1/2) differs from Jones's torus formula")
    except (ValueError, ZeroDivisionError, KeyError, TypeError) as e:
        problems.append(f"{name}: malformed output ({e})")
    return problems


# -- complex-algebra -------------------------------------------------------------------


def chi_reference(n: int, degrees, factor_k: int = 0) -> tuple[int, list[Fraction]]:
    """Sum of x^(u mod 2n) over ``degrees``, times (1 - x^2)^factor_k, reduced
    modulo the 2n-th cyclotomic polynomial: the Euler characteristic in the
    power basis of e^(pi i/n), computed with sympy."""
    sp = _sympy()
    x = sp.Symbol("x")
    m = 2 * n
    counts = [0] * m
    for u in degrees:
        counts[u % m] += 1
    f = sp.Poly(list(reversed(counts)), x) * sp.Poly(1 - x ** 2, x) ** factor_k
    phi = sp.Poly(sp.cyclotomic_poly(m, x), x)
    rem = f.rem(phi)
    coeffs = [Fraction(int(c)) for c in reversed(rem.all_coeffs())] if not rem.is_zero else []
    return m, coeffs + [Fraction(0)] * (phi.degree() - len(coeffs))


def _cyclo(data) -> tuple[int, list[Fraction]]:
    order, coeffs = data
    return order, [Fraction(c) for c in coeffs]


def _dims(rows) -> dict:
    return {tuple(r[:-1]) if len(r) > 2 else r[0]: r[-1] for r in rows}


def complex_references(c: dict) -> dict:
    n = c["n"]
    y_only = list(c["y_degrees"])
    for u in c["degrees"]:
        y_only.remove(u)
    return {
        "chi": chi_reference(n, c["degrees"]),
        "chi_shift": chi_reference(n, [u - c["shift"] for u in c["degrees"]]),
        "zero": chi_reference(n, []),
        "chi_z": chi_reference(n, y_only),
        "chi_f": chi_reference(n, c["f_degrees"]),
        "koszul": chi_reference(n, c["module"]["degrees"], len(c["module"]["endos"])),
    }


def check_complex(c: dict, refs: dict, out: dict) -> list[str]:
    if "error" in out:
        return [out["error"].strip().splitlines()[-1]]
    problems = []
    want = [
        ("homology dimensions", _dims(out["homology"]), c["homology"]),
        ("euler_char", _cyclo(out["chi"]), refs["chi"]),
        ("euler_char after shift", _cyclo(out["chi_shift"]), refs["chi_shift"]),
        ("shift law root(n, -s) * chi", _cyclo(out["chi_shift_law"]), refs["chi_shift"]),
        ("homology of the cone of the identity", _dims(out["cone_id_homology"]), {}),
        ("euler_char of the cone of the identity", _cyclo(out["cone_id_chi"]), refs["zero"]),
        ("homology of the cone of the inclusion", _dims(out["cone_inc_homology"]),
         c["cone_homology"]),
        ("euler_char of the cone of the inclusion", _cyclo(out["cone_inc_chi"]), refs["chi_z"]),
        ("chi(Y) - chi(X)", _cyclo(out["chi_y_minus_x"]), refs["chi_z"]),
        ("E_infinity", _dims(out["e_infinity"]), c["f_graded_homology"]),
        ("graded_homology_dims", _dims(out["graded_homology"]), c["f_graded_homology"]),
        ("Koszul factor (1 - e^(2 pi i/n))^k", _cyclo(out["koszul_chi"]), refs["koszul"]),
    ]
    e_sum: dict[int, int] = {}
    for (_, u), k in _dims(out["e_infinity"]).items():
        e_sum[u] = e_sum.get(u, 0) + k
    want.append(("E_infinity summed over filtration", e_sum, c["f_homology"]))
    for r, page in enumerate(out["page_chi"]):
        want.append((f"euler_char of page {r}", _cyclo(page), refs["chi_f"]))
    for what, got, ref in want:
        if got != ref:
            problems.append(f"{what}: {got} != {ref}")
    return problems
