"""Exact verification of every polynomial identity the library asserts.

Each check computes both sides independently and compares them exactly in
Q or in a cyclotomic field; a failing check embeds both values in the
report rather than raising.  Overrides for the computed polynomials exist
so negative controls can corrupt a value and watch a check fail.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .alexoracle import alex_matrix_poly, normalize_symmetric
from .corpus import expected_order
from .cyclo import CycloNum, eval_at_root, root, root_sum
from .gradings import eval_exponent, hfk_phase, hfk_shift_spec, koszul_factor
from .laurent import (LaurentPoly, PolyError, RationalPair, one, parse_poly,
                      serialize, zero)
from .linkdiag import LinkDiagram, SkeinSite, skein_resolve
from .skein import (_A, _S, _Z, _image, alexander, eval_az, homfly_middle,
                    homfly_unreduced, sln_poly, sln_reduce)

_A_INV = _A ** -1


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    lhs: str
    rhs: str

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass
class VerifyReport:
    link: str
    ell: int
    n: int
    checks: list[CheckResult] = field(default_factory=list)
    ms: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {"link": self.link, "ell": self.ell, "n": self.n,
                "checks": [{"name": c.name, "status": c.status,
                            "lhs": c.lhs, "rhs": c.rhs} for c in self.checks],
                "ms": round(self.ms, 3)}


def reports_to_json(reports: list[VerifyReport], approx: bool = False) -> str:
    """Serialize reports; values are always exact.  With ``approx`` a
    display-only decimal approximation is added where the value is a plain
    rational or a cyclotomic vector."""
    data = [r.to_dict() for r in reports]
    if approx:
        for rep in data:
            for check in rep["checks"]:
                for side in ("lhs", "rhs"):
                    z = _approx_of_pretty(check[side])
                    if z is not None:
                        check[side + "_approx"] = f"{z.real:.6g}{z.imag:+.6g}i"
    return json.dumps(data, indent=1)


_CYCLO_TEXT = re.compile(r"cyclo\((\d+)\)\[([^\]]*)\]")


def _approx_of_pretty(text: str) -> complex | None:
    m = _CYCLO_TEXT.fullmatch(text.strip())
    if m:
        order = int(m.group(1))
        coeffs = [Fraction(x.strip()) for x in m.group(2).split(",")]
        return CycloNum(order, tuple(coeffs)).to_complex()
    try:
        return complex(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        return None


def _check(name: str, lhs, rhs) -> CheckResult:
    status = "pass" if lhs == rhs else "fail"
    show = lambda x: x.pretty() if isinstance(x, CycloNum) else \
        (serialize(x) if isinstance(x, LaurentPoly) else repr(x))
    return CheckResult(name, status, show(lhs), show(rhs))


def _guarded(name: str, fn) -> list[CheckResult]:
    """Run a check builder; a computation error becomes a failing check.

    Corrupted inputs can break the exact divisions the identities rely on,
    and the report should record that rather than crash.
    """
    try:
        return fn()
    except (PolyError, ValueError, ArithmeticError) as e:
        return [CheckResult(name, "fail", f"error: {e}", "")]


# -- individual checks --------------------------------------------------------------


def verify_skein_triple(site: SkeinSite, p_plus: LaurentPoly | None = None,
                        p_minus: LaurentPoly | None = None,
                        p_zero: LaurentPoly | None = None,
                        memo: dict | None = None) -> CheckResult:
    """a*P(L+) - a^(-1)*P(L-) - z*P(L0) must vanish.

    Values not passed in come from ``homfly_unreduced`` with ``memo``, the
    skein memo of the link under verification, so the three diagrams share
    every subdiagram already met there.  At the crossing the recursion
    pivots on (``first_non_descending`` of the diagram) the check only
    restates the recursion step; at every other site it is an independent
    check of the relation.
    """
    d = site.diagram
    switched, smoothed = skein_resolve(site)
    if d.crossings[site.crossing_index].sign > 0:
        plus_d, minus_d = d, switched
    else:
        plus_d, minus_d = switched, d
    pp = p_plus if p_plus is not None else homfly_unreduced(plus_d, memo=memo)
    pm = p_minus if p_minus is not None else homfly_unreduced(minus_d, memo=memo)
    pz = p_zero if p_zero is not None else homfly_unreduced(smoothed, memo=memo)
    residual = _A * pp - _A_INV * pm - _Z * pz
    return _check(f"skein_site_{site.crossing_index}", residual, zero())


def _parity_check(name: str, p: LaurentPoly, want_odd: bool) -> CheckResult:
    """Termwise parity of (a-exponent + z-exponent) over the (a, z) form."""
    bad = []
    vars = p.vars
    for exps, _ in p.terms:
        total = 0
        for v, e in zip(vars, exps):
            if v in ("a", "z"):
                total += e // 2
        if (total % 2 != 0) != want_odd:
            bad.append(exps)
    status = "pass" if not bad else "fail"
    return CheckResult(name, status,
                       f"{len(bad)} offending terms", "0 offending terms")


class LinkValues:
    """The derived invariants of one link, each computed on first use and kept.

    ``run_link_checks`` hands one holder to every check of a link, so a value
    several checks need (P, Delta, the hat polynomial, the sl(n) polynomials
    and their values at roots of unity) is computed once per link and n.
    Only identical computations are shared; the two sides of one check never
    come from one value.  A computation that raises keeps nothing, so each check that needs
    the value meets the error again inside its own guard.  ``homfly`` and
    ``delta`` override the computed P and Delta.  ``named`` is where a name,
    an expect key or the invariant ``rootchi poly`` prints, becomes a value.
    """

    def __init__(self, d: LinkDiagram, homfly: LaurentPoly | None = None,
                 delta: LaurentPoly | None = None, memo: dict | None = None):
        self.d = d
        self.memo = memo
        self._kept: dict = {}
        if homfly is not None:
            self._kept["homfly"] = homfly
        if delta is not None:
            self._kept["delta"] = delta

    def _keep(self, key, compute):
        val = self._kept.get(key)
        if val is None:
            val = self._kept[key] = compute()
        return val

    def homfly(self) -> LaurentPoly:
        """Unreduced P, through the link's skein memo."""
        return self._keep("homfly", lambda: homfly_unreduced(self.d, memo=self.memo))

    def homfly_middle(self) -> LaurentPoly:
        """The one division of P by a - a^(-1) for the link."""
        return self._keep("middle", lambda: homfly_middle(self.d, unreduced=self.homfly()))

    def homfly_reduced(self) -> LaurentPoly:
        return self._keep("reduced", lambda: -self.homfly_middle() * _Z)

    def delta(self) -> LaurentPoly:
        """The kept reduced P at a = 1, z = t^(1/2) - t^(-1/2), as ``alexander``."""
        return self._keep("delta", lambda: _image(self.homfly_reduced(), "t", 0, 1))

    def hat_delta(self) -> LaurentPoly:
        """(t^(-1/2) - t^(1/2))^(l-1) * Delta, the hat theory's prediction."""
        return self._keep("hat_delta",
                          lambda: (-_S) ** (self.d.components - 1) * self.delta())

    def sln(self, n: int, reduced: bool) -> LaurentPoly:
        """One a -> q^n substitution per n gives the unreduced polynomial; the
        reduced one divides it by [n]."""
        if reduced:
            return self._keep(("sln", n, True), lambda: sln_reduce(self.sln(n, False), n))
        return self._keep(("sln", n, False), lambda: sln_poly(
            self.d, n, reduced=False, unreduced_homfly=self.homfly()))

    def sln_at_q(self, n: int, reduced: bool) -> CycloNum:
        """The sl(n) polynomial at q = e^(pi*i/n)."""
        return self._keep(("sln_at_q", n, reduced),
                          lambda: eval_at_root(self.sln(n, reduced), n, 1))

    def delta_at(self, n: int, k: int) -> CycloNum:
        """Delta with t^(1/2) set to e^(pi*i*k/(2n))."""
        return self._keep(("delta_at", n, k), lambda: eval_at_root(self.delta(), n, k))

    def named(self, key: str) -> LaurentPoly:
        """The invariant an expect key names; ``corpus.expected_order`` reads
        the key, so a key it refuses raises ``DiagramError``."""
        n = expected_order(key)
        if n is not None:
            return self.sln(n, reduced=key.endswith("_reduced"))
        getters = {"alexander": self.delta, "homfly_unreduced": self.homfly,
                   "homfly_reduced": self.homfly_reduced,
                   "homfly_middle": self.homfly_middle}
        return getters[key]()

    def route_c(self, n: int) -> CycloNum:
        """The reduced P at a = -1 and z = 2i sin(pi/n): its image at a = -1,
        z = q - q^(-1), kept for every n, read at q = e^(pi*i/n) in Q(zeta_2n)."""
        image = self._keep("route_c", lambda: _image(
            self.homfly_reduced(), "q", 0, 2, a_sign=-1))
        return root_sum(n, ((e[0] // 2 if e else 0, c) for e, c in image.terms))


def verify_polynomial_identities(d: LinkDiagram,
                                 homfly: LaurentPoly | None = None,
                                 delta: LaurentPoly | None = None, *,
                                 values: LinkValues | None = None) -> list[CheckResult]:
    """The six evaluation identities at a = +-1 plus termwise parity.

    Here and in the sl(n), HFK_n and square checks, ``values`` is the link's
    shared holder; without it the check builds its own from ``homfly`` and
    ``delta``.
    """
    v = values or LinkValues(d, homfly, delta)

    def go() -> list[CheckResult]:
        p = v.homfly()
        pbar = v.homfly_reduced()
        pmid = v.homfly_middle()
        dl = v.delta()
        return [
            _check("reduced_at_a1", eval_az(pbar, 1, 1), dl),
            _check("middle_at_a1", eval_az(pmid, 1, 1), RationalPair(dl, -_S)),
            _check("unreduced_at_a1", eval_az(p, 1, 1), RationalPair(zero(), one())),
            _check("reduced_at_a_minus1", eval_az(pbar, -1, -1), dl),
            _check("middle_at_a_minus1", eval_az(pmid, -1, -1), RationalPair(dl, _S)),
            _check("unreduced_at_a_minus1", eval_az(p, -1, 1), RationalPair(zero(), one())),
            _parity_check("parity_reduced", pbar, want_odd=False),
            _parity_check("parity_middle", pmid, want_odd=True),
            _parity_check("parity_unreduced", p, want_odd=False),
        ]
    return _guarded("polynomial_identities", go)


def verify_oracle(d: LinkDiagram, delta: LaurentPoly | None = None) -> CheckResult:
    """Skein-derived symmetric polynomial against the relation-matrix one.

    Exact for knots; for links the matrix route only pins the value up to a
    global sign, so a sign flip still passes (both values are embedded).
    """
    dl = delta if delta is not None else alexander(d)
    sym = normalize_symmetric(alex_matrix_poly(d))
    status = "pass" if sym.matches(dl) else "fail"
    return CheckResult("alexander_oracle", status, serialize(sym.poly), serialize(dl))


def _sl1_checks(prefix: str, v: LinkValues) -> list[CheckResult]:
    """Both sl(1) polynomials are 1."""
    return [_check(f"{prefix}1_reduced_is_1", v.sln(1, True), one()),
            _check(f"{prefix}1_unreduced_is_1", v.sln(1, False), one())]


def verify_thm_sln(d: LinkDiagram, n: int,
                   homfly: LaurentPoly | None = None,
                   delta: LaurentPoly | None = None, *,
                   values: LinkValues | None = None) -> list[CheckResult]:
    """Reduced evaluation at e^(pi*i/n) against the Alexander evaluation at
    t^(1/2) = -e^(pi*i/n); the unreduced evaluation must vanish (n >= 2)."""
    v = values or LinkValues(d, homfly, delta)

    def go() -> list[CheckResult]:
        if n == 1:
            return _sl1_checks("sln", v)
        rhs = v.delta_at(n, eval_exponent("hfk_primed", n))  # t^(1/2) -> -e^(pi*i/n)
        lhs = v.sln_at_q(n, reduced=True)
        return [
            _check(f"sln{n}_reduced_eval", lhs, rhs),
            _check(f"sln{n}_unreduced_vanishes", v.sln_at_q(n, reduced=False),
                   CycloNum.from_rational(0)),
        ]
    return _guarded(f"sln{n}_checks", go)


def verify_thm_hfk(d: LinkDiagram, n: int,
                   homfly: LaurentPoly | None = None,
                   delta: LaurentPoly | None = None, *,
                   values: LinkValues | None = None) -> list[CheckResult]:
    """Euler-characteristic chain for the (1/n)Z-graded theories.

    chi_unprimed = e^(pi*i(1-l)/n) * Delta at t^(1/2) = -e^(-pi*i/n) and
    chi_primed = Delta at t^(1/2) = -e^(pi*i/n) must differ by the shift
    factor e^(pi*i(1-l)(1-1/n)); the hat-theory prediction
    (t^(-1/2) - t^(1/2))^(l-1) * Delta, evaluated at the same point, must
    carry the Koszul factor (1 - e^(2*pi*i/n))^(l-1).
    """
    v = values or LinkValues(d, homfly, delta)

    def go() -> list[CheckResult]:
        if n == 1:
            return _sl1_checks("hfk", v)
        ell = d.components
        at_minus = eval_exponent("hfk", n)          # t^(1/2) -> -e^(-pi*i/n)
        ev_minus = v.delta_at(n, at_minus)
        chi_unprimed = hfk_phase(ell, n) * ev_minus
        chi_primed = v.delta_at(n, eval_exponent("hfk_primed", n))
        shift_factor = root(n, hfk_shift_spec("reduced", ell, n).frac_shift_units)
        hat_eval = eval_at_root(v.hat_delta(), n, at_minus)
        return [
            _check(f"hfk{n}_shift_consistency", chi_primed,
                   shift_factor * chi_unprimed),
            _check(f"hfk{n}_koszul_factor", hat_eval,
                   hfk_phase(ell, n) * koszul_factor(ell, n) * ev_minus),
        ]
    return _guarded(f"hfk{n}_checks", go)


def verify_square(d: LinkDiagram, n: int,
                  homfly: LaurentPoly | None = None,
                  delta: LaurentPoly | None = None, *,
                  values: LinkValues | None = None) -> list[CheckResult]:
    """Three routes to the same number for n >= 2.

    (A) the reduced specialization a -> q^n evaluated at q = e^(pi*i/n);
    (B) the Alexander polynomial at t^(1/2) = -e^(pi*i/n);
    (C) direct evaluation of the reduced form at a = -1, with the division
    by a - a^(-1) done before a is pinned, at z = 2i sin(pi/n).
    """
    v = values or LinkValues(d, homfly, delta)

    def go() -> list[CheckResult]:
        route_b = v.delta_at(n, eval_exponent("hfk_primed", n))
        route_a = v.sln_at_q(n, reduced=True)
        return [
            _check(f"square{n}_left_bottom_vs_top_right", route_a, route_b),
            _check(f"square{n}_direct_route", v.route_c(n), route_a),
        ]
    return _guarded(f"square{n}_checks", go)


# -- per-link driver ------------------------------------------------------------------


def parse_n_range(text: str) -> range:
    """``lo..hi`` (or a single ``n``) as the range lo..hi, with 1 <= lo <= hi."""
    lo, _, hi = text.partition("..")
    try:
        lo_n, hi_n = int(lo), int(hi or lo)
    except ValueError:
        lo_n = hi_n = 0
    if not 1 <= lo_n <= hi_n:
        raise ValueError(f"n-range must be lo..hi with 1 <= lo <= hi, got {text!r}")
    return range(lo_n, hi_n + 1)


def run_link_checks(name: str, d: LinkDiagram, n_values,
                    expected: dict[str, str] | None = None) -> list[VerifyReport]:
    """All checks for one link: an n = 0 report carries the n-independent
    ones, then one report per requested n.

    One skein memo and one ``LinkValues``, both local to this call, serve
    every check: P, Delta and each n's sl(n) values and Alexander
    evaluations are computed once for the link.  Each check computes what it
    needs inside its own guard, so an error there is a failing check.
    """
    reports = []
    t0 = time.perf_counter()
    memo: dict = {}
    values = LinkValues(d, memo=memo)
    base = VerifyReport(name, d.components, 0)
    base.checks.extend(verify_polynomial_identities(d, values=values))
    base.checks.extend(_guarded("alexander_oracle",
                                lambda: [verify_oracle(d, delta=values.delta())]))
    for i in range(len(d.crossings)):
        base.checks.append(verify_skein_triple(SkeinSite(d, i), memo=memo))
    for key, text in sorted((expected or {}).items()):
        want = parse_poly(text)
        base.checks.extend(_guarded(f"expected_{key}", lambda: [
            _check(f"expected_{key}", values.named(key), want)]))
    base.ms = (time.perf_counter() - t0) * 1000
    reports.append(base)
    for n in n_values:
        t0 = time.perf_counter()
        rep = VerifyReport(name, d.components, n)
        rep.checks.extend(verify_thm_sln(d, n, values=values))
        rep.checks.extend(verify_thm_hfk(d, n, values=values))
        if n >= 2:
            rep.checks.extend(verify_square(d, n, values=values))
        rep.ms = (time.perf_counter() - t0) * 1000
        reports.append(rep)
    return reports
