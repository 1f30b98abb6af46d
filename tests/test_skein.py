import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootchi.laurent import LaurentPoly, PolyError, mono, one, substitute, var, zero
from rootchi.linkdiag import SkeinSite, parse_braid, parse_link, parse_pd, skein_resolve
from rootchi.skein import (ResourceBoundError, alexander, clear_z, homfly_middle,
                           homfly_reduced, homfly_unreduced, quantum_integer,
                           sln_poly, specialize)

a, q, t, z = var("a"), var("q"), var("t"), var("z")
DELTA = (a - a ** -1) * z ** -1
S = mono(1, t=Fraction(1, 2)) - mono(1, t=Fraction(-1, 2))

TREFOIL_PD = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"


def test_unknot_normalizations():
    u = parse_link("U")
    assert homfly_unreduced(u) == DELTA
    assert homfly_reduced(u) == one()
    assert homfly_middle(u) == -z ** -1
    assert alexander(u) == one()


def test_unlink_values():
    uu = parse_link("U U")
    assert homfly_unreduced(uu) == DELTA ** 2
    assert alexander(uu).is_zero()
    assert homfly_unreduced(parse_link("U U U")) == DELTA ** 3


def test_positive_hopf():
    h = parse_braid("BR[2; 1 1]")
    assert homfly_reduced(h) == a ** -1 * z + (a ** -1 - a ** -3) * z ** -1
    assert alexander(h) == S
    assert sln_poly(h, 2) == q ** -1 + q ** -5


def test_negative_hopf():
    h = parse_braid("BR[2; -1 -1]")
    assert homfly_reduced(h) == (a ** 3 - a) * z ** -1 - a * z
    assert alexander(h) == -S


def test_trefoil_both_mirrors():
    tref = parse_pd(TREFOIL_PD)
    assert homfly_reduced(tref) == 2 * a ** -2 - a ** -4 + a ** -2 * z ** 2
    assert alexander(tref) == t - 1 + t ** -1
    assert sln_poly(tref, 2) == q ** -2 + q ** -6 - q ** -8

    mirror = parse_braid("BR[2; -1 -1 -1]")
    assert homfly_reduced(mirror) == -a ** 4 + a ** 2 * z ** 2 + 2 * a ** 2
    # in (a, q) form this is -a^4 + a^2 q^2 + a^2 q^-2
    assert homfly_middle(mirror) == (a ** 4 - a ** 2 * z ** 2 - 2 * a ** 2) * z ** -1
    assert alexander(mirror) == t - 1 + t ** -1
    assert sln_poly(mirror, 2) == -q ** 8 + q ** 6 + q ** 2


def test_presentation_invariance():
    pairs = [
        (TREFOIL_PD, "BR[2; 1 1 1]"),
        ("PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]", "BR[3; 1 -2 1 -2]"),
        # a reducible five-crossing presentation of the same knot
        ("BR[2; 1 1 -1 1 1]", "BR[2; 1 1 1]"),
    ]
    for pd_src, br_src in pairs:
        assert homfly_unreduced(parse_link(pd_src)) == homfly_unreduced(parse_link(br_src))


def test_split_union_factorization():
    tref = parse_braid("BR[2; 1 1 1]")
    split = parse_braid("BR[3; 1 1 1]")  # trefoil plus an idle strand
    assert homfly_unreduced(split) == homfly_unreduced(tref) * DELTA
    assert alexander(split).is_zero()


def test_skein_relation_at_every_trefoil_site():
    tref = parse_pd(TREFOIL_PD)
    p = homfly_unreduced(tref)
    for i in range(3):
        switched, smoothed = skein_resolve(SkeinSite(tref, i))
        lhs = a * p - a ** -1 * homfly_unreduced(switched)
        assert lhs == z * homfly_unreduced(smoothed)


def test_sln_specializations():
    u = parse_link("U")
    assert sln_poly(u, 4, reduced=False) == q ** 3 + q + q ** -1 + q ** -3
    assert sln_poly(u, 4, reduced=True) == one()
    for src in (TREFOIL_PD, "BR[2; 1 1]", "BR[3; 1 -2 1 -2]"):
        d = parse_link(src)
        assert sln_poly(d, 1, reduced=True) == one()
        assert sln_poly(d, 1, reduced=False) == one()
        # unreduced = reduced * [n]_q
        for n in (2, 3):
            assert sln_poly(d, n, reduced=False) == \
                sln_poly(d, n, reduced=True) * quantum_integer(n)


def test_alexander_symmetry():
    for src in (TREFOIL_PD, "BR[2; 1 1]", "BR[3; 1 -2 1 -2 1]", "BR[3; 1 1 2 2]"):
        d = parse_link(src)
        dl = alexander(d)
        flipped = zero()
        for exps, c in dl.terms:
            flipped = flipped + mono(c, t=Fraction(-(exps[0] if exps else 0), 2))
        sign = (-1) ** (d.components - 1)
        assert flipped == sign * dl, src


def test_crossing_bound():
    big = parse_braid("BR[2; " + " ".join(["1"] * 15) + "]")
    with pytest.raises(ResourceBoundError):
        homfly_unreduced(big)
    assert homfly_unreduced(big, max_crossings=20) is not None


def test_env_bound_override(monkeypatch):
    monkeypatch.setenv("ROOTCHI_MAX_CROSSINGS", "2")
    tref = parse_braid("BR[2; 1 1 1]")
    with pytest.raises(ResourceBoundError):
        homfly_unreduced(tref)
    monkeypatch.setenv("ROOTCHI_MAX_CROSSINGS", "16")
    assert homfly_reduced(tref) is not None


# -- the one-pass specialization against chained substitutions ---------------------

# (variable, doubled a power, doubled z power): sl(n) for n = 1..6, Alexander
_IMAGES = [("q", 2 * n, 2) for n in range(1, 7)] + [("t", 0, 1)]
_SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def _chained(p, name, alpha, beta, a_sign, z_sign):
    """a -> a_sign * v^(alpha/2), then z -> z_sign * (v^(beta/2) - v^(-beta/2))."""
    p = substitute(p, "a", a_sign * mono(1, **{name: Fraction(alpha, 2)}))
    return substitute(p, "z", z_sign * (mono(1, **{name: Fraction(beta, 2)})
                                        - mono(1, **{name: Fraction(-beta, 2)})))


_az_polys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(0, 5)),
    st.fractions(min_value=-6, max_value=6, max_denominator=3),
    max_size=6).map(lambda terms: LaurentPoly.make(
        ("a", "z"), {(2 * k, 2 * j): c for (k, j), c in terms.items()}))


@given(_az_polys, st.sampled_from(_IMAGES))
@settings(max_examples=80)
def test_specialize_matches_chained_substitution(p, image):
    name, alpha, beta = image
    assert specialize(p, name, alpha, beta) == _chained(p, name, alpha, beta, 1, 1)


@given(_az_polys, st.sampled_from(_SIGNS))
@settings(max_examples=60)
def test_specialize_at_a_plus_minus_1_matches_chained_substitution(p, signs):
    """a = +-1 with z = +-S, the images of the a = +-1 evaluations."""
    assert specialize(p, "t", 0, 1, *signs) == _chained(p, "t", 0, 1, *signs)


def test_specialize_keeps_the_canonical_form():
    p = specialize(3 * a ** 2 * z ** 2 - Fraction(1, 2) * z, "q", 4, 2)
    assert p == 3 * q ** 6 - 6 * q ** 4 + 3 * q ** 2 - Fraction(1, 2) * (q - q ** -1)
    assert all(type(c) is Fraction for _, c in p.terms)
    assert specialize(z * a ** -1 - z, "t", 0, 1) == zero()


def _random_az(rng: random.Random, z_range: tuple[int, int]) -> LaurentPoly:
    return LaurentPoly.make(("a", "z"), {
        (2 * rng.randint(-4, 4), 2 * rng.randint(*z_range)):
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))})


def test_clear_z_matches_multiplying_by_z_to_the_k():
    rng = random.Random(23)
    polys = [_random_az(rng, (-4, 3)) for _ in range(200)]
    # every term at z^-3: clearing leaves no z at all
    polys += [_random_az(rng, (-3, -3)) for _ in range(20)]
    polys += [3 * a * z ** -2, a ** 2 + a ** -1, zero(), one()]
    for p in polys:
        cleared, k = clear_z(p)
        assert k == max(0, -p.exponent_range("z")[0] // 2)
        assert cleared == p * z ** k  # vars too: no z slot of exponent 0 is left
    assert clear_z(a * z ** -3 - 2 * a ** -1 * z ** -3) == (a - 2 * a ** -1, 3)


@pytest.mark.parametrize("p, message", [
    (mono(1, a=Fraction(1, 2)) * z, "half-integer"),
    (a * mono(1, z=Fraction(3, 2)), "half-integer"),
    (a * z ** -1 + z, "negative powers of z"),
    (a * z + q, "only a and z"),
    (t * z, "only a and z"),
])
def test_specialize_errors(p, message):
    with pytest.raises(PolyError, match=message):
        specialize(p, "q", 4, 2)
