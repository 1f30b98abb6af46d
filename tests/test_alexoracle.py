import random

import pytest

from rootchi.alexoracle import (AlexClass, OracleError, alex_matrix_poly,
                                normalize_symmetric)
from rootchi.laurent import one, parse_poly, var
from rootchi.linkdiag import parse_braid_word, parse_link
from rootchi.skein import alexander

t = var("t")


def test_matrix_poly_examples():
    tref = parse_link("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]")
    assert alex_matrix_poly(tref).poly == 1 - t + t ** 2
    assert alex_matrix_poly(parse_link("U")).poly == one()
    assert alex_matrix_poly(parse_link("U U")).is_zero()
    assert alex_matrix_poly(parse_link("BR[3; 1 1 1]")).is_zero()  # split
    # split without U tokens: a two-component unlink, two separate Hopf links,
    # and an unknot that meets a Hopf link only in a cancelling pair
    for split in ("BR[2; 1 -1]", "BR[4; 1 1 3 3]", "BR[3; 1 -1 2 2]"):
        assert alex_matrix_poly(parse_link(split)).is_zero(), split


def test_one_crossing_unknot_degenerates_to_one():
    kink = parse_link("BR[2; 1]")
    cls = alex_matrix_poly(kink)
    assert cls.poly == one()
    assert normalize_symmetric(cls).poly == one()


def test_normalize_symmetric_examples():
    knot = AlexClass.of(1 - t + t ** 2, ell=1)
    assert normalize_symmetric(knot).poly == t - 1 + t ** -1
    hopf = AlexClass.of(1 - t, ell=2)
    sym = normalize_symmetric(hopf)
    assert sym.matches(parse_poly("t^(1/2) - t^(-1/2)"))
    assert not sym.sign_fixed
    assert normalize_symmetric(AlexClass.of(one(), ell=1)).poly == one()


def test_normalize_symmetric_rejects_asymmetric():
    with pytest.raises(OracleError):
        normalize_symmetric(AlexClass.of(1 + t + t ** 2 + 2 * t ** 3, ell=1))


def test_class_representative_normalization():
    cls = AlexClass.of(-t ** 3 + t ** 5, ell=2)
    lo, hi = cls.poly.exponent_range("t")
    assert lo == 0 and cls.poly.terms[0][1] > 0


def test_oracle_agrees_with_skein(corpus):
    for name, (entry, d, p, delta) in corpus.items():
        sym = normalize_symmetric(alex_matrix_poly(d))
        assert sym.matches(delta), name
        if d.components == 1:
            assert sym.poly == delta, name


def test_oracle_agrees_with_skein_on_random_closures():
    rng = random.Random(11)
    zero_classes = 0
    for _ in range(60):
        strands = rng.randint(2, 5)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 8))]
        d = parse_braid_word(word, strands)
        cls = alex_matrix_poly(d)
        zero_classes += cls.is_zero()
        assert normalize_symmetric(cls).matches(alexander(d)), (word, strands)
    assert zero_classes > 0  # split closures are among the inputs
