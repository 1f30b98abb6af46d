"""The integer-column form of a differential: never stale, always canonical,
and validated exactly as the dense matrix it stands for, by every
constructor; what operations assemble from checked complexes equals ``build``
of its own dense differential."""

import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest

from rootchi.frcomplex import (ComplexError, Echelon, FracComplex, GradedModule, build,
                               build_module, complex_from_json, complex_to_json,
                               cone, homology, homology_complex, kernel, koszul_tensor,
                               rank, shift, spectral_sequence, unknot_hfkn)
from rootchi.synth import random_chain_map, random_complex, random_graded_module

F = Fraction


def assert_columns(c, dense):
    """c holds d = dense as columns scaled by the lcm of dense's denominators."""
    dense = [[F(x) for x in row] for row in dense]
    s = lcm(*(x.denominator for row in dense for x in row))
    assert c.den == s
    assert all(type(v) is int and v for col in c.cols for v in col.values())
    assert all(c.cols[j].get(i, 0) == s * dense[i][j]
               for i in range(c.dim) for j in range(c.dim))
    assert c.diff == tuple(map(tuple, dense))


def outputs(c):
    h = homology(c)
    ss = spectral_sequence(c)
    return (h.dims, h.representatives, ss.pages, ss.stabilization, ss.infinity,
            complex_to_json(c))


def _samples():
    rng = random.Random(3)
    for k in range(24):
        n = rng.randint(1, 6)
        c = random_complex(rng, n, max_dim=10, filtered=k % 2 == 0)
        # a rational copy: scaling one generator keeps d^2 = 0
        g = rng.randrange(c.dim)
        s = F(rng.choice([2, 3, 5]), rng.choice([1, 7]))
        rows = [[x * (s if i == g else 1) / (s if j == g else 1) for j, x in enumerate(row)]
                for i, row in enumerate(c.diff)]
        yield c, rows


def test_replace_diff_is_not_stale():
    for c, rows in _samples():
        zero = build(c.n, c.degrees, [[0] * c.dim for _ in range(c.dim)],
                     filtration=c.filtration, names=c.names)
        swapped = replace(zero, diff=rows)
        want = build(c.n, c.degrees, rows, filtration=c.filtration, names=c.names)
        assert_columns(swapped, rows)
        assert outputs(swapped) == outputs(want)


def test_replace_filtration_and_shift_are_not_stale():
    for c, rows in _samples():
        x = build(c.n, c.degrees, rows, filtration=c.filtration, names=c.names)
        flat = [0] * c.dim
        assert outputs(replace(x, filtration=flat)) == outputs(
            build(c.n, c.degrees, rows, filtration=flat, names=c.names))
        moved = shift(x, 3)
        assert_columns(moved, rows)
        assert outputs(moved) == outputs(
            build(c.n, [u - 3 for u in c.degrees], rows, filtration=c.filtration,
                  names=c.names))


def test_positional_construction_matches_build():
    for c, rows in _samples():
        direct = FracComplex(c.n, c.degrees, rows, c.names)
        assert_columns(direct, rows)
        assert outputs(direct) == outputs(build(c.n, c.degrees, rows, names=c.names))
        assert direct == build(c.n, c.degrees, rows, names=c.names)
        assert hash(direct) == hash(build(c.n, c.degrees, rows, names=c.names))


def test_every_construction_path_holds_scaled_columns():
    rng = random.Random(8)
    for c, rows in _samples():
        assert_columns(build(c.n, c.degrees, rows, filtration=c.filtration), rows)
        assert_columns(complex_from_json(complex_to_json(c)), c.diff)
        hc = homology_complex(c)
        assert_columns(hc, [[0] * hc.dim for _ in range(hc.dim)])
        # cone: [[-d_X, 0], [f, d_Y]], with denominators from all three parts
        x = build(c.n, c.degrees, rows)
        y = random_complex(rng, c.n, max_dim=6)
        f = [[v / 7 for v in row] for row in random_chain_map(rng, x, y)]
        want = [[-v for v in row] + [0] * y.dim for row in rows]
        want += [list(f_row) + list(y_row) for f_row, y_row in zip(f, y.diff)]
        assert_columns(cone(f, x, y), want)
    for n in range(1, 6):
        assert_columns(unknot_hfkn(n), [[0] * n for _ in range(n)])


def test_koszul_columns_follow_the_cube():
    # two commuting maps with different denominators on a ladder 0 -> 2 -> 4
    u0 = [[0, 0, 0], [F(1, 2), 0, 0], [0, F(1, 2), 0]]
    u1 = [[0, 0, 0], [F(2, 3), 0, 0], [0, F(2, 3), 0]]
    one = koszul_tensor(build_module(2, [0, 2, 4], [u0]))
    z = [[0] * 3 for _ in range(3)]
    assert_columns(one, [r + s for r, s in zip(z, z)] + [r + s for r, s in zip(u0, z)])
    two = koszul_tensor(build_module(2, [0, 2, 4], [u0, u1]))
    neg_u1 = [[-x for x in row] for row in u1]
    blocks = [  # vertices 00, 01, 10, 11; column = source vertex
        [z, z, z, z],
        [u0, z, z, z],
        [u1, z, z, z],
        [z, neg_u1, u0, z],
    ]
    assert_columns(two, [sum((blk[i] for blk in brow), []) for brow in blocks for i in range(3)])


# -- validation is unchanged ---------------------------------------------------------


def kind_of(call):
    with pytest.raises(ComplexError) as err:
        call()
    return err.value.kind


def test_ragged_and_short_matrices_are_shape_errors():
    assert kind_of(lambda: build(1, [0, 1], [[0, 0], [1]])) == "shape"
    assert kind_of(lambda: build(1, [0, 1], [[0, 0]])) == "shape"
    assert kind_of(lambda: build(1, [0, 1], [[0, 0], [1, 0], [0, 0]])) == "shape"
    x = build(1, [0], [[0]])
    assert kind_of(lambda: cone([[1, 0]], x, x)) == "shape"
    assert kind_of(lambda: build_module(2, [0, 2], [[[0, 0]]])) == "shape"


def test_d_squared_visible_only_with_rational_entries():
    # d x0 = x1/2 + x2, d x1 = y, d x2 = -y: the numerators alone cancel
    rows = [[0, 0, 0, 0], [F(1, 2), 0, 0, 0], [1, 0, 0, 0], [0, 1, -1, 0]]
    assert kind_of(lambda: build(1, [0, 1, 1, 2], rows)) == "d2"
    rows[3][2] = F(-1, 2)
    assert build(1, [0, 1, 1, 2], rows).dim == 4


def test_chain_map_off_by_a_rational_factor_is_refused():
    x = build(1, [0, 1], [[0, 0], [F(1, 2), 0]])
    y = build(1, [0, 1], [[0, 0], [F(1, 3), 0]])
    # f d_X = d_Y f needs b/2 = a/3: a = 3/5, b = 2/5
    good = [[F(3, 5), 0], [0, F(2, 5)]]
    assert homology(cone(good, x, y)).dims == {}
    bad = [[F(3, 5), 0], [0, F(3, 5)]]
    assert kind_of(lambda: cone(bad, x, y)) == "d2"


@pytest.mark.parametrize("entry", [None, "abc", []])
def test_non_numeric_entries_are_refused(entry):
    assert kind_of(lambda: build(1, [0, 1], [[0, 0], [entry, 0]])) == "shape"
    # in a zero slot, never skipped
    assert kind_of(lambda: build(1, [0, 1], [[entry, 0], [1, 0]])) == "shape"
    x = build(1, [0], [[0]])
    assert kind_of(lambda: cone([[entry]], x, x)) == "shape"
    assert kind_of(lambda: build_module(2, [0, 2], [[[0, 0], [entry, 0]]])) == "shape"


def _entry_points(entry):
    """Every way a matrix entry enters, each as a call whose value is compared."""
    x = build(1, [0], [[0]])
    zero = build(1, [0, 1], [[0, 0], [0, 0]])
    diff = [[0, 0], [entry, 0]]

    def added():
        ech = Echelon()
        return ech.add([entry, 1]), ech.rref()

    return {
        "build": lambda: build(1, [0, 1], diff),
        "FracComplex": lambda: FracComplex(1, [0, 1], diff, None),
        "replace": lambda: replace(zero, diff=diff),
        "cone": lambda: cone([[entry]], x, x),
        "build_module": lambda: build_module(2, [0, 2], [diff]),
        "kernel": lambda: kernel([[entry, 1]], 2),
        "rank": lambda: rank([[entry, 1], [1, 0]]),
        "Echelon": lambda: Echelon([[entry, 1]]).rref(),
        "Echelon.add": added,
    }


def _held(value):
    """A result with the integer form a complex or module holds made visible."""
    if isinstance(value, FracComplex):
        return value, value.cols, value.den
    if isinstance(value, GradedModule):
        return value, value.maps
    return value


@pytest.mark.parametrize("entry", [2, F(1, 2), True, False, 0.5, "1/2", None, [],
                                   Decimal("1")], ids=repr)
def test_one_entry_rule_at_every_entry_point(entry):
    accepted = type(entry) in (int, F)
    calls = _entry_points(entry)
    assert {name: outcome(call) for name, call in calls.items()} == dict.fromkeys(
        calls, None if accepted else "shape")
    if accepted:
        # the same entry as a Fraction, and so as the reader scales it
        want = _entry_points(F(entry))
        for name, call in calls.items():
            assert _held(call()) == _held(want[name]()), name


def test_check_messages_name_the_failure():
    # d x0 = x1/2 + x2, d x1 = x3, d x2 = -x3: d^2 x0 = -x3/2
    rows = [[0, 0, 0, 0], [F(1, 2), 0, 0, 0], [1, 0, 0, 0], [0, 1, -1, 0]]
    with pytest.raises(ComplexError, match=r"^d\^2\(x0\) has x3-coefficient -1/2$"):
        build(1, [0, 1, 1, 2], rows)
    x = build(1, [0, 1], [[0, 0], [F(1, 2), 0]])
    y = build(1, [0, 1], [[0, 0], [F(1, 3), 0]])
    with pytest.raises(ComplexError, match="^not a chain map$"):
        cone([[F(3, 5), 0], [0, F(3, 5)]], x, y)
    with pytest.raises(ComplexError, match="^U_0 and U_1 do not commute$"):
        build_module(2, [0, 2, 2, 4], BAD_COMMUTE)


@pytest.mark.parametrize("entry", [True, False])
def test_bool_entries_are_shape_errors(entry):
    # False too: a zero slot is read like any other
    assert kind_of(lambda: build(1, [0, 1], [[0, 0], [entry, 0]])) == "shape"
    x = build(1, [0], [[0]])
    assert kind_of(lambda: cone([[entry]], x, x)) == "shape"
    assert kind_of(lambda: build_module(2, [0, 2], [[[0, 0], [entry, 0]]])) == "shape"


# -- valid by construction -----------------------------------------------------------


def outcome(call):
    """The kind of ComplexError the call raises, or None when it succeeds."""
    try:
        call()
    except ComplexError as e:
        return e.kind
    return None


BAD_COMMUTE = [  # U_0 U_1 sends x0 to x3, U_1 U_0 sends it to 2 x3
    [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0]],
]


def test_every_constructor_refuses_what_build_refuses():
    square = ([0, 1, 2], [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert kind_of(lambda: build(1, *square)) == "d2"
    assert kind_of(lambda: FracComplex(1, *square, None)) == "d2"
    assert kind_of(lambda: replace(build(1, square[0], [[0] * 3] * 3), diff=square[1])) == "d2"
    drop = ([0, 1], [[0, 0], [1, 0]], [1, 0])
    assert kind_of(lambda: build(1, drop[0], drop[1], filtration=drop[2])) == "filtration"
    assert kind_of(lambda: FracComplex(1, drop[0], drop[1], None, drop[2])) == "filtration"
    assert kind_of(lambda: replace(build(1, drop[0], drop[1]), filtration=drop[2])) == "filtration"
    assert kind_of(lambda: replace(build(1, drop[0], drop[1]), degrees=[0, 2])) == "degree"
    assert kind_of(lambda: FracComplex(True, [0], [[0]], None)) == "shape"
    assert kind_of(lambda: build_module(2, [0, 2, 2, 4], BAD_COMMUTE)) == "d2"
    assert kind_of(lambda: GradedModule(2, [0, 2, 2, 4], BAD_COMMUTE)) == "d2"
    one = build_module(2, [0, 2, 2, 4], BAD_COMMUTE[:1])
    assert kind_of(lambda: replace(one, endos=BAD_COMMUTE)) == "d2"
    assert kind_of(lambda: GradedModule(2, [0, 1], [[[0, 0], [1, 0]]])) == "degree"
    assert kind_of(lambda: GradedModule("2", [0, 2], [])) == "shape"


def test_constructors_agree_with_build_on_perturbed_complexes():
    rng = random.Random(13)
    kinds = set()
    for c, rows in _samples():
        for t in range(4):
            bad, filt = [list(row) for row in rows], c.filtration
            if filt is not None and t % 2:   # new levels, which may drop along d
                filt = [rng.randint(0, 3) for _ in filt]
            else:
                i, j = rng.randrange(c.dim), rng.randrange(c.dim)
                bad[i][j] += rng.choice([1, F(1, 3)])
            want = outcome(lambda: build(c.n, c.degrees, bad, filtration=filt, names=c.names))
            kinds.add(want)
            assert outcome(lambda: FracComplex(c.n, c.degrees, bad, c.names, filt)) == want
            assert outcome(lambda: replace(c, diff=bad, filtration=filt)) == want
            if want is None:
                assert replace(c, diff=bad, filtration=filt) == build(
                    c.n, c.degrees, bad, filtration=filt, names=c.names)
    assert {"degree", "d2", "filtration", None} <= kinds


def test_constructors_agree_with_build_module_on_perturbed_maps():
    rng = random.Random(14)
    kinds = set()
    for _ in range(40):
        n = rng.randint(1, 5)
        mod = random_graded_module(rng, n, rng.randint(1, 3), max_dim=6)
        endos = [[list(row) for row in e] for e in mod.endos]
        e = rng.choice(endos)
        i, j = rng.randrange(mod.dim), rng.randrange(mod.dim)
        e[i][j] += rng.choice([1, F(2, 5)])
        want = outcome(lambda: build_module(n, mod.degrees, endos))
        kinds.add(want)
        assert outcome(lambda: GradedModule(n, mod.degrees, endos)) == want
        assert outcome(lambda: replace(mod, endos=endos)) == want
    assert {"degree", "d2", None} <= kinds


def test_assembled_complexes_equal_build_of_their_diff():
    rng = random.Random(21)
    for k, (x, rows) in enumerate(_samples()):
        if k % 2:
            x = build(x.n, x.degrees, rows)
        y = random_complex(rng, x.n, max_dim=6)
        s = rng.choice([1, 7])
        f = [[v / s for v in row] for row in random_chain_map(rng, x, y)]
        mod = random_graded_module(rng, x.n, rng.randint(0, 3), max_dim=5)
        c = cone(f, x, y)
        for a in (c, koszul_tensor(mod), shift(c, 3), homology_complex(c),
                  unknot_hfkn(x.n)):
            b = build(a.n, a.degrees, a.diff, filtration=a.filtration, names=a.names)
            assert a == b
            assert (a.cols, a.den) == (b.cols, b.den)
