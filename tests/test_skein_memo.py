"""The skein memo a caller shares across recursions never changes a value."""

import random

import pytest

from rootchi.linkdiag import SkeinSite, parse_braid, parse_braid_word
from rootchi.skein import ResourceBoundError, homfly_unreduced
from rootchi.verify import run_link_checks, verify_skein_triple


def test_shared_memo_skein_triples_match_fresh_ones(corpus):
    for name, (_, d, p, _) in corpus.items():
        memo: dict = {}
        assert homfly_unreduced(d, memo=memo) == p, name
        for i in range(len(d.crossings)):
            site = SkeinSite(d, i)
            assert verify_skein_triple(site, memo=memo) == verify_skein_triple(site), (name, i)


def test_memo_filled_by_other_links_changes_no_value():
    rng = random.Random(314)
    shared: dict = {}
    fresh_sizes = 0
    for _ in range(30):
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(3, 9))]
        d = parse_braid_word(word, strands)
        own: dict = {}
        want = homfly_unreduced(d, memo=own)
        fresh_sizes += len(own)
        assert want == homfly_unreduced(d)
        assert homfly_unreduced(d, memo=shared) == want, word
    assert len(shared) < fresh_sizes  # the links did share subdiagrams


def test_bound_holds_with_a_memo():
    big = parse_braid("BR[2; " + " ".join(["1"] * 15) + "]")
    memo: dict = {}
    with pytest.raises(ResourceBoundError):
        homfly_unreduced(big, memo=memo)
    p = homfly_unreduced(big, max_crossings=20, memo=memo)
    with pytest.raises(ResourceBoundError):  # even with the value in the memo
        homfly_unreduced(big, memo=memo)
    assert homfly_unreduced(big, max_crossings=15, memo=memo) == p


def test_memo_sizes_are_pinned(corpus):
    # the recursion meets some diagrams again under other labels; each is one entry
    memo: dict = {}
    homfly_unreduced(parse_braid("BR[3; 1 2 1 2 1 2 1 2]"), memo=memo)
    assert len(memo) == 49
    _, nonafoil, _, _ = corpus["nonafoil"]  # the largest corpus entry, 9 crossings
    assert max(len(d.crossings) for _, d, _, _ in corpus.values()) == len(nonafoil.crossings)
    memo = {}
    homfly_unreduced(nonafoil, memo=memo)
    assert len(memo) == 31


def test_repeated_link_checks_agree():
    d = parse_braid("BR[3; 1 -2 1 -2]")
    first = run_link_checks("fig8_closure", d, range(1, 4))
    second = run_link_checks("fig8_closure", d, range(1, 4))
    assert [r.checks for r in first] == [r.checks for r in second]
