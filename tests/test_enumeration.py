import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_posets_oracle,
    canonical_key_oracle,
    posets,
    relabel,
    twin_posets,
)
from ordalg import all_posets, canonical_key, random_poset
from ordalg.enumeration import _children, _without_maximal, down_set_masks, refine_colours
from ordalg.poset import Poset, bits

KNOWN_COUNTS = {1: 1, 2: 2, 3: 3 + 2, 4: 16, 5: 63, 6: 318}


def test_counts_small():
    for n in range(1, 7):
        assert len(all_posets(n)) == KNOWN_COUNTS[n]


@pytest.mark.slow
def test_count_n7():
    assert len(all_posets(7)) == 2045


# sha256 of repr([(P.labels, P.down) for P in all_posets(n)]): the order and
# the labelling of the listing, not only its keys, stay fixed
LISTING_SHA256 = {
    7: "aedc14c8ad2e964d1283ec65df4f67a4a93ed7adbe6c6576af319ce10942fe57",
    8: "99f455dad255e5e18fb5bd9f7e0a4a1721163a8e1651dad888bad78eff978a53",
}


@pytest.mark.slow
def test_count_n8():
    assert len(all_posets(8)) == 16999  # OEIS A000112
    for n, digest in LISTING_SHA256.items():
        listing = repr([(P.labels, P.down) for P in all_posets(n)])
        assert hashlib.sha256(listing.encode()).hexdigest() == digest


def test_all_posets_key_sequence_matches_oracle():
    # the same keys in the same order as keying every one-element extension
    for n in range(1, 7):
        assert [canonical_key(P) for P in all_posets(n)] == list(all_posets_oracle(n))


def test_canonical_key_matches_oracle_small():
    # every poset with n <= 7, as listed and under a seeded relabelling
    rng = random.Random(1)
    for n in range(1, 8):
        for P in all_posets(n):
            perm = list(range(n))
            rng.shuffle(perm)
            Q = relabel(P, perm)
            assert canonical_key(P) == canonical_key(Q) == canonical_key_oracle(Q)


def test_canonical_key_antichains_and_twins():
    for n in range(1, 8):
        antichain = Poset(["x%d" % i for i in range(n)], [1 << i for i in range(n)])
        assert canonical_key(antichain) == canonical_key_oracle(antichain)
    # 0 below four twins below 1, and two twin chains of length two
    m4 = Poset(list("0abcd1"), [0b1, 0b11, 0b101, 0b1001, 0b10001, 0b111111])
    chains = Poset(list("abcd"), [0b1, 0b10, 0b101, 0b1010])
    for P in (m4, chains):
        assert canonical_key(P) == canonical_key_oracle(P)


def test_augmentation_keeps_one_parent_when_colours_tie():
    # A 4-crown and a 6-crown side by side, as height-one posets: minimal
    # elements 0-4, maximal elements 5-9.  Every element has two neighbours,
    # so refinement gives all maximal elements one colour, yet deleting one
    # from the 4-crown (5) or from the 6-crown (7) gives non-isomorphic
    # parents.  Only the one with the least key may keep Q as a child.
    below = {5: (0, 1), 6: (0, 1), 7: (2, 3), 8: (3, 4), 9: (4, 2)}
    Q = Poset(list("abcdefghij"), [1 << x for x in range(5)] + [
        1 << y | sum(1 << x for x in below[y]) for y in range(5, 10)])
    parents = [_without_maximal(Q, 5), _without_maximal(Q, 7)]
    assert canonical_key(parents[0]) != canonical_key(parents[1])
    kept = [canonical_key(Q) in _children(P) for P in parents]
    assert kept == [canonical_key(P) == min(map(canonical_key, parents)) for P in parents]


def test_down_set_masks_ascending_and_complete():
    for n in range(1, 6):
        for P in all_posets(n):
            expected = [m for m in range(1 << n) if all(P.down[x] & ~m == 0 for x in bits(m))]
            assert down_set_masks(P) == expected


def test_refine_colours_stops_when_discrete():
    def never(ranks):
        raise AssertionError("a discrete partition needs no round")

    assert refine_colours(["c", "a", "b"], never) == [2, 0, 1]
    # one round that splits nothing ends the refinement with the same ranks
    assert refine_colours([0, 0, 1], lambda r: [(r[x], 0) for x in range(3)]) == [0, 0, 1]


def _all_labelled_posets_bruteforce(n):
    """Oracle: filter every reflexive relation on n points for PO axioms."""
    out = []
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(cells)):
        down = [1 << i for i in range(n)]
        for b, (i, j) in enumerate(cells):
            if (mask >> b) & 1:
                down[j] |= 1 << i  # i <= j
        ok = True
        for x in range(n):
            if down[x] & ~((1 << n) - 1):
                ok = False
                break
            for y in bits(down[x]):
                if y != x and (down[y] >> x) & 1:
                    ok = False
                    break
                if down[y] & ~down[x]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(Poset([chr(97 + i) for i in range(n)], down))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_bruteforce(n):
    keys = {canonical_key(P) for P in _all_labelled_posets_bruteforce(n)}
    assert len(keys) == len(all_posets(n))
    assert keys == {canonical_key(P) for P in all_posets(n)}


@given(st.one_of(posets(max_n=7), twin_posets()), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_canonical_key_invariant_under_relabelling(P, rng):
    perm = list(range(P.n))
    rng.shuffle(perm)
    Q = relabel(P, perm)
    assert canonical_key(P) == canonical_key(Q) == canonical_key_oracle(Q)
    assert P.n == Q.n and canonical_key(P) == canonical_key(Q)  # isomorphic


def test_distinct_posets_distinct_keys():
    chain = all_posets(2)
    assert canonical_key(chain[0]) != canonical_key(chain[1])


def _assert_validated(P: Poset) -> None:
    """P, built from trusted rows, passes the validating constructor and
    keeps the up-rows it would compute."""
    Q = Poset(P.labels, P.down)
    assert P == Q and P.up == Q.up and P.n == Q.n


def test_enumerated_posets_pass_validation():
    for n in range(1, 8):
        for P in all_posets(n):
            _assert_validated(P)
    for n in range(2, 7):
        for P in all_posets(n):
            for w in P.maximal_of(P.full):
                _assert_validated(_without_maximal(P, w))


def test_random_poset_is_poset():
    # random_poset skips the constructor's checks; they must hold anyway
    rng = random.Random(7)
    for n in range(1, 13):
        for _ in range(20):
            _assert_validated(random_poset(rng, n))
