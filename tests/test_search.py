import random

import pytest

from helpers import directedness_oracle
from ordalg import SearchSpec, build_poset, canonical_key, parse_predicate, search
from ordalg.enumeration import all_posets, random_poset
from ordalg.errors import OrdalgError
from ordalg.poset import MAX_CARRIER, extremes
from ordalg.search import EXHAUSTIVE_GUARD, evaluate_predicate


def test_parse_predicate():
    pred = parse_predicate("spc1 and not sspc")
    assert pred == ((False, "sectionally_pc_with_1"), (True, "strongly_sectionally_pc"))
    with pytest.raises(OrdalgError):
        parse_predicate("and pc")
    with pytest.raises(OrdalgError):
        parse_predicate("pc and")
    with pytest.raises(OrdalgError):
        parse_predicate("wibble")
    # no grouping: a parenthesis is rejected, not dropped
    for text in ("not (pc and stone)", "(pc", "pc)", "(pc) and stone"):
        with pytest.raises(OrdalgError, match="parenthes"):
            parse_predicate(text)


def test_predicate_evaluation(fig1):
    assert evaluate_predicate(parse_predicate("pc and rpc and not stone"), fig1)
    assert not evaluate_predicate(parse_predicate("lattice"), fig1)


def test_search_small_pseudocomplemented():
    hits = list(search(SearchSpec(2, 3, parse_predicate("pseudocomplemented"))))
    # chains qualify; the 2-antichain does not
    sizes = sorted(P.n for P in hits)
    antichain = build_poset(["a", "b"], [])
    assert all(canonical_key(P) != canonical_key(antichain) for P in hits)
    assert 2 in sizes and 3 in sizes


def test_search_finds_fig1_shape(fig1):
    hits = list(search(SearchSpec(6, 6, parse_predicate("rpc and not lattice"))))
    assert any(canonical_key(P) == canonical_key(fig1) for P in hits)


def test_search_guard():
    # count 0 walks every poset, so only it is guarded; a random search is not
    with pytest.raises(OrdalgError, match=f"guarded at n <= {EXHAUSTIVE_GUARD}"):
        SearchSpec(2, EXHAUSTIVE_GUARD + 1, parse_predicate("pc"))
    SearchSpec(2, EXHAUSTIVE_GUARD + 1, parse_predicate("pc"), count=1)
    with pytest.raises(OrdalgError):
        SearchSpec(3, 2, parse_predicate("pc"))
    with pytest.raises(OrdalgError, match="at least 0"):
        SearchSpec(2, 3, parse_predicate("pc"), count=-1)


def test_search_sizes_capped_at_max_carrier():
    # a hit must parse back from DSL, which caps carriers at MAX_CARRIER
    for lo in (60, MAX_CARRIER + 6):
        with pytest.raises(OrdalgError, match=f"capped at n <= {MAX_CARRIER}"):
            SearchSpec(lo, MAX_CARRIER + 6, parse_predicate("pc"), count=1)
    spec = SearchSpec(MAX_CARRIER, MAX_CARRIER, parse_predicate("not lattice"), seed=1, count=2)
    assert [P.n for P in search(spec)] == [MAX_CARRIER] * 2


def test_search_random_mode_deterministic():
    spec = SearchSpec(3, 5, parse_predicate("stone"), seed=11, count=200)
    a = [P.down for P in search(spec)]
    b = [P.down for P in search(spec)]
    assert a == b and a  # reproducible and nonempty


def test_search_hits_revalidate(fig5):
    # every hit has been re-validated internally; spot-check one predicate here
    for P in search(SearchSpec(4, 5, parse_predicate("distributive and not lattice"))):
        assert evaluate_predicate(parse_predicate("distributive"), P)


def test_directed_is_bounded():
    # a finite poset is down- (up-) directed exactly when it has a bottom (top)
    directed, bounded = parse_predicate("directed"), parse_predicate("bounded")
    rng = random.Random(2103)
    randoms = [random_poset(rng, rng.randint(1, 12)) for _ in range(500)]
    for P in [P for n in range(1, 8) for P in all_posets(n)] + randoms:
        bottom, top = extremes(P)
        assert evaluate_predicate(directed, P) == evaluate_predicate(bounded, P)
        down_witness, up_witness = directedness_oracle(P)
        assert (down_witness is None, up_witness is None) == (bottom is not None, top is not None)


def test_count_selects_the_walk():
    pred = parse_predicate("not lattice")
    # count 0 walks every poset of the sizes
    walked = [P for n in range(1, 6) for P in all_posets(n) if evaluate_predicate(pred, P)]
    assert list(search(SearchSpec(1, 5, pred))) == walked
    # count > 0 draws that many posets from the seed
    rng = random.Random(5)
    drawn = [random_poset(rng, rng.randint(8, 12)) for _ in range(40)]
    spec = SearchSpec(8, 12, pred, seed=5, count=40)
    assert list(search(spec)) == [P for P in drawn if evaluate_predicate(pred, P)]
