import pytest

from ordalg import SearchSpec, build_poset, canonical_key, parse_predicate, search
from ordalg.errors import OrdalgError
from ordalg.poset import MAX_CARRIER
from ordalg.search import evaluate_predicate


def test_parse_predicate():
    pred = parse_predicate("spc1 and not sspc")
    assert pred == ((False, "sectionally_pc_with_1"), (True, "strongly_sectionally_pc"))
    with pytest.raises(OrdalgError):
        parse_predicate("and pc")
    with pytest.raises(OrdalgError):
        parse_predicate("pc and")
    with pytest.raises(OrdalgError):
        parse_predicate("wibble")


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
    with pytest.raises(OrdalgError):
        SearchSpec(2, 8, parse_predicate("pc"))
    with pytest.raises(OrdalgError):
        SearchSpec(3, 2, parse_predicate("pc"))


def test_search_sizes_capped_at_max_carrier():
    # a hit must parse back from DSL, which caps carriers at MAX_CARRIER
    for lo in (60, MAX_CARRIER + 6):
        with pytest.raises(OrdalgError, match=f"capped at n <= {MAX_CARRIER}"):
            SearchSpec(lo, MAX_CARRIER + 6, parse_predicate("pc"), mode="random")
    spec = SearchSpec(MAX_CARRIER, MAX_CARRIER, parse_predicate("not lattice"),
                      mode="random", seed=1, count=2)
    assert [P.n for P in search(spec)] == [MAX_CARRIER] * 2


def test_search_random_mode_deterministic():
    spec = SearchSpec(3, 5, parse_predicate("stone"), mode="random", seed=11, count=200)
    a = [P.down for P in search(spec)]
    b = [P.down for P in search(spec)]
    assert a == b and a  # reproducible and nonempty


def test_search_hits_revalidate(fig5):
    # every hit has been re-validated internally; spot-check one predicate here
    for P in search(SearchSpec(4, 5, parse_predicate("distributive and not lattice"))):
        assert evaluate_predicate(parse_predicate("distributive"), P)
