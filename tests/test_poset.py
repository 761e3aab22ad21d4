from itertools import product

import pytest
from hypothesis import given, settings

from helpers import (
    directedness_oracle,
    distributivity_oracle,
    idx,
    labset,
    posets,
    raw_lower,
    raw_upper,
)
from ordalg import (
    Poset,
    all_posets,
    build_poset,
    extremes,
    is_distributive,
    is_lattice,
)
from ordalg.errors import CycleDetected, DuplicateLabel, NotAPartialOrder, UnknownLabel
from ordalg.poset import _check_triple, _distributive_form, bits


def lower(P, S) -> frozenset[int]:
    """L(S) as a set of indices."""
    return frozenset(bits(P.lower_mask(sum(1 << s for s in set(S)))))


def upper(P, S) -> frozenset[int]:
    """U(S) as a set of indices."""
    return frozenset(bits(P.upper_mask(sum(1 << s for s in set(S)))))


def test_build_fig1_order(fig1):
    a, c, d = idx(fig1, "a", "c", "d")
    b = fig1.index("b")
    assert fig1.leq(a, c) and fig1.leq(a, d) and fig1.leq(b, c) and fig1.leq(b, d)
    assert not fig1.leq(c, a)
    assert fig1.n == 6


def test_build_singleton():
    P = build_poset(["x"], [])
    assert P.n == 1 and P.leq(0, 0)
    assert extremes(P) == (0, 0)


def test_build_errors():
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(DuplicateLabel):
        build_poset(["a", "a"], [])
    with pytest.raises(UnknownLabel):
        build_poset(["a"], [("a", "zz")])


def test_constructor_validates():
    with pytest.raises(NotAPartialOrder):
        Poset(["a", "b"], [0b01, 0b01])  # b's row misses reflexivity
    with pytest.raises(NotAPartialOrder):
        Poset(["a", "b"], [0b11, 0b11])  # a <= b <= a


def test_cones_fig1(fig1):
    c, d = idx(fig1, "c", "d")
    a, b = idx(fig1, "a", "b")
    assert labset(fig1, lower(fig1, {c, d})) == {"0", "a", "b"}
    assert labset(fig1, upper(fig1, {a, b})) == {"c", "d", "1"}
    # oracle: plain loops
    assert lower(fig1, {c, d}) == frozenset(raw_lower(fig1, {c, d}))
    assert upper(fig1, {a, b}) == frozenset(raw_upper(fig1, {a, b}))


def test_cone_of_empty_set_is_carrier(fig1):
    assert lower(fig1, set()) == frozenset(range(6))
    assert upper(fig1, set()) == frozenset(range(6))


@given(posets())
@settings(max_examples=60)
def test_cone_intersection_property(P):
    elems = list(range(P.n))[:3]
    meet_all = lower(P, elems)
    per_elem = [lower(P, {s}) for s in elems]
    expected = frozenset(range(P.n))
    for m in per_elem:
        expected &= m
    assert meet_all == expected
    assert upper(P, elems) == frozenset(raw_upper(P, elems))


@given(posets())
@settings(max_examples=60)
def test_subset_of_lower_cone_iff_below(P):
    # S ⊆ L(b) exactly when every member of S is below b
    for b in range(P.n):
        Lb = lower(P, {b})
        for s in range(P.n):
            assert ({s} <= Lb) == P.leq(s, b)


def test_antisymmetry_via_cones(fig5):
    for x in range(fig5.n):
        both = lower(fig5, {x}) & upper(fig5, {x})
        assert both == {x}


# a finite poset is down- (up-) directed exactly when it has a bottom (top)


def test_directedness_fig1(fig1):
    assert directedness_oracle(fig1) == (None, None)
    assert None not in extremes(fig1)


def test_directedness_fig4(fig4):
    down_witness, up_witness = directedness_oracle(fig4)
    assert down_witness == idx(fig4, "a", "b")
    assert up_witness == idx(fig4, "c", "d")
    assert extremes(fig4) == (None, None)


def test_directedness_antichain():
    P = build_poset(["a", "b"], [])
    assert directedness_oracle(P) == ((0, 1), (0, 1))
    assert extremes(P) == (None, None)


def test_extremes(fig1, fig4):
    assert extremes(fig1) == (fig1.index("0"), fig1.index("1"))
    assert extremes(fig4) == (None, None)


def test_distributive_fig5_witness(fig5):
    rep = is_distributive(fig5)
    assert not rep.holds
    assert rep.witness == idx(fig5, "a", "c", "b")
    assert labset(fig5, rep.lhs) == {"0", "a", "b"}  # L(b)
    assert labset(fig5, rep.rhs) == {"0", "a"}  # L(a)


def test_distributive_fig3(fig3):
    assert is_distributive(fig3).holds


def test_distributive_chain():
    P = build_poset(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
    assert is_distributive(P).holds


@given(posets(max_n=5))
@settings(max_examples=80)
def test_distributive_forms_agree(P):
    # the two cone equalities are equivalent as quantified statements
    primary = _distributive_form(P, dual=False)[0]
    dual = _distributive_form(P, dual=True)[0]
    assert primary == dual
    assert is_distributive(P).holds == primary


def test_distributivity_report_matches_oracle(figs):
    # the first failing triple, its equality and both cones, as in a full scan
    small = [P for n in range(1, 6) for P in all_posets(n)]
    for P in small + list(figs.posets.values()):
        assert is_distributive(P) == distributivity_oracle(P)


@given(posets(max_n=8))
@settings(max_examples=80, deadline=None)
def test_distributivity_report_matches_oracle_random(P):
    assert is_distributive(P) == distributivity_oracle(P)


def test_distributive_diagonal_always_holds():
    # is_distributive skips x = y: both equalities hold there (ULU = U)
    for n in range(1, 6):
        for P in all_posets(n):
            for x, z in product(range(P.n), repeat=2):
                for dual in (False, True):
                    assert _check_triple(P, x, x, z, dual)[0]


def test_is_lattice(fig1, fig5):
    assert not is_lattice(fig1)
    assert not is_lattice(fig5)
    assert is_lattice(build_poset(list("abc"), [("a", "b"), ("b", "c")]))


def test_json_roundtrip(fig2):
    assert Poset.from_json(fig2.to_json()) == fig2


def test_covers_regenerate(fig3):
    cov = [(fig3.labels[x], fig3.labels[y]) for x, y in fig3.covers()]
    assert build_poset(fig3.labels, cov) == fig3
