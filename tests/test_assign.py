import random
import sys

import pytest
from hypothesis import assume, given, settings

from helpers import (
    all_hold,
    bounded_posets,
    idx,
    join_directoid,
    lambda_algebra,
    posets,
    product_choices,
    raw_lower,
    raw_upper,
    wide_poset,
)
from ordalg import (
    PROFILES,
    all_posets,
    assign_algebra,
    build_poset,
    canonical_choice,
    classify,
    cone_via_directoid,
    enumerate_choices,
    extremes,
    induced_order,
    theorem_equivalence_audit,
    verify_assigned_conditions,
    verify_derived_identities,
)
from ordalg import pc, schemes
from ordalg.algebra import JOIN, MEET, ONE, STAR, ZERO
from ordalg.assign import ChoiceSpace, _constant_values, _sample_indices, enumerate_assignments
from ordalg.errors import (
    InvalidChoice,
    MissingStructure,
    NotDirected,
    OrdalgError,
)
from ordalg.poset import extremes


def _raw_choice_count(P, kind):
    """Oracle: product of cone sizes over incomparable pairs, by plain loops."""
    total = 1
    for x in range(P.n):
        for y in range(x + 1, P.n):
            if P.leq(x, y) or P.leq(y, x):
                continue
            cone = raw_lower(P, {x, y}) if kind == "meet" else raw_upper(P, {x, y})
            total *= len(cone)
    return total


# -- enumeration -----------------------------------------------------------------


def test_enumerate_fig1_counts(fig1):
    assert _raw_choice_count(fig1, "meet") == 3
    space = enumerate_choices(fig1, "meet")
    assert space.count == 3
    choices = list(space)
    assert len(choices) == 3 and len({tuple(sorted(c.items())) for c in choices}) == 3
    assert enumerate_choices(fig1, "lambda").count == 9
    assert len(list(enumerate_choices(fig1, "lambda"))) == 9


def test_enumerate_fig5_counts(fig5):
    assert _raw_choice_count(fig5, "meet") == 4
    assert enumerate_choices(fig5, "meet").count == 4
    assert len(list(enumerate_choices(fig5, "meet"))) == 4


def test_enumerate_chain_single():
    chain = build_poset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    space = enumerate_choices(chain, "meet")
    assert space.count == 1 and list(space) == [{}]


def test_enumerate_not_directed(fig4):
    with pytest.raises(NotDirected) as e:
        enumerate_choices(fig4, "meet")
    assert e.value.pair == ("a", "b")
    with pytest.raises(NotDirected):
        enumerate_choices(fig4, "lambda")


def test_enumeration_is_lexicographic(fig1):
    c, d = idx(fig1, "c", "d")
    values = [choice[(c, d)] for choice in enumerate_choices(fig1, "meet")]
    assert values == sorted(values)


def test_decode_matches_product_order():
    # every poset with n <= 6, each kind: index i decodes to the i-th tuple of
    # itertools.product over the cones (meet pairs, then join pairs, last fastest)
    spaces = 0
    for n in range(1, 7):
        for P in all_posets(n):
            for kind in ("meet", "join", "lambda"):
                expected = product_choices(P, kind)
                if expected is None:
                    with pytest.raises(NotDirected):
                        enumerate_choices(P, kind)
                    continue
                space = enumerate_choices(P, kind)
                assert space.count == len(expected)
                assert [space.decode(i) for i in range(space.count)] == expected
                assert list(space) == expected
                spaces += 1
    assert spaces == 202


def test_decode_rejects_out_of_range(fig1):
    space = enumerate_choices(fig1, "lambda")
    for index in (-1, space.count):
        with pytest.raises(IndexError):
            space.decode(index)


# -- assignment -------------------------------------------------------------------


def test_assign_fig1_pc_with_choice(fig1):
    zero, a, b, c, d = idx(fig1, "0", "a", "b", "c", "d")
    A = assign_algebra(fig1, "pc", meet={(a, b): zero, (c, d): a})
    t = A.table(MEET)
    assert all(t[zero][x] == zero for x in range(6))
    assert t[a][b] == zero and t[c][d] == a
    assert A.table(STAR) == (5, 2, 1, 0, 0, 0)
    assert A.constant(ZERO) == zero


def test_assign_rejects_bad_choices(fig1):
    zero, a, b, c, d = idx(fig1, "0", "a", "b", "c", "d")
    with pytest.raises(InvalidChoice):
        assign_algebra(fig1, "pc", meet={(a, b): zero, (c, d): fig1.index("1")})
    with pytest.raises(InvalidChoice):
        assign_algebra(fig1, "pc", meet={(a, b): zero, (c, d): a, (a, c): a})


def test_partial_choice_keeps_canonical_elsewhere(fig1):
    # only {c,d} is overridden: every other pair takes the canonical element
    a, c, d = idx(fig1, "a", "c", "d")
    for profile in ("spc", "sspc"):
        canonical = assign_algebra(fig1, profile)
        A = assign_algebra(fig1, profile, meet={(d, c): a})
        for sym in (MEET, JOIN):
            for x in range(fig1.n):
                for y in range(fig1.n):
                    expected = a if sym == MEET and {x, y} == {c, d} else canonical.table(sym)[x][y]
                    assert A.table(sym)[x][y] == expected


def test_join_choice_without_join_rejected(fig1):
    a, b, c = idx(fig1, "a", "b", "c")
    for profile in ("pc", "rpc"):
        with pytest.raises(InvalidChoice, match=f"profile {profile} has no ⊔"):
            assign_algebra(fig1, profile, join={(a, b): c})


@pytest.mark.parametrize("profile", list(PROFILES))
def test_assign_not_directed_before_class(fig4, profile):
    # fig4 is not down-directed; the choice is checked before the class
    with pytest.raises(NotDirected):
        assign_algebra(fig4, profile)


def test_assign_missing_structure(fig5):
    with pytest.raises(MissingStructure):
        assign_algebra(fig5, "rpc")


def test_in_class_constants_are_the_bounds():
    # 0 is the bottom and 1 the top of every in-class assigned algebra: the
    # choices or the class itself force both to exist
    seen = set()
    for n in range(1, 7):
        for P in all_posets(n):
            bottom, top = extremes(P)
            for profile, signature in PROFILES.items():
                if not classify(P, profile).holds:
                    continue
                try:
                    A = assign_algebra(P, profile)
                except NotDirected:
                    continue
                if signature.has(ZERO, 0):
                    assert bottom is not None and A.constant(ZERO) == bottom
                    seen.add((profile, ZERO))
                if signature.has(ONE, 0):
                    assert top is not None and A.constant(ONE) == top
                    seen.add((profile, ONE))
    assert seen == {
        ("pc", ZERO), ("stone", ZERO), ("rpc", ONE), ("spc1", ONE), ("sspc", ONE)
    }


def test_rpc_audit_constant_without_top():
    # outside its class, a topless rpc audit takes the first maximal element
    P = build_poset(["0", "a", "b"], [("0", "a"), ("0", "b")])
    assert not classify(P, "rpc").holds
    assert _constant_values(P, "rpc") == {ONE: P.index("a")}


def test_assign_singleton_rpc():
    P = build_poset(["x"], [])
    A = assign_algebra(P, "rpc")
    assert A.n == 1 and A.table(MEET) == ((0,),) and A.table(STAR) == ((0,),)


def test_assign_fig5_sspc(fig5):
    zero, a, b, c, d, e = idx(fig5, "0", "a", "b", "c", "d", "e")
    A = assign_algebra(
        fig5,
        "sspc",
        meet={(a, c): zero, (b, c): zero, (d, e): c},
        join={(a, c): d, (b, c): d, (d, e): fig5.index("1")},
    )
    assert A.table(MEET)[d][e] == c
    assert A.table("⊔")[a][c] == d
    assert all_hold(verify_assigned_conditions(A, "sspc"))


# -- the profile table ------------------------------------------------------------

# a fixture poset in each profile's class
_PROFILE_FIXTURE = {"pc": "fig1", "rpc": "fig1", "stone": "fig2",
                    "spc": "fig5", "spc1": "fig5", "sspc": "fig5"}


def test_profile_names_agree():
    assert set(_PROFILE_FIXTURE) == set(PROFILES) == set(schemes._PROFILE_SCHEMES)


@pytest.mark.parametrize("name", list(PROFILES))
def test_profile_is_name_and_signature(figs, name):
    P = figs.posets[_PROFILE_FIXTURE[name]]
    A = assign_algebra(P, name)
    assert A.signature == PROFILES[name]  # same symbols in the same order
    cls = classify(P, name)
    assert cls.holds and cls.kind == pc.canonical_kind(name)
    bottom, top = extremes(P)
    for sym, arity in PROFILES[name].symbols:
        if sym in (MEET, JOIN):
            continue
        if arity:  # the derived operation
            assert A.table(sym) == cls.table
        else:
            assert A.constant(sym) == {ZERO: bottom, ONE: top}[sym]
    space, algebras = enumerate_assignments(P, name)
    assert space.kind == ("lambda" if PROFILES[name].has(JOIN, 2) else "meet")
    assert next(algebras) == A  # index 0 is the canonical choice


# -- the cone lemma ------------------------------------------------------------------


def test_cone_via_directoid_fig1(fig1):
    A = assign_algebra(fig1, "pc")
    c, d = idx(fig1, "c", "d")
    assert cone_via_directoid(A, c, d, "meet") == frozenset(raw_lower(fig1, {c, d}))
    x = fig1.index("a")
    assert cone_via_directoid(A, x, x, "meet") == frozenset(raw_lower(fig1, {x}))
    J = join_directoid(fig1)
    a, b = idx(fig1, "a", "b")
    assert cone_via_directoid(J, a, b, "join") == frozenset(raw_upper(fig1, {a, b}))


@given(bounded_posets(max_inner=3))
@settings(max_examples=50)
def test_cone_lemma_all_pairs(P):
    # a finite poset is directed both ways exactly when it is bounded
    for meet, join in enumerate_choices(P, "lambda"):
        A = lambda_algebra(P, meet, join)
        for a in range(P.n):
            for b in range(P.n):
                assert cone_via_directoid(A, a, b, "meet") == frozenset(raw_lower(P, {a, b}))
                assert cone_via_directoid(A, a, b, "join") == frozenset(raw_upper(P, {a, b}))
                # membership form: (a⊓c)⊓(b⊓c) = c iff c ∈ L(a,b)
                t = A.table(MEET)
                for cc in range(P.n):
                    assert (t[t[a][cc]][t[b][cc]] == cc) == (cc in raw_lower(P, {a, b}))


# -- conditions and derived identities -------------------------------------------------


def test_conditions_fig1_all_meet_choices(fig1):
    for choice in enumerate_choices(fig1, "meet"):
        A = assign_algebra(fig1, "pc", meet=choice)
        assert all_hold(verify_assigned_conditions(A, "pc"))
        R = assign_algebra(fig1, "rpc", meet=choice)
        assert all_hold(verify_assigned_conditions(R, "rpc"))
        assert all_hold(verify_derived_identities(R, "rpc"))


def test_conditions_fig2_stone(fig2):
    A = assign_algebra(fig2, "stone")
    reports = verify_assigned_conditions(A, "stone")
    assert set(reports) == {"i", "ii", "iii", "iv"}
    assert all_hold(reports)


def test_conditions_catch_mutated_star(fig1):
    from ordalg.algebra import Algebra

    A = assign_algebra(fig1, "pc")
    star = list(A.table(STAR))
    star[fig1.index("c")] = fig1.index("d")
    B = Algebra(A.labels, [(MEET, 2, A.table(MEET)), (STAR, 1, star), (ZERO, 0, A.constant(ZERO))])
    reports = verify_assigned_conditions(B, "pc")
    assert not reports["ii"].holds or not reports["iii"].holds


def test_derived_identities_fig5_all_assignments(fig5):
    for meet, join in enumerate_choices(fig5, "lambda"):
        A = assign_algebra(fig5, "sspc", meet=meet, join=join)
        assert all_hold(verify_derived_identities(A, "sspc"))


def test_derived_identities_singleton():
    P = build_poset(["x"], [])
    A = assign_algebra(P, "rpc")
    assert all_hold(verify_derived_identities(A, "rpc"))


# -- roundtrip and audit -----------------------------------------------------------------


@given(posets(max_n=5))
@settings(max_examples=50)
def test_induced_order_roundtrip_every_choice(P):
    assume(extremes(P)[0] is not None)  # down-directed
    for choice in enumerate_choices(P, "meet"):
        from helpers import meet_directoid

        A = meet_directoid(P, choice)
        assert induced_order(A, "meet") == P


def test_audit_fig1_pc(fig1):
    rep = theorem_equivalence_audit(fig1, "pc")
    assert rep.holds and rep.poset_holds and rep.assignments_checked == 3


def test_audit_fig4_vacuous(fig4):
    rep = theorem_equivalence_audit(fig4, "spc")
    assert rep.holds and rep.assignments_checked == 0
    assert "no assignments" in rep.note


def test_audit_budget_sampling(fig2):
    rep = theorem_equivalence_audit(fig2, "pc", budget=10)
    assert rep.sampled and rep.assignments_checked == 10 < rep.assignments_total
    assert rep.holds and rep.note == "sampled 10 of 48 assignments"


def _decoded_indices(monkeypatch):
    seen = []
    decode = ChoiceSpace.decode

    def recording(self, index):
        seen.append(index)
        return decode(self, index)

    monkeypatch.setattr(ChoiceSpace, "decode", recording)
    return seen


@pytest.mark.parametrize("name, profile, budget", [("fig2", "pc", 10), ("fig2", "stone", 50),
                                                   ("fig5", "sspc", 7), ("fig3", "rpc", 5)])
def test_audit_samples_exactly_budget(figs, monkeypatch, name, profile, budget):
    P = figs.posets[name]
    seen = _decoded_indices(monkeypatch)
    rep = theorem_equivalence_audit(P, profile, budget=budget)
    assert rep.sampled and rep.holds
    assert rep.assignments_checked == budget == len(set(seen))
    assert seen == sorted(seen) and 0 <= seen[0] and seen[-1] < rep.assignments_total
    first = list(seen)
    seen.clear()
    assert theorem_equivalence_audit(P, profile, budget=budget) == rep
    assert seen == first  # same seed, same assignments


def test_audit_exhaustive_at_budget(fig2, monkeypatch):
    seen = _decoded_indices(monkeypatch)
    rep = theorem_equivalence_audit(fig2, "pc", budget=48)
    assert not rep.sampled and rep.note == ""
    assert rep.assignments_checked == rep.assignments_total == 48
    assert seen == list(range(48))


def test_audit_fig3_lambda_sampled(fig3):
    rep = theorem_equivalence_audit(fig3, "stone", budget=20)
    assert rep.assignments_total == 429_981_696
    assert rep.sampled and rep.assignments_checked == 20 and rep.holds


def test_audit_samples_above_maxsize():
    rep = theorem_equivalence_audit(wide_poset(), "stone", budget=1)
    assert rep.assignments_total == 7**30 > sys.maxsize
    assert rep.sampled and rep.assignments_checked == 1 and rep.holds


@pytest.mark.parametrize("total, budget", [(7**30, 40), (10, 10), (10, 9), (1, 1)])
def test_sample_indices_exact_sorted_distinct(total, budget):
    drawn = _sample_indices(random.Random(3), total, budget)
    assert len(set(drawn)) == budget and drawn == sorted(drawn)
    assert 0 <= drawn[0] and drawn[-1] < total
    assert drawn == _sample_indices(random.Random(3), total, budget)


@pytest.mark.parametrize("budget", [0, -5])
def test_audit_rejects_budget_below_one(fig2, budget):
    with pytest.raises(OrdalgError, match="at least 1"):
        theorem_equivalence_audit(fig2, "pc", budget=budget)


@given(posets(max_n=5))
@settings(max_examples=30, deadline=None)
def test_audit_random_posets_never_diverge(P):
    for prof in PROFILES:
        assert theorem_equivalence_audit(P, prof).holds


def test_audit_every_small_poset_whole():
    # every assignment of every poset with n <= 6, none sampled; in_class
    # counts the assignments on posets in the profile's class
    checked = dict.fromkeys(PROFILES, 0)
    in_class = dict.fromkeys(PROFILES, 0)
    for n in range(1, 7):
        for P in all_posets(n):
            for prof in PROFILES:
                rep = theorem_equivalence_audit(P, prof)
                assert not rep.divergences and not rep.sampled
                checked[prof] += rep.assignments_checked
                in_class[prof] += rep.assignments_checked if rep.poset_holds else 0
    assert checked == {"pc": 435, "stone": 68, "rpc": 435, "spc": 68, "spc1": 68, "sspc": 68}
    assert in_class == {"pc": 37, "stone": 35, "rpc": 21, "spc": 45, "spc1": 45, "sspc": 45}
