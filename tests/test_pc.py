from itertools import product

import pytest
from hypothesis import given, settings

from helpers import idx, labset, posets, raw_cells, raw_greatest, raw_lower, raw_scan
from ordalg import (
    all_posets,
    build_poset,
    check_distributive_pc_equalities,
    classify,
    extremes,
    is_distributive,
    pseudocomplement,
)
from ordalg import pc
from ordalg.errors import NoBottom
from ordalg.pc import _candidates, best_effort_table
from ordalg.poset import Poset


# -- pseudocomplements -----------------------------------------------------------


def test_pseudocomplement_fig1(fig1):
    assert fig1.labels[pseudocomplement(fig1, fig1.index("a"))] == "b"
    # x = 0 gives the top element
    assert fig1.labels[pseudocomplement(fig1, fig1.index("0"))] == "1"


def test_pseudocomplement_fig2(fig2):
    assert fig2.labels[pseudocomplement(fig2, fig2.index("b"))] == "c"


def test_pseudocomplement_no_bottom():
    P = build_poset(["a", "b"], [])
    with pytest.raises(NoBottom):
        pseudocomplement(P, 0)


def test_star_tables_match_fixtures(figs):
    for name in ("fig1", "fig2", "fig3"):
        P = figs.posets[name]
        stored = figs.algebras[f"{name}_star"]
        computed = classify(P, "pc").table
        assert computed == stored.table("*")
        assert tuple(computed[v] for v in computed) == stored.table("**")


def test_star_table_oracle_fig2(fig2):
    # independent re-derivation of each entry through raw cone loops
    bottom = extremes(fig2)[0]
    table = classify(fig2, "pc").table
    for x in range(fig2.n):
        cand = {y for y in range(fig2.n) if raw_lower(fig2, {x, y}) == {bottom}}
        assert raw_greatest(fig2, cand) == table[x]


def test_classify_pc_fig1(fig1):
    cls = classify(fig1, "pseudocomplemented")
    assert cls.holds and cls.kind == "pseudocomplemented"
    stone = classify(fig1, "stone")
    assert not stone.holds
    assert stone.witness["x"] == fig1.index("a")
    assert labset(fig1, stone.witness["U(x*,x**)"]) == {"c", "d", "1"}


def test_classify_stone_fig2_fig3(fig2, fig3):
    assert classify(fig2, "stone").holds
    cls3 = classify(fig3, "stone")
    assert cls3.holds
    assert all(cls3.table[cls3.table[x]] == x for x in range(fig3.n))


def test_classify_antichain_not_pc():
    P = build_poset(["a", "b"], [])
    cls = classify(P, "pseudocomplemented")
    assert not cls.holds and cls.witness == {"reason": "no bottom element"}


# -- relative pseudocomplements ------------------------------------------------


def test_rpc_fig1_examples(fig1):
    c, zero = idx(fig1, "c", "0")
    a, b = idx(fig1, "a", "b")
    rpc = classify(fig1, "rpc").table
    assert rpc[c][zero] == zero
    assert rpc[a][b] == b
    assert rpc[b][a] == a
    # (x, x) in a poset with top is the top
    assert fig1.labels[rpc[a][a]] == "1"


def test_rpc_table_matches_fixture(figs, fig1):
    assert classify(fig1, "rpc").table == figs.algebras["fig1_rpc"].table("*")


def test_rpc_fig5_absent(fig5):
    b, a = idx(fig5, "b", "a")
    assert fig5.maximum_of(_candidates(fig5, "rpc")(b, a)) is None
    cls = classify(fig5, "relatively_pc")
    assert not cls.holds and (cls.witness["x"], cls.witness["y"]) == (b, a)
    assert labset(fig5, cls.witness["maximal"]) == {"a", "c"}


def test_rpc_implies_pc_at_bottom(fig1):
    zero = fig1.index("0")
    st = classify(fig1, "pc").table
    rpc = classify(fig1, "rpc").table
    for x in range(fig1.n):
        assert rpc[x][zero] == st[x]


@given(posets(max_n=5))
@settings(max_examples=60)
def test_rpc_adjointness(P):
    # z <= x*y exactly when L(x,z) ⊆ L(y), whenever x*y exists
    rpc = _candidates(P, "rpc")
    for x in range(P.n):
        for y in range(P.n):
            v = P.maximum_of(rpc(x, y))
            if v is None:
                continue
            for z in range(P.n):
                assert P.leq(z, v) == (raw_lower(P, {x, z}) <= raw_lower(P, {y}))


def test_rpc_implies_distributive_small():
    for n in range(1, 7):
        for P in all_posets(n):
            if classify(P, "relatively_pc").holds:
                assert is_distributive(P).holds


# -- sectional pseudocomplements ---------------------------------------------------


def test_spc_fig5_examples(fig5):
    b, a, c, zero = idx(fig5, "b", "a", "c", "0")
    spc = classify(fig5, "spc").table
    assert spc[b][a] == a
    assert spc[a][zero] == c
    assert spc[c][zero] == b
    one = fig5.index("1")
    assert all(spc[x][x] == one for x in range(fig5.n))


def test_spc_tables_match_fixtures(figs, fig4, fig5):
    assert classify(fig5, "spc").table == figs.algebras["fig5_spc"].table("∘")
    assert classify(fig4, "spc").table == figs.algebras["fig4_spc"].table("∘")
    # no fallback fires on fig5 (it has a top)
    spc = _candidates(fig5, "spc")
    assert all(fig5.maximum_of(spc(x, x)) is not None for x in range(fig5.n))


def test_spc_fig4_second_projection(fig4):
    spc = classify(fig4, "spc").table
    for x in range(4):
        for y in range(4):
            assert spc[x][y] == y


def test_spc_fig4_diagonal_fallback_is_flagged(fig4):
    cls = classify(fig4, "sectionally_pc")
    assert cls.holds
    assert "diagonal fallback" in cls.note
    # without the fallback the two non-maximal diagonal entries are absent
    a, b = idx(fig4, "a", "b")
    spc = _candidates(fig4, "spc")
    assert fig4.maximum_of(spc(a, a)) is None
    assert fig4.maximum_of(spc(b, b)) is None
    assert cls.table[a][a] == a


def test_spc_classification_family(fig4, fig5):
    assert classify(fig4, "sectionally_pc").holds
    with1 = classify(fig4, "sectionally_pc_with_1")
    assert not with1.holds and not with1.applicable and "no top" in with1.note
    strong = classify(fig4, "strongly_sectionally_pc")
    assert not strong.holds and not strong.applicable
    assert classify(fig5, "strongly_sectionally_pc").holds
    assert classify(fig5, "sectionally_pc_with_1").holds


def test_spc_m3_not_sectional():
    M3 = build_poset(
        ["0", "p", "q", "r", "1"],
        [("0", "p"), ("0", "q"), ("0", "r"), ("p", "1"), ("q", "1"), ("r", "1")],
    )
    cls = classify(M3, "sectionally_pc")
    assert not cls.holds
    assert cls.witness == {"x": 1, "y": 0, "maximal": (2, 3)}


# -- table re-verification invariants ------------------------------------------------


def _reverify_tables(P, ops=("pc", "rpc", "spc")):
    """classify and the best-effort tables against the set-based oracle."""
    for op in ops:
        kind = {"pc": "pseudocomplemented", "rpc": "relatively_pc", "spc": "sectionally_pc"}[op]
        cls = classify(P, kind)
        best = best_effort_table(P, kind)
        scan = raw_scan(P, op)
        if scan is None:
            assert cls.witness == {"reason": "no bottom element"}
            assert cls.table is None and best is None
            continue
        expected, absent, fallback = scan
        flat = best if op == "pc" else [v for row in best for v in row]
        assert list(flat) == expected
        if absent:
            assert not cls.holds and cls.witness == absent[0]
            assert cls.table is None
        else:
            assert cls.holds and cls.table == best
            note = "diagonal fallback (least candidate) at: " + ", ".join(
                P.labels[x] for x in fallback
            )
            assert cls.note == (note if fallback else "")


@given(posets(max_n=5))
@settings(max_examples=60)
def test_classification_tables_reverify(P):
    _reverify_tables(P)


def test_classification_tables_reverify_small():
    for n in range(1, 6):
        for P in all_posets(n):
            _reverify_tables(P)


@pytest.mark.slow
def test_sectional_scan_matches_oracle():
    # the scan over ↑y with cached L(U(x,y)) against candidate sets by cones
    for n in range(1, 7):
        for P in all_posets(n):
            _reverify_tables(P, ops=("spc",))


def test_classification_is_one_pass(fig1, fig5, monkeypatch):
    # classifying or best-effort: one candidate rule per scan, each cell once
    # in row-major order (a pseudocomplement cell with the bottom as y), and
    # one L(U(x,y)) per distinct mask ↑x ∩ ↑y
    calls, masks = [], []
    rule, lower_mask = pc._candidates, Poset.lower_mask

    def counted_rule(P, op):
        calls.append(op)
        cell = rule(P, op)
        return lambda x, y: calls.append((x, y)) or cell(x, y)

    monkeypatch.setattr(pc, "_candidates", counted_rule)
    monkeypatch.setattr(Poset, "lower_mask", lambda P, m: masks.append(m) or lower_mask(P, m))
    assert classify(fig1, "rpc").holds
    assert calls == ["rpc", *product(range(fig1.n), repeat=2)] and not masks
    calls.clear()
    bottom = extremes(fig1)[0]
    assert classify(fig1, "pc").holds
    assert calls == ["pc", *((x, bottom) for x in range(fig1.n))]
    calls.clear()
    distinct = {fig5.up[x] & fig5.up[y] for x, y in product(range(fig5.n), repeat=2)}
    assert classify(fig5, "sspc").holds
    assert calls == ["spc", *product(range(fig5.n), repeat=2)]
    assert sorted(masks) == sorted(distinct)
    calls.clear()
    masks.clear()
    best_effort_table(fig5, "spc")
    assert calls == ["spc", *product(range(fig5.n), repeat=2)]
    assert sorted(masks) == sorted(distinct)


def test_candidate_sets_are_never_empty():
    # the bottom is a pseudocomplement candidate of every x, and y a relative
    # and a sectional candidate of every (x, y): a best-effort entry always
    # has a maximal candidate to take
    for n in range(1, 8):
        for P in all_posets(n):
            bottom, _ = extremes(P)
            star, rpc, spc = (_candidates(P, op) for op in ("pc", "rpc", "spc"))
            for x in range(P.n):
                if bottom is not None:
                    assert star(x, bottom) >> bottom & 1
                for y in range(P.n):
                    assert rpc(x, y) >> y & 1
                    assert spc(x, y) >> y & 1


def test_candidates_are_the_cone_definitions():
    # the one rule, cell by cell, against each operation's own definition:
    # L(x,y) = {0}, L(x,z) ⊆ L(y) and L(U(x,y),z) = L(y)
    for n in range(1, 7):
        for P in all_posets(n):
            bottom, _ = extremes(P)
            for op in ("pc", "rpc", "spc"):
                cells = raw_cells(P, op)
                if cells is None:
                    continue
                rule = _candidates(P, op)
                tail = (bottom,) if op == "pc" else ()
                for cell, cand in cells:
                    assert rule(*cell, *tail) == sum(1 << z for z in cand), (op, cell)


def test_best_effort_table_is_the_finished_scan():
    # when only the class's own check fails (stone, spc1, sspc) the scan has
    # finished, and the best-effort table is the classification's table
    kinds = set()
    for n in range(1, 7):
        for P in all_posets(n):
            for kind in pc.KINDS:
                cls = classify(P, kind)
                if not cls.holds and cls.table is not None:
                    kinds.add(kind)
                    assert best_effort_table(P, kind) == cls.table
    assert kinds == {"stone", "sectionally_pc_with_1", "strongly_sectionally_pc"}


def test_maximum_of_distinguishes_maximal(fig4):
    # {c, d} has two maximal elements and no maximum
    mask = (1 << fig4.index("c")) | (1 << fig4.index("d"))
    assert fig4.maximum_of(mask) is None
    assert set(fig4.maximal_of(mask)) == {fig4.index("c"), fig4.index("d")}


# -- the distributive equality characterization ---------------------------------------


def test_equalities_fig3(fig3):
    reports = check_distributive_pc_equalities(fig3, classify(fig3, "pc").table)
    assert all(r.holds for r in reports.values())


def test_equalities_fig1_side_condition_fails(fig1):
    reports = check_distributive_pc_equalities(fig1, classify(fig1, "pc").table)
    side = reports["side: U(x,x*)={1}"]
    assert not side.holds
    assert side.witness["x"] == fig1.index("a")
    assert labset(fig1, side.witness["U(x,x*)"]) == {"c", "d", "1"}


def test_equalities_boolean_square():
    B4 = build_poset(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    complement = (B4.index("1"), B4.index("b"), B4.index("a"), B4.index("0"))
    reports = check_distributive_pc_equalities(B4, complement)
    assert all(r.holds for r in reports.values())
