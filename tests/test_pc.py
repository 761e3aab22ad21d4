import pytest
from hypothesis import given, settings

from helpers import idx, labset, posets, raw_greatest, raw_lower, raw_upper
from ordalg import (
    all_posets,
    build_poset,
    check_distributive_pc_equalities,
    classify,
    extremes,
    is_distributive,
    pseudocomplement,
    relative_pseudocomplement,
    sectional_pseudocomplement,
)
from ordalg import pc
from ordalg.errors import NoBottom
from ordalg.pc import _spc_detail, best_effort_table, greatest_in


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
    assert relative_pseudocomplement(fig1, c, zero) == zero
    assert relative_pseudocomplement(fig1, a, b) == b
    assert relative_pseudocomplement(fig1, b, a) == a
    # (x, x) in a poset with top is the top
    assert fig1.labels[relative_pseudocomplement(fig1, a, a)] == "1"


def test_rpc_table_matches_fixture(figs, fig1):
    assert classify(fig1, "rpc").table == figs.algebras["fig1_rpc"].table("*")


def test_rpc_fig5_absent(fig5):
    b, a = idx(fig5, "b", "a")
    assert relative_pseudocomplement(fig5, b, a) is None
    cls = classify(fig5, "relatively_pc")
    assert not cls.holds and (cls.witness["x"], cls.witness["y"]) == (b, a)
    assert labset(fig5, cls.witness["maximal"]) == {"a", "c"}


def test_rpc_implies_pc_at_bottom(fig1):
    zero = fig1.index("0")
    st = classify(fig1, "pc").table
    for x in range(fig1.n):
        assert relative_pseudocomplement(fig1, x, zero) == st[x]


@given(posets(max_n=5))
@settings(max_examples=60)
def test_rpc_adjointness(P):
    # z <= x*y exactly when L(x,z) ⊆ L(y), whenever x*y exists
    for x in range(P.n):
        for y in range(P.n):
            v = relative_pseudocomplement(P, x, y)
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
    assert sectional_pseudocomplement(fig5, b, a) == a
    assert sectional_pseudocomplement(fig5, a, zero) == c
    assert sectional_pseudocomplement(fig5, c, zero) == b
    one = fig5.index("1")
    assert all(sectional_pseudocomplement(fig5, x, x) == one for x in range(fig5.n))


def test_spc_tables_match_fixtures(figs, fig4, fig5):
    assert classify(fig5, "spc").table == figs.algebras["fig5_spc"].table("∘")
    assert classify(fig4, "spc").table == figs.algebras["fig4_spc"].table("∘")
    # no fallback fires on fig5 (it has a top)
    assert all(_spc_detail(fig5, x, x).value is not None for x in range(fig5.n))


def test_spc_fig4_second_projection(fig4):
    for x in range(4):
        for y in range(4):
            assert sectional_pseudocomplement(fig4, x, y) == y


def test_spc_fig4_diagonal_fallback_is_flagged(fig4):
    cls = classify(fig4, "sectionally_pc")
    assert cls.holds
    assert "diagonal fallback" in cls.note
    # without the fallback the two non-maximal diagonal entries are absent
    a, b = idx(fig4, "a", "b")
    assert _spc_detail(fig4, a, a).value is None
    assert _spc_detail(fig4, b, b).value is None
    assert sectional_pseudocomplement(fig4, a, a) == a


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


def _raw_cells(P, op):
    """Each cell of the operation in row-major order with its candidate set,
    from raw cone loops; None for the pseudocomplement of a bottomless P."""
    n = P.n
    if op == "pc":
        bottoms = [w for w in range(n) if raw_upper(P, {w}) == set(range(n))]
        if not bottoms:
            return None
        return [((x,), {y for y in range(n) if raw_lower(P, {x, y}) == set(bottoms)})
                for x in range(n)]
    if op == "rpc":
        inside = lambda x, y, z: raw_lower(P, {x, z}) <= raw_lower(P, {y})
    else:
        inside = lambda x, y, z: raw_lower(P, raw_upper(P, {x, y}) | {z}) == raw_lower(P, {y})
    return [((x, y), {z for z in range(n) if inside(x, y, z)})
            for x in range(n) for y in range(n)]


def _raw_maximal(P, cand) -> list[int]:
    return sorted(z for z in cand if not any(w != z and P.leq(z, w) for w in cand))


def _reverify_tables(P):
    """classify and the best-effort tables against the oracle."""
    for kind, op in (
        ("pseudocomplemented", "pc"),
        ("relatively_pc", "rpc"),
        ("sectionally_pc", "spc"),
    ):
        cls = classify(P, kind)
        best = best_effort_table(P, kind)
        cells = _raw_cells(P, op)
        if cells is None:
            assert cls.witness == {"reason": "no bottom element"}
            assert cls.table is None and best == (0,) * P.n
            continue
        expected, absent, fallback = [], [], []
        for cell, cand in cells:
            greatest, maximal = raw_greatest(P, cand), _raw_maximal(P, cand)
            if greatest is not None:
                expected.append(greatest)
            elif op == "spc" and cell[0] == cell[1]:
                expected.append(cell[0])
                fallback.append(P.labels[cell[0]])
            else:
                absent.append(dict(zip("xy", cell), maximal=tuple(maximal)))
                expected.append(maximal[0] if maximal else cell[-1])
        flat = best if op == "pc" else [v for row in best for v in row]
        assert list(flat) == expected
        if absent:
            assert not cls.holds and cls.witness == absent[0]
            assert cls.table is None
        else:
            assert cls.holds and cls.table == best
            note = "diagonal fallback (least candidate) at: " + ", ".join(fallback)
            assert cls.note == (note if fallback else "")


@given(posets(max_n=5))
@settings(max_examples=60)
def test_classification_tables_reverify(P):
    _reverify_tables(P)


def test_classification_tables_reverify_small():
    for n in range(1, 6):
        for P in all_posets(n):
            _reverify_tables(P)


def test_classification_is_one_pass(fig1, fig5, monkeypatch):
    calls = []
    for name in ("_rpc_detail", "_spc_detail"):
        detail = getattr(pc, name)
        monkeypatch.setattr(pc, name, lambda P, x, y, f=detail: calls.append(1) or f(P, x, y))
    assert classify(fig1, "rpc").holds and len(calls) == fig1.n**2
    calls.clear()
    assert classify(fig5, "sspc").holds and len(calls) == fig5.n**2


def test_greatest_in_distinguishes_maximal(fig4):
    # {c, d} has two maximal elements and no maximum
    mask = (1 << fig4.index("c")) | (1 << fig4.index("d"))
    g = greatest_in(fig4, mask)
    assert g.value is None and set(g.maximal) == {fig4.index("c"), fig4.index("d")}


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
