import pytest
from hypothesis import given, settings

from helpers import bounded_posets, join_directoid, lambda_algebra, meet_directoid, posets
from ordalg import (
    Algebra,
    Signature,
    assign_algebra,
    build_poset,
    fixtures,
    induced_order,
    verify_axioms,
)
from ordalg.algebra import JOIN, MEET
from ordalg.errors import MissingSymbol, NotAPartialOrder, UnknownSymbol
from ordalg.poset import extremes


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature((("f", 2), ("f", 1)))
    with pytest.raises(ValueError):
        Signature((("f", 3),))
    sig = Signature(((MEET, 2), ("0", 0)))
    assert sig.arity(MEET) == 2 and sig.has("0", 0)
    with pytest.raises(UnknownSymbol):
        sig.arity("?")


def test_algebra_totality_checks():
    with pytest.raises(ValueError):
        Algebra(["a", "b"], [("f", 1, [0])])
    with pytest.raises(ValueError):
        Algebra(["a", "b"], [("f", 2, [[0, 1], [0, 5]])])
    A = Algebra(["a", "b"], [("f", 2, [[0, 1], [1, 0]]), ("c", 0, 1)])
    assert A.apply("f", 0, 1) == 1 and A.constant("c") == 1


def test_algebra_json_roundtrip(figs):
    A = figs.algebras["fig5_spc"]
    assert Algebra.from_json(A.to_json()) == A


def test_induced_order_min_chain():
    chain = build_poset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    tab = [[min(i, j) for j in range(3)] for i in range(3)]
    A = Algebra(chain.labels, [(MEET, 2, tab)])
    assert induced_order(A, "meet") == chain


def test_induced_order_roundtrip_fig1(figs):
    fig1 = figs.posets["fig1"]
    A = assign_algebra(fig1, "pc")
    assert induced_order(A, "meet") == fig1


def test_induced_order_rejects_projection():
    A = Algebra(["0", "1"], [(MEET, 2, [[0, 0], [1, 1]])])
    with pytest.raises(NotAPartialOrder):
        induced_order(A, "meet")


def test_induced_order_missing_symbol():
    A = Algebra(["a"], [("f", 1, [0])])
    with pytest.raises(MissingSymbol):
        induced_order(A, "meet")


def test_verify_axioms_chain_lattice():
    chain = build_poset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    A = lambda_algebra(chain)
    reports = verify_axioms(A, "lambda_lattice")
    assert len(reports) == 6 and all(r.holds for r in reports.values())


def test_verify_axioms_fig1_choice(figs):
    fig1 = figs.posets["fig1"]
    c, d, a = fig1.index("c"), fig1.index("d"), fig1.index("a")
    pairs = {(min(fig1.index("a"), fig1.index("b")), max(fig1.index("a"), fig1.index("b"))): fig1.index("0"),
             (min(c, d), max(c, d)): a}
    A = meet_directoid(fig1, pairs)
    reports = verify_axioms(A, "meet_directoid")
    assert all(r.holds for r in reports.values())
    assert all(r.checked_count in (6, 36, 216) for r in reports.values())


def test_verify_axioms_idempotency_violation():
    A = Algebra(["0", "1"], [(MEET, 2, [[1, 0], [0, 1]])])
    reports = verify_axioms(A, "meet_directoid")
    failing = [r for r in reports.values() if not r.holds]
    assert failing and failing[0].witness == {"x": 0}


def test_verify_axioms_missing_symbol():
    A = Algebra(["a"], [("f", 1, [0])])
    with pytest.raises(MissingSymbol):
        verify_axioms(A, "lambda_lattice")
    with pytest.raises(ValueError):
        verify_axioms(A, "boolean")


@given(bounded_posets())
@settings(max_examples=40)
def test_lambda_lattice_meet_join_agree(P):
    A = lambda_algebra(P)
    assert all(r.holds for r in verify_axioms(A, "lambda_lattice").values())
    mt, jt = A.table(MEET), A.table(JOIN)
    for x in range(A.n):
        for y in range(A.n):
            assert (mt[x][y] == x) == (jt[x][y] == y)
    assert induced_order(A, "meet") == induced_order(A, "join") == P


@given(posets())
@settings(max_examples=40)
def test_assigned_directoids_satisfy_axioms(P):
    if extremes(P)[0] is None:  # not down-directed
        return
    A = meet_directoid(P)
    assert all(r.holds for r in verify_axioms(A, "meet_directoid").values())
    assert induced_order(A, "meet") == P
