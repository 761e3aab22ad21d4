import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import meet_directoid, posets
from ordalg import Algebra, assign_algebra, fixtures
from ordalg.errors import (
    ArityMismatch,
    BudgetExceeded,
    UnboundVariable,
    UnknownSymbol,
)
from ordalg.terms import (
    App,
    Const,
    Eq,
    Forall,
    Iff,
    Implies,
    Report,
    Var,
    check_formula,
    eval_term,
    evaluate_at,
    formula_cost,
    render_formula,
    render_term,
)

X, Y, Z = Var("x"), Var("y"), Var("z")


def m(a, b):
    return App("⊓", (a, b))


def star(a):
    return App("*", (a,))


@pytest.fixture(scope="module")
def fig1_pc():
    return assign_algebra(fixtures().posets["fig1"], "pc")


def test_eval_term_examples(fig1_pc):
    A = fig1_pc
    # x*⊓y at x=a, y=c: a*=b, then b⊓c=b
    v = eval_term(A, m(star(X), Y), {"x": A.index("a"), "y": A.index("c")})
    assert A.labels[v] == "b"
    assert eval_term(A, X, {"x": 4}) == 4


def test_eval_term_fig5():
    figs = fixtures()
    A = figs.algebras["fig5_spc"]
    t = App("∘", (App("∘", (X, Y)), Y))
    v = eval_term(A, t, {"x": A.index("b"), "y": A.index("a")})
    assert A.labels[v] == "1"  # b∘a=a, a∘a=1


def test_eval_term_errors(fig1_pc):
    with pytest.raises(UnboundVariable):
        eval_term(fig1_pc, X, {})
    with pytest.raises(UnknownSymbol):
        eval_term(fig1_pc, App("?", (X,)), {"x": 0})
    with pytest.raises(ArityMismatch):
        eval_term(fig1_pc, App("⊓", (X,)), {"x": 0})


def test_check_identity_holds(fig1_pc):
    rep = check_formula(fig1_pc, Forall(("x", "y"), Eq(m(m(X, Y), m(star(X), Y)), Const("0"))))
    assert rep.holds and rep.checked_count == 36 and rep.witness is None


def test_check_trivial_identity(fig1_pc):
    rep = check_formula(fig1_pc, Forall(("x",), Eq(X, X)))
    assert rep.holds and rep.checked_count == 6


def test_check_perturbed_star_fails(fig1_pc):
    A = fig1_pc
    star_t = list(A.table("*"))
    star_t[A.index("a")] = A.index("d")
    B = Algebra(A.labels, [("⊓", 2, A.table("⊓")), ("*", 1, star_t), ("0", 0, A.constant("0"))])
    f = Forall(("x", "y"), Eq(m(m(X, Y), m(star(X), Y)), Const("0")))
    rep = check_formula(B, f)
    assert not rep.holds
    # lexicographically first counterexample in declaration order
    assert rep.witness == {"x": B.index("a"), "y": B.index("a")}
    # the hand-derived assignment {x:a, y:d} also falsifies the identity
    assert not evaluate_at(B, f, {"x": B.index("a"), "y": B.index("d")})
    # and the reported witness falsifies it under independent re-evaluation
    assert not evaluate_at(B, f, rep.witness)


def test_implication_equals_identity_with_empty_premise(fig1_pc):
    ident = Forall(("x", "y"), Eq(m(X, Y), m(Y, X)))
    # an implication whose premise is a tautology has the same verdict
    imp = Forall(("x", "y"), Implies(Eq(X, X), Eq(m(X, Y), m(Y, X))))
    assert check_formula(fig1_pc, ident).holds == check_formula(fig1_pc, imp).holds


def test_iff_node(fig1_pc):
    f = Forall(("x", "y"), Iff(Eq(m(X, Y), X), Eq(m(Y, X), X)))
    assert check_formula(fig1_pc, f).holds  # meet table is symmetric


def test_validation_errors(fig1_pc):
    with pytest.raises(UnboundVariable):
        check_formula(fig1_pc, Forall(("x",), Eq(X, Y)))
    with pytest.raises(UnknownSymbol):
        check_formula(fig1_pc, Forall(("x",), Eq(App("⊔", (X, X)), X)))
    with pytest.raises(ArityMismatch):
        check_formula(fig1_pc, Forall(("x",), Eq(App("*", (X, X)), X)))


def test_budget_guard(fig1_pc):
    f = Forall(("x", "y", "z"), Eq(m(X, m(Y, Z)), m(m(X, Y), Z)))
    assert formula_cost(f, 6) == 216
    with pytest.raises(BudgetExceeded):
        check_formula(fig1_pc, f, budget=100)


def test_report_invariants():
    with pytest.raises(ValueError):
        Report(True, {"x": 0})
    with pytest.raises(ValueError):
        Report(False, None)


def test_render():
    assert render_term(m(star(X), Y)) == "x*⊓y"
    assert render_term(star(m(X, Y))) == "(x⊓y)*"
    f = Forall(("x",), Eq(m(X, X), X))
    assert render_formula(f) == "∀x: x⊓x = x"


@given(posets(max_n=5), st.integers(0, 10**6))
@settings(max_examples=40)
def test_witness_self_falsifying_on_random_directoids(P, salt):
    from hypothesis import assume
    from ordalg.poset import directedness

    assume(directedness(P).kind in ("down", "both"))
    # commutativity with a deliberately scrambled table entry
    A = meet_directoid(P)
    t = [list(r) for r in A.table("⊓")]
    if P.n >= 2:
        i, j = salt % P.n, (salt // P.n) % P.n
        t[i][j] = (t[i][j] + 1) % P.n
    B = Algebra(A.labels, [("⊓", 2, t)])
    f = Forall(("x", "y"), Eq(m(X, Y), m(Y, X)))
    rep = check_formula(B, f)
    if not rep.holds:
        assert not evaluate_at(B, f, rep.witness)
