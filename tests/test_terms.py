import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import meet_directoid, posets
from ordalg import Algebra, PROFILES, assign_algebra, fixtures, pc
from ordalg.algebra import JOIN, MEET
from ordalg.assign import (
    _build,
    _choice_kind,
    _constant_values,
    conditions_for,
    derived_identities_for,
    enumerate_choices,
)
from ordalg.congruence import (
    _majority_scheme,
    _maltsev_scheme,
    _schemes_for_signature,
    _weak_regularity_scheme,
)
from ordalg.enumeration import all_posets
from ordalg.errors import (
    ArityMismatch,
    BudgetExceeded,
    NotDirected,
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
    _axiom_set,
    _compile_node,
    check_formula,
    eval_term,
    evaluate_at,
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
    with pytest.raises(UnboundVariable, match="'y' is not bound"):
        check_formula(fig1_pc, Forall(("x",), Eq(X, Y)))
    with pytest.raises(UnknownSymbol, match="operation '⊔' not in signature"):
        check_formula(fig1_pc, Forall(("x",), Eq(App("⊔", (X, X)), X)))
    with pytest.raises(UnknownSymbol, match="constant '1' not in signature"):
        check_formula(fig1_pc, Forall(("x",), Eq(Const("1"), X)))
    with pytest.raises(ArityMismatch, match=r"'\*' has arity 1, applied to 2"):
        check_formula(fig1_pc, Forall(("x",), Eq(App("*", (X, X)), X)))
    with pytest.raises(ValueError, match=r"re-binds variables: \['x'\]"):
        check_formula(fig1_pc, Forall(("x",), Implies(Forall(("x",), Eq(X, X)), Eq(X, X))))
    with pytest.raises(ValueError, match="duplicate variables"):
        check_formula(fig1_pc, Forall(("x", "x"), Eq(X, X)))
    with pytest.raises(TypeError, match="not a formula node"):
        check_formula(fig1_pc, Forall(("x",), "x = x"))
    with pytest.raises(TypeError, match="not a term"):
        check_formula(fig1_pc, Forall(("x",), Eq(X, 0)))
    with pytest.raises(TypeError, match="top-level quantified"):
        check_formula(fig1_pc, Eq(X, X))


def test_validation_precedes_evaluation(fig1_pc):
    # the unbound w sits in a conclusion that x = a never reaches
    f = Forall(("x",), Implies(Eq(X, Const("0")), Eq(X, Var("w"))))
    assert evaluate_at(fig1_pc, f, {"x": fig1_pc.index("a")})
    with pytest.raises(UnboundVariable, match="'w' is not bound"):
        check_formula(fig1_pc, f)


def test_budget_guard(fig1_pc):
    # 6**12 = 2,176,782,336 assignments: over the budget before any evaluation
    names = tuple(f"v{i}" for i in range(12))
    f = Forall(names, Eq(Var(names[0]), Var(names[-1])))
    with pytest.raises(BudgetExceeded, match=r"estimated 2176782336 .* budget 1000000000$"):
        check_formula(fig1_pc, f)


def test_compile_cost_and_size(fig1_pc):
    # sibling blocks share slots: the deeper conclusion sets the size
    f = Forall(("x",), Implies(Forall(("y",), Eq(X, Y)), Forall(("y", "z"), Eq(Y, Z))))
    _, cost, size = _compile_node(fig1_pc, f, {})
    assert (cost, size) == (6 * (6 + 6**2), 3)


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


# -- compiled checker against the interpreter ------------------------------------


def _interpreted(A, f):
    """``(holds, witness, checked_count)`` from a row-major ``evaluate_at`` scan."""
    count = 0
    for vals in product(range(A.n), repeat=len(f.vars)):
        count += 1
        env = dict(zip(f.vars, vals))
        if not evaluate_at(A, f, env):
            return False, env, count
    return True, None, count


def _compiled(A, f):
    rep = check_formula(A, f)
    return rep.holds, rep.witness, rep.checked_count


_SCHEMES = {
    "majority": lambda sym: _majority_scheme(),
    "maltsev": _maltsev_scheme,
    "weak_regularity": _weak_regularity_scheme,
}


def _formulas(profile, A):
    """The profile's conditions and derived identities, every congruence
    scheme the signature supports, and the directoid or λ-lattice axioms."""
    out = [f for _, f in conditions_for(profile)]
    if profile in ("rpc", "spc1", "sspc"):
        out += [f for _, f in derived_identities_for(profile)]
    for scheme, sym in _schemes_for_signature(A):
        out += [f for _, f in _SCHEMES[scheme](sym)]
    out += [f for _, f in _axiom_set(MEET, JOIN if A.signature.has(JOIN, 2) else None)]
    return out


def _scrambled(A, rng):
    """``A`` with one table cell of each operation redrawn."""
    ops = []
    for (sym, arity), table in zip(A.signature.symbols, A.tables):
        if arity == 1:
            table = list(table)
            table[rng.randrange(A.n)] = rng.randrange(A.n)
        elif arity == 2:
            table = [list(row) for row in table]
            table[rng.randrange(A.n)][rng.randrange(A.n)] = rng.randrange(A.n)
        ops.append((sym, arity, table))
    return Algebra(A.labels, ops)


def _assigned_algebras(profile):
    """The canonical assigned algebra of every directed poset with n <= 4, with
    best-effort tables and constants outside the class, and a seeded scramble
    of each."""
    rng = random.Random(2103)
    for n in range(1, 5):
        for P in all_posets(n):
            try:
                space = enumerate_choices(P, _choice_kind(profile))
            except NotDirected:
                continue
            cls = pc.classify(P, profile)
            table = cls.table if cls.holds else pc.best_effort_table(P, profile)
            constants = _constant_values(P, profile, best_effort=not cls.holds)
            A = _build(P, profile, space.decode(0), table, constants)
            yield A
            yield _scrambled(A, rng)


@pytest.mark.parametrize("profile", list(PROFILES))
def test_compiled_checker_matches_interpreter(profile):
    verdicts = set()
    for A in _assigned_algebras(profile):
        for f in _formulas(profile, A):
            expected = _interpreted(A, f)
            assert _compiled(A, f) == expected, (A, render_formula(f))
            verdicts.add(expected[0])
    assert verdicts == {True, False}  # both outcomes are exercised


def test_sibling_quantifiers_may_reuse_a_name(fig1_pc):
    # premise and conclusion each bind z; the two blocks share a slot
    f = Forall(
        ("x", "y"),
        Implies(Forall(("z",), Eq(m(X, Z), m(Z, Y))), Forall(("z",), Eq(m(Z, X), m(Y, Z)))),
    )
    g = Forall(("x", "y"), Iff(Forall(("z",), Eq(m(X, Z), Z)), Forall(("z",), Eq(m(Y, Z), Z))))
    B = _scrambled(fig1_pc, random.Random(5))
    outcomes = set()
    for A in (fig1_pc, B):
        for h in (f, g):
            assert _compiled(A, h) == _interpreted(A, h)
            outcomes.add(_compiled(A, h)[0])
    assert outcomes == {True, False}


def test_nullary_application_is_its_constant(fig1_pc):
    zero = App("0", ())
    f = Forall(("x",), Eq(m(X, zero), zero))
    assert _compiled(fig1_pc, f) == _interpreted(fig1_pc, f) == (True, None, 6)
