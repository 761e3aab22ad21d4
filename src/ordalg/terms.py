"""Terms, quantified formulas, and the exhaustive model checker.

The formula language is deliberately a small fixed AST rather than a general
first-order parser: universally quantified equations, implications whose
premise is itself a quantified block, and the one biconditional-premise shape
needed for the nested sectional characterization.  That keeps the checker
total and auditable.

Two evaluation paths exist on purpose: :func:`check_formula` compiles terms
to closures for speed, while :func:`evaluate_at` is a plain recursive
interpreter used to re-validate reported witnesses independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Callable, Mapping

from .errors import ArityMismatch, BudgetExceeded, UnboundVariable, UnknownSymbol

if TYPE_CHECKING:  # pragma: no cover
    from .algebra import Algebra

DEFAULT_BUDGET = 10**9


# -- terms -------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    symbol: str


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple


Term = Var | Const | App


# -- formulas ------------------------------------------------------------------


@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Forall:
    vars: tuple[str, ...]
    body: "Node"


@dataclass(frozen=True)
class Implies:
    premise: "Node"
    conclusion: "Node"


@dataclass(frozen=True)
class Iff:
    lhs: "Node"
    rhs: "Node"


Node = Eq | Forall | Implies | Iff
Formula = Forall


@dataclass(frozen=True)
class Report:
    """Verdict of a quantified check.

    ``witness`` maps the outer variables to falsifying elements and is present
    exactly when ``holds`` is false; ``checked_count`` counts outer assignments
    examined.
    """

    holds: bool
    witness: dict[str, int] | None = None
    checked_count: int = 0
    note: str = ""

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a holding report cannot carry a witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing report must carry a witness")


def all_hold(reports: Mapping[str, Report]) -> bool:
    return all(r.holds for r in reports.values())


# -- rendering ---------------------------------------------------------------


def render_term(t: Term) -> str:
    """Compact infix/postfix rendering (unary operations render postfix)."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.symbol
    if len(t.args) == 1:
        inner = t.args[0]
        r = render_term(inner)
        return f"{r}{t.symbol}" if isinstance(inner, (Var, Const)) else f"({r}){t.symbol}"

    def side(s: Term) -> str:
        r = render_term(s)
        if isinstance(s, (Var, Const)) or (isinstance(s, App) and len(s.args) == 1):
            return r
        return f"({r})"

    a, b = t.args
    return f"{side(a)}{t.symbol}{side(b)}"


def render_formula(f: Node) -> str:
    if isinstance(f, Eq):
        return f"{render_term(f.lhs)} = {render_term(f.rhs)}"
    if isinstance(f, Forall):
        return f"∀{','.join(f.vars)}: {render_formula(f.body)}"
    if isinstance(f, Implies):
        return f"[{render_formula(f.premise)}] ⇒ {render_formula(f.conclusion)}"
    if isinstance(f, Iff):
        return f"[{render_formula(f.lhs)}] ⇔ [{render_formula(f.rhs)}]"
    raise TypeError(f"not a formula node: {f!r}")


# -- validation and cost ---------------------------------------------------


def _validate_term(A: "Algebra", t: Term, bound: frozenset[str]) -> None:
    if isinstance(t, Var):
        if t.name not in bound:
            raise UnboundVariable(f"variable {t.name!r} is not bound by a quantifier")
    elif isinstance(t, Const):
        if not A.signature.has(t.symbol, 0):
            raise UnknownSymbol(f"constant {t.symbol!r} not in signature")
    elif isinstance(t, App):
        if not A.signature.has(t.symbol):
            raise UnknownSymbol(f"operation {t.symbol!r} not in signature")
        if A.signature.arity(t.symbol) != len(t.args):
            raise ArityMismatch(
                f"{t.symbol!r} has arity {A.signature.arity(t.symbol)}, applied to {len(t.args)}"
            )
        for a in t.args:
            _validate_term(A, a, bound)
    else:
        raise TypeError(f"not a term: {t!r}")


def validate_formula(A: "Algebra", node: Node, bound: frozenset[str] = frozenset()) -> None:
    if isinstance(node, Eq):
        _validate_term(A, node.lhs, bound)
        _validate_term(A, node.rhs, bound)
    elif isinstance(node, Forall):
        shadowed = set(node.vars) & bound
        if shadowed:
            raise ValueError(f"quantifier re-binds variables: {sorted(shadowed)}")
        if len(set(node.vars)) != len(node.vars):
            raise ValueError("duplicate variables in one quantifier block")
        validate_formula(A, node.body, bound | set(node.vars))
    elif isinstance(node, Implies):
        validate_formula(A, node.premise, bound)
        validate_formula(A, node.conclusion, bound)
    elif isinstance(node, Iff):
        validate_formula(A, node.lhs, bound)
        validate_formula(A, node.rhs, bound)
    else:
        raise TypeError(f"not a formula node: {node!r}")


def formula_cost(node: Node, n: int) -> int:
    """Upper bound on evaluated assignments (drives the complexity guard)."""
    if isinstance(node, Eq):
        return 1
    if isinstance(node, Forall):
        return (n ** len(node.vars)) * formula_cost(node.body, n)
    if isinstance(node, Implies):
        return formula_cost(node.premise, n) + formula_cost(node.conclusion, n)
    if isinstance(node, Iff):
        return formula_cost(node.lhs, n) + formula_cost(node.rhs, n)
    raise TypeError(f"not a formula node: {node!r}")


# -- slow path: public term evaluation and witness re-evaluation -------------


def eval_term(A: "Algebra", t: Term, env: Mapping[str, int]) -> int:
    """Bottom-up term evaluation through the operation tables."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariable(f"variable {t.name!r} missing from environment") from None
    if isinstance(t, Const):
        return A.constant(t.symbol)
    if isinstance(t, App):
        args = [eval_term(A, a, env) for a in t.args]
        if not A.signature.has(t.symbol):
            raise UnknownSymbol(f"operation {t.symbol!r} not in signature")
        if A.signature.arity(t.symbol) != len(args):
            raise ArityMismatch(f"{t.symbol!r} applied to {len(args)} arguments")
        return A.apply(t.symbol, *args)
    raise TypeError(f"not a term: {t!r}")


def _eval_node(A: "Algebra", node: Node, env: dict[str, int]) -> bool:
    if isinstance(node, Eq):
        return eval_term(A, node.lhs, env) == eval_term(A, node.rhs, env)
    if isinstance(node, Forall):
        for vals in product(range(A.n), repeat=len(node.vars)):
            child = dict(env)
            child.update(zip(node.vars, vals))
            if not _eval_node(A, node.body, child):
                return False
        return True
    if isinstance(node, Implies):
        return (not _eval_node(A, node.premise, env)) or _eval_node(A, node.conclusion, env)
    if isinstance(node, Iff):
        return _eval_node(A, node.lhs, env) == _eval_node(A, node.rhs, env)
    raise TypeError(f"not a formula node: {node!r}")


def evaluate_at(A: "Algebra", f: Formula, env: Mapping[str, int]) -> bool:
    """Evaluate the body of the outer quantifier at one assignment.

    This is the independent re-evaluation path for witnesses: it shares no
    code with the compiled checker.
    """
    if not isinstance(f, Forall):
        raise TypeError("expected a top-level quantified formula")
    missing = set(f.vars) - set(env)
    if missing:
        raise UnboundVariable(f"assignment missing variables: {sorted(missing)}")
    return _eval_node(A, f.body, dict(env))


# -- fast path: compiled checker ----------------------------------------------


def _compile_term(A: "Algebra", t: Term, slots: dict[str, int]) -> Callable[[list], int]:
    if isinstance(t, Var):
        i = slots[t.name]
        return lambda env: env[i]
    if isinstance(t, Const):
        v = A.constant(t.symbol)
        return lambda env: v
    arity = A.signature.arity(t.symbol)
    if arity == 1:
        tab = A.table(t.symbol)
        f0 = _compile_term(A, t.args[0], slots)
        return lambda env: tab[f0(env)]
    tab = A.table(t.symbol)
    f0 = _compile_term(A, t.args[0], slots)
    f1 = _compile_term(A, t.args[1], slots)
    return lambda env: tab[f0(env)][f1(env)]


def _compile_node(
    A: "Algebra", node: Node, slots: dict[str, int], depth: int
) -> Callable[[list], bool]:
    if isinstance(node, Eq):
        lhs = _compile_term(A, node.lhs, slots)
        rhs = _compile_term(A, node.rhs, slots)
        return lambda env: lhs(env) == rhs(env)
    if isinstance(node, Forall):
        inner = dict(slots)
        positions = []
        for v in node.vars:
            inner[v] = depth
            positions.append(depth)
            depth += 1
        body = _compile_node(A, node.body, inner, depth)
        rng = range(A.n)
        k = len(positions)

        def run(env: list) -> bool:
            for vals in product(rng, repeat=k):
                for p, v in zip(positions, vals):
                    env[p] = v
                if not body(env):
                    return False
            return True

        return run
    if isinstance(node, Implies):
        prem = _compile_node(A, node.premise, slots, depth)
        conc = _compile_node(A, node.conclusion, slots, depth)
        return lambda env: (not prem(env)) or conc(env)
    if isinstance(node, Iff):
        lhs = _compile_node(A, node.lhs, slots, depth)
        rhs = _compile_node(A, node.rhs, slots, depth)
        return lambda env: lhs(env) == rhs(env)
    raise TypeError(f"not a formula node: {node!r}")


def _total_depth(node: Node) -> int:
    if isinstance(node, Eq):
        return 0
    if isinstance(node, Forall):
        return len(node.vars) + _total_depth(node.body)
    if isinstance(node, Implies):
        return max(_total_depth(node.premise), _total_depth(node.conclusion))
    if isinstance(node, Iff):
        return max(_total_depth(node.lhs), _total_depth(node.rhs))
    raise TypeError(f"not a formula node: {node!r}")


def check_formula(A: "Algebra", f: Formula, budget: int | None = None) -> Report:
    """Exhaustively check a quantified formula over the algebra.

    Outer assignments are enumerated row-major in the declared variable order,
    so a failing report always carries the lexicographically first
    counterexample.  The assignment-count estimate is compared against the
    budget (``DEFAULT_BUDGET`` when none is given) before any work starts.
    """
    if not isinstance(f, Forall):
        raise TypeError("expected a top-level quantified formula")
    validate_formula(A, f)
    limit = DEFAULT_BUDGET if budget is None else budget
    cost = formula_cost(f, A.n)
    if cost > limit:
        raise BudgetExceeded(f"estimated {cost} assignments exceeds budget {limit}")
    slots = {v: i for i, v in enumerate(f.vars)}
    body = _compile_node(A, f.body, slots, len(f.vars))
    env = [0] * _total_depth(f)
    k = len(f.vars)
    count = 0
    for vals in product(range(A.n), repeat=k):
        env[:k] = vals
        count += 1
        if not body(env):
            return Report(False, dict(zip(f.vars, vals)), count)
    return Report(True, None, count)


# -- directoid and λ-lattice axioms -------------------------------------------


def _axiom_set(sym_meet: str, sym_join: str | None) -> tuple[tuple[str, Formula], ...]:
    x, y, z = Var("x"), Var("y"), Var("z")

    def mk(sym):
        return lambda a, b: App(sym, (a, b))

    m = mk(sym_meet)
    axioms = [
        Forall(("x",), Eq(m(x, x), x)),
        Forall(("x", "y"), Eq(m(x, y), m(y, x))),
        Forall(("x", "y", "z"), Eq(m(x, m(m(x, y), z)), m(m(x, y), z))),
    ]
    if sym_join is None:
        return tuple((render_formula(a), a) for a in axioms)
    j = mk(sym_join)
    axioms = [
        Forall(("x", "y"), Eq(j(x, y), j(y, x))),
        Forall(("x", "y"), Eq(m(x, y), m(y, x))),
        Forall(("x", "y", "z"), Eq(j(x, j(j(x, y), z)), j(j(x, y), z))),
        Forall(("x", "y", "z"), Eq(m(x, m(m(x, y), z)), m(m(x, y), z))),
        Forall(("x", "y"), Eq(m(j(x, y), x), x)),
        Forall(("x", "y"), Eq(j(m(x, y), x), x)),
    ]
    return tuple((render_formula(a), a) for a in axioms)
