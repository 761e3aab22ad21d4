"""Terms, quantified formulas, and the exhaustive model checker.

The formula language is deliberately a small fixed AST rather than a general
first-order parser: universally quantified equations, implications whose
premise is itself a quantified block, and the one biconditional-premise shape
needed for the nested sectional characterization.  That keeps the checker
total and auditable.

:func:`check_formula` makes one walk over the formula: :func:`_compile_node`
rejects what cannot be evaluated (unbound or re-bound variables, symbols
outside the signature, wrong arities) as it builds the closures, and returns
their cost bound and slot count with them.  Every quantifier, the outer one
included, runs as a compiled loop over consecutive slots of one list.
:func:`evaluate_at` is a plain recursive interpreter over name-keyed
environments that shares no code with the compiler; it is the independent
oracle that re-validates reported witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Callable, Mapping

from .errors import ArityMismatch, BudgetExceeded, UnboundVariable, UnknownSymbol

if TYPE_CHECKING:  # pragma: no cover
    from .algebra import Algebra

BUDGET = 10**9  # assignments one check may evaluate


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
    """A closure evaluating ``t`` on the slot list; raises on an unbound
    variable, a symbol outside the signature or a wrong arity."""
    if isinstance(t, Var):
        if t.name not in slots:
            raise UnboundVariable(f"variable {t.name!r} is not bound by a quantifier")
        i = slots[t.name]
        return lambda env: env[i]
    if isinstance(t, Const):
        if not A.signature.has(t.symbol, 0):
            raise UnknownSymbol(f"constant {t.symbol!r} not in signature")
        v = A.constant(t.symbol)
        return lambda env: v
    if not isinstance(t, App):
        raise TypeError(f"not a term: {t!r}")
    if not A.signature.has(t.symbol):
        raise UnknownSymbol(f"operation {t.symbol!r} not in signature")
    arity = A.signature.arity(t.symbol)
    if arity != len(t.args):
        raise ArityMismatch(f"{t.symbol!r} has arity {arity}, applied to {len(t.args)}")
    args = [_compile_term(A, a, slots) for a in t.args]
    tab = A.table(t.symbol)
    if arity == 0:
        return lambda env: tab
    if arity == 1:
        f0 = args[0]
        return lambda env: tab[f0(env)]
    f0, f1 = args
    return lambda env: tab[f0(env)][f1(env)]


def _compile_node(
    A: "Algebra", node: Node, slots: dict[str, int]
) -> tuple[Callable[[list], bool], int, int]:
    """``(closure, cost, size)`` for ``node`` with ``slots`` mapping the bound
    variables to their positions ``0 .. len(slots) - 1`` in the slot list.

    ``cost`` bounds the assignments the closure evaluates and ``size`` is the
    length of slot list it needs.  A quantifier's variables take the next
    consecutive slots; when it fails, they keep the first failing values.
    """
    if isinstance(node, Eq):
        lhs = _compile_term(A, node.lhs, slots)
        rhs = _compile_term(A, node.rhs, slots)
        return (lambda env: lhs(env) == rhs(env)), 1, len(slots)
    if isinstance(node, Forall):
        shadowed = set(node.vars) & slots.keys()
        if shadowed:
            raise ValueError(f"quantifier re-binds variables: {sorted(shadowed)}")
        if len(set(node.vars)) != len(node.vars):
            raise ValueError("duplicate variables in one quantifier block")
        lo, k = len(slots), len(node.vars)
        hi = lo + k
        inner = dict(slots)
        inner.update(zip(node.vars, range(lo, hi)))
        body, cost, size = _compile_node(A, node.body, inner)
        rng = range(A.n)

        def run(env: list) -> bool:
            for vals in product(rng, repeat=k):
                env[lo:hi] = vals
                if not body(env):
                    return False
            return True

        return run, A.n**k * cost, size
    if isinstance(node, Implies):
        prem, pc, ps = _compile_node(A, node.premise, slots)
        conc, cc, cs = _compile_node(A, node.conclusion, slots)
        return (lambda env: (not prem(env)) or conc(env)), pc + cc, max(ps, cs)
    if isinstance(node, Iff):
        lhs, lc, ls = _compile_node(A, node.lhs, slots)
        rhs, rc, rs = _compile_node(A, node.rhs, slots)
        return (lambda env: lhs(env) == rhs(env)), lc + rc, max(ls, rs)
    raise TypeError(f"not a formula node: {node!r}")


def check_formula(A: "Algebra", f: Formula) -> Report:
    """Exhaustively check a quantified formula over the algebra.

    The outer quantifier runs like any other: its assignments are enumerated
    row-major in the declared variable order, so a failing report carries the
    lexicographically first counterexample, read from the outer slots, and
    counts the assignments up to it.  The cost bound is compared with
    ``BUDGET`` before any evaluation.
    """
    if not isinstance(f, Forall):
        raise TypeError("expected a top-level quantified formula")
    run, cost, size = _compile_node(A, f, {})
    if cost > BUDGET:
        raise BudgetExceeded(f"estimated {cost} assignments exceeds budget {BUDGET}")
    env = [0] * size
    k = len(f.vars)
    if run(env):
        return Report(True, None, A.n**k)
    witness = env[:k]
    index = 0
    for v in witness:
        index = index * A.n + v
    return Report(False, dict(zip(f.vars, witness)), index + 1)


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
