"""Directoid and λ-lattice assignments for a poset, and their verification.

:data:`PROFILES` names the six assigned algebras and gives each its
signature; everything else about a profile follows from the name and the
signature.  The profile's poset class is ``pc.canonical_kind(name)``.  The
assignment is a λ-lattice (``⊓`` and ``⊔``) when the signature has ``⊔``,
and a commutative meet directoid otherwise.  The derived operation is the
one non-lattice symbol of arity 1 or 2 (the pseudocomplement ``*``, the
relative pseudocomplement ``*`` or the sectional pseudocomplement ``∘``),
and its table is the class's table from :mod:`pc`.  The constant ``0`` is the
bottom and ``1`` the top.

An assignment fixes ``x⊓y = min(x,y)`` on comparable pairs and an arbitrary
element of the lower cone on incomparable ones (dually for ``⊔``), so the
choice space is the product of the incomparable pairs' cones, and
:class:`ChoiceSpace` numbers its assignments in mixed radix.  Each profile
has the quantified conditions that characterize its poset class
(:func:`conditions_for`), and some have derived identities that must then
follow (:func:`derived_identities_for`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

from . import pc
from .algebra import CIRC, JOIN, MEET, ONE, STAR, ZERO, Algebra, Signature
from .errors import (
    InvalidChoice,
    MissingChoice,
    MissingStructure,
    MissingSymbol,
    NotDirected,
    OrdalgError,
)
from .poset import Poset, bits, extremes
from .terms import (
    App,
    Const,
    Eq,
    Forall,
    Formula,
    Iff,
    Implies,
    Report,
    Var,
    check_formula,
)

Choice = dict[tuple[int, int], int]

AUDIT_BUDGET = 10_000  # assignments an audit checks before it samples

PROFILES: dict[str, Signature] = {
    "pc": Signature(((MEET, 2), (STAR, 1), (ZERO, 0))),
    "stone": Signature(((JOIN, 2), (MEET, 2), (STAR, 1), (ZERO, 0))),
    "rpc": Signature(((MEET, 2), (STAR, 2), (ONE, 0))),
    "spc": Signature(((JOIN, 2), (MEET, 2), (CIRC, 2))),
    "spc1": Signature(((JOIN, 2), (MEET, 2), (CIRC, 2), (ONE, 0))),
    "sspc": Signature(((JOIN, 2), (MEET, 2), (CIRC, 2), (ONE, 0))),
}


def _signature(profile: str) -> Signature:
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}") from None


def _choice_kind(profile: str) -> str:
    """``lambda`` when the profile's signature has ``⊔``, else ``meet``."""
    return "lambda" if _signature(profile).has(JOIN, 2) else "meet"


# -- choices -------------------------------------------------------------------


def incomparable_pairs(P: Poset) -> list[tuple[int, int]]:
    return [
        (x, y)
        for x in range(P.n)
        for y in range(x + 1, P.n)
        if not P.comparable(x, y)
    ]


class ChoiceSpace:
    """The cone choices for the incomparable pairs, as one mixed-radix space.

    ``kind`` is ``meet``, ``join`` or ``lambda``.  An assignment is an index
    in ``range(count)`` whose digits pick one cone element per pair: the meet
    pairs come first, then the join pairs, and the last pair varies fastest.
    ``decode`` maps an index to a choice dict (a ``(meet, join)`` pair of
    dicts for λ), and iteration decodes every index in turn, which is
    lexicographic order with meet varying slowest.  Construction raises
    :class:`NotDirected` with the first failing pair when some required cone
    is empty.
    """

    def __init__(self, P: Poset, kind: str):
        if kind not in ("meet", "join", "lambda"):
            raise ValueError("kind must be 'meet', 'join' or 'lambda'")
        self.P = P
        self.kind = kind
        self.pairs = incomparable_pairs(P)
        self.meet_options: list[tuple[int, ...]] = []
        self.join_options: list[tuple[int, ...]] = []
        for x, y in self.pairs:
            if kind in ("meet", "lambda"):
                cone = P.down[x] & P.down[y]
                if cone == 0:
                    raise NotDirected(
                        f"not down-directed: L({P.labels[x]},{P.labels[y]}) is empty",
                        (P.labels[x], P.labels[y]),
                    )
                self.meet_options.append(tuple(bits(cone)))
            if kind in ("join", "lambda"):
                cone = P.up[x] & P.up[y]
                if cone == 0:
                    raise NotDirected(
                        f"not up-directed: U({P.labels[x]},{P.labels[y]}) is empty",
                        (P.labels[x], P.labels[y]),
                    )
                self.join_options.append(tuple(bits(cone)))
        self.count = math.prod(map(len, self.meet_options + self.join_options))

    def decode(self, index: int) -> Choice | tuple[Choice, Choice]:
        """The assignment at ``index``, read as mixed-radix digits."""
        if not 0 <= index < self.count:
            raise IndexError(f"assignment {index} outside range({self.count})")
        values = []
        for options in reversed(self.meet_options + self.join_options):
            index, digit = divmod(index, len(options))
            values.append(options[digit])
        values.reverse()
        k = len(self.meet_options)
        meet, join = dict(zip(self.pairs, values[:k])), dict(zip(self.pairs, values[k:]))
        if self.kind == "lambda":
            return meet, join
        return meet if self.kind == "meet" else join

    def __iter__(self):
        return map(self.decode, range(self.count))


# Kept as a module-level function that the audit calls, so that
# perfbench/trace_job.py can wrap it and count the choices the audit walks.
def enumerate_choices(P: Poset, kind: str) -> ChoiceSpace:
    return ChoiceSpace(P, kind)


def canonical_choice(P: Poset, kind: str) -> Choice:
    """Smallest-index cone element for every incomparable pair."""
    return ChoiceSpace(P, kind).decode(0)


def _normalize_choice(P: Poset, kind: str, choice: Choice | None) -> Choice:
    if choice is None:
        return canonical_choice(P, kind)
    out: Choice = {}
    for (x, y), v in choice.items():
        if P.comparable(x, y):
            raise InvalidChoice(
                f"{P.labels[x]},{P.labels[y]} are comparable; their {kind} is forced"
            )
        key = (x, y) if x < y else (y, x)
        cone = P.down[x] & P.down[y] if kind == "meet" else P.up[x] & P.up[y]
        if not (cone >> v) & 1:
            raise InvalidChoice(
                f"{P.labels[v]} is outside the {kind} cone of "
                f"{{{P.labels[x]},{P.labels[y]}}}"
            )
        out[key] = v
    for x, y in incomparable_pairs(P):
        if (x, y) not in out:
            raise MissingChoice(
                f"no {kind} choice for incomparable pair {{{P.labels[x]},{P.labels[y]}}}"
            )
    return out


def table_from_choice(P: Poset, choice: Choice, kind: str) -> tuple[tuple[int, ...], ...]:
    """The ``meet`` or ``join`` table: forced on comparable pairs, chosen elsewhere."""
    n = P.n
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            if P.leq(x, y):
                v = x if kind == "meet" else y
            elif P.leq(y, x):
                v = y if kind == "meet" else x
            else:
                v = choice[(x, y)]
            rows[x][y] = rows[y][x] = v
    return tuple(tuple(r) for r in rows)


# -- assigned algebras -----------------------------------------------------------


def _constant_values(P: Poset, profile: str, best_effort: bool) -> dict[str, int]:
    """``0`` is the bottom and ``1`` the top; with ``best_effort`` a missing
    one is the first minimal or maximal element instead."""
    bottom, top = extremes(P)
    values: dict[str, int] = {}
    for sym, arity in _signature(profile).symbols:
        if arity:
            continue
        role, v = ("bottom", bottom) if sym == ZERO else ("top", top)
        if v is None:
            if not best_effort:
                raise MissingStructure(f"poset has no {role} element for constant {sym}")
            if role == "top":
                v = min(x for x in range(P.n) if P.up[x] == 1 << x)
            else:
                v = min(x for x in range(P.n) if P.down[x] == 1 << x)
        values[sym] = v
    return values


def _build(P: Poset, profile: str, choice, op_table, constants: dict[str, int]) -> Algebra:
    """The profile's algebra from one complete, already validated choice: a
    meet choice, or a ``(meet, join)`` pair for a λ-profile."""
    meet, join = choice if _choice_kind(profile) == "lambda" else (choice, None)
    ops = []
    for sym, arity in PROFILES[profile].symbols:
        if sym == MEET:
            ops.append((MEET, 2, table_from_choice(P, meet, "meet")))
        elif sym == JOIN:
            ops.append((JOIN, 2, table_from_choice(P, join, "join")))
        elif arity:
            ops.append((sym, arity, op_table))
        else:
            ops.append((sym, 0, constants[sym]))
    return Algebra(P.labels, ops)


def assign_algebra(
    P: Poset,
    profile: str,
    meet: Choice | None = None,
    join: Choice | None = None,
) -> Algebra:
    """Assigned algebra for the profile; canonical choices when none given.

    Raises :class:`MissingStructure` when the poset is not in the profile's
    class (the derived operation would be partial) and :class:`NotDirected`
    when the required directoid does not exist.
    """
    kind = _choice_kind(profile)
    table = _class_table(P, profile)
    join = _normalize_choice(P, "join", join) if kind == "lambda" else None
    meet = _normalize_choice(P, "meet", meet)
    choice = (meet, join) if kind == "lambda" else meet
    return _build(P, profile, choice, table, _constant_values(P, profile, False))


def enumerate_assignments(P: Poset, profile: str) -> tuple[ChoiceSpace, Iterator[Algebra]]:
    """The profile's choice space, and lazily the assigned algebra of each of
    its choices in index order.

    The space raises :class:`NotDirected` at once.  The poset is classified
    once, when the first algebra is drawn, and raises as in
    :func:`assign_algebra`; the space's own choices need no validation.
    """
    space = enumerate_choices(P, _choice_kind(profile))

    def algebras() -> Iterator[Algebra]:
        table = _class_table(P, profile)
        constants = _constant_values(P, profile, False)
        for choice in space:
            yield _build(P, profile, choice, table, constants)

    return space, algebras()


def _class_table(P: Poset, profile: str):
    """The profile's derived operation table; :class:`MissingStructure` when
    the poset is not in the profile's class."""
    cls = pc.classify(P, profile)
    if not cls.holds:
        raise MissingStructure(f"poset is not {cls.kind}: witness {cls.witness!r}")
    return cls.table


def cone_via_directoid(A: Algebra, a: int, b: int, kind: str = "meet") -> frozenset[int]:
    """Cone of {a,b} recovered from the directoid: {(a op x) op (b op x) | x}."""
    sym = MEET if kind == "meet" else JOIN
    t = A.table(sym)
    return frozenset(t[t[a][x]][t[b][x]] for x in range(A.n))


# -- characterizing conditions ---------------------------------------------------


def _m(a, b):
    return App(MEET, (a, b))


def _j(a, b):
    return App(JOIN, (a, b))


def conditions_for(profile: str) -> tuple[tuple[str, Formula], ...]:
    """The quantified conditions equivalent to membership in the profile's class."""
    _signature(profile)  # rejects an unknown name
    x, y, z, s, t = Var("x"), Var("y"), Var("z"), Var("s"), Var("t")

    if profile in ("pc", "stone"):
        zero = Const(ZERO)
        star = lambda a: App(STAR, (a,))
        conds = [
            ("i", Forall(("x",), Eq(_m(zero, x), zero))),
            ("ii", Forall(("x", "y"), Eq(_m(_m(x, y), _m(star(x), y)), zero))),
            (
                "iii",
                Forall(
                    ("x", "y"),
                    Implies(
                        Forall(("z",), Eq(_m(_m(x, z), _m(y, z)), zero)),
                        Eq(_m(y, star(x)), y),
                    ),
                ),
            ),
        ]
        if profile == "stone":
            conds.append(
                (
                    "iv",
                    Forall(
                        ("x", "y"),
                        Eq(_j(_j(star(x), y), _j(star(star(x)), y)), star(zero)),
                    ),
                )
            )
        return tuple(conds)

    if profile == "rpc":
        one = Const(ONE)
        r = lambda a, b: App(STAR, (a, b))
        inner = _m(_m(x, z), _m(r(x, y), z))
        return (
            ("i", Forall(("x",), Eq(_m(x, one), x))),
            ("ii", Forall(("x", "y", "z"), Eq(_m(inner, y), inner))),
            (
                "iii",
                Forall(
                    ("x", "y", "z"),
                    Implies(
                        Forall(
                            ("t",),
                            Eq(_m(_m(_m(x, t), _m(z, t)), y), _m(_m(x, t), _m(z, t))),
                        ),
                        Eq(_m(z, r(x, y)), z),
                    ),
                ),
            ),
        )

    # sectional profiles
    c = lambda a, b: App(CIRC, (a, b))
    join_block = lambda v: _j(_j(x, v), _j(y, v))  # ranges over U(x,y) as v runs
    conds = [
        ("i", Forall(("x", "y"), Eq(_m(y, c(x, y)), y))),
        (
            "ii",
            Forall(
                ("x", "y", "z"),
                Implies(
                    Forall(
                        ("t",),
                        Eq(_m(_m(join_block(t), z), _m(c(x, y), z)), z),
                    ),
                    Eq(_m(z, y), z),
                ),
            ),
        ),
        (
            "iii",
            Forall(
                ("x", "y", "z"),
                Implies(
                    Forall(
                        ("s",),
                        Iff(
                            Forall(
                                ("t",),
                                Eq(_m(_m(join_block(t), s), _m(z, s)), s),
                            ),
                            Eq(_m(s, y), s),
                        ),
                    ),
                    Eq(_m(z, c(x, y)), z),
                ),
            ),
        ),
    ]
    if profile in ("spc1", "sspc"):
        one = Const(ONE)
        conds.append(("iv", Forall(("x",), Eq(_m(x, one), x))))
    if profile == "sspc":
        conds.append(("v", Forall(("x", "y"), Eq(_m(x, c(c(x, y), y)), x))))
    return tuple(conds)


def verify_assigned_conditions(A: Algebra, profile: str) -> dict[str, Report]:
    """Run every characterizing condition of the profile against the algebra."""
    for sym, arity in _signature(profile).symbols:
        if not A.signature.has(sym, arity):
            raise MissingSymbol(f"algebra lacks {sym!r}/{arity} required by {profile}")
    return {name: check_formula(A, formula) for name, formula in conditions_for(profile)}


def derived_identities_for(profile: str) -> tuple[tuple[str, Formula], ...]:
    _signature(profile)  # rejects an unknown name
    x, y = Var("x"), Var("y")
    one = Const(ONE)
    if profile == "rpc":
        r = lambda a, b: App(STAR, (a, b))
        return (
            ("a", Forall(("x",), Eq(r(x, x), one))),
            ("b", Forall(("x",), Eq(r(one, x), x))),
            ("c", Forall(("x", "y"), Eq(_m(x, r(r(x, y), y)), x))),
        )
    if profile in ("spc1", "sspc"):
        c = lambda a, b: App(CIRC, (a, b))
        return (
            ("a", Forall(("x",), Eq(c(x, x), one))),
            ("b", Forall(("x",), Eq(c(one, x), x))),
        )
    raise MissingSymbol(f"profile {profile!r} has no derived identity set")


def verify_derived_identities(A: Algebra, profile: str) -> dict[str, Report]:
    return {name: check_formula(A, f) for name, f in derived_identities_for(profile)}


# -- theorem equivalence audit ------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    """Comparison of the order-level classification against the algebra-level
    condition verdict across enumerated assignments."""

    profile: str
    poset_holds: bool
    assignments_total: int
    assignments_checked: int
    sampled: bool
    divergences: tuple
    note: str = ""

    @property
    def holds(self) -> bool:
        return not self.divergences


def _sample_indices(rng: random.Random, total: int, budget: int) -> list[int]:
    """``budget`` distinct indices from ``range(total)``, sorted, in O(budget).

    Floyd's algorithm (Bentley, "Programming Pearls: A sample of
    brilliance", CACM 30, 1987): for each j in the last ``budget`` values of
    the range, draw t from ``range(j + 1)`` and keep t, or j when t is
    already kept.  Every ``budget``-subset is equally likely, and ``total``
    may exceed ``sys.maxsize``, which ``random.sample`` cannot take.
    """
    chosen: set[int] = set()
    for j in range(total - budget, total):
        t = rng.randrange(j + 1)
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def theorem_equivalence_audit(
    P: Poset,
    profile: str,
    budget: int = AUDIT_BUDGET,
    seed: int = 20210,
) -> AuditReport:
    """Audit the iff between poset classification and the assigned conditions.

    When the class holds, the derived operation is the computed one and every
    assignment must satisfy all conditions; when it fails, a best-effort table
    (greatest-or-first-maximal entries, same for constants) must violate some
    condition on every assignment.  An assignment's verdict stops at its
    first failing condition.  Non-directed posets admit no assignment and
    pass vacuously.  A space of at most ``budget`` assignments is checked
    whole; a larger one is sampled: exactly ``budget`` distinct indices drawn
    by :func:`_sample_indices` from ``random.Random(seed)``, decoded and
    checked in increasing order, so spaces of any size work.  A budget below
    1 raises :class:`OrdalgError`.
    """
    if budget < 1:
        raise OrdalgError(f"audit budget must be at least 1, got {budget}")
    kind = _choice_kind(profile)
    cls = pc.classify(P, profile)
    try:
        space = enumerate_choices(P, kind)
    except NotDirected as e:
        return AuditReport(profile, cls.holds, 0, 0, False, (), f"no assignments exist: {e}")

    table = cls.table if cls.holds else pc.best_effort_table(P, profile)
    constants = _constant_values(P, profile, best_effort=not cls.holds)
    conditions = [formula for _, formula in conditions_for(profile)]
    total = space.count
    sampled = total > budget
    choices = space
    if sampled:
        choices = map(space.decode, _sample_indices(random.Random(seed), total, budget))
    checked = 0
    divergences = []
    for choice in choices:
        A = _build(P, profile, choice, table, constants)
        verdict = all(check_formula(A, f).holds for f in conditions)
        checked += 1
        if verdict != cls.holds:
            divergences.append({"choice": choice, "algebra_verdict": verdict})
    return AuditReport(
        profile,
        cls.holds,
        total,
        checked,
        sampled,
        tuple(divergences),
        "" if not sampled else f"sampled {budget} of {total} assignments",
    )
