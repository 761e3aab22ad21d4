"""Directoid and λ-lattice assignments for a poset, and their verification.

:data:`~ordalg.algebra.PROFILES` names the six assigned algebras and gives
each its signature; everything else about a profile follows from the name
and the signature.  The profile's poset class is ``pc.canonical_kind(name)``.
The assignment is a λ-lattice (``⊓`` and ``⊔``) when the signature has
``⊔``, and a commutative meet directoid otherwise.  The derived operation is
the one non-lattice symbol of arity 1 or 2 (the pseudocomplement ``*``, the
relative pseudocomplement ``*`` or the sectional pseudocomplement ``∘``),
and its table is the class's table from :mod:`pc`.  The constant ``0`` is the
bottom and ``1`` the top.

The cone choices behind the ``⊓`` and ``⊔`` tables (:class:`ChoiceSpace`,
:func:`table_from_choice` and the override rule) live in :mod:`algebra`,
beside :func:`~ordalg.algebra.induced_order`, their inverse.  A choice given
to :func:`assign_algebra` (or by ``--choice`` or a DSL ``choice`` line)
overrides the canonical one on the pairs it names, and every other
incomparable pair takes the canonical element.  Each profile has the
quantified conditions that characterize its poset class
(:func:`conditions_for`), and some have derived identities that must then
follow (:func:`derived_identities_for`).  The axioms of
commutative meet and join directoids and of λ-lattices, which every
assignment satisfies, are checked by :func:`verify_axioms`.  Each of these
formula sets is a table of the text :func:`~ordalg.terms.render_formula`
prints, read by :func:`~ordalg.terms.parse_formula` once per process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Iterator

from . import pc
from .algebra import (
    JOIN,
    MEET,
    PROFILES,
    ZERO,
    Algebra,
    Choice,
    ChoiceSpace,
    Signature,
    _override_choice,
    enumerate_choices,
    table_from_choice,
)
from .errors import (
    InvalidChoice,
    MissingStructure,
    MissingSymbol,
    NotDirected,
    OrdalgError,
)
from .poset import Poset, extremes
from .terms import Formula, Report, check_formula, parse_formula

AUDIT_BUDGET = 10_000  # assignments an audit checks before it samples
AUDIT_SEED = 20210  # seeds the audit's sample, so every run checks the same assignments


def _signature(profile: str) -> Signature:
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}") from None


def _choice_kind(profile: str) -> str:
    """``lambda`` when the profile's signature has ``⊔``, else ``meet``."""
    return "lambda" if _signature(profile).has(JOIN, 2) else "meet"


# -- assigned algebras -----------------------------------------------------------


def _constant_values(P: Poset, profile: str) -> dict[str, int]:
    """``0`` is the bottom and ``1`` the top, or the first maximal element
    when there is none.

    Only an rpc audit outside the class meets a missing one.  A profile
    with ``0`` needs meet choices, which a finite poset has only when it has
    a bottom; spc1 and sspc need join choices, hence a top; and an rpc poset
    in its class has a top, x*x.
    """
    bottom, top = extremes(P)
    if top is None:
        top = P.maximal_of(P.full)[0]
    symbols = _signature(profile).symbols
    return {sym: bottom if sym == ZERO else top for sym, arity in symbols if not arity}


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
    """The profile's assigned algebra.

    ``meet`` and ``join`` override the canonical choice on the pairs they
    name; every other incomparable pair takes the canonical element.  The
    choices are checked before the poset is classified: first a ``join``
    choice on a profile without ``⊔`` (:class:`InvalidChoice`), then the meet
    choice, then the join choice (:class:`NotDirected` when a required cone
    is empty, :class:`InvalidChoice` for a bad override).  Raises
    :class:`MissingStructure` when the poset is not in the profile's class.
    """
    lam = _choice_kind(profile) == "lambda"
    if join and not lam:
        raise InvalidChoice(f"profile {profile} has no ⊔: a join choice does not apply")
    meet = _override_choice(P, "meet", meet)
    choice = (meet, _override_choice(P, "join", join)) if lam else meet
    table = _class_table(P, profile)
    return _build(P, profile, choice, table, _constant_values(P, profile))


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
        constants = _constant_values(P, profile)
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

# in the sectional conditions (x⊔t)⊔(y⊔t) ranges over U(x,y) as t runs
_PC_CONDITIONS = (
    ("i", "∀x: 0⊓x = 0"),
    ("ii", "∀x,y: (x⊓y)⊓(x*⊓y) = 0"),
    ("iii", "∀x,y: [∀z: (x⊓z)⊓(y⊓z) = 0] ⇒ y⊓x* = y"),
)
_SPC_CONDITIONS = (
    ("i", "∀x,y: y⊓(x∘y) = y"),
    ("ii", "∀x,y,z: [∀t: (((x⊔t)⊔(y⊔t))⊓z)⊓((x∘y)⊓z) = z] ⇒ z⊓y = z"),
    ("iii", "∀x,y,z: [∀s: [∀t: (((x⊔t)⊔(y⊔t))⊓s)⊓(z⊓s) = s] ⇔ [s⊓y = s]] ⇒ z⊓(x∘y) = z"),
)
_WITH_1 = ("iv", "∀x: x⊓1 = x")
_CONDITIONS = {
    "pc": _PC_CONDITIONS,
    "stone": (*_PC_CONDITIONS, ("iv", "∀x,y: (x*⊔y)⊔((x*)*⊔y) = 0*")),
    "rpc": (
        ("i", "∀x: x⊓1 = x"),
        ("ii", "∀x,y,z: ((x⊓z)⊓((x*y)⊓z))⊓y = (x⊓z)⊓((x*y)⊓z)"),
        ("iii", "∀x,y,z: [∀t: ((x⊓t)⊓(z⊓t))⊓y = (x⊓t)⊓(z⊓t)] ⇒ z⊓(x*y) = z"),
    ),
    "spc": _SPC_CONDITIONS,
    "spc1": (*_SPC_CONDITIONS, _WITH_1),
    "sspc": (*_SPC_CONDITIONS, _WITH_1, ("v", "∀x,y: x⊓((x∘y)∘y) = x")),
}

_SPC_IDENTITIES = (("a", "∀x: x∘x = 1"), ("b", "∀x: 1∘x = x"))
_DERIVED_IDENTITIES = {
    "rpc": (("a", "∀x: x*x = 1"), ("b", "∀x: 1*x = x"), ("c", "∀x,y: x⊓((x*y)*y) = x")),
    "spc1": _SPC_IDENTITIES,
    "sspc": _SPC_IDENTITIES,
}


def _parsed(named_texts) -> tuple[tuple[str, Formula], ...]:
    return tuple((name, parse_formula(text)) for name, text in named_texts)


@cache
def conditions_for(profile: str) -> tuple[tuple[str, Formula], ...]:
    """The quantified conditions equivalent to membership in the profile's class."""
    _signature(profile)  # rejects an unknown name
    return _parsed(_CONDITIONS[profile])


def verify_assigned_conditions(A: Algebra, profile: str) -> dict[str, Report]:
    """Run every characterizing condition of the profile against the algebra."""
    for sym, arity in _signature(profile).symbols:
        if not A.signature.has(sym, arity):
            raise MissingSymbol(f"algebra lacks {sym!r}/{arity} required by {profile}")
    return {name: check_formula(A, formula) for name, formula in conditions_for(profile)}


@cache
def derived_identities_for(profile: str) -> tuple[tuple[str, Formula], ...]:
    _signature(profile)  # rejects an unknown name
    if profile not in _DERIVED_IDENTITIES:
        raise MissingSymbol(f"profile {profile!r} has no derived identity set")
    return _parsed(_DERIVED_IDENTITIES[profile])


def verify_derived_identities(A: Algebra, profile: str) -> dict[str, Report]:
    return {name: check_formula(A, f) for name, f in derived_identities_for(profile)}


# -- directoid and λ-lattice axioms -------------------------------------------------

# each axiom class: its meet symbol, then its join symbol for a λ-lattice
_AXIOM_CLASSES = {
    "meet_directoid": (MEET,),
    "join_directoid": (JOIN,),
    "lambda_lattice": (MEET, JOIN),
}

# each class's axioms, keyed by its symbols
_AXIOMS = {
    (MEET,): ("∀x: x⊓x = x", "∀x,y: x⊓y = y⊓x", "∀x,y,z: x⊓((x⊓y)⊓z) = (x⊓y)⊓z"),
    (JOIN,): ("∀x: x⊔x = x", "∀x,y: x⊔y = y⊔x", "∀x,y,z: x⊔((x⊔y)⊔z) = (x⊔y)⊔z"),
    (MEET, JOIN): (
        "∀x,y: x⊔y = y⊔x",
        "∀x,y: x⊓y = y⊓x",
        "∀x,y,z: x⊔((x⊔y)⊔z) = (x⊔y)⊔z",
        "∀x,y,z: x⊓((x⊓y)⊓z) = (x⊓y)⊓z",
        "∀x,y: (x⊔y)⊓x = x",
        "∀x,y: (x⊓y)⊔x = x",
    ),
}


@cache
def _axiom_set(sym_meet: str, sym_join: str | None = None) -> tuple[tuple[str, Formula], ...]:
    """The commutative directoid axioms of ``sym_meet``; with ``sym_join``,
    the λ-lattice axioms of the pair.  Each is named by its text."""
    texts = _AXIOMS[(sym_meet,) if sym_join is None else (sym_meet, sym_join)]
    return _parsed((text, text) for text in texts)


def verify_axioms(A: Algebra, cls: str) -> dict[str, Report]:
    """Check the identity set of a directoid / λ-lattice class, one report each."""
    if cls not in _AXIOM_CLASSES:
        raise ValueError(f"unknown axiom class {cls!r}")
    symbols = _AXIOM_CLASSES[cls]
    for sym in symbols:
        if not A.signature.has(sym, 2):
            raise MissingSymbol(f"algebra has no binary {sym}")
    return {name: check_formula(A, f) for name, f in _axiom_set(*symbols)}


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
) -> AuditReport:
    """Audit the iff between poset classification and the assigned conditions.

    When the class holds, the derived operation is the computed one and every
    assignment must satisfy all conditions; when it fails, some condition
    must fail on every assignment.  The table is then the class's table when
    the scan finished (only the class's own check failed), and otherwise the
    best-effort table (greatest-or-first-maximal entries); the constants are
    those of :func:`_constant_values`.  An assignment's verdict stops at its
    first failing condition.  Non-directed posets admit no assignment and
    pass vacuously.  A space of at most ``budget`` assignments is checked
    whole; a larger one is sampled: exactly ``budget`` distinct indices drawn
    by :func:`_sample_indices` from ``random.Random(AUDIT_SEED)``, decoded and
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

    table = cls.table if cls.table is not None else pc.best_effort_table(P, profile)
    constants = _constant_values(P, profile)
    conditions = [formula for _, formula in conditions_for(profile)]
    total = space.count
    sampled = total > budget
    choices = space
    if sampled:
        choices = map(space.decode, _sample_indices(random.Random(AUDIT_SEED), total, budget))
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
