"""Finite algebras as total operation tables over an indexed carrier, and
the cone choices that turn a poset into a ⊓ or ⊔ table.

:func:`induced_order` reads the order back from a ⊓ or ⊔ table, and
:func:`table_from_choice` is its inverse.  A table fixes ``x⊓y = min(x,y)``
on comparable pairs and an arbitrary element of the lower cone on
incomparable ones (dually for ``⊔``), so the choice space is the product of
the incomparable pairs' cones, and :class:`ChoiceSpace` numbers its
assignments in mixed radix.  Index 0 is the canonical choice: the
smallest-index cone element for every pair.  :data:`PROFILES` names the six
assigned algebras of :mod:`assign` and gives each its signature.

A table of arity k is a k-fold nested sequence read one argument at a time,
``t[a1]...[ak]``, so a constant is its own entry.  :func:`product_table`
pairs two factors' tables into their product's, and :func:`reindex_table`
maps a table's arguments and values; with them products, quotients and JSON
need no case per arity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidChoice, MissingSymbol, NotDirected, UnknownLabel, UnknownSymbol
from .poset import Poset, bits

# Canonical operation symbols used throughout the package.
MEET = "⊓"
JOIN = "⊔"
STAR = "*"
CIRC = "∘"
ZERO = "0"
ONE = "1"


@dataclass(frozen=True)
class Signature:
    """Operation symbols with arities 0, 1 or 2; names are unique."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [s for s, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol in signature")
        for s, a in self.symbols:
            if a not in (0, 1, 2):
                raise ValueError(f"unsupported arity {a} for {s!r}")

    def arity(self, name: str) -> int:
        for s, a in self.symbols:
            if s == name:
                return a
        raise UnknownSymbol(f"unknown operation symbol {name!r}")

    def has(self, name: str, arity: int | None = None) -> bool:
        return any(s == name and (arity is None or a == arity) for s, a in self.symbols)


def _freeze_table(name: str, arity: int, table, n: int):
    if arity == 0:
        v = int(table)
        if not 0 <= v < n:
            raise ValueError(f"constant {name!r} out of range")
        return v
    if arity == 1:
        row = tuple(int(v) for v in table)
        if len(row) != n or any(not 0 <= v < n for v in row):
            raise ValueError(f"unary table for {name!r} is not total over the carrier")
        return row
    rows = tuple(tuple(int(v) for v in row) for row in table)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"binary table for {name!r} is not an n x n table")
    if any(not 0 <= v < n for r in rows for v in r):
        raise ValueError(f"binary table for {name!r} has out-of-range entries")
    return rows


class Algebra:
    """Immutable finite algebra: labelled carrier plus one table per symbol."""

    __slots__ = ("labels", "signature", "tables", "n", "_index", "_table")

    def __init__(self, labels: Iterable[str], ops: Iterable[tuple[str, int, object]]):
        labels = tuple(labels)
        n = len(labels)
        if n == 0:
            raise ValueError("an algebra needs a nonempty carrier")
        ops = tuple(ops)
        sig = Signature(tuple((name, arity) for name, arity, _ in ops))
        tables = tuple(_freeze_table(name, arity, table, n) for name, arity, table in ops)
        self.labels = labels
        self.n = n
        self.signature = sig
        self.tables = tables
        self._index = {l: i for i, l in enumerate(labels)}
        self._table = {name: t for (name, _, _), t in zip(ops, tables)}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Algebra)
            and self.labels == other.labels
            and self.signature == other.signature
            and self.tables == other.tables
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.signature, self.tables))

    def __repr__(self) -> str:
        ops = ", ".join(f"{s}/{a}" for s, a in self.signature.symbols)
        return f"Algebra({self.n}: {ops})"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"unknown label {label!r}") from None

    def table(self, name: str):
        try:
            return self._table[name]
        except KeyError:
            raise UnknownSymbol(f"unknown operation symbol {name!r}") from None

    def constant(self, name: str) -> int:
        if self.signature.arity(name) != 0:
            raise UnknownSymbol(f"{name!r} is not a constant")
        return self._table[name]

    def apply(self, name: str, *args: int) -> int:
        t = self.table(name)
        arity = self.signature.arity(name)
        if len(args) != arity:
            raise ValueError(f"{name!r} expects {arity} arguments, got {len(args)}")
        for a in args:
            t = t[a]
        return t

    def to_json(self) -> dict:
        every = range(self.n)
        return {
            "labels": list(self.labels),
            "operations": [
                {"symbol": name, "arity": arity, "table": reindex_table(table, arity, every, every)}
                for (name, arity), table in zip(self.signature.symbols, self.tables)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Algebra":
        return cls(
            data["labels"],
            [(o["symbol"], o["arity"], o["table"]) for o in data["operations"]],
        )


def product_table(t1, t2, arity: int, n2: int):
    """The product's table, (i, j) numbered i·n2 + j: its entry at
    ((i1, j1), ..., (ik, jk)) pairs ``t1[i1]...[ik]`` with ``t2[j1]...[jk]``."""
    if arity == 0:
        return t1 * n2 + t2
    return [product_table(r1, r2, arity - 1, n2) for r1 in t1 for r2 in t2]


def reindex_table(t, arity: int, args: Sequence[int], values: Sequence[int]):
    """Nested lists whose entry at (a1, ..., ak) is ``values[t[args[a1]]...[args[ak]]]``."""
    if arity == 0:
        return values[t]
    return [reindex_table(t[a], arity - 1, args, values) for a in args]


def induced_order(A: Algebra, kind: str = "meet") -> Poset:
    """Order defined by the meet (x<=y iff x⊓y=x) or join (x<=y iff x⊔y=y) table.

    Raises :class:`NotAPartialOrder` when the table does not induce one, which
    signals that the table fails the directoid laws.
    """
    if kind not in ("meet", "join"):
        raise ValueError("kind must be 'meet' or 'join'")
    sym = MEET if kind == "meet" else JOIN
    if not A.signature.has(sym, 2):
        raise MissingSymbol(f"algebra has no binary {sym}")
    t = A.table(sym)
    n = A.n
    down = [0] * n
    for x in range(n):
        for y in range(n):
            if (t[x][y] == x) if kind == "meet" else (t[x][y] == y):
                down[y] |= 1 << x
    return Poset(A.labels, down)


# the six profiles of ``assign``, each with the signature of its algebra
PROFILES: dict[str, Signature] = {
    "pc": Signature(((MEET, 2), (STAR, 1), (ZERO, 0))),
    "stone": Signature(((JOIN, 2), (MEET, 2), (STAR, 1), (ZERO, 0))),
    "rpc": Signature(((MEET, 2), (STAR, 2), (ONE, 0))),
    "spc": Signature(((JOIN, 2), (MEET, 2), (CIRC, 2))),
    "spc1": Signature(((JOIN, 2), (MEET, 2), (CIRC, 2), (ONE, 0))),
    "sspc": Signature(((JOIN, 2), (MEET, 2), (CIRC, 2), (ONE, 0))),
}


# -- cone choices ----------------------------------------------------------------

Choice = dict[tuple[int, int], int]


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


def _override_choice(P: Poset, kind: str, overrides: Choice | None) -> Choice:
    """The canonical ``kind`` choice with ``overrides`` laid over it.

    Raises :class:`NotDirected` when a ``kind`` cone is empty and
    :class:`InvalidChoice` for an override on a comparable pair or outside
    its pair's cone.
    """
    out = canonical_choice(P, kind)
    for (x, y), v in (overrides or {}).items():
        if P.comparable(x, y):
            raise InvalidChoice(
                f"{P.labels[x]},{P.labels[y]} are comparable; their {kind} is forced"
            )
        cone = P.down[x] & P.down[y] if kind == "meet" else P.up[x] & P.up[y]
        if not (cone >> v) & 1:
            raise InvalidChoice(
                f"{P.labels[v]} is outside the {kind} cone of "
                f"{{{P.labels[x]},{P.labels[y]}}}"
            )
        out[(x, y) if x < y else (y, x)] = v
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
