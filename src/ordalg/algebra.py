"""Finite algebras as total operation tables over an indexed carrier."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import MissingSymbol, UnknownLabel, UnknownSymbol
from .poset import Poset

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

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.symbols)

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
        if arity == 0:
            return t
        if arity == 1:
            return t[args[0]]
        return t[args[0]][args[1]]

    def to_json(self) -> dict:
        out_ops = []
        for (name, arity), table in zip(self.signature.symbols, self.tables):
            entry: dict = {"symbol": name, "arity": arity}
            if arity == 0:
                entry["table"] = table
            elif arity == 1:
                entry["table"] = list(table)
            else:
                entry["table"] = [list(r) for r in table]
            out_ops.append(entry)
        return {"labels": list(self.labels), "operations": out_ops}

    @classmethod
    def from_json(cls, data: dict) -> "Algebra":
        return cls(
            data["labels"],
            [(o["symbol"], o["arity"], o["table"]) for o in data["operations"]],
        )


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

