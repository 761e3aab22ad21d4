"""Finite partial orders stored as bitset incidence rows.

Elements are the indices 0..n-1; ``down[x]`` and ``up[x]`` are Python ints
used as bitsets of ``{y : y <= x}`` and ``{y : x <= y}``.  A poset of up to
64 elements therefore keeps one machine word per relation row; larger
carriers still work (ints grow), and :func:`build_poset` caps carriers at
``MAX_CARRIER`` only to guard against accidentally huge inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .errors import (
    CycleDetected,
    DuplicateLabel,
    NotAPartialOrder,
    UnknownLabel,
)

MAX_CARRIER = 64


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure_rows(rows: list[int], n: int) -> list[int]:
    """Reflexive-transitive closure of reachability rows (Warshall on bitsets)."""
    out = [rows[i] | (1 << i) for i in range(n)]
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if out[i] & bit:
                out[i] |= out[k]
    return out


@dataclass(frozen=True)
class DistributivityReport:
    holds: bool
    witness: tuple[int, int, int] | None = None
    equality: str | None = None
    lhs: frozenset[int] | None = None
    rhs: frozenset[int] | None = None


_PRIMARY_EQ = "U(L(x,y),z) = UL(U(x,z),U(y,z))"
_DUAL_EQ = "L(U(x,y),z) = LU(L(x,z),L(y,z))"


class Poset:
    """Immutable finite poset.

    The constructor validates reflexivity, antisymmetry and transitivity and
    raises :class:`NotAPartialOrder` otherwise.  Use :func:`build_poset` to
    construct from labelled order pairs (it takes the closure for you).
    """

    __slots__ = ("n", "labels", "down", "up", "_index")

    def __init__(self, labels: Iterable[str], down: Iterable[int]):
        labels = tuple(labels)
        down = tuple(down)
        n = len(labels)
        if n == 0:
            raise ValueError("a poset needs a nonempty carrier")
        if len(down) != n:
            raise ValueError("labels and relation rows differ in length")
        if len(set(labels)) != n:
            seen: set[str] = set()
            dup = next(l for l in labels if l in seen or seen.add(l))  # type: ignore[func-returns-value]
            raise DuplicateLabel(f"duplicate label {dup!r}")
        full = (1 << n) - 1
        up = [0] * n
        for x in range(n):
            row = down[x]
            if row & ~full:
                raise ValueError(f"relation row of {labels[x]!r} mentions unknown elements")
            if not (row >> x) & 1:
                raise NotAPartialOrder(f"not reflexive at {labels[x]}")
            for y in bits(row):
                up[y] |= 1 << x
        for x in range(n):
            both = down[x] & up[x]
            if both != 1 << x:
                y = next(i for i in bits(both) if i != x)
                raise NotAPartialOrder(
                    f"antisymmetry fails: {labels[x]} <= {labels[y]} <= {labels[x]}"
                )
            acc = 0
            for y in bits(down[x]):
                acc |= down[y]
            if acc != down[x]:
                y = next(i for i in bits(acc & ~down[x]))
                raise NotAPartialOrder(
                    f"transitivity fails below {labels[x]} (missing {labels[y]})"
                )
        self.n = n
        self.labels = labels
        self.down = down
        self.up = tuple(up)
        self._index = {l: i for i, l in enumerate(labels)}

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], down: tuple[int, ...], up: tuple[int, ...]) -> "Poset":
        """A poset from rows that are valid by construction, unchecked.

        The caller vouches that ``labels`` are distinct, that ``down`` is a
        partial order on them and that ``up`` is its transpose; enumeration
        and random sampling build such rows, and their tests compare the
        result with the validating constructor.
        """
        P = object.__new__(cls)
        P.n = len(labels)
        P.labels = labels
        P.down = down
        P.up = up
        P._index = {l: i for i, l in enumerate(labels)}
        return P

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poset)
            and self.labels == other.labels
            and self.down == other.down
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.down))

    def __repr__(self) -> str:
        return f"Poset({self.n}: {', '.join(self.labels)})"

    # -- element access ----------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"unknown label {label!r}") from None

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    # -- order primitives ----------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool((self.up[x] >> y) & 1)

    def comparable(self, x: int, y: int) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def lower_mask(self, mask: int) -> int:
        """Bitset of elements below every member of ``mask``; L(emptyset) = P."""
        out = self.full
        for s in bits(mask):
            out &= self.down[s]
        return out

    def upper_mask(self, mask: int) -> int:
        out = self.full
        for s in bits(mask):
            out &= self.up[s]
        return out

    def maximum_of(self, mask: int) -> int | None:
        """The greatest member of ``mask`` if it has one."""
        for z in bits(mask):
            if mask & ~self.down[z] == 0:
                return z
        return None

    def minimum_of(self, mask: int) -> int | None:
        for z in bits(mask):
            if mask & ~self.up[z] == 0:
                return z
        return None

    def maximal_of(self, mask: int) -> tuple[int, ...]:
        return tuple(z for z in bits(mask) if self.up[z] & mask == 1 << z)

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (x, y) with x < y and nothing strictly between."""
        out = []
        for y in range(self.n):
            for x in bits(self.down[y] & ~(1 << y)):
                if self.down[y] & self.up[x] == (1 << x) | (1 << y):
                    out.append((x, y))
        return out

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "leq": [[self.leq(i, j) for j in range(self.n)] for i in range(self.n)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Poset":
        labels = data["labels"]
        n = len(labels)
        rows = data["leq"]
        down = [0] * n
        for i in range(n):
            for j in range(n):
                if rows[i][j]:
                    down[j] |= 1 << i
        return cls(labels, down)


def build_poset(
    labels: Iterable[str],
    pairs: Iterable[tuple[str, str]],
) -> Poset:
    """Build a poset from order pairs ``a <= b`` (covers or arbitrary pairs).

    The reflexive-transitive closure is always taken; a cycle in the input
    raises :class:`CycleDetected` naming the offending elements.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        seen: set[str] = set()
        dup = next(l for l in labels if l in seen or seen.add(l))  # type: ignore[func-returns-value]
        raise DuplicateLabel(f"duplicate label {dup!r}")
    if len(labels) > MAX_CARRIER:
        raise ValueError(f"carrier size {len(labels)} exceeds {MAX_CARRIER}")
    index = {l: i for i, l in enumerate(labels)}
    n = len(labels)
    up = [0] * n
    for a, b in pairs:
        if a not in index:
            raise UnknownLabel(f"unknown label {a!r} in order pair")
        if b not in index:
            raise UnknownLabel(f"unknown label {b!r} in order pair")
        up[index[a]] |= 1 << index[b]
    up = closure_rows(up, n)
    for x in range(n):
        for y in bits(up[x] & ~(1 << x)):
            if (up[y] >> x) & 1:
                scc = [labels[z] for z in range(n) if (up[x] >> z) & 1 and (up[z] >> x) & 1]
                raise CycleDetected(f"order pairs create a cycle through: {', '.join(scc)}")
    down = [0] * n
    for x in range(n):
        for y in bits(up[x]):
            down[y] |= 1 << x
    return Poset(labels, down)


def extremes(P: Poset) -> tuple[int | None, int | None]:
    """(bottom, top) element indices, each absent when not unique."""
    return P.minimum_of(P.full), P.maximum_of(P.full)


def _distributive_form(P: Poset, dual: bool):
    """One-form exhaustive check; independent cross-check for the other form."""
    n = P.n
    for x, y, z in product(range(n), repeat=3):
        holds, lhs, rhs = _check_triple(P, x, y, z, dual)
        if not holds:
            return False, (x, y, z), lhs, rhs
    return True, None, None, None


def _check_triple(P: Poset, x: int, y: int, z: int, dual: bool):
    zbit = 1 << z
    if not dual:
        lhs = P.upper_mask((P.down[x] & P.down[y]) | zbit)
        rhs = P.upper_mask(P.lower_mask((P.up[x] & P.up[z]) | (P.up[y] & P.up[z])))
    else:
        lhs = P.lower_mask((P.up[x] & P.up[y]) | zbit)
        rhs = P.lower_mask(P.upper_mask((P.down[x] & P.down[z]) | (P.down[y] & P.down[z])))
    return lhs == rhs, lhs, rhs


def is_distributive(P: Poset) -> DistributivityReport:
    """Exhaustive cone-equality distributivity test.

    Both the defining equality U(L(x,y),z) = UL(U(x,z),U(y,z)) and its dual
    are checked at every triple; as universally quantified statements the two
    are equivalent, but the first failing triple can differ between them, so
    the witness reports which equality broke there.  Both equalities are
    symmetric in x and y, so only x < y (as indices) is visited: the first
    failing triple in (x, y, z) order never has x > y, and never x = y,
    where both always hold (U(L(x,x),z) = ↑x ∩ ↑z = UL(U(x,z)) since
    ULU = U, and dually).  The UL and LU closures of each mask are computed
    once per call.
    """
    n = P.n
    down, up = P.down, P.up
    ul: dict[int, int] = {}
    lu: dict[int, int] = {}
    # U(S ∪ {z}) = U(S) ∩ up[z], and U(x,z) ∪ U(y,z) = (up[x] ∪ up[y]) ∩ up[z]
    for x in range(n):
        for y in range(x + 1, n):
            u_lxy = P.upper_mask(down[x] & down[y])
            l_uxy = P.lower_mask(up[x] & up[y])
            u_xy, l_xy = up[x] | up[y], down[x] | down[y]
            for z in range(n):
                lhs = u_lxy & up[z]
                m = u_xy & up[z]
                rhs = ul.get(m)
                if rhs is None:
                    rhs = ul[m] = P.upper_mask(P.lower_mask(m))
                name = _PRIMARY_EQ
                if lhs == rhs:
                    lhs = l_uxy & down[z]
                    m = l_xy & down[z]
                    rhs = lu.get(m)
                    if rhs is None:
                        rhs = lu[m] = P.lower_mask(P.upper_mask(m))
                    name = _DUAL_EQ
                if lhs != rhs:
                    return DistributivityReport(
                        False, (x, y, z), name, frozenset(bits(lhs)), frozenset(bits(rhs))
                    )
    return DistributivityReport(True)


def is_lattice(P: Poset) -> bool:
    """True when every pair has both a meet and a join."""
    for x in range(P.n):
        for y in range(x + 1, P.n):
            if P.maximum_of(P.down[x] & P.down[y]) is None:
                return False
            if P.minimum_of(P.up[x] & P.up[y]) is None:
                return False
    return True
