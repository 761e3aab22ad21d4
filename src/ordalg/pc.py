"""Pseudocomplementation structures computed directly from the order.

Each operation is defined through a "greatest element of a candidate set"
construction: a cell's candidates form a bitset and its entry is
:meth:`Poset.maximum_of` of it.  A set that only has maximal elements —
exactly the point where posets differ from lattices — has no entry, and
classification reports the antichain :meth:`Poset.maximal_of` as the
witness.

Each of the three derived operations (``*``, the relative ``*`` and ``∘``)
is computed by one row-major scan over its cells, :func:`_scan`.  The scan
returns either the whole table or the first absent cell with its maximal
candidates; :func:`classify` and :func:`best_effort_table` both read it, so
no cell is computed twice.  A class's table is ``classify(P, kind).table``.
Every sectional candidate z of (x, y) lies above y, because y is in
L(U(x,y)), so the sectional scan looks at ↑y only.

Diagonal fallback: on a poset without enough upper structure the sectional
candidate set {z : z >= x} of a diagonal pair (x, x) can lack a maximum.
The entry then falls back to x itself, the least candidate (the bundled
topless fixture fig4 needs this), and classification lists those x in its
note.  The fallback never fires on a poset with a top.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Callable

from .errors import NoBottom
from .poset import Poset, bits, extremes, is_distributive

if TYPE_CHECKING:
    from .terms import Report

# each class: its short name and the operation its table is built on
_CLASSES = {
    "pseudocomplemented": ("pc", "pc"),
    "stone": ("stone", "pc"),
    "relatively_pc": ("rpc", "rpc"),
    "sectionally_pc": ("spc", "spc"),
    "sectionally_pc_with_1": ("spc1", "spc"),
    "strongly_sectionally_pc": ("sspc", "spc"),
}

KINDS = tuple(_CLASSES)

_ALIASES = {alias: kind for kind, (alias, _) in _CLASSES.items() if alias != kind}


def canonical_kind(kind: str) -> str:
    kind = _ALIASES.get(kind, kind)
    if kind not in KINDS:
        raise ValueError(f"unknown classification kind {kind!r}")
    return kind


@dataclass(frozen=True)
class PcClassification:
    kind: str
    holds: bool
    applicable: bool = True
    table: tuple | None = None
    witness: dict | None = None
    note: str = ""


# -- the three derived operations ---------------------------------------------


def _pc_candidates(P: Poset, x: int, bottom: int) -> int:
    """The y with L(x,y) = {0}."""
    zero = 1 << bottom
    cand = 0
    for y in range(P.n):
        if P.down[x] & P.down[y] == zero:
            cand |= 1 << y
    return cand


def _rpc_candidates(P: Poset, x: int, y: int) -> int:
    """The z with L(x,z) ⊆ L(y)."""
    cand = 0
    for z in range(P.n):
        if P.down[x] & P.down[z] & ~P.down[y] == 0:
            cand |= 1 << z
    return cand


def _spc_scanner(P: Poset) -> Callable[[int, int], int]:
    """The z with L(U(x,y),z) = L(y), for the cells of one scan.

    z runs over ↑y only, and L(U(x,y)) is computed once for each mask
    ↑x ∩ ↑y the scan meets.
    """
    down, up = P.down, P.up
    above = [tuple(bits(u)) for u in up]
    lower: dict[int, int] = {}

    def cell(x: int, y: int) -> int:
        m = up[x] & up[y]
        lu = lower.get(m)
        if lu is None:
            lu = lower[m] = P.lower_mask(m)
        dy = down[y]
        cand = 0
        for z in above[y]:
            if lu & down[z] == dy:
                cand |= 1 << z
        return cand

    return cell


def _scan(P: Poset, op: str, best_effort: bool = False) -> tuple:
    """Visit every cell of ``op`` ("pc", "rpc" or "spc") once, in row-major
    order; ``(table, witness, fallback)``.

    A cell whose candidates have a maximum takes it.  An absent sectional
    diagonal cell (x, x) takes x, and ``fallback`` lists those x.  Any other
    absent cell ends the scan with that cell and its maximal candidates as
    the witness; with ``best_effort`` it takes the first maximal candidate
    instead.  No candidate set is empty: the bottom is a pseudocomplement
    candidate of every x, and y a relative and a sectional candidate of every
    (x, y).  A bottomless poset has no pseudocomplement table either way.
    """
    n = P.n
    if op == "pc":
        bottom, _ = extremes(P)
        if bottom is None:
            return None, {"reason": "no bottom element"}, ()
        cells = [(x,) for x in range(n)]
        candidates = lambda x: _pc_candidates(P, x, bottom)
    else:
        cells = product(range(n), repeat=2)
        candidates = _spc_scanner(P) if op == "spc" else lambda x, y: _rpc_candidates(P, x, y)
    entries = []
    fallback = []
    for cell in cells:
        cand = candidates(*cell)
        z = P.maximum_of(cand)
        if z is not None:
            entries.append(z)
        elif op == "spc" and cell[0] == cell[1]:
            entries.append(cell[0])
            fallback.append(cell[0])
        elif best_effort:
            entries.append(P.maximal_of(cand)[0])
        else:
            return None, dict(zip("xy", cell), maximal=P.maximal_of(cand)), ()
    if op == "pc":
        return tuple(entries), None, ()
    return tuple(tuple(entries[i : i + n]) for i in range(0, n * n, n)), None, tuple(fallback)


def pseudocomplement(P: Poset, x: int) -> int | None:
    """The greatest y with L(x,y) = {0}; absent when only maximal candidates exist."""
    bottom, _ = extremes(P)
    if bottom is None:
        raise NoBottom("pseudocomplements need a bottom element")
    return P.maximum_of(_pc_candidates(P, x, bottom))


def best_effort_table(P: Poset, kind: str) -> tuple | None:
    """The table of the class's operation with absent entries filled in.

    Each absent entry takes the first maximal candidate (see :func:`_scan`);
    the table is total except for the pseudocomplement of a bottomless
    poset, which is None.  Audits use it to exercise the failing direction of
    a characterization, always on a poset with a bottom.
    """
    return _scan(P, _CLASSES[canonical_kind(kind)][1], best_effort=True)[0]


# -- classification -------------------------------------------------------------


def classify(P: Poset, kind: str) -> PcClassification:
    """Classify a poset against one pseudocomplementation class.

    Structural absence is data, not an exception: a missing bottom / top or a
    candidate set without maximum turns into ``holds=False`` plus a witness
    (or ``applicable=False`` where the class's own statement needs a top).
    """
    kind = canonical_kind(kind)
    table, witness, fallback = _scan(P, _CLASSES[kind][1])
    if table is None:
        return PcClassification(kind, False, witness=witness)
    bottom, top = extremes(P)

    if kind == "stone":
        unit = table[bottom]  # 0* is the top element
        for x in range(P.n):
            cone = P.up[table[x]] & P.up[table[table[x]]]
            if cone != 1 << unit:
                return PcClassification(
                    kind,
                    False,
                    table=table,
                    witness={"x": x, "U(x*,x**)": tuple(bits(cone)), "expected": (unit,)},
                )
    elif kind in ("sectionally_pc_with_1", "strongly_sectionally_pc"):
        if top is None:
            return PcClassification(
                kind, False, applicable=False, table=table, note="no top element"
            )
        if kind == "strongly_sectionally_pc":  # x <= (x∘y)∘y everywhere
            for x, y in product(range(P.n), repeat=2):
                v = table[table[x][y]][y]
                if not P.leq(x, v):
                    return PcClassification(
                        kind, False, table=table, witness={"x": x, "y": y, "(x∘y)∘y": v}
                    )
    note = ""
    if fallback:
        note = "diagonal fallback (least candidate) at: " + ", ".join(
            P.labels[x] for x in fallback
        )
    return PcClassification(kind, True, table=table, note=note)


# -- the equality characterization for distributive posets ---------------------


def check_distributive_pc_equalities(P: Poset, star) -> dict[str, Report]:
    """Check L(x,x*) = {0} and U(x*,L(x,y)) = U(x*,y) plus the side hypotheses.

    The caller asserts boundedness, U(x,x*) = {1} and distributivity; all
    three are re-checked and reported as side verdicts next to the two
    equalities.
    """
    from .terms import Report  # only this check reports; ``check`` and ``search`` skip terms

    bottom, top = extremes(P)
    if bottom is None or top is None:
        raise NoBottom("the equality characterization needs a bounded poset")
    star = tuple(star)
    if len(star) != P.n:
        raise ValueError("star table does not cover the carrier")
    out: dict[str, Report] = {}

    dist = is_distributive(P)
    out["side: distributive"] = (
        Report(True, None, P.n**3)
        if dist.holds
        else Report(False, dict(zip("xyz", dist.witness)), P.n**3)
    )

    w = next((x for x in range(P.n) if P.up[x] & P.up[star[x]] != 1 << top), None)
    out["side: U(x,x*)={1}"] = (
        Report(True, None, P.n)
        if w is None
        else Report(False, {"x": w, "U(x,x*)": tuple(bits(P.up[w] & P.up[star[w]]))}, P.n)
    )

    w = next((x for x in range(P.n) if P.down[x] & P.down[star[x]] != 1 << bottom), None)
    out["(i) L(x,x*)={0}"] = (
        Report(True, None, P.n)
        if w is None
        else Report(False, {"x": w, "L(x,x*)": tuple(bits(P.down[w] & P.down[star[w]]))}, P.n)
    )

    witness = None
    checked = 0
    for x, y in product(range(P.n), repeat=2):
        checked += 1
        lhs = P.upper_mask((1 << star[x]) | (P.down[x] & P.down[y]))
        rhs = P.up[star[x]] & P.up[y]
        if lhs != rhs:
            witness = {"x": x, "y": y, "lhs": tuple(bits(lhs)), "rhs": tuple(bits(rhs))}
            break
    out["(ii) U(x*,L(x,y))=U(x*,y)"] = (
        Report(True, None, checked) if witness is None else Report(False, witness, checked)
    )
    return out
