"""Pseudocomplementation structures computed directly from the order.

Each operation is defined through a "greatest element of a candidate set"
construction: a cell's candidates form a bitset and its entry is
:meth:`Poset.maximum_of` of it.  A set that only has maximal elements —
exactly the point where posets differ from lattices — has no entry, and
classification reports the antichain :meth:`Poset.maximal_of` as the
witness.

The three derived operations share one candidate rule, :func:`_candidates`:
the candidates of (x, y) are the z of a span S whose down-set misses
M ∖ L(y).  The relative x*y takes M = L(x) and S = P, the pseudocomplement
is x* = x*0, and the sectional x∘y takes M = L(U(x,y)) and S = ↑y
(I. Chajda, Acta Sci. Math. (Szeged) 69, 2003).  Each operation is computed
by one row-major scan over its cells, :func:`_scan`.  The scan returns
either the whole table or the first absent cell with its maximal
candidates; :func:`classify` and :func:`best_effort_table` both read it, so
no cell is computed twice.  A class's table is ``classify(P, kind).table``.

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


def _candidates(P: Poset, op: str) -> Callable[[int, int], int]:
    """The candidates of a cell (x, y) of ``op``, for the cells of one scan.

    The forbidden set F = M ∖ L(y) is computed once per cell, and z is a
    candidate iff L(z) misses F.  A pseudocomplement cell takes the bottom
    as y.  Every sectional candidate lies in ↑y, as y is in L(U(x,y)); for
    z in ↑y, L(U(x,y), z) contains L(y), so missing F is exactly
    L(U(x,y), z) = L(y).  L(U(x,y)) is computed once for each mask ↑x ∩ ↑y
    the scan meets.
    """
    down, up = P.down, P.up
    sectional = op == "spc"
    span = [tuple(bits(u)) for u in up] if sectional else [range(P.n)] * P.n
    lower: dict[int, int] = {}

    def cell(x: int, y: int) -> int:
        if sectional:
            m = up[x] & up[y]
            lu = lower.get(m)
            if lu is None:
                lu = lower[m] = P.lower_mask(m)
            forbidden = lu & ~down[y]
        else:
            forbidden = down[x] & ~down[y]
        cand = 0
        for z in span[y]:
            if not forbidden & down[z]:
                cand |= 1 << z
        return cand

    return cell


def _scan(P: Poset, op: str, best_effort: bool = False) -> tuple:
    """Visit every cell of ``op`` ("pc", "rpc" or "spc") once, in row-major
    order; ``(table, witness, fallback)``.

    A cell whose candidates have a maximum takes it.  An absent sectional
    diagonal cell (x, x) takes x, and ``fallback`` lists those x.  Any other
    absent cell ends the scan with that cell (a pseudocomplement cell (x, 0)
    by its x) and its maximal candidates as the witness; with
    ``best_effort`` it takes the first maximal candidate instead.  No
    candidate set is empty: the bottom is a pseudocomplement candidate of
    every x, and y a relative and a sectional candidate of every (x, y).  A
    bottomless poset has no pseudocomplement table either way.
    """
    n = P.n
    if op == "pc":
        bottom, _ = extremes(P)
        if bottom is None:
            return None, {"reason": "no bottom element"}, ()
        cells = [(x, bottom) for x in range(n)]  # x* is x*0
    else:
        cells = product(range(n), repeat=2)
    candidates = _candidates(P, op)
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
            key = {"x": cell[0]} if op == "pc" else dict(zip("xy", cell))
            return None, {**key, "maximal": P.maximal_of(cand)}, ()
    if op == "pc":
        return tuple(entries), None, ()
    return tuple(tuple(entries[i : i + n]) for i in range(0, n * n, n)), None, tuple(fallback)


def pseudocomplement(P: Poset, x: int) -> int | None:
    """The greatest y with L(x,y) = {0}; absent when only maximal candidates exist."""
    bottom, _ = extremes(P)
    if bottom is None:
        raise NoBottom("pseudocomplements need a bottom element")
    return P.maximum_of(_candidates(P, "pc")(x, bottom))


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
