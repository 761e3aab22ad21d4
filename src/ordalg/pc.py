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

Diagonal fallback: on a poset without enough upper structure the sectional
candidate set {z : z >= x} of a diagonal pair (x, x) can lack a maximum.
The entry then falls back to x itself, the least candidate (the bundled
topless fixture fig4 needs this), and classification lists those x in its
note.  The fallback never fires on a poset with a top.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

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


def _spc_candidates(P: Poset, x: int, y: int) -> int:
    """The z with L(U(x,y),z) = L(y)."""
    lu = P.lower_mask(P.up[x] & P.up[y])
    cand = 0
    for z in range(P.n):
        if lu & P.down[z] == P.down[y]:
            cand |= 1 << z
    return cand


@dataclass(frozen=True)
class _Scan:
    """Outcome of one row-major pass over an operation's cells."""

    table: tuple | None
    witness: dict | None = None
    fallback: tuple[int, ...] = ()  # x of each sectional (x, x) that fell back to x


def _scan(P: Poset, op: str, best_effort: bool = False) -> _Scan:
    """Visit every cell of ``op`` ("pc", "rpc" or "spc") once, in row-major order.

    A cell whose candidates have a maximum takes it.  An absent sectional
    diagonal cell (x, x) takes x.  Any other absent cell ends the scan with
    that cell and its maximal candidates as the witness; with
    ``best_effort`` it takes the first maximal candidate instead (y when
    there is none), so the table is always total.
    """
    n = P.n
    if op == "pc":
        bottom, _ = extremes(P)
        if bottom is None:
            if best_effort:
                return _Scan((0,) * n)
            return _Scan(None, {"reason": "no bottom element"})
        cells = [(x,) for x in range(n)]
        candidates = lambda P, x: _pc_candidates(P, x, bottom)
    else:
        cells = product(range(n), repeat=2)
        candidates = _rpc_candidates if op == "rpc" else _spc_candidates
    entries = []
    fallback = []
    for cell in cells:
        cand = candidates(P, *cell)
        z = P.maximum_of(cand)
        if z is not None:
            entries.append(z)
        elif op == "spc" and cell[0] == cell[1]:
            entries.append(cell[0])
            fallback.append(cell[0])
        elif best_effort:
            maximal = P.maximal_of(cand)
            entries.append(maximal[0] if maximal else cell[-1])
        else:
            return _Scan(None, dict(zip("xy", cell), maximal=P.maximal_of(cand)))
    if op == "pc":
        return _Scan(tuple(entries))
    rows = tuple(tuple(entries[i : i + n]) for i in range(0, n * n, n))
    return _Scan(rows, None, tuple(fallback))


def pseudocomplement(P: Poset, x: int) -> int | None:
    """The greatest y with L(x,y) = {0}; absent when only maximal candidates exist."""
    bottom, _ = extremes(P)
    if bottom is None:
        raise NoBottom("pseudocomplements need a bottom element")
    return P.maximum_of(_pc_candidates(P, x, bottom))


def relative_pseudocomplement(P: Poset, x: int, y: int) -> int | None:
    """The greatest z with L(x,z) ⊆ L(y)."""
    return P.maximum_of(_rpc_candidates(P, x, y))


def sectional_pseudocomplement(P: Poset, x: int, y: int) -> int | None:
    """The greatest z with L(U(x,y),z) = L(y); x itself on an absent diagonal."""
    z = P.maximum_of(_spc_candidates(P, x, y))
    return x if z is None and x == y else z


def best_effort_table(P: Poset, kind: str) -> tuple:
    """The table of the class's operation with absent entries filled in.

    Each absent entry takes the first maximal candidate (see :func:`_scan`),
    so the table is always total; audits use it to exercise the failing
    direction of a characterization.
    """
    return _scan(P, _CLASSES[canonical_kind(kind)][1], best_effort=True).table


# -- classification -------------------------------------------------------------


def classify(P: Poset, kind: str) -> PcClassification:
    """Classify a poset against one pseudocomplementation class.

    Structural absence is data, not an exception: a missing bottom / top or a
    candidate set without maximum turns into ``holds=False`` plus a witness
    (or ``applicable=False`` where the class's own statement needs a top).
    """
    kind = canonical_kind(kind)
    scan = _scan(P, _CLASSES[kind][1])
    table = scan.table
    if table is None:
        return PcClassification(kind, False, witness=scan.witness)
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
    if scan.fallback:
        note = "diagonal fallback (least candidate) at: " + ", ".join(
            P.labels[x] for x in scan.fallback
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
