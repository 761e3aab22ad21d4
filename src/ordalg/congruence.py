"""Congruences of finite algebras, the congruence lattice, and term schemes.

Partitions are canonicalized as block-leader tuples (every element maps to
the least element of its block), so congruence equality is plain tuple
equality.

One union-find, ``_close``, serves every closure: a join merges the pairs of
two partitions, and a principal congruence Cg(a, b) merges (a, b) and then
the images of each merged pair under the basic translations, precomputed
once per algebra.  Generation computes Cg(a, b) for every a < b in order and
keeps each result, so a later run merges a pair whose principal congruence
is already known block by block instead of queueing its translations.  A
worklist then joins each new congruence with the distinct principal
congruences only, since every congruence is a join of principal ones, and
stops with ``BudgetExceeded`` past ``MAX_CONGRUENCES``.  An exhaustive
partition scan doubles as a secondary oracle under a size guard.

The lattice order comes from relation bitsets: each congruence is one int
holding its relation, so refinement is one AND, a meet is the congruence
with the intersected relation, and a join is the element whose up-set is
the intersection of two up-sets.  Covers come from the up-sets as well, and
distributivity is decided by the join-prime test on join-irreducibles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .algebra import CIRC, JOIN, MEET, ONE, STAR, Algebra
from .errors import BadPartition, BudgetExceeded, MissingSymbol, SizeGuardExceeded
from .poset import bits
from .terms import App, Const, Eq, Forall, Report, Var, check_formula, render_formula

BRUTE_FORCE_GUARD = 12
MAX_CONGRUENCES = 1024


@dataclass(frozen=True)
class Congruence:
    """Partition compatible with the owning algebra's operations."""

    rep: tuple[int, ...]

    @classmethod
    def identity(cls, n: int) -> "Congruence":
        return cls(tuple(range(n)))

    @classmethod
    def total(cls, n: int) -> "Congruence":
        return cls((0,) * n)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> "Congruence":
        rep = [-1] * n
        for block in blocks:
            block = sorted(block)
            if not block:
                raise BadPartition("empty block")
            leader = block[0]
            for e in block:
                if not 0 <= e < n:
                    raise BadPartition(f"element {e} outside the carrier")
                if rep[e] != -1:
                    raise BadPartition(f"element {e} appears in two blocks")
                rep[e] = leader
        if -1 in rep:
            raise BadPartition(f"element {rep.index(-1)} missing from the partition")
        return cls(tuple(rep))

    def __post_init__(self):
        for i, r in enumerate(self.rep):
            if not 0 <= r <= i or self.rep[r] != r:
                raise BadPartition("rep tuple is not in leader-canonical form")

    @property
    def n(self) -> int:
        return len(self.rep)

    @property
    def num_blocks(self) -> int:
        return len(set(self.rep))

    @property
    def is_identity(self) -> bool:
        return all(r == i for i, r in enumerate(self.rep))

    @property
    def is_total(self) -> bool:
        return all(r == 0 for r in self.rep)

    def related(self, a: int, b: int) -> bool:
        return self.rep[a] == self.rep[b]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: dict[int, list[int]] = {}
        for i, r in enumerate(self.rep):
            out.setdefault(r, []).append(i)
        return tuple(tuple(out[r]) for r in sorted(out))

    def block_of(self, a: int) -> tuple[int, ...]:
        r = self.rep[a]
        return tuple(i for i, s in enumerate(self.rep) if s == r)

    def block_masks(self) -> tuple[int, ...]:
        """Per element: bitset of its block."""
        masks: dict[int, int] = {}
        for i, r in enumerate(self.rep):
            masks[r] = masks.get(r, 0) | (1 << i)
        return tuple(masks[r] for r in self.rep)

    def refines(self, other: "Congruence") -> bool:
        return all(other.rep[i] == other.rep[self.rep[i]] for i in range(self.n))


def _canonical_rep(assign: Sequence) -> tuple[int, ...]:
    """Leader-canonical rep tuple from any hashable block-colouring."""
    leader: dict = {}
    rep = []
    for i, c in enumerate(assign):
        leader.setdefault(c, i)
        rep.append(leader[c])
    return tuple(rep)


def normalize_partition(partition, n: int) -> Congruence:
    """Accept a Congruence, a rep sequence, or iterable blocks."""
    if isinstance(partition, Congruence):
        if partition.n != n:
            raise BadPartition("partition is over a different carrier size")
        return partition
    if all(isinstance(e, int) for e in partition):
        if len(tuple(partition)) != n:
            raise BadPartition("rep sequence length differs from the carrier")
        return Congruence(_canonical_rep(tuple(partition)))
    return Congruence.from_blocks(partition, n)


# -- compatibility, principal congruences, generation ---------------------------


def is_congruence(A: Algebra, partition) -> tuple[bool, dict | None]:
    """Exhaustive compatibility check; returns a violating tuple on failure."""
    theta = normalize_partition(partition, A.n)
    rep = theta.rep
    n = A.n
    related_pairs = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rep[a] == rep[b]
    ]
    for (name, arity), table in zip(A.signature.symbols, A.tables):
        if arity == 1:
            for a, b in related_pairs:
                if rep[table[a]] != rep[table[b]]:
                    return False, {"op": name, "args": ((a,), (b,)), "values": (table[a], table[b])}
        elif arity == 2:
            for a, b in related_pairs:
                for c in range(n):
                    if rep[table[a][c]] != rep[table[b][c]]:
                        return False, {
                            "op": name,
                            "args": ((a, c), (b, c)),
                            "values": (table[a][c], table[b][c]),
                        }
                    if rep[table[c][a]] != rep[table[c][b]]:
                        return False, {
                            "op": name,
                            "args": ((c, a), (c, b)),
                            "values": (table[c][a], table[c][b]),
                        }
    return True, None


def _translation_images(A: Algebra) -> tuple[tuple[int, ...], ...]:
    """Per element x: x's images under every basic translation, as one tuple.

    A unary table contributes t[x]; a binary table contributes its row t[x]
    and, unless the whole table is commutative, its column t[·][x].  The
    images of any two elements line up index by index, so the translations
    of a pair (x, y) are ``zip(images[x], images[y])``.
    """
    images: list[list[int]] = [[] for _ in range(A.n)]
    for (_, arity), t in zip(A.signature.symbols, A.tables):
        if arity == 1:
            for x, image in enumerate(images):
                image.append(t[x])
        elif arity == 2:
            cols = tuple(zip(*t))
            commutative = cols == t
            for x, image in enumerate(images):
                image.extend(t[x])
                if not commutative:
                    image.extend(cols[x])
    return tuple(tuple(image) for image in images)


def _close(
    n: int,
    work: list[tuple[int, int]],
    images: Sequence[Sequence[int]] | None = None,
    known: dict[tuple[int, int], tuple[tuple[int, ...], ...]] | None = None,
) -> tuple[int, ...]:
    """The union-find: merge every pair on ``work``; return the rep tuple.

    Each class is labelled by its least element and keeps a member list, so
    a lookup is one index and a merge relabels the class with the larger
    label.  With ``images`` (see ``_translation_images``) each merge of
    (x, y) queues the distinct translations of the pair, so the result is
    the least congruence holding the work pairs (whatever the pop order).
    ``known`` maps pairs x < y to the nonsingleton blocks of Cg(x, y); such
    a merge unites those blocks instead, which is enough because Cg(x, y)
    is closed under translations and lies inside every congruence relating
    x and y.
    """
    rep = list(range(n))
    members = [[i] for i in range(n)]

    def union(rx: int, ry: int) -> None:
        if ry < rx:
            rx, ry = ry, rx
        moved = members[ry]
        for e in moved:
            rep[e] = rx
        members[rx] += moved

    while work:
        x, y = work.pop()
        rx, ry = rep[x], rep[y]
        if rx == ry:
            continue
        union(rx, ry)
        if images is None:
            continue
        blocks = known.get((x, y) if x < y else (y, x)) if known else None
        if blocks is None:
            work.extend(set(zip(images[x], images[y])))
            continue
        for first, *rest in blocks:
            for e in rest:
                if rep[e] != rep[first]:
                    union(rep[e], rep[first])
    return tuple(rep)


def principal_congruence(A: Algebra, a: int, b: int) -> Congruence:
    """Least congruence collapsing (a, b): one ``_close`` run from the pair,
    each merge queueing the merged pair's images under every basic
    translation (``_translation_images``) until a fixpoint.  Generation
    calls ``_close`` itself, with its memo of known principal congruences."""
    return Congruence(_close(A.n, [(a, b)], _translation_images(A)))


def join2(c1: Congruence, c2: Congruence) -> Congruence:
    """Join = transitive closure of the union (itself a congruence)."""
    return Congruence(_close(c1.n, [*enumerate(c1.rep), *enumerate(c2.rep)]))


def meet2(c1: Congruence, c2: Congruence) -> Congruence:
    return Congruence(_canonical_rep([(c1.rep[i], c2.rep[i]) for i in range(c1.n)]))


def compose_masks(c1: Congruence, c2: Congruence) -> tuple[int, ...]:
    """Relational composition c1∘c2 as per-element bitsets."""
    m1 = c1.block_masks()
    m2 = c2.block_masks()
    out = []
    for a in range(c1.n):
        acc = 0
        for b in bits(m1[a]):
            acc |= m2[b]
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class CongruenceLattice:
    congruences: tuple[Congruence, ...]
    join_table: tuple[tuple[int, ...], ...]
    meet_table: tuple[tuple[int, ...], ...]
    hasse: tuple[tuple[int, int], ...]
    validated: bool
    note: str = ""

    def __len__(self) -> int:
        return len(self.congruences)


def _generate_congruences(A: Algebra) -> list[Congruence]:
    """Every congruence of A, sorted by ``rep``.

    Cg(a, b) is computed for a < b in order, each by one ``_close`` run that
    reuses the principal congruences already known.  Every congruence is a
    join of principal ones (R. Freese, "Computing congruences efficiently",
    2008), so a worklist joins each new congruence with each distinct
    principal congruence it does not already contain.  Raises
    ``BudgetExceeded`` as soon as more than ``MAX_CONGRUENCES`` are found.
    """
    n = A.n
    images = _translation_images(A)
    known: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
    principals: dict[Congruence, tuple[int, int]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            cg = Congruence(_close(n, [(a, b)], images, known))
            known[a, b] = tuple(block for block in cg.blocks() if len(block) > 1)
            principals.setdefault(cg, (a, b))
    found = {Congruence.identity(n), *principals}
    _check_budget(len(found), n)
    work = list(principals)
    while work:
        c = work.pop()
        for p, (a, b) in principals.items():
            if c.rep[a] == c.rep[b]:  # Cg(a, b) is already below c
                continue
            j = join2(c, p)
            if j not in found:
                found.add(j)
                _check_budget(len(found), n)
                work.append(j)
    return sorted(found, key=lambda c: c.rep)


def _check_budget(count: int, n: int) -> None:
    if count > MAX_CONGRUENCES:
        raise BudgetExceeded(
            f"congruence budget {MAX_CONGRUENCES} exceeded: {count} congruences "
            f"found so far on a carrier of {n} elements"
        )


def _rgs_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of {0..n-1} as canonical rep tuples (restricted growth)."""
    assign = [0] * n

    def rec(i: int, maxc: int):
        if i == n:
            yield _canonical_rep(assign)
            return
        for c in range(maxc + 2):
            assign[i] = c
            yield from rec(i + 1, max(maxc, c))

    yield from rec(1, 0) if n > 0 else iter(())


def all_congruences_bruteforce(A: Algebra, guard: int = BRUTE_FORCE_GUARD) -> tuple[Congruence, ...]:
    """Partition-scan oracle: every compatible partition, by exhaustion."""
    if A.n > guard:
        raise SizeGuardExceeded(
            f"partition scan over {A.n} elements exceeds guard {guard}"
        )
    out = []
    for rep in _rgs_partitions(A.n):
        c = Congruence(rep)
        ok, _ = is_congruence(A, c)
        if ok:
            out.append(c)
    return tuple(sorted(out, key=lambda c: c.rep))


def congruence_lattice(A: Algebra, validate: bool = False) -> CongruenceLattice:
    """All congruences with join/meet tables and the Hasse relation.

    Generation joins principal congruences (see ``_generate_congruences``)
    and raises ``BudgetExceeded`` once it finds more than ``MAX_CONGRUENCES``.
    With ``validate`` the partition-scan oracle cross-checks completeness;
    when the carrier exceeds the guard the validation is skipped and flagged
    instead of raising, so generation still runs.

    The order comes from relation bitsets.  Congruence i is held as one int
    ``mask[i]`` with the block of element a at bits n·a .. n·a + n - 1, so
    i ≤ j iff ``mask[i] & ~mask[j] == 0``, and ``up[i]`` is the k-bit set of
    those j.  The meet of i and j is the congruence whose mask is
    ``mask[i] & mask[j]`` (an intersection of congruences is one); the join
    is the one element whose up-set is ``up[i] & up[j]``.  j covers i iff j
    lies strictly above i and strictly above no m that lies strictly above i.
    """
    cons = _generate_congruences(A)
    validated = False
    note = ""
    if validate:
        if A.n <= BRUTE_FORCE_GUARD:
            brute = list(all_congruences_bruteforce(A))
            if brute != cons:
                raise AssertionError(
                    "closure-generated congruences disagree with the partition scan"
                )
            validated = True
        else:
            note = f"carrier {A.n} exceeds validation guard {BRUTE_FORCE_GUARD}; scan skipped"
    n, k = A.n, len(cons)
    masks = [
        sum(block << (n * a) for a, block in enumerate(c.block_masks())) for c in cons
    ]
    by_mask = {m: i for i, m in enumerate(masks)}
    up = [sum(1 << j for j, mj in enumerate(masks) if not mi & ~mj) for mi in masks]
    by_up = {u: i for i, u in enumerate(up)}
    meet_t = tuple(tuple(by_mask[mi & mj] for mj in masks) for mi in masks)
    join_t = tuple(tuple(by_up[ui & uj] for uj in up) for ui in up)
    hasse = []
    for i in range(k):
        strict = up[i] & ~(1 << i)
        above_cover = 0
        for m in bits(strict):
            above_cover |= up[m] & ~(1 << m)
        hasse.extend((i, j) for j in bits(strict & ~above_cover))
    return CongruenceLattice(tuple(cons), join_t, meet_t, tuple(hasse), validated, note)


# -- congruence properties ---------------------------------------------------------


@dataclass(frozen=True)
class CongruenceProperties:
    permutable: bool
    distributive: bool
    arithmetical: bool
    weakly_regular: bool | None
    unit: int | None = None


def congruence_properties(
    A: Algebra,
    unit_constant: str | int | None = None,
    lattice: CongruenceLattice | None = None,
) -> CongruenceProperties:
    """Decide permutability, distributivity, arithmeticity and weak regularity
    by direct computation on the full congruence lattice.

    Distributivity uses the join-prime test: a finite lattice is
    distributive iff every join-irreducible element (exactly one lower cover
    in ``hasse``) is join-prime (B. A. Davey and H. A. Priestley,
    *Introduction to Lattices and Order*, 2nd ed., 2002).  j is join-prime
    iff the join of all elements not above j is not above j; with up-sets
    read off ``join_table`` (i ≤ j iff ``join_table[i][j] == j``) that join
    has up-set ``AND up[x]`` over x not above j, so each j costs O(k).
    """
    if A.n > 64:
        raise SizeGuardExceeded("congruence properties guarded at carrier size 64")
    lat = lattice or congruence_lattice(A)
    cons = lat.congruences
    k = len(cons)

    permutable = True
    for i in range(k):
        for j in range(i + 1, k):
            if compose_masks(cons[i], cons[j]) != compose_masks(cons[j], cons[i]):
                permutable = False
                break
        if not permutable:
            break

    up = [sum(1 << j for j, v in enumerate(row) if v == j) for row in lat.join_table]
    lower_covers = [0] * k
    for _, j in lat.hasse:
        lower_covers[j] += 1
    everything = (1 << k) - 1

    def join_prime(j: int) -> bool:
        common = everything  # ends as the up-set of the join of all x not above j
        for x in bits(everything & ~up[j]):
            common &= up[x]
        return bool(common & ~up[j])

    distributive = all(join_prime(j) for j in range(k) if lower_covers[j] == 1)

    weakly_regular: bool | None = None
    unit: int | None = None
    if unit_constant is not None:
        unit = unit_constant if isinstance(unit_constant, int) else A.constant(unit_constant)
        classes = [frozenset(c.block_of(unit)) for c in cons]
        weakly_regular = len(set(classes)) == k

    return CongruenceProperties(
        permutable, distributive, permutable and distributive, weakly_regular, unit
    )


# -- term schemes ------------------------------------------------------------------


def majority_term(a, b, c):
    return App(MEET, (App(MEET, (App(JOIN, (a, b)), App(JOIN, (b, c)))), App(JOIN, (c, a))))


def maltsev_term(sym: str, a, b, c):
    i = lambda u, v: App(sym, (u, v))
    return App(MEET, (i(i(a, b), c), i(i(c, b), a)))


def _numbered(formulas) -> tuple[tuple[str, Forall], ...]:
    return tuple(
        (f"{i}: {render_formula(f)}", f) for i, f in enumerate(formulas, start=1)
    )


def _majority_scheme() -> tuple[tuple[str, Forall], ...]:
    x, y = Var("x"), Var("y")
    m = majority_term
    return _numbered(
        (
            Forall(("x", "y"), Eq(m(x, x, y), x)),
            Forall(("x", "y"), Eq(m(x, y, x), x)),
            Forall(("x", "y"), Eq(m(y, x, x), x)),
        )
    )


def _maltsev_scheme(sym: str) -> tuple[tuple[str, Forall], ...]:
    x, y = Var("x"), Var("y")
    p = lambda a, b, c: maltsev_term(sym, a, b, c)
    return _numbered(
        (
            Forall(("x", "y"), Eq(p(x, x, y), y)),
            Forall(("x", "y"), Eq(p(y, x, x), y)),
        )
    )


def _weak_regularity_scheme(sym: str) -> tuple[tuple[str, Forall], ...]:
    """Two-step chain witnessing weak regularity with respect to the constant 1."""
    x, y = Var("x"), Var("y")
    one = Const(ONE)
    i = lambda a, b: App(sym, (a, b))
    t1 = lambda a, b: i(a, b)
    t2 = lambda a, b: i(b, a)
    s1 = lambda a, b, c, d: App(MEET, (i(a, d), c))
    s2 = lambda a, b, c, d: App(MEET, (i(b, c), d))
    formulas = (
        Forall(("x",), Eq(t1(x, x), one)),
        Forall(("x",), Eq(t2(x, x), one)),
        Forall(("x", "y"), Eq(s1(t1(x, y), one, x, y), x)),
        Forall(("x", "y"), Eq(s1(one, t1(x, y), x, y), s2(t2(x, y), one, x, y))),
        Forall(("x", "y"), Eq(s2(one, t2(x, y), x, y), y)),
    )
    return _numbered(formulas)


_PROFILE_SCHEMES: dict[str, tuple[tuple[str, str | None], ...]] = {
    "pc": (),
    "stone": (("majority", None),),
    "spc": (("majority", None),),
    "spc1": (("majority", None),),
    "sspc": (("majority", None), ("maltsev", CIRC), ("weak_regularity", CIRC)),
    "rpc": (("maltsev", STAR), ("weak_regularity", STAR)),
}


def _schemes_for_signature(A: Algebra) -> tuple[tuple[str, str | None], ...]:
    out: list[tuple[str, str | None]] = []
    if A.signature.has(JOIN, 2) and A.signature.has(MEET, 2):
        out.append(("majority", None))
    for sym in (STAR, CIRC):
        if A.signature.has(sym, 2) and A.signature.has(MEET, 2):
            out.append(("maltsev", sym))
            if A.signature.has(ONE, 0):
                out.append(("weak_regularity", sym))
    return tuple(out)


def verify_term_conditions(
    A: Algebra, profile: str | None = None
) -> dict[str, dict[str, Report]]:
    """Check the majority / Maltsev / weak-regularity schemes exhaustively.

    With a profile the scheme set is the one its theory supports; without
    one, every scheme expressible in the algebra's signature is tried.
    """
    if profile is None:
        selected = _schemes_for_signature(A)
    else:
        if profile not in _PROFILE_SCHEMES:
            raise ValueError(f"unknown profile {profile!r}")
        selected = _PROFILE_SCHEMES[profile]
    out: dict[str, dict[str, Report]] = {}
    for scheme, sym in selected:
        if scheme == "majority":
            needed = [(JOIN, 2), (MEET, 2)]
            identities = _majority_scheme()
            key = "majority"
        elif scheme == "maltsev":
            needed = [(sym, 2), (MEET, 2)]
            identities = _maltsev_scheme(sym)  # type: ignore[arg-type]
            key = f"maltsev({sym})"
        else:
            needed = [(sym, 2), (MEET, 2), (ONE, 0)]
            identities = _weak_regularity_scheme(sym)  # type: ignore[arg-type]
            key = f"weak_regularity({sym})"
        for s, a in needed:
            if not A.signature.has(s, a):
                raise MissingSymbol(f"scheme {key} needs {s!r}/{a}")
        out[key] = {name: check_formula(A, f) for name, f in identities}
    return out
