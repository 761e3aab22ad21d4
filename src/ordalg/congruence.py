"""Congruences of finite algebras and the congruence lattice.

A partition is always a :class:`Congruence`, canonicalized as a block-leader
tuple (every element maps to the least element of its block), so congruence
equality is plain tuple equality; ``Congruence.from_blocks`` builds one from
a block list.

One union-find, ``_close``, serves every closure: a join starts from one
partition and merges the pairs of the other, and a principal congruence
Cg(a, b) merges (a, b) and then the images of each merged pair under the
basic translations, precomputed once per algebra.  Generation settles
Cg(a, b) for every a < b in order from the principal congruences already
known.  The known Cg(c, d) holding (a, b) with the most blocks, or ∇, is a
bound K with Cg(a, b) ⊆ K; a basic translation t gives Cg(t(a), t(b)) ⊆
Cg(a, b).  So when a known Cg(t(a), t(b)) has K's block count, Cg(a, b) is
K and no closure runs; otherwise the closure merges a known pair block by
block instead of queueing its translations, and stops at K's block count,
since a partition inside K with as many blocks is K.  A principal
congruence p is join-irreducible iff the principal congruences strictly
below it (Cg(c, d) ≤ p iff p relates c and d) join to less than p.  A
worklist then joins each new congruence with the join-irreducible ones
only: every join-irreducible congruence is principal and every congruence
is a join of join-irreducibles, so a join-reducible one adds nothing.  It
stops with ``BudgetExceeded`` past ``MAX_CONGRUENCES``.
``principal_congruence`` runs the plain closure, and an exhaustive
partition scan doubles as a secondary oracle under a size guard.

Con(A) is held once, by its join-irreducibles (``CongruenceLattice``): each
congruence is named by the bitset of the join-irreducible Cg(a, b) below
it, read off its rep, so a meet is the element with the intersected set,
an up-set is the AND of the up-sets of the join-irreducibles below, and a
join is the element whose up-set is the intersection of two up-sets.
Distributivity is the join-prime test on the join-irreducibles.
Permutability is a count of blocks, not a composition (``permutes``).

``verify_term_conditions`` checks the term schemes of the ``schemes`` table,
which it loads on its first call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Sequence

from .algebra import Algebra
from .errors import BadPartition, BudgetExceeded, MissingSymbol, SizeGuardExceeded
from .poset import bits

if TYPE_CHECKING:
    from .terms import Report

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

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs (e, rep[e]) with e not its own leader: what a join merges."""
        return tuple((e, r) for e, r in enumerate(self.rep) if e != r)

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


# -- compatibility, principal congruences, generation ---------------------------


def is_congruence(A: Algebra, theta: Congruence) -> tuple[bool, dict | None]:
    """Exhaustive compatibility check; returns a violating tuple on failure.

    Raises :class:`BadPartition` when ``theta`` is over another carrier size.
    """
    if theta.n != A.n:
        raise BadPartition(f"partition of {theta.n} elements on a carrier of {A.n}")
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
    start: Sequence[int] | None = None,
    floor: int = 1,
) -> tuple[int, ...]:
    """The union-find: merge every pair on ``work``; return the rep tuple.

    It starts from the partition ``start`` (a rep tuple; default Δ).  Each
    class is labelled by its least element and keeps a member list, so a
    lookup is one index and a merge relabels the class with the larger
    label.  With ``images`` (see ``_translation_images``) each merge of
    (x, y) queues the distinct translations of the pair, so the result is
    the least congruence holding the work pairs (whatever the pop order).
    ``known`` maps pairs (x, y), both ways round, to the nonsingleton blocks
    of Cg(x, y); such a merge unites those blocks instead, which is enough
    because Cg(x, y) is closed under translations and lies inside every
    congruence relating x and y.

    The run stops once the partition has ``floor`` blocks.  The caller
    passes the block count of a congruence K known to hold the result: the
    partition only ever merges pairs of the result, so it lies inside K,
    and with as few blocks as K it is K.  The default, 1, is ∇'s count.
    """
    rep = list(range(n)) if start is None else list(start)
    members: list[list[int]] = [[] for _ in range(n)]
    for e, r in enumerate(rep):
        members[r].append(e)
    count = sum(1 for e, r in enumerate(rep) if e == r)  # blocks: one leader each

    def union(rx: int, ry: int) -> None:
        nonlocal count
        if ry < rx:
            rx, ry = ry, rx
        moved = members[ry]
        for e in moved:
            rep[e] = rx
        members[rx] += moved
        count -= 1

    while work and count > floor:
        x, y = work.pop()
        rx, ry = rep[x], rep[y]
        if rx == ry:
            continue
        union(rx, ry)
        if images is None:
            continue
        blocks = known.get((x, y)) if known else None
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
    calls ``_close`` itself, with the principal congruences already known."""
    return Congruence(_close(A.n, [(a, b)], _translation_images(A)))


def _same_carrier(c1: Congruence, c2: Congruence) -> None:
    if c1.n != c2.n:
        raise BadPartition(f"partitions of {c1.n} and {c2.n} elements")


def join2(c1: Congruence, c2: Congruence) -> Congruence:
    """Join = transitive closure of the union (itself a congruence): c1's
    partition with each element of c2 merged into its c2 leader."""
    _same_carrier(c1, c2)
    return Congruence(_close(c1.n, list(c2.pairs), start=c1.rep))


def meet2(c1: Congruence, c2: Congruence) -> Congruence:
    _same_carrier(c1, c2)
    return Congruence(_canonical_rep([(c1.rep[i], c2.rep[i]) for i in range(c1.n)]))


def permutes(theta: Congruence, phi: Congruence, join: Congruence, meet: Congruence) -> bool:
    """Whether θ∘φ = φ∘θ, given ``join`` = θ∨φ and ``meet`` = θ∧φ.

    They permute iff θ∘φ = θ∨φ.  As a θ∘φ c iff [a]θ meets [c]φ, that holds
    iff in each block B of θ∨φ every θ-block meets every φ-block.  Those
    meets are the blocks of θ∧φ, so θ∧φ has Σ r_B·s_B blocks, with r_B
    θ-blocks and s_B φ-blocks in B, iff θ and φ permute (fewer otherwise).
    """
    inside: dict[int, list[int]] = {}  # block of θ∨φ -> [θ-blocks, φ-blocks] in it
    for side, c in enumerate((theta, phi)):
        for a, r in enumerate(c.rep):
            if a == r:
                inside.setdefault(join.rep[a], [0, 0])[side] += 1
    return sum(r * s for r, s in inside.values()) == meet.num_blocks


def _principal_congruences(A: Algebra) -> dict[Congruence, tuple[int, int]]:
    """Each distinct principal congruence of A -> its first pair a < b.

    Cg(a, b) is settled for a < b in order from the principal congruences
    already known (R. Freese, "Computing congruences efficiently", 2008).
    Take the bound K: the known Cg(c, d) holding (a, b) with the most
    blocks, else ∇; Cg(a, b) lies inside it.  A basic translation t gives
    Cg(t(a), t(b)) ⊆ Cg(a, b), so when a known Cg(t(a), t(b)) has as many
    blocks as K, the two bounds meet and Cg(a, b) is that congruence, with
    no closure run.  Otherwise one ``_close`` run reuses the known
    principal congruences and stops as soon as it has K's block count.
    """
    n = A.n
    images = _translation_images(A)
    # each distinct principal congruence -> its first pair, its block count
    # and its nonsingleton blocks
    principals: dict[Congruence, tuple[int, int, int, tuple[tuple[int, ...], ...]]] = {}
    # pair (x, y), both ways round -> Cg(x, y) and its block count; its
    # nonsingleton blocks, for _close
    cg: dict[tuple[int, int], tuple[Congruence, int]] = {}
    known: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            # K's block count; a known Cg(t(a), t(b)) with as many blocks is K
            floor = max(
                (k for p, (_, _, k, _) in principals.items() if p.rep[a] == p.rep[b]), default=1
            )
            c = next(
                (cg[t][0] for t in zip(images[a], images[b]) if t in cg and cg[t][1] == floor), None
            )
            if c is None:
                c = Congruence(_close(n, [(a, b)], images, known, floor=floor))
            if c not in principals:
                principals[c] = (a, b, c.num_blocks, tuple(bl for bl in c.blocks() if len(bl) > 1))
            _, _, k, blocks = principals[c]
            cg[a, b] = cg[b, a] = (c, k)
            known[a, b] = known[b, a] = blocks
    return {c: (a, b) for c, (a, b, _, _) in principals.items()}


class CongruenceLattice:
    """Con(A), sorted by ``rep``, named by its join-irreducibles.

    ``irreducible`` holds their indices, ascending; the t-th is Cg(a, b) for
    its pair from ``_join_irreducibles``, so it lies below c iff c relates a
    and b.  ``below[i]``, the bitset of the t below i, names i, as every
    element is the join of the join-irreducibles below it (B. A. Davey and
    H. A. Priestley, 2002).  So ``meet(i, j)`` is the element with set
    ``below[i] & below[j]``, the k-bit up-set ``up[i]`` is the AND of the
    t's up-sets over t in ``below[i]``, and ``join(i, j)`` is the element
    with up-set ``up[i] & up[j]``.
    """

    __slots__ = ("congruences", "irreducible", "below", "up", "_by_below", "_by_up")

    def __init__(self, congruences: Sequence[Congruence], irreducibles: Iterable[tuple]):
        self.congruences = cons = tuple(congruences)
        index = {c: i for i, c in enumerate(cons)}
        pairs = sorted((index[p], a, b) for p, a, b in irreducibles)
        self.irreducible = tuple(i for i, _, _ in pairs)
        k = len(cons)
        # per join-irreducible Cg(a, b): its up-set, the congruences relating a and b
        above = [sum(1 << i for i, c in enumerate(cons) if c.rep[a] == c.rep[b]) for _, a, b in pairs]
        self.below = tuple(sum(1 << t for t, u in enumerate(above) if u >> i & 1) for i in range(k))
        self.up = tuple(reduce(and_, (above[t] for t in bits(s)), (1 << k) - 1) for s in self.below)
        self._by_below = {s: i for i, s in enumerate(self.below)}
        self._by_up = {u: i for i, u in enumerate(self.up)}

    def __len__(self) -> int:
        return len(self.congruences)

    def join(self, i: int, j: int) -> int:
        return self._by_up[self.up[i] & self.up[j]]

    def meet(self, i: int, j: int) -> int:
        return self._by_below[self.below[i] & self.below[j]]


def _join_irreducibles(
    principals: dict[Congruence, tuple[int, int]],
) -> list[tuple[Congruence, int, int]]:
    """The join-irreducible ones among ``principals``, each with its pair.

    p is join-irreducible iff the principal congruences strictly below it
    join to less than p: every congruence below p is a join of principal
    ones.  Cg(c, d) lies below p iff p relates c and d, and that join is
    one ``_close`` run over their pairs, which stops at p's block count,
    since a partition inside p with as many blocks is p.
    """
    out = []
    for p, (a, b) in principals.items():
        below = [
            pair for q, (c, d) in principals.items() if q != p and p.rep[c] == p.rep[d] for pair in q.pairs
        ]
        if _close(p.n, below, floor=p.num_blocks) != p.rep:
            out.append((p, a, b))
    return out


def _generate_congruences(
    A: Algebra, principals: Collection[Congruence], irreducibles: list[tuple[Congruence, int, int]]
) -> list[Congruence]:
    """Every congruence of A, sorted by ``rep``.

    Every join-irreducible congruence is principal, since it is the join of
    the principal congruences of its pairs, and every congruence is a join
    of join-irreducible ones.  So from Δ and the principal congruences
    (``_principal_congruences``), a worklist joins each new congruence with
    each join-irreducible principal congruence (``_join_irreducibles``) it
    does not already contain; a join-reducible one adds nothing.  It works
    on rep tuples: a join is one ``_close`` run from c's rep over the
    join-irreducible's ``pairs``, listed once, as ``join2`` does.  Raises
    ``BudgetExceeded`` as soon as more than ``MAX_CONGRUENCES`` are found.
    """
    n = A.n
    joins = [(a, b, p.pairs) for p, a, b in irreducibles]
    found = {tuple(range(n)), *(c.rep for c in principals)}
    _check_budget(len(found), n)
    work = [c.rep for c in principals]
    while work:
        c = work.pop()
        for a, b, pairs in joins:
            if c[a] == c[b]:  # Cg(a, b) is already below c
                continue
            j = _close(n, list(pairs), start=c)  # a fresh list: _close consumes it
            if j not in found:
                found.add(j)
                _check_budget(len(found), n)
                work.append(j)
    return [Congruence(rep) for rep in sorted(found)]


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


def congruence_lattice(A: Algebra) -> CongruenceLattice:
    """All congruences of A as a :class:`CongruenceLattice`.

    Generation joins the join-irreducible principal congruences, which
    become ``irreducible`` (see ``_generate_congruences``), and raises
    ``BudgetExceeded`` past ``MAX_CONGRUENCES``.  ``all_congruences_bruteforce``
    is the independent oracle for the list.
    """
    principals = _principal_congruences(A)
    irreducibles = _join_irreducibles(principals)
    cons = _generate_congruences(A, principals, irreducibles)
    return CongruenceLattice(cons, irreducibles)


# -- congruence properties ---------------------------------------------------------


@dataclass(frozen=True)
class CongruenceProperties:
    permutable: bool
    distributive: bool
    arithmetical: bool
    weakly_regular: bool | None


def congruence_properties(
    A: Algebra,
    unit_constant: str | int | None = None,
    lattice: CongruenceLattice | None = None,
) -> CongruenceProperties:
    """Decide permutability, distributivity, arithmeticity and weak regularity
    by direct computation on the full congruence lattice.

    Distributivity uses the join-prime test: a finite lattice is
    distributive iff every join-irreducible element (``lat.irreducible``) is
    join-prime (B. A. Davey and H. A. Priestley, *Introduction to Lattices
    and Order*, 2nd ed., 2002).  j is join-prime iff the join of all
    elements not above j is not above j; that join has up-set
    ``AND up[x]`` over x not above j (``lat.up``), so each j costs O(k).
    """
    if A.n > 64:
        raise SizeGuardExceeded("congruence properties guarded at carrier size 64")
    lat = lattice or congruence_lattice(A)
    cons = lat.congruences
    k = len(cons)

    permutable = all(
        permutes(cons[i], cons[j], cons[lat.join(i, j)], cons[lat.meet(i, j)])
        for i in range(k)
        for j in range(i + 1, k)
    )

    up = lat.up
    everything = (1 << k) - 1

    def join_prime(j: int) -> bool:
        # the up-set of the join of all x not above j
        common = reduce(and_, (up[x] for x in bits(everything & ~up[j])), everything)
        return bool(common & ~up[j])

    distributive = all(join_prime(j) for j in lat.irreducible)

    weakly_regular: bool | None = None
    if unit_constant is not None:
        unit = unit_constant if isinstance(unit_constant, int) else A.constant(unit_constant)
        classes = [frozenset(c.block_of(unit)) for c in cons]
        weakly_regular = len(set(classes)) == k

    return CongruenceProperties(
        permutable, distributive, permutable and distributive, weakly_regular
    )


# -- term schemes ------------------------------------------------------------------


def verify_term_conditions(
    A: Algebra, profile: str | None = None
) -> dict[str, dict[str, Report]]:
    """Check the majority / Maltsev / weak-regularity schemes exhaustively.

    With a profile the scheme set is the one its theory supports; without
    one, every scheme whose symbols the algebra's signature has is tried.
    The scheme tables (``schemes``) and the checker load on the first call.
    """
    from .schemes import _PROFILE_SCHEMES, _SCHEMES
    from .terms import check_formula

    if profile is None:
        keys = [k for k, (needs, _) in _SCHEMES.items() if all(A.signature.has(*s) for s in needs)]
    else:
        if profile not in _PROFILE_SCHEMES:
            raise ValueError(f"unknown profile {profile!r}")
        keys = _PROFILE_SCHEMES[profile]
    out: dict[str, dict[str, Report]] = {}
    for key in keys:
        needs, identities = _SCHEMES[key]
        for s, a in needs:
            if not A.signature.has(s, a):
                raise MissingSymbol(f"scheme {key} needs {s!r}/{a}")
        out[key] = {name: check_formula(A, f) for name, f in identities}
    return out
