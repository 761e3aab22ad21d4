"""Direct products, quotients, factor congruence pairs, and decomposition.

A factor pair is two congruences joining to the total relation, meeting in
the identity, and permuting under relational composition; exactly then the
natural map a ↦ ([a]Θ, [a]Φ) is an isomorphism onto the product of the two
quotients (S. Burris and H. P. Sankappanavar, *A Course in Universal
Algebra*, 1981, II §7).  :class:`FactorPair` checks all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import Algebra, product_table, reindex_table
from .congruence import (
    Congruence,
    CongruenceLattice,
    congruence_lattice,
    is_congruence,
    join2,
    meet2,
    permutes,
)
from .errors import NotACongruence, SignatureMismatch, SizeGuardExceeded

ISO_GUARD = 12


def direct_product(A1: Algebra, A2: Algebra) -> Algebra:
    """Componentwise product; element (i, j) has index i*|A2|+j."""
    if A1.signature != A2.signature:
        raise SignatureMismatch(
            f"signatures differ: {A1.signature.symbols} vs {A2.signature.symbols}"
        )
    labels = tuple(f"({l1},{l2})" for l1 in A1.labels for l2 in A2.labels)
    ops = [
        (name, arity, product_table(t1, t2, arity, A2.n))
        for (name, arity), t1, t2 in zip(A1.signature.symbols, A1.tables, A2.tables)
    ]
    return Algebra(labels, ops)


def quotient(A: Algebra, theta: Congruence) -> Algebra:
    """Quotient algebra on blocks; well-definedness comes from compatibility."""
    ok, violation = is_congruence(A, theta)
    if not ok:
        raise NotACongruence(f"partition is not compatible: {violation!r}")
    blocks = theta.blocks()
    leaders = [b[0] for b in blocks]
    cls = [leaders.index(r) for r in theta.rep]
    labels = tuple("{" + ",".join(A.labels[e] for e in b) + "}" for b in blocks)
    ops = [
        (name, arity, reindex_table(table, arity, leaders, cls))
        for (name, arity), table in zip(A.signature.symbols, A.tables)
    ]
    return Algebra(labels, ops)


@dataclass(frozen=True)
class FactorPair:
    """A factor congruence pair (Θ, Φ): Θ∨Φ = ∇ by ``join2``, Θ∧Φ = Δ by
    ``meet2``, and Θ∘Φ = Φ∘Θ by ``permutes`` on those two, which then reads
    |A/Θ|·|A/Φ| = |A|.

    ``factor_pairs`` orients every pair finer first: Θ has at least as many
    blocks as Φ, and on equal block counts Θ has the smaller ``rep``.
    """

    theta: Congruence
    phi: Congruence

    def __post_init__(self):
        join = join2(self.theta, self.phi)
        if not join.is_total:
            raise ValueError("factor pair must join to the total congruence")
        meet = meet2(self.theta, self.phi)
        if not meet.is_identity:
            raise ValueError("factor pair must meet in the identity congruence")
        if not permutes(self.theta, self.phi, join, meet):
            raise ValueError("factor pair congruences must permute")

    @property
    def nontrivial(self) -> bool:
        return not (
            self.theta.is_identity
            or self.theta.is_total
            or self.phi.is_identity
            or self.phi.is_total
        )


def factor_pairs(A: Algebra, lattice: CongruenceLattice | None = None) -> tuple[FactorPair, ...]:
    """Every unordered pair {Θ, Φ} with join ∇, meet Δ, permuting composition.

    Each pair is reported once, oriented finer first: Θ has more blocks than
    Φ, or as many blocks and the smaller ``rep``.  The trivial pair is (Δ, ∇).

    The lattice gives every join and meet by one lookup
    (``CongruenceLattice.join`` and ``meet``), so a pair is skipped unless
    they read join ∇ and meet Δ; a :class:`FactorPair` is built only for the
    pairs left, and its constructor still checks all three conditions,
    permutability included.
    """
    lat = lattice or congruence_lattice(A)
    cons = lat.congruences
    top = cons.index(Congruence.total(A.n))
    bottom = cons.index(Congruence.identity(A.n))
    out = []
    for i in range(len(cons)):
        for j in range(i, len(cons)):
            if lat.join(i, j) != top or lat.meet(i, j) != bottom:
                continue
            t, p = cons[i], cons[j]
            if (-p.num_blocks, p.rep) < (-t.num_blocks, t.rep):
                t, p = p, t
            try:
                fp = FactorPair(t, p)  # its constructor is the only check
            except ValueError:
                continue
            out.append(fp)
    return tuple(out)


@dataclass(frozen=True)
class Decomposition:
    indecomposable: bool
    left: Algebra | None = None
    right: Algebra | None = None
    pair: FactorPair | None = None  # (kernel onto left, kernel onto right), in rep order
    embedding: tuple[tuple[int, int], ...] | None = None  # a ↦ (left block, right block)


def decompose(A: Algebra, guard: int = ISO_GUARD) -> Decomposition:
    """Split off the first nontrivial factor pair (fewest blocks first).

    Each candidate is put in ``rep`` order before it is ranked, so which pair
    is chosen, and which of its congruences gives the left factor, do not
    depend on how ``factor_pairs`` orients its pairs.  The natural map into
    the product of the two quotients is rebuilt and verified to be a
    bijective homomorphism before returning.
    """
    if A.n > guard:
        raise SizeGuardExceeded(f"decompose guarded at {guard} elements (carrier {A.n})")
    lat = congruence_lattice(A)
    candidates = [
        sorted((fp.theta, fp.phi), key=lambda c: c.rep)
        for fp in factor_pairs(A, lat)
        if fp.nontrivial
    ]
    if not candidates:
        return Decomposition(True)
    theta, phi = min(candidates, key=lambda tp: (tp[0].num_blocks, tp[0].rep, tp[1].rep))
    fp = FactorPair(theta, phi)
    left = quotient(A, fp.theta)
    right = quotient(A, fp.phi)
    lb = {b[0]: i for i, b in enumerate(fp.theta.blocks())}
    rb = {b[0]: i for i, b in enumerate(fp.phi.blocks())}
    embedding = tuple(
        (lb[fp.theta.rep[a]], rb[fp.phi.rep[a]]) for a in range(A.n)
    )
    if len(set(embedding)) != A.n or left.n * right.n != A.n:
        raise AssertionError("natural map is not a bijection; factor pair check is broken")
    # h is a bijection, so it is a homomorphism iff the product's tables
    # pulled back along h are A's
    prod = direct_product(left, right)
    h = [i * right.n + j for i, j in embedding]
    h_inv = sorted(range(A.n), key=h.__getitem__)
    ops = [(name, arity, reindex_table(t, arity, h, h_inv))
           for (name, arity), t in zip(prod.signature.symbols, prod.tables)]
    if Algebra(A.labels, ops) != A:
        raise AssertionError("natural map is not a homomorphism; factor pair check is broken")
    return Decomposition(False, left, right, fp, embedding)


# -- isomorphism search -----------------------------------------------------------


def _refine_colors(A1: Algebra, A2: Algebra) -> tuple[list[int], list[int]]:
    """Colour refinement of the disjoint union of A1 and A2; equal colours
    are necessary for iso images."""
    from .enumeration import refine_colours

    n1 = A1.n

    def initial(A: Algebra):
        cols = []
        for x in range(A.n):
            parts = []
            for (name, arity), table in zip(A.signature.symbols, A.tables):
                if arity == 0:
                    parts.append(("c", name, table == x))
            cols.append(tuple(parts))
        return cols

    def step(ranks: list[int]):
        out = []
        for A, r in ((A1, ranks[:n1]), (A2, ranks[n1:])):
            for x in range(A.n):
                parts: list = [r[x]]
                for (name, arity), table in zip(A.signature.symbols, A.tables):
                    if arity == 1:
                        parts.append(r[table[x]])
                    elif arity == 2:
                        parts.append(tuple(sorted((r[table[x][y]], r[y]) for y in range(A.n))))
                        parts.append(tuple(sorted((r[table[y][x]], r[y]) for y in range(A.n))))
                out.append(tuple(parts))
        return out

    # colours within one round share a shape, so plain tuple order works
    ranks = refine_colours(initial(A1) + initial(A2), step)
    return ranks[:n1], ranks[n1:]


def find_isomorphism(
    A1: Algebra, A2: Algebra, guard: int = ISO_GUARD
) -> tuple[int, ...] | None:
    """Lexicographically first isomorphism A1 → A2, or None.

    Backtracking assigns images in index order with colour-refinement pruning
    and forward propagation through every operation whose arguments are
    already mapped.
    """
    if A1.signature != A2.signature:
        raise SignatureMismatch("cannot compare algebras over different signatures")
    if A1.n != A2.n:
        return None
    if A1.n > guard:
        raise SizeGuardExceeded(f"isomorphism search guarded at {guard} elements")
    n = A1.n
    col1, col2 = _refine_colors(A1, A2)
    if sorted(col1) != sorted(col2):
        return None
    binaries = [
        (A1.table(name), A2.table(name))
        for (name, arity) in A1.signature.symbols
        if arity == 2
    ]
    unaries = [
        (A1.table(name), A2.table(name))
        for (name, arity) in A1.signature.symbols
        if arity == 1
    ]
    constants = [
        (A1.constant(name), A2.constant(name))
        for (name, arity) in A1.signature.symbols
        if arity == 0
    ]

    fwd = [-1] * n
    bwd = [-1] * n

    def bind(x: int, y: int, trail: list[int]) -> bool:
        """Set fwd[x]=y with consistency propagation; record x on the trail."""
        if fwd[x] != -1:
            return fwd[x] == y
        if bwd[y] != -1 or col1[x] != col2[y]:
            return False
        fwd[x] = y
        bwd[y] = x
        trail.append(x)
        for t1, t2 in unaries:
            if not bind(t1[x], t2[y], trail):
                return False
        for t1, t2 in binaries:
            for z in range(n):
                if fwd[z] != -1:
                    if not bind(t1[x][z], t2[y][fwd[z]], trail):
                        return False
                    if not bind(t1[z][x], t2[fwd[z]][y], trail):
                        return False
        return True

    def undo(trail: list[int], mark: int) -> None:
        while len(trail) > mark:
            x = trail.pop()
            bwd[fwd[x]] = -1
            fwd[x] = -1

    trail: list[int] = []
    for c1v, c2v in constants:
        if not bind(c1v, c2v, trail):
            return None

    def search(x: int) -> bool:
        while x < n and fwd[x] != -1:
            x += 1
        if x == n:
            return True
        for y in range(n):
            if bwd[y] == -1 and col1[x] == col2[y]:
                mark = len(trail)
                if bind(x, y, trail) and search(x + 1):
                    return True
                undo(trail, mark)
        return False

    if search(0):
        return tuple(fwd)
    return None


def kernel_of_projection(A1: Algebra, A2: Algebra, which: int) -> Congruence:
    """Kernel congruence of the first (0) or second (1) projection of A1×A2."""
    n1, n2 = A1.n, A2.n
    if which == 0:
        rep = [ (i * n2) for i in range(n1) for j in range(n2) ]
    else:
        rep = [ j for i in range(n1) for j in range(n2) ]
    return Congruence(tuple(rep))


def is_directly_decomposable_congruence(
    A1: Algebra, A2: Algebra, theta: Congruence
) -> tuple[bool, tuple[Congruence, Congruence] | None]:
    """Search Con(A1) × Con(A2) for a pair whose product relation equals θ."""
    prod = direct_product(A1, A2)
    ok, violation = is_congruence(prod, theta)
    if not ok:
        raise NotACongruence(f"input is not a congruence of the product: {violation!r}")
    n2 = A2.n
    lat1 = congruence_lattice(A1).congruences
    lat2 = congruence_lattice(A2).congruences
    for c1, c2 in product(lat1, lat2):
        rep = tuple(
            c1.rep[i] * n2 + c2.rep[j] for i in range(A1.n) for j in range(n2)
        )
        if rep == theta.rep:
            return True, (c1, c2)
    return False, None
