"""Shared test utilities: independent oracles and hypothesis strategies.

The oracle functions deliberately avoid the library's bitset fast paths:
cones are recomputed with plain double loops over ``leq``, congruence
lattice tables with ``join2``/``meet2`` and plain scans, canonical keys by
an unpruned backtracking, and the list of posets by keying every one-element
extension of every smaller poset, so that golden values are checked through
a second, dumber route.  Congruences are also read as plain sets of pairs,
composed and closed directly, and operation tables are read by arity case.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from string import ascii_lowercase

from hypothesis import strategies as st

from ordalg import Poset, build_poset, direct_product
from ordalg.algebra import JOIN, MEET, Algebra, canonical_choice, table_from_choice
from ordalg.congruence import (
    Congruence,
    all_congruences_bruteforce,
    join2,
    meet2,
    principal_congruence,
)
from ordalg.decompose import FactorPair
from ordalg.enumeration import default_labels
from ordalg.poset import (
    _DUAL_EQ,
    _PRIMARY_EQ,
    DistributivityReport,
    _check_triple,
    bits,
    closure_rows,
)


def idx(P: Poset, *labels: str):
    out = tuple(P.index(l) for l in labels)
    return out[0] if len(out) == 1 else out


def all_hold(reports) -> bool:
    """Every report in a ``{name: Report}`` mapping holds."""
    return all(r.holds for r in reports.values())


def labset(P: Poset, members) -> set[str]:
    return {P.labels[i] for i in members}


def raw_lower(P: Poset, elems) -> set[int]:
    """Brute-force lower cone via pairwise leq only."""
    return {w for w in range(P.n) if all(P.leq(w, s) for s in elems)}


def raw_upper(P: Poset, elems) -> set[int]:
    return {w for w in range(P.n) if all(P.leq(s, w) for s in elems)}


def directedness_oracle(P: Poset) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
    """The first pair x < y with an empty lower cone, and the first with an
    empty upper cone, by the pairwise cone scan; None where there is none."""
    pairs = [(x, y) for x in range(P.n) for y in range(x + 1, P.n)]
    down = next((p for p in pairs if not raw_lower(P, p)), None)
    up = next((p for p in pairs if not raw_upper(P, p)), None)
    return down, up


def raw_greatest(P: Poset, members: set[int]) -> int | None:
    for z in members:
        if all(P.leq(w, z) for w in members):
            return z
    return None


def raw_maximal(P: Poset, members) -> list[int]:
    return sorted(z for z in members if not any(w != z and P.leq(z, w) for w in members))


def raw_cells(P: Poset, op: str):
    """Each cell of the operation ("pc", "rpc" or "spc") in row-major order
    with its candidate set, from raw cone loops; None for the
    pseudocomplement of a bottomless P."""
    n = P.n
    if op == "pc":
        bottoms = [w for w in range(n) if raw_upper(P, {w}) == set(range(n))]
        if not bottoms:
            return None
        return [((x,), {y for y in range(n) if raw_lower(P, {x, y}) == set(bottoms)})
                for x in range(n)]
    if op == "rpc":
        inside = lambda x, y, z: raw_lower(P, {x, z}) <= raw_lower(P, {y})
    else:
        inside = lambda x, y, z: raw_lower(P, raw_upper(P, {x, y}) | {z}) == raw_lower(P, {y})
    return [((x, y), {z for z in range(n) if inside(x, y, z)})
            for x in range(n) for y in range(n)]


def raw_scan(P: Poset, op: str):
    """The operation's cells by sets: (entries, absent, fallback), or None
    where :func:`raw_cells` is.

    ``entries`` is the best-effort table in row-major order: the greatest
    candidate, else x on a sectional diagonal, else the first maximal
    candidate by index; no candidate set is empty.  ``absent`` lists the cells
    with no greatest candidate and no diagonal fallback, each with its
    maximal candidates, as a classification witness; ``fallback`` lists the
    x whose sectional (x, x) fell back to x.
    """
    cells = raw_cells(P, op)
    if cells is None:
        return None
    entries, absent, fallback = [], [], []
    for cell, cand in cells:
        assert cand, f"{op} cell {cell} has no candidate"
        greatest, maximal = raw_greatest(P, cand), raw_maximal(P, cand)
        if greatest is not None:
            entries.append(greatest)
        elif op == "spc" and cell[0] == cell[1]:
            entries.append(cell[0])
            fallback.append(cell[0])
        else:
            absent.append(dict(zip("xy", cell), maximal=tuple(maximal)))
            entries.append(maximal[0])
    return entries, absent, fallback


def product_choices(P: Poset, kind: str) -> list | None:
    """Every cone choice in ``itertools.product`` order, by plain loops over
    ``leq``; ``None`` when some cone is empty.  λ choices are (meet, join)
    pairs with meet varying slowest."""
    pairs = [(x, y) for x in range(P.n) for y in range(x + 1, P.n)
             if not P.leq(x, y) and not P.leq(y, x)]
    if kind == "lambda":
        meets, joins = product_choices(P, "meet"), product_choices(P, "join")
        if meets is None or joins is None:
            return None
        return list(product(meets, joins))
    raw = raw_lower if kind == "meet" else raw_upper
    cones = [sorted(raw(P, {x, y})) for x, y in pairs]
    if not all(cones):
        return None
    return [dict(zip(pairs, values)) for values in product(*cones)]


def poset_from_index_pairs(n: int, pairs) -> Poset:
    """Poset from edges i<j (index order), via closure; always acyclic."""
    up = [0] * n
    for i, j in pairs:
        up[i] |= 1 << j
    up = closure_rows(up, n)
    down = [0] * n
    for x in range(n):
        m = up[x]
        while m:
            low = m & -m
            down[low.bit_length() - 1] |= 1 << x
            m ^= low
    return Poset(default_labels(n), down)


def meet_directoid(P: Poset, choice=None) -> Algebra:
    c = canonical_choice(P, "meet") if choice is None else choice
    return Algebra(P.labels, [(MEET, 2, table_from_choice(P, c, "meet"))])


def join_directoid(P: Poset, choice=None) -> Algebra:
    c = canonical_choice(P, "join") if choice is None else choice
    return Algebra(P.labels, [(JOIN, 2, table_from_choice(P, c, "join"))])


def lambda_algebra(P: Poset, meet=None, join=None) -> Algebra:
    mc = canonical_choice(P, "meet") if meet is None else meet
    jc = canonical_choice(P, "join") if join is None else join
    return Algebra(
        P.labels,
        [
            (JOIN, 2, table_from_choice(P, jc, "join")),
            (MEET, 2, table_from_choice(P, mc, "meet")),
        ],
    )


@st.composite
def posets(draw, min_n: int = 1, max_n: int = 6):
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return build_poset(["a"], [])
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=n * (n - 1) // 2,
        )
    )
    return poset_from_index_pairs(n, pairs)


def wide_poset() -> Poset:
    """0 below six atoms l0-l5, each below all six coatoms u0-u5, below 1:
    a λ-space of 7^30 assignments, more than ``sys.maxsize``."""
    lows, highs = [f"l{i}" for i in range(6)], [f"u{i}" for i in range(6)]
    pairs = [("0", l) for l in lows] + [(l, u) for l in lows for u in highs]
    return build_poset(["0", *lows, *highs, "1"], pairs + [(u, "1") for u in highs])


@st.composite
def bounded_posets(draw, max_inner: int = 4):
    """Posets with forced bottom and top (hence directed)."""
    inner = draw(posets(min_n=1, max_n=max_inner))
    n = inner.n + 2
    pairs = [(0, i + 1) for i in range(inner.n)] + [(i + 1, n - 1) for i in range(inner.n)]
    for x in range(inner.n):
        for y in range(inner.n):
            if x != y and inner.leq(x, y):
                pairs.append((x + 1, y + 1))
    return poset_from_index_pairs(n, pairs)


def lattice_oracle(cons):
    """Join and meet tables by ``join2``/``meet2`` on every pair, the Hasse
    relation by the plain scan for an element strictly in between, and the
    order itself: ``leq[i][j]`` iff ``cons[i].refines(cons[j])``."""
    index = {c: i for i, c in enumerate(cons)}
    k = len(cons)
    join_t = tuple(tuple(index[join2(a, b)] for b in cons) for a in cons)
    meet_t = tuple(tuple(index[meet2(a, b)] for b in cons) for a in cons)
    leq = [[a.refines(b) for b in cons] for a in cons]
    hasse = tuple(
        (i, j)
        for i in range(k)
        for j in range(k)
        if i != j
        and leq[i][j]
        and not any(m != i and m != j and leq[i][m] and leq[m][j] for m in range(k))
    )
    return join_t, meet_t, hasse, leq


def distributive_oracle(join_t, meet_t) -> bool:
    """The distributive identity x ∧ (y ∨ z) = (x ∧ y) ∨ (x ∧ z) on every triple."""
    k = len(join_t)
    return all(
        meet_t[i][join_t[j][m]] == join_t[meet_t[i][j]][meet_t[i][m]]
        for i in range(k)
        for j in range(k)
        for m in range(k)
    )


def _oracle_ranks(P: Poset) -> list[int]:
    def compress(values):
        order = {v: i for i, v in enumerate(sorted(set(values)))}
        return [order[v] for v in values]

    ranks = compress([(P.down[x].bit_count(), P.up[x].bit_count()) for x in range(P.n)])
    while True:
        fresh = compress([
            (
                ranks[x],
                tuple(sorted(ranks[y] for y in range(P.n) if y != x and P.leq(y, x))),
                tuple(sorted(ranks[y] for y in range(P.n) if y != x and P.leq(x, y))),
            )
            for x in range(P.n)
        ])
        if fresh == ranks:
            return ranks
        ranks = fresh


def canonical_key_oracle(P: Poset) -> tuple:
    """The canonical key by refinement to a fixpoint and a backtracking that
    tries every unused element of the position's class (no twin pruning)."""
    n = P.n
    ranks = _oracle_ranks(P)
    sizes = [ranks.count(r) for r in range(max(ranks) + 1)]
    slots = [[x for x in range(n) if ranks[x] == r] for r in range(len(sizes)) for _ in range(sizes[r])]
    best: list[tuple] = []

    def place(order: list[int], sig: tuple) -> None:
        if len(order) == n:
            if not best or sig < best[0]:
                best[:] = [sig]
            return
        for v in slots[len(order)]:
            if v in order:
                continue
            code = sum(
                P.leq(v, w) << (2 * j) | P.leq(w, v) << (2 * j + 1)
                for j, w in enumerate(order)
            )
            nsig = sig + (code,)
            if best and nsig > best[0][: len(nsig)]:
                continue
            place(order + [v], nsig)

    place([], ())
    return (n, tuple(sizes)) + best[0]


@lru_cache(maxsize=None)
def all_posets_oracle(n: int) -> tuple[tuple, ...]:
    """Canonical keys of the n-posets, ascending: every poset of ``n - 1``
    elements extended by a new maximal element above each of its down-sets,
    keyed by :func:`canonical_key_oracle` and deduplicated."""
    if n == 1:
        return (canonical_key_oracle(Poset(["a"], [1])),)
    labels = ascii_lowercase[:n]
    keys = set()
    for key in all_posets_oracle(n - 1):
        P = poset_from_key(key)
        for ideal in range(1 << P.n):
            if all(P.down[x] & ~ideal == 0 for x in bits(ideal)):
                keys.add(canonical_key_oracle(Poset(labels, P.down + (ideal | 1 << P.n,))))
    return tuple(sorted(keys))


def poset_from_key(key: tuple) -> Poset:
    """The poset a canonical key encodes, in its canonical labelling."""
    n, codes = key[0], key[2:]
    down = [1 << i for i in range(n)]
    for i, code in enumerate(codes):
        for j in range(i):
            if code >> (2 * j) & 1:  # i <= j
                down[j] |= 1 << i
            if code >> (2 * j + 1) & 1:  # j <= i
                down[i] |= 1 << j
    return Poset(ascii_lowercase[:n], down)


def distributivity_oracle(P: Poset) -> DistributivityReport:
    """Both cone equalities at every triple in (x, y, z) order, primary
    first; the first failure is the report."""
    for x, y, z in product(range(P.n), repeat=3):
        for dual, name in ((False, _PRIMARY_EQ), (True, _DUAL_EQ)):
            holds, lhs, rhs = _check_triple(P, x, y, z, dual)
            if not holds:
                return DistributivityReport(
                    False, (x, y, z), name, frozenset(bits(lhs)), frozenset(bits(rhs))
                )
    return DistributivityReport(True)


@st.composite
def twin_posets(draw, max_n: int = 6):
    """Posets with many incomparable twins: each element of a small base
    poset is replaced by an antichain of up to three copies (one base
    element gives an antichain)."""
    base = draw(posets(max_n=4))
    copies = [draw(st.integers(1, 3)) for _ in range(base.n)]
    owner = [x for x in range(base.n) for _ in range(copies[x])][:max_n]
    pairs = [
        (i, j)
        for i in range(len(owner))
        for j in range(i + 1, len(owner))
        if owner[i] != owner[j] and base.leq(owner[i], owner[j])
    ]
    return poset_from_index_pairs(len(owner), pairs)


def relabel(P: Poset, perm: list[int]) -> Poset:
    """P with element x renamed perm[x]."""
    down = [0] * P.n
    for x in range(P.n):
        for y in bits(P.down[x]):
            down[perm[x]] |= 1 << perm[y]
    return Poset(P.labels, down)


# -- congruences as relations, tables by arity ------------------------------------


def relation(c: Congruence) -> frozenset[tuple[int, int]]:
    """The congruence as its set of related pairs."""
    return frozenset((a, b) for a in range(c.n) for b in range(c.n) if c.rep[a] == c.rep[b])


def compose(r, s) -> frozenset[tuple[int, int]]:
    """Relational composition r∘s: a r b s c."""
    after: dict[int, list[int]] = {}
    for b, c in s:
        after.setdefault(b, []).append(c)
    return frozenset((a, c) for a, b in r for c in after.get(b, ()))


def relations_permute(r, s) -> bool:
    return compose(r, s) == compose(s, r)


def transitive_closure(r) -> frozenset[tuple[int, int]]:
    while True:
        wider = r | compose(r, r)
        if wider == r:
            return r
        r = wider


def plain_join(c1: Congruence, c2: Congruence) -> Congruence:
    """c1 ∨ c2 from scratch: every element takes the least label of its
    neighbours under either partition until no label drops."""
    label = list(range(c1.n))
    changed = True
    while changed:
        changed = False
        for a in range(c1.n):
            least = min(label[a], label[c1.rep[a]], label[c2.rep[a]])
            for b in (a, c1.rep[a], c2.rep[a]):
                if label[b] > least:
                    label[b] = least
                    changed = True
    return Congruence(tuple(label))


def principal_join_closure(A: Algebra) -> tuple[Congruence, ...]:
    """Every congruence, sorted by ``rep``: ``principal_congruence`` for every
    pair, closed under ``plain_join``."""
    principals = {principal_congruence(A, a, b) for a in range(A.n) for b in range(a, A.n)}
    found = set(principals)
    frontier = list(principals)
    while frontier:
        joins = {plain_join(c, p) for c in frontier for p in principals}
        frontier = list(joins - found)
        found |= joins
    return tuple(sorted(found, key=lambda c: c.rep))


def power(A: Algebra, k: int) -> Algebra:
    """A × A × ... × A, k factors."""
    out = A
    for _ in range(k - 1):
        out = direct_product(out, A)
    return out


def factor_pair_scan(cons) -> tuple[FactorPair, ...]:
    """Every pair i <= j of ``cons``, oriented finer first, that the
    :class:`FactorPair` constructor accepts."""
    out = []
    for i, t in enumerate(cons):
        for p in cons[i:]:
            a, b = sorted((t, p), key=lambda c: (-c.num_blocks, c.rep))
            try:
                out.append(FactorPair(a, b))
            except ValueError:
                pass
    return tuple(out)


def congruence_census_oracle(A: Algebra) -> tuple[bool, bool]:
    """(distributive, permutable) of Con(A), from the partition scan and
    relations alone: meets are intersections, joins transitive closures of
    unions, distributivity the identity on every triple, and permutability
    composition on every pair."""
    rels = [relation(c) for c in all_congruences_bruteforce(A)]
    index = {r: i for i, r in enumerate(rels)}
    join_t = [[index[transitive_closure(r | s)] for s in rels] for r in rels]
    meet_t = [[index[r & s] for s in rels] for r in rels]
    permutable = all(relations_permute(r, s) for i, r in enumerate(rels) for s in rels[i + 1:])
    return distributive_oracle(join_t, meet_t), permutable


def entry(table, arity: int, args):
    """``table`` at ``args``, read case by case."""
    if arity == 0:
        return table
    if arity == 1:
        return table[args[0]]
    return table[args[0]][args[1]]


@st.composite
def algebras(draw, max_n: int = 5):
    """Random algebras with one constant c, one unary f and one binary g.

    The tables respect a drawn colouring of the carrier (each entry's colour
    depends only on its arguments' colours), so that partition is always a
    congruence and Con(A) is seldom just {Δ, ∇}.
    """
    n = draw(st.integers(1, max_n))
    colour = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    members: dict[int, list[int]] = {}
    for a, c in enumerate(colour):
        members.setdefault(c, []).append(a)

    def table(arity: int):
        quotient: dict[tuple[int, ...], int] = {}

        def value(*args: int) -> int:
            key = tuple(colour[a] for a in args)
            if key not in quotient:
                quotient[key] = draw(st.sampled_from(sorted(members)))
            return draw(st.sampled_from(members[quotient[key]]))

        if arity == 0:
            return value()
        if arity == 1:
            return [value(a) for a in range(n)]
        return [[value(a, b) for b in range(n)] for a in range(n)]

    return Algebra([str(i) for i in range(n)], [("c", 0, table(0)), ("f", 1, table(1)), ("g", 2, table(2))])
