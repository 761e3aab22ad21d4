"""Enumeration of finite posets up to isomorphism and canonical labelling.

Canonical forms use iterated colour refinement followed by a class-respecting
min-lex backtracking search, so two posets get equal keys exactly when they
are order-isomorphic.  The search tries only one of each set of incomparable
twins (elements with equal strict down- and up-sets) at a position: swapping
two twins is an automorphism fixing every placed element, so the least
signature is the same either way.

Enumeration is by canonical augmentation (B. D. McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  Every n-poset Q is some
(n-1)-poset P plus a new maximal element v above a down-set of P.  Among the
maximal elements of Q with the largest down-set and, after that, the largest
refined colour, the canonical deletions are those w whose Q - w has the least
key.  Q is kept from (P, v) only when v is one of them, so every Q comes from
exactly one listed parent, and only that parent's children need deduplicating.
Most candidates fail on down-set sizes alone, and a twin of v needs no key,
since deleting it leaves a copy of P.  A candidate is colour-refined at most
once: the ranks of the tie test are the ones its key starts from.

Enumerated and sampled posets are built from rows that are partial orders by
construction (a new maximal element over a down-set, the deletion of a
maximal element, a transitive closure), so they skip the validating
constructor; the tests check every such poset against it.
"""

from __future__ import annotations

import random
from functools import lru_cache
from string import ascii_lowercase
from typing import Callable

from .poset import Poset, bits, closure_rows


def default_labels(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(ascii_lowercase[:n])
    return tuple(f"x{i}" for i in range(n))


def refine_colours(colours: list, step: Callable[[list[int]], list]) -> list[int]:
    """Iterated colour refinement to its fixpoint, as ranks ``0..k-1``.

    ``colours`` are the elements' initial colours, mutually comparable.
    ``step(ranks)`` gives each element's next colour, a tuple whose first
    entry is its current rank, so a round can only split classes: once a
    round splits none, or every element has a colour of its own, the ranks
    are final.  Ranks follow the sorted order of the colours they stand for.
    """
    ranks, count = _compress(colours)
    while count < len(ranks):
        fresh, fresh_count = _compress(step(ranks))
        if fresh_count == count:
            break
        ranks, count = fresh, fresh_count
    return ranks


def _compress(values: list) -> tuple[list[int], int]:
    order = {v: i for i, v in enumerate(sorted(set(values)))}
    return [order[v] for v in values], len(order)


@lru_cache(maxsize=1024)
def _members(mask: int) -> tuple[int, ...]:
    """``bits(mask)`` as a tuple; the rows of small posets repeat across
    the many candidates enumeration refines."""
    return tuple(bits(mask))


def _refined_ranks(P: Poset) -> list[int]:
    n = P.n
    below = [_members(P.down[x] ^ (1 << x)) for x in range(n)]
    above = [_members(P.up[x] ^ (1 << x)) for x in range(n)]

    def step(ranks: list[int]) -> list[tuple]:
        at = ranks.__getitem__
        return [
            (ranks[x], tuple(sorted(map(at, below[x]))), tuple(sorted(map(at, above[x]))))
            for x in range(n)
        ]

    return refine_colours([(P.down[x].bit_count(), P.up[x].bit_count()) for x in range(n)], step)


def canonical_key(P: Poset, *, ranks: list[int] | None = None) -> tuple:
    """Relabelling-invariant key; equal keys iff isomorphic posets.

    ``ranks`` are P's refined colours when the caller already has them.
    """
    n = P.n
    if ranks is None:
        ranks = _refined_ranks(P)
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(ranks[x], []).append(x)
    class_of_pos: list[list[int]] = []
    for r in sorted(classes):
        class_of_pos.extend([classes[r]] * len(classes[r]))
    down, up = P.down, P.up
    shape = [(down[v] ^ (1 << v), up[v] ^ (1 << v)) for v in range(n)]

    best: list[tuple] = [()]
    used = [False] * n
    order: list[int] = []

    def place(pos: int, sig: tuple) -> None:
        if pos == n:
            if not best[0] or sig < best[0]:
                best[0] = sig
            return
        tried = set()
        for v in class_of_pos[pos]:
            if used[v] or shape[v] in tried:
                continue
            tried.add(shape[v])
            up_v, down_v = up[v], down[v]
            code = 0
            for j, w in enumerate(order):
                code |= ((up_v >> w & 1) | (down_v >> w & 1) << 1) << (2 * j)
            nsig = sig + (code,)
            if best[0] and nsig > best[0][: pos + 1]:
                continue
            used[v] = True
            order.append(v)
            place(pos + 1, nsig)
            order.pop()
            used[v] = False

    place(0, ())
    return (n, tuple(len(classes[r]) for r in sorted(classes))) + best[0]


def down_set_masks(P: Poset) -> list[int]:
    """All down-sets (order ideals) of P as bitsets, including 0 and P, ascending.

    Elements are added in a linear extension (by down-set size): a down-set
    may take the next element exactly when it holds everything below it.
    """
    out = [0]
    for x in sorted(range(P.n), key=lambda x: P.down[x].bit_count()):
        below = P.down[x] ^ (1 << x)
        out += [m | 1 << x for m in out if below & ~m == 0]
    return sorted(out)


def _with_new_maximal(P: Poset, ideal: int) -> Poset:
    """P plus a new last element v above the down-set ``ideal``: v joins the
    up-row of each member of the ideal."""
    bit = 1 << P.n
    down = P.down + (ideal | bit,)
    up = tuple(u | bit if ideal >> x & 1 else u for x, u in enumerate(P.up)) + (bit,)
    return Poset._trusted(default_labels(P.n + 1), down, up)


def _without_maximal(Q: Poset, w: int) -> Poset:
    """Q - w for a maximal w; no other down-row holds w, so down-rows only
    shift, and the same shift drops w from the up-rows."""
    low = (1 << w) - 1

    def shift(rows: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((r & low) | (r >> 1 & ~low) for x, r in enumerate(rows) if x != w)

    return Poset._trusted(default_labels(Q.n - 1), shift(Q.down), shift(Q.up))


def _children(P: Poset) -> dict[tuple, Poset]:
    """The one-element extensions P + v that canonical augmentation keeps,
    by key; v is the new last element, maximal above a down-set of P."""
    v = P.n
    size = [P.down[w].bit_count() for w in range(v)]
    maximal = [w for w in range(v) if P.up[w] == 1 << w]
    parent_key: tuple = ()  # computed when first needed
    children: dict[tuple, Poset] = {}
    for ideal in down_set_masks(P):
        height = ideal.bit_count() + 1
        rivals = [w for w in maximal if not ideal >> w & 1]
        if any(size[w] > height for w in rivals):
            continue
        Q = _with_new_maximal(P, ideal)
        ties = [w for w in rivals if size[w] == height]
        ranks = None
        if ties:
            ranks = _refined_ranks(Q)
            if any(ranks[w] > ranks[v] for w in ties):
                continue
            # a twin w of v (same down-set) has Q - w isomorphic to Q - v = P
            others = [w for w in ties if ranks[w] == ranks[v] and P.down[w] ^ (1 << w) != ideal]
            if others:
                parent_key = parent_key or canonical_key(P)
                if any(canonical_key(_without_maximal(Q, w)) < parent_key for w in others):
                    continue
        children.setdefault(canonical_key(Q, ranks=ranks), Q)
    return children


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple[Poset, ...]:
    """All posets on n elements up to isomorphism, in canonical-key order.

    Each poset is grown from one (n-1)-poset by canonical augmentation (see
    the module docstring); its labelling is the parent's plus the new
    maximal element last.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (Poset(("a",), (1,)),)
    found: list[tuple[tuple, Poset]] = []
    for P in all_posets(n - 1):
        found.extend(_children(P).items())
    return tuple(Q for _, Q in sorted(found))


def random_poset(rng: random.Random, n: int) -> Poset:
    """Transitive closure of a random DAG on index order, each edge i→j
    (i < j) drawn with probability 1/2."""
    up = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                up[i] |= 1 << j
    up = closure_rows(up, n)
    down = [0] * n
    for x in range(n):
        for y in bits(up[x]):
            down[y] |= 1 << x
    return Poset._trusted(default_labels(n), tuple(down), tuple(up))
