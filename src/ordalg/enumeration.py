"""Enumeration of finite posets up to isomorphism and canonical labelling.

Canonical forms use iterated colour refinement followed by a class-respecting
min-lex backtracking search, so two posets get equal keys exactly when they
are order-isomorphic.  Enumeration grows posets one maximal element at a time:
every n-poset arises from an (n-1)-poset by attaching a new maximal element
above a down-set, so extending every smaller poset by every down-set and
deduplicating by canonical key is exhaustive.
"""

from __future__ import annotations

import random
from functools import lru_cache
from string import ascii_lowercase

from .poset import Poset, bits, closure_rows


def default_labels(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(ascii_lowercase[:n])
    return tuple(f"x{i}" for i in range(n))


def _compress(values: list) -> list[int]:
    order = {v: i for i, v in enumerate(sorted(set(values)))}
    return [order[v] for v in values]


def _refined_ranks(P: Poset) -> list[int]:
    n = P.n
    ranks = _compress([(P.down[x].bit_count(), P.up[x].bit_count()) for x in range(n)])
    while True:
        fresh = []
        for x in range(n):
            below = tuple(sorted(ranks[y] for y in bits(P.down[x] ^ (1 << x))))
            above = tuple(sorted(ranks[y] for y in bits(P.up[x] ^ (1 << x))))
            fresh.append((ranks[x], below, above))
        new_ranks = _compress(fresh)
        if new_ranks == ranks:
            return ranks
        ranks = new_ranks


def canonical_key(P: Poset) -> tuple:
    """Relabelling-invariant key; equal keys iff isomorphic posets."""
    n = P.n
    ranks = _refined_ranks(P)
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(ranks[x], []).append(x)
    class_of_pos: list[list[int]] = []
    for r in sorted(classes):
        class_of_pos.extend([classes[r]] * len(classes[r]))

    best: list[tuple] = [()]
    used = [False] * n
    order: list[int] = []

    def place(pos: int, sig: tuple) -> None:
        if pos == n:
            if not best[0] or sig < best[0]:
                best[0] = sig
            return
        for v in class_of_pos[pos]:
            if used[v]:
                continue
            code = 0
            for j, w in enumerate(order):
                code |= P.leq(v, w) << (2 * j)
                code |= P.leq(w, v) << (2 * j + 1)
            nsig = sig + (code,)
            if best[0] and len(best[0]) >= len(nsig) and nsig > best[0][: len(nsig)]:
                continue
            used[v] = True
            order.append(v)
            place(pos + 1, nsig)
            order.pop()
            used[v] = False

    place(0, ())
    return (n, tuple(len(classes[r]) for r in sorted(classes))) + best[0]


def are_isomorphic(P: Poset, Q: Poset) -> bool:
    return P.n == Q.n and canonical_key(P) == canonical_key(Q)


def down_set_masks(P: Poset) -> list[int]:
    """All down-sets (order ideals) of P as bitsets, including 0 and P."""
    out = []
    for m in range(1 << P.n):
        if all(P.down[x] & ~m == 0 for x in bits(m)):
            out.append(m)
    return out


def _with_new_maximal(P: Poset, ideal: int) -> Poset:
    n = P.n + 1
    down = P.down + (ideal | (1 << (n - 1)),)
    return Poset(default_labels(n), down)


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple[Poset, ...]:
    """All posets on n elements up to isomorphism, in canonical-key order."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (Poset(("a",), (1,)),)
    seen: dict[tuple, Poset] = {}
    for P in all_posets(n - 1):
        for ideal in down_set_masks(P):
            Q = _with_new_maximal(P, ideal)
            seen.setdefault(canonical_key(Q), Q)
    return tuple(Q for _, Q in sorted(seen.items()))


def random_poset(rng: random.Random, n: int, edge_prob: float = 0.5) -> Poset:
    """Transitive closure of a random DAG on index order."""
    up = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                up[i] |= 1 << j
    up = closure_rows(up, n)
    down = [0] * n
    for x in range(n):
        for y in bits(up[x]):
            down[y] |= 1 << x
    return Poset(default_labels(n), down)
