"""Counterexample / example search over small posets.

Predicates are conjunctions of possibly negated classification atoms
(``spc1 and not sspc``).  A search with ``count`` 0 walks the nonisomorphic
posets in a size range (guarded at n <= 7, where there are 2045 of them);
one with ``count`` > 0 samples that many transitive closures of seeded random
DAGs.  A finite poset is directed exactly when it has a bottom and a top, so
the ``directed`` atom is the ``bounded`` one.  Every hit is re-validated
through a serialize → parse → re-classify round trip before it is yielded, so
the search fast path cannot emit a false positive; sizes therefore stop at
``MAX_CARRIER``, the largest carrier the DSL parses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from . import pc
from .dsl import parse, serialize_poset
from .enumeration import all_posets, random_poset
from .errors import OrdalgError
from .poset import MAX_CARRIER, Poset, extremes, is_distributive, is_lattice

EXHAUSTIVE_GUARD = 7


def _bounded(P: Poset) -> bool:
    return None not in extremes(P)


_ATOMS: dict[str, Callable[[Poset], bool]] = {
    **{kind: (lambda P, kind=kind: pc.classify(P, kind).holds) for kind in pc.KINDS},
    "distributive": lambda P: is_distributive(P).holds,
    "lattice": is_lattice,
    "bounded": _bounded,
    "bottom": lambda P: extremes(P)[0] is not None,
    "top": lambda P: extremes(P)[1] is not None,
    "directed": _bounded,
}

_ATOM_ALIASES = pc._ALIASES

Predicate = tuple[tuple[bool, str], ...]  # conjunction of (negated, atom)


def parse_predicate(text: str) -> Predicate:
    """Parse ``atom [and [not] atom]*`` into a conjunction (no grouping)."""
    if "(" in text or ")" in text:
        raise OrdalgError(f"parentheses are not part of the predicate grammar: {text!r}")
    tokens = text.split()
    if not tokens:
        raise OrdalgError("empty predicate")
    conjuncts: list[tuple[bool, str]] = []
    expect_atom = True
    negated = False
    for word in tokens:
        tok = word.lower()
        if tok == "and":
            if expect_atom:
                raise OrdalgError("misplaced 'and' in predicate")
            expect_atom = True
            negated = False
        elif tok == "not":
            if not expect_atom:
                raise OrdalgError("misplaced 'not' in predicate")
            negated = not negated
        else:
            if not expect_atom:
                raise OrdalgError(f"expected 'and' before {tok!r}")
            atom = _ATOM_ALIASES.get(tok, tok)
            if atom not in _ATOMS:
                raise OrdalgError(
                    f"unknown predicate atom {tok!r}; known: "
                    + ", ".join(sorted(set(_ATOMS) | set(_ATOM_ALIASES)))
                )
            conjuncts.append((negated, atom))
            expect_atom = False
            negated = False
    if expect_atom:
        raise OrdalgError("predicate ends with a dangling operator")
    return tuple(conjuncts)


def evaluate_predicate(pred: Predicate, P: Poset) -> bool:
    return all(_ATOMS[atom](P) != negated for negated, atom in pred)


@dataclass(frozen=True)
class SearchSpec:
    """Sizes ``n_min..n_max`` and a predicate.  ``count`` 0 walks every poset
    of those sizes; ``count`` > 0 draws that many at random from ``seed``."""

    n_min: int
    n_max: int
    predicate: Predicate
    seed: int = 0
    count: int = 0

    def __post_init__(self):
        if self.n_min < 1 or self.n_min > self.n_max:
            raise OrdalgError("invalid size range")
        if self.count < 0:
            raise OrdalgError(f"count must be at least 0, got {self.count}")
        if not self.count and self.n_max > EXHAUSTIVE_GUARD:
            raise OrdalgError(
                f"exhaustive search guarded at n <= {EXHAUSTIVE_GUARD}"
            )
        if self.n_max > MAX_CARRIER:  # every hit must parse back from DSL
            raise OrdalgError(f"search sizes are capped at n <= {MAX_CARRIER}")


def _revalidate(P: Poset, pred: Predicate) -> None:
    doc = parse(serialize_poset("hit", P))
    Q = doc.posets["hit"]
    if Q != P or not evaluate_predicate(pred, Q):
        raise AssertionError("search hit failed re-validation after round trip")


def search(spec: SearchSpec) -> Iterator[Poset]:
    """Stream posets satisfying the predicate; every hit is re-validated."""
    if spec.count:
        rng = random.Random(spec.seed)
        sizes = (rng.randint(spec.n_min, spec.n_max) for _ in range(spec.count))
        candidates = (random_poset(rng, n) for n in sizes)
    else:
        sizes = range(spec.n_min, spec.n_max + 1)
        candidates = (P for n in sizes for P in all_posets(n))
    for P in candidates:
        if evaluate_predicate(spec.predicate, P):
            _revalidate(P, spec.predicate)
            yield P
