"""Built-in corpus: five small benchmark posets with their operation tables.

The tables are stored exactly as published for these examples and are
cross-checked against the order-derived computations in the test suite, so a
transcription slip and a logic bug are both hard failures.

* fig1 — six elements, pseudocomplemented and relatively pseudocomplemented
  but not Stone; carries the unary ``*``/``**`` tables and the full binary
  relative pseudocomplement table.  ``fig1_rpc`` is the assigned algebra
  (P, ⊓, *, 1) of the rpc profile: its commutative meet-directoid takes
  c⊓d = 0, the one choice the order leaves open (L(c,d) = {0, a, b}).  The
  source does not settle which element the published example takes; 0 is
  the smallest-index choice, the one ``assign_algebra(fig1, "rpc")`` makes.
* fig2 — eight elements, a Stone poset that is not a lattice.
* fig3 — twelve elements, a distributive Stone poset with involutive ``**``.
* fig4 — four elements, no bounds; sectional pseudocomplement is the second
  projection.
* fig5 — seven elements, strongly sectionally pseudocomplemented, neither a
  lattice nor relatively pseudocomplemented nor distributive.
"""

from __future__ import annotations

from functools import lru_cache

from .dsl import Document, parse

FIXTURES_TEXT = """\
poset fig1
  elements: 0 a b c d 1
  order: 0<a 0<b a<c a<d b<c b<d c<1 d<1

algebra fig1_star on fig1
  unary * : 0->1 a->b b->a c->0 d->0 1->0
  unary ** : 0->0 a->a b->b c->1 d->1 1->1
  constant 0: 0

algebra fig1_rpc on fig1
  choice meet {c,d}=0
  binary * :
    row 0: 1 1 1 1 1 1
    row a: b 1 b 1 1 1
    row b: a a 1 1 1 1
    row c: 0 a b 1 d 1
    row d: 0 a b c 1 1
    row 1: 0 a b c d 1
  constant 1: 1

poset fig2
  elements: 0 a b c d e f 1
  order: 0<a 0<b a<c a<d a<e b<d b<e b<f c<1 d<1 e<1 f<1

algebra fig2_star on fig2
  unary * : 0->1 a->f b->c c->f d->0 e->0 f->c 1->0
  unary ** : 0->0 a->c b->f c->c d->1 e->1 f->f 1->1
  constant 0: 0

poset fig3
  elements: 0 a b c d e f g h i j 1
  order: 0<a 0<b 0<c 0<d a<e b<e a<i b<j c<g c<f d<f d<h e<g e<h f<i f<j g<1 h<1 i<1 j<1

algebra fig3_star on fig3
  unary * : 0->1 a->j b->i c->h d->g e->f f->e g->d h->c i->b j->a 1->0
  unary ** : 0->0 a->a b->b c->c d->d e->e f->f g->g h->h i->i j->j 1->1
  constant 0: 0

poset fig4
  elements: a b c d
  order: a<c a<d b<c b<d

algebra fig4_spc on fig4
  binary ∘ :
    row a: a b c d
    row b: a b c d
    row c: a b c d
    row d: a b c d

poset fig5
  elements: 0 a b c d e 1
  order: 0<a a<b 0<c b<d b<e c<d c<e d<1 e<1

algebra fig5_spc on fig5
  binary ∘ :
    row 0: 1 1 1 1 1 1 1
    row a: c 1 1 c 1 1 1
    row b: c a 1 c 1 1 1
    row c: b a b 1 1 1 1
    row d: 0 a b c 1 e 1
    row e: 0 a b c d 1 1
    row 1: 0 a b c d e 1
  constant 1: 1
"""


@lru_cache(maxsize=1)
def fixtures() -> Document:
    """Parse the built-in corpus (cached)."""
    return parse(FIXTURES_TEXT)
