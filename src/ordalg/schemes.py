"""The term schemes that ``con --terms`` checks, written as they print.

One table, ``_SCHEMES``, maps each term-scheme report key to the symbols the
scheme needs and its numbered identities; ``_PROFILE_SCHEMES`` lists the keys
each profile's theory supports.  The identities are parsed when this module
is imported, and only ``congruence.verify_term_conditions`` imports it, so no
other command pays for the parse.
"""

from __future__ import annotations

from .algebra import CIRC, JOIN, MEET, ONE, STAR
from .terms import parse_formula


def _numbered(*texts: str) -> tuple:
    """Each identity, parsed, under the name ``"<number>: <text>"``."""
    return tuple((f"{k}: {text}", parse_formula(text)) for k, text in enumerate(texts, 1))


# report key -> (the symbols the scheme needs, its numbered identities), in
# the order ``con --terms`` prints the schemes; each weak_regularity scheme is
# a two-step chain witnessing weak regularity with respect to the constant 1
_SCHEMES = {
    "majority": (
        ((JOIN, 2), (MEET, 2)),
        _numbered(
            "∀x,y: ((x⊔x)⊓(x⊔y))⊓(y⊔x) = x",
            "∀x,y: ((x⊔y)⊓(y⊔x))⊓(x⊔x) = x",
            "∀x,y: ((y⊔x)⊓(x⊔x))⊓(x⊔y) = x",
        ),
    ),
    "maltsev(*)": (
        ((STAR, 2), (MEET, 2)),
        _numbered("∀x,y: ((x*x)*y)⊓((y*x)*x) = y", "∀x,y: ((y*x)*x)⊓((x*x)*y) = y"),
    ),
    "weak_regularity(*)": (
        ((STAR, 2), (MEET, 2), (ONE, 0)),
        _numbered(
            "∀x: x*x = 1",
            "∀x: x*x = 1",
            "∀x,y: ((x*y)*y)⊓x = x",
            "∀x,y: (1*y)⊓x = (1*x)⊓y",
            "∀x,y: ((y*x)*x)⊓y = y",
        ),
    ),
    "maltsev(∘)": (
        ((CIRC, 2), (MEET, 2)),
        _numbered("∀x,y: ((x∘x)∘y)⊓((y∘x)∘x) = y", "∀x,y: ((y∘x)∘x)⊓((x∘x)∘y) = y"),
    ),
    "weak_regularity(∘)": (
        ((CIRC, 2), (MEET, 2), (ONE, 0)),
        _numbered(
            "∀x: x∘x = 1",
            "∀x: x∘x = 1",
            "∀x,y: ((x∘y)∘y)⊓x = x",
            "∀x,y: (1∘y)⊓x = (1∘x)⊓y",
            "∀x,y: ((y∘x)∘x)⊓y = y",
        ),
    ),
}

_PROFILE_SCHEMES: dict[str, tuple[str, ...]] = {
    "pc": (),
    "stone": ("majority",),
    "spc": ("majority",),
    "spc1": ("majority",),
    "sspc": ("majority", "maltsev(∘)", "weak_regularity(∘)"),
    "rpc": ("maltsev(*)", "weak_regularity(*)"),
}
