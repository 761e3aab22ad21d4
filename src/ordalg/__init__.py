"""ordalg: a laboratory for finite ordered sets and their derived algebras.

Posets with cone arithmetic, pseudocomplementation structures (plain,
relative, sectional, Stone), commutative directoid and λ-lattice
assignments, an exhaustive checker for quantified identities, congruence
lattices with Maltsev-style term schemes, and direct product decomposition.

Every public name below is importable from the package, but importing the
package loads no submodule: a name is resolved from its defining module on
first use (PEP 562).  Each ``ordalg`` command runs in a fresh process, so a
command loads only the layers it calls.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# defining module -> the public names it exports through the package
_EXPORTS = {
    "algebra": (
        "CIRC",
        "JOIN",
        "MEET",
        "ONE",
        "STAR",
        "ZERO",
        "PROFILES",
        "Algebra",
        "ChoiceSpace",
        "Signature",
        "canonical_choice",
        "enumerate_choices",
        "induced_order",
    ),
    "assign": (
        "AuditReport",
        "assign_algebra",
        "cone_via_directoid",
        "conditions_for",
        "theorem_equivalence_audit",
        "verify_assigned_conditions",
        "verify_axioms",
        "verify_derived_identities",
    ),
    "congruence": (
        "Congruence",
        "CongruenceLattice",
        "CongruenceProperties",
        "all_congruences_bruteforce",
        "congruence_lattice",
        "congruence_properties",
        "is_congruence",
        "principal_congruence",
        "verify_term_conditions",
    ),
    "decompose": (
        "Decomposition",
        "FactorPair",
        "decompose",
        "direct_product",
        "factor_pairs",
        "find_isomorphism",
        "is_directly_decomposable_congruence",
        "kernel_of_projection",
        "quotient",
    ),
    "dsl": ("Document", "parse", "serialize", "serialize_algebra", "serialize_poset"),
    "enumeration": ("all_posets", "canonical_key", "random_poset"),
    "errors": ("OrdalgError",),
    "fixtures": ("FIXTURES_TEXT", "fixtures"),
    "pc": (
        "PcClassification",
        "check_distributive_pc_equalities",
        "classify",
        "pseudocomplement",
        "relative_pseudocomplement",
        "sectional_pseudocomplement",
    ),
    "poset": (
        "DirectednessReport",
        "DistributivityReport",
        "Poset",
        "build_poset",
        "directedness",
        "extremes",
        "is_distributive",
        "is_lattice",
    ),
    "search": ("SearchSpec", "parse_predicate", "search"),
    "terms": (
        "App",
        "Const",
        "Eq",
        "Forall",
        "Iff",
        "Implies",
        "Report",
        "Var",
        "check_formula",
        "eval_term",
        "evaluate_at",
        "render_formula",
        "render_term",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


class _Package(ModuleType):
    """Importing the submodule ``decompose``, ``search`` or ``fixtures`` binds
    it on the package under its own name; keep the exported function of that
    name bound there instead, as an eager ``from .decompose import
    decompose`` would."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) and _HOME.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
