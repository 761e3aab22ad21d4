"""ordalg: a laboratory for finite ordered sets and their derived algebras.

Posets with cone arithmetic, pseudocomplementation structures (plain,
relative, sectional, Stone), commutative directoid and λ-lattice
assignments, an exhaustive checker for quantified identities, congruence
lattices with Maltsev-style term schemes, and direct product decomposition.
"""

from .algebra import (
    CIRC,
    JOIN,
    MEET,
    ONE,
    STAR,
    ZERO,
    Algebra,
    Signature,
    induced_order,
    verify_axioms,
)
from .assign import (
    PROFILES,
    AuditReport,
    ChoiceSpace,
    assign_algebra,
    canonical_choice,
    cone_via_directoid,
    conditions_for,
    enumerate_choices,
    theorem_equivalence_audit,
    verify_assigned_conditions,
    verify_derived_identities,
)
from .congruence import (
    Congruence,
    CongruenceLattice,
    CongruenceProperties,
    all_congruences_bruteforce,
    congruence_lattice,
    congruence_properties,
    is_congruence,
    principal_congruence,
    verify_term_conditions,
)
from .decompose import (
    Decomposition,
    FactorPair,
    decompose,
    direct_product,
    factor_pairs,
    find_isomorphism,
    is_directly_decomposable_congruence,
    kernel_of_projection,
    quotient,
)
from .dsl import Document, parse, serialize, serialize_algebra, serialize_poset
from .enumeration import all_posets, are_isomorphic, canonical_key, random_poset
from .errors import OrdalgError
from .fixtures import FIXTURES_TEXT, fixtures
from .pc import (
    PcClassification,
    check_distributive_pc_equalities,
    classify,
    pseudocomplement,
    relative_pseudocomplement,
    sectional_pseudocomplement,
)
from .poset import (
    ConeResult,
    DirectednessReport,
    DistributivityReport,
    Poset,
    build_poset,
    directedness,
    extremes,
    is_distributive,
    is_lattice,
    lower_cone,
    upper_cone,
)
from .search import SearchSpec, parse_predicate, search
from .terms import (
    App,
    Const,
    Eq,
    Forall,
    Iff,
    Implies,
    Report,
    Var,
    check_formula,
    eval_term,
    evaluate_at,
    render_formula,
    render_term,
)

__version__ = "0.1.0"
