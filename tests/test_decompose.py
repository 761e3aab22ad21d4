from itertools import product

import pytest
from hypothesis import given, settings

from helpers import (
    algebras,
    bounded_posets,
    entry,
    factor_pair_scan,
    lambda_algebra,
    meet_directoid,
    power,
    principal_join_closure,
    relation,
    relations_permute,
    transitive_closure,
)
from ordalg import (
    Algebra,
    Congruence,
    assign_algebra,
    build_poset,
    congruence_lattice,
    congruence_properties,
    decompose,
    direct_product,
    factor_pairs,
    find_isomorphism,
    induced_order,
    is_directly_decomposable_congruence,
    kernel_of_projection,
    quotient,
)
from ordalg.algebra import MEET, STAR
from ordalg.decompose import FactorPair
from ordalg.errors import NotACongruence, SignatureMismatch, SizeGuardExceeded


@pytest.fixture(scope="module")
def two_chain():
    return build_poset(["0", "1"], [("0", "1")])


@pytest.fixture(scope="module")
def C2(two_chain):
    return meet_directoid(two_chain)


@pytest.fixture(scope="module")
def C2_rpc(two_chain):
    return assign_algebra(two_chain, "rpc")


def test_product_grid_order(C2):
    prod = direct_product(C2, C2)
    grid = build_poset(
        ["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
        [("(0,0)", "(0,1)"), ("(0,0)", "(1,0)"), ("(0,1)", "(1,1)"), ("(1,0)", "(1,1)")],
    )
    assert induced_order(prod, "meet") == grid


def test_product_with_singleton(C2):
    one = Algebra(["*"], [(MEET, 2, [[0]])])
    prod = direct_product(C2, one)
    iso = find_isomorphism(prod, C2)
    assert iso is not None


def test_product_signature_mismatch(C2, C2_rpc):
    with pytest.raises(SignatureMismatch):
        direct_product(C2, C2_rpc)


def test_product_rpc_componentwise_matches_order_derived(C2_rpc):
    # the squared relative pseudocomplement table equals the one computed
    # from the product order
    from ordalg import classify

    prod = direct_product(C2_rpc, C2_rpc)
    P = induced_order(prod, "meet")
    assert prod.table(STAR) == classify(P, "rpc").table


def test_quotient_identity_total(C2_rpc):
    assert find_isomorphism(quotient(C2_rpc, Congruence.identity(2)), C2_rpc) is not None
    assert quotient(C2_rpc, Congruence.total(2)).n == 1


def test_quotient_by_kernel_gives_other_factor(C2_rpc):
    prod = direct_product(C2_rpc, C2_rpc)
    k0 = kernel_of_projection(C2_rpc, C2_rpc, 0)
    assert find_isomorphism(quotient(prod, k0), C2_rpc) is not None


def test_quotient_rejects_non_congruence(C2_rpc):
    prod = direct_product(C2_rpc, C2_rpc)
    with pytest.raises(NotACongruence):
        quotient(prod, Congruence.from_blocks([[0, 1], [2], [3]], 4))


def test_factor_pair_validation(C2_rpc):
    with pytest.raises(ValueError):
        FactorPair(Congruence.identity(2), Congruence.identity(2))


def test_factor_pairs_simple(C2_rpc):
    pairs = factor_pairs(C2_rpc)
    assert all(not fp.nontrivial for fp in pairs)
    reps = {(fp.theta.rep, fp.phi.rep) for fp in pairs}
    assert ((0, 1), (0, 0)) in reps  # the trivial (Δ, ∇) pair


def test_factor_pairs_product_kernels(C2_rpc):
    prod = direct_product(C2_rpc, C2_rpc)
    pairs = factor_pairs(prod)
    k0 = kernel_of_projection(C2_rpc, C2_rpc, 0)
    k1 = kernel_of_projection(C2_rpc, C2_rpc, 1)
    assert any({fp.theta, fp.phi} == {k0, k1} for fp in pairs)


def test_decompose_recovers_factors(C2_rpc):
    three = build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])
    C3 = assign_algebra(three, "rpc")
    prod = direct_product(C2_rpc, C3)
    result = decompose(prod)
    assert not result.indecomposable
    sizes = sorted((result.left.n, result.right.n))
    assert sizes == [2, 3]
    small, big = sorted((result.left, result.right), key=lambda A: A.n)
    assert find_isomorphism(small, C2_rpc) is not None
    assert find_isomorphism(big, C3) is not None
    assert find_isomorphism(direct_product(result.left, result.right), prod) is not None


def test_decompose_prime_size(C2_rpc):
    three = build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert decompose(assign_algebra(three, "rpc")).indecomposable
    assert decompose(C2_rpc).indecomposable


def test_decompose_fig4_projection_algebra(figs):
    A = figs.algebras["fig4_spc"]
    result = decompose(A)
    assert not result.indecomposable
    assert result.left.n * result.right.n == 4
    assert find_isomorphism(direct_product(result.left, result.right), A) is not None


def test_decompose_guard(figs):
    A = assign_algebra(figs.posets["fig3"], "stone")
    with pytest.raises(SizeGuardExceeded):
        decompose(A, guard=6)


def test_find_isomorphism_identity(C2_rpc):
    assert find_isomorphism(C2_rpc, C2_rpc) == (0, 1)


def test_find_isomorphism_size_mismatch(C2_rpc):
    three = build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert find_isomorphism(C2_rpc, assign_algebra(three, "rpc")) is None


def test_find_isomorphism_relabelled(C2_rpc):
    prod = direct_product(C2_rpc, C2_rpc)
    # same algebra with permuted carrier: swap the two middle elements
    perm = (0, 2, 1, 3)
    inv = (0, 2, 1, 3)
    relabel = Algebra(
        [prod.labels[inv[i]] for i in range(4)],
        [
            (name, arity, _permute(table, arity, perm, inv))
            for (name, arity), table in zip(prod.signature.symbols, prod.tables)
        ],
    )
    iso = find_isomorphism(prod, relabel)
    assert iso is not None
    # verify it is a homomorphism by hand
    t1, t2 = prod.table(MEET), relabel.table(MEET)
    for x in range(4):
        for y in range(4):
            assert iso[t1[x][y]] == t2[iso[x]][iso[y]]


def _permute(table, arity, perm, inv):
    n = len(perm)
    if arity == 0:
        return perm[table]
    if arity == 1:
        return [perm[table[inv[i]]] for i in range(n)]
    return [[perm[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]


def test_grid_lattice_is_product_of_chains(two_chain):
    grid = build_poset(
        ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    )
    G = lambda_algebra(grid)
    C = lambda_algebra(two_chain)
    assert find_isomorphism(G, direct_product(C, C)) is not None


def test_directly_decomposable_trivial(C2_rpc):
    prod = direct_product(C2_rpc, C2_rpc)
    ok, pair = is_directly_decomposable_congruence(C2_rpc, C2_rpc, Congruence.identity(4))
    assert ok and pair[0].is_identity and pair[1].is_identity
    ok, pair = is_directly_decomposable_congruence(C2_rpc, C2_rpc, Congruence.total(4))
    assert ok and pair[0].is_total and pair[1].is_total


def test_directly_decomposable_rejects_non_congruence(C2_rpc):
    with pytest.raises(NotACongruence):
        is_directly_decomposable_congruence(
            C2_rpc, C2_rpc, Congruence.from_blocks([[0, 3], [1], [2]], 4)
        )


def test_lambda_square_every_congruence_decomposable(two_chain):
    C = lambda_algebra(two_chain)
    prod = direct_product(C, C)
    assert congruence_properties(prod).distributive
    for theta in congruence_lattice(prod).congruences:
        ok, _ = is_directly_decomposable_congruence(C, C, theta)
        assert ok


def test_distributive_products_decompose_congruences(two_chain, figs):
    # same audit on a Stone-style product
    S = assign_algebra(two_chain, "stone")
    prod = direct_product(S, S)
    if congruence_properties(prod).distributive:
        for theta in congruence_lattice(prod).congruences:
            ok, _ = is_directly_decomposable_congruence(S, S, theta)
            assert ok


@given(algebras(max_n=3), algebras(max_n=3))
@settings(max_examples=100, deadline=None)
def test_product_entries_are_componentwise(A1, A2):
    prod = direct_product(A1, A2)
    n2 = A2.n
    assert prod.labels == tuple(f"({l1},{l2})" for l1 in A1.labels for l2 in A2.labels)
    for (name, arity), t1, t2, t in zip(A1.signature.symbols, A1.tables, A2.tables, prod.tables):
        for args in product(range(prod.n), repeat=arity):
            left = entry(t1, arity, [a // n2 for a in args])
            right = entry(t2, arity, [a % n2 for a in args])
            assert entry(t, arity, args) == prod.apply(name, *args) == left * n2 + right


@given(algebras())
@settings(max_examples=100, deadline=None)
def test_quotient_entries_are_blockwise(A):
    for theta in congruence_lattice(A).congruences:
        Q = quotient(A, theta)
        block_of = {a: i for i, block in enumerate(theta.blocks()) for a in block}
        for (_, arity), t, q in zip(A.signature.symbols, A.tables, Q.tables):
            for args in product(range(A.n), repeat=arity):
                assert entry(q, arity, [block_of[a] for a in args]) == block_of[entry(t, arity, args)]


@given(algebras())
@settings(max_examples=100, deadline=None)
def test_factor_pairs_match_relations(A):
    # join ∇, meet Δ and permuting composition, on relations
    cons = congruence_lattice(A).congruences
    total = relation(Congruence.total(A.n))
    identity = relation(Congruence.identity(A.n))
    for t in cons:
        for p in cons:
            r, s = relation(t), relation(p)
            expected = (transitive_closure(r | s) == total and r & s == identity
                        and relations_permute(r, s))
            try:
                FactorPair(t, p)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected


# -- generation against the plain routes, where known congruences settle most pairs ----


def assert_generation_matches_plain_routes(A):
    lat = congruence_lattice(A)
    assert lat.congruences == principal_join_closure(A)
    assert factor_pairs(A, lat) == factor_pair_scan(lat.congruences)


@pytest.mark.parametrize("name", ["fig1_rpc_sq", "bool4_pc", "bool5_pc"])
def test_generation_matches_plain_routes_on_products(figs, two_chain, name):
    C2_pc = assign_algebra(two_chain, "pc")
    A = {
        "fig1_rpc_sq": lambda: power(figs.algebras["fig1_rpc"], 2),
        "bool4_pc": lambda: power(C2_pc, 4),
        "bool5_pc": lambda: power(C2_pc, 5),
    }[name]()
    assert_generation_matches_plain_routes(A)


@given(bounded_posets(max_inner=3), bounded_posets(max_inner=3))
@settings(max_examples=40, deadline=None)
def test_generation_matches_plain_routes_on_random_products(P1, P2):
    # bounded posets of at most 5 elements are lattices, which are congruence
    # distributive, so the product has at most 16 x 16 congruences
    assert_generation_matches_plain_routes(direct_product(lambda_algebra(P1), lambda_algebra(P2)))
