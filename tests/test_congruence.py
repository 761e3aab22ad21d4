from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    algebras,
    all_hold,
    bounded_posets,
    congruence_census_oracle,
    distributive_oracle,
    lambda_algebra,
    lattice_oracle,
    meet_directoid,
    power,
    relation,
    relations_permute,
)
from ordalg import (
    Algebra,
    Congruence,
    all_congruences_bruteforce,
    assign_algebra,
    build_poset,
    congruence_lattice,
    congruence_properties,
    direct_product,
    is_congruence,
    principal_congruence,
    verify_term_conditions,
)
from ordalg.algebra import MEET, STAR, ZERO
from ordalg.assign import enumerate_assignments
from ordalg import congruence
from ordalg.congruence import (
    _join_irreducibles,
    _principal_congruences,
    join2,
    meet2,
    permutes,
)
from ordalg.enumeration import all_posets
from ordalg.pc import classify
from ordalg.errors import BadPartition, BudgetExceeded, MissingSymbol, SizeGuardExceeded


@pytest.fixture(scope="module")
def two_chain_star():
    # 2-chain with complement-style unary *
    return Algebra(["0", "1"], [(MEET, 2, [[0, 0], [0, 1]]), (STAR, 1, [1, 0])])


@pytest.fixture(scope="module")
def fig1_rpc_alg(figs):
    return assign_algebra(figs.posets["fig1"], "rpc")


def test_congruence_canonical_form():
    c = Congruence.from_blocks([[1, 0], [2]], 3)
    assert c.rep == (0, 0, 2)
    assert c.blocks() == ((0, 1), (2,))
    with pytest.raises(BadPartition):
        Congruence.from_blocks([[0], [0, 1]], 2)
    with pytest.raises(BadPartition):
        Congruence.from_blocks([[0]], 2)
    with pytest.raises(BadPartition):
        Congruence((1, 1))


def test_is_congruence_trivial(two_chain_star):
    assert is_congruence(two_chain_star, Congruence.identity(2))[0]
    assert is_congruence(two_chain_star, Congruence.total(2))[0]


def test_is_congruence_violation(fig1_rpc_alg):
    # collapsing {0, a} only is not compatible with the rpc operation
    ok, violation = is_congruence(fig1_rpc_alg, Congruence.from_blocks([[0, 1], [2], [3], [4], [5]], 6))
    assert not ok and violation["op"] in ("*", "⊓")


def test_wrong_carrier_rejected(two_chain_star):
    from ordalg import quotient

    for theta in (Congruence.identity(3), Congruence.total(1)):
        with pytest.raises(BadPartition):
            is_congruence(two_chain_star, theta)
        with pytest.raises(BadPartition):
            quotient(two_chain_star, theta)


@pytest.mark.parametrize("op", [join2, meet2])
def test_join_and_meet_reject_different_carriers(op):
    c4, c3 = Congruence((0, 0, 2, 3)), Congruence((0, 1, 1))
    for c1, c2 in ((c4, c3), (c3, c4)):
        with pytest.raises(BadPartition, match="partitions of"):
            op(c1, c2)


def test_principal_reflexive(two_chain_star):
    assert principal_congruence(two_chain_star, 1, 1) == Congruence.identity(2)


def test_principal_two_chain_star(two_chain_star):
    # merging 0,1 and closing under * keeps one block
    assert principal_congruence(two_chain_star, 0, 1) == Congruence.total(2)


def test_principal_minimality_fig1(fig1_rpc_alg):
    A = fig1_rpc_alg
    cg = principal_congruence(A, A.index("c"), A.index("1"))
    assert is_congruence(A, cg)[0]
    assert cg.related(A.index("c"), A.index("1"))
    # minimality against the exhaustive partition scan
    for theta in all_congruences_bruteforce(A):
        if theta.related(A.index("c"), A.index("1")):
            assert cg.refines(theta)


def test_lattice_two_element(two_chain_star):
    lat = congruence_lattice(two_chain_star)
    assert len(lat) == 2 and lat.congruences == all_congruences_bruteforce(two_chain_star)
    assert lat.congruences[0].is_total or lat.congruences[0].is_identity


def test_lattice_fig1_cross_validated(figs):
    A = assign_algebra(figs.posets["fig1"], "pc")
    lat = congruence_lattice(A)
    assert lat.congruences == all_congruences_bruteforce(A)
    assert set(lat.congruences) == set(all_congruences_bruteforce(A))


def test_bruteforce_guard():
    A = lambda_algebra(build_poset([str(i) for i in range(13)],
                                   [(str(i), str(i + 1)) for i in range(12)]))
    with pytest.raises(SizeGuardExceeded):
        all_congruences_bruteforce(A)


def test_product_kernels_in_lattice(two_chain_star):
    from ordalg import direct_product, kernel_of_projection

    prod = direct_product(two_chain_star, two_chain_star)
    lat = congruence_lattice(prod)
    assert lat.congruences == all_congruences_bruteforce(prod)
    k0 = kernel_of_projection(two_chain_star, two_chain_star, 0)
    k1 = kernel_of_projection(two_chain_star, two_chain_star, 1)
    assert k0 in lat.congruences and k1 in lat.congruences
    assert join2(k0, k1).is_total and meet2(k0, k1).is_identity


def test_join_is_congruence(fig1_rpc_alg):
    lat = congruence_lattice(fig1_rpc_alg)
    for c1 in lat.congruences:
        for c2 in lat.congruences:
            assert is_congruence(fig1_rpc_alg, join2(c1, c2))[0]


def test_properties_two_element(two_chain_star):
    props = congruence_properties(two_chain_star, unit_constant=1)
    assert props.permutable and props.distributive and props.arithmetical
    assert props.weakly_regular


def test_properties_fig1_rpc(fig1_rpc_alg):
    props = congruence_properties(fig1_rpc_alg, unit_constant="1")
    assert props.permutable and props.weakly_regular


def test_properties_fig2_stone(figs):
    A = assign_algebra(figs.posets["fig2"], "stone")
    props = congruence_properties(A)
    assert props.distributive
    assert props.weakly_regular is None  # no unit designated


def test_term_schemes_fig2_majority(figs):
    A = assign_algebra(figs.posets["fig2"], "stone")
    schemes = verify_term_conditions(A, "stone")
    assert set(schemes) == {"majority"}
    reports = schemes["majority"]
    assert len(reports) == 3 and all(r.holds for r in reports.values())
    assert all(r.checked_count == 64 for r in reports.values())


def test_term_schemes_fig1_rpc(fig1_rpc_alg):
    schemes = verify_term_conditions(fig1_rpc_alg, "rpc")
    assert set(schemes) == {"maltsev(*)", "weak_regularity(*)"}
    assert all(all_hold(reports) for reports in schemes.values())
    assert len(schemes["weak_regularity(*)"]) == 5


def test_term_schemes_fig5_sspc(figs):
    A = assign_algebra(figs.posets["fig5"], "sspc")
    schemes = verify_term_conditions(A, "sspc")
    assert set(schemes) == {"majority", "maltsev(∘)", "weak_regularity(∘)"}
    assert all(all_hold(reports) for reports in schemes.values())


def test_term_schemes_signature_inference(fig1_rpc_alg):
    schemes = verify_term_conditions(fig1_rpc_alg)
    assert set(schemes) == {"maltsev(*)", "weak_regularity(*)"}


@pytest.mark.parametrize(
    "profile, fixture, keys",
    [
        ("pc", "fig1", ()),
        ("stone", "fig2", ("majority",)),
        ("rpc", "fig1", ("maltsev(*)", "weak_regularity(*)")),
        ("spc", "fig5", ("majority", "maltsev(∘)")),
        ("spc1", "fig5", ("majority", "maltsev(∘)", "weak_regularity(∘)")),
        ("sspc", "fig5", ("majority", "maltsev(∘)", "weak_regularity(∘)")),
    ],
)
def test_term_schemes_selected_by_signature_in_order(figs, profile, fixture, keys):
    # the order con --terms prints
    A = assign_algebra(figs.posets[fixture], profile)
    assert tuple(verify_term_conditions(A)) == keys


def test_term_schemes_missing_symbol():
    A = Algebra(["a"], [("f", 1, [0])])
    with pytest.raises(MissingSymbol):
        verify_term_conditions(A, "stone")


def assert_irreducibles_match_hasse(A, lat):
    """The principal congruences generation joins are the join-irreducibles:
    the congruences with exactly one lower cover in ``hasse``."""
    lower_covers = Counter(j for _, j in lat.hasse)
    expected = {lat.congruences[j] for j, count in lower_covers.items() if count == 1}
    irreducibles = _join_irreducibles(_principal_congruences(A))
    assert {p for p, _, _ in irreducibles} == expected
    return len(irreducibles)


@st.composite
def small_algebras(draw):
    """Algebras on at most 6 elements with any of: a unary operation, a
    binary operation drawn cell by cell, and a commutative binary operation
    drawn on the upper triangle and mirrored."""
    n = draw(st.integers(1, 6))
    elem = st.integers(0, n - 1)
    row = st.lists(elem, min_size=n, max_size=n)
    ops = []
    if draw(st.booleans()):
        ops.append(("f", 1, draw(row)))
    if draw(st.booleans()):
        ops.append(("g", 2, draw(st.lists(row, min_size=n, max_size=n))))
    if draw(st.booleans()):
        upper = {(i, j): draw(elem) for i in range(n) for j in range(i, n)}
        ops.append(("h", 2, [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]))
    return Algebra([str(i) for i in range(n)], ops)


@given(small_algebras())
@settings(max_examples=150, deadline=None)
def test_generation_matches_partition_scan(A):
    brute = all_congruences_bruteforce(A)
    lat = congruence_lattice(A)
    assert lat.congruences == brute
    assert_irreducibles_match_hasse(A, lat)
    for a in range(A.n):
        for b in range(a, A.n):
            cg = principal_congruence(A, a, b)
            assert cg in brute and cg.related(a, b)
            assert all(cg.refines(t) for t in brute if t.related(a, b))


def projection_algebra(n: int) -> Algebra:
    # x∘y = y: every partition of the carrier is a congruence
    return Algebra([str(i) for i in range(n)], [("∘", 2, [list(range(n))] * n)])


def test_projection_algebra_has_every_partition():
    # Bell(6) = 203
    A = projection_algebra(6)
    lat = congruence_lattice(A)
    assert len(lat) == 203 and lat.congruences == all_congruences_bruteforce(A)


def assert_lattice_matches_oracle(A, lat=None):
    lat = lat or congruence_lattice(A)
    join_t, meet_t, hasse = lattice_oracle(lat.congruences)
    assert lat.join_table == join_t
    assert lat.meet_table == meet_t
    assert lat.hasse == hasse
    distributive = distributive_oracle(join_t, meet_t)
    assert congruence_properties(A, lattice=lat).distributive == distributive
    return distributive


@given(small_algebras())
@settings(max_examples=150, deadline=None)
def test_lattice_tables_match_oracle(A):
    assert_lattice_matches_oracle(A)


@pytest.mark.parametrize("n, k", [(3, 5), (4, 15)])
def test_partition_lattice_not_distributive(n, k):
    # Π₃ ≅ M₃, and Π₄ contains it
    A = projection_algebra(n)
    lat = congruence_lattice(A)
    assert len(lat) == k
    assert not assert_lattice_matches_oracle(A, lat)


def meet_chain(n):
    # ⊓ on an n-chain: the congruences cut the chain into intervals, 2ⁿ⁻¹ of them
    return meet_directoid(build_poset([str(i) for i in range(n)],
                                      [(str(i), str(i + 1)) for i in range(n - 1)]))


def test_meet_chain_lattice_is_boolean():
    A = meet_chain(9)
    lat = congruence_lattice(A)
    assert len(lat) == 256 and len(lat.hasse) == 8 * 2**7
    join_t, meet_t, hasse = lattice_oracle(lat.congruences)
    assert (lat.join_table, lat.meet_table, lat.hasse) == (join_t, meet_t, hasse)
    # the k³ distributive identity (16.7M triples here) is left to the small cases
    assert congruence_properties(A, lattice=lat).distributive


@pytest.mark.parametrize("name, k, m", [
    ("chain9", 256, 8),
    ("bool5_pc", 32, 5),
    ("bool5_rpc", 32, 5),
    ("bool5_sspc", 32, 5),
])
def test_generation_joins_only_irreducibles(monkeypatch, name, k, m):
    # k congruences, m of them join-irreducible: each congruence is joined
    # with at most the m join-irreducibles, so join2 runs at most k·m times
    C2 = build_poset(["0", "1"], [("0", "1")])
    A = {
        "chain9": lambda: meet_chain(9),
        "bool5_pc": lambda: power(assign_algebra(C2, "pc"), 5),
        "bool5_rpc": lambda: power(assign_algebra(C2, "rpc"), 5),
        "bool5_sspc": lambda: power(assign_algebra(C2, "sspc"), 5),
    }[name]()
    calls = 0

    def counting_join2(c1, c2):
        nonlocal calls
        calls += 1
        return join2(c1, c2)

    monkeypatch.setattr(congruence, "join2", counting_join2)
    lat = congruence_lattice(A)
    assert len(lat) == k and assert_irreducibles_match_hasse(A, lat) == m
    assert calls <= k * m


def test_congruence_budget(figs):
    F = figs.algebras["fig4_spc"]
    with pytest.raises(BudgetExceeded, match=r"budget 1024 exceeded: 1025 .* 16 elements"):
        congruence_lattice(direct_product(F, F))
    assert len(congruence_lattice(projection_algebra(7))) == 877  # Bell(7)
    assert len(congruence_lattice(meet_chain(11))) == 1024  # exactly the budget
    with pytest.raises(BudgetExceeded, match=r"budget 1024 exceeded: 1025 .* 12 elements"):
        congruence_lattice(meet_chain(12))


@given(bounded_posets(max_inner=2))
@settings(max_examples=25, deadline=None)
def test_scheme_success_implies_direct_property(P):
    # wherever a scheme passes, the corresponding property holds outright;
    # bounded posets are exactly the finite posets directed both ways
    A = lambda_algebra(P)
    schemes = verify_term_conditions(A)
    props = congruence_properties(A)
    if "majority" in schemes and all_hold(schemes["majority"]):
        assert props.distributive


def test_scheme_implication_on_fixture_algebras(figs, fig1_rpc_alg):
    checks = [
        (assign_algebra(figs.posets["fig2"], "stone"), "stone", None),
        (assign_algebra(figs.posets["fig3"], "stone"), "stone", None),
        (assign_algebra(figs.posets["fig5"], "sspc"), "sspc", "1"),
        (fig1_rpc_alg, "rpc", "1"),
    ]
    for A, prof, unit in checks:
        schemes = verify_term_conditions(A, prof)
        props = congruence_properties(A, unit_constant=unit)
        for key, reports in schemes.items():
            if not all_hold(reports):
                continue
            if key == "majority":
                assert props.distributive
            elif key.startswith("maltsev"):
                assert props.permutable
            else:
                assert props.weakly_regular


def assert_permutability_matches_relations(A):
    """``permutes`` on every pair, and ``permutable``, against composed relations."""
    lat = congruence_lattice(A)
    cons = lat.congruences
    rels = [relation(c) for c in cons]
    every = True
    for i in range(len(cons)):
        for j in range(i + 1, len(cons)):
            join, meet = cons[lat.join_table[i][j]], cons[lat.meet_table[i][j]]
            expected = relations_permute(rels[i], rels[j])
            assert permutes(cons[i], cons[j], join, meet) == expected
            every = every and expected
    assert congruence_properties(A, lattice=lat).permutable == every


@given(algebras())
@settings(max_examples=200, deadline=None)
def test_permutability_matches_composed_relations(A):
    assert_permutability_matches_relations(A)


def test_permutability_matches_composed_relations_on_corpus(figs):
    for name, A in figs.algebras.items():
        if name != "fig3_star":  # over the congruence budget
            assert_permutability_matches_relations(A)


@pytest.mark.parametrize("profile, counts", [("pc", (37, 7, 15)), ("stone", (35, 0, 6))])
def test_congruence_census_n6(profile, counts):
    # every assignment of every poset in the class with n <= 6: how many
    # algebras, how many not congruence distributive, how many not permutable
    found = [0, 0, 0]
    for n in range(1, 7):
        for P in all_posets(n):
            if not classify(P, profile).holds:
                continue
            for A in enumerate_assignments(P, profile)[1]:
                props = congruence_properties(A)
                distributive, permutable = congruence_census_oracle(A)
                assert (props.distributive, props.permutable) == (distributive, permutable)
                found[0] += 1
                found[1] += not distributive
                found[2] += not permutable
    assert tuple(found) == counts
