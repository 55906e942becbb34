"""Corepresentations: invariants of the candidate builders, the two
intertwiner routes against each other and against classical character
theory, honest enumeration with the dimension-count certificate, fusion
audits, and both invariant groups with their structured models."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacforge.errors import NonIntegral, ValidationError
from kacforge.groups import character_table, is_isomorphic_small
from kacforge.hopf import (build_algebra, compact_restriction_morphism,
                           plain_function_algebra)
from kacforge.library import corpus_pairs, cyclic_group, symmetric_group
from kacforge.matched import (beta_kernel_elements, compact_subpair,
                              orbits_fixed_sets)
from kacforge.reps import (Corepresentation, audit_fusion, build_candidates,
                           check_corepresentation, decompose,
                           enumerate_irreps, fusion_formula_table,
                           invariant_groups,
                           lifted_irrep_corepresentation, mor_dim_haar,
                           mor_dim_solver, orbit_corepresentation)

CORPUS = {mp.name: mp for mp in corpus_pairs()}
SMALL = ["z6-abelian", "s3-split", "s3-split-dual", "conj-s3-rot",
         "s4-cyclic4"]

_state = {}


def algebra_of(name):
    key = ("alg", name)
    if key not in _state:
        _state[key] = build_algebra(CORPUS[name])
    return _state[key]


def catalog_of(name):
    key = ("cat", name)
    if key not in _state:
        _state[key] = enumerate_irreps(algebra_of(name))
    return _state[key]


# ---------------------------------------------------------------------------
# candidate builders and their invariants


@pytest.mark.parametrize("name", SMALL)
def test_candidates_satisfy_coaction_and_unitarity(name):
    cands, space, irreps = build_candidates(algebra_of(name))
    assert len(cands) == len(space.orbits) * len(irreps)
    for c in cands:
        assert check_corepresentation(c) < 1e-7


def test_candidate_closed_form_equals_actual_tensor():
    A = algebra_of("s3-split-dual")
    cands, space, irreps = build_candidates(A)
    for oi, orbit in enumerate(space.orbits):
        V = orbit_corepresentation(A, orbit)
        for xi, mx in enumerate(irreps):
            direct = cands[oi * len(irreps) + xi]
            via_tensor = V.tensor(lifted_irrep_corepresentation(A, mx))
            assert np.abs(direct.coeffs - via_tensor.coeffs).max() < 1e-9


def test_unit_candidate_is_the_unit():
    A = algebra_of("s3-split-dual")
    cands, space, irreps = build_candidates(A)
    # orbit of the discrete identity is a singleton; trivial compact irrep
    unit = cands[0]
    assert unit.dim == 1
    assert np.abs(unit.coeffs[0, 0] - A.one().vec).max() < 1e-12


def test_orbit_corep_matches_hand_expansion():
    # two-point orbit: off-diagonal entries collect the moving fiber
    A = algebra_of("s3-split-dual")
    mp = A.pair
    cands, space, irreps = build_candidates(A)
    orbit = space.orbits[1]
    assert len(orbit) == 2
    V = orbit_corepresentation(A, orbit)
    for rpos, r in enumerate(orbit):
        for spos, s in enumerate(orbit):
            expect = np.zeros(A.dim, dtype=complex)
            for g in range(A.nk):
                if mp.beta[g, r] == s:
                    expect[A.basis_index(r, g)] += 1.0
            assert np.abs(V.coeffs[rpos, spos] - expect).max() < 1e-12


def test_tensor_character_multiplies():
    A = algebra_of("conj-s3-rot")
    cands, _, _ = build_candidates(A)
    u, w = cands[1], cands[2]
    t = u.tensor(w)
    assert t.unitary
    prod = A.mul_vec(u.character(), w.character())
    assert np.abs(t.character() - prod).max() < 1e-9
    assert check_corepresentation(t) < 1e-7


# ---------------------------------------------------------------------------
# the two intertwiner routes


def test_mor_dims_basic_values():
    A = algebra_of("s3-split-dual")
    cands, space, irreps = build_candidates(A)
    unit = cands[0]
    assert mor_dim_haar(unit, unit) == 1
    assert mor_dim_solver(unit, unit)[0] == 1
    two = [c for c in cands if c.dim == 2]
    assert mor_dim_haar(unit, two[0]) == 0
    assert mor_dim_solver(unit, two[0])[0] == 0


def test_equivalent_candidates_linked_by_sign_intertwiner():
    cands, _, _ = build_candidates(algebra_of("s3-split-dual"))
    two = [c for c in cands if c.dim == 2]
    assert len(two) == 2
    assert mor_dim_haar(two[0], two[1]) == 1
    d, basis = mor_dim_solver(two[0], two[1])
    assert d == 1
    T = basis[0] / basis[0][0, 0]
    assert np.abs(T - np.diag([1.0, -1.0])).max() < 1e-9


def test_schur_for_irreducibles():
    cat = catalog_of("conj-s3-rot")
    for c in cat.canonical:
        d, basis = mor_dim_solver(c, c)
        assert d == 1
        T = basis[0] / basis[0][0, 0]
        assert np.abs(T - np.eye(c.dim)).max() < 1e-8


def test_haar_route_requires_unitary_flag():
    cands, _, _ = build_candidates(algebra_of("s3-split"))
    fake = Corepresentation(cands[0].algebra, cands[0].coeffs, unitary=False)
    with pytest.raises(ValidationError):
        mor_dim_haar(fake, cands[0])


def test_haar_route_rejects_non_integral_pairing():
    cands, _, _ = build_candidates(algebra_of("s3-split"))
    scaled = Corepresentation(cands[1].algebra, 1.3 * cands[1].coeffs,
                              unitary=True)
    with pytest.raises(NonIntegral):
        mor_dim_haar(scaled, scaled)


@settings(max_examples=40, deadline=None)
@given(i=st.integers(0, 8), j=st.integers(0, 8))
def test_routes_agree_on_candidate_pairs(i, j):
    cands, _, _ = build_candidates(algebra_of("conj-s3-rot"))
    u, w = cands[i], cands[j]
    assert mor_dim_haar(u, w) == mor_dim_solver(u, w)[0]


def test_solver_matches_classical_clebsch_gordan():
    """On the plain function algebra the solver must reproduce the
    character-theoretic tensor multiplicities of the group."""
    G = symmetric_group(3)
    A = plain_function_algebra(G)
    from kacforge.groups import matrix_irreps
    irreps = matrix_irreps(G)
    lifted = [lifted_irrep_corepresentation(A, mx) for mx in irreps]
    table = character_table(G)
    chars = [table.char_on_elements(k) for k in range(len(irreps))]
    for x in range(3):
        for y in range(3):
            t = lifted[x].tensor(lifted[y])
            for z in range(3):
                classical = np.mean(chars[x] * chars[y] * np.conj(chars[z]))
                want = int(round(classical.real))
                assert mor_dim_solver(lifted[z], t)[0] == want
    # headline: 2dim x 2dim = trivial + sign + 2dim
    t22 = lifted[2].tensor(lifted[2])
    assert [mor_dim_solver(lifted[z], t22)[0] for z in range(3)] == [1, 1, 1]


# ---------------------------------------------------------------------------
# honest enumeration


EXPECTED_DIMS = {
    "z6-abelian": {1: 6},
    "s3-split": {1: 6},
    "s3-split-dual": {1: 2, 2: 1},
    "conj-s3-rot": {1: 6, 2: 3},
    "s4-cyclic4": {1: 8, 4: 1},
    "sign-on-z7": {1: 42},
    "dihedral7-twist": {1: 4, 2: 20},
    "double-s3-twist": {1: 12, 2: 24, 3: 12},
}


@pytest.mark.parametrize("name", list(EXPECTED_DIMS))
def test_catalog_dimensions(name):
    cat = catalog_of(name)
    assert dict(Counter(cat.dims())) == EXPECTED_DIMS[name]
    assert sum(d * d for d in cat.dims()) == algebra_of(name).dim


@pytest.mark.parametrize("name", SMALL)
def test_coefficients_span_everything(name):
    cat = catalog_of(name)
    assert cat.coefficient_span_rank() == algebra_of(name).dim


def test_enumeration_is_deterministic():
    A = build_algebra(CORPUS["s3-split-dual"])
    c1 = enumerate_irreps(A)
    c2 = enumerate_irreps(A)
    assert [c.label for c in c1.canonical] == [c.label for c in c2.canonical]
    assert c1.equivalence_map == c2.equivalence_map


def test_equivalence_map_covers_candidates():
    cat = catalog_of("s3-split-dual")
    # both 2-dim candidates collapse onto the same canonical entry
    ids = [cat.equivalence_map[ci] for ci, c in enumerate(cat.candidates)
           if c.dim == 2]
    assert ids[0] == ids[1]
    # every canonical id shows up somewhere
    seen = {k for ids in cat.equivalence_map.values() for k in ids}
    assert seen == set(range(len(cat.canonical)))


def test_decompose_splits_reducible_tensor():
    A = algebra_of("s3-split-dual")
    cands, _, _ = build_candidates(A)
    two = [c for c in cands if c.dim == 2]
    big = two[0].tensor(two[1])     # 4-dim, decomposes
    pieces = decompose(big)
    assert sum(p.dim for p in pieces) == 4
    assert all(mor_dim_solver(p, p)[0] == 1 for p in pieces)
    for p in pieces:
        assert check_corepresentation(p) < 1e-7


# ---------------------------------------------------------------------------
# fusion closed form and the audit


def fusion_formula_of(name):
    """Closed-form fusion values [x, gamma, r, s] of a corpus pair."""
    mp = CORPUS[name]
    space, _, _ = orbits_fixed_sets(mp)
    table = character_table(mp.compact)
    return fusion_formula_table(mp, space,
                                table.chars[:, table.classes.class_of])


def test_fusion_formula_split_pair_is_orbit_delta():
    # trivial discrete-side action, trivial compact irrep: the value is the
    # indicator that the orbit product lands in the target orbit
    mp = CORPUS["s3-split"]
    formula = fusion_formula_of("s3-split")
    space = catalog_of("s3-split").orbit_space
    n_orb = len(space.orbits)
    for gi in range(n_orb):
        for ri in range(n_orb):
            for si in range(n_orb):
                r = space.orbits[ri][0]
                s = space.orbits[si][0]
                want = int(space.orbit_of[mp.discrete.mul(r, s)] == gi)
                assert abs(formula[0, gi, ri, si] - want) < 1e-6


def test_fusion_formula_kills_nontrivial_character():
    # with the full compact group as fiber, a nontrivial character sums to 0
    formula = fusion_formula_of("s3-split")
    n_orb = len(catalog_of("s3-split").orbit_space.orbits)
    for gi in range(n_orb):
        assert abs(formula[1, gi, 0, 0]) < 1e-6


@pytest.mark.parametrize("name", ["s3-split", "s3-split-dual", "conj-s3-rot"])
def test_audit_oracle_consistency(name):
    report = audit_fusion(algebra_of(name), catalog_of(name))
    assert report.oracle_consistent


def test_audit_flags_collapsed_candidates():
    report = audit_fusion(algebra_of("s3-split-dual"),
                          catalog_of("s3-split-dual"))
    bad = [d for d in report.distinctness if d.status == "AUDIT-DISAGREE"]
    assert len(bad) == 1
    assert {bad[0].left, bad[0].right} == {"o1*x0", "o1*x1"}
    T = bad[0].intertwiner / bad[0].intertwiner[0, 0]
    assert np.abs(T - np.diag([1.0, -1.0])).max() < 1e-9


def test_audit_no_disagreements_on_distinct_catalog():
    report = audit_fusion(algebra_of("s3-split"), catalog_of("s3-split"))
    assert report.disagreements() == []


def test_audit_finds_flip_partners():
    for name in ["s3-split", "s3-split-dual"]:
        report = audit_fusion(algebra_of(name), catalog_of(name))
        assert all(f.partner is not None for f in report.flips)


# ---------------------------------------------------------------------------
# invariant groups


EXPECTED_INVARIANTS = {
    # name: (intrinsic order, spectrum order)
    "z6-abelian": (6, 6),
    "s3-split": (6, 2),
    "s3-split-dual": (2, 6),
    "conj-s3-rot": (6, 9),
    "s4-cyclic4": (8, 2),
    "sign-on-z7": (42, 2),
    "dihedral7-twist": (4, 4),
    "double-s3-twist": (12, 4),
}


@pytest.mark.parametrize("name", list(EXPECTED_INVARIANTS))
def test_invariant_group_orders_and_models(name):
    inv = invariant_groups(algebra_of(name), catalog_of(name))
    want_int, want_sp = EXPECTED_INVARIANTS[name]
    assert inv.intrinsic.order == want_int
    assert inv.spectrum.order == want_sp
    assert inv.intrinsic_iso[0], "structured model mismatch (intrinsic)"
    assert inv.spectrum_iso[0], "structured model mismatch (spectrum)"


def test_intrinsic_of_split_pair_is_full_permutation_group():
    inv = invariant_groups(algebra_of("s3-split"), catalog_of("s3-split"))
    ok, _ = is_isomorphic_small(inv.intrinsic, symmetric_group(3))
    assert ok


def test_conjugation_pair_invariants_split_as_products():
    inv = invariant_groups(algebra_of("conj-s3-rot"), catalog_of("conj-s3-rot"))
    ok6, _ = is_isomorphic_small(inv.intrinsic, cyclic_group(6))
    assert ok6
    z3 = cyclic_group(3)
    from kacforge.groups import direct_product
    ok9, _ = is_isomorphic_small(inv.spectrum, direct_product(z3, z3))
    assert ok9


def test_spectrum_supports_lie_in_fixed_points():
    from kacforge.groups import dual_group
    for name in ["s3-split-dual", "s4-cyclic4", "dihedral7-twist"]:
        A = algebra_of(name)
        inv = invariant_groups(A, catalog_of(name))
        _, _, (fix_k, fix_el) = orbits_fixed_sets(A.pair)
        # compact support points of the algebra characters
        support = {int(A.g_of[i]) for phi in inv.spectrum_vectors
                   for i in np.flatnonzero(np.abs(phi) > 1e-9)}
        assert support == set(fix_el)
        dual_order = dual_group(A.pair.discrete).group.order
        assert inv.spectrum.order == fix_k.order * dual_order


# ---------------------------------------------------------------------------
# restriction to a compact subpair


def test_branching_restriction_dimension_count():
    mp = CORPUS["s4-cyclic4"]
    A = algebra_of("s4-cyclic4")
    cat = catalog_of("s4-cyclic4")
    kernel = beta_kernel_elements(mp)
    sub_mp, embed = compact_subpair(mp, kernel)
    A0 = build_algebra(sub_mp)
    rho = compact_restriction_morphism(A, A0, embed)
    cat0 = enumerate_irreps(A0)
    hit = set()
    # every source irrep pushes to a rep whose decomposition fills its dim
    for x in cat.canonical:
        pushed = Corepresentation(
            A0, np.einsum("mn,ijn->ijm", rho.matrix, x.coeffs),
            unitary=x.unitary)
        total = 0
        for yi, y in enumerate(cat0.canonical):
            mult = mor_dim_solver(y, pushed)[0]
            if mult:
                hit.add(yi)
            total += mult * y.dim
        assert total == x.dim
    # and every target irrep is hit by someone
    assert hit == set(range(len(cat0.canonical)))


def test_sampled_audit_says_it_was_sampled():
    A = algebra_of("s4-cyclic4")
    full = audit_fusion(A, catalog_of("s4-cyclic4"))
    part = audit_fusion(A, catalog_of("s4-cyclic4"), max_triples=10)
    assert full.triples_total == part.triples_total == len(full.entries) > 10
    assert len(part.entries) == 10
    assert full.lines()[0] == (f"fusion audit for {full.pair_name}: "
                               f"{full.triples_total} triples, "
                               f"{len(full.disagreements())} disagreements")
    assert part.lines()[0].startswith(
        f"fusion audit for {part.pair_name}: checked 10 of "
        f"{part.triples_total} triples (sampled, seed 0xc0ffee), ")
