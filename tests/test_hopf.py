"""Crossed-product function algebras: structure tables checked against an
independently built operator model, exhaustive axiom certification, embedded
classical pieces, and quotient-space dimensions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacforge.errors import AxiomViolation, NotAMorphism
from kacforge.groups import group_from_cayley
from kacforge.hopf import (Morphism, build_algebra, check_axioms,
                           compact_restriction_morphism, coset_space_dimension,
                           group_subalgebra_check, plain_function_algebra,
                           structure_dump, validate_morphism)
from kacforge.library import corpus_pairs, symmetric_group
from kacforge.matched import (MatchedPair, beta_kernel_elements,
                              compact_subpair)

from .oracles import (covariant_rep_partial_maps, naive_law_violations,
                      transpose_partial_map)

CORPUS = {mp.name: mp for mp in corpus_pairs()}
SMALL = ["z6-abelian", "s3-split", "s3-split-dual", "conj-s3-rot", "s4-cyclic4"]
MEDIUM = SMALL + ["sign-on-z7"]
HEAVYISH = MEDIUM + ["dihedral7-twist"]

_algebras = {}


def algebra_of(name):
    if name not in _algebras:
        _algebras[name] = build_algebra(CORPUS[name])
    return _algebras[name]


# ---------------------------------------------------------------------------
# product / star tables against the independent operator model


@pytest.mark.parametrize("name", list(CORPUS))
def test_product_table_matches_operator_model(name):
    A = algebra_of(name)
    rep = covariant_rep_partial_maps(CORPUS[name])
    n = A.dim
    # the model must separate basis elements for the comparison to mean anything
    assert len({tuple(row) for row in rep}) == n
    for i in range(n):
        mi = rep[i]
        composed = np.where(rep >= 0, mi[np.clip(rep, 0, None)], -1)
        # every j outside the partner row multiplies to zero: an empty map
        expected = np.full_like(rep, -1)
        expected[A.partner[i]] = rep[A.result[i]]
        assert np.array_equal(composed, expected), f"row {i} of {name}"


@pytest.mark.parametrize("name", list(CORPUS))
def test_star_table_matches_operator_adjoint(name):
    A = algebra_of(name)
    rep = covariant_rep_partial_maps(CORPUS[name])
    for i in range(A.dim):
        adj = transpose_partial_map(rep[i], A.dim)
        assert np.array_equal(adj, rep[A.star_index[i]])


# ---------------------------------------------------------------------------
# axiom certification


@pytest.mark.parametrize("name", HEAVYISH)
def test_axioms_hold_exactly(name):
    report = check_axioms(algebra_of(name))
    assert report.passed, report.worst()
    assert report.worst().deviation == 0.0
    assert all(line.startswith("PASS") for line in report.lines())
    report.raise_if_failed()  # must be a no-op


def _corrupted_s4_cyclic4():
    """s4-cyclic4 with two entries of one nontrivial beta row swapped."""
    mp = CORPUS["s4-cyclic4"]
    beta = np.array(mp.beta)
    nr = mp.discrete.order
    g = next(gg for gg in range(mp.compact.order)
             if not np.array_equal(beta[gg], np.arange(nr)))
    beta[g, 0], beta[g, 1] = beta[g, 1], beta[g, 0]
    return MatchedPair(mp.discrete, mp.compact, mp.alpha, beta,
                       name="broken", validate=False)


def test_corrupted_action_fails_axioms():
    report = check_axioms(build_algebra(_corrupted_s4_cyclic4()))
    assert not report.passed
    failing = {c.name for c in report.checks if c.deviation > report.tol}
    assert failing & {"coassociativity", "coproduct-multiplicative",
                      "antipode-laws", "haar-invariance"}
    with pytest.raises(AxiomViolation):
        report.raise_if_failed()


@pytest.mark.parametrize("name", MEDIUM + ["broken"])
def test_axiom_report_agrees_with_naive_checker(name):
    mp = _corrupted_s4_cyclic4() if name == "broken" else CORPUS[name]
    report = check_axioms(build_algebra(mp))
    naive = naive_law_violations(mp)
    assert [c.name for c in report.checks] == list(naive)
    assert {c.name for c in report.checks if c.deviation > report.tol} == \
        {law for law, count in naive.items() if count > 0}


@pytest.mark.parametrize("name", SMALL)
def test_classical_pieces_embed(name):
    report = group_subalgebra_check(algebra_of(name))
    assert report.passed, report.worst()


def test_plain_function_algebra_is_commutative():
    A = plain_function_algebra(symmetric_group(3))
    table = np.full((A.dim, A.dim), -1)
    table[np.arange(A.dim)[:, None], A.partner] = A.result
    assert np.array_equal(table, table.T)
    assert check_axioms(A).passed
    assert A.dim == 6


# ---------------------------------------------------------------------------
# the invariant state is the unique bi-invariant normalized functional


@pytest.mark.parametrize("name", MEDIUM)
def test_invariant_state_is_unique(name):
    A = algebra_of(name)
    n = A.dim
    one = A.one().vec.real
    constraints = np.zeros((n * n, n))
    for i in range(n):
        np.add.at(constraints, (i * n + A.delta_left[i], A.delta_right[i]), 1.0)
        constraints[i * n: i * n + n, i] -= one
    svals = np.linalg.svd(constraints, compute_uv=False)
    assert int(np.sum(svals <= 1e-9 * svals.max())) == 1
    assert np.abs(constraints @ A.haar_vec).max() < 1e-12


# ---------------------------------------------------------------------------
# element arithmetic


def test_element_arithmetic_s4():
    A = algebra_of("s4-cyclic4")
    rng = np.random.default_rng(7)
    a = A.from_vector(rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim))
    b = A.from_vector(rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim))
    c = A.from_vector(rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim))
    one = A.one()

    assert np.abs((one * a).vec - a.vec).max() <= 1e-12
    assert np.abs((a * one).vec - a.vec).max() <= 1e-12
    assert np.abs(((a * b) * c).vec - (a * (b * c)).vec).max() <= 1e-9
    assert np.abs((a * b).star().vec - (b.star() * a.star()).vec).max() <= 1e-9
    assert np.abs((2j * a).star().vec - ((-2j) * a.star()).vec).max() <= 1e-12
    assert np.abs((a * b).antipode().vec -
                  (b.antipode() * a.antipode()).vec).max() <= 1e-9
    assert abs(one.haar() - 1.0) < 1e-12
    assert abs(one.counit() - 1.0) < 1e-12

    basis = A.from_vector(np.eye(A.dim)[A.basis_index(1, 2)])
    assert "u[" in repr(basis)


def test_inner_product_gram_is_scaled_identity():
    A = algebra_of("s3-split")
    n = A.dim
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n, dtype=complex)
            ej = np.zeros(n, dtype=complex)
            ei[i] = 1.0
            ej[j] = 1.0
            want = (1.0 / A.nk) if i == j else 0.0
            assert abs(A.inner(ei, ej) - want) < 1e-12


def test_left_mult_matrix_agrees_with_product():
    A = algebra_of("s4-cyclic4")
    rng = np.random.default_rng(11)
    a = rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim)
    b = rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim)
    assert np.abs(A.left_mult_matrix(a) @ b - A.mul_vec(a, b)).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_state_positive_and_tracial(seed):
    A = algebra_of("s3-split-dual")
    rng = np.random.default_rng(seed)
    a = rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim)
    b = rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim)
    quad = A.haar(A.mul_vec(A.star_vec(a), a))
    assert quad.real >= -1e-12
    assert abs(quad.imag) < 1e-12
    lhs = A.haar(A.mul_vec(a, b))
    rhs = A.haar(A.mul_vec(b, a))
    assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# antipode on the embedded generators


@pytest.mark.parametrize("name", SMALL)
def test_antipode_inverts_compact_points(name):
    A = algebra_of(name)
    K = A.pair.compact
    e = A.pair.discrete.identity
    for g in range(K.order):
        d_g = A.from_vector(np.eye(A.dim)[A.basis_index(e, g)])
        want = np.eye(A.dim)[A.basis_index(e, K.inv(g))]
        assert np.abs(d_g.antipode().vec - want).max() <= 1e-10


def test_antipode_inverts_discrete_unitaries_when_action_one_sided():
    A = algebra_of("s3-split")  # trivial discrete-side action
    R = A.pair.discrete
    for r in range(R.order):
        u_r = A.discrete_unitary(r)
        want = A.discrete_unitary(R.inv(r)).vec
        assert np.abs(u_r.antipode().vec - want).max() <= 1e-10


# ---------------------------------------------------------------------------
# structure dump


def test_structure_dump_is_deterministic():
    first = structure_dump(algebra_of("s3-split-dual"))
    second = structure_dump(build_algebra(CORPUS["s3-split-dual"]))
    assert first == second
    lines = first.strip().split("\n")
    n = algebra_of("s3-split-dual").dim
    assert sum(1 for ln in lines if ln.startswith("mul ")) == n
    assert sum(1 for ln in lines if ln.startswith("delta ")) == n
    assert sum(1 for ln in lines if ln.startswith("basis ")) == n


# ---------------------------------------------------------------------------
# morphisms and quotient-space dimensions


def test_morphism_validation_rejects_bad_maps():
    A = algebra_of("z6-abelian")
    with pytest.raises(NotAMorphism):
        validate_morphism(Morphism(A, A, np.zeros((A.dim, A.dim))))
    with pytest.raises(NotAMorphism):
        validate_morphism(Morphism(A, A, 2.0 * np.eye(A.dim)))
    perm = np.roll(np.eye(A.dim), 1, axis=0)
    with pytest.raises(NotAMorphism):
        validate_morphism(Morphism(A, A, perm))


def _restriction_dimension(name, subset):
    mp = CORPUS[name]
    A = algebra_of(name)
    sub_mp, embed = compact_subpair(mp, subset)
    A0 = build_algebra(sub_mp)
    rho = compact_restriction_morphism(A, A0, embed)
    return coset_space_dimension(A, rho)


def test_quotient_by_everything_is_a_point():
    assert _restriction_dimension("s4-cyclic4",
                                  list(range(CORPUS["s4-cyclic4"].compact.order))) == 1


def test_quotient_by_identity_recovers_compact_functions():
    mp = CORPUS["s4-cyclic4"]
    assert _restriction_dimension("s4-cyclic4", [mp.compact.identity]) == \
        mp.compact.order


def test_quotient_by_kernel_of_discrete_action():
    mp = CORPUS["s4-cyclic4"]
    kernel = beta_kernel_elements(mp)
    expected = mp.compact.order // len(kernel)
    assert _restriction_dimension("s4-cyclic4", kernel) == expected


def test_quotient_by_counit_is_everything():
    # the counit as a morphism onto the one-dimensional algebra
    A = algebra_of("s3-split-dual")
    point = plain_function_algebra(group_from_cayley([[0]], labels=["e"]))
    rho = Morphism(A, point, A.counit_vec.astype(float)[None, :])
    assert coset_space_dimension(A, rho) == A.dim


def test_quotient_split_pair_where_kernel_is_everything():
    mp = CORPUS["s3-split"]
    kernel = beta_kernel_elements(mp)
    assert len(kernel) == mp.compact.order
    assert _restriction_dimension("s3-split", kernel) == 1
    assert _restriction_dimension("s3-split", [mp.compact.identity]) == \
        mp.compact.order
