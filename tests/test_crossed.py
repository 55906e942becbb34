"""Fusion rings, crossed products, dual-side Fourier and length harnesses.

Oracle discipline: crossed fusion multiplicities and dual labels are frozen
only after both intertwiner routes (invariant-state pairing and SVD solver)
reproduced them; the Fourier inverse normalization was fixed by Schur
orthogonality round-trips before the tolerance went into the tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacforge.crossed import (ClassicalDual, DualElement, LengthFunction,
                              RingAction, action_from_pair,
                              check_fusion_ring, check_length,
                              check_lemma_fourier, classical_dual,
                              conj_action_builder, crossed_fourier,
                              crossed_instance, crossed_ring, crude_poly_bound,
                              element_fusion_ring, fourier_transform,
                              fourier_values, free_orthogonal_ring,
                              graded_parts, inverse_fourier,
                              invariantize_length, irrep_fusion_ring,
                              length_l0, rd_inequality_sample, sobolev0_norm,
                              unit_dual_element, validate_ring_action,
                              word_length)
from kacforge.errors import (ActionNotCompatible, IdentityViolated,
                             TruncationOverflow, ValidationError)
from kacforge.groups import rng_from
from kacforge.library import (corpus_pairs, cyclic_group, symmetric_group)
from kacforge.reps import Corepresentation, mor_dim_haar, mor_dim_solver

_state = {}


def pairs_by_name():
    if "pairs" not in _state:
        _state["pairs"] = {p.name: p for p in corpus_pairs()}
    return _state["pairs"]


def twisted_instance():
    """Order-2 group acting on order-3 by inversion (genuinely twisted)."""
    if "twisted" not in _state:
        _state["twisted"] = crossed_instance(pairs_by_name()["s3-split"])
    return _state["twisted"]


def conj_instance():
    """Conjugation of the order-6 symmetric group by its rotations."""
    if "conj" not in _state:
        S3 = symmetric_group(3)
        rot = [g for g in range(6) if S3.element_order(g) in (1, 3)]
        _state["conj"] = conj_action_builder(S3, rot)
    return _state["conj"]


def both_instances():
    return [twisted_instance(), conj_instance()]


def random_dual_element(ring, seed, labels=None):
    rng = rng_from(seed, 21)
    blocks = {}
    for lab in (labels if labels is not None else range(ring.n)):
        d = int(round(ring.dims[lab]))
        blocks[lab] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return DualElement(ring, blocks)


# ---------------------------------------------------------------------------
# plain fusion rings


def test_irrep_ring_of_symmetric3():
    ring = irrep_fusion_ring(symmetric_group(3))
    assert ring.labels == ["x0", "x1", "x2"]
    assert [int(d) for d in ring.dims] == [1, 1, 2]
    assert ring.unit == 0
    # the 2-dimensional label absorbs everything: x2*x2 = x0 + x1 + x2
    assert ring.fuse(2, 2) == {0: 1, 1: 1, 2: 1}
    assert ring.fuse(1, 1) == {0: 1}
    assert ring.fuse(1, 2) == {2: 1}
    assert list(ring.dual) == [0, 1, 2]


def test_irrep_ring_checks_clean():
    for G in (symmetric_group(3), symmetric_group(4), cyclic_group(6)):
        rep = check_fusion_ring(irrep_fusion_ring(G))
        assert rep["associativity"] == 0.0
        assert rep["frobenius"] == 0.0
        assert rep["dimension-homomorphism"] == 0.0


def test_element_ring_is_group_law():
    G = symmetric_group(3)
    ring = element_fusion_ring(G)
    assert ring.n == 6
    for x in range(6):
        for y in range(6):
            assert ring.fuse(x, y) == {int(G.cayley[x, y]): 1}
    assert list(ring.dual) == [int(v) for v in G.inverse]
    rep = check_fusion_ring(ring)
    assert rep["associativity"] == 0.0 and rep["frobenius"] == 0.0


def test_nonconjugate_dual_labels():
    ring = irrep_fusion_ring(cyclic_group(5))
    # four nontrivial characters pair off under conjugation
    assert ring.dual[0] == 0
    for x in range(1, 5):
        assert ring.dual[x] != x
        assert ring.dual[ring.dual[x]] == x


# ---------------------------------------------------------------------------
# free orthogonal (Chebyshev) ring


def test_free_ring_dimension_recursion_frozen():
    fo = free_orthogonal_ring(3, 6)
    assert [int(d) for d in fo.dims] == [1, 3, 8, 21, 55, 144, 377]
    fo2 = free_orthogonal_ring(2, 8)
    assert [int(d) for d in fo2.dims] == list(range(1, 10))


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=7))
@settings(max_examples=25, deadline=None)
def test_free_ring_recursion_property(N, cutoff):
    fo = free_orthogonal_ring(N, cutoff)
    d = [int(v) for v in fo.dims]
    assert d[0] == 1 and d[1] == N
    for k in range(1, cutoff):
        assert d[k + 1] == N * d[k] - d[k - 1]
        assert d[k + 1] > 0


def test_free_ring_window_rule():
    fo = free_orthogonal_ring(3, 6)
    assert fo.fuse(2, 2) == {0: 1, 2: 1, 4: 1}
    assert fo.fuse(1, 2) == {1: 1, 3: 1}
    with pytest.raises(TruncationOverflow):
        fo.fuse(5, 4)
    # explicit opt-in returns the in-window part
    part = fo.fuse(5, 4, allow_truncation=True)
    assert set(part) == {1, 3, 5}


def test_free_ring_checks_skip_boundary():
    rep = check_fusion_ring(free_orthogonal_ring(3, 6))
    assert rep["associativity"] == 0.0
    assert rep["frobenius"] == 0.0
    assert rep["associativity-skipped"] > 0


def test_free_ring_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        free_orthogonal_ring(1, 5)
    with pytest.raises(ValidationError):
        free_orthogonal_ring(3, 0)


# ---------------------------------------------------------------------------
# ring actions and crossed rings


def test_action_from_twisted_pair_swaps_conjugates():
    inst = twisted_instance()
    # inversion on the order-3 group swaps the two nontrivial characters
    assert list(inst.action.perms[0]) == [0, 1, 2]
    assert list(inst.action.perms[1]) == [0, 2, 1]


def test_conjugation_acts_trivially_on_labels():
    inst = conj_instance()
    for row in inst.action.perms:
        assert list(row) == list(range(inst.base_ring.n))


def test_action_validation_rejects_bad_rows():
    ring = irrep_fusion_ring(cyclic_group(3))
    G2 = cyclic_group(2)
    ok = RingAction(group=G2, perms=np.array([[0, 1, 2], [0, 2, 1]]))
    assert validate_ring_action(ring, ok)
    with pytest.raises(ActionNotCompatible):
        validate_ring_action(ring, RingAction(G2, np.array([[0, 1, 2],
                                                            [0, 1, 1]])))
    with pytest.raises(ActionNotCompatible):
        validate_ring_action(ring, RingAction(G2, np.array([[0, 1, 2],
                                                            [1, 0, 2]])))
    with pytest.raises(ActionNotCompatible):
        # identity row must be trivial
        validate_ring_action(ring, RingAction(G2, np.array([[0, 2, 1],
                                                            [0, 1, 2]])))
    # each row an automorphism, but P[1 + 2] = id is not swap after id
    Z3 = cyclic_group(3)
    with pytest.raises(ActionNotCompatible,
                       match=r"not a homomorphism at \(1,2\)"):
        validate_ring_action(ring, RingAction(Z3, np.array([[0, 1, 2],
                                                            [0, 2, 1],
                                                            [0, 1, 2]])))


def test_action_must_preserve_dimensions():
    ring = irrep_fusion_ring(symmetric_group(3))
    G2 = cyclic_group(2)
    with pytest.raises(ActionNotCompatible):
        validate_ring_action(ring, RingAction(G2, np.array([[0, 1, 2],
                                                            [0, 2, 1]])))


def test_crossed_ring_shape_and_checks():
    for inst, n_expected in zip(both_instances(), (6, 9)):
        assert inst.ring.n == n_expected
        rep = check_fusion_ring(inst.ring)
        assert rep["associativity"] == 0.0
        assert rep["frobenius"] == 0.0
        assert rep["dimension-homomorphism"] == 0.0


def test_crossed_rejects_graded_discrete_action():
    with pytest.raises(ActionNotCompatible):
        crossed_instance(pairs_by_name()["s4-cyclic4"])


def test_crossed_ring_twist_visible():
    inst = twisted_instance()
    ring = inst.ring
    nb = inst.base_ring.n             # label (g, x) has index g * nb + x
    e_x1 = 0 * nb + 1
    t_x1 = 1 * nb + 1
    t_x2 = 1 * nb + 2
    # grade product lands where the twisted base label says: passing a label
    # across the nontrivial grade conjugates it before it multiplies
    assert ring.fuse(t_x1, t_x1) == {0 * nb + 0: 1}
    assert ring.fuse(t_x1, e_x1) == {t_x2: 1}
    assert ring.fuse(e_x1, t_x1) == {1 * nb + 0: 1}
    assert ring.labels[t_x2] == (f"{inst.pair.discrete.labels[1]}."
                                 f"{inst.base_ring.labels[2]}")


# ---------------------------------------------------------------------------
# the oracle: ring data against intertwiner dimensions


def test_crossed_fusion_matches_both_intertwiner_routes():
    for inst in both_instances():
        for i in range(inst.ring.n):
            for j in range(inst.ring.n):
                tens = inst.candidates[i].tensor(inst.candidates[j])
                for t in range(inst.ring.n):
                    want = inst.ring.mult[i, j, t]
                    assert mor_dim_haar(inst.candidates[t], tens) == want
                    got, _ = mor_dim_solver(inst.candidates[t], tens)
                    assert got == want


def test_crossed_dual_matches_star_conjugate():
    for inst in both_instances():
        A = inst.algebra
        for i in range(inst.ring.n):
            c = inst.candidates[i]
            bar = np.stack([[A.star_vec(c.coeffs[a, b])
                             for b in range(c.dim)] for a in range(c.dim)])
            cbar = Corepresentation(A, bar, label="bar", unitary=True)
            hits = [t for t in range(inst.ring.n)
                    if mor_dim_haar(inst.candidates[t], cbar) == 1]
            assert hits == [int(inst.ring.dual[i])]


# ---------------------------------------------------------------------------
# dual elements and classical Fourier


def test_dual_element_shape_validation():
    ring = irrep_fusion_ring(symmetric_group(3))
    with pytest.raises(ValidationError):
        DualElement(ring, {2: np.eye(3)})
    a = DualElement(ring, {2: np.eye(2)})
    assert a.support() == [2]


def test_dual_element_arithmetic():
    ring = irrep_fusion_ring(symmetric_group(3))
    a = DualElement(ring, {0: [[1.0]], 2: np.eye(2)})
    b = DualElement(ring, {2: np.eye(2)})
    s = a + b.scale(2.0)
    assert np.allclose(s.block(2), 3 * np.eye(2))
    assert np.allclose(s.block(0), [[1.0]])
    assert np.allclose(s.block(1), [[0.0]])


def classical_of(key, G):
    if key not in _state:
        _state[key] = classical_dual(G)
    return _state[key]


def test_fourier_of_unit_is_algebra_one():
    dual = classical_of("dualS3", symmetric_group(3))
    f = fourier_transform(unit_dual_element(dual.ring), dual)
    assert np.abs(f.vec - dual.algebra.one().vec).max() < 1e-12


def test_fourier_of_identity_blocks_is_delta_at_identity():
    # sum of dim * character = regular character: order at e, zero elsewhere
    G = symmetric_group(3)
    dual = classical_of("dualS3", G)
    blocks = {x: np.eye(int(round(dual.ring.dims[x])))
              for x in range(dual.ring.n)}
    vals = fourier_values(DualElement(dual.ring, blocks), dual)
    want = np.zeros(6)
    want[G.identity] = 6.0
    assert np.abs(vals - want).max() < 1e-10


def test_fourier_round_trip_no_dimension_factor():
    dual = classical_of("dualS3", symmetric_group(3))
    for t in range(10):
        a = random_dual_element(dual.ring, seed=t)
        back = inverse_fourier(fourier_values(a, dual), dual)
        dev = max(np.abs(back.block(x) - a.block(x)).max()
                  for x in range(dual.ring.n))
        assert dev < 1e-9
        # the dimension-weighted variant does NOT round-trip
        wrong = max(np.abs(dual.ring.dims[x] * back.block(x) - a.block(x)).max()
                    for x in range(dual.ring.n))
        assert wrong > 1e-2


def test_inverse_accepts_algebra_elements():
    dual = classical_of("dualS3", symmetric_group(3))
    a = random_dual_element(dual.ring, seed=3)
    f = fourier_transform(a, dual)
    back = inverse_fourier(f, dual)
    dev = max(np.abs(back.block(x) - a.block(x)).max()
              for x in range(dual.ring.n))
    assert dev < 1e-9


def test_classical_parseval():
    dual = classical_of("dualS3", symmetric_group(3))
    for t in range(5):
        a = random_dual_element(dual.ring, seed=100 + t)
        lhs = sobolev0_norm(a) ** 2
        rhs = float(np.mean(np.abs(fourier_values(a, dual)) ** 2))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, lhs)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=20, deadline=None)
def test_round_trip_property(seed):
    dual = classical_of("dualZ6", cyclic_group(6))
    a = random_dual_element(dual.ring, seed=seed)
    back = inverse_fourier(fourier_values(a, dual), dual)
    dev = max(np.abs(back.block(x) - a.block(x)).max()
              for x in range(dual.ring.n))
    assert dev < 1e-9


# ---------------------------------------------------------------------------
# graded decomposition of the crossed transform


def test_lemma_fourier_ten_draws_two_instances():
    for inst in both_instances():
        for t in range(10):
            a = random_dual_element(inst.ring, seed=1000 + t)
            rep = check_lemma_fourier(inst, a, tol=1e-9)
            assert rep.passed
            assert rep.decomposition_deviation < 1e-9
            assert rep.norm_deviation < 1e-9
            assert rep.parseval_deviation < 1e-9


def test_lemma_fourier_sparse_support():
    inst = conj_instance()
    a = random_dual_element(inst.ring, seed=77, labels=[1, 5, 8])
    rep = check_lemma_fourier(inst, a)
    assert rep.passed
    parts = graded_parts(inst, a)
    assert sum(len(p.blocks) for p in parts.values()) == 3


def test_lemma_fourier_raises_on_tampered_candidate():
    base = conj_instance()
    import copy
    broken = copy.copy(base)
    broken.candidates = list(base.candidates)
    victim = base.candidates[4]
    broken.candidates[4] = Corepresentation(
        base.algebra, 1.5 * victim.coeffs, label="bad", unitary=True)
    a = random_dual_element(base.ring, seed=9, labels=[4])
    with pytest.raises(IdentityViolated):
        check_lemma_fourier(broken, a)


def test_crossed_fourier_is_linear_in_blocks():
    inst = twisted_instance()
    a = random_dual_element(inst.ring, seed=4)
    b = random_dual_element(inst.ring, seed=5)
    lhs = crossed_fourier(inst, a + b.scale(2.0)).vec
    rhs = crossed_fourier(inst, a).vec + 2.0 * crossed_fourier(inst, b).vec
    assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# length functions


def test_word_length_on_cyclic_elements():
    lf = word_length(element_fusion_ring(cyclic_group(6)), [1])
    assert list(lf.values) == [0, 1, 2, 3, 2, 1]
    assert check_length(lf) == 0.0


def test_word_length_on_irrep_ring():
    lf = word_length(irrep_fusion_ring(symmetric_group(3)), [2])
    # sign character only appears inside the square of the 2-dim label
    assert list(lf.values) == [0, 2, 1]
    assert check_length(lf) == 0.0


def test_word_length_unreachable_raises():
    with pytest.raises(ValidationError):
        word_length(irrep_fusion_ring(symmetric_group(3)), [1])


def test_length_l0_frozen_and_triangle():
    inst = conj_instance()
    lbase = word_length(inst.base_ring, [2])
    lgam = word_length(element_fusion_ring(inst.pair.discrete), [1])
    l0 = length_l0(inst.ring, lgam, lbase)
    assert list(l0.values) == [0, 2, 1, 1, 3, 2, 1, 3, 2]
    assert check_length(l0) == 0.0


def test_length_l0_requires_invariance():
    inst = twisted_instance()
    skew = LengthFunction(inst.base_ring, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValidationError):
        length_l0(inst.ring, np.zeros(2), skew)
    linv = length_l0(inst.ring, np.zeros(2),
                     invariantize_length(skew, inst.action))
    assert list(linv.values) == [0.0, 2.0, 2.0, 0.0, 2.0, 2.0]
    assert check_length(linv) == 0.0


def test_check_length_flags_triangle_violation():
    ring = irrep_fusion_ring(symmetric_group(3))
    bad = LengthFunction(ring, np.array([0.0, 5.0, 1.0]))
    assert check_length(bad) >= 3.0   # label 1 sits inside 2*2


# ---------------------------------------------------------------------------
# polynomial bound sampling


def test_rd_crude_bound_passes():
    for inst in both_instances():
        lbase = word_length(inst.base_ring, list(range(inst.base_ring.n)))
        lgam = word_length(element_fusion_ring(inst.pair.discrete),
                           list(range(1, inst.pair.discrete.order)))
        l0 = length_l0(inst.ring, lgam, lbase)
        rep = rd_inequality_sample(inst, l0, crude_poly_bound(inst),
                                   samples=12, seed=5)
        assert rep.passed
        assert rep.max_ratio <= 1.0
        assert len(rep.samples) == 12
        assert any("PASS" in ln for ln in rep.lines())


def test_rd_reports_violation_without_raising():
    inst = twisted_instance()
    l0 = LengthFunction(inst.ring, np.zeros(inst.ring.n))
    rep = rd_inequality_sample(inst, l0, (1e-6,), samples=3, seed=1)
    assert not rep.passed
    assert rep.max_ratio > 1.0
    assert any("FAIL" in ln for ln in rep.lines())


def test_rd_refuses_truncated():
    fo = free_orthogonal_ring(3, 4)

    class Fake:
        ring = fo
    with pytest.raises(ValidationError):
        rd_inequality_sample(Fake(), LengthFunction(fo, np.arange(5.0)),
                             (1.0,))


def test_rd_deterministic():
    inst = twisted_instance()
    lbase = word_length(inst.base_ring, list(range(inst.base_ring.n)))
    lgam = word_length(element_fusion_ring(inst.pair.discrete), [1])
    l0 = length_l0(inst.ring, lgam, lbase)
    r1 = rd_inequality_sample(inst, l0, (4.0,), samples=6, seed=11)
    r2 = rd_inequality_sample(inst, l0, (4.0,), samples=6, seed=11)
    assert [s.ratio for s in r1.samples] == [s.ratio for s in r2.samples]

