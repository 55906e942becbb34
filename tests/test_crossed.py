"""Fusion rings, crossed products, dual-side Fourier and length harnesses.

Oracle discipline: crossed fusion multiplicities and dual labels are frozen
only after both intertwiner routes (invariant-state pairing and SVD solver)
reproduced them; the Fourier inverse normalization was fixed by Schur
orthogonality round-trips before the tolerance went into the tests.
"""

import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacforge import crossed
from kacforge.cli import main
from kacforge.crossed import (ClassicalDual, CrossedFusionRing, DualElement,
                              FusionRing, RingAction,
                              action_from_pair, check_fusion_ring,
                              check_length, check_lemma_fourier,
                              classical_dual, conj_action_builder,
                              crossed_fourier, crossed_instance,
                              crude_poly_bound,
                              element_fusion_ring, fourier_values,
                              free_orthogonal_ring,
                              graded_parts, graded_word_length,
                              inverse_fourier,
                              invariantize_length, irrep_fusion_ring,
                              length_l0, rd_inequality_sample, sobolev0_norm,
                              unit_dual_element, validate_ring_action,
                              word_length)
from kacforge.errors import (ActionNotCompatible, IdentityViolated,
                             ValidationError)
from kacforge.groups import character_table, rng_from
from kacforge.hopf import build_algebra
from kacforge.library import (corpus_pairs, cyclic_group, pair_conjugation,
                              special_linear_group, symmetric_group)
from kacforge.reps import Corepresentation, mor_dim_haar, mor_dim_solver

from .helpers import quaternion_group, trivial_pair
from .oracles import brute_character_inner
from .test_reps import corep_from_dense

ROOT = Path(__file__).resolve().parent.parent

_state = {}


def fused(ring, x, y):
    """{z: multiplicity} of the product of labels x and y, z ascending."""
    row = ring.mult[x, y]
    return {int(z): int(row[z]) for z in np.flatnonzero(row)}


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
    return crossed.random_dual_element(
        ring, labels if labels is not None else range(ring.n),
        rng_from(seed, 21))


# ---------------------------------------------------------------------------
# plain fusion rings


def test_irrep_ring_of_symmetric3():
    ring = irrep_fusion_ring(symmetric_group(3))
    assert ring.labels == ["x0", "x1", "x2"]
    assert [int(d) for d in ring.dims] == [1, 1, 2]
    assert ring.unit == 0
    # the 2-dimensional label absorbs everything: x2*x2 = x0 + x1 + x2
    assert fused(ring, 2, 2) == {0: 1, 1: 1, 2: 1}
    assert fused(ring, 1, 1) == {0: 1}
    assert fused(ring, 1, 2) == {2: 1}
    assert list(ring.dual) == [0, 1, 2]


def test_irrep_ring_checks_clean():
    for G in (symmetric_group(3), symmetric_group(4), cyclic_group(6)):
        rep = check_fusion_ring(irrep_fusion_ring(G))
        assert rep["associativity"] == 0.0
        assert rep["frobenius"] == 0.0
        assert rep["dimension-homomorphism"] == 0.0


BRUTE_GROUPS = {"S3": symmetric_group(3), "S4": symmetric_group(4),
                "Q8": quaternion_group(),
                "SL(2,3)": special_linear_group(2, 3)}


def ring_and_characters(name):
    """The irrep ring of a named group and its characters on elements, in
    the ring's label order."""
    if name not in _state:
        G = BRUTE_GROUPS[name]
        table = character_table(G)
        _state[name] = irrep_fusion_ring(G), [
            table.char_on_elements(i) for i in range(table.n_irreps)]
    return _state[name]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(BRUTE_GROUPS)), data=st.data())
def test_irrep_ring_multiplicities_equal_brute_means(name, data):
    ring, chars = ring_and_characters(name)
    x, y, z = (data.draw(st.integers(0, ring.n - 1), label=label)
               for label in "xyz")
    mean = brute_character_inner(BRUTE_GROUPS[name], chars[x] * chars[y],
                                 chars[z])
    assert abs(mean - ring.mult[x, y, z]) < 1e-9


def test_element_ring_is_group_law():
    G = symmetric_group(3)
    ring = element_fusion_ring(G)
    assert ring.n == 6
    for x in range(6):
        for y in range(6):
            assert fused(ring, x, y) == {int(G.cayley[x, y]): 1}
    assert list(ring.dual) == [int(v) for v in G.inverse]
    rep = check_fusion_ring(ring)
    assert rep["associativity"] == 0.0 and rep["frobenius"] == 0.0


def _z3_ring(**change):
    """The element ring of Z3 (labels 0, 1, 2, dual 0, 2, 1), with some of
    its constructor arguments replaced."""
    x, y = np.indices((3, 3))
    mult = np.zeros((3, 3, 3), dtype=np.int32)
    mult[x, y, (x + y) % 3] = 1
    args = dict(labels=["0", "1", "2"], unit=0, dual=[0, 2, 1],
                dims=[1, 1, 1], mult=mult)
    return FusionRing(**{**args, **change})


def _bent(mult, x, y, row):
    out = mult.copy()
    out[x, y] = row
    return out


def test_fusion_ring_construction_names_each_broken_invariant():
    mult = _z3_ring().mult
    cases = [
        (dict(mult=mult[:, :, :2]), "ring-mult",
         r"multiplicity tensor has shape \(3, 3, 2\)"),
        (dict(unit=3), "ring-unit", "unit label out of range"),
        (dict(dual=[0, 1, 1]), "ring-dual", "not an involution base"),
        (dict(dual=[1, 2, 0]), "ring-dual", "dual is not an involution$"),
        (dict(dims=[1, 1, 0]), "ring-dim", "dimensions must be positive"),
        (dict(mult=_bent(mult, 1, 0, [1, 0, 0])), "ring-unit-law",
         r"unit fusion fails at \(1,0\)"),
        (dict(dual=[0, 1, 2]), "ring-dual-law",
         r"dual pairing fails at \(1,1\)"),
    ]
    for change, invariant, message in cases:
        with pytest.raises(ValidationError, match=message) as exc:
            _z3_ring(**change)
        assert exc.value.invariant == invariant


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
    assert fo.mult[2, 2].tolist() == [1, 0, 1, 0, 1, 0, 0]
    assert fo.mult[1, 2].tolist() == [0, 1, 0, 1, 0, 0, 0]
    assert not fo.overflow[2, 2] and not fo.overflow[1, 2]
    # 5 * 4 leaves the window, which keeps its part 1 + 3 + 5
    assert fo.overflow[5, 4]
    assert fo.mult[5, 4].tolist() == [0, 1, 0, 1, 0, 1, 0]


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
    assert list(inst.ring.action.perms[0]) == [0, 1, 2]
    assert list(inst.ring.action.perms[1]) == [0, 2, 1]


def test_conjugation_acts_trivially_on_labels():
    inst = conj_instance()
    for row in inst.ring.action.perms:
        assert list(row) == list(range(inst.ring.base.n))


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


def test_action_validation_names_shape_dual_and_fusion_faults():
    G2 = cyclic_group(2)
    # the elements of Z5 (dual: negation) under the swap of 1 and 4 alone,
    # which commutes with negation and keeps dimensions but not the law
    z5 = element_fusion_ring(cyclic_group(5))
    z4 = element_fusion_ring(cyclic_group(4))
    cases = [
        (z5, np.arange(5)[None], r"permutation table shape \(1, 5\)"),
        (z4, [[0, 1, 2, 3], [0, 2, 1, 3]], "row 1 breaks the dual"),
        (z5, [[0, 1, 2, 3, 4], [0, 4, 2, 3, 1]],
         r"row 1 breaks fusion at \(1,1,2\)"),
    ]
    for ring, perms, message in cases:
        with pytest.raises(ActionNotCompatible, match=message):
            validate_ring_action(ring, RingAction(G2, np.array(perms)))


def test_crossed_ring_refuses_a_truncated_base():
    base = free_orthogonal_ring(3, 8)
    with pytest.raises(ValidationError, match=r"^\[crossed-truncated\] "
                       r"free-orthogonal\(N=3,cutoff=8\) is truncated$"):
        CrossedFusionRing(base, RingAction(
            cyclic_group(2), np.tile(np.arange(base.n), (2, 1))))


def test_action_from_pair_names_an_unmatched_label():
    from kacforge.matched import MatchedPair
    R, K = cyclic_group(2), cyclic_group(3)
    bad = MatchedPair(R, K, alpha=[[0, 1, 2]] * 2, beta=[[0, 1]] * 3,
                      name="bad")
    # the generator of R "acts" by the non-bijection [0, 1, 1] of Z3
    bad.alpha = np.array([[0, 1, 2], [0, 1, 1]], dtype=np.int32)
    with pytest.raises(ActionNotCompatible,
                       match="twisted character of label 1 unmatched"):
        action_from_pair(bad)


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
    nb = inst.ring.base.n             # label (g, x) has index g * nb + x
    e_x1 = 0 * nb + 1
    t_x1 = 1 * nb + 1
    t_x2 = 1 * nb + 2
    # grade product lands where the twisted base label says: passing a label
    # across the nontrivial grade conjugates it before it multiplies
    assert fused(ring, t_x1, t_x1) == {0 * nb + 0: 1}
    assert fused(ring, t_x1, e_x1) == {t_x2: 1}
    assert fused(ring, e_x1, t_x1) == {1 * nb + 0: 1}
    assert ring.labels[t_x2] == (f"{inst.pair.discrete.labels[1]}."
                                 f"{inst.ring.base.labels[2]}")


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
            bar = A.star_vec(c.dense())
            cbar = corep_from_dense(A, bar, np.arange(A.dim), label="bar")
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
    assert sorted(a.blocks) == [2]


def classical_of(key, G):
    if key not in _state:
        _state[key] = classical_dual(G)
    return _state[key]


def test_fourier_of_unit_is_algebra_one():
    dual = classical_of("dualS3", symmetric_group(3))
    f = fourier_values(unit_dual_element(dual.ring), dual)
    one = build_algebra(trivial_pair(dual.group)).unit_vec
    assert np.abs(f - one).max() < 1e-12


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
    A = build_algebra(trivial_pair(dual.group))
    back = inverse_fourier(A.compact_function(fourier_values(a, dual)), dual)
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
            rep = check_lemma_fourier(inst, a)
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
    broken = copy.copy(base)
    broken.candidates = list(base.candidates)
    victim = base.candidates[4]
    broken.candidates[4] = Corepresentation(
        base.algebra, victim.dim,
        (victim.row, victim.col, victim.basis, 1.5 * victim.value),
        label="bad")
    a = random_dual_element(base.ring, seed=9, labels=[4])
    with pytest.raises(IdentityViolated):
        check_lemma_fourier(broken, a)


def test_crossed_fourier_is_linear_in_blocks():
    inst = twisted_instance()
    a = random_dual_element(inst.ring, seed=4)
    b = random_dual_element(inst.ring, seed=5)
    both = DualElement(inst.ring, {x: a.block(x) + 2.0 * b.block(x)
                                   for x in a.blocks.keys() | b.blocks})
    lhs = crossed_fourier(inst, both)
    rhs = crossed_fourier(inst, a) + 2.0 * crossed_fourier(inst, b)
    assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# length functions


def test_word_length_on_cyclic_elements():
    ring = element_fusion_ring(cyclic_group(6))
    lf = word_length(ring, [1])
    assert list(lf) == [0, 1, 2, 3, 2, 1]
    assert check_length(ring, lf) == 0.0


def test_word_length_on_irrep_ring():
    ring = irrep_fusion_ring(symmetric_group(3))
    lf = word_length(ring, [2])
    # sign character only appears inside the square of the 2-dim label
    assert list(lf) == [0, 2, 1]
    assert check_length(ring, lf) == 0.0


def test_word_length_unreachable_raises():
    with pytest.raises(ValidationError):
        word_length(irrep_fusion_ring(symmetric_group(3)), [1])


def test_length_l0_frozen_and_triangle():
    inst = conj_instance()
    lbase = word_length(inst.ring.base, [2])
    lgam = word_length(element_fusion_ring(inst.pair.discrete), [1])
    l0 = length_l0(inst.ring, lgam, lbase)
    assert list(l0) == [0, 2, 1, 1, 3, 2, 1, 3, 2]
    assert check_length(inst.ring, l0) == 0.0


def test_length_l0_requires_invariance():
    inst = twisted_instance()
    skew = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValidationError):
        length_l0(inst.ring, np.zeros(2), skew)
    linv = length_l0(inst.ring, np.zeros(2),
                     invariantize_length(skew, inst.ring.action))
    assert list(linv) == [0.0, 2.0, 2.0, 0.0, 2.0, 2.0]
    assert check_length(inst.ring, linv) == 0.0


def test_check_length_flags_triangle_violation():
    ring = irrep_fusion_ring(symmetric_group(3))
    bad = np.array([0.0, 5.0, 1.0])
    assert check_length(ring, bad) >= 3.0   # label 1 sits inside 2*2


# ---------------------------------------------------------------------------
# polynomial bound sampling


def test_rd_crude_bound_passes():
    for inst in both_instances():
        lbase = word_length(inst.ring.base, list(range(inst.ring.base.n)))
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
    l0 = np.zeros(inst.ring.n)
    rep = rd_inequality_sample(inst, l0, (1e-6,), samples=3, seed=1)
    assert not rep.passed
    assert rep.max_ratio > 1.0
    assert any("FAIL" in ln for ln in rep.lines())


def test_rd_deterministic():
    inst = twisted_instance()
    lbase = word_length(inst.ring.base, list(range(inst.ring.base.n)))
    lgam = word_length(element_fusion_ring(inst.pair.discrete), [1])
    l0 = length_l0(inst.ring, lgam, lbase)
    r1 = rd_inequality_sample(inst, l0, (4.0,), samples=6, seed=11)
    r2 = rd_inequality_sample(inst, l0, (4.0,), samples=6, seed=11)
    assert [s.ratio for s in r1.samples] == [s.ratio for s in r2.samples]


def test_rd_sample_builds_no_dense_left_multiplication():
    """The operator norms are read from the compact-index blocks, so the
    sample needs no dim x dim matrix of left multiplication (dim 96 on
    S4 = <4-cycle> . C4 under conjugation); the package has none."""
    S4 = symmetric_group(4)
    four_cycle = S4.permutations.index((1, 2, 3, 0))
    inst = crossed_instance(pair_conjugation(S4, S4.closure([four_cycle]),
                                             name="conj-s4-z4"))
    rep = rd_inequality_sample(inst, graded_word_length(inst),
                               crude_poly_bound(inst), samples=5)
    assert inst.algebra.dim == 96
    assert rep.passed and len(rep.samples) == 5


def test_graded_length_builds_no_element_ring(monkeypatch, capsys):
    """Every non-identity element of the discrete group is a generator, so
    its word length is 1 off the identity: the graded length equals the one
    through the element fusion ring, and `kacforge crossed` builds none."""
    want = []
    for inst in both_instances():
        R, base = inst.pair.discrete, inst.ring.base
        l_gamma = word_length(element_fusion_ring(R),
                              [g for g in range(R.order) if g != R.identity])
        want.append(length_l0(inst.ring, l_gamma,
                              word_length(base, list(range(base.n)))))

    def refuse(G):
        raise AssertionError("element fusion ring built")
    monkeypatch.setattr(crossed, "element_fusion_ring", refuse)
    for inst, l0 in zip(both_instances(), want):
        assert graded_word_length(inst).tobytes() == l0.tobytes()
    assert main(["crossed", str(ROOT / "sample_inputs" / "conj_s3.pair")]) == 0
    assert "polynomial-bound sample" in capsys.readouterr().out



def test_irrep_ring_refuses_a_table_not_closed_under_conjugation(
        monkeypatch):
    """A character table of Z3 whose third row repeats the second has no
    conjugate of the second row: its dual label is refused."""
    def doubled(G, seed):
        table = character_table(G, seed=seed)
        return dataclasses.replace(table, chars=table.chars[[0, 1, 1]])
    monkeypatch.setattr(crossed, "character_table", doubled)
    with pytest.raises(ValidationError,
                       match=r"^\[ring-dual\] conjugate of row 1 unclear$"):
        irrep_fusion_ring(cyclic_group(3))


def test_conjugation_builder_refuses_an_action_that_moves_a_label(
        monkeypatch):
    """Conjugation fixes every character, so a label action that swaps the
    two one-dimensional irreps of S3 is refused."""
    def swapped(mp, real=crossed.crossed_instance):
        inst = real(mp)
        ring = copy.copy(inst.ring)
        ring.action = dataclasses.replace(
            ring.action, perms=ring.action.perms[:, [1, 0, 2]])
        return dataclasses.replace(inst, ring=ring)
    monkeypatch.setattr(crossed, "crossed_instance", swapped)
    S3 = symmetric_group(3)
    rot = [g for g in range(6) if S3.element_order(g) in (1, 3)]
    with pytest.raises(ActionNotCompatible,
                       match=r"^conjugation moved an irrep label$"):
        conj_action_builder(S3, rot)
