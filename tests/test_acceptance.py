"""Release acceptance gate.

Fourteen independent end-to-end checks, one test each, every test emitting a
single ``criterion NN PASS/FAIL`` line (visible with ``pytest -s`` or on
failure).  Tolerances are stated inline and are not to be loosened; a red
criterion is information, not an inconvenience.
"""

import math
import time
from fractions import Fraction

import numpy as np

from kacforge.crossed import (DualElement, check_lemma_fourier,
                              classical_dual, conj_action_builder,
                              crossed_instance, fourier_values,
                              inverse_fourier)
from kacforge.groups import (Presentation, abelian_invariants,
                             conjugacy_and_center, direct_product,
                             is_isomorphic_small, rng_from)
from kacforge.hopf import (build_algebra, check_axioms,
                           compact_restriction_morphism,
                           coset_space_dimension)
from kacforge.library import (corpus_pairs, cyclic_group,
                              special_linear_group, symmetric_group)
from kacforge.matched import (beta_kernel_elements, compact_subpair,
                              magic_relations_report, orbits_fixed_sets)
from kacforge.measures import (chebyshev_state, rel_T_obstruction,
                               uniform_is_unit_projection)
from kacforge.reps import (audit_fusion, build_candidates, enumerate_irreps,
                           invariant_groups, mor_dim_haar, mor_dim_solver)

_state = {}


def corpus():
    if "corpus" not in _state:
        _state["corpus"] = {mp.name: mp for mp in corpus_pairs()}
    return _state["corpus"]


def algebra_of(name):
    key = ("A", name)
    if key not in _state:
        _state[key] = build_algebra(corpus()[name])
    return _state[key]


def catalog_of(name):
    key = ("cat", name)
    if key not in _state:
        _state[key] = enumerate_irreps(algebra_of(name))
    return _state[key]


def invariants_of(name):
    key = ("inv", name)
    if key not in _state:
        _state[key] = invariant_groups(algebra_of(name), catalog_of(name))
    return _state[key]


def random_dual_element(ring, seed):
    rng = rng_from(seed, 77)
    blocks = {}
    for lab in range(ring.n):
        d = int(round(ring.dims[lab]))
        blocks[lab] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return DualElement(ring, blocks)


def _verdict(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_axiom_suite_on_five_instances():
    names = ["s3-split", "s3-split-dual", "s4-cyclic4",
             "dihedral7-twist", "double-s3-twist"]
    t0 = time.monotonic()
    worst = 0.0
    for name in names:
        report = check_axioms(build_algebra(corpus()[name]))
        worst = max(worst, report.worst().deviation)
    elapsed = time.monotonic() - t0
    _verdict(1, worst < 1e-9 and elapsed < 30.0,
             f"worst residual {worst:.2e} over {len(names)} instances "
             f"in {elapsed:.2f}s (< 1e-9, < 30s)")


def test_criterion_02_dimension_count_across_corpus():
    checked, ok = 0, True
    for name, mp in corpus().items():
        dim = mp.discrete.order * mp.compact.order
        if dim > 256:
            continue
        total = sum(d * d for d in catalog_of(name).dims())
        ok = ok and total == dim == algebra_of(name).dim
        checked += 1
    _verdict(2, ok and checked == len(corpus()),
             f"sum of squared block sizes equals algebra dimension on "
             f"{checked} instances (exact)")


def test_criterion_03_both_multiplicity_routes_agree():
    pairs_checked, ok = 0, True
    for name in corpus():
        cands, _, _ = build_candidates(algebra_of(name))
        for i in range(len(cands)):
            for j in range(i, len(cands)):
                hd = mor_dim_haar(cands[i], cands[j])
                sv = mor_dim_solver(cands[i], cands[j])[0]
                ok = ok and hd == sv
                pairs_checked += 1
    _verdict(3, ok, f"invariant-pairing and nullspace multiplicities agree "
                    f"on {pairs_checked} candidate pairs (exact integers)")


def test_criterion_04_collapsed_candidates_detected():
    name = "s3-split-dual"
    dims = sorted(catalog_of(name).dims())
    cands, _, _ = build_candidates(algebra_of(name))
    two_dim = [c for c in cands if c.dim == 2]
    audit = audit_fusion(algebra_of(name), catalog_of(name))
    bad = [d for d in audit.distinctness if d.status == "AUDIT-DISAGREE"]
    merged = len(bad) == 1 and {bad[0].left, bad[0].right} == {"o1*x0", "o1*x1"}
    if merged:
        T = bad[0].intertwiner / bad[0].intertwiner[0, 0]
        dev = np.abs(T - np.diag([1.0, -1.0])).max()
    else:
        dev = float("inf")
    _verdict(4, dims == [1, 1, 2] and len(two_dim) == 2 and merged
             and dev < 1e-9,
             f"catalog {dims}, {len(two_dim)} two-dim candidates merged by "
             f"diag(1,-1) intertwiner (dev {dev:.2e}), flagged AUDIT-DISAGREE")


def test_criterion_05_invariant_group_models():
    matched = [name for name in corpus()
               if invariants_of(name).intrinsic_iso[0]
               and invariants_of(name).spectrum_iso[0]]
    s3_ok = is_isomorphic_small(invariants_of("s3-split").intrinsic,
                                symmetric_group(3))[0]
    _verdict(5, len(matched) >= 3 and "s3-split" in matched and s3_ok,
             f"semidirect models match on {len(matched)}/{len(corpus())} "
             f"instances; one-dimensional-block group of the order-2-on-3 "
             f"split is the symmetric group on 3 letters")


def test_criterion_06_amalgam_abelianization():
    t0 = time.monotonic()
    pres = Presentation(n_generators=2, relators=((4, 0), (0, 6), (2, -3)))
    ab = abelian_invariants(pres)
    elapsed = time.monotonic() - t0
    _verdict(6, tuple(ab.invariant_factors) == (12,) and ab.free_rank == 0
             and elapsed < 1.0,
             f"invariant factors {list(ab.invariant_factors)} free rank "
             f"{ab.free_rank} in {elapsed * 1000:.1f}ms (= Z/12, < 1s)")


def test_criterion_07_special_linear_centers():
    t0 = time.monotonic()
    ok, parts = True, []
    for n, p in [(2, 3), (2, 5), (3, 2)]:
        G = special_linear_group(n, p)
        center = conjugacy_and_center(G).center
        want = math.gcd(n, p - 1)
        cyclic = any(G.element_order(z) == len(center) for z in center)
        ok = ok and len(center) == want and cyclic
        parts.append(f"SL{n}(F{p}):|Z|={len(center)}")
    elapsed = time.monotonic() - t0
    _verdict(7, ok and elapsed < 60.0,
             f"{', '.join(parts)} each cyclic of order gcd(n, p-1) "
             f"in {elapsed:.2f}s (< 60s)")


def test_criterion_08_deformed_family_invariants():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    d7 = invariants_of("dihedral7-twist")
    ds = invariants_of("double-s3-twist")
    d7_ok = d7.spectrum.order == 4 and is_isomorphic_small(d7.spectrum,
                                                           klein)[0]
    ds_ok = (ds.intrinsic.order == 12 and ds.spectrum.order == 4
             and is_isomorphic_small(ds.spectrum, klein)[0])
    _verdict(8, d7_ok and ds_ok,
             f"subgroup-twist spectrum order {d7.spectrum.order} = Z/2 x Z/2; "
             f"quotient-twist one-dim group order {ds.intrinsic.order}, "
             f"spectrum order {ds.spectrum.order} = Z/2 x Z/2 (exact)")


def test_criterion_09_conjugation_product_invariants():
    inv = invariants_of("conj-s3-rot")
    int_ok = is_isomorphic_small(inv.intrinsic, cyclic_group(6))[0]
    sp_ok = is_isomorphic_small(inv.spectrum,
                                direct_product(cyclic_group(3),
                                               cyclic_group(3)))[0]
    _verdict(9, int_ok and sp_ok,
             f"one-dim-block group order {inv.intrinsic.order} = Z/6, "
             f"character group order {inv.spectrum.order} = Z/3 x Z/3 (exact)")


def test_criterion_10_transform_suite():
    S3 = symmetric_group(3)
    rot = [g for g in range(6) if S3.element_order(g) in (1, 3)]
    instances = [crossed_instance(corpus()["s3-split"]),
                 conj_action_builder(S3, rot)]
    worst_lemma = 0.0
    for inst in instances:
        for t in range(10):
            a = random_dual_element(inst.ring, seed=500 + t)
            rep = check_lemma_fourier(inst, a)
            worst_lemma = max(worst_lemma, rep.decomposition_deviation,
                              rep.norm_deviation)
    dual = classical_dual(S3)
    worst_rt = 0.0
    for t in range(10):
        a = random_dual_element(dual.ring, seed=900 + t)
        back = inverse_fourier(fourier_values(a, dual), dual)
        worst_rt = max(worst_rt,
                       max(np.abs(back.block(x) - a.block(x)).max()
                           for x in range(dual.ring.n)))
    unif = uniform_is_unit_projection(dual)
    _verdict(10, worst_lemma < 1e-9 and worst_rt < 1e-9 and unif < 1e-10,
             f"graded-decomposition identities {worst_lemma:.2e} (< 1e-9) on "
             f"2x10 draws, transform round-trip {worst_rt:.2e} (< 1e-9), "
             f"uniform-measure transform vs unit block {unif:.2e} (< 1e-10)")


def test_criterion_11_polynomial_state_decay():
    st = chebyshev_state(3, 2, 30)
    vals = st.values
    head_ok = vals[:3] == [Fraction(1), Fraction(2, 3), Fraction(3, 8)]
    exact = all(isinstance(v, Fraction) for v in vals)
    decreasing = all(vals[k + 1] < vals[k] for k in range(1, 30))
    _verdict(11, head_ok and exact and decreasing and len(vals) == 31,
             f"values start {vals[0]}, {vals[1]}, {vals[2]} and strictly "
             f"decrease for k >= 1 through cutoff 30, exact rationals")


def test_criterion_12_partition_matrix_relations():
    relations, ok = 0, True
    for name, mp in corpus().items():
        space, _, _ = orbits_fixed_sets(mp)
        for orbit in space.orbits:
            for _, good, _ in magic_relations_report(mp, orbit):
                ok = ok and good
                relations += 1
    _verdict(12, ok and relations > 0,
             f"{relations} row/column/projection/coproduct relations hold "
             f"exactly over every orbit of {len(corpus())} instances")


def test_criterion_13_identity_free_measures_stay_far():
    rep = rel_T_obstruction(symmetric_group(3))
    _verdict(13, rep.passed and rep.grid_min_distance == 2
             and rep.symbolic_ok,
             f"total-variation distance to the point mass is exactly 2 on "
             f"{rep.grid_points} exhaustive grid measures and symbolically "
             f"equals {rep.symbolic_formula}")


def test_criterion_14_coset_dimension_vs_kernel_index():
    mp = corpus()["s4-cyclic4"]
    kernel = beta_kernel_elements(mp)
    sub_mp, embed = compact_subpair(mp, kernel)
    A = algebra_of("s4-cyclic4")
    rho = compact_restriction_morphism(A, build_algebra(sub_mp), embed)
    dim = coset_space_dimension(A, rho)
    index = mp.compact.order // len(kernel)
    _verdict(14, dim == index and sub_mp.discrete.order == 6,
             f"coset-space dimension {dim} equals kernel index {index} "
             f"for the order-24 ambient instance (exact)")
