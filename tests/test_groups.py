"""Finite-group layer: constructors, invariants, character data."""

import hashlib
import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kacforge import groups
from kacforge.config import RETRY_BUDGET
from kacforge.errors import (ExtractionFailed, NonIntegral, NotAnAction,
                             SeedDegenerate, SizeBound, ValidationError)
from kacforge.groups import (AbelianGroup, FiniteGroup, Presentation,
                             abelian_invariants, character_table,
                             closure_table, conjugacy_and_center,
                             direct_product, dual_group, group_from_cayley,
                             group_from_matrices_mod, group_from_permutations,
                             is_isomorphic_small, matrix_irreps,
                             permuted_rows, quotient_group,
                             rounded_pairings, semidirect_product)
from kacforge.library import (cyclic_group, special_linear_group,
                              symmetric_group)

from .helpers import dihedral_group, quaternion_group
from .oracles import (abelian_invariants_by_orders, brute_center,
                      brute_conjugacy_classes, brute_is_homomorphism,
                      naive_generating_sequence, snf_invariants_via_minors)

S3 = symmetric_group(3)
S4 = symmetric_group(4)
Z12 = cyclic_group(12)
Q8 = quaternion_group()

POOL = [
    cyclic_group(1), cyclic_group(5), Z12, S3, S4,
    dihedral_group(4), dihedral_group(7), Q8,
    direct_product(cyclic_group(2), cyclic_group(6)),
]

# the seeded sweep as the earlier per-element checks reported it
SEMIDIRECT_SWEEP_KINDS = {"ok": 38, "not a bijection": 43,
                          "identity of Q does not act trivially": 18,
                          "not an automorphism": 55,
                          "act_(pq) != act_p act_q": 46}
SEMIDIRECT_SWEEP_SHA256 = \
    "1c12df1e4ae51a949299120bd23a0e8885cdfb05efb447044a54570f795f85a0"


# ---------------------------------------------------------------------------
# constructors and validation


def test_cayley_rejects_missing_identity():
    bad = (2 * np.arange(5)[:, None] + np.arange(5)[None, :]) % 5
    with pytest.raises(ValidationError, match="identity"):
        group_from_cayley(bad)


def test_cayley_rejects_non_latin():
    bad = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
    with pytest.raises(ValidationError, match="latin"):
        group_from_cayley(bad)


def test_cayley_rejects_nonassociative_loop():
    # order-5 loop: latin with identity, but (1*2)*4 != 1*(2*4)
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(ValidationError, match="associativity"):
        group_from_cayley(loop)


def test_permutation_constructor_s4():
    assert S4.order == 24
    assert S4.labels[S4.identity] == "e"
    assert sorted(S4.element_orders()) == sorted([1] + [2] * 9 + [3] * 8 + [4] * 6)


def test_matrix_constructor_rejects_bad_modulus():
    with pytest.raises(ValidationError, match="modulus"):
        group_from_matrices_mod([[[1]]], modulus=1)


def test_table_cap_guard():
    with pytest.raises(SizeBound), mock.patch.object(groups, "TABLE_CAP", 10):
        group_from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])


# ---------------------------------------------------------------------------
# abelian invariants


def test_amalgam_rows_oracle_and_snf():
    rows = ((4, 0), (0, 6), (2, -3))
    # oracle first: gcd-of-minors route
    assert snf_invariants_via_minors(rows, 2) == ((12,), 0)
    got = abelian_invariants(Presentation(2, rows))
    assert got == AbelianGroup((12,), 0)


def test_presentation_with_free_part():
    got = abelian_invariants(Presentation(2, ((2, 0),)))
    assert got == AbelianGroup((2,), 1)
    assert str(got) == "Z/2 x Z"


def test_presentation_rejects_ragged_relator():
    with pytest.raises(ValidationError, match="relator"):
        Presentation(2, ((1, 2, 3),))


@pytest.mark.parametrize("build,expected", [
    (lambda: Z12, (12,)),
    (lambda: direct_product(cyclic_group(2), cyclic_group(6)), (2, 6)),
    (lambda: direct_product(cyclic_group(8), cyclic_group(2)), (2, 8)),
    (lambda: direct_product(cyclic_group(4), cyclic_group(6)), (2, 12)),
    (lambda: cyclic_group(1), ()),
])
def test_abelian_invariants_of_groups(build, expected):
    assert abelian_invariants_by_orders(build()) == (expected, 0)


def test_group_vs_presentation_agree_for_z12():
    assert AbelianGroup(*abelian_invariants_by_orders(Z12)) == \
        abelian_invariants(Presentation(2, ((4, 0), (0, 6), (2, -3))))


@st.composite
def relator_matrices(draw, max_rows=5, max_cols=4, bound=9):
    """Up to ``max_rows`` rows of ``1..max_cols`` entries in -bound..bound,
    possibly none, with zero rows and repeated rows mixed in."""
    n_cols = draw(st.integers(1, max_cols))
    entry = st.integers(-bound, bound)
    rows = draw(st.lists(st.tuples(*[entry] * n_cols), max_size=max_rows))
    if rows and len(rows) < max_rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), rows[draw(
            st.integers(0, len(rows) - 1))])
    if len(rows) < max_rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (0,) * n_cols)
    return rows, n_cols


@settings(max_examples=200, deadline=None)
@given(relator_matrices())
def test_smith_invariants_equal_the_minors_oracle(matrix):
    rows, n_cols = matrix
    assert groups._smith_invariants(rows, n_cols) == \
        snf_invariants_via_minors(rows, n_cols)


@pytest.mark.parametrize("seed", range(12))
def test_smith_invariants_equal_sympy_on_larger_matrices(seed):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(6, 13)), int(rng.integers(3, 7))
    a = rng.integers(-50, 51, size=(m, n)) * (rng.random((m, n)) < 0.6)
    rows = [tuple(r) for r in a.tolist()]
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(m, n))]
    expected = tuple(d for d in diag if d > 1), n - sum(d != 0 for d in diag)
    assert groups._smith_invariants(rows, n) == expected


@pytest.mark.parametrize("rows,n_cols,expected", [
    ((), 3, ((), 3)),                              # no relator: free of rank 3
    (((0, 0, 0), (0, 0, 0)), 3, ((), 3)),          # zero rows only
    (((2, 0, 0),), 3, ((2,), 2)),                  # torsion plus free rank
    (((4, 6, 0),), 3, ((2,), 2)),
    (((6,), (-4,), (10,)), 1, ((2,), 0)),          # one column: the gcd
    (((0,),), 1, ((), 1)),
    (((-1,),), 1, ((), 0)),
    (((-3, 0), (0, -5)), 2, ((15,), 0)),           # negative pivots
    (((-6, -4),), 2, ((2,), 1)),
    (((-4, 0), (0, 6)), 2, ((2, 12), 0)),          # pivot divides nothing
    (((2, 0), (0, 3)), 2, ((6,), 0)),
])
def test_smith_invariants_edge_cases(rows, n_cols, expected):
    assert groups._smith_invariants(rows, n_cols) == expected
    assert groups._smith_invariants(rows, n_cols) == \
        snf_invariants_via_minors(rows, n_cols)


@st.composite
def cyclic_orders(draw, cap=512):
    """One to four cyclic orders whose product is at most ``cap``."""
    orders = []
    for _ in range(draw(st.integers(1, 4))):
        orders.append(draw(st.integers(1, cap // math.prod(orders))))
    return orders


@settings(max_examples=60, deadline=None)
@given(orders=cyclic_orders(), seed=st.integers(0, 2 ** 32 - 1))
def test_group_invariants_equal_minors_of_the_diagonal_presentation(orders,
                                                                    seed):
    G = cyclic_group(orders[0])
    for n in orders[1:]:
        G = direct_product(G, cyclic_group(n))
    # relabel, so the identity and the generators move off their indices
    p = np.random.default_rng(seed).permutation(G.order)
    inv = np.argsort(p)
    H = FiniteGroup(p[G.cayley[inv][:, inv]])
    diagonal = [[n if i == j else 0 for j in range(len(orders))]
                for i, n in enumerate(orders)]
    assert AbelianGroup(*abelian_invariants_by_orders(H)) == AbelianGroup(
        *snf_invariants_via_minors(diagonal, len(orders)))


@pytest.mark.parametrize("G", POOL + [symmetric_group(5)],
                         ids=lambda G: f"order{G.order}")
def test_generators_are_the_greedy_sequence(G):
    """The kept generating sequence, grown as a mask, equals the greedy
    sequence of a Python-set closure, also on a relabelled copy whose
    identity is not element 0."""
    p = np.random.default_rng(G.order).permutation(G.order)
    H = FiniteGroup(p[G.cayley[np.argsort(p)][:, np.argsort(p)]])
    for K in (G, H):
        assert K.generators == naive_generating_sequence(K.cayley, K.identity)
        assert K.closure(K.generators) == list(range(K.order))


# ---------------------------------------------------------------------------
# conjugacy and centers


def test_s3_classes_and_center():
    data = conjugacy_and_center(S3)
    assert sorted(len(c) for c in data.classes) == [1, 2, 3]
    assert data.classes[0] == [S3.identity]
    assert data.center == [S3.identity]
    assert data.center == brute_center(S3)


def test_s4_class_sizes():
    data = conjugacy_and_center(S4)
    assert sorted(len(c) for c in data.classes) == [1, 3, 6, 6, 8]


@pytest.mark.parametrize("n,p,expected_center_order", [
    (2, 3, 2), (2, 5, 2), (3, 2, 1),
])
def test_special_linear_centers_match_gcd_rule(n, p, expected_center_order):
    G = special_linear_group(n, p)
    from math import gcd
    assert expected_center_order == gcd(n, p - 1)
    center = brute_center(G)
    assert len(center) == expected_center_order
    assert conjugacy_and_center(G).center == center


def test_sl_orders():
    assert special_linear_group(2, 3).order == 24
    assert special_linear_group(2, 5).order == 120
    assert special_linear_group(3, 2).order == 168


# ---------------------------------------------------------------------------
# quotients, products


def test_quotient_s3_by_rotations():
    rot = S3.closure([next(g for g in range(6) if S3.element_order(g) == 3)])
    Q, proj = quotient_group(S3, rot)
    assert Q.order == 2
    assert all(proj[S3.cayley[a, b]] == Q.cayley[proj[a], proj[b]]
               for a in range(6) for b in range(6))


def test_quotient_rejects_non_normal():
    refl = S3.closure([next(g for g in range(6) if S3.element_order(g) == 2)])
    with pytest.raises(ValidationError, match="normal"):
        quotient_group(S3, refl)


def test_semidirect_gives_s3():
    Z3, Z2 = cyclic_group(3), cyclic_group(2)
    action = np.array([[0, 1, 2], [0, 2, 1]])   # flip inverts
    G = semidirect_product(Z3, Z2, action)
    ok, _ = is_isomorphic_small(G, S3)
    assert ok


def test_semidirect_rejects_non_action():
    Z3, Z2 = cyclic_group(3), cyclic_group(2)
    with pytest.raises(NotAnAction, match="bijection"):
        semidirect_product(Z3, Z2, [[0, 1, 2], [0, 0, 1]])
    with pytest.raises(NotAnAction, match="identity"):
        semidirect_product(Z3, Z2, [[0, 2, 1], [0, 1, 2]])
    Z4 = cyclic_group(4)
    # q of order 2 acting by a 4-cycle: not a homomorphism into Aut
    with pytest.raises(NotAnAction):
        semidirect_product(Z4, Z2, [[0, 1, 2, 3], [1, 2, 3, 0]])


@pytest.mark.parametrize("row", [[0, 2, 5], [0, 2, -1]])
def test_semidirect_refuses_an_action_entry_out_of_range(row):
    with pytest.raises(NotAnAction, match=r"^action of q=1 is not a bijection$"):
        semidirect_product(cyclic_group(3), cyclic_group(2), [[0, 1, 2], row])


def _automorphisms(N):
    """Every automorphism of a small group, as index rows, by brute force."""
    others = [a for a in range(N.order) if a != N.identity]
    out = []
    for images in itertools.permutations(others):
        f = np.arange(N.order)
        f[others] = images
        if np.array_equal(f[N.cayley], N.cayley[f[:, None], f[None, :]]):
            out.append(f)
    return out


@pytest.mark.parametrize("block", [groups._BLOCK, 1])
def test_semidirect_messages_on_a_seeded_sweep(block):
    """200 seeded action tables, mostly rows drawn from Aut(N), some random
    permutations and some non-bijective rows: each table's NotAnAction text
    (or "ok") is pinned, so the law checked first and its witness hold,
    also when every row block is one row."""
    normals = [cyclic_group(3), cyclic_group(4), cyclic_group(5),
               direct_product(cyclic_group(2), cyclic_group(2)), S3]
    auts = [_automorphisms(N) for N in normals]
    quotients = [cyclic_group(2), cyclic_group(3), cyclic_group(4), S3]
    rng = np.random.default_rng(0x5EED)
    messages = []
    for _ in range(200):
        ni = rng.integers(len(normals))
        N, Q = normals[ni], quotients[rng.integers(len(quotients))]
        rows = []
        for q in range(Q.order):
            if q == Q.identity and rng.random() < 0.85:
                rows.append(np.arange(N.order))
                continue
            u = rng.random()
            if u < 0.7:
                rows.append(auts[ni][rng.integers(len(auts[ni]))])
            elif u < 0.9:
                rows.append(rng.permutation(N.order))
            else:
                rows.append(rng.integers(N.order, size=N.order))
        try:
            with mock.patch.object(groups, "_BLOCK", block):
                semidirect_product(N, Q, rows)
            messages.append("ok")
        except NotAnAction as err:
            messages.append(str(err))
    kinds = Counter(m.split(" at ")[0].split(" is ")[-1] for m in messages)
    assert kinds == SEMIDIRECT_SWEEP_KINDS
    assert hashlib.sha256("\n".join(messages).encode()).hexdigest() == \
        SEMIDIRECT_SWEEP_SHA256


# ---------------------------------------------------------------------------
# character tables


def test_character_table_s3_frozen():
    t = character_table(S3)
    assert t.dims == [1, 1, 2]
    # class order: identity, 3-cycles (size 2), transpositions (size 3)
    assert t.class_sizes == [1, 2, 3]
    expected = np.array([[1, 1, 1], [1, 1, -1], [2, -1, 0]], dtype=complex)
    assert np.abs(t.chars - expected).max() < 1e-8


def test_character_table_q8():
    t = character_table(Q8)
    assert t.dims == [1, 1, 1, 1, 2]
    two = t.chars[4]
    assert sorted(np.round(two.real).astype(int)) == [-2, 0, 0, 0, 2]
    assert np.abs(two.imag).max() < 1e-8


def test_character_table_z12_is_all_linear():
    t = character_table(Z12)
    assert t.dims == [1] * 12


def test_character_table_size_cap():
    with pytest.raises(SizeBound), \
            mock.patch.object(groups, "CHARTABLE_CAP", 5):
        character_table(S3)


def test_character_table_is_kept_per_group_and_seed():
    G = symmetric_group(3)
    t = character_table(G)
    assert character_table(G) is t
    assert not t.chars.flags.writeable
    with pytest.raises(ValueError):
        t.chars[0, 0] = 2
    other = character_table(G, seed=7)
    assert other is not t and character_table(G, seed=7) is other
    assert other.dims == t.dims
    assert character_table(symmetric_group(3)) is not t
    # the cap is read before the kept table
    with pytest.raises(SizeBound), \
            mock.patch.object(groups, "CHARTABLE_CAP", 5):
        character_table(G)


@settings(deadline=None, max_examples=len(POOL))
@given(st.sampled_from(POOL))
def test_character_table_orthogonality(G):
    t = character_table(G)
    k = t.n_irreps
    sizes = np.array(t.class_sizes)
    gram = (t.chars * sizes) @ t.chars.conj().T / G.order
    assert np.abs(gram - np.eye(k)).max() < 1e-8
    col = t.chars.conj().T @ t.chars   # column orthogonality
    expected = np.diag(G.order / sizes)
    assert np.abs(col - expected).max() < 1e-6
    assert abs(sum(d * d for d in t.dims) - G.order) < 1e-6


# ---------------------------------------------------------------------------
# explicit irreps


@pytest.mark.parametrize("G", [S3, S4, Q8], ids=["S3", "S4", "Q8"])
def test_matrix_irreps_are_unitary_multiplicative(G):
    t = character_table(G)
    reps = matrix_irreps(G)
    assert [r.dim for r in reps] == t.dims
    for row, rep in enumerate(reps):
        eye = np.eye(rep.dim)
        for g in range(G.order):
            u = rep.matrices[g]
            assert np.linalg.norm(u @ u.conj().T - eye) < 1e-7
        for g in range(G.order):
            for h in range(G.order):
                defect = rep.matrices[g] @ rep.matrices[h] - rep.matrices[G.cayley[g, h]]
                assert np.linalg.norm(defect) < 1e-7
        chi = rep.character()
        assert np.abs(chi - t.char_on_elements(row)).max() < 1e-7
        # irreducibility through the character norm
        assert abs(np.mean(np.abs(chi) ** 2) - 1) < 1e-8


def test_matrix_irreps_size_cap():
    with pytest.raises(SizeBound):
        matrix_irreps(cyclic_group(600))


# ---------------------------------------------------------------------------
# dual groups


def test_dual_group_s3_is_parity():
    d = dual_group(S3)
    assert abelian_invariants_by_orders(d.group) == ((2,), 0)
    assert d.characters.shape == (2, 6)
    transposition = next(g for g in range(6) if S3.element_order(g) == 2)
    vals = sorted(d.characters[:, transposition].real)
    assert abs(vals[0] + 1) < 1e-8 and abs(vals[1] - 1) < 1e-8


def test_dual_group_z6():
    Z6 = cyclic_group(6)
    d = dual_group(Z6)
    assert abelian_invariants_by_orders(d.group) == ((6,), 0)
    assert d.group.order == 6
    ok, _ = is_isomorphic_small(d.group, Z6)
    assert ok


def test_dual_group_q8_is_klein():
    d = dual_group(Q8)
    assert abelian_invariants_by_orders(d.group) == ((2, 2), 0)


def test_closure_table_refuses_a_set_its_product_leaves():
    w = np.exp(2j * np.pi / 3)
    chars = np.array([[1, 1, 1], [1, w, w * w], [1, w * w, w]])
    table = closure_table(chars, lambda i: chars[i] * chars, 1e-6,
                          "dual-closure", "character product")
    assert table.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    with pytest.raises(ValidationError,
                       match=r"dual-closure.*product 1\*1 left the set"):
        closure_table(chars[:2], lambda i: chars[i] * chars[:2], 1e-6,
                      "dual-closure", "character product")


def test_permuted_rows_marks_an_unmatched_row():
    w = np.exp(2j * np.pi / 3)
    chars = np.array([[1, 1, 1], [1, w, w * w], [1, w * w, w]])
    # inversion swaps the two faithful characters; [0, 1, 1] is no
    # automorphism, and only the trivial character survives it
    points = np.array([[0, 1, 2], [0, 2, 1], [0, 1, 1]])
    assert permuted_rows(chars, points).tolist() == [
        [0, 1, 2], [0, 2, 1], [0, -1, -1]]


# ---------------------------------------------------------------------------
# isomorphism search


def test_iso_z6_z2xz3_with_witness():
    A = cyclic_group(6)
    B = direct_product(cyclic_group(2), cyclic_group(3))
    ok, phi = is_isomorphic_small(A, B)
    assert ok
    assert brute_is_homomorphism(A, B, phi)
    assert sorted(phi) == list(range(6))


def test_iso_rejects_z4_vs_klein():
    ok, phi = is_isomorphic_small(cyclic_group(4),
                                  direct_product(cyclic_group(2), cyclic_group(2)))
    assert not ok and phi is None


def test_iso_rejects_d4_vs_q8():
    ok, _ = is_isomorphic_small(dihedral_group(4), Q8)
    assert not ok


def test_iso_rejects_different_orders():
    assert is_isomorphic_small(cyclic_group(4), cyclic_group(6)) == (False,
                                                                     None)


def test_iso_search_rejects_a_same_profile_pair():
    """Z2 x Q8 and Z4 x| Z4 (y x y^-1 = x^-1): order 16, centers of order 4,
    ten classes, three involutions (all central) and twelve elements of
    order 4, so only the search tells them apart; every subgroup of the
    first is normal, and <y> is not normal in the second."""
    A = direct_product(cyclic_group(2), Q8)
    B = semidirect_product(cyclic_group(4), cyclic_group(4),
                           [[0, 1, 2, 3], [0, 3, 2, 1]] * 2)
    assert groups._invariant_profile(A) == groups._invariant_profile(B)
    assert is_isomorphic_small(A, B) == (False, None)
    assert is_isomorphic_small(B, A) == (False, None)


def test_iso_size_cap():
    with pytest.raises(SizeBound):
        is_isomorphic_small(cyclic_group(600), cyclic_group(600))


# ---------------------------------------------------------------------------
# property-style checks over the pool


@settings(deadline=None, max_examples=len(POOL))
@given(st.sampled_from(POOL))
def test_inverse_is_involution(G):
    assert np.array_equal(G.inverse[G.inverse], np.arange(G.order))


@settings(deadline=None, max_examples=len(POOL))
@given(st.sampled_from(POOL))
def test_class_equation(G):
    data = conjugacy_and_center(G)
    assert sum(len(c) for c in data.classes) == G.order
    singletons = sorted(c[0] for c in data.classes if len(c) == 1)
    assert singletons == data.center
    assert sorted(data.classes) == sorted(brute_conjugacy_classes(G))


@settings(deadline=None, max_examples=len(POOL))
@given(st.sampled_from(POOL))
def test_element_orders_divide_group_order(G):
    assert all(G.order % o == 0 for o in G.element_orders())


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(POOL), st.integers(0, 1000), st.integers(0, 1000))
def test_closure_is_subgroup(G, a, b):
    x, y = a % G.order, b % G.order
    elems = G.closure([x, y])
    k = len(elems)
    assert G.order % k == 0
    sub, back = G.subgroup(elems)
    assert sub.order == k
    assert back == elems


def test_cayley_rejects_swapped_intercalate_above_sampling_size():
    # Z_2048 with one intercalate swapped stays latin with an identity;
    # only the products through rows 1 and 1 + t are wrong
    n, t = 2048, 1024
    table = (np.arange(n)[:, None] + np.arange(n)) % n
    for row in (1, 1 + t):
        table[row, [2, 2 + t]] = table[row, [2 + t, 2]]
    with pytest.raises(ValidationError, match="associativity"):
        group_from_cayley(table)


def test_matrix_irreps_memory_stays_quadratic():
    import tracemalloc
    G = symmetric_group(5)
    tracemalloc.start()
    try:
        irreps = matrix_irreps(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(mx.dim ** 2 for mx in irreps) == G.order
    assert peak < 5 * 2 ** 20


def test_irrep_check_rejects_perturbed_and_non_unitary_matrices():
    from kacforge.groups import _irrep_ok
    table = character_table(S4)
    row = table.dims.index(3)
    mats = np.array(matrix_irreps(S4)[row].matrices)
    chi = table.char_on_elements(row)
    assert _irrep_ok(S4, mats, chi)
    bumped = mats.copy()
    bumped[5, 0, 1] += 1e-3               # breaks unitarity and the law
    assert not _irrep_ok(S4, bumped, chi)
    g = next(g for g in range(S4.order) if g != S4.identity)
    scaled = mats.copy()
    scaled[g] *= 1.01                     # a non-unitary rescaling
    assert not _irrep_ok(S4, scaled, chi)
    V = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
    moved = mats.copy()
    moved[g] = V @ mats[g] @ V.T          # unitary, same trace, no law
    assert not _irrep_ok(S4, moved, chi)


def test_matrix_modulus_bound_follows_int64_products():
    # 2 (m - 1)^2 < 2^63 exactly up to m = 2^31: the order-3 generator is
    # exact there and refused one step past it
    m = 2 ** 31
    assert group_from_matrices_mod([[[m - 1, m - 1], [1, 0]]], m).order == 3
    with pytest.raises(ValidationError, match="modulus"):
        group_from_matrices_mod([[[m, m], [1, 0]]], m + 1)


def test_rounded_pairings_names_the_first_non_integral_entry():
    left = np.eye(2)
    assert rounded_pairings(left, [[2.0, 4.0]], 2).tolist() == [[1], [2]]
    with pytest.raises(NonIntegral, match=r"\(1,0\) = 0\.5 "):
        rounded_pairings(left, [[2.0, 1.0]], 2)
    with pytest.raises(NonIntegral, match=r"\(0,0\) = 1j"):
        rounded_pairings(left, [[2j, 0.0]], 2)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), data=st.data())
def test_components_label_each_vertex_with_the_least_reachable(n, data):
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)),
                               max_size=3 * n))
    a = np.array([e[0] for e in edges], dtype=np.int64)
    b = np.array([e[1] for e in edges], dtype=np.int64)
    neighbours = {v: set() for v in range(n)}
    for x, y in edges:
        neighbours[x].add(y)
        neighbours[y].add(x)
    want = []
    for v in range(n):          # breadth-first search from every vertex
        seen, todo = {v}, [v]
        while todo:
            nxt = [y for x in todo for y in neighbours[x] if y not in seen]
            seen.update(nxt)
            todo = nxt
        want.append(min(seen))
    assert groups._components(n, a, b).tolist() == want


# ---------------------------------------------------------------------------
# refusals of the constructors, and the seeded retries of the spectral steps


@pytest.mark.parametrize("build, error, message", [
    (lambda: group_from_cayley(np.zeros((0, 0), dtype=int)),
     ValidationError, r"\[nonempty\] empty table"),
    (lambda: group_from_cayley([[0, 1], [1, 0]], labels=["a"]),
     ValidationError, r"\[labels\] label count != order"),
    (lambda: group_from_permutations([(0, 0, 1)]),
     ValidationError, r"\[permutation\] \(0, 0, 1\) is not a permutation"),
    (lambda: group_from_matrices_mod([[[1, 0, 1]]], modulus=3),
     ValidationError, r"\[matrix\] generators must be square"),
    (lambda: group_from_matrices_mod([np.eye(2), np.eye(3)], modulus=3),
     ValidationError, r"\[matrix\] generator sizes differ"),
    (lambda: semidirect_product(cyclic_group(3), cyclic_group(2),
                                np.zeros((3, 3))),
     NotAnAction, r"action table shape \(3, 3\) != \(2,3\)"),
    (lambda: abelian_invariants("Z6"),
     TypeError, "unsupported input <class 'str'>"),
], ids=["empty", "labels", "permutation", "matrix-shape", "matrix-sizes",
        "action-shape", "invariants-input"])
def test_constructor_refusals_name_the_fault(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def _patched(real, corrupt, times):
    """``real`` (a numpy eigensolver) with ``corrupt`` applied to its
    (vals, vecs) on the first ``times`` calls, and the list of its calls."""
    calls = []

    def solve(M):
        vals, vecs = real(M)
        calls.append(M.shape)
        if len(calls) <= times:
            vals, vecs = corrupt(vals.copy(), vecs.copy())
        return vals, vecs
    return solve, calls


def _with(vecs, index, value):
    vecs[index] = value
    return vecs


# S3 has three classes; the identity class is row 0 of the eigenvectors
_S3_TABLE_FAULTS = {
    "eigenvalue gap": lambda vals, vecs: (0 * vals, vecs),
    "eigenvector vanishes on the identity class":
        lambda vals, vecs: (vals, _with(vecs, (0, 0), 0)),
    "non-integral dimension":
        lambda vals, vecs: (vals, vecs @ np.array([[1, 1, 0], [-1, 1, 0],
                                                   [0, 0, 1.4]]) / 1.4),
    "row orthogonality residual":
        lambda vals, vecs: (vals, vecs[:, [0, 0, 2]]),
    # an infinite entry makes one dimension 0 and its Gram row NaN, which
    # no tolerance comparison flags: only the dimension count is left
    "squared dimensions do not sum to the order":
        lambda vals, vecs: (vals, _with(vecs, (1, 0), np.inf)),
}


@pytest.mark.parametrize("reason", list(_S3_TABLE_FAULTS))
def test_character_table_retries_each_failed_draw(reason):
    """A draw that fails one of the five checks is redrawn, and the next
    draw gives the table; a fault on every draw raises SeedDegenerate with
    the last reason."""
    assert conjugacy_and_center(S3).class_of[S3.identity] == 0
    # a group keeps its table, so each call gets a fresh S3
    want = character_table(symmetric_group(3))
    eig, calls = _patched(np.linalg.eig, _S3_TABLE_FAULTS[reason], 1)
    fresh = symmetric_group(3)
    with mock.patch.object(np.linalg, "eig", eig), \
            np.errstate(invalid="ignore", divide="ignore"):
        got = character_table(fresh)
    assert len(calls) == 2
    assert got.dims == want.dims
    assert np.abs(got.chars - want.chars).max() < 1e-9
    eig, _ = _patched(np.linalg.eig, _S3_TABLE_FAULTS[reason], RETRY_BUDGET)
    fresh = symmetric_group(3)
    with mock.patch.object(np.linalg, "eig", eig), \
            np.errstate(invalid="ignore", divide="ignore"), \
            pytest.raises(SeedDegenerate, match=f"after {RETRY_BUDGET} "
                                                f"attempts: {reason}"):
        character_table(fresh)


def _s3_block_of_trivial_and_sign(vals, vecs):
    """An orthonormal basis whose first two vectors span the trivial and
    the sign line of S3's regular representation, marked as a 4-dim
    isotypic block: a lam-invariant space, but not the block of x2."""
    sign = np.array([(-1) ** sum(p[i] > p[j] for i in range(3)
                                 for j in range(i + 1, 3))
                     for p in S3.permutations])
    rng = np.random.default_rng(0)
    start = np.column_stack([np.ones(6), sign, rng.normal(size=(6, 4))])
    return np.array([1.0] * 4 + [0.0] * 2), np.linalg.qr(start)[0]


def test_matrix_irreps_refuses_an_isotypic_block_of_the_wrong_rank():
    eigh, _ = _patched(np.linalg.eigh, lambda vals, vecs: (0 * vals, vecs),
                       1)
    with mock.patch.object(np.linalg, "eigh", eigh), \
            pytest.raises(ExtractionFailed,
                          match=r"^isotypic rank 0 != 4 for x2$"):
        matrix_irreps(S3)


def test_matrix_irreps_redraws_a_commutant_without_a_clean_eigenspace():
    """The first commutant draw of x2 is made to have no 2-dim eigenspace;
    the second draw cuts a copy with the same character."""
    want = matrix_irreps(S3)

    def split(vals, vecs):
        return (vals, vecs) if vals.shape != (4,) else \
            (np.arange(4.0), vecs)
    eigh, calls = _patched(np.linalg.eigh, split, 2)
    with mock.patch.object(np.linalg, "eigh", eigh):
        got = matrix_irreps(S3)
    assert calls == [(6, 6), (4, 4), (4, 4)]
    for a, b in zip(got, want):
        assert np.abs(a.character() - b.character()).max() < 1e-9


def test_matrix_irreps_gives_up_when_no_draw_has_the_character():
    """Every draw cuts the trivial-plus-sign space out of a wrong block: a
    unitary representation whose character is not x2's, so each draw is
    refused and the budget runs out."""
    def corrupt(vals, vecs):
        if vals.shape == (6,):
            return _s3_block_of_trivial_and_sign(vals, vecs)
        return np.array([0.0, 0.0, 1.0, 2.0]), np.eye(4)
    eigh, calls = _patched(np.linalg.eigh, corrupt, 99)
    with mock.patch.object(np.linalg, "eigh", eigh), \
            pytest.raises(ExtractionFailed,
                          match=r"^no clean copy of x2 after retries$"):
        matrix_irreps(S3)
    assert len(calls) == 1 + RETRY_BUDGET
