"""Corepresentations on the algebra's index arrays.

The broadcasting product must equal stacked one-dimensional products bit
for bit; the tensor product must equal the entry-by-entry loop of
``tests/oracles.py`` bit for bit; the exact embedding counts of
``group_subalgebra_check`` must equal the per-pair product loop, also on
pairs whose actions were corrupted; and the coaction and unitarity
check, which joins the entries, must equal the dense loop of the oracles
and see a broken corepresentation.  The intertwiner solver and the character
pairing must both give the dimension of the loop-built system's null
space, and every solver basis matrix must be an orthonormal intertwiner;
a batched solve must give each entry what its own call gives, in runs of
any size.  Pairs with disjoint supports, solved as two one-sided systems,
must match the loop too, also with a dropped row or column that makes
their space nonzero; one-column blocks close without LAPACK, round-off
cells giving the null vector exactly 1.  Splitting breadth-first, one End
batch per level, must give the pieces and the catalog of
candidate-by-candidate recursion, bit for bit.
The coefficient span rank summed over orbit blocks must equal the rank of
the whole stacked matrix, and the solver's row ranks np.unique's inverse.
Every candidate, catalog irrep and orbit tensor is stored as its nonzero
entries in (basis, row, col) order on its pruned support, and that storage
agrees with the loop oracles, which read the dense tensors.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacforge import groups, reps
from kacforge.config import DEFAULT_SEED, RETRY_BUDGET
from kacforge.hopf import build_algebra, group_subalgebra_check
from kacforge.library import corpus_pairs, stabilizer_and_cycle
from kacforge.matched import derive_actions
from kacforge.errors import ValidationError
from kacforge.groups import matrix_irreps
from kacforge.reps import (Corepresentation, build_candidates,
                           candidate_corepresentation, check_corepresentation,
                           decompose, enumerate_irreps, mor_dim_haar,
                           mor_dim_solver)

from .oracles import (naive_corep_deviation, naive_corep_tensor,
                      naive_embedding_violations, naive_intertwiner_dim)
from .test_reps import (SMALL, algebra_of, catalog_of, corep_from_dense,
                        orbit_matrix)
from .test_structure_golden import _corrupted_s4_cyclic4

CORPUS = {mp.name: mp for mp in corpus_pairs()}
UP_TO_84 = [name for name, mp in CORPUS.items()
            if mp.discrete.order * mp.compact.order <= 84]
UP_TO_42 = [name for name, mp in CORPUS.items()
            if mp.discrete.order * mp.compact.order <= 42]


def _sparse(rng, shape, density):
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return vals * (rng.random(shape) < density)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(UP_TO_84), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 4), cols=st.integers(1, 3),
       density=st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_broadcast_product_equals_stacked_products(name, seed, rows, cols,
                                                   density):
    A = algebra_of(name)
    rng = np.random.default_rng(seed)
    a = _sparse(rng, (rows, cols, A.dim), density)
    b = _sparse(rng, (cols, A.dim), density)        # broadcast over rows
    got = A.mul_vec(a, b)
    want = np.array([[A.mul_vec(a[i, j], b[j]) for j in range(cols)]
                     for i in range(rows)])
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def test_broadcast_product_over_several_row_blocks():
    A = build_algebra(CORPUS["double-s3-twist"])
    rng = np.random.default_rng(7)
    a = _sparse(rng, (12, 10, A.dim), 0.5)
    b = _sparse(rng, (10, A.dim), 0.5)
    assert 12 * 10 * A.dim * A.nr > groups._BLOCK       # more than one block
    got = A.mul_vec(a, b)
    want = np.array([[A.mul_vec(a[i, j], b[j]) for j in range(10)]
                     for i in range(12)])
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("name", SMALL)
def test_tensor_equals_entrywise_loop(name):
    irreps = catalog_of(name).canonical
    for u in irreps:
        for w in irreps:
            got = u.tensor(w).dense()
            assert np.array_equal(got.view(np.float64),
                                  naive_corep_tensor(u, w).view(np.float64))


def _collapsed_alpha(mp):
    """mp with one nontrivial alpha row no longer a bijection."""
    alpha = np.array(mp.alpha)
    r = next(rr for rr in range(mp.discrete.order)
             if not np.array_equal(alpha[rr], np.arange(mp.compact.order)))
    g = next(gg for gg in range(mp.compact.order) if alpha[r, gg] != gg)
    alpha[r, g] = alpha[r, 0]
    broken = copy.copy(mp)
    broken.alpha, broken.name = alpha, "alpha-collapsed"
    return broken


def _embedding_counts(A):
    report = group_subalgebra_check(A)
    return {c.name: int(c.deviation) for c in report.checks[:4]}


@pytest.mark.parametrize("name", list(CORPUS) + ["beta-broken",
                                                 "alpha-collapsed"])
def test_embedding_counts_equal_product_loop(name):
    if name == "beta-broken":
        mp = _corrupted_s4_cyclic4(CORPUS["s4-cyclic4"])
    elif name == "alpha-collapsed":
        mp = _collapsed_alpha(CORPUS["s4-cyclic4"])
    else:
        mp = CORPUS[name]
    A = build_algebra(mp)
    want = naive_embedding_violations(A)
    assert _embedding_counts(A) == want
    if name == "alpha-collapsed":
        assert any(want.values())


def test_coaction_check_sees_a_broken_entry():
    A = algebra_of("s4-cyclic4")
    cands, _, _ = build_candidates(A)
    cand = max(cands, key=lambda c: c.dim)
    coeffs = cand.dense()
    i = cand.support()[0]
    j = next(t for t in range(A.dim) if t not in set(cand.support()))
    coeffs[:, :, [i, j]] = coeffs[:, :, [j, i]]     # move one basis element
    broken = corep_from_dense(A, coeffs, np.arange(A.dim))
    assert check_corepresentation(cand) < 1e-7
    assert check_corepresentation(broken) > 0.5


def test_coaction_check_sees_a_wrong_value():
    A = algebra_of("conj-s3-rot")
    corep = enumerate_irreps(A).canonical[-1]
    coeffs = corep.dense()
    t = corep.support()[1]
    coeffs[0, 0, t] += 1.0
    assert check_corepresentation(
        corep_from_dense(A, coeffs, np.arange(A.dim))) > 0.5


def _changed(c, e, how, shift):
    """``c`` with its entry e raised by 1, turned by the phase i, or moved
    ``shift`` basis elements on."""
    A = c.algebra
    coeffs = c.dense()
    i, j, t = c.row[e], c.col[e], c.basis[e]
    if how == "value":
        coeffs[i, j, t] += 1.0
    elif how == "phase":
        coeffs[i, j, t] *= 1j
    else:
        coeffs[i, j, (t + shift) % A.dim] += coeffs[i, j, t]
        coeffs[i, j, t] = 0.0
    return corep_from_dense(A, coeffs, np.arange(A.dim))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(list(CORPUS)), data=st.data())
def test_entry_check_equals_dense_loop(name, data):
    """The check on the entries equals the oracle's (i, j) loop over the
    dense coefficients to 1e-12, on candidates, canonical irreps and irrep
    tensors, honest or with one entry changed; and the same bit for bit
    with every row in a run of its own.  An honest corepresentation passes;
    one with an entry raised by 1, or with an entry of magnitude over 0.9
    turned or moved, deviates by more than 0.5."""
    A = algebra_of(name)
    catalog = catalog_of(name)
    irrep = st.integers(0, len(catalog.canonical) - 1)
    kind = data.draw(st.sampled_from(["candidate", "irrep", "tensor"]),
                     label="kind")
    if kind == "candidate":
        c = catalog.candidates[data.draw(
            st.integers(0, len(catalog.candidates) - 1), label="candidate")]
    elif kind == "irrep":
        c = catalog.canonical[data.draw(irrep, label="irrep")]
    else:
        c = catalog.canonical[data.draw(irrep, label="left")].tensor(
            catalog.canonical[data.draw(irrep, label="right")])
    how = data.draw(st.sampled_from([None, "value", "phase", "move"]),
                    label="change")
    if how is not None:
        e = data.draw(st.integers(0, len(c.value) - 1), label="entry")
        big = abs(c.value[e]) > 0.9
        c = _changed(c, e, how, data.draw(st.integers(1, A.dim - 1),
                                          label="shift"))
    got = check_corepresentation(c)
    assert abs(got - naive_corep_deviation(c)) < 1e-12
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reps, "_BLOCK", 1)
        assert check_corepresentation(c) == got
    if how is None:
        assert got < 1e-7
    elif how == "value" or big:
        assert got > 0.5


def test_candidate_builder_refuses_an_orbit_that_is_not_closed():
    A = algebra_of("s4-cyclic4")
    big = next(o for o in build_candidates(A)[1].orbits if len(o) > 1)
    mx = matrix_irreps(A.pair.compact)[0]
    assert candidate_corepresentation(A, big, mx).dim == len(big)
    with pytest.raises(ValidationError, match="orbit"):
        candidate_corepresentation(A, big[:1], mx)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(UP_TO_42), data=st.data())
def test_intertwiner_routes_equal_loop_rank(name, data):
    A = algebra_of(name)
    catalog = catalog_of(name)
    cands, orbits = catalog.candidates, catalog.orbit_space.orbits
    u = cands[data.draw(st.integers(0, len(cands) - 1), label="candidate")]
    if data.draw(st.booleans(), label="orbit tensor"):
        r, s = data.draw(st.tuples(*[st.integers(0, len(orbits) - 1)] * 2),
                         label="orbits")
        w = orbit_matrix(A, orbits[r]).tensor(orbit_matrix(A, orbits[s]))
    else:
        w = cands[data.draw(st.integers(0, len(cands) - 1), label="target")]
    want = naive_intertwiner_dim(u, w)

    dim, basis = mor_dim_solver(u, w)
    assert dim == want
    assert mor_dim_haar(u, w) == want

    V = np.array([T.ravel() for T in basis]).reshape(dim, w.dim * u.dim)
    assert np.abs(V.conj() @ V.T - np.eye(dim)).max(initial=0.0) < 1e-9
    for T in basis:
        left = np.einsum("ib,bkn->ikn", T, u.dense())      # (T x 1)u
        right = np.einsum("ian,ak->ikn", w.dense(), T)     # w(T x 1)
        assert np.abs(left - right).max() < 1e-9


def _tampered(c, rng):
    """``c`` with random values on its entries: no longer a
    corepresentation, with the same pattern."""
    noise = rng.normal(size=len(c.value)) + 1j * rng.normal(
        size=len(c.value))
    return Corepresentation(c.algebra, c.dim, (c.row, c.col, c.basis, noise),
                            label=f"{c.label}~")


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(UP_TO_42), data=st.data())
def test_batched_solves_equal_loop_rank_and_single_calls(name, data):
    """One mor_dims call over pairs of mixed dimensions and distinct
    targets, a tampered source among them, gives every pair the loop-built
    null-space dimension and bit for bit the basis of its own call, an
    orthonormal intertwiner basis; so does a budget so low that every pair
    is solved in a run of its own, and so does the corepresentation list
    permuted and padded with unused entries."""
    A = algebra_of(name)
    catalog = catalog_of(name)
    pool = catalog.candidates + catalog.canonical
    pick = st.integers(0, len(pool) - 1)
    pairs = [(pool[i], pool[j]) for i, j in data.draw(
        st.lists(st.tuples(pick, pick), min_size=1, max_size=5,
                 unique_by=lambda ij: ij[1]), label="pairs")]
    rng = np.random.default_rng(data.draw(st.integers(0, 99), label="seed"))
    tampered = _tampered(pool[data.draw(pick, label="tampered")], rng)
    pairs.insert(data.draw(st.integers(0, len(pairs)), label="at"),
                 (tampered, pool[data.draw(pick, label="its target")]))
    coreps = list({id(c): c for pair in pairs for c in pair}.values())
    at = {id(c): n for n, c in enumerate(coreps)}
    ui, wi = ([at[id(pair[k])] for pair in pairs] for k in (0, 1))
    got = reps.mor_dims(coreps, ui, wi)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reps, "_RUN_TERMS", 1)
        apart = reps.mor_dims(coreps, ui, wi)
    # the same pairs, the list permuted and padded with unused entries
    padded = coreps + [_tampered(c, rng) for c in pool[:2]]
    perm = rng.permutation(len(padded))
    where = np.argsort(perm)
    moved = reps.mor_dims([padded[k] for k in perm], where[ui], where[wi])
    assert len(got) == len(apart) == len(moved) == len(pairs)
    for (u, w), (dim, basis), split, other in zip(pairs, got, apart, moved):
        alone = mor_dim_solver(u, w)
        assert (dim == naive_intertwiner_dim(u, w) == alone[0] == split[0]
                == other[0])
        assert len(basis) == dim
        assert all(np.array_equal(T, S) and np.array_equal(T, R)
                   and np.array_equal(T, Q)
                   for T, S, R, Q in zip(basis, alone[1], split[1], other[1]))
        V = np.array([T.ravel() for T in basis]).reshape(dim, w.dim * u.dim)
        assert np.abs(V.conj() @ V.T - np.eye(dim)).max(initial=0.0) < 1e-9
        for T in basis:
            left = np.einsum("ib,bkn->ikn", T, u.dense())
            right = np.einsum("ian,ak->ikn", w.dense(), T)
            assert np.abs(left - right).max() < 1e-9


def _dense_span_rank(catalog):
    rows = np.concatenate([c.dense().reshape(-1, catalog.algebra.dim)
                           for c in catalog.canonical])
    return int(np.linalg.matrix_rank(rows, tol=1e-8))


@pytest.mark.parametrize("name", list(CORPUS) + ["s5-cyclic5"])
def test_span_rank_by_orbit_blocks_equals_dense_rank(name):
    cat = enumerate_irreps(build_algebra(_pair(name)))
    assert cat.coefficient_span_rank() == _dense_span_rank(cat) \
        == cat.algebra.dim


def test_span_rank_counts_a_duplicated_irrep_once():
    cat = catalog_of("conj-s3-rot")
    widest = max(cat.canonical, key=lambda c: c.dim)
    twice = dataclasses.replace(cat, canonical=cat.canonical + [widest])
    assert twice.coefficient_span_rank() == _dense_span_rank(twice) \
        == cat.algebra.dim
    short = dataclasses.replace(cat, canonical=cat.canonical[1:] + [widest])
    assert short.coefficient_span_rank() == _dense_span_rank(short) \
        == cat.algebra.dim - cat.canonical[0].dim ** 2


def test_coefficients_and_support_are_read_only():
    # the entries are sorted and pruned once, at construction, so neither
    # they nor the support may change; the caller's own arrays are copied
    # and stay writable
    A = algebra_of("s3-split")
    c = enumerate_irreps(A).canonical[-1]
    given = [np.array(a[::-1]) for a in (c.row, c.col, c.basis, c.value)]
    corep = Corepresentation(A, c.dim, given)
    kept = corep.dense()
    assert np.array_equal(kept, c.dense())
    for stored in (corep.row, corep.col, corep.basis, corep.value,
                   corep.support()):
        with pytest.raises(ValueError):
            stored[0] = 0
    for a in given:
        a += 1
    assert np.array_equal(corep.dense(), kept)


def test_constructor_refuses_entries_off_the_matrix_or_basis():
    A = algebra_of("s3-split")
    for basis in ([-1, 0], [0, A.dim]):
        with pytest.raises(ValidationError, match="corep-support"):
            Corepresentation(A, 1, ([0, 0], [0, 0], basis, [1, 1]))
    for entries in (([0], [0, 0], [0, 1], [1, 1]),      # ragged
                    ([0, 1], [0, 0], [0, 1], [1, 1]),   # row 1 of a 1 x 1
                    ([0, 0], [0, -1], [0, 1], [1, 1]),
                    ([0, 0], [0, 0], [2, 2], [1, 1])):  # one cell twice
        with pytest.raises(ValidationError, match="corep-shape"):
            Corepresentation(A, 1, entries)


def test_dense_refuses_a_basis_without_the_support():
    corep = Corepresentation(algebra_of("s3-split"), 1,
                             ([0, 0], [0, 0], [1, 3], [1, 1]))
    assert corep.dense([1, 2, 3]).ravel().tolist() == [1, 0, 1]
    for onto in ([1, 2], [2, 3, 4], [0, 1, 2]):
        with pytest.raises(ValidationError, match="corep-support"):
            corep.dense(onto)


# ---------------------------------------------------------------------------
# storage on the support

def _pair(name):
    if name in CORPUS:
        return CORPUS[name]
    return derive_actions(*stabilizer_and_cycle(5), name=name)


def _stored_on_support(c):
    """Nonzero int32-indexed entries in strictly increasing (basis, row,
    col) order, on a support of basis elements each of magnitude above
    1e-14."""
    key = (c.basis * c.dim + c.row) * c.dim + c.col
    return (c.row.dtype == c.col.dtype == np.int32
            and (np.diff(key) > 0).all() and (c.value != 0).all()
            and np.array_equal(c.support(), np.unique(c.basis))
            and (np.bincount(c.basis, np.abs(c.value))[c.support()]
                 > 1e-14).all())


@pytest.mark.parametrize("name", list(CORPUS) + ["s5-cyclic5"])
def test_catalog_and_orbit_tensors_are_stored_on_their_support(name):
    A = build_algebra(_pair(name))
    catalog = enumerate_irreps(A)
    nx, nk = len(catalog.irreps), A.nk
    for k, cand in enumerate(catalog.candidates):
        orbit = catalog.orbit_space.orbits[k // nx]
        assert _stored_on_support(cand)
        assert set(cand.support()) <= {r * nk + g for r in orbit
                                       for g in range(nk)}
    assert all(_stored_on_support(c) for c in catalog.canonical)
    orbit_coreps = catalog.candidates[::nx]      # as the audit builds them
    for u in orbit_coreps:
        for w in orbit_coreps:
            assert _stored_on_support(u.tensor(w))


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(UP_TO_42), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_support_storage_equals_dense_oracles(name, seed, data):
    """tensor(), the pieces of a split (whose support can shrink) and the
    solver on the union of two supports agree with the loop oracles, which
    read the dense tensors."""
    A = algebra_of(name)
    cands = build_candidates(A, seed=seed)[0]
    pick = st.integers(0, len(cands) - 1)
    u, w = cands[data.draw(pick, label="u")], cands[data.draw(pick, label="w")]
    t = u.tensor(w)
    assert np.array_equal(t.dense().view(np.float64),
                          naive_corep_tensor(u, w).view(np.float64))
    for p in decompose(u, seed=seed):
        assert set(p.support()) <= set(u.support())
        assert naive_intertwiner_dim(p, p) == 1
        assert mor_dim_solver(p, u)[0] == naive_intertwiner_dim(p, u) >= 1
    assert mor_dim_solver(t, t)[0] == naive_intertwiner_dim(t, t)
    for p in decompose(t, seed=seed):
        assert set(p.support()) <= set(t.support())
        assert mor_dim_solver(p, t)[0] == naive_intertwiner_dim(p, t) >= 1
        assert mor_dim_solver(p, w)[0] == naive_intertwiner_dim(p, w)


def test_decompose_splits_tensors_whose_end_basis_is_skew():
    """On s4-cyclic4 an End basis of the o1 tensors holds a real
    antisymmetric element, which cancels from Y + Y* on every draw; the
    split falls back to i(Y - Y*) of the same draw."""
    A = algebra_of("s4-cyclic4")
    o1 = [c for c in build_candidates(A)[0] if c.label.startswith("o1*")]
    assert [c.label for c in o1] == ["o1*x0", "o1*x1", "o1*x2", "o1*x3"]
    for u in o1[:2]:
        for w in o1[:2]:
            t = u.tensor(w)
            parts = decompose(t)
            assert sum(p.dim for p in parts) == t.dim
            for p in parts:
                assert mor_dim_solver(p, p)[0] == 1
                assert mor_dim_solver(p, t)[0] >= 1


# ---------------------------------------------------------------------------
# breadth-first splitting against candidate-by-candidate recursion


def _split_recursively(c, seed, depth=0):
    """Irreducible pieces of ``c`` by one End solve per node, depth-first."""
    nd, basis = mor_dim_solver(c, c)
    if nd == 1:
        return [c]
    for attempt in range(RETRY_BUDGET):
        parts = reps._split_once(c, basis, seed, depth, attempt)
        if parts is not None:
            return [q for p in parts
                    for q in _split_recursively(p, seed, depth + 1)]
    raise AssertionError(f"{c.label} did not split")


def _recursive_catalog(A, seed):
    """(canonical, equivalence map) as a walk over the candidates builds
    them: each candidate split recursively, each piece compared with the
    irreps found before it by one Haar pairing each."""
    canonical, pieces_of = [], []
    for cand in build_candidates(A, seed=seed)[0]:
        ids = []
        for p in _split_recursively(cand, seed):
            same = [k for k, c in enumerate(canonical)
                    if c.dim == p.dim and mor_dim_haar(p, c) >= 1]
            if not same:
                canonical.append(p)
                same = [len(canonical) - 1]
            ids.append(same[0])
        pieces_of.append(ids)
    order = sorted(range(len(canonical)), key=lambda k: (canonical[k].dim, k))
    relabel = {old: new for new, old in enumerate(order)}
    return ([canonical[k] for k in order],
            {ci: sorted(relabel[k] for k in ids)
             for ci, ids in enumerate(pieces_of)})


def _same_corep(p, q):
    return (p.label == q.label and p.dim == q.dim
            and all(getattr(p, a).tobytes() == getattr(q, a).tobytes()
                    for a in ("row", "col", "basis", "value")))


@pytest.mark.parametrize("name", list(CORPUS) + ["s5-cyclic5"])
def test_breadth_first_catalog_equals_recursive_route(name):
    A = build_algebra(_pair(name))
    catalog = enumerate_irreps(A)
    canonical, equivalence_map = _recursive_catalog(A, DEFAULT_SEED)
    assert [c.label for c in catalog.canonical] == \
        [c.label for c in canonical]
    assert all(map(_same_corep, catalog.canonical, canonical))
    assert catalog.equivalence_map == equivalence_map


def test_breadth_first_pieces_of_tensors_equal_recursive_splits():
    """Orbit tensors of double-s3-twist split over several levels, split
    all at once and each by its own recursion."""
    cands = catalog_of("double-s3-twist").candidates
    tensors = [u.tensor(w) for u in cands[::6][:3] for w in cands[::6][:3]]
    got = reps._irreducible_pieces(tensors, DEFAULT_SEED)
    assert max(len(ps) for ps in got) > 2
    for t, pieces in zip(tensors, got):
        want = _split_recursively(t, DEFAULT_SEED)
        assert len(pieces) == len(want)
        assert all(map(_same_corep, pieces, want))
        assert all(map(_same_corep, decompose(t), want))


@pytest.mark.parametrize("step, most", [("enumerate", 78 // 4),
                                        ("audit", 336 // 4)])
def test_solver_calls_are_batched(step, most, monkeypatch):
    """Enumeration makes one solver call per level of the splitting trees
    and the audit one per run of orbit tensors, a quarter or less of the
    calls of one per End solve and one per tensor (78 and 336 on
    double-s3-twist)."""
    A = algebra_of("double-s3-twist")
    catalog = catalog_of("double-s3-twist")
    calls = []
    real = reps.mor_dims
    monkeypatch.setattr(reps, "mor_dims", lambda coreps, ui, wi:
                        calls.append(1) or real(coreps, ui, wi))
    if step == "enumerate":
        assert enumerate_irreps(A).dims() == catalog.dims()
    else:
        assert reps.audit_fusion(A, catalog).oracle_consistent
    assert 0 < len(calls) <= most


@pytest.mark.parametrize("keys", [
    np.random.default_rng(3).integers(-40, 40, size=5000),
    np.random.default_rng(4).integers(0, 2**62, size=3000).repeat(3)[::-1],
    np.array([7, 7, 7]), np.zeros(0, dtype=np.int64)],
    ids=["small-range", "wide-repeated", "one-value", "empty"])
def test_distinct_ranks_equal_numpys_inverse(keys):
    """The solver's row ranks are np.unique's inverse, in int32."""
    rank, count = reps._distinct(keys)
    uniq, inverse = np.unique(keys, return_inverse=True)
    assert rank.dtype == np.int32 and count == len(uniq)
    assert np.array_equal(rank, inverse)


def _dropped(c, axis, at):
    """``c`` without the entries of its row (axis 0) or column (axis 1)
    ``at``: that row's unknowns leave every equation of the source side, or
    that column's every equation of the target side."""
    keep = (c.row, c.col)[axis] != at
    return Corepresentation(c.algebra, c.dim, (c.row[keep], c.col[keep],
                                               c.basis[keep], c.value[keep]),
                            label=f"{c.label}-{'rc'[axis]}{at}")


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(UP_TO_84), data=st.data())
def test_disjoint_supports_equal_loop_rank(name, data):
    """Pairs whose supports share no basis element are solved as two
    one-sided systems; a source with a row's entries dropped and a target
    with a column's entries dropped have a dimension a * b above 0."""
    catalog = catalog_of(name)
    pool = catalog.candidates + catalog.canonical
    apart = [(u, w) for u in pool for w in pool
             if not np.intersect1d(u.support(), w.support()).size]
    u, w = data.draw(st.sampled_from(apart), label="pair")
    drop_row, drop_col = data.draw(st.booleans(), label="drop a row"), \
        data.draw(st.booleans(), label="drop a column")
    if drop_row:
        u = _dropped(u, 0, data.draw(st.integers(0, u.dim - 1), label="row"))
    if drop_col:
        w = _dropped(w, 1, data.draw(st.integers(0, w.dim - 1), label="col"))
    dim, basis = mor_dim_solver(u, w)
    assert dim == naive_intertwiner_dim(u, w) == len(basis)
    assert dim >= (drop_row and drop_col)
    V = np.array([T.ravel() for T in basis]).reshape(dim, w.dim * u.dim)
    assert np.abs(V.conj() @ V.T - np.eye(dim)).max(initial=0.0) < 1e-9
    for T in basis:
        left = np.einsum("ib,bkn->ikn", T, u.dense())
        right = np.einsum("ian,ak->ikn", w.dense(), T)
        assert np.abs(left - right).max() < 1e-9


def _one_by_one(A, values):
    """A dim-1 'corepresentation' with ``values`` on the first basis
    elements."""
    n = len(values)
    return Corepresentation(A, 1, (np.zeros(n), np.zeros(n), np.arange(n),
                                   values))


def test_one_column_blocks_close_without_lapack(monkeypatch):
    """A single unknown whose cells u - w are round-off (1e-17 to 1e-16) has
    the null vector exactly 1; one whose single cell differs by 1e-7 has
    none.  Neither reaches the SVD."""
    A = algebra_of("s3-split")

    def refuse(*args, **kwargs):
        raise AssertionError("a one-column block reached LAPACK")
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    u = _one_by_one(A, [0.1 + 0.2, 0.7 + 0.1, 3 * (1 / 3) - 1e-17j])
    w = _one_by_one(A, [0.3, 0.8, 1.0])
    cells = u.value - w.value
    assert 0 < np.abs(cells).max() < 1e-15
    dim, basis = mor_dim_solver(u, w)
    assert dim == 1 and basis[0].dtype == complex
    assert np.array_equal(basis[0], [[1.0]])
    u = _one_by_one(A, [1.0, 0.5 + 1e-7])
    w = _one_by_one(A, [1.0, 0.5])
    assert mor_dim_solver(u, w) == (0, [])


def test_audit_sends_no_one_column_block_to_lapack(monkeypatch):
    """On the double-s3-twist audit no block of width 1 reaches QR or the
    SVD, and each solver call solves at most one one-sided system per
    distinct corepresentation of its pairs."""
    A = algebra_of("double-s3-twist")
    catalog = catalog_of("double-s3-twist")
    widths, calls = [], []
    for name in ("qr", "svd"):
        real = getattr(np.linalg, name)

        def spy(B, *args, real=real, **kwargs):
            widths.append(B.shape[-1])
            return real(B, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    solve_run, mor_dims = reps._solve_run, reps.mor_dims

    def counted_run(N, du, dw, u_at, u_nnz, w_at, w_nnz, coefs):
        calls[-1][1] += int(((du == 1) & (u_nnz == 0)).sum()
                            + ((dw == 1) & (w_nnz == 0)).sum())
        return solve_run(N, du, dw, u_at, u_nnz, w_at, w_nnz, coefs)

    def counted(coreps, ui, wi):
        calls.append([len(np.union1d(ui, wi)), 0])
        return mor_dims(coreps, ui, wi)
    monkeypatch.setattr(reps, "_solve_run", counted_run)
    monkeypatch.setattr(reps, "mor_dims", counted)
    assert reps.audit_fusion(A, catalog).oracle_consistent
    assert widths and min(widths) > 1
    assert sum(one_sided for _, one_sided in calls) > 0
    assert all(one_sided <= distinct for distinct, one_sided in calls)
