"""Memory bounds of the certification steps that work block by block.

``check_axioms`` walks its widest checks in row blocks, and
``coefficient_span_rank`` takes one rank per orbit block, so neither may
allocate a temporary that grows with the square of the algebra.  The
intertwiner solver takes its systems in runs of bounded size, and the
fusion audit and ``kacforge fusion`` build their tensors in runs of about
1 MB, so batching the solves keeps the peaks of ``enumerate_irreps``,
``audit_fusion`` and the fusion command bounded too.  A corepresentation
is stored as its nonzero entries, so a tensor product allocates with its
entries, not with the cells of its dense coefficient tensor, and the
coaction and unitarity check joins the entries in runs of rows, never
forming that tensor.  The Python-level peak (tracemalloc) is bounded on
the dim-720 pair S6 = (stabilizer of a point) * <6-cycle> and on it with
its sides swapped, on the corpus pairs double-s3-twist and sign-on-z7, and
on GL(3,2) factored both ways, as S4 * C7 and as C7 * S4.  The coset
system of a restriction morphism is solved one block per discrete element,
so its peak grows with |K|^2 times the target's dim, not with the square of
the algebra times that dim.
"""

import time
import tracemalloc

import numpy as np
import pytest

from kacforge import groups
from kacforge.hopf import (build_algebra, check_axioms,
                           compact_restriction_morphism, coset_space_dimension)
from kacforge.library import (corpus_pairs, pair_conjugation,
                              stabilizer_and_cycle, symmetric_group)
from kacforge.matched import compact_subpair, derive_actions
from kacforge.reps import (audit_fusion, build_candidates,
                           check_corepresentation, enumerate_irreps,
                           mor_dims)

from .test_scripts import load_script

MB = 1 << 20
_state = {}


def algebra_of(name):
    if name not in _state:
        if name == "s6-cyclic6":
            mp = derive_actions(*stabilizer_and_cycle(6), name=name)
        elif name == "swapped-s6":
            S, stab, cycle = stabilizer_and_cycle(6)
            mp = derive_actions(S, cycle, stab, name=name)
        elif name in ("s4-c7", "c7-s4"):
            G, stab, seven = load_script("block_memory").gl32(groups)
            sides = (stab, seven) if name == "s4-c7" else (seven, stab)
            mp = derive_actions(G, *sides, name=name)
        else:
            mp = next(p for p in corpus_pairs() if p.name == name)
        _state[name] = build_algebra(mp)
    return _state[name]


def peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["s6-cyclic6", "double-s3-twist"])
def test_axiom_checks_stay_under_eight_mb(name):
    A = algebra_of(name)
    report, peak = peak_bytes(lambda: check_axioms(A))
    assert report.passed
    assert peak < 8 * MB


def test_span_rank_stays_under_two_mb():
    A = algebra_of("s6-cyclic6")
    catalog = enumerate_irreps(A)
    rank, peak = peak_bytes(catalog.coefficient_span_rank)
    assert rank == A.dim == 720
    assert peak < 2 * MB


@pytest.mark.parametrize("name", ["double-s3-twist", "sign-on-z7"])
def test_batched_audit_stays_under_four_mb(name):
    A = algebra_of(name)
    catalog = enumerate_irreps(A)
    report, peak = peak_bytes(lambda: audit_fusion(A, catalog))
    assert report.oracle_consistent
    assert peak < 4 * MB


def test_level_batched_enumeration_stays_under_six_mb():
    A = algebra_of("s6-cyclic6")
    catalog, peak = peak_bytes(lambda: enumerate_irreps(A))
    assert sum(d * d for d in catalog.dims()) == A.dim
    assert peak < 6 * MB


def test_each_orbit_tensor_stays_under_one_mb():
    """The S4 * C7 orbit tensors, one at a time as the audit builds them:
    the densest has 49 rows and columns on 154 basis elements."""
    A = algebra_of("s4-c7")
    cands, space, irreps = build_candidates(A)
    orbit_coreps = cands[::len(irreps)]
    assert len(orbit_coreps) == len(space.orbits) == 6
    for u in orbit_coreps:
        for w in orbit_coreps:
            t, peak = peak_bytes(lambda: u.tensor(w))
            assert t.dim == u.dim * w.dim
            assert peak < MB


def test_irrep_pair_tensors_held_together_stay_under_eight_mb():
    """Every tensor of two canonical irreps of C7 * S4 held at once."""
    irreps = enumerate_irreps(algebra_of("c7-s4")).canonical
    tensors, peak = peak_bytes(
        lambda: [u.tensor(w) for u in irreps for w in irreps])
    assert len(tensors) == 81
    assert peak < 8 * MB


def _conj_s4_s3():
    """An input bundle of conj-s4-s3: S3 acting on S4 by conjugation."""
    from kacforge.io_formats import InputBundle
    S4 = symmetric_group(4)
    stab = [i for i, p in enumerate(S4.permutations) if p[3] == 3]
    bundle = InputBundle()
    bundle.pairs["conj-s4-s3"] = pair_conjugation(S4, stab)
    return bundle


def test_fusion_sends_its_tensors_to_the_solver_in_bounded_runs(monkeypatch):
    """``kacforge fusion`` on conj-s4-s3 (S3 acting on S4 by conjugation):
    each tensor of two canonical irreps reaches the solver once, 497,664
    entries in all, and no solver call takes tensor targets of more than
    _BLOCK // 8 entries plus the one tensor that closed its run."""
    from kacforge import cli, reps
    tensor, solve = reps.Corepresentation.tensor, reps.mor_dims
    made, runs = {}, []

    def tensor_spy(u, w):
        t = tensor(u, w)
        made[id(t)] = t
        return t

    def solve_spy(coreps, ui, wi):
        sizes = [len(coreps[j].value) for j in set(np.asarray(wi).tolist())
                 if id(coreps[j]) in made]
        if sizes:
            runs.append((sum(sizes), max(sizes)))
        return solve(coreps, ui, wi)

    monkeypatch.setattr(reps.Corepresentation, "tensor", tensor_spy)
    monkeypatch.setattr(reps, "mor_dims", solve_spy)
    report = cli.run_pipeline("fusion", _conj_s4_s3())
    assert report.entries()[0].status == "PASS"      # route-agreement
    assert sum(total for total, _ in runs) == 497_664
    assert all(total - largest < groups._BLOCK // 8 for total, largest in runs)


def test_fusion_counts_one_left_factor_at_a_time(monkeypatch):
    """``kacforge fusion`` on conj-s4-s3 (n = 30 canonical irreps) passes
    each ``fusion_counts`` call the n^2 triples (z, u, w) of one left factor
    u, never all n^3 triples at once."""
    from kacforge import cli
    real, calls = cli.fusion_counts, []

    def spy(sources, factors, triples, chars):
        calls.append((len(triples[0]), set(triples[1].tolist())))
        return real(sources, factors, triples, chars)

    monkeypatch.setattr(cli, "fusion_counts", spy)
    report = cli.run_pipeline("fusion", _conj_s4_s3())
    assert report.entries()[0].status == "PASS"      # route-agreement
    assert calls == [(30 * 30, {u}) for u in range(30)]


def _densest(coreps):
    return max(coreps, key=lambda c: len(c.value))


def _check_peak(c):
    dev, peak = peak_bytes(lambda: check_corepresentation(c))
    assert dev < 1e-7
    return peak


def test_checking_the_densest_orbit_tensor_stays_under_one_mb():
    """The S4 * C7 orbit tensor of dim 49 with 343 entries."""
    cands, _, irreps = build_candidates(algebra_of("s4-c7"))
    orbit_coreps = cands[::len(irreps)]
    t = _densest([u.tensor(w) for u in orbit_coreps for w in orbit_coreps])
    assert (t.dim, len(t.value)) == (49, 343)
    assert _check_peak(t) < MB


def test_checking_the_densest_c7_s4_candidate_stays_under_16_mb():
    c = _densest(build_candidates(algebra_of("c7-s4"))[0])
    assert (c.dim, len(c.value)) == (18, 1296)
    assert _check_peak(c) < 16 * MB


@pytest.mark.slow
def test_checking_the_densest_swapped_s6_candidate_stays_under_64_mb():
    """Dim 30 with 21,600 entries: a row alone makes 720 * 720 coaction
    products, so only the runs of rows keep the join bounded."""
    c = _densest(build_candidates(algebra_of("swapped-s6"))[0])
    assert (c.dim, len(c.value)) == (30, 21600)
    assert _check_peak(c) < 64 * MB


@pytest.mark.slow
def test_lone_swapped_s6_end_systems_stay_under_160_mb():
    """The level-0 End systems of the swapped-S6 candidates, most of them
    over the run budget and solved alone (the densest, of dim 30 with
    21,600 entries, has 1,296,000 terms): the blocks are built while only
    each term's side, places and coefficient index are held."""
    cands = build_candidates(algebra_of("swapped-s6"))[0]
    r = np.arange(len(cands))
    out, peak = peak_bytes(lambda: mor_dims(cands, r, r))
    assert [d for d, _ in out] == [1] * 9 + [2] * 5
    assert peak < 160 * MB


@pytest.mark.slow
def test_coset_dimension_of_conj_s4_s4_over_a4_stays_under_eight_mb():
    """S4 acting on itself by conjugation (dim 576) restricted to the
    compact A4 (dim 288): the one dense system would have 576 * 288 * 576
    complex cells (1.46 GB); the per-block peak measured 4.3 MB."""
    S4 = symmetric_group(4)
    mp = pair_conjugation(S4, range(24), name="conj-s4-s4")
    A = build_algebra(mp)
    sub_mp, embed = compact_subpair(mp, S4.commutator_subgroup_elements())
    rho = compact_restriction_morphism(A, build_algebra(sub_mp), embed)
    t0 = time.perf_counter()
    dim, peak = peak_bytes(lambda: coset_space_dimension(A, rho))
    assert (rho.target.dim, dim) == (288, 2)
    assert time.perf_counter() - t0 < 2.0
    assert peak < 8 * MB
