"""Memory bounds of the certification steps that work block by block.

``check_axioms`` walks its widest checks in row blocks, and
``coefficient_span_rank`` takes one rank per orbit block, so neither may
allocate a temporary that grows with the square of the algebra.  The
intertwiner solver takes its systems in runs of bounded size, and the
fusion audit builds its orbit tensors in runs of about 1 MB, so batching
the solves keeps the peaks of ``enumerate_irreps`` and ``audit_fusion``
bounded too.  The Python-level peak (tracemalloc) is bounded on the
dim-720 pair S6 = (stabilizer of a point) * <6-cycle> and on the corpus
pairs double-s3-twist and sign-on-z7.
"""

import tracemalloc

import pytest

from kacforge.hopf import build_algebra, check_axioms
from kacforge.library import corpus_pairs, stabilizer_and_cycle
from kacforge.matched import derive_actions
from kacforge.reps import audit_fusion, enumerate_irreps

MB = 1 << 20
_state = {}


def algebra_of(name):
    if name not in _state:
        if name == "s6-cyclic6":
            mp = derive_actions(*stabilizer_and_cycle(6), name=name)
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
