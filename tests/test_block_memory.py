"""Memory bounds of the certification steps that work block by block.

``check_axioms`` walks its widest checks in row blocks, and
``coefficient_span_rank`` takes one rank per orbit block, so neither may
allocate a temporary that grows with the square of the algebra.  The
Python-level peak (tracemalloc) is bounded on the dim-720 pair
S6 = (stabilizer of a point) * <6-cycle> and on the corpus pair
double-s3-twist.
"""

import tracemalloc

import pytest

from kacforge.hopf import build_algebra, check_axioms
from kacforge.library import corpus_pairs, stabilizer_and_cycle
from kacforge.matched import derive_actions
from kacforge.reps import enumerate_irreps

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
