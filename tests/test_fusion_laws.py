"""The tensor ring-law check against a loop oracle, exact truncation and
the ring size cap.

``check_fusion_ring`` must give the same four numbers as the plain-loop
``naive_fusion_laws`` in ``tests/oracles.py``, on the golden rings and on
rings with one corrupted multiplicity.  Truncation is decided from exact
integer dimensions, and every ring builder refuses more than ``RING_CAP``
labels before it allocates anything of that size.  The float64 products
used under the exactness bound give the same counts as the int64 ones, and
a ring past the bound is counted exactly, and the counts do not depend on
the BLAS thread count.
"""

import numpy as np
import pytest

from kacforge import crossed, groups
from kacforge.config import RING_CAP
from kacforge.crossed import (CrossedFusionRing, FusionRing, RingAction,
                              check_fusion_ring, element_fusion_ring,
                              free_orthogonal_ring, irrep_fusion_ring)
from kacforge.errors import SizeBound
from kacforge.library import cyclic_group, symmetric_group

from .oracles import naive_fusion_laws
from .test_fusion_golden import CHECKED_MAX, golden_rings


def oracle_of(ring):
    dims = [int(round(float(v))) for v in ring.dims]
    return naive_fusion_laws(ring.mult.tolist(), list(ring.dual), dims,
                             ring.truncated)


def bumped(ring, x, y, z):
    """The same ring rebuilt through the constructor with N(x, y, z) + 1."""
    mult = ring.mult.copy()
    mult[x, y, z] += 1
    return FusionRing(ring.labels, ring.unit, ring.dual,
                      [int(round(float(v))) for v in ring.dims], mult,
                      truncated=ring.truncated, name=f"bumped {ring.name}")


_SMALL = {name: build for name, build in golden_rings().items()
          if name != "crossed-sign-on-z7"}


@pytest.mark.parametrize("name", list(_SMALL))
def test_tensor_check_matches_loop_oracle(name):
    ring = _SMALL[name]()
    assert ring.n <= CHECKED_MAX
    assert check_fusion_ring(ring) == oracle_of(ring)


def test_corrupted_irrep_ring_fails_like_the_oracle():
    ring = bumped(irrep_fusion_ring(symmetric_group(4)), 2, 3, 4)
    got = check_fusion_ring(ring)
    assert got == oracle_of(ring)
    assert got["associativity"] > 0 and got["frobenius"] > 0
    assert got["dimension-homomorphism"] > 0


def test_corrupted_truncated_ring_fails_like_the_oracle():
    # the bump breaks the dimension count of 1*2, so that product now leaves
    # the window and every triple that meets it is skipped: under the skip
    # rule no single bump of this ring reaches the associativity count
    ring = bumped(free_orthogonal_ring(3, 6), 1, 2, 3)
    got = check_fusion_ring(ring)
    assert got == oracle_of(ring)
    assert got["frobenius"] > 0
    assert got["associativity-skipped"] > 259
    assert ring.overflow[1, 2]
    # read as untruncated, every triple and the dimension law count
    whole = FusionRing(ring.labels, ring.unit, ring.dual,
                       [int(round(float(v))) for v in ring.dims], ring.mult)
    got = check_fusion_ring(whole)
    assert got == oracle_of(whole)
    assert got["associativity"] > 0 and got["frobenius"] > 0
    assert got["associativity-skipped"] == 0


def test_truncation_is_decided_from_exact_dimensions():
    ring = free_orthogonal_ring(5, 40)       # dimensions reach 1.7e27
    assert ring.mult[1, 32].tolist() == [0] * 31 + [1, 0, 1] + [0] * 7
    j, k = np.indices((41, 41))
    assert np.array_equal(ring.overflow, j + k > 40)


def test_ring_builders_refuse_more_than_the_cap():
    with pytest.raises(SizeBound):
        free_orthogonal_ring(3, RING_CAP)
    assert free_orthogonal_ring(2, RING_CAP - 1).n == RING_CAP
    with pytest.raises(SizeBound):
        element_fusion_ring(cyclic_group(RING_CAP + 1))
    with pytest.raises(SizeBound):
        irrep_fusion_ring(cyclic_group(RING_CAP + 1))
    with pytest.raises(SizeBound):
        FusionRing(range(RING_CAP + 1), 0, np.arange(RING_CAP + 1),
                   [1] * (RING_CAP + 1), None)
    base = element_fusion_ring(cyclic_group(16))
    G = cyclic_group(17)
    with pytest.raises(SizeBound):
        CrossedFusionRing(base, RingAction(G, np.tile(np.arange(16),
                                                      (17, 1))))


@pytest.mark.parametrize("name", list(golden_rings()) + ["free-o-3-60"])
def test_float_products_count_like_int_products(name, monkeypatch):
    ring = (free_orthogonal_ring(3, 60) if name == "free-o-3-60"
            else golden_rings()[name]())
    assert crossed._exact_products(ring.mult.astype(np.int64)).dtype == float
    got = check_fusion_ring(ring)
    monkeypatch.setattr(crossed, "_exact_products", lambda M: M)
    assert got == check_fusion_ring(ring)


@pytest.mark.parametrize("K", [2 ** 27, -2 ** 27])
def test_ring_past_the_float_bound_is_counted_exactly(K):
    # 2 * 2 = 0 + 1 + K*2 with |K| = 2**27, so 3 * K**2 >= 2**53; one
    # grouping of 2*2*2 misses the other by 1 in an entry of about K**2,
    # which float64 products round away.  A negative K is a corrupted ring
    # whose largest entry is 1.
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    mult[0] = mult[:, 0] = np.eye(3, dtype=np.int64)
    mult[1, 1, 0] = mult[2, 2, 0] = mult[2, 1, 2] = mult[2, 2, 1] = 1
    mult[2, 2, 2] = K
    ring = FusionRing(["1", "a", "b"], 0, [0, 1, 2], [1, 1, 1], mult)
    assert crossed._exact_products(mult).dtype == np.int64
    got = check_fusion_ring(ring)
    assert got == oracle_of(ring)
    F = mult.astype(float)
    rounded = sum(int((np.einsum("bx,xcd->bcd", F[a], F)
                       != np.einsum("bcy,yd->bcd", F, F[a])).sum())
                  for a in range(3))
    assert rounded < got["associativity"]


def test_ring_law_counts_do_not_depend_on_the_blas_thread_count():
    """An honest and a corrupted free-orthogonal ring and a corrupted irrep
    ring give the same four ``check_fusion_ring`` counts at one OpenBLAS
    thread and at two."""
    rings = [free_orthogonal_ring(3, 40),
             bumped(free_orthogonal_ring(3, 40), 1, 2, 3),
             bumped(irrep_fusion_ring(symmetric_group(4)), 2, 3, 4)]
    with groups.one_blas_thread():
        at_one = [check_fusion_ring(ring) for ring in rings]
    assert at_one[1]["frobenius"] > 0 and at_one[2]["associativity"] > 0
    calls = groups._blas_thread_calls()
    before = calls[0]() if calls else None
    try:
        if calls:
            calls[1](2)
        assert [check_fusion_ring(ring) for ring in rings] == at_one
    finally:
        if calls:
            calls[1](before)
