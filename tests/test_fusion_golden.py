"""Golden digests of the fusion rings and of their law reports.

For irrep, element, free-orthogonal and crossed rings, the sha256 of the
labels, the unit, the dual, the integer dimensions and the sorted
``(x, y, z, m)`` fusion entries (the nonzero cells of ``mult``) must match
the digests stored in ``tests/data/fusion_digests.json``.  For truncated
rings the set of ``(x, y)`` whose product leaves the cutoff window (the
cells of ``overflow``) is digested too.  For every ring of at most ``CHECKED_MAX`` labels the full
``check_fusion_ring`` dict is stored as plain numbers.  Any change to how
fusion data is stored or checked must leave all of this unchanged.

Regenerate the file (only when a change of output is intended) with
``PYTHONPATH=src python -m tests.test_fusion_golden``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from kacforge.crossed import (CrossedFusionRing, action_from_pair,
                              check_fusion_ring, element_fusion_ring,
                              free_orthogonal_ring, irrep_fusion_ring)
from kacforge.library import (corpus_pairs, cyclic_group, pair_conjugation,
                              pair_sign_on_z7, special_linear_group,
                              symmetric_group)

DIGESTS = Path(__file__).resolve().parent / "data" / "fusion_digests.json"

#: rings up to this many labels also store their check_fusion_ring dict
CHECKED_MAX = 24


def _crossed(mp):
    action, base = action_from_pair(mp)
    return CrossedFusionRing(base, action)


def _conj_s4_z4():
    S4 = symmetric_group(4)
    four_cycle = S4.permutations.index((1, 2, 3, 0))
    return pair_conjugation(S4, S4.closure([four_cycle]), name="conj-s4-z4")


def _conj_s3_rotations():
    S3 = symmetric_group(3)
    rot = [g for g in range(6) if S3.element_order(g) in (1, 3)]
    return pair_conjugation(S3, rot)


def golden_rings():
    """name -> zero-argument builder."""
    S3 = symmetric_group(3)
    S4 = symmetric_group(4)
    split = {mp.name: mp for mp in corpus_pairs()}["s3-split"]
    return {
        "irrep-s3": lambda: irrep_fusion_ring(S3),
        "irrep-s4": lambda: irrep_fusion_ring(S4),
        "irrep-sl23": lambda: irrep_fusion_ring(special_linear_group(2, 3)),
        "irrep-c5": lambda: irrep_fusion_ring(cyclic_group(5)),
        "irrep-c6": lambda: irrep_fusion_ring(cyclic_group(6)),
        "element-s3": lambda: element_fusion_ring(S3),
        "element-s4": lambda: element_fusion_ring(S4),
        "free-o-3-6": lambda: free_orthogonal_ring(3, 6),
        "free-o-2-8": lambda: free_orthogonal_ring(2, 8),
        "free-o-3-12": lambda: free_orthogonal_ring(3, 12),
        "crossed-conj-s3-s3": lambda: _crossed(
            pair_conjugation(S3, range(S3.order), name="conj-s3-s3")),
        "crossed-conj-s4-z4": lambda: _crossed(_conj_s4_z4()),
        "crossed-sign-on-z7": lambda: _crossed(pair_sign_on_z7()),
        "crossed-s3-split": lambda: _crossed(split),
        "crossed-conj-s3-rot": lambda: _crossed(_conj_s3_rotations()),
    }


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def digests_of(ring):
    cells = np.nonzero(ring.mult)                  # x, then y, then z
    entries = list(zip(*(v.tolist() for v in cells + (ring.mult[cells],))))
    raises = [tuple(xy) for xy in np.argwhere(ring.overflow).tolist()]
    out = {
        "labels": _sha([str(lab) for lab in ring.labels]),
        "unit": int(ring.unit),
        "dual": _sha([int(v) for v in ring.dual]),
        "dims": _sha([int(round(float(d))) for d in ring.dims]),
        "entries": _sha(entries),
        "truncated": bool(ring.truncated),
        "fuse-raises": _sha(raises),
    }
    if ring.n <= CHECKED_MAX:
        out["laws"] = {k: float(v)
                       for k, v in sorted(check_fusion_ring(ring).items())}
    return out


_RINGS = golden_rings()


@pytest.mark.parametrize("name", list(_RINGS))
def test_fusion_ring_matches_golden(name):
    stored = json.loads(DIGESTS.read_text())
    assert digests_of(_RINGS[name]()) == stored[name]


def test_golden_file_covers_every_ring():
    stored = json.loads(DIGESTS.read_text())
    assert sorted(stored) == sorted(_RINGS)
    small = [name for name, entry in stored.items() if "laws" in entry]
    assert "crossed-sign-on-z7" not in small and len(small) == len(_RINGS) - 1


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {name: digests_of(build()) for name, build in _RINGS.items()},
        indent=1, sort_keys=True) + "\n")
