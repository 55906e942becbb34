"""Length functions on fusion rings against naive loops.

``word_length`` runs a level BFS on slices of the multiplicity tensor and
``invariantize_length`` reads each orbit as a column of the permutation
table; here they must agree with the per-label BFS and the orbit BFS of
``tests/oracles.py`` on element, irrep, truncated and crossed rings, under
conjugation actions and the actions of the graded corpus pairs, for
``hypothesis``-drawn generator sets and length vectors.  ``check_length``
and ``length_l0`` are compared with plain loops alongside.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kacforge.crossed import (RingAction, action_from_pair, check_length,
                              crossed_instance,
                              element_fusion_ring, free_orthogonal_ring,
                              invariantize_length, irrep_fusion_ring,
                              length_l0, word_length)
from kacforge.errors import ValidationError
from kacforge.library import (corpus_pairs, cyclic_group,
                              special_linear_group, symmetric_group)

from .helpers import dihedral_group, quaternion_group
from .oracles import naive_orbit_max, naive_word_length

_GRADED = ("z6-abelian", "s3-split", "conj-s3-rot", "sign-on-z7")
_cache = {}


def _cached(key, make):
    if key not in _cache:
        _cache[key] = make()
    return _cache[key]


def _pair(name):
    return {mp.name: mp for mp in corpus_pairs()}[name]


def _instance(name):
    return _cached(("inst", name), lambda: crossed_instance(_pair(name)))


def _pair_action(name):
    """A graded pair's discrete side permuting the compact irrep labels."""
    action, ring = action_from_pair(_pair(name))
    return ring, action


def _conjugation(G):
    """G acting on its own element ring by conjugation: x -> g x g^-1."""
    C = G.cayley
    return (element_fusion_ring(G),
            RingAction(group=G, perms=C[C, G.inverse[:, None]]))


RINGS = {
    "z6-elements": lambda: element_fusion_ring(cyclic_group(6)),
    "d4-elements": lambda: element_fusion_ring(dihedral_group(4)),
    "s4-irreps": lambda: irrep_fusion_ring(symmetric_group(4)),
    "sl2-3-irreps": lambda: irrep_fusion_ring(special_linear_group(2, 3)),
    "free-o3": lambda: free_orthogonal_ring(3, 8),
    "crossed-s3-split": lambda: _instance("s3-split").ring,
    "crossed-conj-s3-rot": lambda: _instance("conj-s3-rot").ring,
}

ACTIONS = {
    "conj-s3": lambda: _conjugation(symmetric_group(3)),
    "conj-d4": lambda: _conjugation(dihedral_group(4)),
    "conj-q8": lambda: _conjugation(quaternion_group()),
}
ACTIONS.update({f"pair-{name}": lambda name=name: _pair_action(name)
                for name in _GRADED})

VALUES = st.one_of(st.integers(0, 6).map(float),
                   st.floats(-3, 9, allow_nan=False, allow_infinity=False))


def _brute_check_length(ring, v):
    """The ``check_length`` deviation from one loop over labels and one
    over fusion triples."""
    dev = abs(v[ring.unit])
    for x in range(ring.n):
        dev = max(dev, abs(v[x] - v[ring.dual[x]]))
        if v[x] < -1e-9:
            dev = max(dev, -v[x])
    for x, y, z in zip(*np.nonzero(ring.mult)):
        if v[z] - (v[x] + v[y]) > 1e-9:
            dev = max(dev, v[z] - (v[x] + v[y]))
    return float(dev)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_word_length_matches_per_label_bfs(data):
    name = data.draw(st.sampled_from(sorted(RINGS)))
    ring = _cached(("ring", name), RINGS[name])
    gens = data.draw(st.lists(st.integers(0, ring.n - 1), max_size=4))
    want = naive_word_length(ring.mult, ring.dual, ring.unit, gens)
    if None in want:
        with pytest.raises(ValidationError, match="do not reach"):
            word_length(ring, gens)
        return
    lf = word_length(ring, gens)
    assert lf.tolist() == [float(d) for d in want]
    assert check_length(ring, lf) == _brute_check_length(ring, lf)
    if not ring.truncated:
        assert check_length(ring, lf) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_invariantize_matches_orbit_bfs(data):
    name = data.draw(st.sampled_from(sorted(ACTIONS)))
    ring, action = _cached(("action", name), ACTIONS[name])
    values = data.draw(st.lists(VALUES, min_size=ring.n, max_size=ring.n))
    got = invariantize_length(np.array(values), action)
    assert got.tolist() == naive_orbit_max(values, action.perms)
    assert (got[action.perms] == got).all()
    assert check_length(ring, got) == _brute_check_length(ring, got)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_length_l0_against_loops(data):
    inst = _instance(data.draw(st.sampled_from(_GRADED)))
    base, nr = inst.ring.base, inst.pair.discrete.order
    l_gamma = np.array(data.draw(st.lists(VALUES, min_size=nr, max_size=nr)))
    values = data.draw(st.lists(VALUES, min_size=base.n, max_size=base.n))
    l_base = np.array(values)
    # length_l0 allows a 1e-9 drift along an orbit
    if (np.array(naive_orbit_max(values, inst.ring.action.perms))
            - values).max() > 1e-9:
        with pytest.raises(ValidationError, match="length-invariance"):
            length_l0(inst.ring, l_gamma, l_base)
        l_base = invariantize_length(l_base, inst.ring.action)
    l0 = length_l0(inst.ring, l_gamma, l_base)
    assert l0.tolist() == [l_gamma[g] + l_base[x]
                           for g in range(nr) for x in range(base.n)]
    assert check_length(inst.ring, l0) == _brute_check_length(inst.ring, l0)
