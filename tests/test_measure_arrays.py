"""Integer-array measure arithmetic against the Fraction loops it replaced.

The separation grid counts compositions as int64 rows in bounded blocks;
here its four grid figures must equal the recursive one-measure-at-a-time
grid of ``tests/oracles.py`` on small groups and denominator sets, also
with blocks of a few rows, and its working memory must stay bounded by the
block size.  ``convolve``, ``pushforward`` and ``smooth`` work on integer
numerators over one common denominator; they must return the same
``Fraction`` weights as the naive loops, for small denominators and for
huge ones whose products pass int64.
"""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kacforge import measures
from kacforge.errors import DomainError, ValidationError
from kacforge.groups import direct_product
from kacforge.library import (corpus_pairs, cyclic_group, dihedral_group,
                              symmetric_group)
from kacforge.measures import (FiniteMeasure, convolve, pushforward,
                               random_rational_measure, rel_T_obstruction,
                               smooth)

from .oracles import (naive_convolve, naive_pushforward,
                      naive_separation_grid, naive_smooth)

GROUPS = {f"z{n}": cyclic_group(n) for n in range(2, 9)}
GROUPS.update(s3=symmetric_group(3), d4=dihedral_group(4),
              z2xz2=direct_product(cyclic_group(2), cyclic_group(2)))
PAIRS = {p.name: p for p in corpus_pairs()
         if p.compact.order * p.discrete.order <= 84}


# ---------------------------------------------------------------------------
# the separation grid


@pytest.mark.parametrize("block", [measures._GRID_BLOCK, 16])
@given(name=st.sampled_from(sorted(GROUPS)),
       denominators=st.sets(st.integers(min_value=1, max_value=4)))
@settings(max_examples=40, deadline=None)
def test_separation_grid_matches_naive_grid(block, name, denominators):
    # block=16 gives rows of 2 to 4 measures, so rows split across blocks
    G = GROUPS[name]
    dens = tuple(sorted(denominators))
    with mock.patch.object(measures, "_GRID_BLOCK", block):
        rep = rel_T_obstruction(G, denominators=dens, samples=1)
    points, least, checked, dev = naive_separation_grid(G, dens)
    assert rep.grid_points == points
    assert rep.mixed_formula_checked == checked
    assert rep.grid_min_distance == least
    assert rep.mixed_formula_max_dev == dev


def test_separation_grid_memory_is_bounded_by_the_block():
    # A block holds at most 2**14 int64 entries, 128 KiB; the multiset rows,
    # their flat indices, the counts and the distance temporaries make a
    # handful of such arrays at once.  Eight of them, 1 MiB, is the bound:
    # blocks of 2**16 entries would peak near 1.6 MiB and 2**18 near 6.4 MiB
    # on this grid, whose largest layer alone holds 17,550 x 24 counts.
    assert measures._GRID_BLOCK <= 2 ** 14
    G = symmetric_group(4)
    measures._separation_grid(G, (1,))
    tracemalloc.start()
    try:
        out = measures._separation_grid(G, (1, 2, 3, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == (17549, 2, 20474, 0)
    assert peak < 8 * 8 * 2 ** 14


def test_separation_refuses_the_trivial_group_and_bad_denominators():
    with pytest.raises(DomainError):
        rel_T_obstruction(cyclic_group(1))
    with pytest.raises(DomainError):
        rel_T_obstruction(cyclic_group(3), denominators=(2, 0))


def test_random_measure_refuses_to_vanish_everywhere():
    G = cyclic_group(3)
    with pytest.raises(ValidationError):
        random_rational_measure(G, seed=1, zero_at=[0, 1, 2])
    with pytest.raises(ValidationError):
        random_rational_measure(cyclic_group(1), seed=1, zero_at=[0])
    m = random_rational_measure(G, seed=1, zero_at=[0, 2, 2])
    assert m.weights == (0, 1, 0)


# ---------------------------------------------------------------------------
# measure arithmetic on integer numerators


def _huge_measure(G, seed):
    """Seeded measure whose weights share a denominator near 2**40 * order,
    so a product of two of them passes int64."""
    counts = np.random.default_rng(seed).integers(1, 2 ** 40, size=G.order)
    total = int(counts.sum())
    return FiniteMeasure(G, tuple(Fraction(int(c), total) for c in counts))


def _measure(G, seed, huge):
    return _huge_measure(G, seed) if huge else \
        random_rational_measure(G, seed=seed)


@given(name=st.sampled_from(sorted(GROUPS)), sa=st.integers(0, 10 ** 6),
       sb=st.integers(0, 10 ** 6), huge=st.booleans())
@settings(max_examples=40, deadline=None)
def test_convolve_matches_naive_loop(name, sa, sb, huge):
    G = GROUPS[name]
    a, b = _measure(G, sa, huge), _measure(G, sb, huge)
    assert convolve(a, b).weights == naive_convolve(G, a.weights, b.weights)


@given(pair=st.sampled_from(sorted(PAIRS)), seed=st.integers(0, 10 ** 6),
       huge=st.booleans(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_pushforward_and_smooth_match_naive_loops(pair, seed, huge, data):
    mp = PAIRS[pair]
    mu = _measure(mp.compact, seed, huge)
    gamma = data.draw(st.integers(0, mp.discrete.order - 1))
    assert pushforward(mu, gamma, mp).weights == \
        naive_pushforward(mp, mu.weights, gamma)
    support = data.draw(st.sets(st.integers(0, mp.discrete.order - 1),
                                min_size=1))
    raw = [data.draw(st.integers(1, 2 ** 40 if huge else 9))
           for _ in support]
    coeffs = {g: Fraction(r, sum(raw)) for g, r in zip(sorted(support), raw)}
    assert smooth(coeffs, mu, mp).weights == \
        naive_smooth(mp, mu.weights, coeffs)

