"""Integer-array measure arithmetic against the Fraction loops it replaced.

The separation grid counts compositions as int64 rows in bounded blocks;
here its four grid figures must equal the recursive one-measure-at-a-time
grid of ``tests/oracles.py`` on small groups and denominator sets, also
with blocks of a few rows, and its working memory must stay bounded by the
block size.
"""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kacforge import measures
from kacforge.errors import DomainError, ValidationError
from kacforge.groups import direct_product
from kacforge.library import cyclic_group, dihedral_group, symmetric_group
from kacforge.measures import random_rational_measure, rel_T_obstruction

from .oracles import naive_separation_grid

GROUPS = {f"z{n}": cyclic_group(n) for n in range(2, 9)}
GROUPS.update(s3=symmetric_group(3), d4=dihedral_group(4),
              z2xz2=direct_product(cyclic_group(2), cyclic_group(2)))


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

