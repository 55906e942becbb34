"""Integer-array measure arithmetic against the Fraction loops it replaced.

The separation grid counts compositions as int64 rows in bounded blocks;
here its four grid figures must equal the recursive one-measure-at-a-time
grid of ``tests/oracles.py`` on small groups and denominator sets, also
with blocks of a few rows, and its working memory must stay bounded by the
block size, and a grid over ``SEPARATION_CAP`` points is refused before
it is built.
"""

import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kacforge import measures
from kacforge.errors import DomainError, SizeBound, ValidationError
from kacforge.groups import direct_product
from kacforge.io_formats import parse_inputs
from kacforge.library import cyclic_group, symmetric_group
from kacforge.measures import rel_T_obstruction

from .helpers import dihedral_group, random_rational_measure
from .oracles import naive_separation_grid

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"

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
        got = measures._separation_grid(G, dens)
    assert got == naive_separation_grid(G, dens)


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


def test_separation_refuses_the_trivial_group():
    with pytest.raises(DomainError):
        rel_T_obstruction(cyclic_group(1))


def test_separation_grid_over_the_cap_is_refused_before_any_point():
    # S4 at D = 1..4: 24 + 300 + 2600 + 17550 = 20474 points
    def no_points(*args):
        raise AssertionError("grid enumerated")
    G = symmetric_group(4)
    with mock.patch.object(measures, "SEPARATION_CAP", 20473), \
            mock.patch("itertools.combinations_with_replacement", no_points), \
            pytest.raises(SizeBound, match=r"^separation grid of order 24 has "
                                           r"20474 points, over the grid cap "
                                           r"20473$"):
        rel_T_obstruction(G)
    with mock.patch.object(measures, "SEPARATION_CAP", 20474):
        assert rel_T_obstruction(G).mixed_formula_checked == 20474
    # order 97 (4,082,924 points) is the largest under the shipped cap
    with mock.patch("itertools.combinations_with_replacement", no_points), \
            pytest.raises(SizeBound, match="4249574 points"):
        rel_T_obstruction(cyclic_group(98))


@pytest.mark.parametrize("path", sorted(SAMPLES.glob("*.group")),
                         ids=lambda p: p.name)
def test_every_sample_group_fits_the_separation_cap(path):
    (G,) = parse_inputs([str(path)]).groups.values()
    assert rel_T_obstruction(G).passed


def test_random_measure_refuses_to_vanish_everywhere():
    G = cyclic_group(3)
    with pytest.raises(ValidationError):
        random_rational_measure(G, seed=1, zero_at=[0, 1, 2])
    with pytest.raises(ValidationError):
        random_rational_measure(cyclic_group(1), seed=1, zero_at=[0])
    m = random_rational_measure(G, seed=1, zero_at=[0, 2, 2])
    assert m.weights == (0, 1, 0)

