"""Pair-derived arrays against naive loops, and the shared row matcher.

Indicator-matrix relation reports and closed-form fusion values are read
from the action tables as array work; here they must equal plain loops over
Python sets (``tests/oracles.py``) on the corpus pairs with seeded ``beta``
corruptions (rows that are no longer bijections included).
"""

import copy
import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from kacforge import groups
from kacforge.groups import character_table, match_rows
from kacforge.library import corpus_pairs
from kacforge.matched import magic_relations_report, orbit_space
from kacforge.reps import fusion_formula_table

from .oracles import naive_fusion_formula, naive_magic_relations

CORPUS = {mp.name: mp for mp in corpus_pairs()}


def seeded_corruption(mp, seed):
    """``mp`` with one ``beta`` row changed at two random points: the two
    entries swapped, or the first copied onto the second."""
    rng = np.random.default_rng(seed)
    beta = np.array(mp.beta)
    g = rng.integers(mp.compact.order)
    r1, r2 = rng.choice(mp.discrete.order, size=2, replace=False)
    if rng.integers(2):
        beta[g, r1], beta[g, r2] = beta[g, r2], beta[g, r1]
    else:
        beta[g, r2] = beta[g, r1]
    bad = copy.copy(mp)
    bad.beta = beta
    return bad


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(sorted(CORPUS)), st.integers(0, 2 ** 32 - 1))
def test_relations_and_closed_form_match_naive_loops(name, seed):
    mp = CORPUS[name]
    bad = seeded_corruption(mp, seed)
    space = orbit_space(mp)  # orbits of the honest pair
    for orb in space.orbits:
        assert (magic_relations_report(bad, orb)
                == naive_magic_relations(bad, orb))
    table = character_table(mp.compact)
    chars = table.chars[:, table.classes.class_of]
    closed = fusion_formula_table(bad, space, chars)
    n = len(space.orbits)
    assert closed.shape == (len(chars), n, n, n)
    for x, gi, ri, si in itertools.product(range(len(chars)), range(n),
                                           range(n), range(n)):
        want = naive_fusion_formula(bad, space, chars[x], gi, ri, si)
        assert abs(closed[x, gi, ri, si] - want) <= 1e-12


def test_honest_pairs_pass_every_relation_like_the_loops():
    for mp in CORPUS.values():
        space = orbit_space(mp)
        for orb in space.orbits:
            report = magic_relations_report(mp, orb)
            assert report == naive_magic_relations(mp, orb)
            assert all(ok for _, ok, _ in report)


def test_match_rows_unique_ambiguous_and_missing():
    table = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-7], [5.0, 5.0]])
    queries = np.array([[0.0, 1e-9],      # row 0 only
                        [1.0, 0.0],       # rows 1 and 2 both within tol
                        [3.0, 3.0],       # no row within tol
                        [5.0, 5.0 + 1e-7]])
    assert match_rows(table, queries, 1e-6).tolist() == [0, -1, -1, 3]
    # a tighter tolerance separates rows 1 and 2
    assert match_rows(table, queries[1:2], 1e-8).tolist() == [1]


def test_match_rows_across_row_blocks_equals_brute_force():
    rng = np.random.default_rng(3)
    table = rng.integers(0, 2, size=(60, 5)).astype(float)   # repeats rows
    queries = rng.integers(0, 2, size=(3000, 5)) + 1e-9
    got = match_rows(table, queries, 1e-6)
    for q, k in zip(queries, got):
        hits = np.flatnonzero(np.abs(table - q).max(1) <= 1e-6)
        assert k == (hits[0] if len(hits) == 1 else -1)
    assert len(queries) * table.size > groups._BLOCK      # several blocks
    assert (got == -1).any() and (got >= 0).any()
