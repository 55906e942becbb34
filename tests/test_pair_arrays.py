"""Pair-derived arrays against naive loops, and the shared row matcher.

Indicator-matrix relation reports and closed-form fusion values are read
from the action tables as array work; here they must equal plain loops over
Python sets (``tests/oracles.py``) on the corpus pairs with seeded ``beta``
corruptions (rows that are no longer bijections included).  The row
matcher, which compares only the rows its projection window admits, must
equal the pairwise oracle on near ties, repeated rows and large entries.
"""

import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kacforge import groups
from kacforge.groups import character_table, match_rows
from kacforge.library import corpus_pairs
from kacforge.matched import magic_relations_report, orbit_space
from kacforge.reps import fusion_formula_table

from .oracles import (naive_fusion_formula, naive_magic_relations,
                      naive_match_rows)

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


def _near(row, tol, factor, at=0, imag=False):
    """``row`` with entry ``at`` moved by ``factor * tol``."""
    moved = np.array(row, dtype=complex)
    moved[at] += factor * tol * (1j if imag else 1)
    return moved


_TOL = 1e-6
_BASE = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [3.0, 1.0, -1.0]])

# (table, queries) of each case the projection filter must keep exact
MATCH_CASES = {
    "near-ties": (_BASE, [_near(_BASE[0], _TOL, 1 - 1e-3),
                          _near(_BASE[0], _TOL, 1 + 1e-3),
                          _near(_BASE[1], _TOL, -(1 - 1e-3), at=2),
                          _near(_BASE[2], _TOL, 1 - 1e-3, at=1, imag=True),
                          _near(_BASE[2], _TOL, 1 + 1e-3, at=1, imag=True)]),
    "duplicate-rows": (np.vstack([_BASE, _BASE[1]]), _BASE),
    "no-match": (_BASE, _BASE + 0.5),
    "empty-table": (np.zeros((0, 3)), _BASE),
    "no-queries": (_BASE, np.zeros((0, 3))),
    "one-column": (np.array([[0.0], [1.0], [1.0 + 3e-6], [-2.0]]),
                   np.array([[1.0 + 1e-6], [1.0 + 2e-6], [-2.0 - 9.99e-7],
                             [5.0]])),
    "large-magnitudes": (_BASE * 1e12, [_BASE[0] * 1e12,
                                        _near(_BASE[1] * 1e12, 2e5, 1),
                                        _near(_BASE[2] * 1e9, _TOL, 1 - 1e-3)]),
}


def test_match_rows_cases_equal_the_pairwise_oracle():
    for name, (table, queries) in MATCH_CASES.items():
        table, queries = np.asarray(table), np.asarray(queries)
        got = match_rows(table, queries, _TOL).tolist()
        assert got == naive_match_rows(table, queries, _TOL), name
    table, queries = MATCH_CASES["near-ties"]
    assert match_rows(table, np.array(queries), _TOL).tolist() == [
        0, -1, 1, 2, -1]
    assert (match_rows(*MATCH_CASES["duplicate-rows"], _TOL)
            == [0, -1, 2]).all()


_entries = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 1j, -1j, 0.5 + 0.5j])


@settings(deadline=None, max_examples=200)
@given(d=st.integers(1, 5), n=st.integers(0, 10),
       scale=st.sampled_from([1.0, 1e-3, 1e6, 1e12]),
       tol=st.sampled_from([1e-8, 1e-6, 1e-2]),
       data=st.data())
def test_filtered_match_rows_equals_the_pairwise_oracle(d, n, scale, tol,
                                                        data):
    """Rows drawn from a small alphabet, so that rows repeat, and queries
    that copy a table row, move one entry of it by tol * (1 +- 1e-3) or by
    an arbitrary amount, or are drawn afresh."""
    pool = data.draw(st.lists(st.lists(_entries, min_size=d, max_size=d),
                              min_size=1, max_size=6))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                               min_size=n, max_size=n))
    table = np.array([pool[k] for k in picks], dtype=complex).reshape(n, d)
    table *= scale
    queries = []
    for _ in range(data.draw(st.integers(0, 8))):
        kind = data.draw(st.sampled_from(["copy", "near", "moved", "fresh"]))
        if kind == "fresh" or not n:
            row = np.array(data.draw(st.lists(_entries, min_size=d,
                                              max_size=d))) * scale
        else:
            row = table[data.draw(st.integers(0, n - 1))].copy()
            at = data.draw(st.integers(0, d - 1))
            imag = data.draw(st.booleans())
            if kind == "near":
                row = _near(row, tol, data.draw(st.sampled_from(
                    [1 - 1e-3, 1 + 1e-3, -(1 - 1e-3), -(1 + 1e-3)])), at, imag)
            elif kind == "moved":
                row = _near(row, 1.0, data.draw(st.floats(-3, 3)), at, imag)
        queries.append(row)
    queries = np.array(queries, dtype=complex).reshape(len(queries), d)
    got = match_rows(table, queries, tol).tolist()
    assert got == naive_match_rows(table, queries, tol)
