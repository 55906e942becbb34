"""Finite-group constructors and subgroup helpers against naive loops.

The constructors fill the Cayley table down the BFS spanning tree; here
they must give the same elements, table and labels as the plain BFS with
one product per pair of ``tests/oracles.py``, or the same ``SizeBound``, on
random permutation generators (degree <= 5) and random invertible 2x2
matrices mod 2, 3 and 5, under the real and under lowered caps.  On the
groups built, ``closure``, ``is_normal``, ``quotient_group`` and the
element orders must equal brute-force loops.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kacforge import groups
from kacforge.config import CLOSURE_CAP, TABLE_CAP
from kacforge.errors import SizeBound, ValidationError

from .oracles import brute_subgroup_generated, naive_group_from_generators

CAPS = st.sampled_from([(CLOSURE_CAP, TABLE_CAP), (7, TABLE_CAP),
                        (CLOSURE_CAP, 10), (40, 60)])
GL2 = {p: [m for m in itertools.product(range(p), repeat=4)
           if (m[0] * m[3] - m[1] * m[2]) % p]
       for p in (2, 3, 5)}


def _built_or_error(make, caps):
    """The group made under the given (closure, table) caps, or the
    message of its SizeBound."""
    with mock.patch.object(groups, "CLOSURE_CAP", caps[0]), \
            mock.patch.object(groups, "TABLE_CAP", caps[1]):
        try:
            return make()
        except SizeBound as exc:
            return str(exc)


def _expected(gens, compose, identity, caps):
    try:
        return naive_group_from_generators(gens, compose, identity, *caps)
    except ValueError as exc:
        return str(exc)


def _brute_orders(G):
    out = []
    for a in range(G.order):
        k, x = 1, a
        while x != G.identity:
            x, k = G.cayley[x, a], k + 1
        out.append(k)
    return out


def _brute_quotient(G, normal):
    """Cosets gN numbered by their least element, as plain loops."""
    proj, reps = [-1] * G.order, []
    for g in range(G.order):
        if proj[g] < 0:
            for k in normal:
                proj[G.cayley[g, k]] = len(reps)
            reps.append(g)
    table = [[proj[G.cayley[a, b]] for b in reps] for a in reps]
    return table, [G.labels[r] + "N" for r in reps], proj


def _table_labels_perms(G):
    return (G.cayley.tolist(), G.labels, getattr(G, "permutations", None))


def _check_subgroup_helpers(G, rng):
    picks = rng.integers(G.order, size=rng.integers(1, 4)).tolist()
    assert G.element_orders().tolist() == _brute_orders(G)
    N = G.closure(picks)
    assert N == brute_subgroup_generated(G, picks)
    for subset in (N, sorted(set(picks) | {G.identity})):
        conj = {int(G.cayley[G.cayley[g, x], G.inverse[g]])
                for g in range(G.order) for x in subset}
        assert G.is_normal(subset) == conj.issubset(subset)
    if G.is_normal(N):
        Q, proj = groups.quotient_group(G, N)
        assert (Q.cayley.tolist(), Q.labels, proj.tolist()) == \
            _brute_quotient(G, N)
    else:
        with pytest.raises(ValidationError, match="normality"):
            groups.quotient_group(G, N)


@settings(max_examples=60, deadline=None)
@given(degree=st.sampled_from([5, 4, 3, 2, 1]), n_gens=st.integers(0, 3),
       caps=CAPS, seed=st.integers(0, 2**32 - 1))
def test_permutation_groups_match_naive_construction(degree, n_gens, caps,
                                                     seed):
    rng = np.random.default_rng(seed)
    gens = [tuple(int(v) for v in rng.permutation(degree))
            for _ in range(n_gens)]

    def compose(p, q):
        return tuple(p[i] for i in q)
    got = _built_or_error(lambda: groups.group_from_permutations(
        gens, degree=degree), caps)
    want = _expected(gens, compose, tuple(range(degree)), caps)
    if isinstance(want, str):
        assert got == want
        return
    elems, table = want
    labels = [groups._perm_label(p) for p in elems]
    assert _table_labels_perms(got) == (table, labels, elems)
    _check_subgroup_helpers(got, rng)


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from(sorted(GL2)), n_gens=st.integers(1, 3), caps=CAPS,
       seed=st.integers(0, 2**32 - 1))
def test_matrix_groups_match_naive_construction(p, n_gens, caps, seed):
    rng = np.random.default_rng(seed)
    gens = [GL2[p][i] for i in rng.integers(len(GL2[p]), size=n_gens)]

    def compose(a, b):
        return tuple(sum(a[2 * i + k] * b[2 * k + j] for k in range(2)) % p
                     for i in range(2) for j in range(2))
    got = _built_or_error(lambda: groups.group_from_matrices_mod(
        [np.reshape(m, (2, 2)) for m in gens], p), caps)
    want = _expected(gens, compose, (1, 0, 0, 1), caps)
    if isinstance(want, str):
        assert got == want
        return
    elems, table = want
    labels = [f"({a} {b}|{c} {d})" for a, b, c, d in elems]
    assert _table_labels_perms(got)[:2] == (table, labels)
    _check_subgroup_helpers(got, rng)



@pytest.mark.parametrize("subset", [[], [1, 3, 4], [0, 1, 3, 4]])
def test_quotient_refuses_normal_subsets_that_are_not_subgroups(subset):
    """In S3 (elements 1, 3, 4 are the transpositions), the empty set, the
    class of transpositions and that class with e are unions of classes but
    not subgroups."""
    S3 = groups.group_from_permutations([(1, 0, 2), (1, 2, 0)])
    assert [g for g in range(6) if S3.element_order(g) == 2] == [1, 3, 4]
    with pytest.raises(ValidationError, match="normality"):
        groups.quotient_group(S3, subset)
