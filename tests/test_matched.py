"""Matched-pair layer: factorizations, orbits, indicator matrices, twists."""

import copy
import hashlib
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kacforge import groups
from kacforge.errors import NotCrossedHom, NotMatched, ValidationError
from kacforge.groups import dual_group, is_isomorphic_small
from kacforge.library import (corpus_pairs, cyclic_group,
                              pair_conj_s3_rotations, pair_conjugation,
                              pair_dihedral7_twist, pair_double_s3_twist,
                              pair_s3_split,
                              pair_s3_split_dual, pair_s4, pair_sign_on_z7,
                              pair_z6_abelian, stabilizer_and_cycle,
                              symmetric_group)
from kacforge.matched import (MatchedPair, b_sets, deform_by_chi_G,
                              derive_actions, magic_relations_report,
                              orbit_space, orbits_fixed_sets)

from .helpers import dihedral_group, trivial_pair
from .oracles import abelian_invariants_by_orders, burnside_orbit_counts

CORPUS = corpus_pairs()
BY_NAME = {mp.name: mp for mp in CORPUS}


def test_corpus_composition():
    assert set(BY_NAME) == {
        "z6-abelian", "s3-split", "s3-split-dual", "conj-s3-rot",
        "s4-cyclic4", "sign-on-z7", "dihedral7-twist", "double-s3-twist"}
    dims = {mp.name: mp.discrete.order * mp.compact.order for mp in CORPUS}
    assert dims == {"z6-abelian": 6, "s3-split": 6, "s3-split-dual": 6,
                    "conj-s3-rot": 18, "s4-cyclic4": 24, "sign-on-z7": 42,
                    "dihedral7-twist": 84, "double-s3-twist": 216}
    assert all(d <= 256 for d in dims.values())


def test_triviality_pattern():
    assert BY_NAME["s3-split"].beta_trivial
    assert not BY_NAME["s3-split"].alpha_trivial
    assert BY_NAME["s3-split-dual"].alpha_trivial
    assert not BY_NAME["s3-split-dual"].beta_trivial
    mp = BY_NAME["z6-abelian"]
    assert mp.alpha_trivial and mp.beta_trivial
    mp = BY_NAME["s4-cyclic4"]
    assert not mp.alpha_trivial and not mp.beta_trivial


# ---------------------------------------------------------------------------
# exact factorization


def test_derive_actions_counting_mismatch():
    S4 = symmetric_group(4)
    three = next(g for g in range(24) if S4.element_order(g) == 3)
    with pytest.raises(NotMatched, match=r"\|H\|"):
        derive_actions(S4, S4.closure([three]), S4.closure([three]))


def test_derive_actions_intersection():
    Z4 = cyclic_group(4)
    half = Z4.closure([2])
    with pytest.raises(NotMatched, match="intersect"):
        derive_actions(Z4, half, half)


# ---------------------------------------------------------------------------
# validation


def test_validation_catches_broken_action_table():
    mp = pair_s4()
    bad = np.array(mp.beta)
    g = next(g for g in range(mp.compact.order)
             if not np.array_equal(bad[g], np.arange(mp.discrete.order)))
    r1, r2 = [r for r in range(mp.discrete.order)
              if r != mp.discrete.identity][:2]
    bad[g, r1], bad[g, r2] = bad[g, r2], bad[g, r1]   # still a bijection
    with pytest.raises(ValidationError):
        MatchedPair(mp.discrete, mp.compact, mp.alpha, bad)


def test_validation_catches_unit_moving():
    mp = pair_s3_split()
    bad = np.array(mp.alpha)
    bad[1] = np.roll(bad[1], 1)
    with pytest.raises(ValidationError):
        MatchedPair(mp.discrete, mp.compact, bad, mp.beta)


def _relabelled(table, identity, rng):
    """``table`` with one transposition of two non-identity points applied
    to its columns and its values: still an action, fixing the unit."""
    n = table.shape[1]
    if n < 3:
        return table
    a, b = rng.choice(np.setdiff1d(np.arange(n), [identity]), 2,
                      replace=False)
    sigma = np.arange(n)
    sigma[[a, b]] = [b, a]
    return sigma[table[:, sigma]]


@pytest.mark.parametrize("block", [groups._BLOCK, 1])
def test_validation_messages_on_a_seeded_sweep(block):
    """Per corpus pair, 40 swaps of two rows of alpha or beta and 4 relabelled
    tables: each one's ValidationError text (or "ok") is pinned, so the law
    checked first and its witness, the first violation in row-major
    order, hold, also when every row block is one row."""
    rng = np.random.default_rng(0x5EED)
    messages = []
    for mp in CORPUS:
        R, K = mp.discrete, mp.compact
        trials = []
        for n in range(40):
            tables = [np.array(mp.alpha), np.array(mp.beta)]
            t = tables[n % 2]
            if len(t) > 1:
                i, j = rng.choice(len(t), 2, replace=False)
                t[[i, j]] = t[[j, i]]
            trials.append(tables)
        for n in range(4):
            tables = [mp.alpha, mp.beta]
            tables[n % 2] = _relabelled(tables[n % 2], (K, R)[n % 2].identity,
                                        rng)
            trials.append(tables)
        for alpha, beta in trials:
            try:
                with mock.patch.object(groups, "_BLOCK", block):
                    MatchedPair(R, K, alpha, beta)
                messages.append("ok")
            except ValidationError as err:
                messages.append(str(err))
    kinds = Counter(m.split("]")[0].lstrip("[") for m in messages)
    assert kinds == {"ok": 177, "alpha-identity": 41, "alpha-action": 49,
                     "beta-identity": 38, "beta-action": 30,
                     "product-compat-compact": 15,
                     "product-compat-discrete": 2}
    assert hashlib.sha256("\n".join(messages).encode()).hexdigest() == \
        "2094086a1ee06db6e32cc51b49d5e58db3adc98a666dee790848369e6fc43836"


# ---------------------------------------------------------------------------
# orbits and fixed subgroups


def test_orbits_s3_split_dual():
    mp = BY_NAME["s3-split-dual"]
    space, (fix_r, fix_r_elems), (fix_k, fix_k_elems) = orbits_fixed_sets(mp)
    assert sorted(len(o) for o in space.orbits) == [1, 2]
    assert fix_r_elems == [mp.discrete.identity]
    assert fix_k.order == mp.compact.order       # trivial compact-side action
    assert burnside_orbit_counts(mp, space) == [Fraction(1), Fraction(1)]


def test_orbits_dihedral7_twist():
    mp = BY_NAME["dihedral7-twist"]
    space, (fix_r, _), (fix_k, fix_k_elems) = orbits_fixed_sets(mp)
    # the twisted action conjugates by the reflection coordinate only
    assert sorted(len(o) for o in space.orbits) == [1, 1, 2, 2]
    assert fix_r.order == 2                      # centralizer of the reflection
    assert fix_k.order == 2                      # the reflection coordinate
    assert all(c == 1 for c in burnside_orbit_counts(mp, space))


def test_orbits_double_s3_twist():
    mp = BY_NAME["double-s3-twist"]
    space, (fix_r, _), (fix_k, _) = orbits_fixed_sets(mp)
    assert len(space.orbits) == 18               # 6 cores x 3 classes
    assert sorted(len(o) for o in space.orbits) == [1] * 6 + [2] * 6 + [3] * 6
    assert fix_k.order == 1
    assert all(c == 1 for c in burnside_orbit_counts(mp, space))


def _larger_pairs():
    S4 = symmetric_group(4)
    stab = [i for i, p in enumerate(S4.permutations) if p[3] == 3]
    return [derive_actions(*stabilizer_and_cycle(5), name="s5-cyclic5"),
            pair_conjugation(S4, stab, name="conj-s4-s3")]


@pytest.mark.parametrize("mp", CORPUS + _larger_pairs(),
                         ids=lambda mp: mp.name)
def test_orbit_space_is_the_orbit_part_of_orbits_fixed_sets(mp):
    space, whole = orbit_space(mp), orbits_fixed_sets(mp)[0]
    assert space.orbits == whole.orbits
    assert space.orbit_of.dtype == whole.orbit_of.dtype == np.int32
    assert np.array_equal(space.orbit_of, whole.orbit_of)


@settings(deadline=None, max_examples=len(CORPUS))
@given(st.sampled_from(CORPUS))
def test_burnside_counts_are_one(mp):
    space = orbit_space(mp)
    assert all(c == 1 for c in burnside_orbit_counts(mp, space))


# ---------------------------------------------------------------------------
# indicator matrices


@settings(deadline=None, max_examples=len(CORPUS))
@given(st.sampled_from(CORPUS))
def test_magic_relations_every_orbit(mp):
    space = orbit_space(mp)
    for orb in space.orbits:
        report = magic_relations_report(mp, orb)
        assert all(ok for _, ok, _ in report), (mp.name, orb, report)


def test_magic_relations_catch_corruption():
    mp = pair_s4()
    bad = np.array(mp.beta)
    g = next(g for g in range(mp.compact.order)
             if not np.array_equal(bad[g], np.arange(mp.discrete.order)))
    r1 = int(bad[g].argmax())
    r2 = next(r for r in range(mp.discrete.order)
              if r != r1 and r != mp.discrete.identity)
    bad[g, r1], bad[g, r2] = bad[g, r2], bad[g, r1]   # rows stay bijections
    broken = copy.copy(mp)
    broken.beta = bad
    # orbit data from the honest pair, sets from the corrupted one
    space = orbit_space(mp)
    orb = space.orbits[space.orbit_of[r1]]
    report = magic_relations_report(broken, orb)
    assert not all(ok for _, ok, _ in report)


def test_b_sets_match_stabilizer_intersections_when_alpha_trivial():
    mp = BY_NAME["s3-split-dual"]
    mask = b_sets(mp)
    nr = mp.discrete.order
    stab = [set(np.flatnonzero(mp.beta[:, r] == r).tolist())
            for r in range(nr)]
    for r in range(nr):
        for s in range(nr):
            expected = stab[r] & stab[s]
            assert set(np.flatnonzero(mask[r, s]).tolist()) == expected


def test_b_sets_full_when_beta_trivial():
    mp = BY_NAME["s3-split"]
    mask = b_sets(mp)
    assert mask.shape == (mp.discrete.order,) * 2 + (mp.compact.order,)
    assert mask.all()


# ---------------------------------------------------------------------------
# twists


def test_trivial_twist_changes_nothing():
    base = pair_sign_on_z7()
    chi = np.full(base.compact.order, base.discrete.identity, dtype=np.int32)
    mp = deform_by_chi_G(base, chi)
    assert np.array_equal(mp.compact.cayley, base.compact.cayley)
    assert mp.beta_trivial


def test_bad_chi_rejected():
    base = pair_sign_on_z7()
    n = base.compact.order
    chi = np.full(n, base.discrete.identity, dtype=np.int32)
    odd = next(r for r in range(base.discrete.order)
               if base.discrete.element_order(r) == 2)
    chi[1] = odd
    with pytest.raises(NotCrossedHom, match="twisted"):
        deform_by_chi_G(base, chi)
    chi2 = np.full(n, odd, dtype=np.int32)
    with pytest.raises(NotCrossedHom, match="unit"):
        deform_by_chi_G(base, chi2)


def test_dihedral7_twist_compact_group():
    mp = pair_dihedral7_twist()
    assert mp.compact.order == 14
    ok, _ = is_isomorphic_small(mp.compact, dihedral_group(7))
    assert ok
    assert not mp.beta_trivial                   # the twist switches it on


def test_double_s3_twist_discrete_group():
    mp = pair_double_s3_twist()
    assert mp.discrete.order == 36
    assert mp.compact.order == 6
    # character group of the twisted discrete side: Klein four
    d = dual_group(mp.discrete)
    assert abelian_invariants_by_orders(d.group) == ((2, 2), 0)


def test_trivial_pair_shapes():
    tp = trivial_pair(symmetric_group(3))
    assert tp.discrete.order == 1
    assert tp.alpha_trivial and tp.beta_trivial
