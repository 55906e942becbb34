"""Golden digests of the data derived from a pair's action tables.

For every corpus pair the sha256 of each of the following must match the
digest stored in ``tests/data/pair_digests.json``:

* the ``magic_relations_report`` triples of every orbit, for the pair and
  for two corrupted copies of it (the honest pair copied with its ``beta``
  rebound, as no constructed pair may break the laws; orbits taken from the
  honest pair): one swaps two entries of a ``beta`` row, the other collapses
  one entry of that row onto another;
* the members of every B-set (r, s);
* the closed-form fusion value of every (x, gamma, r, s), rounded to 9
  decimals;
* the ``invariant_groups`` Cayley tables and labels, both model tables and
  both isomorphism flags with their witnesses;
* ``dual_group`` of each side: invariants, Cayley table and characters;
* ``action_from_pair(mp).perms`` for pairs with trivial discrete-side action.

Any change to how these are derived must leave all of them unchanged.

Regenerate the file (only when a change of output is intended) with
``PYTHONPATH=src python -m tests.test_pair_golden``.
"""

import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from kacforge import reps
from kacforge.crossed import action_from_pair
from kacforge.groups import AbelianGroup, character_table, dual_group
from kacforge.hopf import build_algebra
from kacforge.library import corpus_pairs
from kacforge.matched import (b_sets, magic_relations_report,
                              orbits_fixed_sets)

from .oracles import abelian_invariants_by_orders

DIGESTS = Path(__file__).resolve().parent / "data" / "pair_digests.json"


def corrupted(mp, kind):
    """``mp`` with the ``beta`` row of the last non-identity compact element
    changed at two points r1 < r2: the last two points of the first largest
    orbit, or the last two discrete indices when every orbit is a point.
    ``swap`` exchanges the two entries, ``collapse`` copies the entry at r1
    onto r2."""
    beta = np.array(mp.beta)
    g = max(gg for gg in range(mp.compact.order) if gg != mp.compact.identity)
    orb = max(orbits_fixed_sets(mp)[0].orbits, key=len)
    if len(orb) < 2:
        orb = range(mp.discrete.order)
    r1, r2 = orb[-2:]
    if kind == "swap":
        beta[g, r1], beta[g, r2] = beta[g, r2], beta[g, r1]
    else:
        beta[g, r2] = beta[g, r1]
    bad = copy.copy(mp)
    bad.beta, bad.name = beta, f"{mp.name}-{kind}"
    return bad


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _r9(values):
    """Complex values as (real, imag) pairs rounded to 9 decimals, with
    -0.0 written as 0.0."""
    z = np.asarray(values, dtype=complex).ravel()
    return [(round(float(v.real), 9) + 0.0, round(float(v.imag), 9) + 0.0)
            for v in z]


def _bset_members(mp):
    """Sorted members of every B-set (r, s), r-major, from the boolean
    (r, s, g) mask of ``b_sets``."""
    table = b_sets(mp)
    return [np.flatnonzero(m).tolist()
            for m in table.reshape(-1, table.shape[-1])]


def _closed_form(mp, space):
    """Closed-form fusion values indexed [x, gamma, r, s]."""
    table = character_table(mp.compact)
    chars = table.chars[:, table.classes.class_of]
    return reps.fusion_formula_table(mp, space, chars)


def digests_of(mp):
    space, _, _ = orbits_fixed_sets(mp)
    out = {}
    for variant in ("honest", "swap", "collapse"):
        pair = mp if variant == "honest" else corrupted(mp, variant)
        out[f"magic-{variant}"] = _sha([
            magic_relations_report(pair, orb)
            for orb in space.orbits])
    out["b-sets"] = _sha(_bset_members(mp))
    out["closed-form"] = _sha(_r9(_closed_form(mp, space)))
    A = build_algebra(mp)
    inv = reps.invariant_groups(A, reps.enumerate_irreps(A))
    out["invariant-groups"] = _sha([
        inv.intrinsic.cayley.tolist(), inv.intrinsic.labels,
        inv.spectrum.cayley.tolist(), inv.spectrum.labels,
        inv.intrinsic_model.cayley.tolist(), inv.spectrum_model.cayley.tolist(),
        inv.intrinsic_iso, inv.spectrum_iso])
    for side in ("discrete", "compact"):
        d = dual_group(getattr(mp, side))
        ab = AbelianGroup(*abelian_invariants_by_orders(d.group))
        out[f"dual-{side}"] = _sha([str(ab), d.group.cayley.tolist(),
                                    _r9(d.characters)])
    if mp.beta_trivial:
        out["action-perms"] = _sha(action_from_pair(mp)[0].perms.tolist())
    return out


_PAIRS = {mp.name: mp for mp in corpus_pairs()}


@pytest.mark.parametrize("name", list(_PAIRS))
def test_pair_data_match_golden(name):
    stored = json.loads(DIGESTS.read_text())
    assert digests_of(_PAIRS[name]) == stored[name]


def test_golden_file_covers_every_pair():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(_PAIRS)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {name: digests_of(mp) for name, mp in _PAIRS.items()},
        indent=1, sort_keys=True) + "\n")
