"""Golden digests of the finite-group layer.

For each group below (symmetric groups S1..S6, dihedral groups D3..D8, the
quaternion group, SL(2, p) for p = 3, 5, 7 and every ``sample_inputs/*.group``
file) the sha256 of each of the following must match the digest stored in
``tests/data/group_digests.json``:

* the Cayley table, the labels and, for permutation groups, the
  permutations in element order;
* the element orders and their least common multiple, the exponent;
* ``closure([x])`` for every element x;
* the commutator subgroup, and the quotient by it (table, labels and
  projection);
* ``dual_group``: invariants, table and characters;
* the centralizer of each conjugacy class representative, read off the
  Cayley table;
* the ``is_isomorphic_small`` witnesses of G against itself and against a
  seeded relabelling of G (or the ``SizeBound`` message above the cap).

Two more entries cover the maps between groups and the errors:
``derive_actions`` alpha and beta of every corpus pair and of every ordered
pair of subgroups of S4, ``pair_conjugation`` alpha of every subgroup of S4,
``subgroup`` on every initial segment of S4 and SL(2, 3), ``quotient_group``
by every subgroup of S4 and D4, and the ``SizeBound`` messages of the table
and closure caps.  A call that raises is digested as its error class and
message, so every ``closed-subset``, ``normality`` and ``NotMatched``
message is covered too.

Regenerate the file (only when a change of output is intended) with
``PYTHONPATH=src python -m tests.test_group_golden``.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from kacforge import groups
from kacforge.errors import KacforgeError
from kacforge.groups import (AbelianGroup, conjugacy_and_center,
                             dual_group, group_from_cayley,
                             group_from_matrices_mod, group_from_permutations,
                             is_isomorphic_small, quotient_group)
from kacforge.io_formats import load_group
from kacforge.library import (corpus_pairs, pair_conjugation,
                              special_linear_group, symmetric_group)
from kacforge.matched import derive_actions

from .helpers import dihedral_group, quaternion_group
from .oracles import abelian_invariants_by_orders

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "group_digests.json"


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _r9(values):
    z = np.asarray(values, dtype=complex).ravel()
    return [(round(float(v.real), 9) + 0.0, round(float(v.imag), 9) + 0.0)
            for v in z]


def _outcome(fn, *args, **kw):
    """The call's value, or its error class and message when it raises."""
    try:
        return fn(*args, **kw)
    except KacforgeError as exc:
        return (type(exc).__name__, str(exc))


def _ints(seq):
    return [int(v) for v in seq]


def _relabelled(G, seed=7):
    """G with its elements renumbered by a seeded permutation."""
    p = np.random.default_rng(seed).permutation(G.order)
    back = np.argsort(p)
    return group_from_cayley(p[G.cayley[np.ix_(back, back)]])


def _iso(A, B):
    ok = _outcome(is_isomorphic_small, A, B)
    if isinstance(ok, tuple) and ok and isinstance(ok[0], bool):
        return (ok[0], None if ok[1] is None else _ints(ok[1]))
    return ok


def _quotient(G, N):
    out = _outcome(quotient_group, G, N)
    if isinstance(out[0], str):
        return out
    Q, proj = out
    return (Q.cayley.tolist(), Q.labels, _ints(proj))


def digests_of(G):
    out = {"table": _sha([G.cayley.tolist(), G.labels,
                          [tuple(int(v) for v in p)
                           for p in getattr(G, "permutations", [])]]),
           "orders": _sha([_ints(G.element_orders()),
                            int(np.lcm.reduce(G.element_orders()))]),
           "cyclic-closures": _sha([_ints(G.closure([x]))
                                    for x in range(G.order)])}
    comm = G.commutator_subgroup_elements()
    out["commutator"] = _sha([_ints(comm), _quotient(G, comm)])
    d = dual_group(G)
    ab = AbelianGroup(*abelian_invariants_by_orders(d.group))
    out["dual"] = _sha([str(ab), d.group.cayley.tolist(), _r9(d.characters)])
    data = conjugacy_and_center(G)
    C = G.cayley
    out["centralizers"] = _sha([_ints(np.flatnonzero(C[:, r] == C[r]))
                                for r, *_ in data.classes])
    out["iso"] = _sha([_iso(G, G), _iso(G, _relabelled(G))])
    return out


def _subgroups(G):
    """Every subgroup generated by at most two elements, sorted."""
    return sorted({tuple(G.closure([x, y])) for x in range(G.order)
                   for y in range(x, G.order)})


def _pair_digests():
    out = {}
    for mp in corpus_pairs():
        out[f"pair-{mp.name}"] = _sha([mp.alpha.tolist(), mp.beta.tolist()])
    S4 = symmetric_group(4)
    subs = _subgroups(S4)

    def actions(R, K):
        got = _outcome(derive_actions, S4, R, K)
        return got if isinstance(got, tuple) else (got.alpha.tolist(),
                                                   got.beta.tolist())
    out["derive-s4"] = _sha([actions(R, K) for R in subs for K in subs])
    out["conjugation"] = _sha([pair_conjugation(S4, K).alpha.tolist()
                               for K in subs])
    return out


def _error_digests():
    out = {}
    S4, SL23 = symmetric_group(4), special_linear_group(2, 3)

    def sub(G, k):
        got = _outcome(G.subgroup, range(k))
        return got if isinstance(got[0], str) else (got[0].cayley.tolist(),
                                                    got[1])
    out["subgroup-segments"] = _sha([sub(G, k) for G in (S4, SL23)
                                     for k in range(1, G.order + 1)])
    D4 = dihedral_group(4)
    out["quotients"] = _sha([_quotient(G, N) for G in (S4, D4)
                             for N in _subgroups(G)])
    gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
    mats = [[[1, 1], [0, 1]], [[0, 2], [1, 0]]]
    caps = []
    for cap in (5, 23, 24):
        with mock.patch.object(groups, "TABLE_CAP", cap):
            caps.append(_outcome(group_from_permutations, gens))
            caps.append(_outcome(group_from_matrices_mod, mats, 3))
        with mock.patch.object(groups, "CLOSURE_CAP", cap):
            with mock.patch.object(groups, "TABLE_CAP", cap):
                caps.append(_outcome(group_from_permutations, gens))
            caps.append(_outcome(group_from_matrices_mod, mats, 3))
    out["caps"] = _sha([c if isinstance(c, tuple) else c.order for c in caps])
    return out


def _groups():
    out = {f"s{n}": lambda n=n: symmetric_group(n) for n in range(1, 7)}
    out.update({f"d{n}": lambda n=n: dihedral_group(n) for n in range(3, 9)})
    out["q8"] = quaternion_group
    out.update({f"sl2-{p}": lambda p=p: special_linear_group(2, p)
                for p in (3, 5, 7)})
    for path in sorted((ROOT / "sample_inputs").glob("*.group")):
        out[f"file-{path.stem}"] = lambda path=path: load_group(str(path))
    return out


_GROUPS = _groups()


@pytest.mark.parametrize("name", list(_GROUPS))
def test_group_data_match_golden(name):
    stored = json.loads(DIGESTS.read_text())
    assert digests_of(_GROUPS[name]()) == stored[name]


def test_maps_between_groups_match_golden():
    stored = json.loads(DIGESTS.read_text())
    assert _pair_digests() == stored["pairs"]


def test_error_messages_match_golden():
    stored = json.loads(DIGESTS.read_text())
    assert _error_digests() == stored["errors"]


def test_golden_file_covers_every_group():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(
        list(_GROUPS) + ["errors", "pairs"])


if __name__ == "__main__":
    stored = {name: digests_of(make()) for name, make in _GROUPS.items()}
    stored["pairs"] = _pair_digests()
    stored["errors"] = _error_digests()
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
