"""Golden digests of the structure tables and of the law reports.

For every corpus pair, two larger ladder pairs and a deliberately corrupted
pair, the sha256 of ``structure_dump`` (in ``tests/helpers.py``), of the
``check_axioms`` report lines and of the ``group_subalgebra_check`` report
lines must match the digests stored in
``tests/data/structure_digests.json``.  Any change to how the
algebra is stored or checked must leave all three texts byte-identical,
including the deviation counts on the corrupted pair.

Regenerate the file (only when a change of output is intended) with
``PYTHONPATH=src python -m tests.test_structure_golden``.
"""

import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from kacforge.hopf import build_algebra, check_axioms, group_subalgebra_check
from kacforge.library import (corpus_pairs, pair_conjugation,
                              stabilizer_and_cycle, symmetric_group)
from kacforge.matched import derive_actions

from .helpers import structure_dump

DIGESTS = Path(__file__).resolve().parent / "data" / "structure_digests.json"


def _conj_s4_s3():
    S4 = symmetric_group(4)
    stab = [i for i, p in enumerate(S4.permutations) if p[3] == 3]
    return pair_conjugation(S4, stab, name="conj-s4-s3")


def _corrupted_s4_cyclic4(mp):
    """s4-cyclic4 with two entries of one nontrivial beta row swapped."""
    beta = np.array(mp.beta)
    nr = mp.discrete.order
    g = next(gg for gg in range(mp.compact.order)
             if not np.array_equal(beta[gg], np.arange(nr)))
    beta[g, 0], beta[g, 1] = beta[g, 1], beta[g, 0]
    broken = copy.copy(mp)
    broken.beta, broken.name = beta, "broken"
    return broken


def golden_pairs():
    pairs = {mp.name: mp for mp in corpus_pairs()}
    for mp in (derive_actions(*stabilizer_and_cycle(5), name="s5-cyclic5"),
               _conj_s4_s3(),
               _corrupted_s4_cyclic4(pairs["s4-cyclic4"])):
        pairs[mp.name] = mp
    return pairs


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _report_text(report):
    """One line per check: its verdict, name and exact deviation."""
    return "\n".join(
        f"{'PASS' if c.deviation <= report.tol else 'FAIL'} {c.name}: "
        f"deviation {c.deviation:.3e} [{c.deviation!r}]"
        for c in report.checks)


def digests_of(mp):
    A = build_algebra(mp)
    return {
        "structure_dump": _sha(structure_dump(A)),
        "check_axioms": _sha(_report_text(check_axioms(A))),
        "group_subalgebra_check": _sha(_report_text(group_subalgebra_check(A))),
    }


_PAIRS = golden_pairs()


@pytest.mark.parametrize("name", list(_PAIRS))
def test_structure_and_reports_match_golden(name):
    stored = json.loads(DIGESTS.read_text())
    assert digests_of(_PAIRS[name]) == stored[name]


def test_golden_file_covers_every_pair():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(_PAIRS)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {name: digests_of(mp) for name, mp in _PAIRS.items()},
        indent=1, sort_keys=True) + "\n")
