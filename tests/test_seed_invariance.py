"""Seed invariance: a pair command prints the same report at every seed,
apart from its header and the lines that say they are sampled.

The seed drives the character-table retries, the irrep bases, the split
draws, the audit's sample above ``AUDIT_TRIPLES`` and the ``crossed``
draws.  The catalog, the fusion counts, the laws, the invariant groups and
every verdict are facts about the pair.  So each pair command runs in
process on every ``sample_inputs/*.pair`` file and on every corpus pair at
each of ``SEEDS``, and its text reports, less the header line and the lines
that ``SEED_DEPENDENT`` names, must be equal (an error must be the same
error).
"""

import re
from pathlib import Path

import pytest

from kacforge.cli import _PAIR_COMMANDS, run_pipeline
from kacforge.config import DEFAULT_CONFIG
from kacforge.errors import KacforgeError
from kacforge.io_formats import InputBundle, parse_inputs
from kacforge.library import corpus_pairs

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
SEEDS = (0xC0FFEE, 7, 12345)

# (command, pattern) of the report lines that depend on the seed: the two
# lines of `crossed` read off seeded draws, and the audit's two lines over
# a seeded sample of its triples (pairs over AUDIT_TRIPLES)
SEED_DEPENDENT = (
    ("crossed", r" transform-decomposition \(\d+ draws\) residual="),
    ("crossed", r" polynomial-bound sample residual="),
    ("audit", r" closed-form-fusion -- .* \(sampled, seed 0x[0-9a-f]+\)"),
    ("audit", r" solver-vs-haar -- .* \(sampled, seed 0x[0-9a-f]+\)"),
)

# FOUND: `reps._split_once` lists the pieces of a split in the eigenvalue
# order of a seeded draw, and the catalog names each irrep after its first
# piece; on dihedral7-twist the two pieces of one split swap their #p0/#p1
# names at some seeds (12345 among them), so 208 of the 579 fusion lines
# read differently
SPLIT_ORDER_FOUND = {("dihedral7-twist", "fusion")}

_CORPUS = {mp.name: mp for mp in corpus_pairs()}
_FILES = {f"file-{path.stem}": path
          for path in sorted(SAMPLES.glob("*.pair"))}


def _bundle(name, config):
    if name in _FILES:
        return parse_inputs([str(_FILES[name])], config=config)
    return InputBundle(pairs={name: _CORPUS[name]}, config=config)


def report_lines(cmd, name, seed):
    """The text report of ``cmd`` on the named pair at ``seed``, without
    its header line, or the error it raises."""
    config = DEFAULT_CONFIG.with_(seed=seed)
    try:
        report = run_pipeline(cmd, _bundle(name, config), config=config)
    except KacforgeError as exc:
        return [f"error: {type(exc).__name__}: {exc}"]
    return report.render_text().splitlines()[1:]


def seed_independent(cmd, lines):
    drop = [re.compile(p) for c, p in SEED_DEPENDENT if c == cmd]
    return [ln for ln in lines if not any(p.search(ln) for p in drop)]


def _cases():
    for name in list(_FILES) + list(_CORPUS):
        for cmd in _PAIR_COMMANDS:
            marks = ([pytest.mark.xfail(strict=True,
                                        reason="split order follows the "
                                               "seed (FOUND)")]
                     if (name, cmd) in SPLIT_ORDER_FOUND else [])
            yield pytest.param(name, cmd, marks=marks, id=f"{name}-{cmd}")


@pytest.mark.parametrize("name, cmd", list(_cases()))
def test_report_is_seed_invariant(name, cmd):
    first = seed_independent(cmd, report_lines(cmd, name, SEEDS[0]))
    for seed in SEEDS[1:]:
        assert seed_independent(cmd, report_lines(cmd, name, seed)) == \
            first, f"seed {seed:#x}"


@pytest.mark.parametrize("cmd, name", [("crossed", "file-conj_s3"),
                                       ("audit", "double-s3-twist")])
def test_every_seed_dependent_line_is_in_a_report(cmd, name):
    """Each pattern drops exactly one line of a report that has it, so the
    list cannot go stale unseen."""
    lines = report_lines(cmd, name, SEEDS[0])
    for c, pattern in SEED_DEPENDENT:
        if c == cmd:
            assert sum(bool(re.search(pattern, ln)) for ln in lines) == 1, \
                pattern
