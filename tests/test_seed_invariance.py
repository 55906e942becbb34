"""Seed invariance: a command prints the same report at every seed, apart
from its header and the lines that say they are sampled.

The seed drives the character-table retries, the irrep bases, the split
draws, the audit's sample above ``AUDIT_TRIPLES``, the ``crossed`` draws
and the separation sample.  The catalog, the fusion counts, the laws, the
invariant groups and every verdict are facts about the input.  So each pair
command runs in process on every ``sample_inputs/*.pair`` file and on every
corpus pair, and ``shadow`` runs its ``chebyshev`` target, its
``separation`` target on every ``sample_inputs/*.group`` file and its
``transform`` target on every ``sample_inputs/*.measure`` file, at each of
``SEEDS``; the text reports, less the header line and the lines that
``SEED_DEPENDENT`` names, must be equal (an error must be the same error).
"""

import re
from pathlib import Path

import pytest

from kacforge.cli import _PAIR_COMMANDS, _build_parser, run_pipeline
from kacforge.config import DEFAULT_CONFIG
from kacforge.errors import KacforgeError
from kacforge.io_formats import InputBundle, parse_inputs
from kacforge.library import corpus_pairs

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
SEEDS = (0xC0FFEE, 7, 12345)

# (command, pattern) of the report lines that depend on the seed: the two
# lines of `crossed` read off seeded draws, the audit's two lines over a
# seeded sample of its triples (pairs over AUDIT_TRIPLES), and the round-off
# of the transform's uniform check in the seeded irrep bases
SEED_DEPENDENT = (
    ("crossed", r" transform-decomposition \(\d+ draws\) residual="),
    ("crossed", r" polynomial-bound sample residual="),
    ("audit", r" closed-form-fusion -- .* \(sampled, seed 0x[0-9a-f]+\)"),
    ("audit", r" solver-vs-haar -- .* \(sampled, seed 0x[0-9a-f]+\)"),
    ("shadow", r" uniform-check \S+ residual="),
)

_CORPUS = {mp.name: mp for mp in corpus_pairs()}
_FILES = {f"file-{path.stem}": path
          for path in sorted(SAMPLES.glob("*.pair"))}
# shadow target and input file of each shadow case
_SHADOW = {"chebyshev": ("chebyshev", [])}
_SHADOW.update({f"{target}-{path.stem}": (target, [str(path)])
                for target, kind in (("separation", "group"),
                                     ("transform", "measure"))
                for path in sorted(SAMPLES.glob(f"*.{kind}"))})


def _inputs(cmd, name, config):
    """The input bundle and the parsed command line of a case."""
    if cmd == "shadow":
        target, paths = _SHADOW[name]
        return (parse_inputs(paths, config=config),
                _build_parser().parse_args(["shadow", target]))
    if name in _FILES:
        return parse_inputs([str(_FILES[name])], config=config), None
    return InputBundle(pairs={name: _CORPUS[name]}, config=config), None


def report_lines(cmd, name, seed):
    """The text report of ``cmd`` on the named case at ``seed``, without
    its header line, or the error it raises."""
    config = DEFAULT_CONFIG.with_(seed=seed)
    try:
        inputs, args = _inputs(cmd, name, config)
        report = run_pipeline(cmd, inputs, config=config, args=args)
    except KacforgeError as exc:
        return [f"error: {type(exc).__name__}: {exc}"]
    return report.render_text().splitlines()[1:]


def seed_independent(cmd, lines):
    drop = [re.compile(p) for c, p in SEED_DEPENDENT if c == cmd]
    return [ln for ln in lines if not any(p.search(ln) for p in drop)]


# (case name, command) of every case: each pair command on each pair, and
# each shadow case
CASES = [(name, cmd) for name in list(_FILES) + list(_CORPUS)
         for cmd in _PAIR_COMMANDS] + [(name, "shadow") for name in _SHADOW]


@pytest.mark.parametrize("name, cmd", CASES)
def test_report_is_seed_invariant(name, cmd):
    first = seed_independent(cmd, report_lines(cmd, name, SEEDS[0]))
    for seed in SEEDS[1:]:
        assert seed_independent(cmd, report_lines(cmd, name, seed)) == \
            first, f"seed {seed:#x}"


@pytest.mark.parametrize("cmd, name", [("crossed", "file-conj_s3"),
                                       ("audit", "double-s3-twist"),
                                       ("shadow", "transform-skew")])
def test_every_seed_dependent_line_is_in_a_report(cmd, name):
    """Each pattern drops exactly one line of a report that has it, so the
    list cannot go stale unseen."""
    lines = report_lines(cmd, name, SEEDS[0])
    for c, pattern in SEED_DEPENDENT:
        if c == cmd:
            assert sum(bool(re.search(pattern, ln)) for ln in lines) == 1, \
                pattern
