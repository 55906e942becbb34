"""Golden digests of the command-line reports on the sample inputs.

Every run goes through ``cli.main`` in both output formats; the sha256 of
what it writes to stdout, its exit code and the text it writes to stderr
must match ``tests/data/report_digests.json``.  Before a report is
rendered, every residual below ``ROUNDOFF`` in magnitude is set to 0, so
that BLAS round-off does not reach a digest.  Any refactor must leave all
of these reports byte-identical.

The runs: the eight pair commands on every ``sample_inputs/*.pair``,
``validate`` and ``fusion`` on the three ``.ring`` files, ``shadow
separation`` on ``s3.group``, ``shadow transform`` on the two measures and
``shadow chebyshev`` with the default and one explicit parameter set.

Regenerate the file (only when a change of output is intended) with
``PYTHONPATH=src python -m tests.test_report_golden``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from kacforge import cli
from kacforge.io_formats import Report

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_inputs"
DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests.json"

#: residuals below this magnitude are round-off and render as 0
ROUNDOFF = 1e-9

PAIR_COMMANDS = ("validate", "build", "irreps", "fusion", "invariants",
                 "deform", "crossed", "audit")


def golden_runs():
    """run id -> argv after the ``--output`` option."""
    runs = {}
    for pair in sorted(SAMPLES.glob("*.pair")):
        for cmd in PAIR_COMMANDS:
            runs[f"{cmd}-{pair.stem}"] = [cmd, str(pair)]
    for ring in sorted(SAMPLES.glob("*.ring")):
        for cmd in ("validate", "fusion"):
            runs[f"{cmd}-{ring.stem}"] = [cmd, str(ring)]
    runs["separation-s3"] = ["shadow", "separation", str(SAMPLES / "s3.group")]
    runs["transform-measures"] = ["shadow", "transform",
                                  str(SAMPLES / "uniform_s3.measure"),
                                  str(SAMPLES / "skew.measure")]
    runs["chebyshev-default"] = ["shadow", "chebyshev"]
    runs["chebyshev-n3"] = ["shadow", "chebyshev", "--N", "3", "--t", "5/2",
                            "--cutoff", "40"]
    return {f"{run}-{fmt}": ["--output", fmt] + argv
            for run, argv in runs.items() for fmt in ("text", "structured")}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest(argv):
    """{stdout sha256, exit code, stderr} of one ``cli.main`` run."""
    render = Report.render

    def render_rounded(report, output="text"):
        for entry in report.entries():
            if entry.residual is not None and abs(entry.residual) < ROUNDOFF:
                entry.residual = 0.0
        return render(report, output)

    out, err = io.StringIO(), io.StringIO()
    Report.render = render_rounded
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        Report.render = render
    return {"stdout": _sha(out.getvalue()), "exit": code,
            "stderr": err.getvalue()}


_RUNS = golden_runs()


@pytest.mark.parametrize("run", list(_RUNS))
def test_report_matches_golden(run, monkeypatch):
    monkeypatch.delenv("KACFORGE_SEED", raising=False)
    stored = json.loads(DIGESTS.read_text())
    assert run_digest(_RUNS[run]) == stored[run]


def test_golden_file_covers_every_run():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(_RUNS)
    assert len(_RUNS) == 116


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {run: run_digest(argv) for run, argv in _RUNS.items()},
        indent=1, sort_keys=True) + "\n")
