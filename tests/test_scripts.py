"""Smoke tests of the command-line scripts under ``scripts/``: each one's
``main(argv)`` runs on a small input, exits 0 and prints its rows."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """The module of ``scripts/<name>.py``."""
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, argv, capsys):
    code = load_script(name).main(argv)
    return code, capsys.readouterr().out.splitlines()


# the script and argv of each in-process smoke test below
IN_PROCESS = {
    "corpus-audit": ("corpus_report", ["--name", "s3-split", "--audit"]),
    "decay-level-five": ("decay_profile", ["--cutoff", "5"]),
    "decay-over-cap": ("decay_profile", ["--t", "5/2", "--cutoff", "6000"]),
    "decay-digits": ("decay_profile", ["--N", "100000000000000000000",
                                       "--t", "1", "--cutoff", "255"]),
    "rd-two": ("rd_scan", ["--samples", "2"]),
}


def test_corpus_report_audit_row_per_matching_instance(capsys):
    code, lines = run_script(*IN_PROCESS["corpus-audit"], capsys)
    assert code == 0
    assert lines[0].split()[-1] == "audit"
    rows = lines[2:-1]
    assert [row.split()[0] for row in rows] == ["s3-split", "s3-split-dual"]
    for row in rows:
        assert "triples, " in row and row.endswith(" disagree")
    assert lines[-1].startswith("done in ")


def test_decay_profile_level_five(capsys):
    code, lines = run_script(*IN_PROCESS["decay-level-five"], capsys)
    assert code == 0
    row = next(line.split() for line in lines if line.strip().startswith("k=5"))
    assert row[1] == "1/24"


def test_decay_profile_rejects_a_cutoff_over_the_ring_cap(capsys):
    code, lines = run_script(*IN_PROCESS["decay-over-cap"], capsys)
    assert code == 0
    assert lines == ["t = 5/2: rejected (cutoff 6000 gives 6001 labels, "
                     "over the ring cap 256)"]


def test_decay_profile_rejects_values_past_the_digit_limit(capsys):
    code, lines = run_script(*IN_PROCESS["decay-digits"], capsys)
    assert code == 0
    assert len(lines) == 1
    assert lines[0].startswith("t = 1: rejected (cutoff 255 at N=")
    assert "digit limit" in lines[0]


def test_rd_scan_two_instances_pass_the_bound(capsys):
    code, lines = run_script(*IN_PROCESS["rd-two"], capsys)
    assert code == 0
    heads = [line for line in lines if line and not line.startswith(" ")]
    assert len(heads) == 2
    passes = [line for line in lines if "PASS polynomial bound" in line]
    assert len(passes) == 2
    assert all("over 2 samples" in line for line in passes)


def test_block_memory_runs_a_job_under_the_address_limit(capsys):
    code, lines = run_script("block_memory", ["c7-s4-audit", "s4-c7-audit"],
                             capsys)
    assert code == 0
    rows = [json.loads(line) for line in lines]
    assert [row["job"] for row in rows] == ["c7-s4-audit", "s4-c7-audit"]
    for row, triples, findings in zip(rows, (40, 1512), (7, 63)):
        assert row["status"] == "ok"
        assert row["sum_of_squares"] == row["dim"] == 168
        assert row["triples"] == triples
        assert row["triple_disagreements"] == 0
        assert row["distinctness_findings"] == findings
        assert row["solver_equals_haar"]


@pytest.mark.slow
def test_block_memory_enumerates_the_dim_720_pair(capsys):
    code, lines = run_script("block_memory", ["swapped-s6"], capsys)
    assert code == 0
    row = json.loads(lines[-1])
    assert row["job"] == "swapped-s6" and row["status"] == "ok"
    assert row["sum_of_squares"] == row["dim"] == 720
    assert len(row["irrep_dims"]) == 12


@pytest.mark.slow
def test_block_memory_certifies_the_a6_c7_pair(capsys):
    code, lines = run_script("block_memory", ["a6-c7-axioms"], capsys)
    assert code == 0
    row = json.loads(lines[-1])
    assert row["job"] == "a6-c7-axioms" and row["status"] == "ok"
    assert row["dim"] == 2520 and row["verdict"] == "PASS"
    assert row["check_axioms_s"] > 0 and row["peak_rss_mb"] > 0


@pytest.mark.slow
def test_block_memory_certifies_the_c7_a6_pair(capsys):
    code, lines = run_script("block_memory", ["c7-a6-axioms"], capsys)
    assert code == 0
    row = json.loads(lines[-1])
    assert row["job"] == "c7-a6-axioms" and row["status"] == "ok"
    assert row["dim"] == 2520 and row["verdict"] == "PASS"
    assert row["check_axioms_s"] > 0 and row["peak_rss_mb"] > 0


def test_line_coverage_lists_the_statements_a_selection_skips():
    """In a child process, as the script runs pytest in its own: one test
    builds valid measures, so the weight-type refusal stays unexecuted and
    the Fraction pass-through does not."""
    root = SCRIPTS.parent
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "line_coverage.py"), "--", "-q",
         "-p", "no:cacheprovider", "tests/test_measures.py", "-k",
         "test_measure_validation"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["pytest_status"] == 0
    source = (root / "src" / "kacforge" / "measures.py").read_text()
    lines = source.splitlines()
    refusal = 1 + lines.index(
        '    raise ValidationError("measure-weight", '
        'f"cannot read weight {x!r}")')
    passthrough = 1 + lines.index("        return x")
    missed = out["unexecuted"]["measures.py"]
    assert refusal in missed and passthrough not in missed
