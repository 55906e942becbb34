"""Self-tests of the benchmark harness itself.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
The three that run the benchmark take one or two exact-shadow runs of
about a minute each on 2 vCPU; the others take seconds.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Instance, digest  # noqa: E402


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_corrupted_digest_raises_fail_ratio(tmp_path, monkeypatch, capsys):
    argv = ["--workload", "exact-shadow", "--seed", "0xC0FFEE",
            "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 0
    base = last_json(capsys.readouterr().out)
    passes = run.PASSES["exact-shadow"]
    assert base["attempted"] == 7 * passes
    assert base["failed"] == 0 and base["correct"]

    ref = json.loads(run.REFERENCE.read_text())
    ref["exact-shadow"]["chebyshev"] = "0" * 64
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(ref))
    monkeypatch.setattr(run, "REFERENCE", corrupted)
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    res = last_json(out)
    assert res["attempted"] == 7 * passes and res["failed"] == passes
    assert not res["correct"]
    assert set(res["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert "digest differs from reference" in out


def test_instance_over_its_limit_is_a_failed_operation():
    def check(name, fn):
        return Instance(name=name, run=fn, canonical=lambda out: out,
                        problems=lambda out: [])

    slow, took = worker.run_instance(check("slow", lambda: time.sleep(5)),
                                     0.2, None, digest)
    assert slow["failed"] and slow["reason"] == "timeout after 0.2 s"
    assert 0.2 <= took < 5
    fast, _ = worker.run_instance(check("fast", lambda: 1), 0.2, None, digest)
    assert not fast["failed"] and fast["digest"] == digest(1)
    time.sleep(0.3)  # the alarm of the fast instance was cancelled


def test_traced_run_reports_every_per_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-shadow",
         "--seed", "0xC0FFEE", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc.stdout)
    assert res["failed"] == 0
    metrics = res["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    assert metrics["io_formats.render_s"]["value"] > 0
    assert metrics["crossed.check_fusion_ring.triples"]["value"] == \
        18 ** 3 + 20 ** 3
    assert 0 < metrics["trace.overhead_est_s"]["value"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-shadow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children_and_recursion_counts_once():
    t = Tracer()
    t.spans = [
        ["bench.instance:x", 0.0, 10.0, -1, False],
        ["reps.decompose", 1.0, 7.0, 0, False],
        ["reps.decompose", 2.0, 5.0, 1, False],
        ["reps.mor_dim_solver", 2.5, 4.5, 2, True],
    ]
    m = t.metrics()
    assert m["reps.decompose.calls"] == 2
    assert m["reps.mor_dim_solver.calls"] == 1
    assert m["reps.mor_dim_solver_s"] == 2.0
    assert m["self.bench_s"] == 4.0
    assert m["self.reps_s"] == (6.0 - 3.0) + (3.0 - 2.0) + 2.0
    assert m["trace.raised"] == 1
