#!/usr/bin/env python3
"""kacforge benchmark: set-up time, pass time, memory and failures per workload.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: certify-audit, exact-shadow (see workloads.py for what each
stresses and why).  Every sample runs in a fresh interpreter (worker.py), one
process at a time, so no object cache survives from one timed pass to the
next.  A run times a fixed number of whole passes (``PASSES``), 35-55 s of
work on 2 vCPU, and never decides the amount of work from elapsed time;
``--seconds`` is accepted for the common benchmark interface and does not
change the work measured.

``--trace 0`` reports the end-to-end metrics:
    setup_s      median over the run's processes of ``import kacforge``
                 plus building or parsing every input of the workload
    wall_s       mean over the run's passes of the time of one full pass
                 over the instances, after set-up: the host's speed drifts
                 in swings of seconds to minutes rather than in outliers, so
                 the mean over the whole run averages out more of it than
                 the median of its few passes does
    peak_rss_mb  median peak resident memory of the pass processes
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (see tracing.py), with
``trace.overhead_s`` = traced wall_s - untraced wall_s, which carries the
host's pass-to-pass noise of several seconds and can even be negative, and
``trace.overhead_est_s`` = trace.spans times the cost of one span, measured
in the traced process.

An instance fails when it raises, exceeds its time limit
(``worker.INSTANCE_TIMEOUT_S``), reports FAIL or
breaks an invariant (axioms, sum of squared dims, solver == Haar), or, at
the reference seed 0xC0FFEE, when the digest of its canonical result differs
from ``reference_digests.json``.  ``fail_ratio`` = failed / attempted.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment stamp, every sample and instance) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
``--update-reference`` rewrites the stored digests from the passes of a run
at the reference seed, which must agree, for a change that is meant to alter
results.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference_digests.json"

WORKLOADS = ("certify-audit", "exact-shadow")
REFERENCE_SEED = 0xC0FFEE
# Timed passes per run: one pass of certify-audit takes 45-55 s on 2 vCPU,
# one of exact-shadow 16-26 s.  The host's speed swings by up to 20% from
# one such pass to the next, so the short workload gets two.
PASSES = {"certify-audit": 1, "exact-shadow": 2}
# Set-up samples per run: every pass process gives one, and set-up-only
# processes make up the rest.
SETUP_SAMPLES = 3
# The whole run must end within 180 s; passes get what set-up leaves of this.
RUN_BUDGET_S = 165.0
# BLAS threads of every process: one per vCPU, at most two.
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0",
                 **{var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})


class ChildFailed(RuntimeError):
    pass


def environment(seed, blas_threads):
    """Versions, BLAS and its threads, cores, seed and source revision."""
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kacforge").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads,
        "blas_thread_env": {v: CHILD_ENV[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def child(args, mode, trace, budget):
    """Run worker.py once; returns its JSON result.  A pass process that
    overruns its budget is killed and counts as one failed, timed-out
    operation."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--trace", str(trace),
           "--budget", f"{budget:.1f}"]
    if trace:
        cmd += ["--spans-out",
                str(OUT / f"{args.workload}-seed{args.seed}-spans.json")]
    t0 = time.monotonic()
    try:
        # On any exception, SystemExit from SIGTERM too, subprocess.run
        # kills the worker and waits for it before re-raising.
        proc = subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(budget, 1.0) + 10.0)
    except subprocess.TimeoutExpired:
        if mode == "setup":
            raise ChildFailed(f"set-up did not finish within {budget:.0f} s")
        return {"killed": True, "wall_s": time.monotonic() - t0,
                "instances": []}
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_digests(passes, workload, reference):
    """Mark every instance whose digest differs from ``reference`` (a dict
    workload -> instance -> sha256) as failed."""
    for res in passes:
        for rec in res["instances"]:
            if rec["failed"]:
                continue
            want = reference.get(workload, {}).get(rec["name"])
            if want is None:
                rec["failed"] = True
                rec["reason"] = "no reference digest"
            elif rec["digest"] != want:
                rec["failed"] = True
                rec["reason"] = "digest differs from reference"


def measure(args, deadline):
    """Sample set-up in set-up-only processes, then run the workload's passes,
    each in a fresh process; returns (metrics, passes, setup_samples)."""
    n = PASSES[args.workload]
    setups = [child(args, "setup", 0, deadline - time.monotonic() - 5.0)
              ["setup_s"] for _ in range(max(0, SETUP_SAMPLES - n))]
    passes = []
    for i in range(n):
        # Leave later passes their share of what remains.
        share = (deadline - time.monotonic() - 5.0) / (n - i)
        passes.append(child(args, "pass", 0, share))
    setups += [p["setup_s"] for p in passes if "setup_s" in p]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.fmean(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.get("peak_rss_mb", 0.0)
                                          for p in passes), "MB"),
    }
    return metrics, passes, setups


def trace_layers(args, deadline):
    """One untraced and one traced pass; per-layer metrics of the traced."""
    half = (deadline - time.monotonic() - 5.0) / 2
    plain = child(args, "pass", 0, half)
    traced = child(args, "pass", 1, deadline - time.monotonic() - 5.0)
    layers = traced.get("layers", {})
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    if "span_cost_s" in traced:
        metrics["trace.overhead_est_s"] = (
            traced["span_cost_s"] * layers["trace.spans"], "s")
    return metrics, [plain, traced], []


def _unit(name):
    return "s" if name.endswith("_s") else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="store this run's digests as the reference")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "kacforge" / "__init__.py").is_file():
        sys.stderr.write(f"error: no kacforge sources under {ROOT / 'src'}\n")
        return 2
    if args.update_reference and args.seed != REFERENCE_SEED:
        ap.error("--update-reference needs the reference seed")
    OUT.mkdir(exist_ok=True)
    print(f"perfbench {args.workload} seed={args.seed:#x} trace={args.trace}")

    try:
        if args.trace:
            metrics, passes, setups = trace_layers(args, deadline)
        else:
            metrics, passes, setups = measure(args, deadline)
    except ChildFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    if args.update_reference:
        ok = all(not r["failed"] for p in passes for r in p["instances"])
        if not ok or any(p.get("killed") for p in passes):
            sys.stderr.write("error: instances failed; reference unchanged\n")
            return 2
        digests = [[r["digest"] for r in p["instances"]] for p in passes]
        if any(d != digests[0] for d in digests):
            sys.stderr.write("error: passes disagree; reference unchanged\n")
            return 2
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ref[args.workload] = {r["name"]: r["digest"]
                              for r in passes[0]["instances"]}
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    elif args.seed == REFERENCE_SEED:
        check_digests(passes, args.workload,
                      json.loads(REFERENCE.read_text()))

    env = environment(args.seed, passes[0].get("blas_threads"))
    print("env " + json.dumps(env, sort_keys=True))
    attempted = failed = 0
    for p in passes:
        if p.get("killed"):
            attempted += 1
            failed += 1
            print(f"pass killed after {p['wall_s']:.1f} s")
        for rec in p["instances"]:
            attempted += 1
            failed += rec["failed"]
            status = "FAIL" if rec["failed"] else "ok"
            detail = rec.get("reason") or "; ".join(rec.get("problems", []))
            print(f"instance {rec['name']:<22} {status:<4} "
                  f"{rec.get('seconds', 0.0):9.3f} s  {detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    print(f"{'fail_ratio':<40} {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted})")

    record = {"args": {k: str(v) for k, v in vars(args).items()},
              "env": env, "setup_samples": setups, "passes": passes,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "attempted": attempted, "failed": failed}
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through child(), which stops the worker


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
