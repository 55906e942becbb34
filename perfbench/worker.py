"""One benchmark process: set up a workload and, in pass mode, run one pass.

``run.py`` starts this in a fresh interpreter for every sample, so each
timed pass starts from cold object caches (``FiniteGroup._class_cache``,
the audit's tensor cache).  Set-up is timed from before ``import kacforge``
to the last built input.  ``wall_s`` is the sum of the instances' times,
which covers the calls into the program and not the checks.  Prints one
JSON object on its last line of standard output.
"""

import argparse
import ctypes
import gc
import json
import resource
import signal
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# Time limit of one instance.  The slowest instance, certify:s6-cyclic6 of
# certify-audit, takes 20-30 s on 2 vCPU.
INSTANCE_TIMEOUT_S = 60.0


class InstanceTimeout(BaseException):
    """Raised by the alarm when an instance exceeds its time limit.  A
    BaseException, so that no ``except Exception`` in the program can
    swallow it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "blas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_instance(inst, limit, tracer, digest):
    """Run one instance under a time limit and check its result.

    Returns (record, seconds); seconds covers only the calls into the
    program, not the checks.
    """
    rec = {"name": inst.name, "failed": True}
    if limit <= 0:
        rec["reason"] = "timeout: run budget spent before it started"
        return rec, 0.0
    span = tracer.span(f"bench.instance:{inst.name}") if tracer else nullcontext()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with span:
            out = inst.run()
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    except InstanceTimeout:
        rec["reason"] = f"timeout after {limit:.1f} s"
        return rec, time.perf_counter() - t0
    except Exception as exc:  # an instance that raises is a failed operation
        signal.setitimer(signal.ITIMER_REAL, 0)
        rec["reason"] = f"raised {type(exc).__name__}: {exc}"
        return rec, time.perf_counter() - t0
    rec["seconds"] = seconds
    rec["problems"] = inst.problems(out)
    rec["digest"] = digest(inst.canonical(out))
    rec["failed"] = bool(rec["problems"])
    return rec, seconds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=lambda s: int(s, 0), required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, default=150.0,
                    help="seconds the pass may take")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + args.budget

    t0 = time.perf_counter()
    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    with tracer.span("bench.setup") if tracer else nullcontext():
        instances = workloads.setup(args.workload, args.seed)
    result = {"setup_s": time.perf_counter() - t0,
              "blas_threads": blas_threads()}
    if args.mode == "pass":
        records, wall = [], 0.0
        for inst in instances:
            limit = min(INSTANCE_TIMEOUT_S, deadline - time.monotonic())
            rec, seconds = run_instance(inst, limit, tracer, workloads.digest)
            records.append(rec)
            wall += seconds
            gc.collect()
        result["wall_s"] = wall
        result["instances"] = records
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["layers"] = tracer.metrics()
        result["span_cost_s"] = tracing.span_cost()
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
