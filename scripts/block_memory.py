#!/usr/bin/env python3
"""Scale jobs of the intertwiner solver and the axiom check, each in a
child process whose address space is capped at ``LIMIT_KB``
(``ulimit -v 4000000``).

Jobs:
    swapped-s6    enumerate_irreps on S6 = <6-cycle> * (stabilizer of a
                  point), dim 720: the s6-cyclic6 pair with its sides swapped
    s4-c7-audit   enumerate_irreps and the exhaustive fusion audit on
                  GL(3,2) = S4 * C7, dim 168
    c7-s4-audit   the same two steps on GL(3,2) = C7 * S4
    a6-c7-axioms  check_axioms on A7 = A6 * <(0 1 ... 6)>, dim 2,520
    c7-a6-axioms  the same on A7 with its sides swapped, <(0 1 ... 6)> * A6
    conj-s4-s4-fusion
                  the ``kacforge fusion`` pipeline on S4 acting on itself by
                  conjugation, dim 576 (46-50 s on 2 vCPUs)

Usage:
    python3 scripts/block_memory.py [--src DIR] [JOB ...]

``--src`` is the ``src`` directory whose ``kacforge`` the children import
(default: this checkout's), so the same script times two revisions.  One
JSON line per job: its status (``ok``, ``out-of-memory`` or ``failed``),
wall seconds, the child's peak RSS in MB and what the job found; an audit
counts its triple disagreements and its distinctness findings apart, and
an axiom job gives its verdict and the seconds ``check_axioms`` took;
the fusion job gives its route-agreement verdict and the sha256 of its
text and structured reports.
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
JOBS = ("swapped-s6", "s4-c7-audit", "c7-s4-audit", "a6-c7-axioms",
        "c7-a6-axioms", "conj-s4-s4-fusion")
LIMIT_KB = 4_000_000


def gl32(groups):
    """GL(3,2) on the 7 nonzero vectors of F2^3 (vector v is point v - 1),
    generated by [[1,1,0],[0,1,0],[0,0,1]] and the cyclic shift of the
    coordinates; with the stabilizer of one vector (an S4) and a subgroup
    of order 7, which factor it exactly."""
    def bits(v):
        return [(v >> b) & 1 for b in range(3)]

    def perm(f):
        return [sum(y << b for b, y in enumerate(f(bits(v)))) - 1
                for v in range(1, 8)]

    G = groups.group_from_permutations([
        perm(lambda x: [(x[0] + x[1]) % 2, x[1], x[2]]),
        perm(lambda x: [x[2], x[0], x[1]])])
    stab = [i for i, p in enumerate(G.permutations) if p[0] == 0]
    seven = next(g for g in range(G.order) if G.element_order(g) == 7)
    return G, stab, G.closure([seven])


def a7(groups):
    """A7 generated by (0 1 2) and the 7-cycle (0 1 ... 6), with the
    stabilizer of the last point (an A6) and the group of the 7-cycle,
    which factor it exactly."""
    cycle = (1, 2, 3, 4, 5, 6, 0)
    G = groups.group_from_permutations([(1, 2, 0, 3, 4, 5, 6), cycle])
    stab = [i for i, p in enumerate(G.permutations) if p[6] == 6]
    return G, stab, G.closure([G.permutations.index(cycle)])


def run_job(job):
    """The job's result; runs inside the child."""
    from kacforge import cli, groups, hopf, io_formats, library, matched, reps
    if job == "conj-s4-s4-fusion":
        S4 = library.symmetric_group(4)
        bundle = io_formats.InputBundle()
        bundle.pairs[job] = library.pair_conjugation(S4, range(24), name=job)
        report = cli.run_pipeline("fusion", bundle)
        return {"verdict": report.entries()[0].status,
                **{f"{out}_sha256": hashlib.sha256(
                    report.render(out).encode()).hexdigest()
                   for out in ("text", "structured")}}
    if job.endswith("-axioms"):
        G, stab, cycle = a7(groups)
        sides = (stab, cycle) if job == "a6-c7-axioms" else (cycle, stab)
        A = hopf.build_algebra(matched.derive_actions(G, *sides, name=job))
        t0 = time.perf_counter()
        report = hopf.check_axioms(A)
        return {"dim": A.dim, "verdict": "PASS" if report.passed else "FAIL",
                "check_axioms_s": round(time.perf_counter() - t0, 3)}
    if job == "swapped-s6":
        S, stab, cycle = library.stabilizer_and_cycle(6)
        mp = matched.derive_actions(S, cycle, stab, name=job)
    else:
        G, stab, seven = gl32(groups)
        sides = (stab, seven) if job == "s4-c7-audit" else (seven, stab)
        mp = matched.derive_actions(G, *sides, name=job)
    A = hopf.build_algebra(mp)
    cat = reps.enumerate_irreps(A)
    out = {"dim": A.dim, "irrep_dims": cat.dims(),
           "sum_of_squares": sum(d * d for d in cat.dims())}
    if job != "swapped-s6":
        audit = reps.audit_fusion(A, cat)
        out.update(triples=len(audit.entries),
                   triple_disagreements=sum(e.status == "AUDIT-DISAGREE"
                                            for e in audit.entries),
                   distinctness_findings=len(audit.distinctness),
                   solver_equals_haar=audit.oracle_consistent)
    return out


def child(job, src):
    sys.path.insert(0, src)
    out = run_job(job)
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("jobs", nargs="*", metavar="JOB",
                    help=f"any of {', '.join(JOBS)} (default: all)")
    ap.add_argument("--src", default=str(SRC))
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    unknown = sorted(set(args.jobs) - set(JOBS))
    if unknown:
        ap.error(f"unknown job {unknown[0]!r}")
    if args.child:
        child(args.child, args.src)
        return 0
    def cap():
        limit = LIMIT_KB * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    for job in args.jobs or JOBS:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-B", __file__, "--child", job, "--src",
             str(Path(args.src).resolve())],
            capture_output=True, text=True, preexec_fn=cap)
        row = {"job": job, "src": str(Path(args.src).resolve()),
               "limit_kb": LIMIT_KB,
               "seconds": round(time.perf_counter() - t0, 3)}
        if proc.returncode == 0:
            row.update(status="ok", **json.loads(proc.stdout.splitlines()[-1]))
        else:
            oom = proc.returncode < 0 or "MemoryError" in proc.stderr
            row.update(status="out-of-memory" if oom else "failed",
                       exit=proc.returncode,
                       error=(proc.stderr.strip().splitlines() or [""])[-1])
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
