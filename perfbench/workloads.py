"""The benchmark workloads: their inputs, one pass, and the checks.

Each workload builds a list of ``Instance`` objects from a seed (that is
its set-up, which the benchmark times as ``setup_s``).  An instance's
``run`` makes the timed calls into ``kacforge``; ``canonical`` reduces the
result to a JSON-able summary whose digest is compared with the stored
reference at the reference seed; ``problems`` lists violations of the
invariants that hold at every seed.

Every call into the program goes through a module attribute
(``hopf.build_algebra``, not a name imported from ``hopf``), so that the
traced run, which rebinds those attributes, sees it.

Why each workload (also recorded in ``BENCHMARK.json``):

* ``certify-audit``: two parts, timed together.
  - ``certify:*``, the scale ladder (dims 120, 144, 216, 720) certified
    without an audit.  Stresses ``check_axioms`` and the square
    self-intertwiner solves of ``enumerate_irreps``; set-up is dominated by
    the S6 closure.  ``conj-s4-s4`` (dim 576) is left out: its
    ``check_axioms`` alone takes about 38 s, which does not fit a run.
  - ``audit:*``, the calls of ``scripts/corpus_report.py --audit`` over the
    eight corpus pairs.  Most of its time is the intertwiner solver on
    rectangular candidate-versus-tensor systems (the sampled fusion audit of
    ``double-s3-twist``); ``check_axioms`` is a few percent.
  Each part alone is a pass of 25-35 s, and a run that times one such pass
  swings with the host's speed, which drifts by 10-30% over minutes.  One
  pass of both, about 50 s, averages over more of that drift.
* ``exact-shadow``: CLI pipelines (``crossed``, ``shadow ...``) through
  ``cli.run_pipeline``.  Pure-Python fusion-ring loops and ``Fraction``
  grids, no LAPACK-heavy solve: the bypass workload for solver and
  ``check_axioms`` changes.  Only graded (trivial discrete-side action)
  pairs are used because ``crossed`` is defined only for those; the graded
  ``sign-on-z7`` (42 labels) is left out because ``crossed`` takes about
  210 s on it.
"""

import hashlib
import json
from argparse import Namespace
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from kacforge import cli, config, hopf, io_formats, library, matched, reps

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_INPUTS = ROOT / "sample_inputs"

# Float residuals below this are round-off; they are written as "<tol" so a
# different BLAS build or thread count does not change a reference digest.
ROUNDOFF = 1e-9


@dataclass
class Instance:
    name: str
    run: Callable[[], object]
    canonical: Callable[[object], object]
    problems: Callable[[object], list]


def digest(summary):
    """sha256 of the canonical JSON serialisation of an instance summary."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _num(x):
    """Canonical text of a float result: round-off collapses to '<tol',
    everything else keeps 7 significant digits."""
    x = float(x)
    if abs(x) < ROUNDOFF:
        return f"<{ROUNDOFF:g}"
    return f"{x:.6e}"


# ---------------------------------------------------------------------------
# corpus-audit


def _audit_pair(mp, seed):
    A = hopf.build_algebra(mp)
    ax = hopf.check_axioms(A)
    cat = reps.enumerate_irreps(A, seed=seed)
    inv = reps.invariant_groups(A, cat, seed=seed)
    audit = reps.audit_fusion(A, cat, seed=seed)
    return A, ax, cat, inv, audit


def _audit_canonical(res):
    A, ax, cat, inv, audit = res
    return {
        "dim": A.dim,
        "axioms": [[c.name, _num(c.deviation)] for c in ax.checks],
        "dims": cat.dims(),
        "audit": [[e.gamma_orbit, e.x_label, e.r_orbit, e.s_orbit, e.solver,
                   e.haar, _num(e.formula), e.status] for e in audit.entries],
        "distinctness": [[d.left, d.right, d.mor_dim, d.status]
                         for d in audit.distinctness],
        "flips": [[f.candidate, list(f.partner) if f.partner else None]
                  for f in audit.flips],
        "invariants": [inv.intrinsic.order, inv.spectrum.order],
    }


def _audit_problems(res):
    A, ax, cat, inv, audit = res
    out = []
    if not ax.passed:
        out.append(f"axioms fail: worst {ax.worst().name}")
    if sum(d * d for d in cat.dims()) != A.dim:
        out.append("sum of squared dims != algebra dim")
    if not audit.oracle_consistent:
        out.append("solver and Haar routes disagree")
    return out


def corpus_audit(seed):
    return [Instance(name=mp.name,
                     run=lambda mp=mp: _audit_pair(mp, seed),
                     canonical=_audit_canonical, problems=_audit_problems)
            for mp in library.corpus_pairs()]


# ---------------------------------------------------------------------------
# ladder-certify


def _stabilizer_times_cycle(n, name):
    """S_n = (stabilizer of the last point) * <n-cycle>."""
    S = library.symmetric_group(n)
    stab = [i for i, p in enumerate(S.permutations) if p[n - 1] == n - 1]
    cycle = S.permutations.index(tuple(list(range(1, n)) + [0]))
    return matched.derive_actions(S, stab, S.closure([cycle]), name=name)


def _conj_s4_s3():
    S4 = library.symmetric_group(4)
    stab = [i for i, p in enumerate(S4.permutations) if p[3] == 3]
    return library.pair_conjugation(S4, stab, name="conj-s4-s3")


def _certify_pair(mp, seed):
    A = hopf.build_algebra(mp)
    ax = hopf.check_axioms(A)
    emb = hopf.group_subalgebra_check(A)
    cat = reps.enumerate_irreps(A, seed=seed)
    rank = cat.coefficient_span_rank()
    inv = reps.invariant_groups(A, cat, seed=seed)
    return A, ax, emb, cat, rank, inv


def _certify_canonical(res):
    A, ax, emb, cat, rank, inv = res
    return {
        "dim": A.dim,
        "axioms": [[c.name, _num(c.deviation)] for c in ax.checks],
        "embeddings": [[c.name, _num(c.deviation)] for c in emb.checks],
        "dims": cat.dims(),
        "span_rank": rank,
        "invariants": [inv.intrinsic.order, inv.spectrum.order],
    }


def _certify_problems(res):
    A, ax, emb, cat, rank, inv = res
    out = []
    if not ax.passed:
        out.append(f"axioms fail: worst {ax.worst().name}")
    if not emb.passed:
        out.append(f"embeddings fail: worst {emb.worst().name}")
    if sum(d * d for d in cat.dims()) != A.dim:
        out.append("sum of squared dims != algebra dim")
    if rank != A.dim:
        out.append(f"coefficient span rank {rank} != {A.dim}")
    return out


def ladder_certify(seed):
    pairs = [
        _stabilizer_times_cycle(5, "s5-cyclic5"),
        _conj_s4_s3(),
        library.pair_double_s3_twist(),
        _stabilizer_times_cycle(6, "s6-cyclic6"),
    ]
    return [Instance(name=mp.name,
                     run=lambda mp=mp: _certify_pair(mp, seed),
                     canonical=_certify_canonical, problems=_certify_problems)
            for mp in pairs]


# ---------------------------------------------------------------------------
# exact-shadow


def _pipeline(cmd, bundle, cfg, args):
    report = cli.run_pipeline(cmd, bundle, config=cfg, args=args)
    return report, report.render("structured")


def _report_canonical(res):
    _, rendered = res
    doc = json.loads(rendered)
    for section in doc["sections"]:
        for entry in section["entries"]:
            if "residual" in entry:
                entry["residual"] = _num(entry["residual"])
    return doc


def _report_problems(res):
    report, _ = res
    return [f"FAIL {e.name}" for e in report.entries() if e.status == "FAIL"]


def exact_shadow(seed):
    cfg = config.DEFAULT_CONFIG.with_(seed=seed, output="structured")
    S3 = library.symmetric_group(3)
    S4 = library.symmetric_group(4)
    four_cycle = S4.permutations.index((1, 2, 3, 0))
    pairs = [library.pair_conjugation(S3, range(S3.order), name="conj-s3-s3"),
             library.pair_conjugation(S4, S4.closure([four_cycle]),
                                      name="conj-s4-z4")]
    jobs = [(f"crossed-{mp.name}", "crossed",
             io_formats.InputBundle(pairs={mp.name: mp}, config=cfg),
             Namespace(draws=5)) for mp in pairs]
    for target, files in (("separation", ["s4.group", "sl2f3.group"]),
                          ("transform", ["uniform_s3.measure",
                                         "skew.measure"])):
        for fname in files:
            bundle = io_formats.parse_inputs([str(SAMPLE_INPUTS / fname)],
                                             config=cfg)
            jobs.append((f"{target}-{Path(fname).stem}", "shadow", bundle,
                         Namespace(target=target)))
    jobs.append(("chebyshev", "shadow", io_formats.InputBundle(config=cfg),
                 Namespace(target="chebyshev", N=3, t="5/2", cutoff=40)))
    return [Instance(name=name,
                     run=lambda c=cmd, b=bundle, a=args: _pipeline(c, b, cfg, a),
                     canonical=_report_canonical, problems=_report_problems)
            for name, cmd, bundle, args in jobs]


def _prefixed(prefix, instances):
    for inst in instances:
        inst.name = f"{prefix}:{inst.name}"
    return instances


def certify_audit(seed):
    return (_prefixed("certify", ladder_certify(seed))
            + _prefixed("audit", corpus_audit(seed)))


WORKLOADS = {
    "certify-audit": certify_audit,
    "exact-shadow": exact_shadow,
}


def setup(workload, seed):
    """Build every input of a workload; returns its instances in order."""
    return WORKLOADS[workload](seed)

