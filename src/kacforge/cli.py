"""Command-line driver: deterministic pipelines over input files.

Subcommands: validate, build, irreps, fusion, invariants, deform, crossed,
audit, shadow.  Exit code 0 on PASS (audit findings included), 1 on a
parse/validation failure or other input fault (a bad argument included), 2
on a tolerance breach; every package error reaches the user as a single
``error:`` line.  The environment variable KACFORGE_SEED overrides the
configured seed.
"""

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from .config import DEFAULT_CONFIG
from .crossed import (check_fusion_ring, check_lemma_fourier, classical_dual,
                      crossed_instance, crude_poly_bound, graded_word_length,
                      random_dual_element, rd_inequality_sample)
from .errors import (DomainError, IdentityViolated, KacforgeError,
                     NonIntegral, PeterWeylMismatch, SeedDegenerate,
                     ValidationError)
from .groups import rng_from
from .hopf import build_algebra, check_axioms, group_subalgebra_check
from .io_formats import Report, parse_inputs
from .matched import magic_relations_report, orbit_space
from .measures import (c0_profile, chebyshev_state, measure_fourier,
                       rel_T_obstruction, uniform_is_unit_projection)
from .reps import (audit_fusion, enumerate_irreps, fusion_counts,
                   invariant_groups)

# each pair command and the input kinds it reads, one of which it must be
# given: a command with nothing to check refuses rather than print PASS
_PAIR_COMMANDS = {
    "validate": ("group", "pair", "ring", "measure"),
    "build": ("pair",),
    "irreps": ("pair",),
    "fusion": ("pair", "ring"),
    "invariants": ("pair",),
    "deform": ("pair",),
    "crossed": ("pair",),
    "audit": ("pair",),
}

# errors that report a numeric tolerance breach (exit 2); every other
# package error is an input fault (exit 1)
_NUMERIC_ERRORS = (SeedDegenerate, NonIntegral, PeterWeylMismatch,
                   IdentityViolated)


def _algebra_and_catalog(mp, seed):
    A = build_algebra(mp)
    catalog = enumerate_irreps(A, seed=seed)
    return A, catalog


def _cmd_validate(bundle, config, report, args):
    for name, G in sorted(bundle.groups.items()):
        report.add("inputs", f"group {name}", "PASS",
                   witness=f"order {G.order}")
    for name, mp in sorted(bundle.pairs.items()):
        report.add("inputs", f"pair {name}", "PASS",
                   witness=f"discrete {mp.discrete.order}, "
                           f"compact {mp.compact.order}")
        bad = []
        for orbit in orbit_space(mp).orbits:
            for rel, ok, witness in magic_relations_report(mp, orbit):
                if not ok:
                    bad.append(f"{rel}@orbit{orbit[0]}:{witness}")
        report.add("inputs", f"pair {name} partition-matrices",
                   "PASS" if not bad else "FAIL",
                   residual=float(len(bad)), witness="; ".join(bad))
    for name, ring in sorted(bundle.rings.items()):
        report.add("inputs", f"ring {name}", "PASS",
                   witness=f"{ring.n} labels"
                           f"{' (truncated)' if ring.truncated else ''}")
    for name, mu in sorted(bundle.measures.items()):
        report.add("inputs", f"measure {name}", "PASS",
                   witness=f"support size {len(mu.support())}")


def _cmd_build(bundle, config, report, args):
    for name, mp in sorted(bundle.pairs.items()):
        A = build_algebra(mp)
        ax = check_axioms(A)
        status = "PASS" if ax.passed else "FAIL"
        failing = [c.name for c in ax.checks if c.deviation > ax.tol]
        report.add("algebra", f"{name} axioms", status,
                   residual=ax.worst().deviation, witness=",".join(failing))
        emb = group_subalgebra_check(A)
        report.add("algebra", f"{name} classical-embeddings",
                   "PASS" if emb.passed else "FAIL",
                   residual=emb.worst().deviation)


def _cmd_irreps(bundle, config, report, args):
    for name, mp in sorted(bundle.pairs.items()):
        A, catalog = _algebra_and_catalog(mp, config.seed)
        dims = catalog.dims()
        total = sum(d * d for d in dims)
        status = "PASS" if total == A.dim else "FAIL"
        report.add("corepresentations", f"{name} catalog", status,
                   witness=f"dims {dims}, sum of squares {total} "
                           f"vs {A.dim}")
        rank = catalog.coefficient_span_rank()
        report.add("corepresentations", f"{name} coefficient-span",
                   "PASS" if rank == A.dim else "FAIL",
                   witness=f"rank {rank} of {A.dim}")


def _cmd_fusion(bundle, config, report, args):
    for name, mp in sorted(bundle.pairs.items()):
        _, catalog = _algebra_and_catalog(mp, config.seed)
        irreps, n = catalog.canonical, len(catalog.canonical)
        chars = np.array([z.character() for z in irreps])
        # one left factor u at a time, so no array has n^3 entries: its
        # triples (z, u, w), w-major and z-minor, a row per pair
        wi, zi = np.indices((n, n)).reshape(2, -1)
        worst, lines = 0, []
        for k, u in enumerate(irreps):
            haar, solver = fusion_counts(irreps, irreps,
                                         (zi, np.full(n * n, k), wi),
                                         (chars, chars))
            worst = max(worst, int(np.abs(haar - solver).max()))
            lines.extend(f"{name} {u.label}*{w.label} -> " + " ".join(
                f"{z.label}:{m}" for z, m in zip(irreps, row) if m)
                for w, row in zip(irreps, haar.reshape(n, n)))
        report.add("fusion", f"{name} route-agreement",
                   "PASS" if worst == 0 else "FAIL", residual=float(worst))
        for line in lines:
            report.add("fusion", line, "PASS")
    for name, ring in sorted(bundle.rings.items()):
        devs = check_fusion_ring(ring)
        bad = max(devs["associativity"], devs["frobenius"],
                  devs["dimension-homomorphism"])
        # a partial check of a truncated ring must not read as a full one
        skipped, total = int(devs["associativity-skipped"]), ring.n ** 3
        report.add("fusion", f"ring {name} laws",
                   "PASS" if bad == 0 else "FAIL", residual=bad,
                   witness=f"associativity on {total - skipped} of {total} "
                           f"triples; {skipped} leave the cutoff window"
                           if skipped else "")


def _cmd_invariants(bundle, config, report, args):
    for name, mp in sorted(bundle.pairs.items()):
        A, catalog = _algebra_and_catalog(mp, config.seed)
        inv = invariant_groups(A, catalog, seed=config.seed)
        ok_i, _ = inv.intrinsic_iso
        ok_s, _ = inv.spectrum_iso
        report.add("invariants", f"{name} intrinsic-group",
                   "PASS" if ok_i else "FAIL",
                   witness=f"order {inv.intrinsic.order}, semidirect model "
                           f"{'matches' if ok_i else 'differs'}")
        report.add("invariants", f"{name} spectrum-group",
                   "PASS" if ok_s else "FAIL",
                   witness=f"order {inv.spectrum.order}, semidirect model "
                           f"{'matches' if ok_s else 'differs'}")


def _cmd_deform(bundle, config, report, args):
    # pairs produced by deformation recipes are already materialized at
    # load; this command certifies them like `build` and records sizes
    _cmd_build(bundle, config, report, args)
    for name, mp in sorted(bundle.pairs.items()):
        report.add("deform", f"{name} tables", "PASS",
                   witness=f"alpha rows {mp.alpha.shape[0]}, "
                           f"beta rows {mp.beta.shape[0]}")


def _cmd_crossed(bundle, config, report, args):
    # a sampled check over no draws would report PASS having checked nothing
    if args.draws < 1:
        raise DomainError(f"--draws must be at least 1, got {args.draws}")
    for name, mp in sorted(bundle.pairs.items()):
        inst = crossed_instance(mp, seed=config.seed)
        devs = check_fusion_ring(inst.ring)
        bad = max(devs["associativity"], devs["frobenius"],
                  devs["dimension-homomorphism"])
        report.add("crossed", f"{name} ring-laws",
                   "PASS" if bad == 0 else "FAIL", residual=bad)
        worst = 0.0
        for t in range(args.draws):
            a = random_dual_element(inst.ring, range(inst.ring.n),
                                    rng_from(config.seed, 41, t))
            rep = check_lemma_fourier(inst, a)
            worst = max(worst, rep.decomposition_deviation,
                        rep.norm_deviation, rep.parseval_deviation)
        report.add("crossed", f"{name} transform-decomposition "
                   f"({args.draws} draws)", "PASS", residual=worst)
        rd = rd_inequality_sample(inst, graded_word_length(inst),
                                  crude_poly_bound(inst),
                                  samples=args.draws, seed=config.seed)
        report.add("crossed", f"{name} polynomial-bound sample",
                   "PASS" if rd.passed else "FAIL",
                   residual=rd.max_ratio)


def _cmd_audit(bundle, config, report, args):
    for name, mp in sorted(bundle.pairs.items()):
        A, catalog = _algebra_and_catalog(mp, config.seed)
        audit = audit_fusion(A, catalog, seed=config.seed)
        formula_bad = [e for e in audit.entries if e.status != "AUDIT-AGREE"]
        checked = len(audit.entries)
        report.add("audit", f"{name} closed-form-fusion",
                   "AUDIT-AGREE" if not formula_bad else "AUDIT-DISAGREE",
                   witness=f"{audit.coverage(f'{checked} triples checked')}, "
                           f"{len(formula_bad)} off")
        status = "PASS" if audit.oracle_consistent else "FAIL"
        report.add("audit", f"{name} solver-vs-haar", status,
                   witness=audit.coverage(f"{checked} triples"))
        for entry in audit.distinctness:
            report.add("audit", f"{name} candidate-distinctness "
                       f"{entry.left} vs {entry.right}", "AUDIT-DISAGREE",
                       witness=f"shared morphism space of dimension "
                               f"{entry.mor_dim}")
        if not audit.distinctness:
            report.add("audit", f"{name} candidate-distinctness",
                       "AUDIT-AGREE", witness="0 pairs")
        for flip in audit.flips:
            report.add("audit", f"{name} twisted-factor {flip.candidate}",
                       "AUDIT-AGREE" if flip.partner else "AUDIT-DISAGREE",
                       witness=f"partner {flip.partner}")


def _cmd_shadow(bundle, config, report, args):
    if args.target == "chebyshev":
        try:
            t = Fraction(args.t)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"--t {args.t!r} is not a rational number") \
                from None
        state = chebyshev_state(args.N, t, args.cutoff)
        table = ", ".join(str(v) for v in state.values)
        report.add("shadow", f"chebyshev N={args.N} t={args.t} "
                   f"cutoff={args.cutoff}", "PASS", witness=table)
        profile = state.c0_profile(Fraction(1, 100))
        report.add("shadow", "decay-profile (threshold 1/100)", "PASS",
                   witness=f"labels {profile}")
    elif args.target == "separation":
        for name, G in sorted(bundle.groups.items()):
            rep = rel_T_obstruction(G, seed=config.seed)
            report.add("shadow", f"separation {name}",
                       "PASS" if rep.passed else "FAIL",
                       witness="; ".join(rep.lines()))
        if not bundle.groups:
            raise ValidationError("shadow-inputs", "no group files given")
    elif args.target == "transform":
        for name, mu in sorted(bundle.measures.items()):
            dual = classical_dual(mu.group, seed=config.seed)
            prof = c0_profile(measure_fourier(mu, dual))
            report.add("shadow", f"transform {name}", "PASS",
                       witness="; ".join(f"{dual.ring.labels[x]}:{v:.6f}"
                                         for x, v in prof.items()))
            report.add("shadow", f"uniform-check {name}", "PASS",
                       residual=uniform_is_unit_projection(dual))
        if not bundle.measures:
            raise ValidationError("shadow-inputs", "no measure files given")
    else:
        raise ValidationError("shadow-target",
                              f"unknown shadow target {args.target!r}")


_DISPATCH = {
    "validate": _cmd_validate,
    "build": _cmd_build,
    "irreps": _cmd_irreps,
    "fusion": _cmd_fusion,
    "invariants": _cmd_invariants,
    "deform": _cmd_deform,
    "crossed": _cmd_crossed,
    "audit": _cmd_audit,
    "shadow": _cmd_shadow,
}


def run_pipeline(cmd, inputs, config=DEFAULT_CONFIG, args=None):
    """Execute one subcommand over an ``InputBundle`` and return its report;
    ``args`` defaults to the command line ``kacforge <cmd>``."""
    if args is None:
        args = _build_parser().parse_args([cmd])
    kinds = _PAIR_COMMANDS.get(cmd, ())
    if kinds and not any(getattr(inputs, f"{kind}s") for kind in kinds):
        *rest, last = kinds
        wanted = f"{', '.join(rest)} or {last}" if rest else last
        raise ValidationError(f"{cmd}-inputs", f"no {wanted} files given")
    report = Report(command=cmd, seed=config.seed)
    _DISPATCH[cmd](inputs, config, report, args)
    return report


class _Parser(argparse.ArgumentParser):
    """Argument errors raise, to be reported like any other input fault."""

    def error(self, message):
        raise DomainError(message)


def integer(text):
    """An integer written as a Python literal: decimal, 0x.., 0o.. or 0b..."""
    return int(text, 0)


def _build_parser():
    parser = _Parser(
        prog="kacforge",
        description="Exact finite quantum-group workbench")
    parser.add_argument("--seed", type=integer, default=None,
                        help="RNG seed (overridden by KACFORGE_SEED)")
    parser.add_argument("--output", choices=("text", "structured"),
                        default="text")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd in _PAIR_COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("inputs", nargs="*", help="input files")
        if cmd == "crossed":
            p.add_argument("--draws", type=int, default=5)
    shadow = sub.add_parser("shadow")
    shadow.add_argument("target", choices=("chebyshev", "separation",
                                           "transform"))
    shadow.add_argument("inputs", nargs="*", help="input files")
    shadow.add_argument("--N", type=int, default=3)
    shadow.add_argument("--t", default="2")
    shadow.add_argument("--cutoff", type=int, default=10)
    return parser


def _seed(args):
    """The run's seed: KACFORGE_SEED, else --seed, else the default; it must
    be a nonnegative integer, as the seeded generators need."""
    seed = DEFAULT_CONFIG.seed if args.seed is None else args.seed
    env_seed = os.environ.get("KACFORGE_SEED")
    if env_seed:
        try:
            seed = int(env_seed, 0)
        except ValueError:
            raise DomainError(f"KACFORGE_SEED={env_seed!r} is not an "
                              f"integer") from None
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    return seed


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        config = DEFAULT_CONFIG.with_(seed=_seed(args), output=args.output)
        bundle = parse_inputs(args.inputs, config=config)
        report = run_pipeline(args.cmd, bundle, config=config, args=args)
    except KacforgeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, _NUMERIC_ERRORS) else 1
    sys.stdout.write(report.render(config.output))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
