#!/usr/bin/env python3
"""Sweep the built-in instance corpus and print one summary row per instance.

Columns: algebra dimension, worst structure-law residual, irreducible block
sizes, number of fusion-audit disagreements, and the orders of the two
invariant groups (one-dimensional blocks / characters).

Usage:
    python3 scripts/corpus_report.py [--name SUBSTRING] [--seed N] [--audit]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kacforge.config import DEFAULT_SEED
from kacforge.hopf import build_algebra, check_axioms
from kacforge.library import corpus_pairs
from kacforge.reps import audit_fusion, enumerate_irreps, invariant_groups


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--name", default="", help="only instances whose name "
                    "contains this substring")
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    ap.add_argument("--audit", action="store_true",
                    help="also run the full fusion audit (slower)")
    args = ap.parse_args(argv)

    header = (f"{'instance':<18} {'dim':>4} {'residual':>9} "
              f"{'blocks':<22} {'Int':>4} {'Sp':>4}  audit")
    print(header)
    print("-" * len(header))
    t0 = time.monotonic()
    for mp in corpus_pairs():
        if args.name not in mp.name:
            continue
        A = build_algebra(mp)
        ax = check_axioms(A)
        cat = enumerate_irreps(A, seed=args.seed)
        inv = invariant_groups(A, cat, seed=args.seed)
        if args.audit:
            rep = audit_fusion(A, cat, seed=args.seed)
            audit = (f"{rep.coverage(f'{len(rep.entries)} triples')}, "
                     f"{len(rep.disagreements())} disagree")
        else:
            audit = "-"
        dims = str(cat.dims()) if len(cat.dims()) <= 8 else \
            f"{len(cat.dims())} blocks, max {max(cat.dims())}"
        print(f"{mp.name:<18} {A.dim:>4} {ax.worst().deviation:>9.1e} "
              f"{dims:<22} {inv.intrinsic.order:>4} {inv.spectrum.order:>4}"
              f"  {audit}")
    print(f"done in {time.monotonic() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
