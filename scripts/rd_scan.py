#!/usr/bin/env python3
"""Scan the operator-norm vs weighted-coefficient-norm ratio on crossed duals.

For each crossed instance this samples random finitely supported dual
elements, restricted to increasing length bands of a word-length on the label
set, and reports the largest observed ratio next to the guaranteed polynomial
bound.  Ratios far below the bound suggest room for sharper constants; a
ratio above it would disprove the bound derivation.

Usage:
    python3 scripts/rd_scan.py [--samples N] [--seed N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kacforge.config import DEFAULT_SEED
from kacforge.crossed import (conj_action_builder, crossed_instance,
                              crude_poly_bound, graded_word_length,
                              rd_inequality_sample)
from kacforge.library import corpus_pairs, symmetric_group


def instances():
    pairs = {mp.name: mp for mp in corpus_pairs()}
    S3 = symmetric_group(3)
    rotations = [g for g in range(6) if S3.element_order(g) in (1, 3)]
    return [
        ("twisted order-2 on order-3", crossed_instance(pairs["s3-split"])),
        ("conjugation by rotations", conj_action_builder(S3, rotations)),
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=40)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    args = ap.parse_args(argv)

    for name, inst in instances():
        bound = crude_poly_bound(inst)
        report = rd_inequality_sample(inst, graded_word_length(inst), bound,
                                      samples=args.samples, seed=args.seed)
        print(f"{name}: labels {inst.ring.n}, bound constant {bound[0]:.4f}")
        for line in report.lines():
            print(f"  {line}")
        slack = 1.0 / max(report.max_ratio, 1e-12)
        print(f"  bound/observed slack factor: {slack:.1f}x\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
