#!/usr/bin/env python3
"""Envelope-sum ratio growth for every built-in (field, weight) pair.

One envelope-verify run per pair over a shared scale grid; the growth
fit needs at least three scales, and the third one costs most of the
runtime (about a second per pair at R = 1024 on a 2-vCPU VM).
"""

import argparse
import sys

from wavenvelope.cli import PAIR_FAMILIES, main

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--R", default="64,256,1024")
    ap.add_argument("--seed", default="0")
    ap.add_argument("--out", default="runs/pairs")
    args = ap.parse_args()
    worst = 0
    for pair in PAIR_FAMILIES:
        out = f"{args.out}/{pair.replace(':', '-')}"
        code = main(["envelope-verify", "--family", pair, "--R", args.R,
                     "--seed", args.seed, "--out", out])
        worst = max(worst, code)
    sys.exit(worst)
