#!/usr/bin/env python3
"""sha256 of every report file of a fixed sweep, one `digest  path` line each.

The sweep writes json, csv and md reports with their sidecars into a
temporary directory, one subdirectory per run:
  * the eight experiments at their default config;
  * envelope-verify and square-verify on every registered pair at
    R = 16, 64, 256 and p = 2, 3, 4, envelope-verify on
    knapp:dual-tube at R = 64, 256, 1024 and p = 2, 3, 4, and on
    random:constant at R = 1024 and p = 3, 4, whose field's (mode, mode)
    pairs come in 84 blocks to the sum of squares and the p = 4 sum;
  * kappa-scan on each of its weight families at its default R;
  * kappa-scan at the benchmark's sizes, where the sparse tube sums take
    over: truncated-lattice at R = 4096, 16384, 65536 (alpha 1.5, c 0.25)
    and dual-tube at R = 1024 (alpha 1, inside the benchmark's seeded
    range), both at p = 2, 2.5, 3, 4, and dual-tube at R = 4096 (alpha 1,
    p = 2, 4), whose 16,384 row runs of 64 atoms are counted per (run,
    tube) piece;
  * certificates on each measure family at R = 16, 64, 256, bilinear at
    R = 16 and at R = 64 with K = 2 over 4 trials, and broad-narrow at
    R = 64 over 5 trials, so every sidecar kind is hashed.
Lines are sorted by path, so the output of two checkouts can be compared
with diff.  A run that is rejected (exit 2) or fails a check (exit 1) is
named on stderr, and the script then exits 1.  About 10 s on a 2-vCPU
VM.  Run from the repository root:

    PYTHONPATH=src python3 scripts/report_digests.py > digests.txt
"""

import os

# before numpy loads: one BLAS thread unless the caller sets a count, so
# the claim that reports do not depend on it can be rechecked with
# OPENBLAS_NUM_THREADS=2
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from wavenvelope.cli import (EXPERIMENTS, PAIR_FAMILIES,  # noqa: E402
                             _SCAN_PARAMS, main)
from wavenvelope.schrodinger import MEASURE_FAMILIES  # noqa: E402


def sweep():
    """(run directory, argv) of every run of the sweep."""
    for name in EXPERIMENTS:
        yield f"default/{name}", [name]
    for name in ("envelope-verify", "square-verify"):
        for pair in PAIR_FAMILIES:
            yield (f"{name}/{pair.replace(':', '-')}",
                   [name, "--family", pair, "--R", "16,64,256",
                    "--p", "2,3,4"])
    yield ("envelope-verify-large/knapp-dual-tube",
           ["envelope-verify", "--family", "knapp:dual-tube",
            "--R", "64,256,1024", "--p", "2,3,4"])
    yield ("envelope-verify-large/random-constant",
           ["envelope-verify", "--family", "random:constant",
            "--R", "1024", "--p", "3,4"])
    for family in _SCAN_PARAMS:
        yield f"kappa-scan/{family}", ["kappa-scan", "--family", family]
    for family, flags in (("truncated-lattice", ["--R", "4096,16384,65536",
                                                 "--alpha", "1.5",
                                                 "--c", "0.25"]),
                          ("dual-tube", ["--R", "1024", "--alpha", "1"])):
        yield (f"kappa-scan-large/{family}",
               ["kappa-scan", "--family", family, "--p", "2,2.5,3,4",
                *flags])
    yield ("kappa-scan-large/dual-tube-R4096",
           ["kappa-scan", "--family", "dual-tube", "--R", "4096",
            "--alpha", "1", "--p", "2,4"])
    for family in MEASURE_FAMILIES:
        yield (f"certificates/{family}",
               ["certificates", "--family", family, "--R", "16,64,256"])
    yield "bilinear/R16", ["bilinear", "--R", "16"]
    yield "bilinear/R64-K2", ["bilinear", "--R", "64", "--K", "2",
                              "--trials", "4"]
    yield "broad-narrow/R64", ["broad-narrow", "--R", "64", "--trials", "5"]


if __name__ == "__main__":
    failed = []
    with tempfile.TemporaryDirectory() as root:
        for rel, argv in sweep():
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", os.path.join(root, rel),
                                    "--format", "json,csv,md"])
            if code:
                failed.append((rel, code))
        lines = []
        for dirpath, _, files in os.walk(root):
            for name in files:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                lines.append((os.path.relpath(path, root), digest))
    for rel, digest in sorted(lines):
        print(f"{digest}  {rel}")
    for rel, code in failed:
        what = "was rejected" if code == 2 else "failed a check"
        print(f"error: run {rel} {what}", file=sys.stderr)
    sys.exit(1 if failed else 0)
