#!/usr/bin/env python3
"""Deterministic examples suite: one exponent fit per example family.

Writes runs/suite/examples-suite.{json,md} plus per-fit JSON files and
the row/fit CSV tables.  Extra flags pass straight through to the
runner, e.g. --band 0.05 or --out somewhere/else.
"""

import sys

from wavenvelope.cli import main

if __name__ == "__main__":
    argv = ["examples-suite", "--out", "runs/suite", "--format", "json,csv,md"]
    sys.exit(main(argv + sys.argv[1:]))
