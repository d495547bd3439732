#!/usr/bin/env python3
"""Propagator lower-bound families at their default scale grids.

Runs the chirp, moving-packet, lattice, and tube-maximal slope
experiments and writes one fit JSON per family under runs/fls.
"""

import sys

from wavenvelope.cli import main

if __name__ == "__main__":
    argv = ["schrodinger-fls", "--out", "runs/fls", "--format", "json,csv,md"]
    sys.exit(main(argv + sys.argv[1:]))
