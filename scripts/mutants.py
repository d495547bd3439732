#!/usr/bin/env python3
"""Run one-line source mutants against the tests: is each defect caught?

A mutant is (module, old text, new text): one edit to one line of
src/wavenvelope/<module>.py, whose old text must occur there exactly once.
For each mutant the script copies src/, tests/, scripts/ and
pyproject.toml into a temporary directory, applies the edit to the copy,
and runs `python -m pytest -x` there against the copy's package.  It
prints one line per mutant: `caught` with the first failing test, or
`survived`.  The unmutated copy is run first and must pass, so that a
failure is the mutant's.  The script exits 1 if a mutant survived, and 2
if a run tested nothing: a mutant's old text is not found exactly once (a
stale mutant list), the unmutated copy fails, or pytest reports a usage
or collection error.

Every mutant is run against the whole tier-1 suite; with -x pytest stops
at the first failure, so a caught mutant costs the tests up to that one
and a survivor costs a full run.  A run that outlasts TIMEOUT_S counts as
caught.  Run from the repository root:

    python3 scripts/mutants.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# seconds a mutant's test run may take; a tier-1 run takes about 40 s
TIMEOUT_S = 1800.0

# (module, old text, new text)
MUTANTS = [
    # nikodym_max: each row's box sums span 2 hw columns, not 2 hw + 1
    ("schrodinger", "for d in range(1, 2 * hw + 1):",
     "for d in range(1, 2 * hw):"),
    # nikodym_max: the rows after the first added last to first
    ("schrodinger", "for i in range(1, n_t):",
     "for i in range(n_t - 1, 0, -1):"),
    # nikodym_max: the average counts one row fewer
    ("schrodinger", "denom = float(n_t * (2 * hw + 1))",
     "denom = float((n_t - 1) * (2 * hw + 1))"),
    # nikodym_max: each worker thread skips the last of its slope blocks
    ("schrodinger", "for j in starts:", "for j in starts[:-1]:"),
    # _packet_slab: the candidate window reaches one cell less on either
    # side, so rows lose the slab cells at its ends
    ("schrodinger", "k = int(reach / dx) + 1", "k = int(reach / dx)"),
    # trig_sum: the amplitudes conjugated in the folded table
    ("torus", "o[b] = E1 @ (a[:, None] * E2T)",
     "o[b] = E1 @ (a[:, None].conj() * E2T)"),
    # trig_sum: E2^T's phase with the wrong sign
    ("torus", "E2T = phase_table(freqs[:, 1], x2)",
     "E2T = phase_table(-freqs[:, 1], x2)"),
    # group_sums: keys up to 2^32 - 1 sorted as int32, so those of 2^31
    # and above wrap negative
    ("torus", "return np.int32 if bound <= 1 << 31 else np.int64",
     "return np.int32 if bound <= 1 << 32 else np.int64"),
    # in_ball: the per-cell displacement table starts one cell late
    ("measures", "table = _axis_disp(np.arange(lo, hi + 1), spec, c)",
     "table = _axis_disp(np.arange(lo + 1, hi + 2), spec, c)"),
    # _run_broad_narrow: the pool's results taken in completion order, so
    # rows follow whichever trial finished first
    ("cli", "results = list(pool.map(run_trial, trials))",
     "results = [f.result() for f in sys.modules['concurrent.futures']"
     ".as_completed([pool.submit(run_trial, t) for t in trials])]"),
    # _run_broad_narrow: the pool never runs the last trial
    ("cli", "results = list(pool.map(run_trial, trials))",
     "results = list(pool.map(run_trial, trials[:-1]))"),
    # ScaleTubes: a cap's place in its block packed one bit short, onto
    # the top bit of its tube keys
    ("geometry", "places = np.arange(c) << self.key_bits",
     "places = np.arange(c) << self.key_bits - 1"),
    # ScaleTubes: the running key sum advanced by one cap per block, not
    # by the block's caps
    ("geometry", "else per_block * self.b", "else self.b"),
]

_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def module_path(root: str, module: str) -> str:
    return os.path.join(root, "src", "wavenvelope", module + ".py")


def check_mutants(mutants) -> list:
    """The mutants whose old text is not found exactly once."""
    stale = []
    for module, old, new in mutants:
        with open(module_path(ROOT, module)) as fh:
            if fh.read().count(old) != 1 or "\n" in old + new:
                stale.append((module, old, new))
    return stale


def run_mutant(mutant) -> tuple:
    """(caught, first failing test or reason, seconds) of one mutant, or
    of the unmutated copy if mutant is None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests", "scripts"):
            shutil.copytree(os.path.join(ROOT, name),
                            os.path.join(tmp, name), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        if mutant is not None:
            module, old, new = mutant
            path = module_path(tmp, module)
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
               "-p", "no:cacheprovider"]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S:g} s", TIMEOUT_S
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return False, "", seconds
    if proc.returncode in (4, 5):
        # a usage or collection error: the run tested nothing
        print(f"pytest exit {proc.returncode}: {proc.stdout.strip()}",
              file=sys.stderr)
        sys.exit(2)
    match = _FIRST_FAILURE.search(proc.stdout)
    reason = match.group(1) if match else \
        f"pytest exit {proc.returncode}: {proc.stdout.strip()[-200:]}"
    return True, reason, seconds


def main() -> int:
    stale = check_mutants(MUTANTS)
    for module, old, _ in stale:
        print(f"stale mutant: {old!r} is not one line found once in "
              f"{module}.py", file=sys.stderr)
    if stale:
        return 2
    caught, reason, seconds = run_mutant(None)
    if caught:
        print(f"the unmutated copy fails: {reason}", file=sys.stderr)
        return 2
    print(f"passes   [{seconds:.0f} s]  unmutated", flush=True)
    survived = 0
    for module, old, new in MUTANTS:
        caught, reason, seconds = run_mutant((module, old, new))
        survived += not caught
        verdict = f"caught   {reason}" if caught else "survived"
        print(f"{verdict}  [{seconds:.0f} s]  {module}: {old!r} -> {new!r}",
              flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
