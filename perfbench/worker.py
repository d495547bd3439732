"""One round of one workload in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 --check 0|1
    python3 perfbench/worker.py --setup-only

Imports the package from the checkout's src/, runs the workload's
operations through wavenvelope.cli.run, checks their outputs and prints
one JSON object on its last line: the monotonic time at which the package
was imported, the operations' wall time, their calibrated time and peak
RSS, the failed operations with reasons, a digest of the reports and,
when traced, the per-layer metrics.  run.py launches it and aggregates
rounds.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import wavenvelope.cli as cli  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402
from scipy.fft import ifft2  # noqa: E402

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402


def _plain(obj):
    # envelope-verify reports keep their fits as ExponentFit objects
    return obj.to_dict() if hasattr(obj, "to_dict") else repr(obj)


# calibration samples taken right after the imports and after each operation
KERNEL_REPS = 2


class Calibration:
    """A fixed mix of the package's kinds of work, about 0.1 s in all: 2-D
    FFTs, complex exponentials of phase matrices times amplitudes, sorts,
    passes over a 2 MiB array, a Python loop and many small numpy calls.
    Its mean time over a round measures the host's speed in that round.

    Every temporary stays below glibc's 128 KiB mmap threshold, and the
    FFT length is not one of the package's power-of-two grids, so the
    kernel leaves the allocator and the FFT plans the package uses as it
    found them.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.grid = rng.standard_normal((80, 80)) + 0j
        self.points = rng.uniform(0.0, 100.0, (90, 2))
        self.freqs = rng.standard_normal((2, 80))
        self.amps = rng.standard_normal(80) + 0j
        self.keys = rng.integers(0, 1 << 40, 8000)
        self.block = np.ones(1 << 18)
        self.small = np.arange(16.0)
        self.time()

    def time(self) -> float:
        t0 = time.perf_counter()
        for _ in range(60):
            ifft2(self.grid, workers=1)
        for _ in range(100):
            np.exp(1j * (self.points @ self.freqs)) @ self.amps
        for _ in range(15):
            np.unique(self.keys)
        for _ in range(30):
            np.multiply(self.block, 1.0, out=self.block)
            float(self.block.sum())
        acc = 0.0
        for i in range(150000):
            acc += i * 0.5
        for _ in range(12000):
            np.add(self.small, 1.0)
        return time.perf_counter() - t0


def run_round(workload: str, seed: int, traced: bool, checked: bool,
              trace_path=None) -> dict:
    cfgs = workloads.configs(workload, seed)
    calib = Calibration()
    kernel = [calib.time() for _ in range(KERNEL_REPS)]
    op_s, results, errors = [], [], {}
    recorder = spans.Recorder().install() if traced else None
    try:
        for cfg in cfgs:
            t0 = time.perf_counter()
            try:
                results.append((cfg, cli.run(cli.ExperimentConfig(**cfg))))
            except Exception as exc:  # a raising operation is a failed one
                results.append((cfg, None))
                errors[len(results) - 1] = f"{type(exc).__name__}: {exc}"
            op_s.append(time.perf_counter() - t0)
            kernel += [calib.time() for _ in range(KERNEL_REPS)]
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed = workloads.check(workload, seed, results) if checked else {}
    digest = hashlib.sha256()
    ops, preflight = [], []
    for i, (cfg, report) in enumerate(results):
        ids = workloads.op_ids(cfg)
        ops += ids
        if report is None:
            for op in ids:
                failed.setdefault(op, []).append(errors[i])
            continue
        preflight.append(report.preflight_mb)
        digest.update(json.dumps(report.to_dict(), sort_keys=True,
                                 default=_plain).encode())
        for c in report.checks:
            if not c["passed"]:
                for op in ids:
                    failed.setdefault(op, []).append(
                        f"FAIL {c['name']}: {c['detail']}")
    # the samples before the first operation run cold and calibrate the
    # set-up; the operations are calibrated by the samples that follow them
    wall_s = sum(op_s)
    after = kernel[KERNEL_REPS:]
    out = {"ready": READY, "wall_s": wall_s,
           "wall_ref": wall_s / (sum(after) / len(after)),
           "op_s": op_s, "kernel_s": kernel,
           "setup_kernel_s": kernel[:KERNEL_REPS],
           "peak_rss_mb": peak_kib / 1024.0, "ops": ops,
           "failed": {op: failed[op] for op in ops if op in failed},
           "unknown_failures": sorted(set(failed) - set(ops)),
           "digest": digest.hexdigest(), "traced": traced,
           "preflight_mb": max(preflight, default=0.0)}
    if recorder is not None:
        out["layers"] = spans.layer_metrics(recorder)
        out["missing"] = recorder.missing
        if trace_path:
            spans.write_spans(recorder, trace_path, {
                "workload": workload, "seed": seed,
                "wall_s": out["wall_s"]})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--trace-path")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.realpath(cli.__file__).startswith(
            os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        print(f"error: imported {cli.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2
    if args.setup_only:
        calib = Calibration()
        out = {"ready": READY,
               "setup_kernel_s": [calib.time() for _ in range(KERNEL_REPS)]}
    else:
        out = run_round(args.workload, args.seed, bool(args.trace),
                        bool(args.check), args.trace_path)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
