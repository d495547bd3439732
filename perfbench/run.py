"""Benchmark of wavenvelope: three workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload envelope|kappa|pointwise|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
A run repeats rounds until S seconds have passed (at least MIN_ROUNDS).
Each round is a fresh worker process (worker.py) that imports the package
and runs the workload's operations once.  The first round also checks the
outputs; every later round must reproduce the first round's reports bit
for bit, so it shares the first round's verdicts.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones,
medians over rounds: wall_ref, the operations' time divided by the mean
time of a calibration kernel the worker times after each operation;
setup_s, the time from launch to the end of the imports, scaled to a
kernel time of KERNEL_REF_S; and peak_rss_mb.  With --trace 1 rounds
alternate untraced and traced, and the metrics are the per-layer ones,
medians over the traced rounds, plus the tracing overhead.  Round details
and spans go to perfbench/out/.  --workload all runs every workload
untraced and traced and writes perfbench/out/summary.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("envelope", "kappa", "pointwise")
MIN_ROUNDS = 2
# set-up is sampled this often per run; rounds count, import-only
# launches make up the rest
SETUP_SAMPLES = 3
# stop starting rounds once a run has used this long
RUN_LIMIT_S = 150.0
ROUND_TIMEOUT_S = 170.0
# set-up times are scaled to this time of the worker's calibration kernel,
# which it times right after its imports
KERNEL_REF_S = 0.1
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def launch(args: list) -> tuple:
    """Run worker.py once; returns (launch time, parsed last line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                          capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}: "
                           f"{' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker printed nothing: {' '.join(args)}")
    return t0, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}"
    rounds, setups = [], []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        traced = trace and len(rounds) % 2 == 1
        args = ["--workload", workload, "--seed", str(seed),
                "--trace", str(int(traced)), "--check", str(int(not rounds))]
        if traced:
            args += ["--trace-path", os.path.join(OUT, f"trace-{tag}.jsonl")]
        t0, res = launch(args)
        res["setup_s"] = res["ready"] - t0
        rounds.append(res)
        setups.append((res["setup_s"], res["setup_kernel_s"]))
        last = time.monotonic() - t0
        if time.monotonic() - start + last > RUN_LIMIT_S:
            break
    while len(setups) < SETUP_SAMPLES:
        t0, res = launch(["--setup-only"])
        setups.append((res["ready"] - t0, res["setup_kernel_s"]))
    setup_ref = [raw * KERNEL_REF_S / statistics.mean(kernel)
                 for raw, kernel in setups]

    ops = rounds[0]["ops"]
    correct = all(r["ops"] == ops and r["digest"] == rounds[0]["digest"]
                  and not r["unknown_failures"] for r in rounds)
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = len(set(rounds[0]["failed"]).union(
        *(r["failed"] for r in rounds))) * len(rounds)
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    wall_s = statistics.median(r["wall_s"] for r in plain)
    end_to_end = {
        "wall_ref": statistics.median(r["wall_ref"] for r in plain),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    per_layer = {}
    if traced:
        for name in traced[0]["layers"]:
            per_layer[name] = statistics.median(r["layers"][name]
                                                for r in traced)
        wall_t = statistics.median(r["wall_s"] for r in traced)
        per_layer["trace.wall_s"] = wall_t
        per_layer["trace.untraced_wall_s"] = wall_s
        per_layer["trace.overhead_s"] = wall_t - wall_s
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "threads": {var: THREADS for var in THREAD_VARS},
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "correct": correct, "attempted": attempted, "failed": failed,
        "end_to_end": end_to_end, "wall_s": wall_s,
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
        "setup_samples": setups, "per_layer": per_layer,
        "preflight_mb": rounds[0]["preflight_mb"],
        "failures": rounds[0]["failed"],
        "missing_functions": traced[0].get("missing", []) if traced else [],
        "rounds": [{k: r[k] for k in ("wall_s", "wall_ref", "op_s",
                                      "kernel_s", "peak_rss_mb", "setup_s",
                                      "traced", "digest")}
                   for r in rounds],
    }
    with open(os.path.join(OUT, f"result-{tag}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return summary


def _print_summary(s: dict, units: dict) -> None:
    print(f"{s['workload']}: seed {s['seed']}, {len(s['rounds'])} rounds, "
          f"{s['attempted']} operations attempted, {s['failed']} failed, "
          f"correct {s['correct']}")
    for name, value in s["end_to_end"].items():
        print(f"  {name:<14} {value:12.4f} {units.get(name, '')}")
    print(f"  {'raw wall':<14} {s['wall_s']:12.4f} s")
    for op, reasons in s["failures"].items():
        print(f"  FAILED {op}: {reasons[0]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wavenvelope",
                                       "__init__.py")):
        print(f"error: no src/wavenvelope under {ROOT}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] +
             spec["per_layer"]}
    try:
        if args.workload == "all":
            runs = {}
            for w in WORKLOADS:
                runs[w] = run_workload(w, args.seed, args.seconds, False)
                runs[w]["per_layer"] = run_workload(
                    w, args.seed, args.seconds, True)["per_layer"]
                _print_summary(runs[w], units)
            with open(os.path.join(OUT, "summary.json"), "w") as fh:
                json.dump(runs, fh, indent=1, sort_keys=True)
                fh.write("\n")
            result = {
                "correct": all(r["correct"] for r in runs.values()),
                "attempted": sum(r["attempted"] for r in runs.values()),
                "failed": sum(r["failed"] for r in runs.values()),
                "metrics": {f"{w}.{k}": {"value": v, "unit": units[k]}
                            for w, r in runs.items()
                            for k, v in r["end_to_end"].items()}}
        else:
            s = run_workload(args.workload, args.seed, args.seconds,
                             bool(args.trace))
            _print_summary(s, units)
            names = [m["name"] for m in spec["per_layer" if args.trace
                                             else "end_to_end"]]
            values = s["per_layer"] if args.trace else s["end_to_end"]
            result = {"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"],
                      "metrics": {n: {"value": values[n], "unit": units[n]}
                                  for n in names}}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
