"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import wavenvelope.cli as cli  # noqa: E402
import wavenvelope.envelope as envelope  # noqa: E402
import wavenvelope.geometry as geometry  # noqa: E402
import wavenvelope.measures as measures  # noqa: E402
import wavenvelope.torus as torus  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    funcs = [SimpleNamespace(layer=layer, name=name) for layer, name in (
        ("cli", "run"), ("envelope", "verify"), ("torus", "samples_on"),
        ("geometry", "locate"), ("envelope", "cap_decompose"))]
    # cli.run [0, 10] > envelope.verify [1, 9] > torus [2, 4], geometry
    # [5, 6], envelope.cap_decompose [6, 8] > envelope.cap_decompose
    # [6.5, 7.5] (an inner call of the same function); a second root [11, 12]
    tree = [(0, 0.0, 10.0, -1, True), (1, 1.0, 9.0, 0, True),
            (2, 2.0, 4.0, 1, True), (3, 5.0, 6.0, 1, True),
            (4, 6.0, 8.0, 1, True), (4, 6.5, 7.5, 4, False),
            (0, 11.0, 12.0, -1, True)]
    agg = spans.aggregate(funcs, tree)
    assert agg["self"]["cli"] == 2.0 + 1.0
    assert agg["self"]["envelope"] == (8.0 - 2.0 - 1.0 - 2.0) + 1.0 + 1.0
    assert agg["self"]["torus"] == 2.0
    assert agg["self"]["geometry"] == 1.0
    assert agg["time"][("envelope", "cap_decompose")] == 2.0
    assert agg["time"][("cli", "run")] == 11.0
    assert agg["root"] == 11.0
    assert sum(agg["self"].values()) == agg["root"]


def test_counts_come_from_call_arguments():
    spec = torus.GridSpec(16)
    f = torus.random_band_field(spec, seed=3)
    pts = np.random.default_rng(0).uniform(0.0, spec.L, size=(7, 2))
    H = measures.make_weight("ball", spec, rho=2.0)
    cap = geometry.caps_at_scale(0.5)[1]
    j = np.arange(11)
    with spans.Recorder() as rec:
        torus.point_eval(f, pts)
        f.samples_on(32, cache=False)
        f.samples_on(64, cache=False)
        envelope.locate_grid_tubes(j, j, cap, spec)
        envelope.kappa_table(H, 3.0, cap)
        envelope.kappa_table(H, 4.0, cap)
    m = spans.layer_metrics(rec)
    assert m["torus.point_eval.terms"] == 7 * f.n_modes
    assert m["torus.samples_on.calls"] == 2
    assert m["torus.samples_on.cells"] == 32 ** 2 + 64 ** 2
    # kappa_table locates every atom once per call
    assert m["geometry.locate_grid_tubes.points"] == 11 + 2 * H.n_atoms
    assert m["envelope.kappa_table.calls"] == 2
    assert m["envelope.kappa_table.atoms"] == 2 * H.n_atoms
    assert m["envelope.kappa_table.repeat_ratio"] == 2.0
    assert m["schrodinger.lattice_ratio.calls"] == 0


def test_uninstall_restores_every_binding():
    before = (torus.point_eval, envelope.locate_grid_tubes,
              torus.TorusField.samples_on, dict(measures._FAMILIES), cli.run)
    with spans.Recorder():
        assert torus.point_eval is not before[0]
        assert measures._FAMILIES["ball"] is not before[3]["ball"]
    after = (torus.point_eval, envelope.locate_grid_tubes,
             torus.TorusField.samples_on, dict(measures._FAMILIES), cli.run)
    assert after == before


def _report(cfg):
    rep = cli.run(cli.ExperimentConfig(**cfg))
    return json.dumps(rep.to_dict(), sort_keys=True, default=repr)


def test_traced_run_is_bit_identical():
    cfgs = [dict(experiment="envelope-verify", family="random:ball",
                 R=(16, 64), p=(3.0,), seed=5),
            dict(experiment="kappa-scan", family="dual-tube", R=(64,),
                 p=(2.5,), alpha=0.7),
            dict(experiment="broad-narrow", R=(64,), p=(4.0,), K=4,
                 trials=2, points=50, seed=1)]
    plain = [_report(c) for c in cfgs]
    with spans.Recorder() as rec:
        traced = [_report(c) for c in cfgs]
    assert traced == plain
    m = spans.layer_metrics(rec)
    assert m["trace.self_sum_s"] > 0
    assert not rec.missing


def test_run_refuses_a_directory_without_the_program():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "envelope",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
