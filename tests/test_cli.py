"""Runner tests: config round trips, experiment pipelines, reports.

The heavier pipelines run at reduced scales here; the full acceptance
grids live in test_acceptance.py.
"""

import argparse
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import wavenvelope.cli as cli
from wavenvelope import envelope, measures, torus
from oracles import serial_broad_narrow_rows
from wavenvelope.cli import (ExperimentConfig, PAIR_FAMILIES, PreflightError,
                             Report, emit, make_field, pair_inputs,
                             parse_config_text, preflight_mb, read_config,
                             resolve, run)
from wavenvelope.decomp import CertificateError
from wavenvelope.envelope import verify_weighted_sq
from wavenvelope.geometry import cap_index_for_abscissa, theta_scale
from wavenvelope.torus import GridSpec, parabola_band_modes

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# ---------------------------------------------------------------------------
# configuration

def test_config_round_trip_byte_identical():
    cfg = ExperimentConfig(experiment="kappa-scan", R=(64, 256),
                           p=(2.0, 2.5), c=0.3)
    text = cfg.canonical()
    again = ExperimentConfig(**parse_config_text(text))
    assert again == cfg
    assert again.canonical() == text


def test_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig(experiment="bilinear", R=(64,), trials=3, seed=9)
    path = tmp_path / "run.cfg"
    path.write_text(cfg.canonical())
    assert read_config(path) == cfg


def test_config_hash_tracks_content():
    a = ExperimentConfig(experiment="kappa-scan", R=(64,))
    b = ExperimentConfig(experiment="kappa-scan", R=(64,))
    c = ExperimentConfig(experiment="kappa-scan", R=(256,))
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_config_parse_rejections():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("wat = 3")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just words")


# a non-default value of every field but experiment, as config text
_FIELD_TEXT = {
    "R": "16,64", "p": "2.5,3", "K": "3", "family": "ball",
    "kappa": "0.25", "alpha": "1.25", "c": "0.3", "lam": "0.5", "seed": "7",
    "trials": "3", "points": "50", "band": "0.05", "out": "runs/x",
    "mem_cap_mb": "100.5",
}


def test_flags_parse_like_config_lines():
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(_FIELD_TEXT) == sorted(n for n in names
                                         if n != "experiment")
    parser = argparse.ArgumentParser()
    cli._add_flags(parser)
    default = ExperimentConfig(experiment="kappa-scan")
    for key, text in _FIELD_TEXT.items():
        args = parser.parse_args(["--" + key.replace("_", "-"), text])
        args.experiment = "kappa-scan"
        got = cli.config_from_args(args)
        want = ExperimentConfig(experiment="kappa-scan",
                                **parse_config_text(f"{key} = {text}"))
        assert got == want, key
        assert getattr(got, key) != getattr(default, key), key


def test_config_comments_and_blanks():
    got = parse_config_text("# header\n\nR = 64,256  # inline\n")
    assert got == {"R": (64, 256)}


def test_resolve_fills_defaults():
    cfg = resolve(ExperimentConfig(experiment="kappa-scan"))
    assert cfg.R == (64, 256)
    assert cfg.p == (2.0, 3.0, 4.0)
    assert cfg.family == "constant"
    # explicit values survive resolution
    cfg = resolve(ExperimentConfig(experiment="kappa-scan", R=(16,)))
    assert cfg.R == (16,)
    # the suite's report embeds the scales and exponents it runs at
    cfg = resolve(ExperimentConfig(experiment="examples-suite"))
    assert cfg.R == (64, 256, 1024)
    assert cfg.p == (2.0, 3.0, 4.0)


def test_resolve_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        resolve(ExperimentConfig(experiment="frobnicate"))


# ---------------------------------------------------------------------------
# field families

def test_field_families_synthesize():
    spec = GridSpec(16)
    for family in cli.FIELD_FAMILIES:
        f = make_field(family, spec, seed=5)
        assert f.n_modes > 0


def test_knapp_field_is_one_cap_and_normalized():
    spec = GridSpec(64)
    f = make_field("knapp", spec, 0)
    s = theta_scale(64)
    assert np.all(cap_index_for_abscissa(spec.freq_step * f.freqs[:, 0], s)
                  == 0)
    assert np.sum(f.amps) == pytest.approx(1.0, rel=1e-12)
    # one mode per frequency column
    assert len(np.unique(f.freqs[:, 0])) == f.n_modes


def test_spread_field_one_mode_per_cap():
    spec = GridSpec(64)
    f = make_field("spread", spec, seed=3)
    s = theta_scale(64)
    ki = cap_index_for_abscissa(spec.freq_step * f.freqs[:, 0], s)
    assert len(np.unique(ki)) == f.n_modes
    band = parabola_band_modes(spec)
    covered = np.unique(cap_index_for_abscissa(spec.freq_step * band[:, 0], s))
    assert f.n_modes == len(covered)
    assert np.allclose(np.abs(f.amps), 1.0)


def test_make_field_rejects_unknown():
    with pytest.raises(ValueError, match="unknown field family"):
        make_field("sawtooth", GridSpec(16), 0)


def test_pair_report_rejects_unknown():
    with pytest.raises(ValueError, match="unknown pair"):
        pair_inputs("random:nope", 64, 0)


# ---------------------------------------------------------------------------
# experiments at reduced scale

def test_kappa_scan_constant_identity():
    rep = run(ExperimentConfig(experiment="kappa-scan", R=(64,), lam=0.25))
    assert rep.passed
    for row in rep.rows:
        assert row["measured"] == 0.25 ** (1.0 / row["p"])
        assert row["ratio"] == 1.0
        assert {"witness_s", "witness_k", "witness_z1", "witness_z2"} \
            <= row.keys()


def test_kappa_scan_ball_family():
    rep = run(ExperimentConfig(experiment="kappa-scan", R=(64,),
                               p=(2.0,), family="ball"))
    assert rep.passed
    assert rep.checks[0]["name"] == "kappa-finite"
    assert 0.0 < rep.rows[0]["measured"] < 1.0


@pytest.mark.parametrize("family",
                         sorted(set(cli._SCAN_PARAMS) - {"constant"}))
def test_default_kappa_scan_weight_has_several_atoms(monkeypatch, family):
    # with no other flag, kappa-scan scans the family's example weight,
    # which holds more than one atom at each default R
    built = []
    real = cli.make_weight

    def record(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "make_weight", record)
    assert run(ExperimentConfig(experiment="kappa-scan",
                                family=family)).passed
    assert [H.spec.R for H in built] == [64, 256]
    assert all(H.n_atoms > 1 for H in built), \
        [(H.spec.R, H.n_atoms) for H in built]


def test_kappa_scan_rejects_unknown_family():
    with pytest.raises(ValueError, match="no weight family"):
        run(ExperimentConfig(experiment="kappa-scan", R=(64,),
                             family="hexagon"))


def test_envelope_verify_rows_and_sidecar(tmp_path):
    cfg = ExperimentConfig(experiment="envelope-verify", R=(64,),
                           family="knapp:dual-tube")
    rep = run(cfg)
    cli._write_sidecars(rep, str(tmp_path))
    assert rep.passed
    row = rep.rows[0]
    assert row["measured"] == row["ratio_env"] > 0
    assert (tmp_path / "envelope-verify_knapp-dual-tube_R64_p4_terms.csv"
            ).exists()
    assert rep.fits == []  # two scales cannot support a slope fit


def test_square_verify_uses_first_power_ratio():
    rep = run(ExperimentConfig(experiment="square-verify", R=(64,),
                               family="knapp:constant"))
    assert rep.passed
    assert rep.rows[0]["measured"] == rep.rows[0]["ratio_sq"]


def test_verify_rejects_unknown_pair():
    with pytest.raises(ValueError, match="unknown pair"):
        run(ExperimentConfig(experiment="envelope-verify", R=(64,),
                             family="flat:nope"))


def test_broad_narrow_experiment():
    rep = run(ExperimentConfig(experiment="broad-narrow", R=(64,),
                               trials=2, points=400, seed=4))
    assert rep.passed
    assert all(r["violations"] == 0 for r in rep.rows)


@pytest.mark.parametrize("R", [64, 256])
@pytest.mark.parametrize("seed,trials", [(0, 3), (1, 5), (7, 3)])
def test_broad_narrow_rows_equal_the_serial_loop(R, seed, trials):
    cfg = resolve(ExperimentConfig(experiment="broad-narrow", R=(R,),
                                   trials=trials, points=300, seed=seed))
    assert run(cfg).rows == serial_broad_narrow_rows(cfg)


def test_broad_narrow_runs_every_p():
    # p-major, each p drawing the fields and points of a run at it alone
    cfg = dict(experiment="broad-narrow", R=(64,), trials=2, points=50)
    both = run(ExperimentConfig(p=(2.0, 4.0), **cfg)).rows
    alone = run(ExperimentConfig(p=(4.0,), **cfg)).rows
    assert [r["p"] for r in both] == [2.0, 2.0, 4.0, 4.0]
    assert both[2:] == alone


def test_broad_narrow_violation_fails_the_check(monkeypatch, capsys):
    # the second trial's points, drawn as the runner draws them
    spec = GridSpec(64)
    rng = np.random.default_rng(3 + 64)
    for _ in range(2):
        rng.integers(2 ** 31)
        planted = rng.uniform(0.0, spec.L, size=(200, 2))
    real = cli.broad_narrow

    def failing(f, pts, p, K):
        if np.array_equal(pts, planted):
            raise CertificateError("planted violation")
        return real(f, pts, p, K)

    monkeypatch.setattr(cli, "broad_narrow", failing)
    argv = ["broad-narrow", "--R", "64", "--trials", "4", "--points", "200",
            "--seed", "3"]
    rep = run(ExperimentConfig(experiment="broad-narrow", R=(64,), trials=4,
                               points=200, seed=3))
    check = rep.checks[0]
    assert check["name"] == "pointwise-split-violations"
    assert not check["passed"] and not rep.passed
    assert "R 64 trial 1: planted violation" in check["detail"]
    assert [r["trial"] for r in rep.rows] == [0, 2, 3]
    assert cli.main(argv) == 1
    assert "FAIL pointwise-split-violations" in capsys.readouterr().out


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("fault", [None, CertificateError, LookupError])
def test_broad_narrow_leaves_no_worker(monkeypatch, fault):
    # the last trial raises fault, in the calling process (one CPU) and in
    # a forked worker (two); neither run leaves a child process behind
    cfg = resolve(ExperimentConfig(experiment="broad-narrow", R=(64,),
                                   trials=4, points=200, seed=3))
    planted = cli._broad_narrow_trials(cfg)[-1][-1]
    real = cli.broad_narrow

    def planted_fault(f, pts, p, K):
        if fault is not None and np.array_equal(pts, planted):
            raise fault("planted fault")
        return real(f, pts, p, K)

    monkeypatch.setattr(cli, "broad_narrow", planted_fault)
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        if fault is LookupError:
            with pytest.raises(LookupError, match="planted fault"):
                run(cfg)
        else:
            reports.append(run(cfg))
        assert multiprocessing.active_children() == []
    if fault is LookupError:
        return
    assert reports[0].rows == reports[1].rows
    assert reports[0].checks == reports[1].checks
    assert reports[0].passed == (fault is None)
    if fault is CertificateError:
        assert "R 64 trial 3: planted fault" in reports[0].checks[0]["detail"]
        assert [r["trial"] for r in reports[0].rows] == [0, 1, 2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_broad_narrow_rows_in_trial_order(monkeypatch):
    # two workers, and the first trial finishes after all the others
    cfg = resolve(ExperimentConfig(experiment="broad-narrow", R=(64,),
                                   trials=4, points=200, seed=5))
    first = cli._broad_narrow_trials(cfg)[0][-1]
    real = cli.broad_narrow

    def slow_first(f, pts, p, K):
        if np.array_equal(pts, first):
            time.sleep(0.5)
        return real(f, pts, p, K)

    monkeypatch.setattr(cli, "broad_narrow", slow_first)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    assert run(cfg).rows == serial_broad_narrow_rows(cfg)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_broad_narrow_worker_death_raises(monkeypatch):
    # a worker that dies mid-trial fails the run instead of hanging it
    from concurrent.futures.process import BrokenProcessPool
    parent = os.getpid()
    real = cli.broad_narrow

    def dying(f, pts, p, K):
        if os.getpid() != parent:
            os._exit(3)
        return real(f, pts, p, K)

    monkeypatch.setattr(cli, "broad_narrow", dying)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    with pytest.raises(BrokenProcessPool):
        run(ExperimentConfig(experiment="broad-narrow", R=(64,), trials=4,
                             points=200, seed=3))
    assert multiprocessing.active_children() == []


# runs whose report bytes must not depend on how many CPUs the process
# may use: broad-narrow's trials, which one forked worker per usable CPU
# runs, and the nikodym family, whose slope blocks nikodym_max deals out
# to one thread per usable CPU
CPU_COUNT_RUNS = {
    "broad-narrow": ["broad-narrow", "--R", "64", "--trials", "5"],
    "nikodym": ["schrodinger-fls", "--family", "nikodym",
                "--R", "64,256,1024"],
}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("name", sorted(CPU_COUNT_RUNS))
def test_broad_narrow_bytes_independent_of_cpu_count(tmp_path, name):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = ("import os, sys\n"
             "from wavenvelope import cli\n"
             "if sys.argv[1] == 'pinned':\n"
             "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
             "sys.exit(cli.main(sys.argv[2:]))\n")
    reports = []
    for mode in ("pinned", "unpinned"):
        out = tmp_path / mode
        argv = CPU_COUNT_RUNS[name]
        proc = subprocess.run(
            [sys.executable, "-c", child, mode, *argv, "--out", str(out),
             "--format", "json"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / f"{argv[0]}.json").read_bytes())
    assert reports[0] == reports[1]


def test_bilinear_experiment(tmp_path):
    rep = run(ExperimentConfig(experiment="bilinear", R=(64,), K=2,
                               trials=4))
    cli._write_sidecars(rep, str(tmp_path))
    assert rep.passed
    assert len(rep.rows) == 4
    assert (tmp_path / "bilinear_R64_K2_constants.csv").exists()
    names = [c["name"] for c in rep.checks]
    assert "bilinear-l4-inequality" in names
    assert "bilinear-variation" not in names  # single scale


def test_bilinear_l4_check_fails_on_a_violation(monkeypatch):
    # C_l4 * max_cell_ratio above C_bil would mean the integral over
    # B and Y-tilde exceeds the one over B; the check must catch it
    real = cli.bilinear_trials

    def inflated(*args, **kwargs):
        reps = real(*args, **kwargs)
        rep = next(r for r in reps if r.max_cell_ratio > 0)
        bad = dataclasses.replace(
            rep, C_l4=1.01 * rep.C_bil / rep.max_cell_ratio)
        return [bad if r is rep else r for r in reps]

    cfg = ExperimentConfig(experiment="bilinear", R=(16,), K=2, trials=4)
    assert run(cfg).passed
    monkeypatch.setattr(cli, "bilinear_trials", inflated)
    rep = run(cfg)
    check = next(c for c in rep.checks
                 if c["name"] == "bilinear-l4-inequality")
    assert not check["passed"] and not rep.passed
    assert sum(not r["l4_holds"] for r in rep.rows) == 1


def test_schrodinger_fls_experiment(tmp_path):
    cfg = ExperimentConfig(experiment="schrodinger-fls", family="chirp",
                           p=(3.0,), R=(64, 256, 1024))
    rep = run(cfg)
    cli._write_sidecars(rep, str(tmp_path))
    assert rep.passed
    assert rep.fits[0]["name"] == "chirp-p3"
    assert (tmp_path / "fit_chirp-p3.json").exists()
    # measured rows mirror the fit ratios
    assert len(rep.rows) == 3


def test_schrodinger_fls_nikodym_family():
    rep = run(ExperimentConfig(experiment="schrodinger-fls",
                               family="nikodym", p=(2.0,), R=(16, 64, 256)))
    assert rep.passed
    assert rep.fits[0]["name"] == "tube-maximal-q2"


def test_schrodinger_fls_nikodym_fits_carry_band():
    rep = run(ExperimentConfig(experiment="schrodinger-fls",
                               family="nikodym", p=(2.0, 4.0),
                               R=(16, 64, 256), band=0.05))
    assert [f["band"] for f in rep.fits] == [0.05, 0.05]
    assert all("band 0.05" in c["detail"] for c in rep.checks)


def test_certificates_experiment(tmp_path):
    rep = run(ExperimentConfig(experiment="certificates", R=(64,)))
    cli._write_sidecars(rep, str(tmp_path))
    assert rep.passed
    assert len(rep.rows) == 8  # four families, two norms each
    assert all(r["within"] for r in rep.rows)
    assert (tmp_path / "certificates_delta_R64.json").exists()


def test_default_certificates_run_builds_24_masses_tables(monkeypatch):
    # four families at two R, each comparing its two base certificates
    # with two rescaled ones that share a table
    real, calls = measures.masses_at, []

    def counting(*args):
        calls.append(args[4])
        return real(*args)

    monkeypatch.setattr(measures, "masses_at", counting)
    assert run(ExperimentConfig(experiment="certificates")).passed
    assert len(calls) == 24
    assert calls.count("beta-par") == 8


# ---------------------------------------------------------------------------
# reports and emission

def _tiny_report():
    return run(ExperimentConfig(experiment="kappa-scan", R=(64,), p=(2.0,)))


def test_report_json_shape():
    rep = _tiny_report()
    data = json.loads(cli._json_text(rep.to_dict()))
    assert data["schema"] == cli.SCHEMA_VERSION
    assert data["config"]["experiment"] == "kappa-scan"
    assert data["config_hash"] == ExperimentConfig(
        experiment="kappa-scan", R=(64,), p=(2.0,),
        family="constant").content_hash()
    assert data["passed"] is True


def test_two_runs_byte_identical():
    assert cli._json_text(_tiny_report().to_dict()) == \
        cli._json_text(_tiny_report().to_dict())


def test_report_bytes_independent_of_out_dir(tmp_path):
    # out says where the files go; it enters neither the embedded config
    # nor its hash, and the memory estimate stays out of the bytes
    files = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        rep = run(ExperimentConfig(experiment="kappa-scan", R=(64,),
                                   p=(2.0,), out=out))
        for fmt in ("json", "md"):
            emit(rep, fmt, out)
        files.append([(tmp_path / name / f"kappa-scan.{ext}").read_bytes()
                      for ext in ("json", "md")])
    assert files[0] == files[1]
    data = json.loads(files[0][0])
    assert "out" not in data["config"] and "preflight_mb" not in data
    assert b"MiB" not in files[0][1]


def test_emit_all_formats(tmp_path):
    rep = _tiny_report()
    for fmt in ("json", "csv", "md"):
        for path in emit(rep, fmt, tmp_path):
            assert os.path.exists(path)
    md = (tmp_path / "kappa-scan.md").read_text()
    assert "| R | p | measured | predicted | ratio |" in md
    rows = (tmp_path / "kappa-scan_rows.csv").read_text().splitlines()
    assert len(rows) == 2
    with pytest.raises(ValueError, match="unknown format"):
        emit(rep, "xml", tmp_path)


def test_emit_empty_report_valid(tmp_path):
    rep = Report(experiment="empty", config={}, config_hash="0" * 64,
                 preflight_mb=1.0, rows=[], fits=[], checks=[])
    for fmt in ("json", "csv", "md"):
        emit(rep, fmt, tmp_path)
    assert (tmp_path / "empty_rows.csv").read_text().strip() \
        == "R,p,measured,predicted,ratio"
    assert json.loads((tmp_path / "empty.json").read_text())["passed"] is True
    again = (tmp_path / "empty.json").read_text()
    emit(rep, "json", tmp_path)
    assert (tmp_path / "empty.json").read_text() == again


# ---------------------------------------------------------------------------
# preflight

def test_preflight_rejects_oversized_run():
    cfg = ExperimentConfig(experiment="envelope-verify", R=(64, 4096),
                           family="random:constant", mem_cap_mb=100.0)
    with pytest.raises(PreflightError) as err:
        run(cfg)
    assert err.value.estimate_mb > 100.0


def traced_peak_mb(fn) -> float:
    """The tracemalloc peak of one call of fn, in MiB."""
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak / 2 ** 20


# (R, pair, p); an empty p runs the pair's default exponent
PREFLIGHT_CASES = [(64, "knapp:dual-tube", ()), (64, "knapp:constant", ()),
                   (256, "random:ball", ()), (256, "random:constant", ()),
                   (1024, "knapp:dual-tube", ()),
                   (256, "random:constant", (3.0,)),
                   (1024, "random:constant", (2.0,)),
                   (1024, "random:constant", (4.0,)),
                   (256, "random:lattice", ())]


@pytest.mark.parametrize("R,pair,p", PREFLIGHT_CASES, ids=[
    f"{R}-{pair}" + "".join(f"-p{x:g}" for x in p)
    for R, pair, p in PREFLIGHT_CASES])
def test_preflight_within_factor_two(R, pair, p):
    cfg = resolve(ExperimentConfig(experiment="envelope-verify", R=(R,),
                                   p=p, family=pair))
    est = preflight_mb(cfg)
    peak_mb = traced_peak_mb(lambda: run(cfg))
    assert peak_mb / 2 <= est <= peak_mb * 2


@pytest.mark.parametrize("family,R,params", [
    ("dual-tube", 64, {}),
    ("dual-tube", 256, {}),
    ("ball", 256, {"c": 20.0}),
    ("lattice", 1024, {"c": 0.45}),
    ("truncated-lattice", 4096, {}),
    ("ball", 1024, {"c": 1.0}),
    ("lattice", 256, {"c": 0.45}),
    ("truncated-lattice", 1024, {}),
])
def test_kappa_scan_preflight_within_factor_two(family, R, params):
    cfg = resolve(ExperimentConfig(experiment="kappa-scan", R=(R,),
                                   p=(2.0, 4.0), family=family, **params))
    est = preflight_mb(cfg)
    peak_mb = traced_peak_mb(lambda: run(cfg))
    assert peak_mb / 2 <= est <= peak_mb * 2


@pytest.mark.parametrize("params", [
    dict(experiment="schrodinger-fls", family="lattice",
         R=(4096, 32768, 262144)),
    dict(experiment="bilinear", R=(64,)),
    dict(experiment="broad-narrow", R=(256,), trials=5),
    # four trials of seed 0 draw a ball or lattice Y at each (R, K)
    dict(experiment="bilinear", R=(64,), K=2, trials=4),
    dict(experiment="bilinear", R=(256,), K=2, trials=4),
    dict(experiment="bilinear", R=(256,), K=4, trials=4),
    # the other lower-bound families at their default R
    dict(experiment="schrodinger-fls", family="chirp"),
    dict(experiment="schrodinger-fls", family="packet"),
    dict(experiment="schrodinger-fls", family="nikodym"),
    dict(experiment="schrodinger-fls", family="lattice"),
    dict(experiment="certificates"),
    # the largest of the suite's parts
    dict(experiment="examples-suite"),
])
def test_pointwise_preflight_within_factor_two(params):
    cfg = resolve(ExperimentConfig(**params))
    est = preflight_mb(cfg)
    peak_mb = traced_peak_mb(lambda: run(cfg))
    if cfg.experiment == "broad-narrow":
        # the forked workers' allocations are not traced here: add, for
        # each worker, the largest peak of one trial run in-process
        trials = cli._broad_narrow_trials(cfg)
        workers = cli._trial_workers(len(trials))
        if workers > 1:
            peak_mb += workers * max(
                traced_peak_mb(lambda: cli._broad_narrow_trial(trial, cfg.K))
                for trial in trials)
    assert peak_mb / 2 <= est <= peak_mb * 2


# ---------------------------------------------------------------------------
# command line

def test_main_pass_and_files(tmp_path, capsys):
    out = str(tmp_path / "r")
    code = cli.main(["kappa-scan", "--R", "64", "--p", "2,4",
                     "--out", out, "--format", "json,md"])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS kappa-constant-identity" in captured.out
    assert os.path.exists(os.path.join(out, "kappa-scan.json"))
    assert os.path.exists(os.path.join(out, "kappa-scan.md"))


def test_main_verify_with_growth_fit_writes_files(tmp_path, capsys):
    # three R make a growth fit, which the json and csv reports must hold
    out = str(tmp_path / "r")
    code = cli.main(["envelope-verify", "--R", "4,16,64",
                     "--family", "random:constant", "--out", out,
                     "--format", "json,csv"])
    assert "PASS fit:envelope-verify-random:constant-p4" in \
        capsys.readouterr().out
    assert code == 0
    with open(os.path.join(out, "envelope-verify.json")) as fh:
        fits = json.load(fh)["fits"]
    assert [f["name"] for f in fits] == ["envelope-verify-random:constant-p4"]
    with open(os.path.join(out, "envelope-verify_fits.csv")) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2 and "slope" in lines[0]


@pytest.mark.parametrize("argv", [
    ["envelope-verify", "--R", "64", "--family", "knapp:dual-tube",
     "--p", "3,4"],
    ["bilinear", "--R", "16", "--K", "2", "--trials", "2"],
    ["schrodinger-fls", "--family", "chirp", "--p", "3",
     "--R", "64,256,1024"],
    ["certificates", "--R", "16", "--family", "delta"],
])
def test_sidecars_written_by_main_alone(tmp_path, argv, capsys,
                                        monkeypatch):
    # run() computes and writes nothing, even with out set
    monkeypatch.chdir(tmp_path)
    rep = run(ExperimentConfig(
        experiment=argv[0], out=str(tmp_path / "run"),
        **{a[2:]: cli._parse_value(a[2:], v)
           for a, v in zip(argv[1::2], argv[2::2])}))
    assert list(tmp_path.iterdir()) == []
    assert rep.sidecars
    # main writes the same sidecars whatever the format
    written = []
    for fmt in ("json", "md"):
        out = tmp_path / fmt
        assert cli.main(argv + ["--out", str(out), "--format", fmt]) == 0
        written.append({p.name for p in out.iterdir()}
                       - {f"{argv[0]}.{fmt}"})
    assert written[0] == written[1] == set(rep.sidecars)
    # stdout names the summary files only
    assert capsys.readouterr().out.count("wrote ") == 2


def test_main_config_file_with_overrides(tmp_path, capsys):
    path = tmp_path / "scan.cfg"
    path.write_text("R = 64\nlam = 0.25\n")
    code = cli.main(["kappa-scan", "--config", str(path), "--p", "2"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_main_bad_input_exits_2(capsys):
    code = cli.main(["envelope-verify", "--family", "flat:nope", "--R", "64"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_main_bad_format_exits_2_before_running(tmp_path, capsys):
    # every format is checked before the run, so no file is written
    out = tmp_path / "r"
    code = cli.main(["kappa-scan", "--R", "16", "--out", str(out),
                     "--format", "json,xml"])
    assert code == 2
    assert "unknown format 'xml'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["kappa-scan", "--R", "64.9", "--p", "2"],
    ["kappa-scan", "--R", "inf"],
    ["envelope-verify", "--R", "64", "--mem-cap-mb", "nan"],
    ["broad-narrow", "--R", "64", "--p", "nan", "--trials", "1",
     "--points", "10"],
    ["kappa-scan", "--family", "ball", "--c", "-1", "--R", "64"],
    ["certificates", "--R", "0"],
    ["certificates", "--R", "1" + "0" * 400],
    ["bilinear", "--R", "16", "--K", "0"],
    ["bilinear", "--R", "16", "--K", "1"],
    ["schrodinger-fls", "--family", "nikodym", "--p", "0"],
    ["schrodinger-fls", "--family", "packet", "--p", "inf"],
    ["schrodinger-fls", "--p", "-1"],
    ["bilinear", "--R", "16", "--trials", "0"],
    ["broad-narrow", "--R", "64", "--trials", "0", "--points", "10"],
    ["broad-narrow", "--R", "64", "--trials", "1", "--points", "0"],
    ["schrodinger-fls", "--family", "lattice", "--kappa", "0"],
    ["schrodinger-fls", "--family", "lattice", "--kappa", "-1"],
    ["schrodinger-fls", "--family", "lattice", "--kappa", "2"],
    ["schrodinger-fls", "--family", "lattice", "--kappa", "nan"],
    ["kappa-scan", "--family", "lattice", "--kappa", "-1"],
    ["kappa-scan", "--family", "lattice", "--kappa", "nan"],
    # refused by the alpha range before the preflight forms any site mask
    ["kappa-scan", "--family", "truncated-lattice", "--alpha", "100",
     "--R", "4096", "--p", "2"],
    ["kappa-scan", "--family", "truncated-lattice", "--alpha", "3",
     "--R", "65536", "--p", "2"],
    ["kappa-scan", "--family", "truncated-lattice", "--alpha", "nan",
     "--R", "4096", "--p", "2"],
], ids=["fractional-R", "infinite-R", "nan-mem-cap", "nan-p", "negative-c",
        "zero-R", "401-digit-R", "zero-K", "one-K", "fls-zero-p",
        "fls-infinite-p", "fls-negative-p", "bilinear-zero-trials",
        "broad-narrow-zero-trials", "broad-narrow-zero-points",
        "lattice-zero-kappa", "lattice-negative-kappa", "lattice-kappa-two",
        "lattice-nan-kappa", "scan-lattice-negative-kappa",
        "scan-lattice-nan-kappa", "scan-truncated-alpha-100",
        "scan-truncated-alpha-3", "scan-truncated-alpha-nan"])
def test_main_refuses_bad_numbers(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if "truncated-lattice" in argv:
        assert "alpha in (1, 2) required" in err


def test_main_allows_an_infinite_memory_cap(capsys):
    assert cli.main(["kappa-scan", "--R", "16", "--mem-cap-mb", "inf"]) == 0


def test_main_preflight_exits_2(capsys):
    code = cli.main(["envelope-verify", "--R", "4096",
                     "--family", "random:constant", "--mem-cap-mb", "50"])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


def _default_run_in_child(experiment: str) -> list:
    """[exit code, whether numpy.ma was loaded] of a default run of
    experiment in a fresh interpreter."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "from wavenvelope import cli\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         f"    code = cli.main([{experiment!r}])\n"
         "print(code, 'numpy.ma' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_envelope_verify_loads_no_numpy_ma():
    """A plain np.unique imports numpy.ma (numpy 2.4), about 12 ms of a
    run; the run paths take sorts instead."""
    assert _default_run_in_child("envelope-verify") == ["0", "False"]


def test_bilinear_loads_no_numpy_ma():
    """np.median's NaN check imports numpy.ma; bilinear takes _median."""
    assert _default_run_in_child("bilinear") == ["0", "False"]


def test_median_is_np_median_bit_for_bit():
    rng = np.random.default_rng(12)
    pools = [[0.5], [0.0, 0.0], [-0.0, 0.0], [2.0, np.nan, 1.0],
             [np.nan, 1.0], [3.0, 1.0, 3.0, 1.0]]
    for n in range(1, 14):
        pools += [rng.standard_normal(n).tolist(),
                  rng.integers(0, 3, n).astype(float).tolist(),
                  (rng.uniform(0.0, 1.0, n) * 1e-300).tolist()]
    for pool in pools:
        got, want = cli._median(pool), np.median(pool)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), pool


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency: the CLI loads no scipy."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wavenvelope.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["schrodinger-fls", "--family", "lattice", "--R", "4096,16384,32768"],
    ["bilinear", "--R", "16"],
    ["envelope-verify", "--R", "256", "--family", "random:constant",
     "--p", "2,4"],
    ["certificates", "--R", "64"],
    # scattered lattice sums: the theta pieces and an atomic lhs
    ["broad-narrow", "--R", "64,256", "--trials", "3", "--points", "2000"],
    ["envelope-verify", "--R", "64,256", "--family", "random:ball"],
])
def test_report_bytes_independent_of_blas_threads(tmp_path, argv):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run(
            [sys.executable, "-m", "wavenvelope.cli", *argv, "--out",
             str(out), "--format", "json"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / f"{argv[0]}.json").read_bytes())
    assert reports[0] == reports[1]


def test_unit_ball_fits_form_theta_pairs_once_per_R(monkeypatch):
    # the theta pieces' pair products are formed once per R and serve
    # ||S||_p at every p != 2
    formed = []
    real = torus.pair_products

    def counted(pieces):
        pieces = list(pieces)
        formed.append(len(pieces))
        return real(pieces)

    monkeypatch.setattr(torus, "pair_products", counted)
    monkeypatch.setattr(envelope, "pair_products", counted)
    R_values = (16, 64, 256)
    cli.unit_ball_fits((2.0, 3.0, 4.0), R_values)
    assert formed == [len(cli.cap_decompose(cli.flat_field(GridSpec(R)),
                                            theta_scale(R)))
                      for R in R_values]


def test_pair_rows_build_each_weight_once_per_R(monkeypatch):
    # every p of a verify run reads one field and one weight per R, and
    # the rows match separate runs of each (p, R), p by p
    built = []
    real = cli.make_weight

    def counted(*args, **kwargs):
        built.append(args[1].R)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "make_weight", counted)
    cfg = resolve(ExperimentConfig(experiment="envelope-verify", R=(16, 64),
                                   p=(2.0, 3.0, 4.0),
                                   family="knapp:dual-tube"))
    rows = cli._pair_rows(cfg, "ratio_env")[0]
    assert built == [16, 64]
    assert [(r["p"], r["R"]) for r in rows] == \
        [(p, R) for p in cfg.p for R in cfg.R]
    ffam, wfam, _ = PAIR_FAMILIES[cfg.family]
    keys = ("lhs", "sq_norm", "kappa_max", "sq_rhs", "env_rhs", "ratio_sq",
            "ratio_env", "zero_field")
    for row in rows:
        spec = GridSpec(row["R"])
        rep = verify_weighted_sq(make_field(ffam, spec, cfg.seed),
                                 real(wfam, spec), row["p"])
        assert [row[k] for k in keys] == [getattr(rep, k) for k in keys]


# ---------------------------------------------------------------------------
# golden predictions

def test_predicted_exponents_match_golden():
    """The example families' predicted exponents, frozen once verified.

    Grids here are small; predictions do not depend on the grid, so any
    drift means a formula changed.
    """
    with open(os.path.join(GOLDEN, "predictions.json")) as fh:
        golden = json.load(fh)
    from wavenvelope.cli import (alpha_lattice_fits, unit_ball_fits,
                                 y_lattice_fits)
    from wavenvelope.schrodinger import fls_experiment, nikodym_experiment

    fits = []
    fits += unit_ball_fits((2.0, 3.0, 4.0), (16, 64, 256))
    fits += alpha_lattice_fits((2.0, 3.0, 4.0), (16, 64, 256))
    fits += y_lattice_fits(R_values=(256, 1024, 4096))
    for p in (3.0, 4.0):
        fits.append(fls_experiment("chirp", p, R_values=(64, 256, 1024)))
    for alpha in (0.5, 1.5):
        fits.append(fls_experiment("packet", 4.0,
                                   R_values=(256, 1024, 4096), alpha=alpha))
    for p in (3.0, 4.0):
        fits.append(fls_experiment("lattice", p,
                                   R_values=(6 ** 6, 8 ** 6, 10 ** 6)))
    for q in (2.0, 4.0):
        fits.append(nikodym_experiment(q, (16, 64, 256)))

    assert {f.name for f in fits} == set(golden)
    for f in fits:
        g = golden[f.name]
        assert f.exponent == g["exponent"], f.name
        assert f.prediction == pytest.approx(g["prediction"], abs=1e-12)
        assert f.sided == g["sided"], f.name
        assert f.band == g["band"], f.name
