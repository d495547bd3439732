"""Runner tests: config round trips, experiment pipelines, reports.

The heavier pipelines run at reduced scales here; the full acceptance
grids live in test_acceptance.py.
"""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import wavenvelope.cli as cli
from wavenvelope.cli import (ExperimentConfig, PAIR_FAMILIES, PreflightError,
                             Report, emit, make_field, pair_report,
                             parse_config_text, preflight_mb, read_config,
                             resolve, run)
from wavenvelope.geometry import mode_cap_index, theta_scale
from wavenvelope.torus import GridSpec, parabola_band_modes

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# ---------------------------------------------------------------------------
# configuration

def test_config_round_trip_byte_identical():
    cfg = ExperimentConfig(experiment="kappa-scan", R=(64, 256),
                           p=(2.0, 2.5), c=0.3, deterministic=True)
    text = cfg.canonical()
    again = ExperimentConfig(**parse_config_text(text))
    assert again == cfg
    assert again.canonical() == text


def test_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig(experiment="bilinear", R=(64,), trials=3, seed=9)
    path = tmp_path / "run.cfg"
    cfg.write(path)
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
    with pytest.raises(ValueError, match="true or false"):
        parse_config_text("deterministic = maybe")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just words")


# a non-default value of every field but experiment, as config text
_FIELD_TEXT = {
    "R": "16,64", "p": "2.5,3", "K": "3", "family": "ball",
    "kappa": "0.25", "alpha": "1.25", "c": "0.3", "lam": "0.5", "seed": "7",
    "trials": "3", "points": "50", "band": "0.05", "out": "runs/x",
    "deterministic": "true", "mem_cap_mb": "100.5",
}


def test_flags_parse_like_config_lines():
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(_FIELD_TEXT) == sorted(n for n in names
                                         if n != "experiment")
    parser = argparse.ArgumentParser()
    cli._add_flags(parser)
    default = ExperimentConfig(experiment="kappa-scan")
    for key, text in _FIELD_TEXT.items():
        flag = "--" + key.replace("_", "-")
        argv = [flag] if key == "deterministic" else [flag, text]
        args = parser.parse_args(argv)
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
    f = make_field("knapp", spec)
    s = theta_scale(64)
    assert np.all(mode_cap_index(f.freqs, spec, s) == 0)
    assert np.sum(f.amps) == pytest.approx(1.0, rel=1e-12)
    # one mode per frequency column
    assert len(np.unique(f.freqs[:, 0])) == f.n_modes


def test_spread_field_one_mode_per_cap():
    spec = GridSpec(64)
    f = make_field("spread", spec, seed=3)
    s = theta_scale(64)
    ki = mode_cap_index(f.freqs, spec, s)
    assert len(np.unique(ki)) == f.n_modes
    covered = np.unique(mode_cap_index(parabola_band_modes(spec), spec, s))
    assert f.n_modes == len(covered)
    assert np.allclose(np.abs(f.amps), 1.0)


def test_make_field_rejects_unknown():
    with pytest.raises(ValueError, match="unknown field family"):
        make_field("sawtooth", GridSpec(16))


def test_pair_report_rejects_unknown():
    with pytest.raises(ValueError, match="unknown pair"):
        pair_report("random:nope", 64)


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


def test_kappa_scan_rejects_unknown_family():
    with pytest.raises(ValueError, match="no weight family"):
        run(ExperimentConfig(experiment="kappa-scan", R=(64,),
                             family="hexagon"))


def test_envelope_verify_rows_and_sidecar(tmp_path):
    cfg = ExperimentConfig(experiment="envelope-verify", R=(64,),
                           family="knapp:dual-tube", out=str(tmp_path))
    rep = run(cfg)
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


def test_bilinear_experiment(tmp_path):
    rep = run(ExperimentConfig(experiment="bilinear", R=(64,), K=2,
                               trials=4, out=str(tmp_path)))
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
                           p=(3.0,), R=(64, 256, 1024), out=str(tmp_path))
    rep = run(cfg)
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
    rep = run(ExperimentConfig(experiment="certificates", R=(64,),
                               out=str(tmp_path)))
    assert rep.passed
    assert len(rep.rows) == 8  # four families, two norms each
    assert all(r["within"] for r in rep.rows)
    assert (tmp_path / "certificates_delta_R64.json").exists()


# ---------------------------------------------------------------------------
# reports and emission

def _tiny_report():
    return run(ExperimentConfig(experiment="kappa-scan", R=(64,), p=(2.0,)))


def test_report_json_shape():
    rep = _tiny_report()
    data = json.loads(rep.to_json())
    assert data["schema"] == cli.SCHEMA_VERSION
    assert data["config"]["experiment"] == "kappa-scan"
    assert data["config_hash"] == ExperimentConfig(
        experiment="kappa-scan", R=(64,), p=(2.0,),
        family="constant").content_hash()
    assert data["passed"] is True


def test_two_runs_byte_identical():
    assert _tiny_report().to_json() == _tiny_report().to_json()


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
    cfg = ExperimentConfig(experiment="envelope-verify", R=(64, 1024),
                           family="random:constant", mem_cap_mb=100.0)
    with pytest.raises(PreflightError) as err:
        run(cfg)
    assert err.value.estimate_mb > 100.0


@pytest.mark.parametrize("R,pair", [(64, "knapp:dual-tube"),
                                    (64, "knapp:constant"),
                                    (256, "random:ball"),
                                    (256, "random:constant"),
                                    (1024, "knapp:dual-tube")])
def test_preflight_within_factor_two(R, pair):
    cfg = resolve(ExperimentConfig(experiment="envelope-verify", R=(R,),
                                   family=pair))
    est = preflight_mb(cfg)
    tracemalloc.start()
    run(cfg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mb = peak / 2 ** 20
    assert peak_mb / 2 <= est <= peak_mb * 2


@pytest.mark.parametrize("family,R,params", [
    ("dual-tube", 64, {}),
    ("dual-tube", 256, {}),
    ("ball", 256, {"c": 20.0}),
    ("lattice", 1024, {"c": 0.45}),
    ("truncated-lattice", 4096, {}),
])
def test_kappa_scan_preflight_within_factor_two(family, R, params):
    cfg = resolve(ExperimentConfig(experiment="kappa-scan", R=(R,),
                                   p=(2.0, 4.0), family=family, **params))
    est = preflight_mb(cfg)
    tracemalloc.start()
    run(cfg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mb = peak / 2 ** 20
    assert peak_mb / 2 <= est <= peak_mb * 2


@pytest.mark.parametrize("params", [
    dict(experiment="schrodinger-fls", family="lattice",
         R=(4096, 32768, 262144)),
    dict(experiment="bilinear", R=(64,)),
    dict(experiment="broad-narrow", R=(256,), trials=5),
])
def test_pointwise_preflight_within_factor_two(params):
    cfg = resolve(ExperimentConfig(**params))
    est = preflight_mb(cfg)
    tracemalloc.start()
    run(cfg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mb = peak / 2 ** 20
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


def test_main_preflight_exits_2(capsys):
    code = cli.main(["envelope-verify", "--R", "1024",
                     "--family", "random:constant", "--mem-cap-mb", "50"])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


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
