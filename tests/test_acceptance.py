"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test is independent and prints a single pass/fail line under
pytest -v.  Numbered to match the criteria list in the README; the whole
file runs in 26-29 s on a 2-vCPU Xeon VM, about 8 s of it criterion 3,
5-6 s criterion 2 and 3-4 s criterion 12.
"""

import math
import os

import numpy as np
import pytest

from oracles import grid_lp, materialize, scaled
from test_envelope import brute_kappa_max

from wavenvelope.cli import (ExperimentConfig, PAIR_FAMILIES, _json_text,
                             alpha_lattice_fits, emit, pair_growth_fit,
                             resolve, run, unit_ball_fits, y_lattice_fits)
from wavenvelope.envelope import kappa_max, kappa_table
from wavenvelope.geometry import caps_at_scale, dyadic_scales
from wavenvelope.measures import GridMeasure, constant_weight, make_weight
from wavenvelope.schrodinger import (MEASURE_FAMILIES, fls_experiment,
                                     measure_family, rescale_measure)
from wavenvelope.torus import GridSpec, l2sq_coeff, lp_norm, random_band_field


def test_criterion_01_quadrature_exactness():
    """Grid quadrature matches coefficient-domain norms for random fields."""
    for R in (16, 64):
        spec = GridSpec(R)
        for seed in range(10):
            f = random_band_field(spec, seed=seed, density=0.5)
            # Parseval at p = 2, by the coefficients and on the M grid
            assert lp_norm(f, 2.0) ** 2 == pytest.approx(
                l2sq_coeff(f), rel=1e-9)
            assert grid_lp(f.samples_on(spec.M), spec.L, 2.0) ** 2 == \
                pytest.approx(l2sq_coeff(f), rel=1e-9)
            # quartic norm against the coefficient self-convolution
            conv = {}
            for (k1, k2), ak in zip(f.freqs, f.amps):
                for (l1, l2), al in zip(f.freqs, f.amps):
                    key = (k1 + l1, k2 + l2)
                    conv[key] = conv.get(key, 0.0) + ak * al
            oracle = spec.L ** 2 * sum(abs(c) ** 2 for c in conv.values())
            assert lp_norm(f, 4.0) ** 4 == pytest.approx(oracle, rel=1e-8)
            assert grid_lp(f.samples_on(spec.M), spec.L, 4.0) ** 4 == \
                pytest.approx(oracle, rel=1e-8)


def test_criterion_02_kappa_identities():
    """kappa_{p,lam}(U) = lam^(1/p) for constant densities, every envelope."""
    for R in (64, 256):
        spec = GridSpec(R)
        H = materialize(constant_weight(spec, 1.0))
        for p in (2.0, 3.0, 4.0):
            for s in dyadic_scales(R):
                for cap in caps_at_scale(s):
                    _, vals, _ = kappa_table(H, p, cap)
                    assert np.max(np.abs(vals - 1.0)) <= 1e-12, (R, p, s, cap.k)
    # constant sentinel, including mass above weight normalization
    spec = GridSpec(64)
    for lam in (1.0, 0.25, 0.7):
        H = constant_weight(spec, lam)
        for p in (2.0, 3.0, 4.0):
            assert kappa_max(H, p)[0] == lam ** (1.0 / p)
    H = scaled(constant_weight(spec, 1.0), 2.5)
    for p in (2.0, 3.0, 4.0):
        assert kappa_max(H, p)[0] == 2.5 ** (1.0 / p)
    # scaled + materialized agrees with the sentinel through the full scan
    Hm = materialize(constant_weight(spec, 0.25))
    for p in (2.0, 3.0, 4.0):
        assert kappa_max(Hm, p)[0] == pytest.approx(0.25 ** (1.0 / p),
                                                    abs=1e-12)


def test_criterion_03_kappa_brute_force_equivalence():
    """Scan equals exhaustive (s, cap, envelope, tube) enumeration at R=64.

    The reference enumeration does not wrap tube indices, so every weight
    here is supported away from the periodization seam; the max is still
    attained in the interior for the translation-invariant constant.
    """
    spec = GridSpec(64)
    mid = 0.5 * spec.L
    rng = np.random.default_rng(11)
    ij = np.unique(rng.integers(spec.M // 4, 3 * spec.M // 4, size=(60, 2)),
                   axis=0)
    weights = [
        materialize(make_weight("constant", spec, lam=1.0)),
        make_weight("ball", spec, rho=2.0, center=(mid, mid)),
        make_weight("truncated-lattice", spec, alpha=1.5, c=0.25),
        make_weight("parabolic-box", spec,
                    boxes=((mid, mid, 2.0), (mid + 8.0, mid + 3.0, 1.0))),
        GridMeasure(spec, ij, spec.delta ** 2 * rng.uniform(0.1, 1.0, len(ij)),
                    "weight", "custom"),
    ]
    for H in weights:
        for p in (2.0, 3.0, 4.0):
            fast, _ = kappa_max(H, p)
            ref = brute_kappa_max(H, p)
            assert abs(fast - ref) <= 1e-12 * max(ref, 1.0), (H.label, p)


def test_criterion_04_unit_ball_sharpness():
    """Both unit-ball ratios scale like R^(-2(1/p - 1/4)) within 0.1."""
    fits = unit_ball_fits((2.0, 3.0, 4.0), (64, 256, 1024))
    assert len(fits) == 6
    for f in fits:
        p = float(f.name.rsplit("p", 1)[1])
        assert f.prediction == pytest.approx(-2.0 * (1.0 / p - 0.25))
        assert abs(f.slope - f.prediction) <= 0.1, f.name
        assert f.passed, f.name


def test_criterion_05_alpha_lattice_upper_bound():
    """Lattice weight at kappa=1/3: slope <= -(2-alpha)(1/p - 1/4) + 0.1."""
    fits = alpha_lattice_fits((2.0, 3.0, 4.0), (64, 256, 1024))
    alpha = 1.0
    for f in fits:
        p = float(f.name.rsplit("p", 1)[1])
        assert f.prediction == pytest.approx(-(2.0 - alpha) * (1.0 / p - 0.25))
        assert f.slope <= f.prediction + 0.1, f.name
        assert f.passed, f.name


def test_criterion_06_truncated_lattice_piecewise():
    """Corner lattice at alpha=3/2 follows both branches of the kink."""
    fits = y_lattice_fits()
    alpha = 1.5
    p_cross = 4.0 / (3.0 - alpha)
    below = above = 0
    for f in fits:
        p = float(f.name.rsplit("p", 1)[1])
        if p <= p_cross:
            below += 1
            assert f.prediction == pytest.approx(-(2.0 - alpha) / (2.0 * p))
        if p >= p_cross:
            above += 1
            assert f.prediction == pytest.approx(
                -((3.0 - alpha) / 2.0) * (1.0 / p - 0.25))
        assert abs(f.slope - f.prediction) <= 0.1, f.name
        assert f.passed, f.name
    assert below >= 2 and above >= 2


def test_criterion_07_broad_narrow_pointwise():
    """Pointwise split holds with the derived constant at every sample."""
    rep = run(ExperimentConfig(experiment="broad-narrow", R=(64, 256),
                               p=(4.0,), K=4, trials=10, points=10000))
    assert len(rep.rows) == 20
    assert all(r["violations"] == 0 for r in rep.rows)
    assert rep.passed


def test_criterion_08_bilinear_constants():
    """100 separated pairs: finite constants, stable across R, l4 bound."""
    for K in (2, 4):
        rep = run(ExperimentConfig(experiment="bilinear", R=(64, 256),
                                   K=K, trials=25))
        assert len(rep.rows) == 50
        names = {c["name"]: c for c in rep.checks}
        assert names["bilinear-constants-finite"]["passed"]
        assert names["bilinear-l4-inequality"]["passed"]
        assert names["bilinear-variation"]["passed"]
        assert rep.passed


def test_criterion_09_weighted_envelope_growth():
    """Every built-in (field, weight) pair: lhs^p/rhs grows slower than R^0.1."""
    for pair in PAIR_FAMILIES:
        fit = pair_growth_fit(pair, (64, 256, 1024))
        assert fit.slope <= 0.1, (pair, fit.slope)
        assert fit.passed, pair


def test_criterion_10_propagator_lower_bounds():
    """Extremizer families reproduce the predicted scaling exponents."""
    for p in (3.0, 4.0):
        f = fls_experiment("chirp", p)
        assert f.prediction == pytest.approx(0.5 - 1.0 / p)
        assert abs(f.slope - f.prediction) <= 0.1, f.name
    for alpha in (0.5, 1.5):
        f = fls_experiment("packet", 4.0, alpha=alpha)
        assert f.prediction == pytest.approx(
            min(alpha, 2.0 * alpha - 1.0) / 8.0)
        assert abs(f.slope - f.prediction) <= 0.1, f.name
    for p in (3.0, 4.0):
        f = fls_experiment("lattice", p)
        alpha = 1.0  # kappa = 1/3 lattice is alpha-dimensional at alpha = 1
        assert f.prediction == pytest.approx(
            -(2.0 - alpha) * (1.0 / p - 1.0 / 6.0))
        assert abs(f.slope - f.prediction) <= 0.1, f.name


def _dyadic_radii_ref(r_min, r_max):
    lo = math.floor(math.log2(max(r_min, 1e-300)))
    hi = math.ceil(math.log2(max(r_max, r_min) * (1 + 1e-9)))
    return [2.0 ** e for e in range(lo, hi + 1)]


def _brute_certificate(pos, mass, mode, param, r_min, r_max):
    """Independent dyadic-supremum search: sorted entry radii + prefix sums."""
    best = 0.0
    for c in pos:
        if mode == "alpha-ball":
            key = np.sum((pos - c) ** 2, axis=1)
        else:  # parabolic boxes: atom enters once rho covers both axes
            key = np.maximum(np.abs(pos[:, 0] - c[0]),
                             np.sqrt(np.abs(pos[:, 1] - c[1]))) ** 2
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        prefix = np.concatenate([[0.0], np.cumsum(mass[order])])
        for rho in _dyadic_radii_ref(r_min, r_max):
            k = np.searchsorted(sorted_key, (rho * (1 + 1e-12)) ** 2,
                                side="right")
            best = max(best, float(prefix[k]) * rho ** -param)
    return best


def test_criterion_11_measure_rescaling_bounds():
    """Dimension-norm drop under (x,t) -> (Rx, R^2 t), factor 8, brute at 64."""
    for R in (64, 256):
        for name in MEASURE_FAMILIES:
            pos, mass, beta, alpha, spacing = measure_family(name)
            pos_R, comps = rescale_measure(pos, mass, R, beta=beta,
                                           alpha=alpha, spacing=spacing)
            assert len(comps) == 2
            for comp in comps:
                assert 0.0 < comp["ratio"] <= 8.0, (name, R, comp["kind"])
                assert comp["ratio"] == pytest.approx(
                    comp["measured"]
                    / (comp["base_norm"] * R ** comp["scale_exponent"]))
                if R != 64:
                    continue
                # replicate the search domains, then brute both suprema
                hx, ht = (0.0, 0.0) if spacing is None else spacing
                r_min_out = max(1.0, R * hx, R * R * ht)
                span = float(np.max(np.abs(pos_R)))
                r_max_out = max(2.0 * span, 2.0 * r_min_out)
                src_span = max(float(np.max(np.abs(pos))), 1.0)
                meas_ref = _brute_certificate(
                    pos_R, mass, "alpha-ball", comp["target_index"],
                    r_min_out, r_max_out)
                assert comp["measured"] == pytest.approx(meas_ref, rel=1e-12)
                if comp["kind"] == "parabolic":
                    base_rmin = max(math.sqrt(max(hx, ht)), hx, ht) \
                        if max(hx, ht) > 0 else 1e-9
                    base_mode = "beta-par"
                else:
                    base_rmin = max(hx, ht) if max(hx, ht) > 0 else 1e-9
                    base_mode = "alpha-ball"
                base_ref = _brute_certificate(pos, mass, base_mode,
                                              comp["param"], base_rmin,
                                              2.0 * src_span)
                assert comp["base_norm"] == pytest.approx(base_ref, rel=1e-12)


def test_criterion_12_deterministic_suite_reproducible(tmp_path):
    """Two deterministic example-suite runs emit byte-identical artifacts."""
    cfg = ExperimentConfig(experiment="examples-suite")
    reports = [run(cfg), run(cfg)]
    assert _json_text(reports[0].to_dict()) == \
        _json_text(reports[1].to_dict())
    assert reports[0].passed
    assert len(reports[0].fits) == 21
    assert all(c["passed"] for c in reports[0].checks)
    outs = []
    for i, rep in enumerate(reports):
        d = tmp_path / f"run{i}"
        d.mkdir()
        paths = []
        for fmt in ("json", "csv", "md"):
            paths += emit(rep, fmt, d)
        outs.append(sorted(paths))
    assert [os.path.basename(p) for p in outs[0]] \
        == [os.path.basename(p) for p in outs[1]]
    for a, b in zip(*outs):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), a
