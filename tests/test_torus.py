"""Band-limited synthesis and norms against independent oracles.

The load-bearing checks are the ones with a second computational route:
point_eval (direct trig sums) against the FFT grid, Parseval against the
grid quadrature, and the quartic norm against coefficient convolution.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavenvelope.torus import (
    GridSpec, grid_lp, l2sq_coeff, lp_norm, parabola_band_modes, point_eval,
    power_integral, random_band_field, square_sum, synthesize,
)
from wavenvelope.cli import make_field
from wavenvelope.envelope import cap_decompose
from wavenvelope.geometry import theta_scale
from wavenvelope.measures import GridMeasure, constant_weight

from oracles import (analyze, concatenated_square_sum, grid_constant_lp,
                     read_back_coeffs, sq_norm_from_sq2, square_function,
                     square_sum_samples)

SPEC4 = GridSpec(4)
SPEC16 = GridSpec(16)


def test_gridspec_defaults():
    assert SPEC16.L == 64.0 and SPEC16.M == 128
    assert SPEC16.delta == 0.5
    assert SPEC16.freq_step == 2.0 * math.pi / 64.0
    ax = np.arange(SPEC16.M) * SPEC16.delta
    assert len(ax) == 128 and ax[1] - ax[0] == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [3, 8, 2, 0, -4])
def test_gridspec_rejects_non_power_of_four(bad):
    with pytest.raises(ValueError):
        GridSpec(bad)


def test_parabola_band_membership():
    modes = parabola_band_modes(SPEC16)
    xi = SPEC16.freq_step * modes
    assert np.all(np.abs(xi[:, 0]) <= 1 + 1e-9)
    assert np.all(np.abs(xi[:, 1] - xi[:, 0] ** 2) <= 1.0 / SPEC16.R + 1e-9)


def test_parabola_band_count_oracle():
    # brute-force double loop over a safe window
    step = SPEC4.freq_step
    n_max = int(2.0 / step) + 2
    count = 0
    for n1 in range(-n_max, n_max + 1):
        for n2 in range(-n_max, n_max + 1):
            x1, x2 = step * n1, step * n2
            if abs(x1) <= 1 + 1e-9 and abs(x2 - x1 * x1) <= 1 / SPEC4.R + 1e-9:
                count += 1
    assert len(parabola_band_modes(SPEC4)) == count


def test_synthesize_rejections():
    with pytest.raises(ValueError, match="duplicate"):
        synthesize([[0, 0], [0, 0]], [1.0, 1.0], SPEC16)
    with pytest.raises(ValueError, match="band"):
        synthesize([[0, 40]], [1.0], SPEC16)
    with pytest.raises(ValueError, match="off-lattice"):
        synthesize(np.array([[0.5, 0.0]]), [1.0], SPEC16)


def test_point_eval_matches_fft_grid():
    f = random_band_field(SPEC16, seed=0)
    S = f.samples
    rng = np.random.default_rng(1)
    jj = rng.integers(0, SPEC16.M, size=(20, 2))
    pts = SPEC16.delta * jj.astype(float)
    direct = point_eval(f, pts)
    assert np.max(np.abs(direct - S[jj[:, 0], jj[:, 1]])) < 1e-10 * f.n_modes


def test_parseval_exact():
    f = random_band_field(SPEC16, seed=2)
    grid = grid_lp(f.samples, SPEC16.L, 2.0) ** 2
    assert grid == pytest.approx(l2sq_coeff(f), rel=1e-12)


def test_quartic_norm_by_coefficient_convolution():
    # ||f||_4^4 = L^2 sum_n |c_n|^2 where c = a * a (Fourier of f^2);
    # exact on the grid because M clears the doubled bandwidth.
    f = random_band_field(SPEC4, seed=3)
    conv = {}
    for (k1, k2), ak in zip(f.freqs, f.amps):
        for (l1, l2), al in zip(f.freqs, f.amps):
            key = (k1 + l1, k2 + l2)
            conv[key] = conv.get(key, 0.0) + ak * al
    oracle = SPEC4.L ** 2 * sum(abs(c) ** 2 for c in conv.values())
    assert lp_norm(f, 4.0) ** 4 == pytest.approx(oracle, rel=1e-11)


def test_lp_norm_p_range():
    f = synthesize(np.zeros((1, 2), dtype=np.int64), [1.0], SPEC4)
    with pytest.raises(ValueError):
        lp_norm(f, 1.5)
    with pytest.raises(ValueError):
        lp_norm(f, 5.0)


def test_weighted_norm_is_atomic_sum():
    f = random_band_field(SPEC4, seed=4)
    rng = np.random.default_rng(5)
    ij = np.unique(rng.integers(0, SPEC4.M, size=(12, 2)), axis=0)
    mass = rng.uniform(0.1, 1.0, size=len(ij))
    mu = GridMeasure(SPEC4, ij, mass)
    vals = point_eval(f, SPEC4.delta * mu.ij.astype(float))
    oracle = float(np.sum(np.asarray(mu.mass) * np.abs(vals) ** 3)) ** (1 / 3)
    assert lp_norm(f, 3.0, measure=mu) == pytest.approx(oracle, rel=1e-12)


def test_constant_weight_norm_factorizes():
    f = random_band_field(SPEC4, seed=6)
    w = constant_weight(SPEC4, lam=0.25)
    for p in (2.0, 4.0):
        assert lp_norm(f, p, measure=w) == \
            pytest.approx(0.25 ** (1 / p) * lp_norm(f, p), rel=1e-12)


def test_norm_homogeneity():
    f = random_band_field(SPEC4, seed=7)
    g = synthesize(f.freqs, (3.0 - 4.0j) * f.amps, SPEC4)
    for p in (2.0, 3.0, 4.0):
        assert lp_norm(g, p) == pytest.approx(5.0 * lp_norm(f, p), rel=1e-12)


def test_read_back_coeffs_identity():
    f = random_band_field(SPEC16, seed=8)
    assert np.max(np.abs(read_back_coeffs(f) - f.amps)) < 1e-12


def test_analyze_inverts_synthesize():
    f = random_band_field(SPEC4, seed=9)
    freqs, amps = analyze(f.samples, SPEC4)
    assert np.array_equal(freqs, f.freqs)
    assert np.max(np.abs(amps - f.amps)) < 1e-12


def test_analyze_zero_field():
    freqs, amps = analyze(np.zeros((SPEC4.M, SPEC4.M), dtype=complex), SPEC4)
    assert len(freqs) == 0 and len(amps) == 0


def test_random_field_determinism():
    a = random_band_field(SPEC16, seed=42)
    b = random_band_field(SPEC16, seed=42)
    c = random_band_field(SPEC16, seed=43)
    assert np.array_equal(a.amps, b.amps)
    assert not np.array_equal(a.amps, c.amps)


def test_density_thins_modes():
    full = random_band_field(SPEC16, seed=1)
    thin = random_band_field(SPEC16, seed=1, density=0.3)
    assert 0 < thin.n_modes < full.n_modes


def test_samples_on_finer_grid_consistent():
    f = random_band_field(SPEC4, seed=12)
    coarse = f.samples
    fine = f.samples_on(2 * SPEC4.M)
    assert np.max(np.abs(fine[::2, ::2] - coarse)) < 1e-12


BAND4 = parabola_band_modes(SPEC4)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_synthesis_analyze_roundtrip_property(data):
    n = data.draw(st.integers(1, min(8, len(BAND4))))
    idx = data.draw(st.permutations(range(len(BAND4))))[:n]
    # magnitudes bounded away from 0 so analyze's relative cut keeps them
    mag = data.draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    ph = data.draw(st.lists(st.floats(0, 6.28), min_size=n, max_size=n))
    amps = np.asarray(mag) * np.exp(1j * np.asarray(ph))
    f = synthesize(BAND4[list(idx)], amps, SPEC4)
    freqs, back = analyze(f.samples, SPEC4, tol=1e-9)
    lookup = {tuple(fr): a for fr, a in zip(freqs, back)}
    for fr, a in zip(f.freqs, f.amps):
        assert abs(lookup.get(tuple(fr), 0.0) - a) < 1e-9 * max(1, abs(a))


@pytest.mark.parametrize("R", [16, 64, 256])
@pytest.mark.parametrize("family", ["random", "flat", "knapp", "spread"])
def test_constant_weight_lhs_coefficient_identity(R, family):
    # p = 2 and 4 take the coefficient identity; the oracle is the full
    # M x M grid quadrature, exact for these p
    spec = GridSpec(R)
    f = make_field(family, spec, seed=R)
    S = f.samples_on(spec.M, cache=False)
    for p in (2.0, 4.0):
        grid = grid_lp(S, spec.L, p)
        for lam in (0.0, 0.25, 1.0):
            got = lp_norm(f, p, measure=constant_weight(spec, lam=lam))
            assert got == pytest.approx(lam ** (1 / p) * grid, rel=1e-13,
                                        abs=0.0)


@pytest.mark.parametrize("R", [16, 64])
def test_constant_weight_lhs_other_p_is_grid_sum(R):
    f = random_band_field(GridSpec(R), seed=8)
    for lam in (0.25, 1.0):
        w = constant_weight(f.spec, lam=lam)
        assert lp_norm(f, 3.0, measure=w) == grid_constant_lp(f, 3.0, w.mass)


@pytest.mark.parametrize("R", [16, 64, 256])
@pytest.mark.parametrize("family", ["random", "flat", "knapp", "spread"])
def test_power_integral_exact_forms_match_grid(R, family):
    # p = 2 and 4 take Parseval; the oracle is the M x M grid quadrature of
    # the sum of squares, exact for these p, on the theta pieces and on the
    # whole field
    spec = GridSpec(R)
    f = make_field(family, spec, seed=R)
    pieces = list(cap_decompose(f, theta_scale(R)).pieces.values())
    cases = ((pieces, square_function(f, theta_scale(R))),
             ([f], np.abs(f.samples_on(spec.M, cache=False))))
    for pcs, S in cases:
        for p in (2.0, 4.0):
            got = power_integral(pcs, spec, p, spec.M)
            want = grid_lp(S, spec.L, p) ** p
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("R", [16, 64, 256])
def test_power_integral_other_p_is_grid_sum(R):
    # bit for bit the m-grid quadrature of the sampled sum of squares
    spec = GridSpec(R)
    f = random_band_field(spec, seed=R)
    pieces = list(cap_decompose(f, theta_scale(R)).pieces.values())
    for m in (2 * R, spec.M):
        S2 = square_sum_samples(pieces, spec, m)
        for p in (2.5, 3.0):
            assert power_integral(pieces, spec, p, m) ** (1.0 / p) \
                == sq_norm_from_sq2(S2, spec.L, p)


@pytest.mark.parametrize("family", ["random", "flat", "knapp", "spread"])
@pytest.mark.parametrize("whole", [True, False])
def test_square_sum_matches_concatenated_oracle(family, whole):
    # bit for bit, on the whole field and on its theta pieces
    spec = GridSpec(64)
    f = make_field(family, spec, seed=5)
    pieces = [f] if whole else \
        list(cap_decompose(f, theta_scale(spec.R)).pieces.values())
    delta, coef = concatenated_square_sum(pieces)
    got = square_sum(pieces, spec)
    assert np.array_equal(got.freqs, delta)
    assert np.array_equal(got.amps, coef)


def test_square_sum_peak_per_mode_pair():
    # the whole-field autocorrelation of the constant-weight lhs at p = 4:
    # at most 80 bytes per (mode, mode) pair at its traced peak
    spec = GridSpec(256)
    f = random_band_field(spec, seed=0)
    tracemalloc.start()
    try:
        got = square_sum([f], spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 80 * f.n_modes ** 2
    delta, coef = concatenated_square_sum([f])
    assert np.array_equal(got.freqs, delta)
    assert np.array_equal(got.amps, coef)
