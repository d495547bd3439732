import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavenvelope import measures as ms
from wavenvelope.measures import lattice_sites
from wavenvelope import torus
from wavenvelope.torus import trig_sum
from wavenvelope import cli, schrodinger as sch

from oracles import (direct_trig_sum, fft_packet_slab, fsum_grid_trig_sum,
                     grid_points, nikodym_max_fsum, nikodym_max_loop,
                     pointwise_lattice_ratio)


# ---------------------------------------------------------------------------
# time cutoff and bump profile

def test_eta_values():
    assert sch.eta(0.0) == 1.0
    assert sch.eta(-1.0) == sch.eta(1.0)
    t = np.linspace(-1.0, 1.0, 201)
    assert np.min(sch.eta(t)) > 0.91
    assert np.all(sch.eta(np.linspace(-50, 50, 999)) >= 0.0)


def test_eta_transform_matches_triangle():
    # independent oracle: trapezoid quadrature of the defining integral
    t = np.linspace(-3000.0, 3000.0, 600001)
    for w in (0.0, 0.3, 0.9, 1.2, 2.0):
        numeric = np.trapezoid(sch.eta(t) * np.exp(-1j * w * t), t)
        assert abs(numeric - 2.0 * np.pi * max(1.0 - abs(w), 0.0)) < 3e-3


def test_bump_and_ring_profiles():
    assert sch.smooth_bump(0.625, 0.25, 1.0) == 1.0
    assert sch.smooth_bump(0.25, 0.25, 1.0) == 0.0
    assert sch.smooth_bump(1.0, 0.25, 1.0) == 0.0


# ---------------------------------------------------------------------------
# propagation

def test_delta_mode_is_cutoff_times_constant():
    R = 64
    times = np.linspace(0, R, 9)
    mod = np.abs(sch.propagate([0.0], [1.0], R, 8.0 * R, 32, times))
    assert np.max(np.ptp(mod, axis=1)) == 0.0
    assert np.max(np.abs(mod[:, 0] - np.abs(sch.eta(times / R)))) == 0.0


def test_single_mode_unimodular():
    R, L = 64, 512.0
    step = 2 * np.pi / L
    times = np.array([0.0, 10.0, 60.0])
    rows = sch.propagate([40 * step], [1.0 + 0j], R, L, 128, times)
    target = np.abs(sch.eta(times / R))[:, None]
    assert np.max(np.abs(np.abs(rows) - target)) < 1e-12


def test_slices_match_direct_evaluation():
    R, L = 64, 512.0
    step = 2 * np.pi / L
    freqs = step * np.array([-50, 3, 41])
    amps = np.array([0.3 - 1j, 1.0, -0.7j])
    rows = sch.propagate(freqs, amps, R, L, 128, [5.0, 17.0])
    x = np.arange(128) * (L / 128)
    pts = np.column_stack([x[::13], np.full(len(x[::13]), 17.0)])
    direct = sch.propagator_at(freqs, amps, R, pts)
    assert np.max(np.abs(direct - rows[1, ::13])) < 1e-10


def test_propagate_validations():
    R, L = 64, 512.0
    step = 2 * np.pi / L
    with pytest.raises(ValueError, match="lattice"):
        sch.propagate([0.5 * step], [1.0], R, L, 64, [0.0])
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        sch.propagate([100 * step], [1.0], R, L, 512, [0.0])
    with pytest.raises(ValueError, match="duplicate"):
        sch.propagate([step, step], [1.0, 2.0], R, L, 64, [0.0])
    with pytest.raises(ValueError, match="alias"):
        sch.propagate([40 * step], [1.0], R, L, 80, [0.0])
    with pytest.raises(ValueError, match="mismatch"):
        sch.propagate([step], [1.0, 2.0], R, L, 64, [0.0])


_FORCED_DRIFT = """
import numpy as np
from wavenvelope import schrodinger as sch

assert False, "asserts run"  # -O must strip this line
ifft = np.fft.ifft
# a transform that gains 1% in amplitude breaks Parseval by about 2%
np.fft.ifft = lambda a, axis=-1: 1.01 * ifft(a, axis=axis)
step = 2 * np.pi / 512.0
try:
    sch.propagate([3 * step, 40 * step], [1.0, 0.5j], 64, 512.0, 128, [0.0])
except AssertionError as exc:
    print("raised:", exc)
"""


def test_unitarity_guard_raises_under_optimize():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-O", "-c", _FORCED_DRIFT],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "raised: pre-cutoff slice norm drifts by 2.01e-02 > 1e-10" \
        in out.stdout


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_unitarity_of_random_spectra(seed):
    rng = np.random.default_rng(seed)
    R, L = 64, 512.0
    step = 2 * np.pi / L
    n = rng.choice(np.arange(-81, 82), size=rng.integers(1, 24), replace=False)
    amps = rng.standard_normal(len(n)) + 1j * rng.standard_normal(len(n))
    times = rng.uniform(-R, R, size=5)
    rows = sch.propagate(n * step, amps, R, L, 192, times)
    # eta(t/R) >= 0.91 on [-R, R], so the cutoff divides out
    norms = (L / 192) * np.sum(np.abs(rows / sch.eta(times / R)[:, None]) ** 2,
                               axis=1)
    target = L * np.sum(np.abs(amps) ** 2)
    assert np.max(np.abs(norms / target - 1.0)) <= 1e-10


# ---------------------------------------------------------------------------
# maximal average along tilted tubes

def test_constant_g_averages_to_one():
    R = 64
    x, t = sch.nikodym_grid(R)
    idx, vals = sch.nikodym_max(np.ones((len(t), len(x))), R, 1.0 / R)
    assert np.max(np.abs(vals - 1.0)) == 0.0


def test_vertical_tube_witness():
    R = 64
    x, t = sch.nikodym_grid(R)
    g = np.zeros((len(t), len(x)))
    y0 = len(x) // 2 + 37
    g[:, np.abs(x - x[y0]) <= 1.0 / R + 1e-12] = 1.0
    idx, vals = sch.nikodym_max(g, R, 1.0 / R)
    assert vals[np.where(idx == y0)[0][0]] == 1.0
    assert np.max(vals) <= 1.0


def test_tilted_tube_witness():
    R = 64
    x, t = sch.nikodym_grid(R)
    dx = 1.0 / R
    g = np.zeros((len(t), len(x)))
    y0 = len(x) // 2 - 21
    w = 0.5  # on the slope lattice
    shifts = np.rint(-2.0 * t * w / dx).astype(int)
    for i, s in enumerate(shifts):
        g[i, y0 + s - 1: y0 + s + 2] = 1.0
    idx, vals = sch.nikodym_max(g, R, dx)
    assert vals[np.where(idx == y0)[0][0]] == 1.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_maximal_average_contraction_and_monotone(seed):
    rng = np.random.default_rng(seed)
    R = 16
    # nine time rows; nikodym_max places them as midpoints of [-1, 1]
    x, _ = sch.nikodym_grid(R)
    g = rng.standard_normal((9, len(x)))
    _, a = sch.nikodym_max(g, R, 1.0 / R)
    assert np.max(a) <= np.max(np.abs(g)) + 1e-12
    _, b = sch.nikodym_max(np.abs(g) + 0.25, R, 1.0 / R)
    assert np.all(b >= a - 1e-12)
    _, c = sch.nikodym_max(3.0 * g, R, 1.0 / R)
    assert np.max(np.abs(c - 3.0 * a)) < 1e-9


@pytest.mark.parametrize("R", [64, 256])
def test_nikodym_max_blocks_match_slope_loop(monkeypatch, R):
    x, t = sch.nikodym_grid(R)
    g = np.random.default_rng(R).standard_normal((len(t), len(x)))
    want = nikodym_max_loop(g, R, 1.0 / R)
    for slopes in (sch.NIKODYM_SLOPES, 3):
        monkeypatch.setattr(sch, "NIKODYM_SLOPES", slopes)
        assert np.array_equal(sch.nikodym_max(g, R, 1.0 / R)[1], want)


@pytest.mark.parametrize("R, n_columns", [(64, None), (256, None),
                                           (1024, 48)])
def test_nikodym_max_is_near_the_fsum_of_each_tube(R, n_columns):
    # every tube sum against the correctly rounded sum of its samples;
    # differences of row prefix sums miss 2e-15 at each of these R
    x, t = sch.nikodym_grid(R)
    g = np.random.default_rng(R).standard_normal((len(t), len(x)))
    idx, vals = sch.nikodym_max(g, R, 1.0 / R)
    columns = np.arange(len(idx)) if n_columns is None else \
        np.random.default_rng(R + 1).choice(len(idx), n_columns, replace=False)
    want = nikodym_max_fsum(g, R, 1.0 / R, columns)
    assert np.max(np.abs(vals[columns] / want - 1.0)) <= 2e-15


def _half_step_grid(R):
    """|x| <= 3 at spacing dx = 1/(2R): each tube piece spans 2 hw + 1 = 5
    columns."""
    dx = 0.5 / R
    return np.arange(-6 * R, 6 * R + 1) * dx, dx


def test_nikodym_max_at_half_step_matches_both_oracles(monkeypatch):
    R = 64
    x, dx = _half_step_grid(R)
    g = np.random.default_rng(5).standard_normal((sch.NIKODYM_ROWS, len(x)))
    idx, vals = sch.nikodym_max(g, R, dx)
    want = nikodym_max_loop(g, R, dx)
    assert np.array_equal(vals, want)
    monkeypatch.setattr(sch, "NIKODYM_SLOPES", 3)
    assert np.array_equal(sch.nikodym_max(g, R, dx)[1], want)
    fsum = nikodym_max_fsum(g, R, dx, np.arange(len(idx)))
    assert np.max(np.abs(vals / fsum - 1.0)) <= 2e-15


def test_nikodym_slope_blocks_hold_a_quarter_budget_of_sums():
    # 32 slopes up to R = 1024 and 8 at R = 4096, where 32 slopes' sums
    # (2 MiB) fall out of cache
    for R, slopes in ((64, 32), (256, 32), (1024, 32), (4096, 8)):
        x, _ = sch.nikodym_grid(R)
        n_y = len(x) - 2 * (2 * R + 2)  # the tube columns at dx = 1/R
        assert sch.nikodym_block(n_y) == slopes
        assert slopes * n_y <= torus.CELL_BUDGET // 4


def test_coarse_grid_rejected_with_resolution():
    R = 64
    with pytest.raises(ValueError, match="1/R"):
        sch.nikodym_max(np.ones((9, 400)), R, 2.0 / R)


def test_maximal_ratio_slopes_stay_flat():
    for q in (2, 4):
        fit = sch.nikodym_experiment(q, [64, 256, 1024], seed=1)
        assert fit.slope <= 0.1
        assert fit.passed


def test_schrodinger_fls_checks_every_p_before_any_family_runs(monkeypatch,
                                                               capsys):
    def ran(*args):
        raise AssertionError("a family ran")

    for name in ("chirp_ratio", "packet_ratio", "lattice_ratio",
                 "nikodym_ratio"):
        monkeypatch.setattr(sch, name, ran)
    assert cli.main(["schrodinger-fls", "--p", "3,0.5"]) == 2
    assert "finite p >= 1 required, got 0.5" in capsys.readouterr().err


def test_lattice_preflight_builds_no_site_mask():
    # kappa = 0 puts 37,549 sites on each axis at R = 8^6: the estimate
    # must come from the axis lengths, not from a 37,549^2 mask
    tracemalloc.start()
    est = sch.fls_peak_bytes("lattice", 8 ** 6, 0.0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert est / 2 ** 20 > cli.ExperimentConfig().mem_cap_mb
    assert peak < 2 ** 22


@pytest.mark.parametrize("kappa", [0.25, 1.0 / 3.0, 0.5])
def test_lattice_preflight_counts_the_site_axes(kappa):
    for R in (4096, 32768, 262144, 8 ** 6):
        modes, _ = sch._lattice_modes(float(R), kappa, sch.LATTICE_NODES)
        a, b, _ = lattice_sites(float(R), kappa, sch.LATTICE_C, "ball")
        want = torus.trig_sum_bytes(modes.size // 2, axes=(len(a), len(b)),
                                    rows=5)
        assert sch.fls_peak_bytes("lattice", R, kappa) == want


# ---------------------------------------------------------------------------
# anisotropic rescaling

def test_rescale_positions_and_mass(monkeypatch):
    monkeypatch.setattr(sch, "SQUARE_ATOMS", 8)
    pos, m = sch.unit_square_atoms()
    before = float(np.sum(m))
    pos_R, _ = sch.rescale_measure(pos, m, 64.0, 3.0, 2.0, (0.125, 0.125))
    assert np.array_equal(pos_R, pos * np.array([64.0, 4096.0]))
    assert float(np.sum(m)) == before


def test_delta_keeps_unit_certificate_at_every_index():
    pos, m = sch.delta_atoms()
    for alpha in (0.0, 0.7, 1.0, 1.4, 2.0):
        _, comps = sch.rescale_measure(pos, m, 256.0, beta=0.0, alpha=alpha,
                                       spacing=(0.0, 0.0))
        assert comps[1]["measured"] == 1.0


def test_lebesgue_ball_mass_change_of_variables(monkeypatch):
    monkeypatch.setattr(sch, "SQUARE_ATOMS", 8)
    pos, m = sch.unit_square_atoms()
    R = 4.0
    pos_R, _ = sch.rescale_measure(pos, m, R, 3.0, 2.0, (0.125, 0.125))
    for rho in (1.0, 2.0, 4.0, 8.0, 16.0, 64.0):
        direct = float(np.sum(m[np.sum(pos_R ** 2, axis=1) <= rho ** 2]))
        # preimage of the ball is the ellipse with semi-axes rho/R, rho/R^2
        ell = (pos[:, 0] / (rho / R)) ** 2 + (pos[:, 1] / (rho / R ** 2)) ** 2
        mapped = float(np.sum(m[ell <= 1.0]))
        assert direct == mapped


def test_all_families_satisfy_scale_bounds():
    for name in sch.MEASURE_FAMILIES:
        pos, m, beta, alpha, spacing = sch.measure_family(name)
        for R in (64.0, 256.0):
            _, comps = sch.rescale_measure(pos, m, R, beta=beta, alpha=alpha,
                                           spacing=spacing)
            assert len(comps) == 2
            for cmp in comps:
                assert 0.0 < cmp["ratio"] <= 8.0, (name, R, cmp)


def test_sqrt_profile_certificate_bounded_across_scales():
    pos, m, beta, alpha, spacing = sch.measure_family("sqrt-profile")
    vals = []
    for R in (64.0, 256.0):
        _, comps = sch.rescale_measure(pos, m, R, beta=beta, alpha=alpha,
                                       spacing=spacing)
        assert comps[0]["target_index"] == 1.5
        vals.append(comps[0]["measured"] * R ** 2)
    assert max(vals) <= 8.0 * max(comps[0]["base_norm"], 1.0)
    assert max(vals) / min(vals) < 8.0


def test_certificate_matches_brute_force_at_small_scale():
    # same search space (atom centers x dyadic radii), independent arithmetic
    pos, m, beta, alpha, spacing = sch.measure_family("sqrt-profile")
    R = 64.0
    pos_R, comps = sch.rescale_measure(pos, m, R, beta=beta, alpha=alpha,
                                       spacing=spacing)
    r_min = max(1.0, R * spacing[0], R * R * spacing[1])
    r_max = 2.0 * float(np.max(np.abs(pos_R)))
    lo = int(math.floor(math.log2(r_min)))
    hi = int(math.ceil(math.log2(r_max * (1 + 1e-9))))
    best = 0.0
    for z in pos_R:
        d2 = np.sum((pos_R - z) ** 2, axis=1)
        for e in range(lo, hi + 1):
            rho = 2.0 ** e
            mass = float(np.sum(m[d2 <= (rho * (1 + 1e-12)) ** 2]))
            best = max(best, mass * rho ** (-alpha))
    assert abs(best - comps[1]["measured"]) <= 1e-12 * best


def test_rescale_builds_three_masses_tables(monkeypatch):
    # the two base certificates take one table each; both rescaled
    # certificates share the third
    real, shapes = ms.masses_at, []

    def counting(centers, positions, *args):
        shapes.append(len(positions))
        return real(centers, positions, *args)

    monkeypatch.setattr(ms, "masses_at", counting)
    pos, m, beta, alpha, spacing = sch.measure_family("line")
    sch.rescale_measure(pos, m, 64.0, beta, alpha, spacing)
    assert shapes == [len(pos)] * 3


def test_rescale_validations():
    pos, m = sch.delta_atoms()
    exact = (0.0, 0.0)
    with pytest.raises(ValueError, match=r"\[0, 3\]"):
        sch.rescale_measure(pos, m, 64.0, 3.5, 1.0, exact)
    with pytest.raises(ValueError, match=r"\[0, 2\]"):
        sch.rescale_measure(pos, m, 64.0, 1.0, 2.5, exact)
    with pytest.raises(ValueError, match="degenerate"):
        sch.rescale_measure(pos, 0.0 * m, 64.0, 1.0, 1.0, exact)
    with pytest.raises(ValueError, match="positions"):
        sch.rescale_measure(np.zeros((2, 3)), np.ones(2), 64.0, 1.0, 1.0,
                            exact)


@pytest.mark.parametrize("R", [
    0.0, -64.0, float("inf"), float("nan"),
    # float(R) would overflow; R^2 would
    pytest.param(10 ** 400, id="401-digits"),
    pytest.param(10 ** 200, id="201-digits")])
def test_rescale_requires_finite_positive_R(R):
    pos, m = sch.delta_atoms()
    with pytest.raises(ValueError, match="finite and positive"):
        sch.rescale_measure(pos, m, R, 1.0, 1.0, (0.0, 0.0))


def test_reduction_identity_is_exact():
    # integrating |U f|^p against the rescaled atoms equals integrating the
    # composed samples |U f(Rx, R^2 t)|^p against the original atoms: both
    # sides are the same finite sum
    step = 2 * np.pi / 512.0
    freqs = step * np.array([10, 40, 70])
    amps = np.array([1.0, 0.5j, -0.25])
    pos = np.array([[0.1, 0.2], [0.5, -0.3], [1.0, 0.7]])
    m = np.array([0.2, 0.3, 0.5])
    R = 64.0
    pos_R, _ = sch.rescale_measure(pos, m, R, 1.0, 1.0, (0.0, 0.0))
    lhs = np.sum(m * np.abs(sch.propagator_at(freqs, amps, R, pos_R)) ** 3.0)
    mapped = pos * np.array([R, R * R])
    rhs = np.sum(m * np.abs(sch.propagator_at(freqs, amps, R, mapped)) ** 3.0)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# exponent fits

def test_fit_exponent_mechanics():
    R = [64, 256, 1024]
    ratios = [2.0 * r ** 0.25 for r in R]
    fit = sch.fit_exponent("toy", "zeta", R, ratios, prediction=0.25)
    assert abs(fit.slope - 0.25) < 1e-12
    assert fit.residual < 1e-12
    assert fit.passed
    assert sch.fit_exponent("toy", "zeta", R, ratios, 0.4, sided="lower").passed is False
    assert sch.fit_exponent("toy", "zeta", R, ratios, 0.4, sided="upper").passed is True
    with pytest.raises(ValueError, match="3 scales"):
        sch.fit_exponent("toy", "zeta", [64, 256], [1.0, 2.0], 0.0)
    with pytest.raises(ValueError, match="degenerate"):
        sch.fit_exponent("toy", "zeta", R, [1.0, 0.0, 1.0], 0.0)
    with pytest.raises(ValueError, match="sidedness"):
        sch.fit_exponent("toy", "zeta", R, ratios, 0.0, sided="both")


def test_fit_json_export(tmp_path):
    fit = sch.fit_exponent("toy", "sigma", [64, 256, 1024], [1.0, 1.1, 1.2],
                           prediction=0.0, notes="eta = test")
    pth = tmp_path / "fit.json"
    cli._write_json(pth, fit.to_dict())
    back = json.loads(pth.read_text())
    assert back["name"] == "toy" and back["exponent"] == "sigma"
    assert back["passed"] == fit.passed
    assert len(back["R_values"]) == len(back["log_ratios"]) == 3
    for key in ("slope", "residual", "prediction", "band", "sided", "notes"):
        assert key in back


# ---------------------------------------------------------------------------
# slope families (small-scale variants; the full grids run in acceptance)

def test_chirp_family_slope():
    fit = sch.fls_experiment("chirp", 3.0, R_values=(64, 256, 1024))
    assert fit.exponent == "zeta"
    assert fit.passed  # one-sided: slope >= 1/2 - 1/p - band
    assert abs(fit.slope - fit.prediction) < 0.1
    assert "eta" in fit.notes


def test_packet_family_slope_and_band():
    fit = sch.fls_experiment("packet", 4.0, alpha=1.5,
                             R_values=(64, 256, 1024))
    assert fit.prediction == pytest.approx(3.0 / 16.0)
    assert abs(fit.slope - fit.prediction) < 0.1
    # sqrt(R) |U g| stays within a factor 2 over the traveling slab
    slab, _ = sch._packet_slab(256, 0.5, 65)
    vals = math.sqrt(256) * slab
    lo, hi = float(np.min(vals)), float(np.max(vals))
    assert 0.0 < lo <= hi
    assert hi / lo < 2.0


@pytest.mark.parametrize("R", [64, 256, 1024, 4096])
def test_packet_slab_is_the_fft_rows_on_the_mask(R):
    # as many cells as the whole-row mask, each within 1e-13 of the
    # propagated row's value at the mask's cell in the mask's order; the
    # windows of the rows near t = 0 wrap past the period's end, where the
    # grid order is a rotation of the window's
    got, _ = sch._packet_slab(R, sch.PACKET_C, sch.PACKET_ROWS)
    want, mask = fft_packet_slab(R, sch.PACKET_C, sch.PACKET_ROWS)
    assert len(got) == np.count_nonzero(mask)
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_packet_and_lattice_ratios_trace_small_peaks():
    # the packet held its blocks of whole propagated rows (12.5 MiB at
    # R = 4096) and the lattice a second E1-sized table (8.5 MiB)
    for run, bound_mib in (
            (lambda: sch.packet_ratio(4096, (3.0, 4.0), 1.5), 1.0),
            (lambda: sch.lattice_ratio(262144, (3.0, 4.0), 1.0 / 3.0), 7.0)):
        run()
        tracemalloc.start()
        run()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20


def test_lattice_family_slope():
    fit = sch.fls_experiment("lattice", 3.0,
                             R_values=(6 ** 6, 8 ** 6, 10 ** 6))
    assert fit.exponent == "sigma"
    assert fit.sided == "two"
    assert abs(fit.slope - (-1.0 / 6.0)) < 0.1
    assert fit.passed


def test_family_validations():
    with pytest.raises(ValueError, match="alpha"):
        sch.fls_experiment("packet", 4.0)
    with pytest.raises(ValueError, match="unknown family"):
        sch.fls_experiment("sawtooth", 4.0)


# ---------------------------------------------------------------------------
# tensor-grid evaluation against the per-point sum

def _max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_chirp_grid_matches_direct_sum():
    grid = 0.25 * (2.0 * (np.arange(9) + 0.5) / 9 - 1.0)
    for R in (256, 1024, 4096):
        xi, amps, _, _ = sch._chirp_setup(R)
        axes = (grid, R + grid)
        got = sch.propagator_at(xi, amps, R, axes=axes)
        pts = grid_points(*axes)
        want = direct_trig_sum(np.column_stack([xi, xi ** 2]), amps, pts) \
            * sch.eta(pts[:, 1] / R)
        assert got.shape == (9, 9)
        assert _max_rel(got.ravel(), want) <= 1e-12, R


# The square-function grid at R = 32768 reaches phases x xi + t xi^2 of
# 1e5 rad, where one rounding of a double phase is 1.5e-11 rad: there the
# factored and the direct sum each sit 3e-12 to 5e-12 from a long-double
# reference, so they are compared at 1e-11.
@pytest.mark.parametrize("R,sq_tol", [(4096, 1e-12), (32768, 1e-11)])
def test_lattice_grids_match_direct_sum(R, sq_tol):
    R = float(R)
    modes, w = sch._lattice_modes(R, 1.0 / 3.0, 8)
    flat, amps = modes.reshape(-1, 2), np.tile(w, len(modes))
    a, b, keep = lattice_sites(R, 1.0 / 3.0, 0.45, "ball")
    r5 = 0.45 / math.sqrt(2.0)
    for o1, o2 in ((0.0, 0.0), (r5, 0.0), (-r5, 0.0), (0.0, r5), (0.0, -r5)):
        axes = (a + o1, b + o2)
        got = trig_sum(flat, amps, axes=axes)[keep]
        want = direct_trig_sum(flat, amps, grid_points(*axes)[keep.ravel()])
        assert _max_rel(got, want) <= 1e-12, (o1, o2)
    grid = 4.0 * R * (2.0 * (np.arange(65) + 0.5) / 65 - 1.0)
    pts = grid_points(grid, grid)
    for block in modes:
        got = trig_sum(block, w, axes=(grid, grid)).ravel()
        assert _max_rel(got, direct_trig_sum(block, w, pts)) <= sq_tol


def test_phase_table_is_the_bits_of_exp_of_the_outer_phase():
    rng = np.random.default_rng(3)
    u = np.concatenate([rng.uniform(-1e5, 1e5, 50), [0.0, -0.0, 1e-300]])
    v = np.concatenate([rng.uniform(-1.0, 1.0, 20), [0.0, -0.0, 1.0]])
    got = torus.phase_table(u, v)
    want = np.exp(1j * np.multiply.outer(u, v))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_grid_trig_sum_is_as_near_fsum_as_the_old_contraction():
    # E1 (a E2^T) rounds each term twice and then the additions, as
    # (E1 a) E2^T did, so against the fsum of the same terms their errors
    # are alike: pooled over these grids the RMS errors are 1.21e-16 and
    # 1.19e-16 of each grid's largest entry, and the largest 8.0e-16 both.
    # The bounds leave room for that spread, not for a coarser contraction
    # (one single-precision rounding alone is 6e-8).
    grid = 0.25 * (2.0 * (np.arange(9) + 0.5) / 9 - 1.0)
    cases = []
    for R in (256, 1024, 4096):
        xi, amps, _, _ = sch._chirp_setup(R)
        cases.append((np.column_stack([xi, xi ** 2]), amps, (grid, R + grid)))
    for seed in range(3):
        rng = np.random.default_rng(seed)
        cases.append((rng.uniform(-1.0, 1.0, size=(40, 2)),
                      rng.standard_normal(40) + 1j * rng.standard_normal(40),
                      (rng.uniform(-50, 50, 200), rng.uniform(-50, 50, 9))))
    modes, w = sch._lattice_modes(32768.0, 1.0 / 3.0, 8)
    a, b, _ = lattice_sites(32768.0, 1.0 / 3.0, 0.45, "ball")
    cases.append((modes.reshape(-1, 2), np.tile(w, len(modes)), (a, b)))
    new_sq = old_sq = new_max = old_max = 0.0
    entries = 0
    for freqs, amps, axes in cases:
        want = fsum_grid_trig_sum(freqs, amps, axes)
        E1 = np.exp(1j * np.multiply.outer(axes[0], freqs[:, 0]))
        E2T = np.exp(1j * np.multiply.outer(freqs[:, 1], axes[1]))
        scale = np.max(np.abs(want))
        new = np.abs(trig_sum(freqs, amps, axes=axes) - want) / scale
        old = np.abs((E1 * amps) @ E2T - want) / scale
        new_sq, old_sq = new_sq + np.sum(new ** 2), old_sq + np.sum(old ** 2)
        new_max, old_max = max(new_max, new.max()), max(old_max, old.max())
        entries += want.size
    assert math.sqrt(new_sq / entries) <= 1.1 * math.sqrt(old_sq / entries)
    assert new_max <= 1.25 * old_max


def test_trig_sum_amplitude_rows_and_points():
    rng = np.random.default_rng(2)
    freqs = rng.uniform(-1.0, 1.0, size=(7, 2))
    amps = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    x1, x2 = rng.uniform(-20, 20, size=5), rng.uniform(-20, 20, size=4)
    grids = trig_sum(freqs, amps, axes=(x1, x2))
    assert grids.shape == (3, 5, 4)
    pts = grid_points(x1, x2)
    for row, grid in zip(amps, grids):
        want = direct_trig_sum(freqs, row, pts)
        assert _max_rel(grid.ravel(), want) <= 1e-13
        assert _max_rel(trig_sum(freqs, row, pts), want) <= 1e-13
    with pytest.raises(ValueError, match="either"):
        trig_sum(freqs, amps[0])
    with pytest.raises(ValueError, match="either"):
        trig_sum(freqs, amps[0], pts, axes=(x1, x2))
    with pytest.raises(ValueError, match="one amplitude"):
        trig_sum(freqs, amps, pts)


def test_blocked_evaluators_bits_do_not_depend_on_budget(monkeypatch):
    rng = np.random.default_rng(5)
    freqs = rng.uniform(-1.0, 1.0, size=(40, 2))
    amps = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
    axes = (rng.uniform(-50, 50, size=200), rng.uniform(-50, 50, size=9))

    def run():
        return [trig_sum(freqs, amps[0], axes=axes),
                trig_sum(freqs, amps, axes=axes),
                sch.lattice_ratio(32768.0, (3.0, 4.0), 1.0 / 3.0),
                sch.packet_ratio(1024, (3.0, 4.0), 1.5)]

    want = run()
    monkeypatch.setattr(torus, "CELL_BUDGET", 3)
    # 200 x1 rows and 147 lattice sites each take several blocks, and a
    # lone last row, as of 129 rows of 2048 cells, joins the one before
    assert torus.cell_blocks(129, 2048) == [slice(0, 64), slice(64, 129)]
    for got, ref in zip(run(), want):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("R", [4096, 32768, 262144])
def test_lattice_ratio_matches_pointwise_sum(R):
    got = sch.lattice_ratio(R, (3.0, 4.0), 1.0 / 3.0)
    for p, val in zip((3.0, 4.0), got):
        want = pointwise_lattice_ratio(R, p)
        assert abs(val - want) <= 1e-13 * want, (R, p)


def test_fits_over_p_equal_single_p_fits():
    cases = [("chirp", (64, 256, 1024), {}),
             ("packet", (64, 256, 1024), {"alpha": 1.5}),
             ("lattice", (4096, 32768, 262144), {})]
    for family, R_values, kw in cases:
        both = sch.fls_fits(family, (3.0, 4.0), R_values=R_values, **kw)
        one = [sch.fls_experiment(family, p, R_values=R_values, **kw)
               for p in (3.0, 4.0)]
        assert [f.to_dict() for f in both] == [f.to_dict() for f in one]
    both = sch.fls_fits("nikodym", (2.0, 4.0), (16, 64, 256), seed=3)
    one = [sch.nikodym_experiment(q, (16, 64, 256), seed=3)
           for q in (2.0, 4.0)]
    assert [f.to_dict() for f in both] == [f.to_dict() for f in one]
