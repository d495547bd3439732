import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavenvelope.torus import (GridSpec, TorusField, point_eval,
                               power_integral, random_band_field, synthesize,
                               lp_norm)
from wavenvelope.geometry import (Cap, cap_index_for_abscissa, caps_at_scale,
                                  dyadic_scales, envelope_factor,
                                  envelope_lattice_dims, theta_scale,
                                  tube_lattice_dims)
from wavenvelope.measures import (GridMeasure, ball_weight, constant_weight,
                                  make_weight)
from wavenvelope.cli import PAIR_FAMILIES, make_field
from wavenvelope import cli, envelope as env
from wavenvelope import torus

from oracles import (atom_positions, branch_cap_decompose, constant_env_rhs,
                     env_shift, gathered_weighted_cell_integrals, kappa,
                     materialize, per_cap_envelope_side,
                     per_cap_envelope_stats, pinned_fields, reconstruction,
                     scaled,
                     sq_norm_from_sq2, square_function, square_sum_samples,
                     subgrid_cell_integrals)

SPEC64 = GridSpec(64)


# ---------------------------------------------------------------------------
# windows

def test_step_profile_shape():
    hw = env.WINDOW_DELTA
    assert env.step_profile(-hw) == 0.0
    assert env.step_profile(hw) == 1.0
    assert env.step_profile(0.0) == 0.5
    t = np.linspace(-2 * hw, 2 * hw, 101)
    g = env.step_profile(t)
    assert np.all(np.diff(g) >= 0)


def test_window_partition_of_unity_exact():
    # telescoping steps cancel in floating point, so the sum is exactly 1
    t = np.linspace(-1.0, 1.0, 4001)
    total = sum(env.window_profile(t - k) for k in range(-3, 4))
    assert np.all(total == 1.0)


def test_window_profile_support_and_symmetry():
    hw = env.WINDOW_DELTA
    t = np.linspace(-2, 2, 2001)
    psi = env.window_profile(t)
    assert np.allclose(psi, psi[::-1])
    assert np.all(psi[np.abs(t) >= 0.5 + hw] == 0.0)
    assert np.all(psi[np.abs(t) <= 0.5 - hw] == 1.0)


def test_boundary_mode_splits_evenly():
    s = 0.25
    xi1 = np.array([(2 - 0.5) * s])  # exactly on a cap boundary
    k_mid, w_left, w_mid, w_right = env._window_weights(xi1, s)
    assert k_mid[0] == 2
    assert w_left[0] == 0.5 and w_mid[0] == 0.5 and w_right[0] == 0.0


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
       st.sampled_from([1.0, 0.5, 0.25, 0.125]))
@settings(max_examples=50, deadline=None)
def test_window_weights_partition_property(xs, s):
    xi1 = np.asarray(xs)
    k_mid, w_left, w_mid, w_right = env._window_weights(xi1, s)
    assert np.all(w_left + w_mid + w_right == 1.0)
    assert np.all((w_left >= 0) & (w_mid >= 0) & (w_right >= 0))
    # at most two caps get mass: the two transition zones never overlap
    live = (w_left > 0).astype(int) + (w_mid > 0).astype(int) \
        + (w_right > 0).astype(int)
    assert np.all(live <= 2)
    k_max = int(round(1.0 / s))
    assert np.all(np.abs(k_mid) <= k_max)


# ---------------------------------------------------------------------------
# cap decomposition

def test_decompose_reconstructs_exactly():
    f = random_band_field(SPEC64, seed=7, density=0.5)
    acc = reconstruction(env.cap_decompose(f, 0.25))
    orig = {(int(a), int(b)): amp for (a, b), amp in zip(f.freqs, f.amps)}
    assert set(acc) == set(orig)
    for key in orig:
        assert abs(acc[key] - orig[key]) <= 1e-15 * abs(orig[key])


def test_decompose_rejects_bad_scale():
    f = random_band_field(SPEC64, seed=1, density=0.2)
    with pytest.raises(ValueError):
        env.cap_decompose(f, 0.3)
    with pytest.raises(ValueError):
        env.cap_decompose(f, theta_scale(64) / 2)


def test_decompose_single_centered_mode_stays_whole():
    # mode at a cap center is far from both boundaries: one piece only
    f = synthesize(np.array([[0, 0]]), np.array([1.0 + 0j]), SPEC64)
    pieces = env.cap_decompose(f, 0.25)
    assert list(pieces) == [0]
    assert pieces[0].n_modes == 1
    assert pieces[0].amps[0] == 1.0 + 0j


@pytest.mark.parametrize("R", [16, 64, 256])
@pytest.mark.parametrize("at_theta", [True, False])
def test_decompose_matches_branch_oracle_bit_for_bit(R, at_theta):
    # one pass over the three window branches keeps the oracle's pieces:
    # the same caps and, per cap, the same modes in the same order
    spec = GridSpec(R)
    scale = theta_scale(R) if at_theta else 0.25
    for name, f in pinned_fields(spec, scale).items():
        got = env.cap_decompose(f, scale)
        want = branch_cap_decompose(f, scale)
        assert list(got) == list(want), name
        for k, pc in want.items():
            assert np.array_equal(got[k].freqs, pc.freqs), (name, k)
            assert np.array_equal(got[k].amps, pc.amps), (name, k)


def test_square_function_two_distant_caps():
    # one unit mode in each of two well-separated caps: S is sqrt(2)
    fr = np.array([[0, 0], [36, 32]])
    f = synthesize(fr, np.array([1.0 + 0j, 1.0 + 0j]), SPEC64)
    S = square_function(f, theta_scale(64), m=256)
    assert np.allclose(S, np.sqrt(2.0), atol=1e-12)


def test_square_function_single_cap_is_abs():
    fr = np.array([[0, 0], [1, 0]])
    f = synthesize(fr, np.array([1.0 + 0j, 0.5 + 0j]), SPEC64)
    S = square_function(f, theta_scale(64), m=256)
    assert np.allclose(S, np.abs(f.samples_on(256)), atol=1e-12)


def test_square_function_l2_within_window_slack():
    # sum_k chi_k^2 <= 1 with equality off the transition zones, and the
    # zones cover 1/8 of each cap, so ||S||_2 loses only a few percent
    f = random_band_field(SPEC64, seed=5, density=0.6)
    pieces = env.cap_decompose(f, theta_scale(64))
    total = float(np.sum(np.abs(f.amps) ** 2))
    split = sum(float(np.sum(np.abs(pc.amps) ** 2))
                for pc in pieces.values())
    assert split <= total * (1 + 1e-12)
    assert split >= 0.93 * total


def test_square_sum_rejects_aliasing_grid():
    f = random_band_field(SPEC64, seed=1, density=0.5)
    with pytest.raises(ValueError, match="aliases"):
        square_function(f, theta_scale(64), m=8)
    pieces = env.cap_decompose(f, theta_scale(64)).values()
    with pytest.raises(ValueError, match="aliases"):
        power_integral(pieces, SPEC64, 3.0, 8)


# ---------------------------------------------------------------------------
# envelope cell integrals

def _tau_pieces(field, cap):
    s_theta = theta_scale(field.spec.R)
    return [pc for k, pc in env.cap_decompose(field, s_theta).items()
            if int(cap_index_for_abscissa(k * s_theta, cap.s)) == cap.k]


def _scale_cells(field, s):
    """(cap indices, (caps, N1U, N2U) cells, shears) of the per-scale pass
    at scale s."""
    thetas = env.cap_decompose(field, theta_scale(field.spec.R))
    ks, C = env.scale_cell_integrals(thetas, env.theta_pairs(thetas), s,
                                     field.spec)
    shears = [envelope_lattice_dims(Cap(s, int(k)), field.spec)[2]
              for k in ks]
    return ks.tolist(), C, shears


def _cells(field, cap):
    ks, C, _ = _scale_cells(field, cap.s)
    return C[ks.index(cap.k)]


def test_cell_integrals_add_up_to_l2_mass():
    # the envelopes tile the torus: sum_U int_U S_tau^2 = ||S_tau||_2^2,
    # Parseval's L^2 sum |a|^2 over the theta pieces; every cap at R = 64
    # (E = 1 at the theta scale, E = 4 .. 64 above, sheared seams k != 0)
    f = random_band_field(SPEC64, seed=4, density=0.5)
    seen_E = set()
    for s in dyadic_scales(64):
        for cap in caps_at_scale(s):
            pieces = _tau_pieces(f, cap)
            if not pieces:
                continue
            seen_E.add(envelope_factor(cap, SPEC64))
            want = SPEC64.L ** 2 * sum(float(np.vdot(pc.amps, pc.amps).real)
                                       for pc in pieces)
            got = float(np.sum(_cells(f, cap)))
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    assert seen_E == {1, 4, 16, 64}


@pytest.mark.parametrize("s,k,E", [(0.125, 3, 1), (0.25, -2, 4),
                                   (0.5, 1, 16)])
def test_cell_integral_matches_gauss_legendre(s, k, E):
    # one cell in tube coordinates y = L_tau^{-1} x: the box of side E
    # centred at E z + o, integrated by a tensor Gauss-Legendre rule
    # (dx = s^-3 dy); z2 = 0 cells straddle the x2 = 0 seam
    f = random_band_field(SPEC64, seed=8, density=0.5)
    cap = Cap(s, k)
    assert envelope_factor(cap, SPEC64) == E
    pieces = _tau_pieces(f, cap)
    cells = _cells(f, cap)
    L = cap.transforms()[2]
    o = 0.0 if E == 1 else -0.5
    nodes, weights = np.polynomial.legendre.leggauss(48)
    N1U, N2U, _ = envelope_lattice_dims(cap, SPEC64)
    for z in ((0, 0), (N1U - 1, 0), (N1U // 2, N2U - 1)):
        y1 = E * z[0] + o + 0.5 * E * nodes
        y2 = E * z[1] + o + 0.5 * E * nodes
        Y = np.stack(np.meshgrid(y1, y2, indexing="ij"), axis=-1)
        x = Y.reshape(-1, 2) @ L.T
        P = sum(np.abs(point_eval(pc, x)) ** 2 for pc in pieces)
        want = s ** -3 * (0.5 * E) ** 2 * float(
            np.outer(weights, weights).ravel() @ P)
        assert cells[z] == pytest.approx(want, rel=1e-11)


def test_cell_integrals_are_the_subgrid_limit():
    # the subgrid Riemann sums are first order: per-cell differences to
    # the closed form halve along m = 2R -> 4R -> 8R
    spec = GridSpec(16)
    f = random_band_field(spec, seed=3)
    gaps = []
    for m in (32, 64, 128):
        worst = 0.0
        for (s, k), C in subgrid_cell_integrals(f, m).items():
            exact = _cells(f, Cap(s, k))
            worst = max(worst, float(np.max(np.abs(C - exact))
                                     / np.max(np.abs(exact))))
        gaps.append(worst)
    assert gaps[0] < 0.2
    for a, b in zip(gaps, gaps[1:]):
        assert 1.7 <= a / b <= 2.4


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_env_rhs_matches_finest_subgrid(p):
    f = random_band_field(SPEC64, seed=3)
    got = env.verify_weighted_sq(f, constant_weight(SPEC64, 1.0), p).env_rhs
    want = constant_env_rhs(subgrid_cell_integrals(f, SPEC64.M), SPEC64, p)
    assert got == pytest.approx(want, rel=5e-4)


# ---------------------------------------------------------------------------
# kappa

def test_kappa_constant_weight_exact():
    H = constant_weight(SPEC64, 1.0)
    val, wit = env.kappa_max(H, 3.0)
    assert val == 1.0
    assert wit == {"s": 1.0, "k": 0, "z1": 0, "z2": 0}
    lam = 0.3
    val, _ = env.kappa_max(constant_weight(SPEC64, lam), 3.0)
    assert val == lam ** (1.0 / 3.0)


def test_kappa_materialized_constant_matches_sentinel():
    # the full streaming path over all-cell atoms reproduces the closed form
    H = materialize(constant_weight(SPEC64, 1.0))
    for cap in (Cap(1.0, 0), Cap(0.25, 2), Cap(0.125, -5)):
        assert kappa(H, 2.0, cap, (0, 0)) == 1.0
    val, _ = env.kappa_max(H, 4.0)
    assert val == 1.0


def test_kappa_ball_weight_small_at_p2():
    # a unit ball has density R^-1/2-ish on its best envelope at s = 1
    H = ball_weight(SPEC64, 1.0)
    val, wit = env.kappa_max(H, 2.0)
    target = 64 ** -0.5
    assert target / 4 <= val <= 4 * target
    assert wit["s"] == 1.0


def test_kappa_witness_reproduces_max():
    H = ball_weight(SPEC64, 2.0, center=(3.0, 5.0))
    for p in (2.0, 8.0 / 3.0, 4.0):
        val, wit = env.kappa_max(H, p)
        got = kappa(H, p, Cap(wit["s"], wit["k"]), (wit["z1"], wit["z2"]))
        assert got == val
    assert kappa(H, 2.0, Cap(1.0, 0), (3, 3)) >= 0.0


def test_kappa_empty_envelope_is_zero():
    H = GridMeasure(SPEC64, np.array([[0, 0]]), np.array([0.25]), "weight",
                    "custom")
    # an envelope far from the single atom carries nothing
    assert kappa(H, 2.0, Cap(1.0, 0), (40, 2)) == 0.0


def test_kappa_zero_measure():
    H = GridMeasure(SPEC64, np.empty((0, 2), dtype=np.int64), np.empty(0),
                    "weight", "custom")
    val, _ = env.kappa_max(H, 2.0)
    assert val == 0.0


def test_kappa_scale_covariance():
    H = ball_weight(SPEC64, 1.5)
    c = 0.25
    Hc = scaled(H, c)
    for p in (2.0, 3.0, 4.0):
        v, _ = env.kappa_max(H, p)
        vc, _ = env.kappa_max(Hc, p)
        assert abs(vc - c ** (1.0 / p) * v) <= 1e-13 * v


def test_kappa_monotone_in_weight():
    ij = np.array([[10, 20], [100, 200], [30, 400]])
    small = GridMeasure(SPEC64, ij, np.array([0.05, 0.1, 0.15]), "weight",
                        "custom")
    large = GridMeasure(SPEC64, ij, np.array([0.25, 0.1, 0.22]), "weight",
                        "custom")
    for p in (2.0, 3.0):
        vs, _ = env.kappa_max(small, p)
        vl, _ = env.kappa_max(large, p)
        assert vs <= vl


def test_kappa_log_affine_in_inverse_p():
    # log kappa(U) = A + B/p for fixed U, so three samples are collinear
    H = ball_weight(SPEC64, 3.0, center=(7.0, 2.0))
    cap = Cap(0.25, 1)
    ekeys, vals, (N1U, N2U) = env.kappa_table(H, 2.0, cap)
    assert len(ekeys) > 0
    z = (int(ekeys[0] // N2U), int(ekeys[0] % N2U))
    ps = [2.0, 2.5, 4.0]
    logs = [np.log(kappa(H, p, cap, z)) for p in ps]
    x = [1.0 / p for p in ps]
    slope = (logs[2] - logs[0]) / (x[2] - x[0])
    pred = logs[0] + slope * (x[1] - x[0])
    assert abs(pred - logs[1]) <= 1e-10 * max(1.0, abs(logs[1]))


def test_kappa_rejects_bad_p():
    H = constant_weight(SPEC64, 1.0)
    for bad in (1.5, 4.5):
        with pytest.raises(ValueError):
            env.kappa_max(H, bad)
        with pytest.raises(ValueError):
            kappa(H, bad, Cap(1.0, 0), (0, 0))


def test_kappa_max_locates_atoms_once_per_scale(monkeypatch):
    # the p-independent envelope statistics are cached on the weight, so a
    # scan over three exponents locates the atoms once per scale
    calls = []
    real = env.locate_scale_tubes

    def counting(j1, j2, s, spec, wrap=True):
        calls.append(s)
        return real(j1, j2, s, spec, wrap)

    monkeypatch.setattr(env, "locate_scale_tubes", counting)
    H = ball_weight(SPEC64, 3.0, center=(7.0, 2.0))
    for p in (2.0, 3.0, 4.0):
        env.kappa_max(H, p)
    scales = dyadic_scales(SPEC64.R)
    assert calls == scales
    # a new weight, even with the same atoms, starts with an empty cache
    env.kappa_max(scaled(H, 0.5), 2.0)
    assert calls == 2 * scales


def test_envelope_stats_cache_is_read_only():
    H = ball_weight(SPEC64, 3.0)
    st = env.envelope_stats(H, 0.5)
    assert env.envelope_stats(H, 0.5) is st
    ekeys = env.kappa_table(H, 2.0, Cap(0.5, 1))[0]
    assert np.shares_memory(ekeys, st.ekeys)
    for arr in (st.ekeys, st.HU, st.tubeT, st.offsets, ekeys):
        with pytest.raises(ValueError):
            arr[...] = 0


def test_envelope_stats_branches_agree(monkeypatch):
    # dense bincount and sort aggregate the same tubes in the same order
    spec = SPEC64
    rng = np.random.default_rng(4)
    ij = rng.integers(0, spec.M, size=(3000, 2))
    ij = np.unique(ij, axis=0)
    mass = rng.uniform(0.0, 1.0, len(ij)) * spec.delta ** 2
    mass[::7] = 0.0   # zero-mass atoms still mark their envelopes
    runs = []
    for ratio in (0, 10 ** 12):
        monkeypatch.setattr(torus, "DENSE_KEYS_PER_ATOM", ratio)
        H = GridMeasure(spec, ij, mass, "weight", "custom")
        runs.append([env.envelope_stats(H, s)
                     for s in dyadic_scales(spec.R)])
    for sort, dense in zip(*runs):
        for name in ("ekeys", "HU", "tubeT", "offsets"):
            a, b = getattr(sort, name), getattr(dense, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert sort.dims == dense.dims


def _rows(spec, starts, rows, lengths):
    """Atoms on runs of lengths consecutive j1 (wrapped mod M) from each
    start, in the given rows."""
    j1 = np.concatenate([(a + np.arange(n)) % spec.M
                         for a, n in zip(starts, lengths)])
    return np.stack([j1, np.repeat(rows, lengths)], axis=1)


def _run_weights(spec):
    """One-mass weights of long row runs, which envelope_stats counts per
    (run, tube) piece at every scale, and the last support with varied
    masses, which it sums per atom."""
    M, P = spec.M, int(round(spec.R ** 0.5))
    rng = np.random.default_rng(spec.R + 7)
    rows = rng.choice(M - 1, 12, replace=False)
    # across the j1 seam, two whole rows (which wrap onto their first
    # tube), and the z2 seam's last row
    seam = _rows(spec, [M - 3 * P] * 4 + [0, 5, M - P],
                 [*rows[:6], M - 1], [6 * P] * 4 + [M, M, 2 * P])
    # longer than 2P, the cells of a row in one tube at the finest scale
    cut = _rows(spec, rng.integers(0, M, 6), rows[6:],
                rng.integers(2 * P + 1, 8 * P, 6))
    lone = rng.integers(0, M, (4 * P, 2))
    mixed = np.unique(np.concatenate([cut, lone]), axis=0)
    d2 = spec.delta ** 2
    return [
        GridMeasure(spec, seam, np.full(len(seam), d2), "weight", "seam"),
        GridMeasure(spec, cut, np.full(len(cut), 0.3 * d2), "weight", "cut"),
        GridMeasure(spec, mixed, np.full(len(mixed), 0.3 * d2), "weight",
                    "mixed"),
        GridMeasure(spec, mixed, d2 * rng.uniform(0.0, 1.0, len(mixed)),
                    "weight", "mixed, varied"),
    ]


def _oracle_weights(spec):
    R, L, M = spec.R, spec.L, spec.M
    mid = 0.5 * L
    rng = np.random.default_rng(R)
    # custom atoms on the z2 seam: j2 >= M - D/2 at the finest scale
    D = 2 * R
    seam = np.stack([rng.integers(0, M, 400),
                     rng.integers(M - D // 2, M, 400)], axis=1)
    ij = np.unique(np.concatenate([seam, rng.integers(0, M, (400, 2))]),
                   axis=0)
    weights = [
        make_weight("ball", spec, rho=3.0, center=(L - 1.0, L - 0.5)),
        make_weight("lattice", spec, kappa=1.0 / 3.0, c=0.45),
        make_weight("truncated-lattice", spec, alpha=1.5, c=0.25),
        make_weight("dual-tube", spec, alpha=1.0, k=1),
        make_weight("parabolic-box", spec,
                    boxes=((mid, mid, 2.0), (L - 2.0, L - 3.0, 3.0))),
        GridMeasure(spec, ij, spec.delta ** 2 * rng.uniform(0.0, 1.0, len(ij)),
                    "weight", "custom"),
        # one mass that rounds on almost every add of its tube sums
        GridMeasure(spec, ij, np.full(len(ij), 0.3 * spec.delta ** 2),
                    "weight", "custom"),
        GridMeasure(spec, np.empty((0, 2), dtype=np.int64), np.empty(0),
                    "weight", "custom"),
        *_run_weights(spec),
    ]
    if R <= 64:
        weights.append(materialize(constant_weight(spec, 0.5)))
    return weights


# caps per block of envelope_stats: its own choice (None), one cap, two and
# three (which do not divide the 2/s + 1 caps of a scale below s = 1, nor
# of most scales), and every cap of the scale in one block
BLOCKS = (None, 1, 2, 3, 10 ** 9)


def _block_stats(monkeypatch, H, s):
    """envelope_stats(H, s) with each of BLOCKS caps per block, computed
    anew for each; the last, envelope_stats' own choice, stays cached."""
    out = []
    for per_block in BLOCKS[1:] + BLOCKS[:1]:
        with monkeypatch.context() as m:
            if per_block is not None:
                m.setattr(env, "caps_per_block", lambda *_: per_block)
            H._envelope_stats.pop(s, None)
            out.append(env.envelope_stats(H, s))
    return out


@pytest.mark.parametrize("R", [16, 64, 256])
def test_kappa_tables_bit_equal_per_cap_oracle(monkeypatch, R):
    # every cap, the seam caps k = -1/s and 1/s among them, of every weight,
    # varied masses among them, in blocks of each of BLOCKS caps
    spec = GridSpec(R)
    for H in _oracle_weights(spec):
        for s in dyadic_scales(R):
            blocks = _block_stats(monkeypatch, H, s)
            for cap in caps_at_scale(s):
                ekeys, HU, maxT, dims = per_cap_envelope_stats(H, cap)
                tubeT = (maxT / env.tube_area(s)) ** 0.25
                for st in blocks:
                    sl = st.cap_slice(cap.k)
                    assert st.dims == dims
                    for got, want in ((st.ekeys[sl], ekeys),
                                      (st.HU[sl], HU),
                                      (st.tubeT[sl], tubeT)):
                        assert got.dtype == want.dtype
                        assert np.array_equal(got, want), (H.label, s, cap.k)
                for p in (2.0, 3.0, 4.0):
                    vals = env.kappa_table(H, p, cap)[1]
                    want = tubeT * \
                        (HU / env.envelope_area(R, s)) ** (1.0 / p - 0.25)
                    assert np.array_equal(vals, want)


@pytest.mark.parametrize("ratio", [0, 10 ** 12])
@pytest.mark.parametrize("R", [16, 64, 256])
def test_envelope_stats_every_branch_matches_oracle(monkeypatch, R, ratio):
    # all tube and envelope sums by the packed sort, then all by dense
    # bincounts, against the np.unique oracle with // and %, in blocks of
    # each of BLOCKS caps
    monkeypatch.setattr(torus, "DENSE_KEYS_PER_ATOM", ratio)
    spec = GridSpec(R)
    for H in _oracle_weights(spec):
        for s in dyadic_scales(R):
            blocks = _block_stats(monkeypatch, H, s)
            for cap in caps_at_scale(s):
                ekeys, HU, maxT, _ = per_cap_envelope_stats(H, cap)
                want = (ekeys, HU, (maxT / env.tube_area(s)) ** 0.25)
                for st in blocks:
                    sl = st.cap_slice(cap.k)
                    for got, w in zip((st.ekeys[sl], st.HU[sl],
                                       st.tubeT[sl]), want):
                        assert got.dtype == w.dtype
                        assert got.tobytes() == w.tobytes(), \
                            (H.label, s, cap.k)


@pytest.mark.parametrize("R", [16, 64, 256])
def test_run_weights_are_counted_per_piece(monkeypatch, R):
    # the oracle tests above see the run path: each one-mass run weight is
    # cut into fewer pieces than it has atoms at every cap of every scale,
    # and the varied masses of the same support are summed per atom.  A
    # block's tube keys carry each cap's place above log2(N1 N2) bits, so
    # the places count each cap's pieces
    seen = []
    real = env.group_sums

    def recording(keys, weights, size):
        seen.append((keys.copy(), np.ndim(weights), size))
        return real(keys, weights, size)

    def per_cap(s, tube_sums):
        N1, N2, _ = tube_lattice_dims(Cap(s, 0), GridSpec(R))
        return np.concatenate([np.bincount(keys // (N1 * N2),
                                           minlength=size // (N1 * N2))
                               for keys, _, size in tube_sums])

    monkeypatch.setattr(env, "group_sums", recording)
    *one_mass, varied = _run_weights(GridSpec(R))
    for H in one_mass:
        for s in dyadic_scales(R):
            seen.clear()
            env.envelope_stats(H, s)
            tube_sums = seen[::1 if envelope_factor(Cap(s, 0), H.spec) == 1
                             else 2]
            pieces = per_cap(s, tube_sums)
            assert len(pieces) == len(caps_at_scale(s))
            assert pieces.max() < H.n_atoms
            assert all(ndim == 1 for _, ndim, _ in tube_sums)
    seen.clear()
    env.envelope_stats(varied, 1.0)
    assert seen[0][1] == 1
    assert list(per_cap(1.0, seen[:1])) == [varied.n_atoms] * 3


def test_row_runs_kept_only_where_a_scale_counts_by_them():
    # a kappa scan keeps the runs of the dual tube, cut into fewer pieces
    # than atoms at the finest scale, and none for the truncated lattice's
    # one-atom runs (978 at R = 4096) or for varied masses
    tube = make_weight("dual-tube", SPEC64)
    varied = GridMeasure(SPEC64, tube.ij, tube.mass * np.linspace(
        0.5, 1.0, tube.n_atoms), "weight")
    lattices = [make_weight("truncated-lattice", GridSpec(R))
                for R in (64, 4096)]
    for H in (tube, varied, *lattices):
        env.kappa_max(H, 4.0)
    assert tube._row_runs is not None
    assert varied._row_runs is None
    assert [H._row_runs for H in lattices] == [None, None]


def test_dual_tube_is_counted_in_fewer_pieces_than_atoms(monkeypatch):
    # the kappa scans' dual tube at R = 1024 (131,072 atoms in 4,096 runs
    # of 32) takes the run path at every scale: no tube sum sees as many
    # keys as there are atoms, and all of them together see fewer than a
    # tenth of the 131,072 x 132 (atom, cap) visits of the atom path
    sizes = []
    real = env.group_sums

    def recording(keys, weights, size):
        sizes.append(len(keys))
        return real(keys, weights, size)

    monkeypatch.setattr(env, "group_sums", recording)
    H = make_weight("dual-tube", GridSpec(1024), alpha=1.0)
    scales = dyadic_scales(1024)
    for s in scales:
        env.envelope_stats(H, s)
    assert max(sizes) < H.n_atoms
    caps = sum(len(caps_at_scale(s)) for s in scales)
    assert 10 * sum(sizes) < H.n_atoms * caps


def test_dual_tube_build_and_envelope_stats_traced_peaks():
    # the dual tube at R = 1024 (131,072 atoms) sets the kappa scans' peak
    # memory.  Its builder drops the candidate cells before GridMeasure
    # sorts the atoms, and GridMeasure finds duplicates column by column,
    # with no (n, 2) difference: the build traced 12,110,804 bytes before,
    # and 7,935,856 after (numpy 2.4.6).  The count path sorts each cap's
    # keys in place, with no packed copy and no gathered masses: the scan
    # traced 8,853,973 bytes above the weight before it, and 7,649,979
    # after.  Counted per (run, tube) piece, finding the runs included, it
    # traces 5,813,678, at s = 1, whose caps cut about 70,000 pieces each
    tracemalloc.start()
    try:
        H = make_weight("dual-tube", GridSpec(1024), alpha=1.0)
        held, build = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for s in dyadic_scales(1024):
            env.envelope_stats(H, s)
        _, scan = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build < 9 * 2 ** 20
    assert scan - held <= 5_813_678


@pytest.mark.parametrize("R", [16, 64])
def test_kappa_max_is_the_first_per_cap_maximum(R):
    # the per-scale argmax keeps the per-cap scan's value and witness:
    # coarse to fine, cap ascending, key ascending, first tie wins
    spec = GridSpec(R)
    for H in _oracle_weights(spec):
        for p in (2.0, 3.0, 4.0):
            best, witness = 0.0, {"s": 1.0, "k": 0, "z1": 0, "z2": 0}
            for s in dyadic_scales(R):
                for cap in caps_at_scale(s):
                    ekeys, vals, (_, N2U) = env.kappa_table(H, p, cap)
                    if len(vals) and vals.max() > best:
                        i = int(np.argmax(vals))
                        best = float(vals[i])
                        witness = {"s": s, "k": cap.k,
                                   "z1": int(ekeys[i] // N2U),
                                   "z2": int(ekeys[i] % N2U)}
            assert env.kappa_max(H, p) == (best, witness)


# weight -> [(t_area, u_area, [(H(U), max_T H(T)) per envelope]) per cap]
_BRUTE_TABLES = weakref.WeakKeyDictionary()


def _brute_envelope_tables(H):
    """brute_kappa_max's p-independent tube and envelope sums of H, built
    once per weight object."""
    if H in _BRUTE_TABLES:
        return _BRUTE_TABLES[H]
    spec = H.spec
    R = spec.R
    pos = atom_positions(H)
    mass = np.asarray(H.mass, dtype=float)
    tables = []
    for s in dyadic_scales(R):
        E = R * s * s
        t_area = s ** -3
        u_area = float(R * R) * s
        for cap in caps_at_scale(s):
            c = cap.c
            y1 = s * pos[:, 0] + 2 * c * s * pos[:, 1]
            y2 = s * s * pos[:, 1]
            z1 = np.floor(y1 + 0.5).astype(np.int64)
            z2 = np.floor(y2 + 0.5).astype(np.int64)
            tubes = {}
            for a, b, w in zip(z1, z2, mass):
                tubes[(int(a), int(b))] = tubes.get((int(a), int(b)), 0.0) + w
            envs = {}
            for (a, b), w in tubes.items():
                key = (int(np.floor(a / E + 0.5)), int(np.floor(b / E + 0.5)))
                tot, mx = envs.get(key, (0.0, 0.0))
                envs[key] = (tot + w, max(mx, w))
            tables.append((t_area, u_area, list(envs.values())))
    _BRUTE_TABLES[H] = tables
    return tables


def brute_kappa_max(H, p):
    """Independent float-path enumeration over every (s, cap, U, T).

    Tube coordinates from the inverse affine map, indices by rounding;
    no wrapping, so callers pass weights supported away from the seam.
    The tube and envelope sums do not depend on p and are built once per
    weight (_brute_envelope_tables); each p visits them in build order.
    """
    best = 0.0
    for t_area, u_area, envs in _brute_envelope_tables(H):
        for tot, mx in envs:
            val = (mx / t_area) ** 0.25 * (tot / u_area) ** (1 / p - 0.25)
            best = max(best, val)
    return best


def test_kappa_max_matches_brute_enumeration():
    # weight centered mid-torus so the unwrapped brute path sees the same
    # tubes as the wrapped production path
    L = SPEC64.L
    H = ball_weight(SPEC64, 2.0, center=(L / 2, L / 2))
    for p in (2.0, 3.0, 4.0):
        val, _ = env.kappa_max(H, p)
        ref = brute_kappa_max(H, p)
        assert abs(val - ref) <= 1e-12 * ref


# ---------------------------------------------------------------------------
# the verification report

def test_verify_constant_weight_report():
    f = random_band_field(SPEC64, seed=3, density=0.3)
    H = constant_weight(SPEC64, 1.0)
    rep = env.verify_weighted_sq(f, H, 4.0)
    assert rep.lhs == pytest.approx(lp_norm(f, 4.0), rel=1e-12)
    assert rep.kappa_max == 1.0
    assert rep.ratio_sq == pytest.approx(rep.lhs / rep.sq_rhs)
    assert rep.ratio_env == pytest.approx(rep.lhs ** 4.0 / rep.env_rhs)
    assert sum(rep.env_by_scale.values()) == pytest.approx(rep.env_rhs)
    assert not rep.zero_field
    assert rep.floor == 64.0 ** -40


def test_verify_env_sum_dominates_each_term():
    f = random_band_field(SPEC64, seed=9, density=0.4)
    H = ball_weight(SPEC64, 4.0, center=(1.0, 1.0))
    rep = env.verify_weighted_sq(f, H, 2.5)
    assert len(rep.terms) > 0
    assert rep.env_rhs >= max(t[-1] for t in rep.terms) > 0.0


def test_verify_zero_field_flagged():
    f = synthesize(np.array([[0, 0]]), np.array([0.0 + 0j]), SPEC64)
    rep = env.verify_weighted_sq(f, constant_weight(SPEC64, 1.0), 2.0)
    assert rep.zero_field
    assert rep.lhs == 0.0
    assert rep.ratio_sq == 0.0 and rep.ratio_env == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_verify_field_without_modes(p):
    # no theta pieces: every scale has no caps and the sums stay empty
    f = synthesize(np.empty((0, 2), np.int64), np.empty(0), SPEC64)
    for H in (constant_weight(SPEC64, 1.0), ball_weight(SPEC64, 4.0)):
        rep = env.verify_weighted_sq(f, H, p)
        assert rep.zero_field and rep.terms == []
        assert rep.env_rhs == 0.0 and rep.sq_norm == 0.0


def test_verify_single_packet_ratio_bounded():
    # all modes in one theta cap: S = |f| so the square side is tight
    fr = np.array([[0, 0], [1, 0], [2, 0]])
    f = synthesize(fr, np.array([1.0, 0.3j, 0.2 + 0.1j]), SPEC64)
    rep = env.verify_weighted_sq(f, constant_weight(SPEC64, 1.0), 4.0)
    assert 0.9 <= rep.ratio_sq <= 1.0 + 1e-9


def test_report_json_and_csv(tmp_path):
    f = random_band_field(SPEC64, seed=2, density=0.3)
    rep = env.verify_weighted_sq(f, ball_weight(SPEC64, 2.0), 2.0)
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "terms.csv"
    cli._write_json(jpath, rep.to_dict())
    cli._write_csv(cpath, cli._terms_table(rep.terms))
    data = json.loads(jpath.read_text())
    assert data["R"] == 64 and data["p"] == 2.0
    assert data["n_terms"] == len(rep.terms)
    assert set(data["kappa_witness"]) == {"s", "k", "z1", "z2"}
    lines = cpath.read_text().strip().split("\n")
    assert lines[0] == "s,cap_id,z1,z2,kappa,term"
    assert len(lines) == 1 + len(rep.terms)


def test_envelope_weight_is_its_stated_formula():
    # w_U from the module comment's numbers, not the module's constants:
    # (1 + |d|_inf)^-10 over the 5 x 5 neighbour block, and the cells
    # beyond it, 8 r of them at distance r, folded into a uniform tail
    tail = sum(8.0 * r * (1.0 + r) ** -10 for r in range(10 ** 4, 2, -1))
    C = np.zeros((1, 8, 6))
    C[0, 3, 4] = 48.0
    want = np.full((8, 6), tail)
    for d1 in range(-2, 3):
        for d2 in range(-2, 3):
            want[3 - d1, (4 - d2) % 6] += 48.0 * \
                (1.0 + max(abs(d1), abs(d2))) ** -10
    got = env.weighted_cell_integrals(C, [0])[0]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_weighted_cell_integrals_mass_conserving_weights():
    # a flat cell field picks up exactly the full window mass everywhere
    C = np.full((3, 8, 4), 2.0)
    out = env.weighted_cell_integrals(C, shear=[0, 2, 5])
    block = sum((1.0 + max(abs(a), abs(b))) ** -env.W_EXPONENT
                for a in range(-2, 3) for b in range(-2, 3))
    assert np.allclose(out, 2.0 * (block + env.W_TAIL), rtol=1e-12)


def test_env_shift_wraps_with_shear():
    N1U, N2U, shear = 8, 4, 2
    C = np.arange(32, dtype=float).reshape(N1U, N2U)
    out = env_shift(C, 0, 1, shear)
    # interior columns shift plainly
    assert np.array_equal(out[:, 0], C[:, 1])
    # the wrapped column picks up the shear in the first axis
    assert np.array_equal(out[:, 3], C[(np.arange(N1U) + shear) % N1U, 0])


@pytest.mark.parametrize("N1U,N2U", [(1, 1), (1, 3), (3, 1), (2, 4), (4, 2),
                                     (5, 5), (8, 4), (16, 6), (7, 13)])
def test_weighted_cell_integrals_match_gather_oracle(N1U, N2U):
    # the padded-view sum against one gather per neighbor, bit for bit,
    # including lattices narrower than the 5x5 block and every shear, one
    # cap of the stack per shear
    C = np.random.default_rng(N1U * 31 + N2U).random((8, N1U, N2U))
    out = env.weighted_cell_integrals(C, range(8))
    for shear in range(8):
        assert np.array_equal(out[shear],
                              gathered_weighted_cell_integrals(C[shear],
                                                               shear))


def test_weighted_cell_integrals_match_gather_oracle_on_caps():
    f = random_band_field(SPEC64, seed=2, density=0.5)
    for s in dyadic_scales(64):
        _, C, shears = _scale_cells(f, s)
        out = env.weighted_cell_integrals(C, shears)
        for i, shear in enumerate(shears):
            assert np.array_equal(out[i],
                                  gathered_weighted_cell_integrals(C[i],
                                                                   shear))


@pytest.mark.parametrize("R", [16, 64])
@pytest.mark.parametrize("pair", sorted(PAIR_FAMILIES))
def test_per_scale_pass_matches_per_cap_oracle(monkeypatch, pair, R):
    # every cap's weighted cells, every term and every scale's sum of the
    # per-scale pass equal those of one (s, tau) at a time, bit for bit
    ffam, wfam, _ = PAIR_FAMILIES[pair]
    spec = GridSpec(R)
    f = make_field(ffam, spec, 0)
    H = make_weight(wfam, spec)
    seen = []
    cells, weighted = env.scale_cell_integrals, env.weighted_cell_integrals

    def record_cells(thetas, pairs, s, spec):
        ks, C = cells(thetas, pairs, s, spec)
        seen.append([s, ks])
        return ks, C

    def record_weighted(C, shear):
        out = weighted(C, shear)
        seen[-1].append(out)
        return out

    monkeypatch.setattr(env, "scale_cell_integrals", record_cells)
    monkeypatch.setattr(env, "weighted_cell_integrals", record_weighted)
    for p in (2.0, 3.0, 4.0):
        seen.clear()
        rep = env.verify_weighted_sq(f, H, p)
        got = {(s, int(k)): w for s, ks, out in seen for k, w in zip(ks, out)}
        want, terms, by_scale = per_cap_envelope_side(f, H, p)
        assert got.keys() == want.keys()
        for key, w in want.items():
            assert np.array_equal(got[key], w)
        assert rep.terms == terms
        assert rep.env_by_scale == by_scale


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_theta_pair_products_formed_once(monkeypatch, p):
    # the theta pieces' pair products are formed once per call, for every
    # scale and for ||S||_p; only the constant-weight lhs forms the
    # field's own at p != 2
    f = random_band_field(SPEC64, seed=6, density=0.5)
    formed = []
    real = torus.pair_products

    def counted(pieces):
        pieces = list(pieces)
        formed.extend(id(pc) for pc in pieces if pc is not f)
        return real(pieces)

    monkeypatch.setattr(torus, "pair_products", counted)
    monkeypatch.setattr(env, "pair_products", counted)
    for H in (constant_weight(SPEC64, 1.0), ball_weight(SPEC64, 4.0)):
        formed.clear()
        env.verify_weighted_sq(f, H, p)
        assert len(formed) == len(set(formed))
        assert len(formed) == len(env.cap_decompose(f, theta_scale(64)))


def test_constant_weight_verify_never_synthesizes_full_grid(monkeypatch):
    # the constant-weight lhs at p = 4 takes the coefficient identity: no
    # M x M synthesis, no grid pass of power_integral (its np.fft.ifft
    # calls), and the peak stays far below its 32 M^2 bytes
    spec = GridSpec(256)
    real = TorusField.samples_on

    def guarded(self, m, cache=True):
        if m == self.spec.M:
            raise AssertionError("full M x M synthesis")
        return real(self, m, cache)

    def grid_pass(*args, **kwargs):
        raise AssertionError("grid pass of power_integral")

    monkeypatch.setattr(TorusField, "samples_on", guarded)
    monkeypatch.setattr(np.fft, "ifft", grid_pass)
    f = random_band_field(spec, 0)
    H = constant_weight(spec, 1.0)
    tracemalloc.start()
    try:
        rep = env.verify_weighted_sq(f, H, 4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.lhs > 0 and rep.env_rhs > 0
    assert peak < 48 * 2 ** 20


def test_atomic_weight_verify_takes_no_grid_at_p2_p4(monkeypatch):
    # ||S||_p at p in {2, 4} and the atomic lhs need no sample grid; the
    # m = 2R grid of S^2 alone would trace 192 MiB at R = 1024
    spec = GridSpec(1024)
    f = make_field("random", spec, 0)
    H = make_weight("ball", spec)

    def guarded(self, m, cache=True):
        raise AssertionError(f"{m} x {m} synthesis")

    def grid_pass(*args, **kwargs):
        raise AssertionError("grid pass of power_integral")

    monkeypatch.setattr(TorusField, "samples_on", guarded)
    monkeypatch.setattr(np.fft, "ifft", grid_pass)
    for p in (2.0, 4.0):
        tracemalloc.start()
        try:
            rep = env.verify_weighted_sq(f, H, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.lhs > 0 and rep.sq_norm > 0 and rep.env_rhs > 0
        if p == 4.0:
            assert peak < 16 * 2 ** 20


def test_verify_sq_norm_other_p_is_grid_quadrature():
    # away from p in {2, 4}, ||S||_p is the m = 2R grid sum, bit for bit
    f = random_band_field(SPEC64, seed=4, density=0.5)
    pieces = env.cap_decompose(f, theta_scale(64)).values()
    want = sq_norm_from_sq2(square_sum_samples(pieces, SPEC64, 128),
                            SPEC64.L, 3.0)
    rep = env.verify_weighted_sq(f, ball_weight(SPEC64, 4.0), 3.0)
    assert rep.m_grid == 128
    assert rep.sq_norm == want
