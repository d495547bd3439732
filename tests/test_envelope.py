import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavenvelope.torus import (GridSpec, TorusField, point_eval,
                               power_integral, random_band_field, synthesize,
                               lp_norm)
from wavenvelope.geometry import (Cap, cap_index_for_abscissa, caps_at_scale,
                                  dyadic_scales, envelope_factor,
                                  envelope_lattice_dims, theta_scale)
from wavenvelope.measures import (ball_weight, constant_weight, custom_weight,
                                  make_weight)
from wavenvelope.cli import make_field
from wavenvelope import envelope as env

from oracles import (constant_env_rhs, env_shift,
                     gathered_weighted_cell_integrals, kappa,
                     per_cap_envelope_stats, reconstruction,
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
    dec = env.cap_decompose(f, 0.25)
    acc = reconstruction(dec)
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
    dec = env.cap_decompose(f, 0.25)
    assert dec.caps() == [0]
    assert dec.pieces[0].n_modes == 1
    assert dec.pieces[0].amps[0] == 1.0 + 0j


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
    dec = env.cap_decompose(f, theta_scale(64))
    total = float(np.sum(np.abs(f.amps) ** 2))
    split = sum(float(np.sum(np.abs(pc.amps) ** 2))
                for pc in dec.pieces.values())
    assert split <= total * (1 + 1e-12)
    assert split >= 0.93 * total


def test_square_sum_rejects_aliasing_grid():
    f = random_band_field(SPEC64, seed=1, density=0.5)
    with pytest.raises(ValueError, match="aliases"):
        square_function(f, theta_scale(64), m=8)
    pieces = env.cap_decompose(f, theta_scale(64)).pieces.values()
    with pytest.raises(ValueError, match="aliases"):
        power_integral(pieces, SPEC64, 3.0, 8)


# ---------------------------------------------------------------------------
# envelope cell integrals

def _tau_pieces(field, cap):
    s_theta = theta_scale(field.spec.R)
    dec = env.cap_decompose(field, s_theta)
    return [pc for k, pc in dec.pieces.items()
            if int(cap_index_for_abscissa(k * s_theta, cap.s)) == cap.k]


def _cells(field, cap):
    return env.envelope_cell_integrals(_tau_pieces(field, cap), cap,
                                       field.spec)


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
    H = constant_weight(SPEC64, 1.0).materialize()
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
    H = custom_weight(SPEC64, np.array([[0, 0]]), np.array([0.25]))
    # an envelope far from the single atom carries nothing
    assert kappa(H, 2.0, Cap(1.0, 0), (40, 2)) == 0.0


def test_kappa_zero_measure():
    H = custom_weight(SPEC64, np.empty((0, 2), dtype=np.int64), np.empty(0))
    val, _ = env.kappa_max(H, 2.0)
    assert val == 0.0


def test_kappa_scale_covariance():
    H = ball_weight(SPEC64, 1.5)
    c = 0.25
    Hc = H.scaled(c)
    for p in (2.0, 3.0, 4.0):
        v, _ = env.kappa_max(H, p)
        vc, _ = env.kappa_max(Hc, p)
        assert abs(vc - c ** (1.0 / p) * v) <= 1e-13 * v


def test_kappa_monotone_in_weight():
    ij = np.array([[10, 20], [100, 200], [30, 400]])
    small = custom_weight(SPEC64, ij, np.array([0.05, 0.1, 0.15]))
    large = custom_weight(SPEC64, ij, np.array([0.25, 0.1, 0.22]))
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
    env.kappa_max(H.scaled(0.5), 2.0)
    assert calls == 2 * scales


def test_envelope_stats_cache_is_read_only():
    H = ball_weight(SPEC64, 3.0)
    st = env.envelope_stats(H, 0.5)
    assert env.envelope_stats(H, 0.5) is st
    ekeys = env.kappa_table(H, 2.0, Cap(0.5, 1))[0]
    assert np.shares_memory(ekeys, st.ekeys)
    for arr in (st.ekeys, st.HU, st.maxT, st.offsets, ekeys):
        with pytest.raises(ValueError):
            arr[...] = 0


def test_kappa_table_ignores_cap_level():
    # the cache is keyed by scale, so a tree cap (level 2) reads the entry
    # that caps_at_scale (level 0) filled, and gets the same arrays
    H = ball_weight(SPEC64, 3.0, center=(7.0, 2.0))
    for cap in caps_at_scale(0.25):
        flat = env.kappa_table(H, 3.0, cap)
        tree = env.kappa_table(H, 3.0, Cap(cap.s, cap.k, level=2))
        assert np.array_equal(flat[0], tree[0])
        assert np.array_equal(flat[1], tree[1])
        assert flat[2] == tree[2]
    assert list(H._envelope_stats) == [0.25]


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
        monkeypatch.setattr(env, "DENSE_KEYS_PER_ATOM", ratio)
        H = custom_weight(spec, ij, mass)
        runs.append([env.envelope_stats(H, s)
                     for s in dyadic_scales(spec.R)])
    for sort, dense in zip(*runs):
        for name in ("ekeys", "HU", "maxT", "offsets"):
            a, b = getattr(sort, name), getattr(dense, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert sort.dims == dense.dims


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
        make_weight("custom", spec, ij=ij,
                    mass=spec.delta ** 2 * rng.uniform(0.0, 1.0, len(ij))),
        custom_weight(spec, np.empty((0, 2), dtype=np.int64), np.empty(0)),
    ]
    if R <= 64:
        weights.append(constant_weight(spec, 0.5).materialize())
    return weights


@pytest.mark.parametrize("R", [16, 64, 256])
def test_kappa_tables_bit_equal_per_cap_oracle(R):
    spec = GridSpec(R)
    for H in _oracle_weights(spec):
        for s in dyadic_scales(R):
            for cap in caps_at_scale(s):
                ekeys, HU, maxT, dims = per_cap_envelope_stats(H, cap)
                st = env.envelope_stats(H, s)
                sl = st.cap_slice(cap.k)
                assert st.dims == dims
                for got, want in ((st.ekeys[sl], ekeys), (st.HU[sl], HU),
                                  (st.maxT[sl], maxT)):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (H.label, s, cap.k)
                for p in (2.0, 3.0, 4.0):
                    vals = env.kappa_table(H, p, cap)[1]
                    want = (maxT / env.tube_area(s)) ** 0.25 * \
                        (HU / env.envelope_area(R, s)) ** (1.0 / p - 0.25)
                    assert np.array_equal(vals, want)


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


def brute_kappa_max(H, p):
    """Independent float-path enumeration over every (s, cap, U, T).

    Tube coordinates from the inverse affine map, indices by rounding;
    no wrapping, so callers pass weights supported away from the seam.
    """
    spec = H.spec
    R = spec.R
    pos = H.positions()
    mass = np.asarray(H.mass, dtype=float)
    best = 0.0
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
            for tot, mx in envs.values():
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
    rep.write_json(jpath)
    rep.write_terms_csv(cpath)
    data = json.loads(jpath.read_text())
    assert data["R"] == 64 and data["p"] == 2.0
    assert data["n_terms"] == len(rep.terms)
    assert set(data["kappa_witness"]) == {"s", "k", "z1", "z2"}
    lines = cpath.read_text().strip().split("\n")
    assert lines[0] == "s,cap_id,z1,z2,kappa,term"
    assert len(lines) == 1 + len(rep.terms)


def test_weighted_cell_integrals_mass_conserving_weights():
    # a flat cell field picks up exactly the full window mass everywhere
    C = np.full((8, 4), 2.0)
    out = env.weighted_cell_integrals(C, shear=2)
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
    # including lattices narrower than the 5x5 block and every shear
    C = np.random.default_rng(N1U * 31 + N2U).random((N1U, N2U))
    for shear in range(8):
        assert np.array_equal(env.weighted_cell_integrals(C, shear),
                              gathered_weighted_cell_integrals(C, shear))


def test_weighted_cell_integrals_match_gather_oracle_on_caps():
    f = random_band_field(SPEC64, seed=2, density=0.5)
    dec = env.cap_decompose(f, theta_scale(64))
    for s in dyadic_scales(64):
        for cap in caps_at_scale(s):
            pieces = [pc for k, pc in dec.pieces.items()
                      if cap_index_for_abscissa(k * theta_scale(64), s)
                      == cap.k]
            if not pieces:
                continue
            C = env.envelope_cell_integrals(pieces, cap, SPEC64)
            shear = envelope_lattice_dims(cap, SPEC64)[2]
            assert np.array_equal(env.weighted_cell_integrals(C, shear),
                                  gathered_weighted_cell_integrals(C, shear))


def test_constant_weight_verify_never_synthesizes_full_grid(monkeypatch):
    # the constant-weight lhs at p = 4 takes the coefficient identity: no
    # M x M synthesis, and the peak stays far below its 32 M^2 bytes
    spec = GridSpec(256)
    real = TorusField.samples_on

    def guarded(self, m, cache=True):
        if m == self.spec.M:
            raise AssertionError("full M x M synthesis")
        return real(self, m, cache)

    monkeypatch.setattr(TorusField, "samples_on", guarded)
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

    monkeypatch.setattr(TorusField, "samples_on", guarded)
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
    pieces = env.cap_decompose(f, theta_scale(64)).pieces.values()
    want = sq_norm_from_sq2(square_sum_samples(pieces, SPEC64, 128),
                            SPEC64.L, 3.0)
    rep = env.verify_weighted_sq(f, ball_weight(SPEC64, 4.0), 3.0)
    assert rep.m_grid == 128
    assert rep.sq_norm == want
