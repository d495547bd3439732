import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavenvelope.torus import (
    GridSpec, point_eval, random_band_field, synthesize,
)
from wavenvelope.geometry import Cap, cap_children, theta_scale
from wavenvelope.measures import in_ball
from wavenvelope import cli, decomp as dc, envelope as env, torus

from oracles import (bg_split, dict_merge_pieces, direct_trig_sum,
                     grid_points, l2sq, modulation, pinned_fields, spectrum)

SPEC64 = GridSpec(64)


def cap_field(spec, modes, amps=None):
    modes = np.asarray(modes, dtype=np.int64)
    if amps is None:
        amps = np.ones(len(modes), dtype=complex)
    return synthesize(modes, amps, spec)


def parabola_mode(spec, xi1):
    """Nearest lattice mode to (xi1, xi1^2); always inside the band."""
    step = spec.freq_step
    n1 = int(round(xi1 / step))
    return n1, int(round((n1 * step) ** 2 / step))


# ---------------------------------------------------------------------------
# the elementary split

def test_bg_split_worked_example():
    max_term, bilinear, C = bg_split([4, 2, 1], [{0}, {1}, {2}], p=2)
    assert max_term == 16.0
    assert bilinear == 9 * 8.0
    assert C == 2.0
    assert (4 + 2 + 1) ** 2 <= C * (max_term + bilinear) == 176.0


def test_bg_split_single_element():
    max_term, bilinear, C = bg_split([3.0], [{0}], p=2.5)
    assert bilinear == 0.0
    assert max_term == 3.0 ** 2.5
    assert C >= 1.0


@pytest.mark.parametrize("n", [2, 5, 10])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_bg_split_all_equal(n, p):
    max_term, bilinear, C = bg_split(np.ones(n), [{i} for i in range(n)], p)
    assert max_term == 1.0
    assert float(n) ** p <= C * (1.0 + bilinear)


def test_bg_split_wide_neighborhoods_kill_bilinear():
    # every index near every other: no separated pair, C1 = n
    a = [1.0, 2.0, 3.0]
    hood = [set(range(3))] * 3
    max_term, bilinear, C = bg_split(a, hood, p=2)
    assert bilinear == 0.0
    assert C == 2.0 * 3 ** 2
    assert 36.0 <= C * max_term


def test_bg_split_rejections():
    with pytest.raises(ValueError):
        bg_split([], [], p=2)
    with pytest.raises(ValueError):
        bg_split([1.0, -0.5], [{0}, {1}], p=2)
    with pytest.raises(ValueError):
        bg_split([1.0], [{0}], p=0.5)
    with pytest.raises(ValueError):
        bg_split([1.0, 1.0], [{1}, {1}], p=2)  # 0 not in its own hood
    with pytest.raises(ValueError):
        bg_split([1.0, 1.0], [{0, 5}, {1}], p=2)  # out of range
    with pytest.raises(ValueError):
        bg_split([1.0, 1.0], [{0}], p=2)  # one hood missing


def test_bg_split_tiny_entries_do_not_underflow():
    # a_0 a_1 underflows to 0 in double; the bound must still hold
    tiny = 3.663676782435874e-209
    max_term, bilinear, C = bg_split([tiny, tiny], [{0}, {1}], p=1.0)
    assert C == 1.0 and max_term == tiny and bilinear == 2 * tiny


@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12),
       st.floats(1.0, 4.0), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_bg_split_certificate_property(a, p, rnd):
    n = len(a)
    hoods = []
    for i in range(n):
        extra = {j for j in range(n) if rnd.random() < 0.3}
        hoods.append({i} | extra)
    # the inequality is checked inside; C must match the stated formula
    _, _, C = bg_split(a, hoods, p)
    C1 = max(len(I) for I in hoods)
    assert C == 2.0 ** (p - 1) * max(C1 ** p, 1.0)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_broad_narrow_stage_constant_is_the_split_constant(p):
    # neighborhoods of a row of sibling caps under the separation rule that
    # broad_narrow pairs by: caps |i - j| - 1 child widths apart are
    # separated from SEPARATION on; its per-stage constant is the split's C
    f = random_band_field(GridSpec(16), seed=0)
    rep = dc.broad_narrow(f, [[0.0, 0.0]], p=p, K=4)
    n = 12
    hoods = [{j for j in range(n) if not dc.separated(i, j)}
             for i in range(n)]
    a = np.random.default_rng(0).uniform(0.0, 1.0, n)
    assert bg_split(a, hoods, p=p)[2] == rep.C_stage
    assert rep.C_stage == 2.0 ** (p - 1) * 3.0 ** p


# ---------------------------------------------------------------------------
# broad-narrow iteration

def test_broad_narrow_single_theta_is_tight():
    spec = GridSpec(16)
    # both modes inside the core of the theta window at k = 1
    f = cap_field(spec, [parabola_mode(spec, 0.24), parabola_mode(spec, 0.26)])
    pts = np.random.default_rng(0).uniform(0, spec.L, size=(200, 2))
    rep = dc.broad_narrow(f, pts, p=3, K=4)
    assert np.all(rep.bilinear == 0.0)
    nz = rep.narrow > 0
    assert np.allclose(rep.lhs[nz] / rep.narrow[nz], 1.0, rtol=1e-9)
    assert rep.max_empirical <= 1.0 + 1e-9


def test_broad_narrow_antipodal_interference():
    spec = GridSpec(16)
    # mode abscissas in the cores of the theta windows at k = -3 and 3
    f = cap_field(spec, [parabola_mode(spec, -0.785), parabola_mode(spec, 0.785)])
    pts = np.array([[0.0, 0.0], [1.0, 3.0]])
    rep = dc.broad_narrow(f, pts, p=2, K=4)
    # at the origin both modes align: the separated product carries the bound
    assert rep.lhs[0] == pytest.approx(4.0, rel=1e-12)
    assert rep.narrow[0] == pytest.approx(2.0, rel=1e-12)
    assert rep.bilinear[0] > rep.narrow[0]
    assert np.all(rep.lhs <= rep.bound * (1 + 1e-9))


def test_broad_narrow_random_field_empirical_constant():
    f = random_band_field(SPEC64, seed=11, density=0.4)
    pts = np.random.default_rng(1).uniform(0, SPEC64.L, size=(10_000, 2))
    rep = dc.broad_narrow(f, pts, p=3, K=4)
    assert rep.max_empirical <= 10.0
    assert rep.C_certified == rep.C_stage ** rep.m
    assert np.all(rep.lhs <= rep.bound * (1 + 1e-9))


def test_broad_narrow_rejects_bad_p():
    f = random_band_field(GridSpec(16), seed=0)
    with pytest.raises(ValueError):
        dc.broad_narrow(f, [[0.0, 0.0]], p=0.5, K=4)


@pytest.mark.parametrize("p", [float("nan"), float("inf")])
def test_broad_narrow_requires_finite_p(p):
    # a NaN or infinite p gives NaN bounds, which no point can break
    f = random_band_field(GridSpec(16), seed=0)
    with pytest.raises(ValueError, match="finite p"):
        dc.broad_narrow(f, [[0.0, 0.0]], p=p, K=4)


def test_over_bound_spares_the_roundoff_sliver():
    # the one rule of the certificate and of the runner's violation count
    bound = np.full(3, 2.0)
    lhs = bound * (1 + np.array([0.0, 0.5, 2.0]) * dc.CERT_RTOL)
    assert dc.over_bound(lhs, bound).tolist() == [False, False, True]


# ---------------------------------------------------------------------------
# parabolic rescaling

def test_rescale_identity_at_unit_cap():
    f = random_band_field(GridSpec(16), seed=5)
    g = dc.parabolic_rescale(f, Cap(1.0, 0))
    xi = f.spec.freq_step * f.freqs.astype(float)
    assert np.array_equal(g.freqs, xi)
    assert np.array_equal(g.amps, f.amps)


def test_rescale_single_mode_pullback():
    spec = GridSpec(64)
    cap = Cap(0.25, 1)
    n1, n2 = parabola_mode(spec, 0.26)
    f = cap_field(spec, [(n1, n2)], [2.0 - 1.0j])
    g = dc.parabolic_rescale(f, cap)
    assert g.n_modes == 1
    R_new = 64 * 0.25 ** 2
    # push the model frequency back through A_tau
    s, c = cap.s, cap.c
    eta1, eta2 = g.freqs[0]
    xi1 = c + s * eta1
    xi2 = c * c + 2 * c * s * eta1 + s * s * eta2
    step = spec.freq_step
    assert abs(xi1 - n1 * step) <= 1e-14
    assert abs(xi2 - n2 * step) <= 1e-14
    _, dens = spectrum(g, cap)
    assert dens[0] == pytest.approx(s ** 3 * (2.0 - 1.0j), rel=1e-15)
    assert abs(eta2 - eta1 ** 2) <= 1.0 / R_new + 1e-12


def test_rescale_modulus_identity_on_grid():
    spec = GridSpec(64)
    cap = Cap(0.25, 1)
    modes = [parabola_mode(spec, x) for x in (0.22, 0.25, 0.27, 0.30)]
    rng = np.random.default_rng(4)
    f = cap_field(spec, modes, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    g = dc.parabolic_rescale(f, cap)
    x_model = rng.uniform(-30, 30, size=(300, 2))
    L = np.asarray(cap.transforms()[2])
    x_phys = x_model @ L.T
    gv = g.point_eval(x_model)
    fv = point_eval(f, x_phys)
    assert np.max(np.abs(np.abs(gv) - np.abs(fv))) <= 1e-8
    # the full identity g = c_tau . (f o L_tau), not just the modulus
    assert np.max(np.abs(gv - modulation(g, cap, x_model) * fv)) <= 1e-10


@pytest.mark.parametrize("R_s", [16, 64])
def test_bilinear_grid_matches_direct_sum(R_s):
    # bilinear_check's quadrature grid on B, for a unit parent at R = R_s
    # and a half parent rescaled from R = 4 R_s
    n = 4 * R_s
    ax = (np.arange(n) + 0.5) * (R_s / n) - R_s / 2
    axes = (ax + 3.0, ax - 5.0)
    pts = grid_points(*axes)
    for R, parent, kids in ((R_s, Cap(1.0, 0), (1, -2)),
                            (4 * R_s, Cap(0.5, 0), (-2, 1))):
        f = random_band_field(GridSpec(R), seed=R_s, density=0.5)
        s_c = parent.s / 4
        pair = dc.bilinear_pair(f, parent, Cap(s_c, kids[0]),
                                Cap(s_c, kids[1]))
        assert pair.R_s == R_s
        for g in (pair.g1, pair.g2):
            got = g.point_eval(axes=axes).ravel()
            want = direct_trig_sum(g.freqs, g.amps, pts)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_rescale_rejects_outside_modes():
    spec = GridSpec(64)
    f = cap_field(spec, [parabola_mode(spec, 0.9)])
    with pytest.raises(ValueError):
        dc.parabolic_rescale(f, Cap(0.25, 1))


def test_rescale_l2_bookkeeping():
    spec = GridSpec(64)
    modes = [parabola_mode(spec, x) for x in (0.23, 0.28)]
    f = cap_field(spec, modes, [1.0, 2.0])
    g = dc.parabolic_rescale(f, Cap(0.25, 1))
    assert l2sq(g) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# bilinear pairs

def two_child_field(spec, k1=1, k2=-2, s_c=0.25):
    xs = [k1 * s_c - 0.02, k1 * s_c + 0.03, k2 * s_c - 0.01, k2 * s_c + 0.02]
    modes = [parabola_mode(spec, x) for x in xs]
    rng = np.random.default_rng(8)
    return cap_field(spec, modes,
                     rng.standard_normal(4) + 1j * rng.standard_normal(4))


def test_bilinear_pair_assembly():
    f = two_child_field(SPEC64)
    pair = dc.bilinear_pair(f, Cap(1.0, 0), Cap(0.25, 1), Cap(0.25, -2))
    assert pair.K == 4
    assert pair.R_s == 64.0
    assert pair.separation == pytest.approx((3 - 1) * 0.25)
    assert pair.pair_id == "L0C0:1:-2"
    assert pair.g1.n_modes == 2 and pair.g2.n_modes == 2


def test_bilinear_pair_separation_rejected():
    spec = SPEC64
    f = cap_field(spec, [parabola_mode(spec, 0.02), parabola_mode(spec, 0.26)])
    with pytest.raises(ValueError, match="separation"):
        dc.bilinear_pair(f, Cap(1.0, 0), Cap(0.25, 0), Cap(0.25, 1))


def test_bilinear_pair_scale_validation():
    f = two_child_field(SPEC64)
    good = dc.bilinear_pair(f, Cap(1.0, 0), Cap(0.25, 1), Cap(0.25, -2))
    with pytest.raises(ValueError, match="scale"):
        dc.BilinearPair(Cap(1.0, 0), Cap(0.25, 1), Cap(0.5, -1),
                        good.g1, good.g2, good.g_thetas, 64)
    with pytest.raises(ValueError, match="scale"):
        dc.BilinearPair(Cap(0.25, 0), Cap(0.25, 1), Cap(0.25, -2),
                        good.g1, good.g2, good.g_thetas, 64)


def test_bilinear_pair_empty_child_rejected():
    spec = SPEC64
    f = cap_field(spec, [parabola_mode(spec, 0.26)])
    with pytest.raises(ValueError, match="no modes"):
        dc.bilinear_pair(f, Cap(1.0, 0), Cap(0.25, 1), Cap(0.25, -2))


def test_boundary_mode_merged_once():
    spec = SPEC64
    # xi1 near the theta boundary between k=3 and k=4 splits across two
    # windows, both of which sit inside child k=2; the merge re-unites it
    s_th = theta_scale(spec.R)
    modes = [parabola_mode(spec, 3.5 * s_th), parabola_mode(spec, 0.51),
             parabola_mode(spec, -0.52)]
    f = cap_field(spec, modes)
    pair = dc.bilinear_pair(f, Cap(1.0, 0), Cap(0.25, 2), Cap(0.25, -2))
    assert pair.g1.n_modes == 2
    assert np.max(np.abs(pair.g1.amps - 1.0)) <= 1e-12


@pytest.mark.parametrize("R", [16, 64, 256])
@pytest.mark.parametrize("at_theta", [True, False])
def test_merge_pieces_matches_dict_oracle_bit_for_bit(R, at_theta):
    # adjacent windows share boundary modes; merging all pieces, a run of
    # two and all in reverse order keeps the dict loop's modes and sums
    spec = GridSpec(R)
    scale = theta_scale(R) if at_theta else 0.25
    for name, f in pinned_fields(spec, scale).items():
        pieces = list(env.cap_decompose(f, scale).values())
        for group in (pieces, pieces[1:3], pieces[::-1]):
            if not group:
                continue
            got = dc._merge_pieces(group, spec)
            want = dict_merge_pieces(group, spec)
            assert np.array_equal(got.freqs, want.freqs), name
            assert np.array_equal(got.amps, want.amps), name


def test_derived_fields_never_synthesize(monkeypatch):
    # a field is validated once, where it enters; cap pieces and merged
    # children are selections of its modes, built directly
    spec = SPEC64
    f = random_band_field(spec, seed=11, density=0.5)
    s_th = theta_scale(spec.R)
    pair_field = cap_field(spec, [parabola_mode(spec, 3.5 * s_th),
                                  parabola_mode(spec, 0.51),
                                  parabola_mode(spec, -0.52)])
    pts = np.random.default_rng(1).uniform(0, spec.L, size=(500, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("synthesize on a derived field")

    for mod in (torus, env, dc):
        monkeypatch.setattr(mod, "synthesize", refuse, raising=False)
    for scale in (s_th, 0.25):
        env.cap_decompose(f, scale)
    dc.broad_narrow(f, pts, p=4, K=4)
    pair = dc.bilinear_pair(pair_field, Cap(1.0, 0), Cap(0.25, 2),
                            Cap(0.25, -2))
    assert pair.g1.n_modes == 2


# ---------------------------------------------------------------------------
# the local bilinear constants

def test_bilinear_check_single_modes_closed_form():
    spec = SPEC64
    f = cap_field(spec, [parabola_mode(spec, 0.26), parabola_mode(spec, -0.51)])
    pair = dc.bilinear_pair(f, Cap(1.0, 0), Cap(0.25, 1), Cap(0.25, -2))
    rep = dc.bilinear_check(pair, None)
    # |g1 g2| is constant, so every quadrature is exact and the constant
    # is the Gaussian mass ratio (|B| / 2 pi sigma^2)^2 at sigma = R_s/2
    assert rep.C_bil == pytest.approx((2 / np.pi) ** 2, rel=1e-12)
    assert rep.C_bil <= 4.0
    assert rep.C_orth1 <= 1.0 + 1e-12 and rep.C_orth2 <= 1.0 + 1e-12


_FORCED_VIOLATION = """
import numpy as np
from wavenvelope import decomp as dc
from wavenvelope.geometry import Cap
from wavenvelope.torus import GridSpec, synthesize

assert False, "asserts run"  # -O must strip this line
spec = GridSpec(64)
step = spec.freq_step
modes = [(n1, round((n1 * step) ** 2 / step))
         for n1 in (round(0.26 / step), round(-0.51 / step))]
f = synthesize(np.array(modes), np.ones(2, dtype=complex), spec)
pair = dc.bilinear_pair(f, Cap(1.0, 0), Cap(0.25, 1), Cap(0.25, -2))
# the child norms far above the theta square sum break Cauchy-Schwarz
dc._gauss_weighted_l2sq = lambda g, c, s: 1e6 if g is pair.g1 else 1.0
try:
    dc.bilinear_check(pair, None)
except dc.CertificateError as exc:
    print("raised:", exc)
"""


def test_certificate_violation_raises_under_optimize():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-O", "-c", _FORCED_VIOLATION],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "raised: orthogonality ratio above Cauchy-Schwarz ceiling" \
        in out.stdout


def test_bilinear_check_full_plane_reduces_to_plain():
    f = two_child_field(SPEC64)
    pair = dc.bilinear_pair(f, Cap(1.0, 0), Cap(0.25, 1), Cap(0.25, -2))
    rep = dc.bilinear_check(pair, Y=None)
    assert rep.max_cell_ratio == 1.0
    assert rep.int_BY == rep.int_B
    assert rep.C_l4 == rep.C_bil


def test_bilinear_check_restriction_shrinks():
    f = two_child_field(SPEC64)
    pair = dc.bilinear_pair(f, Cap(1.0, 0), Cap(0.25, 1), Cap(0.25, -2))
    Y = partial(in_ball, spec=SPEC64, rho=SPEC64.L / 16.0,
                center=(10.0, 20.0))
    rep = dc.bilinear_check(pair, Y=Y)
    assert rep.int_BY < rep.int_B
    assert 0.0 < rep.max_cell_ratio <= 1.0
    assert np.isfinite(rep.C_l4)


def test_constants_csv_format(tmp_path):
    f = two_child_field(SPEC64)
    pair = dc.bilinear_pair(f, Cap(1.0, 0), Cap(0.25, 1), Cap(0.25, -2))
    rep = dc.bilinear_check(pair, None)
    path = tmp_path / "constants.csv"
    cli._write_csv(path, cli._constants_table([rep, rep]))
    lines = path.read_text().splitlines()
    assert lines[0] == "R,K,s,pair_id,constant,x1,x2"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert float(cells[0]) == rep.R_s
    assert int(cells[1]) == pair.K
    assert float(cells[2]) == pair.parent.s
    assert cells[3] == pair.pair_id
    assert float(cells[4]) == pytest.approx(rep.C_l4)
    float(cells[5]), float(cells[6])


def test_bilinear_trials_deterministic_and_sane():
    a = dc.bilinear_trials(64, 4, 8, seed=42)
    b = dc.bilinear_trials(64, 4, 8, seed=42)
    assert [r.C_l4 for r in a] == [r.C_l4 for r in b]
    for r in a:
        assert r.R_s == 64.0
        assert r.K == 4
        assert np.isfinite(r.C_bil) and np.isfinite(r.C_l4)
        assert r.int_BY <= r.int_B * (1 + 1e-12)
        # the restricted integral is controlled by the occupancy ratio
        denom = r.max_cell_ratio * (r.norm1_w * r.norm2_w) ** 2 / r.R_s ** 2
        assert r.int_BY <= r.C_l4 * denom * (1 + 1e-9) + 1e-12
        # the orthogonality constants divide the weighted norms exactly
        assert (r.C_orth1, r.C_orth2) == (r.norm1_w / r.sq_norm_w,
                                          r.norm2_w / r.sq_norm_w)


@pytest.mark.parametrize("K", [2, 4, 8])
def test_bilinear_trial_pools_are_the_parents_children(K):
    # the pools bilinear_trials draws its pairs from: every child of the
    # virtual root, and the K children of an s = 1/2 parent
    assert cap_children(1.0, 0, 1.0 / K).tolist() == list(range(-K, K + 1))
    for kp in (-1, 0, 1):
        assert cap_children(0.5, kp, 0.5 / K).tolist() == \
            list(range(K * kp - K // 2, K * kp + K // 2))


def test_bilinear_trials_k2_uses_unit_parent():
    reps = dc.bilinear_trials(64, 2, 4, seed=0)
    assert all(r.K == 2 and r.s == 1.0 for r in reps)
