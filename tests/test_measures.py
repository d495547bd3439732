"""Weight families, smoothing, level sets, and dimension certificates.

Certificates are checked against exhaustive brute force at small R: the
dyadic atom-centered supremum must bracket the all-grid-center supremum
within the documented doubling factor.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavenvelope.torus import GridSpec
from wavenvelope.geometry import Cap, locate_grid_tubes, theta_scale
from wavenvelope import measures as ms

from oracles import full_grid_ball, full_grid_dual_tube

SPEC = GridSpec(64)
SPEC4 = GridSpec(4)


def brute_ball_sup(measure, alpha, spec, stride=1, r_min=1.0):
    """All-grid-center supremum over dyadic radii (the certificate's target)."""
    jj = np.arange(0, spec.M, stride)
    G1, G2 = np.meshgrid(spec.delta * jj, spec.delta * jj, indexing="ij")
    centers = np.stack([G1.ravel(), G2.ravel()], axis=1)
    radii = ms._dyadic_radii(r_min, spec.L)
    table = ms.ball_masses_at(centers, measure.positions(),
                              np.asarray(measure.mass), radii, spec.L)
    return float((table * radii[None, :] ** -alpha).max())


# ---------------------------------------------------------------------------
# families

def test_constant_total():
    w = ms.make_weight("constant", SPEC, lam=1.0)
    assert w.is_full_constant
    assert w.total == pytest.approx(SPEC.L ** 2)
    assert ms.make_weight("constant", SPEC, lam=0.25).total == \
        pytest.approx(0.25 * SPEC.L ** 2)


def test_ball_count_matches_full_scan():
    rho = 1.5
    w = ms.make_weight("ball", SPEC, rho=rho)
    jj = np.arange(SPEC.M, dtype=np.int64)
    J1, J2 = np.meshgrid(jj, jj, indexing="ij")
    pos = SPEC.delta * np.stack([J1.ravel(), J2.ravel()], axis=1).astype(float)
    d = ms._torus_disp(pos, np.zeros(2), SPEC.L)
    oracle = int(np.sum(np.hypot(d[:, 0], d[:, 1]) <= rho * (1 + 1e-12)))
    assert w.n_atoms == oracle
    assert w.total == pytest.approx(oracle * SPEC.delta ** 2)


@pytest.mark.parametrize("R,rho,center", [
    (64, 0.49 * 256.0, (250.3, 3.7)),
    (64, 127.9, (255.75, 255.75)),
    (16, 0.499 * 64.0, (1.0, 63.2)),
])
def test_wrapped_ball_near_half_period_matches_full_scan(R, rho, center):
    # the candidate box is clipped to one period; every grid point within
    # the wrapped radius must still come out exactly once
    spec = GridSpec(R)
    w = ms.ball_weight(spec, rho, center)
    oracle = full_grid_ball(spec, rho, center)
    assert np.array_equal(w.ij, oracle)
    assert np.all(w.mass == spec.delta ** 2)


def test_ball_translation_invariance_with_wrap():
    a = ms.make_weight("ball", SPEC, rho=2.0, center=(0.0, 0.0))
    b = ms.make_weight("ball", SPEC, rho=2.0, center=(SPEC.L - 1.0, 3.0))
    assert a.n_atoms == b.n_atoms  # wrapped ball keeps its shape


def test_dual_tube_support():
    w = ms.make_weight("dual-tube", SPEC, alpha=1.0)
    s = theta_scale(SPEC.R)
    assert w.n_atoms == int(round(s ** -3)) * int(round(1 / SPEC.delta)) ** 2
    cap = Cap(s, 0)
    z1, z2 = locate_grid_tubes(w.ij[:, 0], w.ij[:, 1], cap, SPEC)
    assert not z1.any() and not z2.any()
    # alpha-dimensional: certificate bounded, uniformly over R
    for spec in (SPEC4, GridSpec(16)):
        wt = ms.make_weight("dual-tube", spec, alpha=1.0)
        cert = ms.dimension_certificate(wt, "alpha-ball", 1.0)
        assert cert.value <= 8.0


@pytest.mark.parametrize("R", [16, 64, 256])
def test_dual_tube_matches_full_grid_scan(R):
    spec = GridSpec(R)
    P = int(round(R ** 0.5))
    for k in (0, 3, -5, P, -P):
        if abs(k) > P:
            continue
        w = ms.dual_tube_weight(spec, alpha=0.8, k=k)
        oracle = full_grid_dual_tube(spec, k)
        assert np.array_equal(w.ij, oracle), k
        assert np.all(w.mass == R ** (0.5 * (0.8 - 2.0)) * spec.delta ** 2)


def test_candidate_atoms_follow_the_builders():
    # the count reads the builder's own parameters and defaults
    for fam, kw in (("ball", {}), ("ball", {"rho": 5.0}), ("lattice", {}),
                    ("dual-tube", {}), ("dual-tube", {"k": 3})):
        built = ms.make_weight(fam, SPEC, **kw).n_atoms
        assert built <= ms.candidate_atoms(fam, SPEC, **kw)
    assert ms.candidate_atoms("ball", SPEC, rho=0.5 * SPEC.L) == 0.0
    assert ms.candidate_atoms("constant", SPEC) == 0.0
    R = 4096
    spec = GridSpec(R)
    assert ms.candidate_atoms("truncated-lattice", spec) \
        == ms.make_weight("truncated-lattice", spec).n_atoms
    with pytest.raises(TypeError):
        ms.candidate_atoms("ball", SPEC, radius=1.0)


def test_lattice_support_oracle():
    kappa, c = 1.0 / 3.0, 0.6
    w = ms.make_weight("lattice", SPEC, kappa=kappa, c=c)
    sites = ms._lattice_sites(SPEC.R, kappa, c, "ball")
    # every atom within c of a site (wrapped), every near-site point present
    pos = w.positions()
    got = set(map(tuple, w.ij))
    for site in sites:
        d = ms._torus_disp(pos, site, SPEC.L)
        assert np.min(np.hypot(d[:, 0], d[:, 1]), initial=np.inf) <= c + 1e-9
    jj = np.arange(SPEC.M, dtype=np.int64)
    J1, J2 = np.meshgrid(jj, jj, indexing="ij")
    allpos = SPEC.delta * np.stack([J1.ravel(), J2.ravel()], axis=1)
    near = np.zeros(len(allpos), dtype=bool)
    for site in sites:
        d = ms._torus_disp(allpos, site, SPEC.L)
        near |= np.hypot(d[:, 0], d[:, 1]) <= c * (1 + 1e-12)
    oracle = {(i % SPEC.M, j % SPEC.M)
              for i, j in np.argwhere(near.reshape(SPEC.M, SPEC.M))}
    assert got == oracle


def test_lattice_empty_support_is_legal():
    w = ms.make_weight("lattice", GridSpec(16), kappa=1.0 / 3.0, c=1e-6)
    assert w.n_atoms >= 0  # empty allowed, flagged by the count
    cert = ms.dimension_certificate(w, "alpha-ball", 1.0)
    assert cert.value >= 0.0


def test_truncated_lattice_sites():
    alpha, c = 1.5, 0.25
    w = ms.make_weight("truncated-lattice", SPEC, alpha=alpha, c=c)
    kappa = (2.0 - alpha) / 6.0
    g1 = 2 * math.pi * SPEC.R ** kappa
    g2 = 2 * math.pi * SPEC.R ** (2 * kappa)
    n_sites = (int(SPEC.R ** 0.5 / g1) + 1) * (int(SPEC.R / g2) + 1)
    assert w.n_atoms == n_sites  # site spacing clears the grid, no collisions
    assert np.allclose(w.mass, math.pi * c * c)


def test_parabolic_box_family():
    w = ms.make_weight("parabolic-box", SPEC, boxes=[(0.0, 0.0, 2.0)])
    # [0,2) x [0,4) at Delta = 1/2 -> 4 x 8 cells
    assert w.n_atoms == 32
    assert w.total == pytest.approx(32 * SPEC.delta ** 2)


def test_weight_validation():
    d2 = SPEC.delta ** 2
    with pytest.raises(ValueError, match="exceeds 1"):
        ms.GridMeasure(SPEC, np.array([[0, 0]]), np.array([2 * d2]), "weight")
    with pytest.raises(ValueError, match="duplicate"):
        ms.GridMeasure(SPEC, np.array([[1, 1], [1, 1]]), np.array([d2, d2]))
    with pytest.raises(ValueError, match="negative"):
        ms.GridMeasure(SPEC, np.array([[0, 0]]), np.array([-1.0]))
    with pytest.raises(ValueError, match="off the sample grid"):
        ms.GridMeasure(SPEC, np.array([[0, SPEC.M]]), np.array([1.0]))


def test_materialize_matches_constant():
    w = ms.make_weight("constant", SPEC4, lam=0.5)
    m = w.materialize()
    assert m.n_atoms == SPEC4.M ** 2
    assert m.total == pytest.approx(w.total)


# ---------------------------------------------------------------------------
# smoothing

def test_smooth_single_atom_profile():
    mu = ms.GridMeasure(SPEC, np.array([[100, 100]]), np.array([1.0]))
    H = ms.smooth_measure(mu)
    h = np.zeros((SPEC.M, SPEC.M))
    h[H.ij[:, 0], H.ij[:, 1]] = H.density()
    c_N = 36.0 / math.pi
    assert h[100, 100] == pytest.approx(c_N)
    for r_cells in (2, 8, 32):
        r = SPEC.delta * r_cells
        assert h[100 + r_cells, 100] == pytest.approx(c_N * (1 + r) ** -10)


def test_smooth_two_atoms_midpoint():
    # atoms 2 apart (4 cells at Delta=1/2); midpoint sees phi(1) twice
    mu = ms.GridMeasure(SPEC, np.array([[96, 100], [100, 100]]),
                        np.array([1.0, 1.0]))
    H = ms.smooth_measure(mu)
    h = np.zeros((SPEC.M, SPEC.M))
    h[H.ij[:, 0], H.ij[:, 1]] = H.density()
    c_N = 36.0 / math.pi
    assert h[98, 100] == pytest.approx(2 * c_N * 2.0 ** -10, rel=1e-12)


def test_smooth_clamp_makes_weight():
    mu = ms.GridMeasure(SPEC4, np.array([[0, 0]]), np.array([5.0]))
    H = ms.smooth_measure(mu, clamp=True)
    assert H.kind == "weight"
    assert np.max(H.density()) <= 1.0 + 1e-12


def test_smooth_certificate_transfer():
    # <mu>_alpha = 1 after normalization; smoothing keeps it O(1)
    mu0 = ms.make_weight("lattice", SPEC, kappa=1.0 / 3.0, c=0.6)
    alpha = 1.0  # 2 - 3*kappa
    cert0 = ms.dimension_certificate(mu0, "alpha-ball", alpha)
    mu = mu0.scaled(1.0 / cert0.value)
    assert ms.dimension_certificate(mu, "alpha-ball", alpha).value == \
        pytest.approx(1.0, rel=1e-9)
    H = ms.smooth_measure(mu, support_tol=1e-12)
    rng = np.random.default_rng(0)
    sub = rng.choice(H.n_atoms, size=min(H.n_atoms, 1024), replace=False)
    certH = ms.certificate_core(H.positions()[sub], np.asarray(H.mass)[sub],
                                "alpha-ball", alpha, 1.0, SPEC.L, L=SPEC.L)
    # lower bound on the smoothed certificate already certifies growth;
    # the full value is checked to stay under the transfer constant
    certH_full = ms.dimension_certificate(H, "alpha-ball", alpha,
                                          centers=H.positions()[sub])
    assert certH.value <= certH_full.value + 1e-12
    assert certH_full.value <= 16.0


# ---------------------------------------------------------------------------
# level sets

def test_level_sets_constant_weight():
    w = ms.make_weight("constant", SPEC4, lam=1.0)
    levels, below = ms.dyadic_level_sets(w)
    assert len(levels) == 1 and levels[0][0] == 1.0
    assert len(levels[0][1]) == SPEC4.M ** 2
    assert len(below) == 0


def test_level_sets_two_valued():
    d2 = SPEC.delta ** 2
    ij = np.array([[0, 0], [1, 0], [2, 0]])
    w = ms.GridMeasure(SPEC, ij, d2 * np.array([1.0, 0.25, 0.25]), "weight")
    levels, below = ms.dyadic_level_sets(w)
    assert [lam for lam, _ in levels] == [1.0, 0.25]
    assert len(levels[0][1]) == 1 and len(levels[1][1]) == 2
    assert len(below) == 0


def test_level_sets_floor():
    d2 = SPEC.delta ** 2
    ij = np.array([[0, 0], [1, 0]])
    w = ms.GridMeasure(SPEC, ij, d2 * np.array([0.5, 1e-90]), "weight")
    levels, below = ms.dyadic_level_sets(w)
    assert [lam for lam, _ in levels] == [0.5]
    assert len(below) == 1  # below the R^-40 floor, kept separately


def test_level_sets_partition_integral():
    # sum over levels of lam |Y_lam| brackets the integral of h
    mu = ms.GridMeasure(SPEC, np.array([[50, 50]]), np.array([1.0]))
    H = ms.smooth_measure(mu, clamp=True, support_tol=0.0)
    levels, below = ms.dyadic_level_sets(H)
    d2 = SPEC.delta ** 2
    boxed = sum(lam * len(idx) * d2 for lam, idx in levels)
    integral = H.total - float(np.sum(np.asarray(H.mass)[below]))
    assert 0.5 * integral <= boxed <= integral + 1e-12


# ---------------------------------------------------------------------------
# certificates

def test_point_mass_certificate():
    mu = ms.GridMeasure(SPEC, np.array([[7, 9]]), np.array([1.0]))
    for alpha in (0.5, 1.0, 2.0):
        cert = ms.dimension_certificate(mu, "alpha-ball", alpha)
        assert cert.value == pytest.approx(1.0)
        assert cert.witness_radius == 1.0


def test_constant_weight_alpha2_is_disk_area():
    w = ms.make_weight("constant", SPEC4, lam=1.0)
    cert = ms.dimension_certificate(w, "alpha-ball", 2.0)
    assert math.pi / 4 <= cert.value <= 4 * math.pi


def test_certificate_brackets_brute_force():
    rng = np.random.default_rng(6)
    for trial in range(3):
        n = rng.integers(3, 12)
        ij = np.unique(rng.integers(0, SPEC4.M, size=(n, 2)), axis=0)
        mu = ms.GridMeasure(SPEC4, ij, rng.uniform(0.2, 2.0, size=len(ij)))
        for alpha in (0.7, 1.5):
            cert = ms.dimension_certificate(mu, "alpha-ball", alpha)
            brute = brute_ball_sup(mu, alpha, SPEC4)
            assert cert.value <= brute * (1 + 1e-9)
            assert brute <= 2.0 ** alpha * cert.value * (1 + 1e-9)


def test_witness_reproduces_value():
    w = ms.make_weight("ball", SPEC, rho=1.5)
    for mode, param in [("alpha-ball", 1.0), ("alpha-ball-all", 1.0),
                        ("beta-par", 2.0), ("mc", (1.0, 2.0))]:
        cert = ms.dimension_certificate(w, mode, param)
        assert ms.evaluate_at_witness(w, cert) == pytest.approx(cert.value,
                                                                rel=1e-9)
        d = cert.to_dict()
        assert d["mode"] == mode and "witness" in d


def test_certificate_json(tmp_path):
    w = ms.make_weight("ball", SPEC4, rho=1.0)
    cert = ms.dimension_certificate(w, "alpha-ball", 1.0)
    path = tmp_path / "cert.json"
    cert.write_json(path)
    import json
    back = json.loads(path.read_text())
    assert back["value"] == cert.value
    assert back["param"] == [1.0]


def test_parabolic_mode_sees_anisotropy():
    # a horizontal segment is 1-dimensional for parabolic boxes,
    # a vertical one is 2-dimensional (the box is rho x rho^2)
    n = 65
    horiz = ms.GridMeasure(SPEC, np.stack([np.arange(n, dtype=np.int64),
                                           np.zeros(n, np.int64)], axis=1),
                           np.full(n, SPEC.delta))
    vert = ms.GridMeasure(SPEC, np.stack([np.zeros(n, np.int64),
                                          np.arange(n, dtype=np.int64)], axis=1),
                          np.full(n, SPEC.delta))
    for rho in (1.0, 2.0, 4.0):
        ch = ms.parbox_masses_at(np.zeros((1, 2)), horiz.positions(),
                                 np.asarray(horiz.mass), np.array([rho]), SPEC.L)
        cv = ms.parbox_masses_at(np.zeros((1, 2)), vert.positions(),
                                 np.asarray(vert.mass), np.array([rho]), SPEC.L)
        assert ch[0, 0] == pytest.approx(rho + SPEC.delta, abs=SPEC.delta)
        assert cv[0, 0] == pytest.approx(rho * rho + SPEC.delta, abs=SPEC.delta)


def test_mc_mode_constant_density():
    # h = 1 everywhere: r^delta (r^-3 int h^q)^(1/q) = r^delta (4 r^3/r^3)^(1/q)
    w = ms.make_weight("constant", SPEC4, lam=1.0)
    delta, q = 1.0, 2.0
    cert = ms.dimension_certificate(w, "mc", (delta, q))
    r = cert.witness_radius
    assert cert.value >= r ** delta  # at least the box-volume prediction
    with pytest.raises(ValueError):
        ms.dimension_certificate(w, "mc", (1.0, 4.0))  # q > 3/delta


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 10.0), st.sampled_from(["alpha-ball", "beta-par"]))
def test_certificate_scaling_property(c, mode):
    ij = np.array([[0, 0], [3, 1], [10, 200], [40, 40]])
    mu = ms.GridMeasure(SPEC, ij, np.array([1.0, 0.5, 2.0, 0.25]))
    base = ms.dimension_certificate(mu, mode, 1.2)
    scaled = ms.dimension_certificate(mu.scaled(c), mode, 1.2)
    assert scaled.value == pytest.approx(c * base.value, rel=1e-12)
    assert scaled.witness_radius == base.witness_radius


def test_monotonicity_of_atomic_evaluation():
    w = ms.make_weight("ball", SPEC, rho=2.0)
    pos, mass = w.positions(), np.asarray(w.mass)
    radii = np.array([1.0, 2.0, 4.0])
    table = ms.ball_masses_at(np.zeros((1, 2)), pos, mass, radii, SPEC.L)
    assert table[0, 0] <= table[0, 1] <= table[0, 2]


# ---------------------------------------------------------------------------
# IO

def test_measure_csv_roundtrip(tmp_path):
    w = ms.make_weight("truncated-lattice", SPEC, alpha=1.5, c=0.25)
    path = tmp_path / "m.csv"
    ms.write_measure_csv(w, path)
    back = ms.read_measure_csv(path, SPEC, kind="weight")
    assert np.array_equal(back.ij, w.ij)
    assert np.array_equal(back.mass, w.mass)


def test_measure_csv_empty(tmp_path):
    w = ms.GridMeasure(SPEC, np.empty((0, 2), np.int64), np.empty(0))
    path = tmp_path / "empty.csv"
    ms.write_measure_csv(w, path)
    back = ms.read_measure_csv(path, SPEC)
    assert back.n_atoms == 0
