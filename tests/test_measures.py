"""Weight families and dimension certificates.

Certificates are checked against exhaustive brute force at small R: the
dyadic atom-centered supremum must bracket the all-grid-center supremum
within the documented doubling factor.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavenvelope import torus
from wavenvelope.torus import GridSpec
from wavenvelope.geometry import Cap, locate_grid_tubes, theta_scale
from wavenvelope import measures as ms

from oracles import (atom_positions, full_grid_ball, full_grid_dual_tube,
                     materialize, measure_total, scaled)

SPEC = GridSpec(64)
SPEC4 = GridSpec(4)


def brute_ball_sup(measure, alpha, spec, stride=1, r_min=1.0):
    """All-grid-center supremum over dyadic radii (the certificate's target)."""
    jj = np.arange(0, spec.M, stride)
    G1, G2 = np.meshgrid(spec.delta * jj, spec.delta * jj, indexing="ij")
    centers = np.stack([G1.ravel(), G2.ravel()], axis=1)
    radii = ms._dyadic_radii(r_min, spec.L)
    table = ms.masses_at(centers, atom_positions(measure),
                         np.asarray(measure.mass), radii, "alpha-ball")
    return float((table * radii[None, :] ** -alpha).max())


def certify(mu, mode, param):
    """certificate_core over a measure's atoms at one exponent: atom
    centres, dyadic radii from 1 (balls) or one cell (parabolic boxes) to
    L."""
    mu = materialize(mu)
    r_min = 1.0 if mode == "alpha-ball" else mu.spec.delta
    cert, = ms.certificate_core(atom_positions(mu), np.asarray(mu.mass),
                                mode, (param,), r_min, mu.spec.L)
    return cert


# ---------------------------------------------------------------------------
# families

def test_constant_total():
    w = ms.make_weight("constant", SPEC, lam=1.0)
    assert w.is_full_constant
    assert measure_total(w) == pytest.approx(SPEC.L ** 2)
    assert measure_total(ms.make_weight("constant", SPEC, lam=0.25)) == \
        pytest.approx(0.25 * SPEC.L ** 2)


@pytest.mark.parametrize("rho", [-1.0, float("nan")])
def test_ball_weight_rejects_negative_radius(rho):
    # a negative radius would build an empty weight
    with pytest.raises(ValueError, match="rho >= 0"):
        ms.ball_weight(SPEC, rho)


def test_ball_count_matches_full_scan():
    rho = 1.5
    w = ms.make_weight("ball", SPEC, rho=rho)
    jj = np.arange(SPEC.M, dtype=np.int64)
    J1, J2 = np.meshgrid(jj, jj, indexing="ij")
    pos = SPEC.delta * np.stack([J1.ravel(), J2.ravel()], axis=1).astype(float)
    d = ms._torus_disp(pos, np.zeros(2), SPEC.L)
    oracle = int(np.sum(np.hypot(d[:, 0], d[:, 1]) <= rho * (1 + 1e-12)))
    assert w.n_atoms == oracle
    assert measure_total(w) == pytest.approx(oracle * SPEC.delta ** 2)


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


@pytest.mark.parametrize("R", [16, 64, 256])
def test_in_ball_matches_built_ball(R):
    # the predicate answers for points anywhere in the plane what the
    # built ball's atom list answers, ball by ball
    spec = GridSpec(R)
    L = spec.L
    rng = np.random.default_rng(R)
    far = rng.uniform(-2 * L, 3 * L, size=(4000, 2))
    for rho in (1.5, L / 8, 0.49 * L, 0.5 * L, 0.7 * L):
        for center in ((0.3, -0.2), (L - 0.4, L - 0.1), (L / 2, L / 2)):
            # points near the center or one of its periodic images
            near = np.asarray(center) + rng.uniform(-1.2, 1.2, (4000, 2)) \
                * rho + L * rng.integers(-2, 3, (4000, 1))
            # and images many periods away on either axis, whose cells
            # in_ball reduces mod M before its per-cell table
            images = near + L * rng.integers(-10 ** 6, 10 ** 6, (4000, 2))
            pts = np.concatenate([far, near, images])
            got = ms.in_ball(pts, spec, rho, center)
            assert np.array_equal(got, ms.ball_weight(spec, rho, center)
                                  .contains(pts)), (rho, center)
            assert got.all() == (rho >= 0.5 * L)


@pytest.mark.parametrize("R", [16, 64])
def test_in_ball_on_and_next_to_the_circle(R):
    # radii that put cells' distances from the center on the circle, a few
    # ulps off it and at the edge of in_ball's 1e-9 margin, where it turns
    # from the squared distance to np.hypot: it answers as the built ball
    spec = GridSpec(R)
    d, L = spec.delta, spec.L
    center = np.array([0.3, -0.2])
    c_idx = np.rint(center / d)
    j = c_idx + np.stack(np.meshgrid(np.arange(-7, 8), np.arange(-7, 8)),
                         axis=-1).reshape(-1, 2)
    cells = d * j
    pts = np.concatenate([cells, cells + 0.49 * d, cells + [L, -3 * L]])
    dist = np.unique(np.hypot(*(ms._axis_disp(j[:, i], spec, center[i])
                                for i in (0, 1))))
    ulp = 2.0 ** -52
    flips = 0
    for r in dist[1::4] / (1 + 1e-12):
        masks = []
        for scale in (1 - 1e-9, 1.0, 1 + 1e-9):
            for k in range(-4, 5):
                rho = r * scale * (1 + k * ulp)
                got = ms.in_ball(pts, spec, rho, center)
                assert np.array_equal(got, ms.ball_weight(spec, rho, center)
                                      .contains(pts)), rho
        for k in (-4, 4):
            masks.append(ms.in_ball(pts, spec, r * (1 + k * ulp), center))
        flips += int(not np.array_equal(*masks))
    assert flips == len(dist[1::4])


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
        cert = certify(wt, "alpha-ball", 1.0)
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
                    ("lattice", {"c": -1.0}),
                    ("dual-tube", {}), ("dual-tube", {"k": 3}),
                    ("parabolic-box",
                     {"boxes": ((0.0, 0.0, 2.0), (8.3, 3.1, 1.7))})):
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


def test_truncated_lattice_estimate_forms_no_mask():
    # the count is the product of the corner window's axis lengths, the
    # size of the all-true site mask, and no mask is formed: at R = 4^15
    # and alpha = 1.01 the mask would hold about 30M sites.  An alpha
    # outside (1, 2) is refused by both the count and the builder before
    # any axis exists (alpha = 3 at R = 65536 once formed a 259 x 420,527
    # mask before the estimate refused it)
    for R in (64, 4096, 65536):
        for alpha in (1.01, 1.5, 1.99):
            _, _, keep = ms.lattice_sites(R, (2.0 - alpha) / 6.0, 0.25,
                                          "corner")
            assert ms.candidate_atoms("truncated-lattice", GridSpec(R),
                                      alpha=alpha) == keep.size
    big = GridSpec(4 ** 15)
    tracemalloc.start()
    try:
        n = ms.candidate_atoms("truncated-lattice", big, alpha=1.01)
        for alpha in (3.0, 100.0, float("nan"), 1.0, 2.0):
            for build in (ms.candidate_atoms, ms.make_weight):
                with pytest.raises(ValueError, match="alpha in"):
                    build("truncated-lattice", GridSpec(65536), alpha=alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n > 2.5e7
    assert peak < 2 ** 16


def test_lattice_support_oracle():
    kappa, c = 1.0 / 3.0, 0.6
    w = ms.make_weight("lattice", SPEC, kappa=kappa, c=c)
    sites = ms._site_points(*ms.lattice_sites(SPEC.R, kappa, c, "ball"))
    # every atom within c of a site (wrapped), every near-site point present
    pos = atom_positions(w)
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
    cert = certify(w, "alpha-ball", 1.0)
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
    assert measure_total(w) == pytest.approx(32 * SPEC.delta ** 2)


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


def test_atom_mass_is_one_float_where_every_atom_carries_it():
    # kappa then sums each tube's mass from its atom count
    for family, params in (("ball", {}), ("dual-tube", {}),
                           ("lattice", {"c": 0.45}), ("truncated-lattice", {}),
                           ("parabolic-box", {"boxes": ((1.0, 1.0, 2.0),)})):
        H = ms.make_weight(family, SPEC, **params)
        assert isinstance(H.atom_mass, float) and H.n_atoms
        assert np.all(H.mass == H.atom_mass)
    varied = ms.GridMeasure(SPEC, np.array([[0, 0], [3, 1]]),
                            np.array([1.0, 0.5]))
    empty = ms.GridMeasure(SPEC, np.empty((0, 2), np.int64), np.empty(0))
    for H in (varied, empty):
        assert H.atom_mass is H.mass


def test_materialize_matches_constant():
    w = ms.make_weight("constant", SPEC4, lam=0.5)
    m = materialize(w)
    assert m.n_atoms == SPEC4.M ** 2
    assert measure_total(m) == pytest.approx(measure_total(w))


# ---------------------------------------------------------------------------
# certificates

def test_point_mass_certificate():
    mu = ms.GridMeasure(SPEC, np.array([[7, 9]]), np.array([1.0]))
    for alpha in (0.5, 1.0, 2.0):
        cert = certify(mu, "alpha-ball", alpha)
        assert cert.value == pytest.approx(1.0)
        assert cert.witness_radius == 1.0


def test_certificate_core_checks_the_mode_of_an_empty_measure():
    empty = np.empty((0, 2)), np.empty(0)
    with pytest.raises(ValueError, match="unknown certificate mode"):
        ms.certificate_core(*empty, "bogus", (1.0,), 1.0, 2.0)
    cert, = ms.certificate_core(*empty, "alpha-ball", (1.0,), 1.0, 2.0)
    assert (cert.value, cert.witness_radius) == (0.0, 1.0)


def test_certificates_of_two_exponents_equal_two_one_exponent_calls():
    # one masses table serves every exponent, bit for bit
    rng = np.random.default_rng(8)
    pos = rng.uniform(-3.0, 3.0, size=(150, 2))
    mass = rng.uniform(0.1, 1.0, size=150)
    for mode in ("alpha-ball", "beta-par"):
        pair = ms.certificate_core(pos, mass, mode, (0.6, 1.7), 0.25, 8.0)
        one = [ms.certificate_core(pos, mass, mode, (a,), 0.25, 8.0)[0]
               for a in (0.6, 1.7)]
        assert pair == one
        assert pair[0] != pair[1]


def test_constant_weight_alpha2_is_disk_area():
    w = ms.make_weight("constant", SPEC4, lam=1.0)
    cert = certify(w, "alpha-ball", 2.0)
    assert math.pi / 4 <= cert.value <= 4 * math.pi


def test_certificate_brackets_brute_force():
    rng = np.random.default_rng(6)
    for trial in range(3):
        n = rng.integers(3, 12)
        ij = np.unique(rng.integers(0, SPEC4.M, size=(n, 2)), axis=0)
        mu = ms.GridMeasure(SPEC4, ij, rng.uniform(0.2, 2.0, size=len(ij)))
        for alpha in (0.7, 1.5):
            cert = certify(mu, "alpha-ball", alpha)
            brute = brute_ball_sup(mu, alpha, SPEC4)
            assert cert.value <= brute * (1 + 1e-9)
            assert brute <= 2.0 ** alpha * cert.value * (1 + 1e-9)


def test_witness_reproduces_value():
    w = ms.make_weight("ball", SPEC, rho=1.5)
    for mode, param in [("alpha-ball", 1.0), ("beta-par", 2.0)]:
        cert = certify(w, mode, param)
        # the certified ratio, recomputed at the stored witness alone
        table = ms.masses_at(np.asarray([cert.witness_center]),
                             atom_positions(w), np.asarray(w.mass),
                             np.asarray([cert.witness_radius]), mode)
        at_witness = float(table[0, 0]) * cert.witness_radius ** -param
        assert at_witness == pytest.approx(cert.value, rel=1e-9)


def test_masses_tables_bits_do_not_depend_on_budget(monkeypatch):
    rng = np.random.default_rng(4)
    pos = rng.uniform(0.0, SPEC.L, size=(300, 2))
    mass = rng.uniform(0.1, 1.0, size=300)
    radii = 2.0 ** np.arange(-1, 5)
    modes = ("alpha-ball", "beta-par")
    want = [ms.masses_at(pos[:200], pos, mass, radii, mode) for mode in modes]
    # 200 centers take four blocks: 64, 64, 64 and 8
    monkeypatch.setattr(torus, "CELL_BUDGET", 3)
    for mode, ref in zip(modes, want):
        assert np.array_equal(
            ms.masses_at(pos[:200], pos, mass, radii, mode), ref)


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
        ch = ms.masses_at(np.zeros((1, 2)), atom_positions(horiz),
                          np.asarray(horiz.mass), np.array([rho]), "beta-par")
        cv = ms.masses_at(np.zeros((1, 2)), atom_positions(vert),
                          np.asarray(vert.mass), np.array([rho]), "beta-par")
        assert ch[0, 0] == pytest.approx(rho + SPEC.delta, abs=SPEC.delta)
        assert cv[0, 0] == pytest.approx(rho * rho + SPEC.delta, abs=SPEC.delta)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 10.0), st.sampled_from(["alpha-ball", "beta-par"]))
def test_certificate_scaling_property(c, mode):
    ij = np.array([[0, 0], [3, 1], [10, 200], [40, 40]])
    mu = ms.GridMeasure(SPEC, ij, np.array([1.0, 0.5, 2.0, 0.25]))
    base = certify(mu, mode, 1.2)
    got = certify(scaled(mu, c), mode, 1.2)
    assert got.value == pytest.approx(c * base.value, rel=1e-12)
    assert got.witness_radius == base.witness_radius


def test_monotonicity_of_atomic_evaluation():
    w = ms.make_weight("ball", SPEC, rho=2.0)
    pos, mass = atom_positions(w), np.asarray(w.mass)
    radii = np.array([1.0, 2.0, 4.0])
    table = ms.masses_at(np.zeros((1, 2)), pos, mass, radii, "alpha-ball")
    assert table[0, 0] <= table[0, 1] <= table[0, 2]
