"""Cap/tube/envelope geometry: exact partitions, nesting, and the tree.

The tiling claims are combinatorial, so the tests count: every tube at
every scale holds exactly s^-3 / Delta^2 grid points, every envelope
holds E^2 tubes' worth, and the float point-location path agrees with
the integer path on the nose.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavenvelope.torus import GridSpec, parabola_band_modes
from wavenvelope.geometry import (
    Cap, build_cap_tree, cap_index_for_abscissa, caps_at_scale,
    dyadic_scales, envelope_factor, envelope_lattice_dims,
    envelope_index_of_tube, locate_grid_envelopes, locate_grid_tubes,
    locate_scale_tubes, mode_cap_index, theta_scale, tube_lattice_dims,
    wrap_envelope_index,
)

from oracles import (grid_tube_index, locate_points, tube_local_coords,
                     wrap_tube_index)

SPEC = GridSpec(64)


def grid_indices(spec):
    jj = np.arange(spec.M, dtype=np.int64)
    J1, J2 = np.meshgrid(jj, jj, indexing="ij")
    return J1.ravel(), J2.ravel()


def test_dyadic_scales():
    assert dyadic_scales(64) == [1.0, 0.5, 0.25, 0.125]
    assert theta_scale(64) == 0.125
    assert theta_scale(1024) == 0.03125


def test_cap_basics():
    cap = Cap(0.25, 2)
    assert cap.c == 0.5
    assert cap.cap_id == "L0C2"
    with pytest.raises(ValueError):
        Cap(0.25, 5)  # |k| > 1/s


def test_caps_at_scale_count():
    for s in dyadic_scales(64):
        caps = caps_at_scale(s)
        assert len(caps) == 2 * int(round(1 / s)) + 1
        assert all(abs(c.c) <= 1.0 for c in caps)


def test_golden_transform():
    cap = Cap(0.25, 2)  # s = 1/4, c = 1/2
    A_off, A_mat, L, L_inv = cap.transforms()
    assert np.allclose(A_off, [0.5, 0.25])
    assert np.allclose(L, [[4.0, -16.0], [0.0, 16.0]])
    assert np.allclose(L_inv, [[0.25, 0.25], [0.0, 0.0625]])
    assert np.linalg.det(L) == pytest.approx(64.0)        # s^-3
    assert np.allclose(L @ A_mat.T, np.eye(2))            # L = A^-T


def test_affine_map_preserves_parabola():
    rng = np.random.default_rng(0)
    for cap in caps_at_scale(0.25):
        A_off, A_mat, _, _ = cap.transforms()
        t = rng.uniform(-1, 1, size=32)
        img = A_off[None, :] + np.stack([t, t * t], axis=1) @ A_mat.T
        assert np.max(np.abs(img[:, 1] - img[:, 0] ** 2)) < 1e-12


def test_mode_cap_index_covers_band():
    modes = parabola_band_modes(SPEC)
    for s in dyadic_scales(SPEC.R):
        k = mode_cap_index(modes, SPEC, s)
        assert np.all(np.abs(k) <= int(round(1 / s)))
        # half-open assignment: xi1 within s/2 of the cap center,
        # except at the clipped edges
        xi1 = SPEC.freq_step * modes[:, 0]
        inner = np.abs(k) < int(round(1 / s))
        assert np.max(np.abs(xi1[inner] - k[inner] * s)) <= s / 2 + 1e-12


def test_cap_index_half_open_boundary():
    s = 0.25
    assert cap_index_for_abscissa(s / 2, s) == 1
    assert cap_index_for_abscissa(-s / 2, s) == 0
    assert cap_index_for_abscissa(3 * s / 2, s) == 2


def test_tube_partition_is_uniform():
    j1, j2 = grid_indices(SPEC)
    for s in dyadic_scales(SPEC.R):
        per_tube = int(round(1 / s ** 3)) * int(round(1 / SPEC.delta)) ** 2
        for cap in caps_at_scale(s):
            N1, N2, _ = tube_lattice_dims(cap, SPEC)
            z1, z2 = locate_grid_tubes(j1, j2, cap, SPEC)
            assert z1.min() >= 0 and z1.max() < N1
            assert z2.min() >= 0 and z2.max() < N2
            counts = np.bincount(z1 * N2 + z2, minlength=N1 * N2)
            assert counts.min() == counts.max() == per_tube


@pytest.mark.parametrize("R", [4, 16, 64, 256])
def test_scale_locator_matches_per_cap_oracle(R):
    # atoms on both sides of the z2 seam (j2 >= M - D/2, where m = 1 and
    # b < 0), and negative grid indices for the unwrapped path
    spec = GridSpec(R)
    rng = np.random.default_rng(R)
    j1 = rng.integers(0, spec.M, 3000)
    j2 = np.concatenate([rng.integers(0, spec.M, 2000),
                         spec.M - 1 - np.arange(1000) % spec.M])
    for s in dyadic_scales(R):
        tubes = locate_scale_tubes(j1, j2, s, spec)
        raw = locate_scale_tubes(j1 - spec.M, j2 - spec.M, s, spec,
                                 wrap=False)
        for cap in caps_at_scale(s):
            z1, z2 = grid_tube_index(j1, j2, cap, spec)
            assert np.array_equal(tubes.z1(cap.k), z1)
            assert np.array_equal(tubes.z2, z2)
            assert np.array_equal(tubes.keys(cap.k), z1 * tubes.N2 + z2)
            u1, u2 = grid_tube_index(j1 - spec.M, j2 - spec.M, cap, spec,
                                     wrap=False)
            assert np.array_equal(raw.z1(cap.k), u1)
            assert np.array_equal(raw.z2, u2)
        with pytest.raises(ValueError):
            raw.keys(0)


@pytest.mark.parametrize("L,delta", [(12.0, 1.0 / 3.0), (12.0, 0.5)])
def test_scale_locator_needs_powers_of_two(L, delta):
    # 2D = 24 in the first grid, N1 = 6 in the second
    grid = SimpleNamespace(L=L, delta=delta)
    with pytest.raises(ValueError, match="powers of two"):
        locate_scale_tubes([0], [0], 0.5, grid)


def test_envelope_partition_and_nesting():
    j1, j2 = grid_indices(SPEC)
    for s in dyadic_scales(SPEC.R):
        E = envelope_factor(Cap(s, 0), SPEC)
        assert E == int(round(SPEC.R * s * s))
        for cap in caps_at_scale(s)[::2]:
            N1U, N2U, _ = envelope_lattice_dims(cap, SPEC)
            zU1, zU2 = locate_grid_envelopes(j1, j2, cap, SPEC)
            counts = np.bincount(zU1 * N2U + zU2, minlength=N1U * N2U)
            assert counts.min() == counts.max() == SPEC.M ** 2 // (N1U * N2U)
            # nesting: envelope of the wrapped tube index matches
            t1, t2 = locate_grid_tubes(j1, j2, cap, SPEC, wrap=False)
            e1, e2 = envelope_index_of_tube(t1, t2, E)
            w1, w2 = wrap_envelope_index(e1, e2, cap, SPEC)
            assert np.array_equal(w1, zU1) and np.array_equal(w2, zU2)


def test_float_path_agrees_with_integer_path():
    # locate_points is unwrapped by design; compare both raw and wrapped
    rng = np.random.default_rng(3)
    jj = rng.integers(0, SPEC.M, size=(4096, 2))
    pts = SPEC.delta * jj.astype(float)
    for s in (1.0, 0.25, 0.125):
        for cap in caps_at_scale(s)[:: max(1, int(1 / s))]:
            zi = np.stack(locate_grid_tubes(jj[:, 0], jj[:, 1], cap, SPEC,
                                            wrap=False), axis=1)
            zf = locate_points(pts, cap, kind="tube", R=SPEC.R)
            assert np.array_equal(zi, zf)
            wi = np.stack(wrap_tube_index(zi[:, 0], zi[:, 1], cap, SPEC), axis=1)
            wf = np.stack(wrap_tube_index(zf[:, 0], zf[:, 1], cap, SPEC), axis=1)
            assert np.array_equal(wi, wf)
            ei = np.stack(locate_grid_envelopes(jj[:, 0], jj[:, 1], cap, SPEC,
                                                wrap=False), axis=1)
            ef = locate_points(pts, cap, kind="envelope", R=SPEC.R)
            assert np.array_equal(ei, ef)


def test_tube_local_coords_half_open_cell():
    rng = np.random.default_rng(4)
    cap = Cap(0.125, 3)
    pts = rng.uniform(0, SPEC.L, size=(2048, 2))
    z = locate_points(pts, cap, kind="tube")  # unwrapped float path
    y = tube_local_coords(pts, z, cap)
    assert y.min() >= -0.5 and y.max() < 0.5


def test_cap_tree_shapes():
    t = build_cap_tree(16, 2)
    assert t.m == 2 and t.scales == (1.0, 0.5, 0.25) and t.mismatch == 1.0
    t = build_cap_tree(1024, 4)
    assert t.m == 3 and t.scales == (1.0, 0.25, 0.0625, 0.03125)
    assert t.mismatch == 2.0  # finest level clamped to R^-1/2


def test_cap_tree_root_and_children():
    t = build_cap_tree(256, 4)
    root_kids = t.children_index(0, 0)
    assert len(root_kids) == 2 * t.K + 1
    # inner parents have exactly K children; edge parents are clipped
    for k in range(-t.K, t.K + 1):
        kids = t.children_index(1, k)
        if abs(k) < t.K:
            assert len(kids) == t.K
        else:
            assert 1 <= len(kids) <= t.K // 2 + 1
        for kk in kids:
            assert t.parent_index(2, np.asarray([kk]))[0] == k


def test_cap_tree_parent_of_every_cap():
    t = build_cap_tree(1024, 4)
    for level in range(1, t.m + 1):
        ks = np.array([cap.k for cap in t.caps(level)])
        parents = t.parent_index(level, ks)
        up = np.array([cap.k for cap in t.caps(level - 1)])
        assert np.isin(parents, up).all()
        # child lists partition the level
        seen = np.concatenate([t.children_index(level - 1, int(k)) for k in up])
        assert sorted(seen.tolist()) == sorted(ks.tolist())


CAPS_POOL = [cap for s in dyadic_scales(64) for cap in caps_at_scale(s)]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.sampled_from(range(len(CAPS_POOL))))
def test_wrap_consistency_property(a, b, ci):
    cap = CAPS_POOL[ci]
    j1 = np.asarray([a % SPEC.M])
    j2 = np.asarray([b % SPEC.M])
    z1u, z2u = locate_grid_tubes(j1, j2, cap, SPEC, wrap=False)
    z1w, z2w = locate_grid_tubes(j1, j2, cap, SPEC, wrap=True)
    w1, w2 = wrap_tube_index(z1u, z2u, cap, SPEC)
    assert z1w[0] == w1[0] and z2w[0] == w2[0]
    E = envelope_factor(cap, SPEC)
    eu = envelope_index_of_tube(z1u, z2u, E)
    ew = wrap_envelope_index(*eu, cap, SPEC)
    e1, e2 = locate_grid_envelopes(j1, j2, cap, SPEC)
    assert ew[0][0] == e1[0] and ew[1][0] == e2[0]
