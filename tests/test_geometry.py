"""Cap/tube/envelope geometry: exact partitions, nesting, and the ladder.

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
    Cap, cap_children, cap_index_for_abscissa, cap_ladder, caps_at_scale,
    dyadic_scales, envelope_factor, envelope_lattice_dims,
    envelope_index_of_tube, locate_grid_envelopes, locate_grid_tubes,
    locate_scale_tubes, max_run_pieces, theta_scale, tube_lattice_dims,
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
    xi1 = SPEC.freq_step * modes[:, 0]
    for s in dyadic_scales(SPEC.R):
        k = cap_index_for_abscissa(xi1, s)
        assert np.all(np.abs(k) <= int(round(1 / s)))
        # half-open assignment: xi1 within s/2 of the cap center,
        # except at the clipped edges
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


def _block_sizes(n_caps):
    """Caps per block: one, two, three (which does not divide 2/s + 1 for
    s < 1), and every cap of the scale."""
    return sorted({1, 2, 3, n_caps})


@pytest.mark.parametrize("R", [4, 16, 64, 256])
def test_running_sum_keys_match_each_cap(R):
    # the running sum of block_keys, started at the first cap (k < 0), at
    # k = 0 and at the last cap, in blocks of 1, 2, 3 and all caps, gives
    # every cap's keys(k) at its place in its block; each block's envelope
    # keys are the flat envelope_index_of_tube, wrap_envelope_index at the
    # same places
    spec = GridSpec(R)
    rng = np.random.default_rng(R + 1)
    j1 = rng.integers(0, spec.M, 2000)
    j2 = np.concatenate([rng.integers(0, spec.M, 1000),
                         spec.M - 1 - np.arange(1000) % spec.M])
    for s in dyadic_scales(R):
        tubes = locate_scale_tubes(j1, j2, s, spec)
        size = tubes.N1 * tubes.N2
        assert size == 1 << tubes.key_bits
        caps = caps_at_scale(s)
        E = envelope_factor(caps[0], spec)
        N1U, N2U, _ = envelope_lattice_dims(caps[0], spec)
        for per_block in _block_sizes(len(caps)):
            for start in (0, len(caps) // 2, len(caps) - 1):
                seen = []
                for k, c, keys in tubes.block_keys(
                        caps[start].k, len(caps) - start, per_block):
                    assert keys.dtype == np.int64
                    assert c == min(per_block, caps[-1].k + 1 - k)
                    ekeys = tubes.envelope_keys(keys, k, c, E)
                    for i in range(c):
                        cap = Cap(s, k + i)
                        own = keys[i * len(j1):(i + 1) * len(j1)]
                        z1, z2 = grid_tube_index(j1, j2, cap, spec)
                        assert np.array_equal(own, i * size + z1 * tubes.N2
                                              + z2)
                        assert np.array_equal(own - i * size,
                                              tubes.keys(cap.k))
                        e1, e2 = wrap_envelope_index(
                            *envelope_index_of_tube(z1, z2, E), cap, spec)
                        assert np.array_equal(
                            ekeys[i * len(j1):(i + 1) * len(j1)],
                            (i * N1U + e1) * N2U + e2)
                        seen.append(cap.k)
                assert seen == [cap.k for cap in caps[start:]]


@pytest.mark.parametrize("R", [4, 16, 64, 256])
def test_run_pieces_count_each_caps_atoms(R):
    # runs of 1 to 8 R^1/2 cells from any j1, four whole rows (which wrap
    # onto their first tube), some in rows on the z2 seam: per cap, the
    # pieces' counts add up to each tube's atom count, a cap cuts at most
    # max_run_pieces pieces, and the running sum gives the same pieces
    # started at any cap, in blocks of 1, 2, 3 and all caps
    spec = GridSpec(R)
    rng = np.random.default_rng(R + 2)
    n = 40
    j1 = rng.integers(0, spec.M, n)
    j2 = np.concatenate([rng.integers(0, spec.M, n // 2),
                         spec.M - 1 - np.arange(n // 2)])
    lengths = rng.integers(1, 8 * int(R ** 0.5), n)
    lengths[:4] = spec.M
    a1 = (np.repeat(j1, lengths)
          + np.concatenate([np.arange(m) for m in lengths])) % spec.M
    a2 = np.repeat(j2, lengths)
    for s in dyadic_scales(R):
        atoms = locate_scale_tubes(a1, a2, s, spec)
        runs = locate_scale_tubes(j1, j2, s, spec)
        size = runs.N1 * runs.N2
        caps = caps_at_scale(s)
        alone = {}
        for per_block in _block_sizes(len(caps)):
            seen = []
            for k, c, keys, counts in runs.block_pieces(
                    caps[0].k, len(caps), per_block, lengths):
                assert keys.dtype == np.int64
                place = keys >> runs.key_bits
                assert np.all(np.diff(place) >= 0)
                assert counts.min() >= 1
                for i in range(c):
                    cap = Cap(s, k + i)
                    own = place == i
                    assert own.sum() <= max_run_pieces(len(a1), n, s, spec)
                    assert np.array_equal(
                        np.bincount(keys[own] - i * size,
                                    weights=counts[own], minlength=size),
                        np.bincount(atoms.keys(cap.k), minlength=size))
                    if per_block == 1:
                        alone[cap.k] = keys, counts
                        mid = next(runs.block_pieces(cap.k, 1, 1,
                                                     lengths))[2:]
                        assert all(np.array_equal(x, y) for x, y
                                   in zip(mid, (keys, counts)))
                    else:
                        assert np.array_equal(keys[own] - i * size,
                                              alone[cap.k][0])
                        assert np.array_equal(counts[own], alone[cap.k][1])
                    seen.append(cap.k)
            assert seen == [cap.k for cap in caps]


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
    assert cap_ladder(16, 2) == (1.0, 0.5, 0.25)
    # finest level clamped to R^-1/2, not K^-3 = 1/64
    assert cap_ladder(1024, 4) == (1.0, 0.25, 0.0625, 0.03125)
    for R, K in ((2, 4), (1024, 3), (1024, 1)):
        with pytest.raises(ValueError):
            cap_ladder(R, K)


def test_cap_tree_root_and_children():
    K = 4
    scales = cap_ladder(256, K)
    root_kids = cap_children(1.0, 0, scales[1])
    assert len(root_kids) == 2 * K + 1
    # inner parents have exactly K children; edge parents are clipped
    for k in range(-K, K + 1):
        kids = cap_children(scales[1], k, scales[2])
        if abs(k) < K:
            assert len(kids) == K
        else:
            assert 1 <= len(kids) <= K // 2 + 1
        for kk in kids:
            assert cap_index_for_abscissa(kk * scales[2], scales[1]) == k


def test_cap_tree_parent_of_every_cap():
    scales = cap_ladder(1024, 4)
    for level in range(1, len(scales)):
        ks = [cap.k for cap in caps_at_scale(scales[level])]
        # level 0 is the virtual root, the one cap Cap(1.0, 0)
        up_caps = caps_at_scale(scales[level - 1]) \
            if level > 1 else [Cap(1.0, 0)]
        # child lists partition the level
        seen = np.concatenate([cap_children(cap.s, cap.k, scales[level])
                               for cap in up_caps])
        assert sorted(seen.tolist()) == ks


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
