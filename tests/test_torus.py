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

from wavenvelope import torus
from wavenvelope.torus import (
    GridSpec, TorusField, block_rows, cell_blocks, distinct, l2sq_coeff,
    lattice_sums, lp_norm, parabola_band_modes, point_eval, power_integral,
    power_integral_bytes, random_band_field, synthesize,
)
from wavenvelope.cli import PAIR_FAMILIES, make_field
from wavenvelope.envelope import (cap_decompose, scale_cell_integrals,
                                  square_norm, theta_pairs)
from wavenvelope.geometry import dyadic_scales, theta_scale
from wavenvelope.measures import GridMeasure, constant_weight

from oracles import (analyze, concatenated_square_sum, direct_trig_sum,
                     grid_constant_lp, grid_lp, longdouble_lattice_sum,
                     outer_difference_rows, read_back_coeffs, sq_norm_from_sq2, square_function,
                     square_sum_samples, unique_sums)

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


def test_cell_blocks_cover_rows_in_whole_tiles(monkeypatch):
    for budget in (3, 64 * 7, 2 ** 18):
        monkeypatch.setattr(torus, "CELL_BUDGET", budget)
        for n_rows in (0, 1, 2, 63, 64, 65, 129, 1000):
            for row_cells in (1, 7, 300):
                blocks = cell_blocks(n_rows, row_cells)
                sizes = [b.stop - b.start for b in blocks]
                assert [i for b in blocks for i in range(b.start, b.stop)] \
                    == list(range(n_rows))
                assert all(n % 64 == 0 for n in sizes[:-1])
                assert n_rows == 1 or 1 not in sizes
                step = max(64, budget // row_cells // 64 * 64)
                assert max(sizes, default=0) <= step + 1
                assert block_rows(n_rows, row_cells) == max(sizes, default=0)


def test_synthesize_rejections():
    with pytest.raises(ValueError, match="duplicate"):
        synthesize([[0, 0], [0, 0]], [1.0, 1.0], SPEC16)
    with pytest.raises(ValueError, match="band"):
        synthesize([[0, 40]], [1.0], SPEC16)
    with pytest.raises(ValueError, match="off-lattice"):
        synthesize(np.array([[0.5, 0.0]]), [1.0], SPEC16)


def test_point_eval_matches_fft_grid():
    f = random_band_field(SPEC16, seed=0)
    S = f.samples_on(SPEC16.M)
    rng = np.random.default_rng(1)
    jj = rng.integers(0, SPEC16.M, size=(20, 2))
    pts = SPEC16.delta * jj.astype(float)
    direct = point_eval(f, pts)
    assert np.max(np.abs(direct - S[jj[:, 0], jj[:, 1]])) < 1e-10 * f.n_modes


# the long-double reference is only a reference with an extended mantissa
needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="long double is double here")


def _sum_errors(fields, points, values):
    """Per field, max |error| / sum |a| of its values and of the direct
    sum's (one exponential per entry), against the long-double sum."""
    out = []
    for f, got in zip(fields, values):
        ref = longdouble_lattice_sum(f, points)
        old = direct_trig_sum(f.freqs, f.amps, f.spec.freq_step * points)
        scale = np.abs(f.amps).sum()
        out.append((np.max(np.abs(got - ref)) / scale,
                    np.max(np.abs(old - ref)) / scale))
    return out


@needs_long_double
@pytest.mark.parametrize("R", [64, 256, 1024])
def test_lattice_sums_of_theta_pieces_match_long_double(R):
    # broad-narrow's shapes: a density-1/2 field's theta pieces at 4000
    # uniform points, each within twice the direct sum's error (at most
    # 1.7x for a piece here)
    spec = GridSpec(R)
    f = random_band_field(spec, seed=R + 1, density=0.5)
    pieces = list(cap_decompose(f, theta_scale(R)).values())
    pts = np.random.default_rng(R).uniform(0.0, spec.L, size=(4000, 2))
    vals = lattice_sums(pieces, pts)
    assert vals.shape == (len(pieces), 4000)
    for new, old in _sum_errors(pieces, pts, vals):
        assert new <= 2 * old and new < 1e-12


@needs_long_double
@pytest.mark.parametrize("family", ["random", "knapp", "flat"])
def test_point_eval_at_grid_atoms_matches_long_double(family):
    spec = GridSpec(256)
    f = make_field(family, spec, 3)
    ij = np.random.default_rng(9).integers(0, spec.M, size=(3000, 2))
    pts = spec.delta * ij.astype(float)
    [(new, old)] = _sum_errors([f], pts, [point_eval(f, pts)])
    assert new <= 2 * old and new < 1e-12
    S = f.samples_on(spec.M)
    assert np.allclose(point_eval(f, pts), S[ij[:, 0], ij[:, 1]],
                       rtol=0, atol=1e-10 * np.abs(f.amps).sum())


def test_lattice_sums_bits_do_not_follow_the_blocks(monkeypatch):
    # every entry is computed alike in any block, and numpy's complex
    # products must round a SIMD body and its scalar tail alike: checked
    # here, not assumed, at block rows 64 apart and far apart
    spec = GridSpec(256)
    f = random_band_field(spec, seed=2, density=0.5)
    pieces = list(cap_decompose(f, theta_scale(spec.R)).values())
    pts = np.random.default_rng(3).uniform(0.0, spec.L, size=(4001, 2))
    runs = []
    for budget in (2 ** 12, 2 ** 20):
        monkeypatch.setattr(torus, "CELL_BUDGET", budget)
        runs.append((lattice_sums(pieces, pts), point_eval(f, pts),
                     point_eval(f, pts[:77])))
    assert len(cell_blocks(4001, torus.SUM_BLOCK_SHARE * 300)) > 1
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_lattice_sums_empty_pieces_and_fields():
    spec = GridSpec(64)
    f = random_band_field(spec, seed=4)
    none = TorusField(spec, np.empty((0, 2), np.int64),
                      np.empty(0, np.complex128))
    pts = np.random.default_rng(5).uniform(0.0, spec.L, size=(50, 2))
    vals = lattice_sums([none, f, none, f], pts)
    assert np.array_equal(vals[[0, 2]], np.zeros((2, 50)))
    assert np.array_equal(vals[1], vals[3])
    assert np.array_equal(vals[1], lattice_sums([f], pts)[0])
    assert np.array_equal(lattice_sums([none], pts), np.zeros((1, 50)))
    assert lattice_sums([], pts).shape == (0, 50)
    assert lattice_sums([f], np.empty((0, 2))).shape == (1, 0)
    assert point_eval(none, pts[0]) == 0
    assert point_eval(f, pts[0]) == point_eval(f, pts)[0]


def test_offset_sums_branches_agree(monkeypatch):
    # the dense bincount and the sort group the pairs alike, and as the
    # np.unique grouping they replace, each key adding in input order
    f = random_band_field(GridSpec(64), seed=8)
    key, c, _, _ = theta_pairs(cap_decompose(f, theta_scale(64)))
    runs = []
    for ratio in (0, 10 ** 12):
        monkeypatch.setattr(torus, "DENSE_KEYS_PER_ATOM", ratio)
        runs.append(torus.key_sums(key, c))
    for sort, dense in zip(*runs):
        assert sort.dtype == dense.dtype and np.array_equal(sort, dense)
    keys, inv = np.unique(key, return_inverse=True)
    assert np.array_equal(runs[0][1].real, np.bincount(inv, weights=c.real))
    assert np.array_equal(runs[0][1].imag, np.bincount(inv, weights=c.imag))
    assert np.array_equal(runs[0][0], keys)


def _group_sums_cases():
    """(name, keys, weights, size) for group_sums against np.unique."""
    rng = np.random.default_rng(19)
    n = 1000
    top = 1 << (63 - (n - 1).bit_length())  # the largest size that packs
    w = rng.uniform(0.0, 1.0, n)
    zeros = w.copy()
    zeros[::3] = 0.0
    signed = rng.standard_normal(n)
    cplx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    some = rng.integers(0, 5000, n)
    return [
        ("empty", np.empty(0, np.int64), np.empty(0), 10),
        ("one", np.array([7]), np.array([0.25]), 10),
        ("all-equal", np.full(n, 3), w, 10),
        ("all-equal-sparse", np.full(n, 3), w, 10 ** 6),
        ("top", top - 1 - rng.integers(0, 50, n), w, top),
        ("top-one", np.array([(1 << 63) - 1]), np.array([1.0]), 1 << 63),
        ("positive", some, w, 5000),
        ("zero-weights", some, zeros, 5000),
        ("signed", some, signed, 5000),
        ("complex", some, cplx, 5000),
        ("complex-zeros", some, np.where(zeros > 0, cplx, 0), 5000),
    ]


@pytest.mark.parametrize("ratio", [0, torus.DENSE_KEYS_PER_ATOM, 10 ** 18])
def test_group_sums_match_unique_oracle(monkeypatch, ratio):
    # every branch: the packed sort (ratio 0), the default split, and the
    # dense bincounts wherever the key space allows; zero weights keep
    # their keys, and each key adds its weights in input order
    monkeypatch.setattr(torus, "DENSE_KEYS_PER_ATOM", ratio)
    for name, keys, weights, size in _group_sums_cases():
        if ratio * len(keys) >= size > 2 ** 24:
            continue  # no dense bins that large
        got = torus.group_sums(keys, weights, size)
        want = unique_sums(keys, weights)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype, name
            assert g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("ratio", [0, torus.DENSE_KEYS_PER_ATOM, 10 ** 18])
def test_one_mass_group_sums_match_unique_oracle(monkeypatch, ratio):
    # one float w weights every key: each sum is the running sum of w at
    # the key's count, counted by a sort (ratio 0, whatever the key space:
    # the top size that packs, and past it) or by a dense bincount; counts
    # in the thousands, as a dual tube's tubes hold, and w = 0.1 and pi/16
    # round on almost every add
    monkeypatch.setattr(torus, "DENSE_KEYS_PER_ATOM", ratio)
    rng = np.random.default_rng(21)
    n = 1000
    top = 1 << (63 - (n - 1).bit_length())
    some = rng.integers(0, 5000, n)
    crowd = rng.permutation(np.concatenate([
        np.repeat([3, 2500, 4999], [4096, 1500, 2]),
        rng.integers(0, 5000, 700)]))
    for name, keys, w, size in [
            ("one", np.array([7]), 0.1, 10),
            ("crowd", crowd, 0.1, 5000),
            ("crowd-sparse", crowd, math.pi / 16, 10 ** 7),
            ("zero", some, 0.0, 5000),
            ("negative-zero", some, -0.0, 5000),
            ("top", top - 1 - rng.integers(0, 50, n), 0.1, top),
            ("past-63-bits", (1 << 63) - 1 - crowd, 0.1, 1 << 63)]:
        if ratio * len(keys) >= size > 2 ** 24:
            continue  # no dense bins that large
        got = torus.group_sums(keys.copy(), w, size)  # may sort in place
        want = unique_sums(keys, np.full(len(keys), w))
        for g, v in zip(got, want):
            assert g.dtype == v.dtype and g.tobytes() == v.tobytes(), name
    uniq, sums = torus.group_sums(np.empty(0, np.int64), 0.1, 10)
    assert uniq.dtype == np.int64 and sums.dtype == np.float64
    assert len(uniq) == len(sums) == 0


def test_group_sums_past_the_packing_bound():
    # keys that cannot fit 63 bits beside 10 index bits take np.unique,
    # with the same sums; just below the bound they still pack
    rng = np.random.default_rng(20)
    w = rng.uniform(0.0, 1.0, 1000)
    top = 1 << (63 - 10)
    for size in (top, top + 1, 1 << 63):
        keys = size - 1 - rng.integers(0, 300, 1000)
        got, want = torus.group_sums(keys, w, size), unique_sums(keys, w)
        assert all(g.tobytes() == v.tobytes() for g, v in zip(got, want))


def test_group_sums_on_both_sides_of_the_int32_bound():
    # keys sort as int32 where they fit in 31 bits: key spaces of 2^31 - 1
    # and 2^31 (keys up to 2^31 - 1), and 2^31 + 1 (a key of 2^31 needs
    # int64); packed with 10 index bits, size << 10 on both sides of 2^31.
    # One-mass, real and complex weights, keys at the top of the space and
    # in the middle: the keys are int64, and keys and sums are the
    # np.unique oracle's
    rng = np.random.default_rng(23)
    n = 1000
    assert torus.sort_dtype(2 ** 31) == np.int32
    assert torus.sort_dtype(2 ** 31 + 1) == np.int64
    w = rng.uniform(0.0, 1.0, n)
    cplx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    bound = 2 ** 31 >> (n - 1).bit_length()
    for size in (2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1,
                 bound - 1, bound, bound + 1):
        for keys in (size - 1 - rng.integers(0, 300, n),
                     rng.integers(0, size, n)):
            for weights in (0.1, w, cplx):
                got = torus.group_sums(keys.copy(), weights, size)
                ones = np.full(n, weights) if np.ndim(weights) == 0 \
                    else weights
                want = unique_sums(keys, ones)
                assert got[0].dtype == np.int64, size
                for g, v in zip(got, want):
                    assert g.dtype == v.dtype
                    assert g.tobytes() == v.tobytes(), size


def test_distinct_is_np_unique():
    rng = np.random.default_rng(6)
    for shape in [(0,), (1,), (500,), (0, 2), (1, 2), (500, 2)]:
        a = rng.integers(-5, 5, size=shape)
        assert np.array_equal(distinct(a), np.unique(a, axis=0))
        assert distinct(a).dtype == a.dtype


def test_parseval_exact():
    f = random_band_field(SPEC16, seed=2)
    grid = grid_lp(f.samples_on(SPEC16.M), SPEC16.L, 2.0) ** 2
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


@pytest.mark.parametrize("R,tol", [(16, 1e-5), (64, 1e-6)])
def test_lp_norm_other_p_refines(R, tol):
    # off p in {2, 4} the M grid sum is a quadrature: against the 2M grid
    # it was measured 3.1e-7 to 4.1e-6 off at R = 16, 8.8e-8 to 4.0e-7 at
    # 64; the constant weight lam = 1 sums (|f|^2)^(p/2) on the same grid
    spec = GridSpec(R)
    one = constant_weight(spec, lam=1.0)
    for seed in range(3):
        f = random_band_field(spec, seed=seed)
        for p in (2.5, 3.0, 3.5):
            fine = grid_lp(f.samples_on(2 * spec.M), spec.L, p) ** p
            assert lp_norm(f, p) ** p == pytest.approx(fine, rel=tol)
            assert lp_norm(f, p, measure=one) ** p == \
                pytest.approx(fine, rel=tol)


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
    freqs, amps = analyze(f.samples_on(SPEC4.M), SPEC4)
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
    coarse = f.samples_on(SPEC4.M)
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
    freqs, back = analyze(f.samples_on(SPEC4.M), SPEC4, tol=1e-9)
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


@pytest.mark.parametrize("R", [16, 64, 256])
def test_constant_weight_lhs_other_p_is_grid_sum(R):
    # the M grid sum of (|f|^2)^(p/2) from power_integral against the sum
    # of |f|^p over the sampled field: the same quadrature up to roundoff
    f = random_band_field(GridSpec(R), seed=8)
    for lam in (0.25, 1.0):
        w = constant_weight(f.spec, lam=lam)
        assert lp_norm(f, 3.0, measure=w) == \
            pytest.approx(grid_constant_lp(f, 3.0, w.mass), rel=1e-13, abs=0)


def test_constant_weight_lhs_grid_pass_memory():
    # the grid pass holds P's occupied rows and one column block, never
    # the M x M grid: the M = 8192 synthesis and its transform alone would
    # trace 2 GiB
    spec = GridSpec(1024)
    f = random_band_field(spec, seed=0)
    tracemalloc.start()
    try:
        val = power_integral([f], spec, 3.0, spec.M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert val > 0
    assert peak < 2 ** 29


@pytest.mark.parametrize("R", [16, 64, 256])
def test_preflight_rows_match_outer_differences(R):
    # at one column a block (m = GRID_BLOCK) the grid pass's rows outweigh
    # the pairs, and the estimate is 16 m (rows + 2) bytes
    spec, m = GridSpec(R), torus.GRID_BLOCK
    for ffam, _, _ in PAIR_FAMILIES.values():
        f = make_field(ffam, spec, 0)
        for pieces in ([f], list(cap_decompose(f, theta_scale(R)).values())):
            assert power_integral_bytes(pieces, 3.0, m) == \
                16 * m * (outer_difference_rows(pieces) + 2)


def test_preflight_rows_counted_in_small_memory():
    # the outer differences of the field's 1305 distinct n1 trace 39 MiB
    f = random_band_field(GridSpec(1024), 0)
    tracemalloc.start()
    try:
        est = power_integral_bytes([f], 3.0, 8192)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est == 475_660_288
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("R", [16, 64, 256])
@pytest.mark.parametrize("family", ["random", "flat", "knapp", "spread"])
def test_power_integral_exact_forms_match_grid(R, family):
    # p = 2 and 4 take Parseval; the oracle is the M x M grid quadrature of
    # the sum of squares, exact for these p, on the theta pieces and on the
    # whole field
    spec = GridSpec(R)
    f = make_field(family, spec, seed=R)
    pieces = list(cap_decompose(f, theta_scale(R)).values())
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
    pieces = list(cap_decompose(f, theta_scale(R)).values())
    for m in (2 * R, spec.M):
        S2 = square_sum_samples(pieces, spec, m)
        for p in (2.5, 3.0):
            assert power_integral(pieces, spec, p, m) ** (1.0 / p) \
                == sq_norm_from_sq2(S2, spec.L, p)


@pytest.mark.parametrize("R", [64, 256])
def test_power_integral_other_p_refines(R):
    # S^2 = sum |f_theta|^2 is a positive trigonometric polynomial, so S^p
    # is analytic and the periodic rule converges geometrically: the 2R
    # grid matches the 8R grid to roundoff
    spec = GridSpec(R)
    f = random_band_field(spec, seed=0)
    pieces = list(cap_decompose(f, theta_scale(R)).values())
    for p in (2.5, 3.0, 3.5):
        fine = power_integral(pieces, spec, p, 8 * R)
        assert power_integral(pieces, spec, p, 2 * R) == \
            pytest.approx(fine, rel=1e-14, abs=0)


def _consumed_parts(monkeypatch, pieces, spec, p, m):
    """(power_integral(pieces, spec, p, m), offsets D, coefficients, parts):
    the parts it hands coef_power_integral, checked to hold each key once
    and ascending, decoded and joined."""
    seen = []
    real = torus.coef_power_integral

    def spy(parts, rows, L, p, m):
        parts = list(parts)
        seen.append((parts, rows))
        return real(parts, rows, L, p, m)

    with monkeypatch.context() as mp:
        mp.setattr(torus, "coef_power_integral", spy)
        value = power_integral(pieces, spec, p, m)
    [(parts, rows)] = seen
    keys, coef = (np.concatenate(x) for x in zip(*parts))
    assert np.all(np.diff(keys) > 0)
    W = len(rows)
    return value, np.stack(np.divmod(keys, W), axis=1) - W // 2, coef, \
        len(parts)


@pytest.mark.parametrize("family", ["random", "flat", "knapp", "spread"])
@pytest.mark.parametrize("whole", [True, False])
def test_square_sum_matches_concatenated_oracle(monkeypatch, family, whole):
    # the sum of squares' parts the grid pass takes, bit for bit, on the
    # whole field and on its theta pieces
    spec = GridSpec(64)
    f = make_field(family, spec, seed=5)
    pieces = [f] if whole else \
        list(cap_decompose(f, theta_scale(spec.R)).values())
    delta, coef = concatenated_square_sum(pieces)
    _, got_delta, got_coef, _ = _consumed_parts(monkeypatch, pieces, spec,
                                                3.0, spec.M)
    assert np.array_equal(got_delta, delta)
    assert np.array_equal(got_coef, coef)


# (family, CELL_BUDGET): the budget's 2^15 pairs a block cut the random and
# flat fields at R = 256 into 6 blocks; 2^8 cells, 32 pairs a block, cut
# every family into several
BLOCKED_FIELDS = [("random", None), ("flat", None), ("random", 2 ** 8),
                  ("flat", 2 ** 8), ("knapp", 2 ** 8), ("spread", 2 ** 8)]


@pytest.mark.parametrize("family,budget", BLOCKED_FIELDS)
def test_square_sum_blocks_match_concatenated_oracle(monkeypatch, family,
                                                     budget):
    # the whole field at R = 256, in more than one block of D1 rows, bit
    # for bit; p = 4 sums the blocks' |c_D|^2 to the bits of l2sq_coeff
    if budget:
        monkeypatch.setattr(torus, "CELL_BUDGET", budget)
    spec = GridSpec(256)
    f = make_field(family, spec, seed=5)
    assert len(list(torus.pair_products([f])[1])) > 1
    delta, coef = concatenated_square_sum([f])
    val, got_delta, got_coef, n_parts = _consumed_parts(monkeypatch, [f],
                                                        spec, 4.0, spec.M)
    assert n_parts > 1
    assert np.array_equal(got_delta, delta)
    assert np.array_equal(got_coef, coef)
    assert val == l2sq_coeff(TorusField(spec, delta, coef))


@pytest.mark.parametrize("family", ["random", "flat", "knapp", "spread"])
def test_power_integral_grid_pass_blocks_match_oracle(monkeypatch, family):
    # the grid pass places each block's parts as they come: in blocks of
    # 32 pairs (CELL_BUDGET = 2^8) it sums to the bits of one block and of
    # the oracle's sampled sum of squares, on every grid m <= 2048 that
    # clears the whole field's offsets at R = 256
    spec = GridSpec(256)
    f = make_field(family, spec, seed=5)
    grids = [m for m in (256, 512, 1024, 2048)
             if m > len(torus._pair_rows([f])) - 1]
    assert grids
    runs = []
    for budget in (2 ** 8, 2 ** 30):
        monkeypatch.setattr(torus, "CELL_BUDGET", budget)
        runs.append([power_integral([f], spec, 3.0, m) for m in grids])
    assert len(list(torus.pair_products([f])[1])) == 1
    monkeypatch.setattr(torus, "CELL_BUDGET", 2 ** 8)
    assert len(list(torus.pair_products([f])[1])) > 1
    assert runs[0] == runs[1]
    for m, val in zip(grids, runs[0]):
        S2 = square_sum_samples([f], spec, m)
        assert val ** (1.0 / 3.0) == sq_norm_from_sq2(S2, spec.L, 3.0)


@pytest.mark.parametrize("family", ["random", "flat"])
def test_theta_pairs_blocks_match_concatenated_oracle(monkeypatch, family):
    # theta pieces list their modes branch by branch, not by n1; in blocks
    # of 32 pairs a block edge falls inside a piece, and the pieces' sum
    # of squares, its p = 4 integral, ||S||_4 from the thetas' joined
    # table and the table's cells at every scale keep their bits
    spec = GridSpec(256)
    f = make_field(family, spec, seed=5)
    thetas = cap_decompose(f, theta_scale(spec.R))
    pieces = list(thetas.values())
    assert any(np.any(np.diff(pc.freqs[:, 0]) < 0) for pc in pieces)
    one = theta_pairs(thetas)
    assert len(one[2]) == 1
    monkeypatch.setattr(torus, "CELL_BUDGET", 2 ** 8)
    blocked = theta_pairs(thetas)
    assert np.any(np.count_nonzero(blocked[2], axis=0) > 1)
    delta, coef = concatenated_square_sum(pieces)
    val, got_delta, got_coef, _ = _consumed_parts(monkeypatch, pieces, spec,
                                                  4.0, 2 * spec.R)
    assert np.array_equal(got_delta, delta)
    assert np.array_equal(got_coef, coef)
    want = l2sq_coeff(TorusField(spec, delta, coef))
    assert val == want
    assert square_norm(thetas, blocked, spec, 4.0) == want ** 0.25
    for s in dyadic_scales(spec.R):
        want = scale_cell_integrals(thetas, one, s, spec)
        for a, b in zip(scale_cell_integrals(thetas, blocked, s, spec), want):
            assert np.array_equal(a, b)


def test_square_sum_peak_per_mode_pair(monkeypatch):
    # the whole-field autocorrelation of the constant-weight lhs, 6 blocks
    # at R = 256: p = 4 holds one block and the |c_D|^2 buffer
    # (power_integral_bytes), not 70 bytes a (mode, mode) pair
    spec = GridSpec(256)
    f = random_band_field(spec, seed=0)
    tracemalloc.start()
    try:
        power_integral([f], spec, 4.0, spec.M)
        peak4 = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak4 <= power_integral_bytes([f], 4.0, spec.M) \
        <= 40 * f.n_modes ** 2
    delta, coef = concatenated_square_sum([f])
    _, got_delta, got_coef, _ = _consumed_parts(monkeypatch, [f], spec, 4.0,
                                                spec.M)
    assert np.array_equal(got_delta, delta)
    assert np.array_equal(got_coef, coef)
