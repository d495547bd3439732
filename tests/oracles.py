"""Slow reference computations the fast package paths are tested against."""

import math

import numpy as np
from scipy.fft import fft2

from wavenvelope.decomp import CertificateError
from wavenvelope.envelope import (W_BLOCK, W_EXPONENT, W_TAIL, _group_sums,
                                  cap_decompose, envelope_area, kappa_table,
                                  weighted_cell_integrals)
from wavenvelope.geometry import (Cap, cap_index_for_abscissa, dyadic_scales,
                                  envelope_factor, envelope_index_of_tube,
                                  envelope_lattice_dims,
                                  locate_grid_envelopes,
                                  theta_scale, tube_lattice_dims,
                                  wrap_envelope_index)
from wavenvelope.schrodinger import eta
from wavenvelope.torus import square_sum


def read_back_coeffs(field) -> np.ndarray:
    """Forward FFT of the samples, gathered at the field's own modes."""
    M = field.spec.M
    A = fft2(field.samples, workers=1) / (M * M)
    return A[field.freqs[:, 0] % M, field.freqs[:, 1] % M]


def analyze(samples: np.ndarray, spec, tol: float = 1e-12):
    """Extract (freqs, amps) of all modes with |a| > tol * max|a|."""
    M = samples.shape[0]
    A = fft2(samples, workers=1) / (M * M)
    mags = np.abs(A)
    cut = tol * mags.max(initial=0.0)
    idx = np.argwhere(mags > cut)
    amps = A[idx[:, 0], idx[:, 1]]
    # map FFT bins to signed lattice coordinates
    freqs = np.where(idx >= M // 2, idx - M, idx).astype(np.int64)
    order = np.lexsort((freqs[:, 1], freqs[:, 0]))
    return freqs[order], amps[order]


def locate_points(points, cap, kind: str = "tube", R: int | None = None):
    """Float-path point location for arbitrary (not-on-grid) points.

    kind 'tube': z = floor(L_tau^{-1} x + 1/2); kind 'envelope': the tube
    index divided by the dyadic integer R s^2 with the same shifted
    rounding (the point's envelope is its tube's envelope, keeping the
    nesting exact).  No torus wrap.  Returns an (n, 2) int array.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    L_inv = cap.transforms()[3]
    y = pts @ L_inv.T
    z = np.floor(y + 0.5).astype(np.int64)
    if kind == "envelope":
        if R is None:
            raise ValueError("envelope location needs R")
        E = R * cap.s * cap.s
        if E != int(E) or E < 1:
            raise ValueError(f"Rs^2 = {E} not a positive integer")
        z1, z2 = envelope_index_of_tube(z[:, 0], z[:, 1], int(E))
        z = np.stack([z1, z2], axis=1)
    elif kind != "tube":
        raise ValueError(f"kind must be tube or envelope, got {kind!r}")
    return z


def wrap_tube_index(z1, z2, cap, spec):
    """Reduce an unwrapped tube index to the fundamental torus domain."""
    N1, N2, shear = tube_lattice_dims(cap, spec)
    m = z2 // N2
    return (z1 - m * shear) % N1, z2 - m * N2


def grid_tube_index(j1, j2, cap, spec, wrap: bool = True):
    """Tube index of grid points, one cap at a time: the floor divisions
    of y + 1/2 over the common denominator 2D, then the sheared wrap."""
    j1 = np.asarray(j1, dtype=np.int64)
    j2 = np.asarray(j2, dtype=np.int64)
    P = int(round(1.0 / cap.s))
    D = P * P * int(round(1.0 / spec.delta))
    z1 = (2 * (j1 * P + 2 * cap.k * j2) + D) // (2 * D)
    z2 = (2 * j2 + D) // (2 * D)
    return wrap_tube_index(z1, z2, cap, spec) if wrap else (z1, z2)


def per_cap_envelope_stats(H, cap):
    """(flat envelope keys, H(U), max_T H(T), (N1U, N2U)) of one cap,
    locating and wrapping every atom for this cap alone."""
    spec = H.spec
    N1, N2, _ = tube_lattice_dims(cap, spec)
    N1U, N2U, _ = envelope_lattice_dims(cap, spec)
    if H.n_atoms == 0:
        return np.empty(0, np.int64), np.empty(0), np.empty(0), (N1U, N2U)
    z1, z2 = grid_tube_index(H.ij[:, 0], H.ij[:, 1], cap, spec)
    tkeys, HT = _group_sums(z1 * N2 + z2, np.asarray(H.mass), N1 * N2)
    e1, e2 = envelope_index_of_tube(tkeys // N2, tkeys % N2,
                                    envelope_factor(cap, spec))
    e1, e2 = wrap_envelope_index(e1, e2, cap, spec)
    eflat = e1 * N2U + e2
    ekeys, HU = _group_sums(eflat, HT, N1U * N2U)
    maxT = np.zeros(len(ekeys))
    np.maximum.at(maxT, np.searchsorted(ekeys, eflat), HT)
    return ekeys, HU, maxT, (N1U, N2U)


def tube_local_coords(points, z, cap) -> np.ndarray:
    """y - z in tube coordinates y = L_tau^{-1} x; inside means
    max-norm <= 1/2."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    L_inv = cap.transforms()[3]
    return pts @ L_inv.T - np.atleast_2d(z)


def reconstruction(dec) -> dict:
    """Coefficient-space sum of a CapDecomposition's pieces."""
    acc = {}
    for piece in dec.pieces.values():
        for fr, a in zip(piece.freqs, piece.amps):
            key = (int(fr[0]), int(fr[1]))
            acc[key] = acc.get(key, 0.0) + a
    return acc


def square_sum_samples(pieces, spec, m: int) -> np.ndarray:
    """sum over pieces of |f_piece|^2 on the m x m grid of spacing L/m,
    from one inverse FFT of the summed coefficients, clipped at 0."""
    vals = square_sum(pieces, spec).samples_on(m, cache=False).real
    return np.maximum(vals, 0.0)


def sq_norm_from_sq2(S2: np.ndarray, L: float, p: float) -> float:
    """L^p norm of sqrt(S2) by grid quadrature."""
    m = S2.shape[0]
    return float((L / m) ** 2 * np.sum(S2 ** (p / 2))) ** (1.0 / p)


def square_function(field, scale: float, m: int | None = None) -> np.ndarray:
    """Pointwise (sum_tau |f_tau|^2)^(1/2) on the m x m grid."""
    pieces = cap_decompose(field, scale).pieces.values()
    return np.sqrt(square_sum_samples(pieces, field.spec, m or field.spec.M))


def kappa(H, p: float, cap, z) -> float:
    """kappa_{p,H}(U) for the single envelope U = (cap, z), z wrapped."""
    if not 2.0 <= p <= 4.0:
        raise ValueError("p in [2, 4]")
    if H.is_full_constant:
        lam = float(H.mass) / H.spec.delta ** 2
        return lam ** (1.0 / p)
    ekeys, vals, (N1U, N2U) = kappa_table(H, p, cap)
    flat = int(z[0]) * N2U + int(z[1])
    hit = np.searchsorted(ekeys, flat)
    if hit < len(ekeys) and ekeys[hit] == flat:
        return float(vals[hit])
    return 0.0


def modulation(g, points) -> np.ndarray:
    """c_tau(x) with g(x) = c_tau(x) f_tau(L_tau x), |c_tau| = 1, for a
    decomp.RescaledField g."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    s, c = g.cap.s, g.cap.c
    ph = -(c / s) * pts[:, 0] + (c * c / (s * s)) * pts[:, 1]
    out = np.exp(1j * ph)
    return out if np.ndim(points) > 1 else out[0]


def spectrum(g):
    """(model frequencies, continuum-density amplitudes s^3 a) of a
    decomp.RescaledField g."""
    return g.freqs, g.cap.s ** 3 * g.amps


def l2sq(g) -> float:
    """Mean of |g|^2 over large boxes (the frequencies are distinct)."""
    return float(np.sum(np.abs(g.amps) ** 2))


def full_grid_dual_tube(spec, k: int) -> np.ndarray:
    """Atoms of the dual tube by scanning all M^2 grid points.

    Keeps every grid point whose wrapped theta-scale tube index for cap k
    is (0, 0); the rows come out lexsorted.
    """
    M = spec.M
    cap = Cap(theta_scale(spec.R), k)
    rows = []
    jj = np.arange(M, dtype=np.int64)
    block = max(1, int(4e6) // M)
    for j0 in range(0, M, block):
        nb = min(block, M - j0)
        j1v = np.repeat(jj[j0:j0 + nb], M)
        j2v = np.tile(jj, nb)
        z1, z2 = grid_tube_index(j1v, j2v, cap, spec)
        keep = (z1 == 0) & (z2 == 0)
        rows.append(np.stack([j1v[keep], j2v[keep]], axis=1))
    return np.concatenate(rows)


def full_grid_ball(spec, rho: float, center) -> np.ndarray:
    """Grid points within torus distance rho of center, lexsorted."""
    jj = np.arange(spec.M, dtype=np.int64)
    J1, J2 = np.meshgrid(jj, jj, indexing="ij")
    ij = np.stack([J1.ravel(), J2.ravel()], axis=1)
    d = (spec.delta * ij - np.asarray(center, dtype=float) + 0.5 * spec.L) \
        % spec.L - 0.5 * spec.L
    return ij[np.hypot(d[:, 0], d[:, 1]) <= rho * (1 + 1e-12)]


def env_shift(C: np.ndarray, d1: int, d2: int, shear: int) -> np.ndarray:
    """C[zU + d] on the wrapped envelope lattice, as an array over zU, by
    one gather per neighbor d.

    The z2 axis wraps with a shear in z1 (the lattice is a sheared torus),
    so a straight np.roll is wrong across the z2 seam.
    """
    N1U, N2U = C.shape
    z1 = np.arange(N1U)[:, None]
    z2 = np.arange(N2U)[None, :]
    t2 = z2 + d2
    m = t2 // N2U
    return C[(z1 + d1 + m * shear) % N1U, t2 - m * N2U]


def gathered_weighted_cell_integrals(C: np.ndarray, shear: int) -> np.ndarray:
    """envelope.weighted_cell_integrals with one env_shift gather per
    neighbor, added in the same (d1, d2) order."""
    out = np.zeros_like(C)
    for d1 in range(-W_BLOCK, W_BLOCK + 1):
        for d2 in range(-W_BLOCK, W_BLOCK + 1):
            w = (1.0 + max(abs(d1), abs(d2))) ** -W_EXPONENT
            out += w * env_shift(C, d1, d2, shear)
    return out + W_TAIL * C.mean()


def grid_constant_lp(field, p: float, mass: float) -> float:
    """||f||_{L^p(H)} for the constant weight of atom mass `mass`, summed
    over the full M x M synthesis in row blocks of 2^22 / M rows."""
    M = field.spec.M
    S = field.samples_on(M, cache=False)
    step = max(1, 2 ** 22 // M)
    acc = 0.0
    for i0 in range(0, M, step):
        acc += float(np.sum(np.abs(S[i0:i0 + step]) ** p))
    return (float(mass) * acc) ** (1.0 / p)


def cell_sums(P: np.ndarray, cap, spec) -> np.ndarray:
    """Riemann sum of P over each envelope of cap, as (N1U, N2U).

    P holds samples on the m x m grid of spacing L/m (m dividing M); its
    points are grid points, so the exact integer location path sorts them
    into envelopes.  The error is first order in L/m (cell boundaries cut
    through the grid).
    """
    m = P.shape[0]
    stride = spec.M // m
    N1U, N2U, _ = envelope_lattice_dims(cap, spec)
    jj = np.arange(m, dtype=np.int64) * stride
    j1 = np.repeat(jj, m)
    j2 = np.tile(jj, m)
    e1, e2 = locate_grid_envelopes(j1, j2, cap, spec)
    out = np.bincount(e1 * N2U + e2, weights=P.ravel(),
                      minlength=N1U * N2U)
    return (out * (spec.L / m) ** 2).reshape(N1U, N2U)


def subgrid_cell_integrals(field, m: int) -> dict:
    """{(s, k): cell_sums of S_tau^2} for every cap tau carrying theta
    pieces, with S_tau^2 summed from per-theta samples on the m grid."""
    spec = field.spec
    s_theta = theta_scale(spec.R)
    dec = cap_decompose(field, s_theta)
    sq = {k: np.abs(pc.samples_on(m, cache=False)) ** 2
          for k, pc in dec.pieces.items()}
    out = {}
    for s in dyadic_scales(spec.R):
        acc = {}
        for k, P in sq.items():
            tau = int(cap_index_for_abscissa(k * s_theta, s))
            acc[tau] = acc[tau] + P if tau in acc else P
        for tau, P in acc.items():
            out[(s, tau)] = cell_sums(P, Cap(s, tau), spec)
    return out


def constant_env_rhs(cells: dict, spec, p: float) -> float:
    """env_rhs of verify_weighted_sq for the constant weight of density 1,
    from per-cap envelope cell integrals."""
    total = 0.0
    for (s, k), C in sorted(cells.items()):
        shear = envelope_lattice_dims(Cap(s, k), spec)[2]
        wint = weighted_cell_integrals(C, shear)
        geom = envelope_area(spec.R, s) ** (1.0 - 0.5 * p)
        total += geom * float(np.sum(wint ** (0.5 * p)))
    return total


def direct_trig_sum(freqs, amps, points) -> np.ndarray:
    """sum_k a_k exp(i (x_1 xi_k^1 + x_2 xi_k^2)) with one phase and one
    exponential per (point, mode): the per-point sum the tensor-grid
    evaluations replaced."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    freqs = np.asarray(freqs, dtype=float).reshape(-1, 2)
    ph = pts[:, 0:1] * freqs[None, :, 0] + pts[:, 1:2] * freqs[None, :, 1]
    return np.exp(1j * ph) @ np.asarray(amps, dtype=complex)


def grid_points(x1, x2) -> np.ndarray:
    """The tensor grid x1 x x2 as (n1 n2, 2) points, x1 varying slowest."""
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    return np.column_stack([X1.ravel(), X2.ravel()])


def pointwise_lattice_ratio(R: float, p: float, kappa: float = 1.0 / 3.0,
                            c: float = 0.45, n_quad: int = 8,
                            sq_grid: int = 65) -> float:
    """schrodinger.lattice_ratio for one p, every site, offset and square-
    function grid point summed by direct_trig_sum."""
    R = float(R)
    n_half = int(math.floor(0.5 * R ** kappa))
    ells = np.arange(-n_half, n_half + 1) * R ** -kappa
    nodes, wts = np.polynomial.legendre.leggauss(n_quad)
    w = wts / R
    xi = (ells[:, None] + (nodes / R)[None, :]).ravel()
    modes = np.column_stack([xi, xi ** 2])

    def env(pts):
        return R * eta(pts[:, 0] / R) * eta(pts[:, 1] / R)

    ax = 2.0 * np.pi * R ** kappa
    at = 2.0 * np.pi * R ** (2.0 * kappa)
    amax = int(math.floor(c * R / ax))
    bmax = int(math.floor(c * R / at))
    a = np.arange(-amax, amax + 1) * ax
    b = np.arange(-bmax, bmax + 1) * at
    sites = grid_points(a, b)
    sites = sites[np.sum(sites ** 2, axis=1) <= (c * R) ** 2]
    r5 = c / math.sqrt(2.0)
    offsets = np.array([[0.0, 0.0], [r5, 0.0], [-r5, 0.0],
                        [0.0, r5], [0.0, -r5]])
    pts = (sites[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    vals = np.abs(direct_trig_sum(modes, np.tile(w, len(ells)), pts)
                  * env(pts)) ** p
    lhs = (np.pi * c * c * float(np.sum(vals.reshape(-1, 5).mean(axis=1)))) \
        ** (1.0 / p)

    grid = 4.0 * R * (2.0 * (np.arange(sq_grid) + 0.5) / sq_grid - 1.0)
    gpts = grid_points(grid, grid)
    sq2 = sum(np.abs(direct_trig_sum(modes[i:i + n_quad], w, gpts)
                     * env(gpts)) ** 2
              for i in range(0, len(modes), n_quad))
    dA = (8.0 * R / sq_grid) ** 2
    return lhs / float(np.sum(np.sqrt(sq2) ** p) * dA) ** (1.0 / p)


def concatenated_square_sum(pieces):
    """(offsets, coefficients) of torus.square_sum, from per-piece offset and
    product lists concatenated whole, keys built from full-length
    temporaries (about 118 bytes per mode pair at its peak)."""
    diffs, prods = [np.empty((0, 2), np.int64)], [np.empty(0, complex)]
    for piece in pieces:
        n, a = piece.freqs, piece.amps
        diffs.append((n[:, None, :] - n[None, :, :]).reshape(-1, 2))
        prods.append(np.outer(a, a.conj()).ravel())
    d = np.concatenate(diffs)
    c = np.concatenate(prods)
    B = int(np.abs(d).max(initial=0))
    keys, inv = np.unique((d[:, 0] + B) * (2 * B + 1) + d[:, 1] + B,
                          return_inverse=True)
    coef = np.bincount(inv, weights=c.real) \
        + 1j * np.bincount(inv, weights=c.imag)
    delta = np.stack([keys // (2 * B + 1) - B, keys % (2 * B + 1) - B],
                     axis=1)
    return delta, coef


def bg_split(a, neighborhoods, p: float):
    """Split (sum a_i)^p into max + separated-bilinear with certified C.

    The elementary split that decomp.broad_narrow iterates down a cap
    tree.  neighborhoods[i] lists the indices near i (including i itself);
    the bilinear max runs over pairs (i, j) with j outside neighborhoods[i].
    Returns (max_i a_i^p, (#I)^p max_pairs (a_i a_j)^(p/2), C) where
    C = 2^(p-1) max(C1^p, 1) and C1 = max |I_i|; the inequality

        (sum a_i)^p <= C (max term + bilinear term)

    is checked, not just returned: a violation raises CertificateError.
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    if n == 0:
        raise ValueError("empty sequence")
    if np.any(a < 0):
        raise ValueError("negative entries")
    if p < 1:
        raise ValueError("p >= 1 required")
    if len(neighborhoods) != n:
        raise ValueError("one neighborhood per entry")
    hoods = [frozenset(int(j) for j in I) for I in neighborhoods]
    for i, I in enumerate(hoods):
        if i not in I:
            raise ValueError(f"neighborhood {i} does not contain itself")
        if any(j < 0 or j >= n for j in I):
            raise ValueError(f"neighborhood {i} indexes outside the set")
    C1 = max(len(I) for I in hoods)
    C = 2.0 ** (p - 1) * max(float(C1) ** p, 1.0)
    # the bound is homogeneous of degree p, so it is checked on a / max a,
    # where pair products of tiny entries cannot underflow to zero
    top = float(a.max())
    b = a / top if top > 0.0 else a
    pair_b = 0.0
    for i, I in enumerate(hoods):
        far = max((b[j] for j in range(n) if j not in I), default=0.0)
        pair_b = max(pair_b, b[i] * far)
    lhs = float(b.sum()) ** p
    rhs = C * (float(top > 0.0) + float(n) ** p * pair_b ** (0.5 * p))
    if not lhs <= rhs * (1.0 + 1e-12):
        raise CertificateError(
            f"split bound violated: {lhs} > {rhs} (in units of max a^p)")
    max_term = top ** p
    bilinear = float(n) ** p * pair_b ** (0.5 * p) * max_term
    return max_term, bilinear, C
