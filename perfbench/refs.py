"""Reference computations for the benchmark's checks, written from the
definitions and sharing no code with the package.

Only the inputs come from the package (the band field a seed names and the
weight a family builds); every quantity checked against the program's
reports is recomputed here from its definition.
"""

from __future__ import annotations

import math

import numpy as np

# the cap windows: smooth steps of half-width 1/16 in units of the cap width
WINDOW_HALF_WIDTH = 1.0 / 16.0
# the envelope weight w_U: (1 + |d|_inf)^-10 over the envelopes at offset d
W_EXPONENT = 10
W_BLOCK = 2


def smooth_step(u):
    """C-infinity step from 0 at u <= 0 to 1 at u >= 1, 1/2 at u = 1/2."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.where(u > 0, u, 1.0)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.where(u < 1, 1.0 - u, 1.0)), 0.0)
    return a / (a + b)


def window(t):
    """psi(t) = step(t + 1/2) - step(t - 1/2); sum_k psi(t - k) = 1."""
    def step(x):
        return smooth_step(0.5 * (x / WINDOW_HALF_WIDTH + 1.0))
    t = np.asarray(t, dtype=float)
    return step(t + 0.5) - step(t - 0.5)


def cap_weights(xi1, s: float) -> np.ndarray:
    """Window weight of each mode (rows) on each cap k = -1/s..1/s (columns).

    Mass that would fall on a cap beyond the edge stays on the edge cap, so
    every row sums to 1.
    """
    K = int(round(1.0 / s))
    kk = np.arange(-K - 1, K + 2)
    W = window(np.asarray(xi1, dtype=float)[:, None] / s - kk[None, :])
    W[:, 1] += W[:, 0]
    W[:, -2] += W[:, -1]
    return W[:, 1:-1]


W_OFFSETS = [(d1, d2) for d1 in range(-W_BLOCK, W_BLOCK + 1)
             for d2 in range(-W_BLOCK, W_BLOCK + 1)]


def w_weight(d1: int, d2: int) -> float:
    return (1.0 + max(abs(d1), abs(d2))) ** -W_EXPONENT


def w_tail() -> float:
    """Mass of w_U on the offsets outside the block: 8r offsets at |d| = r."""
    return sum(8.0 * r * (1.0 + r) ** -W_EXPONENT
               for r in range(W_BLOCK + 1, 100000))


def c_w() -> float:
    """Total mass of w_U over all envelope offsets d in Z^2."""
    return sum(w_weight(*d) for d in W_OFFSETS) + w_tail()


def dyadic_scales(R: int) -> list:
    """s = 1, 1/2, ..., R^(-1/2)."""
    n = int(round(math.log2(math.isqrt(R))))
    return [2.0 ** -j for j in range(n + 1)]


def parent_cap(k_theta, s_theta: float, s: float):
    """Cap at scale s that holds the theta cap k_theta (by its center)."""
    K = int(round(1.0 / s))
    return np.clip(np.floor(np.asarray(k_theta) * s_theta / s + 0.5),
                   -K, K).astype(np.int64)


def quartic_norm(freqs, amps, L: float) -> float:
    """int |f|^4 = L^2 sum_xi |sum_{k + l = xi} a_k a_l|^2 (coefficients)."""
    freqs = np.asarray(freqs, dtype=np.int64)
    span = int(np.abs(freqs).max(initial=0)) * 2 + 1
    key = (freqs[:, 0] + span) * (4 * span) + freqs[:, 1] + span
    pair = (key[:, None] + key[None, :]).ravel()
    prod = (amps[:, None] * amps[None, :]).ravel()
    uniq, inv = np.unique(pair, return_inverse=True)
    conv = np.bincount(inv, weights=prod.real, minlength=len(uniq)) + \
        1j * np.bincount(inv, weights=prod.imag, minlength=len(uniq))
    return L * L * float(np.sum(np.abs(conv) ** 2))


def direct_sum(freqs, amps, L: float, points) -> np.ndarray:
    """f(x) = sum_n a_n exp(i (2 pi / L) n . x), one point at a time."""
    step = 2.0 * math.pi / L
    xi = step * np.asarray(freqs, dtype=float)
    return np.array([np.sum(amps * np.exp(1j * (xi @ np.asarray(x))))
                     for x in points])


def slope(R_values, values) -> float:
    """Least-squares slope of log(value) against log(R)."""
    return float(np.polyfit(np.log(np.asarray(R_values, dtype=float)),
                            np.log(np.asarray(values, dtype=float)), 1)[0])


# ---------------------------------------------------------------------------
# tubes and envelopes from their definitions

def _wrap(z1, z2, N1: int, N2: int, shear: int):
    """Reduce an index to the torus lattice: z2 mod N2, dragging z1 by the
    shear per wrap, then z1 mod N1."""
    m = np.floor_divide(z2, N2)
    return np.mod(z1 - m * shear, N1), z2 - m * N2


def tube_and_envelope(x, s: float, k: int, R: int, L: float):
    """Wrapped tube and envelope indices of points x for the cap (s, k).

    The tube of x is z = floor(L_tau^-1 x + 1/2) with L_tau^-1 x =
    (s x1 + 2 c s x2, s^2 x2), c = k s; an envelope groups E x E tubes,
    E = R s^2.  On the torus of side L the tube lattice is N1 = sL by
    N2 = s^2 L with shear 2 k N2, and the envelope lattice divides all
    three by E.
    """
    x = np.asarray(x, dtype=float)
    c = k * s
    y1 = s * x[:, 0] + 2.0 * c * s * x[:, 1]
    y2 = s * s * x[:, 1]
    z1 = np.floor(y1 + 0.5).astype(np.int64)
    z2 = np.floor(y2 + 0.5).astype(np.int64)
    N1, N2 = int(round(s * L)), int(round(s * s * L))
    shear = 2 * k * N2
    t1, t2 = _wrap(z1, z2, N1, N2, shear)
    E = int(round(R * s * s))
    u1 = np.floor(t1 / E + 0.5).astype(np.int64)
    u2 = np.floor(t2 / E + 0.5).astype(np.int64)
    dims = (N1 // E, N2 // E, shear // E)
    u1, u2 = _wrap(u1, u2, *dims)
    return (t1, t2), (u1, u2), dims


def brute_kappa_max(ij, mass, delta: float, R: int, L: float, p: float) -> float:
    """max over (s, cap, envelope U, tube T in U) of
    (H(T)/|T|)^(1/4) (H(U)/|U|)^(1/p - 1/4), |T| = s^-3, |U| = R^2 s,
    by accumulating the atoms into per-tube and per-envelope dicts."""
    x = delta * np.asarray(ij, dtype=float)
    mass = np.asarray(mass, dtype=float)
    best = 0.0
    for s in dyadic_scales(R):
        K = int(round(1.0 / s))
        for k in range(-K, K + 1):
            (t1, t2), (u1, u2), _ = tube_and_envelope(x, s, k, R, L)
            tube_mass, env_of_tube, env_mass = {}, {}, {}
            for a, b, e1, e2, w in zip(t1.tolist(), t2.tolist(), u1.tolist(),
                                       u2.tolist(), mass.tolist()):
                tube_mass[(a, b)] = tube_mass.get((a, b), 0.0) + w
                env_of_tube[(a, b)] = (e1, e2)
                env_mass[(e1, e2)] = env_mass.get((e1, e2), 0.0) + w
            top = {}
            for tube, w in tube_mass.items():
                env = env_of_tube[tube]
                top[env] = max(top.get(env, 0.0), w)
            for env, HU in env_mass.items():
                val = (top[env] * s ** 3) ** 0.25 * \
                    (HU / (R * R * s)) ** (1.0 / p - 0.25)
                best = max(best, val)
    return best


def full_grid_env_rhs(freqs, amps, R: int, p: float) -> float:
    """Envelope side of the constant weight lambda = 1 on the finest grid.

    env = sum over (s, tau, U) of |U|^(1 - p/2) (int S_tau^2 w_U)^(p/2),
    with S_tau^2 = sum of |f_theta|^2 over the theta caps in tau, the cell
    integrals of S_tau^2 taken as Riemann sums on the M = 8R grid, and
    w_U = (1 + |d|_inf)^-10 on the 5 x 5 block of envelope neighbours plus
    the far offsets at the mean cell value.
    """
    L, M = 4.0 * R, 8 * R
    delta = L / M
    freqs = np.asarray(freqs, dtype=np.int64)
    s_theta = R ** -0.5
    K_theta = int(round(1.0 / s_theta))
    W = cap_weights(2.0 * math.pi / L * freqs[:, 0], s_theta)
    pieces = {}
    for col, k in enumerate(range(-K_theta, K_theta + 1)):
        live = W[:, col] > 0
        if not live.any():
            continue
        A = np.zeros((M, M), dtype=np.complex128)
        A[freqs[live, 0] % M, freqs[live, 1] % M] = amps[live] * W[live, col]
        vals = np.fft.ifft2(A) * (M * M)
        pieces[k] = np.abs(vals) ** 2
    jj = np.arange(M)
    J1, J2 = np.meshgrid(jj, jj, indexing="ij")
    x = delta * np.column_stack([J1.ravel(), J2.ravel()])
    tail = w_tail()
    env = 0.0
    for s in dyadic_scales(R):
        parents = {k: int(parent_cap(k, s_theta, s)) for k in pieces}
        for k_tau in sorted(set(parents.values())):
            S2 = sum(pieces[k] for k in pieces if parents[k] == k_tau)
            _, (u1, u2), (N1U, N2U, shearU) = tube_and_envelope(
                x, s, k_tau, R, L)
            C = np.bincount(u1 * N2U + u2, weights=S2.ravel(),
                            minlength=N1U * N2U) * delta ** 2
            g1, g2 = np.divmod(np.arange(N1U * N2U), N2U)
            wint = tail * C.mean()
            for d1, d2 in W_OFFSETS:
                n1, n2 = _wrap(g1 + d1, g2 + d2, N1U, N2U, shearU)
                wint = wint + w_weight(d1, d2) * C[n1 * N2U + n2]
            env += (R * R * s) ** (1.0 - 0.5 * p) * \
                float(np.sum(wint ** (0.5 * p)))
    return env
