"""Slow reference computations the fast package paths are tested against."""

import numpy as np

from wavenvelope.geometry import Cap, locate_grid_tubes, theta_scale


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
        z1, z2 = locate_grid_tubes(j1v, j2v, cap, spec)
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
