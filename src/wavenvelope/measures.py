"""Atomic weights and measures on the grid, and dyadic dimension certificates.

A GridMeasure is a finite list of atoms (grid point, mass >= 0).  Weights
H: R^2 -> [0,1] are the special case mass = h * Delta^2 with density
h <= 1, so that H(E) = integral of H over E becomes the exact finite sum
of atom masses in E.  All downstream quantities (kappa, theorem sides)
consume measures through that sum, which removes every quadrature
ambiguity from the inequalities being tested.

Certificates (certificate_core, which schrodinger.rescale_measure runs on
explicit point sets) approximate sup_{z, rho} rho^(-a) mu(B_rho(z)) over
dyadic radii with centers restricted to atom locations.  The standard
doubling argument (any ball meeting the support sits inside the double of
an atom-centered ball of the next dyadic radius) pins the true supremum
within a factor 4^a of the certified value.

Atoms live on the torus, so distances are wrapped; families placed across
the fundamental-domain boundary keep their geometry.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .torus import GridSpec
from .geometry import Cap, locate_scale_tubes, theta_scale

GRID_FLOOR_EXP = 40  # pointwise floors cut at R^-40


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """Immutable atomic measure; ij indexes the spec's sample grid.

    ij is None for the full-grid constant weight (every grid point carries
    the same scalar mass); consumers special-case that representation so a
    dense weight at large R never materializes M^2 explicit atoms.

    The p-independent envelope statistics of envelope.envelope_stats are
    cached on the instance, one read-only entry per scale holding every cap
    of it, so kappa at any number of exponents locates the atoms once per
    scale and sums their masses once per cap.
    """

    spec: GridSpec
    ij: np.ndarray | None      # (n, 2) int64 in [0, M)^2, lexsorted unique
    mass: np.ndarray | float   # (n,) float64, or a scalar when ij is None
    kind: str = "measure"      # "weight" densities obey h <= 1
    label: str = ""
    _envelope_stats: dict = field(default_factory=dict, init=False,
                                  repr=False)

    def __post_init__(self):
        M = self.spec.M
        if self.ij is None:
            if not np.isscalar(self.mass) or self.mass < 0:
                raise ValueError("constant measure needs one scalar mass")
        else:
            ij = np.asarray(self.ij, dtype=np.int64).reshape(-1, 2)
            mass = np.asarray(self.mass, dtype=np.float64).ravel()
            if len(ij) != len(mass):
                raise ValueError("atom count != mass count")
            if len(ij) and (ij.min() < 0 or ij.max() >= M):
                raise ValueError("atom off the sample grid")
            order = np.lexsort((ij[:, 1], ij[:, 0]))
            ij, mass = ij[order], mass[order]
            if len(ij) > 1:
                dup = np.all(np.diff(ij, axis=0) == 0, axis=1)
                if dup.any():
                    raise ValueError(f"duplicate atom at {ij[1:][dup][0]}")
            if len(mass) and mass.min() < 0:
                raise ValueError("negative mass")
            object.__setattr__(self, "ij", ij)
            object.__setattr__(self, "mass", mass)
            ij.setflags(write=False)
            mass.setflags(write=False)
        if self.kind == "weight":
            d2 = self.spec.delta ** 2
            top = float(self.mass) if self.ij is None else \
                (float(self.mass.max()) if len(self.mass) else 0.0)
            if top > d2 * (1 + 1e-9):
                raise ValueError(f"weight density {top / d2} exceeds 1")
        elif self.kind != "measure":
            raise ValueError(f"kind must be weight or measure, got {self.kind!r}")

    @property
    def is_full_constant(self) -> bool:
        return self.ij is None

    @property
    def n_atoms(self) -> int:
        return self.spec.M ** 2 if self.ij is None else len(self.mass)

    @property
    def total(self) -> float:
        if self.ij is None:
            return float(self.mass) * self.spec.M ** 2
        return float(self.mass.sum())

    def positions(self) -> np.ndarray:
        if self.ij is None:
            raise ValueError("constant measure has no atom list; materialize first")
        return self.spec.delta * self.ij.astype(float)

    def materialize(self) -> "GridMeasure":
        """Explicit atom list for the constant representation (small R only)."""
        if self.ij is not None:
            return self
        M = self.spec.M
        jj = np.arange(M, dtype=np.int64)
        ij = np.stack(np.meshgrid(jj, jj, indexing="ij"), axis=-1).reshape(-1, 2)
        return GridMeasure(self.spec, ij, np.full(M * M, float(self.mass)),
                           self.kind, self.label)

    def scaled(self, c: float) -> "GridMeasure":
        kind = self.kind if (self.kind == "measure" or c <= 1.0 + 1e-12) \
            else "measure"
        return GridMeasure(self.spec, self.ij, self.mass * c, kind, self.label)


def _torus_disp(a, b, L: float):
    """Componentwise wrapped displacement a - b, reduced into [-L/2, L/2)."""
    return (a - b + 0.5 * L) % L - 0.5 * L


# ---------------------------------------------------------------------------
# weight families

def constant_weight(spec: GridSpec, lam: float = 1.0) -> GridMeasure:
    if not 0.0 <= lam <= 1.0 + 1e-12:
        raise ValueError("constant weight density must lie in [0, 1]")
    return GridMeasure(spec, None, lam * spec.delta ** 2, "weight",
                       f"constant({lam})")


def ball_weight(spec: GridSpec, rho: float = 1.0, center=(0.0, 0.0)) -> GridMeasure:
    """1 on the torus ball B_rho(center), atom mass Delta^2."""
    M, d = spec.M, spec.delta
    if rho >= 0.5 * spec.L:
        return constant_weight(spec)
    r_cells = int(math.ceil(rho / d))
    cz = np.asarray(center, dtype=float)
    c_idx = np.rint(cz / d).astype(np.int64)
    # at most M consecutive offsets per axis, so the candidates are
    # distinct mod M
    lo = min(r_cells + 1, M // 2)
    jj = np.arange(-lo, min(r_cells + 2, M - lo), dtype=np.int64)
    J1, J2 = np.meshgrid(jj + c_idx[0], jj + c_idx[1], indexing="ij")
    ij = np.stack([J1.ravel(), J2.ravel()], axis=1)
    dd = _torus_disp(d * ij.astype(float), cz, spec.L)
    ij = ij[np.hypot(dd[:, 0], dd[:, 1]) <= rho * (1 + 1e-12)] % M
    return GridMeasure(spec, ij, np.full(len(ij), d * d), "weight",
                       f"ball({rho})")


def dual_tube_weight(spec: GridSpec, alpha: float = 1.0, k: int = 0) -> GridMeasure:
    """R^((alpha-2)/2) on the dual tube theta*: the z = 0 tube of the
    theta-scale cap with index k, an R^(1/2) x R slab tilted to slope -2c.

    The density R^((alpha-2)/2) makes the weight alpha-dimensional at
    scales up to R (ball mass grows like rho along the slab and saturates
    across it).
    """
    if not 0.0 <= alpha <= 2.0:
        raise ValueError("alpha in [0, 2]")
    M = spec.M
    cap = Cap(theta_scale(spec.R), k)
    # The unwrapped z = 0 tube is |j2| <= R/(2 Delta), |j1 + 2k j2/P| <=
    # P/(2 Delta) in grid units (P = R^(1/2)); scan that parallelogram,
    # padded by two cells, and keep the points the exact location puts in
    # the wrapped tube (0, 0).  The tube is shorter than the period, so
    # the candidates are distinct mod M.
    P = int(round(1.0 / cap.s))
    invd = int(round(1.0 / spec.delta))
    h2, h1 = (spec.R * invd) // 2 + 2, (P * invd) // 2 + 2
    j2 = np.arange(-h2, h2 + 1, dtype=np.int64)
    j1 = (-2 * k * j2 // P)[:, None] + np.arange(-h1, h1 + 1)
    j2 = np.broadcast_to(j2[:, None], j1.shape)
    j1, j2 = j1.ravel() % M, j2.ravel() % M
    keep = locate_scale_tubes(j1, j2, cap.s, spec).keys(k) == 0
    ij = np.stack([j1[keep], j2[keep]], axis=1)
    h = spec.R ** (0.5 * (alpha - 2.0))
    return GridMeasure(spec, ij, np.full(len(ij), h * spec.delta ** 2),
                       "weight", f"dual_tube(alpha={alpha},k={k})")


def lattice_sites(R: float, kappa: float, c: float, window: str):
    """Sites of 2 pi R^kappa Z x 2 pi R^(2 kappa) Z inside the window.

    window "ball": |gamma| <= c R;  window "corner": [0, R^(1/2)] x [0, R].
    Returns the axes a, b of the smallest tensor grid a x b holding the
    window's sites and the mask keep of those sites in it.
    """
    g1 = 2.0 * math.pi * R ** kappa
    g2 = 2.0 * math.pi * R ** (2.0 * kappa)
    if window == "ball":
        a = np.arange(-int(c * R / g1), int(c * R / g1) + 1) * g1
        b = np.arange(-int(c * R / g2), int(c * R / g2) + 1) * g2
        return a, b, np.hypot(a[:, None], b[None, :]) <= c * R
    if window == "corner":
        a = np.arange(0, int(R ** 0.5 / g1) + 1) * g1
        b = np.arange(0, int(R / g2) + 1) * g2
        return a, b, np.ones((len(a), len(b)), dtype=bool)
    raise ValueError(f"unknown window {window!r}")


def _site_points(a, b, keep) -> np.ndarray:
    """The kept sites of the grid a x b as (n, 2) points, a varying slowest."""
    A, B = np.meshgrid(a, b, indexing="ij")
    return np.stack([A[keep], B[keep]], axis=1)


def lattice_weight(spec: GridSpec, kappa: float = 1.0 / 3.0,
                   c: float = 0.125) -> GridMeasure:
    """1 on (2 pi R^kappa Z x 2 pi R^(2 kappa) Z) cap B_cR, fattened by B_c.

    Support = grid points within distance c of a lattice site.  With c
    below the cell size most sites trap no grid point at all; an empty
    result is legal and signalled by n_atoms == 0.
    """
    sites = _site_points(*lattice_sites(spec.R, kappa, c, "ball"))
    return _fatten_sites(spec, sites, c, f"lattice(kappa={kappa},c={c})")


def _fatten_sites(spec: GridSpec, sites: np.ndarray, c: float,
                  label: str) -> GridMeasure:
    M, d = spec.M, spec.delta
    r_cells = int(math.ceil(c / d))
    jj = np.arange(-r_cells, r_cells + 1, dtype=np.int64)
    DJ1, DJ2 = np.meshgrid(jj, jj, indexing="ij")
    dj = np.stack([DJ1.ravel(), DJ2.ravel()], axis=1)
    out = []
    for site in sites:
        cand = np.rint(site / d).astype(np.int64) + dj
        dist = np.hypot(*(d * cand.astype(float) - site).T)
        out.append(cand[dist <= c * (1 + 1e-12)])
    if out:
        ij = np.unique(np.concatenate(out) % M, axis=0)
    else:
        ij = np.empty((0, 2), dtype=np.int64)
    return GridMeasure(spec, ij, np.full(len(ij), d * d), "weight", label)


def _truncated_sites(R: int, alpha: float, c: float):
    """Corner-window sites of the truncated lattice, kappa = (2 - alpha)/6."""
    return lattice_sites(R, (2.0 - alpha) / 6.0, c, "corner")


def truncated_lattice_weight(spec: GridSpec, alpha: float = 1.5,
                             c: float = 0.25) -> GridMeasure:
    """Corner-window parabolic lattice with each B_c ball lumped to one atom.

    Sites of 2 pi R^kappa Z x 2 pi R^(2 kappa) Z, kappa = (2 - alpha)/6,
    inside [0, R^(1/2)] x [0, R]; each site carries the exact ball mass
    pi c^2 at its nearest grid point.  Lumping keeps the per-site mass
    R-independent, which is what the two-branch weight exponents see;
    c <= 0.28 keeps the lumped density a legal weight on the default grid.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha in (1, 2)")
    sites = _site_points(*_truncated_sites(spec.R, alpha, c))
    ij = np.unique(np.rint(sites / spec.delta).astype(np.int64) % spec.M, axis=0)
    mass = np.full(len(ij), math.pi * c * c)
    return GridMeasure(spec, ij, mass, "weight",
                       f"truncated_lattice(alpha={alpha},c={c})")


def parabolic_box_weight(spec: GridSpec, boxes) -> GridMeasure:
    """1 on a union of parabolic boxes [x1, x1 + rho) x [x2, x2 + rho^2)."""
    M, d = spec.M, spec.delta
    chunks = []
    for x1, x2, rho in boxes:
        i0, j0 = int(math.ceil(x1 / d)), int(math.ceil(x2 / d))
        ni = max(int(math.ceil((x1 + rho) / d)) - i0, 0)
        nj = max(int(math.ceil((x2 + rho * rho) / d)) - j0, 0)
        I, J = np.meshgrid(i0 + np.arange(ni), j0 + np.arange(nj), indexing="ij")
        chunks.append(np.stack([I.ravel(), J.ravel()], axis=1))
    if chunks:
        ij = np.unique(np.concatenate(chunks) % M, axis=0)
    else:
        ij = np.empty((0, 2), dtype=np.int64)
    return GridMeasure(spec, ij, np.full(len(ij), d * d), "weight",
                       f"parabolic_boxes({len(boxes)})")


def custom_weight(spec: GridSpec, ij, mass, kind: str = "weight",
                  label: str = "custom") -> GridMeasure:
    return GridMeasure(spec, np.asarray(ij, dtype=np.int64),
                       np.asarray(mass, dtype=float), kind, label)


_FAMILIES = {
    "constant": constant_weight,
    "ball": ball_weight,
    "dual-tube": dual_tube_weight,
    "lattice": lattice_weight,
    "truncated-lattice": truncated_lattice_weight,
    "parabolic-box": parabolic_box_weight,
    "custom": custom_weight,
}


def make_weight(family: str, spec: GridSpec, **params) -> GridMeasure:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; have {sorted(_FAMILIES)}")
    return _FAMILIES[family](spec, **params)


def candidate_atoms(family: str, spec: GridSpec, **params) -> float:
    """Grid points the builder of family holds at once, without building it.

    A ball or dual tube tests a box of candidates; a lattice keeps about
    pi (c/Delta)^2 + 1 points per site and a truncated lattice one; a
    parabolic box of side rho covers at most ceil(rho/Delta) x
    ceil(rho^2/Delta) points.  The parameters, and their defaults, are the
    builder's; the constant weight holds no atoms.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; have {sorted(_FAMILIES)}")
    args = inspect.signature(_FAMILIES[family]).bind(spec, **params)
    args.apply_defaults()
    kw, d = args.arguments, spec.delta
    if family == "constant" or (family == "ball"
                                and kw["rho"] >= 0.5 * spec.L):
        return 0.0
    if family == "ball":
        return float(min(2 * math.ceil(kw["rho"] / d) + 3, spec.M) ** 2)
    if family == "dual-tube":
        return (spec.R / d + 5) * (math.isqrt(spec.R) / d + 5)
    if family == "lattice":
        _, _, keep = lattice_sites(spec.R, kw["kappa"], kw["c"], "ball")
        return np.count_nonzero(keep) * (math.pi * (kw["c"] / d) ** 2 + 1)
    if family == "truncated-lattice":
        return float(_truncated_sites(spec.R, kw["alpha"], kw["c"])[2].size)
    if family == "parabolic-box":
        return float(sum(math.ceil(rho / d) * math.ceil(rho * rho / d)
                         for _, _, rho in kw["boxes"]))
    raise ValueError(f"no candidate count for family {family!r}")


# ---------------------------------------------------------------------------
# dimension certificates

@dataclass(frozen=True)
class Certificate:
    mode: str                  # alpha-ball | beta-par
    param: tuple               # (alpha,) | (beta,)
    value: float
    witness_center: tuple      # (x, t)
    witness_radius: float

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "param": [float(p) for p in self.param],
            "value": float(self.value),
            "witness": {"center": [float(c) for c in self.witness_center],
                        "radius": float(self.witness_radius)},
        }


def _dyadic_radii(r_min: float, r_max: float) -> np.ndarray:
    lo = int(math.floor(math.log2(max(r_min, 1e-300))))
    hi = int(math.ceil(math.log2(max(r_max, r_min) * (1 + 1e-9))))
    return 2.0 ** np.arange(lo, hi + 1)


def ball_masses_at(centers: np.ndarray, positions: np.ndarray,
                   masses: np.ndarray, radii: np.ndarray,
                   L: float | None) -> np.ndarray:
    """mu(B_rho(z)) for each center z and radius rho; (n_centers, n_radii).

    Closed balls; torus metric when L is given, plain Euclidean otherwise.
    """
    out = np.empty((len(centers), len(radii)))
    block = max(1, int(4e6) // max(len(positions), 1))
    for i in range(0, len(centers), block):
        dd = positions[None, :, :] - centers[i:i + block, None, :]
        if L is not None:
            dd = (dd + 0.5 * L) % L - 0.5 * L
        dist2 = np.sum(dd * dd, axis=2)
        for r, rho in enumerate(radii):
            r2 = (rho * (1 + 1e-12)) ** 2
            out[i:i + block, r] = (dist2 <= r2) @ masses
    return out


def parbox_masses_at(centers: np.ndarray, positions: np.ndarray,
                     masses: np.ndarray, radii: np.ndarray,
                     L: float | None) -> np.ndarray:
    """mu of parabolic boxes |y - z1| <= rho, |s - z2| <= rho^2."""
    out = np.empty((len(centers), len(radii)))
    block = max(1, int(4e6) // max(len(positions), 1))
    for i in range(0, len(centers), block):
        dd = positions[None, :, :] - centers[i:i + block, None, :]
        if L is not None:
            dd = (dd + 0.5 * L) % L - 0.5 * L
        ax, at = np.abs(dd[:, :, 0]), np.abs(dd[:, :, 1])
        for r, rho in enumerate(radii):
            inside = (ax <= rho * (1 + 1e-12)) & (at <= rho * rho * (1 + 1e-12))
            out[i:i + block, r] = inside @ masses
    return out


def certificate_core(positions: np.ndarray, masses: np.ndarray, mode: str,
                     param, r_min: float, r_max: float,
                     centers: np.ndarray | None = None,
                     L: float | None = None) -> Certificate:
    """Dyadic-radius certificate of a dimension norm over explicit points.

    mode "alpha-ball"  sup rho^-alpha mu(B_rho) over closed balls;
    mode "beta-par"    sup rho^-beta mu over boxes rho x rho^2.

    The radii run over the powers of two from r_min to r_max; centers
    default to the atom positions, and the unrestricted supremum is at
    most 4^param times the certified value.  L gives the torus metric,
    None the Euclidean one.
    """
    param_t = tuple(float(p) for p in np.atleast_1d(param))
    if centers is None:
        centers = positions
    if len(positions) == 0 or len(centers) == 0:
        return Certificate(mode, param_t, 0.0, (0.0, 0.0), 1.0)
    radii = _dyadic_radii(r_min, r_max)
    if mode == "alpha-ball":
        table = ball_masses_at(centers, positions, masses, radii, L)
        vals = table * radii[None, :] ** (-param_t[0])
    elif mode == "beta-par":
        table = parbox_masses_at(centers, positions, masses, radii, L)
        vals = table * radii[None, :] ** (-param_t[0])
    else:
        raise ValueError(f"unknown certificate mode {mode!r}")
    flat = int(np.argmax(vals))
    ci, ri = divmod(flat, len(radii))
    return Certificate(mode, param_t, float(vals[ci, ri]),
                       (float(centers[ci][0]), float(centers[ci][1])),
                       float(radii[ri]))
