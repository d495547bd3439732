"""Atomic weights and measures on the grid, and dyadic dimension certificates.

A GridMeasure is a finite list of atoms (grid point, mass >= 0).  Weights
H: R^2 -> [0,1] are the special case mass = h * Delta^2 with density
h <= 1, so that H(E) = integral of H over E becomes the exact finite sum
of atom masses in E.  All downstream quantities (kappa, theorem sides)
consume measures through that sum, which removes every quadrature
ambiguity from the inequalities being tested.

Certificates (certificate_core, which schrodinger.rescale_measure runs on
explicit point sets in the plane) approximate sup_{z, rho} rho^(-a)
mu(B_rho(z)) over dyadic radii with centers restricted to atom locations,
in the Euclidean metric.  The standard doubling argument (any ball meeting
the support sits inside the double of an atom-centered ball of the next
dyadic radius) pins the true supremum within a factor 4^a of the
certified value.

The atoms of weights live on the torus, so their distances are wrapped;
families placed across the fundamental-domain boundary keep their geometry.

Each weight builder defaults to its example, declared once: the alpha = 1
dilated lattice (LATTICE_KAPPA, LATTICE_C), the alpha = 3/2 corner lattice
(TRUNCATED_ALPHA, TRUNCATED_C) and the parabolic boxes (PARABOLIC_BOXES).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .torus import GridSpec, block_rows, cell_blocks, distinct
from .geometry import Cap, locate_scale_tubes, max_run_pieces, theta_scale

GRID_FLOOR_EXP = 40  # pointwise floors cut at R^-40
LATTICE_KAPPA, LATTICE_C = 1.0 / 3.0, 0.45
TRUNCATED_ALPHA, TRUNCATED_C = 1.5, 0.25
PARABOLIC_BOXES = ((0, 0, 2), (8, 3, 1))


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """Immutable atomic measure; ij indexes the spec's sample grid.

    ij is None for the full-grid constant weight (every grid point carries
    the same scalar mass); consumers special-case that representation so a
    dense weight at large R never materializes M^2 explicit atoms.

    The p-independent envelope statistics of envelope.envelope_stats are
    cached on the instance, one read-only entry per scale holding every cap
    of it, so kappa at any number of exponents locates the atoms once per
    scale and sums their masses once per cap.  atom_mass is the mass they
    sum: one float when every atom carries the same mass (each family's
    weight does), so a tube's mass follows from its atom count
    (torus.count_sums), else the mass array.  Such a weight's atoms are
    also kept as row runs (_row_runs), found on the first kappa call, from
    which envelope_stats counts tubes per (run, tube) piece, when they
    would cut fewer pieces than there are atoms at some scale.
    """

    spec: GridSpec
    ij: np.ndarray | None      # (n, 2) int64 in [0, M)^2, lexsorted unique
    mass: np.ndarray | float   # (n,) float64, or a scalar when ij is None
    kind: str = "measure"      # "weight" densities obey h <= 1
    label: str = ""
    atom_mass: np.ndarray | float = field(init=False, repr=False)
    _envelope_stats: dict = field(default_factory=dict, init=False,
                                  repr=False)

    def __post_init__(self):
        M = self.spec.M
        if self.ij is None:
            if not np.isscalar(self.mass) or self.mass < 0:
                raise ValueError("constant measure needs one scalar mass")
            top = one = float(self.mass)
        else:
            ij = np.asarray(self.ij, dtype=np.int64).reshape(-1, 2)
            mass = np.asarray(self.mass, dtype=np.float64).ravel()
            if len(ij) != len(mass):
                raise ValueError("atom count != mass count")
            if len(ij) and (ij.min() < 0 or ij.max() >= M):
                raise ValueError("atom off the sample grid")
            order = np.lexsort((ij[:, 1], ij[:, 0]))
            ij, mass = ij[order], mass[order]
            # lexsorted, so a duplicate follows its twin; compared column by
            # column, no (n, 2) difference is held
            dup = (ij[1:, 0] == ij[:-1, 0]) & (ij[1:, 1] == ij[:-1, 1])
            if dup.any():
                raise ValueError(f"duplicate atom at {ij[1:][dup][0]}")
            lo, top = mass.min(initial=np.inf), mass.max(initial=0.0)
            if lo < 0:
                raise ValueError("negative mass")
            one = float(lo) if lo == top else mass
            object.__setattr__(self, "ij", ij)
            object.__setattr__(self, "mass", mass)
            ij.setflags(write=False)
            mass.setflags(write=False)
        object.__setattr__(self, "atom_mass", one)
        if self.kind == "weight":
            d2 = self.spec.delta ** 2
            if top > d2 * (1 + 1e-9):
                raise ValueError(f"weight density {top / d2} exceeds 1")
        elif self.kind != "measure":
            raise ValueError(f"kind must be weight or measure, got {self.kind!r}")

    @cached_property
    def _row_runs(self):
        """(j1, j2, lengths) of the maximal runs of consecutive j1 at fixed
        j2 among the atoms of a one-mass weight, j2 ascending, then j1.
        Keys j2 (M + 1) + j1 put rows M + 1 apart, so a run stops at the
        j1 = M - 1 -> 0 seam.  None for varied masses, and where even the
        finest scale, whose tubes span the most cells, would not cut the
        runs into fewer pieces than atoms (max_run_pieces): no scale counts
        by them."""
        if not isinstance(self.atom_mass, float):
            return None
        key = self.ij[:, 1] * (self.spec.M + 1) + self.ij[:, 0]
        key.sort()
        new = np.empty(len(key), dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1] + 1, out=new[1:])
        starts = new.nonzero()[0]
        if max_run_pieces(len(key), len(starts), theta_scale(self.spec.R),
                          self.spec) >= len(key):
            return None
        j2, j1 = np.divmod(key[starts], self.spec.M + 1)
        return j1, j2, np.diff(starts, append=len(key))

    @property
    def is_full_constant(self) -> bool:
        return self.ij is None

    @property
    def n_atoms(self) -> int:
        return self.spec.M ** 2 if self.ij is None else len(self.mass)

    def contains(self, points) -> np.ndarray:
        """Whether the grid cell of each physical point holds an atom."""
        if self.is_full_constant:
            return np.ones(len(points), dtype=bool)
        if self.n_atoms == 0:
            return np.zeros(len(points), dtype=bool)
        M = self.spec.M
        j1, j2 = (_grid_cells(x, self.spec) for x in np.asarray(points).T)
        keys = j1 * M + j2
        # ij is lexsorted, so its keys i * M + j are already ascending
        occupied = self.ij[:, 0] * M + self.ij[:, 1]
        pos = np.minimum(np.searchsorted(occupied, keys), len(occupied) - 1)
        return occupied[pos] == keys


def _grid_cells(x, spec: GridSpec) -> np.ndarray:
    """The grid cell floor(x/Delta + 1/2) mod M of each coordinate x, as
    int64; reduced by a floor division, which numpy does several times
    faster than its int64 %."""
    j = np.floor(x / spec.delta + 0.5).astype(np.int64)
    j -= spec.M * (j // spec.M)
    return j


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


def _axis_disp(j, spec: GridSpec, c: float) -> np.ndarray:
    """One axis of the ball test of ball_weight on grid cells j (exact
    integers, any dtype): each cell is taken to the builder's candidate,
    the center cell plus an offset in [-M/2, M/2), and its wrapped
    displacement from the center coordinate c returned."""
    M, d = spec.M, spec.delta
    c_idx = np.rint(c / d)
    j = c_idx + (j - c_idx + M // 2) % M - M // 2
    return _torus_disp(d * j, c, spec.L)


def ball_weight(spec: GridSpec, rho: float = 1.0, center=(0.0, 0.0)) -> GridMeasure:
    """1 on the torus ball B_rho(center), atom mass Delta^2."""
    M, d = spec.M, spec.delta
    if not rho >= 0:
        raise ValueError(f"ball radius rho >= 0 required, got {rho}")
    if rho >= 0.5 * spec.L:
        return constant_weight(spec)
    r_cells = int(math.ceil(rho / d))
    cz = np.asarray(center, dtype=float)
    c_idx = np.rint(cz / d).astype(np.int64)
    # at most M consecutive offsets per axis, so the candidates are
    # distinct mod M
    lo = min(r_cells + 1, M // 2)
    jj = np.arange(-lo, min(r_cells + 2, M - lo), dtype=np.int64)
    j1, j2 = jj + c_idx[0], jj + c_idx[1]
    disp1, disp2 = _axis_disp(j1, spec, cz[0]), _axis_disp(j2, spec, cz[1])
    i1, i2 = np.nonzero(np.hypot(disp1[:, None], disp2)
                        <= rho * (1 + 1e-12))
    ij = np.stack([j1[i1], j2[i2]], axis=1) % M
    return GridMeasure(spec, ij, np.full(len(ij), d * d), "weight",
                       f"ball({rho})")


def in_ball(points, spec: GridSpec, rho: float, center) -> np.ndarray:
    """Whether the grid cell floor(x/Delta + 1/2) of each physical point x
    is an atom of ball_weight(spec, rho, center), bit for bit, without
    building the ball.

    An axis's displacement depends only on its cell mod M, so the cells
    are reduced mod M and each distinct one's displacement is taken once,
    from a table over the range they occupy; the distance test stays per
    point."""
    points = np.asarray(points, dtype=float)
    if rho >= 0.5 * spec.L:
        return np.ones(len(points), dtype=bool)
    if not len(points):
        return np.zeros(0, dtype=bool)
    disp = []
    for x, c in zip(points.T, np.asarray(center, dtype=float)):
        cells = _grid_cells(x, spec)
        lo, hi = cells.min(), cells.max()
        table = _axis_disp(np.arange(lo, hi + 1), spec, c)
        disp.append(table[cells - lo])
    return np.hypot(*disp) <= rho * (1 + 1e-12)


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
    del j1, j2, keep  # the candidates go before GridMeasure sorts the atoms
    h = spec.R ** (0.5 * (alpha - 2.0))
    return GridMeasure(spec, ij, np.full(len(ij), h * spec.delta ** 2),
                       "weight", f"dual_tube(alpha={alpha},k={k})")


def check_lattice_kappa(kappa: float) -> None:
    """Refuse a lattice kappa outside [0, 2/3] (nan included), the range
    where the fattened lattice's dimension 2 - 3 kappa lies in [0, 2]."""
    if not 0.0 <= kappa <= 2.0 / 3.0:
        raise ValueError(f"lattice kappa in [0, 2/3] required, got {kappa}")


def _lattice_axis_ranges(R: float, kappa: float, c: float, window: str):
    """(pitch, first index, length) of each axis of the smallest tensor
    grid of 2 pi R^kappa Z x 2 pi R^(2 kappa) Z holding the window's sites
    (see lattice_sites), found without forming the axes."""
    g1 = 2.0 * math.pi * R ** kappa
    g2 = 2.0 * math.pi * R ** (2.0 * kappa)
    if window == "ball":
        m1, m2 = int(c * R / g1), int(c * R / g2)
        return (g1, -m1, 2 * m1 + 1), (g2, -m2, 2 * m2 + 1)
    if window == "corner":
        return (g1, 0, int(R ** 0.5 / g1) + 1), (g2, 0, int(R / g2) + 1)
    raise ValueError(f"unknown window {window!r}")


def lattice_axis_lengths(R: float, kappa: float, c: float, window: str):
    """Lengths of the axes a, b of lattice_sites, as integers: no axis or
    mask is formed, so an estimate can refuse a grid too large to build."""
    return tuple(n for _, _, n in _lattice_axis_ranges(R, kappa, c, window))


def lattice_sites(R: float, kappa: float, c: float, window: str):
    """Sites of 2 pi R^kappa Z x 2 pi R^(2 kappa) Z inside the window.

    window "ball": |gamma| <= c R;  window "corner": [0, R^(1/2)] x [0, R].
    Returns the axes a, b of the smallest tensor grid a x b holding the
    window's sites and the mask keep of those sites in it.
    """
    a, b = (np.arange(lo, lo + n) * g
            for g, lo, n in _lattice_axis_ranges(R, kappa, c, window))
    if window == "ball":
        return a, b, np.hypot(a[:, None], b[None, :]) <= c * R
    return a, b, np.ones((len(a), len(b)), dtype=bool)


def _site_points(a, b, keep) -> np.ndarray:
    """The kept sites of the grid a x b as (n, 2) points, a varying slowest."""
    A, B = np.meshgrid(a, b, indexing="ij")
    return np.stack([A[keep], B[keep]], axis=1)


def lattice_weight(spec: GridSpec, kappa: float = LATTICE_KAPPA,
                   c: float = LATTICE_C) -> GridMeasure:
    """1 on (2 pi R^kappa Z x 2 pi R^(2 kappa) Z) cap B_cR, fattened by B_c.

    Support = grid points within distance c of a lattice site.  With c
    below the cell size most sites trap no grid point at all; an empty
    result is legal and signalled by n_atoms == 0.
    """
    check_lattice_kappa(kappa)
    sites = _site_points(*lattice_sites(spec.R, kappa, c, "ball"))
    return _fatten_sites(spec, sites, c, f"lattice(kappa={kappa},c={c})")


def _fatten_offsets(spec: GridSpec, sites: np.ndarray, c: float):
    """The fattening test of each site, one offset of the (2r + 1)^2 box
    of cells around its nearest cell at a time, r = ceil(c/Delta): yields
    (cells, within), the (n, 2) cell indices (integer-valued floats) and
    whether each lies at most c from its site (one offset, finding none,
    at c < 0)."""
    d = spec.delta
    r = max(int(math.ceil(c / d)), 0)
    base = np.rint(sites / d)
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            cells = base + (a, b)
            yield cells, np.hypot(*(d * cells - sites).T) <= c * (1 + 1e-12)


def _fatten_sites(spec: GridSpec, sites: np.ndarray, c: float,
                  label: str) -> GridMeasure:
    kept = [cells[within] for cells, within
            in _fatten_offsets(spec, sites, c)]
    ij = distinct(np.concatenate(kept).astype(np.int64) % spec.M)
    return GridMeasure(spec, ij, np.full(len(ij), spec.delta ** 2),
                       "weight", label)


def check_truncated_alpha(alpha: float) -> None:
    """Refuse a truncated-lattice alpha outside (1, 2) (nan included)
    before any site axis or mask is formed."""
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"truncated lattice alpha in (1, 2) required, "
                         f"got {alpha}")


def truncated_lattice_weight(spec: GridSpec, alpha: float = TRUNCATED_ALPHA,
                             c: float = TRUNCATED_C) -> GridMeasure:
    """Corner-window parabolic lattice with each B_c ball lumped to one atom.

    Sites of 2 pi R^kappa Z x 2 pi R^(2 kappa) Z, kappa = (2 - alpha)/6,
    inside [0, R^(1/2)] x [0, R]; each site carries the exact ball mass
    pi c^2 at its nearest grid point.  Lumping keeps the per-site mass
    R-independent, which is what the two-branch weight exponents see;
    c <= 0.28 keeps the lumped density a legal weight on the default grid.
    """
    check_truncated_alpha(alpha)
    sites = _site_points(*lattice_sites(spec.R, (2.0 - alpha) / 6.0, c,
                                        "corner"))
    ij = distinct(np.rint(sites / spec.delta).astype(np.int64) % spec.M)
    mass = np.full(len(ij), math.pi * c * c)
    return GridMeasure(spec, ij, mass, "weight",
                       f"truncated_lattice(alpha={alpha},c={c})")


def parabolic_box_weight(spec: GridSpec,
                         boxes=PARABOLIC_BOXES) -> GridMeasure:
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
        ij = distinct(np.concatenate(chunks) % M)
    else:
        ij = np.empty((0, 2), dtype=np.int64)
    return GridMeasure(spec, ij, np.full(len(ij), d * d), "weight",
                       f"parabolic_boxes({len(boxes)})")


_FAMILIES = {
    "constant": constant_weight,
    "ball": ball_weight,
    "dual-tube": dual_tube_weight,
    "lattice": lattice_weight,
    "truncated-lattice": truncated_lattice_weight,
    "parabolic-box": parabolic_box_weight,
}


def make_weight(family: str, spec: GridSpec, **params) -> GridMeasure:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; have {sorted(_FAMILIES)}")
    return _FAMILIES[family](spec, **params)


def candidate_atoms(family: str, spec: GridSpec, **params) -> float:
    """Grid points the builder of family holds at once, without building it.

    A ball or dual tube tests a box of candidates; a lattice keeps the
    points within c of each site, counted by its builder's own test
    without joining them, and a truncated lattice one per site; a
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
        check_lattice_kappa(kw["kappa"])
        sites = _site_points(*lattice_sites(spec.R, kw["kappa"], kw["c"],
                                            "ball"))
        return float(sum(np.count_nonzero(within) for _, within
                         in _fatten_offsets(spec, sites, kw["c"])))
    if family == "truncated-lattice":
        check_truncated_alpha(kw["alpha"])
        return float(math.prod(lattice_axis_lengths(
            spec.R, (2.0 - kw["alpha"]) / 6.0, kw["c"], "corner")))
    if family == "parabolic-box":
        return float(sum(math.ceil(rho / d) * math.ceil(rho * rho / d)
                         for _, _, rho in kw["boxes"]))
    raise ValueError(f"no candidate count for family {family!r}")


def support_box(family: str, spec: GridSpec, **params) -> tuple:
    """(b1, b2), the x1 and x2 extents of the support of the weight family
    builds, without building it: a ball's diameter, a lattice's window of
    sites (fattened by c), a dual tube's R^(1/2) x R slab (k = 0, upright)
    and the truncated lattice's corner window."""
    args = inspect.signature(_FAMILIES[family]).bind(spec, **params)
    args.apply_defaults()
    kw, R = args.arguments, spec.R
    if family == "ball":
        return 2.0 * kw["rho"], 2.0 * kw["rho"]
    if family == "lattice":
        return (2.0 * kw["c"] * (R + 1),) * 2
    if family in ("dual-tube", "truncated-lattice"):
        return math.sqrt(R), float(R)
    raise ValueError(f"no support box for family {family!r}")


# ---------------------------------------------------------------------------
# dimension certificates

@dataclass(frozen=True)
class Certificate:
    value: float
    witness_center: tuple      # (x, t)
    witness_radius: float


def _dyadic_radii(r_min: float, r_max: float) -> np.ndarray:
    lo = int(math.floor(math.log2(max(r_min, 1e-300))))
    hi = int(math.ceil(math.log2(max(r_max, r_min) * (1 + 1e-9))))
    return 2.0 ** np.arange(lo, hi + 1)


# traced peak bytes per (center, position) cell of a masses table block:
# the offsets, their squares or moduli, the distances and a mask
MASS_CELL_BYTES = 48


def masses_at_bytes(n_centers: int, n_positions: int) -> int:
    """Peak bytes of masses_at: one block of its (center, position) cells."""
    return MASS_CELL_BYTES * block_rows(n_centers, n_positions) * n_positions


def masses_at(centers: np.ndarray, positions: np.ndarray, masses: np.ndarray,
              radii: np.ndarray, mode: str) -> np.ndarray:
    """mu of the certificate mode's set around each center z at each radius
    rho; (n_centers, n_radii).

    mode "alpha-ball"  closed balls |x - z| <= rho;
    mode "beta-par"    parabolic boxes |y - z1| <= rho, |s - z2| <= rho^2.
    """
    if mode not in ("alpha-ball", "beta-par"):
        raise ValueError(f"unknown certificate mode {mode!r}")
    out = np.empty((len(centers), len(radii)))
    for b in cell_blocks(len(centers), len(positions)):
        dd = positions[None, :, :] - centers[b, None, :]
        if mode == "alpha-ball":
            dist2 = np.sum(dd * dd, axis=2)
            for r, rho in enumerate(radii):
                out[b, r] = (dist2 <= (rho * (1 + 1e-12)) ** 2) @ masses
        else:
            ax, at = np.abs(dd[:, :, 0]), np.abs(dd[:, :, 1])
            for r, rho in enumerate(radii):
                inside = (ax <= rho * (1 + 1e-12)) \
                    & (at <= rho * rho * (1 + 1e-12))
                out[b, r] = inside @ masses
    return out


def certificate_core(positions: np.ndarray, masses: np.ndarray, mode: str,
                     params, r_min: float, r_max: float) -> list:
    """Dyadic-radius certificates of a dimension norm over explicit points,
    one per exponent a of params, all from one masses table.

    mode "alpha-ball"  sup rho^-a mu(B_rho) over closed balls;
    mode "beta-par"    sup rho^-a mu over boxes rho x rho^2.

    The radii run over the powers of two from r_min to r_max and the
    centers over the atom positions; the unrestricted supremum is at
    most 4^a times the certified value.
    """
    radii = _dyadic_radii(r_min, r_max)
    # masses_at checks the mode, so an empty measure's mode is checked too
    table = masses_at(positions, positions, masses, radii, mode)
    if len(positions) == 0:
        return [Certificate(0.0, (0.0, 0.0), 1.0) for _ in params]
    certs = []
    for a in params:
        vals = table * radii[None, :] ** (-float(a))
        flat = int(np.argmax(vals))
        ci, ri = divmod(flat, len(radii))
        certs.append(Certificate(float(vals[ci, ri]),
                                 (float(positions[ci][0]),
                                  float(positions[ci][1])),
                                 float(radii[ri])))
    return certs
