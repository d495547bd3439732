"""Broad-narrow decomposition, parabolic rescaling, bilinear tracking.

Two layers of the multiscale reduction.  First, the pointwise iteration
down the K-adic ladder of cap scales (geometry.cap_ladder, children from
geometry.cap_children) of the elementary split of (sum a_i)^p into a max
term plus a separated bilinear term, with the constant carried
explicitly and certified at every sample point.  Second, the rescaling of a cap to unit
scale and the measured constants of the local bilinear estimate on balls
of the new radius R_s = R s^2.

Constants here are measured, never proved: each report records the
witnesses so drift across R is visible in regression sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .torus import (GridSpec, TorusField, key_sums, lattice_sums,
                    lattice_sums_bytes, synthesize, trig_sum)
from .geometry import Cap, cap_children, cap_ladder, theta_scale
from .measures import in_ball, lattice_weight
from .envelope import WINDOW_DELTA, cap_decompose


class CertificateError(ArithmeticError):
    """A certified inequality failed on the computed numbers."""


# relative roundoff slack of a pointwise certificate: a point violates it
# only where lhs exceeds the bound by more than this
CERT_RTOL = 1e-9


def over_bound(lhs, bound) -> np.ndarray:
    """Mask of the points where lhs breaks the certified bound."""
    return lhs > bound * (1 + CERT_RTOL)


# Two children of a cap count as separated when at least this fraction of
# a child-cap width lies between them.  Siblings k, k' at scale s_c are
# (|k - k'| - 1) s_c apart edge to edge, so each child's neighborhood of
# unseparated siblings holds 2 ceil(SEPARATION) + 1 = 3 caps.
SEPARATION = 0.5
NEIGHBORHOOD = 2 * math.ceil(SEPARATION) + 1


def separated(k1: int, k2: int) -> bool:
    """Whether sibling caps k1, k2 of one scale are separated."""
    return abs(k2 - k1) - 1 >= SEPARATION


# ---------------------------------------------------------------------------
# the pointwise iteration down the cap ladder

@dataclass
class BroadNarrowReport:
    """Per-point evaluation of the iterated split.

    narrow and bilinear are the bare sums (no constants); bound is the
    certified right-hand side C^m (narrow + sum_j N_j^p max-pair terms),
    which dominates lhs at every point by construction.  empirical[i] is
    lhs / (narrow + K^p bilinear), the constant the canonical form would
    need at that point.
    """

    p: float
    K: int
    m: int
    C_stage: float
    points: np.ndarray
    lhs: np.ndarray
    narrow: np.ndarray
    bilinear: np.ndarray
    bound: np.ndarray
    empirical: np.ndarray

    @property
    def C_certified(self) -> float:
        return self.C_stage ** self.m

    @property
    def max_empirical(self) -> float:
        return float(self.empirical.max()) if len(self.empirical) else 0.0


def broad_narrow(field: TorusField, points, p: float,
                 K: int) -> BroadNarrowReport:
    """Evaluate the pointwise broad-narrow inequality at sample points.

    |f(x)|^p <= C^m sum_theta |f_theta(x)|^p
                + C^m K^p sum_stages sum_parents sum_pairs |f_1 f_2|^(p/2)

    with per-stage C = 2^(p-1) C1^p, the constant of the elementary split
    (sum a_i)^p <= C (max_i a_i^p + N^p max_pairs (a_i a_j)^(p/2)) over N
    entries, C1 = NEIGHBORHOOD the sibling count a child is not separated
    from, itself included; so C = 2^(p-1) 3^p.  The honest certificate
    replaces K^p by each level's actual children count and the pair sum
    by the per-parent maximum; that bound is checked pointwise
    (CertificateError on a violation).
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"finite p >= 1 required, got {p}")
    spec = field.spec
    scales = cap_ladder(spec.R, K)
    m = len(scales) - 1
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    thetas = cap_decompose(field, theta_scale(spec.R))

    # level -> {k: complex values at pts}; every theta piece in one pass
    vals = {m: dict(zip(thetas, lattice_sums(thetas.values(), pts)))}
    # level -> {k one level up: its children's k, ascending}; the one
    # parent of level 1 is the virtual root.  A parent's value is the sum
    # of its children's, in ascending order; childless parents are left out.
    kids = {}
    for level in range(m, 0, -1):
        s_up = scales[level - 1]
        ups = cap_children(1.0, 0, s_up).tolist() if level > 1 else [0]
        kids[level] = {kp: cap_children(s_up, kp, scales[level]).tolist()
                       for kp in ups}
        vals[level - 1] = {}
        for kp, ks in kids[level].items():
            vs = [vals[level][k] for k in ks if k in vals[level]]
            if vs:
                vals[level - 1][kp] = sum(vs[1:], vs[0])

    f_vals = sum(vals[m].values())
    lhs = np.abs(f_vals) ** p

    C_stage = 2.0 ** (p - 1) * float(NEIGHBORHOOD) ** p

    npts = len(pts)
    narrow = np.zeros(npts)
    pair_sum = np.zeros(npts)
    cert_pairs = np.zeros(npts)
    for level in range(1, m + 1):
        level_vals = vals[level]
        N_level = max((len(kids[level][kp]) for kp in vals[level - 1]),
                      default=0)
        for kp in vals[level - 1]:
            live = [k for k in kids[level][kp] if k in level_vals]
            mag = [np.abs(level_vals[k]) for k in live]
            if level == m:
                # every theta lies under one parent and the parents run in
                # ascending k, so narrow adds |f_theta|^p in theta order
                for a in mag:
                    narrow += a ** p
            best = np.zeros(npts)
            for ai in range(len(live)):
                for bi in range(ai + 1, len(live)):
                    if not separated(live[ai], live[bi]):
                        continue
                    term = (mag[ai] * mag[bi]) ** (0.5 * p)
                    pair_sum += term
                    np.maximum(best, term, out=best)
            cert_pairs += float(N_level) ** p * best

    bilinear = float(K) ** p * pair_sum
    bound = C_stage ** m * (narrow + cert_pairs)
    bad = over_bound(lhs, bound)
    if np.any(bad):
        raise CertificateError(
            f"iteration bound violated at {int(np.count_nonzero(bad))} of "
            f"{npts} points, first {pts[np.argmax(bad)]}")
    denom = narrow + bilinear
    empirical = np.divide(lhs, denom, out=np.zeros(npts),
                          where=denom > 0)
    return BroadNarrowReport(
        p=p, K=K, m=m, C_stage=C_stage,
        points=pts, lhs=lhs, narrow=narrow, bilinear=bilinear,
        bound=bound, empirical=empirical)


def broad_narrow_peak_bytes(R: int, K: int, n_points: int) -> float:
    """Estimated peak allocation of broad_narrow at n_points points.

    The values of every cap of every ladder scale at every point are held at
    once; the theta pieces' come from one lattice_sums, whose fields are
    the windows: a window's frequency columns, widened by the smooth
    window edges, hold 4/pi band modes on average (the band is 2/R thick,
    the frequency step pi/(2R)).
    """
    scales = cap_ladder(R, K)
    caps = sum(len(cap_children(1.0, 0, s)) for s in scales)
    columns = (1 + 2 * WINDOW_DELTA) * scales[-1] / GridSpec(R).freq_step
    window_modes = math.ceil(4 / math.pi * (columns + 1))
    return 16 * n_points * caps + lattice_sums_bytes(window_modes, n_points)


# ---------------------------------------------------------------------------
# parabolic rescaling

@dataclass(frozen=True)
class RescaledField:
    """Trig polynomial in cap-model coordinates eta = A_tau^{-1} xi.

    Frequencies are real vectors (integer offsets from the recentering
    keep them off any single lattice); evaluation is by direct summation.
    Amplitudes are carried unchanged so |g(x)| = |f_tau(L_tau x)|; the
    s^3 Jacobian lives in the spectral density convention only.
    """

    freqs: np.ndarray
    amps: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.amps)

    def point_eval(self, points=None, axes=None) -> np.ndarray:
        """g at scattered points, or on the grid x1 x x2 of axes (trig_sum)."""
        if axes is not None:
            return trig_sum(self.freqs, self.amps, axes=axes)
        out = trig_sum(self.freqs, self.amps, np.atleast_2d(points))
        return out if np.ndim(points) > 1 else out[0]


def parabolic_rescale(field: TorusField, cap: Cap) -> RescaledField:
    """Pull a cap piece back to unit scale: eta = A_tau^{-1}(xi).

    The cap is identified with the image of [-1,1] x [-2,2] under A_tau,
    so modes must land in that model box; the new scale is R_s = R s^2.
    """
    spec = field.spec
    s, c = cap.s, cap.c
    xi = spec.freq_step * field.freqs.astype(float)
    eta1 = (xi[:, 0] - c) / s
    eta2 = (xi[:, 1] - 2 * c * xi[:, 0] + c * c) / (s * s)
    tol = 1e-9
    if len(eta1) and (np.abs(eta1).max() > 1 + WINDOW_DELTA + tol
                      or np.abs(eta2).max() > 2 + tol):
        i = int(np.argmax(np.abs(eta1)))
        raise ValueError(
            f"mode xi1 = {xi[i, 0]:.6f} outside cap {cap.cap_id}")
    return RescaledField(np.column_stack([eta1, eta2]), field.amps.copy())


# ---------------------------------------------------------------------------
# bilinear pairs and the local estimate constants

@dataclass(frozen=True)
class BilinearPair:
    """Two separated children of a cap, rescaled to unit scale.

    g1, g2 are the children's theta sums after the parent's rescaling;
    g_thetas holds every rescaled theta piece of the parent (the local
    orthogonality denominator runs over all of them).
    """

    parent: Cap
    child1: Cap
    child2: Cap
    g1: RescaledField
    g2: RescaledField
    g_thetas: tuple
    R: int

    def __post_init__(self):
        if self.child1.s != self.child2.s:
            raise ValueError("children at different scales")
        ratio = self.parent.s / self.child1.s
        if abs(ratio - round(ratio)) > 1e-12 or round(ratio) < 2:
            raise ValueError("child scale must divide parent scale")
        if not separated(self.child1.k, self.child2.k):
            raise ValueError(
                f"pair separation {self.separation:.4f} below "
                f"{SEPARATION} x {self.child1.s}")

    @property
    def K(self) -> int:
        return int(round(self.parent.s / self.child1.s))

    @property
    def R_s(self) -> float:
        return self.R * self.parent.s ** 2

    @property
    def separation(self) -> float:
        return max(0.0, abs(self.child1.c - self.child2.c) - self.child1.s)

    @property
    def pair_id(self) -> str:
        # colon-separated so the id stays a single CSV field
        return f"{self.parent.cap_id}:{self.child1.k}:{self.child2.k}"


def _merge_pieces(pieces, spec) -> TorusField:
    """One field from theta pieces: adjacent windows share boundary modes,
    whose halves add in piece order; modes come out ascending."""
    freqs = np.concatenate([pc.freqs for pc in pieces])
    amps = np.concatenate([pc.amps for pc in pieces])
    # one int64 key per mode, ascending as the (n1, n2) rows are
    lo = int(freqs[:, 1].min())
    width = int(freqs[:, 1].max()) + 1 - lo
    keys, coef = key_sums(freqs[:, 0] * width + (freqs[:, 1] - lo), amps)
    n1, n2 = np.divmod(keys, width)
    return TorusField(spec, np.stack([n1, n2 + lo], axis=1), coef)


def _collect_children(field: TorusField, parent: Cap, child1: Cap,
                      child2: Cap):
    """(theta pieces in parent, theta pieces per child) by window center.

    A unit-scale parent is read as the whole band (the virtual root of
    cap_children), not as the |xi_1| < 1/2 cap, so level-one pairs of the
    broad-narrow iteration are constructible.
    """
    s_theta = theta_scale(field.spec.R)
    in_parent_ks = set(cap_children(parent.s, parent.k, s_theta).tolist())
    child_of = {k: cap.k for cap in (child1, child2)
                for k in cap_children(cap.s, cap.k, s_theta).tolist()}
    in_parent, per_child = [], {child1.k: [], child2.k: []}
    for k, piece in cap_decompose(field, s_theta).items():
        if k not in in_parent_ks:
            continue
        in_parent.append(piece)
        if k in child_of:
            per_child[child_of[k]].append(piece)
    if not per_child[child1.k] or not per_child[child2.k]:
        raise ValueError("a child cap carries no modes")
    return in_parent, per_child


def bilinear_pair(field: TorusField, parent: Cap, child1: Cap,
                  child2: Cap) -> BilinearPair:
    """Assemble a separated pair from a field's theta pieces."""
    spec = field.spec
    in_parent, per_child = _collect_children(field, parent, child1, child2)
    g1 = parabolic_rescale(_merge_pieces(per_child[child1.k], spec), parent)
    g2 = parabolic_rescale(_merge_pieces(per_child[child2.k], spec), parent)
    gth = tuple(parabolic_rescale(pc, parent) for pc in in_parent)
    return BilinearPair(parent, child1, child2, g1, g2, gth, spec.R)


def _gauss_weighted_l2sq(g: RescaledField, center, sigma: float) -> float:
    """int w_B |g|^2 exactly, w_B(x) = exp(-|x - c|^2 / (2 sigma^2)).

    Gaussian weight makes the quadratic form over mode pairs closed form:
    sum a_m conj(a_n) 2 pi sigma^2 exp(i d.c - sigma^2 |d|^2 / 2),
    d = eta_m - eta_n.
    """
    d1 = g.freqs[:, 0][:, None] - g.freqs[:, 0][None, :]
    d2 = g.freqs[:, 1][:, None] - g.freqs[:, 1][None, :]
    phase = np.exp(1j * (d1 * center[0] + d2 * center[1])
                   - 0.5 * sigma ** 2 * (d1 * d1 + d2 * d2))
    quad = np.conj(g.amps) @ phase @ g.amps
    # hermitian form of a psd kernel; imaginary part is roundoff
    return float(2 * np.pi * sigma ** 2 * quad.real)


@dataclass
class BilinearReport:
    """Measured constants of the local bilinear estimate on one ball."""

    pair_id: str
    R_s: float
    K: int
    s: float
    int_B: float
    int_BY: float
    max_cell_ratio: float
    norm1_w: float
    norm2_w: float
    sq_norm_w: float
    C_bil: float
    C_l4: float
    C_orth1: float
    C_orth2: float
    witness: tuple


def bilinear_check(pair: BilinearPair, Y) -> BilinearReport:
    """Measure the bilinear constants of a pair on one R_s ball.

    B is the axis cube of side R_s centered at the origin.  Y is None for
    the full plane, or a membership function taking physical points (n, 2)
    to a bool mask, such as GridMeasure.contains or a bound measures.in_ball;
    it enters through its pullback by L_tau: a quadrature point x lands in
    Y-tilde when Y(L_tau x) holds.  int_B and int_BY are midpoint rules
    on quad_per_unit^2 points per unit cell, 4 per unit up to R_s = 64
    and 2 above (_default_quad_per_unit), not exact: at 4 points per
    unit they are 5.5e-7 to 1.9e-5 relative off the values at 16 (8 trials
    at R_s = 64), about 4x less per halving.  The weighted norms use a
    Gaussian w_B with sigma = R_s / 2, evaluated in closed form.

      C_bil  : int_B |g1 g2|^2 * |B| / (||g1||_w^2 ||g2||_w^2)
      C_l4   : same with int_{B and Y-tilde} and the max cell ratio
      C_orth : ||g_i||_w / ||(sum_theta |g_theta|^2)^(1/2)||_w

    The orthogonality ratios are checked against their Cauchy-Schwarz
    ceilings (CertificateError if above); everything else is recorded
    with witnesses.
    """
    side = pair.R_s
    n_cells = int(round(side))
    npq = _default_quad_per_unit(side)
    n = n_cells * npq
    h = side / n
    ax = (np.arange(n) + 0.5) * h - side / 2
    axes = (ax, ax)
    center = (0.0, 0.0)
    # point i * n + j of the grid is (axes[0][i], axes[1][j])
    prod2 = (np.abs(pair.g1.point_eval(axes=axes).ravel())
             * np.abs(pair.g2.point_eval(axes=axes).ravel())) ** 2
    int_B = float(prod2.sum()) * h * h

    if Y is None:
        # the whole plane: B and Y-tilde is B, every cell full
        int_BY, max_cell_ratio = int_B, 1.0
    else:
        # physical point is L_tau x; Y-tilde = L_tau^{-1}(Y)
        L = pair.parent.transforms()[2]
        grid = np.empty((n, n, 2))
        grid[:, :, 0] = axes[0][:, None]
        grid[:, :, 1] = axes[1]
        phys = grid.reshape(n * n, 2) @ np.asarray(L).T
        del grid
        mask = Y(phys)
        del phys
        int_BY = float(prod2[mask].sum()) * h * h
        # per-unit-cell occupancy of Y-tilde, summed slice by slice on
        # uint8 (at most npq^2 per cell)
        cells = mask.view(np.uint8).reshape(n_cells, npq, n_cells, npq)
        counts = sum(cells[:, a, :, b] for a in range(npq)
                     for b in range(npq))
        max_cell_ratio = float(counts.max()) / (npq * npq)

    sigma = side / 2
    n1w = np.sqrt(max(_gauss_weighted_l2sq(pair.g1, center, sigma), 0.0))
    n2w = np.sqrt(max(_gauss_weighted_l2sq(pair.g2, center, sigma), 0.0))
    sqw2 = sum(_gauss_weighted_l2sq(g, center, sigma)
               for g in pair.g_thetas)
    sq_norm_w = np.sqrt(max(sqw2, 0.0))

    area = side * side
    denom = (n1w * n2w) ** 2
    C_bil = int_B * area / denom if denom > 0 else 0.0
    l4_denom = max_cell_ratio * denom / area
    C_l4 = int_BY / l4_denom if l4_denom > 0 else 0.0
    C_o1 = n1w / sq_norm_w if sq_norm_w > 0 else 0.0
    C_o2 = n2w / sq_norm_w if sq_norm_w > 0 else 0.0
    for C_o, g in ((C_o1, pair.g1), (C_o2, pair.g2)):
        n_th = sum(1 for gt in pair.g_thetas if gt.n_modes)
        if not C_o <= np.sqrt(max(n_th, 1)) * (1 + 1e-9):
            raise CertificateError(
                "orthogonality ratio above Cauchy-Schwarz ceiling")

    i_w, j_w = divmod(int(np.argmax(prod2)), n)
    witness = (float(axes[0][i_w]), float(axes[1][j_w]))
    return BilinearReport(
        pair_id=pair.pair_id, R_s=side, K=pair.K, s=pair.parent.s,
        int_B=int_B, int_BY=int_BY, max_cell_ratio=max_cell_ratio,
        norm1_w=n1w, norm2_w=n2w, sq_norm_w=sq_norm_w, C_bil=C_bil,
        C_l4=C_l4, C_orth1=C_o1, C_orth2=C_o2, witness=witness)


# ---------------------------------------------------------------------------
# the trial sweeps

def _trial_modes(rng, spec: GridSpec, s_c: float, kc: int):
    """Random parabola modes whose windows stay inside child (s_c, kc).

    The window center of a mode sits within half a theta width of it, so
    the sampling interval shrinks by a full theta; when the child is only
    a couple of thetas wide that interval is empty and we fall back to a
    sliver around the child center (the center-to-center ratio s_c
    sqrt(R) is even, so those windows land exactly on the child center).
    """
    s_theta = theta_scale(spec.R)
    halfw = 0.5 * s_c - s_theta
    if halfw < 0.4 * s_theta:
        halfw = 0.4 * s_theta
    lo_xi = max(kc * s_c - halfw, -1.0)
    hi_xi = min(kc * s_c + halfw, 1.0)
    step = spec.freq_step
    lo = int(np.ceil(lo_xi / step))
    hi = int(np.floor(hi_xi / step))
    size = min(int(rng.integers(6, 16)), hi - lo + 1)
    n1 = rng.choice(np.arange(lo, hi + 1), size=size, replace=False)
    modes = []
    for v in n1:
        xi1 = v * step
        modes.append((int(v), int(round(xi1 * xi1 / step))))
    return modes


# Traced peaks of bilinear_check run 72 bytes per point of its quadrature
# grid with a ball Y, 65 with a lattice Y and 32 with none: |g1 g2|^2, the
# physical images of the points, the temporaries of the Y test and the mask.
_BILINEAR_POINT_BYTES = 80


def _default_quad_per_unit(R_s: float) -> int:
    return 4 if R_s <= 64 else 2


def bilinear_peak_bytes(R_s: int) -> float:
    """Estimated peak allocation of bilinear_trials at R_s: the n x n
    quadrature grid of one check."""
    n = R_s * _default_quad_per_unit(R_s)
    return _BILINEAR_POINT_BYTES * n * n


def bilinear_trials(R_s: int, K: int, n_trials: int, seed):
    """Measured bilinear constants for random separated pairs at R_s.

    For K >= 4 half the trials start from physical scale R = 4 R_s with
    an s = 1/2 parent, exercising the rescaling; the rest use the unit
    parent at R = R_s directly.  Each trial draws its Y: the full plane,
    a ball through the pullback, or isolated lattice cells.  Returns the
    n_trials >= 1 reports.  K >= 2 children per parent width; K need not
    be a power of two, since a trial splits its parent once.
    """
    if not (isinstance(K, int) and K >= 2):
        raise ValueError(f"K must be an integer >= 2; got {K!r}")
    if n_trials < 1:
        raise ValueError(f"trials must be >= 1; got {n_trials}")
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(n_trials):
        half = K >= 4 and rng.random() < 0.5
        if half:
            spec = GridSpec(4 * R_s)
            parent = Cap(0.5, int(rng.integers(-1, 2)))
        else:
            spec = GridSpec(R_s)
            parent = Cap(1.0, 0)
        s_c = parent.s / K
        kids = cap_children(parent.s, parent.k, s_c)
        while True:
            k1, k2 = rng.choice(kids, size=2, replace=False)
            if separated(int(k1), int(k2)):
                break
        k1, k2 = int(min(k1, k2)), int(max(k1, k2))
        modes = _trial_modes(rng, spec, s_c, k1) + \
            _trial_modes(rng, spec, s_c, k2)
        amps = rng.standard_normal(len(modes)) + \
            1j * rng.standard_normal(len(modes))
        field = synthesize(np.array(modes, dtype=np.int64), amps, spec)
        pair = bilinear_pair(field, parent, Cap(s_c, k1), Cap(s_c, k2))
        draw = rng.random()
        if draw < 0.4:
            Y = None
        elif draw < 0.7:
            # ball centered inside the physical image of B
            L = np.asarray(pair.parent.transforms()[2])
            u = rng.uniform(-0.25, 0.25, size=2) * pair.R_s
            cx = L @ u
            Y = partial(in_ball, spec=spec, rho=spec.L / 8.0,
                        center=(float(cx[0]), float(cx[1])))
        else:
            # isolated cells: the pullback cell ratio is genuinely < 1
            Y = lattice_weight(spec).contains
        reports.append(bilinear_check(pair, Y))
    return reports
