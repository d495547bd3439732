"""Free 1D propagation on space-time slabs and the exponent experiments.

The propagator acts on a line spectrum supported in [-1, 1]: one FFT per
time slice after multiplying the coefficients by the quadratic phase.  A
smooth time cutoff eta(t/R) confines mass to |t| <~ R; we use the squared
half-sinc

    eta(t) = (sin(t/2) / (t/2))^2,   eta_hat(w) = 2*pi*(1 - |w|)_+,

so the cutoff transform is supported on [-1, 1] exactly and eta stays
above 0.91 on [-1, 1].  The choice is recorded in every exported report.

Alongside the propagator live a maximal average along tilted tubes,
anisotropic atom rescaling (x, t) -> (Rx, R^2 t) with dimension-
certificate comparisons, and the slope experiments (chirp, traveling
packet, modulated lattice sum, tube-maximal average) fitted through
ExponentFit.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .measures import (LATTICE_C, LATTICE_KAPPA, certificate_core,
                       check_lattice_kappa, lattice_axis_lengths,
                       lattice_sites)
from .torus import (CELL_BUDGET, _check_alias_free, cell_blocks, distinct,
                    phase_table, trig_sum, trig_sum_bytes)

ETA_NAME = "squared half-sinc (sin(t/2)/(t/2))^2"

# per-slice L2 conservation of the pre-cutoff synthesis
UNITARITY_TOL = 1e-10


def eta(t):
    """Time cutoff; nonnegative, eta(0) = 1, transform on [-1, 1]."""
    u = 0.5 * np.asarray(t, dtype=float)
    out = np.sinc(u / np.pi) ** 2
    return float(out) if out.ndim == 0 else out


def smooth_bump(u, lo: float, hi: float):
    """C^inf bump supported on [lo, hi] with peak value 1 at the midpoint."""
    v = (np.asarray(u, dtype=float) - lo) / (hi - lo)
    out = np.zeros_like(v)
    inside = (v > 0.0) & (v < 1.0)
    vi = v[inside]
    out[inside] = np.exp(4.0 - 1.0 / (vi * (1.0 - vi)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# propagation

def _line_lattice(freqs, length: float):
    """Validate a [-1, 1] line spectrum on the 2*pi/length lattice."""
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    step = 2.0 * np.pi / length
    n = np.rint(freqs / step).astype(np.int64)
    if np.max(np.abs(n * step - freqs), initial=0.0) > 1e-9 * max(1.0, step):
        raise ValueError("frequencies must sit on the 2*pi/length lattice")
    if np.max(np.abs(freqs), initial=0.0) > 1.0 + 1e-12:
        raise ValueError("line spectrum must lie in [-1, 1]")
    if len(distinct(n)) != len(n):
        raise ValueError("duplicate frequencies")
    return freqs, n


def propagate(freqs, amps, R: float, length: float, n_x: int,
              times) -> np.ndarray:
    """Sample eta(t/R) e^{it dxx} f on the (x, t) grid: the (n_t, n_x)
    slices, row i at times[i] on the n_x points j length / n_x.

    Each slice is one inverse FFT of the coefficients after the phase
    multiplication a_j -> a_j e^{i t xi_j^2}.  n_x must strictly exceed
    twice the mode bandwidth so the slices are alias-free.  The pre-cutoff
    slice norms are checked against Parseval to UNITARITY_TOL.
    """
    freqs, n = _line_lattice(freqs, length)
    amps = np.atleast_1d(np.asarray(amps, dtype=complex))
    if amps.shape != freqs.shape:
        raise ValueError("frequency/amplitude length mismatch")
    _check_alias_free(int(np.max(np.abs(n), initial=0)), n_x)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    target = float(length * np.sum(np.abs(amps) ** 2))

    rows = np.empty((len(times), n_x), dtype=complex)
    idx = np.mod(n, n_x)
    defect = 0.0
    # a block's slices are scaled and cut off in place, so it holds at
    # most two tables of its cells besides the rows
    for b in cell_blocks(len(times), n_x):
        tb = times[b]
        bins = np.zeros((len(tb), n_x), dtype=complex)
        bins[:, idx] = amps[None, :] * np.exp(
            1j * tb[:, None] * freqs[None, :] ** 2)
        pre = np.fft.ifft(bins, axis=1)
        del bins
        pre *= n_x
        norms = (length / n_x) * np.sum(np.abs(pre) ** 2, axis=1)
        if target > 0.0:
            defect = max(defect, float(np.max(np.abs(norms / target - 1.0))))
        else:
            defect = max(defect, float(np.max(norms)))
        np.multiply(eta(tb / R)[:, None], pre, out=rows[b])
    if defect > UNITARITY_TOL:
        raise AssertionError(
            f"pre-cutoff slice norm drifts by {defect:.2e} > {UNITARITY_TOL}")
    return rows


def propagator_at(freqs, amps, R: float, points=None,
                  axes=None) -> np.ndarray:
    """Direct evaluation of eta(t/R) e^{it dxx} f at (x, t) points, or on
    the grid x x t of axes = (x, t), as a trig_sum over modes (xi, xi^2)."""
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    modes = np.column_stack([freqs, freqs ** 2])
    amps = np.atleast_1d(amps)
    if axes is not None:
        t = np.asarray(axes[1], dtype=float)
        return trig_sum(modes, amps, axes=axes) * eta(t / R)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return trig_sum(modes, amps, pts) * eta(pts[:, 1] / R)


# ---------------------------------------------------------------------------
# maximal average along tilted tubes

# slopes per block of nikodym_max, at most CELL_BUDGET // 4 tube sums a
# block: a block's sums and gathered windows stay in cache, 32 slopes up
# to R = 1024 (0.064 s there, against 0.12 s at 128 and 0.063 s at 16)
# and 8 at R = 4096 (1.10 s, against 2.07 s at 32)
NIKODYM_SLOPES = 32
# blocks of fewer tube sums than this stay on the calling thread: on a
# 2-vCPU VM two threads took nikodym_max from 73 to 48-54 ms at R = 1024
# (blocks of 2^16 sums) and from 39 to 31 ms at 768, left it at 18 ms at
# 512 (2^15), and took it from 5.7 to 9.4 ms at 256 (2^14), whose small
# gathers wait on each other
NIKODYM_THREAD_SUMS = CELL_BUDGET // 8
# half width of the sampled x range and number of time rows of nikodym_grid
NIKODYM_X_HALF = 3.0
NIKODYM_ROWS = 33


def nikodym_grid(R: int):
    """Sampling grid: dx = 1/R exactly on |x| <= NIKODYM_X_HALF, and
    NIKODYM_ROWS midpoint rows of [-1, 1]."""
    m = int(round(NIKODYM_X_HALF * R))
    x = np.arange(-m, m + 1) / R
    n_t = NIKODYM_ROWS
    t = (2.0 * (np.arange(n_t) + 0.5) / n_t) - 1.0
    return x, t


def nikodym_block(n_y: int) -> int:
    """Slopes per block of nikodym_max over n_y tube columns."""
    return min(NIKODYM_SLOPES, max(1, CELL_BUDGET // 4 // n_y))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def nikodym_threads(n_slopes: int, n_y: int) -> int:
    """Worker threads of nikodym_max over n_slopes slopes and n_y tube
    columns: one per usable CPU and at most one per block of slopes, or
    one where a block holds fewer than NIKODYM_THREAD_SUMS tube sums."""
    step = nikodym_block(n_y)
    if step * n_y < NIKODYM_THREAD_SUMS:
        return 1
    return min(usable_cpus(), -(-n_slopes // step))


def nikodym_max(g, R: int, dx: float):
    """Maximal tube average sup_w avg_{T_w + (y,0)} |g|.

    g is sampled on rows t_i covering |t| <= 1 and columns of spacing dx;
    the tube at slope w collects, in each row, the samples with
    |x - y + 2 t w| <= 1/R, and the average counts samples (so a constant
    g averages to that constant exactly).  w runs over [-1, 1] with
    spacing 1/R.  Returns (column indices usable as y, values).

    The blocks of slopes are dealt out to nikodym_threads worker threads,
    each with its own block buffer and running maximum; a maximum is
    exact in any order, so the values are the same bits on any number of
    CPUs.
    """
    g = np.abs(np.asarray(g, dtype=float))
    if g.ndim != 2:
        raise ValueError("g must be a 2d (t, x) sample array")
    n_t, n_x = g.shape
    if dx > (1.0 / R) * (1 + 1e-9):
        raise ValueError(
            f"grid too coarse: dx = {dx:.6g}, the tube width needs "
            f"dx <= 1/R = {1.0 / R:.6g}")
    hw = max(1, int(round((1.0 / R) / dx)))
    t = (2.0 * (np.arange(n_t) + 0.5) / n_t) - 1.0
    margin = int(math.ceil(2.0 / dx)) + hw + 1
    n_y = n_x - 2 * margin
    if n_y <= 0:
        raise ValueError(
            f"x range too small: need more than {2 * margin} columns "
            f"at dx = {dx:.6g} so every tilted tube stays inside")

    # box[i, c] = g[i, c] + ... + g[i, c + 2 hw], added left to right
    n_box = n_x - 2 * hw
    box = g[:, :n_box].copy()
    for d in range(1, 2 * hw + 1):
        box += g[:, d:d + n_box]
    denom = float(n_t * (2 * hw + 1))
    ws = np.arange(-R, R + 1) / R
    # base[k, i]: the tube's first column in row i at slope ws[k]
    base = margin - hw + np.rint(
        np.multiply.outer(ws, -2.0 * t) / dx).astype(np.int64)
    # window k of row i is box[i, k:k + n_y]; a block of slopes adds its
    # rows of windows in row order, one slope per row of acc
    windows = [np.lib.stride_tricks.sliding_window_view(row, n_y)
               for row in box]
    step = nikodym_block(n_y)

    def worker(starts):
        best = np.zeros(n_y)
        for j in starts:
            rows = base[j:j + step]
            acc = windows[0][rows[:, 0]]
            for i in range(1, n_t):
                acc += windows[i][rows[:, i]]
            np.maximum(best, acc.max(axis=0), out=best)
        return best

    starts = range(0, len(ws), step)
    n_threads = nikodym_threads(len(ws), n_y)
    if n_threads == 1:
        best = worker(starts)
    else:
        # imported here, so that only a threaded run pays its import
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(n_threads) as pool:
            best = reduce(np.maximum, pool.map(
                worker, [starts[w::n_threads] for w in range(n_threads)]))
    return np.arange(margin, margin + n_y), best / denom


def nikodym_ratio(R: int, q_values, seed: int) -> list:
    """||max average||_q / ||g||_q for one random g on the nikodym_grid,
    one ratio per q; g and its maximal average are computed once."""
    rng = np.random.default_rng([seed, R])
    x, t = nikodym_grid(R)
    g = rng.standard_normal((len(t), len(x)))
    _, vals = nikodym_max(g, R, 1.0 / R)
    dy = 1.0 / R
    dt = 2.0 / len(t)
    ratios = []
    for q in q_values:
        num = float(np.sum(vals ** q) * dy) ** (1.0 / q)
        den = float(np.sum(np.abs(g) ** q) * dy * dt) ** (1.0 / q)
        ratios.append(num / den)
    return ratios


def nikodym_experiment(q: float, R_values, **params) -> "ExponentFit":
    """The tube-maximal fit for one exponent q; params go to fls_fits."""
    return fls_fits("nikodym", (q,), R_values, **params)[0]


# ---------------------------------------------------------------------------
# anisotropic rescaling of atomic measures

def rescale_measure(positions, masses, R: float, beta: float, alpha: float,
                    spacing):
    """Map atoms (x, t) -> (Rx, R^2 t) and certify the dimension drop.

    Returns (rescaled positions, comparisons).  For the parabolic-box norm
    parameter beta the rescaled measure is certified as a ball measure at
    index (beta+1)/2 (beta >= 1) or beta (beta <= 1) against the scale
    bound R^-beta; for the ball-norm parameter alpha the index stays alpha
    and the bound is R^{1-2 alpha} (alpha >= 1) or R^-alpha (alpha <= 1).
    Each comparison reports measured / (base norm * bound); both rescaled
    certificates come from one masses table.

    `spacing` = (hx, ht) is the source grid resolution: certified radii
    for the rescaled measure start at the image of one source cell, since
    the atomic model carries no information below it.  (0, 0) means the
    atoms are exact (radii start at 1).
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    masses = np.atleast_1d(np.asarray(masses, dtype=float))
    if positions.shape[0] != masses.shape[0] or positions.shape[1] != 2:
        raise ValueError("positions must be (n, 2) with matching masses")
    beta, alpha = float(beta), float(alpha)
    if not 0.0 <= beta <= 3.0:
        raise ValueError("parabolic parameter must lie in [0, 3]")
    if not 0.0 <= alpha <= 2.0:
        raise ValueError("ball parameter must lie in [0, 2]")
    # compared before float(R), which overflows past the largest float;
    # an int R compares exactly
    if not (0 < R and R * R <= sys.float_info.max):
        raise ValueError(f"scale R must be finite and positive, with R^2 a "
                         f"finite float; got {R!r}")
    R = float(R)
    pos_R = positions * np.array([R, R * R])

    hx, ht = float(spacing[0]), float(spacing[1])
    h = max(hx, ht)
    r_min_out = max(1.0, R * hx, R * R * ht)
    span = float(np.max(np.abs(pos_R))) if len(pos_R) else 1.0
    r_max_out = max(2.0 * span, 2.0 * r_min_out)
    src_span = max(float(np.max(np.abs(positions))) if len(positions) else 1.0,
                   1.0)

    # kind, base mode, parameter, base r_min, scale exponent
    kinds = (("parabolic", "beta-par", beta,
              max(math.sqrt(h), h) if h > 0 else 1e-9, -beta),
             ("ball", "alpha-ball", alpha, h if h > 0 else 1e-9,
              1.0 - 2.0 * alpha if alpha >= 1.0 else -alpha))
    bases = []
    for _, base_mode, param, base_rmin, _ in kinds:
        base, = certificate_core(positions, masses, base_mode, (param,),
                                 base_rmin, 2.0 * src_span)
        if base.value <= 0.0:
            raise ValueError("degenerate measure: zero base norm")
        bases.append(base)
    # the rescaled measure's ball indices, one table for both
    targets = ((beta + 1.0) / 2.0 if beta >= 1.0 else beta, alpha)
    measured = certificate_core(pos_R, masses, "alpha-ball", targets,
                                r_min_out, r_max_out)
    comparisons = []
    for (kind, _, param, _, scale), target, base, meas in zip(
            kinds, targets, bases, measured):
        comparisons.append({
            "kind": kind,
            "param": param,
            "target_index": target,
            "base_norm": base.value,
            "measured": meas.value,
            "scale_exponent": scale,
            "ratio": meas.value / (base.value * R ** scale),
            "witness": {"center": list(meas.witness_center),
                        "radius": meas.witness_radius},
        })
    return pos_R, comparisons


def delta_atoms():
    """A single unit atom at the origin."""
    return np.zeros((1, 2)), np.ones(1)


# atoms of the line family, and per side of the two square families
LINE_ATOMS = 256
SQUARE_ATOMS = 32


def line_atoms():
    """Unit mass spread over the horizontal segment [0, 1] x {0}."""
    n = LINE_ATOMS
    x = (np.arange(n) + 0.5) / n
    pos = np.column_stack([x, np.zeros(n)])
    return pos, np.full(n, 1.0 / n)


def unit_square_atoms():
    """Cell-center atomization of Lebesgue measure on [0, 1]^2."""
    n = SQUARE_ATOMS
    c = (np.arange(n) + 0.5) / n
    X, T = np.meshgrid(c, c, indexing="ij")
    pos = np.column_stack([X.ravel(), T.ravel()])
    return pos, np.full(n * n, 1.0 / (n * n))


def sqrt_profile_atoms():
    """Atoms on [0,1]^2 with the |t|^{-1/2}/2 column profile.

    Per-cell masses integrate the profile exactly, so a box of height
    rho^2 captures mass ~ rho * width: a parabolic-norm parameter 2
    family whose ball dimension is 3/2.
    """
    n = SQUARE_ATOMS
    c = (np.arange(n) + 0.5) / n
    edges = np.arange(n + 1) / n
    col = np.sqrt(edges[1:]) - np.sqrt(edges[:-1])  # int of t^{-1/2}/2
    X, T = np.meshgrid(c, c, indexing="ij")
    M = np.broadcast_to(col[None, :], (n, n)) / n
    pos = np.column_stack([X.ravel(), T.ravel()])
    return pos, M.ravel().copy()


# built-in unit-scale families: name -> (atoms, beta, alpha, spacing)
MEASURE_FAMILIES = {
    "delta": (delta_atoms, 0.0, 0.0, (0.0, 0.0)),
    "line": (line_atoms, 1.0, 1.0, (1.0 / LINE_ATOMS, 0.0)),
    "square": (unit_square_atoms, 3.0, 2.0,
               (1.0 / SQUARE_ATOMS, 1.0 / SQUARE_ATOMS)),
    "sqrt-profile": (sqrt_profile_atoms, 2.0, 1.5,
                     (1.0 / SQUARE_ATOMS, 1.0 / SQUARE_ATOMS)),
}


def measure_family(name: str):
    """(positions, masses, beta, alpha, spacing) of a built-in family."""
    if name not in MEASURE_FAMILIES:
        raise ValueError(f"unknown measure family {name!r}")
    atoms, beta, alpha, spacing = MEASURE_FAMILIES[name]
    return (*atoms(), beta, alpha, spacing)


# ---------------------------------------------------------------------------
# exponent fits

@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log(ratio) against log(R).

    `sided` states how the fitted slope is compared with the prediction:
    "two" within +-band, "lower"/"upper" one-sided.
    """

    name: str
    exponent: str              # sigma | zeta | gamma
    R_values: tuple
    log_ratios: tuple
    slope: float
    residual: float            # max |fit - data| over the grid
    prediction: float
    band: float
    sided: str = "two"
    notes: str = ""

    @property
    def passed(self) -> bool:
        if self.sided == "lower":
            return self.slope >= self.prediction - self.band
        if self.sided == "upper":
            return self.slope <= self.prediction + self.band
        return abs(self.slope - self.prediction) <= self.band

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "exponent": self.exponent,
            "R_values": [float(r) for r in self.R_values],
            "log_ratios": [float(v) for v in self.log_ratios],
            "slope": float(self.slope),
            "residual": float(self.residual),
            "prediction": float(self.prediction),
            "band": float(self.band),
            "sided": self.sided,
            "passed": bool(self.passed),
            "notes": self.notes,
        }


def fit_exponent(name: str, exponent: str, R_values, ratios,
                 prediction: float, band: float = 0.1,
                 sided: str = "two", notes: str = "") -> ExponentFit:
    R_values = [float(r) for r in R_values]
    ratios = [float(v) for v in ratios]
    if len(R_values) < 3:
        raise ValueError("exponent fits need at least 3 scales")
    if len(R_values) != len(ratios):
        raise ValueError("scale/ratio length mismatch")
    if min(ratios) <= 0.0 or not all(map(math.isfinite, ratios)):
        bad = R_values[int(np.argmin(ratios))]
        raise ValueError(f"degenerate family: vanishing ratio at R = {bad:g}")
    if sided not in ("two", "lower", "upper"):
        raise ValueError(f"unknown sidedness {sided!r}")
    logR = np.log(np.asarray(R_values))
    logv = np.log(np.asarray(ratios))
    slope, intercept = np.polyfit(logR, logv, 1)
    residual = float(np.max(np.abs(slope * logR + intercept - logv)))
    return ExponentFit(name, exponent, tuple(R_values), tuple(logv),
                       float(slope), residual, float(prediction),
                       float(band), sided, notes)


# ---------------------------------------------------------------------------
# slope families

# The chirp is measured on CHIRP_SIDE^2 midpoints of its coherence square
# |x|, |t - R| <= CHIRP_C; the packet on PACKET_ROWS time rows of its slab
# |x - 2t| <= PACKET_C sqrt(R); the lattice fattens its sites by LATTICE_C,
# integrates each frequency block with LATTICE_NODES Gauss nodes and
# samples its square function on a LATTICE_SQ_GRID^2 grid.
CHIRP_C, CHIRP_SIDE = 0.25, 9
PACKET_C, PACKET_ROWS = 0.5, 129
LATTICE_NODES, LATTICE_SQ_GRID = 8, 65


def _chirp_setup(R: int):
    """Lattice modes and amplitudes of the chirp, its period and the
    16 R samples of one period."""
    length = 8.0 * R
    step = 2.0 * np.pi / length
    n = np.arange(int(math.ceil(0.25 / step)), int(math.floor(1.0 / step)) + 1)
    xi = n * step
    amps = smooth_bump(xi, 0.25, 1.0) * np.exp(-1j * R * xi ** 2) \
        * (step / (2.0 * np.pi))
    return xi, amps, length, 16 * R


def chirp_ratio(R: int, p_values) -> list:
    """Restricted norms of the propagated chirp over the coherence square.

    The initial spectrum e^{-i R xi^2} bump(xi) concentrates the modulus
    near t = R, |x| <= c once the quadratic phases cancel; the ratio
    against ||f||_p grows like R^{1/2 - 1/p}.  One ratio per p.
    """
    R = int(R)
    xi, amps, length, n_x = _chirp_setup(R)
    dx = length / n_x
    f_abs = np.abs(propagate(xi, amps, R, length, n_x, [0.0])[0])

    c, n_side = CHIRP_C, CHIRP_SIDE
    grid = c * (2.0 * (np.arange(n_side) + 0.5) / n_side - 1.0)
    vals = np.abs(propagator_at(xi, amps, R, axes=(grid, R + grid))).ravel()
    dA = (2.0 * c / n_side) ** 2
    ratios = []
    for p in p_values:
        fnorm = float(np.sum(f_abs ** p) * dx) ** (1.0 / p)
        lhs = float(np.sum(vals ** p) * dA) ** (1.0 / p)
        ratios.append(lhs / fnorm)
    return ratios


def _packet_setup(R: int):
    """Lattice modes for the packet with spectrum in a R^{-1/2} window at -1."""
    s = R ** -0.5
    length = 32.0 * np.pi / s
    step = 2.0 * np.pi / length
    lo, hi = -1.0 + 0.25 * s, -1.0 + s
    n = np.arange(int(math.floor(lo / step)), int(math.ceil(hi / step)) + 1)
    xi = n * step
    amps = smooth_bump((xi + 1.0) / s, 0.25, 1.0) * (step / (2.0 * np.pi))
    keep = amps > 0.0
    n_x = int(64 * round(R ** 0.5))
    return xi[keep], amps[keep], length, n_x


def _packet_slab(R: int, c: float, n_t: int):
    """Moduli of the propagated packet on its slab |x - 2t| <= c sqrt(R),
    row by row over n_t time rows, each row's cells in grid order, and its
    modes, amplitudes, period and grid size.

    A row's slab is one run of consecutive cells of the period, so only a
    window of reach/dx + 1 cells on either side of the row's center cell
    is tested and summed: eta(t/R) sum_n a_n e^{i t xi_n^2} e^{i xi_n x}
    at x = (first + m) dx is (row coefficients a_n e^{i t xi_n^2}
    e^{i xi_n first dx}) @ (window table e^{i xi_n m dx}).  Both xi_n j dx
    phases are 2 pi (n j mod n_x) / n_x, reduced in integers."""
    xi, amps, length, n_x = _packet_setup(R)
    _, n = _line_lattice(xi, length)
    times = R * (2.0 * (np.arange(n_t) + 0.5) / n_t - 1.0)
    dx = length / n_x
    half = length / 2.0
    reach = c * math.sqrt(R)
    centers = np.mod(2.0 * times, length)
    k = int(reach / dx) + 1
    first = np.rint(centers / dx).astype(np.int64) - k
    cells = np.mod(first[:, None] + np.arange(2 * k + 1), n_x)
    dist = np.abs(np.mod(cells * dx - centers[:, None] + half, length) - half)
    turn = 2.0 * np.pi / n_x
    rows = phase_table(times, xi ** 2)
    rows *= np.exp(1j * turn * np.mod(np.multiply.outer(first, n), n_x))
    rows *= amps
    rows *= eta(times / R)[:, None]
    window = np.exp(1j * turn * np.mod(
        np.multiply.outer(n, np.arange(2 * k + 1)), n_x))
    vals = np.abs(rows @ window)
    # each row's cells in grid order, as a whole-row mask takes them: a
    # window that wraps past the period's end is a rotation of that order
    order = np.argsort(cells, axis=1)
    keep = np.take_along_axis(dist <= reach, order, axis=1)
    slab = np.take_along_axis(vals, order, axis=1)[keep]
    return slab, (xi, amps, length, n_x)


def packet_ratio(R: int, p_values, alpha: float) -> list:
    """Restricted norms of the packet against the slab measure.

    The measure weights the slab by min(R^{(a-2)/2}, R^{a-3/2}); the
    ratio against ||g||_p then grows like R^{min(a, 2a-1)/(2p)}.  One
    ratio per p.
    """
    R = int(R)
    slab, (xi, amps, length, n_x) = _packet_slab(R, PACKET_C, PACKET_ROWS)
    dx = length / n_x
    dt = 2.0 * R / PACKET_ROWS
    weight = min(R ** ((alpha - 2.0) / 2.0), R ** (alpha - 1.5))
    g0 = np.abs(propagate(xi, amps, R, length, n_x, [0.0])[0])
    ratios = []
    for p in p_values:
        lhs = (weight * float(np.sum(slab ** p)) * dx * dt) ** (1.0 / p)
        gnorm = float(np.sum(g0 ** p) * dx) ** (1.0 / p)
        ratios.append(lhs / gnorm)
    return ratios


def _lattice_modes(R: float, kappa: float, n_quad: int):
    """Modes (xi, xi^2) of the lattice sum, (block, node, 2), and the node
    weights: Gauss-Legendre over [-1/R, 1/R] around each block center
    l R^{-kappa} in [-1/2, 1/2], for kappa in [0, 2/3]
    (check_lattice_kappa)."""
    check_lattice_kappa(kappa)
    n_half = int(math.floor(0.5 * R ** kappa))
    ells = np.arange(-n_half, n_half + 1) * R ** -kappa
    nodes, wts = np.polynomial.legendre.leggauss(n_quad)
    xi = ells[:, None] + (nodes / R)[None, :]
    return np.stack([xi, xi ** 2], axis=-1), wts / R


def lattice_ratio(R: float, p_values, kappa: float) -> list:
    """Modulated lattice sum against its square function, one ratio per p.

    f sums frequency blocks of width 2/R at spacings R^{-kappa} in
    [-1/2, 1/2], each damped by eta in both x/R and t/R.  On the sparse
    lattice whose spacings undo every phase the blocks add coherently, so
    the restricted norm over the fattened lattice beats the square
    function by R^{kappa(1/2 - 3/p)}.

    Both sides are tensor grids: the lattice sites are the grid a x b
    masked by the c R ball, and each of the five cell-average offsets o
    shifts that grid, which is the phase e^{i xi . o} on each mode's
    amplitude.
    """
    R = float(R)
    c, sq_grid = LATTICE_C, LATTICE_SQ_GRID
    modes, w = _lattice_modes(R, kappa, LATTICE_NODES)

    def envelope(x, t):
        return (R * eta(x / R))[:, None] * eta(t / R)[None, :]

    # restricted norm: five-point cell average over each fattening ball
    a, b, keep = lattice_sites(R, kappa, c, "ball")
    if np.count_nonzero(keep) < 8:
        raise ValueError("lattice window too small: fewer than 8 sites")
    r5 = c / math.sqrt(2.0)
    offsets = np.array([[0.0, 0.0], [r5, 0.0], [-r5, 0.0],
                        [0.0, r5], [0.0, -r5]])
    flat = modes.reshape(-1, 2)
    shifted = np.tile(w, len(modes)) * np.exp(1j * (offsets @ flat.T))
    sums = trig_sum(flat, shifted, axes=(a, b))
    site_abs = np.stack(
        [np.abs(f * envelope(a + o[0], b + o[1]))[keep]
         for f, o in zip(sums, offsets)], axis=1)
    cell = np.pi * c * c

    # square function on a coarse grid: every block varies on scale R
    grid = 4.0 * R * (2.0 * (np.arange(sq_grid) + 0.5) / sq_grid - 1.0)
    sq2 = np.zeros((sq_grid, sq_grid))
    for block in modes:
        sq2 += np.abs(trig_sum(block, w, axes=(grid, grid))) ** 2
    sq = (np.sqrt(sq2) * envelope(grid, grid)).ravel()
    dA = (8.0 * R / sq_grid) ** 2

    ratios = []
    for p in p_values:
        lhs = (cell * float(np.sum((site_abs ** p).mean(axis=1)))) \
            ** (1.0 / p)
        sq_norm = float(np.sum(sq ** p) * dA) ** (1.0 / p)
        ratios.append(lhs / sq_norm)
    return ratios


# the lower-bound families and their default scales
FLS_DEFAULT_R = {
    "chirp": (256, 1024, 4096),
    "packet": (256, 1024, 4096),
    "lattice": (8 ** 6, 10 ** 6, 12 ** 6),
    "nikodym": (64, 256, 1024),
}


# Traced peak bytes of the arrays a family holds: per sample of the one
# propagated chirp slice, with its FFT bins and moduli; per cell of the
# packet's slab windows, its index, distance, sum and modulus, their grid
# order and the slab moduli (56.2 at R = 4096, 52-61 at R = 1024 to
# 65536); per nikodym sample, the sample, its modulus and its box sum; per
# (slope, tube column) of a nikodym block, its sums and one gathered window,
# held by each worker thread at once.
_CHIRP_SAMPLE_BYTES = 72
_PACKET_WINDOW_BYTES = 56
_NIKODYM_SAMPLE_BYTES = 24
_NIKODYM_BLOCK_BYTES = 16


def fls_peak_bytes(family: str, R, kappa: float = LATTICE_KAPPA) -> float:
    """Estimated peak allocation of one scale R of a lower-bound family.

    The lattice holds trig_sum's exponential tables over the site axes
    (its square-function grid is smaller); the chirp one propagated period
    and its moduli; the packet the windows of its slab rows (g0, one
    propagated row beside the slab moduli, is smaller at every R); nikodym
    the nikodym_grid samples, the tube offsets of every slope and one block
    of slopes per worker thread of nikodym_max.
    """
    if family == "lattice":
        modes, _ = _lattice_modes(float(R), kappa, LATTICE_NODES)
        axes = lattice_axis_lengths(float(R), kappa, LATTICE_C, "ball")
        return trig_sum_bytes(modes.size // 2, axes=axes, rows=5)
    if family == "chirp":
        return _CHIRP_SAMPLE_BYTES * _chirp_setup(int(R))[3]
    if family == "packet":
        _, _, length, n_x = _packet_setup(int(R))
        k = int(PACKET_C * math.sqrt(R) / (length / n_x)) + 1
        return _PACKET_WINDOW_BYTES * PACKET_ROWS * (2 * k + 1)
    if family == "nikodym":
        x, t = nikodym_grid(int(R))
        n_y = 2 * int(R)
        return _NIKODYM_SAMPLE_BYTES * len(x) * len(t) \
            + 16 * (n_y + 1) * len(t) \
            + _NIKODYM_BLOCK_BYTES * nikodym_block(n_y) * n_y \
            * nikodym_threads(n_y + 1, n_y)
    raise ValueError(f"unknown family {family!r}")


def fls_fits(family: str, p_values, R_values=None,
             alpha: float | None = None, kappa: float = LATTICE_KAPPA,
             band: float = 0.1, seed: int = 0) -> list:
    """Fit the restricted-norm growth of a built-in family against R.

    chirp    ratio ||U f||_{L^p(F)} / ||f||_p, slope 1/2 - 1/p, one-sided;
    packet   slab measure at ball parameter alpha, slope min(a, 2a-1)/(2p),
             one-sided;
    lattice  fattened-lattice norm over the square function,
             slope kappa(1/2 - 3/p);
    nikodym  maximal tube average of a seeded random g over g, at most
             logarithmic growth (slope <= 0 + band).

    One fit per p, in the order of p_values; each R is evaluated once for
    all of them, since only the final sums depend on p.  Each family reads
    only its own parameters.  Every p must be finite and >= 1.
    """
    if family not in FLS_DEFAULT_R:
        raise ValueError(f"unknown family {family!r}")
    for p in p_values:
        if not 1 <= p < math.inf:
            raise ValueError(f"finite p >= 1 required, got {p}")
    if R_values is None:
        R_values = FLS_DEFAULT_R[family]
    notes = f"eta = {ETA_NAME}"
    if family == "chirp":
        per_R = [chirp_ratio(int(R), p_values) for R in R_values]
        specs = [(f"chirp-p{p:g}", "zeta", 0.5 - 1.0 / p, "lower")
                 for p in p_values]
    elif family == "packet":
        if alpha is None:
            raise ValueError("the packet family needs a ball parameter alpha")
        per_R = [packet_ratio(int(R), p_values, alpha) for R in R_values]
        specs = [(f"packet-p{p:g}-alpha{alpha:g}", "zeta",
                  min(alpha, 2.0 * alpha - 1.0) / (2.0 * p), "lower")
                 for p in p_values]
    elif family == "lattice":
        per_R = [lattice_ratio(float(R), p_values, kappa) for R in R_values]
        specs = [(f"lattice-p{p:g}", "sigma", kappa * (0.5 - 3.0 / p), "two")
                 for p in p_values]
    else:
        per_R = [nikodym_ratio(int(R), p_values, seed) for R in R_values]
        specs = [(f"tube-maximal-q{q:g}", "gamma", 0.0, "upper")
                 for q in p_values]
        notes = ""
    return [fit_exponent(name, exponent, R_values, [r[i] for r in per_R],
                         prediction, band=band, sided=sided, notes=notes)
            for i, (name, exponent, prediction, sided) in enumerate(specs)]


def fls_experiment(family: str, p: float, **params) -> ExponentFit:
    """fls_fits for one exponent p; params go to fls_fits."""
    return fls_fits(family, (p,), **params)[0]
