"""Cap decomposition, square functions, and the envelope weight functional.

The two inequalities evaluated here share a shape: the weighted L^p mass
of a band-limited f is controlled by square-function norms times a factor
that measures how much of the weight concentrates on single dual tubes
relative to their envelopes,

    kappa_p(U) = max_{T in U} (H(T)/|T|)^(1/4) * (H(U)/|U|)^(1/p - 1/4).

Everything feeding kappa is exact: H(T) and H(U) are finite sums of atom
masses, |T| = s^-3 and |U| = R^2 s are dyadic, and the tube/envelope keys
come from the integer location path, which locates a weight's atoms once
per scale (envelope_stats).  The envelope integrals of the
square functions are exact too: |f_theta|^2 has its Fourier support in
theta - theta, so S_tau^2 = sum_{theta in tau} |f_theta|^2 is a small
trigonometric polynomial, and its integral over an envelope has a closed
form (envelope_cell_integrals).  ||S||_p is exact at p in {2, 4}, an
identity in the coefficients of S^2 (torus.power_integral); other p take
the one quadrature left, on an m x m grid built from one FFT of those
coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .torus import (TWO_PI, TorusField, lp_norm, power_integral, square_sum,
                    synthesize)
# locate_grid_tubes is not called here; the benchmark's self-test
# (perfbench/test_harness.py) reads it as envelope.locate_grid_tubes
from .geometry import (
    Cap, cap_index_for_abscissa, caps_at_scale, dyadic_scales,
    envelope_factor, envelope_index_of_tube, envelope_lattice_dims,
    locate_grid_tubes, locate_scale_tubes, theta_scale, wrap_envelope_index,
)
from .measures import GRID_FLOOR_EXP, GridMeasure

# window transition half-width, in units of the cap width
WINDOW_DELTA = 0.0625

# envelope weight w_U: (1 + |d|_inf)^-10 over the 5x5 neighbor block,
# far cells folded into a uniform tail correction
W_EXPONENT = 10
W_BLOCK = 2


def _w_tail(exponent: int = W_EXPONENT, block: int = W_BLOCK) -> float:
    total, r = 0.0, block + 1
    while True:
        term = 8.0 * r * (1.0 + r) ** -exponent
        total += term
        if term < 1e-25:
            return total
        r += 1


W_TAIL = _w_tail()


# ---------------------------------------------------------------------------
# windows

def smooth_step(u):
    """C^infinity monotone 0 -> 1 on [0, 1]; exactly 1/2 at the midpoint."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.where(u > 0, u, 1.0)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.where(u < 1, 1.0 - u, 1.0)), 0.0)
    return a / (a + b)


def step_profile(t, half_width: float = WINDOW_DELTA):
    """Smooth step: 0 for t <= -hw, 1 for t >= hw."""
    return smooth_step(0.5 * (np.asarray(t, dtype=float) / half_width + 1.0))


def window_profile(t):
    """The cap window in unit coordinates: even, supported in
    [-1/2 - hw, 1/2 + hw], and sum_k psi(t - k) = 1 identically."""
    t = np.asarray(t, dtype=float)
    return step_profile(t + 0.5) - step_profile(t - 0.5)


def _window_weights(xi1: np.ndarray, s: float):
    """Split weights of modes across caps at scale s.

    Returns (k_mid, w_left, w_mid, w_right): the mode's own cap and the
    mass handed to caps k_mid -+ 1.  Weights sum to 1 exactly by
    construction (w_mid = 1 - w_left - w_right); boundary mass pointing
    past the edge caps is folded back so edge caps saturate.
    """
    k_max = int(round(1.0 / s))
    k_mid = cap_index_for_abscissa(xi1, s)
    u = xi1 / s - k_mid
    w_right = step_profile(u - 0.5)
    w_left = 1.0 - step_profile(u + 0.5)
    fold_r = k_mid + 1 > k_max
    fold_l = k_mid - 1 < -k_max
    w_mid = 1.0 - np.where(fold_r, 0.0, w_right) - np.where(fold_l, 0.0, w_left)
    w_right = np.where(fold_r, 0.0, w_right)
    w_left = np.where(fold_l, 0.0, w_left)
    return k_mid, w_left, w_mid, w_right


@dataclass(frozen=True)
class CapDecomposition:
    """f = sum over caps of f_tau at one scale; pieces keyed by cap index."""

    scale: float
    pieces: dict
    window: str = f"step(delta={WINDOW_DELTA})"

    def caps(self):
        return sorted(self.pieces)


def cap_decompose(field: TorusField, scale: float) -> CapDecomposition:
    """Split a parabola-band field into cap pieces at a dyadic scale.

    Multiplication by the chi windows in coefficient space; a mode within
    the transition zone of a cap boundary is shared between the two
    adjacent caps with weights summing to 1 exactly.
    """
    spec = field.spec
    if scale not in dyadic_scales(spec.R):
        raise ValueError(f"scale {scale} not dyadic in [R^-1/2, 1]")
    xi1 = spec.freq_step * field.freqs[:, 0].astype(float)
    k_mid, w_left, w_mid, w_right = _window_weights(xi1, scale)
    pieces = {}
    for k_arr, w in ((k_mid - 1, w_left), (k_mid, w_mid), (k_mid + 1, w_right)):
        live = w > 0.0
        for k in np.unique(k_arr[live]):
            sel = live & (k_arr == k)
            fld = synthesize(field.freqs[sel], field.amps[sel] * w[sel], spec)
            if int(k) in pieces:
                prev = pieces[int(k)]
                merged_freqs = np.concatenate([prev.freqs, fld.freqs])
                merged_amps = np.concatenate([prev.amps, fld.amps])
                # a mode can reach the same cap only once per branch, so
                # concatenation never duplicates
                fld = synthesize(merged_freqs, merged_amps, spec)
            pieces[int(k)] = fld
    return CapDecomposition(scale, dict(sorted(pieces.items())))


# ---------------------------------------------------------------------------
# kappa

def tube_area(s: float) -> float:
    return s ** -3


def envelope_area(R: int, s: float) -> float:
    return float(R) * R * s


# A wrapped key space at most this many times the key count is aggregated
# with a dense bincount; a sparser one is sorted with np.unique.  Timed on
# every aggregation of the benchmark's kappa-scan weights (2-vCPU VM), the
# bincount is faster up to a ratio of 8 and slower from 8 to 32.
DENSE_KEYS_PER_ATOM = 8


def _group_sums(keys: np.ndarray, weights: np.ndarray, size: int):
    """(distinct keys ascending, per-key weight sums) for keys in [0, size).

    Both branches add the weights of one key in input order, so their sums
    agree bit for bit.
    """
    if size <= DENSE_KEYS_PER_ATOM * len(keys):
        uniq = np.flatnonzero(np.bincount(keys, minlength=size))
        return uniq, np.bincount(keys, weights=weights, minlength=size)[uniq]
    uniq, inv = np.unique(keys, return_inverse=True)
    return uniq, np.bincount(inv, weights=weights)


@dataclass(frozen=True, eq=False)
class ScaleStats:
    """The p-independent envelope statistics of one weight at one scale.

    ekeys, HU and maxT hold, for every cap k = -1/s .. 1/s in turn, the
    flat keys of the envelopes the weight charges (ascending), their H(U)
    and their max_T H(T).  Cap k owns the entries offsets[i]:offsets[i+1],
    i = k + 1/s.  dims is (N1U, N2U), the same for every cap of the scale.
    """

    ekeys: np.ndarray
    HU: np.ndarray
    maxT: np.ndarray
    offsets: np.ndarray
    dims: tuple

    def cap_slice(self, k: int) -> slice:
        i = k + (len(self.offsets) - 2) // 2
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def cap_of(self, i: int) -> int:
        """k of the cap that owns entry i."""
        c = int(np.searchsorted(self.offsets, i, side="right")) - 1
        return c - (len(self.offsets) - 2) // 2


def envelope_stats(H: GridMeasure, s: float) -> ScaleStats:
    """Envelope keys, H(U) and max_T H(T) of every cap at scale s.

    The atoms are located once for the scale (geometry.locate_scale_tubes);
    each cap then makes its wrapped tube keys with a multiply-add and a
    shift, sums tube masses on them, and gets envelope masses and
    per-envelope tube maxima via the exact nesting (an envelope is a union
    of whole tubes).  None of it depends on p or on the cap's level, so
    the result is kept, read-only, on H, one entry per scale.
    """
    if H.is_full_constant:
        raise ValueError("constant weights take the closed-form path")
    hit = H._envelope_stats.get(s)
    if hit is not None:
        return hit
    spec = H.spec
    caps = caps_at_scale(s)
    dims = envelope_lattice_dims(caps[0], spec)[:2]
    E = envelope_factor(caps[0], spec)
    parts = [(np.empty(0, np.int64), np.empty(0), np.empty(0))] * len(caps)
    if H.n_atoms:
        tubes = locate_scale_tubes(H.ij[:, 0], H.ij[:, 1], s, spec)
        N2, n_tubes = tubes.N2, tubes.N1 * tubes.N2
        mass = np.asarray(H.mass)
        keys = np.empty(H.n_atoms, dtype=np.int64)
        for i, cap in enumerate(caps):
            tkeys, HT = _group_sums(tubes.keys(cap.k, out=keys), mass,
                                    n_tubes)
            e1, e2 = envelope_index_of_tube(tkeys // N2, tkeys % N2, E)
            e1, e2 = wrap_envelope_index(e1, e2, cap, spec)
            eflat = e1 * dims[1] + e2
            ekeys, HU = _group_sums(eflat, HT, dims[0] * dims[1])
            maxT = np.zeros(len(ekeys))
            np.maximum.at(maxT, np.searchsorted(ekeys, eflat), HT)
            parts[i] = (ekeys, HU, maxT)
    ekeys, HU, maxT = (np.concatenate(col) for col in zip(*parts))
    offsets = np.cumsum([0] + [len(part[0]) for part in parts])
    for arr in (ekeys, HU, maxT, offsets):
        arr.setflags(write=False)
    stats = ScaleStats(ekeys, HU, maxT, offsets, dims)
    H._envelope_stats[s] = stats
    return stats


def _kappa_values(maxT: np.ndarray, HU: np.ndarray, s: float, R: int,
                  p: float) -> np.ndarray:
    return (maxT / tube_area(s)) ** 0.25 * \
        (HU / envelope_area(R, s)) ** (1.0 / p - 0.25)


def kappa_table(H: GridMeasure, p: float, cap: Cap):
    """kappa for every envelope of cap that H charges.

    Returns (flat envelope keys, kappa values, (N1U, N2U)).  Envelopes
    with H(U) = 0 are absent (kappa = 0 by convention: H(T) = 0 for all
    their tubes kills the product).  The keys are a read-only view into
    the scale's cached statistics.
    """
    st = envelope_stats(H, cap.s)
    sl = st.cap_slice(cap.k)
    return (st.ekeys[sl],
            _kappa_values(st.maxT[sl], st.HU[sl], cap.s, H.spec.R, p),
            st.dims)


def kappa_max(H: GridMeasure, p: float):
    """(max kappa over all scales, caps, envelopes; witness dict).

    Scan order is coarse to fine, cap index ascending, envelope key
    ascending (the order of each scale's statistics); ties keep the first
    witness, so the result is deterministic.
    """
    if not 2.0 <= p <= 4.0:
        raise ValueError("p in [2, 4]")
    R = H.spec.R
    if H.is_full_constant:
        lam = float(H.mass) / H.spec.delta ** 2
        return lam ** (1.0 / p), {"s": 1.0, "k": 0, "z1": 0, "z2": 0}
    best, witness = 0.0, {"s": 1.0, "k": 0, "z1": 0, "z2": 0}
    for s in dyadic_scales(R):
        st = envelope_stats(H, s)
        if len(st.ekeys) == 0:
            continue
        vals = _kappa_values(st.maxT, st.HU, s, R, p)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            N2U = st.dims[1]
            witness = {"s": s, "k": st.cap_of(i),
                       "z1": int(st.ekeys[i] // N2U),
                       "z2": int(st.ekeys[i] % N2U)}
    return best, witness


# ---------------------------------------------------------------------------
# the envelope weight w_U and the theorem evaluation

def envelope_cell_integrals(pieces, cap: Cap, spec) -> np.ndarray:
    """integral of P = sum over pieces of |f_piece|^2 over every envelope
    of cap, exactly, as an (N1U, N2U) array.

    P = sum_D c_D e^{i xi_D . x} with xi_D = (2pi/L) D (square_sum).  In
    tube coordinates y = L_tau^{-1} x the envelope with index z is the
    box of side E = R s^2 centred at E z + o, o = -1/2 for even E and 0
    for E = 1 (the shifted rounding of envelope_index_of_tube), so

        int_U e^{i xi.x} dx = |U| prod_j e^{i eta_j (E z_j + o)}
                              sinc(eta_j E / 2),   eta = L_tau^T xi,

    i.e. eta_1 = xi_1 / s and eta_2 = (xi_2 - 2 c xi_1) / s^2.  A wrapped
    envelope is the image of one plane envelope, so its torus integral is
    this plane integral.  Every cell is one contraction of the two
    per-axis factors against the coefficients.
    """
    P = square_sum(pieces, spec)
    N1U, N2U, _ = envelope_lattice_dims(cap, spec)
    E = envelope_factor(cap, spec)
    o = 0.0 if E == 1 else -0.5
    xi = spec.freq_step * P.freqs
    eta1 = xi[:, 0] / cap.s
    eta2 = (xi[:, 1] - 2.0 * cap.c * xi[:, 0]) / (cap.s * cap.s)

    def axis(eta, n):
        y = E * np.arange(n, dtype=float) + o
        return np.exp(1j * np.outer(y, eta)) * np.sinc(eta * (E / TWO_PI))

    C = np.einsum("ad,bd->ab", axis(eta1, N1U) * P.amps, axis(eta2, N2U))
    # P >= 0, so its integrals are; clip the roundoff below zero
    return envelope_area(spec.R, cap.s) * np.maximum(C.real, 0.0)


def weighted_cell_integrals(C: np.ndarray, shear: int) -> np.ndarray:
    """integral of S^2 w_U for every envelope U, from per-cell integrals C.

    w_U is cell-constant: (1 + |d|_inf)^-10 on the 5x5 block of envelope
    neighbors (periodized by the wrap), plus the exact lattice tail mass
    spread uniformly (far cells at their average).

    The z2 axis wraps with a shear in z1 (the lattice is a sheared torus),
    so a straight np.roll is wrong across the z2 seam.  One padded copy
    holds C[z + d] for every z and |d|_inf <= W_BLOCK, wrapped that way,
    and each neighbor d is a view into it.
    """
    N1U, N2U = C.shape
    b = W_BLOCK
    t1 = np.arange(-b, N1U + b)[:, None]
    t2 = np.arange(-b, N2U + b)[None, :]
    m = t2 // N2U
    padded = C[(t1 + m * shear) % N1U, t2 - m * N2U]
    out = np.zeros_like(C)
    for d1 in range(-b, b + 1):
        for d2 in range(-b, b + 1):
            w = (1.0 + max(abs(d1), abs(d2))) ** -W_EXPONENT
            out += w * padded[b + d1:b + d1 + N1U, b + d2:b + d2 + N2U]
    return out + W_TAIL * C.mean()


@dataclass
class RatioReport:
    """Both theorem sides for one (field, weight, p), with the breakdown.

    ratio_sq compares first powers (lhs vs the square-function side);
    ratio_env compares p-th powers (lhs^p vs the envelope sum).  terms
    rows are (s, cap_id, z1, z2, kappa, term).  m_grid is the grid of
    the sq_norm quadrature, used only for p not in {2, 4}.
    """

    p: float
    weight: str
    R: int
    m_grid: int
    floor: float
    lhs: float
    sq_norm: float
    kappa_max: float
    kappa_witness: dict
    sq_rhs: float
    env_rhs: float
    ratio_sq: float
    ratio_env: float
    env_by_scale: dict
    zero_field: bool = False
    terms: list = dataclass_field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "p": self.p, "weight": self.weight, "R": self.R,
            "m_grid": self.m_grid, "floor": self.floor,
            "lhs": self.lhs, "sq_norm": self.sq_norm,
            "kappa_max": self.kappa_max, "kappa_witness": self.kappa_witness,
            "sq_rhs": self.sq_rhs, "env_rhs": self.env_rhs,
            "ratio_sq": self.ratio_sq, "ratio_env": self.ratio_env,
            "env_by_scale": {str(k): v for k, v in self.env_by_scale.items()},
            "zero_field": self.zero_field,
            "n_terms": len(self.terms),
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    def write_terms_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("s,cap_id,z1,z2,kappa,term\n")
            for s, cap_id, z1, z2, kap, term in self.terms:
                fh.write(f"{s:.17g},{cap_id},{z1},{z2},{kap:.17g},{term:.17g}\n")


def verify_weighted_sq(field: TorusField, H: GridMeasure,
                       p: float) -> RatioReport:
    """Evaluate both weighted square-function inequalities.

    lhs     = ||f||_{L^p(H)}    (exact atomic sum; a coefficient
              identity for the constant weight at p in {2, 4}, lp_norm)
    sq_rhs  = (kappa_max + R^-40) ||S_theta||_p    (first-power side)
    env_rhs = sum over (s, tau, U) of
              kappa(U)^p |U|^(1-p/2) (int S_tau^2 w_U)^(p/2)

    The envelope integrals int_U S_tau^2 are exact: S_tau^2 is a trig
    polynomial whose coefficients come from the theta pieces, and each
    cell integral has a closed form (envelope_cell_integrals).
    ||S_theta||_p is exact at p in {2, 4} (power_integral); other p take
    the grid m = 2R, which clears twice the offsets of every |f_theta|^2
    (O(R^1/2)).
    """
    spec = field.spec
    R = spec.R
    m = 2 * R
    floor = float(R) ** -GRID_FLOOR_EXP
    scales = dyadic_scales(R)
    s_theta = theta_scale(R)

    lhs = lp_norm(field, p, measure=H)
    zero_field = not np.any(np.abs(field.amps) > 0)

    constant = H.is_full_constant

    dec = cap_decompose(field, s_theta)
    cell = {}
    for s in scales:
        by_tau = {}
        for k_theta, piece in dec.pieces.items():
            k_tau = int(cap_index_for_abscissa(k_theta * s_theta, s))
            by_tau.setdefault(k_tau, []).append(piece)
        for k_tau, pieces in by_tau.items():
            cell[(s, k_tau)] = envelope_cell_integrals(pieces, Cap(s, k_tau),
                                                       spec)

    sq_norm = power_integral(dec.pieces.values(), spec, p, m) ** (1.0 / p)
    kmax, kwitness = kappa_max(H, p)
    sq_rhs = (kmax + floor) * sq_norm

    env_rhs = 0.0
    env_by_scale = {s: 0.0 for s in scales}
    terms = []
    for s in scales:
        U_area = envelope_area(R, s)
        geom = U_area ** (1.0 - 0.5 * p)
        for cap in caps_at_scale(s):
            key = (s, cap.k)
            if key not in cell:
                continue
            N1U, N2U, shearU = envelope_lattice_dims(cap, spec)
            wint = weighted_cell_integrals(cell[key], shearU).ravel()
            if constant:
                if kmax == 0.0:
                    continue
                contrib = kmax ** p * geom * np.sum(wint ** (0.5 * p))
                env_rhs += contrib
                env_by_scale[s] += contrib
                top = int(np.argmax(wint))
                terms.append((s, cap.cap_id, top // N2U, top % N2U, kmax,
                              kmax ** p * geom * wint[top] ** (0.5 * p)))
                continue
            ekeys, kvals, _ = kappa_table(H, p, cap)
            if len(ekeys) == 0:
                continue
            tvals = kvals ** p * geom * wint[ekeys] ** (0.5 * p)
            env_rhs += float(tvals.sum())
            env_by_scale[s] += float(tvals.sum())
            for i in range(len(ekeys)):
                terms.append((s, cap.cap_id, int(ekeys[i] // N2U),
                              int(ekeys[i] % N2U), float(kvals[i]),
                              float(tvals[i])))

    ratio_sq = lhs / sq_rhs if sq_rhs > 0 else 0.0
    ratio_env = lhs ** p / env_rhs if env_rhs > 0 else 0.0
    return RatioReport(
        p=p, weight=H.label, R=R, m_grid=m, floor=floor, lhs=lhs,
        sq_norm=sq_norm, kappa_max=kmax, kappa_witness=kwitness,
        sq_rhs=sq_rhs, env_rhs=env_rhs, ratio_sq=ratio_sq,
        ratio_env=ratio_env, env_by_scale=env_by_scale,
        zero_field=zero_field, terms=terms)
