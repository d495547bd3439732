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
trigonometric polynomial, and its integrals over the envelopes of all
caps of a scale have one closed form (scale_cell_integrals).  ||S||_p is
exact at p in {2, 4}, an identity in the coefficients of S^2; other p
take the one quadrature left, on the m = 2R grid, whose inverse FFT of
those coefficients runs one axis at a time and never holds the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .torus import (CELL_BUDGET, SQUARE_PAIR_BYTES, TWO_PI, GridSpec,
                    TorusField, coef_power_integral, count_sums, group_sums,
                    key_sums, lattice_sums_bytes, lp_norm, pair_products,
                    power_integral, power_integral_bytes)
# locate_grid_tubes is not called here; the benchmark's self-test
# (perfbench/test_harness.py) reads it as envelope.locate_grid_tubes
from .geometry import (
    Cap, cap_index_for_abscissa, caps_at_scale, dyadic_scales,
    envelope_factor, envelope_lattice_dims, locate_grid_tubes,
    locate_scale_tubes, max_run_pieces, theta_scale)
from .measures import (GRID_FLOOR_EXP, GridMeasure, candidate_atoms,
                       support_box)

# window transition half-width, in units of the cap width
WINDOW_DELTA = 0.0625

# envelope weight w_U: (1 + |d|_inf)^-10 over the 5x5 neighbor block,
# far cells folded into a uniform tail correction
W_EXPONENT = 10
W_BLOCK = 2


def _w_tail() -> float:
    total, r = 0.0, W_BLOCK + 1
    while True:
        term = 8.0 * r * (1.0 + r) ** -W_EXPONENT
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


def step_profile(t):
    """Smooth step: 0 for t <= -hw, 1 for t >= hw, hw = WINDOW_DELTA."""
    return smooth_step(0.5 * (np.asarray(t, dtype=float) / WINDOW_DELTA + 1.0))


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


def cap_decompose(field: TorusField, scale: float) -> dict:
    """Split a parabola-band field into cap pieces at a dyadic scale.

    Returns {k: f_k}, cap index ascending.  Multiplication by the chi
    windows in coefficient space; a mode within the transition zone of a
    cap boundary is shared between the two adjacent caps with weights
    summing to 1 exactly.  A piece is a selection of the field's already
    validated modes, built directly.  Piece k lists its modes branch by
    branch (those cap k + 1 hands on, its own, those cap k - 1 hands on),
    each branch in field order: the order pair_products and trig_sum add
    them in.
    """
    spec = field.spec
    if scale not in dyadic_scales(spec.R):
        raise ValueError(f"scale {scale} not dyadic in [R^-1/2, 1]")
    xi1 = spec.freq_step * field.freqs[:, 0].astype(float)
    k_mid, w_left, w_mid, w_right = _window_weights(xi1, scale)
    k = np.concatenate([k_mid - 1, k_mid, k_mid + 1])
    w = np.concatenate([w_left, w_mid, w_right])
    live = np.flatnonzero(w > 0.0)
    order = live[np.argsort(k[live], kind="stable")]
    caps, starts = np.unique(k[order], return_index=True)
    pieces = {}
    for cap_k, sel in zip(caps, np.split(order, starts[1:])):
        i = sel % field.n_modes
        pieces[int(cap_k)] = TorusField(spec, field.freqs[i],
                                        field.amps[i] * w[sel])
    return pieces


# ---------------------------------------------------------------------------
# kappa

def tube_area(s: float) -> float:
    return s ** -3


def envelope_area(R: int, s: float) -> float:
    return float(R) * R * s


@dataclass(frozen=True, eq=False)
class ScaleStats:
    """The p-independent envelope statistics of one weight at one scale.

    ekeys, HU and tubeT hold, for every cap k = -1/s .. 1/s in turn, the
    flat keys of the envelopes the weight charges (ascending), their H(U)
    and kappa's p-free factor (max_T H(T)/|T|)^(1/4).  Cap k owns the entries
    offsets[i]:offsets[i+1], i = k + 1/s.  dims is (N1U, N2U), the same
    for every cap of the scale.
    """

    ekeys: np.ndarray
    HU: np.ndarray
    tubeT: np.ndarray
    offsets: np.ndarray
    dims: tuple

    def cap_slice(self, k: int) -> slice:
        i = k + (len(self.offsets) - 2) // 2
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def cap_of(self, i: int) -> int:
        """k of the cap that owns entry i."""
        c = int(np.searchsorted(self.offsets, i, side="right")) - 1
        return c - (len(self.offsets) - 2) // 2


# tube keys, and tube maxima, per block of caps of envelope_stats: 2^14,
# whose int64 columns of 128 KiB were faster on a 2-vCPU VM than blocks of
# 2^13 or 2^15 keys (ROADMAP's measured dead ends)
BLOCK_KEYS = CELL_BUDGET // 16


def caps_per_block(keys_per_cap: int, envelopes_per_cap: int) -> int:
    """Caps in one block of envelope_stats: at most BLOCK_KEYS tube keys
    and BLOCK_KEYS tube maxima (one per envelope of each cap, none where
    the envelopes are the tubes), and at least one cap."""
    return max(1, BLOCK_KEYS // max(keys_per_cap, envelopes_per_cap, 1))


def scan_plan(n_atoms, n_runs, s: float, spec: GridSpec) -> tuple:
    """(pieces per cap, tube maxima per cap, caps per block) of
    envelope_stats at scale s, for a weight of n_atoms atoms in n_runs row
    runs (n_runs = n_atoms for a weight without row runs).  A cap cuts the
    runs into (run, tube) pieces where that gives fewer pieces than atoms
    (geometry.max_run_pieces), else it takes the atoms; it holds one tube
    maximum per envelope where the envelopes hold several tubes, else none.
    The counts may be estimates: a block is sized on whole pieces."""
    caps = caps_at_scale(s)
    per_cap = min(n_atoms, max_run_pieces(n_atoms, n_runs, s, spec))
    N1U, N2U, _ = envelope_lattice_dims(caps[0], spec)
    maxima = N1U * N2U if envelope_factor(caps[0], spec) > 1 else 0
    return per_cap, maxima, min(len(caps),
                                caps_per_block(int(per_cap), maxima))


def envelope_stats(H: GridMeasure, s: float) -> ScaleStats:
    """Envelope keys, H(U) and (max_T H(T)/|T|)^(1/4) of every cap at
    scale s.

    Tube masses come from one of two cuts of the weight, located once for
    the scale (geometry.locate_scale_tubes).  A one-mass weight whose row
    runs (GridMeasure._row_runs) each cap cuts into fewer (run, tube)
    pieces than it has atoms (geometry.max_run_pieces) locates the runs'
    first cells, and its caps cut them into pieces with exact integer atom
    counts (ScaleTubes.block_pieces); a tube's mass is the running sum of
    the atom mass at its count (torus.count_sums), the bits the atoms
    give.  Any other weight, and any scale where the runs would not cut
    fewer pieces, locates the atoms, and its caps sum tube masses on their
    keys (ScaleTubes.block_keys, whose buffer group_sums may sort in
    place: the next block rewrites it).

    Consecutive caps go in blocks of at most BLOCK_KEYS keys (one cap if
    it holds more), each cap's place i in its block packed above its flat
    keys: i N1 N2 + key.  N1 N2 and the envelope lattice are powers of
    two, so packing and unpacking are shifts and masks, and one group_sums
    call sums a whole block's tubes, on int32 copies of the keys wherever
    they fit in 31 bits.  Within a cap the keys keep atom order, and every
    group_sums branch adds in input order, so each sum has the bits the
    cap alone gives.  Envelope masses and tube maxima (in a row of all
    16/s envelopes of each cap of the block) follow by the exact nesting
    (an envelope is a union of whole tubes) on envelope keys that keep the
    places, and the places of the distinct envelope keys count each cap's
    entries.  None of it depends on p, so it is kept, read-only, on H.
    """
    if H.is_full_constant:
        raise ValueError("constant weights take the closed-form path")
    hit = H._envelope_stats.get(s)
    if hit is not None:
        return hit
    spec = H.spec
    inv = int(round(1.0 / s))
    first, n_caps = Cap(s, -inv), 2 * inv + 1
    dims = envelope_lattice_dims(first, spec)[:2]
    E = envelope_factor(first, spec)
    n_env = dims[0] * dims[1]
    env_bits = n_env.bit_length() - 1
    parts = [(np.empty(0, np.int64), np.empty(0), np.empty(0),
              np.zeros(n_caps, np.int64))]
    if H.n_atoms:
        parts = []
        runs = H._row_runs
        per_cap, _, per_block = scan_plan(
            H.n_atoms, H.n_atoms if runs is None else len(runs[2]), s, spec)
        by_runs = per_cap < H.n_atoms
        if by_runs:
            tubes = locate_scale_tubes(runs[0], runs[1], s, spec)
            blocks = tubes.block_pieces(first.k, n_caps, per_block, runs[2])
        else:
            tubes = locate_scale_tubes(H.ij[:, 0], H.ij[:, 1], s, spec)
            w = H.atom_mass
            if np.ndim(w):
                w = np.tile(w, per_block)
            blocks = ((k, c, keys, w if np.ndim(w) == 0 else w[:len(keys)])
                      for k, c, keys in tubes.block_keys(first.k, n_caps,
                                                         per_block))
        for k, c, keys, w in blocks:
            ekeys, HT = group_sums(keys, w, c << tubes.key_bits)
            if by_runs:
                HT = count_sums(H.atom_mass, HT)
            # at E == 1 the envelopes are the tubes: HU = max_T H(T) = H(T)
            HU = maxT = HT
            if E > 1:
                eflat = tubes.envelope_keys(ekeys, k, c, E)
                ekeys, HU = group_sums(eflat, HT, c << env_bits)
                maxT = np.zeros(c << env_bits)
                np.maximum.at(maxT, eflat, HT)
                maxT = maxT[ekeys]
            counts = (len(ekeys),)
            if c > 1:
                counts = np.bincount(ekeys >> env_bits, minlength=c)
                ekeys &= n_env - 1
            parts.append((ekeys, HU, maxT, counts))
    # join the columns and free the per-block pieces before forming tubeT;
    # at E == 1 maxT is HU, so its column is not joined
    ekeys, HU, maxT, counts = zip(*parts)
    del parts
    offsets = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    ekeys, HU = np.concatenate(ekeys), np.concatenate(HU)
    maxT = HU if E == 1 else np.concatenate(maxT)
    tubeT = maxT / tube_area(s)
    tubeT **= 0.25
    for arr in (ekeys, HU, tubeT, offsets):
        arr.setflags(write=False)
    stats = ScaleStats(ekeys, HU, tubeT, offsets, dims)
    H._envelope_stats[s] = stats
    return stats


def _kappa_values(tubeT: np.ndarray, HU: np.ndarray, s: float, R: int,
                  p: float) -> np.ndarray:
    return tubeT * (HU / envelope_area(R, s)) ** (1.0 / p - 0.25)


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
            _kappa_values(st.tubeT[sl], st.HU[sl], cap.s, H.spec.R, p),
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
        vals = _kappa_values(st.tubeT, st.HU, s, R, p)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            N2U = st.dims[1]
            witness = {"s": s, "k": st.cap_of(i),
                       "z1": int(st.ekeys[i] // N2U),
                       "z2": int(st.ekeys[i] % N2U)}
    return best, witness


# kappa scan memory: traced allocation peaks of a scan one cap at a time ran
# 47-101 bytes per candidate atom of the weight, plus the envelope tables
# cached on the weight: about 300 bytes per cap (335-280 for a ball of 13
# atoms at R = 1024 to 16384) and 24 bytes (key, H(U) and tube factor) per
# envelope of a cap that holds atoms; a scale's per-block tables and their
# concatenation are briefly alive together.  A weight counted by atoms
# (101 for the truncated lattice at R = 4096) holds per scale a, b, z2 and
# the running sum v of the tube keys across the caps, and one key buffer;
# one counted by row runs (58-62 for the dual tube at R = 64 to 4096, 47
# for a ball of radius 20 at R = 256) peaks near its build.  A block of caps
# (envelope_stats) holds its running sums, keys, group_sums's sort and
# gather copies and the envelope keys' temporaries, and 8 bytes per tube
# maximum at scales whose envelopes hold several tubes: traced per scale,
# a block rose 55 (lattice at R = 1024) to 75 (truncated lattice at
# R = 4096) bytes per key above the tables before it, taken as 48 since
# the per-atom and per-cap terms charge the rest.
_SCAN_ATOM_BYTES = 72
_SCAN_CAP_BYTES = 300
_SCAN_BLOCK_KEY_BYTES = 48


def kappa_scan_peak_bytes(family: str, spec: GridSpec, **params) -> float:
    """Peak bytes of kappa_max on make_weight(family, spec, **params),
    without building the weight: its atoms and cap tables, and the most
    the scan holds at once.  The scales run coarse to fine, each keeping
    its envelope tables, so a scale's largest block (scan_plan) lives
    beside the tables of the coarser scales, and the last scale's beside
    all of them (at most about 3R envelopes, as the slab-shaped supports,
    the widest-spread of the scanned families, hold: 2.8-4.0 R at R = 64
    to 4096).

    Per cap (s, k) the tables hold at most its atoms and the envelopes its
    support's box b1 x b2 meets: they lie in rows R high, each row's
    envelopes R s wide along x1 + 2c x2, c = k s, so the box meets
    b2/R + 1 rows and in each (b1 + 2|c| min(b2, R))/(R s) + 1 envelopes,
    on average over where it falls.  A one-mass weight cut into runs along
    the rows of its support box has b2/Delta + 1 rows, at most one run per
    atom."""
    atoms = candidate_atoms(family, spec, **params)
    if not atoms:
        return 0.0
    b1, b2 = support_box(family, spec, **params)
    R, runs = spec.R, min(atoms, b2 / spec.delta + 1)
    caps, envelopes, blocks = 0, [0.0], []
    for s in dyadic_scales(R):
        c = s * np.abs(np.arange(-round(1 / s), round(1 / s) + 1))
        met = (b2 / R + 1) * ((b1 + 2 * c * min(b2, R)) / (R * s) + 1)
        envelopes.append(float(np.minimum(met, atoms).sum()))
        per_cap, maxima, per_block = scan_plan(atoms, runs, s, spec)
        blocks.append(per_block * (_SCAN_BLOCK_KEY_BYTES * per_cap
                                   + 8 * maxima))
        caps += len(c)
    kept = np.minimum(np.cumsum(envelopes), 3 * R)
    live = max(24 * n + b for n, b in zip(kept, [*blocks, 0.0]))
    return _SCAN_ATOM_BYTES * atoms + _SCAN_CAP_BYTES * caps + live


# ---------------------------------------------------------------------------
# the envelope weight w_U and the theorem evaluation

def theta_pairs(thetas: dict):
    """The thetas' pair_products joined into one table, held for a verify
    call: (keys, products, pairs per (block, theta), pairs per row D1)."""
    rows, blocks = pair_products(thetas.values())
    key, c, counts = zip(*blocks)
    return np.concatenate(key), np.concatenate(c), np.stack(counts), rows


def square_grid(R: int) -> int:
    """m = 2R, the grid of ||S||_p at p outside {2, 4}: it clears twice
    the offsets of every |f_theta|^2 (O(R^1/2))."""
    return 2 * R


def square_norm(thetas: dict, pairs, spec, p: float) -> float:
    """||S||_p, S^2 = sum_theta |f_theta|^2: Parseval on the pieces at
    p = 2, else coef_power_integral of S^2's coefficients, the thetas'
    theta_pairs grouped whole, on the square_grid."""
    m = square_grid(spec.R)
    key, c, _, rows = pairs
    P = (power_integral(thetas.values(), spec, p, m) if p == 2.0 else
         coef_power_integral([key_sums(key, c)], rows, spec.L, p, m))
    return P ** (1.0 / p)


def scale_cell_integrals(thetas: dict, pairs, s: float, spec):
    """integral of S_tau^2 over every envelope of every cap tau at scale s
    that holds theta pieces, exactly: (cap indices k, (caps, N1U, N2U)).

    pairs, the thetas' theta_pairs, are grouped by (tau, D): an offset's
    pairs share a block, where tau's thetas are consecutive, so each c_D
    adds its products theta ascending.
    S_tau^2 = sum_D c_D e^{i xi_D . x}, xi_D = (2pi/L) D, and in tube
    coordinates y = L_tau^{-1} x envelope z is the box of side E = R s^2
    centred at E z + o, o = -1/2 for even E and 0 for E = 1, so

        int_U e^{i xi.x} dx = |U| prod_j e^{i eta_j (E z_j + o)}
                              sinc(eta_j E / 2),   eta = L_tau^T xi,

    eta_1 = xi_1 / s, eta_2 = (xi_2 - 2 c xi_1) / s^2 (a wrapped envelope
    is the image of one plane envelope).  The z_1 factors depend on D1
    alone, one table for the scale; the z_2 factors are N2U = 4 rows over
    the scale's offsets.  Each cap's cells contract its own columns of
    both, summed over D as for the cap alone.
    """
    key, c, counts, rows = pairs
    W = len(rows)
    inv = round(1.0 / s)
    tau = cap_index_for_abscissa(
        np.array(list(thetas), dtype=np.int64) * theta_scale(spec.R), s)
    keys, coef = key_sums(
        np.repeat(np.tile((tau + inv) * W * W, len(counts)), counts.ravel())
        + key, c)
    g, d = np.divmod(keys, W * W)
    delta = np.stack(np.divmod(d, W), axis=1) - W // 2
    N1U, N2U, _ = envelope_lattice_dims(Cap(s, 0), spec)
    E = envelope_factor(Cap(s, 0), spec)
    o = 0.0 if E == 1 else -0.5
    xi = spec.freq_step * delta
    eta2 = (xi[:, 1] - 2.0 * ((g - inv) * s) * xi[:, 0]) / (s * s)

    def axis(eta, n):
        y = E * np.arange(n, dtype=float) + o
        return np.exp(1j * np.outer(y, eta)) * np.sinc(eta * (E / TWO_PI))

    B = int(np.abs(delta[:, 0]).max(initial=0))
    axis1 = axis(spec.freq_step * np.arange(-B, B + 1) / s, N1U)
    caps, starts = np.unique(g, return_index=True)
    bounds = [*starts.tolist(), len(g)]
    A2 = axis(eta2, N2U)
    C = np.empty((len(caps), N1U, N2U), dtype=np.complex128)
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        A1 = axis1[:, delta[lo:hi, 0] + B]
        A1 *= coef[lo:hi]
        C[i] = np.einsum("ad,bd->ab", A1, A2[:, lo:hi])
    # P >= 0, so its integrals are; clip the roundoff below zero
    return caps - inv, envelope_area(spec.R, s) * np.maximum(C.real, 0.0)


def weighted_cell_integrals(C: np.ndarray, shear) -> np.ndarray:
    """integral of S^2 w_U for every envelope U of a stack of caps, from
    per-cell integrals C, (caps, N1U, N2U), and each cap's shear.

    w_U is cell-constant: (1 + |d|_inf)^-10 on the 5x5 block of envelope
    neighbors (periodized by the wrap), plus the exact lattice tail mass
    spread uniformly (far cells at their cap's average).

    The z2 axis wraps with a shear in z1 (the lattice is a sheared torus),
    so a straight np.roll is wrong across the z2 seam.  One padded copy
    holds C[z + d] for every z and |d|_inf <= W_BLOCK, wrapped that way,
    and each neighbor d is a view into it, added for all caps at once.
    """
    n, N1U, N2U = C.shape
    b = W_BLOCK
    t1 = np.arange(-b, N1U + b)[:, None]
    t2 = np.arange(-b, N2U + b)[None, :]
    m = t2 // N2U
    rows = (t1 + m * np.array(shear, np.int64)[:, None, None]) % N1U
    padded = C[np.arange(n)[:, None, None], rows, t2 - m * N2U]
    out = np.zeros_like(C)
    for d1 in range(-b, b + 1):
        for d2 in range(-b, b + 1):
            w = (1.0 + max(abs(d1), abs(d2))) ** -W_EXPONENT
            out += w * padded[:, b + d1:b + d1 + N1U, b + d2:b + d2 + N2U]
    return out + W_TAIL * C.reshape(n, N1U * N2U).mean(axis=1)[:, None, None]


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


def verify_weighted_sq(field: TorusField, H: GridMeasure,
                       p: float) -> RatioReport:
    """Evaluate both weighted square-function inequalities.

    lhs     = ||f||_{L^p(H)}    (exact atomic sum; for the constant
              weight power_integral on the M grid, a coefficient identity
              at p in {2, 4}; lp_norm)
    sq_rhs  = (kappa_max + R^-40) ||S_theta||_p    (first-power side)
    env_rhs = sum over (s, tau, U) of
              kappa(U)^p |U|^(1-p/2) (int S_tau^2 w_U)^(p/2)

    The envelope integrals int_U S_tau^2 are exact: S_tau^2 is a trig
    polynomial whose coefficients come from the theta pieces' pair
    products, formed once, and each scale takes the cells of all its caps
    (scale_cell_integrals) and weights them in one pass.  ||S_theta||_p
    is exact at p in {2, 4}; other p take the square_grid (square_norm).
    """
    spec = field.spec
    R = spec.R
    m = square_grid(R)
    floor = float(R) ** -GRID_FLOOR_EXP
    scales = dyadic_scales(R)

    lhs = lp_norm(field, p, measure=H)
    zero_field = not np.any(np.abs(field.amps) > 0)

    thetas = cap_decompose(field, theta_scale(R))
    pairs = theta_pairs(thetas)
    sq_norm = square_norm(thetas, pairs, spec, p)
    kmax, kwitness = kappa_max(H, p)
    sq_rhs = (kmax + floor) * sq_norm

    env_rhs = 0.0
    env_by_scale = {s: 0.0 for s in scales}
    terms = []
    for s in scales:
        ks, C = scale_cell_integrals(thetas, pairs, s, spec)
        caps = [Cap(s, int(k)) for k in ks]
        shears = [envelope_lattice_dims(cap, spec)[2] for cap in caps]
        N1U, N2U = C.shape[1:]
        wints = weighted_cell_integrals(C, shears).reshape(-1, N1U * N2U)
        geom = envelope_area(R, s) ** (1.0 - 0.5 * p)
        for cap, wint in zip(caps, wints):
            if H.is_full_constant:
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
            terms += zip([s] * len(ekeys), [cap.cap_id] * len(ekeys),
                         (ekeys // N2U).tolist(), (ekeys % N2U).tolist(),
                         kvals.tolist(), tvals.tolist())

    ratio_sq = lhs / sq_rhs if sq_rhs > 0 else 0.0
    ratio_env = lhs ** p / env_rhs if env_rhs > 0 else 0.0
    return RatioReport(
        p=p, weight=H.label, R=R, m_grid=m, floor=floor, lhs=lhs,
        sq_norm=sq_norm, kappa_max=kmax, kappa_witness=kwitness,
        sq_rhs=sq_rhs, env_rhs=env_rhs, ratio_sq=ratio_sq,
        ratio_env=ratio_env, env_by_scale=env_by_scale,
        zero_field=zero_field, terms=terms)


def verify_peak_bytes(field: TorusField, weight: str, p_values) -> float:
    """Peak bytes of verify_weighted_sq(field, H, p) over p_values, H the
    example of the weight family on field's spec: the larger of the lhs (for
    an atomic weight its kappa scan, at _SCAN_ATOM_BYTES a candidate atom, or
    the lattice sum at its atoms: their points, values and powers and one
    lattice_sums block; for the constant weight power_integral on the M
    grid) and the envelope side: the theta pieces' joined pair table (24
    bytes a pair, held for the call) plus the largest of its groupings (by
    (tau, offset) per scale, half of SQUARE_PAIR_BYTES a pair: a block's
    grouping without forming its products, traced at 62-94 bytes a pair for
    R = 256 to 4096; and ||S||_p on the square_grid, power_integral_bytes)
    and the theta scale's pass, at 40 bytes an entry: its z_1 factor table,
    N1U rows over the thetas' offsets D1, and its stacked weighting,
    N1U x N2U cells a theta padded by W_BLOCK on every side."""
    spec = field.spec
    R = spec.R
    pieces = cap_decompose(field, theta_scale(R)).values()
    pairs = sum(pc.n_modes ** 2 for pc in pieces)
    est = [SQUARE_PAIR_BYTES // 2 * pairs,
           *(power_integral_bytes(pieces, p, square_grid(R))
             for p in p_values)]
    N1U, N2U, _ = envelope_lattice_dims(Cap(theta_scale(R), 0), spec)
    d1 = max((int(np.ptp(pc.freqs[:, 0])) for pc in pieces if pc.n_modes),
             default=0)
    cells = (N1U + 2 * W_BLOCK) * (N2U + 2 * W_BLOCK)
    est.append(40 * (N1U * (2 * d1 + 1) + cells * len(pieces)))
    if weight == "constant":
        lhs = [power_integral_bytes([field], p, spec.M) for p in p_values]
    else:
        atoms = int(candidate_atoms(weight, spec))
        lhs = [_SCAN_ATOM_BYTES * atoms,
               64 * atoms + lattice_sums_bytes(field.n_modes, atoms)]
    return max(24 * pairs + max(est), *lhs)
