"""Multiscale frequency caps and the sheared tube/envelope tilings.

A cap tau at dyadic scale s is the block A_tau([-1,1] x [-2,2]) around the
parabola point (c, c^2), c in sZ.  Its dual objects in physical space are
the tubes T = L_tau(z + q), q = [-1/2,1/2)^2, which tile the plane, and
the envelopes U obtained by grouping Rs^2 x Rs^2 blocks of tubes.

Everything here reduces to integer arithmetic on the default grids: with
s = 2^-a and Delta = L/M a power of two, the tube index of a grid point is
an exact shifted floor-division, so tilings are exact partitions and the
per-tube grid counts come out identical.  That exactness is what the kappa
identities downstream rely on.

Index conventions (P = 1/s, grid point x = Delta*(j1, j2)):
    y = L_tau^{-1} x,  z = floor(y + 1/2)  componentwise (half open cells);
    torus wrap: z2 lives mod N2 = s^2 L, and reducing z2 by m*N2 drags z1 by
    m*shear with shear = 2*c*s*L, then z1 lives mod N1 = s*L.
On the grid y = (j1*P + 2k*j2, j2) / D with D = P^2/Delta, so with
shear = 2k*N2 the wrapped index is
    z2 = (2*j2 + D) // 2D,  m = z2 // N2,  z2 - m*N2,
    z1 - m*shear = (a + k*b) // 2D,  a = 2P*j1 + D,  b = 4*(j2 - m*N2*D).
Only the last line depends on the cap, and only through k: a weight's atoms
are located once per scale (locate_scale_tubes), and each cap then costs an
add, a shift, a mask and an or, since 2D, N1 and N2 are powers of two for
the power-of-four R of GridSpec.  This is the one place tube indices are made.
Along a row (fixed j2) a grows by 2P per cell and z1 steps once every
2D/2P = 1/(s Delta) cells, so a run of l consecutive j1 meets at most
ceil(l s Delta) + 1 tubes of a cap, and its tube counts follow from its
first cell (ScaleTubes.block_pieces).

Envelope indices divide tube indices by the dyadic integer E = R s^2 with
the same shifted rounding, so each envelope is a block of exactly E^2 whole
tubes and nesting is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import GridSpec


def dyadic_scales(R: int) -> list[float]:
    """s = 2^-j from 1 down to R^(-1/2), coarse to fine."""
    j_max = (R.bit_length() - 1) // 2  # R = 4^k -> j_max = k = log2 sqrt(R)
    return [2.0 ** (-j) for j in range(j_max + 1)]


def theta_scale(R: int) -> float:
    return dyadic_scales(R)[-1]


@dataclass(frozen=True)
class Cap:
    """Frequency block at scale s centered at abscissa c = k*s."""

    s: float
    k: int

    def __post_init__(self):
        inv = 1.0 / self.s
        if inv != int(inv) or not abs(self.k) <= int(inv):
            raise ValueError(f"bad cap: s={self.s}, k={self.k}")

    @property
    def c(self) -> float:
        return self.k * self.s

    @property
    def cap_id(self) -> str:
        # the L0 prefix is kept: ids are fields of the terms and constants
        # sidecars and of pair ids
        return f"L0C{self.k}"

    def transforms(self):
        """(A offset, A matrix, L_tau, L_tau^{-1}).

        A_tau(xi) = (c, c^2) + (s xi1, 2 c s xi1 + s^2 xi2) maps the unit
        model block to the cap; L_tau = (A matrix)^{-T} maps physical space
        to tube coordinates, det L_tau = s^{-3}.
        """
        s, c = self.s, self.c
        A_off = np.array([c, c * c])
        A_mat = np.array([[s, 0.0], [2 * c * s, s * s]])
        L = np.array([[1.0 / s, -2 * c / (s * s)], [0.0, 1.0 / (s * s)]])
        L_inv = np.array([[s, 2 * c * s], [0.0, s * s]])
        return A_off, A_mat, L, L_inv


def caps_at_scale(s: float) -> list[Cap]:
    """All caps at scale s: k in [-1/s, 1/s], edge caps clipped to |c|<=1."""
    inv = int(round(1.0 / s))
    return [Cap(s, k) for k in range(-inv, inv + 1)]


def cap_index_for_abscissa(xi1, s: float):
    """k of the cap owning abscissa xi1: half-open cells [c-s/2, c+s/2)."""
    k = np.floor(np.asarray(xi1, dtype=float) / s + 0.5).astype(np.int64)
    inv = int(round(1.0 / s))
    return np.clip(k, -inv, inv)


# ---------------------------------------------------------------------------
# tube / envelope index arithmetic

def tube_lattice_dims(cap: Cap, spec: GridSpec) -> tuple[int, int, int]:
    """(N1, N2, shear): the wrapped tube-index torus for this cap.

    N1 = sL, N2 = s^2 L, shear = 2 c s L; all exact integers for the
    admissible grids (L a power of two times R, s dyadic >= R^{-1/2}).
    """
    sL = cap.s * spec.L
    N1, N2 = int(round(sL)), int(round(cap.s * sL))
    shear = 2 * cap.k * N2  # 2csL = 2ks^2L
    if not (N1 == sL and N2 == cap.s * sL):
        raise ValueError(f"non-integer tube lattice for s={cap.s}, L={spec.L}")
    return N1, N2, shear


def envelope_factor(cap: Cap, spec: GridSpec) -> int:
    """E = R s^2, the tube->envelope grouping factor (dyadic integer >= 1)."""
    E = spec.R * cap.s * cap.s
    if E != int(E) or E < 1:
        raise ValueError(f"Rs^2 = {E} not a positive integer (s below theta scale?)")
    return int(E)


def envelope_lattice_dims(cap: Cap, spec: GridSpec) -> tuple[int, int, int]:
    N1, N2, shear = tube_lattice_dims(cap, spec)
    E = envelope_factor(cap, spec)
    return N1 // E, N2 // E, shear // E


@dataclass(frozen=True, eq=False)
class ScaleTubes:
    """Tube indices of fixed grid points for every cap of one scale.

    z2 does not depend on the cap, and z1 is affine in the cap index k
    before one floor division by 2D, a power of two: z1 = (a + k b) >> shift
    (see the module docstring).  With wrap, z1 is then reduced mod N1 (also
    a power of two) and z2 is already reduced mod N2.  a grows by step = 2P
    from one grid cell of a row to the next.
    """

    N1: int
    N2: int
    shift: int
    step: int
    a: np.ndarray
    b: np.ndarray
    z2: np.ndarray
    wrap: bool

    def z1(self, k: int) -> np.ndarray:
        z1 = (self.a + k * self.b) >> self.shift
        return z1 & (self.N1 - 1) if self.wrap else z1

    @property
    def key_bits(self) -> int:
        """log2(N1 N2): a cap's place in a block of caps sits above these
        bits of its flat tube keys."""
        return (self.N1 * self.N2).bit_length() - 1

    def keys(self, k: int) -> np.ndarray:
        """Flat wrapped tube keys z1 * N2 + z2 of cap k, in [0, N1 N2)."""
        return next(self.block_keys(k, 1, 1))[2]

    def _block_sums(self, k: int, n_caps: int, per_block: int):
        """(first cap k', caps c, v, places) of caps k .. k + n_caps - 1 in
        blocks of per_block consecutive caps (the last may hold fewer): v
        holds a + (k' + i) b in row i, the running sum advanced by
        per_block b from one block to the next, and places[i] = i << key_bits
        marks cap k' + i's keys."""
        if not self.wrap:
            raise ValueError("flat tube keys need wrapped indices")
        c = min(per_block, n_caps)
        places = np.arange(c) << self.key_bits
        v = np.tile(self.b, (c, 1))
        v *= (k + np.arange(c))[:, None]
        v += self.a
        stride = self.b if per_block == 1 else per_block * self.b
        for first in range(k, k + n_caps, per_block):
            c = min(per_block, k + n_caps - first)
            yield first, c, v[:c], places[:c]
            v += stride

    def block_keys(self, k: int, n_caps: int, per_block: int):
        """(first cap, caps c, keys) of caps k .. k + n_caps - 1 in blocks
        of per_block consecutive caps (the last may hold fewer).  A block's
        keys are i N1 N2 + keys(k' + i) of its caps k' + i in turn, i the
        place of each in the block, made in one buffer from the running
        sum v = a + k b: shifted so z1's bits sit above z2's, masked, and
        or'd with z2 and the place, held for the block's caps."""
        n2 = self.N2.bit_length() - 1
        out = None
        for first, c, v, places in self._block_sums(k, n_caps, per_block):
            if out is None:
                out = np.empty_like(v)
                # each cap's z2 and place; one cap takes z2 as it is
                low = self.z2[None]
                if c > 1:
                    low = np.tile(self.z2, (c, 1))
                    low |= places[:, None]
            if n2 > self.shift:
                np.multiply(v, 1 << (n2 - self.shift), out=out[:c])
            else:
                np.right_shift(v, self.shift - n2, out=out[:c])
            out[:c] &= (self.N1 - 1) << n2
            out[:c] |= low[:c]
            yield first, c, out[:c].reshape(-1)

    def block_pieces(self, k: int, n_caps: int, per_block: int,
                     lengths: np.ndarray):
        """(first cap, caps c, flat tube keys, atom counts as floats) of
        runs of lengths consecutive j1 cells, each starting at its located
        point, cut at the tube boundaries of caps k .. k + n_caps - 1 into
        (run, tube) pieces, in blocks of per_block consecutive caps as in
        block_keys: a block's keys carry each cap's place above key_bits.

        Cell t of a run sits at a + t step, so g = (a + k b) >> log2(step)
        numbers the run's cells g, g + 1, ... and cell g + t lies in tube
        (g + t) >> log2(span), span = 2D / step cells per tube and row.  A
        run's first and last pieces hold what the boundaries leave, those
        between them span cells each.  A key may repeat (a run as long as
        the row wraps onto its first tube); the caller sums per key.
        """
        n2 = self.N2.bit_length() - 1
        lg = self.step.bit_length() - 1
        lq = self.shift - lg
        mask, span = self.N1 * self.N2 - 1, 1 << lq
        last_cell = lengths - 1
        steps = np.empty(0, np.int64)
        for first_cap, c, v, places in self._block_sums(k, n_caps,
                                                        per_block):
            # one row of runs per cap of the block
            g = v >> lg
            last = g + last_cell
            first = g >> lq
            n = ((last >> lq) - first + 1).reshape(-1)
            ends = np.cumsum(n)
            starts = ends - n
            if len(steps) < ends[-1]:
                steps = np.arange(ends[-1]) << n2
            # the tube of piece j of a run is first + j: one key per run,
            # its pieces' offsets added as one ramp over all pieces
            first -= starts.reshape(c, -1)
            first <<= n2
            first |= self.z2
            keys = np.repeat(first.reshape(-1), n)
            keys += steps[:ends[-1]]
            keys &= mask
            if c > 1:
                cap_ends = ends[len(self.a) - 1::len(self.a)]
                keys |= np.repeat(places, np.diff(cap_ends, prepend=0))
            counts = np.full(ends[-1], float(span))
            last &= span - 1
            last += 1
            counts[ends - 1] = last.reshape(-1)
            g &= span - 1
            np.subtract(span, g, out=g)
            np.minimum(g, lengths, out=g)
            counts[starts] = g.reshape(-1)
            yield first_cap, c, keys, counts

    def envelope_keys(self, tkeys: np.ndarray, k: int, caps: int,
                      E: int) -> np.ndarray:
        """Flat wrapped envelope keys of a block of caps k .. k + caps - 1
        from its tube keys by shifts and masks, each cap's place i kept
        above log2(N1U N2U) bits; e2 reaches N2U only past the seam,
        dragging e1 by 2(k + i) N2U."""
        lE, nU2 = E.bit_length() - 1, self.N2.bit_length() - E.bit_length()
        n2 = self.N2.bit_length() - 1
        e1 = tkeys >> n2
        if caps > 1:
            place = tkeys >> self.key_bits
            e1 &= self.N1 - 1
            k = place + k
        e1 += E // 2
        e1 >>= lE
        e2 = tkeys & (self.N2 - 1)
        e2 += E // 2
        e2 >>= lE
        drag = e2 >> nU2
        drag *= 2 * k << nU2
        e1 -= drag
        e1 &= self.N1 // E - 1
        e1 <<= nU2
        e2 &= (1 << nU2) - 1
        e1 |= e2
        if caps > 1:
            e1 |= place << self.key_bits - 2 * lE
        return e1


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def locate_scale_tubes(j1, j2, s: float, spec: GridSpec,
                       wrap: bool = True) -> ScaleTubes:
    """Locate grid points x = Delta*(j1, j2) in the tubes of scale s.

    All the per-point work that does not depend on the cap is done here,
    once; ScaleTubes.block_keys then costs an add, a shift, a mask and an or
    per point and cap.
    """
    j1 = np.asarray(j1, dtype=np.int64)
    j2 = np.asarray(j2, dtype=np.int64)
    P = int(round(1.0 / s))
    invd = int(round(1.0 / spec.delta))
    if invd != 1.0 / spec.delta or P != 1.0 / s:
        raise ValueError("integer tube location needs dyadic s and Delta")
    N1, N2, _ = tube_lattice_dims(Cap(s, 0), spec)
    D = P * P * invd
    if not (_is_power_of_two(2 * D) and _is_power_of_two(N1)):
        raise ValueError(f"2D = {2 * D} and N1 = {N1} must be powers of two")
    shift = (2 * D).bit_length() - 1
    z2 = (2 * j2 + D) >> shift
    if wrap:
        m = z2 // N2
        z2 = z2 - m * N2
        b = 4 * (j2 - m * (N2 * D))
    else:
        b = 4 * j2
    return ScaleTubes(N1, N2, shift, 2 * P, 2 * P * j1 + D, b, z2, wrap)


def max_run_pieces(n_cells: int, n_runs: int, s: float,
                   spec: GridSpec) -> int:
    """The most (run, tube) pieces ScaleTubes.block_pieces cuts n_runs runs
    of n_cells cells in all into at one cap of scale s: a tube spans
    span = 1/(s Delta) cells of a row, so a run of l cells meets at most
    (l - 1) // span + 2 tubes, and the runs at most
    (n_cells - n_runs) // span + 2 n_runs."""
    span = int(round(1.0 / (s * spec.delta)))
    return (n_cells - n_runs) // span + 2 * n_runs


def locate_grid_tubes(j1, j2, cap: Cap, spec: GridSpec,
                      wrap: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Tube index (z1, z2) of grid points x = Delta*(j1, j2) in one cap."""
    tubes = locate_scale_tubes(j1, j2, cap.s, spec, wrap)
    return tubes.z1(cap.k), tubes.z2


def envelope_index_of_tube(z1, z2, E: int):
    """Envelope index from the tube index: shifted division by E.

    This is the nesting convention: envelope cells are unions of exactly
    E^2 whole tube cells, so a tube never straddles two envelopes.
    """
    if E == 1:
        return np.asarray(z1, dtype=np.int64), np.asarray(z2, dtype=np.int64)
    z1 = np.asarray(z1, dtype=np.int64)
    z2 = np.asarray(z2, dtype=np.int64)
    return (2 * z1 + E) // (2 * E), (2 * z2 + E) // (2 * E)


def wrap_envelope_index(zU1, zU2, cap: Cap, spec: GridSpec):
    N1U, N2U, shearU = envelope_lattice_dims(cap, spec)
    m = zU2 // N2U
    return (zU1 - m * shearU) % N1U, zU2 - m * N2U


def locate_grid_envelopes(j1, j2, cap: Cap, spec: GridSpec,
                          wrap: bool = True):
    z1, z2 = locate_grid_tubes(j1, j2, cap, spec, wrap=False)
    zU1, zU2 = envelope_index_of_tube(z1, z2, envelope_factor(cap, spec))
    if not wrap:
        return zU1, zU2
    return wrap_envelope_index(zU1, zU2, cap, spec)


# ---------------------------------------------------------------------------
# the broad--narrow cap hierarchy

def cap_ladder(R: int, K: int) -> tuple[float, ...]:
    """Scales 1 = K^0 > K^-1 > ... > K^-m of the broad-narrow iteration.

    m is the least integer with K^m >= sqrt(R); the finest scale is clamped
    to exactly R^-1/2 so the leaves coincide with the canonical thetas.
    Scale 1 is the virtual root, the one cap covering [-1,1].
    """
    if not (isinstance(K, int) and K >= 2 and (K & (K - 1)) == 0):
        raise ValueError(f"K must be a power of 2, >= 2; got {K}")
    sqrtR = int(round(R ** 0.5))
    if K > sqrtR:
        raise ValueError(f"K = {K} exceeds sqrt(R) = {sqrtR}")
    scales = [1.0]
    while scales[-1] > 1.0 / sqrtR:
        scales.append(max(scales[-1] / K, 1.0 / sqrtR))
    return tuple(scales)


def cap_children(s: float, k: int, s_child: float) -> np.ndarray:
    """k-indices, ascending, of the caps at the finer scale s_child inside
    cap (s, k): every cap under the virtual root s = 1, else those whose
    cap_index_for_abscissa parent at scale s is k."""
    inv = int(round(1.0 / s_child))
    kk = np.arange(-inv, inv + 1)
    if s >= 1.0:
        return kk
    return kk[cap_index_for_abscissa(kk * s_child, s) == k]
