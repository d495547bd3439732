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
are located once per scale (locate_scale_tubes), and each cap then costs a
multiply-add and a shift, since 2D and N1 are powers of two for the
power-of-four R of GridSpec.  This is the one place tube indices are made.

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
    level: int = 0

    def __post_init__(self):
        inv = 1.0 / self.s
        if inv != int(inv) or not abs(self.k) <= int(inv):
            raise ValueError(f"bad cap: s={self.s}, k={self.k}")

    @property
    def c(self) -> float:
        return self.k * self.s

    @property
    def cap_id(self) -> str:
        return f"L{self.level}C{self.k}"

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


def caps_at_scale(s: float, level: int = 0) -> list[Cap]:
    """All caps at scale s: k in [-1/s, 1/s], edge caps clipped to |c|<=1."""
    inv = int(round(1.0 / s))
    return [Cap(s, k, level) for k in range(-inv, inv + 1)]


def cap_index_for_abscissa(xi1, s: float):
    """k of the cap owning abscissa xi1: half-open cells [c-s/2, c+s/2)."""
    k = np.floor(np.asarray(xi1, dtype=float) / s + 0.5).astype(np.int64)
    inv = int(round(1.0 / s))
    return np.clip(k, -inv, inv)


def mode_cap_index(freqs: np.ndarray, spec: GridSpec, s: float) -> np.ndarray:
    """Cap index per lattice mode; the assignment is a partition by
    construction (one k per mode)."""
    return cap_index_for_abscissa(spec.freq_step * freqs[:, 0].astype(float), s)


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
    a power of two) and z2 is already reduced mod N2.
    """

    N1: int
    N2: int
    shift: int
    a: np.ndarray
    b: np.ndarray
    z2: np.ndarray
    wrap: bool

    def z1(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(self.b, k, out=out)
        out += self.a
        out >>= self.shift
        if self.wrap:
            out &= self.N1 - 1
        return out

    def keys(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """Flat wrapped tube keys z1 * N2 + z2 of cap k, in [0, N1 N2)."""
        if not self.wrap:
            raise ValueError("flat tube keys need wrapped indices")
        out = self.z1(k, out)
        out *= self.N2
        out += self.z2
        return out


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def locate_scale_tubes(j1, j2, s: float, spec: GridSpec,
                       wrap: bool = True) -> ScaleTubes:
    """Locate grid points x = Delta*(j1, j2) in the tubes of scale s.

    All the per-point work that does not depend on the cap is done here,
    once; ScaleTubes.z1 and .keys then cost one multiply-add and one shift
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
    return ScaleTubes(N1, N2, shift, 2 * P * j1 + D, b, z2, wrap)


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
# the broad--narrow cap tree

@dataclass(frozen=True)
class CapTree:
    """Caps at scales K^0 > K^-1 > ... > ~R^-1/2 with parent links.

    Levels 1..m hold canonical caps at scale s_j; level 0 is the virtual
    root covering [-1,1] whose children are all 2K+1 caps of level 1.  The
    finest level is clamped to the theta scale R^-1/2 when K^-m overshoots;
    mismatch records the ratio K^m / sqrt(R) >= 1.
    """

    R: int
    K: int
    m: int
    scales: tuple[float, ...]   # scales[j] for level j, scales[0] = 1.0
    mismatch: float

    def caps(self, level: int) -> list[Cap]:
        if level == 0:
            return [Cap(1.0, 0, 0)]
        return caps_at_scale(self.scales[level], level)

    def parent_index(self, level: int, k) -> np.ndarray:
        """Cap index at level-1 of the level-j cap(s) k."""
        if level <= 0:
            raise ValueError("root has no parent")
        if level == 1:
            return np.zeros_like(np.asarray(k, dtype=np.int64))
        c = np.asarray(k, dtype=np.int64) * self.scales[level]
        return cap_index_for_abscissa(c, self.scales[level - 1])

    def children_index(self, level: int, k: int) -> np.ndarray:
        """k-indices of the children of cap (level, k)."""
        if level >= self.m:
            raise ValueError("finest level has no children")
        s_child = self.scales[level + 1]
        inv = int(round(1.0 / s_child))
        kk = np.arange(-inv, inv + 1)
        return kk[self.parent_index(level + 1, kk) == k] if level >= 1 else kk


def build_cap_tree(R: int, K: int) -> CapTree:
    """K-adic ladder of caps from scale 1 down to the theta scale.

    m is the least integer with K^m >= sqrt(R); the finest scale is clamped
    to exactly R^-1/2 so the leaves coincide with the canonical thetas.
    """
    if not (isinstance(K, int) and K >= 2 and (K & (K - 1)) == 0):
        raise ValueError(f"K must be a power of 2, >= 2; got {K}")
    sqrtR = int(round(R ** 0.5))
    if K > sqrtR:
        raise ValueError(f"K = {K} exceeds sqrt(R) = {sqrtR}")
    m = 1
    while K ** m < sqrtR:
        m += 1
    scales = [1.0]
    for j in range(1, m + 1):
        scales.append(max(float(K) ** (-j), 1.0 / sqrtR))
    return CapTree(R, K, m, tuple(scales), mismatch=K ** m / sqrtR)
