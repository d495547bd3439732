"""Band-limited fields on a periodic square with exact L^p quadrature.

The continuum statements live on R^2; here every function is an honest
trigonometric polynomial on the torus [0,L)^2.  Frequencies sit on the
lattice (2pi/L)Z^2 and samples on an M x M grid of spacing Delta = L/M.
With the oversampling M = 8R = 2L grid sums of |f|^2 and |f|^4
are exact integrals, which is what makes the downstream inequality
comparisons trustworthy: any discrepancy we see is in the mathematics
being tested, not in the quadrature.

Conventions used throughout the package:
  * samples[j1, j2] = f(Delta * (j1, j2)), first axis is x1;
  * a mode is an integer lattice point n, its frequency is (2pi/L) * n;
  * every FFT is numpy.fft's, which runs single threaded, so runs are bit
    reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

# relative slack for band membership of lattice frequencies (pure float noise)
_BAND_TOL = 1e-9


def is_power_of_four(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0 and (n.bit_length() - 1) % 2 == 0


@dataclass(frozen=True)
class GridSpec:
    """Discretization at scale R: period L = 4R, M = 8R samples per side.

    L = 4R fits envelopes of dimensions up to R x R with margin, and its
    frequency step 2pi/L <= 2/R puts a lattice point in every window of
    length 2/R, so each theta has a frequency column.  M = 2L > 5L/pi
    makes grid sums of fourth powers of admissible band-limited fields
    exact, see lp_norm.
    """

    R: int

    def __post_init__(self):
        if not isinstance(self.R, int) or not is_power_of_four(self.R) or self.R < 4:
            raise ValueError(f"R must be a power of 4, >= 4; got {self.R!r}")

    @property
    def L(self) -> float:
        return float(4 * self.R)

    @property
    def M(self) -> int:
        return 8 * self.R

    @property
    def delta(self) -> float:
        return self.L / self.M

    @property
    def freq_step(self) -> float:
        return TWO_PI / self.L


def parabola_band_modes(spec: GridSpec) -> np.ndarray:
    """All lattice modes n with (2pi/L)n inside N_{1/R} of the parabola.

    The band is {|xi1| <= 1, |xi2 - xi1^2| <= 1/R}.  Returns an (n, 2)
    int64 array sorted lexicographically.
    """
    step = spec.freq_step
    n1_max = int(np.floor((1.0 + _BAND_TOL) / step))
    n1 = np.arange(-n1_max, n1_max + 1)
    xi1sq = (step * n1) ** 2
    lo = np.ceil((xi1sq - 1.0 / spec.R) / step - _BAND_TOL).astype(np.int64)
    hi = np.floor((xi1sq + 1.0 / spec.R) / step + _BAND_TOL).astype(np.int64)
    counts = hi - lo + 1
    out = np.empty((int(counts.sum()), 2), dtype=np.int64)
    out[:, 0] = np.repeat(n1, counts)
    # ranges lo[i]..hi[i] flattened
    offsets = np.arange(len(out)) - np.repeat(np.cumsum(counts) - counts, counts)
    out[:, 1] = np.repeat(lo, counts) + offsets
    return out


def _band_violations(freqs: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Boolean mask of modes outside the parabola band."""
    xi = spec.freq_step * freqs.astype(float)
    return (np.abs(xi[:, 0]) > 1.0 + _BAND_TOL) | (
        np.abs(xi[:, 1] - xi[:, 0] ** 2) > (1.0 + _BAND_TOL) / spec.R)


@dataclass(frozen=True, eq=False)
class TorusField:
    """Immutable trigonometric polynomial; samples computed on demand."""

    spec: GridSpec
    freqs: np.ndarray          # (n, 2) int64 lattice modes
    amps: np.ndarray           # (n,) complex128
    _samples: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.freqs.setflags(write=False)
        self.amps.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return len(self.amps)

    def samples_on(self, m: int, cache: bool = True) -> np.ndarray:
        """Sample values on the m x m grid of spacing L/m.

        Requires m to strictly exceed twice the mode bandwidth so the
        placement n mod m is alias free; then the values are exactly
        f(j L/m) up to FFT roundoff.  Results are cached per m unless
        cache=False (for throwaway pieces in large sweeps).
        """
        if m in self._samples:
            return self._samples[m]
        bw = int(np.abs(self.freqs).max(initial=0))
        if 2 * bw >= m:
            raise ValueError(f"grid m={m} aliases modes of bandwidth {bw}")
        A = np.zeros((m, m), dtype=np.complex128)
        A[self.freqs[:, 0] % m, self.freqs[:, 1] % m] = self.amps
        out = np.fft.ifft2(A)
        out *= m * m
        out.setflags(write=False)
        if cache:
            self._samples[m] = out
        return out

    @property
    def samples(self) -> np.ndarray:
        return self.samples_on(self.spec.M)


def synthesize(freqs, amps, spec: GridSpec) -> TorusField:
    """Build a TorusField from integer lattice modes and amplitudes.

    Rejects off-lattice input (freqs must be integers), duplicate modes,
    aliasing modes, and frequencies outside the parabola band.
    """
    freqs = np.asarray(freqs)
    amps = np.asarray(amps, dtype=np.complex128).ravel()
    if freqs.ndim != 2 or freqs.shape[1] != 2 or len(freqs) != len(amps):
        raise ValueError("freqs must be (n, 2) with matching amps")
    if not np.issubdtype(freqs.dtype, np.integer):
        fint = np.rint(freqs).astype(np.int64)
        if np.max(np.abs(freqs - fint), initial=0) > 1e-9:
            bad = freqs[np.argmax(np.abs(freqs - fint).max(axis=1))]
            raise ValueError(f"off-lattice frequency {spec.freq_step * bad}")
        freqs = fint
    freqs = freqs.astype(np.int64)
    if len(np.unique(freqs, axis=0)) != len(freqs):
        raise ValueError("duplicate modes in spectrum")
    if 2 * int(np.abs(freqs).max(initial=0)) >= spec.M:
        raise ValueError("mode bandwidth exceeds Nyquist for this M")
    bad = _band_violations(freqs, spec)
    if bad.any():
        xi = spec.freq_step * freqs[bad][0]
        raise ValueError(f"frequency outside parabola band: xi = {tuple(xi)}")
    return TorusField(spec, freqs, amps)


def random_band_field(spec: GridSpec, seed, density: float = 1.0) -> TorusField:
    """Unit-modulus amplitudes with iid uniform phases, one per band mode.

    density < 1 keeps each mode independently with that probability.
    """
    modes = parabola_band_modes(spec)
    rng = np.random.default_rng(seed)
    if density < 1.0:
        modes = modes[rng.random(len(modes)) < density]
    phases = rng.uniform(0.0, TWO_PI, size=len(modes))
    return synthesize(modes, np.exp(1j * phases), spec)


# (point, mode) entries of one block of the scattered trig_sum path.  Peak
# bytes per table entry: a scattered entry holds its real phase, that phase
# times i and its exponential; a grid entry the exponential, then its copy
# scaled by the amplitudes.
TRIG_BLOCK = 2 ** 20
TRIG_ENTRY_BYTES = 40
TRIG_GRID_ENTRY_BYTES = 32


def trig_sum(freqs, amps, points=None, axes=None) -> np.ndarray:
    """sum_k a_k exp(i (xi_k^1 x_1 + xi_k^2 x_2)) at points or on a grid.

    freqs is (n, 2) real, amps (n,) complex.  Give exactly one of

      points  (m, 2) scattered points; returns (m,).  A direct sum in
              blocks of TRIG_BLOCK (point, mode) entries: one complex
              exponential per entry.
      axes    (x1, x2), the tensor grid x1 x x2; returns (n1, n2).  The
              exponential factors into e^{i xi^1 x_1} e^{i xi^2 x_2}, so
              each mode takes n1 + n2 exponentials, contracted as
              (E1 a) E2^T.  amps may also be (r, n), r coefficient
              vectors over the same modes; the result is then
              (r, n1, n2) from one pair of exponential tables.

    Either way each output entry is one product reduced over the modes,
    and BLAS splits such products across threads by output entries, never
    along the modes, so the bits do not depend on the thread count (a CLI
    test compares reports under 1 and 2 OpenBLAS threads).
    """
    freqs = np.asarray(freqs, dtype=float).reshape(-1, 2)
    amps = np.asarray(amps, dtype=np.complex128)
    if (points is None) == (axes is None):
        raise ValueError("trig_sum takes either points or axes")
    if amps.shape[-1] != len(freqs):
        raise ValueError("freqs must be (n, 2) with matching amps")
    if axes is not None:
        x1, x2 = (np.asarray(x, dtype=float).ravel() for x in axes)
        E1 = np.exp(1j * np.multiply.outer(x1, freqs[:, 0]))
        E2T = np.exp(1j * np.multiply.outer(freqs[:, 1], x2))
        if amps.ndim == 1:
            return (E1 * amps) @ E2T
        return np.stack([(E1 * a) @ E2T for a in amps])
    if amps.ndim != 1:
        raise ValueError("scattered points take one amplitude vector")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(len(pts), dtype=np.complex128)
    fT = freqs.T
    block = max(1, TRIG_BLOCK // max(1, len(amps)))
    for i in range(0, len(pts), block):
        out[i:i + block] = np.exp(1j * (pts[i:i + block] @ fT)) @ amps
    return out


def trig_sum_bytes(n_modes: int, n_points: int = 0, axes=None,
                   rows: int = 1) -> int:
    """Peak bytes of one trig_sum call over n_modes: at n_points scattered
    points, or on a grid of axis lengths axes = (n1, n2) with rows
    amplitude vectors (the outputs are listed, then stacked)."""
    if axes is not None:
        n1, n2 = axes
        return TRIG_GRID_ENTRY_BYTES * (n1 + n2) * n_modes \
            + 32 * rows * n1 * n2
    return TRIG_ENTRY_BYTES * min(n_points * n_modes, TRIG_BLOCK) \
        + 16 * n_points


def point_eval(field: TorusField, points) -> np.ndarray:
    """Direct trigonometric summation at arbitrary points, O(modes) each.

    The ground-truth oracle for synthesize, and the evaluator for sparse
    atomic integrals where a full grid would be wasteful.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = trig_sum(field.freqs, field.amps, field.spec.freq_step * pts)
    return out if np.ndim(points) == 2 else out[0] if len(pts) == 1 else out


def l2sq_coeff(field: TorusField) -> float:
    """||f||_2^2 from coefficients: L^2 sum |a|^2 (Parseval, exact).

    A numpy sum, not the BLAS dot product: OpenBLAS splits a long dot
    product across threads, so its bits would follow the thread count.
    """
    a = field.amps
    return field.spec.L ** 2 * float(np.sum(a.real * a.real + a.imag * a.imag))


def grid_lp(samples: np.ndarray, L: float, p: float) -> float:
    """(Delta^2 sum |f|^p)^(1/p) on an m x m grid of period L."""
    m = samples.shape[0]
    delta2 = (L / m) ** 2
    a = np.abs(samples)
    if p == 2.0:
        acc = float(np.sum(a * a))
    elif p == 4.0:
        a *= a
        acc = float(np.sum(a * a))
    else:
        acc = float(np.sum(a ** p))
    return (delta2 * acc) ** (1.0 / p)


def square_sum(pieces, spec) -> TorusField:
    """sum over pieces of |f_piece|^2, as a trigonometric polynomial.

    |f|^2 = sum_{n, n'} a_n conj(a_n') e^{i (2pi/L)(n - n').x}, so its
    coefficient at the lattice offset D is the autocorrelation sum over
    n - n' = D.  A cap piece has its offsets in the small box theta -
    theta, whatever its position on the parabola.  Returns the field
    whose modes are the distinct offsets, ascending (they lie off the
    parabola band, so it is built directly, not through synthesize);
    pieces add in the order given.

    The products and the offset keys (D1 + B) W + D2 + B, W = 2B + 1 with
    B the largest |D|, are written piece by piece into two arrays of one
    entry per (mode, mode) pair, so no per-piece copy outlives its slot.
    """
    pieces = list(pieces)
    B = max((int(np.ptp(pc.freqs, axis=0).max()) for pc in pieces
             if pc.n_modes), default=0)
    W = 2 * B + 1
    total = sum(pc.n_modes ** 2 for pc in pieces)
    key = np.empty(total, np.int64)
    c = np.empty(total, np.complex128)
    o = 0
    for pc in pieces:
        n, a = pc.freqs, pc.amps
        end = o + len(a) ** 2
        k = key[o:end].reshape(len(a), len(a))
        np.subtract.outer(n[:, 0], n[:, 0], out=k)
        k *= W
        k += n[:, 1, None]
        k -= n[None, :, 1]
        k += B * W + B
        # a broadcast product, as np.outer takes it: np.multiply.outer
        # rounds the products differently (a conj(a) comes out exactly real)
        np.multiply(a[:, None], a.conj()[None, :],
                    out=c[o:end].reshape(len(a), len(a)))
        o = end
    keys, inv = np.unique(key, return_inverse=True)
    del key  # freed before the bincounts copy out the real and imaginary parts
    coef = np.bincount(inv, weights=c.real) \
        + 1j * np.bincount(inv, weights=c.imag)
    delta = np.stack([keys // W - B, keys % W - B], axis=1)
    return TorusField(spec, delta, coef)


def power_integral(pieces, spec, p: float, m: int) -> float:
    """integral over the torus of (sum over pieces of |f_piece|^2)^(p/2).

    p = 2 is Parseval on each piece; p = 4 is Parseval on the sum of
    squares P (square_sum): int P^2 = L^2 sum_D |c_D|^2, O(modes^2) work
    and memory per piece.  Other p sum P^(p/2) on the m x m grid of
    spacing L/m, from one inverse FFT of the coefficients of P; samples_on
    rejects an m that does not exceed twice the largest offset.
    """
    if p == 2.0:
        return sum(l2sq_coeff(pc) for pc in pieces)
    P = square_sum(pieces, spec)
    if p == 4.0:
        return l2sq_coeff(P)
    # P is real and >= 0; clip the roundoff below zero
    P2 = np.maximum(P.samples_on(m, cache=False).real, 0.0)
    return (spec.L / m) ** 2 * float(np.sum(P2 ** (p / 2)))


def lp_norm(field: TorusField, p: float, measure=None) -> float:
    """L^p norm of f, unweighted or against a grid measure.

    Unweighted: (Delta^2 sum_grid |f|^p)^(1/p) on the spec's M x M grid.
    Exact for p in {2, 4} by bandwidth counting; for other p the
    oversampling keeps the error ~1e-6 (checked by refinement in the
    tests).

    Constant weight of density lam = mass / Delta^2 on every grid cell:
    lam^(1/p) ||f||_p.  For p in {2, 4} this is an identity in the
    coefficients and needs no grid (power_integral of the one piece f).
    Other p sum |f|^p over the M x M synthesis, which is held whole; the
    row blocks bound only the temporaries of |f|^p.

    Other weights: measure supplies grid atoms (ij indices and masses); the
    weighted integral is by definition the atomic sum (point_eval at the
    atoms), so it is exact.
    """
    if not 2.0 <= p <= 4.0:
        raise ValueError(f"p must lie in [2, 4], got {p}")
    if measure is None:
        return grid_lp(field.samples, field.spec.L, p)
    spec = field.spec
    if measure.spec != spec:
        raise ValueError("measure defined on a different GridSpec")
    if measure.is_full_constant:
        if p in (2.0, 4.0):
            lam = float(measure.mass) / spec.delta ** 2
            return (lam * power_integral([field], spec, p, spec.M)) ** (1.0 / p)
        S = field.samples_on(spec.M, cache=False)
        step = max(1, 2 ** 22 // spec.M)
        acc = 0.0
        for i0 in range(0, spec.M, step):
            a = np.abs(S[i0:i0 + step])
            acc += float(np.sum(a ** p))
        return (float(measure.mass) * acc) ** (1.0 / p)
    vals = point_eval(field, spec.delta * measure.ij.astype(float))
    return float(np.sum(measure.mass * np.abs(vals) ** p)) ** (1.0 / p)
