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

import math
from dataclasses import dataclass, field
from itertools import groupby

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
    exact; at p outside {2, 4} the M grid is lp_norm's quadrature,
    unweighted and against the constant weight.
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


def _check_alias_free(bw: int, m: int) -> None:
    """Reject an m x m grid on which the placement n mod m aliases modes
    of bandwidth bw."""
    if 2 * bw >= m:
        raise ValueError(f"grid m={m} aliases modes of bandwidth {bw}")


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
        _check_alias_free(int(np.abs(self.freqs).max(initial=0)), m)
        A = np.zeros((m, m), dtype=np.complex128)
        A[self.freqs[:, 0] % m, self.freqs[:, 1] % m] = self.amps
        out = np.fft.ifft2(A)
        out *= m * m
        out.setflags(write=False)
        if cache:
            self._samples[m] = out
        return out


def distinct(a) -> np.ndarray:
    """The distinct entries of a 1-D array, or rows of a 2-D one, ascending:
    np.unique(a, axis=0) by one sort.  A plain np.unique imports numpy.ma
    (numpy 2.4), about 12 ms of every run."""
    a = np.asarray(a)
    if a.ndim == 1:
        a = np.sort(a)
        new = a[1:] != a[:-1]
    else:
        a = a[np.lexsort(a.T[::-1])]
        new = np.any(a[1:] != a[:-1], axis=1)
    return a[np.concatenate([[True], new])] if len(a) else a


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
    if len(distinct(freqs)) != len(freqs):
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


# Cells of one block of every blocked evaluator: trig_sum's (point, mode)
# entries at scattered points and its (x1, mode) exponentials on grid axes,
# propagate's time slices and the certificates' masses tables.  Peak bytes
# per exponential table entry: its real phase and that phase times i,
# exponentiated in place (traced: 24.1-24.5 per E1 entry of the lattice
# family at R = 262144 to 12^6).
CELL_BUDGET = 2 ** 18
TRIG_ENTRY_BYTES = 24


def cell_blocks(n_rows: int, row_cells: int) -> list:
    """Slices of consecutive rows, about CELL_BUDGET cells of row_cells each.

    A matrix product rounds an output row by where it falls in BLAS's row
    tiles, and numpy takes a one-row product as a vector product.  So every
    block but the last is a whole multiple of 64 rows, which keeps each
    row in the tile it has in one unblocked product, and a lone last row
    joins the block before it."""
    step = max(1, CELL_BUDGET // max(1, row_cells) // 64) * 64
    edges = [*range(0, n_rows, step), n_rows]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def block_rows(n_rows: int, row_cells: int) -> int:
    """Rows of the largest block of cell_blocks(n_rows, row_cells)."""
    return max((b.stop - b.start for b in cell_blocks(n_rows, row_cells)),
               default=0)


def phase_table(u, v) -> np.ndarray:
    """e^{i u_j v_k} as a (len(u), len(v)) table, exponentiated in place:
    the bits of np.exp(1j * np.multiply.outer(u, v)) without a second
    complex table."""
    E = 1j * np.multiply.outer(u, v)
    np.exp(E, out=E)
    return E


def trig_sum(freqs, amps, points=None, axes=None) -> np.ndarray:
    """sum_k a_k exp(i (xi_k^1 x_1 + xi_k^2 x_2)) at points or on a grid.

    freqs is (n, 2) real, amps (n,) complex.  Give exactly one of

      points  (m, 2) scattered points; returns (m,).  A direct sum in
              blocks of CELL_BUDGET (point, mode) entries: one complex
              exponential per entry.  Only real frequencies take this
              path; lattice fields take lattice_sums.
      axes    (x1, x2), the tensor grid x1 x x2; returns (n1, n2).  The
              exponential factors into e^{i xi^1 x_1} e^{i xi^2 x_2}, so
              each mode takes n1 + n2 exponentials, contracted as
              E1 (a E2^T): the amplitudes go into the E2^T side, so no
              second table of E1's size is formed.  E2^T is built once
              and E1 for one block of CELL_BUDGET (x1, mode) entries at a
              time.  amps may also be (r, n), r coefficient vectors over
              the same modes; the result is then (r, n1, n2) from the
              same tables.

    Either way each output entry is one product reduced over the modes,
    and BLAS splits such products across threads by output entries, never
    along the modes, so the bits do not depend on the thread count (a CLI
    test compares reports under 1 and 2 OpenBLAS threads).  Nor do they
    depend on the budget on grid axes (cell_blocks); at scattered points
    the phases pts @ freqs^T can round their last rows by the block for
    some mode counts.
    """
    freqs = np.asarray(freqs, dtype=float).reshape(-1, 2)
    amps = np.asarray(amps, dtype=np.complex128)
    if (points is None) == (axes is None):
        raise ValueError("trig_sum takes either points or axes")
    if amps.shape[-1] != len(freqs):
        raise ValueError("freqs must be (n, 2) with matching amps")
    if axes is not None:
        x1, x2 = (np.asarray(x, dtype=float).ravel() for x in axes)
        E2T = phase_table(freqs[:, 1], x2)
        coeffs = amps.reshape(-1, len(freqs))
        out = np.empty((len(coeffs), len(x1), len(x2)), dtype=np.complex128)
        for b in cell_blocks(len(x1), len(freqs)):
            E1 = phase_table(x1[b], freqs[:, 0])
            for o, a in zip(out, coeffs):
                o[b] = E1 @ (a[:, None] * E2T)
            del E1  # not held while the next block's forms
        return out.reshape(amps.shape[:-1] + out.shape[1:])
    if amps.ndim != 1:
        raise ValueError("scattered points take one amplitude vector")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(len(pts), dtype=np.complex128)
    fT = freqs.T
    for b in cell_blocks(len(pts), len(amps)):
        out[b] = np.exp(1j * (pts[b] @ fT)) @ amps
    return out


def trig_sum_bytes(n_modes: int, axes, rows: int) -> int:
    """Peak bytes of one trig_sum call over n_modes on a grid of axis
    lengths axes = (n1, n2) with rows amplitude vectors: one x1 block of
    E1, E2^T and the outputs."""
    n1, n2 = axes
    return TRIG_ENTRY_BYTES * (block_rows(n1, n_modes) + n2) * n_modes \
        + 16 * rows * n1 * n2


# lattice_sums takes two np.exp per axis and point and builds every other
# power of e^{i (2pi/L) x_j} by products.  A block of points holds its axis
# tables and the terms and gathered factors of one chunk of whole fields,
# at most SUM_CHUNK modes (or one larger field): CELL_BUDGET /
# SUM_BLOCK_SHARE complex entries in all, 1 MiB, or 64 points.  Timed in
# the benchmark's pointwise workload (2-vCPU VM), 2 MiB blocks were no
# faster and 0.5 MiB ones about 15% slower.
SUM_CHUNK = 64
SUM_BLOCK_SHARE = 4


def _powers(first, w, n: int):
    """(n, *w.shape) table first w^j, j < n, by doubling: rows h..2h-1 are
    rows 0..h-1 times w^h, and w^2h = (w^h)^2.  Row j takes the same
    products whatever n is."""
    T = np.empty((n, *w.shape), dtype=np.complex128)
    T[0] = first
    h = 1
    while h < n:
        np.multiply(T[:min(h, n - h)], w, out=T[h:2 * h])
        w = w * w
        h *= 2
    return T


def _axis_tables(span: int, top: int, n_pow: int, t):
    """(anchors e^{i span q t_j}, |q| <= top, row q + top, and powers
    e^{i r t_j}, r < n_pow), each (rows, 2, points), for t = (t_1, t_2).

    Two np.exp per axis and point, of exact phases t and span t (span is a
    power of two); e^{-i x} is the conjugate of e^{i x}."""
    T = _powers(1.0, np.exp(1j * np.multiply.outer([float(span), 1.0], t)),
                max(top + 1, n_pow))
    A = T[:top + 1, 0]
    return np.concatenate([A[:0:-1].conj(), A]), T[:n_pow, 1]


def lattice_sums(fields, points) -> np.ndarray:
    """(len(fields), len(points)) values of lattice fields at scattered
    points: sum_n a_n e^{i (2pi/L) n.x} per field, all on one spec.

    e^{i (2pi/L) n.x} = u_1^{n_1} u_2^{n_2} with u_j = e^{i (2pi/L) x_j},
    and n_j = span q + r, 0 <= r < span, span a power of two near the root
    of the modes' range (which about minimizes the tables).  Per block of
    points _axis_tables gives every anchor u_j^{span q} and power u_j^r.
    A mode's term is a_n times its anchor pair and its two powers, gathered
    per (mode, point), and each field adds its terms in mode order, one row
    at a time (np.add.reduce over a run of equal-size fields laid out mode
    by mode).  No BLAS takes part, and every entry is computed alike in
    whatever block or chunk it falls, so the bits depend neither on the
    thread count nor on the blocks.  The mode-only work is done once for
    all blocks."""
    fields = list(fields)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) == 1:
        # a second column keeps the reduction row by row: numpy sums a
        # single column pairwise
        return lattice_sums(fields, np.repeat(pts, 2, axis=0))[:, :1]
    out = np.zeros((len(fields), len(pts)), dtype=np.complex128)
    counts = np.array([f.n_modes for f in fields], dtype=int)
    live = [i for i in np.argsort(counts, kind="stable") if counts[i]]
    if not live or not len(pts):
        return out
    n = np.concatenate([fields[i].freqs for i in live])
    amps = np.concatenate([fields[i].amps for i in live])
    starts = np.cumsum([0] + [counts[i] for i in live])
    span = 2 ** round(0.5 * math.log2(int(np.ptp(n, axis=0).max()) + 1))
    q, r = np.divmod(n, span)
    top, n_pow = int(np.abs(q).max()), int(r.max()) + 1
    # the (anchor_1, anchor_2) pairs the modes use, and each mode's pair
    key = (q[:, 0] + top) * (2 * top + 1) + q[:, 1] + top
    pairs = np.flatnonzero(np.bincount(key))
    pair_of = np.searchsorted(pairs, key)
    q1, q2 = np.divmod(pairs, 2 * top + 1)
    # fields in size order: a run of equal-size fields lays its modes out
    # mode by mode (mode j of each field, then mode j + 1); runs of at most
    # SUM_CHUNK modes (or one larger field) fill chunks of as many modes
    runs = []
    for size, group in groupby(range(len(live)), lambda g: counts[live[g]]):
        group = list(group)
        per_run = max(1, SUM_CHUNK // size)
        for i in range(0, len(group), per_run):
            run = group[i:i + per_run]
            runs.append((np.add.outer(np.arange(size), starts[run]).ravel(),
                         size, [live[g] for g in run]))
    parts, filled = [[]], 0
    for run in runs:
        if parts[-1] and filled + len(run[0]) > SUM_CHUNK:
            parts.append([])
            filled = 0
        parts[-1].append(run)
        filled += len(run[0])
    # per chunk its modes' pairs, powers and amplitudes, and per run its
    # first row, size and fields
    chunks = []
    for part in parts:
        slot = np.concatenate([m for m, _, _ in part])
        first = np.cumsum([0] + [len(m) for m, _, _ in part])
        chunks.append((pair_of[slot], r[slot, 0], r[slot, 1],
                       amps[slot, None], [(o, size, fs) for o, (_, size, fs)
                                          in zip(first, part)]))
    widest = max(len(chunk[0]) for chunk in chunks)
    row = 2 * (2 * top + 1 + n_pow) + len(pairs) + 2 * widest
    # the terms and gathered factors of every chunk and block, reused
    bufs = np.empty((2, widest * block_rows(len(pts), SUM_BLOCK_SHARE * row)),
                    dtype=np.complex128)
    step = fields[live[0]].spec.freq_step
    for b in cell_blocks(len(pts), SUM_BLOCK_SHARE * row):
        A, P = _axis_tables(span, top, n_pow, step * pts[b].T)
        AA = A[q1, 0]
        AA *= A[q2, 1]
        del A
        P1, P2 = P[:, 0], P[:, 1]
        m = b.stop - b.start
        for pair, pw1, pw2, a, chunk_runs in chunks:
            terms, factor = (x[:len(a) * m].reshape(len(a), m) for x in bufs)
            # mode="clip" takes into out unbuffered; the indices are valid
            AA.take(pair, 0, terms, mode="clip")
            terms *= P1.take(pw1, 0, factor, mode="clip")
            terms *= P2.take(pw2, 0, factor, mode="clip")
            terms *= a
            for o, size, fs in chunk_runs:
                run_terms = terms[o:o + size * len(fs)].reshape(size, -1)
                out[fs, b] = np.add.reduce(run_terms, axis=0).reshape(
                    len(fs), -1)
    return out


def lattice_sums_bytes(field_modes: int, n_points: int) -> int:
    """Peak bytes of lattice_sums at n_points points, beyond its output,
    for fields of at most field_modes modes each: one block of points, its
    tables taken at 2 SUM_CHUNK entries a point (band fields' anchors,
    powers and anchor pairs) and one chunk's terms and gathered factors."""
    row = 2 * SUM_CHUNK + 2 * max(SUM_CHUNK, field_modes)
    return 16 * row * block_rows(n_points, SUM_BLOCK_SHARE * row)


def point_eval(field: TorusField, points) -> np.ndarray:
    """Direct trigonometric summation at arbitrary points, O(modes) each:
    lattice_sums of the one field.

    The ground-truth oracle for synthesize, and the evaluator for sparse
    atomic integrals where a full grid would be wasteful.
    """
    out = lattice_sums([field], points)[0]
    return out if np.ndim(points) == 2 else out[0] if len(out) == 1 else out


def l2sq_coeff(field: TorusField) -> float:
    """||f||_2^2 from coefficients: L^2 sum |a|^2 (Parseval, exact).

    A numpy sum, not the BLAS dot product: OpenBLAS splits a long dot
    product across threads, so its bits would follow the thread count.
    """
    a = field.amps
    return field.spec.L ** 2 * float(np.sum(a.real * a.real + a.imag * a.imag))


def _pair_rows(pieces) -> np.ndarray:
    """Pairs per row D1 = n1 - n1' = -B..B of pair_products, B the largest
    |D| of a pair of modes of one piece: the autocorrelations of the
    pieces' n1 histograms, summed (exact: sums of integer products)."""
    B = max((int(np.ptp(pc.freqs, axis=0).max()) for pc in pieces
             if pc.n_modes), default=0)
    rows = np.zeros(2 * B + 1)
    for pc in pieces:
        if pc.n_modes:
            n1 = pc.freqs[:, 0]
            h = np.bincount(n1 - n1.min()).astype(float)
            w = len(h) - 1
            rows[B - w:B + w + 1] += np.correlate(h, h, "full")
    return rows.astype(np.int64)


def _row_blocks(rows) -> list:
    """(first, stop) slices of consecutive D1 rows, each as many rows as
    keep it within 16 CELL_BUDGET / SQUARE_PAIR_BYTES pairs (2^15: as many
    bytes as CELL_BUDGET complex entries), or one row alone."""
    budget = 16 * CELL_BUDGET // SQUARE_PAIR_BYTES
    edges, held = [0], 0
    for i, n in enumerate(rows.tolist()):
        if held and held + n > budget:
            edges.append(i)
            held = 0
        held += n
    return list(zip(edges, edges[1:] + [len(rows)]))


def pair_products(pieces):
    """(rows, blocks): the (mode, mode) pairs of the pieces, one block of
    consecutive rows D1 = n1 - n1' at a time, D1 ascending, and the pairs
    of each row D1 = -B..B (_pair_rows).  In |f|^2 = sum_{n, n'} a_n
    conj(a_n') e^{i (2pi/L)(n - n').x} the pair adds a_n conj(a_n') at
    D = n - n', keyed (D1 + B) W + D2 + B, W = 2B + 1 = len(rows), B the
    largest |D|; a block's keys lie in its own rows x W range.

    Each block is (keys, products, pairs of each piece): the pieces in
    turn, and in a piece mode n in piece order with its partners n', whose
    D1 fall in the block: one contiguous run of the piece's n1-sorted
    modes.  An offset D takes at most one pair per n, so each c_D meets
    its products in the order of the whole table, piece by piece and mode
    by mode, whatever the blocks.  Blocks are formed as they are taken."""
    pieces = list(pieces)
    rows = _pair_rows(pieces)
    W = len(rows)
    B = W // 2
    modes = []
    for pc in pieces:
        n1 = pc.freqs[:, 0]
        order = np.argsort(n1, kind="stable")
        modes.append((n1, n1[order], order, n1 * W + pc.freqs[:, 1],
                      pc.amps, pc.amps.conj()))

    def blocks():
        # blocks ascend in D1, so a mode's partners in one block end where
        # they begin in the block before; in the first, where n1' <= n1 + B
        ends = [np.full(len(m[0]), len(m[0])) for m in modes]
        for first, stop in _row_blocks(rows):
            total = int(rows[first:stop].sum())
            key = np.empty(total, np.int64)
            c = np.empty(total, np.complex128)
            counts = np.empty(len(modes), np.int64)
            o = 0
            for k, (n1, s1, order, u, a, ca) in enumerate(modes):
                lo = np.searchsorted(s1, n1 - (stop - 1 - B))
                run = ends[k] - lo
                ends[k] = lo
                end = o + int(run.sum())
                i = np.repeat(np.arange(len(a)), run)
                j = order[np.repeat(lo - np.cumsum(run) + run, run)
                          + np.arange(end - o)]
                np.subtract(u[i], u[j], out=key[o:end])
                key[o:end] += B * W + B
                # a_n conj(a_n') of contiguous gathered operands, rounded
                # as numpy rounds a broadcast row product; np.multiply.outer
                # rounds differently (a conj(a) comes out exactly real)
                np.multiply(a[i], ca[j], out=c[o:end])
                counts[k] = end - o
                o = end
            yield key, c, counts

    return rows, blocks()


# A key space at most this many times the key count is grouped with a dense
# bincount; a sparser one by a sort.  Re-timed on a 2-vCPU VM, the packed
# sort wins from a ratio of 8.03 on complex offsets (three bincounts).  On
# the kappa scan's one-mass tube keys, counting by an in-place sort breaks
# even with counting by a bincount near a ratio of 8 at 28k keys (4 to 8
# at 131k, 12 at 5k), and is 1.4-1.5x faster at 9.4.
DENSE_KEYS_PER_ATOM = 8


def sort_dtype(bound: int):
    """int32 where every value below bound fits in 31 bits, else int64:
    np.sort takes about half the time per key on int32."""
    return np.int32 if bound <= 1 << 31 else np.int64


def group_sums(keys: np.ndarray, weights, size: int):
    """(distinct int64 keys ascending, per-key sums of the real or complex
    weights) for int64 keys in [0, size).  Every branch bincounts in input
    order, so all agree bit for bit: the dense ones by key (positive real
    sums mark their keys; other weights count them first), the sparse one
    by rank in one np.sort of (key << b) | index, b the index bits: equal
    keys keep input order, and keys differ where entries differ above b.
    The sparse branches sort int32 copies wherever the keys, or the packed
    words, fit in 31 bits (sort_dtype).

    weights may be one float w, the weight of every key.  Each key's count
    c then comes from a dense bincount or, on the sparse branch, from
    sorting the keys (in place where they need 64 bits), and its sum is
    count_sums(w, c)."""
    dense = size <= DENSE_KEYS_PER_ATOM * len(keys)
    if np.ndim(weights) == 0:
        if dense:
            counts = np.bincount(keys, minlength=size)
            uniq = (counts > 0).nonzero()[0]
            counts = counts[uniq]
        else:
            keys = keys.astype(sort_dtype(size), copy=False)
            keys.sort()
            # a bound at each key's first entry, and one past the last
            new = np.empty(len(keys) + 1, dtype=bool)
            new[0] = new[-1] = True
            np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
            bounds = new.nonzero()[0]
            uniq = keys[bounds[:-1]].astype(np.int64, copy=False)
            counts = bounds[1:] - bounds[:-1]
        return uniq, count_sums(weights, counts)
    if dense:
        if weights.dtype.kind == "f" and weights.min(initial=np.inf) > 0:
            sums = np.bincount(keys, weights=weights, minlength=size)
            uniq = (sums > 0).nonzero()[0]
            return uniq, sums[uniq]
        uniq = np.bincount(keys, minlength=size).nonzero()[0]
        bins, pick = keys, uniq
    else:
        b = max(len(keys) - 1, 0).bit_length()
        if size > 1 << (63 - b):  # keys and indices need more than 63 bits
            uniq, bins = np.unique(keys, return_inverse=True)
        else:
            dtype = sort_dtype(size << b)
            bins = keys.astype(dtype)
            bins <<= b
            bins |= np.arange(len(keys), dtype=dtype)
            bins.sort()
            new = np.ones(len(keys), dtype=bool)
            np.greater(bins[1:] ^ bins[:-1], (1 << b) - 1, out=new[1:])
            uniq = (bins[new] >> b).astype(np.int64, copy=False)
            bins &= (1 << b) - 1
            weights = weights[bins]
            new[:1] = False
            np.copyto(bins, new)
            bins.cumsum(out=bins)
        size, pick = len(uniq), slice(None)

    def add(w):
        return np.bincount(bins, weights=w, minlength=size)[pick]

    if not np.iscomplexobj(weights):
        return uniq, add(weights)
    sums = np.empty(len(uniq), dtype=np.complex128)
    sums.real = add(weights.real)
    sums.imag = add(weights.imag)
    return uniq, sums


def count_sums(w: float, counts: np.ndarray) -> np.ndarray:
    """The sum of c copies of w for each count c >= 1 (integers, of any
    dtype): the running sum of w at c, the bits a bincount that adds w to
    +0.0 c times gives."""
    counts = counts.astype(np.int64, copy=False)
    return np.full(counts.max(initial=0), w + 0.0).cumsum()[counts - 1]


def key_sums(key, c):
    """group_sums of the products c by key over the keys' own range."""
    lo = int(key.min()) if len(key) else 0
    keys, coef = group_sums(key - lo, c, int(key.max(initial=lo)) + 1 - lo)
    return keys + lo, coef


# Cells of each block of coef_power_integral's grid pass.  Peak bytes per
# (mode, mode) pair of one block of pair_products, formed and grouped: its
# keys, products, gathered amplitudes and indices, and the grouping's
# bincounts (traced: 110-115 bytes a pair for the largest block of the
# whole field at R = 256, 1024 and 4096).
GRID_BLOCK = 2 ** 22
SQUARE_PAIR_BYTES = 128


def power_integral(pieces, spec, p: float, m: int) -> float:
    """integral over the torus of (sum over pieces of |f_piece|^2)^(p/2):
    Parseval on each piece at p = 2, else coef_power_integral of each
    block of pair_products, grouped as it is formed."""
    if p == 2.0:
        return sum(l2sq_coeff(pc) for pc in pieces)
    rows, blocks = pair_products(pieces)
    return coef_power_integral((key_sums(key, c) for key, c, _ in blocks),
                               rows, spec.L, p, m)


def coef_power_integral(parts, rows, L: float, p: float, m: int) -> float:
    """integral over the torus [0, L)^2 of P^(p/2), p != 2, P = sum_D c_D
    e^{i (2pi/L) D.x} a sum of squared moduli, from its parts (keys of
    pair_products, c_D), each key once and ascending over all parts, and
    rows, the pairs per row D1 of pair_products.

    p = 4 is Parseval, int P^2 = L^2 sum_D |c_D|^2: the parts' |c_D|^2
    fill one buffer of an entry a pair (an offset has at least one) that
    one np.sum adds, the bits of l2sq_coeff(P).  Other p decode the keys
    and sum P^(p/2) on the m x m grid of spacing L/m by ifft2's two
    passes, never holding the grid: along axis 1 over a table of the rows
    P's offsets occupy (D1 mod m, ascending), which each part's c_D goes
    straight into, in row chunks, then along axis 0 per block of columns,
    clipped at 0 (P >= 0 up to roundoff).  Both take at most GRID_BLOCK
    cells at a time; one block (m <= 2048) sums to the bits of
    P.samples_on(m)."""
    if p == 4.0:
        sq = np.empty(int(rows.sum()))
        n = 0
        for keys, coef in parts:
            del keys  # not held while the next part forms
            out = sq[n:n + len(coef)]
            np.multiply(coef.real, coef.real, out=out)
            out += coef.imag * coef.imag
            n += len(coef)
        return L ** 2 * float(np.sum(sq[:n]))
    B = len(rows) // 2
    _check_alias_free(B, m)
    table = np.sort((np.flatnonzero(rows) - B) % m)
    slot = np.searchsorted(table, (np.arange(len(rows)) - B) % m)
    A = np.zeros((len(table), m), dtype=np.complex128)
    for key, coef in parts:
        d1, d2 = np.divmod(key, len(rows))
        A[slot[d1], (d2 - B) % m] = coef
    step = max(1, GRID_BLOCK // m)
    for i in range(0, len(table), step):
        A[i:i + step] = np.fft.ifft(A[i:i + step], axis=1)
    acc = 0.0
    for j in range(0, m, step):
        block = np.zeros((m, min(step, m - j)), dtype=np.complex128)
        block[table] = A[:, j:j + step]
        block = np.fft.ifft(block, axis=0)
        acc += float(np.sum(np.maximum(block.real * (m * m), 0.0) ** (p / 2)))
    return (L / m) ** 2 * acc


def power_integral_bytes(pieces, p: float, m: int) -> int:
    """Peak bytes of power_integral(pieces, spec, p, m) from the pieces'
    modes.  At p != 2 one block of pair_products beside the buffer of all
    blocks' |c_D|^2 at p = 4 (8 bytes a pair), and at other p beside the
    grid pass's rows (the D1 rows holding pairs), which then take one
    column block and its transform in the block's place."""
    if p == 2.0:
        return 0
    rows = _pair_rows(pieces)
    block = SQUARE_PAIR_BYTES * max(int(rows[lo:hi].sum())
                                    for lo, hi in _row_blocks(rows))
    if p == 4.0:
        return block + 8 * int(rows.sum())
    cols = min(m, max(1, GRID_BLOCK // m))
    return 16 * m * int(np.count_nonzero(rows)) + max(block, 32 * m * cols)


def lp_norm(field: TorusField, p: float, measure=None) -> float:
    """L^p norm of f, unweighted or against a grid measure.

    Unweighted, or a constant weight of density lam = mass / Delta^2 on
    every grid cell (lam = 1 unweighted): lam^(1/p) ||f||_p, with
    ||f||_p^p the power_integral of the one piece f.  That is a
    coefficient identity at p in {2, 4}, else the sum of (|f|^2)^(p/2)
    on the spec's M x M grid, a quadrature: against the 2M grid,
    ||f||_p^p of random band fields (p = 2.5, 3, 3.5) is off by 3.1e-7 to
    4.1e-6 relative at R = 16 and by 8.8e-8 to 4.0e-7 at R = 64, pinned by
    a refinement test.

    Other weights: measure supplies grid atoms (ij indices and masses); the
    weighted integral is by definition the atomic sum (point_eval at the
    atoms), so it is exact.
    """
    if not 2.0 <= p <= 4.0:
        raise ValueError(f"p must lie in [2, 4], got {p}")
    spec = field.spec
    if measure is not None and measure.spec != spec:
        raise ValueError("measure defined on a different GridSpec")
    if measure is None or measure.is_full_constant:
        lam = 1.0 if measure is None else float(measure.mass) / spec.delta ** 2
        return (lam * power_integral([field], spec, p, spec.M)) ** (1.0 / p)
    vals = point_eval(field, spec.delta * measure.ij.astype(float))
    return float(np.sum(measure.mass * np.abs(vals) ** p)) ** (1.0 / p)
