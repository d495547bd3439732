"""Experiment runner: configured, reproducible pipelines with reports.

A run resolves an ExperimentConfig (key = value file plus command-line
overrides), preflights its memory footprint against a cap, executes the
named pipeline, and prints one PASS/FAIL line per checked property.
The pipelines compute and write nothing: a run returns its rows, fits,
checks and sidecars as data, and main alone writes the files (the
summary in each format asked for, and the sidecars) through one JSON
and one CSV writer.  Exit status is 0 iff every check passed, 1 on a failed check,
2 on a rejected config.  Two runs of one config produce byte-identical
reports, whatever the output directory, the BLAS thread count and the
number of CPUs: nothing time- or path-dependent enters a report, every
random stream is seeded from the config, and no reduction order follows
the thread count.  broad-narrow runs its trials on one forked worker
process per usable CPU where the platform can fork, with no option to
set: every trial's inputs are drawn first, in the serial order, each
trial's arithmetic is unchanged, and the rows come back in trial order.

The module also owns the built-in example families: the field families
paired with weight families for the two-sided inequality sweeps, and the
slope experiments for the weight functional (unit ball, dilated lattice,
two-branch truncated lattice).
"""

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import (dataclass, field as dataclass_field,
                         fields as dataclass_fields, replace)

import numpy as np

from .envelope import (W_BLOCK, cap_decompose, caps_per_block, kappa_max,
                       square_grid, square_norm, theta_pairs,
                       verify_weighted_sq, window_profile)
from .decomp import (CertificateError, bilinear_peak_bytes, bilinear_trials,
                     broad_narrow, broad_narrow_peak_bytes, over_bound)
from .geometry import (Cap, cap_index_for_abscissa, caps_at_scale,
                       dyadic_scales, envelope_factor, envelope_lattice_dims,
                       max_run_pieces, theta_scale)
from .measures import (LATTICE_C, LATTICE_KAPPA, TRUNCATED_ALPHA, TRUNCATED_C,
                       candidate_atoms, make_weight, masses_at_bytes,
                       support_box)
from .schrodinger import (FLS_DEFAULT_R, MEASURE_FAMILIES, fit_exponent,
                          fls_fits, fls_peak_bytes, measure_family,
                          rescale_measure, usable_cpus)
from .torus import (SQUARE_PAIR_BYTES, GridSpec, lattice_sums_bytes, lp_norm,
                    parabola_band_modes, power_integral_bytes,
                    random_band_field, synthesize)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ExperimentConfig:
    """One run's resolved inputs; canonical text form hashes stably.

    Empty R/p/family fall back to per-experiment defaults during
    resolution, and the resolved values are what the report embeds.
    c = None means the weight family's example size.  Each
    field's annotation is its kind in _KINDS, which parses and formats
    its config text and its command-line flag.
    """

    experiment: str = ""
    R: tuple[int, ...] = ()
    p: tuple[float, ...] = ()
    K: int = 4
    family: str = ""
    kappa: float = LATTICE_KAPPA
    alpha: float = 1.5
    c: float | None = None
    lam: float = 1.0
    seed: int = 0
    trials: int = 25
    points: int = 10000
    band: float = 0.1
    out: str = ""
    mem_cap_mb: float = 3500.0

    def canonical(self) -> str:
        lines = []
        for f in dataclass_fields(self):
            text = _FIELD_KINDS[f.name][1](getattr(self, f.name))
            lines.append(f"{f.name} = {text}")
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        """Hash of the inputs a report depends on; out is left out."""
        text = replace(self, out="").canonical()
        return hashlib.sha256(text.encode()).hexdigest()

    def to_dict(self) -> dict:
        """The config as a report embeds it: every field but out."""
        out = {}
        for f in dataclass_fields(self):
            if f.name == "out":
                continue
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def _parse_list(convert):
    return lambda text: tuple(convert(x) for x in text.split(",")) \
        if text else ()


def _format_list(v) -> str:
    return ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)


# (parse, format) of each field annotation of ExperimentConfig
_KINDS = {
    tuple[int, ...]: (_parse_list(int), _format_list),
    tuple[float, ...]: (_parse_list(float), _format_list),
    float | None: (lambda t: None if t == "none" else float(t),
                   lambda v: "none" if v is None else repr(float(v))),
    int: (int, str),
    float: (float, lambda v: repr(float(v))),
    str: (str, str),
}

_FIELD_KINDS = {f.name: _KINDS[f.type]
                for f in dataclass_fields(ExperimentConfig)}


def _parse_value(key: str, text: str):
    try:
        return _FIELD_KINDS[key][0](text.strip())
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def parse_config_text(text: str) -> dict:
    """key = value lines to a field dict; '#' starts a comment."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"line {ln}: expected key = value, got {raw!r}")
        if key not in _FIELD_KINDS:
            raise ValueError(f"line {ln}: unknown config key {key!r}")
        out[key] = _parse_value(key, val)
    return out


def read_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig(**parse_config_text(fh.read()))


# ---------------------------------------------------------------------------
# built-in field and pair families

def flat_field(spec: GridSpec):
    """Every band mode with amplitude 1: mass piles up at the origin."""
    modes = parabola_band_modes(spec)
    return synthesize(modes, np.ones(len(modes)), spec)


def knapp_field(spec: GridSpec):
    """One finest cap, one mode per column, smooth profile, sum 1."""
    s = theta_scale(spec.R)
    modes = parabola_band_modes(spec)
    xi = spec.freq_step * modes
    keep = np.abs(xi[:, 0]) <= 0.5 * s
    modes, xi = modes[keep], xi[keep]
    cols = {}
    for i in range(len(modes)):
        n1 = int(modes[i, 0])
        d = abs(xi[i, 1] - xi[i, 0] ** 2)
        if n1 not in cols or d < cols[n1][0]:
            cols[n1] = (d, i)
    idx = sorted(i for _, i in cols.values())
    modes = modes[idx]
    amps = window_profile(spec.freq_step * modes[:, 0] / s)
    return synthesize(modes, amps / amps.sum(), spec)


def spread_field(spec: GridSpec, seed):
    """One unit-modulus mode per finest cap, phases from the seed.

    Per cap the mode nearest the cap center on the parabola, so the cap
    pieces are singletons and the square function is flat.
    """
    s = theta_scale(spec.R)
    modes = parabola_band_modes(spec)
    xi = spec.freq_step * modes
    ki = cap_index_for_abscissa(xi[:, 0], s)
    score = np.abs(xi[:, 1] - xi[:, 0] ** 2) + np.abs(xi[:, 0] - ki * s)
    pick = {}
    for i in range(len(modes)):
        k = int(ki[i])
        if k not in pick or score[i] < score[pick[k]]:
            pick[k] = i
    idx = sorted(pick.values())
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(len(idx)))
    return synthesize(modes[idx], phases, spec)


# name: builder(spec, seed)
FIELD_FAMILIES = {
    "random": random_band_field,
    "flat": lambda spec, seed: flat_field(spec),
    "knapp": lambda spec, seed: knapp_field(spec),
    "spread": spread_field,
}


def make_field(family: str, spec: GridSpec, seed):
    if family not in FIELD_FAMILIES:
        raise ValueError(f"unknown field family {family!r}; "
                         f"have {tuple(FIELD_FAMILIES)}")
    return FIELD_FAMILIES[family](spec, seed)


_Y_LATTICE_R = (4096, 16384, 65536)  # the scales of y_lattice_fits

# Each pair's weight is its family's example, so a sweep is reproducible
# without extra knobs.  p is the default exponent for the pair's ratio run.
PAIR_FAMILIES = {
    "random:constant": ("random", "constant", 4.0),
    "random:ball": ("random", "ball", 3.0),
    "flat:ball": ("flat", "ball", 3.0),
    "knapp:constant": ("knapp", "constant", 4.0),
    "knapp:dual-tube": ("knapp", "dual-tube", 4.0),
    "spread:constant": ("spread", "constant", 4.0),
    "random:lattice": ("random", "lattice", 3.0),
    "random:parabolic-box": ("random", "parabolic-box", 4.0),
}


def _pair_family(pair: str):
    """(field family, weight family, default p) of a pair."""
    if pair not in PAIR_FAMILIES:
        raise ValueError(f"unknown pair {pair!r}; have {sorted(PAIR_FAMILIES)}")
    return PAIR_FAMILIES[pair]


def pair_inputs(pair: str, R: int, seed):
    """(field, weight) of one built-in pair at R."""
    ffam, wfam, _ = _pair_family(pair)
    spec = GridSpec(R)
    return make_field(ffam, spec, seed), make_weight(wfam, spec)


def pair_growth_fit(pair: str, R_values):
    """Growth exponent of lhs^p / envelope sum for one pair at its own p.

    The theorem allows at most logarithmic growth, so the fitted slope
    is compared one-sidedly against 0.
    """
    p = _pair_family(pair)[2]
    ratios = [verify_weighted_sq(*pair_inputs(pair, R, 0), p).ratio_env
              for R in R_values]
    return fit_exponent(f"weighted-env-{pair}-p{p:g}",
                        "gamma", R_values, ratios, 0.0, sided="upper")


# ---------------------------------------------------------------------------
# weight-functional slope families

def unit_ball_fits(p_values, R_values, band: float = 0.1):
    """Unit-ball weight against the flat field over a grid of R.

    Per p two fits: the norm ratio ||f||_{L^p(1_B)} / ||S||_p and the
    weight functional maximum, both predicted to fall like
    R^(-2 (1/p - 1/4)).
    """
    ratios = {p: [] for p in p_values}
    kappas = {p: [] for p in p_values}
    for R in R_values:
        spec = GridSpec(R)
        f = flat_field(spec)
        H = make_weight("ball", spec)
        thetas = cap_decompose(f, theta_scale(R))
        pairs = theta_pairs(thetas)  # the theta pieces' pairs, once per R
        for p in p_values:
            ratios[p].append(lp_norm(f, p, measure=H)
                             / square_norm(thetas, pairs, spec, p))
            kappas[p].append(kappa_max(H, p)[0])
    fits = []
    for p in p_values:
        pred = -2.0 * (1.0 / p - 0.25)
        fits.append(fit_exponent(f"unit-ball-norm-p{p:g}", "sigma", R_values,
                                 ratios[p], pred, band=band))
        fits.append(fit_exponent(f"unit-ball-kappa-p{p:g}", "sigma", R_values,
                                 kappas[p], pred, band=band))
    return fits


def _kappa_fits(name, family, p_values, R_values, pred, band, sided):
    """One fit per p of the functional maximum of one weight family's
    example over R; pred(p) is the predicted slope."""
    weights = {R: make_weight(family, GridSpec(R)) for R in R_values}
    fits = []
    for p in p_values:
        vals = [kappa_max(weights[R], p)[0] for R in R_values]
        fits.append(fit_exponent(f"{name}-kappa-p{p:g}", "sigma", R_values,
                                 vals, pred(p), band=band, sided=sided))
    return fits


def alpha_lattice_fits(p_values, R_values, band: float = 0.1):
    """Dilated-lattice weight: functional decay bounded by the dimension.

    The fattened lattice of pitch (R^kappa, R^(2 kappa)) in a ball of
    radius c R carries dimension alpha = 2 - 3 kappa; the functional
    maximum may fall faster than R^(-(2 - alpha)(1/p - 1/4)) but not
    slower, so the comparison is one-sided.
    """
    alpha = 2.0 - 3.0 * LATTICE_KAPPA
    return _kappa_fits("alpha-lattice", "lattice", p_values, R_values,
                       lambda p: -(2.0 - alpha) * (1.0 / p - 0.25),
                       band, "upper")


def y_lattice_fits(R_values=_Y_LATTICE_R, band: float = 0.1):
    """Two-branch exponents of the truncated corner-window lattice at
    alpha = 3/2 and p in {2, 2.5, 3, 4}.

    Below the crossover p = 4/(3 - alpha) the tube piece drives the
    functional and the slope is -(2 - alpha)/(2p); above it the ball
    piece takes over with -((3 - alpha)/2)(1/p - 1/4).
    """
    alpha = TRUNCATED_ALPHA
    p_cross = 4.0 / (3.0 - alpha)

    def pred(p):
        if p <= p_cross:
            return -(2.0 - alpha) / (2.0 * p)
        return -((3.0 - alpha) / 2.0) * (1.0 / p - 0.25)

    return _kappa_fits("y-lattice", "truncated-lattice", (2.0, 2.5, 3.0, 4.0),
                       R_values, pred, band, "two")


# ---------------------------------------------------------------------------
# memory preflight

class PreflightError(RuntimeError):
    def __init__(self, estimate_mb: float, cap_mb: float):
        self.estimate_mb = estimate_mb
        self.cap_mb = cap_mb
        super().__init__(
            f"estimated peak {estimate_mb:.0f} MiB exceeds the configured "
            f"cap {cap_mb:.0f} MiB")


def _verify_peak_bytes(cfg: "ExperimentConfig") -> float:
    """At the largest R, the larger of the lhs (for an atomic weight its
    kappa scan or the lattice sum at its atoms, for the constant weight
    power_integral on the M grid) and the envelope side:
    the theta pieces' joined pair table (24 bytes a pair, held for the
    call) plus the largest of its groupings (by (tau, offset) per scale,
    half of SQUARE_PAIR_BYTES a pair: a block's grouping without forming
    its products, traced at 62-94 bytes a pair for R = 256 to 4096; and
    ||S||_p on the square_grid, power_integral_bytes) and the theta
    scale's pass, at 40 bytes an entry: its z_1 factor table, N1U rows
    over the thetas' offsets D1, and its stacked weighting, N1U x N2U
    cells a theta padded by W_BLOCK on every side."""
    ffam, wfam, p_default = _pair_family(cfg.family)
    p_values = cfg.p or (p_default,)
    R = max(cfg.R)
    spec = GridSpec(R)
    field = make_field(ffam, spec, cfg.seed)
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
    if wfam == "constant":
        lhs = [power_integral_bytes([field], p, spec.M) for p in p_values]
    else:
        # the weight's kappa scan, and the atomic lhs: its points, values
        # and their powers, and one lattice_sums block
        atoms = int(candidate_atoms(wfam, spec))
        lhs = [_SCAN_ATOM_BYTES * atoms,
               64 * atoms + lattice_sums_bytes(field.n_modes, atoms)]
    return max(24 * pairs + max(est), *lhs)


# kappa-scan: traced allocation peaks of a scan one cap at a time ran
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


def _scan_envelopes(cfg, spec: GridSpec, atoms: float) -> list:
    """Envelopes of all caps holding atoms of the weight, per scale, coarse
    to fine.  Per cap (s, k) at most its atoms and the envelopes its
    support's box b1 x b2 meets: they lie in rows R high, each row's
    envelopes R s wide along x1 + 2c x2, c = k s, so the box meets b2/R + 1
    rows and in each (b1 + 2|c| min(b2, R))/(R s) + 1 envelopes, on average
    over where it falls."""
    b1, b2 = support_box(cfg.family, spec, **_scan_params(cfg))
    R, out = spec.R, []
    for s in dyadic_scales(R):
        c = s * np.abs(np.arange(-round(1 / s), round(1 / s) + 1))
        met = (b2 / R + 1) * ((b1 + 2 * c * min(b2, R)) / (R * s) + 1)
        out.append(float(np.minimum(met, atoms).sum()))
    return out


def _scan_block_bytes(cfg, spec: GridSpec, atoms: float) -> list:
    """The largest block of caps of envelope_stats at each scale, coarse
    to fine: its keys, the atoms or the (run, tube) pieces of each cap,
    where a one-mass weight cut into runs along the rows of its support box
    (b2/Delta + 1 rows, at most one run per atom) gives fewer, and its tube
    maxima, all envelopes of each cap where they hold several tubes."""
    b2 = support_box(cfg.family, spec, **_scan_params(cfg))[1]
    runs = min(atoms, b2 / spec.delta + 1)
    out = []
    for s in dyadic_scales(spec.R):
        caps = caps_at_scale(s)
        per_cap = min(atoms, max_run_pieces(atoms, runs, s, spec))
        N1U, N2U, _ = envelope_lattice_dims(caps[0], spec)
        n_env = N1U * N2U if envelope_factor(caps[0], spec) > 1 else 0
        block = min(len(caps), caps_per_block(int(per_cap), n_env))
        out.append(block * (_SCAN_BLOCK_KEY_BYTES * per_cap + 8 * n_env))
    return out


def _kappa_scan_peak_bytes(cfg: "ExperimentConfig") -> float:
    """The weight's atoms and cap tables, and the most the scan holds at
    once: the scales run coarse to fine, each keeping its envelope tables,
    so a scale's largest block lives beside the tables of the coarser
    scales, and the last scale's beside all of them (at most about 3R
    envelopes, as the slab-shaped supports, the widest-spread of the
    scanned families, hold: 2.8-4.0 R at R = 64 to 4096)."""
    est = 0.0
    for R in cfg.R:
        spec = GridSpec(R)
        atoms = candidate_atoms(cfg.family, spec, **_scan_params(cfg))
        if atoms:
            caps = sum(len(caps_at_scale(s)) for s in dyadic_scales(R))
            kept = np.minimum(np.cumsum(
                [0.0, *_scan_envelopes(cfg, spec, atoms)]), 3 * R)
            blocks = [*_scan_block_bytes(cfg, spec, atoms), 0.0]
            live = max(24 * n + b for n, b in zip(kept, blocks))
            est = max(est, _SCAN_ATOM_BYTES * atoms
                      + _SCAN_CAP_BYTES * caps + live)
    return est


def _broad_narrow_peak_bytes(cfg: "ExperimentConfig") -> float:
    """One trial's peak per worker, plus every trial's points, drawn
    before any trial runs."""
    n_trials = len(cfg.p) * len(cfg.R) * cfg.trials
    return _trial_workers(n_trials) * max(
        broad_narrow_peak_bytes(R, cfg.K, cfg.points) for R in cfg.R) \
        + 16 * cfg.points * n_trials


def _certificates_peak_bytes(cfg: "ExperimentConfig") -> float:
    """The masses tables of the largest family's certificates, its atoms
    as both centers and positions."""
    names = (cfg.family,) if cfg.family else MEASURE_FAMILIES
    n = max(len(measure_family(name)[1]) for name in names)
    return masses_at_bytes(n, n)


def _suite_peak_bytes(cfg: "ExperimentConfig") -> float:
    """The largest of the examples suite's parts: the unit-ball fits as
    the flat:ball pair at the suite's R and p, the two lattice fits as
    their kappa scans, and each lower-bound family at its default R."""
    return max(
        _verify_peak_bytes(replace(cfg, family="flat:ball")),
        _kappa_scan_peak_bytes(replace(cfg, family="lattice",
                                       kappa=LATTICE_KAPPA, c=LATTICE_C)),
        _kappa_scan_peak_bytes(replace(cfg, family="truncated-lattice",
                                       R=_Y_LATTICE_R, alpha=TRUNCATED_ALPHA,
                                       c=TRUNCATED_C)),
        *(fls_peak_bytes(name, R_f) for name, R_values
          in FLS_DEFAULT_R.items() for R_f in R_values))


def preflight_mb(cfg: "ExperimentConfig") -> float:
    """Estimated peak allocation for the resolved config, in MiB."""
    return EXPERIMENTS[cfg.experiment][3](cfg) / 2 ** 20


# ---------------------------------------------------------------------------
# the experiments

def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _fit_check(fit) -> dict:
    return _check(f"fit:{fit.name}", fit.passed,
                  f"slope {fit.slope:+.4f} vs {fit.prediction:+.4f} "
                  f"({fit.sided}, band {fit.band:g})")


def _run_kappa_scan(cfg):
    rows, checks = [], []
    worst = 0.0
    for R in cfg.R:
        spec = GridSpec(R)
        H = make_weight(cfg.family, spec, **_scan_params(cfg))
        for p in cfg.p:
            val, wit = kappa_max(H, p)
            row = {"R": R, "p": p, "family": cfg.family, "measured": val,
                   "witness_s": wit["s"], "witness_k": wit["k"],
                   "witness_z1": wit["z1"], "witness_z2": wit["z2"]}
            if cfg.family == "constant":
                pred = cfg.lam ** (1.0 / p)
                row["predicted"] = pred
                row["ratio"] = val / pred if pred > 0 else math.inf
                worst = max(worst, abs(val - pred))
            rows.append(row)
    if cfg.family == "constant":
        checks.append(_check("kappa-constant-identity", worst <= 1e-12,
                             f"max |kappa - lam^(1/p)| = {worst:.3g}"))
    else:
        finite = all(math.isfinite(r["measured"]) for r in rows)
        checks.append(_check("kappa-finite", finite,
                             f"{len(rows)} values, all finite" if finite
                             else "non-finite functional value"))
    return rows, [], checks, {}


# kappa-scan families and the config fields their builders take, by
# builder keyword; an unset field leaves the builder's default.
_SCAN_PARAMS = {
    "constant": {"lam": "lam"},
    "ball": {"rho": "c"},
    "dual-tube": {"alpha": "alpha"},
    "lattice": {"kappa": "kappa", "c": "c"},
    "truncated-lattice": {"alpha": "alpha", "c": "c"},
}


def _scan_params(cfg) -> dict:
    """Builder keywords of the kappa-scan weight of cfg."""
    if cfg.family not in _SCAN_PARAMS:
        raise ValueError(f"kappa-scan has no weight family {cfg.family!r}")
    fields = _SCAN_PARAMS[cfg.family].items()
    return {kw: getattr(cfg, f) for kw, f in fields
            if getattr(cfg, f) is not None}


def _pair_rows(cfg, ratio_key: str):
    """Shared body of the two verification experiments; envelope-verify
    keeps each report's terms as a sidecar.  Each R's field and weight
    are built once and serve every p (the weight caches its envelope
    statistics); rows, fits and checks come out p by p."""
    rows, fits, checks, sidecars = [], [], [], {}
    p_values = cfg.p or (_pair_family(cfg.family)[2],)
    reports = {}
    for R in cfg.R:
        field, H = pair_inputs(cfg.family, R, cfg.seed)
        for p in p_values:
            reports[p, R] = verify_weighted_sq(field, H, p)
    for p in p_values:
        ratios = []
        for R in cfg.R:
            rep = reports[p, R]
            ratios.append(getattr(rep, ratio_key))
            rows.append({"R": R, "p": p, "family": cfg.family,
                         "lhs": rep.lhs, "sq_norm": rep.sq_norm,
                         "kappa_max": rep.kappa_max, "sq_rhs": rep.sq_rhs,
                         "env_rhs": rep.env_rhs, "ratio_sq": rep.ratio_sq,
                         "ratio_env": rep.ratio_env,
                         "measured": getattr(rep, ratio_key),
                         "zero_field": rep.zero_field})
            if ratio_key == "ratio_env":
                sidecars[f"{cfg.experiment}_{cfg.family.replace(':', '-')}"
                         f"_R{R}_p{p:g}_terms.csv"] = _terms_table(rep.terms)
        finite = all(math.isfinite(r) and r >= 0 for r in ratios)
        checks.append(_check(f"{ratio_key}-finite-p{p:g}", finite,
                             f"ratios {['%.3g' % r for r in ratios]}"))
        if len(cfg.R) >= 3:
            fit = fit_exponent(
                f"{cfg.experiment}-{cfg.family}-p{p:g}", "gamma", cfg.R,
                ratios, 0.0, band=cfg.band, sided="upper")
            fits.append(fit.to_dict())
            checks.append(_fit_check(fit))
    return rows, fits, checks, sidecars


def _broad_narrow_trials(cfg) -> list:
    """Every trial's (p, R, t, field seed, points) in the serial order: every
    p in turn draws the same fields and points per R, each trial its field
    seed and then its points from the R's generator."""
    trials = []
    for p, R in itertools.product(cfg.p, cfg.R):
        spec = GridSpec(R)
        rng = np.random.default_rng(cfg.seed + R)
        for t in range(cfg.trials):
            seed = int(rng.integers(2 ** 31))
            trials.append((p, R, t, seed,
                           rng.uniform(0.0, spec.L, size=(cfg.points, 2))))
    return trials


def _trial_workers(n_trials: int) -> int:
    """Processes over n_trials broad-narrow trials: one per usable CPU and
    at most one per trial where the platform can fork, else 1, the
    calling process."""
    return min(usable_cpus(), n_trials) if hasattr(os, "fork") else 1


def _broad_narrow_trial(trial, K):
    """One trial's row values (violations, max_empirical, C_certified), or
    the message of the CertificateError it raised."""
    p, R, _, seed, pts = trial
    f = random_band_field(GridSpec(R), seed=seed, density=0.5)
    try:
        rep = broad_narrow(f, pts, p, K)
    except CertificateError as exc:
        return str(exc)
    return (int(np.count_nonzero(over_bound(rep.lhs, rep.bound))),
            rep.max_empirical, rep.C_certified)


# a forked broad-narrow worker's trials and K: fork passes the pool's
# initializer arguments unpickled, so each worker reads the parent's draws
_inherited = ()


def _inherit(trials, K):
    global _inherited
    _inherited = trials, K


def _inherited_trial(i):
    trials, K = _inherited
    return _broad_narrow_trial(trials[i], K)


def _run_broad_narrow(cfg):
    """The trials' inputs are drawn first, in the serial order; one forked
    worker per usable CPU then runs them, and their rows come back in
    trial order."""
    if cfg.trials < 1 or cfg.points < 1:
        raise ValueError(f"trials and points must be >= 1; got "
                         f"{cfg.trials} and {cfg.points}")
    trials = _broad_narrow_trials(cfg)
    n_workers = _trial_workers(len(trials))
    if n_workers == 1:
        results = [_broad_narrow_trial(trial, cfg.K) for trial in trials]
    else:
        # imported here, so that only a pooled run pays their import; a
        # worker that dies raises BrokenProcessPool here, and the pool's
        # exit joins every worker, on errors too
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(n_workers, mp_context=fork,
                                 initializer=_inherit,
                                 initargs=(trials, cfg.K)) as pool:
            results = list(pool.map(_inherited_trial, range(len(trials))))
    rows, failed = [], []
    for (p, R, t, _, _), result in zip(trials, results):
        if isinstance(result, str):
            failed.append(f"p {p:g} R {R} trial {t}: {result}")
            continue
        violations, max_empirical, C_certified = result
        rows.append({"R": R, "p": p, "K": cfg.K, "trial": t,
                     "points": cfg.points, "violations": violations,
                     "max_empirical": max_empirical,
                     "C_certified": C_certified})
    total_violations = sum(r["violations"] for r in rows)
    worst = max((r["max_empirical"] for r in rows), default=0.0)
    detail = (f"{total_violations} violations over {len(rows)} fields, "
              f"max empirical constant {worst:.4g}")
    if failed:
        detail += (f"; {len(failed)} more fields violate the certified "
                   f"bound, first {failed[0]}")
    checks = [_check("pointwise-split-violations",
                     total_violations == 0 and not failed, detail)]
    return rows, [], checks, {}


def _median(pool) -> float:
    """np.median of a pool, bit for bit, without numpy.ma (its NaN check)."""
    s, h = np.sort(pool), len(pool) // 2
    mid = s[h] if len(s) % 2 else np.mean(s[h - 1:h + 1])
    return float(s[-1] if len(s) and np.isnan(s[-1]) else mid)


def _run_bilinear(cfg):
    rows, checks, sidecars = [], [], {}
    by_scale = {}
    all_finite = True
    l4_ok = True
    for R_s in cfg.R:
        reports = bilinear_trials(R_s, cfg.K, cfg.trials, seed=cfg.seed)
        sidecars[f"bilinear_R{R_s}_K{cfg.K}_constants.csv"] = \
            _constants_table(reports)
        c_l4 = []
        for rep in reports:
            ok = all(math.isfinite(v) for v in
                     (rep.C_bil, rep.C_l4, rep.C_orth1, rep.C_orth2))
            all_finite = all_finite and ok
            # C_l4 * max_cell_ratio and C_bil share their denominator, and
            # restricting the integral over B to Y-tilde cannot raise it
            holds = bool(rep.C_l4 * rep.max_cell_ratio
                         <= rep.C_bil * (1 + 1e-9))
            l4_ok = l4_ok and holds
            c_l4.append(rep.C_l4)
            rows.append({"R": R_s, "K": cfg.K, "pair_id": rep.pair_id,
                         "s": rep.s, "C_bil": rep.C_bil, "C_l4": rep.C_l4,
                         "max_cell_ratio": rep.max_cell_ratio,
                         "int_BY": rep.int_BY, "l4_holds": holds})
        by_scale[R_s] = _median(c_l4)
    checks.append(_check("bilinear-constants-finite", all_finite,
                         f"{len(rows)} trials"))
    checks.append(_check("bilinear-l4-inequality", l4_ok,
                         "cell-ratio bound holds in every trial" if l4_ok
                         else "cell-ratio bound violated"))
    if len(cfg.R) >= 2:
        meds = [by_scale[R] for R in cfg.R]
        var = max(meds) / min(meds) if min(meds) > 0 else math.inf
        checks.append(_check("bilinear-variation", var <= 4.0,
                             f"median constant varies x{var:.2f} across "
                             "R (cap x4)"))
    return rows, [], checks, sidecars


def _fls_names(cfg) -> tuple:
    names = (cfg.family,) if cfg.family else tuple(FLS_DEFAULT_R)
    for name in names:
        if name not in FLS_DEFAULT_R:
            raise ValueError(f"unknown lower-bound family {name!r}")
    return names


def _fit_report(fits):
    """Rows, fit dicts, checks and sidecars of a run made of exponent
    fits: each fit dict is also its own fit_<name>.json."""
    rows, checks = [], []
    for fit in fits:
        checks.append(_fit_check(fit))
        for R, lr in zip(fit.R_values, fit.log_ratios):
            rows.append({"R": R, "family": fit.name, "measured": math.exp(lr)})
    dicts = [fit.to_dict() for fit in fits]
    return rows, dicts, checks, {f"fit_{d['name']}.json": d for d in dicts}


def _run_schrodinger_fls(cfg):
    fits = []
    for name in _fls_names(cfg):
        fits += fls_fits(name, cfg.p, R_values=cfg.R or None,
                         alpha=cfg.alpha, kappa=cfg.kappa, band=cfg.band,
                         seed=cfg.seed)
    return _fit_report(fits)


def _run_certificates(cfg):
    rows, checks, sidecars = [], [], {}
    names = (cfg.family,) if cfg.family else MEASURE_FAMILIES
    ok = True
    for name in names:
        pos, masses, beta, alpha, spacing = measure_family(name)
        for R in cfg.R:
            _, comps = rescale_measure(pos, masses, R, beta=beta, alpha=alpha,
                                       spacing=spacing)
            for comp in comps:
                good = 0.0 < comp["ratio"] <= 8.0
                ok = ok and good
                rows.append({"family": name, "R": R, "kind": comp["kind"],
                             "param": comp["param"],
                             "target_index": comp["target_index"],
                             "base_norm": comp["base_norm"],
                             "measured": comp["measured"],
                             "ratio": comp["ratio"], "within": good})
            sidecars[f"certificates_{name}_R{R}.json"] = comps
    checks.append(_check("measure-bounds", ok,
                         f"{len(rows)} comparisons within x8" if ok
                         else "a comparison left (0, 8]"))
    return rows, [], checks, sidecars


def _run_examples_suite(cfg):
    """Every example family as one exponent fit each, canonical grids."""
    fits = []
    fits += unit_ball_fits(cfg.p, cfg.R, band=cfg.band)
    fits += alpha_lattice_fits(cfg.p, cfg.R, band=cfg.band)
    fits += y_lattice_fits(band=cfg.band)
    fits += fls_fits("chirp", (3.0, 4.0), band=cfg.band)
    for alpha in (0.5, 1.5):
        fits += fls_fits("packet", (4.0,), alpha=alpha, band=cfg.band)
    fits += fls_fits("lattice", (3.0, 4.0), band=cfg.band)
    fits += fls_fits("nikodym", (2.0, 4.0), band=cfg.band, seed=cfg.seed)
    return _fit_report(fits)


# name: (runner, help, defaults of the fields left empty, peak bytes)
EXPERIMENTS = {
    "kappa-scan": (_run_kappa_scan,
                   "weight functional maxima over a weight family",
                   {"R": (64, 256), "p": (2.0, 3.0, 4.0),
                    "family": "constant"},
                   _kappa_scan_peak_bytes),
    "square-verify": (lambda cfg: _pair_rows(cfg, "ratio_sq"),
                      "first-power square-function inequality ratios",
                      {"R": (64, 256), "family": "random:constant"},
                      _verify_peak_bytes),
    "envelope-verify": (lambda cfg: _pair_rows(cfg, "ratio_env"),
                        "envelope-sum inequality ratios and growth",
                        {"R": (64, 256), "family": "random:constant"},
                        _verify_peak_bytes),
    "broad-narrow": (_run_broad_narrow,
                     "pointwise split certificate on random fields",
                     {"R": (64, 256), "p": (4.0,)},
                     _broad_narrow_peak_bytes),
    "bilinear": (_run_bilinear,
                 "bilinear constants over random separated pairs",
                 {"R": (64, 256)},
                 lambda cfg: max(bilinear_peak_bytes(R_s) for R_s in cfg.R)),
    "schrodinger-fls": (_run_schrodinger_fls,
                        "propagator lower-bound slope families",
                        {"p": (3.0, 4.0)},
                        lambda cfg: max(
                            fls_peak_bytes(name, R, cfg.kappa)
                            for name in _fls_names(cfg)
                            for R in cfg.R or FLS_DEFAULT_R[name])),
    "certificates": (_run_certificates, "rescaled-measure dimension bounds",
                     {"R": (64, 256)}, _certificates_peak_bytes),
    "examples-suite": (_run_examples_suite,
                       "every example family as one exponent fit",
                       {"R": (64, 256, 1024), "p": (2.0, 3.0, 4.0)},
                       _suite_peak_bytes),
}


def resolve(cfg: ExperimentConfig) -> ExperimentConfig:
    """Fill experiment defaults for empty R/p/family fields."""
    if cfg.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {cfg.experiment!r}; have "
                         f"{sorted(EXPERIMENTS)}")
    updates = {}
    for key, val in EXPERIMENTS[cfg.experiment][2].items():
        if not getattr(cfg, key):
            updates[key] = val
    return replace(cfg, **updates) if updates else cfg


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class Table:
    """A CSV file as data: its columns in file order, its rows as value
    sequences in that order, and the line end the table has always had."""

    columns: tuple
    rows: list
    line_end: str


def _terms_table(terms) -> Table:
    """envelope-verify's terms sidecar: one row per charged envelope."""
    return Table(("s", "cap_id", "z1", "z2", "kappa", "term"), terms, "\n")


def _constants_table(reports) -> Table:
    """bilinear's constants sidecar: one row per trial."""
    return Table(("R", "K", "s", "pair_id", "constant", "x1", "x2"),
                 [(r.R_s, r.K, r.s, r.pair_id, r.C_l4, *r.witness)
                  for r in reports], "\n")


@dataclass
class Report:
    """One run's results.  preflight_mb, the memory estimate the run was
    admitted with, stays out of the report's bytes (to_dict, markdown),
    so a recalibrated estimate leaves reports unchanged.  sidecars maps
    a file name to a JSON value or a Table, files that main writes next
    to the summary whatever the format; they stay out of to_dict."""

    experiment: str
    config: dict
    config_hash: str
    preflight_mb: float
    rows: list
    fits: list
    checks: list
    schema: int = SCHEMA_VERSION
    sidecars: dict = dataclass_field(default_factory=dict, repr=False)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        return {"schema": self.schema, "experiment": self.experiment,
                "config": self.config, "config_hash": self.config_hash,
                "rows": self.rows, "fits": self.fits, "checks": self.checks,
                "passed": self.passed}

    def check_lines(self) -> list:
        return [f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
                f"{c['detail']}" for c in self.checks]


def run(cfg: ExperimentConfig) -> Report:
    cfg = resolve(cfg)
    if not cfg.mem_cap_mb > 0:
        raise ValueError(f"mem_cap_mb must be positive, got {cfg.mem_cap_mb}")
    est = preflight_mb(cfg)
    if est > cfg.mem_cap_mb:
        raise PreflightError(est, cfg.mem_cap_mb)
    rows, fits, checks, sidecars = EXPERIMENTS[cfg.experiment][0](cfg)
    return Report(experiment=cfg.experiment, config=cfg.to_dict(),
                  config_hash=cfg.content_hash(), preflight_mb=est,
                  rows=rows, fits=fits, checks=checks, sidecars=sidecars)


_MD_COLUMNS = ("R", "p", "measured", "predicted", "ratio")


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


FORMATS = ("json", "csv", "md")


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; have {', '.join(FORMATS)}")


def emit(report: Report, fmt: str, out_dir) -> list:
    """Write the report in one format; returns the created paths.

    json is the canonical machine-readable summary, csv adds the row and
    fit tables as sidecars, md renders the measured-vs-predicted table.
    All three are byte-stable for a fixed resolved config.
    """
    _check_format(fmt)
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, report.experiment)
    paths = []
    if fmt == "json":
        paths.append(_write_json(base + ".json", report.to_dict()))
    elif fmt == "csv":
        paths.append(_write_csv(base + "_rows.csv", _dict_table(report.rows)))
        paths.append(_write_csv(base + "_fits.csv", _dict_table(report.fits)))
    else:
        path = base + ".md"
        with open(path, "w") as fh:
            fh.write(_render_md(report))
        paths.append(path)
    return paths


def _write_sidecars(report: Report, out_dir) -> None:
    """Every sidecar into out_dir: a Table as CSV, other data as JSON."""
    os.makedirs(out_dir, exist_ok=True)
    for name, data in report.sidecars.items():
        write = _write_csv if isinstance(data, Table) else _write_json
        write(os.path.join(out_dir, name), data)


def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def _write_json(path, data) -> str:
    with open(path, "w") as fh:
        fh.write(_json_text(data))
    return path


def _dict_table(rows) -> Table:
    """A row or fit table: sorted keys as columns, csv's own line end."""
    cols = sorted({k for row in rows for k in row}) if rows \
        else list(_MD_COLUMNS)
    return Table(cols, [[row.get(k) for k in cols] for row in rows], "\r\n")


def _write_csv(path, table: Table) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=table.line_end)
        writer.writerow(table.columns)
        writer.writerows([_csv_cell(v) for v in row] for row in table.rows)
    return path


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def _render_md(report: Report) -> str:
    lines = [f"# {report.experiment}", "",
             f"config `{report.config_hash[:16]}`, schema {report.schema}",
             ""]
    lines += ["| " + " | ".join(_MD_COLUMNS) + " |",
              "|" + "---|" * len(_MD_COLUMNS)]
    for row in report.rows:
        lines.append("| " + " | ".join(
            _cell(row.get(k)) for k in _MD_COLUMNS) + " |")
    if report.fits:
        lines += ["", "| fit | measured | predicted | band | sided | pass |",
                  "|---|---|---|---|---|---|"]
        for fit in report.fits:
            lines.append(
                f"| {fit['name']} | {fit['slope']:+.4f} "
                f"| {fit['prediction']:+.4f} | {fit['band']:g} "
                f"| {fit['sided']} | {'yes' if fit['passed'] else 'no'} |")
    lines += ["", ""]
    lines += [f"- {line}" for line in report.check_lines()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line

def _add_flags(sp):
    """--config, --format and one flag per config field but experiment."""
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--format", default="json,csv",
                    help=f"any of {','.join(FORMATS)} (comma-separated)")
    for f in dataclass_fields(ExperimentConfig):
        if f.name == "experiment":
            continue
        sp.add_argument("--" + f.name.replace("_", "-"))


def config_from_args(args) -> ExperimentConfig:
    """The config file, if any, overridden by every flag given; the
    subcommand sets experiment."""
    cfg = read_config(args.config) if args.config else ExperimentConfig()
    return replace(cfg, **{f.name: _parse_value(f.name, getattr(args, f.name))
                           for f in dataclass_fields(cfg)
                           if getattr(args, f.name) is not None})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavenvelope",
        description="experiment runner for the envelope toolkit")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, text, _, _) in EXPERIMENTS.items():
        _add_flags(sub.add_parser(name, help=text))
    args = parser.parse_args(argv)
    try:
        # formats first, so a bad one neither runs nor writes anything
        formats = [fmt.strip() for fmt in args.format.split(",")]
        for fmt in formats:
            _check_format(fmt)
        cfg = config_from_args(args)
        report = run(cfg)
        paths = []
        if cfg.out:
            _write_sidecars(report, cfg.out)
            for fmt in formats:
                paths += emit(report, fmt, cfg.out)
    except (OSError, ValueError, PreflightError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.check_lines():
        print(line)
    for path in paths:
        print(f"wrote {path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
