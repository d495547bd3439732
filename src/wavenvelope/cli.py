"""Experiment runner: configured, reproducible pipelines with reports.

A run resolves an ExperimentConfig (key = value file plus command-line
overrides), preflights its memory footprint against a cap, executes the
named pipeline, and reports a JSON summary with CSV sidecars and one
PASS/FAIL line per checked property.  Exit status is 0 iff every check
passed, 1 on a failed check, 2 on a rejected config.  Two runs of one
config produce byte-identical reports, whatever the output directory
and the BLAS thread count: nothing time- or path-dependent enters a
report, every random stream is seeded from the config, and no reduction
order follows the thread count.  The deterministic flag only records
that promise in the config.

The module also owns the built-in example families: the field families
paired with weight families for the two-sided inequality sweeps, and the
slope experiments for the weight functional (unit ball, dilated lattice,
two-branch truncated lattice).
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace

import numpy as np

from .envelope import (cap_decompose, kappa_max, verify_weighted_sq,
                       window_profile)
from .decomp import (bilinear_peak_bytes, bilinear_trials, broad_narrow,
                     broad_narrow_peak_bytes, write_constants_csv)
from .geometry import dyadic_scales, mode_cap_index, theta_scale
from .measures import candidate_atoms, make_weight
from .schrodinger import (FLS_DEFAULT_R, MEASURE_FAMILIES, fit_exponent,
                          fls_fits, fls_peak_bytes, measure_family,
                          nikodym_fits, rescale_measure)
from .torus import (GridSpec, lp_norm, parabola_band_modes, power_integral,
                    random_band_field, synthesize, trig_sum_bytes)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ExperimentConfig:
    """One run's resolved inputs; canonical text form hashes stably.

    Empty R/p/family fall back to per-experiment defaults during
    resolution, and the resolved values are what the report embeds.
    c = None lets each weight family keep its own size default.  Each
    field's annotation is its kind in _KINDS, which parses and formats
    its config text and its command-line flag.
    """

    experiment: str = ""
    R: tuple[int, ...] = ()
    p: tuple[float, ...] = ()
    K: int = 4
    family: str = ""
    kappa: float = 1.0 / 3.0
    alpha: float = 1.5
    c: float | None = None
    lam: float = 1.0
    seed: int = 0
    trials: int = 25
    points: int = 10000
    band: float = 0.1
    out: str = ""
    deterministic: bool = False
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

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.canonical())


def _parse_list(convert):
    return lambda text: tuple(convert(float(x)) for x in text.split(",")) \
        if text else ()


def _format_list(v) -> str:
    return ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"must be true or false, got {text!r}")
    return text == "true"


# (parse, format) of each field annotation of ExperimentConfig
_KINDS = {
    tuple[int, ...]: (_parse_list(int), _format_list),
    tuple[float, ...]: (_parse_list(float), _format_list),
    float | None: (lambda t: None if t == "none" else float(t),
                   lambda v: "none" if v is None else repr(float(v))),
    int: (int, str),
    float: (float, lambda v: repr(float(v))),
    bool: (_parse_bool, lambda v: "true" if v else "false"),
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
    ki = mode_cap_index(modes, spec, s)
    xi = spec.freq_step * modes
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


FIELD_FAMILIES = ("random", "flat", "knapp", "spread")


def make_field(family: str, spec: GridSpec, seed=0):
    if family == "random":
        return random_band_field(spec, seed)
    if family == "flat":
        return flat_field(spec)
    if family == "knapp":
        return knapp_field(spec)
    if family == "spread":
        return spread_field(spec, seed)
    raise ValueError(f"unknown field family {family!r}; have {FIELD_FAMILIES}")


# Each pair fixes its weight parameters so a sweep is reproducible without
# extra knobs.  p is the default exponent for the pair's ratio run.
PAIR_FAMILIES = {
    "random:constant": ("random", "constant", {}, 4.0),
    "random:ball": ("random", "ball", {}, 3.0),
    "flat:ball": ("flat", "ball", {}, 3.0),
    "knapp:constant": ("knapp", "constant", {}, 4.0),
    "knapp:dual-tube": ("knapp", "dual-tube", {"alpha": 1.0, "k": 0}, 4.0),
    "spread:constant": ("spread", "constant", {}, 4.0),
    "random:lattice": ("random", "lattice", {"kappa": 1.0 / 3.0, "c": 0.45}, 3.0),
    "random:parabolic-box": ("random", "parabolic-box",
                             {"boxes": ((0.0, 0.0, 2.0), (8.0, 3.0, 1.0))}, 4.0),
}


def _pair_family(pair: str):
    """(field family, weight family, weight params, default p) of a pair."""
    if pair not in PAIR_FAMILIES:
        raise ValueError(f"unknown pair {pair!r}; have {sorted(PAIR_FAMILIES)}")
    return PAIR_FAMILIES[pair]


def pair_report(pair: str, R: int, p: float | None = None, seed=0):
    """verify_weighted_sq for one built-in (field, weight) pair."""
    ffam, wfam, params, p_default = _pair_family(pair)
    spec = GridSpec(R)
    field = make_field(ffam, spec, seed)
    H = make_weight(wfam, spec, **params)
    return verify_weighted_sq(field, H, p if p is not None else p_default)


def pair_growth_fit(pair: str, R_values=(64, 256, 1024), p: float | None = None,
                    seed=0, band: float = 0.1):
    """Growth exponent of lhs^p / envelope sum for one pair.

    The theorem allows at most logarithmic growth, so the fitted slope
    is compared one-sidedly against 0.
    """
    ratios = [pair_report(pair, R, p, seed).ratio_env for R in R_values]
    p_eff = p if p is not None else PAIR_FAMILIES[pair][3]
    return fit_exponent(f"weighted-env-{pair}-p{p_eff:g}", "gamma", R_values,
                        ratios, 0.0, band=band, sided="upper")


# ---------------------------------------------------------------------------
# weight-functional slope families

def unit_ball_fits(p_values=(2.0, 3.0, 4.0), R_values=(64, 256, 1024),
                   band: float = 0.1):
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
        pieces = cap_decompose(f, theta_scale(R)).pieces.values()
        for p in p_values:
            sq_norm = power_integral(pieces, spec, p, 2 * R) ** (1.0 / p)
            ratios[p].append(lp_norm(f, p, measure=H) / sq_norm)
            kappas[p].append(kappa_max(H, p)[0])
    fits = []
    for p in p_values:
        pred = -2.0 * (1.0 / p - 0.25)
        fits.append(fit_exponent(f"unit-ball-norm-p{p:g}", "sigma", R_values,
                                 ratios[p], pred, band=band))
        fits.append(fit_exponent(f"unit-ball-kappa-p{p:g}", "sigma", R_values,
                                 kappas[p], pred, band=band))
    return fits


def _kappa_fits(name, family, params, p_values, R_values, pred, band, sided):
    """One fit per p of the functional maximum of one weight family over R;
    pred(p) is the predicted slope."""
    weights = {R: make_weight(family, GridSpec(R), **params) for R in R_values}
    fits = []
    for p in p_values:
        vals = [kappa_max(weights[R], p)[0] for R in R_values]
        fits.append(fit_exponent(f"{name}-kappa-p{p:g}", "sigma", R_values,
                                 vals, pred(p), band=band, sided=sided))
    return fits


def alpha_lattice_fits(p_values=(2.0, 3.0, 4.0), R_values=(64, 256, 1024),
                       kappa: float = 1.0 / 3.0, c: float = 0.45,
                       band: float = 0.1):
    """Dilated-lattice weight: functional decay bounded by the dimension.

    The fattened lattice of pitch (R^kappa, R^(2 kappa)) in a ball of
    radius c R carries dimension alpha = 2 - 3 kappa; the functional
    maximum may fall faster than R^(-(2 - alpha)(1/p - 1/4)) but not
    slower, so the comparison is one-sided.
    """
    alpha = 2.0 - 3.0 * kappa
    return _kappa_fits("alpha-lattice", "lattice", {"kappa": kappa, "c": c},
                       p_values, R_values,
                       lambda p: -(2.0 - alpha) * (1.0 / p - 0.25),
                       band, "upper")


def y_lattice_fits(p_values=(2.0, 2.5, 3.0, 4.0),
                   R_values=(4096, 16384, 65536), alpha: float = 1.5,
                   c: float = 0.25, band: float = 0.1):
    """Two-branch exponents of the truncated corner-window lattice.

    Below the crossover p = 4/(3 - alpha) the tube piece drives the
    functional and the slope is -(2 - alpha)/(2p); above it the ball
    piece takes over with -((3 - alpha)/2)(1/p - 1/4).
    """
    p_cross = 4.0 / (3.0 - alpha)

    def pred(p):
        if p <= p_cross:
            return -(2.0 - alpha) / (2.0 * p)
        return -((3.0 - alpha) / 2.0) * (1.0 / p - 0.25)

    return _kappa_fits("y-lattice", "truncated-lattice",
                       {"alpha": alpha, "c": c}, p_values, R_values, pred,
                       band, "two")


# ---------------------------------------------------------------------------
# memory preflight

class PreflightError(RuntimeError):
    def __init__(self, estimate_mb: float, cap_mb: float):
        self.estimate_mb = estimate_mb
        self.cap_mb = cap_mb
        super().__init__(
            f"estimated peak {estimate_mb:.0f} MiB exceeds the configured "
            f"cap {cap_mb:.0f} MiB")


# Bytes per cell of a sampled grid: the coefficients, their inverse
# transform and the copy numpy's ifft2 makes, all complex.  Traced peaks run
# 48 bytes per cell on the sq_norm grid m = 2R at p = 3 (R = 64..1024) and
# on the M x M synthesis of the constant-weight lhs at p = 3.
_GRID_CELL_BYTES = 48

# Bytes per (mode, mode) pair of an autocorrelation (torus.square_sum): the
# products, their offset keys and the sort.  Traced peaks of random:constant
# at p = 4: 11.5 MiB for 415 modes (R = 256), 179.0 MiB for 1637 (R = 1024).
_AUTOCORR_PAIR_BYTES = 70


def _verify_peak_bytes(cfg: "ExperimentConfig", R: int) -> float:
    """The largest of the lhs, the sq_norm grid and the theta-piece
    autocorrelation (sq_norm at p = 4, the envelope integrals), plus the
    per-cap envelope cell integrals, 8 bytes for each of the 16/s
    envelopes of every cap, all held until the envelope sum."""
    ffam, wfam, params, p_default = _pair_family(cfg.family)
    p_values = cfg.p or (p_default,)
    spec = GridSpec(R)
    field = make_field(ffam, spec, cfg.seed)
    pieces = cap_decompose(field, theta_scale(R)).pieces.values()
    est = [_AUTOCORR_PAIR_BYTES * sum(pc.n_modes ** 2 for pc in pieces)]
    grid = any(p not in (2.0, 4.0) for p in p_values)
    if grid:
        est.append(_GRID_CELL_BYTES * (2 * R) ** 2)
    if wfam != "constant":
        atoms = candidate_atoms(wfam, spec, **params)
        est.append(trig_sum_bytes(field.n_modes, n_points=int(atoms)))
    elif grid:
        est.append(_GRID_CELL_BYTES * spec.M ** 2)
    elif 4.0 in p_values:
        est.append(_AUTOCORR_PAIR_BYTES * field.n_modes ** 2)
    cells = sum(16 * round(1 / s) * (2 * round(1 / s) + 1)
                for s in dyadic_scales(R))
    return 8 * cells + max(est)


# kappa-scan: traced allocation peaks run about 120 bytes per candidate
# atom of the weight (building it, then the per-scale location terms a, b
# and z2, held across the caps of the scale, and one key buffer), plus the
# envelope tables cached on the weight: a few hundred bytes per cap and
# about 4R entries of 24 bytes for the slab-shaped supports (dual tube,
# truncated lattice), the widest-spread of the scanned families; a scale's
# per-cap tables and their concatenation are briefly alive together.
_SCAN_ATOM_BYTES = 128
_SCAN_BYTES_PER_R = 96
_SCAN_CAP_BYTES = 600


def _kappa_scan_peak_bytes(cfg: "ExperimentConfig") -> float:
    est = 0.0
    for R in cfg.R:
        atoms = candidate_atoms(cfg.family, GridSpec(R), **_scan_params(cfg))
        if atoms == 0:
            continue
        caps = sum(2 * round(1 / s) + 1 for s in dyadic_scales(R))
        est = max(est, _SCAN_ATOM_BYTES * atoms + _SCAN_BYTES_PER_R * R
                  + _SCAN_CAP_BYTES * caps)
    return est


def _fls_peak_bytes(cfg: "ExperimentConfig") -> float:
    est = 0.0
    for name in _fls_names(cfg):
        for R in cfg.R or _FLS_FAMILIES[name]:
            est = max(est, fls_peak_bytes(name, R, cfg.kappa))
    return est


def preflight_mb(cfg: "ExperimentConfig") -> float:
    """Estimated peak allocation for the resolved config, in MiB."""
    R_max = max(cfg.R) if cfg.R else 1024
    exp = cfg.experiment
    if exp in ("square-verify", "envelope-verify"):
        est = _verify_peak_bytes(cfg, R_max)
    elif exp == "examples-suite":
        est = 4e8
    elif exp == "kappa-scan":
        est = _kappa_scan_peak_bytes(cfg)
    elif exp == "broad-narrow":
        est = max(broad_narrow_peak_bytes(R, cfg.K, cfg.points)
                  for R in cfg.R)
    elif exp == "bilinear":
        est = max(bilinear_peak_bytes(R_s, cfg.K) for R_s in cfg.R)
    elif exp == "schrodinger-fls":
        est = _fls_peak_bytes(cfg)
    else:
        est = 2e8
    return est / 2 ** 20


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
    return rows, [], checks


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
    """Shared body of the two verification experiments."""
    rows, fits, checks = [], [], []
    p_values = cfg.p or (_pair_family(cfg.family)[3],)
    for p in p_values:
        ratios = []
        for R in cfg.R:
            rep = pair_report(cfg.family, R, p, cfg.seed)
            ratios.append(getattr(rep, ratio_key))
            rows.append({"R": R, "p": p, "family": cfg.family,
                         "lhs": rep.lhs, "sq_norm": rep.sq_norm,
                         "kappa_max": rep.kappa_max, "sq_rhs": rep.sq_rhs,
                         "env_rhs": rep.env_rhs, "ratio_sq": rep.ratio_sq,
                         "ratio_env": rep.ratio_env,
                         "measured": getattr(rep, ratio_key),
                         "zero_field": rep.zero_field})
            if cfg.out and ratio_key == "ratio_env":
                rep.write_terms_csv(os.path.join(
                    cfg.out, f"{cfg.experiment}_{cfg.family.replace(':', '-')}"
                    f"_R{R}_p{p:g}_terms.csv"))
        finite = all(math.isfinite(r) and r >= 0 for r in ratios)
        checks.append(_check(f"{ratio_key}-finite-p{p:g}", finite,
                             f"ratios {['%.3g' % r for r in ratios]}"))
        if len(cfg.R) >= 3:
            fit = fit_exponent(
                f"{cfg.experiment}-{cfg.family}-p{p:g}", "gamma", cfg.R,
                ratios, 0.0, band=cfg.band, sided="upper")
            fits.append(fit.to_dict())
            checks.append(_fit_check(fit))
    return rows, fits, checks


def _run_square_verify(cfg):
    return _pair_rows(cfg, "ratio_sq")


def _run_envelope_verify(cfg):
    return _pair_rows(cfg, "ratio_env")


def _run_broad_narrow(cfg):
    rows, checks = [], []
    p = cfg.p[0]
    total_violations = 0
    worst = 0.0
    for R in cfg.R:
        spec = GridSpec(R)
        rng = np.random.default_rng(cfg.seed + R)
        for t in range(cfg.trials):
            f = random_band_field(spec, seed=int(rng.integers(2 ** 31)),
                                  density=0.5)
            pts = rng.uniform(0.0, spec.L, size=(cfg.points, 2))
            rep = broad_narrow(f, pts, p, cfg.K)
            viol = int(np.sum(rep.lhs > rep.bound))
            total_violations += viol
            worst = max(worst, rep.max_empirical)
            rows.append({"R": R, "p": p, "K": cfg.K, "trial": t,
                         "points": cfg.points, "violations": viol,
                         "max_empirical": rep.max_empirical,
                         "C_certified": rep.C_certified})
    checks.append(_check("pointwise-split-violations", total_violations == 0,
                         f"{total_violations} violations over "
                         f"{len(rows)} fields, max empirical constant "
                         f"{worst:.4g}"))
    return rows, [], checks


def _run_bilinear(cfg):
    rows, checks = [], []
    by_scale = {}
    all_finite = True
    l4_ok = True
    for R_s in cfg.R:
        reports = bilinear_trials(R_s, cfg.K, cfg.trials, seed=cfg.seed)
        if cfg.out:
            write_constants_csv(reports, os.path.join(
                cfg.out, f"bilinear_R{R_s}_K{cfg.K}_constants.csv"))
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
        by_scale[R_s] = float(np.median(c_l4))
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
    return rows, [], checks


# the lower-bound families of schrodinger-fls and their default scales
_FLS_FAMILIES = {**FLS_DEFAULT_R, "nikodym": (64, 256, 1024)}


def _fls_names(cfg) -> tuple:
    names = (cfg.family,) if cfg.family else tuple(_FLS_FAMILIES)
    for name in names:
        if name not in _FLS_FAMILIES:
            raise ValueError(f"unknown lower-bound family {name!r}")
    return names


def _fit_report(cfg, fits):
    """Rows, fit dicts and checks of a run made of exponent fits; with an
    out directory each fit also goes to fit_<name>.json."""
    rows, checks = [], []
    for fit in fits:
        checks.append(_fit_check(fit))
        for R, lr in zip(fit.R_values, fit.log_ratios):
            rows.append({"R": R, "family": fit.name, "measured": math.exp(lr)})
        if cfg.out:
            fit.write_json(os.path.join(cfg.out, f"fit_{fit.name}.json"))
    return rows, [fit.to_dict() for fit in fits], checks


def _run_schrodinger_fls(cfg):
    fits = []
    for name in _fls_names(cfg):
        R_values = cfg.R or _FLS_FAMILIES[name]
        if name == "nikodym":
            fits += nikodym_fits(cfg.p, R_values, seed=cfg.seed,
                                 band=cfg.band)
        elif name == "packet":
            fits += fls_fits("packet", cfg.p, R_values=R_values,
                             alpha=cfg.alpha, band=cfg.band)
        else:
            fits += fls_fits(name, cfg.p, R_values=R_values,
                             kappa=cfg.kappa, band=cfg.band)
    return _fit_report(cfg, fits)


def _run_certificates(cfg):
    rows, checks = [], []
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
            if cfg.out:
                path = os.path.join(cfg.out, f"certificates_{name}_R{R}.json")
                with open(path, "w") as fh:
                    json.dump(comps, fh, sort_keys=True, indent=1)
                    fh.write("\n")
    checks.append(_check("measure-bounds", ok,
                         f"{len(rows)} comparisons within x8" if ok
                         else "a comparison left (0, 8]"))
    return rows, [], checks


def _run_examples_suite(cfg):
    """Every example family as one exponent fit each, canonical grids."""
    R_kappa = cfg.R or (64, 256, 1024)
    p_main = cfg.p or (2.0, 3.0, 4.0)
    fits = []
    fits += unit_ball_fits(p_main, R_kappa, band=cfg.band)
    fits += alpha_lattice_fits(p_main, R_kappa, kappa=1.0 / 3.0, c=0.45,
                               band=cfg.band)
    fits += y_lattice_fits(band=cfg.band)
    fits += fls_fits("chirp", (3.0, 4.0), band=cfg.band)
    for alpha in (0.5, 1.5):
        fits += fls_fits("packet", (4.0,), alpha=alpha, band=cfg.band)
    fits += fls_fits("lattice", (3.0, 4.0), band=cfg.band)
    fits += nikodym_fits((2.0, 4.0), (64, 256, 1024), seed=cfg.seed,
                         band=cfg.band)
    return _fit_report(cfg, fits)


# name: (runner, help, defaults of the fields left empty)
EXPERIMENTS = {
    "kappa-scan": (_run_kappa_scan,
                   "weight functional maxima over a weight family",
                   {"R": (64, 256), "p": (2.0, 3.0, 4.0),
                    "family": "constant"}),
    "square-verify": (_run_square_verify,
                      "first-power square-function inequality ratios",
                      {"R": (64, 256), "family": "random:constant"}),
    "envelope-verify": (_run_envelope_verify,
                        "envelope-sum inequality ratios and growth",
                        {"R": (64, 256), "family": "random:constant"}),
    "broad-narrow": (_run_broad_narrow,
                     "pointwise split certificate on random fields",
                     {"R": (64, 256), "p": (4.0,)}),
    "bilinear": (_run_bilinear,
                 "bilinear constants over random separated pairs",
                 {"R": (64, 256)}),
    "schrodinger-fls": (_run_schrodinger_fls,
                        "propagator lower-bound slope families",
                        {"p": (3.0, 4.0)}),
    "certificates": (_run_certificates, "rescaled-measure dimension bounds",
                     {"R": (64, 256)}),
    "examples-suite": (_run_examples_suite,
                       "every example family as one exponent fit", {}),
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

@dataclass
class Report:
    """One run's results.  preflight_mb, the memory estimate the run was
    admitted with, stays out of the report's bytes (to_dict, markdown),
    so a recalibrated estimate leaves reports unchanged."""

    experiment: str
    config: dict
    config_hash: str
    preflight_mb: float
    rows: list
    fits: list
    checks: list
    schema: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        return {"schema": self.schema, "experiment": self.experiment,
                "config": self.config, "config_hash": self.config_hash,
                "rows": self.rows, "fits": self.fits, "checks": self.checks,
                "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def check_lines(self) -> list:
        return [f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
                f"{c['detail']}" for c in self.checks]


def run(cfg: ExperimentConfig) -> Report:
    cfg = resolve(cfg)
    est = preflight_mb(cfg)
    if est > cfg.mem_cap_mb:
        raise PreflightError(est, cfg.mem_cap_mb)
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
    rows, fits, checks = EXPERIMENTS[cfg.experiment][0](cfg)
    return Report(experiment=cfg.experiment, config=cfg.to_dict(),
                  config_hash=cfg.content_hash(), preflight_mb=est,
                  rows=rows, fits=fits, checks=checks)


_MD_COLUMNS = ("R", "p", "measured", "predicted", "ratio")


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit(report: Report, fmt: str, out_dir) -> list:
    """Write the report in one format; returns the created paths.

    json is the canonical machine-readable summary, csv adds the row and
    fit tables as sidecars, md renders the measured-vs-predicted table.
    All three are byte-stable for a fixed resolved config.
    """
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, report.experiment)
    paths = []
    if fmt == "json":
        path = base + ".json"
        with open(path, "w") as fh:
            fh.write(report.to_json())
        paths.append(path)
    elif fmt == "csv":
        paths.append(_write_rows_csv(base + "_rows.csv", report.rows))
        paths.append(_write_rows_csv(base + "_fits.csv", report.fits))
    elif fmt == "md":
        path = base + ".md"
        with open(path, "w") as fh:
            fh.write(_render_md(report))
        paths.append(path)
    else:
        raise ValueError(f"unknown format {fmt!r}; have json, csv, md")
    return paths


def _write_rows_csv(path, rows) -> str:
    cols = sorted({k for row in rows for k in row}) if rows \
        else list(_MD_COLUMNS)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_csv_cell(row.get(k)) for k in cols])
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
                    help="any of json,csv,md (comma-separated)")
    for f in dataclass_fields(ExperimentConfig):
        if f.name == "experiment":
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            sp.add_argument(flag, action="store_const", const="true")
        else:
            sp.add_argument(flag)


def config_from_args(args) -> ExperimentConfig:
    """The config file, if any, overridden by every flag given; the
    subcommand sets experiment."""
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = parse_config_text(fh.read())
    for f in dataclass_fields(ExperimentConfig):
        text = getattr(args, f.name)
        if text is not None:
            base[f.name] = _parse_value(f.name, text)
    return ExperimentConfig(**base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavenvelope",
        description="experiment runner for the envelope toolkit")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, text, _) in EXPERIMENTS.items():
        _add_flags(sub.add_parser(name, help=text))
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = run(cfg)
    except (OSError, ValueError, PreflightError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.check_lines():
        print(line)
    if cfg.out:
        for fmt in args.format.split(","):
            for path in emit(report, fmt.strip(), cfg.out):
                print(f"wrote {path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
