"""The benchmark's workloads: the operations each runs and their checks.

A workload is a list of experiment configs, every input set explicitly so
that a changed CLI default cannot change the work.  One operation is one
(experiment, R, p) evaluation or one fit of an experiment's report.  An
operation fails when its run raises, when the report has a FAIL check, or
when one of the checks below rejects its output.

The checks compare against computations in refs.py or against properties
the method must have; none compares against saved output, so a more exact
method passes them too.
"""

from __future__ import annotations

import math

import numpy as np

import refs

ENVELOPE_R = (64, 256)
ENVELOPE_P = (2.0, 4.0)
KAPPA_P = (2.0, 2.5, 3.0, 4.0)
BRUTE_R = 64
BILINEAR_SEED = 0

# The subgrid envelope side drifts from the finest grid by up to 4e-4 over
# the registered pairs; a method at least that exact passes.
REFINEMENT_TOL = 1e-3
EXACT_TOL = 1e-12
QUADRATURE_TOL = 1e-9
SLOPE_BAND = 0.1


def program_seed(seed: int) -> int:
    return int(seed) % 2 ** 31


def configs(workload: str, seed: int) -> list:
    """The experiment configs of one round, as ExperimentConfig kwargs."""
    s = program_seed(seed)
    if workload == "envelope":
        # one run per p, so the calibration kernel runs between them
        return [dict(experiment="envelope-verify", family="random:constant",
                     R=ENVELOPE_R, p=(p,), seed=s, band=0.1)
                for p in ENVELOPE_P]
    if workload == "kappa":
        return [
            dict(experiment="kappa-scan", family="ball", R=(64, 256, 1024),
                 p=KAPPA_P, c=1.0, seed=s),
            dict(experiment="kappa-scan", family="lattice",
                 R=(64, 256, 1024), p=KAPPA_P, kappa=1.0 / 3.0, c=0.45,
                 seed=s),
            dict(experiment="kappa-scan", family="truncated-lattice",
                 R=(4096, 16384, 65536), p=KAPPA_P, alpha=1.5, c=0.25,
                 seed=s),
            dict(experiment="kappa-scan", family="dual-tube", R=(1024,),
                 p=KAPPA_P, alpha=dual_tube_alpha(seed), seed=s),
        ]
    if workload == "pointwise":
        return [
            dict(experiment="schrodinger-fls", family="chirp",
                 R=(256, 1024, 4096), p=(3.0, 4.0), band=0.1, seed=s),
            dict(experiment="schrodinger-fls", family="packet",
                 R=(256, 1024, 4096), p=(3.0, 4.0), alpha=1.5, band=0.1,
                 seed=s),
            dict(experiment="schrodinger-fls", family="lattice",
                 R=(4096, 32768, 262144), p=(3.0, 4.0), kappa=1.0 / 3.0,
                 band=0.1, seed=s),
            dict(experiment="schrodinger-fls", family="nikodym",
                 R=(64, 256, 1024), p=(3.0, 4.0), seed=s),
            dict(experiment="broad-narrow", R=(64, 256), p=(4.0,), K=4,
                 trials=25, points=4000, seed=s),
            # One R per run: the cross-R variation check of a two-R run
            # fails on some seeds (CHANGES.md), so it is left out.  The
            # trials draw from a fixed seed: their mix of ball, lattice and
            # no weight changes the work by up to 2x from seed to seed.
            dict(experiment="bilinear", R=(16,), K=4, trials=25,
                 seed=BILINEAR_SEED),
            dict(experiment="bilinear", R=(64,), K=4, trials=25,
                 seed=BILINEAR_SEED),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def dual_tube_alpha(seed: int) -> float:
    """Dimension of the dual-tube weight: changes its density, not its atoms."""
    return float(np.random.default_rng(program_seed(seed)).uniform(0.5, 1.5))


def op_ids(cfg: dict) -> list:
    """The operations one config makes, in a fixed order."""
    exp, fam = cfg["experiment"], cfg.get("family", "")
    head = f"{exp}:{fam}" if fam else exp
    if exp in ("broad-narrow", "bilinear"):
        return [f"{head}:R{R}" for R in cfg["R"]]
    ids = [f"{head}:R{R}:p{p:g}" for p in cfg["p"] for R in cfg["R"]]
    if exp == "schrodinger-fls" or (exp == "envelope-verify"
                                     and len(cfg["R"]) >= 3):
        ids += [f"fit:{head}:p{p:g}" for p in cfg["p"]]
    return ids


# ---------------------------------------------------------------------------
# checks: each returns {op id: [reason, ...]} for the operations it rejects

def check(workload: str, seed: int, results: list) -> dict:
    """results: (config, report) per config, report None when it raised."""
    bad = {}
    for cfg, report in results:
        if report is None:
            continue
        fn = _CHECKS[cfg["experiment"]]
        for op, reason in fn(cfg, report, seed):
            bad.setdefault(op, []).append(reason)
    return bad


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _check_envelope(cfg, report, seed):
    from wavenvelope.torus import GridSpec, random_band_field
    head = f"{cfg['experiment']}:{cfg['family']}"
    rows = {(r["R"], r["p"]): r for r in report.rows}
    n_c_w = refs.c_w()
    for p in cfg["p"]:
        ratios = []
        for R in cfg["R"]:
            op = f"{head}:R{R}:p{p:g}"
            row = rows.get((R, p))
            if row is None:
                yield op, "no row in the report"
                continue
            ratios.append(row["ratio_env"])
            spec = GridSpec(R)
            f = random_band_field(spec, program_seed(seed))
            if abs(row["kappa_max"] - 1.0) > EXACT_TOL:
                yield op, f"kappa_max {row['kappa_max']!r} != 1 for lambda = 1"
            if p == 4.0:
                want = refs.quartic_norm(f.freqs, f.amps, spec.L)
                if _rel(row["lhs"] ** 4, want) > QUADRATURE_TOL:
                    yield op, f"lhs^4 {row['lhs'] ** 4!r} vs quartic {want!r}"
            if p == 2.0 and R <= 256:
                xi1 = spec.freq_step * f.freqs[:, 0]
                wsq = np.sum(refs.cap_weights(xi1, R ** -0.5) ** 2, axis=1)
                want = len(refs.dyadic_scales(R)) * n_c_w * spec.L ** 2 * \
                    float(np.sum(np.abs(f.amps) ** 2 * wsq))
                if _rel(row["env_rhs"], want) > EXACT_TOL:
                    yield op, f"p = 2 env_rhs {row['env_rhs']!r} vs {want!r}"
            if R == 64:
                want = refs.full_grid_env_rhs(f.freqs, f.amps, R, p)
                if _rel(row["env_rhs"], want) > REFINEMENT_TOL:
                    yield op, f"env_rhs {row['env_rhs']!r} vs finest grid {want!r}"
        if len(ratios) == len(cfg["R"]) >= 2:
            slope = refs.slope(cfg["R"], ratios)
            if not slope <= SLOPE_BAND:
                for R in cfg["R"]:
                    yield (f"{head}:R{R}:p{p:g}",
                           f"growth slope {slope:+.4f} > 0.1")


def _kappa_prediction(family: str, p: float, cfg: dict):
    """(predicted slope, sidedness) of kappa_max against R, or None."""
    if family == "ball":
        return -2.0 * (1.0 / p - 0.25), "two"
    if family == "lattice":
        alpha = 2.0 - 3.0 * cfg["kappa"]
        return -(2.0 - alpha) * (1.0 / p - 0.25), "upper"
    if family == "truncated-lattice":
        alpha = cfg["alpha"]
        if p <= 4.0 / (3.0 - alpha):
            return -(2.0 - alpha) / (2.0 * p), "two"
        return -((3.0 - alpha) / 2.0) * (1.0 / p - 0.25), "two"
    return None


def _slope_ok(slope: float, pred: float, sided: str) -> bool:
    if sided == "upper":
        return slope <= pred + SLOPE_BAND
    if sided == "lower":
        return slope >= pred - SLOPE_BAND
    return abs(slope - pred) <= SLOPE_BAND


def _check_kappa(cfg, report, seed):
    from wavenvelope.cli import ExperimentConfig, run
    from wavenvelope.measures import make_weight
    from wavenvelope.torus import GridSpec
    fam = cfg["family"]
    head = f"{cfg['experiment']}:{fam}"
    rows = {(r["R"], r["p"]): r for r in report.rows}
    # the brute force runs at R = 64; families scanned only at larger R are
    # scanned once more there, outside the timed operations
    ref_rows = rows
    if BRUTE_R not in cfg["R"]:
        extra = run(ExperimentConfig(**dict(cfg, R=(BRUTE_R,))))
        ref_rows = {(r["R"], r["p"]): r for r in extra.rows}
    spec = GridSpec(BRUTE_R)
    params = {"ball": dict(rho=cfg.get("c")),
              "lattice": dict(kappa=cfg.get("kappa"), c=cfg.get("c")),
              "truncated-lattice": dict(alpha=cfg.get("alpha"),
                                        c=cfg.get("c")),
              "dual-tube": dict(alpha=cfg.get("alpha"))}[fam]
    H = make_weight(fam, spec, **params)
    for p in cfg["p"]:
        want = refs.brute_kappa_max(H.ij, H.mass, spec.delta, BRUTE_R,
                                    spec.L, p)
        got = ref_rows[(BRUTE_R, p)]["measured"]
        if abs(got - want) > EXACT_TOL * max(want, 1.0):
            for R in cfg["R"]:
                yield (f"{head}:R{R}:p{p:g}",
                       f"kappa_max {got!r} vs enumeration {want!r} at R = 64")
        for R in cfg["R"]:
            val = rows[(R, p)]["measured"]
            if not (math.isfinite(val) and val >= 0.0):
                yield f"{head}:R{R}:p{p:g}", f"kappa_max {val!r}"
        pred = _kappa_prediction(fam, p, cfg)
        if pred is not None and len(cfg["R"]) >= 3:
            slope = refs.slope(cfg["R"], [rows[(R, p)]["measured"]
                                          for R in cfg["R"]])
            if not _slope_ok(slope, *pred):
                for R in cfg["R"]:
                    yield (f"{head}:R{R}:p{p:g}",
                           f"slope {slope:+.4f} vs {pred[0]:+.4f} ({pred[1]})")


def _fls_prediction(family: str, p: float, cfg: dict):
    if family == "chirp":
        return 0.5 - 1.0 / p, "two"
    if family == "packet":
        a = cfg["alpha"]
        return min(a, 2.0 * a - 1.0) / (2.0 * p), "two"
    if family == "lattice":
        alpha = 2.0 - 3.0 * cfg["kappa"]
        return -(2.0 - alpha) * (1.0 / p - 1.0 / 6.0), "two"
    # maximal tube averages grow at most logarithmically
    return 0.0, "upper"


def _check_fls(cfg, report, seed):
    fam = cfg["family"]
    head = f"{cfg['experiment']}:{fam}"
    by_name = {}
    for row in report.rows:
        by_name.setdefault(row["family"], []).append(row)
    if len(report.fits) != len(cfg["p"]):
        for op in op_ids(cfg):
            yield op, f"{len(report.fits)} fits for {len(cfg['p'])} exponents"
        return
    for p, fit in zip(cfg["p"], report.fits):
        rows = by_name.get(fit["name"], [])
        R_vals = [r["R"] for r in rows]
        vals = [r["measured"] for r in rows]
        if R_vals != [float(R) for R in cfg["R"]] or \
                not all(math.isfinite(v) and v > 0 for v in vals):
            for R in cfg["R"]:
                yield f"{head}:R{R}:p{p:g}", f"rows {rows!r}"
            continue
        pred, sided = _fls_prediction(fam, p, cfg)
        slope = refs.slope(R_vals, vals)
        if not _slope_ok(slope, pred, sided):
            yield (f"fit:{head}:p{p:g}",
                   f"slope {slope:+.4f} vs {pred:+.4f} ({sided})")


def _check_broad_narrow(cfg, report, seed):
    from wavenvelope.decomp import broad_narrow
    from wavenvelope.torus import GridSpec, random_band_field
    p, K = cfg["p"][0], cfg["K"]
    C_stage = 2.0 ** (p - 1) * 3.0 ** p
    for R in cfg["R"]:
        op = f"{cfg['experiment']}:R{R}"
        rows = [r for r in report.rows if r["R"] == R]
        if len(rows) != cfg["trials"]:
            yield op, f"{len(rows)} trials, want {cfg['trials']}"
        levels = math.ceil(round(math.log(math.isqrt(R), K), 9))
        for r in rows:
            if r["violations"] != 0:
                yield op, f"{r['violations']} violations in trial {r['trial']}"
            if _rel(r["C_certified"], C_stage ** levels) > EXACT_TOL:
                yield op, f"C_certified {r['C_certified']!r}"
            if not r["max_empirical"] <= r["C_certified"]:
                yield op, f"empirical {r['max_empirical']!r} above certified"
        # |f| at a sample of the first trial's points, by direct summation
        spec = GridSpec(R)
        rng = np.random.default_rng(cfg["seed"] + R)
        f = random_band_field(spec, seed=int(rng.integers(2 ** 31)),
                              density=0.5)
        pts = rng.uniform(0.0, spec.L, size=(cfg["points"], 2))
        sample = pts[::max(1, cfg["points"] // 16)]
        got = broad_narrow(f, sample, p, K).lhs ** (1.0 / p)
        want = np.abs(refs.direct_sum(f.freqs, f.amps, spec.L, sample))
        err = float(np.max(np.abs(got - want) / np.maximum(want, 1e-12)))
        if err > QUADRATURE_TOL:
            yield op, f"|f| off its direct sum by {err:.3g}"


def _check_bilinear(cfg, report, seed):
    for R in cfg["R"]:
        op = f"{cfg['experiment']}:R{R}"
        rows = [r for r in report.rows if r["R"] == R]
        if len(rows) != cfg["trials"]:
            yield op, f"{len(rows)} trials, want {cfg['trials']}"
        for r in rows:
            ratio = r["max_cell_ratio"]
            consts = (r["C_bil"], r["C_l4"], r["int_BY"])
            if not all(math.isfinite(c) and c >= 0 for c in consts):
                yield op, f"trial {r['pair_id']}: constants {consts!r}"
            elif not 0.0 <= ratio <= 1.0:
                yield op, f"trial {r['pair_id']}: cell ratio {ratio!r}"
            # restricting to Y cannot raise the integral, so
            # C_l4 * max cell ratio <= C_bil
            elif r["C_l4"] * ratio > r["C_bil"] * (1 + 1e-9) + 1e-300 \
                    or not r["l4_holds"]:
                yield op, f"trial {r['pair_id']}: cell-ratio L4 bound fails"


_CHECKS = {
    "envelope-verify": _check_envelope,
    "kappa-scan": _check_kappa,
    "schrodinger-fls": _check_fls,
    "broad-narrow": _check_broad_narrow,
    "bilinear": _check_bilinear,
}
