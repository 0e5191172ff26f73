"""Experiment orchestration: sweeps, report generation, figure-data emission.

Every run is driven by an `ExperimentConfig` and a master seed; grid points
draw their randomness from per-point derived streams, so results do not
depend on execution order and a saved manifest replays byte-for-byte.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import density as density_mod
from . import evt, observables, theory
from .errors import CmlSyncError, ConfigError, DomainError
# simulate_ensemble stays importable here: bench/tracing.py wraps
# experiments.simulate_ensemble
from .lattice import (  # noqa: F401
    GridPoint, LocalMap, MapSpec, NoiseSpec, lockstep_gaps, simulate_ensemble,
    step)

_LAMBDA_WARN_GAMMA = 2.0 / 3.0

EI_SWEEP_COLUMNS = [
    "n", "gamma", "epsilon", "realization",
    "theta_suveges", "theta_qk", "theta_theory", "theta_asymptotic",
    "xi_gpd", "flag",
]


def int_field(name: str, value, minimum: int) -> int:
    """A config integer >= minimum.  3 and 3.0 pass as 3; 2.5, "3" and true
    raise `ConfigError`."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def real_field(name: str, value, low: float, high: float,
               open_low: bool = False) -> float:
    """A config real in [low, high), or in (low, high) with open_low, as a
    float.  NaN, "0.5" and true raise `ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        raise ConfigError(f"{name} is out of range, got {value!r}") from None
    if not (low < value if open_low else low <= value) or not value < high:
        raise ConfigError(f"{name} must lie in {'(' if open_low else '['}"
                          f"{low}, {high}), got {value!r}")
    return value


def list_field(name: str, value, item) -> tuple:
    """A nonempty config list as a tuple of ``item(name, entry)``."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{name} must be a nonempty list, got {value!r}")
    return tuple(item(name, v) for v in value)


@dataclass
class ExperimentConfig:
    """Declarative sweep description (flat, JSON-serializable)."""

    slope: int = 3
    n_values: tuple[int, ...] = (2,)
    gamma_values: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    epsilons: tuple[float, ...] = (0.0,)
    length: int = 10_000
    quantile: float = 0.98
    observable: str = "global_sync"
    realizations: int = 10
    seed: int = 0
    burn_in: int = 1000
    threads: int = 1
    out_dir: str | None = None

    def __post_init__(self):
        for name, minimum in (("slope", 2), ("length", 2), ("realizations", 1),
                              ("seed", 0), ("burn_in", 0), ("threads", 1)):
            setattr(self, name, int_field(name, getattr(self, name), minimum))
        for name, item in (
                ("n_values", partial(int_field, minimum=2)),
                ("gamma_values", partial(real_field, low=0.0, high=1.0)),
                ("epsilons", partial(real_field, low=0.0, high=math.inf))):
            setattr(self, name, list_field(name, getattr(self, name), item))
        self.quantile = real_field("quantile", self.quantile, 0.0, 1.0,
                                   open_low=True)
        if not (isinstance(self.observable, str)
                and self.observable in observables.OBSERVABLES):
            raise ConfigError(f"unknown observable {self.observable!r}; "
                              f"expected one of {sorted(observables.OBSERVABLES)}")
        for name, values, key in (("gamma", self.gamma_values, _gamma_key),
                                  ("epsilon", self.epsilons, _eps_key)):
            seen = {}
            for v in values:
                if seen.setdefault(key(v), v) != v:
                    raise ConfigError(
                        f"{name} values {seen[key(v)]} and {v} share the seed "
                        f"and file key {key(v)}; make them further apart"
                    )

    @property
    def local_map(self) -> LocalMap:
        return LocalMap.affine_mod1(self.slope)

    def warnings(self) -> list[str]:
        out = []
        bad = [g for g in self.gamma_values if g > _LAMBDA_WARN_GAMMA]
        if bad:
            out.append(
                f"gamma values {bad} exceed the uniform-hyperbolicity "
                f"reference bound {_LAMBDA_WARN_GAMMA:.4g}"
            )
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("n_values", "gamma_values", "epsilons"):
            d[key] = list(d[key])
        return d


@dataclass
class SweepResult:
    config: ExperimentConfig
    rows: list[dict] = field(default_factory=list)
    aggregates: list[dict] = field(default_factory=list)


def _point_seed(master: int, *indices: int) -> int:
    """Stable per-grid-point seed independent of execution order."""
    ss = np.random.SeedSequence([int(master), *map(int, indices)])
    return int(ss.generate_state(1, np.uint64)[0])


def _gamma_key(gamma: float) -> int:
    return int(round(gamma * 10_000))


def _eps_key(epsilon: float) -> int:
    return int(round(epsilon * 10**8))


def _grid(config: ExperimentConfig):
    for n in config.n_values:
        for gamma in config.gamma_values:
            for eps in config.epsilons:
                yield n, gamma, eps


def _n_group(config: ExperimentConfig, n: int, *tag: int,
             noise: bool = True, realizations: int | None = None
             ) -> list[GridPoint]:
    """The grid points of size n, in (gamma, eps) order, each with the
    stream keyed by (seed, n, gamma key, eps key, *tag); ``noise=False``
    drops the eps key and the noise, as the compound-Poisson streams always
    have."""
    points = []
    for gamma in config.gamma_values:
        for eps in config.epsilons if noise else (None,):
            eps_key = () if eps is None else (_eps_key(eps),)
            seed = _point_seed(config.seed, n, _gamma_key(gamma), *eps_key,
                               *tag)
            points.append(GridPoint(gamma, 0.0 if eps is None else eps, seed,
                                    realizations or config.realizations))
    return points


def _observed(config: ExperimentConfig, n: int, *tag: int, **group
              ) -> list[tuple[GridPoint, np.ndarray, np.ndarray]]:
    """One lock-step pass over the n-group keyed by ``tag``: per grid point,
    the point, its rows' (R, length) series of the config's observable and
    their ``collapsed`` flags."""
    points = _n_group(config, n, *tag, **group)
    series, final = lockstep_gaps(
        config.local_map, n, points, config.length, config.burn_in,
        observables.OBSERVABLES[config.observable].value)
    out, start = [], 0
    for p in points:
        rows = slice(start, start + p.realizations)
        start = rows.stop
        out.append((p, series[rows], _collapsed(
            final[rows], MapSpec(config.local_map, n, p.gamma))))
    return out


def _map_n(config: ExperimentConfig, worker) -> list:
    """worker(n) for every n of the grid, in order; with threads > 1 the
    n-groups run on a pool of that many threads."""
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            return list(pool.map(worker, config.n_values))
    return [worker(n) for n in config.n_values]


def _collapsed(final: np.ndarray, spec: MapSpec) -> np.ndarray:
    """Per realization: is its final state a bitwise fixed point of the update?

    Dyadic slopes shift bits out of a float until the orbit sits exactly on
    a fixed point such as 0; its observable is then +inf at every step, and
    no extremal-index estimate of it means anything.
    """
    return np.all(step(final, spec) == final, axis=-1)


def _ei_group(config: ExperimentConfig, n: int) -> list[dict]:
    rows = []
    for point, values, collapsed in _observed(config, n):
        try:
            theta_theory, theta_asym = observables.OBSERVABLES[
                config.observable].closed_form_ei(n, point.gamma,
                                                  config.local_map)
        except CmlSyncError:
            theta_theory = theta_asym = None
        for r, (series, dead) in enumerate(zip(values, collapsed)):
            rows.append(_ei_row(config, series, dead, {
                "n": n, "gamma": point.gamma, "epsilon": point.epsilon,
                "realization": r, "theta_suveges": None, "theta_qk": None,
                "theta_theory": theta_theory, "theta_asymptotic": theta_asym,
                "xi_gpd": None, "flag": "",
            }))
    return rows


def _ei_row(config: ExperimentConfig, series: np.ndarray, collapsed: bool,
            row: dict) -> dict:
    """``row`` with the estimates of one realization's series."""
    if collapsed:
        row["flag"] = "collapsed"
        return row
    flags = []
    try:
        u = observables.threshold_from_quantile(series, config.quantile)
        ind = observables.exceedance_indicator(series, u)
        row["theta_suveges"] = evt.suveges_ei(ind, config.quantile).theta
    except CmlSyncError as exc:
        flags.append(f"suveges:{type(exc).__name__}")
        series = None
    if series is not None:
        try:
            row["theta_qk"] = evt.qk_return_estimator(ind)[1].theta
        except CmlSyncError as exc:
            flags.append(f"qk:{type(exc).__name__}")
        try:
            row["xi_gpd"] = evt.fit_gpd_mle(series[series > u], threshold=u).xi
        except CmlSyncError as exc:
            flags.append(f"gpd:{type(exc).__name__}")
    row["flag"] = ";".join(flags)
    return row


def _aggregate(rows: list[dict]) -> list[dict]:
    """Mean and sd rows per grid point, skipping flagged-missing entries."""
    keys = sorted({(r["n"], r["gamma"], r["epsilon"]) for r in rows})
    stat_cols = ["theta_suveges", "theta_qk", "theta_theory",
                 "theta_asymptotic", "xi_gpd"]
    out = []
    for n, gamma, eps in keys:
        group = [r for r in rows
                 if (r["n"], r["gamma"], r["epsilon"]) == (n, gamma, eps)]
        for label, fn in (("mean", np.mean), ("sd", lambda v: np.std(v, ddof=1))):
            agg = {"n": n, "gamma": gamma, "epsilon": eps,
                   "realization": label, "flag": ""}
            for col in stat_cols:
                vals = [r[col] for r in group if r[col] is not None]
                agg[col] = float(fn(vals)) if len(vals) > (label == "sd") else None
            out.append(agg)
    return out


def run_ei_sweep(config: ExperimentConfig) -> SweepResult:
    """Extremal-index estimates over the (n, gamma, epsilon) grid.

    One row per grid point per realization, plus mean/sd aggregate rows;
    estimator failures flag the row instead of aborting the sweep.
    """
    rows = [row for group in _map_n(config, partial(_ei_group, config))
            for row in group]
    return SweepResult(config=config, rows=rows, aggregates=_aggregate(rows))


def export_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=EI_SWEEP_COLUMNS)
        writer.writeheader()
        for row in result.rows + result.aggregates:
            writer.writerow({k: _fmt(v) for k, v in row.items()})


def make_output_dir(path) -> None:
    """Make directory `path` and its parents; an OS refusal, such as a file
    in the way, is a `ConfigError`."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc}") from exc


def write_json(path, data) -> None:
    """`data` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return v


# ---------------------------------------------------------------------------
# GEV block-maxima sweep
# ---------------------------------------------------------------------------

def run_gev_sweep(config: ExperimentConfig, block_size: int = 100) -> SweepResult:
    """GEV fits to block maxima of the observable, per grid point.

    Maxima over infinite observable values (exact diagonal hits) are dropped
    before fitting, with the count reported.
    """
    if config.length // block_size < 30:
        raise ConfigError("length must give at least 30 blocks")

    def group(n):
        usable = config.length - config.length % block_size
        rows = []
        for point, values, collapsed in _observed(config, n, 1):
            for r, (series, dead) in enumerate(zip(values, collapsed)):
                maxima = series[:usable].reshape(-1, block_size).max(axis=1)
                dropped = int(np.sum(~np.isfinite(maxima)))
                row = {"n": n, "gamma": point.gamma, "epsilon": point.epsilon,
                       "realization": r, "xi": None, "mu": None,
                       "sigma": None, "dropped_blocks": dropped, "flag": ""}
                if dead:
                    row["flag"] = "collapsed"
                else:
                    try:
                        fit = evt.fit_gev_mle(maxima[np.isfinite(maxima)])
                        row.update(xi=fit.xi, mu=fit.mu, sigma=fit.sigma)
                    except CmlSyncError as exc:
                        row["flag"] = f"gev:{type(exc).__name__}"
                rows.append(row)
        return rows

    rows = [row for rows in _map_n(config, group) for row in rows]
    return SweepResult(config=config, rows=rows)


def export_gev_csv(result: SweepResult, path) -> None:
    cols = ["n", "gamma", "epsilon", "realization", "xi", "mu", "sigma",
            "dropped_blocks", "flag"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        for row in result.rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})


# ---------------------------------------------------------------------------
# Waiting-time reports
# ---------------------------------------------------------------------------

def run_waiting_time_report(config: ExperimentConfig, out_dir: str) -> list[dict]:
    """Per grid point: observable series, exceedance marks, waiting-time EPDF.

    Emits `series_<tag>.csv` (step, value, exceeds) and `epdf_<tag>.csv`
    (waiting_time, probability, log-scale ready); returns summary records.
    """
    make_output_dir(out_dir)
    summaries = []
    for n in config.n_values:
        for point, (series,), _ in _observed(config, n, 2, realizations=1):
            gamma, eps = point.gamma, point.epsilon
            u = observables.threshold_from_quantile(series, config.quantile)
            ind = observables.exceedance_indicator(series, u)
            stats = evt.extract_clusters(ind)
            epdf = evt.waiting_time_epdf(stats)
            tag = f"n{n}_g{_gamma_key(gamma)}_e{_eps_key(eps)}"
            series_path = os.path.join(out_dir, f"series_{tag}.csv")
            with open(series_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["step", "value", "exceeds"])
                for k, (v, e) in enumerate(zip(series, ind)):
                    writer.writerow([k, _fmt(float(v)), int(e)])
            epdf_path = os.path.join(out_dir, f"epdf_{tag}.csv")
            evt.export_epdf_csv(epdf, epdf_path)
            mass_at_1 = epdf.get(1, 0.0)
            summaries.append({
                "n": n, "gamma": gamma, "epsilon": eps, "threshold": u,
                "exceedances": int(stats.exceedance_count),
                "clusters": int(stats.cluster_count),
                "epdf_mass_at_1": mass_at_1,
                "series_csv": os.path.basename(series_path),
                "epdf_csv": os.path.basename(epdf_path),
            })
    return summaries


# ---------------------------------------------------------------------------
# Compound-Poisson visit-count check
# ---------------------------------------------------------------------------

def _tv_distance(empirical: np.ndarray, probs: np.ndarray) -> float:
    """Total variation between an empirical count histogram and a pmf's
    values on its support.

    The model's tail mass beyond the histogram support is charged in full.
    """
    tail = max(0.0, 1.0 - float(probs.sum()))
    return 0.5 * (float(np.abs(empirical - probs).sum()) + tail)


def run_compound_poisson_check(
    config: ExperimentConfig,
    accuracy: float = 5e-3,
    t: float = 1.0,
    ensemble_size: int = 400,
) -> list[dict]:
    """Visit-count distribution vs compound-Poisson and Poisson models.

    For each (n, gamma): estimate the strip measure and theta from one long
    trajectory, then count strip visits over `ensemble_size` independent
    windows of rescaled length t and compare against compound_poisson_pmf_array
    with p = 1 - theta_hat and against poisson_pmf.
    """
    if ensemble_size < 50:
        raise ConfigError("ensemble_size must be >= 50")
    if any(eps != 0.0 for eps in config.epsilons):
        raise ConfigError("compound-Poisson check is a deterministic protocol")
    # the strip is evt.strip_indicator's: a global-sync gap <= accuracy
    spread = observables.OBSERVABLES["global_sync"].gap
    reports = []
    for n in config.n_values:
        points = _n_group(config, n, 3, noise=False, realizations=1)
        windows = _n_group(config, n, 4, noise=False,
                           realizations=ensemble_size)
        gaps, _ = lockstep_gaps(config.local_map, n, points, config.length,
                                config.burn_in, spread)
        for gamma, window, gap in zip(config.gamma_values, windows, gaps):
            ind = gap <= accuracy
            mu_strip = float(np.mean(ind))
            if mu_strip == 0.0:
                raise DomainError(
                    f"no strip visits at accuracy {accuracy}; lengthen the run"
                )
            theta_hat = evt.suveges_ei(ind, 1.0 - mu_strip).theta
            horizon = int(t / mu_strip)
            # strip visits per window over steps 1..horizon, counted per chunk
            counts = np.zeros(ensemble_size, dtype=np.int64)

            def fold(chunk_gaps, start):
                hits = chunk_gaps[1:] if start == 0 else chunk_gaps  # 0: start
                counts[:] += np.sum(hits <= accuracy, axis=0)

            lockstep_gaps(config.local_map, n, [window], horizon + 1,
                          config.burn_in, spread, fold)
            hist = np.bincount(counts) / counts.size
            p_hat = 1.0 - theta_hat
            tv_compound = _tv_distance(
                hist, evt.compound_poisson_pmf_array(t, p_hat, hist.size))
            tv_poisson = _tv_distance(
                hist, np.array([evt.poisson_pmf(t, k) for k in range(hist.size)]))
            reports.append({
                "n": n, "gamma": gamma, "t": t, "accuracy": accuracy,
                "mu_strip": mu_strip, "theta_hat": theta_hat,
                "horizon": horizon, "ensemble_size": ensemble_size,
                "empirical_pmf": [float(h) for h in hist],
                "tv_compound_poisson": tv_compound,
                "tv_poisson": tv_poisson,
            })
    return reports


# ---------------------------------------------------------------------------
# Density figures
# ---------------------------------------------------------------------------

def run_density_figures(
    config: ExperimentConfig,
    out_dir: str,
    bins: int | None = None,
    density_realizations: int = 300,
    iterations_each: int = 10_000,
) -> list[dict]:
    """Invariant-density histograms and diagonal traces per (n, gamma)."""
    if any(n > 3 for n in config.n_values):
        raise ConfigError("density figures support n in {2, 3} only")
    make_output_dir(out_dir)
    records = []
    for n, gamma, eps in _grid(config):
        b = bins if bins is not None else (300 if n == 2 else 60)
        spec = MapSpec(config.local_map, n, gamma)
        seed = _point_seed(config.seed, n, _gamma_key(gamma), _eps_key(eps), 5)
        hist = density_mod.estimate_density(
            spec, density_realizations, iterations_each, b, seed,
            noise=NoiseSpec(eps), burn_in=config.burn_in,
        )
        trace = density_mod.diagonal_trace(hist)
        tag = f"n{n}_g{_gamma_key(gamma)}_e{_eps_key(eps)}"
        density_path = os.path.join(out_dir, f"density_{tag}.csv")
        trace_path = os.path.join(out_dir, f"trace_{tag}.csv")
        density_mod.export_density_csv(hist, density_path)
        density_mod.export_trace_csv(trace, trace_path)
        # rough per-cell error bar: relative sd of a multinomial cell count
        mean_count = hist.total_samples / b**n
        records.append({
            "n": n, "gamma": gamma, "epsilon": eps, "bins": b,
            "samples": int(hist.total_samples),
            "relative_cell_error": 1.0 / math.sqrt(mean_count),
            "density_csv": os.path.basename(density_path),
            "trace_csv": os.path.basename(trace_path),
        })
    return records


# ---------------------------------------------------------------------------
# Figure reproduction with manifests
# ---------------------------------------------------------------------------

FIGURE_IDS = ("dens1", "dens", "d32", "CLM_t", "CLM", "CLM_csi",
              "global_Poisson", "local_Poisson")


def _figure_config(figure_id: str, seed: int, threads: int) -> ExperimentConfig:
    gammas = tuple(round(0.1 * i, 1) for i in range(7))
    base = dict(seed=seed, threads=threads)
    if figure_id == "d32":
        return ExperimentConfig(n_values=(2, 3), gamma_values=gammas, **base)
    if figure_id == "CLM_t":
        return ExperimentConfig(
            n_values=tuple(range(3, 24)), gamma_values=gammas,
            realizations=3, **base,
        )
    if figure_id == "CLM":
        return ExperimentConfig(
            n_values=tuple(range(3, 24, 2)), gamma_values=gammas,
            epsilons=(0.0, 1e-4, 1e-2), observable="pair_sync",
            realizations=3, **base,
        )
    if figure_id == "CLM_csi":
        return ExperimentConfig(
            n_values=(3, 5, 7, 10), gamma_values=(0.0, 0.2, 0.4),
            realizations=5, **base,
        )
    if figure_id == "global_Poisson":
        return ExperimentConfig(
            n_values=(4,), gamma_values=(0.3,), epsilons=(0.0, 1e-2), **base,
        )
    if figure_id == "local_Poisson":
        return ExperimentConfig(
            n_values=(6,), gamma_values=(0.3,), epsilons=(0.0, 1e-2),
            observable="pair_sync", **base,
        )
    if figure_id == "dens1":
        return ExperimentConfig(
            n_values=(2,), gamma_values=(0.3, 0.5, 0.6), **base,
        )
    if figure_id == "dens":
        return ExperimentConfig(
            n_values=(3,), gamma_values=(0.3, 0.5), **base,
        )
    raise ConfigError(f"unknown figure id {figure_id!r}; "
                      f"expected one of {FIGURE_IDS}")


def reproduce(figure_id: str, out_dir: str, seed: int = 0,
              threads: int = 1) -> dict:
    """Emit the plot-ready data files for one figure, plus a manifest.

    Re-running with the manifest's figure id and seed regenerates every file
    byte-for-byte.
    """
    config = _figure_config(figure_id, seed, threads)
    make_output_dir(out_dir)
    outputs: list[str] = []
    extra: dict = {}
    if figure_id in ("d32", "CLM_t", "CLM"):
        result = run_ei_sweep(config)
        if figure_id == "d32":
            for n in config.n_values:
                sub = SweepResult(
                    config,
                    [r for r in result.rows if r["n"] == n],
                    [a for a in result.aggregates if a["n"] == n],
                )
                name = f"d32_n{n}.csv"
                export_sweep_csv(sub, os.path.join(out_dir, name))
                outputs.append(name)
        else:
            name = f"{figure_id}_grid.csv"
            export_sweep_csv(result, os.path.join(out_dir, name))
            outputs.append(name)
        if figure_id == "CLM_t":
            name = "CLM_t_asymptotic.csv"
            rows = theory.theory_table(config.n_values, config.gamma_values,
                                       config.local_map)
            theory.export_theory_sweep_csv(rows, os.path.join(out_dir, name))
            outputs.append(name)
    elif figure_id == "CLM_csi":
        result = run_gev_sweep(config)
        name = "CLM_csi.csv"
        export_gev_csv(result, os.path.join(out_dir, name))
        outputs.append(name)
    elif figure_id in ("global_Poisson", "local_Poisson"):
        summaries = run_waiting_time_report(config, out_dir)
        for s in summaries:
            outputs.extend([s["series_csv"], s["epdf_csv"]])
        extra["summaries"] = summaries
    else:  # dens1 / dens
        records = run_density_figures(config, out_dir)
        for rec in records:
            outputs.extend([rec["density_csv"], rec["trace_csv"]])
        extra["records"] = records
    manifest = {
        "figure_id": figure_id,
        "seed": config.seed,
        "config": config.to_dict(),
        "outputs": sorted(outputs),
        **extra,
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def reproduce_from_manifest(manifest_path: str, out_dir: str) -> dict:
    """Replay a saved manifest; output files are byte-identical."""
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {manifest_path}: {exc}") from exc
    try:
        figure_id = manifest["figure_id"]
        seed = manifest["seed"]
        threads = manifest["config"].get("threads", 1)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed manifest: {exc!r}") from exc
    # reproduce checks figure_id, and its ExperimentConfig seed and threads
    return reproduce(figure_id, out_dir, seed=seed, threads=threads)
