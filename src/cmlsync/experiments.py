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
    split_passes, step)

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

    def __post_init__(self):
        for name, minimum in (("slope", 2), ("length", 2), ("realizations", 1),
                              ("seed", 0), ("burn_in", 0)):
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
        if len(set(self.n_values)) < len(self.n_values):
            raise ConfigError(f"n_values {list(self.n_values)} repeat a "
                              f"lattice size")
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
        """A warning for the gamma values where `MapSpec.ei_hypothesis_ok`
        fails, gamma >= 1 - 1/slope (the same at every n)."""
        out = []
        bad = [g for g in self.gamma_values if not MapSpec(
            self.local_map, self.n_values[0], g).ei_hypothesis_ok]
        if bad:
            bound = 1.0 - self.local_map.expansion_bound
            out.append(
                f"gamma values {bad} are not below the uniform-hyperbolicity "
                f"bound 1 - 1/slope = {bound:.4g}"
            )
        return out

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
            points.append(GridPoint(n, gamma, 0.0 if eps is None else eps,
                                    seed, realizations or config.realizations))
    return points


def _sweep(config: ExperimentConfig, worker, *tag: int, gap=None,
           **group) -> list:
    """The concatenated lists ``worker(series, observed)`` returns for the
    lock-step passes of the grid, in order, where ``series`` holds a pass's
    rows' (R, length) series of ``gap`` (by default the config's
    observable), and ``observed`` lists per grid point of the pass, keyed
    by ``tag``, the point and its rows' ``collapsed`` flags; each point's
    rows follow the previous point's.

    The n-groups run in the consecutive lock-step passes of
    `split_passes`: one pass when their series fit the memory budget
    together.  Each pass's series are dropped before the next pass runs, so
    a sweep holds at most one budget's worth of them.
    """
    groups = [_n_group(config, n, *tag, **group) for n in config.n_values]
    out = []
    for run in split_passes(groups, config.length):
        out += _pass(config, worker, [p for points in run for p in points],
                     gap or observables.OBSERVABLES[config.observable].value)
    return out


def _pass(config: ExperimentConfig, worker, points: list[GridPoint], gap
          ) -> list:
    """`_sweep`'s worker over the one lock-step pass of ``points``."""
    series, finals = lockstep_gaps(
        config.local_map, points, config.length, config.burn_in, gap)
    return worker(series, [
        (p, _collapsed(final, MapSpec(config.local_map, p.n, p.gamma)))
        for p, final in zip(points, finals)])


def _collapsed(final: np.ndarray, spec: MapSpec) -> np.ndarray:
    """Per realization: is its final state a bitwise fixed point of the update?

    Dyadic slopes shift bits out of a float until the orbit sits exactly on
    a fixed point such as 0; its observable is then +inf at every step, and
    no extremal-index estimate of it means anything.
    """
    return np.all(step(final, spec) == final, axis=-1)


# Thresholds and indicators run over blocks of rows holding about this many
# series values, and the GPD fits over batches of rows holding about
# _FIT_ELEMENTS excesses, so that the copies they make stay small next to
# the series.
_ROW_BLOCK_ELEMENTS = 1 << 16
_FIT_ELEMENTS = 1 << 14


def _row_blocks(rows: int, length: int):
    """Consecutive row slices of about `_ROW_BLOCK_ELEMENTS` values each."""
    per = max(1, _ROW_BLOCK_ELEMENTS // length)
    for start in range(0, rows, per):
        yield slice(start, min(rows, start + per))


def _ei_estimates(series: np.ndarray, skip: np.ndarray, q: float) -> tuple:
    """theta_suveges, theta_qk and xi_gpd (NaN where missing) and the flags
    of every row of ``series`` (R, length), the rows ``skip`` marks left
    out: for each row, what the one-row estimators give on it alone.

    Thresholds, indicators, Sueveges and q_k run block by block of rows,
    and the GPD fits once per `_FIT_ELEMENTS` excesses gathered.
    """
    rows = len(series)
    suveges, qk, xi = (np.full(rows, np.nan) for _ in range(3))
    flags = [[] for _ in range(rows)]
    pending = []  # per block: its fitted rows, excesses, counts, thresholds

    def fit():
        index, excesses, counts, thresholds = (
            np.concatenate(part) for part in zip(*pending))
        pending.clear()
        for r, fit, error in zip(index, *evt.fit_gpd_rows(
                excesses, counts, thresholds)):
            if error is None:
                xi[r] = fit.xi
            else:
                flags[r].append(f"gpd:{type(error).__name__}")

    for block in _row_blocks(rows, series.shape[1]):
        index = np.arange(rows)[block][~skip[block]]
        values = series[block] if index.size == block.stop - block.start \
            else series[index]
        u, errors = observables.thresholds_from_quantile(values, q)
        for r, error in zip(index, errors):
            if error is not None:
                flags[r].append(f"suveges:{type(error).__name__}")
        ok = np.array([e is None for e in errors], dtype=bool)
        if not ok.all():
            index, values, u = index[ok], values[ok], u[ok]
        ind = observables.exceedance_indicator(values, u[:, None])
        suveges[index], n_exc, _ = evt.suveges_rows(ind, q)
        _, _, qk[index], _, errors = evt.qk_rows(ind)
        for r, error in zip(index, errors):
            if error is not None:
                flags[r].append(f"qk:{type(error).__name__}")
                qk[r] = np.nan
        pending.append((index, values[ind], n_exc, u))
        if sum(len(part[1]) for part in pending) >= _FIT_ELEMENTS:
            fit()
    if pending:
        fit()
    return suveges, qk, xi, [";".join(f) for f in flags]


def _value(x: float) -> float | None:
    """A sweep column's value: None where the estimate is missing."""
    return None if math.isnan(x) else x


def _ei_rows(config: ExperimentConfig, series: np.ndarray, observed: list
             ) -> list[dict]:
    """The ei-sweep rows of one lock-step pass."""
    collapsed = np.concatenate([dead for _, dead in observed])
    suveges, qk, xi, flags = _ei_estimates(series, collapsed, config.quantile)
    suveges, qk, xi = suveges.tolist(), qk.tolist(), xi.tolist()
    rows, i = [], 0
    for point, dead in observed:
        try:
            theta_theory, theta_asym = observables.OBSERVABLES[
                config.observable].closed_form_ei(point.n, point.gamma,
                                                  config.local_map)
        except CmlSyncError:
            theta_theory = theta_asym = None
        for r, collapsed_row in enumerate(dead):
            rows.append({
                "n": point.n, "gamma": point.gamma, "epsilon": point.epsilon,
                "realization": r, "theta_suveges": _value(suveges[i]),
                "theta_qk": _value(qk[i]),
                "theta_theory": theta_theory, "theta_asymptotic": theta_asym,
                "xi_gpd": _value(xi[i]),
                "flag": "collapsed" if collapsed_row else flags[i],
            })
            i += 1
    return rows


def _aggregate(rows: list[dict]) -> list[dict]:
    """Mean and sd rows per grid point, skipping flagged-missing entries."""
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["n"], r["gamma"], r["epsilon"]), []).append(r)
    stat_cols = ["theta_suveges", "theta_qk", "theta_theory",
                 "theta_asymptotic", "xi_gpd"]
    out = []
    for n, gamma, eps in sorted(groups):
        group = groups[(n, gamma, eps)]
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
    rows = _sweep(config, partial(_ei_rows, config))
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

    def rows_of(series, observed):
        usable = config.length - config.length % block_size
        maxima = np.concatenate([
            series[block, :usable].reshape(block.stop - block.start, -1,
                                           block_size).max(axis=2)
            for block in _row_blocks(len(series), usable)])
        dropped = np.count_nonzero(~np.isfinite(maxima), axis=1).tolist()
        live = np.flatnonzero(~np.concatenate([d for _, d in observed]))
        fits, flags = [None] * len(maxima), ["collapsed"] * len(maxima)
        for r, fit, error in zip(live, *evt.fit_gev_rows(maxima[live])):
            fits[r] = fit
            flags[r] = "" if error is None else f"gev:{type(error).__name__}"
        rows, i = [], 0
        for point, collapsed in observed:
            for r in range(len(collapsed)):
                fit = fits[i]
                rows.append({
                    "n": point.n, "gamma": point.gamma,
                    "epsilon": point.epsilon, "realization": r,
                    "xi": None if fit is None else fit.xi,
                    "mu": None if fit is None else fit.mu,
                    "sigma": None if fit is None else fit.sigma,
                    "dropped_blocks": dropped[i], "flag": flags[i]})
                i += 1
        return rows

    return SweepResult(config=config, rows=_sweep(config, rows_of, 1))


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

    def group(values, observed):
        summaries = []
        for series, (point, _) in zip(values, observed):
            n = point.n
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

    return _sweep(config, group, 2, realizations=1)


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
    with p = 1 - theta_hat and against poisson_pmf.  Each record carries
    ``strip_visits``, the long trajectory's strip hits that mu_strip and
    theta_hat rest on.
    """
    if ensemble_size < 50:
        raise ConfigError("ensemble_size must be >= 50")
    if any(eps != 0.0 for eps in config.epsilons):
        raise ConfigError("compound-Poisson check is a deterministic protocol")
    # the strip is evt.strip_indicator's: a global-sync gap <= accuracy
    spread = observables.OBSERVABLES["global_sync"].gap
    return _sweep(config, partial(_visit_reports, config, spread, accuracy,
                                  t, ensemble_size), 3, gap=spread,
                  noise=False, realizations=1)


def _visit_reports(config: ExperimentConfig, spread, accuracy: float,
                   t: float, ensemble_size: int, gaps: np.ndarray,
                   observed: list) -> list[dict]:
    """`run_compound_poisson_check`'s records for one lock-step pass of
    long orbits, one row per (n, gamma)."""
    windows = [w for n in dict.fromkeys(p.n for p, _ in observed)
               for w in _n_group(config, n, 4, noise=False,
                                 realizations=ensemble_size)]
    reports = []
    for window, gap in zip(windows, gaps):
        n, gamma = window.n, window.gamma
        ind = gap <= accuracy
        strip_visits = int(np.count_nonzero(ind))
        mu_strip = strip_visits / ind.size
        if strip_visits == 0:
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

        lockstep_gaps(config.local_map, [window], horizon + 1,
                      config.burn_in, spread, fold)
        hist = np.bincount(counts) / counts.size
        p_hat = 1.0 - theta_hat
        tv_compound = _tv_distance(
            hist, evt.compound_poisson_pmf_array(t, p_hat, hist.size))
        tv_poisson = _tv_distance(
            hist, np.array([evt.poisson_pmf(t, k) for k in range(hist.size)]))
        reports.append({
            "n": n, "gamma": gamma, "t": t, "accuracy": accuracy,
            "strip_visits": strip_visits, "mu_strip": mu_strip,
            "theta_hat": theta_hat,
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
    for point in (p for n in config.n_values for p in _n_group(config, n, 5)):
        n, gamma, eps = point.n, point.gamma, point.epsilon
        b = bins if bins is not None else (300 if n == 2 else 60)
        hist = density_mod.estimate_density(
            MapSpec(config.local_map, n, gamma), density_realizations,
            iterations_each, b, point.seed, noise=NoiseSpec(eps),
            burn_in=config.burn_in,
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


def _figure_config(figure_id: str, seed: int) -> ExperimentConfig:
    gammas = tuple(round(0.1 * i, 1) for i in range(7))
    base = dict(seed=seed)
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


def reproduce(figure_id: str, out_dir: str, seed: int = 0) -> dict:
    """Emit the plot-ready data files for one figure, plus a manifest.

    Re-running with the manifest's figure id and seed regenerates every file
    byte-for-byte.
    """
    config = _figure_config(figure_id, seed)
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
        figure_id, seed = manifest["figure_id"], manifest["seed"]
        if not isinstance(manifest["config"], dict):
            raise TypeError("config is not an object")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed manifest: {exc!r}") from exc
    # reproduce checks figure_id, and its ExperimentConfig the seed; the
    # config's keys, such as the threads of older manifests, are not read
    return reproduce(figure_id, out_dir, seed=seed)
