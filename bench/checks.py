"""Output checks for each workload step.

Every check compares the program's files against values this module
computes itself (closed forms, its own means and sds, its own integrals) or
against a property the method must have.  Nothing is compared with a stored
copy of earlier output.

`verify(step, out_dir)` returns a `Verdict`: the problems found, and the
operations attempted and failed.  An operation is one estimate: a row's
theta_suveges, theta_qk or xi_gpd, a GEV row's xi, one spectral theta or
one density grid.
"""
from __future__ import annotations

import csv
import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

from workloads import Step, grid_points, theta_global, theta_two_site

EI_ESTIMATES = ("theta_suveges", "theta_qk", "xi_gpd")
THETA_COLUMNS = ("theta_suveges", "theta_qk", "theta_theory", "theta_asymptotic")
STAT_COLUMNS = ("theta_suveges", "theta_qk", "theta_theory",
                "theta_asymptotic", "xi_gpd")


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    theta: float | None = None  # spectral steps only


def _num(text: str):
    return None if text == "" else float(text)


def read_sweep_csv(path: str) -> tuple[list[dict], list[dict]]:
    """Realization rows and aggregate (mean/sd) rows of a sweep CSV."""
    rows, aggregates = [], []
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            row = {k: (v if k in ("flag", "realization") else _num(v))
                   for k, v in raw.items()}
            row["n"] = int(row["n"])
            if row["realization"] in ("mean", "sd"):
                aggregates.append(row)
            else:
                row["realization"] = int(row["realization"])
                rows.append(row)
    return rows, aggregates


def _key(row) -> tuple:
    return row["n"], row["gamma"], row["epsilon"]


def _group(rows) -> dict[tuple, list[dict]]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(_key(row), []).append(row)
    return groups


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _check_grid(rows, config, problems) -> None:
    """Row count is points x realizations, each (point, r) exactly once."""
    expected = {(n, g, e, r) for n, g, e in grid_points(config)
                for r in range(config["realizations"])}
    got = [(*_key(row), row["realization"]) for row in rows]
    if len(got) != len(expected) or set(got) != expected:
        problems.append(f"rows: got {len(got)}, expected {len(expected)} "
                        f"(points x realizations)")


def check_ei_sweep(rows, aggregates, config, expect) -> Verdict:
    v = Verdict()
    _check_grid(rows, config, v.problems)
    for row in rows:
        for col in THETA_COLUMNS:
            val = row[col]
            if val is not None and not 0.0 <= val <= 1.0:
                v.problems.append(f"{col}={val} outside [0, 1] at {_key(row)}")
        for col in EI_ESTIMATES:
            v.attempted += 1
            v.failed += row[col] is None
    groups = _group(rows)
    if config["observable"] == "global_sync":
        for row in rows:
            exact = theta_global(row["n"], row["gamma"])
            for col in ("theta_theory", "theta_asymptotic"):
                if row[col] is None or not _close(row[col], exact):
                    v.problems.append(f"{col}={row[col]} != {exact} at "
                                      f"{_key(row)}")
    # aggregates: the benchmark's own mean and sd of the realization rows
    agg = {(*_key(a), a["realization"]): a for a in aggregates}
    if len(agg) != 2 * len(groups) or len(aggregates) != len(agg):
        v.problems.append(f"aggregates: got {len(aggregates)}, expected "
                          f"{2 * len(groups)}")
    for key, group in groups.items():
        for col in STAT_COLUMNS:
            vals = [r[col] for r in group if r[col] is not None]
            for label, want in (
                    ("mean", statistics.fmean(vals) if vals else None),
                    ("sd", statistics.stdev(vals) if len(vals) > 1 else None)):
                got = agg.get((*key, label), {}).get(col)
                if (got is None) != (want is None) or (
                        want is not None and not _close(got, want)):
                    v.problems.append(f"{label} {col} at {key}: {got} != "
                                      f"{want}")
    means = {key: statistics.fmean(r["theta_suveges"] for r in group
                                   if r["theta_suveges"] is not None)
             for key, group in groups.items()
             if any(r["theta_suveges"] is not None for r in group)}
    if config["observable"] == "global_sync":
        tol, share = expect["suveges_tol"], expect["suveges_share"]
        hits = sum(abs(m - theta_global(n, g)) <= tol
                   for (n, g, _), m in means.items())
        if hits < share * len(groups):
            v.problems.append(f"suveges: {hits}/{len(groups)} points within "
                              f"{tol} of the closed form, need {share:.0%}")
        xis = [r["xi_gpd"] for r in rows if r["xi_gpd"] is not None]
        if not xis or abs(statistics.fmean(xis)) > expect["xi_tol"]:
            v.problems.append(f"mean xi_gpd {statistics.fmean(xis or [math.nan])}"
                              f" not within {expect['xi_tol']} of 0")
    if config["observable"] == "pair_sync":
        tol = expect["pair_tol"]
        for (n, g, e), m in means.items():
            if e == 0.0 and abs(m - theta_two_site(g)) > tol:
                v.problems.append(f"pair theta {m:.4f} at n={n} gamma={g} "
                                  f"not within {tol} of {theta_two_site(g):.4f}")
        for (n, g, e), m in means.items():
            clean = means.get((n, g, 0.0))
            if e == max(config["epsilons"]) and (clean is None or m <= clean):
                v.problems.append(f"pair theta at eps={e} ({m:.4f}) not above "
                                  f"eps=0 ({clean}) at n={n} gamma={g}")
    return v


def check_gev_sweep(rows, config, expect) -> Verdict:
    v = Verdict()
    _check_grid(rows, config, v.problems)
    for row in rows:
        v.attempted += 1
        v.failed += row["xi"] is None
        if row["xi"] is not None and not row["sigma"] > 0.0:
            v.problems.append(f"gev sigma={row['sigma']} at {_key(row)}")
    xis = [r["xi"] for r in rows if r["xi"] is not None]
    if not xis or abs(statistics.fmean(xis)) > expect["xi_tol"]:
        v.problems.append(f"mean xi_gev {statistics.fmean(xis or [math.nan])}"
                          f" not within {expect['xi_tol']} of 0")
    return v


def check_spectral(report: dict, config: dict, expect: dict) -> Verdict:
    v = Verdict(attempted=1)
    theta = report.get("theta")
    if not isinstance(theta, float) or not 0.0 <= theta <= 1.0:
        v.problems.append(f"spectral theta {theta!r} outside [0, 1]")
        return v
    v.theta = theta
    ladder = report.get("ladder", [])
    exact = theta_two_site(config["gamma"])
    if abs(theta - exact) > expect["theta_tol"]:
        v.problems.append(f"spectral theta {theta:.5f} at k={config['k']} not "
                          f"within {expect['theta_tol']} of {exact:.5f}")
    if sorted(r["nu"] for r in ladder) != sorted(config["nus"]):
        v.problems.append(f"ladder nus {[r['nu'] for r in ladder]} != "
                          f"{config['nus']}")
    for rung in ladder:
        if not 0.0 < rung["rho"] < 1.0:
            v.problems.append(f"ladder rho={rung['rho']} at nu={rung['nu']} "
                              f"outside (0, 1)")
    return v


def check_density(records: list[dict], out_dir: str, config: dict,
                  expect: dict) -> Verdict:
    """Each density integrates to 1; the gamma = 0 one is flat.

    At gamma = 0 the sites are independent tripling maps, whose invariant
    measure is Lebesgue, so cell counts are multinomial with equal cell
    probabilities up to sampling error: the chi-square statistic of the
    counts stays within `flat_z` standard deviations of its mean.
    """
    v = Verdict()
    points = grid_points(config)
    if sorted((r["n"], r["gamma"], r["epsilon"]) for r in records) != \
            sorted(points):
        v.problems.append(f"density grids {len(records)} != {len(points)}")
    for rec in records:
        v.attempted += 1
        bins = rec["bins"]
        expected_samples = config["density_realizations"] * \
            config["iterations_each"]
        if rec["samples"] != expected_samples:
            v.problems.append(f"density samples {rec['samples']} != "
                              f"{expected_samples}")
        table = np.loadtxt(os.path.join(out_dir, rec["density_csv"]),
                           delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (bins ** rec["n"], rec["n"] + 1):
            v.problems.append(f"density table shape {table.shape}")
            v.failed += 1
            continue
        dens = table[:, -1]
        cell = bins ** -rec["n"]
        mass = float(dens.sum() * cell)
        if abs(mass - 1.0) > 1e-9:
            v.problems.append(f"density at gamma={rec['gamma']} integrates "
                              f"to {mass!r}")
        if rec["gamma"] == 0.0:
            counts = dens * cell * rec["samples"]
            mean = rec["samples"] * cell
            df = dens.size - 1
            z = (float(np.sum((counts - mean) ** 2)) / mean - df) / \
                math.sqrt(2.0 * df)
            if abs(z) > expect["flat_z"]:
                v.problems.append(f"gamma=0 density not flat: chi-square z "
                                  f"= {z:.2f}")
        trace = np.loadtxt(os.path.join(out_dir, rec["trace_csv"]),
                           delimiter=",", skiprows=1, ndmin=2)
        if trace.shape != (bins, 2) or not np.all(trace[:, 1] >= 0.0):
            v.problems.append(f"trace at gamma={rec['gamma']} malformed")
    return v


def verify(step: Step, out_dir: str) -> Verdict:
    """Read one step's output files and check them."""
    if step.command == "ei-sweep":
        rows, aggregates = read_sweep_csv(os.path.join(out_dir, "ei_sweep.csv"))
        return check_ei_sweep(rows, aggregates, step.config, step.expect)
    if step.command == "gev-sweep":
        rows, _ = read_sweep_csv(os.path.join(out_dir, "gev_sweep.csv"))
        return check_gev_sweep(rows, step.config, step.expect)
    if step.command == "spectral":
        with open(os.path.join(out_dir, "spectral.json")) as fh:
            return check_spectral(json.load(fh), step.config, step.expect)
    if step.command == "density":
        with open(os.path.join(out_dir, "density_report.json")) as fh:
            records = json.load(fh)
        return check_density(records, out_dir, step.config, step.expect)
    raise ValueError(f"no check for command {step.command!r}")


def spectral_order_problems(errors: dict[int, float]) -> list[str]:
    """The spectral error shrinks as the Ulam grid is refined."""
    ks = sorted(errors)
    return [f"spectral error at k={hi} ({errors[hi]:.5f}) not below k={lo} "
            f"({errors[lo]:.5f})"
            for lo, hi in zip(ks, ks[1:]) if not errors[hi] < errors[lo]]
