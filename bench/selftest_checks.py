"""Each output check must reject an output altered on purpose.

    python3 -m pytest bench/selftest_checks.py -q

A small real run of every command (through `cmlsync.cli.main`, seconds)
gives outputs that pass; each test alters one file and expects the named
problem.  The file name keeps these tests out of the repository's own
`pytest` collection.
"""
from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
from cmlsync import cli  # noqa: E402
from workloads import Step  # noqa: E402

SMALL = {
    "grid": Step("ei-sweep", "grid", {
        "observable": "global_sync", "n_values": [2, 3],
        "gamma_values": [0.1, 0.3], "epsilons": [0.0], "realizations": 3,
        "length": 4000, "burn_in": 100, "quantile": 0.97,
    }, {"suveges_tol": 0.1, "suveges_share": 0.75, "xi_tol": 0.1}),
    "pair": Step("ei-sweep", "pair", {
        "observable": "pair_sync", "n_values": [5], "gamma_values": [0.3],
        "epsilons": [0.0, 1e-2], "realizations": 3, "length": 4000,
        "burn_in": 100, "quantile": 0.97,
    }, {"pair_tol": 0.15}),
    "gev": Step("gev-sweep", "gev", {
        "observable": "global_sync", "n_values": [2], "gamma_values": [0.3],
        "epsilons": [0.0], "realizations": 5, "length": 4000, "burn_in": 100,
        "block_size": 100,
    }, {"xi_tol": 0.15}),
    "k90": Step("spectral", "k90",
                {"gamma": 0.3, "k": 90, "nus": [0.08, 0.04]},
                {"theta_tol": 0.1}),
    "density": Step("density", "density", {
        "n_values": [2], "gamma_values": [0.0, 0.3], "epsilons": [0.0],
        "bins": 40, "density_realizations": 50, "iterations_each": 1000,
        "burn_in": 100,
    }, {"flat_z": 6.0}),
}
OUTPUT = {"ei-sweep": "ei_sweep.csv", "gev-sweep": "gev_sweep.csv",
          "spectral": "spectral.json", "density": "density_report.json"}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    for step in SMALL.values():
        cfg = base / f"{step.tag}.json"
        cfg.write_text(json.dumps(step.config))
        rc = cli.main([step.command, "--config", str(cfg), "--seed", "11",
                       "--out", str(base / step.tag)])
        assert rc == 0
    return base


@pytest.fixture
def out(outputs, tmp_path):
    """A private copy of the outputs that a test may alter."""
    for step in SMALL.values():
        src, dst = outputs / step.tag, tmp_path / step.tag
        dst.mkdir()
        for name in os.listdir(src):
            (dst / name).write_bytes((src / name).read_bytes())
    return tmp_path


def verdict(out, tag):
    return checks.verify(SMALL[tag], str(out / tag))


def edit_csv(path, edit):
    """Rewrite a CSV with `edit(rows)`; rows are lists of dicts."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def edit_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def realization_rows(rows):
    return [r for r in rows if r["realization"] not in ("mean", "sd")]


def assert_rejected(v, needle):
    assert any(needle in p for p in v.problems), v.problems


@pytest.mark.parametrize("tag", list(SMALL))
def test_unaltered_outputs_pass(out, tag):
    v = verdict(out, tag)
    assert v.problems == []
    assert v.attempted > 0


def test_pair_qk_failures_are_counted(out):
    v = verdict(out, "pair")
    assert (v.attempted, v.failed) == (18, 6)  # q_k of every pair_sync row


def test_rejects_missing_row(out):
    edit_csv(out / "grid" / OUTPUT["ei-sweep"], lambda rows: rows[1:])
    assert_rejected(verdict(out, "grid"), "rows: got")


def test_rejects_theta_outside_unit_interval(out):
    def edit(rows):
        realization_rows(rows)[0]["theta_qk"] = "1.5"
        return rows
    edit_csv(out / "grid" / OUTPUT["ei-sweep"], edit)
    assert_rejected(verdict(out, "grid"), "outside [0, 1]")


@pytest.mark.parametrize("col", ["theta_theory", "theta_asymptotic"])
def test_rejects_wrong_closed_form(out, col):
    def edit(rows):
        for r in rows:
            if r["realization"] == "0":
                r[col] = repr(float(r[col]) * 0.999)
        return rows
    edit_csv(out / "grid" / OUTPUT["ei-sweep"], edit)
    assert_rejected(verdict(out, "grid"), f"{col}=")


@pytest.mark.parametrize("label", ["mean", "sd"])
def test_rejects_wrong_aggregate(out, label):
    def edit(rows):
        row = next(r for r in rows if r["realization"] == label)
        row["theta_suveges"] = repr(float(row["theta_suveges"]) + 1e-6)
        return rows
    edit_csv(out / "grid" / OUTPUT["ei-sweep"], edit)
    assert_rejected(verdict(out, "grid"), f"{label} theta_suveges")


def test_rejects_suveges_far_from_closed_form(out):
    def edit(rows):
        for r in realization_rows(rows):
            r["theta_suveges"] = repr(float(r["theta_suveges"]) * 0.5)
        return rows
    edit_csv(out / "grid" / OUTPUT["ei-sweep"], edit)
    assert_rejected(verdict(out, "grid"), "points within")


def test_rejects_heavy_gpd_tail(out):
    def edit(rows):
        for r in realization_rows(rows):
            r["xi_gpd"] = repr(float(r["xi_gpd"]) + 0.3)
        return rows
    edit_csv(out / "grid" / OUTPUT["ei-sweep"], edit)
    assert_rejected(verdict(out, "grid"), "mean xi_gpd")


def test_rejects_pair_theta_off_two_site_value(out):
    def edit(rows):
        for r in realization_rows(rows):
            if float(r["epsilon"]) == 0.0:
                r["theta_suveges"] = "0.95"
        return rows
    edit_csv(out / "pair" / OUTPUT["ei-sweep"], edit)
    v = verdict(out, "pair")
    assert_rejected(v, "pair theta 0.9500")
    assert_rejected(v, "not above eps=0")


def test_rejects_gev_shape(out):
    def edit(rows):
        for r in rows:
            r["xi"] = repr(float(r["xi"]) - 0.4)
        return rows
    edit_csv(out / "gev" / OUTPUT["gev-sweep"], edit)
    assert_rejected(verdict(out, "gev"), "mean xi_gev")


def test_counts_failed_gev_fit(out):
    def edit(rows):
        rows[0].update(xi="", mu="", sigma="", flag="gev:FitError")
        return rows
    edit_csv(out / "gev" / OUTPUT["gev-sweep"], edit)
    v = verdict(out, "gev")
    assert (v.attempted, v.failed) == (5, 1)


def test_rejects_spectral_theta(out):
    edit_json(out / "k90" / OUTPUT["spectral"],
              lambda d: d.update(theta=d["theta"] + 0.3))
    assert_rejected(verdict(out, "k90"), "spectral theta")


def test_rejects_ladder_rho(out):
    edit_json(out / "k90" / OUTPUT["spectral"],
              lambda d: d["ladder"][0].update(rho=1.0))
    assert_rejected(verdict(out, "k90"), "outside (0, 1)")


def test_rejects_error_growing_with_k():
    assert checks.spectral_order_problems({300: 0.02, 600: 0.007}) == []
    assert checks.spectral_order_problems({300: 0.007, 600: 0.02})


def test_rejects_unnormalized_density(out):
    report = json.loads((out / "density" / OUTPUT["density"]).read_text())
    edit_csv(out / "density" / report[1]["density_csv"], lambda rows: [
        {**r, "density": repr(float(r["density"]) * 1.01)} for r in rows])
    assert_rejected(verdict(out, "density"), "integrates to")


def test_rejects_nonflat_uncoupled_density(out):
    report = json.loads((out / "density" / OUTPUT["density"]).read_text())
    flat = next(r for r in report if r["gamma"] == 0.0)

    def edit(rows):
        # move mass from the upper to the lower half: integral unchanged
        dens = np.array([float(r["density"]) for r in rows])
        tilt = np.where(np.arange(dens.size) < dens.size // 2, 1.2, 0.8)
        for r, d in zip(rows, dens * tilt):
            r["density"] = repr(float(d))
        return rows
    edit_csv(out / "density" / flat["density_csv"], edit)
    assert_rejected(verdict(out, "density"), "not flat")


def test_checks_use_the_step_config(out):
    step = replace(SMALL["grid"], config={**SMALL["grid"].config,
                                          "realizations": 4})
    v = checks.verify(step, str(out / "grid"))
    assert_rejected(v, "rows: got")


def test_benchmark_json_lists_every_metric():
    import tracing
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb", "site_updates_per_s",
        "theta_abs_err_spectral"]
