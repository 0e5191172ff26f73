"""Experiment orchestration, manifests, and the command-line interface."""
import csv
import json
import os

import numpy as np
import pytest

from cmlsync import lattice
from cmlsync.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from cmlsync.errors import ConfigError, MemoryBudgetError
from cmlsync.evt import strip_indicator, suveges_ei
from cmlsync.experiments import (
    ExperimentConfig,
    _gamma_key,
    _point_seed,
    export_gev_csv,
    export_sweep_csv,
    reproduce,
    reproduce_from_manifest,
    run_compound_poisson_check,
    run_density_figures,
    run_ei_sweep,
    run_gev_sweep,
    run_waiting_time_report,
)
from cmlsync.lattice import MapSpec, simulate_ensemble


def small_config(**kw):
    defaults = dict(
        n_values=(2,), gamma_values=(0.1, 0.3), epsilons=(0.0,),
        length=2000, realizations=3, seed=42, burn_in=100,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_values=())
        with pytest.raises(ConfigError):
            ExperimentConfig(n_values=(1,))
        with pytest.raises(ConfigError):
            ExperimentConfig(gamma_values=(1.0,))
        for eps in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                ExperimentConfig(epsilons=(eps,))
        with pytest.raises(ConfigError):
            ExperimentConfig(quantile=1.2)
        with pytest.raises(ConfigError):
            ExperimentConfig(observable="nope")
        with pytest.raises(ConfigError):
            ExperimentConfig(threads=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(slope=1)
        for field in ("length", "realizations", "burn_in"):
            for bad in (2.5, float("nan"), "100", True):
                with pytest.raises(ConfigError, match=field):
                    ExperimentConfig(**{field: bad})
        with pytest.raises(ConfigError, match="burn_in"):
            ExperimentConfig(burn_in=-5)
        # an integral float is the integer it names
        assert ExperimentConfig(length=2000.0, burn_in=0).length == 2000

    def test_from_dict_roundtrip(self):
        cfg = small_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"n_values": [2], "bogus": 1})

    def test_seed_key_collisions_rejected(self):
        # 0.30001 and 0.30004 both round to the gamma key 3000
        with pytest.raises(ConfigError, match="3000"):
            ExperimentConfig(gamma_values=(0.30001, 0.30004))
        with pytest.raises(ConfigError):
            ExperimentConfig(epsilons=(0.0, 1e-9))
        ExperimentConfig(gamma_values=(0.3, 0.3001), epsilons=(0.0, 1e-8))

    def test_warning_above_hypothesis_bound(self):
        cfg = small_config(gamma_values=(0.1, 0.8))
        assert any("0.8" in w for w in cfg.warnings())
        assert small_config().warnings() == []


class TestPointSeeds:
    def test_deterministic_and_distinct(self):
        a = _point_seed(1, 2, 3000, 0)
        assert a == _point_seed(1, 2, 3000, 0)
        assert a != _point_seed(1, 2, 3000, 1)
        assert a != _point_seed(2, 2, 3000, 0)


class TestEiSweep:
    def test_deterministic_and_threaded(self):
        r1 = run_ei_sweep(small_config())
        r2 = run_ei_sweep(small_config())
        r3 = run_ei_sweep(small_config(threads=2))
        assert r1.rows == r2.rows == r3.rows

    @pytest.mark.parametrize("observable, n, length, two_site, qk", [
        pytest.param("global_sync", 2, 2000, True, False, id="global_sync"),
        pytest.param("pair_sync", 2, 2000, True, False, id="pair_sync"),
        # pair sync keeps the two-site theta at any n, and q_k reads the
        # pair set, which at quantile 0.98 holds 200 visits per realization
        pytest.param("pair_sync", 5, 10_000, True, True, id="pair_sync-n5-qk"),
        pytest.param("local_sync", 2, 2000, False, False, id="local_sync"),
    ])
    def test_row_contents(self, observable, n, length, two_site, qk):
        result = run_ei_sweep(small_config(
            observable=observable, n_values=(n,), length=length))
        assert len(result.rows) == 2 * 3  # grid points x realizations
        for row in result.rows:
            assert 0.0 <= row["theta_suveges"] <= 1.0
            for col in ("theta_theory", "theta_asymptotic"):
                if two_site:
                    assert row[col] == pytest.approx(
                        1.0 - 1.0 / (3.0 * (1.0 - row["gamma"])), abs=1e-12)
                else:
                    assert row[col] is None
            if qk:
                assert row["flag"] == ""
                assert 0.0 <= row["theta_qk"] <= 1.0

    def test_aggregates_recompute(self):
        result = run_ei_sweep(small_config())
        means = [a for a in result.aggregates if a["realization"] == "mean"]
        assert len(means) == 2
        for agg in means:
            vals = [r["theta_suveges"] for r in result.rows
                    if r["gamma"] == agg["gamma"]]
            assert agg["theta_suveges"] == pytest.approx(np.mean(vals))

    def test_csv_export(self, tmp_path):
        result = run_ei_sweep(small_config())
        path = tmp_path / "sweep.csv"
        export_sweep_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result.rows) + len(result.aggregates)
        assert float(rows[0]["theta_suveges"]) == pytest.approx(
            result.rows[0]["theta_suveges"]
        )


class TestFloatCollapse:
    """Slope 2 at gamma = 0 shifts every orbit onto the float fixed point 0."""

    def test_ei_rows_flagged_without_estimates(self):
        result = run_ei_sweep(small_config(slope=2, gamma_values=(0.0,),
                                           burn_in=0))
        assert len(result.rows) == 3
        for row in result.rows:
            assert row["flag"] == "collapsed"
            assert row["theta_suveges"] is None
            assert row["theta_qk"] is None
            assert row["xi_gpd"] is None
        mean = result.aggregates[0]
        assert mean["theta_suveges"] is None and mean["xi_gpd"] is None

    def test_gev_rows_flagged_without_estimates(self):
        result = run_gev_sweep(small_config(slope=2, gamma_values=(0.0,),
                                            burn_in=0, length=4000))
        for row in result.rows:
            assert row["flag"] == "collapsed"
            assert row["xi"] is None and row["sigma"] is None

    def test_flag_lands_on_the_collapsing_point_only(self):
        # One pass per n: the gamma = 0.3 rows and the noisy gamma = 0 rows
        # share it with the noiseless gamma = 0 rows, which alone collapse.
        cfg = small_config(slope=2, n_values=(2, 3), gamma_values=(0.3, 0.0),
                           epsilons=(0.0, 1e-2), burn_in=0, length=4000)
        for result, estimate in ((run_ei_sweep(cfg), "theta_suveges"),
                                 (run_gev_sweep(cfg), "xi")):
            assert len(result.rows) == 2 * 2 * 2 * 3
            for row in result.rows:
                dead = row["gamma"] == 0.0 and row["epsilon"] == 0.0
                assert (row["flag"] == "collapsed") == dead
                assert (row[estimate] is None) == dead

    def test_slope_three_never_flagged(self):
        result = run_ei_sweep(small_config(gamma_values=(0.0, 0.5)))
        assert not any("collapsed" in row["flag"] for row in result.rows)
        assert all(row["theta_suveges"] is not None for row in result.rows)


class TestGevSweep:
    def test_runs_and_exports(self, tmp_path):
        result = run_gev_sweep(small_config(length=4000), block_size=100)
        assert len(result.rows) == 6
        for row in result.rows:
            assert row["dropped_blocks"] >= 0
            if not row["flag"]:
                assert abs(row["xi"]) < 1.0
        path = tmp_path / "gev.csv"
        export_gev_csv(result, path)
        with open(path, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 6

    def test_requires_enough_blocks(self):
        with pytest.raises(ConfigError):
            run_gev_sweep(small_config(length=2000), block_size=1000)


class TestWaitingTimes:
    def test_emits_series_and_epdf(self, tmp_path):
        out = tmp_path / "wt"
        summaries = run_waiting_time_report(small_config(), str(out))
        assert len(summaries) == 2
        for s in summaries:
            assert s["exceedances"] >= s["clusters"] >= 1
            series_rows = list(csv.DictReader(open(out / s["series_csv"])))
            assert len(series_rows) == 2000
            exceed_count = sum(int(r["exceeds"]) for r in series_rows)
            assert exceed_count == s["exceedances"]
            epdf_rows = list(csv.DictReader(open(out / s["epdf_csv"])))
            total = sum(float(r["probability"]) for r in epdf_rows)
            assert total == pytest.approx(1.0)


class TestCompoundPoisson:
    def test_small_run(self):
        cfg = small_config(gamma_values=(0.3,), length=200_000)
        reports = run_compound_poisson_check(
            cfg, accuracy=5e-3, t=1.0, ensemble_size=100
        )
        rep = reports[0]
        assert 0.0 < rep["mu_strip"] < 0.1
        assert 0.0 <= rep["theta_hat"] <= 1.0
        assert sum(rep["empirical_pmf"]) == pytest.approx(1.0)
        assert 0.0 <= rep["tv_compound_poisson"] <= 1.0

    def test_rejects_noise(self):
        with pytest.raises(ConfigError):
            run_compound_poisson_check(small_config(epsilons=(1e-2,)))

    def test_windows_stream_within_budget(self, monkeypatch):
        cfg = small_config(gamma_values=(0.0, 0.3), length=20_000)
        accuracy, t, size = 2e-2, 50.0, 60
        # reference: whole windows of states from one ensemble per point
        expect, largest = [], 0
        for gamma in cfg.gamma_values:
            spec = MapSpec(cfg.local_map, 2, gamma)
            key = (cfg.seed, 2, _gamma_key(gamma))
            orbit = simulate_ensemble(spec, 1, cfg.length, _point_seed(*key, 3),
                                      burn_in=cfg.burn_in)
            ind = strip_indicator(orbit[:, 0, :], accuracy)
            mu = float(np.mean(ind))
            horizon = int(t / mu)
            windows = simulate_ensemble(spec, size, horizon + 1,
                                        _point_seed(*key, 4),
                                        burn_in=cfg.burn_in)
            counts = np.sum(strip_indicator(windows[1:], accuracy), axis=0)
            expect.append((mu, suveges_ei(ind, 1.0 - mu).theta, horizon,
                           [float(h) for h in np.bincount(counts) / size]))
            largest = max(largest, windows.nbytes)
        # a budget the windows overrun, but one chunk of them fits
        budget = 700_000
        assert largest > budget
        monkeypatch.setattr(lattice, "_MAX_ENSEMBLE_BYTES", budget)
        with pytest.raises(MemoryBudgetError):
            simulate_ensemble(MapSpec(cfg.local_map, 2, 0.3), size,
                              largest // (size * 2 * 8), 0)
        reports = run_compound_poisson_check(cfg, accuracy, t, size)
        assert [(r["mu_strip"], r["theta_hat"], r["horizon"],
                 r["empirical_pmf"]) for r in reports] == expect


class TestDensityFigures:
    def test_emits_files(self, tmp_path):
        cfg = small_config(gamma_values=(0.3,))
        records = run_density_figures(
            cfg, str(tmp_path), bins=20, density_realizations=10,
            iterations_each=500,
        )
        rec = records[0]
        assert (tmp_path / rec["density_csv"]).exists()
        assert (tmp_path / rec["trace_csv"]).exists()
        assert rec["samples"] == 5000


class TestReproduce:
    def test_unknown_figure(self, tmp_path):
        with pytest.raises(ConfigError):
            reproduce("nope", str(tmp_path))

    def test_manifest_replay_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        manifest = reproduce("global_Poisson", str(first), seed=9)
        replay = reproduce_from_manifest(str(first / "manifest.json"), str(second))
        assert replay == manifest
        for name in manifest["outputs"] + ["manifest.json"]:
            with open(first / name, "rb") as fa, open(second / name, "rb") as fb:
                assert fa.read() == fb.read()

    def test_malformed_manifest_is_config_error(self, tmp_path):
        path = tmp_path / "manifest.json"
        for manifest in ({"figure_id": "global_Poisson", "seed": 0, "config": []},
                         {"figure_id": "global_Poisson", "seed": "x", "config": {}}):
            path.write_text(json.dumps(manifest))
            with pytest.raises(ConfigError):
                reproduce_from_manifest(str(path), str(tmp_path / "out"))
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            reproduce_from_manifest(str(path), str(tmp_path / "out"))


class TestCli:
    def test_theory_command(self, tmp_path):
        out = tmp_path / "theory"
        assert main(["theory", "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(open(out / "theory.csv")))
        assert len(rows) == 4 * 7
        assert float(rows[0]["theta_theory"]) == pytest.approx(2.0 / 3.0)

    def test_simulate_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "gamma": 0.2, "length": 500,
                                   "burn_in": 10}))
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(cfg), "--seed", "5",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = list(csv.reader(open(out / "trajectory.csv")))
        assert len(rows) == 501  # header + steps

    def test_ei_sweep_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_values": [2], "gamma_values": [0.1], "epsilons": [0.0],
            "length": 1500, "realizations": 2, "burn_in": 50,
        }))
        out = tmp_path / "sweep"
        code = main(["ei-sweep", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "ei_sweep.csv").exists()

    def test_global_flags_before_subcommand(self, tmp_path):
        out = tmp_path / "theory2"
        assert main(["--out", str(out), "theory"]) == EXIT_OK
        assert (out / "theory.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        for bad in ({"n_values": [1]}, {"epsilons": [float("nan")]},
                    {"length": 2.5}, {"length": float("nan")},
                    {"realizations": 2.5}, {"burn_in": -5}, {"burn_in": 2.5}):
            cfg.write_text(json.dumps(bad))  # NaN is written as bare NaN
            assert main(["ei-sweep", "--config", str(cfg)]) == EXIT_CONFIG

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["ei-sweep", "--config", str(cfg)]) == EXIT_CONFIG

    def test_localization_is_config_error(self, tmp_path, capsys):
        # no config key can supply the target state localization needs
        cfg = tmp_path / "loc.json"
        cfg.write_text(json.dumps({"observable": "localization",
                                   "n_values": [2], "length": 500}))
        code = main(["ei-sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["ei-sweep", "--config", str(tmp_path / "nope.json")]) \
            == EXIT_CONFIG

    def test_numerical_error_exit_code(self, tmp_path):
        # A hole covering the whole domain makes the spectral estimate fail.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "nus": [0.9]}))
        out = tmp_path / "spec"
        code = main(["spectral", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("bad", [
        {"nus": []}, {"k": "abc"}, {"k": 10.7}, {"k": 0}, {"k": 5000},
        {"nus": [0.0]}, {"nus": [0.02, 1.0]}, {"nus": ["0.02"]},
        {"gamma": 1.0}, {"gamma": float("nan")}, {"gamma": True},
        {"slope": 1}, {"bogus": 1},
    ], ids=lambda bad: json.dumps(bad))
    def test_spectral_config_error(self, tmp_path, capsys, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "spec"
        code = main(["spectral", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_spectral_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.0, "k": 30, "nus": [0.1, 0.05]}))
        out = tmp_path / "spec"
        code = main(["spectral", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        with open(out / "spectral.json") as fh:
            data = json.load(fh)
        assert 0.0 <= data["theta"] <= 1.0

    def test_reproduce_command(self, tmp_path):
        out = tmp_path / "fig"
        code = main(["reproduce", "global_Poisson", "--seed", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["figure_id"] == "global_Poisson"
        for name in manifest["outputs"]:
            assert (out / name).exists()
