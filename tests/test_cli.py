"""Hostile config values through `cmlsync.cli.main`: every one becomes an
exit code, never a traceback, and a config error writes nothing."""
import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmlsync.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

_SWEEP = {"n_values": [2], "gamma_values": [0.2], "epsilons": [0.0],
          "length": 600, "quantile": 0.95, "observable": "global_sync",
          "realizations": 1, "slope": 3, "seed": 1, "burn_in": 10,
          "threads": 1}

# A tiny valid config per command; each test swaps one key for a bad value.
BASES = {
    "simulate": {"n": 2, "gamma": 0.2, "slope": 3, "length": 50,
                 "epsilon": 0.0, "burn_in": 10, "seed": 1},
    "ei-sweep": _SWEEP,
    "gev-sweep": {**_SWEEP, "block_size": 20},
    "waiting-times": _SWEEP,
    "compound-poisson": {**_SWEEP, "length": 3000, "accuracy": 0.01,
                         "t": 1.0, "ensemble_size": 50},
    "density": {**_SWEEP, "bins": 8, "density_realizations": 5,
                "iterations_each": 100},
    "spectral": {"gamma": 0.2, "slope": 3, "k": 12, "nus": [0.2, 0.1]},
    "theory": {"slope": 3, "n_values": [2, 3], "gamma_values": [0.1, 0.3]},
    "reproduce": {"seed": 1, "threads": 1},
}

HOSTILE = ["x", [], [1, 2], {"a": 1}, None, True, False, math.nan,
           math.inf, -math.inf, -1, 0, 2.5]


def run(command: str, config: dict) -> tuple[int, str, bool]:
    """(exit code, stderr, whether the output directory exists)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        out = os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        argv = [command, "--config", cfg, "--out", out]
        if command == "reproduce":
            argv.append("global_Poisson")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        return code, err.getvalue(), os.path.exists(out)


@st.composite
def one_bad_key(draw):
    command = draw(st.sampled_from(sorted(BASES)))
    key = draw(st.sampled_from(sorted(BASES[command])))
    return command, {**BASES[command], key: draw(st.sampled_from(HOSTILE))}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(one_bad_key())
def test_hostile_value_is_an_exit_code(case):
    command, config = case
    code, err, out_exists = run(command, config)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
    if code == EXIT_CONFIG:
        assert "config error:" in err
        assert not out_exists


@pytest.mark.parametrize("command, bad", [
    ("simulate", {"n": "abc"}), ("gev-sweep", {"block_size": 0}),
    ("density", {"bins": 0}), ("density", {"iterations_each": 0}),
    ("theory", {"n_values": 5}), ("ei-sweep", {"n_values": 5}),
    ("ei-sweep", {"n_values": [2.5]}), ("ei-sweep", {"seed": -1}),
    ("simulate", {"length": 2.5}), ("simulate", {"n": 2.7}),
    ("gev-sweep", {"block_size": 2.5}), ("theory", {"n_values": [1]}),
    ("simulate", {"n": 1}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_config_error_leaves_no_output(command, bad):
    code, err, out_exists = run(command, {**BASES[command], **bad})
    assert code == EXIT_CONFIG
    assert "config error:" in err
    assert not out_exists


@pytest.mark.parametrize("command", ["theory", "waiting-times", "density",
                                     "reproduce"])
def test_output_dir_under_a_file_is_config_error(command, tmp_path):
    # `theory` makes its directory in `cli._output`; the other three in
    # `experiments` before writing their own files
    blocker = tmp_path / "afile"
    blocker.write_text("")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(BASES[command]))
    argv = [command, "--config", str(cfg), "--out", str(blocker / "sub")]
    if command == "reproduce":
        argv.append("global_Poisson")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_CONFIG
    assert "cannot make output directory" in err.getvalue()
