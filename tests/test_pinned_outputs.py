"""Pinned output bytes of small runs of the commands whose orbits come from
the lock-step pass.  Each digest covers every file a run writes, with noise
and burn-in where the command takes them (compound-poisson is noise-free).

Float results can differ in their last bits between numpy releases, so the
digests hold for the versions they were recorded on; on any other version
the test fails and names both, and the digests are to be re-recorded from
a commit whose outputs are known to be right.
"""
import contextlib
import hashlib
import io
import json
import os
import platform

import numpy as np
import pytest

from cmlsync.cli import EXIT_OK, main

RECORDED_ON = {"python": "3.11.7", "numpy": "2.4.6"}

# command: (config, sha256 over the sorted (file name, bytes) of its
# output), recorded before simulate and simulate_ensemble ran on the pass
RUNS = {
    "simulate": (
        {"n": 3, "gamma": 0.3, "slope": 3, "length": 300, "epsilon": 0.001,
         "burn_in": 20, "seed": 7},
        "194a9357c0e02ab03729ac536af5cecf"
        "09886ca2231879082cb892f0ca2c4a47"),
    "density": (
        {"n_values": [2, 3], "gamma_values": [0.0, 0.3],
         "epsilons": [0.0, 0.001], "bins": 8, "density_realizations": 10,
         "iterations_each": 300, "burn_in": 20, "seed": 5},
        "95fec25d5a4770733d8c04c113ed663e"
        "9eb8cc0a6f9e1df3495659a93a2681c5"),
    "compound-poisson": (
        {"n_values": [2, 3], "gamma_values": [0.1, 0.3], "length": 20000,
         "burn_in": 20, "ensemble_size": 50, "accuracy": 0.05, "seed": 3},
        "b44ba6d39a44b56b666fa639ab42b21d"
        "d2d81492807cd00b1d3693bcedf05bf2"),
    "waiting-times": (
        {"n_values": [2, 3], "gamma_values": [0.2], "epsilons": [0.0, 0.001],
         "length": 1000, "burn_in": 20, "seed": 4},
        "efb5666efbb6eb2ef754ff13f634259d"
        "a6d713cb6e3e0b0d293ac8587fff3829"),
}


def digest(out_dir) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("command", sorted(RUNS))
def test_output_bytes(command, tmp_path):
    here = {"python": platform.python_version(), "numpy": np.__version__}
    assert here == RECORDED_ON, (
        f"the digests were recorded on {RECORDED_ON}, this is {here}")
    config, expected = RUNS[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(path), "--out", str(out)]) \
            == EXIT_OK
    assert digest(out) == expected
