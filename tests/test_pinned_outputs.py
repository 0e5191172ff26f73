"""Pinned output bytes of small runs of the commands, one sha256 per file
each run writes, so that a failure names the files that changed.

The orbits come from the lock-step pass, with noise and burn-in where the
command takes them (compound-poisson is noise-free).  The slope-2 sweeps
write rows flagged `collapsed`, `qk:`, `gpd:` and `gev:`; `theory` writes
the closed-form theta of every default (n, gamma); and `reproduce
global_Poisson` writes the waiting-time cluster counts in its manifest.

Float results can differ in their last bits between numpy releases, so the
records hold for the versions they were recorded on; on any other version
the test fails and names both, and the records are to be re-recorded, with
``sha256sum *`` in each output directory, from a commit whose outputs are
known to be right.
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

# name: (command line, config, `sha256sum` lines of every output file)
RUNS = {
    "simulate": (
        ["simulate"],
        {"n": 3, "gamma": 0.3, "slope": 3, "length": 300, "epsilon": 0.001,
         "burn_in": 20, "seed": 7}, """
a5b26019e85c82e2766a7a342af19c9020908c7fc46c14a90001958398896d71  trajectory.csv
"""),
    "density": (
        ["density"],
        {"n_values": [2, 3], "gamma_values": [0.0, 0.3],
         "epsilons": [0.0, 0.001], "bins": 8, "density_realizations": 10,
         "iterations_each": 300, "burn_in": 20, "seed": 5}, """
230d77aaa3bd6c257a2d84cbbc953ac24e21065df5a8b981a3ed570ec99d36f7  density_n2_g0_e0.csv
e79f08e31c5d4e1b5b93f544e0e92c4bfd51a17d1e7f35d96e1ea0d57c11f714  density_n2_g0_e100000.csv
aebb757023badabfc0dd96dae55e545a60254580c059abcf520c06ff9eee4c6e  density_n2_g3000_e0.csv
97419e3f788107ae66eef49669c3bfd45ff8fce1fd997e520710281293071ecf  density_n2_g3000_e100000.csv
b76a46a6dde594ffc1dc9b39ddd6c91abbbd07713914d7592502086a94e38796  density_n3_g0_e0.csv
f2ab6601a66ce510d45f9d8597153139e5161ba3456e05f0d05fdd35eab45d58  density_n3_g0_e100000.csv
5d9c456ad25ac0d169c480b3cc995fad7523d7cbe4a2c2d254c3576bc061b2be  density_n3_g3000_e0.csv
e32096ad45b12e4a17a9fc2b2895eda6bba3a97d53d5ddd42049fcf13ee8e14f  density_n3_g3000_e100000.csv
156bd22f98db9085ac344cc5730e7f666634761a451e601c8b95aa14296ff20c  density_report.json
cf0a3c47c9445773eef2f80f73389bffb9f7a9ac39f7a00e165bfa4ff9394e0c  trace_n2_g0_e0.csv
eb3f5b1fd5205a5a0edaf8d250c353bb8781eb87217a3e9cd96082b00895896e  trace_n2_g0_e100000.csv
0c235db57aeb60ffa654d1781a9c36f1ba9bf2a6cd589c6099082eb327a1c65c  trace_n2_g3000_e0.csv
e30c5743a111cb6cb08f79228a5210e46aa7b8af0d53993f9e26c4f5eca63050  trace_n2_g3000_e100000.csv
67fe68b3133e91fdf1d84724a9692eae3234f47d1fcbba02d8a7c0d93e1839a8  trace_n3_g0_e0.csv
defcebadfe712c271aeafc53f09f6d1eb15c2f27676440c9089ba3d359c63425  trace_n3_g0_e100000.csv
dd84ae574b5ae88e06ff13ab8409431ae579469b92d6b86c0f51faeea7699d25  trace_n3_g3000_e0.csv
98dd54234edd954c9b96375068fd9f8cf8b8429e4eae023b2ca9ae14b1136085  trace_n3_g3000_e100000.csv
"""),
    "compound-poisson": (
        ["compound-poisson"],
        {"n_values": [2, 3], "gamma_values": [0.1, 0.3], "length": 20000,
         "burn_in": 20, "ensemble_size": 50, "accuracy": 0.05, "seed": 3}, """
c90beff59b9902f4f147ef951c4aaeaf5955febf3dcabd73d5218480074ad300  compound_poisson.json
"""),
    "waiting-times": (
        ["waiting-times"],
        {"n_values": [2, 3], "gamma_values": [0.2], "epsilons": [0.0, 0.001],
         "length": 1000, "burn_in": 20, "seed": 4}, """
b7237cdfd312ea7dc515542ec9aef4def4fe071a03c71b93cbd85bf8ed8d1b0d  epdf_n2_g2000_e0.csv
dc5439160c335206a85f4240867cd8d007d1d52d0f1444555d00358497f9fa16  epdf_n2_g2000_e100000.csv
fdce38b3afa1815584972d15f8ae3451fc207b4d55d53e8d94c82de790343fb6  epdf_n3_g2000_e0.csv
1701f9d2053ea6b86337a82f80c3c06d1bde5041cce95664210640f9012d4dd8  epdf_n3_g2000_e100000.csv
dd64f947657384f8a4dcc21032b22d5aeaac9a70d676499eea4b7d0ae7967013  series_n2_g2000_e0.csv
9e8ade9dd1e65dfc2a7bf505fb7c574bf3084abf0d8cb605e541d2e437c192e2  series_n2_g2000_e100000.csv
7a117473885772e90c08bcc16d161487062804bb21cff58e66ed3ce886d5ac2d  series_n3_g2000_e0.csv
6f5fd7ee6928f4cf8a97c24b6dcc153f415f3c56314c5a49a3ccd92941604379  series_n3_g2000_e100000.csv
288ef62b85849b99e45a1b0ff002b8431cef49beeccd6b3c8db5988d4267203e  summary.json
"""),
    "ei-sweep": (
        ["ei-sweep"],
        {"slope": 2, "n_values": [2, 3], "gamma_values": [0, 0.375, 0.5],
         "realizations": 4, "length": 3000, "seed": 0}, """
1fb6674e74eede62f01420cef0273f1739afc00a5eefd2940da9082ddcce8fed  ei_sweep.csv
"""),
    "gev-sweep": (
        ["gev-sweep"],
        {"slope": 2, "n_values": [2, 3], "gamma_values": [0, 0.5],
         "realizations": 3, "length": 4000, "seed": 0}, """
9137052edc6a5fac4c7d8da337e905e3e31c021837816a8d0c89d09bf307d075  gev_sweep.csv
"""),
    "theory": (
        ["theory"], {}, """
ea2cff7389b6fc46bb56a0f3ae3264e3ac203a054a870e01ae343003a115977b  theory.csv
"""),
    "reproduce": (
        ["reproduce", "global_Poisson"], {"seed": 0}, """
32f59b971fdd0c3e61620fd4439f21a804a431734639d4c2fc6059ea0843bae1  epdf_n4_g3000_e0.csv
09021de5c28e40f45ce04da816d5eb379ae4bd4f44ae299e861b72a99cfb1480  epdf_n4_g3000_e1000000.csv
4f576d0a001035dc37a2509331bbfb9f995f96e2fe761860a6163b79b9dcc8ad  manifest.json
8f8ea64be2ae90d4a58838cb2b858a9daf6c6ced958f8d9c23e81c77402a7521  series_n4_g3000_e0.csv
f9f6a10696363ecf7f577e791e2ae58a50b1233b96417a9065f866aec5cc138b  series_n4_g3000_e1000000.csv
"""),
}


def file_digests(out_dir) -> dict:
    """{file name: sha256 hex} of every file in out_dir."""
    out = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_bytes(name, tmp_path):
    here = {"python": platform.python_version(), "numpy": np.__version__}
    assert here == RECORDED_ON, (
        f"the digests were recorded on {RECORDED_ON}, this is {here}")
    command, config, record = RUNS[name]
    expected = {f: sha for sha, f in map(str.split, record.strip().splitlines())}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*command, "--config", str(path), "--out", str(out)]) \
            == EXIT_OK
    got = file_digests(out)
    changed = sorted(f for f in expected.keys() | got.keys()
                     if expected.get(f) != got.get(f))
    assert not changed, f"output files unlike their record: {changed}"
