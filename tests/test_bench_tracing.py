"""The benchmark's tracer wraps cmlsync functions by module attribute name
(bench/tracing.py `TRACED`): every target must still resolve, and the
simulate_ensemble description must still read its arguments right, or
`bench/run.py --trace 1` breaks."""
import importlib
import importlib.util
import os
import sys

import numpy as np

from cmlsync.lattice import LocalMap, MapSpec, NoiseSpec, simulate_ensemble

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "tracing.py")


def load_tracing():
    if "bench_tracing" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_tracing",
                                                      TRACING)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look it up
        spec.loader.exec_module(module)
    return sys.modules["bench_tracing"]


def test_every_traced_target_resolves():
    tracing = load_tracing()
    targets = [target.split(".") for target, _, _ in tracing.TRACED]
    modules = {m: importlib.import_module(f"cmlsync.{m}") for m, _ in targets}
    originals = [getattr(modules[m], attr, None) for m, attr in targets]
    assert [f"{m}.{attr}" for (m, attr), fn in zip(targets, originals)
            if not callable(fn)] == []
    tracer = tracing.Tracer("check", modules)
    tracer.install()
    tracer.uninstall()
    assert all(getattr(modules[m], attr) is fn
               for (m, attr), fn in zip(targets, originals))


def test_simulate_description_reads_the_arguments():
    describe = load_tracing()._describe_simulate
    spec = MapSpec(LocalMap.affine_mod1(3), 2, 0.1)
    args = (spec, 3, 20, 0, NoiseSpec(0.0), 5)
    attrs = describe(args, {}, simulate_ensemble(*args))
    assert attrs["steps"] == 25 and attrs["site_updates"] == 25 * 3 * 2
    attrs = describe(args[:4], {}, simulate_ensemble(*args[:4]))
    assert attrs["steps"] == 1020  # burn_in defaults to 1000
    assert np.isclose(attrs["mb"], 20 * 3 * 2 * 8 / 1e6)
