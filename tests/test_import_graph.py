"""Every cmlsync process pays for what `import cmlsync.cli` imports; no scipy
module belongs there: `ulam.build_ulam` imports `scipy.sparse` when it runs."""
import os
import subprocess
import sys

import cmlsync

HEAVY = ("scipy.optimize", "scipy.special", "scipy.linalg", "scipy.stats",
         "scipy.sparse")


def test_cli_import_leaves_heavy_scipy_modules_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmlsync.__file__)))
    code = ("import sys, cmlsync, cmlsync.cli; "
            f"print(sorted(m for m in {HEAVY!r} if m in sys.modules)); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    assert out[0] == "[]"
    assert out[1] == "[]"
