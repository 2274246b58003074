"""Smoke tests: each numbered demo runs to completion as a script, and the
package simulates, evaluates and learns with numpy as its only runtime
dependency.

``calibrate_c_eta.py`` sweeps radii over many samples and is left out for
its run time.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


# blocks every import of scipy, then runs t1 end to end at n = 500
WITHOUT_SCIPY = """
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ModuleNotFoundError:
    pass
else:
    raise SystemExit("scipy was not blocked")

import confgame

spec = confgame.get_fixture("t1")
ds = confgame.simulate_dataset(spec, n=500, seed=0)
basis = confgame.build_basis("saturated", spec.n_states, spec.n_u)
res = confgame.evaluate_policy(ds, confgame.constant_policy_pair(spec, 1.0, 0.5, 0.5), basis)
best, pv = confgame.learn_policy_pair(ds, confgame.stationary_deterministic_pairs(spec), basis)
print(res.j_total, pv.value)
"""


def _env(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("0*.py")))
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path, env=_env(tmp_path), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_package_runs_without_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY],
        cwd=tmp_path, env=_env(tmp_path), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    j_total, value = map(float, proc.stdout.split())
    assert np.isfinite(j_total) and value > -np.inf
