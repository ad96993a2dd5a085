"""Import footprint: starting the CLI, loading and checking a grid file,
running a sweep trial and taking a direct estimate load no scipy module,
and, with the sweep in one process, no multiprocessing module."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridtopo

SRC = Path(gridtopo.__file__).resolve().parents[1]

PROBE = """
import json, os, sys, tempfile, gridtopo.cli
from gridtopo.estimation import estimate_concentration
from gridtopo.experiments import ExperimentSpec, run_experiment
from gridtopo.grid import builtin_grid, girth, grid_hash, load_grid, save_grid
from gridtopo.powerflow import InjectionStats
from gridtopo.sampling import generate_voltage_samples

with tempfile.TemporaryDirectory() as tmp:
    save_grid(builtin_grid("loopy20_c4"), os.path.join(tmp, "grid.json"))
    loaded = load_grid(os.path.join(tmp, "grid.json"))
    girth(loaded), grid_hash(loaded)
run_experiment(ExperimentSpec(grid="radial20", sample_counts=(500,), trials=1))
grid = builtin_grid("radial20")
estimate_concentration(generate_voltage_samples(grid, InjectionStats.uniform(grid), "dc", 200, seed=0))
print(json.dumps({top: sorted(m for m in sys.modules if m.split('.')[0] == top)
                  for top in ("scipy", "multiprocessing")}))
"""


@pytest.fixture(scope="module")
def probed() -> dict[str, list[str]]:
    """The scipy and multiprocessing modules the probe's process loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy(probed):
    loaded = probed["scipy"]
    assert loaded == [], (
        f"`import gridtopo.cli`, a grid file's load, girth and hash, a one-trial sweep "
        f"and a direct estimate load "
        f"{len(loaded)} scipy module(s), first {loaded[:3]}. "
        "`import scipy.sparse` alone was measured at 0.22 s (354 -> 616 ms for "
        "`import gridtopo.cli` on a 2-vCPU Xeon) and `import scipy.linalg` at "
        "0.27 s. Every CLI run pays it, and every benchmark workload in `setup_s`, "
        "whose warm-up runs a sweep or an estimate: on `sweep_direct` (~0.28 s) "
        "that breaks the 0.25 relative bound. Measure that cost before importing "
        "scipy, at module level or inside a function on these paths."
    )


def test_one_process_sweep_loads_no_multiprocessing(probed):
    # the probe's sweep runs with the default workers=1
    loaded = probed["multiprocessing"]
    assert loaded == [], (
        f"`import gridtopo.cli` and a one-process sweep load {len(loaded)} multiprocessing "
        f"module(s), first {loaded[:3]}. A module-level `ProcessPoolExecutor` import was "
        "measured at +2.0 MB RSS and about 20 ms of import for every CLI run; import the "
        "pool only where a sweep opens it (`workers > 1`)."
    )
