"""The package API the benchmark harness calls must keep working.

The traced run (``perfbench/run.py --trace 1``) patches the functions listed
in ``perfbench/spans.py`` ``TARGETS`` and fails on a missing one, and
``perfbench/workloads.py`` reads estimates and reconstructs from them; these
tests report such a break in the unit suite instead.
"""
import importlib
import importlib.util
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gridtopo.cli import main
from gridtopo.estimation import estimate_concentration, load_estimate_json, write_estimate_json
from gridtopo.experiments import reconstruct
from gridtopo.powerflow import InjectionStats
from gridtopo.sampling import generate_voltage_samples

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_callable():
    missing = [
        f"{modname}.{attr}"
        for modname, attrs in load_spans().TARGETS
        for attr in attrs
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("n,method", [(200, "direct"), (50, "glasso")])
def test_estimate_reads_of_the_workloads(radial20, tmp_path, n, method):
    # the attributes the workloads read, and reconstruct() on a loaded
    # estimate, equal to what `learn --out` writes from the same file
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), "dc", n, seed=1)
    est = estimate_concentration(s, method=method, lam="auto")
    assert est.method == method
    assert isinstance(est.iterations, int) and isinstance(est.termination, str)
    assert (est.kkt is None) == (method == "direct")
    if est.kkt is not None:
        assert max(est.kkt.values()) >= 0.0
    path, topo = tmp_path / "est.json", tmp_path / "topo.json"
    write_estimate_json(est, path)
    back = load_estimate_json(path)
    want = reconstruct(back.concentration, "thresholding", est=back).to_dict()
    result = CliRunner().invoke(main, ["learn", "--conc", str(path), "--algo", "thresholding",
                                       "--out", str(topo)])
    assert result.exit_code == 0, result.output
    assert json.loads(topo.read_text()) == json.loads(json.dumps(want))
