"""The package API the benchmark harness calls must keep working.

The traced run (``perfbench/run.py --trace 1``) patches the functions listed
in ``perfbench/spans.py`` ``TARGETS`` and fails on a missing one, and
``perfbench/workloads.py`` reads estimates and reconstructs from them; these
tests report such a break in the unit suite instead.  One in-process run of
every command also pins which traced names the pipeline reaches, so a change
that routes a call around its traced name fails here too.
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
from gridtopo.grid import builtin_grid, save_grid
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


#: the traced names that one pass of :func:`cli_script` opens; every other
#: name in ``TARGETS`` wraps a function that no command reaches
LIVE_SPANS = frozenset({
    "estimation.estimate_concentration", "estimation.graphical_lasso",
    "estimation.invert_covariance", "estimation.kkt_violations", "estimation.load_estimate_json",
    "estimation.select_lambda", "estimation.write_estimate_json",
    "experiments.reconstruct", "experiments.resolve_grid", "experiments.run_experiment",
    "experiments.write_results_csv",
    "grid.builtin_grid", "grid.girth", "grid.grid_hash", "grid.load_grid",
    "learning.build_graphical_model", "learning.check_sufficiency",
    "learning.concentration_standard_error", "learning.edge_errors", "learning.learn_by_counting",
    "learning.learn_by_thresholding", "learning.resolve_tau1", "learning.resolve_tau2",
    "learning.write_topology_json",
    "powerflow.dc_concentration", "powerflow.dc_labels", "powerflow.lc_concentration",
    "powerflow.lc_labels",
    "sampling.generate_voltage_samples", "sampling.load_samples_csv", "sampling.write_samples_csv",
})


def cli_script(tmp_path):
    """One run of every command: a grid file's info, exact learning for each
    model and algorithm, certify, sample -> estimate (direct, glasso) ->
    learn --out, and a sampled, a glasso and an exact sweep."""
    grid, samples, est = (str(tmp_path / f) for f in ("grid.json", "s.csv", "est.json"))
    save_grid(builtin_grid("loopy20_c7"), grid)
    yield ["grid", "info", grid]
    for model in ("dc", "lc"):
        for algo in ("thresholding", "counting"):
            yield ["learn", "--conc", "exact", "--grid", "loopy20_c7", "--model", model, "--algo", algo]
    yield ["certify", "--grid", "ieee14"]
    yield ["sample", "--grid", "radial20", "--n", "200", "--seed", "1", "--out", samples]
    yield ["estimate", "--samples", samples, "--method", "glasso", "--out", str(tmp_path / "glasso.json")]
    yield ["estimate", "--samples", samples, "--method", "direct", "--out", est]
    yield ["learn", "--conc", est, "--out", str(tmp_path / "topo.json")]
    sweep = ["experiment", "--grid", "radial20", "--counts", "100", "--trials", "2", "--workers", "1",
             "--out", str(tmp_path / "results.csv")]
    for extra in (["--model", "dc"], ["--model", "lc"], ["--estimator", "glasso", "--counts", "60"],
                  ["--exact"]):
        yield sweep + extra


def test_the_commands_open_every_live_traced_name(tmp_path):
    # a traced name that the commands stop reaching reads 0 in the benchmark;
    # one they start reaching is new work to time
    runner = CliRunner()
    with load_spans().Tracer() as tracer:
        for args in cli_script(tmp_path):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (args, result.output)
    assert {span[0] for span in tracer.spans} == LIVE_SPANS
