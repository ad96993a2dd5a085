"""Smoke-size self-test of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench -q``; the
Tier-1 suite (``tests/``) does not collect it.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gridtopo.estimation  # noqa: E402
from gridtopo.grid import girth  # noqa: E402

from run import metric_units  # noqa: E402
import spans  # noqa: E402
from synthgrid import MIN_CYCLE, meshed_grid  # noqa: E402
from worker import layer_metrics, run_passes, stage_shares  # noqa: E402
from workloads import Sweep, Tally  # noqa: E402


def test_meshed_grid_is_seeded_and_in_counting_class():
    a, b = meshed_grid(80, seed=3), meshed_grid(80, seed=3)
    assert a.lines == b.lines
    assert a.lines != meshed_grid(80, seed=4).lines
    assert girth(a) >= MIN_CYCLE
    ref_nbrs = a.adjacency[a.reference]
    assert len(ref_nbrs) > 1
    # buses fed only from the reference: ROADMAP item 2's counting defect
    assert any(a.adjacency[bus] == (a.reference,) for bus in ref_nbrs)


def test_self_times_and_stage_roots():
    # cli(0..10) > experiments(1..9) > sampling(2..6) > powerflow(3..5)
    recorded = [
        ["cli.experiment", "cli", 0.0, 10.0, -1, 0, None],
        ["experiments.run_single_trial", "experiments", 1.0, 9.0, 0, 0, None],
        ["sampling.generate_voltage_samples", "sampling", 2.0, 6.0, 1, 0, None],
        ["powerflow.solve_dc", "powerflow", 3.0, 5.0, 2, 0, None],
    ]
    assert spans.self_times(recorded) == [2.0, 4.0, 2.0, 2.0]
    assert spans.stage_roots(recorded) == [False, False, True, False]


def test_tracer_patches_and_restores():
    original = gridtopo.estimation.invert_covariance
    tracer = spans.Tracer()
    with tracer:
        assert gridtopo.estimation.invert_covariance is not original
        gridtopo.estimation.invert_covariance([[2.0, 0.0], [0.0, 4.0]])
    assert gridtopo.estimation.invert_covariance is original
    assert [s[0] for s in tracer.spans] == ["estimation.invert_covariance"]


def test_tracer_names_a_missing_target(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", (("gridtopo.estimation", ("no_such_function",)),))
    with pytest.raises(spans.MissingTargetError, match="gridtopo.estimation.no_such_function"):
        with spans.Tracer():
            pass


class TinySweep(Sweep):
    name = "tiny_sweep"
    combos = (("dc", "counting"),)
    counts = "500"
    trials = 2


def test_traced_smoke_pass_yields_every_layer_metric(tmp_path):
    workload = TinySweep(tmp_path, seed=1)
    workload.setup()
    tally = Tally()
    untraced = run_passes(workload, 0.0, tally)
    tracer = spans.Tracer()
    with tracer:
        traced = run_passes(workload, 0.0, tally, tracer)
    metrics = layer_metrics(tracer, traced, untraced)
    assert set(metric_units("per_layer")) <= set(metrics)
    assert tally.ops == 4 and not tally.broken
    assert metrics["estimation.inversions_per_estimate"] == 2.0
    assert metrics["cli.experiment_s"] > 0
    assert next(iter(stage_shares(tracer, traced))) == "sampling"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_files", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
