"""``scripts/plot_results.py`` reads the summary rows of a sweep CSV.

The script is loaded by path; ``read_summary`` needs no matplotlib.
"""
import importlib.util
from pathlib import Path

import pytest

from gridtopo.experiments import ExperimentResult, ExperimentSpec, TrialRecord, write_results_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "plot_results.py"


def load_script():
    spec = importlib.util.spec_from_file_location("plot_results", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_read_summary_reads_what_the_sweep_writes(tmp_path):
    spec = ExperimentSpec(grid="radial20", model="lc", algorithm="counting",
                          sample_counts=(100, 400), trials=2)
    records = (TrialRecord(100, 0, 1, 2, 3), TrialRecord(100, 1, 0, 1, 1),
               TrialRecord(400, 0, 0, 0, 0), TrialRecord(400, 1, 0, 2, 2))
    path = tmp_path / "sweep.csv"
    write_results_csv(ExperimentResult(spec, "h", records), path)
    label, counts, means, stds = load_script().read_summary(path)
    assert label == "radial20 lc counting"
    assert counts == [100, 400]
    assert means == [2.0, 1.0]
    assert stds == [1.0, 1.0]


def test_read_summary_refuses_a_csv_without_summary_rows(tmp_path):
    path = tmp_path / "trials.csv"
    path.write_text("grid,model,algo,estimator,n,trial,fp,fn,total\n"
                    "radial20,dc,thresholding,auto,100,0,0,0,0\n")
    with pytest.raises(SystemExit, match="no summary rows"):
        load_script().read_summary(path)
