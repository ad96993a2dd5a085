"""Experiment harness: spec handling, sweeps, determinism, results CSV."""
import csv
import json

import numpy as np
import pytest

from gridtopo import __version__, experiments
from gridtopo.exceptions import ConfigError
from gridtopo.experiments import (
    RESULT_COLUMNS,
    ExperimentResult,
    ExperimentSpec,
    TrialRecord,
    load_experiment_config,
    reconstruct,
    resolve_grid,
    resolve_tau1,
    resolve_tau2,
    run_experiment,
    run_single_trial,
    write_results_csv,
)
from gridtopo.grid import grid_hash, save_grid
from gridtopo.learning import DEFAULT_Z, default_exact_tau1, default_exact_tau2
from gridtopo.powerflow import ConcentrationMatrix, InjectionStats, dc_concentration
from gridtopo.sampling import derive_trial_seed, generate_voltage_samples
from gridtopo.estimation import estimate_concentration


# ----------------------------------------------------------------------
# spec validation and IO
# ----------------------------------------------------------------------


def test_spec_defaults_roundtrip():
    spec = ExperimentSpec()
    assert spec.sample_counts == (500, 1000, 2000, 5000, 10000)
    assert spec.trials == 20 and spec.estimator == "auto"
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize(
    "kw,match",
    [
        ({"model": "ac"}, "model"),
        ({"algorithm": "regression"}, "algorithm"),
        ({"estimator": "mle"}, "estimator"),
        ({"sample_counts": ()}, "must not be empty"),
        ({"sample_counts": (100, 100)}, "strictly increasing"),
        ({"sample_counts": (500, 100)}, "strictly increasing"),
        ({"sample_counts": (0,)}, "positive"),
        ({"trials": 0}, "trials"),
        ({"seed": -1}, "seed"),
        ({"tau1": "magic"}, "tau1"),
        ({"tau2": float("nan")}, "tau2"),
        ({"glasso_lambda": "tiny"}, "glasso_lambda"),
        ({"workers": 0}, "workers"),
        ({"tau1": -1.0}, "tau1 must be a positive number"),
        ({"tau1": "0"}, "tau1 must be a positive number"),
        ({"tau2": 0.5}, "tau2 must be a negative number"),
        ({"tau2": None}, "tau2 must be a negative number"),
        ({"glasso_lambda": -1.0}, "glasso_lambda must be a finite number >= 0"),
        ({"glasso_lambda": float("nan")}, "glasso_lambda must be a finite number >= 0"),
    ],
)
def test_spec_validation(kw, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentSpec(**kw)


def test_spec_keeps_tau_numbers_as_given():
    spec = ExperimentSpec.from_dict({"tau1": 3, "tau2": "-0.5"})
    assert spec.tau1 == 3 and isinstance(spec.tau1, int)
    assert spec.tau2 == -0.5
    assert spec.to_dict()["tau1"] == 3 and isinstance(spec.to_dict()["tau1"], int)


def test_spec_reads_a_lambda_string_as_a_number():
    assert ExperimentSpec.from_dict({"glasso_lambda": "0.5"}).glasso_lambda == 0.5
    assert ExperimentSpec.from_dict({"glasso_lambda": 0}).to_dict()["glasso_lambda"] == 0


def test_spec_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown experiment config field"):
        ExperimentSpec.from_dict({"girth": 7})


def test_spec_exact_ignores_sample_counts():
    # exact mode never draws samples, so counts are not validated
    spec = ExperimentSpec(exact=True, sample_counts=())
    assert spec.exact


def test_spec_stats_for(radial20):
    spec = ExperimentSpec(sigma_pp=2.0, sigma_qq=1.5, sigma_pq=0.25)
    st = spec.stats_for(radial20)
    np.testing.assert_allclose(st.sigma_pp, 2.0)
    np.testing.assert_allclose(st.sigma_qq, 1.5)
    np.testing.assert_allclose(st.sigma_pq, 0.25)


def test_load_experiment_config(tmp_path):
    p = tmp_path / "exp.json"
    p.write_text(json.dumps({"grid": "ieee14", "trials": 3, "sample_counts": [100]}))
    spec = load_experiment_config(p)
    assert spec.grid == "ieee14" and spec.trials == 3
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_experiment_config(p)
    p.write_text("{oops")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_experiment_config(p)


def test_resolve_grid(tmp_path, loopy20_c7):
    assert resolve_grid("loopy20_c7").edge_set == loopy20_c7.edge_set
    p = tmp_path / "g.json"
    save_grid(loopy20_c7, p)
    assert grid_hash(resolve_grid(str(p))) == grid_hash(loopy20_c7)
    with pytest.raises(FileNotFoundError):
        resolve_grid(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------------
# threshold resolution
# ----------------------------------------------------------------------


def test_resolve_tau_passthrough_and_exact(radial20):
    conc = dc_concentration(radial20, InjectionStats.uniform(radial20))
    assert resolve_tau1(3.5, conc, None) == (3.5, None)
    assert resolve_tau2(-2.0, conc, None) == (-2.0, None)
    t1, s1 = resolve_tau1("auto", conc, None)
    assert t1 == pytest.approx(default_exact_tau1(conc)) and s1 is None
    t2, s2 = resolve_tau2("auto", conc, None)
    assert t2 == pytest.approx(default_exact_tau2(conc)) and s2 is None


def test_resolve_tau_auto_on_estimates(radial20):
    st = InjectionStats.uniform(radial20)
    s = generate_voltage_samples(radial20, st, "dc", 400, seed=1)
    est = estimate_concentration(s)
    t1, s1 = resolve_tau1("auto", est.concentration, est)
    assert t1 == DEFAULT_Z and s1.shape == (19, 19) and np.all(s1 > 0)
    t2, s2 = resolve_tau2("auto", est.concentration, est)
    assert t2 == -DEFAULT_Z and s2.shape == (19, 19)


def test_resolve_tau_gap_mode(radial20):
    conc = dc_concentration(radial20, InjectionStats.uniform(radial20))
    t1, _ = resolve_tau1("gap", conc, None)
    t2, _ = resolve_tau2("gap", conc, None)
    assert t1 > 0 > t2


def test_reconstruct_rejects_unknown_algorithm(radial20):
    conc = dc_concentration(radial20, InjectionStats.uniform(radial20))
    with pytest.raises(ConfigError, match="algorithm"):
        reconstruct(conc, "spectral")


# ----------------------------------------------------------------------
# trials and sweeps
# ----------------------------------------------------------------------


def test_run_single_trial_success(radial20):
    spec = ExperimentSpec(seed=1)
    rec = run_single_trial(radial20, spec.stats_for(radial20), spec, 2000, 0)
    assert (rec.fp, rec.fn, rec.total) == (0, 0, 0)
    assert rec.method == "direct"  # 2000 >= 5 * 19
    assert rec.error is None
    assert rec.seed == derive_trial_seed(1, 2000, 0)


def test_exact_sweep_record(radial20):
    res = run_experiment(ExperimentSpec(exact=True))
    assert len(res.records) == 1
    rec = res.records[0]
    assert (rec.n, rec.trial, rec.total, rec.method) == (0, 0, 0, "exact")
    assert res.grid_hash == grid_hash(radial20)
    assert list(res.summary()) == [0]


def test_exact_counting_on_short_cycle_grid_errs():
    # girth 4 breaks the counting guarantee: one spurious chord survives
    res = run_experiment(
        ExperimentSpec(grid="loopy20_c4", algorithm="counting", exact=True)
    )
    rec = res.records[0]
    assert (rec.fp, rec.fn) == (1, 0)
    assert rec.error is None


def fail_reconstruct(*args, **kwargs):
    raise ConfigError("forced reconstruction failure")


def test_failed_trials_score_as_empty_topology(monkeypatch):
    # a package error inside the trial; the record keeps the sweep alive
    monkeypatch.setattr(experiments, "reconstruct", fail_reconstruct)
    res = run_experiment(ExperimentSpec(exact=True))
    rec = res.records[0]
    assert (rec.fp, rec.fn, rec.total) == (0, 18, 18)
    assert "ConfigError" in rec.error
    assert res.summary()[0]["failures"] == 1


_NO_SKELETON = ("ReconstructionError: counting found no non-leaf skeleton edges; "
                "the rule needs a grid with at least 3 non-leaf buses")


def _leaf(bus: int, candidates: list[int]) -> str:
    return (f"AmbiguousLeafError: leaf bus {bus} has {len(candidates)} attachment "
            f"candidates {candidates}; cannot determine its line")


_OK = (0, 0, None)

# Per-trial (fp, fn, error) of the sweep below, recorded with samples drawn by
# solving the power flow once per snapshot.  Every counting trial hits the
# known leaf/skeleton defect and scores all 18 lines missed.
PINNED_MINI_SWEEP = {
    ("dc", "thresholding"): [_OK] * 10,
    ("dc", "counting"): [(0, 18, e) for e in [_NO_SKELETON] * 5 + [
        _leaf(1, []), _leaf(1, []), _leaf(1, []), _leaf(3, [1, 2]), _leaf(1, [])]],
    ("lc", "thresholding"): [_OK] * 10,
    ("lc", "counting"): [(0, 18, e) for e in [
        _leaf(1, []), _NO_SKELETON, _leaf(1, [2, 9]), _NO_SKELETON, _leaf(1, []),
        _leaf(1, []), _leaf(1, []), _leaf(1, []), _leaf(3, [1, 2]), _leaf(1, [])]],
}


@pytest.mark.parametrize("model,algorithm", sorted(PINNED_MINI_SWEEP))
def test_pinned_radial20_mini_sweep(model, algorithm):
    spec = ExperimentSpec(grid="radial20", model=model, algorithm=algorithm, estimator="direct",
                          sample_counts=(500, 1000), trials=5, seed=0)
    got = [(r.fp, r.fn, r.error) for r in run_experiment(spec).records]
    assert got == PINNED_MINI_SWEEP[model, algorithm]


def test_sweep_summary_and_worker_equivalence():
    spec = ExperimentSpec(sample_counts=(300, 600), trials=3, seed=5)
    res = run_experiment(spec)
    assert [r.n for r in res.records] == [300, 300, 300, 600, 600, 600]
    summary = res.summary()
    totals_300 = np.array([r.total for r in res.records if r.n == 300], dtype=float)
    assert summary[300]["total_mean"] == pytest.approx(totals_300.mean())
    assert summary[300]["total_std"] == pytest.approx(totals_300.std())

    par = run_experiment(ExperimentSpec(sample_counts=(300, 600), trials=3, seed=5, workers=2))
    assert par.records == res.records


def test_summary_math_on_handmade_records():
    recs = tuple(
        TrialRecord(n=100, trial=t, fp=fp, fn=0, total=fp, error=err)
        for t, (fp, err) in enumerate([(1, None), (2, None), (3, "E: x")])
    )
    res = ExperimentResult(spec=ExperimentSpec(), grid_hash="h", records=recs)
    agg = res.summary()[100]
    assert agg["fp_mean"] == pytest.approx(2.0)
    assert agg["fp_std"] == pytest.approx(np.sqrt(2.0 / 3.0))
    assert agg["failures"] == 1


# ----------------------------------------------------------------------
# results CSV + sidecar
# ----------------------------------------------------------------------


def test_results_csv_layout_and_sidecar(tmp_path):
    spec = ExperimentSpec(sample_counts=(200, 400), trials=2, seed=7)
    res = run_experiment(spec)
    out = tmp_path / "results.csv"
    write_results_csv(res, out)

    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(RESULT_COLUMNS)
    data = [r for r in rows if r["trial"] not in ("mean", "std")]
    assert len(data) == 4
    assert {r["grid"] for r in rows} == {"radial20"}
    means = [r for r in rows if r["trial"] == "mean"]
    stds = [r for r in rows if r["trial"] == "std"]
    assert [r["n"] for r in means] == ["200", "400"]
    assert len(stds) == 2

    meta = json.loads((tmp_path / "results.csv.meta.json").read_text())
    assert ExperimentSpec.from_dict(meta["spec"]) == spec
    assert meta["grid_hash"] == res.grid_hash
    assert meta["version"] == __version__
    assert meta["trial_seeds"]["200/0"] == derive_trial_seed(7, 200, 0)
    assert set(meta["summary"]) == {"200", "400"}


def test_lc_thresholding_trial_validates_one_concentration(radial20, monkeypatch):
    built = []
    validate = ConcentrationMatrix.__post_init__

    def counting_validate(self):
        built.append(self.model)
        validate(self)

    monkeypatch.setattr(ConcentrationMatrix, "__post_init__", counting_validate)
    spec = ExperimentSpec(model="lc", estimator="direct", seed=1)
    rec = run_single_trial(radial20, spec.stats_for(radial20), spec, 2000, 0)
    assert rec.error is None
    assert built == ["lc"]


def test_results_csv_is_deterministic(tmp_path):
    spec = ExperimentSpec(sample_counts=(300,), trials=3, seed=9)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(run_experiment(spec), a)
    write_results_csv(run_experiment(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_failed_trial_lands_in_sidecar(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "reconstruct", fail_reconstruct)
    res = run_experiment(ExperimentSpec(exact=True))
    out = tmp_path / "r.csv"
    write_results_csv(res, out)
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert "ConfigError" in meta["trial_errors"]["0/0"]
