"""Experiment harness: spec handling, sweeps, determinism, results CSV."""
import csv
import json
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import edge_set
from gridtopo import __version__, estimation, experiments, sampling
from gridtopo.exceptions import ConfigError
from gridtopo.experiments import (
    ALGORITHMS,
    MODELS,
    RESULT_COLUMNS,
    STACK_BYTES,
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
from gridtopo.sampling import derive_trial_seed, draw_plan, generate_voltage_samples
from gridtopo.estimation import estimate_concentration


# ----------------------------------------------------------------------
# spec validation and IO
# ----------------------------------------------------------------------


def test_spec_defaults_roundtrip():
    spec = ExperimentSpec()
    assert spec.sample_counts == (500, 1000, 2000, 5000, 10000)
    assert spec.trials == 20 and spec.estimator == "auto"
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


# one row per rejected spec: a fixed tag, the fields and the error they raise.
# The case id is "<tag>-<error>", so adding a row renames no other case; the
# tags kw0-kw36 keep the ids these rows had when ids were numbered by position.
SPEC_REJECTS = [
    ("kw0", {"model": "ac"}, "model"),
    ("kw1", {"algorithm": "regression"}, "algorithm"),
    ("kw2", {"estimator": "mle"}, "estimator"),
    ("kw3", {"sample_counts": ()}, "must not be empty"),
    ("kw4", {"sample_counts": (100, 100)}, "strictly increasing"),
    ("kw5", {"sample_counts": (500, 100)}, "strictly increasing"),
    ("kw6", {"sample_counts": (0,)}, "positive"),
    ("kw7", {"trials": 0}, "trials"),
    ("kw8", {"seed": -1}, "seed"),
    ("kw9", {"tau1": "magic"}, "tau1"),
    ("kw10", {"tau2": float("nan")}, "tau2"),
    ("kw11", {"glasso_lambda": "tiny"}, "glasso_lambda"),
    ("kw12", {"workers": 0}, "workers"),
    ("kw13", {"tau1": -1.0}, "tau1 must be a positive number"),
    ("kw14", {"tau1": "0"}, "tau1 must be a positive number"),
    ("kw15", {"tau2": 0.5}, "tau2 must be a negative number"),
    ("kw16", {"tau2": None}, "tau2 must be a negative number"),
    ("kw17", {"glasso_lambda": -1.0}, "glasso_lambda must be a finite number >= 0"),
    ("kw18", {"glasso_lambda": float("nan")}, "glasso_lambda must be a finite number >= 0"),
    ("kw19", {"trials": 2.5}, "trials must be an integer, got 2.5"),
    ("kw20", {"trials": "3"}, "trials must be an integer, got '3'"),
    ("kw21", {"trials": True}, "trials must be an integer, got True"),
    ("kw22", {"workers": 1.5}, "workers must be an integer, got 1.5"),
    ("kw23", {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ("kw24", {"sample_counts": (500.7,)}, "each sample count must be an integer, got 500.7"),
    ("kw25", {"sample_counts": (500, False)}, "each sample count must be an integer, got False"),
    ("kw26", {"sample_counts": 500}, "sample_counts must be a list of integers"),
    ("kw27", {"sigma_pp": "abc"}, "sigma_pp must be a number, got 'abc'"),
    ("kw28", {"sigma_pp": "2"}, "sigma_pp must be a number, got '2'"),
    ("kw29", {"sigma_pp": True}, "sigma_pp must be a number, got True"),
    ("kw30", {"sigma_qq": None}, "sigma_qq must be a number, got None"),
    ("kw31", {"sigma_pq": [0.5]}, r"sigma_pq must be a number, got \[0.5\]"),
    ("kw32", {"sigma_pp": 10**400}, "sigma_pp must fit in a float"),
    ("kw33", {"tau1": "gap"}, "tau1 must be a number or 'auto', got 'gap'"),
    ("kw34", {"tau2": "gap"}, "tau2 must be a number or 'auto', got 'gap'"),
    ("kw35", {"grid": 5}, "grid must be a string, got 5"),
    ("kw36", {"exact": "false"}, "exact must be true or false, got 'false'"),
]


@pytest.mark.parametrize("kw,match", [row[1:] for row in SPEC_REJECTS],
                         ids=[f"{tag}-{match}" for tag, _, match in SPEC_REJECTS])
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
    assert edge_set(resolve_grid("loopy20_c7")) == edge_set(loopy20_c7)
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
    assert t1 == DEFAULT_Z and s1.dim == 19 and np.all(s1.vals > 0) and np.all(s1.diagonal > 0)
    t2, s2 = resolve_tau2("auto", est.concentration, est)
    assert t2 == -DEFAULT_Z and s2.dim == 19


def test_reconstruct_rejects_unknown_algorithm(radial20):
    conc = dc_concentration(radial20, InjectionStats.uniform(radial20))
    with pytest.raises(ConfigError, match="algorithm"):
        reconstruct(conc, "spectral")


# ----------------------------------------------------------------------
# trials and sweeps
# ----------------------------------------------------------------------


def test_run_single_trial_success(radial20):
    spec = ExperimentSpec(seed=1)
    stats = spec.stats_for(radial20)
    rec = run_single_trial(radial20, stats, draw_plan(radial20, stats, spec.model), spec, 2000, 0)
    assert (rec.fp, rec.fn, rec.total) == (0, 0, 0)
    assert rec.method == "direct"  # auto is the direct estimate
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


@pytest.mark.parametrize(
    "spec,n,method,seeds",
    [
        (ExperimentSpec(exact=True), 0, "exact", [None]),
        (ExperimentSpec(sample_counts=(300,), trials=2), 300, "direct",
         [derive_trial_seed(0, 300, 0), derive_trial_seed(0, 300, 1)]),
    ],
    ids=["exact", "sampled"],
)
def test_failed_trials_score_as_empty_topology(monkeypatch, spec, n, method, seeds):
    # a package error inside the trial; the record keeps the sweep alive
    monkeypatch.setattr(experiments, "reconstruct", fail_reconstruct)
    res = run_experiment(spec)
    error = "ConfigError: forced reconstruction failure"
    assert [(r.n, r.fp, r.fn, r.total, r.method, r.seed, r.error) for r in res.records] == [
        (n, 0, 18, 18, method, seed, error) for seed in seeds
    ]
    assert res.summary()[n]["failures"] == len(seeds)


_NO_SKELETON = ("ReconstructionError: counting found no non-leaf skeleton edges; "
                "the rule needs a grid with at least 3 non-leaf buses")


def _leaf(bus: int, candidates: list[int]) -> str:
    return (f"AmbiguousLeafError: leaf bus {bus} has {len(candidates)} attachment "
            f"candidates {candidates}; cannot determine its line")


_OK = (0, 0, None)

# Per-trial (fp, fn, error) of the sweep below, recorded with each trial's
# covariance drawn through the Bartlett factor of its Wishart scatter
# (draw_sample_covariance), its columns read in (z_p; z_q) block order, not
# from snapshots.  Every counting trial hits the known leaf/skeleton defect
# and scores all 18 lines missed.
PINNED_MINI_SWEEP = {
    ("dc", "thresholding"): [_OK] * 10,
    ("dc", "counting"): [(0, 18, e) for e in [
        _NO_SKELETON, _NO_SKELETON, _NO_SKELETON, _leaf(3, [1, 2]), _NO_SKELETON,
        _leaf(1, []), _leaf(1, []), _leaf(1, []), _leaf(1, [2, 3]), _leaf(1, [])]],
    ("lc", "thresholding"): [_OK] * 10,
    ("lc", "counting"): [(0, 18, e) for e in [
        _leaf(3, [1, 2]), _NO_SKELETON, _leaf(1, []), _NO_SKELETON, _NO_SKELETON,
        _leaf(4, []), _leaf(3, []), _leaf(4, []), _leaf(6, []), _leaf(1, [2, 9])]],
}


@pytest.mark.parametrize("model,algorithm", sorted(PINNED_MINI_SWEEP))
def test_pinned_radial20_mini_sweep(model, algorithm):
    spec = ExperimentSpec(grid="radial20", model=model, algorithm=algorithm, estimator="direct",
                          sample_counts=(500, 1000), trials=5, seed=0)
    got = [(r.fp, r.fn, r.error) for r in run_experiment(spec).records]
    assert got == PINNED_MINI_SWEEP[model, algorithm]


def test_sampled_sweep_never_builds_samples(monkeypatch):
    # a trial draws its covariance, so neither snapshots nor their scatter
    # are made, by any estimator or worker count; the records are unchanged
    specs = [ExperimentSpec(grid="ieee14", model=model, estimator=estimator, sample_counts=(60,),
                            trials=2, seed=3, workers=workers)
             for model in ("dc", "lc") for estimator in ("direct", "glasso") for workers in (1, 2)]
    want = [run_experiment(spec).records for spec in specs]

    def build(*args, **kwargs):
        raise AssertionError("a sampled trial built samples")

    originals = (sampling.generate_voltage_samples, estimation.empirical_covariance)
    bound = [(module, name) for module in list(sys.modules.values())
             if getattr(module, "__name__", "").startswith("gridtopo")
             for name, value in vars(module).items() if any(value is f for f in originals)]
    assert len(bound) >= 5
    for module, name in bound:
        monkeypatch.setattr(module, name, build)
    assert [run_experiment(spec).records for spec in specs] == want
    assert all(w == v for w, v in zip(want[::2], want[1::2]))  # workers 1 and 2


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


def test_pool_is_sized_to_the_tasks(monkeypatch):
    # the pool forks all its workers on the first submit, so it never gets
    # more than there are trials; one task runs in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    exact = ExperimentSpec(grid="ieee14", exact=True)
    assert run_experiment(replace(exact, workers=8)).records == run_experiment(exact).records
    sampled = ExperimentSpec(grid="ieee14", sample_counts=(60,), trials=2, seed=3)
    assert run_experiment(replace(sampled, workers=8)).records == run_experiment(sampled).records
    assert sizes == [2]


@pytest.mark.parametrize("estimator", ["direct", "glasso"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("model", MODELS)
@settings(max_examples=6, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from([8, 20, 60, 400]), min_size=1, max_size=2, unique=True),
       st.integers(1, 4), st.integers(0, 2**16), st.sampled_from([1, 2]))
def test_stacked_sweep_records_equal_single_trials(model, algorithm, estimator, counts, trials,
                                                   seed, workers):
    # a sweep stacks each n's trials; its records are those of the trials
    # run one at a time, n < d (8 and, under LC, 20 on ieee14) included.
    # lambda 1 only makes the graphical lasso converge sooner than auto
    spec = ExperimentSpec(grid="ieee14", model=model, algorithm=algorithm, estimator=estimator,
                          sample_counts=tuple(sorted(counts)), trials=trials, seed=seed,
                          workers=workers, glasso_lambda=1.0)
    grid = resolve_grid(spec.grid)
    stats = spec.stats_for(grid)
    plan = draw_plan(grid, stats, model)
    want = tuple(run_single_trial(grid, stats, plan, spec, n, t)
                 for n in spec.sample_counts for t in range(trials))
    assert run_experiment(spec).records == want


def test_a_sweep_validates_one_stacked_concentration_per_sample_count(monkeypatch):
    shapes = []
    validate = ConcentrationMatrix.__init__

    def counting_validate(self, matrix, *args):
        validate(self, matrix, *args)
        shapes.append(np.shape(matrix))

    monkeypatch.setattr(ConcentrationMatrix, "__init__", counting_validate)
    run_experiment(ExperimentSpec(model="lc", estimator="direct", sample_counts=(2000,),
                                  trials=6, seed=1))
    assert shapes == [(6, 38, 38)]


@pytest.mark.parametrize("d", [19, 38, 128, 129, 999])
@pytest.mark.parametrize("workers", [1, 2])
def test_stacks_are_bounded_and_cover_the_sweep_in_order(d, workers):
    spec = ExperimentSpec(sample_counts=(100, 200), trials=60, workers=workers)
    tasks = experiments._stacks(spec, d)
    assert [(n, t) for n, trials in tasks for t in trials] == [
        (n, t) for n in (100, 200) for t in range(60)]
    assert all(len(trials) == 1 or 8 * len(trials) * d * d <= STACK_BYTES for _, trials in tasks)
    assert len(tasks) >= 2 * workers
    assert ({len(trials) for _, trials in tasks} == {1}) == (d > 128)
    glasso = experiments._stacks(replace(spec, estimator="glasso"), 19)
    assert {len(trials) for _, trials in glasso} == {1}


def test_a_failed_estimate_is_recorded_in_its_trial(monkeypatch, tmp_path):
    # a drawn trial whose estimate is not a valid concentration matrix fails
    # alone; the other trials of its stack are scored as without it
    spec = ExperimentSpec(sample_counts=(300,), trials=3, seed=2)
    want = run_experiment(spec).records
    bad = derive_trial_seed(2, 300, 1)
    draw = experiments.draw_sample_covariance

    def draw_with_a_bad_trial(plan, n, seed):
        drawn = draw(plan, n, seed)
        seeds = [seed] if isinstance(seed, int) else list(seed)
        factor = drawn.factor.reshape(len(seeds), *drawn.factor.shape[-2:]).copy()
        factor[[s == bad for s in seeds]] = np.nan
        return replace(drawn, factor=factor.reshape(drawn.factor.shape))

    monkeypatch.setattr(experiments, "draw_sample_covariance", draw_with_a_bad_trial)
    res = run_experiment(spec)
    assert res.records[::2] == want[::2]
    failed = res.records[1]
    assert (failed.fp, failed.fn, failed.total, failed.seed) == (0, 18, 18, bad)
    assert failed.error == ("RankDeficiencyError: the direct estimate is not a concentration "
                            "matrix: concentration matrix entry (theta_1, theta_1) is nan, "
                            "not a finite number")
    out = tmp_path / "r.csv"
    write_results_csv(res, out)
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert meta["trial_errors"] == {"300/1": failed.error}


def test_too_few_samples_fail_a_stack_before_it_is_drawn(monkeypatch):
    # n < d fails every trial of the direct estimate alike: that stack is
    # never drawn, and only the n >= d stack draws, once
    spec = ExperimentSpec(grid="ieee14", estimator="direct", sample_counts=(8, 60), trials=3, seed=4)
    want = run_experiment(spec).records
    draws = []
    draw = experiments.draw_sample_covariance

    def counting_draw(plan, n, seed):
        draws.append(n)
        return draw(plan, n, seed)

    monkeypatch.setattr(experiments, "draw_sample_covariance", counting_draw)
    assert run_experiment(spec).records == want
    assert draws == [60]
    error = ("RankDeficiencyError: 8 samples of 13 variables are rank deficient: the direct "
             "estimate needs n >= 13; method 'glasso' estimates from fewer")
    assert [(r.fp, r.fn, r.error) for r in want[:3]] == [(0, 18, error)] * 3


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
    validate = ConcentrationMatrix.__init__

    def counting_validate(self, *args):
        validate(self, *args)
        built.append(self.model)

    monkeypatch.setattr(ConcentrationMatrix, "__init__", counting_validate)
    spec = ExperimentSpec(model="lc", estimator="direct", seed=1)
    stats = spec.stats_for(radial20)
    rec = run_single_trial(radial20, stats, draw_plan(radial20, stats, spec.model), spec, 2000, 0)
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
