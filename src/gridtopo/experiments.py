"""Experiment harness: sample-count sweeps of reconstruction error.

An :class:`ExperimentSpec` pins everything that affects results (grid, model,
algorithm, estimator, sample counts, trial count, seed, thresholds), so a
sweep is reproducible bit-for-bit: per-trial seeds derive from
(seed, n, trial) and result CSVs carry no timestamps (wall-clock metadata
lives in a JSON sidecar next to the CSV).
"""
from __future__ import annotations

import csv
import datetime
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .estimation import EstimatedConcentration, estimate_concentration, parse_lambda
from .exceptions import ConfigError, GridTopoError
from .grid import BUILTIN_GRIDS, Grid, builtin_grid, grid_hash, load_grid
from .learning import (
    LearnedTopology,
    build_graphical_model,
    edge_errors,
    learn_by_counting,
    learn_by_thresholding,
    parse_tau,
    resolve_tau1,
    resolve_tau2,
)
from .powerflow import ConcentrationMatrix, InjectionStats, dc_concentration, lc_concentration
from .sampling import derive_trial_seed, generate_voltage_samples

# Not called here: imported only so the traced benchmark run finds these
# names on this module (perfbench/spans.py TARGETS).
from .learning import gm_noise_scale, thresholding_noise_scale  # noqa: F401
from .powerflow import lc_threshold_statistic  # noqa: F401

MODELS = ("dc", "lc")
ALGORITHMS = ("counting", "thresholding")
ESTIMATORS = ("auto", "direct", "glasso")

RESULT_COLUMNS = ("grid", "model", "algo", "estimator", "n", "trial", "fp", "fn", "total")


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete description of one sweep; mirrors the config-file JSON."""

    grid: str = "radial20"
    model: str = "dc"
    algorithm: str = "thresholding"
    estimator: str = "auto"
    sample_counts: tuple[int, ...] = (500, 1000, 2000, 5000, 10000)
    trials: int = 20
    seed: int = 0
    tau1: float | str = "auto"
    tau2: float | str = "auto"
    exact: bool = False
    glasso_lambda: float | str = "auto"
    sigma_pp: float = 1.0
    sigma_qq: float = 1.0
    sigma_pq: float = 0.5
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sample_counts", tuple(int(n) for n in self.sample_counts))
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if not self.exact:
            if not self.sample_counts:
                raise ConfigError("sample_counts must not be empty")
            if any(n <= 0 for n in self.sample_counts):
                raise ConfigError("sample counts must be positive")
            if list(self.sample_counts) != sorted(set(self.sample_counts)):
                raise ConfigError("sample counts must be strictly increasing")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name in ("tau1", "tau2"):
            object.__setattr__(self, name, parse_tau(getattr(self, name), name))
        object.__setattr__(self, "glasso_lambda", parse_lambda(self.glasso_lambda, "glasso_lambda"))
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["sample_counts"] = list(self.sample_counts)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        known = cls.__dataclass_fields__
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise ConfigError(f"unknown experiment config field(s): {', '.join(unknown)}")
        return cls(**doc)

    def stats_for(self, grid: Grid) -> InjectionStats:
        return InjectionStats.uniform(grid, self.sigma_pp, self.sigma_qq, self.sigma_pq)


def load_experiment_config(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return ExperimentSpec.from_dict(doc)


def resolve_grid(name_or_path: str) -> Grid:
    """Builtin grid name, else a path to a grid JSON file."""
    if name_or_path in BUILTIN_GRIDS:
        return builtin_grid(name_or_path)
    return load_grid(name_or_path)


# ----------------------------------------------------------------------
# reconstruction (threshold rules live in ``learning``)
# ----------------------------------------------------------------------


def reconstruct(
    conc: ConcentrationMatrix,
    algorithm: str,
    tau1: float | str = "auto",
    tau2: float | str = "auto",
    est: EstimatedConcentration | None = None,
) -> LearnedTopology:
    """One learning step on a concentration matrix (exact or estimated)."""
    if algorithm == "counting":
        t1, scale = resolve_tau1(tau1, conc, est)
        gm = build_graphical_model(conc, t1, scale)
        return learn_by_counting(gm)
    if algorithm == "thresholding":
        t2, scale = resolve_tau2(tau2, conc, est)
        return learn_by_thresholding(conc, t2, scale)
    raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")


# ----------------------------------------------------------------------
# trial execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial: int
    fp: int
    fn: int
    total: int
    seed: int | None = None
    error: str | None = None
    method: str | None = None


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    spec: ExperimentSpec
    grid_hash: str
    records: tuple[TrialRecord, ...]

    def summary(self) -> dict[int, dict[str, float]]:
        """Per-n mean/std (population) of fp, fn, total plus failure count."""
        out: dict[int, dict[str, float]] = {}
        for n in sorted({r.n for r in self.records}):
            rows = [r for r in self.records if r.n == n]
            agg: dict[str, float] = {}
            for col in ("fp", "fn", "total"):
                vals = np.array([getattr(r, col) for r in rows], dtype=float)
                agg[f"{col}_mean"] = float(vals.mean())
                agg[f"{col}_std"] = float(vals.std())
            agg["failures"] = sum(1 for r in rows if r.error is not None)
            out[n] = agg
        return out


def _empty_topology(grid: Grid, algorithm: str) -> LearnedTopology:
    return LearnedTopology(
        buses=grid.non_reference_buses, edges=frozenset(), algorithm=algorithm
    )


def run_single_trial(grid: Grid, stats: InjectionStats, spec: ExperimentSpec,
                     n: int, trial: int) -> TrialRecord:
    """Sample -> estimate -> learn -> score, one trial.

    Failures of any stage that raise a package error are recorded in the
    trial and scored as a reconstruction with no edges (everything missed);
    the sweep carries on.
    """
    seed = derive_trial_seed(spec.seed, n, trial)
    error = None
    method = None
    try:
        samples = generate_voltage_samples(grid, stats, spec.model, n, seed)
        est = estimate_concentration(
            samples, method=spec.estimator, lam=spec.glasso_lambda
        )
        method = est.method
        topo = reconstruct(est.concentration, spec.algorithm, spec.tau1, spec.tau2, est=est)
    except GridTopoError as exc:
        error = f"{type(exc).__name__}: {exc}"
        topo = _empty_topology(grid, spec.algorithm)
    err = edge_errors(topo, grid)
    return TrialRecord(n=n, trial=trial, fp=err.false_positives,
                       fn=err.false_negatives, total=err.total, seed=seed,
                       error=error, method=method)


def run_exact_trial(grid: Grid, stats: InjectionStats, spec: ExperimentSpec) -> TrialRecord:
    """Learning applied to the analytic concentration matrix (n recorded as 0)."""
    error = None
    try:
        conc = (dc_concentration if spec.model == "dc" else lc_concentration)(grid, stats)
        topo = reconstruct(conc, spec.algorithm, spec.tau1, spec.tau2, est=None)
    except GridTopoError as exc:
        error = f"{type(exc).__name__}: {exc}"
        topo = _empty_topology(grid, spec.algorithm)
    err = edge_errors(topo, grid)
    return TrialRecord(n=0, trial=0, fp=err.false_positives, fn=err.false_negatives,
                       total=err.total, seed=None, error=error, method="exact")


def _trial_task(args) -> TrialRecord:
    grid, stats, spec, n, trial = args
    return run_single_trial(grid, stats, spec, n, trial)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute the full sweep described by ``spec`` deterministically.

    With ``exact=True`` the sweep collapses to a single trial on the
    analytic concentration matrix.  ``workers > 1`` distributes trials over
    processes; results are identical to the sequential order.
    """
    grid = resolve_grid(spec.grid)
    stats = spec.stats_for(grid)
    if spec.exact:
        records = [run_exact_trial(grid, stats, spec)]
    else:
        tasks = [
            (grid, stats, spec, n, trial)
            for n in spec.sample_counts
            for trial in range(spec.trials)
        ]
        if spec.workers > 1:
            with ProcessPoolExecutor(max_workers=spec.workers) as pool:
                records = list(pool.map(_trial_task, tasks, chunksize=1))
        else:
            records = [_trial_task(t) for t in tasks]
        records.sort(key=lambda r: (r.n, r.trial))
    return ExperimentResult(spec=spec, grid_hash=grid_hash(grid), records=tuple(records))


# ----------------------------------------------------------------------
# results on disk
# ----------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x, ".10g")


def write_results_csv(result: ExperimentResult, path) -> None:
    """Result table plus ``<path>.meta.json`` sidecar.

    Data rows are one per trial, sorted by (n, trial); per-n summary rows
    follow with trial set to "mean"/"std".  The CSV itself contains nothing
    time-dependent, so identical specs produce byte-identical files.
    """
    spec = result.spec
    head = [spec.grid, spec.model, spec.algorithm, spec.estimator]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in result.records:
            writer.writerow(head + [r.n, r.trial, r.fp, r.fn, r.total])
        summary = result.summary()
        for n in sorted(summary):
            agg = summary[n]
            writer.writerow(head + [n, "mean", _fmt(agg["fp_mean"]),
                                    _fmt(agg["fn_mean"]), _fmt(agg["total_mean"])])
            writer.writerow(head + [n, "std", _fmt(agg["fp_std"]),
                                    _fmt(agg["fn_std"]), _fmt(agg["total_std"])])

    meta = {
        "spec": spec.to_dict(),
        "grid_hash": result.grid_hash,
        "version": __version__,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "summary": {str(n): agg for n, agg in result.summary().items()},
        "trial_seeds": {f"{r.n}/{r.trial}": r.seed for r in result.records},
        "trial_methods": {f"{r.n}/{r.trial}": r.method for r in result.records},
        "trial_errors": {
            f"{r.n}/{r.trial}": r.error for r in result.records if r.error is not None
        },
    }
    with open(f"{path}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
