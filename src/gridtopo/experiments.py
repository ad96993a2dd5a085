"""Experiment harness: sample-count sweeps of reconstruction error.

An :class:`ExperimentSpec` pins everything that affects results (grid, model,
algorithm, estimator, sample counts, trial count, seed, thresholds), so a
sweep is reproducible bit-for-bit: per-trial seeds derive from
(seed, n, trial) and result CSVs carry no timestamps (wall-clock metadata
lives in a JSON sidecar next to the CSV).  The trials of each n run as
stacks through :func:`run_trials`, of which :func:`run_single_trial` is the
stack of one.  A sampled trial draws the covariance of its n snapshots as
the Bartlett factor of their whitened scatter
(:func:`gridtopo.sampling.draw_sample_covariance`) from the sweep's
:class:`~gridtopo.sampling.DrawPlan`, built once per sweep, and never
builds the snapshots or their scatter.  A stack draws each trial from its
own seed, as alone, then estimates, learns and scores all of them at once:
one stacked solve, one stacked concentration-matrix check, one pass of
noise scales and threshold masks, and counting's array passes over the
stacked bus adjacency.  The result is one
:class:`~gridtopo.learning.LearnedTopology` of (T, B, B) adjacencies and
each trial's error (a stack that failed as a whole has no edges), scored
by one :func:`~gridtopo.learning.edge_errors` pass that reads it at the
grid's lines, so a stack's records are those of its trials run one at a
time.  An exact run is the one trial n = 0, which learns from the
analytic concentration matrix instead and needs no plan.
"""
from __future__ import annotations

import csv
import datetime
import json
import numbers
import os
from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np

from . import __version__
from .estimation import ESTIMATORS, EstimatedConcentration, estimate_concentration, parse_lambda, rank_deficiency
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
from .sampling import DrawPlan, derive_trial_seed, draw_plan, draw_sample_covariance

# Not called here: imported only so the traced benchmark run finds these
# names on this module (perfbench/spans.py TARGETS).
from .learning import gm_noise_scale, thresholding_noise_scale  # noqa: F401
from .powerflow import lc_threshold_statistic  # noqa: F401
from .sampling import generate_voltage_samples  # noqa: F401

MODELS = ("dc", "lc")
ALGORITHMS = ("counting", "thresholding")

RESULT_COLUMNS = ("grid", "model", "algo", "estimator", "n", "trial", "fp", "fn", "total")


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool or any other non-integer (a config file
    may hold 2.5 or "3") raises :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        try:
            counts = tuple(_integer(n, "each sample count") for n in self.sample_counts)
        except TypeError:
            raise ConfigError(f"sample_counts must be a list of integers, "
                              f"got {self.sample_counts!r}") from None
        object.__setattr__(self, "sample_counts", counts)
        for name in ("trials", "seed", "workers"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("sigma_pp", "sigma_qq", "sigma_pq"):  # InjectionStats checks the range
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            try:
                float(value)
            except OverflowError:
                raise ConfigError(f"{name} must fit in a float") from None
        if not isinstance(self.grid, str):
            raise ConfigError(f"grid must be a string, got {self.grid!r}")
        if not isinstance(self.exact, bool):
            raise ConfigError(f"exact must be true or false, got {self.exact!r}")
        for name, allowed in (("model", MODELS), ("algorithm", ALGORITHMS), ("estimator", ESTIMATORS)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
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
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
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


def reconstruct(conc: ConcentrationMatrix, algorithm: str, tau1: float | str = "auto", tau2: float | str = "auto",
                est: EstimatedConcentration | None = None) -> LearnedTopology:
    """One learning step on a concentration matrix (exact or estimated).

    A stack of trials' matrices is learned in one pass and gives one
    topology of (T, B, B) adjacencies, which holds the package error, if
    any, that each trial's counting met.
    """
    if algorithm == "counting":
        t1, scale = resolve_tau1(tau1, conc, est)
        return learn_by_counting(build_graphical_model(conc, t1, scale))
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


#: most bytes of one (T, d, d) array of a stack of T trials, 8 T d^2.  A
#: stack holds about three at once, so a sweep's peak memory stays near one
#: trial's; above d = 128 every stack is one trial.
STACK_BYTES = 256 * 2**10


def run_trials(grid: Grid, stats: InjectionStats, plan: DrawPlan | None,
               spec: ExperimentSpec, n: int, trials: tuple[int, ...]) -> list[TrialRecord]:
    """The trials ``trials`` at sample count n as one stack, each scored
    against the grid's lines.

    ``n = 0`` is the exact trial: learning runs on the analytic
    concentration matrix, with no seed and method ``"exact"``, and draws
    nothing, so it needs no ``plan``.  Any other n draws each trial's
    covariance of n snapshots from the sweep's ``plan``, seeded from
    (spec.seed, n, trial), then estimates and learns them as a stack; a
    single trial is drawn unstacked, the one form the graphical lasso takes.

    Failures of any stage that raise a package error are recorded in the
    trial and scored as a reconstruction with no edges (everything missed);
    the sweep carries on.  Too few samples for the direct estimate fail
    every trial alike, before anything is drawn.  Any other failure of the
    stack as a whole reruns its trials one at a time, so only the trials it
    belongs to record it.
    """
    seeds = [None if n == 0 else derive_trial_seed(spec.seed, n, t) for t in trials]
    method = "exact" if n == 0 else None
    learned = rank_deficiency(n, len(plan.labels), spec.estimator) if n else None
    if learned is None:
        try:
            if n == 0:
                conc = (dc_concentration if spec.model == "dc" else lc_concentration)(grid, stats)
                est = None
            else:
                drawn = draw_sample_covariance(plan, n, seeds if len(trials) > 1 else seeds[0])
                est = estimate_concentration(drawn, method=spec.estimator, lam=spec.glasso_lambda)
                conc, method = est.concentration, est.method
            learned = reconstruct(conc, spec.algorithm, spec.tau1, spec.tau2, est=est)
        except GridTopoError as exc:
            if len(trials) > 1:
                return [rec for t in trials for rec in run_trials(grid, stats, plan, spec, n, (t,))]
            learned = exc.with_traceback(None)  # this frame holds it: no cycle
    if isinstance(learned, GridTopoError):
        buses = grid.non_reference_buses
        learned = LearnedTopology(buses, np.zeros((len(trials), len(buses), len(buses)), dtype=bool),
                                  spec.algorithm, errors=(learned,) * len(trials))
    err = edge_errors(learned, grid)
    fps = np.broadcast_to(err.false_positives, len(trials)).tolist()
    fns = np.broadcast_to(err.false_negatives, len(trials)).tolist()
    return [TrialRecord(n=n, trial=trial, fp=fp, fn=fn, total=fp + fn, seed=seed,
                        error=None if e is None else f"{type(e).__name__}: {e}", method=method)
            for trial, seed, fp, fn, e in zip(trials, seeds, fps, fns, learned.errors)]


def run_single_trial(grid: Grid, stats: InjectionStats, plan: DrawPlan | None,
                     spec: ExperimentSpec, n: int, trial: int) -> TrialRecord:
    """One trial, scored against the grid's lines: :func:`run_trials` of it alone."""
    return run_trials(grid, stats, plan, spec, n, (trial,))[0]


def _stacks(spec: ExperimentSpec, d: int) -> list[tuple[int, tuple[int, ...]]]:
    """The sweep's tasks, (n, trials) in sweep order: each n's trials in
    contiguous stacks within :data:`STACK_BYTES`, at least one per pool
    process (no more than the CPUs); glasso takes one trial per stack."""
    if spec.exact:
        return [(0, (0,))]
    size = 1 if spec.estimator == "glasso" else max(1, STACK_BYTES // (8 * d * d))
    count = max(-(-spec.trials // size), min(spec.workers, os.cpu_count() or 1, spec.trials))
    chunks = [tuple(c.tolist()) for c in np.array_split(np.arange(spec.trials), count)]
    return [(n, chunk) for n in spec.sample_counts for chunk in chunks]


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute the full sweep described by ``spec`` deterministically.

    With ``exact=True`` the sweep collapses to the one exact trial (n = 0).
    The trials of each n run as stacks (:func:`run_trials`); ``workers > 1``
    distributes the stacks over ``min(workers, stacks, os.cpu_count())``
    processes.  Either way records come back in sweep order, (n, trial)
    ascending.
    """
    grid = resolve_grid(spec.grid)
    stats = spec.stats_for(grid)
    # an exact sweep draws nothing, and M is a dense d x d array
    plan = None if spec.exact else draw_plan(grid, stats, spec.model)
    tasks = _stacks(spec, len(plan.labels) if plan else 0)
    args = (repeat(grid), repeat(stats), repeat(plan), repeat(spec), *zip(*tasks))
    # the pool forks all its workers at once, so it gets no more than the
    # tasks or the CPUs
    workers = min(spec.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported only here: the pool loads multiprocessing, which would
        # cost every CLI start and one-process sweep memory and import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stacks = list(pool.map(run_trials, *args, chunksize=1))
    else:
        stacks = list(map(run_trials, *args))
    records = tuple(rec for stack in stacks for rec in stack)
    return ExperimentResult(spec=spec, grid_hash=grid_hash(grid), records=records)


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
    spec, summary = result.spec, result.summary()
    head = [spec.grid, spec.model, spec.algorithm, spec.estimator]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in result.records:
            writer.writerow(head + [r.n, r.trial, r.fp, r.fn, r.total])
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
        "summary": {str(n): agg for n, agg in summary.items()},
        "trial_seeds": {f"{r.n}/{r.trial}": r.seed for r in result.records},
        "trial_methods": {f"{r.n}/{r.trial}": r.method for r in result.records},
        "trial_errors": {
            f"{r.n}/{r.trial}": r.error for r in result.records if r.error is not None
        },
    }
    with open(f"{path}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
