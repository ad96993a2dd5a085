"""Deterministic generation of voltage samples from injection fluctuations.

Injections are drawn i.i.d. per snapshot: each non-reference bus gets a
correlated (p, q) pair from its 2x2 covariance via an explicit Cholesky
factor, then the linearized power flow maps injections to voltages.  Both
steps are linear, so a :class:`DrawPlan` holds them once: the whitened
system matrix M (:func:`gridtopo.powerflow.whitened_system`), whose rows
take the standard normal draw in (z_p; z_q) block order.  The ``sample``
command's snapshots are the single product ``z @ W`` of the draw z, its
(z_p, z_q) columns interleaved per bus, and W = M^{-T} with its rows in z's
order.  All randomness flows through ``numpy.random.default_rng`` (PCG64)
seeded from a single integer, so a (grid, stats, model, n, seed) tuple
reproduces the same samples bit-for-bit on a fixed numpy version.

An experiment trial only needs the samples' covariance, so
:func:`draw_sample_covariance` draws it without drawing z: z^T z is a
standard Wishart matrix, and its Bartlett factor R (z = QR) takes O(N^2)
normal and N chi-square draws instead of n * 2N normal draws (Odell and
Feiveson 1966).  R's columns are read in M's block order, and DC reads the
leading N (z_p) of them, so DC and LC trials at one seed remain paired.  A
drawn :class:`SampleCovariance` holds M and R's leading d columns, a
triangle once n >= d, so the direct estimate solves against them and never
forms the scatter.  A sweep builds its plan once for all its trials.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConfigError, SampleFormatError
from .grid import Grid, grid_hash
from .powerflow import (
    InjectionStats,
    VarLabel,
    check_layout,
    dc_labels,
    lc_labels,
    parse_label,
    whitened_system,
)

# Not called here: imported only so the traced benchmark run finds these
# names on this module (perfbench/spans.py TARGETS).
from .powerflow import solve_dc, solve_lc  # noqa: F401


def derive_trial_seed(root_seed: int, n: int, trial: int) -> int:
    """Stable per-trial child seed from (root seed, sample count, trial index)."""
    ss = np.random.SeedSequence([int(root_seed), int(n), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


def empirical_covariance(data: np.ndarray) -> np.ndarray:
    """Zero-mean sample covariance X^T X / n (no centering, divisor n)."""
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ConfigError(f"need a non-empty 2-d sample matrix, got shape {X.shape}")
    cov = X.T @ X / X.shape[0]
    return (cov + cov.T) / 2.0


@dataclass(frozen=True, eq=False)
class SampleSet:
    """n voltage snapshots (rows) over labeled variables (columns)."""

    data: np.ndarray
    labels: tuple[VarLabel, ...]
    model: str
    seed: int
    grid_hash: str

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float))
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.data.ndim != 2 or self.data.shape[1] != len(self.labels):
            raise SampleFormatError(
                f"sample matrix of shape {self.data.shape} does not match "
                f"{len(self.labels)} labels"
            )
        try:
            check_layout(self.labels, self.model)
        except ValueError as exc:
            raise SampleFormatError(str(exc)) from None
        bad = np.argwhere(~np.isfinite(self.data))
        if bad.size:
            i, j = bad[0]
            raise SampleFormatError(f"snapshot {i}, column {self.labels[j].text}: "
                                    f"{self.data[i, j]} is not a finite number")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @cached_property
    def covariance(self) -> np.ndarray:
        return empirical_covariance(self.data)


@dataclass(frozen=True, eq=False)
class SampleCovariance:
    """The zero-mean covariance X^T X / n of n snapshots that were never
    drawn, held as the whitened system M and the factor C (upper triangular
    once n >= d) of their whitened draw's scatter C^T C:
    X^T X / n = M^{-1} C^T C M^{-T} / n.  A (T, min(n, d), d) factor is a
    stack of T trials' draws at the same n."""

    factor: np.ndarray
    system: np.ndarray
    n: int
    labels: tuple[VarLabel, ...]
    model: str

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def covariance(self) -> np.ndarray:
        """B B^T / n with B = M^{-1} C^T, formed on first access (the
        graphical lasso reads it; the direct estimate does not)."""
        B = np.linalg.solve(self.system, self.factor.mT)
        return B @ B.mT / self.n


@dataclass(frozen=True, eq=False)
class DrawPlan:
    """What every draw on one (grid, stats, model) shares: the whitened
    system M, the width 2N of the (z_p; z_q) normal draw, and the variable
    labels.  Built once by :func:`draw_plan`; it pickles, so a sweep sends
    it to its worker processes as it is."""

    model: str
    system: np.ndarray
    width: int
    labels: tuple[VarLabel, ...]


def draw_plan(grid: Grid, stats: InjectionStats, model: str) -> DrawPlan:
    """The :class:`DrawPlan` of ``model`` on ``grid`` with injections ``stats``."""
    labels = dc_labels(grid) if model == "dc" else lc_labels(grid)
    return DrawPlan(model, whitened_system(grid, stats, model), 2 * stats.n, labels)


def generate_injections(stats: InjectionStats, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw n rows of (p, q) injections, each bus via its 2x2 Cholesky factor:
    p = l11 z_p, q = l21 z_p + l22 z_q.

    Column layout of the underlying normal draw is (z_p, z_q) interleaved per
    bus, which pins the stream layout independent of model kind.
    """
    z = rng.standard_normal((n, 2 * stats.n))
    l11, l21, l22 = stats.cholesky
    zp, zq = z[:, 0::2], z[:, 1::2]
    return zp * l11, zp * l21 + zq * l22


def _sample_map(plan: DrawPlan) -> np.ndarray:
    """W (2N x d): row k is the voltage response to a unit value of column k
    of the interleaved (z_p, z_q) draw, so the samples are z @ W.

    M's row r takes z_p of bus r % N, or z_q of that bus once r >= N (LC
    only): z column 2 (r % N) + r // N.  So W is M^{-T} with its rows spread
    into the interleaved order, one solve of M against the unit draws placed
    there.  Under DC the z_q rows stay zero: multiplying only the z_p
    columns would first copy them out of z, n rows, to save milliseconds.
    """
    d, N = plan.system.shape[0], plan.width // 2
    r = np.arange(d)
    units = np.zeros((d, plan.width))
    units[r, 2 * (r % N) + r // N] = 1.0
    return np.linalg.solve(plan.system, units).T


def generate_voltage_samples(
    grid: Grid,
    stats: InjectionStats,
    model: str = "dc",
    n: int = 1000,
    seed: int = 0,
) -> SampleSet:
    """Sample injections, push them through the chosen model, label the columns.

    DC keeps phase angles only (columns ``theta_<bus>``); LC keeps magnitudes
    then angles (``v_<bus>`` columns first).  The normal draw, the one
    :func:`generate_injections` makes, is identical for both models under the
    same seed.
    """
    if n <= 0:
        raise SampleFormatError(f"sample count must be positive, got {n}")
    plan = draw_plan(grid, stats, model)
    z = np.random.default_rng(int(seed)).standard_normal((n, 2 * stats.n))
    return SampleSet(data=z @ _sample_map(plan), labels=plan.labels, model=model,
                     seed=int(seed), grid_hash=grid_hash(grid))


def draw_sample_covariance(plan: DrawPlan, n: int, seed: int | Sequence[int]) -> SampleCovariance:
    """The covariance of n voltage snapshots, drawn without drawing them.

    The snapshots are M^{-1} z for a standard normal z of n rows in
    (z_p; z_q) block order, so their scatter is M^{-1} (z^T z) M^{-T}, and
    z^T z = R^T R for the R of a QR of z.  R (m x 2N, m = min(n, 2N), upper
    trapezoidal) is drawn from ``default_rng(seed)``: one
    ``standard_normal((m, 2N))`` of which only the entries above the
    diagonal are kept, then ``sqrt(chisquare(n - i))`` on diagonal i.  The
    d variables read R's leading d columns (DC its N z_p, LC all 2N), so DC
    and LC at one seed share R.  Rows from d on are zero there, so the
    result holds C = R[:min(n, d), :d]: upper triangular with a positive
    diagonal for n >= d, and of rank n, as the samples' scatter, for n < d.
    The chi-square draws come last, so only the min(n, d) C reads are made.
    A sequence of T seeds draws T trials, each as its seed alone would, into
    one (T, min(n, d), d) stack of factors.
    """
    if n <= 0:
        raise SampleFormatError(f"sample count must be positive, got {n}")
    stacked = not isinstance(seed, numbers.Integral)
    seeds = seed if stacked else (seed,)
    k, d = plan.width, len(plan.labels)
    m, rank = min(n, k), min(n, d)
    factor = np.empty((len(seeds), rank, d))
    chi = np.empty((len(seeds), rank))
    for t, s in enumerate(seeds):
        rng = np.random.default_rng(int(s))
        factor[t] = rng.standard_normal((m, k))[:rank, :d]
        chi[t] = rng.chisquare(n - np.arange(rank))
    factor[:, np.tri(rank, d, -1, dtype=bool)] = 0.0
    factor[:, np.arange(rank), np.arange(rank)] = np.sqrt(chi)
    return SampleCovariance(factor=factor if stacked else factor[0], system=plan.system, n=n,
                            labels=plan.labels, model=plan.model)


# ----------------------------------------------------------------------
# on-disk form: CSV of samples + JSON sidecar with provenance
# ----------------------------------------------------------------------


def sidecar_path(path) -> str:
    return f"{path}.meta.json"


def write_samples_csv(samples: SampleSet, path) -> None:
    """Write samples as CSV (one labeled column per variable) plus sidecar.

    The sidecar ``<path>.meta.json`` records grid hash, model kind, seed and
    sample count so downstream stages can refuse mismatched inputs.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow([lab.text for lab in samples.labels])
        # the same text csv.writer gives for format(v, ".17g") cells
        np.savetxt(fh, samples.data, fmt="%.17g", delimiter=",", newline="\r\n")
    meta = {
        "grid_hash": samples.grid_hash,
        "model_kind": samples.model,
        "seed": samples.seed,
        "n": samples.n,
    }
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_samples_csv(path) -> SampleSet:
    """Read a sample CSV and its mandatory metadata sidecar back.

    Blank lines are skipped.  A malformed sidecar, a ragged row, a cell that
    is not a finite number or a file without sample rows raises
    :class:`SampleFormatError`.
    """
    meta = _read_sidecar(path)

    # universal newlines: loadtxt itself splits rows at "\n" and "\r\n" only
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise SampleFormatError(f"{path}: empty sample file") from None
            try:
                labels = tuple(parse_label(h) for h in header)
            except ValueError as exc:
                raise SampleFormatError(f"{path}: {exc}") from None
            try:
                with warnings.catch_warnings():
                    # a header-only file is reported below instead
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2,
                                      comments=None, quotechar='"')
            except ValueError as exc:
                raise SampleFormatError(f"{path}: {_row_fault(path, labels, str(exc))}") from None
    except UnicodeDecodeError as exc:  # also from _row_fault's reading
        raise SampleFormatError(f"{path}: not UTF-8 text: {exc}") from None

    if data.shape[0] == 0:
        raise SampleFormatError(f"{path}: no sample rows")
    if data.shape[1] != len(labels) or not np.isfinite(data).all():
        fault = _row_fault(path, labels, "a ragged row or a non-finite cell")
        raise SampleFormatError(f"{path}: {fault}")
    if meta["n"] != data.shape[0]:
        raise SampleFormatError(
            f"{path}: sidecar claims n={meta['n']} but file has {data.shape[0]} rows"
        )
    try:
        return SampleSet(data=data, labels=labels, model=str(meta["model_kind"]),
                         seed=meta["seed"], grid_hash=str(meta["grid_hash"]))
    except SampleFormatError as exc:
        raise SampleFormatError(f"{path}: {exc}") from None


def _read_sidecar(path) -> dict:
    """The sidecar of sample file ``path``: a JSON object with every
    provenance field, whose ``n`` and ``seed`` are integers."""
    sc = sidecar_path(path)
    try:
        with open(sc, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise SampleFormatError(f"missing metadata sidecar {sc}") from None
    except json.JSONDecodeError as exc:
        raise SampleFormatError(f"{sc}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SampleFormatError(f"{sc}: not UTF-8 text: {exc}") from None
    if not isinstance(meta, dict):
        raise SampleFormatError(f"{sc}: expected a JSON object, got {type(meta).__name__}")
    for field in ("grid_hash", "model_kind", "seed", "n"):
        if field not in meta:
            raise SampleFormatError(f"{sc}: missing field {field!r}")
    for field in ("seed", "n"):
        value = meta[field]
        if not isinstance(value, int) or isinstance(value, bool):
            raise SampleFormatError(f"{sc}: field {field!r} must be an integer, got {value!r}")
    return meta


def _row_fault(path, labels: tuple[VarLabel, ...], fallback: str) -> str:
    """Name the first ragged row or bad cell of a sample CSV, row by row.

    Only called once the bulk parse has failed, to say where; ``fallback``
    is the message when this scan finds no fault.  Rows are numbered from 1
    after the header; blank lines count but are skipped.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for k, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(labels):
                return f"row {k} has {len(row)} fields, expected {len(labels)}"
            for lab, v in zip(labels, row):
                try:
                    x = float(v)
                except ValueError:
                    return f"row {k}, column {lab.text}: {v!r} is not a number"
                if not math.isfinite(x):
                    return f"row {k}, column {lab.text}: {v!r} is not a finite number"
    return fallback
