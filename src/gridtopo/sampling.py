"""Deterministic generation of voltage samples from injection fluctuations.

Injections are drawn i.i.d. per snapshot: each non-reference bus gets a
correlated (p, q) pair from its 2x2 covariance via an explicit Cholesky
factor, then the linearized power flow maps injections to voltages.  Both
steps are linear, so a call builds the map once from the whitened system
matrix M (:func:`gridtopo.powerflow.whitened_system`): row k of W = M^{-T}
is the voltage response to a unit value of column k of the standard normal
draw z, and the samples are the single product ``z @ W``.  All randomness
flows through ``numpy.random.default_rng`` (PCG64) seeded from a single
integer, so a (grid, stats, model, n, seed) tuple reproduces the same
samples bit-for-bit on a fixed numpy version.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import SampleFormatError
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

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


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


def _sample_map(grid: Grid, stats: InjectionStats, model: str) -> np.ndarray:
    """W (2N x d): row k is the voltage response to a unit value of column k
    of the interleaved (z_p, z_q) draw, so the samples are z @ W.

    M^{-1} maps a (z_p; z_q) block-order draw to voltages, so W is M^{-T}
    with its rows spread into the interleaved order: one solve of M against
    the unit draws placed in M's block order.  Under DC the z_q rows stay
    zero: multiplying only the z_p columns would first copy them out of z,
    n rows, to save a few milliseconds.
    """
    M = whitened_system(grid, stats, model)
    units = np.zeros((M.shape[0], 2 * stats.n))
    row = np.arange(M.shape[0])
    # block-order draw r (z_p of bus r % N, or z_q once r >= N) is z column 2 (r % N) + r // N
    units[row, 2 * (row % stats.n) + row // stats.n] = 1.0
    return np.linalg.solve(M, units).T


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
    W = _sample_map(grid, stats, model)
    z = np.random.default_rng(int(seed)).standard_normal((n, 2 * stats.n))
    data = z @ W
    labels = dc_labels(grid) if model == "dc" else lc_labels(grid)
    return SampleSet(data=data, labels=labels, model=model, seed=int(seed),
                     grid_hash=grid_hash(grid))


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
