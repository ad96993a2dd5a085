"""Deterministic generation of voltage samples from injection fluctuations.

Injections are drawn i.i.d. per snapshot: each non-reference bus gets a
correlated (p, q) pair from its 2x2 covariance via an explicit Cholesky
factor, then the linearized power flow maps injections to voltages.  All
randomness flows through ``numpy.random.default_rng`` (PCG64) seeded from a
single integer, so a (grid, stats, model, n, seed) tuple reproduces the same
samples bit-for-bit on a fixed numpy version.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .exceptions import ModelMismatchError, SampleFormatError
from .grid import Grid, grid_hash
from .powerflow import (
    InjectionStats,
    VarLabel,
    dc_labels,
    lc_labels,
    parse_label,
    solve_dc,
    solve_lc,
)

MODEL_KINDS = ("dc", "lc")


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
        if self.model not in MODEL_KINDS:
            raise ModelMismatchError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.data.ndim != 2 or self.data.shape[1] != len(self.labels):
            raise SampleFormatError(
                f"sample matrix of shape {self.data.shape} does not match "
                f"{len(self.labels)} labels"
            )

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def generate_injections(stats: InjectionStats, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw n rows of (p, q) injections, each bus via its 2x2 Cholesky factor.

    Column layout of the underlying normal draw is (z_p, z_q) interleaved per
    bus, which pins the stream layout independent of model kind.
    """
    m = stats.n
    l11 = np.sqrt(stats.sigma_pp)
    l21 = stats.sigma_pq / l11
    l22 = np.sqrt(stats.det / stats.sigma_pp)
    z = rng.standard_normal((n, 2 * m))
    zp, zq = z[:, 0::2], z[:, 1::2]
    p = zp * l11
    q = zp * l21 + zq * l22
    return p, q


def generate_voltage_samples(
    grid: Grid,
    stats: InjectionStats,
    model: str = "dc",
    n: int = 1000,
    seed: int = 0,
) -> SampleSet:
    """Sample injections, push them through the chosen model, label the columns.

    DC keeps phase angles only (columns ``theta_<bus>``); LC keeps magnitudes
    then angles (``v_<bus>`` columns first).  The injection draw is identical
    for both models under the same seed.
    """
    if model not in MODEL_KINDS:
        raise ModelMismatchError(f"model must be one of {MODEL_KINDS}, got {model!r}")
    if n <= 0:
        raise SampleFormatError(f"sample count must be positive, got {n}")
    rng = np.random.default_rng(int(seed))
    p, q = generate_injections(stats, n, rng)
    if model == "dc":
        data = solve_dc(grid, p)
        labels = dc_labels(grid)
    else:
        v, theta = solve_lc(grid, p, q)
        data = np.concatenate([v, theta], axis=1)
        labels = lc_labels(grid)
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
        writer = csv.writer(fh)
        writer.writerow([lab.text for lab in samples.labels])
        for row in samples.data:
            writer.writerow([format(v, ".17g") for v in row])
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
    """Read a sample CSV and its mandatory metadata sidecar back."""
    try:
        with open(sidecar_path(path), "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise SampleFormatError(f"missing metadata sidecar {sidecar_path(path)}") from None
    except json.JSONDecodeError as exc:
        raise SampleFormatError(f"{sidecar_path(path)}: invalid JSON: {exc}") from None

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SampleFormatError(f"{path}: empty sample file") from None
        try:
            labels = tuple(parse_label(h) for h in header)
        except ValueError as exc:
            raise SampleFormatError(f"{path}: {exc}") from None
        rows = []
        for k, row in enumerate(reader):
            if len(row) != len(labels):
                raise SampleFormatError(
                    f"{path}: row {k + 1} has {len(row)} fields, expected {len(labels)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                for lab, v in zip(labels, row):
                    try:
                        float(v)
                    except ValueError:
                        raise SampleFormatError(
                            f"{path}: row {k + 1}, column {lab.text}: {v!r} is not a number"
                        ) from None

    data = np.asarray(rows, dtype=float)
    for field in ("grid_hash", "model_kind", "seed", "n"):
        if field not in meta:
            raise SampleFormatError(f"{sidecar_path(path)}: missing field {field!r}")
    if int(meta["n"]) != data.shape[0]:
        raise SampleFormatError(
            f"{path}: sidecar claims n={meta['n']} but file has {data.shape[0]} rows"
        )
    return SampleSet(
        data=data,
        labels=labels,
        model=str(meta["model_kind"]),
        seed=int(meta["seed"]),
        grid_hash=str(meta["grid_hash"]),
    )
