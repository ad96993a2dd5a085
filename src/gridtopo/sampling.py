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

On disk a :class:`SampleSet` is a CSV of ``format(v, ".17g")`` cells and a
JSON sidecar.  :func:`write_samples_csv` formats the body a block of cells
at a time in numpy, byte for byte as Python does (:func:`_csv_rows`).
"""
from __future__ import annotations

import csv
import math
import numbers
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConfigError, SampleFormatError, read_json_object, write_json
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
        if not np.isfinite(self.data).all():
            i, j = np.argwhere(~np.isfinite(self.data))[0]
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
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
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

    The header is the labels joined by commas (no label needs CSV quoting).
    The body is the text ``csv.writer`` gives for ``format(v, ".17g")``
    cells, formatted :data:`_BLOCK_CELLS` cells at a time by :func:`_csv_rows`.
    The sidecar ``<path>.meta.json`` records grid hash, model kind, seed and
    sample count; reading checks the count and the model, and the grid hash
    is provenance that no stage reads.
    """
    rows = max(1, _BLOCK_CELLS // max(samples.dim, 1))
    with open(path, "wb") as fh:
        fh.write((",".join(lab.text for lab in samples.labels) + "\r\n").encode())
        for start in range(0, samples.n, rows):
            fh.write(_csv_rows(samples.data[start:start + rows]))
    meta = {
        "grid_hash": samples.grid_hash,
        "model_kind": samples.model,
        "seed": samples.seed,
        "n": samples.n,
    }
    write_json(meta, sidecar_path(path), sort_keys=True)


#: cells per block of the CSV body; bounds the formatter's temporary arrays
_BLOCK_CELLS = 1 << 14
#: 10^p for p <= 22: exact doubles, as 5^22 < 2^53
_POW10 = 10.0 ** np.arange(23)
#: slot numbers of the 18 digit-or-dot slots of a cell, a column
_SLOT = np.arange(18, dtype=np.uint8)[:, None]


def _split(x):
    """Veltkamp's split of x into hi + lo, each of at most 26 significant bits."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x 10^p exactly, as hi + lo with hi = fl(x 10^p): Dekker's two-product
    (Dekker 1971), exact while nothing over- or underflows."""
    hi = x * _POW10[p]
    xh, xl = _split(x)
    ph, pl = _POW10_HI[p], _POW10_LO[p]
    return hi, ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of ``block``: ``format(v, ".17g")`` cells joined by ","
    and ended by "\\r\\n", as ASCII.

    A cell with 1e-6 < |v| < 1e16 has a decimal exponent X in [-6, 15], so
    its 17 significant digits are D = |v| 10^p rounded half to even, with
    p = 16 - X in [1, 22].  X starts as floor(log10 |v|), which can be one
    off; |v| 10^p = hi + lo, formed exactly, is then below 1e16 or not below
    1e17, and p moves by one.  hi >= 1e16 > 2^53 is an even integer, so
    D = hi + rint(lo) rounds the exact remainder half to even.  D never
    rounds up to 10^17, which would take a |v| less than 5e-18 (relative)
    below a power of ten; no double in range is closer than 8e-17.  D's
    digits come from its two halves below 10^9 by uint32 division by 10.

    Each cell is laid out in 30 byte slots, NUL where ``%g`` writes nothing:
    the sign; "0." and -X - 1 zeros of fixed notation below 1 (X >= -4);
    the digits, with trailing zeros dropped past the integer part, and one
    "." after the integer part (digit X, or digit 0 in exponent notation)
    if a digit follows it; "e-0" and the exponent digit for X < -4; the
    separator.  Dropping the NULs leaves the text.  Every other cell (zeros,
    |v| <= 1e-6, |v| >= 1e16) is Python's own ``format(v, ".17g")``.
    """
    rows, cols = block.shape
    if cols == 0:
        return b"\r\n" * rows
    v = block.ravel()
    cells = v.size
    x = np.abs(v)
    fast = (x > 1e-6) & (x < 1e16)
    x[~fast] = 1.0
    p = 16 - np.clip(np.floor(np.log10(x)).astype(np.intp), -6, 15)
    hi, lo = _times_pow10(x, p)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(below | above)
    if off.size:
        p[off] += below[off].astype(np.intp) - above[off]
        hi[off], lo[off] = _times_pow10(x[off], p[off])
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    X = 16 - p

    # digits[k]: digit k of D's halves a 10^9 + b, most significant first
    halves = np.empty((2, cells), np.uint32)
    halves[0] = D // 10**9
    halves[1] = D - halves[0] * np.int64(10**9)
    digits = np.empty((2, 9, cells), np.uint8)
    for k in range(8, -1, -1):
        q = halves // 10
        digits[:, k] = halves - q * 10
        halves = q
    digits = digits.reshape(18, cells)[1:]  # a < 10^8: its leading digit is 0

    exp = X < -4
    below_one = (X < 0) & ~exp
    last = ((digits != 0) * _SLOT[:17]).max(axis=0)  # the last nonzero digit
    # the dot follows digit `point`; 16 (no digit follows) below one
    point = np.where(exp, 0, np.where(below_one, 16, X)).astype(np.uint8)
    digits += ord("0")
    digits *= _SLOT[:17] <= np.maximum(last, np.where(below_one, 0, point))

    out = np.zeros((30, cells), np.uint8)
    out[0] = (v < 0) * np.uint8(ord("-"))
    out[1] = below_one * np.uint8(ord("0"))
    out[2] = below_one * np.uint8(ord("."))
    out[3:6] = (below_one & (np.arange(3)[:, None] < -X - 1)) * np.uint8(ord("0"))
    mantissa = out[6:24]
    mantissa[:17] = digits * (_SLOT[:17] <= point)
    mantissa[2:] += digits[1:] * (_SLOT[2:] > point + 1)
    mantissa += (_SLOT == point + 1) * ((last > point) * np.uint8(ord(".")))
    out[24] = exp * np.uint8(ord("e"))
    out[25] = exp * np.uint8(ord("-"))
    out[26] = exp * np.uint8(ord("0"))
    out[27] = exp * (ord("0") - X).astype(np.uint8)
    ends = out[28:].reshape(2, rows, cols)
    ends[0, :, :-1] = ord(",")
    ends[:, :, -1] = np.array([[ord("\r")], [ord("\n")]])
    out = out.T.copy()
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([format(s, ".17g").encode() for s in v[slow].tolist()], dtype="S28")
        out[slow, :28] = text.view(np.uint8).reshape(-1, 28)
    return out.tobytes().translate(None, b"\0")


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
        meta = read_json_object(sc, SampleFormatError)
    except FileNotFoundError:
        raise SampleFormatError(f"missing metadata sidecar {sc}") from None
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
    after the header; blank lines count but are skipped.  A number is one
    ``np.loadtxt`` reads: ``float()``'s, in ASCII and without "_" separators.
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
                cell = v.strip()
                try:
                    if "_" in cell or not cell.isascii():
                        raise ValueError
                    x = float(cell)
                except ValueError:
                    return f"row {k}, column {lab.text}: {v!r} is not a number"
                if not math.isfinite(x):
                    return f"row {k}, column {lab.text}: {v!r} is not a finite number"
    return fallback
