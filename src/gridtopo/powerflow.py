"""Linearized power-flow models and their voltage covariance/concentration.

Two models over a grid with fluctuating nodal injections:

* DC: active power p determines phase angles via the susceptance-weighted
  reduced Laplacian H_b, ``p = H_b theta``.
* Linear coupled (LC): active and reactive power jointly determine voltage
  magnitudes and phases via the block system
  ``[p; q] = S [v; theta]``, ``S = [[H_g, H_b], [H_b, -H_g]]``,
  with H_g the conductance-weighted reduced Laplacian.

Injections are zero-mean with per-bus 2x2 covariance and no cross-bus
correlation, so the inverse voltage covariance (the concentration matrix) is
the product of the system matrix with the per-bus injection concentration on
both sides: J = H_b diag(1/sigma_pp) H_b (DC) or J = S Cov([p; q])^{-1} S
(LC).  Everything derives from one whitened system matrix M = L^{-1} S,
where L L^T = Cov([p; q]) per bus (:func:`whitened_system`): J = M^T M, the
voltage covariance M^{-1} M^{-T} (each one symmetric product, exactly
symmetric) and the sampling map M^{-T}.  M is built as (row, col, value)
triples from the line list, and J is summed over the grid's two-hop index
(:attr:`Grid.two_hop`), at graph cost: J is non-zero only between
variables whose buses are at most two lines apart, and it is stored as
those entries (:class:`Pairs`); the dense d x d view is built when read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInjectionStatsError, ModelMismatchError
from .grid import Grid, dense_from_entries, laplacian_entries, reduced_laplacian


class VarLabel(NamedTuple):
    """One scalar voltage variable: kind 'v' or 'theta' at a bus."""

    kind: str
    bus: int

    @property
    def text(self) -> str:
        return f"{self.kind}_{self.bus}"


def parse_label(text: str) -> VarLabel:
    if not isinstance(text, str):
        raise ValueError(f"bad variable label {text!r}; expected a string v_<bus> or theta_<bus>")
    kind, _, bus = text.rpartition("_")
    if (kind not in ("v", "theta") or not (bus.isascii() and bus.removeprefix("-").isdigit())
            or VarLabel(kind, int(bus)).text != text):
        raise ValueError(f"bad variable label {text!r}; expected v_<bus> or theta_<bus>")
    return VarLabel(kind, int(bus))


def check_layout(labels: tuple[VarLabel, ...], model: str) -> None:
    """Raise :class:`ModelMismatchError` unless ``model`` is 'dc' or 'lc', and
    ``ValueError`` unless ``labels`` follow its layout: DC theta labels on
    distinct buses; LC v labels, then theta labels for the same distinct
    buses in the same order."""
    if model not in ("dc", "lc"):
        raise ModelMismatchError(f"model must be 'dc' or 'lc', got {model!r}")
    thetas = labels[len(labels) // 2:] if model == "lc" else labels
    buses = [lab.bus for lab in thetas]
    want = [VarLabel("v", b) for b in buses] if model == "lc" else []
    want += [VarLabel("theta", b) for b in buses]
    if tuple(want) != tuple(labels) or len(set(buses)) != len(buses):
        layout = "theta_<bus> labels on distinct buses"
        if model == "lc":
            layout = "v_<bus> labels on distinct buses, then theta_<bus> for the same buses in order"
        shown = ", ".join(lab.text for lab in labels[:8]) + (", ..." if len(labels) > 8 else "")
        raise ValueError(f"{model} variables must be {layout}; got {shown}")


def dc_labels(grid: Grid) -> tuple[VarLabel, ...]:
    return tuple(VarLabel("theta", b) for b in grid.non_reference_buses)


def lc_labels(grid: Grid) -> tuple[VarLabel, ...]:
    vs = tuple(VarLabel("v", b) for b in grid.non_reference_buses)
    ths = tuple(VarLabel("theta", b) for b in grid.non_reference_buses)
    return vs + ths


@dataclass(frozen=True, eq=False)
class InjectionStats:
    """Per-bus injection covariance: Var(p), Var(q), Cov(p, q).

    Arrays are aligned with ``grid.non_reference_buses``; the reference bus
    absorbs the slack and carries no free injection.
    """

    sigma_pp: np.ndarray
    sigma_qq: np.ndarray
    sigma_pq: np.ndarray

    def __post_init__(self):
        for name in ("sigma_pp", "sigma_qq", "sigma_pq"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.sigma_pp.shape
        if self.sigma_qq.shape != n or self.sigma_pq.shape != n or self.sigma_pp.ndim != 1:
            raise InvalidInjectionStatsError("sigma arrays must be 1-d and equally sized")
        if not (np.all(np.isfinite(self.sigma_pp)) and np.all(np.isfinite(self.sigma_qq))
                and np.all(np.isfinite(self.sigma_pq))):
            raise InvalidInjectionStatsError("sigma arrays must be finite")
        if np.any(self.sigma_pp <= 0) or np.any(self.sigma_qq <= 0):
            raise InvalidInjectionStatsError("per-bus variances must be positive")
        bad = np.nonzero(self.det <= 0)[0]
        if bad.size:
            k = int(bad[0])
            raise InvalidInjectionStatsError(
                f"per-bus injection covariance is not positive definite at index {k}: "
                f"sigma_pp*sigma_qq - sigma_pq^2 = {self.det[k]:.3e}"
            )

    @property
    def det(self) -> np.ndarray:
        """Per-bus determinant sigma_pp*sigma_qq - sigma_pq^2."""
        return self.sigma_pp * self.sigma_qq - self.sigma_pq**2

    @property
    def cholesky(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-bus lower Cholesky factor [[l11, 0], [l21, l22]] of the 2x2
        covariance, as the arrays (l11, l21, l22)."""
        l11 = np.sqrt(self.sigma_pp)
        return l11, self.sigma_pq / l11, np.sqrt(self.det / self.sigma_pp)

    @property
    def n(self) -> int:
        return self.sigma_pp.size

    @classmethod
    def uniform(cls, grid: Grid, sigma_pp: float = 1.0, sigma_qq: float = 1.0,
                sigma_pq: float = 0.5) -> "InjectionStats":
        """Identical stats at every non-reference bus (the package default)."""
        n = len(grid.non_reference_buses)
        return cls(np.full(n, sigma_pp), np.full(n, sigma_qq), np.full(n, sigma_pq))


@lru_cache(maxsize=4)
def _upper_triangle(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) of a d x d array's upper triangle in row-major order,
    built once per d and read-only, since every dense estimate of a sweep
    shares them."""
    rows, cols = np.nonzero(~np.tri(d, dtype=bool))
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


class Pairs(NamedTuple):
    """A symmetric d x d array as its diagonal and its upper-triangle entries
    (rows < cols, in row-major order); positions not listed hold 0.  A
    stack of trials' arrays shares the positions: ``diagonal`` is then
    (T, d) and ``vals`` (T, P)."""

    diagonal: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def of_dense(cls, A: np.ndarray) -> "Pairs":
        """Every upper-triangle position of the symmetric array(s) A."""
        rows, cols = _upper_triangle(A.shape[-1])
        return cls(A.diagonal(axis1=-2, axis2=-1).copy(), rows, cols, A[..., rows, cols])

    @property
    def dim(self) -> int:
        return self.diagonal.shape[-1]

    def dense(self) -> np.ndarray:
        """The (..., d, d) array these pairs stand for."""
        d = self.dim
        A = np.zeros(self.diagonal.shape + (d,))
        A[..., self.rows, self.cols] = self.vals
        A[..., self.cols, self.rows] = self.vals
        A[..., np.arange(d), np.arange(d)] = self.diagonal
        return A


class ConcentrationMatrix:
    """Symmetric positive-definite inverse covariance with variable labels.

    Stored one way, as :attr:`pairs`, its diagonal and upper-triangle
    entries: every entry of a matrix from outside, and for an exact J
    (:func:`dc_concentration`, :func:`lc_concentration`) only the variable
    pairs whose buses are at most two lines apart.  :attr:`matrix`, the dense
    d x d array, is built from the pairs on first access and kept.

    A (T, d, d) matrix is a stack of T trials' matrices over one set of
    labels, checked as a whole (one stacked Cholesky factor, the layout
    once); its pairs carry the trial axis.
    """

    def __init__(self, matrix: np.ndarray, labels, model: str):
        M = np.asarray(matrix, dtype=float)
        labels = tuple(labels)
        if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2] or M.shape[-1] != len(labels):
            raise ValueError("concentration matrix shape does not match labels")
        check_layout(labels, model)
        if not np.isfinite(M).all():
            bad = np.argwhere(~np.isfinite(M))[0]
            i, j = bad[-2:]
            raise ValueError(f"concentration matrix entry ({labels[i].text}, {labels[j].text}) "
                             f"is {M[(*bad,)]}, not a finite number")
        # symmetrised inverses arrive exactly symmetric
        MT = M.mT
        if not np.array_equal(M, MT):
            scale = np.abs(M).max(axis=(-2, -1), keepdims=True)
            if not np.allclose(M, MT, atol=1e-8 * np.maximum(scale, 1.0)):
                raise ValueError("concentration matrix is not symmetric")
            M = (M + MT) / 2.0
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise ValueError("concentration matrix is not positive definite") from None
        self.labels, self.model, self.pairs = labels, model, Pairs.of_dense(M)

    @classmethod
    def _of_pairs(cls, pairs: Pairs, labels: tuple[VarLabel, ...], model: str) -> "ConcentrationMatrix":
        """J = M^T M of a whitened system M, non-singular for every grid
        (:func:`_whitened_entries`), labelled by ``dc_labels`` or
        ``lc_labels``: exactly symmetric, positive definite and laid out as
        its model needs by construction, so nothing is checked."""
        conc = object.__new__(cls)
        conc.labels, conc.model, conc.pairs = labels, model, pairs
        return conc

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.pairs.dense()

    @property
    def buses(self) -> tuple[int, ...]:
        return tuple(lab.bus for lab in self.labels if lab.kind == "theta")

    @property
    def dim(self) -> int:
        return len(self.labels)


def check_stats(grid: Grid, stats: InjectionStats) -> None:
    """Raise unless ``stats`` covers exactly the grid's non-reference buses."""
    if stats.n != len(grid.non_reference_buses):
        raise InvalidInjectionStatsError(
            f"stats cover {stats.n} buses but grid has "
            f"{len(grid.non_reference_buses)} non-reference buses"
        )


# ----------------------------------------------------------------------
# the whitened system matrix, and everything derived from it
# ----------------------------------------------------------------------


def _system_entries(grid: Grid, model: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triples of the model's system matrix, one per position: H_b's for DC;
    for LC, S's four blocks H_g, H_b, H_b, -H_g in turn, each on H_b's
    positions (zeros included), so the bottom half of the triples lies
    N rows below the top half, column for column."""
    rows, cols, b = laplacian_entries(grid, "susceptance")
    if model == "dc":
        return rows, cols, b
    g = laplacian_entries(grid, "conductance")[2]
    n = len(grid.non_reference_buses)
    return (np.concatenate([rows, rows, rows + n, rows + n]),
            np.concatenate([cols, cols + n, cols, cols + n]),
            np.concatenate([g, b, b, -g]))


def lc_system_matrix(grid: Grid) -> np.ndarray:
    """S = [[H_g, H_b], [H_b, -H_g]] mapping [v; theta] to [p; q]."""
    return dense_from_entries(*_system_entries(grid, "lc"), 2 * len(grid.non_reference_buses))


def _whitened_entries(grid: Grid, stats: InjectionStats, model: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triples of M = L^{-1} S, one per position; see :func:`whitened_system`.

    M is non-singular: H_b is positive definite for every :class:`Grid`, so
    S is too (S [v; theta] = 0 gives v^T H_b v + theta^T H_b theta = 0), and
    :class:`InjectionStats` keeps l11 and l22 positive.  Top row k becomes
    S_k / l11_k and LC bottom row N + k becomes (S_{N+k} - l21_k M_k) / l22_k,
    the same float operations as on the dense rows.
    """
    if model not in ("dc", "lc"):
        raise ModelMismatchError(f"model must be 'dc' or 'lc', got {model!r}")
    check_stats(grid, stats)
    rows, cols, vals = _system_entries(grid, model)
    l11, l21, l22 = stats.cholesky
    if model == "dc":
        return rows, cols, vals / l11[rows]
    half = vals.size // 2
    k = rows[:half]
    m_top = vals[:half] / l11[k]
    return rows, cols, np.concatenate([m_top, (vals[half:] - l21[k] * m_top) / l22[k]])


def whitened_system(grid: Grid, stats: InjectionStats, model: str) -> np.ndarray:
    """M = L^{-1} S: the model's system matrix (H_b for DC, S for LC) with
    its rows whitened by L, the per-bus Cholesky factor of Cov([p; q]).

    Row by row, bus by bus: [p_i; q_i] -> [p_i / l11; (q_i - l21 p_i / l11) / l22]
    (DC keeps only the p rows).  Then J = M^T M, Cov = M^{-1} M^{-T}, and
    voltages are M^{-1} z for a standard normal z in (z_p; z_q) block order.
    """
    d = stats.n * (2 if model == "lc" else 1)
    return dense_from_entries(*_whitened_entries(grid, stats, model), d)


def _wedge_sums(wedges: tuple[np.ndarray, ...], size: int, *factors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """At each of ``size`` positions, the sum of x[k, a] y[k, b] over the ``wedges``
    a-k-b (:attr:`Grid.two_hop`), k ascending, for each (x, y) of ``factors`` in turn."""
    left, right, at = wedges
    products = np.concatenate([x[left] * y[right] for x, y in factors])
    return np.bincount(np.tile(at, len(factors)), weights=products, minlength=size)


def _concentration(grid: Grid, stats: InjectionStats, model: str,
                   labels: tuple[VarLabel, ...]) -> ConcentrationMatrix:
    """J = M^T M summed over the grid's wedges: exactly symmetric, listed where a row
    of M holds both columns.  LC's M is four blocks on H's positions, [[A, B], [C, D]],
    so J's v-v, v-theta and theta-theta blocks are A^T A + C^T C, A^T B + C^T D and
    B^T B + D^T D, top rows' products first, in M's row order."""
    left, right, at, rows, cols, upper = grid.two_hop
    every, up, size = (left, right, at), (left[:upper], right[:upper], at[:upper]), rows.size
    vals = _whitened_entries(grid, stats, model)[2]
    on, off = rows == cols, rows < cols
    if model == "dc":
        J = _wedge_sums(up, size, (vals, vals))
        return ConcentrationMatrix._of_pairs(Pairs(J[on], rows[off], cols[off], J[off]), labels, model)
    A, B, C, D = np.split(vals, 4)
    vv, tt = _wedge_sums(up, size, (A, A), (C, C)), _wedge_sums(up, size, (B, B), (D, D))
    vt = _wedge_sums(every, size, (A, B), (C, D))
    n = len(labels) // 2
    r, c = np.concatenate([rows[off], rows, rows[off] + n]), np.concatenate([cols[off], cols + n, cols[off] + n])
    by_row = np.argsort(r, kind="stable")  # a v row's v-v columns come before its v-theta ones
    pairs = Pairs(np.concatenate([vv[on], tt[on]]), r[by_row], c[by_row],
                  np.concatenate([vv[off], vt, tt[off]])[by_row])
    return ConcentrationMatrix._of_pairs(pairs, labels, model)


def _gram(A: np.ndarray) -> np.ndarray:
    """A^T A as one SYRK, exactly symmetric: Cov for A = M^{-T}."""
    return A.T @ A


def solve_dc(grid: Grid, p: np.ndarray) -> np.ndarray:
    """Phase angles theta with p = H_b theta; accepts (N,) or (n, N) input."""
    return np.linalg.solve(reduced_laplacian(grid, "susceptance"), np.asarray(p, dtype=float).T).T


def dc_phase_covariance(grid: Grid, stats: InjectionStats) -> np.ndarray:
    """Cov(theta) = H_b^{-1} diag(sigma_pp) H_b^{-1} over non-reference buses."""
    return _gram(np.linalg.inv(whitened_system(grid, stats, "dc")).T)


def dc_concentration(grid: Grid, stats: InjectionStats) -> ConcentrationMatrix:
    """Inverse phase covariance J = H_b diag(1/sigma_pp) H_b.

    Entry (i, j) couples i and j only through H_b's sparsity pattern, so J is
    negative at direct lines (unless common neighbors overcome the direct
    term), positive at two-hop pairs, and exactly zero further apart.
    """
    return _concentration(grid, stats, "dc", dc_labels(grid))


def solve_lc(grid: Grid, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Voltage magnitudes & angles with [p; q] = S [v; theta].

    Accepts (N,) or (n, N) arrays; S is invertible because H_b is positive
    definite.
    """
    rhs = np.concatenate([np.asarray(p, dtype=float).T, np.asarray(q, dtype=float).T], axis=0)
    sol = np.linalg.solve(lc_system_matrix(grid), rhs)
    n = len(grid.non_reference_buses)
    return sol[:n].T, sol[n:].T


def lc_voltage_covariance(grid: Grid, stats: InjectionStats) -> np.ndarray:
    """Cov([v; theta]) = S^{-1} Cov([p; q]) S^{-1}, labels ``lc_labels``."""
    return _gram(np.linalg.inv(whitened_system(grid, stats, "lc")).T)


def lc_concentration(grid: Grid, stats: InjectionStats) -> ConcentrationMatrix:
    """Inverse LC voltage covariance J = S Cov([p;q])^{-1} S.

    Cov([p;q])^{-1} is per-bus 2x2, so J keeps the distance-1-or-2 support
    structure of the DC concentration in each of its four blocks.
    """
    return _concentration(grid, stats, "lc", lc_labels(grid))


def lc_bus_pairs(pairs: Pairs) -> Pairs:
    """The v-v plus theta-theta block sum of an array indexed like an LC
    concentration, as bus pairs: the layout puts the v labels first and the
    theta labels after them in the same bus order, so each block's upper
    entries are bus pairs.  Every producer of LC pairs lists both blocks at
    the same bus pairs in the same order (all of them, or H_b's pattern),
    so the sum adds aligned entries; unaligned pairs raise ``ValueError``."""
    n = pairs.dim // 2
    vv, tt = pairs.cols < n, pairs.rows >= n  # rows < cols
    r, c = pairs.rows[vv], pairs.cols[vv]
    if not (np.array_equal(r, pairs.rows[tt] - n) and np.array_equal(c, pairs.cols[tt] - n)):
        raise ValueError("the v-v and theta-theta blocks are not listed at the same bus pairs")
    return Pairs(pairs.diagonal[..., :n] + pairs.diagonal[..., n:], r, c,
                 pairs.vals[..., vv] + pairs.vals[..., tt])


def lc_threshold_statistic(conc: ConcentrationMatrix) -> np.ndarray:
    """J_vv + J_theta,theta, the bus-pair statistic used for edge detection,
    as a dense array.

    The per-bus sigma_pq/D cross terms cancel in the sum, leaving
    Hg (A+C) Hg + Hb (A+C) Hb with A + C = (sigma_pp + sigma_qq)/D (D the
    per-bus covariance determinant), which has strictly negative entries at
    direct lines of any grid without triangles.
    """
    if conc.model != "lc":
        raise ModelMismatchError("lc_threshold_statistic needs an LC concentration")
    return lc_bus_pairs(conc.pairs).dense()
