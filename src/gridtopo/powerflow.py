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
symmetric) and the sampling map M^{-T}.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInjectionStatsError, ModelMismatchError
from .grid import Grid, reduced_laplacian


class VarLabel(NamedTuple):
    """One scalar voltage variable: kind 'v' or 'theta' at a bus."""

    kind: str
    bus: int

    @property
    def text(self) -> str:
        return f"{self.kind}_{self.bus}"


def parse_label(text: str) -> VarLabel:
    kind, _, bus = text.rpartition("_")
    if kind not in ("v", "theta") or not bus.isdigit():
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


@dataclass(frozen=True, eq=False)
class ConcentrationMatrix:
    """Symmetric positive-definite inverse covariance with variable labels."""

    matrix: np.ndarray
    labels: tuple[VarLabel, ...]
    model: str  # "dc" or "lc"

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "labels", tuple(self.labels))
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] != len(self.labels):
            raise ValueError("concentration matrix shape does not match labels")
        check_layout(self.labels, self.model)
        # Gram products and symmetrised inverses arrive exactly symmetric
        if not np.array_equal(M, M.T):
            scale = np.abs(M).max()
            if not np.allclose(M, M.T, atol=1e-8 * max(scale, 1.0)):
                raise ValueError("concentration matrix is not symmetric")
            object.__setattr__(self, "matrix", (M + M.T) / 2.0)
        try:
            np.linalg.cholesky(self.matrix)
        except np.linalg.LinAlgError:
            raise ValueError("concentration matrix is not positive definite") from None

    @property
    def buses(self) -> tuple[int, ...]:
        return tuple(lab.bus for lab in self.labels if lab.kind == "theta")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def block(self, kind_row: str, kind_col: str, entries: np.ndarray | None = None) -> np.ndarray:
        """Sub-matrix of all (kind_row, kind_col) label pairs, bus-ordered, of
        this matrix or of ``entries``, an array indexed like it."""
        rows = [k for k, lab in enumerate(self.labels) if lab.kind == kind_row]
        cols = [k for k, lab in enumerate(self.labels) if lab.kind == kind_col]
        return (self.matrix if entries is None else entries)[np.ix_(rows, cols)]


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


def lc_system_matrix(grid: Grid) -> np.ndarray:
    """S = [[H_g, H_b], [H_b, -H_g]] mapping [v; theta] to [p; q]."""
    Hb = reduced_laplacian(grid, "susceptance")
    Hg = reduced_laplacian(grid, "conductance")
    return np.block([[Hg, Hb], [Hb, -Hg]])


def whitened_system(grid: Grid, stats: InjectionStats, model: str) -> np.ndarray:
    """M = L^{-1} S: the model's system matrix (H_b for DC, S for LC) with
    its rows whitened by L, the per-bus Cholesky factor of Cov([p; q]).

    Row by row, bus by bus: [p_i; q_i] -> [p_i / l11; (q_i - l21 p_i / l11) / l22]
    (DC keeps only the p rows).  Then J = M^T M, Cov = M^{-1} M^{-T}, and
    voltages are M^{-1} z for a standard normal z in (z_p; z_q) block order.
    """
    if model not in ("dc", "lc"):
        raise ModelMismatchError(f"model must be 'dc' or 'lc', got {model!r}")
    check_stats(grid, stats)
    M = reduced_laplacian(grid, "susceptance") if model == "dc" else lc_system_matrix(grid)
    l11, l21, l22 = stats.cholesky
    top, bottom = M[:stats.n], M[stats.n:]
    top /= l11[:, None]
    if model == "lc":
        bottom -= l21[:, None] * top
        bottom /= l22[:, None]
    return M


def _gram(A: np.ndarray) -> np.ndarray:
    """A^T A as one SYRK, exactly symmetric: J for A = M, Cov for A = M^{-T}.
    Callers pass M as a temporary, so it is freed before J is validated."""
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
    return ConcentrationMatrix(_gram(whitened_system(grid, stats, "dc")), dc_labels(grid), "dc")


def solve_lc(grid: Grid, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Voltage magnitudes & angles with [p; q] = S [v; theta].

    Accepts (N,) or (n, N) arrays; S is invertible for any connected grid
    because H_b is positive definite.
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
    return ConcentrationMatrix(_gram(whitened_system(grid, stats, "lc")), lc_labels(grid), "lc")


def lc_threshold_statistic(conc: ConcentrationMatrix, entries: np.ndarray | None = None) -> np.ndarray:
    """J_vv + J_theta,theta, the bus-pair statistic used for edge detection.

    The per-bus sigma_pq/D cross terms cancel in the sum, leaving
    Hg (A+C) Hg + Hb (A+C) Hb with A + C = (sigma_pp + sigma_qq)/D (D the
    per-bus covariance determinant), which has strictly negative entries at
    direct lines of any grid without triangles.  ``entries``, an array
    indexed like ``conc``, is summed over the same blocks in place of J.
    """
    if conc.model != "lc":
        raise ModelMismatchError("lc_threshold_statistic needs an LC concentration")
    return conc.block("v", "v", entries) + conc.block("theta", "theta", entries)
