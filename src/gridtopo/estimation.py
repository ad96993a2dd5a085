"""Concentration-matrix estimation from voltage samples.

Two estimators behind one interface:

* ``direct``: invert the empirical covariance (valid when n comfortably
  exceeds the dimension and the covariance is numerically full rank);
* ``glasso``: l1-penalized maximum likelihood

      minimize_S  -log det S + <S, cov> + lam * ||S||_1(off-diagonal)

  solved by block coordinate descent over columns.  Each column update is an
  exact lasso subproblem solved by coordinate descent, so every step
  decreases the primal objective; the recorded objective trace is
  monotonically non-increasing.

Samples are treated as zero-mean (fluctuations around an operating point),
so the empirical covariance is X^T X / n without mean subtraction.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, RankDeficiencyError
from .powerflow import ConcentrationMatrix, VarLabel, parse_label
from .sampling import SampleSet

#: eigenvalue ratio below which a covariance counts as rank deficient
EPS_PD = 1e-12


def empirical_covariance(data: np.ndarray) -> np.ndarray:
    """Zero-mean sample covariance X^T X / n (no centering, divisor n)."""
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ConfigError(f"need a non-empty 2-d sample matrix, got shape {X.shape}")
    cov = X.T @ X / X.shape[0]
    return (cov + cov.T) / 2.0


def invert_covariance(cov: np.ndarray) -> np.ndarray:
    """Direct inverse with an explicit rank check.

    Raises :class:`RankDeficiencyError` naming the offending eigenvalue when
    the smallest eigenvalue falls below EPS_PD times the largest.
    """
    cov = np.asarray(cov, dtype=float)
    w = np.linalg.eigvalsh((cov + cov.T) / 2.0)
    lo, hi = float(w[0]), float(w[-1])
    if lo <= EPS_PD * max(hi, 1.0):
        raise RankDeficiencyError(
            f"covariance is numerically rank deficient: smallest eigenvalue "
            f"{lo:.6e} against largest {hi:.6e}"
        )
    J = np.linalg.inv(cov)
    return (J + J.T) / 2.0


# ----------------------------------------------------------------------
# graphical lasso
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GlassoConfig:
    """Solver knobs; defaults follow the package contract."""

    tol: float = 1e-6
    max_iters: int = 500
    diagonal_penalized: bool = False

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError(f"tol must be a positive number, got {self.tol!r}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters!r}")


def glasso_objective(S: np.ndarray, cov: np.ndarray, lam: float,
                     diagonal_penalized: bool = False) -> float:
    """Penalized negative log-likelihood -log det S + <S, cov> + lam*||S||_1."""
    sign, logdet = np.linalg.slogdet(S)
    if sign <= 0:
        return math.inf
    penalty = np.abs(S).sum() - np.abs(np.diag(S)).sum()
    if diagonal_penalized:
        penalty += np.abs(np.diag(S)).sum()
    return float(-logdet + (S * cov).sum() + lam * penalty)


def _soft(v: float, t: float) -> float:
    if v > t:
        return v - t
    if v < -t:
        return v + t
    return 0.0


def graphical_lasso(
    cov: np.ndarray,
    lam: float,
    config: GlassoConfig | None = None,
) -> tuple[np.ndarray, dict]:
    """Solve the l1-penalized inverse covariance problem.

    Returns ``(S, info)`` where info records iterations, convergence flag,
    termination reason and the per-sweep objective trace.  The iterate stays
    positive definite throughout: each column update writes the diagonal
    through the Schur complement 1/(cov_cc + lam*delta) > 0.

    Convergence is declared when no entry of S moves more than ``tol`` in a
    full sweep; hitting ``max_iters`` first sets ``converged=False`` (no
    exception), matching the documented estimator contract.
    """
    config = config or GlassoConfig()
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0]
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ConfigError(f"covariance must be square, got shape {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ConfigError("covariance has non-finite entries")
    if np.abs(cov - cov.T).max() > 1e-8 * max(np.abs(cov).max(), 1.0):
        raise ConfigError("covariance must be symmetric")
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ConfigError(f"lambda must be a finite non-negative number, got {lam!r}")
    if np.any(np.diag(cov) <= 0):
        raise ConfigError("covariance diagonal must be positive")

    delta_diag = 1.0 if config.diagonal_penalized else 0.0
    S = np.diag(1.0 / (np.diag(cov) + lam))
    trace = [glasso_objective(S, cov, lam, config.diagonal_penalized)]

    if d == 1:
        info = {"iterations": 0, "converged": True, "termination": "tol",
                "objective_trace": trace}
        return S, info

    inner_tol = max(config.tol * 1e-2, 1e-14)
    converged = False
    sweeps = 0
    idx = np.arange(d)
    for sweeps in range(1, config.max_iters + 1):
        max_change = 0.0
        for c in range(d):
            rest = idx[idx != c]
            S11 = S[np.ix_(rest, rest)]
            Q = np.linalg.inv(S11)
            c12 = cov[rest, c]
            c22 = cov[c, c] + lam * delta_diag
            V = c22 * Q
            alpha = S[rest, c].copy()
            Valpha = V @ alpha
            for _ in range(200):
                inner_change = 0.0
                for k in range(d - 1):
                    old = alpha[k]
                    # exact minimizer of the lasso subproblem in coordinate k
                    new = _soft(-c12[k] - (Valpha[k] - V[k, k] * old), lam) / V[k, k]
                    if new != old:
                        alpha[k] = new
                        Valpha += (new - old) * V[:, k]
                        inner_change = max(inner_change, abs(new - old))
                if inner_change < inner_tol:
                    break
            gamma = 1.0 / c22
            s22 = gamma + alpha @ Q @ alpha
            max_change = max(
                max_change,
                float(np.abs(alpha - S[rest, c]).max(initial=0.0)),
                abs(s22 - S[c, c]),
            )
            S[rest, c] = alpha
            S[c, rest] = alpha
            S[c, c] = s22
        trace.append(glasso_objective(S, cov, lam, config.diagonal_penalized))
        if max_change < config.tol:
            converged = True
            break

    info = {
        "iterations": sweeps,
        "converged": converged,
        "termination": "tol" if converged else "max_iters",
        "objective_trace": trace,
    }
    return S, info


def kkt_violations(cov: np.ndarray, S: np.ndarray, lam: float,
                   diagonal_penalized: bool = False) -> dict:
    """Stationarity residuals of the glasso optimum.

    At the solution, with W = S^{-1}: cov_ij - W_ij must lie within [-lam, lam]
    wherever S_ij = 0 and equal -lam*sign(S_ij) elsewhere (off-diagonal);
    the diagonal satisfies cov_ii - W_ii + lam*delta = 0.
    """
    W = np.linalg.inv(S)
    grad = cov - W
    off = ~np.eye(S.shape[0], dtype=bool)
    zero = off & (S == 0.0)
    nonzero = off & (S != 0.0)
    viol_zero = np.maximum(np.abs(grad[zero]) - lam, 0.0) if zero.any() else np.array([0.0])
    viol_nonzero = (
        np.abs(grad[nonzero] + lam * np.sign(S[nonzero])) if nonzero.any() else np.array([0.0])
    )
    delta_diag = lam if diagonal_penalized else 0.0
    viol_diag = np.abs(np.diag(grad) + delta_diag)
    return {
        "max_zero": float(viol_zero.max()),
        "max_nonzero": float(viol_nonzero.max()),
        "max_diag": float(viol_diag.max()),
    }


def parse_lambda(value, name: str):
    """The one parser of the glasso penalty: ``"auto"`` or a finite number
    >= 0.  Numbers are kept as given; a string that spells a number (a
    command-line flag) becomes a float first."""
    if isinstance(value, str) and value != "auto":
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"{name} must be a number or 'auto', got {value!r}") from None
    if value != "auto" and (isinstance(value, bool) or not isinstance(value, numbers.Real)
                            or not (math.isfinite(value) and value >= 0)):
        raise ConfigError(f"{name} must be a finite number >= 0 or 'auto', got {value!r}")
    return value


def select_lambda(samples: SampleSet, grid_size_hint: int | None = None,
                  c: float = 0.5) -> float:
    """Rate-driven penalty lam = c * sqrt(log d / n) (natural log)."""
    d = grid_size_hint if grid_size_hint is not None else samples.dim
    if d < 2:
        return 0.0
    return c * math.sqrt(math.log(d) / samples.n)


# ----------------------------------------------------------------------
# one estimator interface
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EstimatedConcentration:
    """Estimated inverse covariance plus how it was obtained."""

    matrix: np.ndarray
    labels: tuple[VarLabel, ...]
    model: str
    method: str  # "direct" or "glasso"
    n_samples: int
    lam: float = 0.0
    iterations: int = 0
    converged: bool = True
    termination: str = "direct"
    objective_trace: tuple[float, ...] = field(default_factory=tuple)
    kkt: dict | None = None
    #: the validated, labelled matrix, built once here
    concentration: ConcentrationMatrix = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "objective_trace", tuple(self.objective_trace))
        object.__setattr__(self, "concentration",
                           ConcentrationMatrix(self.matrix, self.labels, self.model))

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix.tolist(),
            "labels": [lab.text for lab in self.labels],
            "model": self.model,
            "method": self.method,
            "n_samples": self.n_samples,
            "lambda": self.lam,
            "iterations": self.iterations,
            "converged": self.converged,
            "termination": self.termination,
            "objective_trace": list(self.objective_trace),
            "kkt": self.kkt,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EstimatedConcentration":
        return cls(
            matrix=np.asarray(doc["matrix"], dtype=float),
            labels=tuple(parse_label(t) for t in doc["labels"]),
            model=str(doc["model"]),
            method=str(doc["method"]),
            n_samples=int(doc["n_samples"]),
            lam=float(doc.get("lambda", 0.0)),
            iterations=int(doc.get("iterations", 0)),
            converged=bool(doc.get("converged", True)),
            termination=str(doc.get("termination", "direct")),
            objective_trace=tuple(doc.get("objective_trace", ())),
            kkt=doc.get("kkt"),
        )


def write_estimate_json(est: EstimatedConcentration, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(est.to_dict(), fh, indent=2)
        fh.write("\n")


def load_estimate_json(path) -> EstimatedConcentration:
    """Read an estimate JSON back; malformed files raise :class:`ConfigError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: estimate must be a JSON object")
    try:
        return EstimatedConcentration.from_dict(doc)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def estimate_concentration(
    samples: SampleSet,
    method: str = "auto",
    lam: float | str = "auto",
    config: GlassoConfig | None = None,
) -> EstimatedConcentration:
    """Estimate the concentration matrix from samples.

    ``method="auto"`` uses the direct inverse when n >= 5d and the empirical
    covariance is numerically full rank, otherwise falls back to the
    graphical lasso with ``lam`` (``"auto"`` resolves via
    :func:`select_lambda`).
    """
    if method not in ("auto", "direct", "glasso"):
        raise ConfigError(f"unknown estimator {method!r}")
    lam = parse_lambda(lam, "lambda")
    cov = empirical_covariance(samples.data)
    d = samples.dim

    J = None
    if method == "direct":
        J = invert_covariance(cov)
    elif method == "auto" and samples.n >= 5 * d:
        try:
            J = invert_covariance(cov)
        except RankDeficiencyError:
            pass

    if J is not None:
        return EstimatedConcentration(
            matrix=J, labels=samples.labels, model=samples.model,
            method="direct", n_samples=samples.n,
        )

    lam_val = select_lambda(samples) if lam == "auto" else float(lam)
    config = config or GlassoConfig()
    S, info = graphical_lasso(cov, lam_val, config)
    return EstimatedConcentration(
        matrix=S, labels=samples.labels, model=samples.model,
        method="glasso", n_samples=samples.n, lam=lam_val,
        iterations=info["iterations"], converged=info["converged"],
        termination=info["termination"],
        objective_trace=tuple(info["objective_trace"]),
        kkt=kkt_violations(cov, S, lam_val, config.diagonal_penalized),
    )
