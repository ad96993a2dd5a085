"""Concentration-matrix estimation from voltage samples.

Two estimators behind one interface, named by :data:`ESTIMATORS`:

* ``direct`` (and ``auto``, the default, which is the same estimate):
  invert the empirical covariance through one Cholesky factor (valid when
  n >= d and the factor is numerically full rank, else an error);
* ``glasso``, run only on request: maximum likelihood with an l1 penalty

      minimize_S  -log det S + <S, cov> + lam * ||S||_1(off-diagonal)

  solved by ADMM with residual-balanced step size.  The solver returns the
  best positive-definite iterate it has seen and records the best objective
  so far, so the objective trace is monotonically non-increasing.

Samples are treated as zero-mean (fluctuations around an operating point),
so the empirical covariance is X^T X / n without mean subtraction.  The
direct estimate is one solve (numpy's LU one) and a Gram product: against
the checked Cholesky factor of a SampleSet's covariance, or against C^T, the
drawn factor of the whitened scatter a SampleCovariance holds, which stays
well conditioned however ill-conditioned the covariance is.  The graphical
lasso reads ``covariance``.  An estimate holds its matrix once, as a
ConcentrationMatrix, with the KKT residuals glasso computed for the S it
returned.
"""
from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, ModelMismatchError, RankDeficiencyError
from .powerflow import ConcentrationMatrix, parse_label
from .sampling import SampleCovariance, SampleSet
# re-exported: the zero-mean covariance is defined next to the samples
from .sampling import empirical_covariance  # noqa: F401

def invert_covariance(cov: np.ndarray) -> np.ndarray:
    """The inverse of a covariance, with an explicit rank check.

    One Cholesky factor cov = L L^T gives it as A^T A with A = L^{-1},
    exactly symmetric.  Raises :class:`RankDeficiencyError` naming the pivot
    when the factor fails or its smallest pivot L_ii^2 is at most
    10 d eps max_i cov_ii, ten times the rounding error of a d-term sum in
    cov.
    """
    S = np.asarray(cov, dtype=float)
    d = S.shape[0]
    tol = 10.0 * d * np.finfo(float).eps * float(np.diag(S).max())
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(
            "covariance is numerically rank deficient: its Cholesky factor "
            "meets a non-positive pivot"
        ) from None
    pivot = float(np.diag(L).min()) ** 2
    if not pivot > tol:
        raise RankDeficiencyError(
            f"covariance is numerically rank deficient: smallest Cholesky pivot "
            f"{pivot:.6e} against tolerance {tol:.6e}"
        )
    A = np.linalg.solve(L, np.eye(d))
    return A.T @ A


# ----------------------------------------------------------------------
# graphical lasso
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GlassoConfig:
    """Solver knobs; defaults follow the package contract."""

    tol: float = 1e-6
    max_iters: int = 10_000

    def __post_init__(self):
        if (isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real)
                or not (self.tol > 0 and math.isfinite(self.tol))):
            raise ConfigError(f"tol must be a positive number, got {self.tol!r}")
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral)
                or self.max_iters < 1):
            raise ConfigError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


def glasso_objective(S: np.ndarray, cov: np.ndarray, lam: float) -> float:
    """Penalized negative log-likelihood -log det S + <S, cov> + lam*||S||_1
    (off-diagonal); ``inf`` when S is not positive definite (its Cholesky factor fails)."""
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return math.inf
    logdet = 2.0 * np.log(np.diag(L)).sum()
    penalty = np.abs(S).sum() - np.abs(np.diag(S)).sum()
    return float(-logdet + (S * cov).sum() + lam * penalty)


def graphical_lasso(
    cov: np.ndarray,
    lam: float,
    config: GlassoConfig | None = None,
) -> tuple[np.ndarray, dict]:
    """Solve the graphical lasso (the inverse covariance with an l1 penalty) by ADMM.

    Each step splits S into a smooth part X and a sparse part Z (Boyd et al.
    2011, section 6.5): X solves rho*X - X^{-1} = rho*(Z - U) - cov through
    one eigendecomposition, Z soft-thresholds X + U at lam/rho, U adds the
    gap X - Z, and rho follows residual balancing.

    Returns ``(S, info)``.  S is the best iterate seen: the diagonal start
    1/cov_ii or a later Z of lower objective, so S is positive
    definite (its Cholesky factor exists).  info records the steps taken,
    the convergence flag, the termination reason and the objective trace:
    the start's objective, then the best objective so far after each step,
    so the trace never increases.  ``info["kkt"]`` holds the
    :func:`kkt_violations` of the returned S.

    Convergence is declared when the largest KKT residual of S is at most
    1e-2 * tol * max(1, max|cov|); hitting ``max_iters`` steps first sets
    ``converged=False`` (no exception), matching the documented estimator
    contract.
    """
    config = config or GlassoConfig()
    cov = np.asarray(cov, dtype=float)
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

    # soft-threshold level per entry, in units of lam: 0 on the diagonal
    weight = 1.0 - np.eye(cov.shape[0])
    budget = 1e-2 * config.tol * max(1.0, float(np.abs(cov).max()))

    S = np.diag(1.0 / np.diag(cov))
    best = glasso_objective(S, cov, lam)
    trace = [best]
    kkt = kkt_violations(cov, S, lam)
    steps = 0
    # rho = 0.1 took fewer steps than 1 or 10 on the bundled grids
    Z, U, rho = S, np.zeros_like(S), 0.1
    while max(kkt.values()) > budget and steps < config.max_iters:
        steps += 1
        w, Q = np.linalg.eigh(rho * (Z - U) - cov)
        X = (Q * ((w + np.sqrt(w * w + 4.0 * rho)) / (2.0 * rho))) @ Q.T
        X = (X + X.T) / 2.0
        Z_old, V = Z, X + U
        Z = np.sign(V) * np.maximum(np.abs(V) - (lam / rho) * weight, 0.0)
        U = V - Z
        obj = glasso_objective(Z, cov, lam)
        if obj <= best:
            S, best = Z, obj
            kkt = kkt_violations(cov, S, lam)
        trace.append(best)
        # residual balancing with mu = 10, tau = 2 (Boyd et al., section 3.4.1)
        r = np.linalg.norm(X - Z)
        s = rho * np.linalg.norm(Z - Z_old)
        if r > 10.0 * s:
            rho, U = rho * 2.0, U / 2.0
        elif s > 10.0 * r:
            rho, U = rho / 2.0, U * 2.0

    converged = max(kkt.values()) <= budget
    info = {
        "iterations": steps,
        "converged": converged,
        "termination": "tol" if converged else "max_iters",
        "objective_trace": trace,
        "kkt": kkt,
    }
    return S, info


def kkt_violations(cov: np.ndarray, S: np.ndarray, lam: float) -> dict:
    """Stationarity residuals of the glasso optimum.

    At the solution, with W = S^{-1}: cov_ij - W_ij must lie within [-lam, lam]
    wherever S_ij = 0 and equal -lam*sign(S_ij) elsewhere (off-diagonal);
    the diagonal satisfies cov_ii - W_ii = 0.
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
    viol_diag = np.abs(np.diag(grad))
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


def select_lambda(samples: SampleSet | SampleCovariance) -> float:
    """Rate-driven penalty lam = 0.5 * sqrt(log d / n) (natural log), so 0.0
    for a single variable."""
    return 0.5 * math.sqrt(math.log(samples.dim) / samples.n)


# ----------------------------------------------------------------------
# one estimator interface
# ----------------------------------------------------------------------

#: the estimator names every caller accepts; "auto" is "direct"
ESTIMATORS = ("auto", "direct", "glasso")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: the optional estimate JSON fields: default, JSON type and its test (the
#: upper bound of lambda also rejects nan, inf and integers too big for a float)
_RECORD = {
    "lambda": (0.0, "a finite number >= 0", lambda v: _number(v) and 0 <= v <= sys.float_info.max),
    "iterations": (0, "an integer", lambda v: _number(v) and isinstance(v, int)),
    "converged": (True, "a boolean", lambda v: isinstance(v, bool)),
    "termination": ("direct", "a string", lambda v: isinstance(v, str)),
    "objective_trace": ([], "a list of numbers", lambda v: isinstance(v, list) and all(map(_number, v))),
    "kkt": (None, "an object or null", lambda v: v is None or isinstance(v, dict)),
}


@dataclass(frozen=True, eq=False)
class EstimatedConcentration:
    """Estimated inverse covariance plus how it was obtained."""

    concentration: ConcentrationMatrix
    method: str  # "direct" or "glasso"
    n_samples: int
    lam: float = 0.0
    iterations: int = 0
    converged: bool = True
    termination: str = "direct"
    objective_trace: tuple[float, ...] = field(default_factory=tuple)
    kkt: dict | None = None

    def __post_init__(self):
        if self.n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        object.__setattr__(self, "objective_trace", tuple(self.objective_trace))

    def to_dict(self) -> dict:
        return {"matrix": self.concentration.matrix.tolist(), **self._record()}

    def _record(self) -> dict:
        """Every field of :meth:`to_dict` but the matrix, in its order."""
        return {
            "labels": [lab.text for lab in self.concentration.labels],
            "model": self.concentration.model,
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
        n = doc["n_samples"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"n_samples must be an integer, got {n!r}")
        conc = ConcentrationMatrix(np.asarray(doc["matrix"], dtype=float),
                                   tuple(parse_label(t) for t in doc["labels"]), str(doc["model"]))
        record = {key: doc.get(key, default) for key, (default, _, _) in _RECORD.items()}
        for key, (_, kind, ok) in _RECORD.items():
            if not ok(record[key]):
                raise ValueError(f"{key} must be {kind}, got {record[key]!r}")
        method = doc["method"]
        if method not in ("direct", "glasso") or not isinstance(method, str):
            raise ValueError(f"method must be 'direct' or 'glasso', got {method!r}")
        record["lam"] = float(record.pop("lambda"))
        return cls(concentration=conc, method=method, n_samples=n, **record)


def write_estimate_json(est: EstimatedConcentration, path) -> None:
    """``json.dump(est.to_dict(), fh, indent=2)`` and a newline, byte for byte, with
    the matrix (the document's first null) written row by row from J's pairs: each
    stored entry formatted once, as json's ``repr``, and mirrored; the rest read 0.0."""
    J, d = est.concentration.pairs, est.concentration.dim
    text = np.empty((d, d), dtype=object)
    text.fill("0.0")  # one str object, not d^2
    text[J.rows, J.cols] = text[J.cols, J.rows] = np.fromiter(map(float.__repr__, J.vals), dtype=object)
    text[np.arange(d), np.arange(d)] = np.fromiter(map(float.__repr__, J.diagonal), dtype=object)
    head, tail = json.dumps({"matrix": None, **est._record()}, indent=2).split("null", 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + "[\n    [\n      ")
        fh.writelines(("\n    ],\n    [\n      " if k else "") + ",\n      ".join(row)
                      for k, row in enumerate(text))
        fh.write("\n    ]\n  ]" + tail + "\n")


def load_estimate_json(path) -> EstimatedConcentration:
    """Read an estimate JSON back; malformed files raise :class:`ConfigError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: estimate must be a JSON object")
    try:
        return EstimatedConcentration.from_dict(doc)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError, ModelMismatchError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def rank_deficiency(n: int, d: int, method: str) -> RankDeficiencyError | None:
    """The error :func:`estimate_concentration` raises before any solve for
    n samples of d variables, or None: ``method`` "direct" and "auto" need
    n >= d."""
    if method == "glasso" or n >= d:
        return None
    return RankDeficiencyError(f"{n} samples of {d} variables are rank deficient: the direct "
                               f"estimate needs n >= {d}; method 'glasso' estimates from fewer")


def estimate_concentration(
    samples: SampleSet | SampleCovariance,
    method: str = "auto",
    lam: float | str = "auto",
    config: GlassoConfig | None = None,
) -> EstimatedConcentration:
    """Estimate the concentration matrix from samples or their drawn covariance.

    ``method="auto"`` is ``"direct"``: the inverse through one solve against
    a triangular factor, which raises :class:`RankDeficiencyError` when
    n < d, a SampleSet's factor fails or the result is not a valid
    concentration matrix.  A drawn stack of trials gives one stacked solve
    and one stacked :class:`ConcentrationMatrix`.  Only ``method="glasso"``
    runs the graphical lasso, on one covariance, with ``lam`` (``"auto"``
    resolves via :func:`select_lambda`).
    """
    if method not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {method!r}")
    lam = parse_lambda(lam, "lambda")
    if (error := rank_deficiency(samples.n, samples.dim, method)) is not None:
        raise error
    if method != "glasso":
        if isinstance(samples, SampleCovariance):
            # the inverse of M^{-1} C^T C M^{-T} / n; C's diagonal is positive.
            # A lone (d, d) M is solved against every trial of a stacked C^T
            C, M = samples.factor, samples.system
            A = np.linalg.solve(C.mT, M)
            J = A.mT @ A
            J *= samples.n
            del A  # validation needs only J
        else:
            J = invert_covariance(samples.covariance)
        try:
            conc = ConcentrationMatrix(J, samples.labels, samples.model)
        except ValueError as exc:
            raise RankDeficiencyError(f"the direct estimate is not a concentration matrix: "
                                      f"{exc}") from None
        return EstimatedConcentration(conc, method="direct", n_samples=samples.n)

    lam_val = select_lambda(samples) if lam == "auto" else float(lam)
    S, info = graphical_lasso(samples.covariance, lam_val, config)
    return EstimatedConcentration(
        concentration=ConcentrationMatrix(S, samples.labels, samples.model),
        method="glasso", n_samples=samples.n, lam=lam_val,
        iterations=info["iterations"], converged=info["converged"],
        termination=info["termination"],
        objective_trace=tuple(info["objective_trace"]),
        kkt=info["kkt"],
    )
