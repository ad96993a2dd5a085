"""Topology reconstruction from concentration matrices.

Two algorithms:

* neighborhood counting: threshold the concentration into a graphical model
  (GM) whose edges join variables at grid distance 1 or 2, merge v/theta
  vertices per bus for the LC model, then separate true lines from two-hop
  artifacts by a purely combinatorial rule (guaranteed exact when the grid
  has girth > 6 and >= 3 non-leaf buses);
* thresholding: keep bus pairs whose concentration entry (DC), or
  J_vv + J_theta,theta entry (LC), is below a negative tolerance
  (guaranteed exact for girth > 3, i.e. any triangle-free grid).

Plus per-edge sufficiency certificates for the triangle regime and
fp/fn scoring of reconstructions against ground truth.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .estimation import EstimatedConcentration
from .exceptions import AmbiguousLeafError, ConfigError, GridStructureError, ReconstructionError
from .grid import Grid, reduced_laplacian
from .powerflow import (
    ConcentrationMatrix,
    InjectionStats,
    VarLabel,
    check_stats,
    lc_threshold_statistic,
)

#: relative level of the fixed thresholds used on exact (analytic) matrices
EXACT_TAU_REL = 1e-4

#: z-score magnitude of the noise-adaptive thresholds used on estimates
DEFAULT_Z = 5.0


def _pair(a, b):
    return (a, b) if a < b else (b, a)


# ----------------------------------------------------------------------
# threshold rules: accepted values, defaults, statistics, noise scales
# ----------------------------------------------------------------------


def check_tau(value, name: str):
    """Return ``value`` if it is a finite number of the sign its knob needs
    (tau1 > 0, tau2 < 0); raise :class:`ConfigError` otherwise."""
    sign = 1.0 if name == "tau1" else -1.0
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and sign * value > 0)):
        kind = "positive" if sign > 0 else "negative"
        raise ConfigError(f"{name} must be a {kind} number, got {value!r}")
    return value


def parse_tau(value, name: str):
    """The one parser of a threshold knob: ``"auto"``, ``"gap"`` or a number.

    Numbers are kept as given after :func:`check_tau`; a string that spells
    a number (a command-line flag) becomes a float first.
    """
    if isinstance(value, str):
        if value in ("auto", "gap"):
            return value
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"{name} must be a number, 'auto' or 'gap', got {value!r}") from None
    return check_tau(value, name)


def thresholding_statistic(conc: ConcentrationMatrix, entries: np.ndarray) -> np.ndarray:
    """``entries`` (indexed like ``conc``) as the bus-pair array tau2 reads:
    themselves for DC, their v-v plus theta-theta block sum for LC."""
    return entries if conc.model == "dc" else lc_threshold_statistic(conc, entries)


def _off_diagonal(M: np.ndarray) -> np.ndarray:
    return M[~np.eye(M.shape[0], dtype=bool)]


def _exact_scale(M: np.ndarray) -> float:
    """Largest |off-diagonal| entry of M, or its largest |diagonal| entry
    when no two variables couple (a grid with no bus pair to learn)."""
    off = float(np.abs(_off_diagonal(M)).max(initial=0.0))
    return off if off > 0 else float(np.abs(M.diagonal()).max(initial=0.0))


def default_exact_tau1(conc: ConcentrationMatrix) -> float:
    """Fixed GM threshold for analytic matrices: 1e-4 x max |off-diagonal|."""
    return EXACT_TAU_REL * _exact_scale(conc.matrix)


def default_exact_tau2(conc: ConcentrationMatrix) -> float:
    """Fixed edge threshold for analytic matrices (negative mirror of tau1),
    measured on the statistic thresholding actually inspects."""
    return -EXACT_TAU_REL * _exact_scale(thresholding_statistic(conc, conc.matrix))


def concentration_standard_error(conc: np.ndarray, n: int) -> np.ndarray:
    """Large-sample standard error of inverted-covariance entries.

    The inverse Wishart delta method gives Var(J_ij) ~ (J_ii*J_jj + J_ij^2)/n.
    """
    d = np.diag(conc)
    return np.sqrt((np.outer(d, d) + conc**2) / n)


def gm_noise_scale(est: EstimatedConcentration) -> np.ndarray:
    """Per-entry standard error of the estimated concentration (for tau1)."""
    return concentration_standard_error(est.matrix, est.n_samples)


def thresholding_noise_scale(est: EstimatedConcentration) -> np.ndarray:
    """Per-entry standard error of the thresholding statistic (for tau2).

    For LC the errors of the two diagonal blocks are combined by their
    standard-error sum, an upper bound that holds regardless of their
    correlation.
    """
    return thresholding_statistic(est.concentration, gm_noise_scale(est))


def largest_gap_threshold(magnitudes: np.ndarray) -> float:
    """Cut a positive 1-d magnitude array at its largest relative gap.

    Returns the geometric mean of the two values straddling the largest
    ratio when sorted descending (values below 1e-12 of the maximum are
    treated as zero).  A documented heuristic fallback; the noise-adaptive
    default is preferred for estimated matrices.
    """
    v = np.sort(np.abs(np.asarray(magnitudes, dtype=float)))[::-1]
    if v.size == 0 or v[0] <= 0.0:
        return 0.0
    floor = 1e-12 * v[0]
    if v.size == 1:
        return math.sqrt(v[0] * floor)
    lo = np.maximum(v[1:], floor)
    ratios = v[:-1] / lo
    k = int(np.argmax(ratios))
    return float(math.sqrt(v[k] * lo[k]))


def resolve_tau1(
    tau1: float | str,
    conc: ConcentrationMatrix,
    est: EstimatedConcentration | None,
) -> tuple[float, np.ndarray | None]:
    """Turn the tau1 knob into (scalar, optional per-entry scale).

    Numbers pass through.  "auto" on an estimate uses the noise-adaptive rule
    (z-score DEFAULT_Z against per-entry standard errors); on an exact matrix
    the fixed relative default.  "gap" cuts at the largest relative gap of
    the sorted off-diagonal magnitudes.
    """
    tau1 = parse_tau(tau1, "tau1")
    if tau1 == "gap":
        return largest_gap_threshold(np.abs(_off_diagonal(conc.matrix))), None
    if tau1 == "auto":
        if est is not None:
            return DEFAULT_Z, gm_noise_scale(est)
        return default_exact_tau1(conc), None
    return float(tau1), None


def resolve_tau2(
    tau2: float | str,
    conc: ConcentrationMatrix,
    est: EstimatedConcentration | None,
) -> tuple[float, np.ndarray | None]:
    """Same contract as :func:`resolve_tau1` for the (negative) tau2 knob,
    read on the thresholding statistic."""
    tau2 = parse_tau(tau2, "tau2")
    if tau2 == "gap":
        off = _off_diagonal(thresholding_statistic(conc, conc.matrix))
        return -largest_gap_threshold(np.abs(off[off < 0])), None
    if tau2 == "auto":
        if est is not None:
            return -DEFAULT_Z, thresholding_noise_scale(est)
        return default_exact_tau2(conc), None
    return float(tau2), None


def _scaled(values: np.ndarray, scale: np.ndarray | None) -> np.ndarray:
    if scale is None:
        return values
    if scale.shape != values.shape:
        raise ConfigError(f"scale shape {scale.shape} does not match the array {values.shape}")
    return values / scale


def _upper_pairs(mask: np.ndarray, keys) -> frozenset:
    """Ordered ``keys`` pairs at the upper-triangle positions where ``mask`` holds."""
    rows, cols = np.nonzero(np.triu(mask, k=1))
    return frozenset(_pair(keys[a], keys[b]) for a, b in zip(rows.tolist(), cols.tolist()))


# ----------------------------------------------------------------------
# graphical model construction
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GraphicalModel:
    """Thresholded conditional-independence graph over voltage variables."""

    labels: tuple[VarLabel, ...]
    edges: frozenset[tuple[VarLabel, VarLabel]]
    model: str
    tau1: float


def build_graphical_model(
    conc: ConcentrationMatrix,
    tau1: float,
    scale: np.ndarray | None = None,
) -> GraphicalModel:
    """Edges wherever |J_ab| >= tau1 (optionally per-entry scaled).

    ``scale`` is a matching matrix of positive per-entry scales; passing the
    entry standard errors makes tau1 a z-score.  ``scale=None`` keeps the
    plain scalar rule.
    """
    check_tau(tau1, "tau1")
    M = _scaled(np.abs(conc.matrix), scale)
    edges = _upper_pairs(M >= tau1, conc.labels)
    return GraphicalModel(labels=conc.labels, edges=edges, model=conc.model, tau1=tau1)


@dataclass(frozen=True, eq=False)
class HybridGraph:
    """Bus-level graph obtained by merging each bus's v/theta GM vertices."""

    buses: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    model: str
    tau1: float

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {b: set() for b in self.buses}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def hybridize(gm: GraphicalModel) -> HybridGraph:
    """Collapse GM vertices bus-wise; buses join when any of their variables do.

    The interesting case is LC (two variables per bus); for a DC model this
    is a plain relabeling since every bus has a single theta variable.
    """
    buses = tuple(sorted({lab.bus for lab in gm.labels}))
    edges = set()
    for a, b in gm.edges:
        if a.bus != b.bus:
            edges.add(_pair(a.bus, b.bus))
    return HybridGraph(buses=buses, edges=frozenset(edges), model=gm.model, tau1=gm.tau1)


# ----------------------------------------------------------------------
# reconstructed topologies and scoring
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LearnedTopology:
    """Reconstructed bus graph plus the algorithm and knobs that produced it."""

    buses: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    algorithm: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "buses": list(self.buses),
            "edges": sorted(list(e) for e in self.edges),
            "params": self.params,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LearnedTopology":
        return cls(
            buses=tuple(doc["buses"]),
            edges=frozenset(_pair(int(i), int(j)) for i, j in doc["edges"]),
            algorithm=str(doc["algorithm"]),
            params=dict(doc.get("params", {})),
        )


def write_topology_json(topo: LearnedTopology, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(topo.to_dict(), fh, indent=2)
        fh.write("\n")


def load_topology_json(path) -> LearnedTopology:
    with open(path, "r", encoding="utf-8") as fh:
        return LearnedTopology.from_dict(json.load(fh))


@dataclass(frozen=True)
class EdgeErrors:
    """False positives/negatives of a reconstruction vs ground truth."""

    false_positives: int
    false_negatives: int
    fp_edges: frozenset[tuple[int, int]]
    fn_edges: frozenset[tuple[int, int]]

    @property
    def total(self) -> int:
        return self.false_positives + self.false_negatives


def edge_errors(learned: LearnedTopology, truth: Grid) -> EdgeErrors:
    """Score learned edges against the grid's lines between non-reference buses.

    Lines incident to the reference are excluded: the reference carries no
    random injection, so no estimator sees them.  Raises if the learned bus
    set does not match the grid's non-reference buses.
    """
    want_buses = set(truth.non_reference_buses)
    have_buses = set(learned.buses)
    if have_buses != want_buses:
        raise GridStructureError(
            f"learned topology covers buses {sorted(have_buses)} "
            f"but the grid's non-reference buses are {sorted(want_buses)}"
        )
    truth_edges = {
        ln.key for ln in truth.lines if truth.reference not in (ln.i, ln.j)
    }
    fp = frozenset(e for e in learned.edges if e not in truth_edges)
    fn = frozenset(e for e in truth_edges if e not in learned.edges)
    return EdgeErrors(len(fp), len(fn), fp, fn)


# ----------------------------------------------------------------------
# neighborhood counting
# ----------------------------------------------------------------------


def learn_by_counting(graph: GraphicalModel | HybridGraph) -> LearnedTopology:
    """Separate true lines from two-hop GM artifacts by neighborhood counting.

    A GM edge (i,j) is kept as a line iff two distinct common GM-neighbors
    k, l of i and j sit at GM-distance exactly 2 from each other.  On an
    exact GM of a grid with girth > 6 this keeps precisely the lines between
    non-leaf buses (two-hop pairs and leaf edges never pass).  Kept edges
    form the non-leaf skeleton; every remaining vertex u is then attached as
    a leaf to the unique skeleton vertex i whose closed skeleton
    neighborhood {i} + skel(i) equals u's skeleton-vertex GM neighborhood.

    Raises :class:`ReconstructionError` when no skeleton edge is found (the
    rule needs >= 3 non-leaf buses) and :class:`AmbiguousLeafError` naming
    the vertex when a leaf has no or several attachment candidates.
    """
    if isinstance(graph, GraphicalModel):
        graph = hybridize(graph)
    adj = graph.adjacency()
    vertices = graph.buses

    # k and l both neighbour i, so they sit at GM distance 2 unless adjacent
    skeleton: set[tuple[int, int]] = set()
    for i, j in graph.edges:
        common = (adj[i] & adj[j]) - {i, j}
        if any(l not in adj[k] for k, l in combinations(common, 2)):
            skeleton.add(_pair(i, j))

    skel_adj: dict[int, set[int]] = {v: set() for v in vertices}
    for i, j in skeleton:
        skel_adj[i].add(j)
        skel_adj[j].add(i)
    discovered = {v for v in vertices if skel_adj[v]}
    if not discovered:
        raise ReconstructionError(
            "counting found no non-leaf skeleton edges; the rule needs a grid "
            "with at least 3 non-leaf buses"
        )

    edges = set(skeleton)
    for u in vertices:
        if u in discovered:
            continue
        want = adj[u] & discovered
        candidates = [i for i in discovered if want == ({i} | skel_adj[i])]
        if len(candidates) != 1:
            raise AmbiguousLeafError(
                f"leaf bus {u} has {len(candidates)} attachment candidates "
                f"{sorted(candidates)}; cannot determine its line"
            )
        edges.add(_pair(u, candidates[0]))

    return LearnedTopology(
        buses=vertices,
        edges=frozenset(edges),
        algorithm="counting",
        params={"tau1": graph.tau1, "model": graph.model},
    )


# ----------------------------------------------------------------------
# thresholding
# ----------------------------------------------------------------------


def learn_by_thresholding(
    conc: ConcentrationMatrix,
    tau2: float,
    scale: np.ndarray | None = None,
) -> LearnedTopology:
    """Keep bus pairs whose detection statistic falls below tau2 < 0.

    DC: the statistic is the concentration entry itself.  LC: the sum of the
    v-v and theta-theta block entries, whose cross terms cancel into
    Hg (A+C) Hg + Hb (A+C) Hb and which is therefore negative exactly on
    lines for triangle-free grids.  ``scale`` (optional, positive, bus-pair
    shaped) divides the statistic entry-wise so tau2 can be a z-score;
    ``scale=None`` keeps the plain scalar rule.
    """
    check_tau(tau2, "tau2")
    stat = _scaled(thresholding_statistic(conc, conc.matrix), scale)
    buses = conc.buses
    return LearnedTopology(
        buses=buses,
        edges=_upper_pairs(stat <= tau2, buses),
        algorithm="thresholding",
        params={"tau2": tau2, "model": conc.model},
    )


# ----------------------------------------------------------------------
# triangle-regime sufficiency certificates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeCertificate:
    """Most specific satisfied recoverability condition for one true line."""

    edge: tuple[int, int]
    theorem: str  # one of {"trivially-safe", "T10", "T8", "T9"}
    satisfied: bool
    margin: float
    checks: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SufficiencyReport:
    grid_name: str
    certificates: tuple[EdgeCertificate, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.certificates)


def _t9_root(b: float, c: float) -> float:
    return -b / 2.0 + math.sqrt(b * b / 4.0 + c)


def check_sufficiency(grid: Grid, stats: InjectionStats) -> SufficiencyReport:
    """Per-line certificates that thresholding keeps the line despite triangles.

    A line (i,j) sharing common neighbors K can have its (negative) direct
    term cancelled by the positive common-neighbor term.  For each line
    between non-reference buses the report evaluates, most specific first:

    * ``trivially-safe``: K empty, nothing to cancel (margin inf);
    * ``T10``: uniform injection variance; compares b_ij against the largest
      triangle leg over a constant 1 + sqrt(1 + 2/|K|);
    * ``T8``: single common neighbor, arbitrary variances;
    * ``T9``: the general (and exact) quadratic criterion
      b_ij > -b/2 + sqrt(b^2/4 + c).

    Margins are "distance of b_ij above the respective bound"; satisfied
    implies the exact DC concentration entry at (i,j) is strictly negative.
    Lines incident to the reference are omitted (no concentration entry).
    """
    check_stats(grid, stats)
    order = grid.index_of
    H = reduced_laplacian(grid, "susceptance")
    w_total = H.diagonal().tolist()  # total line weight per bus, indexed like H

    def w(a: int, b: int) -> float:
        return -float(H[order[a], order[b]])

    sigma = stats.sigma_pp
    certs = []
    for ln in sorted(grid.lines, key=lambda l: l.key):
        i, j = ln.key
        if grid.reference in (i, j):
            continue
        K = sorted(
            k for k in set(grid.adjacency[i]) & set(grid.adjacency[j])
            if k != grid.reference
        )
        checks: dict[str, tuple[bool, float]] = {}
        b_ij = w(i, j)
        if not K:
            certs.append(EdgeCertificate((i, j), "trivially-safe", True, math.inf,
                                         {"trivially-safe": (True, math.inf)}))
            continue

        s_i, s_j = sigma[order[i]], sigma[order[j]]
        legs_i = {k: w(i, k) for k in K}
        legs_j = {k: w(j, k) for k in K}

        # general quadratic criterion (exact: satisfied <=> entry < 0)
        a_i = w_total[order[i]] - b_ij
        a_j = w_total[order[j]] - b_ij
        b_coef = (s_j * a_i + s_i * a_j) / (s_i + s_j)
        c_coef = (s_i * s_j / (s_i + s_j)) * sum(
            legs_i[k] * legs_j[k] / sigma[order[k]] for k in K
        )
        margin_t9 = b_ij - _t9_root(b_coef, c_coef)
        checks["T9"] = (margin_t9 > 0, margin_t9)

        if len(K) == 1:
            k = K[0]
            b8 = (s_j * legs_i[k] + s_i * legs_j[k]) / (s_i + s_j)
            c8 = s_i * s_j * legs_i[k] * legs_j[k] / (sigma[order[k]] * (s_i + s_j))
            margin_t8 = b_ij - _t9_root(b8, c8)
            checks["T8"] = (margin_t8 > 0, margin_t8)

        sig_involved = [s_i, s_j] + [sigma[order[k]] for k in K]
        uniform = (max(sig_involved) - min(sig_involved)) <= 1e-12 * max(sig_involved)
        if uniform:
            biggest_leg = max(max(legs_i.values()), max(legs_j.values()))
            bound = biggest_leg / (1.0 + math.sqrt(1.0 + 2.0 / len(K)))
            margin_t10 = b_ij - bound
            checks["T10"] = (margin_t10 > 0, margin_t10)

        for name in ("T10", "T8", "T9"):
            if name in checks and checks[name][0]:
                headline = name
                break
        else:
            headline = "T9"  # exact criterion: not satisfied => unrecoverable
        certs.append(EdgeCertificate((i, j), headline, checks[headline][0],
                                     checks[headline][1], checks))
    return SufficiencyReport(grid_name=grid.name, certificates=tuple(certs))


CERTIFICATE_COLUMNS = ("edge", "theorem", "satisfied", "margin")


def certificate_row(cert: EdgeCertificate) -> tuple[str, str, str, str]:
    """One certificate as its ``CERTIFICATE_COLUMNS`` text fields."""
    margin = "inf" if math.isinf(cert.margin) else format(cert.margin, ".10g")
    return (f"{cert.edge[0]}-{cert.edge[1]}", cert.theorem,
            "true" if cert.satisfied else "false", margin)


def write_sufficiency_csv(report: SufficiencyReport, path) -> None:
    """CSV with columns edge, theorem, satisfied, margin (one row per line)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CERTIFICATE_COLUMNS)
        writer.writerows(certificate_row(cert) for cert in report.certificates)


# ----------------------------------------------------------------------
# parameter learning
# ----------------------------------------------------------------------


def _psd_sqrt(A: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh((A + A.T) / 2.0)
    if w[0] <= -1e-10 * max(abs(w[-1]), 1.0):
        raise ReconstructionError(
            f"matrix square root needs a PSD input; smallest eigenvalue {w[0]:.3e}"
        )
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def learn_parameters(theta_cov: np.ndarray, sigma_pp: np.ndarray) -> np.ndarray:
    """Recover the susceptance-weighted reduced Laplacian from Cov(theta).

    With P = Cov(p), the phase covariance satisfies H Cov(theta) H = P for a
    unique positive-definite H:

        H = P^{1/2} (P^{1/2} Cov(theta) P^{1/2})^{-1/2} P^{1/2},

    evaluated by eigendecomposition.  ``sigma_pp`` may be the per-bus
    variance vector (diagonal P) or a full symmetric injection covariance.
    Line susceptances are the negated off-diagonal entries of the result,
    so with known injection statistics this recovers impedance weights on
    top of the learned topology.
    """
    theta_cov = np.asarray(theta_cov, dtype=float)
    sigma_pp = np.asarray(sigma_pp, dtype=float)
    P = np.diag(sigma_pp) if sigma_pp.ndim == 1 else sigma_pp
    if P.shape != theta_cov.shape:
        raise ConfigError(
            f"injection covariance shape {P.shape} does not match Cov(theta) {theta_cov.shape}"
        )
    P_half = _psd_sqrt(P)
    inner = P_half @ theta_cov @ P_half
    w, V = np.linalg.eigh((inner + inner.T) / 2.0)
    if w[0] <= 0:
        raise ReconstructionError(
            f"phase covariance is not positive definite (eigenvalue {w[0]:.3e})"
        )
    inner_invsqrt = (V / np.sqrt(w)) @ V.T
    H = P_half @ inner_invsqrt @ P_half
    return (H + H.T) / 2.0
