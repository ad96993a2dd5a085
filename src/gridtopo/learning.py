"""Topology reconstruction from concentration matrices.

Two algorithms:

* neighborhood counting: threshold the concentration into a graphical model
  (GM) whose edges join variables at grid distance 1 or 2, merge v/theta
  vertices per bus for the LC model, then separate true lines from two-hop
  artifacts by a purely combinatorial rule (guaranteed exact when the grid
  has girth > 6 and >= 3 non-leaf buses), decided for a whole stack of
  trials by array passes over the bus adjacency;
* thresholding: keep bus pairs whose concentration entry (DC), or
  J_vv + J_theta,theta entry (LC), is below a negative tolerance
  (guaranteed exact for girth > 3, i.e. any triangle-free grid).
On an estimate the default thresholds are z-scores against standard errors
computed at J's stored pairs, so no d x d array is built.

Plus per-edge sufficiency certificates for the triangle regime and
fp/fn scoring of reconstructions against ground truth.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .estimation import EstimatedConcentration
from .exceptions import AmbiguousLeafError, ConfigError, GridStructureError, GridTopoError, ReconstructionError
from .grid import Grid, laplacian_entries
from .powerflow import (
    ConcentrationMatrix,
    InjectionStats,
    Pairs,
    check_stats,
    lc_bus_pairs,
    lc_threshold_statistic,  # noqa: F401  (the traced benchmark run looks it up here)
)

#: relative level of the fixed thresholds used on exact (analytic) matrices
EXACT_TAU_REL = 1e-4

#: z-score magnitude of the noise-adaptive thresholds used on estimates
DEFAULT_Z = 5.0


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def _nonzero(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """``np.nonzero(a)``, found through the flat index: several times faster
    on a boolean array of more than one axis."""
    return np.unravel_index(np.flatnonzero(a), a.shape)


def _adjacency(i: np.ndarray, j: np.ndarray, mask: np.ndarray, size: int) -> np.ndarray:
    """(..., size, size) boolean adjacency joining i[e] and j[e] wherever
    ``mask[..., e]`` holds; the diagonal stays False."""
    *trial, e = _nonzero(mask)
    adj = np.zeros(mask.shape[:-1] + (size, size), dtype=bool)
    adj[(*trial, i[e], j[e])] = adj[(*trial, j[e], i[e])] = True
    adj[..., np.arange(size), np.arange(size)] = False
    return adj


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
    """The one parser of a threshold knob: ``"auto"`` or a number.

    Numbers are kept as given after :func:`check_tau`; a string that spells
    a number (a command-line flag) becomes a float first.
    """
    if isinstance(value, str):
        if value == "auto":
            return value
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"{name} must be a number or 'auto', got {value!r}") from None
    return check_tau(value, name)


def thresholding_statistic(conc: ConcentrationMatrix) -> Pairs:
    """The bus-pair statistic tau2 reads: J itself for DC, its v-v plus
    theta-theta block sum for LC."""
    return conc.pairs if conc.model == "dc" else lc_bus_pairs(conc.pairs)


def _exact_scale(pairs: Pairs) -> float:
    """Largest |off-diagonal| entry, or the largest |diagonal| entry when no
    two variables couple (a grid with no bus pair to learn)."""
    largest = float(np.abs(pairs.vals).max(initial=0.0))
    return largest if largest > 0 else float(np.abs(pairs.diagonal).max(initial=0.0))


def default_exact_tau1(conc: ConcentrationMatrix) -> float:
    """Fixed GM threshold for analytic matrices: 1e-4 x max |off-diagonal|."""
    return EXACT_TAU_REL * _exact_scale(conc.pairs)


def default_exact_tau2(conc: ConcentrationMatrix) -> float:
    """Fixed edge threshold for analytic matrices (negative mirror of tau1),
    measured on the statistic thresholding actually inspects."""
    return -EXACT_TAU_REL * _exact_scale(thresholding_statistic(conc))


def concentration_standard_error(pairs: Pairs, n: int) -> Pairs:
    """Large-sample standard errors of inverted-covariance entries, at ``pairs``.

    The inverse Wishart delta method gives Var(J_ij) ~ (J_ii*J_jj + J_ij^2)/n.
    """
    d = pairs.diagonal
    return pairs._replace(diagonal=np.sqrt((d * d + d**2) / n),
                          vals=np.sqrt((d[..., pairs.rows] * d[..., pairs.cols] + pairs.vals**2) / n))


def gm_noise_scale(est: EstimatedConcentration) -> Pairs:
    """Standard errors of the estimated concentration at its pairs (for tau1)."""
    return concentration_standard_error(est.concentration.pairs, est.n_samples)


def thresholding_noise_scale(est: EstimatedConcentration) -> Pairs:
    """Standard errors of the thresholding statistic at its bus pairs (for tau2).

    For LC the errors of the two diagonal blocks are combined by their
    standard-error sum, an upper bound that holds regardless of their
    correlation.
    """
    se = gm_noise_scale(est)
    return se if est.concentration.model == "dc" else lc_bus_pairs(se)


def resolve_tau1(tau1: float | str, conc: ConcentrationMatrix,
                 est: EstimatedConcentration | None) -> tuple[float, Pairs | None]:
    """Turn the tau1 knob into (scalar, optional per-entry scale).

    Numbers pass through.  "auto" on an estimate uses the noise-adaptive rule
    (z-score DEFAULT_Z against per-entry standard errors); on an exact matrix
    the fixed relative default.
    """
    tau1 = parse_tau(tau1, "tau1")
    if tau1 == "auto":
        if est is not None:
            return DEFAULT_Z, gm_noise_scale(est)
        return default_exact_tau1(conc), None
    return float(tau1), None


def resolve_tau2(tau2: float | str, conc: ConcentrationMatrix,
                 est: EstimatedConcentration | None) -> tuple[float, Pairs | None]:
    """Same contract as :func:`resolve_tau1` for the (negative) tau2 knob,
    read on the thresholding statistic."""
    tau2 = parse_tau(tau2, "tau2")
    if tau2 == "auto":
        if est is not None:
            return -DEFAULT_Z, thresholding_noise_scale(est)
        return default_exact_tau2(conc), None
    return float(tau2), None


def _scaled(pairs: Pairs, values: np.ndarray, scale: Pairs | None) -> np.ndarray:
    """``values``, given at the positions of ``pairs``, divided by the
    optional ``scale``, which must list the same positions."""
    if scale is None:
        return values
    if not (np.array_equal(scale.rows, pairs.rows) and np.array_equal(scale.cols, pairs.cols)):
        raise ConfigError("scale is not listed at the positions of the array it scales")
    return values / scale.vals


# ----------------------------------------------------------------------
# graphical model construction
# ----------------------------------------------------------------------


def build_graphical_model(
    conc: ConcentrationMatrix,
    tau1: float,
    scale: Pairs | None = None,
) -> LearnedTopology:
    """The graphical model: variables a, b join wherever |J_ab| >= tau1
    (optionally per-entry scaled), held as its bus adjacency.

    ``scale`` holds positive per-entry scales at the positions of ``conc.pairs``;
    passing the entry standard errors makes tau1 a z-score.  ``scale=None``
    keeps the plain scalar rule.  Both layouts put variable k on bus
    k mod B of ``conc.buses`` (DC theta; LC v, then theta in the same bus
    order), so two buses join when any of their variables do and a v-theta
    pair on one bus joins nothing.  A stacked ``conc`` gives a stacked model.
    """
    check_tau(tau1, "tau1")
    J, buses = conc.pairs, conc.buses
    B = len(buses)
    mask = _scaled(J, np.abs(J.vals), scale) >= tau1
    return LearnedTopology(buses, _adjacency(J.rows % B, J.cols % B, mask, B), "graphical-model",
                           {"tau1": tau1, "model": conc.model})


def hybridize(gm: LearnedTopology) -> dict[int, set[int]]:
    """The bus adjacency of ``gm`` as sets.  The package reads
    ``gm.adjacency``; only the traced benchmark run looks this up."""
    return {b: {gm.buses[k] for k in np.flatnonzero(row).tolist()} for b, row in zip(gm.buses, gm.adjacency)}


# ----------------------------------------------------------------------
# reconstructed topologies and scoring
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LearnedTopology:
    """Reconstructed bus graph plus the algorithm and knobs that produced it.

    ``adjacency`` is the (B, B) boolean bus adjacency over ``buses`` of one
    topology, or the (T, B, B) adjacencies of a stack of T trials.
    ``errors[k]`` is the package error trial k's learning met, or None, and
    a trial with an error has no edges; left out, every trial has None.
    ``topo[k]`` is trial k's topology, or raises its error.  A graphical
    model (:func:`build_graphical_model`) is one too, of algorithm
    ``"graphical-model"``.
    """

    buses: tuple[int, ...]
    adjacency: np.ndarray
    algorithm: str
    params: dict = field(default_factory=dict)
    errors: tuple[GridTopoError | None, ...] | None = None

    def __post_init__(self):
        if self.errors is None:
            object.__setattr__(self, "errors", (None,) * math.prod(self.adjacency.shape[:-2]))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The ordered bus pairs of one topology."""
        r, c = _nonzero(self.adjacency)
        up = r < c
        buses = self.buses
        return frozenset(_pair(buses[a], buses[b]) for a, b in zip(r[up].tolist(), c[up].tolist()))

    def __getitem__(self, k: int) -> "LearnedTopology":
        if self.errors[k] is not None:
            raise self.errors[k]
        return LearnedTopology(self.buses, self.adjacency[k], self.algorithm, self.params)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "buses": list(self.buses),
            "edges": sorted(list(e) for e in self.edges),
            "params": self.params,
        }


def write_topology_json(topo: LearnedTopology, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(topo.to_dict(), fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class EdgeErrors:
    """False positives/negatives of a reconstruction vs ground truth: ints
    for one topology, (T,) arrays for a stack."""

    false_positives: int | np.ndarray
    false_negatives: int | np.ndarray

    @property
    def total(self) -> int | np.ndarray:
        return self.false_positives + self.false_negatives


def edge_errors(learned: LearnedTopology, truth: Grid) -> EdgeErrors:
    """Score learned edges against the grid's lines between non-reference buses.

    Lines incident to the reference are excluded: the reference carries no
    random injection, so no estimator sees them.  Raises if the learned bus
    set does not match the grid's non-reference buses.  The adjacency, of
    one topology or a whole stack, is read at the grid's lines
    (:attr:`Grid.line_ends`, built once per grid) to count the lines found.
    """
    want_buses = set(truth.non_reference_buses)
    have_buses = set(learned.buses)
    if have_buses != want_buses:
        raise GridStructureError(
            f"learned topology covers buses {sorted(have_buses)} "
            f"but the grid's non-reference buses are {sorted(want_buses)}"
        )
    at = np.empty(len(learned.buses), dtype=np.intp)  # grid row -> learned bus index
    at[[truth.index_of[b] for b in learned.buses]] = np.arange(len(learned.buses))
    ends = truth.line_ends
    i, j = at[ends[(ends >= 0).all(axis=1)]].T
    found = np.count_nonzero(learned.adjacency[..., i, j], axis=-1)
    fp = np.count_nonzero(learned.adjacency, axis=(-2, -1)) // 2 - found
    return EdgeErrors(*(c if np.ndim(c) else int(c) for c in (fp, len(i) - found)))


# ----------------------------------------------------------------------
# neighborhood counting
# ----------------------------------------------------------------------


#: most (edge, neighbour) candidates one pass of the skeleton test gathers;
#: bounds its memory on a near-complete graphical model
WEDGE_CHUNK = 2**18


def _packed(rows: np.ndarray) -> np.ndarray:
    """Boolean rows (..., B) as bit-packed (..., ceil(B / 64)) uint64 words."""
    bits = np.packbits(rows, axis=-1)
    words = np.zeros(bits.shape[:-1] + (-(-rows.shape[-1] // 64) * 8,), dtype=np.uint8)
    words[..., :bits.shape[-1]] = bits
    return words.view(np.uint64)


def _skeleton(A: np.ndarray) -> np.ndarray:
    """The edges of the (T, B, B) bus adjacencies ``A`` that counting keeps:
    (i, j) with two common neighbours that are not adjacent.

    With w = A_i & A_j, c = |w| and s = w^T A w, w holds c(c - 1) ordered
    pairs, s of them adjacent, so such a pair exists iff c(c - 1) - s > 0.
    That difference sums |w & ~(A_k | {k})| over the wedges k in w, each a
    popcount of bit-packed rows.  A bus adjacent to every other adds 0, so
    the wedges taken are the neighbours k of i with A_jk that lack a
    neighbour (on a near-complete model, a handful), gathered in passes of
    at most about :data:`WEDGE_CHUNK` candidates.
    """
    T, B = A.shape[:2]
    flat = A.reshape(T * B, B)  # row t*B + i is A[t, i]
    row, nbr = _nonzero(flat)
    up = row % B < nbr  # each edge once: the rows of i and of j > i
    ri, rj = row[up], row[up] - row[up] % B + nbr[up]
    lacks = np.bincount(row, minlength=T * B)[row - row % B + nbr] < B - 1
    row, nbr = row[lacks], nbr[lacks]  # row r's such neighbours: nbr[first[r]:][:deg[r]]
    deg = np.bincount(row, minlength=T * B)
    first = np.cumsum(deg) - deg
    packed = _packed(flat)
    far = ~_packed(flat | (np.arange(T * B)[:, None] % B == np.arange(B)))  # non-neighbours but itself
    reach = np.cumsum(deg[ri])
    cuts = np.searchsorted(reach, np.arange(WEDGE_CHUNK, reach[-1] if len(reach) else 0,
                                            WEDGE_CHUNK)).tolist()
    kept = []
    for lo, hi in zip([0, *cuts], [*cuts, len(ri)]):
        d = deg[ri[lo:hi]]
        e = np.repeat(np.arange(lo, hi), d)
        k = nbr[np.repeat(first[ri[lo:hi]] - (np.cumsum(d) - d), d) + np.arange(len(e))]
        wedge = flat[rj[e], k]
        e, k = e[wedge], k[wedge]
        rk = rj[e] - rj[e] % B + k  # the row of k in the edge's trial
        w = packed[ri[lo:hi]] & packed[rj[lo:hi]]
        apart = np.bitwise_count(far[rk] & w[e - lo]).sum(axis=-1)
        kept.append(np.bincount(e - lo, weights=apart, minlength=hi - lo) > 0)
    kept = np.concatenate(kept)
    skel = np.zeros_like(flat)
    skel[ri[kept], rj[kept] % B] = skel[rj[kept], ri[kept] % B] = True
    return skel.reshape(A.shape)


def learn_by_counting(gm: LearnedTopology) -> LearnedTopology:
    """Separate true lines from two-hop GM artifacts by neighborhood counting.

    A GM edge (i,j) is kept as a line iff two distinct common GM-neighbors
    k, l of i and j sit at GM-distance exactly 2 from each other.  On an
    exact GM of a grid with girth > 6 this keeps precisely the lines between
    non-leaf buses (two-hop pairs and leaf edges never pass).  Kept edges
    form the non-leaf skeleton; every remaining vertex u is then attached as
    a leaf to the unique skeleton vertex i whose closed skeleton
    neighborhood {i} + skel(i) equals u's skeleton-vertex GM neighborhood.

    Both steps are array passes over the bus adjacency of ``gm`` (from
    :func:`build_graphical_model`), for every trial of a stacked ``gm`` at
    once (:func:`_skeleton`; leaves compare bit-packed rows), and the
    result keeps ``gm.params``.  A stacked ``gm`` gives one topology of
    (T, B, B) adjacencies that holds each trial's error; a single one gives
    its topology or raises the error: :class:`ReconstructionError` when no
    skeleton edge is found (the rule needs >= 3 non-leaf buses) and
    :class:`AmbiguousLeafError` naming the first vertex, in ``gm.buses``
    order, with no or several attachment candidates.
    """
    buses = gm.buses
    A = gm.adjacency if gm.adjacency.ndim > 2 else gm.adjacency[None]
    skel = _skeleton(A)
    discovered = skel.any(axis=-1)
    want = A & discovered[:, None, :]  # want[t, u] = A_u & discovered
    closed = skel | np.eye(len(buses), dtype=bool)
    # i is in {i} | skel(i), so every candidate i of leaf u lies in want[t, u]
    t, u, i = _nonzero(want & ~discovered[:, :, None])
    hit = (_packed(want)[t, u] == _packed(closed)[t, i]).all(axis=-1)
    t, u, i = t[hit], u[hit], i[hit]
    count = np.bincount(t * len(buses) + u, minlength=discovered.size).reshape(discovered.shape)
    skel[t, u, i] = skel[t, i, u] = True  # a trial where a leaf has several fails below

    errors: list[GridTopoError | None] = [None] * len(A)
    found = discovered.any(axis=-1)
    for k in np.flatnonzero(~found).tolist():
        errors[k] = ReconstructionError(
            "counting found no non-leaf skeleton edges; the rule needs a grid "
            "with at least 3 non-leaf buses")
    bad = ~discovered & (count != 1) & found[:, None]
    for k in np.flatnonzero(bad.any(axis=-1)).tolist():
        leaf = int(bad[k].argmax())
        candidates = [buses[c] for c in i[(t == k) & (u == leaf)].tolist()]
        errors[k] = AmbiguousLeafError(
            f"leaf bus {buses[leaf]} has {len(candidates)} attachment candidates "
            f"{candidates}; cannot determine its line")
    skel[[e is not None for e in errors]] = False

    stack = LearnedTopology(buses, skel, "counting", gm.params, tuple(errors))
    return stack if gm.adjacency.ndim > 2 else stack[0]


# ----------------------------------------------------------------------
# thresholding
# ----------------------------------------------------------------------


def learn_by_thresholding(
    conc: ConcentrationMatrix,
    tau2: float,
    scale: Pairs | None = None,
) -> LearnedTopology:
    """Keep bus pairs whose detection statistic falls below tau2 < 0.

    DC: the statistic is the concentration entry itself.  LC: the sum of the
    v-v and theta-theta block entries, whose cross terms cancel into
    Hg (A+C) Hg + Hb (A+C) Hb and which is therefore negative exactly on
    lines for triangle-free grids.  ``scale`` (optional, positive, at the
    statistic's bus pairs) divides the statistic entry-wise so tau2 can be a
    z-score; ``scale=None`` keeps the plain scalar rule.  A stacked ``conc``
    gives a stacked topology, (T, B, B), with no errors.
    """
    check_tau(tau2, "tau2")
    stat = thresholding_statistic(conc)
    mask = _scaled(stat, stat.vals, scale) <= tau2
    return LearnedTopology(conc.buses, _adjacency(stat.rows, stat.cols, mask, stat.dim), "thresholding",
                           {"tau2": tau2, "model": conc.model})


# ----------------------------------------------------------------------
# triangle-regime sufficiency certificates
# ----------------------------------------------------------------------


class EdgeCertificate(NamedTuple):
    """Most specific satisfied recoverability condition for one true line;
    a tuple, built once per line, several times faster than a frozen dataclass."""

    edge: tuple[int, int]
    theorem: str  # one of {"trivially-safe", "T10", "T8", "T9"}
    satisfied: bool
    margin: float
    checks: dict  # every evaluated condition: name -> (satisfied, margin)


@dataclass(frozen=True)
class SufficiencyReport:
    grid_name: str
    certificates: tuple[EdgeCertificate, ...]


def _t9_root(b, c):
    return -b / 2.0 + np.sqrt(b * b / 4.0 + c)


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

    Each common neighbour k is a wedge i-k-j of :attr:`Grid.two_hop`; a
    line's terms are sums over its wedges, k ascending.
    """
    check_stats(grid, stats)
    left, right, at, rows, cols, upper = grid.two_hop
    left, right, at, n = left[:upper], right[:upper], at[:upper], len(grid.non_reference_buses)
    row_of, _, h = laplacian_entries(grid, "susceptance")  # each bus's total, then -b per line end
    # the lines i < j, in key order: where a diagonal entry meets an off-diagonal one
    ends = np.flatnonzero((left < n) & (right >= n))
    ends = ends[np.argsort(at[ends])]
    line_of, lines = np.full(rows.size, -1), at[ends]
    line_of[lines] = np.arange(lines.size)
    i, j, b = rows[lines], cols[lines], -h[right[ends]]

    wedge = (left >= n) & (right >= n) & (left != right) & (line_of[at] >= 0)
    line, k = line_of[at[wedge]], row_of[left[wedge]]
    leg_i, leg_j, sigma = -h[left[wedge]], -h[right[wedge]], stats.sigma_pp
    size = np.bincount(line, minlength=lines.size)
    s_i, s_j, s_k = sigma[i], sigma[j], sigma[k]

    # general quadratic criterion (exact: satisfied <=> entry < 0)
    a_i, a_j = h[i] - b, h[j] - b
    b_coef = (s_j * a_i + s_i * a_j) / (s_i + s_j)
    c_coef = (s_i * s_j / (s_i + s_j)) * np.bincount(line, leg_i * leg_j / s_k, lines.size)
    t9 = b - _t9_root(b_coef, c_coef)
    # a single common neighbour: its legs and variance are the sums of one term
    one = size == 1
    l_i, l_j, s_1 = (np.bincount(line, x, lines.size)[one] for x in (leg_i, leg_j, s_k))
    s_i1, s_j1, t8 = s_i[one], s_j[one], np.full(lines.size, np.nan)
    t8[one] = b[one] - _t9_root((s_j1 * l_i + s_i1 * l_j) / (s_i1 + s_j1),
                                s_i1 * s_j1 * l_i * l_j / (s_1 * (s_i1 + s_j1)))
    # uniform variance over i, j and K
    top, low, leg = np.maximum(s_i, s_j), np.minimum(s_i, s_j), np.zeros(lines.size)
    np.maximum.at(top, line, s_k)
    np.minimum.at(low, line, s_k)
    np.maximum.at(leg, line, np.maximum(leg_i, leg_j))
    uniform, t10 = (size > 0) & ((top - low) <= 1e-12 * top), np.full(lines.size, np.nan)
    t10[uniform] = b[uniform] - leg[uniform] / (1.0 + np.sqrt(1.0 + 2.0 / size[uniform]))

    buses = np.array(grid.non_reference_buses, dtype=object)
    certs = []
    for edge, count, even, m9, m8, m10 in zip(zip(buses[i].tolist(), buses[j].tolist()), size.tolist(),
                                              uniform.tolist(), t9.tolist(), t8.tolist(), t10.tolist()):
        if not count:
            certs.append(EdgeCertificate(edge, "trivially-safe", True, math.inf,
                                         {"trivially-safe": (True, math.inf)}))
            continue
        checks = {"T9": (m9 > 0, m9)}
        if count == 1:
            checks["T8"] = (m8 > 0, m8)
        if even:
            checks["T10"] = (m10 > 0, m10)
        headline = next((name for name in ("T10", "T8") if name in checks and checks[name][0]), "T9")
        certs.append(EdgeCertificate(edge, headline, *checks[headline], checks))
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
