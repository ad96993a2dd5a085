"""Shared fixtures and helpers: bundled grids, random-grid factories, the
oracles the array code is held to (the line-by-line grid parser, the
row-pair Gram builder of the exact J, the line-by-line certificate loop),
and plain lookups and readers that only the tests need."""
import hashlib
import json
import math
from collections import deque

import numpy as np
import pytest

from gridtopo.estimation import EstimatedConcentration
from gridtopo.exceptions import GridFileError, GridStructureError, InvalidLineError
from gridtopo.grid import Grid, Line, builtin_grid, conductance, laplacian_entries, make_grid, susceptance
from gridtopo.learning import EdgeCertificate, LearnedTopology, SufficiencyReport
from gridtopo.powerflow import ConcentrationMatrix, InjectionStats, Pairs, _whitened_entries, check_stats


def edge_set(grid: Grid) -> frozenset[tuple[int, int]]:
    """The grid's lines as (low, high) bus pairs."""
    return frozenset(ln.key for ln in grid.lines)


def line_between(grid: Grid, i: int, j: int) -> Line | None:
    """The line joining buses i and j, or None."""
    key = (i, j) if i < j else (j, i)
    return next((ln for ln in grid.lines if ln.key == key), None)


def block(conc: ConcentrationMatrix, kind_row: str, kind_col: str) -> np.ndarray:
    """Sub-matrix of all (kind_row, kind_col) label pairs, bus-ordered: a
    slice of ``conc.matrix``, as the layout puts any v labels first and the
    theta labels after them in the same bus order."""
    h = conc.dim // 2 if conc.model == "lc" else 0
    span = {"v": slice(0, h), "theta": slice(h, conc.dim)}
    return conc.matrix[span[kind_row], span[kind_col]]


def adjacency_of(buses, edges) -> np.ndarray:
    """The (B, B) boolean adjacency over ``buses`` joining the bus pairs ``edges``."""
    at = {b: k for k, b in enumerate(buses)}
    adj = np.zeros((len(at), len(at)), dtype=bool)
    for i, j in edges:
        adj[at[i], at[j]] = adj[at[j], at[i]] = True
    return adj


def edges_of(adjacency: np.ndarray, buses) -> frozenset[tuple[int, int]]:
    """The (low, high) bus pairs joined in the (B, B) ``adjacency`` over the
    sorted ``buses``."""
    rows, cols = np.nonzero(np.triu(adjacency, k=1))
    return frozenset((buses[a], buses[b]) for a, b in zip(rows.tolist(), cols.tolist()))


def load_topology_json(path) -> LearnedTopology:
    """A topology JSON as ``write_topology_json`` writes it, read back."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    buses = tuple(doc["buses"])
    return LearnedTopology(buses, adjacency_of(buses, doc["edges"]), doc["algorithm"],
                           doc.get("params", {}))


def estimate_dict(est: EstimatedConcentration) -> dict:
    """The estimate JSON document of ``est`` as plain data, dense matrix first:
    ``write_estimate_json`` writes its ``json.dumps(..., indent=2)`` and a newline."""
    return {"matrix": est.concentration.matrix.tolist(), **est._record()}


def oracle_grid_views(doc) -> dict:
    """Parse and check the grid JSON document ``doc`` entry by entry and line
    by line, and build its views line by line.

    The reference for :func:`gridtopo.grid.grid_from_dict` and the array
    checks of :class:`Grid`: a faulty document raises the same error with
    the same message, and a valid one gives equal ``adjacency``,
    ``line_ends``, ``line_weights``, ``laplacian_index`` and ``content_hash``.
    """
    if not isinstance(doc, dict):
        raise GridFileError("grid document must be a JSON object")
    for field in ("reference", "buses", "lines"):
        if field not in doc:
            raise GridFileError(f"grid document is missing the {field!r} field")
    ref = doc["reference"]
    if not isinstance(ref, int) or isinstance(ref, bool):
        raise GridFileError(f"reference must be an integer bus id, got {ref!r}")
    if not isinstance(doc["buses"], list):
        raise GridFileError("buses must be a list of integer ids")
    if not isinstance(doc["lines"], list):
        raise GridFileError("lines must be a list of objects")
    if not isinstance(doc.get("name", ""), str):
        raise GridFileError(f"name must be a string, got {doc['name']!r}")
    lines = []
    for k, entry in enumerate(doc["lines"]):
        ctx = f"lines[{k}]"
        if not isinstance(entry, dict):
            raise GridFileError(f"{ctx}: expected an object, got {type(entry).__name__}")
        for field in ("i", "j", "r", "x"):
            if field not in entry:
                raise GridFileError(f"{ctx}: missing field {field!r}")
        i, j = entry["i"], entry["j"]
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise GridFileError(f"{ctx}: endpoints must be integer bus ids")
        r, x = entry["r"], entry["x"]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (r, x)):
            raise GridFileError(f"{ctx}: r and x must be numbers")
        try:
            r, x = float(r), float(x)
        except OverflowError:
            raise GridFileError(f"{ctx}: r and x must fit in a float") from None
        lines.append(Line(i, j, r, x))

    buses = doc["buses"]
    if not buses:
        raise GridStructureError("grid has no buses")
    seen = set()
    for b in buses:
        if not isinstance(b, int) or isinstance(b, bool):
            raise GridStructureError(f"bus id {b!r} is not an integer")
        if b in seen:
            raise GridStructureError(f"duplicate bus id {b}")
        seen.add(b)
    if ref not in seen:
        raise GridStructureError(f"reference bus {ref} is not listed in buses")
    if len(seen) < 2:
        raise GridStructureError(f"grid has no bus besides the reference {ref}")
    keys = set()
    for k, ln in enumerate(lines):
        ctx = f"lines[{k}] ({ln.i},{ln.j})"
        if ln.i not in seen or ln.j not in seen:
            missing = ln.i if ln.i not in seen else ln.j
            raise GridStructureError(f"{ctx}: endpoint {missing} is not a listed bus")
        if ln.i == ln.j:
            raise GridStructureError(f"{ctx}: self-loop")
        if ln.key in keys:
            raise GridStructureError(f"{ctx}: duplicate of an earlier line")
        keys.add(ln.key)
        if not (math.isfinite(ln.r) and math.isfinite(ln.x)):
            raise InvalidLineError(f"{ctx}: non-finite impedance r={ln.r} x={ln.x}")
        if ln.r < 0.0:
            raise InvalidLineError(f"{ctx}: negative resistance r={ln.r}")
        if ln.x <= 0.0:
            raise InvalidLineError(f"{ctx}: reactance must be positive, got x={ln.x}")

    nbrs = {b: [] for b in buses}
    for ln in lines:
        nbrs[ln.i].append(ln.j)
        nbrs[ln.j].append(ln.i)
    adjacency = {b: tuple(sorted(v)) for b, v in nbrs.items()}
    reached, queue = {ref}, deque([ref])
    while queue:
        for v in adjacency[queue.popleft()]:
            if v not in reached:
                reached.add(v)
                queue.append(v)
    if len(reached) < len(buses):
        stranded = sorted(b for b in buses if b not in reached)
        raise GridStructureError(
            f"grid is not connected: {len(stranded)} bus(es) unreachable from the "
            f"reference, first {stranded[0]}"
        )
    weights = {}
    for kind, weight in (("susceptance", susceptance), ("conductance", conductance)):
        with np.errstate(all="ignore"):
            weights[kind] = np.array([weight(np.float64(ln.r), np.float64(ln.x)) for ln in lines], dtype=float)
    for k, ln in enumerate(lines):
        b = weights["susceptance"][k]
        if not (math.isfinite(b) and b > 0):
            raise InvalidLineError(
                f"line ({ln.i},{ln.j}): susceptance must be finite and positive, "
                f"got {b} from r={ln.r} x={ln.x}"
            )

    row = {b: k for k, b in enumerate(b for b in sorted(buses) if b != ref)}
    line_ends = np.array([(row.get(ln.i, -1), row.get(ln.j, -1)) for ln in lines], dtype=np.intp).reshape(-1, 2)
    rows, cols = list(range(len(row))), list(range(len(row)))
    diag_bus, diag_line, off_line = [], [], []
    for k, (i, j) in enumerate(line_ends.tolist()):
        for end in (i, j):
            if end >= 0:
                diag_bus.append(end)
                diag_line.append(k)
        if i >= 0 and j >= 0:
            rows += [i, j]
            cols += [j, i]
            off_line += [k, k]
    payload = {
        "reference": ref,
        "buses": sorted(buses),
        "lines": sorted([min(ln.i, ln.j), max(ln.i, ln.j), repr(ln.r), repr(ln.x)] for ln in lines),
    }
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    return {
        "adjacency": adjacency,
        "line_ends": line_ends,
        "line_weights": weights,
        "laplacian_index": tuple(np.array(v, dtype=np.intp) for v in (rows, cols, diag_bus, diag_line, off_line)),
        "content_hash": hashlib.sha256(blob).hexdigest(),
    }


def random_stats(grid: Grid, rng: np.random.Generator) -> InjectionStats:
    """Per-bus injection stats drawn at random, with p/q correlation."""
    m = len(grid.non_reference_buses)
    pp, qq = rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, m)
    return InjectionStats(pp, qq, rng.uniform(-0.6, 0.6, m) * np.sqrt(pp * qq))


def gram_of_entries(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, d: int) -> Pairs:
    """M^T M (d x d) from M's triples, one per position: every row's outer
    product, summed by position in row order, so exactly symmetric, and
    listed only where some row of M holds both columns.

    The reference for the exact concentrations, which sum the same products
    over the grid's two-hop index."""
    by_row = np.argsort(rows, kind="stable")
    cols, vals = cols[by_row], vals[by_row]
    counts = np.bincount(rows, minlength=d)
    per = np.repeat(counts, counts)  # entry e pairs with every entry of its row
    left = np.repeat(np.arange(per.size), per)
    first = np.repeat(np.cumsum(counts) - counts, counts)  # first entry of e's row
    right = first[left] + np.arange(left.size) - (np.cumsum(per) - per)[left]
    a, b = cols[left], cols[right]
    upper = a <= b
    pos, at = np.unique(a[upper] * d + b[upper], return_inverse=True)
    sums = np.bincount(at, weights=vals[left[upper]] * vals[right[upper]])
    r, c = np.divmod(pos, d)
    on = r == c
    diagonal = np.zeros(d)
    diagonal[r[on]] = sums[on]
    return Pairs(diagonal, r[~on], c[~on], sums[~on])


def oracle_concentration(grid: Grid, stats: InjectionStats, model: str) -> Pairs:
    """The exact J of ``model`` as :func:`gram_of_entries` of the whitened system."""
    d = len(grid.non_reference_buses) * (2 if model == "lc" else 1)
    return gram_of_entries(*_whitened_entries(grid, stats, model), d)


def oracle_sufficiency(grid: Grid, stats: InjectionStats) -> SufficiencyReport:
    """:func:`gridtopo.learning.check_sufficiency` line by line: each line's
    common neighbours as a set intersection, its sums as Python loops."""
    check_stats(grid, stats)
    order = grid.index_of
    w_total = laplacian_entries(grid, "susceptance")[2][:len(order)].tolist()
    weight = dict(zip((ln.key for ln in grid.lines), grid.line_weights["susceptance"].tolist()))

    def w(a: int, b: int) -> float:
        return weight[(a, b) if a < b else (b, a)]

    def root(b: float, c: float) -> float:
        return -b / 2.0 + math.sqrt(b * b / 4.0 + c)

    sigma = stats.sigma_pp
    certs = []
    for ln in sorted(grid.lines, key=lambda l: l.key):
        i, j = ln.key
        if grid.reference in (i, j):
            continue
        K = sorted(k for k in set(grid.adjacency[i]) & set(grid.adjacency[j]) if k != grid.reference)
        checks: dict[str, tuple[bool, float]] = {}
        b_ij = w(i, j)
        if not K:
            certs.append(EdgeCertificate((i, j), "trivially-safe", True, math.inf,
                                         {"trivially-safe": (True, math.inf)}))
            continue
        s_i, s_j = sigma[order[i]], sigma[order[j]]
        legs_i = {k: w(i, k) for k in K}
        legs_j = {k: w(j, k) for k in K}
        a_i = w_total[order[i]] - b_ij
        a_j = w_total[order[j]] - b_ij
        b_coef = (s_j * a_i + s_i * a_j) / (s_i + s_j)
        c_coef = (s_i * s_j / (s_i + s_j)) * sum(legs_i[k] * legs_j[k] / sigma[order[k]] for k in K)
        margin_t9 = b_ij - root(b_coef, c_coef)
        checks["T9"] = (margin_t9 > 0, margin_t9)
        if len(K) == 1:
            k = K[0]
            b8 = (s_j * legs_i[k] + s_i * legs_j[k]) / (s_i + s_j)
            c8 = s_i * s_j * legs_i[k] * legs_j[k] / (sigma[order[k]] * (s_i + s_j))
            margin_t8 = b_ij - root(b8, c8)
            checks["T8"] = (margin_t8 > 0, margin_t8)
        sig_involved = [s_i, s_j] + [sigma[order[k]] for k in K]
        if (max(sig_involved) - min(sig_involved)) <= 1e-12 * max(sig_involved):
            biggest_leg = max(max(legs_i.values()), max(legs_j.values()))
            margin_t10 = b_ij - biggest_leg / (1.0 + math.sqrt(1.0 + 2.0 / len(K)))
            checks["T10"] = (margin_t10 > 0, margin_t10)
        headline = next((name for name in ("T10", "T8", "T9") if name in checks and checks[name][0]), "T9")
        certs.append(EdgeCertificate((i, j), headline, checks[headline][0], checks[headline][1], checks))
    return SufficiencyReport(grid_name=grid.name, certificates=tuple(certs))


def all_satisfied(report: SufficiencyReport) -> bool:
    return all(c.satisfied for c in report.certificates)


def girth7_grid(n_buses: int = 100, n_chords: int = 12, seed: int = 7) -> Grid:
    """A random tree on buses 0..n_buses-1 (reference 0) plus chords between
    buses at least 6 lines apart, so every cycle has at least 7 lines."""
    rng = np.random.default_rng(seed)
    lines = [(int(rng.integers(0, b)), b) for b in range(1, n_buses)]
    adj = {b: set() for b in range(n_buses)}
    for i, j in lines:
        adj[i].add(j)
        adj[j].add(i)
    chords = 0
    while chords < n_chords:
        i, j = sorted(int(b) for b in rng.choice(n_buses, size=2, replace=False))
        dist, queue = {i: 0}, deque([i])
        while queue:
            u = queue.popleft()
            for v in adj[u] - dist.keys():
                dist[v] = dist[u] + 1
                queue.append(v)
        if dist[j] >= 6:
            lines.append((i, j))
            adj[i].add(j)
            adj[j].add(i)
            chords += 1
    return make_grid(0, range(n_buses), [(i, j, float(rng.uniform(0.02, 0.08)), float(rng.uniform(0.05, 0.12)))
                                         for i, j in lines], name=f"girth7_{n_buses}")


@pytest.fixture(scope="session")
def radial20() -> Grid:
    return builtin_grid("radial20")


@pytest.fixture(scope="session")
def loopy20_c4() -> Grid:
    return builtin_grid("loopy20_c4")


@pytest.fixture(scope="session")
def loopy20_c7() -> Grid:
    return builtin_grid("loopy20_c7")


@pytest.fixture(scope="session")
def ieee14() -> Grid:
    return builtin_grid("ieee14")


@pytest.fixture(scope="session")
def all_builtins(radial20, loopy20_c4, loopy20_c7, ieee14) -> tuple[Grid, ...]:
    return (radial20, loopy20_c4, loopy20_c7, ieee14)


@pytest.fixture(scope="session")
def make_random_tree():
    """Factory: random tree grid on buses 0..n-1 with reference 0."""

    def _make(rng: np.random.Generator, n_buses: int) -> Grid:
        lines = []
        for b in range(1, n_buses):
            parent = int(rng.integers(0, b))
            r = float(rng.uniform(0.02, 0.08))
            x = float(rng.uniform(0.05, 0.12))
            lines.append((parent, b, r, x))
        return make_grid(0, range(n_buses), lines, name=f"tree{n_buses}")

    return _make


@pytest.fixture(scope="session")
def make_random_triangle_grid(make_random_tree):
    """Factory: random tree plus 1-3 chords closing triangles (girth 3)."""

    def _make(rng: np.random.Generator, max_buses: int = 12) -> Grid:
        n = int(rng.integers(6, max_buses + 1))
        g = make_random_tree(rng, n)
        adj = {b: set(g.adjacency[b]) for b in g.buses}
        # distance-2 pairs: closing any of them creates a triangle
        candidates = sorted(
            {
                (min(a, c), max(a, c))
                for b in g.buses
                for a in adj[b]
                for c in adj[b]
                if a != c and c not in adj[a]
            }
        )
        n_chords = int(rng.integers(1, min(3, len(candidates)) + 1))
        picks = rng.choice(len(candidates), size=n_chords, replace=False)
        lines = list(g.lines)
        for k in picks:
            i, j = candidates[int(k)]
            lines.append((i, j, float(rng.uniform(0.02, 0.08)), float(rng.uniform(0.05, 0.12))))
        return make_grid(0, range(n), lines, name=f"tri{n}")

    return _make
