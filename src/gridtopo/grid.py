"""Grid model: buses, lines, weighted reduced Laplacians, and graph queries.

A grid is an undirected connected graph of buses joined by lines with series
impedance r + ix.  One bus is the reference (slack); every matrix built here
is indexed by the non-reference buses in sorted order.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Iterable

import numpy as np

from .exceptions import (
    GridFileError,
    GridStructureError,
    InvalidLineError,
    UnknownBusError,
    UnknownGridError,
)

BUILTIN_GRIDS = ("radial20", "loopy20_c4", "loopy20_c7", "ieee14")


def susceptance(r: float, x: float) -> float:
    """Line susceptance weight x/(r^2 + x^2), the -Im part of 1/(r + ix)."""
    return x / (r * r + x * x)


def conductance(r: float, x: float) -> float:
    """Line conductance weight r/(r^2 + x^2), the Re part of 1/(r + ix)."""
    return r / (r * r + x * x)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, flagged read-only: a grid's cached arrays are shared."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class Line:
    """One branch with series resistance r and reactance x (per unit)."""

    i: int
    j: int
    r: float
    x: float

    @property
    def key(self) -> tuple[int, int]:
        return (self.i, self.j) if self.i < self.j else (self.j, self.i)


@dataclass(frozen=True)
class Grid:
    """Immutable bus/line model with a designated reference bus.

    Valid by construction: ``Grid(...)`` raises on the first violation, so
    every grid is connected with finite, positive line susceptances and its
    reduced Laplacian H_b is positive definite.
    """

    reference: int
    buses: tuple[int, ...]
    lines: tuple[Line, ...]
    name: str = ""

    def __post_init__(self):
        if not self.buses:
            raise GridStructureError("grid has no buses")
        seen: set[int] = set()
        for b in self.buses:
            if not isinstance(b, int) or isinstance(b, bool):
                raise GridStructureError(f"bus id {b!r} is not an integer")
            if b in seen:
                raise GridStructureError(f"duplicate bus id {b}")
            seen.add(b)
        if self.reference not in seen:
            raise GridStructureError(f"reference bus {self.reference} is not listed in buses")

        keys: set[tuple[int, int]] = set()
        for k, ln in enumerate(self.lines):
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

        reached = _bfs_distances(self.adjacency, self.reference)
        if len(reached) < len(self.buses):
            stranded = sorted(b for b in self.buses if b not in reached)
            raise GridStructureError(
                f"grid is not connected: {len(stranded)} bus(es) unreachable from the "
                f"reference, first {stranded[0]}"
            )

        b = self.line_weights["susceptance"]
        bad = np.flatnonzero(~(np.isfinite(b) & (b > 0)))
        if bad.size:  # r*r + x*x over- or underflows
            ln = self.lines[bad[0]]
            raise InvalidLineError(
                f"line ({ln.i},{ln.j}): susceptance must be finite and positive, "
                f"got {b[bad[0]]} from r={ln.r} x={ln.x}"
            )

    # -- derived views -------------------------------------------------

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {b: [] for b in self.buses}
        for ln in self.lines:
            nbrs[ln.i].append(ln.j)
            nbrs[ln.j].append(ln.i)
        return {b: tuple(sorted(v)) for b, v in nbrs.items()}

    @cached_property
    def laplacian_index(self) -> tuple[np.ndarray, ...]:
        """Where line weights land in :func:`laplacian_entries`: the triples'
        (rows, cols); the (bus index, line) of every diagonal addend, in line
        order; and the line of every off-diagonal triple."""
        order = self.index_of
        n, m = len(order), len(self.lines)
        ends = np.array([(order.get(ln.i, -1), order.get(ln.j, -1)) for ln in self.lines],
                        dtype=np.intp).reshape(m, 2)
        inner = np.flatnonzero((ends >= 0).all(axis=1))
        i, j = ends[inner].T
        on = ends.reshape(-1) >= 0
        return _read_only(np.concatenate([np.arange(n), np.stack([i, j], axis=1).reshape(-1)]),
                          np.concatenate([np.arange(n), np.stack([j, i], axis=1).reshape(-1)]),
                          ends.reshape(-1)[on], np.repeat(np.arange(m), 2)[on], np.repeat(inner, 2))

    @cached_property
    def line_weights(self) -> dict[str, np.ndarray]:
        """Per-line ``"susceptance"`` and ``"conductance"`` arrays, in line
        order; built before the grid checks them, so overflow stays silent."""
        r = np.array([ln.r for ln in self.lines], dtype=float)
        x = np.array([ln.x for ln in self.lines], dtype=float)
        with np.errstate(all="ignore"):
            b, g = _read_only(susceptance(r, x), conductance(r, x))
        return {"susceptance": b, "conductance": g}

    @cached_property
    def non_reference_buses(self) -> tuple[int, ...]:
        return tuple(b for b in sorted(self.buses) if b != self.reference)

    @cached_property
    def index_of(self) -> dict[int, int]:
        """Row index of each non-reference bus in reduced matrices."""
        return {b: k for k, b in enumerate(self.non_reference_buses)}

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @cached_property
    def is_radial(self) -> bool:
        """A tree: a connected grid with one line fewer than buses."""
        return len(self.lines) == len(self.buses) - 1

    @cached_property
    def content_hash(self) -> str:
        """Stable content hash (reference, buses, sorted lines); see :func:`grid_hash`."""
        payload = {
            "reference": self.reference,
            "buses": sorted(self.buses),
            "lines": sorted(
                [min(ln.i, ln.j), max(ln.i, ln.j), repr(ln.r), repr(ln.x)] for ln in self.lines
            ),
        }
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def require_bus(self, bus: int) -> None:
        if bus not in self.adjacency:
            raise UnknownBusError(f"bus {bus} is not part of grid {self.name or '?'}")


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------


def make_grid(
    reference: int,
    buses: Iterable[int],
    lines: Iterable[Line | tuple],
    name: str = "",
) -> Grid:
    """A :class:`Grid` from bus ids and lines, each a :class:`Line` or an
    (i, j, r, x) tuple."""
    norm: list[Line] = []
    for ln in lines:
        if not isinstance(ln, Line):
            i, j, r, x = ln
            ln = Line(int(i), int(j), float(r), float(x))
        norm.append(ln)
    return Grid(reference=reference, buses=tuple(buses), lines=tuple(norm), name=name)


def grid_from_dict(doc: dict, name: str = "") -> Grid:
    """Parse the grid JSON document shape; errors carry the offending entry."""
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
    raw_lines = doc["lines"]
    if not isinstance(raw_lines, list):
        raise GridFileError("lines must be a list of objects")
    lines: list[Line] = []
    for k, entry in enumerate(raw_lines):
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
    return make_grid(ref, doc["buses"], lines, name=name or str(doc.get("name", "")))


def load_grid(path) -> Grid:
    """Load a grid JSON file; see ``grid_from_dict`` for the expected shape."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GridFileError(f"{path}: invalid JSON: {exc}") from None
    return grid_from_dict(doc, name=str(doc.get("name", "")) if isinstance(doc, dict) else "")


def grid_to_dict(grid: Grid) -> dict:
    doc = {
        "reference": grid.reference,
        "buses": list(grid.buses),
        "lines": [{"i": ln.i, "j": ln.j, "r": ln.r, "x": ln.x} for ln in grid.lines],
    }
    if grid.name:
        doc["name"] = grid.name
    return doc


def save_grid(grid: Grid, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(grid_to_dict(grid), fh, indent=2)
        fh.write("\n")


def load_line_csv(path, reference: int, name: str = "") -> Grid:
    """Build a grid from a from,to,r,x CSV table.

    Original bus ids are relabeled to contiguous 0-based ids in sorted order
    (so the grid JSON form can be produced from classical line-data tables);
    ``reference`` is given as an *original* id.
    """
    rows: list[tuple[int, int, float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        need = {"from", "to", "r", "x"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise GridFileError(f"{path}: header must contain columns {sorted(need)}")
        for k, row in enumerate(reader):
            try:
                rows.append((int(row["from"]), int(row["to"]), float(row["r"]), float(row["x"])))
            except (TypeError, ValueError):
                raise GridFileError(f"{path}: row {k + 1}: malformed entry {row!r}") from None
    originals = sorted({b for f, t, _, _ in rows for b in (f, t)})
    if reference not in originals:
        raise GridFileError(f"{path}: reference bus {reference} does not appear in any line")
    relabel = {orig: new for new, orig in enumerate(originals)}
    lines = [Line(relabel[f], relabel[t], r, x) for f, t, r, x in rows]
    return make_grid(relabel[reference], range(len(originals)), lines, name=name)


def builtin_grid(name: str) -> Grid:
    """Return one of the bundled grids by name (see ``BUILTIN_GRIDS``)."""
    if name not in BUILTIN_GRIDS:
        raise UnknownGridError(
            f"unknown builtin grid {name!r}; available: {', '.join(BUILTIN_GRIDS)}"
        )
    pkg = resources.files("gridtopo.data")
    if name == "ieee14":
        with resources.as_file(pkg / "ieee14_lines.csv") as p:
            return load_line_csv(p, reference=1, name="ieee14")
    with (pkg / f"{name}.json").open("r", encoding="utf-8") as fh:
        return grid_from_dict(json.load(fh), name=name)


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------


def laplacian_entries(grid: Grid, kind: str = "susceptance") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reduced Laplacian as (rows, cols, vals) triples, one per position.

    ``kind`` names the line weight, ``"susceptance"`` or ``"conductance"``.
    First the diagonal, bus by bus, each entry its lines' weights summed in
    line order; then (i, j, -w) and (j, i, -w) for each line w between
    non-reference buses i and j, in line order.
    """
    w = grid.line_weights.get(kind)
    if w is None:
        raise ValueError(f"unknown weight kind {kind!r}; expected 'susceptance' or 'conductance'")
    rows, cols, diag_bus, diag_line, off_line = grid.laplacian_index
    diag = np.bincount(diag_bus, weights=w[diag_line], minlength=len(grid.non_reference_buses))
    return rows, cols, np.concatenate([diag, -w[off_line]])


def dense_from_entries(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, d: int) -> np.ndarray:
    """The d x d array of (rows, cols, vals) triples, each position summed
    in triple order (``np.bincount``)."""
    return np.bincount(rows * d + cols, weights=vals, minlength=d * d).reshape(d, d)


def reduced_laplacian(grid: Grid, kind: str = "susceptance") -> np.ndarray:
    """Weighted graph Laplacian with the reference row/column removed.

    ``kind`` names the line weight, ``"susceptance"`` or ``"conductance"``.
    Rows/columns follow ``grid.non_reference_buses``.  Positive definite for
    any connected grid and positive weights.
    """
    return dense_from_entries(*laplacian_entries(grid, kind), len(grid.non_reference_buses))


# ----------------------------------------------------------------------
# graph queries
# ----------------------------------------------------------------------


def _bfs_distances(adj: dict[int, tuple[int, ...]], source: int, skip: int | None = None) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v == skip or v in dist:
                continue
            dist[v] = dist[u] + 1
            queue.append(v)
    return dist


def bus_distance(grid: Grid, i: int, j: int, *, through_reference: bool = True) -> float:
    """Hop distance between buses; inf if unreachable.

    With ``through_reference=False`` the path may not pass through the
    reference bus (the relevant metric for concentration-structure claims,
    since the reference carries no random injection).
    """
    grid.require_bus(i)
    grid.require_bus(j)
    skip = None if through_reference else grid.reference
    if not through_reference and grid.reference in (i, j):
        raise UnknownBusError("distance excluding the reference is undefined for the reference bus")
    dist = _bfs_distances(grid.adjacency, i, skip=skip)
    return dist.get(j, math.inf)


def girth(grid: Grid) -> float:
    """Length of the shortest cycle; ``math.inf`` for a grid without one.

    Leaves are pruned first, down to the 2-core; an empty core means every
    component is a tree.  Then a BFS runs from each bus of the core: a line
    (u, w) to a bus already reached, other than u's parent, closes a cycle of
    at most dist(u) + dist(w) + 1 lines, with equality when the root lies on
    a shortest cycle.  A search stops once 2 dist(u) + 1 reaches the best
    cycle so far, since no line it meets later closes a shorter one.
    """
    core = {b: set(nbrs) for b, nbrs in grid.adjacency.items()}
    leaves = [b for b, nbrs in core.items() if len(nbrs) <= 1]
    while leaves:
        leaf = leaves.pop()
        for v in core.pop(leaf):
            core[v].discard(leaf)
            if len(core[v]) == 1:
                leaves.append(v)
    best = math.inf
    for root in core:
        dist = {root: 0}
        parent = {root: root}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if 2 * du + 1 >= best:
                break
            for w in core[u]:
                if w not in dist:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, du + dist[w] + 1)
    return best


def grid_hash(grid: Grid) -> str:
    """Stable content hash of the grid (reference, buses, sorted lines),
    computed once per grid object."""
    return grid.content_hash
