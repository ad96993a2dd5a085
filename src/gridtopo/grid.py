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
    """Immutable bus/line model with a designated reference bus."""

    reference: int
    buses: tuple[int, ...]
    lines: tuple[Line, ...]
    name: str = ""

    # -- derived views -------------------------------------------------

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {b: [] for b in self.buses}
        for ln in self.lines:
            nbrs[ln.i].append(ln.j)
            nbrs[ln.j].append(ln.i)
        return {b: tuple(sorted(v)) for b, v in nbrs.items()}

    @cached_property
    def line_by_key(self) -> dict[tuple[int, int], Line]:
        return {ln.key: ln for ln in self.lines}

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
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(ln.key for ln in self.lines)

    @cached_property
    def is_radial(self) -> bool:
        """A tree: one line fewer than buses and no cycle (a ``Grid(...)``
        built directly skips the connectivity check)."""
        return len(self.lines) == len(self.buses) - 1 and girth(self) == math.inf

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

    def has_bus(self, bus: int) -> bool:
        return bus in self.adjacency

    def require_bus(self, bus: int) -> None:
        if not self.has_bus(bus):
            raise UnknownBusError(f"bus {bus} is not part of grid {self.name or '?'}")

    def line_between(self, i: int, j: int) -> Line | None:
        return self.line_by_key.get((i, j) if i < j else (j, i))


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------


def _validate(reference: int, buses: Iterable[int], lines: list[Line]) -> None:
    buses = list(buses)
    if not buses:
        raise GridStructureError("grid has no buses")
    seen: set[int] = set()
    for b in buses:
        if not isinstance(b, int) or isinstance(b, bool):
            raise GridStructureError(f"bus id {b!r} is not an integer")
        if b in seen:
            raise GridStructureError(f"duplicate bus id {b}")
        seen.add(b)
    if reference not in seen:
        raise GridStructureError(f"reference bus {reference} is not listed in buses")

    keys: set[tuple[int, int]] = set()
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

    # connectivity from the reference
    adj: dict[int, list[int]] = {b: [] for b in seen}
    for ln in lines:
        adj[ln.i].append(ln.j)
        adj[ln.j].append(ln.i)
    reached = _bfs_distances(adj, reference)
    if len(reached) != len(seen):
        stranded = sorted(seen - reached.keys())
        raise GridStructureError(
            f"grid is not connected: {len(stranded)} bus(es) unreachable from the "
            f"reference, first {stranded[0]}"
        )


def make_grid(
    reference: int,
    buses: Iterable[int],
    lines: Iterable[Line | tuple],
    name: str = "",
) -> Grid:
    """Build a validated :class:`Grid`; raises on the first violation found."""
    norm: list[Line] = []
    for ln in lines:
        if not isinstance(ln, Line):
            i, j, r, x = ln
            ln = Line(int(i), int(j), float(r), float(x))
        norm.append(ln)
    buses = tuple(buses)
    _validate(reference, buses, norm)
    return Grid(reference=reference, buses=buses, lines=tuple(norm), name=name)


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
        try:
            r, x = float(entry["r"]), float(entry["x"])
        except (TypeError, ValueError):
            raise GridFileError(f"{ctx}: r and x must be numbers") from None
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


def reduced_laplacian(grid: Grid, kind: str = "susceptance") -> np.ndarray:
    """Weighted graph Laplacian with the reference row/column removed.

    ``kind`` names the line weight, ``"susceptance"`` or ``"conductance"``.
    Rows/columns follow ``grid.non_reference_buses``.  Positive definite for
    any connected grid and positive weights.
    """
    weight = {"susceptance": susceptance, "conductance": conductance}.get(kind)
    if weight is None:
        raise ValueError(f"unknown weight kind {kind!r}; expected 'susceptance' or 'conductance'")
    order = grid.index_of
    n = len(order)
    H = np.zeros((n, n))
    for ln in grid.lines:
        w = weight(ln.r, ln.x)
        ii = order.get(ln.i)
        jj = order.get(ln.j)
        if ii is not None:
            H[ii, ii] += w
        if jj is not None:
            H[jj, jj] += w
        if ii is not None and jj is not None:
            H[ii, jj] -= w
            H[jj, ii] -= w
    return H


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
