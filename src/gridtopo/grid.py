"""Grid model: buses, lines, weighted reduced Laplacians, and graph queries.

A grid is an undirected connected graph of buses joined by lines with series
impedance r + ix.  One bus is the reference (slack); every matrix built here
is indexed by the non-reference buses in sorted order.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from operator import attrgetter
from typing import Iterable

import numpy as np

from .exceptions import (
    GridFileError,
    GridStructureError,
    GridTopoError,
    InvalidLineError,
    UnknownBusError,
    UnknownGridError,
    read_json_object,
    write_json,
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


@dataclass(frozen=True, init=False)
class Line:
    """One branch with series resistance r and reactance x (per unit)."""

    i: int
    j: int
    r: float
    x: float

    def __init__(self, i: int, j: int, r: float, x: float):
        # stores the fields directly: the generated frozen __init__ calls
        # object.__setattr__ per field, three times as slow, once per line
        fields = self.__dict__
        fields["i"], fields["j"], fields["r"], fields["x"] = i, j, r, x

    @property
    def key(self) -> tuple[int, int]:
        return (self.i, self.j) if self.i < self.j else (self.j, self.i)


#: a line's i, j, r and x, as functions to map over a grid's lines
_I, _J, _R, _X = map(attrgetter, "ijrx")


def _check_bus_ids(buses: tuple) -> None:
    """Raise for the first bus id that is not an integer or repeats an
    earlier one, checked bus by bus."""
    seen: set[int] = set()
    for b in buses:
        if not isinstance(b, int) or isinstance(b, bool):
            raise GridStructureError(f"bus id {b!r} is not an integer")
        if b in seen:
            raise GridStructureError(f"duplicate bus id {b}")
        seen.add(b)


def _component_labels(ends: np.ndarray, n: int) -> np.ndarray:
    """The least bus position in each bus's connected component, for n
    buses joined by the lines ``ends`` (positions).

    Each round hooks every component's root to the least root it shares a
    line with, then follows parent pointers to the roots.  A round merges
    every component that has a line to another one, so O(log n) rounds
    suffice, where a frontier expansion would take one per BFS level
    (thousands on a long radial feeder).
    """
    label = np.arange(n)
    a, b = ends.T
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        lo = np.minimum(la, lb)
        np.minimum.at(label, la, lo)
        np.minimum.at(label, lb, lo)
        while not np.array_equal(up := label[label], label):
            label = up


@dataclass(frozen=True)
class Grid:
    """Immutable bus/line model with a designated reference bus.

    Valid by construction: ``Grid(...)`` raises on the first violation, so
    every grid has a bus besides the reference, is connected with finite,
    positive line susceptances and its reduced Laplacian H_b is positive
    definite.  The checks run on the line table, built once per grid as
    arrays (each line's end positions in ``buses``, its r and x): every
    line's faults are found at once, and the first faulty line in line
    order is reported, with the error a line-by-line check would raise.
    Every per-line view is derived from the same arrays.
    """

    reference: int
    buses: tuple[int, ...]
    lines: tuple[Line, ...]
    name: str = ""

    def __post_init__(self):
        if not self.buses:
            raise GridStructureError("grid has no buses")
        if not set(map(type, self.buses)) <= {int} or len(self._position) < len(self.buses):
            _check_bus_ids(self.buses)
        if not isinstance(self.reference, int) or isinstance(self.reference, bool):
            raise GridStructureError(f"reference bus {self.reference!r} is not an integer")
        if self.reference not in self._position:
            raise GridStructureError(f"reference bus {self.reference} is not listed in buses")
        if len(self.buses) < 2:
            raise GridStructureError(f"grid has no bus besides the reference {self.reference}")

        faults = self._line_faults()
        bad = np.flatnonzero(faults.any(axis=0))
        if bad.size:
            raise self._line_error(int(bad[0]), int(np.argmax(faults[:, bad[0]])))

        label = _component_labels(self._ends, len(self.buses))
        stranded = label != label[self._position[self.reference]]
        if stranded.any():
            first = min(itertools.compress(self.buses, stranded.tolist()))
            raise GridStructureError(
                f"grid is not connected: {np.count_nonzero(stranded)} bus(es) unreachable from the "
                f"reference, first {first}"
            )

        b = self.line_weights["susceptance"]
        bad = np.flatnonzero(~(np.isfinite(b) & (b > 0)))
        if bad.size:  # r*r + x*x over- or underflows
            ln = self.lines[bad[0]]
            raise InvalidLineError(
                f"line ({ln.i},{ln.j}): susceptance must be finite and positive, "
                f"got {b[bad[0]]} from r={ln.r} x={ln.x}"
            )

    def _line_faults(self) -> np.ndarray:
        """(6, lines) fault masks, one row per check a line goes through,
        in the order of :meth:`_line_error`."""
        a, b = self._ends.T
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        _, first, pair = np.unique((lo + 1) * (len(self.buses) + 1) + hi, return_index=True,
                                   return_inverse=True)
        r, x = self._impedance
        return np.stack([lo < 0, a == b, first[pair] < np.arange(a.size),
                         ~(np.isfinite(r) & np.isfinite(x)), r < 0.0, x <= 0.0])

    def _line_error(self, k: int, fault: int) -> GridTopoError:
        """The error for line k's fault ``fault``, a row of :meth:`_line_faults`."""
        ln = self.lines[k]
        missing = ln.j if ln.i in self._position else ln.i
        error, message = (
            (GridStructureError, f"endpoint {missing} is not a listed bus"),
            (GridStructureError, "self-loop"),
            (GridStructureError, "duplicate of an earlier line"),
            (InvalidLineError, f"non-finite impedance r={ln.r} x={ln.x}"),
            (InvalidLineError, f"negative resistance r={ln.r}"),
            (InvalidLineError, f"reactance must be positive, got x={ln.x}"),
        )[fault]
        return error(f"lines[{k}] ({ln.i},{ln.j}): {message}")

    # -- the line table ------------------------------------------------

    @cached_property
    def _position(self) -> dict[int, int]:
        """Position of each bus id in ``buses``."""
        return dict(zip(self.buses, range(len(self.buses))))

    @cached_property
    def _ends(self) -> np.ndarray:
        """(lines, 2) positions in ``buses`` of each line's ends; -1 for an
        endpoint that is not a listed bus."""
        m = len(self.lines)
        ids = itertools.chain(map(_I, self.lines), map(_J, self.lines))
        pos = np.fromiter(map(self._position.get, ids, itertools.repeat(-1)), dtype=np.intp, count=2 * m)
        return _read_only(pos.reshape(2, m).T)[0]

    @cached_property
    def _impedance(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-line r and x, in line order."""
        m = len(self.lines)
        return _read_only(np.fromiter(map(_R, self.lines), dtype=float, count=m),
                          np.fromiter(map(_X, self.lines), dtype=float, count=m))

    @cached_property
    def _rank(self) -> np.ndarray:
        """Rank of each bus, by position in ``buses``, in sorted id order."""
        rank = np.empty(len(self.buses), dtype=np.intp)
        rank[sorted(range(len(self.buses)), key=self.buses.__getitem__)] = np.arange(len(self.buses))
        return _read_only(rank)[0]

    # -- derived views -------------------------------------------------

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each bus's neighbours, in sorted id order, keyed in ``buses`` order."""
        a, b = self._ends.T
        src, dst = np.concatenate([a, b]), np.concatenate([b, a])
        dst = dst[np.argsort(src * len(self.buses) + self._rank[dst])]  # by bus, then neighbour id
        nbrs = np.array(self.buses, dtype=object)[dst].tolist()
        stop = np.cumsum(np.bincount(src, minlength=len(self.buses))).tolist()
        return {bus: tuple(nbrs[s:e]) for bus, s, e in zip(self.buses, [0] + stop, stop)}

    @cached_property
    def line_ends(self) -> np.ndarray:
        """(lines, 2) row indices (:attr:`index_of`) of each line's ends, in
        line order; the reference bus, which has no row, reads -1."""
        rank = self._rank
        ref = rank[self._position[self.reference]]
        row = np.where(rank == ref, -1, rank - (rank > ref))
        return _read_only(row[self._ends])[0]

    @cached_property
    def laplacian_index(self) -> tuple[np.ndarray, ...]:
        """Where line weights land in :func:`laplacian_entries`: the triples'
        (rows, cols); the (bus index, line) of every diagonal addend, in line
        order; and the line of every off-diagonal triple."""
        n, m, ends = len(self.index_of), len(self.lines), self.line_ends
        inner = np.flatnonzero((ends >= 0).all(axis=1))
        i, j = ends[inner].T
        on = ends.reshape(-1) >= 0
        return _read_only(np.concatenate([np.arange(n), np.stack([i, j], axis=1).reshape(-1)]),
                          np.concatenate([np.arange(n), np.stack([j, i], axis=1).reshape(-1)]),
                          ends.reshape(-1)[on], np.repeat(np.arange(m), 2)[on], np.repeat(inner, 2))

    @cached_property
    def two_hop(self) -> tuple[np.ndarray, ...]:
        """The wedges a-k-b of :func:`laplacian_entries`: each ordered pair of
        entries (k, a), (k, b) of a row, one entry twice included, as both
        triples, the position id of (a, b), the positions' rows and cols
        (row-major) and the count of upper wedges (a <= b), listed first."""
        rows, cols = self.laplacian_index[:2]
        n = len(self.index_of)
        entries = np.argsort(rows, kind="stable")  # by row, in triple order
        counts = np.bincount(rows, minlength=n)
        per = np.repeat(counts, counts)  # entry e pairs with every entry of its row
        left = np.repeat(np.arange(per.size), per)
        first = np.repeat(np.cumsum(counts) - counts, counts)  # first entry of e's row
        right = first[left] + np.arange(left.size) - (np.cumsum(per) - per)[left]
        upper = cols[entries[left]] <= cols[entries[right]]
        order = np.argsort(~upper, kind="stable")  # the upper wedges first
        left, right = entries[left[order]], entries[right[order]]
        pos, at = np.unique(cols[left] * n + cols[right], return_inverse=True)
        return _read_only(left, right, at, *np.divmod(pos, n)) + (int(np.count_nonzero(upper)),)

    @cached_property
    def line_weights(self) -> dict[str, np.ndarray]:
        """Per-line ``"susceptance"`` and ``"conductance"`` arrays, in line
        order; built before the grid checks them, so overflow stays silent."""
        r, x = self._impedance
        with np.errstate(all="ignore"):
            b, g = _read_only(susceptance(r, x), conductance(r, x))
        return {"susceptance": b, "conductance": g}

    @cached_property
    def non_reference_buses(self) -> tuple[int, ...]:
        ids = sorted(self.buses)
        ids.remove(self.reference)
        return tuple(ids)

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
        ends = np.sort(self._rank[self._ends], axis=1)  # by rank, low end first
        order = np.lexsort(ends.T[::-1])
        ids = sorted(self.buses)
        lo, hi = np.array(ids, dtype=object)[ends[order]].T.tolist()
        order = order.tolist()
        r = list(map(repr, map(_R, self.lines)))
        x = list(map(repr, map(_X, self.lines)))
        lines = list(map(list, zip(lo, hi, map(r.__getitem__, order), map(x.__getitem__, order))))
        payload = {"reference": self.reference, "buses": ids, "lines": lines}
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def require_bus(self, bus: int) -> None:
        if bus not in self._position:
            raise UnknownBusError(f"bus {bus} is not part of grid {self.name or '?'}")


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------


def make_grid(reference: int, buses: Iterable[int], lines: Iterable[Line | tuple], name: str = "") -> Grid:
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
    if not isinstance(doc["lines"], list):
        raise GridFileError("lines must be a list of objects")
    doc_name = doc.get("name", "")
    if not isinstance(doc_name, str):
        raise GridFileError(f"name must be a string, got {doc_name!r}")
    lines = tuple(map(Line, *_line_columns(doc["lines"])))
    return Grid(reference=ref, buses=tuple(doc["buses"]), lines=lines, name=name or doc_name)


def _line_columns(entries: list) -> tuple[list, list, list, list]:
    """The i, j, r and x columns of the line entries, r and x as floats.

    Each column is gathered at once and checked as a set of types; when an
    entry is not a dict of integer endpoints and int or float r and x, the
    entries are walked one by one to name the first faulty one.
    """
    try:
        i, j, r, x = ([e[f] for e in entries] for f in "ijrx")
        if (set(map(type, entries)) <= {dict} and set(map(type, i)) | set(map(type, j)) <= {int}
                and set(map(type, r)) | set(map(type, x)) <= {int, float}):
            return i, j, list(map(float, r)), list(map(float, x))
    except (KeyError, TypeError, OverflowError):
        pass
    return _entry_columns(entries)


def _entry_columns(entries: list) -> tuple[list, list, list, list]:
    """:func:`_line_columns` entry by entry: raises for the first faulty one."""
    columns: tuple[list, list, list, list] = ([], [], [], [])
    for k, entry in enumerate(entries):
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
        for column, value in zip(columns, (i, j, r, x)):
            column.append(value)
    return columns


def load_grid(path) -> Grid:
    """Load a grid JSON file; see ``grid_from_dict`` for the expected shape."""
    return grid_from_dict(read_json_object(path, GridFileError))


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
    write_json(grid_to_dict(grid), path)


def builtin_grid(name: str) -> Grid:
    """Return one of the bundled grids by name (see ``BUILTIN_GRIDS``)."""
    if name not in BUILTIN_GRIDS:
        raise UnknownGridError(
            f"unknown builtin grid {name!r}; available: {', '.join(BUILTIN_GRIDS)}"
        )
    with (resources.files("gridtopo.data") / f"{name}.json").open("r", encoding="utf-8") as fh:
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


def bus_distance(grid: Grid, i: int, j: int, *, through_reference: bool = True) -> float:
    """Hop distance between buses; inf if unreachable.

    With ``through_reference=False`` the path may not pass through the
    reference bus (the relevant metric for concentration-structure claims,
    since the reference carries no random injection).
    """
    grid.require_bus(i)
    grid.require_bus(j)
    if not through_reference and grid.reference in (i, j):
        raise UnknownBusError("distance excluding the reference is undefined for the reference bus")
    dist = {i: 0, **({} if through_reference else {grid.reference: math.inf})}
    queue = deque([i])
    while queue:
        u = queue.popleft()
        for v in grid.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
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
