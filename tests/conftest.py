"""Shared fixtures and helpers: bundled grids, random-grid factories, and
plain lookups and readers that only the tests need."""
import json

import numpy as np
import pytest

from gridtopo.grid import Grid, Line, builtin_grid, make_grid
from gridtopo.learning import LearnedTopology, SufficiencyReport
from gridtopo.powerflow import ConcentrationMatrix


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


def load_topology_json(path) -> LearnedTopology:
    """A topology JSON as ``write_topology_json`` writes it, read back."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return LearnedTopology(
        buses=tuple(doc["buses"]),
        edges=frozenset((min(i, j), max(i, j)) for i, j in doc["edges"]),
        algorithm=doc["algorithm"],
        params=doc.get("params", {}),
    )


def all_satisfied(report: SufficiencyReport) -> bool:
    return all(c.satisfied for c in report.certificates)


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
