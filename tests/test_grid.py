"""Grid model: loaders, validation, weights, Laplacians, distances, girth."""
import itertools
import json
import math
import re
from collections import deque

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from conftest import edge_set, line_between
from gridtopo.cli import main
from gridtopo.exceptions import (
    GridFileError,
    GridStructureError,
    InvalidLineError,
    UnknownBusError,
    UnknownGridError,
)
from gridtopo.grid import (
    BUILTIN_GRIDS,
    Grid,
    Line,
    builtin_grid,
    bus_distance,
    conductance,
    girth,
    grid_from_dict,
    grid_hash,
    grid_to_dict,
    laplacian_entries,
    load_grid,
    load_line_csv,
    make_grid,
    reduced_laplacian,
    save_grid,
    susceptance,
)


def path_grid(n_buses: int, r: float = 0.0, x: float = 1.0):
    """Chain 0-1-...-(n-1) with reference 0."""
    return make_grid(0, range(n_buses), [(b, b + 1, r, x) for b in range(n_buses - 1)])


# ----------------------------------------------------------------------
# line weights
# ----------------------------------------------------------------------


def test_weight_formulas():
    # r=0.03, x=0.04: r^2 + x^2 = 0.0025
    assert susceptance(0.03, 0.04) == pytest.approx(16.0, rel=1e-12)
    assert conductance(0.03, 0.04) == pytest.approx(12.0, rel=1e-12)
    # pure reactance: susceptance = 1/x, conductance = 0
    assert susceptance(0.0, 0.5) == pytest.approx(2.0)
    assert conductance(0.0, 0.5) == 0.0


def test_reduced_laplacian_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown weight kind 'bogus'"):
        reduced_laplacian(path_grid(3), "bogus")


def test_line_key_is_sorted():
    assert Line(7, 3, 0.1, 0.2).key == (3, 7)


# ----------------------------------------------------------------------
# reduced Laplacian vs incidence-matrix oracle
# ----------------------------------------------------------------------


def incidence_laplacian(grid, kind):
    """Independent construction: L = B^T W B with the reference column cut."""
    idx = grid.index_of
    m, d = len(grid.lines), len(grid.non_reference_buses)
    B = np.zeros((m, d))
    w = np.zeros(m)
    for k, ln in enumerate(grid.lines):
        if ln.i != grid.reference:
            B[k, idx[ln.i]] = 1.0
        if ln.j != grid.reference:
            B[k, idx[ln.j]] = -1.0
        w[k] = (susceptance if kind == "susceptance" else conductance)(ln.r, ln.x)
    return B.T @ (w[:, None] * B)


@pytest.mark.parametrize("name", BUILTIN_GRIDS)
@pytest.mark.parametrize("kind", ["susceptance", "conductance"])
def test_reduced_laplacian_matches_incidence_form(name, kind):
    g = builtin_grid(name)
    np.testing.assert_allclose(
        reduced_laplacian(g, kind), incidence_laplacian(g, kind), rtol=1e-12, atol=1e-12
    )


def test_reduced_laplacian_3bus_path():
    g = path_grid(3)
    np.testing.assert_allclose(reduced_laplacian(g), [[2.0, -1.0], [-1.0, 1.0]])


def loop_laplacian(grid, kind):
    """The reduced Laplacian summed line by line into a dense array."""
    weight = susceptance if kind == "susceptance" else conductance
    order = grid.index_of
    H = np.zeros((len(order), len(order)))
    for ln in grid.lines:
        w = weight(ln.r, ln.x)
        ii, jj = order.get(ln.i), order.get(ln.j)
        if ii is not None:
            H[ii, ii] += w
        if jj is not None:
            H[jj, jj] += w
        if ii is not None and jj is not None:
            H[ii, jj] -= w
            H[jj, ii] -= w
    return H


@pytest.mark.parametrize("name", BUILTIN_GRIDS)
@pytest.mark.parametrize("kind", ["susceptance", "conductance"])
def test_reduced_laplacian_equals_the_line_loop(name, kind):
    # the triples sum each position in line order, as the loop does
    g = builtin_grid(name)
    assert np.array_equal(reduced_laplacian(g, kind), loop_laplacian(g, kind))
    rows, cols, _ = laplacian_entries(g, kind)
    assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
    assert not (rows.flags.writeable or cols.flags.writeable or g.line_weights[kind].flags.writeable)


def test_stranded_buses_of_a_directly_built_grid():
    lines = (Line(0, 1, 0.1, 0.2), Line(3, 2, 0.1, 0.2))
    with pytest.raises(GridStructureError, match=r"3 bus\(es\) unreachable from the reference, first 2"):
        Grid(reference=0, buses=(0, 1, 2, 3, 4), lines=lines)
    path_grid(4)


# ----------------------------------------------------------------------
# distances and two-hop sets vs Floyd-Warshall oracle
# ----------------------------------------------------------------------


def floyd_warshall(grid, skip=None):
    buses = [b for b in grid.buses if b != skip]
    dist = {(a, b): (0.0 if a == b else math.inf) for a in buses for b in buses}
    for ln in grid.lines:
        if skip in (ln.i, ln.j):
            continue
        dist[(ln.i, ln.j)] = dist[(ln.j, ln.i)] = 1.0
    for k in buses:
        for a in buses:
            for b in buses:
                via = dist[(a, k)] + dist[(k, b)]
                if via < dist[(a, b)]:
                    dist[(a, b)] = via
    return dist


@pytest.mark.parametrize("name", BUILTIN_GRIDS)
def test_bus_distance_matches_floyd_warshall(name):
    g = builtin_grid(name)
    want = floyd_warshall(g)
    for a in g.buses:
        for b in g.buses:
            assert bus_distance(g, a, b) == want[(a, b)]
    want_cut = floyd_warshall(g, skip=g.reference)
    for a in g.non_reference_buses:
        for b in g.non_reference_buses:
            assert bus_distance(g, a, b, through_reference=False) == want_cut[(a, b)]


def test_bus_distance_reference_exclusion_rules(radial20):
    with pytest.raises(UnknownBusError):
        bus_distance(radial20, radial20.reference, 3, through_reference=False)
    with pytest.raises(UnknownBusError):
        bus_distance(radial20, 3, 999)


def test_distance_excluding_reference_can_disconnect():
    # star around the reference: 1 and 2 only meet through bus 0
    g = make_grid(0, [0, 1, 2], [(0, 1, 0.0, 1.0), (0, 2, 0.0, 1.0)])
    assert bus_distance(g, 1, 2) == 2
    assert bus_distance(g, 1, 2, through_reference=False) == math.inf


@pytest.mark.parametrize("name", BUILTIN_GRIDS)
@pytest.mark.parametrize("through_reference", [True, False])
def test_two_hop_neighbors_match_distances(name, through_reference):
    # distance-2 sets (the off-line support of J) vs neighbors of neighbors
    g = builtin_grid(name)
    skip = None if through_reference else g.reference
    adj = g.adjacency
    for b in g.non_reference_buses:
        want = {
            v
            for k in adj[b] if k != skip
            for v in adj[k] if v not in (b, skip) and v not in adj[b]
        }
        got = {
            v
            for v in (g.buses if through_reference else g.non_reference_buses)
            if bus_distance(g, b, v, through_reference=through_reference) == 2
        }
        assert got == want


def test_neighbors_and_degree(radial20):
    assert radial20.adjacency[0] == (1,)
    assert radial20.adjacency[2] == (1, 3, 9)
    assert line_between(radial20, 2, 9) is not None
    assert line_between(radial20, 0, 9) is None


# ----------------------------------------------------------------------
# girth
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,want",
    [("radial20", math.inf), ("loopy20_c4", 4), ("loopy20_c7", 7), ("ieee14", 3)],
)
def test_builtin_girths(name, want):
    assert girth(builtin_grid(name)) == want


def test_girth_of_tree_plus_chord_is_cycle_length(make_random_tree):
    # one chord closes exactly one cycle: distance in the tree + 1
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = make_random_tree(rng, int(rng.integers(5, 14)))
        pairs = [
            (i, j)
            for i, j in itertools.combinations(g.non_reference_buses, 2)
            if line_between(g, i, j) is None
        ]
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        want = bus_distance(g, i, j) + 1
        chord = make_grid(0, g.buses, list(g.lines) + [(i, j, 0.01, 0.05)])
        assert girth(chord) == want


def girth_by_edge_deletion(grid):
    """Reference girth: for every line, the shortest other path between its
    ends plus the line itself closes the smallest cycle through that line."""
    best = math.inf
    for ln in grid.lines:
        dist = {ln.i: 0}
        queue = deque([ln.i])
        while queue:
            u = queue.popleft()
            for v in grid.adjacency[u]:
                if v not in dist and {u, v} != {ln.i, ln.j}:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if ln.j in dist:
            best = min(best, dist[ln.j] + 1)
    return best


@st.composite
def trees_with_chords(draw):
    """A random tree on buses 0..n-1 (reference 0) plus 0-5 chords that each
    close a triangle, or each touch the reference, or each join buses at
    least 3 lines apart, or join any pair."""
    n = draw(st.integers(3, 24))
    lines = {(draw(st.integers(0, b - 1)), b) for b in range(1, n)}
    kind = draw(st.sampled_from(["triangle", "reference", "far", "any"]))
    for _ in range(draw(st.integers(0, 5))):
        g = make_grid(0, range(n), [(i, j, 0.01, 0.05) for i, j in sorted(lines)])
        pairs = itertools.combinations(range(n), 2)
        if kind == "triangle":
            pool = [p for p in pairs if bus_distance(g, *p) == 2]
        elif kind == "reference":
            pool = [p for p in pairs if p[0] == 0 and bus_distance(g, *p) > 1]
        elif kind == "far":
            pool = [p for p in pairs if bus_distance(g, *p) >= 3]
        else:
            pool = [p for p in pairs if bus_distance(g, *p) > 1]
        if pool:
            lines.add(draw(st.sampled_from(pool)))
    return make_grid(0, range(n), [(i, j, 0.01, 0.05) for i, j in sorted(lines)])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(trees_with_chords())
def test_girth_matches_edge_deletion_scan(grid):
    assert girth(grid) == girth_by_edge_deletion(grid)


@pytest.mark.parametrize("n", [3, 4, 7, 30])
def test_girth_of_a_single_cycle_is_its_length(n):
    ring = make_grid(0, range(n), [(b, (b + 1) % n, 0.01, 0.05) for b in range(n)])
    assert girth(ring) == n == girth_by_edge_deletion(ring)


def test_girth_ignores_long_radial_tails():
    # a 5-cycle 0..4 with a 40-bus tail at bus 2 and a 25-bus tail at the reference
    lines = [(b, (b + 1) % 5, 0.01, 0.05) for b in range(5)]
    lines += [(2 if b == 5 else b - 1, b, 0.01, 0.05) for b in range(5, 45)]
    lines += [(0 if b == 45 else b - 1, b, 0.01, 0.05) for b in range(45, 70)]
    g = make_grid(0, range(70), lines)
    assert girth(g) == 5 == girth_by_edge_deletion(g)


def test_girth_of_a_cycle_hung_off_a_tree():
    # a 6-line tree at the reference, its far end joined to a 4-cycle, with
    # the tree's buses listed first and then last
    tree = tuple(Line(b - 1, b, 0.01, 0.05) for b in range(1, 7))
    cycle = tuple(Line(10 + b, 10 + (b + 1) % 4, 0.01, 0.05) for b in range(4))
    for buses in (tuple(range(7)) + tuple(range(10, 14)), tuple(range(10, 14)) + tuple(range(7))):
        g = Grid(reference=0, buses=buses, lines=tree + (Line(6, 12, 0.01, 0.05),) + cycle)
        assert not g.is_radial
        assert girth(g) == 4 == girth_by_edge_deletion(g)
    tree_only = Grid(reference=0, buses=tuple(range(7)), lines=tree)
    assert girth(tree_only) == math.inf and tree_only.is_radial


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "reference,buses,lines,exc,match",
    [
        (0, [], [], GridStructureError, "no buses"),
        (0, [0, 1, 1], [(0, 1, 0.1, 0.2)], GridStructureError, "duplicate bus"),
        (5, [0, 1], [(0, 1, 0.1, 0.2)], GridStructureError, "reference bus 5"),
        (0, [0, 1], [(0, 2, 0.1, 0.2)], GridStructureError, "endpoint 2"),
        (0, [0, 1], [(1, 1, 0.1, 0.2)], GridStructureError, "self-loop"),
        (0, [0, 1], [(0, 1, 0.1, 0.2), (1, 0, 0.1, 0.2)], GridStructureError, "duplicate of an earlier line"),
        (0, [0, 1], [(0, 1, -0.1, 0.2)], InvalidLineError, "negative resistance"),
        (0, [0, 1], [(0, 1, 0.1, 0.0)], InvalidLineError, "reactance must be positive"),
        (0, [0, 1], [(0, 1, math.nan, 0.2)], InvalidLineError, "non-finite"),
        (0, [0, 1, 2], [(0, 1, 0.1, 0.2)], GridStructureError, "not connected"),
        (0, [0], [], GridStructureError, "no bus besides the reference 0"),
    ],
)
def test_make_grid_rejects_bad_input(reference, buses, lines, exc, match):
    with pytest.raises(exc, match=match):
        make_grid(reference, buses, lines)


# line sets on buses 0-3 whose H_b would be singular or undefined: the error
# and the words naming the line or the first stranded bus
SINGULAR_GRIDS = {
    "unlisted-endpoint": ((Line(0, 1, 0.1, 0.2), Line(1, 2, 0.1, 0.2), Line(2, 7, 0.1, 0.2)),
                          GridStructureError, r"\(2,7\): endpoint 7 is not a listed bus"),
    "island": ((Line(0, 1, 0.1, 0.2), Line(2, 3, 0.1, 0.2)),
               GridStructureError, r"2 bus\(es\) unreachable from the reference, first 2"),
    "negative-x": ((Line(0, 1, 0.1, 0.2), Line(1, 2, 0.1, 0.2), Line(2, 3, 0.1, -0.2)),
                   InvalidLineError, r"\(2,3\): reactance must be positive"),
    "zero-impedance": ((Line(0, 1, 0.1, 0.2), Line(1, 2, 0.0, 0.0), Line(2, 3, 0.1, 0.2)),
                       InvalidLineError, r"\(1,2\): reactance must be positive"),
    # r^2 + x^2 underflows to 0 or overflows to inf
    "susceptance-inf": ((Line(0, 1, 0.1, 0.2), Line(1, 2, 0.0, 1e-200), Line(2, 3, 0.1, 0.2)),
                        InvalidLineError, r"line \(1,2\): susceptance must be finite and positive, got inf"),
    "susceptance-zero": ((Line(0, 1, 0.1, 0.2), Line(1, 2, 1e200, 1.0), Line(2, 3, 0.1, 0.2)),
                         InvalidLineError, r"line \(1,2\): susceptance must be finite and positive, got 0.0"),
}


@pytest.mark.parametrize("case", SINGULAR_GRIDS)
def test_every_way_in_rejects_a_singular_grid(case, tmp_path):
    lines, error, match = SINGULAR_GRIDS[case]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"reference": 0, "buses": [0, 1, 2, 3],
                                "lines": [{"i": ln.i, "j": ln.j, "r": ln.r, "x": ln.x} for ln in lines]}))
    for build in (lambda: Grid(reference=0, buses=(0, 1, 2, 3), lines=lines),
                  lambda: make_grid(0, range(4), lines),
                  lambda: load_grid(path)):
        with pytest.raises(error, match=match):
            build()
    result = CliRunner().invoke(main, ["grid", "validate", str(path)])
    assert result.exit_code == 1
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert payload["error"] == error.__name__
    assert re.search(match, payload["message"])


@pytest.mark.parametrize(
    "doc,match",
    [
        ([], "must be a JSON object"),
        ({"buses": [0], "lines": []}, "missing the 'reference'"),
        ({"reference": "0", "buses": [0], "lines": []}, "reference must be an integer"),
        ({"reference": 0, "buses": 3, "lines": []}, "buses must be a list"),
        ({"reference": 0, "buses": [0, 1], "lines": [{"i": 0, "j": 1, "r": 0.1}]}, "missing field 'x'"),
        ({"reference": 0, "buses": [0, 1], "lines": [{"i": 0, "j": 1, "r": "a", "x": 0.1}]}, "must be numbers"),
        ({"reference": 0, "buses": [0, 1], "lines": [[0, 1, 0.1, 0.1]]}, "expected an object"),
        ({"reference": 0, "buses": [0, 1], "lines": [{"i": 0, "j": 1, "r": True, "x": 0.1}]}, "must be numbers"),
        ({"reference": 0, "buses": [0, 1], "lines": [{"i": 0, "j": 1, "r": 0.0, "x": "0.1"}]}, "must be numbers"),
        ({"reference": 0, "buses": [0, 1], "lines": [{"i": 0, "j": 1, "r": 10**400, "x": 0.1}]},
         r"lines\[0\]: r and x must fit in a float"),
    ],
)
def test_grid_from_dict_rejects_bad_documents(doc, match):
    with pytest.raises(GridFileError, match=match):
        grid_from_dict(doc)


def test_load_grid_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(GridFileError, match="invalid JSON"):
        load_grid(p)


def test_require_bus(radial20):
    radial20.require_bus(7)
    with pytest.raises(UnknownBusError):
        radial20.require_bus(99)


# ----------------------------------------------------------------------
# serialization round-trips and hashing
# ----------------------------------------------------------------------


def test_grid_json_roundtrip(tmp_path, loopy20_c4):
    p = tmp_path / "g.json"
    save_grid(loopy20_c4, p)
    back = load_grid(p)
    assert edge_set(back) == edge_set(loopy20_c4)
    assert back.reference == loopy20_c4.reference
    assert grid_hash(back) == grid_hash(loopy20_c4)


def test_grid_hash_sensitivity(radial20):
    doc = grid_to_dict(radial20)
    doc["lines"][0]["r"] += 1e-9
    assert grid_hash(grid_from_dict(doc, name=radial20.name)) != grid_hash(radial20)


def test_grid_hash_is_stable_and_computed_once(radial20):
    # sample sidecars and result sidecars store this value
    assert grid_hash(radial20) == "278c9d9aa247d0ae240efe43b4ddfec67156b9c7f0a6a74bf1fde3f0def4f71d"
    assert grid_hash(radial20) is grid_hash(radial20)


def test_load_line_csv_relabels_sorted(tmp_path):
    p = tmp_path / "lines.csv"
    p.write_text("from,to,r,x\n7,5,0.1,0.2\n9,7,0.1,0.3\n")
    g = load_line_csv(p, reference=7)
    # originals 5,7,9 -> 0,1,2
    assert g.buses == (0, 1, 2)
    assert g.reference == 1
    assert edge_set(g) == frozenset({(0, 1), (1, 2)})
    with pytest.raises(GridFileError, match="reference bus 4"):
        load_line_csv(p, reference=4)
    (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
    with pytest.raises(GridFileError, match="header"):
        load_line_csv(tmp_path / "bad.csv", reference=1)


# ----------------------------------------------------------------------
# builtins
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,n_buses,n_lines,radial",
    [
        ("radial20", 20, 19, True),
        ("loopy20_c4", 20, 20, False),
        ("loopy20_c7", 20, 20, False),
        ("ieee14", 14, 20, False),
    ],
)
def test_builtin_shapes(name, n_buses, n_lines, radial):
    g = builtin_grid(name)
    assert g.n_buses == n_buses
    assert len(g.lines) == n_lines
    assert g.reference == 0
    assert g.is_radial is radial
    assert len(g.non_reference_buses) == n_buses - 1


def test_unknown_builtin():
    with pytest.raises(UnknownGridError, match="unknown builtin grid"):
        builtin_grid("ieee300")
