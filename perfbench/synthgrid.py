"""Seeded synthetic meshed grids for the benchmark workloads.

A grid is a random feeder tree rooted at the reference bus 0, plus chords
between tree buses, plus a few load buses fed only from the reference (the
shape that makes neighbourhood counting raise ``AmbiguousLeafError`` until
ROADMAP item 2 lands; the workloads count that failure).  A chord is only added between buses whose
distance in the grid built so far is at least ``MIN_CYCLE - 1``, so every
cycle it closes has at least ``MIN_CYCLE`` lines: any cycle of the final
grid contains a last-added chord, and the rest of that cycle is a path that
already existed when the chord was added.  Hence girth >= MIN_CYCLE.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from gridtopo.grid import Grid, girth, make_grid

#: shortest cycle a chord may close; 7 gives girth > 6 (counting's class)
MIN_CYCLE = 7

#: tree buses hung directly on the reference
FEEDERS = 3

#: load buses whose only line goes to the reference
STATION_LEAVES = 2

#: chords per bus
CHORD_SHARE = 0.1


def _within(adj: dict[int, set[int]], src: int, dst: int, radius: int) -> bool:
    """True when ``dst`` is at most ``radius`` lines away from ``src``."""
    seen = {src}
    frontier = deque([(src, 0)])
    while frontier:
        u, dist = frontier.popleft()
        if u == dst:
            return True
        if dist == radius:
            continue
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append((v, dist + 1))
    return False


def meshed_grid(n_buses: int, seed: int) -> Grid:
    """Seeded meshed grid on buses ``0..n_buses-1`` with reference 0.

    Buses ``1..FEEDERS`` hang on the reference and every later tree bus on a
    uniformly drawn earlier tree bus.  The last ``STATION_LEAVES`` buses have
    a single line, to the reference.  ``round(CHORD_SHARE * n_buses)`` chords
    join tree buses.  Impedances are drawn as in the test-suite factories
    (r in [0.02, 0.08], x in [0.05, 0.12]).  Raises ``RuntimeError`` if
    ``gridtopo.grid.girth`` disagrees with the construction.
    """
    n_tree = n_buses - STATION_LEAVES
    if n_tree < FEEDERS + 2 * MIN_CYCLE:
        raise ValueError(f"n_buses={n_buses} is too small for {FEEDERS} feeders and chords")
    rng = np.random.default_rng(seed)
    adj: dict[int, set[int]] = {b: set() for b in range(n_buses)}
    lines = []

    def add(i: int, j: int) -> None:
        adj[i].add(j)
        adj[j].add(i)
        lines.append((i, j, float(rng.uniform(0.02, 0.08)), float(rng.uniform(0.05, 0.12))))

    for b in range(1, n_tree):
        add(0 if b <= FEEDERS else int(rng.integers(1, b)), b)

    n_chords = round(CHORD_SHARE * n_buses)
    attempts = 0
    while len(lines) < n_tree - 1 + n_chords:
        attempts += 1
        if attempts > 1000 * max(n_chords, 1):
            raise RuntimeError(f"could not place {n_chords} chords on {n_buses} buses")
        i, j = (int(v) for v in rng.integers(1, n_tree, size=2))
        if i == j or _within(adj, i, j, MIN_CYCLE - 2):
            continue
        add(i, j)
    for b in range(n_tree, n_buses):
        add(0, b)

    grid = make_grid(0, range(n_buses), lines, name=f"meshed{n_buses}_s{seed}")
    g = girth(grid)
    if not g >= MIN_CYCLE:
        raise RuntimeError(f"{grid.name}: girth {g} < {MIN_CYCLE} despite the chord rule")
    return grid
