"""Topology reconstruction: GM building, both algorithms, certificates,
edge scoring and parameter recovery."""
import csv
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import adjacency_of, all_satisfied, block, edge_set, edges_of, load_topology_json
from gridtopo import grid as grid_module, learning, powerflow
from gridtopo.estimation import estimate_concentration
from gridtopo.exceptions import (
    AmbiguousLeafError,
    ConfigError,
    GridStructureError,
    GridTopoError,
    InvalidInjectionStatsError,
    ReconstructionError,
)
from gridtopo.experiments import reconstruct
from gridtopo.grid import builtin_grid, bus_distance, make_grid, reduced_laplacian
from gridtopo.learning import (
    EdgeErrors,
    GraphicalModel,
    LearnedTopology,
    build_graphical_model,
    check_sufficiency,
    concentration_standard_error,
    default_exact_tau1,
    default_exact_tau2,
    edge_errors,
    gm_noise_scale,
    hybridize,
    learn_by_counting,
    learn_by_thresholding,
    learn_parameters,
    resolve_tau1,
    resolve_tau2,
    thresholding_noise_scale,
    write_sufficiency_csv,
    write_topology_json,
)
from gridtopo.powerflow import (
    ConcentrationMatrix,
    InjectionStats,
    Pairs,
    VarLabel,
    dc_concentration,
    dc_phase_covariance,
    lc_concentration,
)
from gridtopo.sampling import draw_plan, draw_sample_covariance, generate_voltage_samples


def path_grid(n_buses: int, r: float = 0.0, x: float = 1.0):
    return make_grid(0, range(n_buses), [(b, b + 1, r, x) for b in range(n_buses - 1)])


def unit_stats(grid):
    return InjectionStats.uniform(grid, 1.0, 1.0, 0.0)


# ----------------------------------------------------------------------
# thresholds and GM construction
# ----------------------------------------------------------------------


def test_default_exact_thresholds():
    conc = dc_concentration(path_grid(3), unit_stats(path_grid(3)))
    # J = [[5, -3], [-3, 2]]: max |off-diagonal| is 3
    assert default_exact_tau1(conc) == pytest.approx(3e-4)
    assert default_exact_tau2(conc) == pytest.approx(-3e-4)


def test_default_exact_tau2_uses_lc_statistic(radial20):
    conc = lc_concentration(radial20, InjectionStats.uniform(radial20))
    from gridtopo.powerflow import lc_threshold_statistic

    stat = lc_threshold_statistic(conc)
    off = np.abs(stat - np.diag(np.diag(stat))).max()
    assert default_exact_tau2(conc) == pytest.approx(-1e-4 * off)


#: grids with no bus pair to learn: one line to the reference, and a star
#: of two lines around it
NO_PAIR_GRIDS = {
    "two-bus": [(0, 1, 0.05, 0.1)],
    "star": [(0, 1, 0.05, 0.1), (0, 2, 0.03, 0.2)],
}


@pytest.mark.parametrize("model", ["dc", "lc"])
@pytest.mark.parametrize("name", sorted(NO_PAIR_GRIDS))
def test_default_exact_taus_without_bus_pairs_use_the_diagonal(name, model):
    # the largest off-diagonal entry is 0, so the scale falls back to the
    # diagonal; thresholding then learns no line and misses none
    lines = NO_PAIR_GRIDS[name]
    g = make_grid(0, range(len(lines) + 1), lines)
    conc = (dc_concentration if model == "dc" else lc_concentration)(g, InjectionStats.uniform(g))
    stat = conc.matrix if model == "dc" else block(conc, "v", "v") + block(conc, "theta", "theta")
    assert default_exact_tau2(conc) == -1e-4 * np.abs(np.diag(stat)).max()
    assert default_exact_tau1(conc) > 0
    topo = learn_by_thresholding(conc, default_exact_tau2(conc))
    assert topo.edges == frozenset()
    assert edge_errors(topo, g).total == 0


def test_build_graphical_model_path4():
    g = path_grid(4)
    conc = dc_concentration(g, unit_stats(g))
    gm = build_graphical_model(conc, default_exact_tau1(conc))
    assert gm.buses == (1, 2, 3)
    assert edges_of(gm.adjacency, gm.buses) == {(1, 2), (2, 3), (1, 3)}


def test_build_graphical_model_knobs(radial20):
    conc = dc_concentration(radial20, unit_stats(radial20))
    with pytest.raises(ConfigError, match="tau1"):
        build_graphical_model(conc, 0.0)
    # a scale must list the positions of the pairs it scales: not those of
    # another size, nor every pair of this size where J lists fewer
    for other in (Pairs.of_dense(np.ones((2, 2))), Pairs.of_dense(np.ones((19, 19)))):
        with pytest.raises(ConfigError, match="scale is not listed at the positions"):
            build_graphical_model(conc, 1.0, scale=other)
    # dividing by an all-ones scale changes nothing
    tau = default_exact_tau1(conc)
    plain = build_graphical_model(conc, tau)
    scaled = build_graphical_model(conc, tau, scale=conc.pairs._replace(vals=np.ones_like(conc.pairs.vals)))
    assert np.array_equal(plain.adjacency, scaled.adjacency)


def test_gm_support_is_distance_one_or_two(loopy20_c7):
    from gridtopo.grid import bus_distance

    conc = dc_concentration(loopy20_c7, InjectionStats.uniform(loopy20_c7))
    gm = build_graphical_model(conc, default_exact_tau1(conc))
    want = {
        (i, j)
        for i in loopy20_c7.non_reference_buses
        for j in loopy20_c7.non_reference_buses
        if i < j and bus_distance(loopy20_c7, i, j, through_reference=False) in (1, 2)
    }
    assert edges_of(gm.adjacency, gm.buses) == want


def test_hybridize_merges_lc_vertices(loopy20_c4):
    st = InjectionStats.uniform(loopy20_c4)
    lc_gm = build_graphical_model(
        lc_concentration(loopy20_c4, st),
        default_exact_tau1(lc_concentration(loopy20_c4, st)),
    )
    dc_gm = build_graphical_model(
        dc_concentration(loopy20_c4, st),
        default_exact_tau1(dc_concentration(loopy20_c4, st)),
    )
    hybrid = hybridize(lc_gm)
    assert tuple(hybrid) == loopy20_c4.non_reference_buses
    assert hybrid == hybridize(dc_gm)


# ----------------------------------------------------------------------
# algorithm 1: counting
# ----------------------------------------------------------------------


def test_counting_restores_path():
    g = path_grid(6)
    conc = dc_concentration(g, unit_stats(g))
    gm = build_graphical_model(conc, default_exact_tau1(conc))
    topo = learn_by_counting(gm)
    assert topo.algorithm == "counting"
    assert edge_errors(topo, g).total == 0


@pytest.mark.parametrize("name", ["radial20", "loopy20_c7"])
@pytest.mark.parametrize("model", ["dc", "lc"])
def test_counting_exact_recovery(name, model):
    g = builtin_grid(name)
    st = InjectionStats.uniform(g)
    conc = (dc_concentration if model == "dc" else lc_concentration)(g, st)
    gm = build_graphical_model(conc, default_exact_tau1(conc))
    err = edge_errors(learn_by_counting(gm), g)
    assert (err.false_positives, err.false_negatives) == (0, 0)


def test_counting_needs_a_skeleton():
    # star: every non-reference pair is a GM edge, no vertex pair at distance 2
    g = make_grid(0, range(5), [(0, 1, 0.0, 1.0)] + [(1, b, 0.0, 1.0) for b in (2, 3, 4)])
    conc = dc_concentration(g, unit_stats(g))
    gm = build_graphical_model(conc, default_exact_tau1(conc))
    with pytest.raises(ReconstructionError, match="no non-leaf skeleton"):
        learn_by_counting(gm)


@pytest.mark.parametrize("model", ["dc", "lc"])
def test_pair_scans_match_the_masked_copies(all_builtins, model):
    # the off-diagonal view and the rows < cols filter read the same entries
    # as a boolean-mask copy and np.triu
    for g in all_builtins:
        conc = (dc_concentration if model == "dc" else lc_concentration)(g, InjectionStats.uniform(g))
        J = conc.matrix
        off = J[~np.eye(len(J), dtype=bool)]
        assert default_exact_tau1(conc) == 1e-4 * np.abs(off).max()
        stat = J if model == "dc" else block(conc, "v", "v") + block(conc, "theta", "theta")
        stat_off = stat[~np.eye(len(stat), dtype=bool)]
        assert default_exact_tau2(conc) == -1e-4 * np.abs(stat_off).max()
        tau1 = default_exact_tau1(conc)
        rows, cols = np.nonzero(np.triu(np.abs(J) >= tau1, k=1))
        bus = [lab.bus for lab in conc.labels]
        want = {tuple(sorted((bus[a], bus[b]))) for a, b in zip(rows, cols) if bus[a] != bus[b]}
        gm = build_graphical_model(conc, tau1)
        assert edges_of(gm.adjacency, gm.buses) == want


# The dense oracle: every tau rule, noise scale and scan as it reads ``conc.matrix``.


def dense_standard_error(J, n):
    """The delta-method standard errors as a d x d array: Var(J_ij) ~
    (J_ii*J_jj + J_ij^2)/n."""
    d = np.diag(J)
    return np.sqrt((np.outer(d, d) + J**2) / n)


def dense_statistic(conc):
    J = conc.matrix
    return J if conc.model == "dc" else block(conc, "v", "v") + block(conc, "theta", "theta")


def dense_off(M):
    return M[~np.eye(len(M), dtype=bool)]


def dense_tau(conc, knob):
    """The exact-matrix tau1/tau2 default as it reads the dense statistic."""
    M = conc.matrix if knob == "tau1" else dense_statistic(conc)
    tau = 1e-4 * (np.abs(dense_off(M)).max(initial=0.0) or np.abs(np.diag(M)).max(initial=0.0))
    return tau if knob == "tau1" else -tau


def dense_edges(mask, keys):
    """The key pairs ``mask`` joins; a pair of equal keys (v and theta of one
    bus) joins nothing."""
    rows, cols = np.nonzero(np.triu(mask, k=1))
    return {tuple(sorted((keys[a], keys[b]))) for a, b in zip(rows, cols) if keys[a] != keys[b]}


def assert_pairs_read_like_the_dense_matrix(conc, est=None):
    t1, s1 = resolve_tau1("auto", conc, est)  # on an estimate: z-scores against per-entry scales
    t2, s2 = resolve_tau2("auto", conc, est)
    J, stat = conc.matrix, dense_statistic(conc)
    se = se_stat = 1.0
    if est is None:
        assert (t1, s1, t2, s2) == (dense_tau(conc, "tau1"), None, dense_tau(conc, "tau2"), None)
    else:
        se = dense_standard_error(J, est.n_samples)
        h = len(se) // 2
        se_stat = se if conc.model == "dc" else se[:h, :h] + se[h:, h:]
    gm_want = dense_edges(np.abs(J) / se >= t1, [lab.bus for lab in conc.labels])
    gm = build_graphical_model(conc, t1, s1)
    assert edges_of(gm.adjacency, gm.buses) == gm_want
    thr_want = dense_edges(stat / se_stat <= t2, conc.buses)
    assert learn_by_thresholding(conc, t2, s2).edges == thr_want


@st.composite
def exact_concentrations(draw):
    """An exact concentration of a random meshed tree (tree plus 0-4 chords)
    or triangle grid, with uniform or random stats, DC or LC."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 24))
    lines = {(int(rng.integers(0, b)), b) for b in range(1, n)}
    if draw(st.booleans()) and n > 2:  # triangle grid: close 1-3 two-hop pairs
        two_hop = sorted({(min(a, c), max(a, c)) for b, a in lines for c in range(n)
                          if (c, b) in lines or (b, c) in lines} - lines - {(a, a) for a in range(n)})
        lines |= {two_hop[k] for k in rng.choice(len(two_hop), min(3, len(two_hop)), replace=False)}
    elif n > 3:
        for _ in range(draw(st.integers(0, 4))):
            i, j = sorted(int(b) for b in rng.choice(n, size=2, replace=False))
            lines.add((i, j))
    g = make_grid(0, range(n), [(i, j, float(rng.uniform(0.02, 0.08)), float(rng.uniform(0.05, 0.12)))
                                for i, j in sorted(lines)])
    k = n - 1
    if draw(st.booleans()):
        pp, qq = rng.uniform(0.5, 2.0, k), rng.uniform(0.5, 2.0, k)
        stats = InjectionStats(pp, qq, rng.uniform(-0.9, 0.9, k) * np.sqrt(pp * qq))
    else:
        stats = InjectionStats.uniform(g)
    model = draw(st.sampled_from(["dc", "lc"]))
    return g, (dc_concentration if model == "dc" else lc_concentration)(g, stats)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(exact_concentrations())
def test_pair_reads_equal_the_dense_oracle(case):
    # tau rules, GM edges and thresholding edges read J's stored pairs; they
    # equal the same reads of the dense view bit for bit, and every stored
    # pair lies within two lines once the reference is removed
    g, conc = case
    assert_pairs_read_like_the_dense_matrix(conc)
    J = conc.pairs
    assert np.array_equal(Pairs(J.diagonal, J.rows, J.cols, J.vals).dense(), conc.matrix)
    assert np.all(J.rows < J.cols)
    for a, b in zip(J.rows.tolist(), J.cols.tolist()):
        i, j = conc.labels[a].bus, conc.labels[b].bus
        assert i == j or bus_distance(g, i, j, through_reference=False) <= 2


@pytest.mark.parametrize("model", ["dc", "lc"])
@pytest.mark.parametrize("name,n,seed", [("radial20", 400, 0), ("radial20", 2000, 1), ("ieee14", 600, 2)])
def test_pair_reads_of_estimates_equal_the_dense_oracle(name, n, seed, model):
    # estimates list every upper-triangle entry; the z-score rule reads the
    # per-entry standard errors at the same positions
    g = builtin_grid(name)
    est = estimate_concentration(generate_voltage_samples(g, InjectionStats.uniform(g), model, n, seed=seed))
    d = est.concentration.dim
    assert est.concentration.pairs.vals.size == d * (d - 1) // 2
    assert_pairs_read_like_the_dense_matrix(est.concentration, est)


@pytest.mark.parametrize("pairs", [
    # d = 2: one pair
    Pairs(np.array([2.0, 3.0]), np.array([0]), np.array([1]), np.array([-1.0])),
    # all magnitudes equal, every position listed
    Pairs(np.full(4, 4.0), np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3]),
          np.array([-1.0, 1.0, -1.0, -1.0, 1.0, -1.0])),
    # all magnitudes equal, with positions not listed (zeros)
    Pairs(np.full(4, 4.0), np.array([0, 2]), np.array([1, 3]), np.array([-1.0, -1.0])),
    # a listed zero next to unlisted ones
    Pairs(np.full(4, 4.0), np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([-1.0, 0.0, -0.5])),
], ids=["d2", "equal-full", "equal-sparse", "listed-zero"])
@pytest.mark.parametrize("model", ["dc", "lc"])
def test_unlisted_pair_corners_equal_the_dense_oracle(pairs, model):
    # auto's scale and both scans read the zeros of unlisted positions (and
    # a listed zero) as the dense view holds them
    buses = range(1, (pairs.dim if model == "dc" else pairs.dim // 2) + 1)
    labels = tuple(VarLabel("theta", b) for b in buses)
    if model == "lc":
        labels = tuple(VarLabel("v", b) for b in buses) + labels
    conc = powerflow.ConcentrationMatrix._of_pairs(pairs, labels, model)
    assert_pairs_read_like_the_dense_matrix(conc)
    dense = ConcentrationMatrix(conc.matrix, labels, model)
    assert_pairs_read_like_the_dense_matrix(dense)


def test_exact_path_never_builds_the_dense_view(make_random_tree, monkeypatch):
    # J is read as its stored pairs and certify as line weights: no d x d
    # array is made by learning, thresholds or certificates
    rng = np.random.default_rng(3)
    tree = make_random_tree(rng, 600)
    lines = set(edge_set(tree))
    while len(lines) < 599 + 60:
        lines.add(tuple(sorted(int(b) for b in rng.choice(600, size=2, replace=False))))
    g = make_grid(0, range(600), list(tree.lines) + [(i, j, 0.05, 0.1) for i, j in sorted(lines - edge_set(tree))])
    stats = InjectionStats.uniform(g)

    def dense(*args, **kwargs):
        raise AssertionError("the exact path built a d x d array")

    monkeypatch.setattr(Pairs, "dense", dense)
    for module in (grid_module, powerflow):
        monkeypatch.setattr(module, "reduced_laplacian", dense)
        monkeypatch.setattr(module, "dense_from_entries", dense)
    for model in ("dc", "lc"):
        conc = (dc_concentration if model == "dc" else lc_concentration)(g, stats)
        for algo in ("thresholding", "counting"):
            try:
                reconstruct(conc, algo)
            except (AmbiguousLeafError, ReconstructionError):
                pass  # counting's own limits, met after the scan
        assert "matrix" not in vars(conc)
    assert check_sufficiency(g, stats).certificates


@pytest.mark.parametrize("model", ["dc", "lc"])
def test_estimate_path_never_builds_the_dense_view(radial20, monkeypatch, model):
    # the z-score rules read an estimate's J and its standard errors as pairs
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), model, 400, seed=0)
    est = estimate_concentration(s)

    def dense(*args, **kwargs):
        raise AssertionError("the estimate path built a d x d array")

    monkeypatch.setattr(Pairs, "dense", dense)
    for algo in ("thresholding", "counting"):
        try:
            reconstruct(est.concentration, algo, est=est)
        except ReconstructionError:
            pass  # counting's own limit on a radial grid, met after the scan
    assert "matrix" not in vars(est.concentration)


@pytest.mark.parametrize("model", ["dc", "lc"])
def test_a_stack_learns_each_trial_as_alone(radial20, model):
    # one threshold pass over a stack of estimates: each trial's edges,
    # graphical-model mask and bus adjacency are those it has estimated alone
    plan = draw_plan(radial20, InjectionStats.uniform(radial20), model)
    seeds = [11, 12, 13, 14]
    stack = estimate_concentration(draw_sample_covariance(plan, 400, seeds))
    alone = [estimate_concentration(draw_sample_covariance(plan, 400, s)) for s in seeds]
    topos = reconstruct(stack.concentration, "thresholding", est=stack)
    assert [t.edges for t in topos] == [
        reconstruct(e.concentration, "thresholding", est=e).edges for e in alone]
    t1, scale = resolve_tau1("auto", stack.concentration, stack)
    gm = build_graphical_model(stack.concentration, t1, scale)
    J = stack.concentration.pairs
    mask = np.abs(J.vals) / scale.vals >= t1
    for k, est in enumerate(alone):
        t1_alone, scale_alone = resolve_tau1("auto", est.concentration, est)
        assert np.array_equal(mask[k], np.abs(est.concentration.pairs.vals) / scale_alone.vals >= t1_alone)
        trial = GraphicalModel(stack.concentration.labels, J.rows, J.cols, mask[k], model, t1)
        one = build_graphical_model(est.concentration, t1_alone, scale_alone)
        assert np.array_equal(trial.adjacency, one.adjacency) and one.adjacency.any()
        assert np.array_equal(gm.adjacency[k], one.adjacency)
        assert hybridize(trial) == hybridize(one)


def test_counting_ambiguous_leaf_is_named():
    # hand-built DC GM: skeleton triangle {1,2,3}; 4 and 9 attach to all of it,
    # so neither has a unique attachment vertex
    buses = (1, 2, 3, 4, 9)
    edges = {(1, 2), (1, 3), (2, 3)}
    edges |= {(b, 4) for b in (1, 2, 3)} | {(b, 9) for b in (1, 2, 3)}
    with pytest.raises(AmbiguousLeafError, match="bus 4 has 3 attachment candidates"):
        learn_by_counting(dc_gm(buses, edges))


def dc_gm(buses, edges) -> GraphicalModel:
    """The DC graphical model over ``buses`` joining the bus pairs ``edges``."""
    rows, cols = np.triu_indices(len(buses), 1)
    mask = adjacency_of(buses, edges)[rows, cols]
    return GraphicalModel(tuple(VarLabel("theta", b) for b in buses), rows, cols, mask, "dc", 1.0)


def counting_oracle(gm: GraphicalModel) -> frozenset[tuple[int, int]]:
    """Neighbourhood counting on one graphical model as a scan of bus sets,
    the reference the array learner must match, errors included: the edge
    set it learns."""
    adj = hybridize(gm)
    vertices = tuple(adj)
    # k and l both neighbour i, so they sit at GM distance 2 unless adjacent
    skeleton = {
        (i, j) for i in vertices for j in adj[i]
        if i < j and any(l not in adj[k] for k, l in combinations(adj[i] & adj[j], 2))
    }
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
        candidates = [i for i in want if want == ({i} | skel_adj[i])]
        if len(candidates) != 1:
            raise AmbiguousLeafError(
                f"leaf bus {u} has {len(candidates)} attachment candidates "
                f"{sorted(candidates)}; cannot determine its line"
            )
        edges.add((min(u, candidates[0]), max(u, candidates[0])))
    return frozenset(edges)


def outcome(edges):
    """The edge set ``edges()`` returns, or the type and text of its error."""
    try:
        return edges()
    except GridTopoError as exc:
        return type(exc), str(exc)


def assert_stack_matches_oracle(labels, rows, cols, masks, model):
    # every trial of the stack, and the trial learned alone from its own
    # mask, as the oracle
    stack = learn_by_counting(GraphicalModel(labels, rows, cols, masks, model, 1.0))
    assert stack.adjacency.ndim == 3 and len(stack.errors) == len(masks)
    for k, mask in enumerate(masks):
        one = GraphicalModel(labels, rows, cols, mask, model, 1.0)
        want = outcome(lambda: counting_oracle(one))
        assert outcome(lambda: stack[k].edges) == want
        assert outcome(lambda: learn_by_counting(one).edges) == want
        if stack.errors[k] is not None:
            assert not stack.adjacency[k].any()


@st.composite
def bus_graph_stacks(draw, max_buses: int = 25, min_buses: int = 1):
    """The (labels, rows, cols, masks, model) of a stack of 1-4 graphical
    models over up to ``max_buses``, DC or LC-style (v and theta per bus),
    masks variable-level: each the distance <= 2 closure of a random
    forest with chords (triangles included) and isolated buses, with a few
    bus pairs flipped.  An LC bus pair is joined through a random non-empty
    subset of its four variable pairs; a v-theta pair on one bus joins
    nothing."""
    n_buses = draw(st.integers(min_buses, max_buses))
    model = draw(st.sampled_from(["dc", "lc"]))
    trials = draw(st.integers(1, 4))
    chords, isolated = draw(st.sampled_from([0, 0, 1, 3])), draw(st.sampled_from([0, 0, 0, 1, 2]))
    flips = draw(st.sampled_from([0.0, 0.0, 0.0, 0.01, 0.05]))
    splits = draw(st.sampled_from([0.0, 0.0, 0.03]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    buses = np.sort(rng.choice(4 * max_buses, n_buses, replace=False))
    kinds = ["v", "theta"] if model == "lc" else ["theta"]
    labels = tuple(VarLabel(kind, int(b)) for kind in kinds for b in buses)
    rows, cols = np.triu_indices(len(labels), 1)
    bus_of, kind_of = np.arange(len(labels)) % n_buses, np.arange(len(labels)) // n_buses
    lo, hi = np.minimum(bus_of[rows], bus_of[cols]), np.maximum(bus_of[rows], bus_of[cols])
    # which of the up to four variable pairs of a bus pair this one is
    code = np.where(bus_of[rows] < bus_of[cols], 2 * kind_of[rows] + kind_of[cols],
                    2 * kind_of[cols] + kind_of[rows])
    masks = []
    for _ in range(trials):
        A = np.zeros((n_buses, n_buses), dtype=bool)
        tree = rng.permutation(n_buses)[: max(n_buses - isolated, 0)]
        for k in range(1, len(tree)):
            if rng.random() >= splits:  # else a new component starts
                A[tree[k], tree[rng.integers(k)]] = True
        for _ in range(chords):
            a, b = rng.integers(n_buses, size=2)
            A[a, b] = a != b
        A |= A.T
        A |= (A.astype(int) @ A.astype(int) > 0) & ~np.eye(n_buses, dtype=bool)
        A ^= np.triu(rng.random(A.shape) < flips, 1)
        A = np.triu(A, 1)
        A |= A.T
        # each joined bus pair keeps one chosen variable pair and maybe more
        chosen = rng.integers(len(kinds) ** 2, size=A.shape)[lo, hi] == code
        mask = A[lo, hi] & (chosen | (rng.random(len(rows)) < 0.5))
        masks.append(mask | ((lo == hi) & (rng.random(len(rows)) < 0.3)))
    return labels, rows, cols, np.array(masks), model


@settings(max_examples=150, deadline=None)
@given(bus_graph_stacks())
def test_counting_on_a_stack_matches_the_set_scan(parts):
    assert_stack_matches_oracle(*parts)


@settings(max_examples=25, deadline=None)
@given(bus_graph_stacks(max_buses=140, min_buses=60))
def test_counting_on_rows_of_several_words_matches_the_set_scan(parts):
    # more than 64 buses: a packed row spans several uint64 words
    assert_stack_matches_oracle(*parts)


@pytest.mark.parametrize("model", ["dc", "lc"])
def test_counting_on_drawn_radial20_stacks_matches_the_set_scan(radial20, model):
    # the sweep's estimates: at these counts counting fails, errs and succeeds
    plan = draw_plan(radial20, InjectionStats.uniform(radial20), model)
    for n in (200, 1000, 5000):
        est = estimate_concentration(draw_sample_covariance(plan, n, list(range(20))))
        t1, scale = resolve_tau1("auto", est.concentration, est)
        J = est.concentration.pairs
        mask = np.abs(J.vals) / scale.vals >= t1
        gm = build_graphical_model(est.concentration, t1, scale)
        assert np.array_equal(gm.adjacency, GraphicalModel(est.concentration.labels, J.rows, J.cols,
                                                           mask, model, t1).adjacency)
        assert_stack_matches_oracle(est.concentration.labels, J.rows, J.cols, mask, model)


def complete_gm(n_buses: int, missing=()) -> GraphicalModel:
    """The DC graphical model joining every bus pair but ``missing``."""
    labels = tuple(VarLabel("theta", b) for b in range(n_buses))
    rows, cols = np.triu_indices(n_buses, 1)
    mask = np.ones(len(rows), dtype=bool)
    for k, l in missing:
        mask[(rows == k) & (cols == l)] = False
    return GraphicalModel(labels, rows, cols, mask, "dc", 1.0)


def test_counting_on_a_near_complete_graphical_model_is_bounded():
    # every pair of a complete GM is adjacent, so no edge has a witness; with
    # (k, l) missing, exactly the edges whose common neighbourhood holds both
    # k and l (those touching neither) have one.  Leaves k and l then match
    # every skeleton bus.  A scan of common-neighbour pairs would take minutes
    n, k, l = 200, 37, 150
    with pytest.raises(ReconstructionError, match="no non-leaf skeleton"):
        learn_by_counting(complete_gm(n))
    gm = complete_gm(n, [(k, l)])
    others = [b for b in range(n) if b not in (k, l)]
    want = np.zeros((n, n), dtype=bool)
    want[np.ix_(others, others)] = True
    np.fill_diagonal(want, False)
    assert np.array_equal(learning._skeleton(gm.adjacency[None])[0], want)
    with pytest.raises(AmbiguousLeafError) as info:
        learn_by_counting(gm)
    assert str(info.value) == (f"leaf bus {k} has {n - 2} attachment candidates {others}; "
                               f"cannot determine its line")


def test_the_skeleton_pass_is_chunked_without_changing_it(monkeypatch):
    # passes of a few candidates each give the skeleton of one pass
    gm = complete_gm(30, [(3, 9), (4, 20), (11, 12)])
    one_pass = learning._skeleton(gm.adjacency[None])
    monkeypatch.setattr(learning, "WEDGE_CHUNK", 7)
    assert np.array_equal(learning._skeleton(gm.adjacency[None]), one_pass)
    assert one_pass.any() and not one_pass.all()


# ----------------------------------------------------------------------
# algorithm 2: thresholding
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["radial20", "loopy20_c4", "ieee14"])
@pytest.mark.parametrize("model", ["dc", "lc"])
def test_thresholding_exact_recovery(name, model):
    g = builtin_grid(name)
    st = InjectionStats.uniform(g)
    conc = (dc_concentration if model == "dc" else lc_concentration)(g, st)
    topo = learn_by_thresholding(conc, default_exact_tau2(conc))
    err = edge_errors(topo, g)
    assert (err.false_positives, err.false_negatives) == (0, 0)


def test_thresholding_rejects_bad_tau(radial20):
    conc = dc_concentration(radial20, InjectionStats.uniform(radial20))
    with pytest.raises(ConfigError, match="tau2 must be a negative number"):
        learn_by_thresholding(conc, 0.5)
    for other in (Pairs.of_dense(np.ones((3, 3))), Pairs.of_dense(np.ones((19, 19)))):
        with pytest.raises(ConfigError, match="scale is not listed at the positions"):
            learn_by_thresholding(conc, -1.0, scale=other)


def test_noise_scales(radial20):
    # the pair standard errors equal the dense delta-method oracle bit for bit
    st = InjectionStats.uniform(radial20)
    s_dc = generate_voltage_samples(radial20, st, "dc", 400, seed=0)
    est_dc = estimate_concentration(s_dc)
    se = dense_standard_error(est_dc.concentration.matrix, 400)
    assert np.array_equal(concentration_standard_error(est_dc.concentration.pairs, 400).dense(), se)
    assert np.array_equal(gm_noise_scale(est_dc).dense(), se)
    assert np.array_equal(thresholding_noise_scale(est_dc).dense(), se)

    s_lc = generate_voltage_samples(radial20, st, "lc", 400, seed=0)
    est_lc = estimate_concentration(s_lc)
    se = dense_standard_error(est_lc.concentration.matrix, 400)
    assert np.array_equal(gm_noise_scale(est_lc).dense(), se)
    want = se[:19, :19] + se[19:, 19:]
    assert np.array_equal(thresholding_noise_scale(est_lc).dense(), want)
    assert thresholding_noise_scale(est_lc).dim == 19


# ----------------------------------------------------------------------
# scoring
# ----------------------------------------------------------------------


def test_edge_errors_cases(radial20):
    truth_edges = frozenset(
        ln.key for ln in radial20.lines if radial20.reference not in (ln.i, ln.j)
    )
    buses = radial20.non_reference_buses
    for edges in (truth_edges, frozenset(), truth_edges | {(1, 19)}, {(1, 19), (5, 7)}):
        err = edge_errors(LearnedTopology(buses, adjacency_of(buses, edges), "counting"), radial20)
        fp, fn = edges - truth_edges, truth_edges - edges
        assert err == EdgeErrors(len(fp), len(fn)) and err.total == len(fp) + len(fn)
    err = edge_errors(LearnedTopology(buses, adjacency_of(buses, ()), "thresholding"), radial20)
    assert (err.false_positives, err.false_negatives, err.total) == (0, 18, 18)

    with pytest.raises(GridStructureError, match="non-reference buses"):
        edge_errors(LearnedTopology((1, 2), np.zeros((2, 2), dtype=bool), "counting"), radial20)


@pytest.mark.parametrize("seeds", [1, [1, 2, 3, 4]], ids=["one", "stack"])
def test_edge_errors_read_the_adjacency_at_the_lines(radial20, seeds):
    # one pass over the adjacency gives each trial's counts, whatever the
    # order its buses are listed in: ints for one topology, equal to those
    # of its stack of one, and (T,) arrays for a stack
    plan = draw_plan(radial20, InjectionStats.uniform(radial20), "dc")
    est = estimate_concentration(draw_sample_covariance(plan, 300, seeds))
    learned = reconstruct(est.concentration, "thresholding", tau2=-2.0, est=est)
    order = np.random.default_rng(0).permutation(len(learned.buses))
    shuffled = LearnedTopology(tuple(np.array(learned.buses)[order].tolist()),
                               learned.adjacency[..., order, :][..., order], "thresholding",
                               errors=learned.errors)
    truth = edge_set(radial20) - {ln.key for ln in radial20.lines if radial20.reference in ln.key}
    topos = list(learned) if learned.adjacency.ndim == 3 else [learned]
    want = [(len(topo.edges - truth), len(truth - topo.edges)) for topo in topos]
    assert len(topos) == len(np.atleast_1d(seeds)) and sum(map(sum, want)) > 0
    for scored in (learned, shuffled):
        err = edge_errors(scored, radial20)
        if learned.adjacency.ndim == 3:
            assert err.false_positives.shape == err.false_negatives.shape == (len(topos),)
        else:
            assert all(type(c) is int for c in (err.false_positives, err.false_negatives, err.total))
            single = estimate_concentration(draw_sample_covariance(plan, 300, [seeds]))
            of_one = edge_errors(reconstruct(single.concentration, "thresholding", tau2=-2.0,
                                             est=single), radial20)
            assert [err.false_positives, err.false_negatives] == [
                of_one.false_positives.tolist()[0], of_one.false_negatives.tolist()[0]]
        got = zip(np.atleast_1d(err.false_positives).tolist(), np.atleast_1d(err.false_negatives).tolist())
        assert list(got) == want
        assert np.array_equal(err.total, np.add(err.false_positives, err.false_negatives))
    with pytest.raises(GridStructureError, match="non-reference buses"):
        edge_errors(LearnedTopology((1, 2), np.zeros((1, 2, 2), dtype=bool), "counting"), radial20)


def test_topology_json_roundtrip(tmp_path, radial20):
    conc = dc_concentration(radial20, InjectionStats.uniform(radial20))
    topo = learn_by_thresholding(conc, default_exact_tau2(conc))
    path = tmp_path / "topo.json"
    write_topology_json(topo, path)
    back = load_topology_json(path)
    assert back.edges == topo.edges
    assert back.buses == topo.buses
    assert back.algorithm == "thresholding"
    assert back.params["model"] == "dc"


# ----------------------------------------------------------------------
# sufficiency certificates
# ----------------------------------------------------------------------


def test_sufficiency_radial_is_trivially_safe(radial20):
    report = check_sufficiency(radial20, InjectionStats.uniform(radial20))
    assert len(report.certificates) == 18  # one reference-incident line skipped
    assert all_satisfied(report)
    assert all(c.theorem == "trivially-safe" for c in report.certificates)
    assert all(math.isinf(c.margin) for c in report.certificates)


def test_sufficiency_ieee14_uniform(ieee14):
    report = check_sufficiency(ieee14, InjectionStats.uniform(ieee14))
    assert len(report.certificates) == 18  # two reference-incident lines skipped
    assert all_satisfied(report)
    tags = {c.theorem for c in report.certificates}
    assert "T10" in tags and "T9" in tags


def test_sufficiency_detects_unrecoverable_edge(ieee14):
    # crushing the variance at bus 5 spoils the opposite leg of the
    # 5-11-12 triangle
    pp = np.ones(13)
    pp[ieee14.index_of[5]] = 0.1
    stats = InjectionStats(pp, np.ones(13), np.zeros(13))
    report = check_sufficiency(ieee14, stats)
    assert not all_satisfied(report)
    bad = {c.edge for c in report.certificates if not c.satisfied}
    assert bad == {(11, 12)}
    # the exact concentration entry there is indeed non-negative
    J = np.linalg.inv(dc_phase_covariance(ieee14, stats))
    k, l = ieee14.index_of[11], ieee14.index_of[12]
    assert J[k, l] >= 0


def test_sufficiency_single_neighbor_uses_t8():
    # one triangle on a 4-bus grid: |K| = 1 off the reference
    g = make_grid(
        0,
        range(4),
        [(0, 1, 0.01, 0.05), (1, 2, 0.01, 0.05), (1, 3, 0.01, 0.05), (2, 3, 0.01, 0.05)],
    )
    pp = np.array([1.0, 2.0, 0.7])
    report = check_sufficiency(g, InjectionStats(pp, np.ones(3), np.zeros(3)))
    by_edge = {c.edge: c for c in report.certificates}
    assert by_edge[(2, 3)].theorem == "T8"  # non-uniform variances: no T10
    assert "T9" in by_edge[(2, 3)].checks


def test_sufficiency_soundness_and_t9_exactness(make_random_triangle_grid):
    rng = np.random.default_rng(5)
    checked = 0
    for k in range(30):
        g = make_random_triangle_grid(rng)
        m = len(g.non_reference_buses)
        if k % 2:
            stats = InjectionStats(rng.uniform(0.3, 3.0, m), np.ones(m), np.zeros(m))
        else:
            stats = InjectionStats.uniform(g, 1.0, 1.0, 0.0)
        report = check_sufficiency(g, stats)
        J = np.linalg.inv(dc_phase_covariance(g, stats))
        for cert in report.certificates:
            i, j = cert.edge
            entry = J[g.index_of[i], g.index_of[j]]
            for ok, _margin in cert.checks.values():
                if ok:
                    assert entry < 0  # satisfied certificates are sound
            # the general criterion is exact in both directions
            if "T9" in cert.checks and abs(entry) > 1e-9 * np.abs(J).max():
                assert cert.checks["T9"][0] == (entry < 0)
            checked += 1
    assert checked > 100


def test_sufficiency_stats_mismatch(radial20):
    with pytest.raises(InvalidInjectionStatsError):
        check_sufficiency(radial20, InjectionStats.uniform(builtin_grid("ieee14")))


def test_sufficiency_csv(tmp_path, ieee14):
    report = check_sufficiency(ieee14, InjectionStats.uniform(ieee14))
    path = tmp_path / "cert.csv"
    write_sufficiency_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 18
    assert set(rows[0]) == {"edge", "theorem", "satisfied", "margin"}
    assert all(r["satisfied"] == "true" for r in rows)
    radial_report = check_sufficiency(
        builtin_grid("radial20"), InjectionStats.uniform(builtin_grid("radial20"))
    )
    write_sufficiency_csv(radial_report, path)
    with open(path, newline="") as fh:
        assert all(r["margin"] == "inf" for r in csv.DictReader(fh))


# ----------------------------------------------------------------------
# parameter learning
# ----------------------------------------------------------------------


def test_learn_parameters_roundtrip(radial20):
    rng = np.random.default_rng(21)
    st = InjectionStats(rng.uniform(0.5, 2.0, 19), np.ones(19), np.zeros(19))
    H = reduced_laplacian(radial20)
    got = learn_parameters(dc_phase_covariance(radial20, st), st.sigma_pp)
    assert np.abs(got - H).max() / np.abs(H).max() < 1e-9


def test_learn_parameters_accepts_full_injection_covariance(ieee14):
    st = InjectionStats.uniform(ieee14, 1.3, 1.0, 0.0)
    H = reduced_laplacian(ieee14)
    P = np.diag(st.sigma_pp)
    got = learn_parameters(dc_phase_covariance(ieee14, st), P)
    assert np.abs(got - H).max() / np.abs(H).max() < 1e-9


def test_learn_parameters_scalar_case():
    g = make_grid(0, [0, 1], [(0, 1, 0.6, 0.8)])  # susceptance 0.8
    sigma = np.array([2.5])
    cov = np.array([[2.5 / 0.8**2]])
    np.testing.assert_allclose(learn_parameters(cov, sigma), [[0.8]], rtol=1e-12)
    assert reduced_laplacian(g)[0, 0] == pytest.approx(0.8)


def test_learn_parameters_errors(radial20):
    cov = dc_phase_covariance(radial20, InjectionStats.uniform(radial20))
    with pytest.raises(ConfigError, match="does not match"):
        learn_parameters(cov, np.ones(5))
    with pytest.raises(ReconstructionError, match="PSD"):
        learn_parameters(cov, -np.ones(19))
    with pytest.raises(ReconstructionError, match="not positive definite"):
        learn_parameters(-cov, np.ones(19))
