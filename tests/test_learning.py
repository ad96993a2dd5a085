"""Topology reconstruction: GM building, both algorithms, certificates,
edge scoring and parameter recovery."""
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_satisfied, block, edge_set, load_topology_json
from gridtopo import grid as grid_module, powerflow
from gridtopo.estimation import estimate_concentration
from gridtopo.exceptions import (
    AmbiguousLeafError,
    ConfigError,
    GridStructureError,
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
    t = lambda b: VarLabel("theta", b)
    assert gm.edges == frozenset({(t(1), t(2)), (t(2), t(3)), (t(1), t(3))})


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
    assert plain.edges == scaled.edges


def test_gm_support_is_distance_one_or_two(loopy20_c7):
    from gridtopo.grid import bus_distance

    conc = dc_concentration(loopy20_c7, InjectionStats.uniform(loopy20_c7))
    gm = build_graphical_model(conc, default_exact_tau1(conc))
    want = {
        (VarLabel("theta", i), VarLabel("theta", j))
        for i in loopy20_c7.non_reference_buses
        for j in loopy20_c7.non_reference_buses
        if i < j and bus_distance(loopy20_c7, i, j, through_reference=False) in (1, 2)
    }
    assert gm.edges == want


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
        want = {tuple(sorted((conc.labels[a], conc.labels[b]))) for a, b in zip(rows, cols)}
        assert build_graphical_model(conc, tau1).edges == want


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
    rows, cols = np.nonzero(np.triu(mask, k=1))
    return {tuple(sorted((keys[a], keys[b]))) for a, b in zip(rows, cols)}


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
    gm_want = dense_edges(np.abs(J) / se >= t1, conc.labels)
    assert build_graphical_model(conc, t1, s1).edges == gm_want
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
    # graphical model and bus adjacency are those it has estimated alone
    plan = draw_plan(radial20, InjectionStats.uniform(radial20), model)
    seeds = [11, 12, 13, 14]
    stack = estimate_concentration(draw_sample_covariance(plan, 400, seeds))
    alone = [estimate_concentration(draw_sample_covariance(plan, 400, s)) for s in seeds]
    topos = reconstruct(stack.concentration, "thresholding", est=stack)
    assert [t.edges for t in topos] == [
        reconstruct(e.concentration, "thresholding", est=e).edges for e in alone]
    t1, scale = resolve_tau1("auto", stack.concentration, stack)
    gm = build_graphical_model(stack.concentration, t1, scale)
    for k, est in enumerate(alone):
        one = build_graphical_model(est.concentration, *resolve_tau1("auto", est.concentration, est))
        assert gm[k].edges == one.edges and len(one.edges) > 0
        assert hybridize(gm[k]) == hybridize(one)


def test_counting_ambiguous_leaf_is_named():
    # hand-built DC GM: skeleton triangle {1,2,3}; 4 and 9 attach to all of it,
    # so neither has a unique attachment vertex
    buses = (1, 2, 3, 4, 9)
    edges = {(1, 2), (1, 3), (2, 3)}
    edges |= {(b, 4) for b in (1, 2, 3)} | {(b, 9) for b in (1, 2, 3)}
    theta = {b: VarLabel("theta", b) for b in buses}
    gm = GraphicalModel(
        labels=tuple(theta.values()),
        edges=frozenset((theta[min(a, b)], theta[max(a, b)]) for a, b in edges),
        model="dc",
        tau1=1.0,
    )
    with pytest.raises(AmbiguousLeafError, match="bus 4 has 3 attachment candidates"):
        learn_by_counting(gm)


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
    perfect = LearnedTopology(buses, truth_edges, "thresholding")
    assert edge_errors(perfect, radial20) == EdgeErrors(0, 0, frozenset(), frozenset())

    empty = LearnedTopology(buses, frozenset(), "thresholding")
    err = edge_errors(empty, radial20)
    assert (err.false_positives, err.false_negatives, err.total) == (0, 18, 18)
    assert err.fn_edges == truth_edges

    extra = LearnedTopology(buses, truth_edges | {(1, 19)}, "counting")
    err = edge_errors(extra, radial20)
    assert err.false_positives == 1 and err.fp_edges == frozenset({(1, 19)})

    with pytest.raises(GridStructureError, match="non-reference buses"):
        edge_errors(LearnedTopology((1, 2), frozenset(), "counting"), radial20)


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
