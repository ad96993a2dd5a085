"""Topology reconstruction: GM building, both algorithms, certificates,
edge scoring and parameter recovery."""
import csv
import math

import numpy as np
import pytest

from gridtopo.estimation import estimate_concentration
from gridtopo.exceptions import (
    AmbiguousLeafError,
    ConfigError,
    GridStructureError,
    InvalidInjectionStatsError,
    ReconstructionError,
)
from gridtopo.grid import builtin_grid, make_grid, reduced_laplacian
from gridtopo.learning import (
    EdgeErrors,
    GraphicalModel,
    HybridGraph,
    LearnedTopology,
    build_graphical_model,
    check_sufficiency,
    concentration_standard_error,
    default_exact_tau1,
    default_exact_tau2,
    edge_errors,
    gm_noise_scale,
    hybridize,
    largest_gap_threshold,
    learn_by_counting,
    learn_by_thresholding,
    learn_parameters,
    load_topology_json,
    thresholding_noise_scale,
    write_sufficiency_csv,
    write_topology_json,
)
from gridtopo.powerflow import (
    InjectionStats,
    VarLabel,
    dc_concentration,
    dc_phase_covariance,
    lc_concentration,
)
from gridtopo.sampling import generate_voltage_samples


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
    stat = conc.matrix if model == "dc" else conc.block("v", "v") + conc.block("theta", "theta")
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
    with pytest.raises(ConfigError, match="scale shape"):
        build_graphical_model(conc, 1.0, scale=np.ones((2, 2)))
    # dividing by an all-ones scale changes nothing
    tau = default_exact_tau1(conc)
    plain = build_graphical_model(conc, tau)
    scaled = build_graphical_model(conc, tau, scale=np.ones_like(conc.matrix))
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
    dc_buses = hybridize(dc_gm)
    assert hybrid.buses == dc_buses.buses == loopy20_c4.non_reference_buses
    assert hybrid.edges == dc_buses.edges


def test_largest_gap_threshold():
    assert largest_gap_threshold(np.array([10.0, 9.0, 1.0, 0.5])) == pytest.approx(3.0)
    assert largest_gap_threshold(np.array([2.0, 2.0, 2.0])) == pytest.approx(2.0)
    assert largest_gap_threshold(np.array([])) == 0.0
    assert largest_gap_threshold(np.array([0.0])) == 0.0
    one = largest_gap_threshold(np.array([5.0]))
    assert 0.0 < one < 5.0


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


def test_counting_ambiguous_leaf_is_named():
    # hand-built GM: skeleton triangle {1,2,3}; 4 and 9 attach to all of it,
    # so neither has a unique attachment vertex
    buses = (1, 2, 3, 4, 9)
    edges = {(1, 2), (1, 3), (2, 3)}
    edges |= {(b, 4) for b in (1, 2, 3)} | {(b, 9) for b in (1, 2, 3)}
    graph = HybridGraph(
        buses=buses,
        edges=frozenset((min(a, b), max(a, b)) for a, b in edges),
        model="dc",
        tau1=1.0,
    )
    with pytest.raises(AmbiguousLeafError, match="bus 4 has 3 attachment candidates"):
        learn_by_counting(graph)


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
    with pytest.raises(ConfigError, match="scale shape"):
        learn_by_thresholding(conc, -1.0, scale=np.ones((3, 3)))


def test_noise_scales(radial20):
    st = InjectionStats.uniform(radial20)
    s_dc = generate_voltage_samples(radial20, st, "dc", 400, seed=0)
    est_dc = estimate_concentration(s_dc)
    np.testing.assert_allclose(
        gm_noise_scale(est_dc), concentration_standard_error(est_dc.matrix, 400)
    )
    np.testing.assert_allclose(thresholding_noise_scale(est_dc), gm_noise_scale(est_dc))

    s_lc = generate_voltage_samples(radial20, st, "lc", 400, seed=0)
    est_lc = estimate_concentration(s_lc)
    se = concentration_standard_error(est_lc.matrix, 400)
    want = se[:19, :19] + se[19:, 19:]
    np.testing.assert_allclose(thresholding_noise_scale(est_lc), want)
    assert thresholding_noise_scale(est_lc).shape == (19, 19)


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
    assert report.all_satisfied
    assert all(c.theorem == "trivially-safe" for c in report.certificates)
    assert all(math.isinf(c.margin) for c in report.certificates)


def test_sufficiency_ieee14_uniform(ieee14):
    report = check_sufficiency(ieee14, InjectionStats.uniform(ieee14))
    assert len(report.certificates) == 18  # two reference-incident lines skipped
    assert report.all_satisfied
    tags = {c.theorem for c in report.certificates}
    assert "T10" in tags and "T9" in tags


def test_sufficiency_detects_unrecoverable_edge(ieee14):
    # crushing the variance at bus 5 spoils the opposite leg of the
    # 5-11-12 triangle
    pp = np.ones(13)
    pp[ieee14.index_of[5]] = 0.1
    stats = InjectionStats(pp, np.ones(13), np.zeros(13))
    report = check_sufficiency(ieee14, stats)
    assert not report.all_satisfied
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
