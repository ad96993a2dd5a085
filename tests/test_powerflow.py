"""Analytic concentration matrices: DC and LC products vs independent oracles."""
import numpy as np
import pytest

from gridtopo.exceptions import (
    InvalidInjectionStatsError,
    ModelMismatchError,
    UnknownBusError,
)
from gridtopo.grid import builtin_grid, bus_distance, make_grid, reduced_laplacian, susceptance
from gridtopo.powerflow import (
    ConcentrationMatrix,
    InjectionStats,
    VarLabel,
    dc_concentration,
    dc_labels,
    dc_phase_covariance,
    lc_concentration,
    lc_labels,
    lc_system_matrix,
    lc_threshold_statistic,
    lc_voltage_covariance,
    parse_label,
    solve_dc,
    solve_lc,
)

GRID_NAMES = ("radial20", "loopy20_c4", "loopy20_c7", "ieee14")


def path_grid(n_buses: int, r: float = 0.0, x: float = 1.0):
    return make_grid(0, range(n_buses), [(b, b + 1, r, x) for b in range(n_buses - 1)])


def random_stats(grid, rng):
    m = len(grid.non_reference_buses)
    pp = rng.uniform(0.5, 2.0, m)
    qq = rng.uniform(0.5, 2.0, m)
    pq = rng.uniform(-0.6, 0.6, m) * np.sqrt(pp * qq)
    return InjectionStats(pp, qq, pq)


# ----------------------------------------------------------------------
# labels
# ----------------------------------------------------------------------


def test_labels_and_parse(radial20):
    dc = dc_labels(radial20)
    assert dc[0] == VarLabel("theta", 1) and len(dc) == 19
    lc = lc_labels(radial20)
    assert lc[0] == VarLabel("v", 1) and lc[19] == VarLabel("theta", 1)
    assert parse_label("theta_12") == VarLabel("theta", 12)
    assert parse_label("v_3").text == "v_3"
    for bad in ("x_1", "theta_", "v_one", "12"):
        with pytest.raises(ValueError):
            parse_label(bad)


# ----------------------------------------------------------------------
# injection statistics
# ----------------------------------------------------------------------


def test_injection_stats_uniform(radial20):
    st = InjectionStats.uniform(radial20, 1.0, 2.0, 0.5)
    assert st.n == 19
    np.testing.assert_allclose(st.det, np.full(19, 1.75))
    np.testing.assert_allclose(st.sigma_pq, 0.5)


@pytest.mark.parametrize(
    "pp,qq,pq,match",
    [
        ([1.0, 1.0], [1.0], [0.0, 0.0], "equally sized"),
        ([1.0, -1.0], [1.0, 1.0], [0.0, 0.0], "must be positive"),
        ([1.0, np.nan], [1.0, 1.0], [0.0, 0.0], "finite"),
        ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.5], "index 2"),
    ],
)
def test_injection_stats_validation(pp, qq, pq, match):
    with pytest.raises(InvalidInjectionStatsError, match=match):
        InjectionStats(pp, qq, pq)


def test_stats_grid_mismatch(radial20, ieee14):
    st = InjectionStats.uniform(ieee14)
    with pytest.raises(InvalidInjectionStatsError, match="19 non-reference"):
        dc_concentration(radial20, st)


# ----------------------------------------------------------------------
# concentration matrix container
# ----------------------------------------------------------------------


def test_concentration_matrix_symmetrizes_and_checks():
    labels = (VarLabel("theta", 1), VarLabel("theta", 2))
    M = np.array([[2.0, -1.0], [-1.0 + 1e-12, 2.0]])
    conc = ConcentrationMatrix(M, labels, "dc")
    assert conc.matrix[0, 1] == conc.matrix[1, 0]
    assert conc.buses == (1, 2)
    assert conc.matrix[0, 1] == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="not symmetric"):
        ConcentrationMatrix(np.array([[2.0, 1.0], [-1.0, 2.0]]), labels, "dc")
    with pytest.raises(ValueError, match="not positive definite"):
        ConcentrationMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), labels, "dc")
    with pytest.raises(ModelMismatchError):
        ConcentrationMatrix(np.eye(2), labels, "ac")


def test_concentration_matrix_checks_gram_products_too(radial20):
    # an exactly symmetric J skips the tolerance test, not the checks
    J = dc_concentration(radial20, InjectionStats.uniform(radial20)).matrix
    labels = dc_labels(radial20)
    assert np.array_equal(ConcentrationMatrix(J.copy(), labels, "dc").matrix, J)
    near = J.copy()
    near[0, 1] += 1e-12 * np.abs(J).max()
    sym = ConcentrationMatrix(near, labels, "dc").matrix
    assert np.array_equal(sym, sym.T) and sym[0, 1] == (near[0, 1] + near[1, 0]) / 2.0
    gross = J.copy()
    gross[0, 1] += 1e-3 * np.abs(J).max()
    with pytest.raises(ValueError, match="not symmetric"):
        ConcentrationMatrix(gross, labels, "dc")
    for indefinite in (-J, J - 2.0 * np.abs(J).max() * np.eye(J.shape[0]), near - np.diag(np.diag(near))):
        with pytest.raises(ValueError, match="not positive definite"):
            ConcentrationMatrix(indefinite, labels, "dc")


@pytest.mark.parametrize(
    "model,labels",
    [
        ("dc", ("v_1", "v_2")),
        ("dc", ("theta_1", "theta_1")),
        ("lc", ("theta_1", "theta_2")),
        ("lc", ("v_1", "v_2", "theta_2", "theta_1")),
        ("lc", ("v_1", "v_1", "theta_1", "theta_1")),
        ("lc", ("theta_1", "theta_2", "v_1", "v_2")),
    ],
)
def test_concentration_matrix_checks_label_layout(model, labels):
    # block() pairs the i-th v label with the i-th theta label, so a layout
    # it cannot read is rejected up front
    labels = tuple(parse_label(t) for t in labels)
    with pytest.raises(ValueError, match=f"{model} variables must be"):
        ConcentrationMatrix(np.eye(len(labels)), labels, model)


def test_concentration_matrix_accepts_model_layouts(radial20):
    for labels, model in ((dc_labels(radial20), "dc"), (lc_labels(radial20), "lc")):
        conc = ConcentrationMatrix(np.eye(len(labels)), labels, model)
        assert conc.buses == radial20.non_reference_buses
    assert ConcentrationMatrix(np.eye(0), (), "lc").buses == ()


def test_concentration_blocks(radial20):
    conc = lc_concentration(radial20, InjectionStats.uniform(radial20))
    vv = conc.block("v", "v")
    tt = conc.block("theta", "theta")
    assert vv.shape == tt.shape == (19, 19)
    np.testing.assert_allclose(conc.matrix[:19, :19], vv)
    np.testing.assert_allclose(conc.matrix[19:, 19:], tt)


# ----------------------------------------------------------------------
# DC model
# ----------------------------------------------------------------------


def test_solve_dc_residual(radial20):
    rng = np.random.default_rng(1)
    p = rng.standard_normal((7, 19))
    theta = solve_dc(radial20, p)
    H = reduced_laplacian(radial20)
    np.testing.assert_allclose(theta @ H, p, atol=1e-10)


def test_dc_concentration_scalar_case():
    g = make_grid(0, [0, 1], [(0, 1, 0.6, 0.8)])  # susceptance 0.8
    st = InjectionStats(np.array([4.0]), np.array([1.0]), np.array([0.0]))
    conc = dc_concentration(g, st)
    assert conc.matrix[0, 0] == pytest.approx(0.8**2 / 4.0)
    np.testing.assert_allclose(dc_phase_covariance(g, st), [[4.0 / 0.8**2]])


def test_dc_concentration_path3_frozen():
    # two unit-susceptance lines 0-1-2, unit variances: J = H^2
    conc = dc_concentration(path_grid(3), InjectionStats.uniform(path_grid(3), 1.0, 1.0, 0.0))
    np.testing.assert_allclose(conc.matrix, [[5.0, -3.0], [-3.0, 2.0]], atol=1e-12)


@pytest.mark.parametrize("name", GRID_NAMES)
def test_dc_concentration_inverts_covariance(name):
    g = builtin_grid(name)
    st = random_stats(g, np.random.default_rng(7))
    J = dc_concentration(g, st).matrix
    S = dc_phase_covariance(g, st)
    np.testing.assert_allclose(J @ S, np.eye(S.shape[0]), atol=1e-9)


def dc_closed_form(grid, stats):
    """The paper's entry-wise DC concentration, an oracle for the product.

    With b_ij the line susceptance, b_i the total susceptance at i (reference
    lines included), s the active-power variance and k over the common
    non-reference neighbors of i and j:

        J_ii = b_i^2/s_i + sum_k b_ik^2/s_k
        J_ij = -b_ij (b_i/s_i + b_j/s_j) + sum_k b_ik b_jk / s_k
    """
    order = grid.index_of
    s = stats.sigma_pp
    b_total = {bus: 0.0 for bus in grid.buses}
    for ln in grid.lines:
        b_total[ln.i] += susceptance(ln.r, ln.x)
        b_total[ln.j] += susceptance(ln.r, ln.x)

    def b(i, j):
        ln = grid.line_between(i, j)
        return susceptance(ln.r, ln.x) if ln is not None else 0.0

    buses = grid.non_reference_buses
    J = np.zeros((len(buses), len(buses)))
    for a, i in enumerate(buses):
        J[a, a] = b_total[i] ** 2 / s[a] + sum(
            b(i, k) ** 2 / s[order[k]] for k in grid.adjacency[i] if k in order
        )
        for c, j in enumerate(buses[a + 1:], start=a + 1):
            common = set(grid.adjacency[i]) & set(grid.adjacency[j])
            J[a, c] = J[c, a] = -b(i, j) * (b_total[i] / s[a] + b_total[j] / s[c]) + sum(
                b(i, k) * b(j, k) / s[order[k]] for k in common if k in order
            )
    return J


def test_dc_closed_form_equals_product_form():
    for k, name in enumerate(GRID_NAMES):
        g = builtin_grid(name)
        st = random_stats(g, np.random.default_rng(3 + k))
        want = dc_closed_form(g, st)
        got = dc_concentration(g, st).matrix
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def injection_covariance(stats):
    """Dense Cov([p; q]): each bus's 2x2 covariance spread over the four
    n x n diagonal blocks."""
    n = stats.n
    out = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    out[idx, idx] = stats.sigma_pp
    out[n + idx, n + idx] = stats.sigma_qq
    out[idx, n + idx] = out[n + idx, idx] = stats.sigma_pq
    return out


def two_solve_covariance(grid, stats, model):
    """The voltage covariance by its definition, S^{-1} Cov(injections) S^{-1},
    as two solves against the dense injection covariance; returns it with S."""
    if model == "dc":
        S, cov = reduced_laplacian(grid, "susceptance"), np.diag(stats.sigma_pp)
    else:
        S, cov = lc_system_matrix(grid), injection_covariance(stats)
    X = np.linalg.solve(S, cov)
    return np.linalg.solve(S, X.T).T, S


@pytest.mark.parametrize("stats_kind", ["uniform", "random"])
@pytest.mark.parametrize("model", ["dc", "lc"])
@pytest.mark.parametrize("name", GRID_NAMES)
def test_covariances_match_the_two_solve_route(name, model, stats_kind):
    # M^{-1} M^{-T} is one symmetric product, so exactly symmetric; both
    # routes lie within about cond(S) * eps of the exact covariance
    g = builtin_grid(name)
    st = InjectionStats.uniform(g) if stats_kind == "uniform" else random_stats(g, np.random.default_rng(23))
    cov = (dc_phase_covariance if model == "dc" else lc_voltage_covariance)(g, st)
    want, S = two_solve_covariance(g, st, model)
    assert np.array_equal(cov, cov.T)
    tol = max(1e-12, np.finfo(float).eps * np.linalg.cond(S))
    assert np.abs(cov - want).max() <= tol * np.abs(want).max()


def injection_concentration(stats):
    """Dense Cov([p; q])^{-1}: each bus's inverse 2x2 covariance spread over
    the four n x n diagonal blocks."""
    n, det = stats.n, stats.det
    out = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    out[idx, idx] = stats.sigma_qq / det
    out[n + idx, n + idx] = stats.sigma_pp / det
    out[idx, n + idx] = out[n + idx, idx] = -stats.sigma_pq / det
    return out


@pytest.mark.parametrize("stats_kind", ["uniform", "random"])
@pytest.mark.parametrize("name", GRID_NAMES)
def test_concentrations_equal_their_defining_products(name, stats_kind):
    # J = H diag(1/sigma_pp) H (DC) and J = S Lambda S (LC), to rounding,
    # with the same exact zeros and exactly symmetric
    g = builtin_grid(name)
    if stats_kind == "uniform":
        st = InjectionStats.uniform(g)
    else:
        st = random_stats(g, np.random.default_rng(19))
        assert np.all(st.sigma_pq != 0)
    H = reduced_laplacian(g, "susceptance")
    S = lc_system_matrix(g)
    for conc, want in ((dc_concentration(g, st), H @ ((1.0 / st.sigma_pp)[:, None] * H)),
                       (lc_concentration(g, st), S @ injection_concentration(st) @ S)):
        J = conc.matrix
        assert np.array_equal(J, J.T)
        assert np.array_equal(J == 0, want == 0)
        np.testing.assert_allclose(J, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_dc_sign_structure_on_tree(radial20):
    conc = dc_concentration(radial20, InjectionStats.uniform(radial20))
    scale = np.abs(conc.matrix).max()
    for a, la in enumerate(conc.labels):
        for b, lb in enumerate(conc.labels):
            if a >= b:
                continue
            d = bus_distance(radial20, la.bus, lb.bus, through_reference=False)
            if d == 1:
                assert conc.matrix[a, b] < 0
            elif d == 2:
                assert conc.matrix[a, b] > 0
            else:
                assert abs(conc.matrix[a, b]) < 1e-12 * scale


# ----------------------------------------------------------------------
# LC model
# ----------------------------------------------------------------------


def test_lc_system_matrix_blocks(loopy20_c4):
    S = lc_system_matrix(loopy20_c4)
    Hg = reduced_laplacian(loopy20_c4, "conductance")
    Hb = reduced_laplacian(loopy20_c4, "susceptance")
    np.testing.assert_allclose(S[:19, :19], Hg)
    np.testing.assert_allclose(S[:19, 19:], Hb)
    np.testing.assert_allclose(S[19:, :19], Hb)
    np.testing.assert_allclose(S[19:, 19:], -Hg)


def test_solve_lc_residual(ieee14):
    rng = np.random.default_rng(2)
    m = len(ieee14.non_reference_buses)
    p = rng.standard_normal((5, m))
    q = rng.standard_normal((5, m))
    v, theta = solve_lc(ieee14, p, q)
    S = lc_system_matrix(ieee14)
    x = np.concatenate([v, theta], axis=1)
    np.testing.assert_allclose(x @ S.T, np.concatenate([p, q], axis=1), atol=1e-10)


@pytest.mark.parametrize("name", GRID_NAMES)
def test_lc_concentration_inverts_covariance(name):
    g = builtin_grid(name)
    st = random_stats(g, np.random.default_rng(11))
    J = lc_concentration(g, st).matrix
    S = lc_voltage_covariance(g, st)
    resid = np.abs(J @ S - np.eye(S.shape[0])).max()
    assert resid < 1e-8


def test_lc_closed_form_vs_numeric_inverse(loopy20_c7):
    st = random_stats(loopy20_c7, np.random.default_rng(13))
    J = lc_concentration(loopy20_c7, st).matrix
    want = np.linalg.inv(lc_voltage_covariance(loopy20_c7, st))
    assert np.abs(J - want).max() / np.abs(want).max() < 1e-10


def test_lc_threshold_statistic_identity(ieee14):
    # J_vv + J_tt collapses to Hg (A+C) Hg + Hb (A+C) Hb
    st = random_stats(ieee14, np.random.default_rng(17))
    conc = lc_concentration(ieee14, st)
    stat = lc_threshold_statistic(conc)
    np.testing.assert_allclose(stat, conc.block("v", "v") + conc.block("theta", "theta"))
    Hg = reduced_laplacian(ieee14, "conductance")
    Hb = reduced_laplacian(ieee14, "susceptance")
    ac = (st.sigma_pp + st.sigma_qq) / st.det
    want = Hg @ (ac[:, None] * Hg) + Hb @ (ac[:, None] * Hb)
    np.testing.assert_allclose(stat, want, rtol=1e-9, atol=1e-9)


def test_lc_threshold_statistic_rejects_dc(radial20):
    conc = dc_concentration(radial20, InjectionStats.uniform(radial20))
    with pytest.raises(ModelMismatchError):
        lc_threshold_statistic(conc)


def test_lc_support_distance_pattern(loopy20_c4):
    # every block vanishes beyond distance 2 (reference removed from paths)
    st = InjectionStats.uniform(loopy20_c4)
    conc = lc_concentration(loopy20_c4, st)
    scale = np.abs(conc.matrix).max()
    for a, la in enumerate(conc.labels):
        for b, lb in enumerate(conc.labels):
            if la.bus == lb.bus:
                continue
            d = bus_distance(loopy20_c4, la.bus, lb.bus, through_reference=False)
            if d > 2:
                assert abs(conc.matrix[a, b]) < 1e-9 * scale
            if d == 1:
                assert abs(conc.matrix[a, b]) > 1e-9 * scale
