"""Analytic concentration matrices: DC and LC products vs independent oracles."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import block, edge_set, line_between, oracle_concentration, random_stats
from gridtopo import powerflow
from gridtopo.exceptions import (
    GridStructureError,
    InvalidInjectionStatsError,
    InvalidLineError,
    ModelMismatchError,
    UnknownBusError,
)
from gridtopo.grid import Grid, Line, builtin_grid, bus_distance, make_grid, reduced_laplacian, susceptance
from gridtopo.powerflow import (
    ConcentrationMatrix,
    InjectionStats,
    Pairs,
    VarLabel,
    dc_concentration,
    dc_labels,
    dc_phase_covariance,
    lc_bus_pairs,
    lc_concentration,
    lc_labels,
    lc_system_matrix,
    lc_threshold_statistic,
    lc_voltage_covariance,
    parse_label,
    solve_dc,
    solve_lc,
    whitened_system,
)
from gridtopo.sampling import generate_voltage_samples

GRID_NAMES = ("radial20", "loopy20_c4", "loopy20_c7", "ieee14")


def path_grid(n_buses: int, r: float = 0.0, x: float = 1.0):
    return make_grid(0, range(n_buses), [(b, b + 1, r, x) for b in range(n_buses - 1)])


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
    assert parse_label("theta_-3") == VarLabel("theta", -3)  # bus ids may be negative
    for bad in ("x_1", "theta_", "v_one", "12", "theta_--3", "theta_+3",
                "theta_03", "theta_\u0663", "v_-0", "theta_\u00b2"):
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


def test_pairs_of_dense_share_one_row_major_upper_triangle():
    # the index is built once per size and read-only; its order is the
    # row-major upper triangle that every reader of a Pairs assumes
    A = np.arange(36.0).reshape(6, 6)
    p, q = Pairs.of_dense(A + A.T), Pairs.of_dense(np.eye(6))
    rows, cols = np.nonzero(~np.tri(6, dtype=bool))
    assert np.array_equal(p.rows, rows) and np.array_equal(p.cols, cols)
    assert np.array_equal(p.vals, (A + A.T)[rows, cols])
    assert q.rows is p.rows and q.cols is p.cols
    assert not (p.rows.flags.writeable or p.cols.flags.writeable)
    assert np.array_equal(p.dense(), A + A.T)
    assert Pairs.of_dense(np.eye(5)).rows.size == 10


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


def test_a_stack_of_concentrations_is_each_of_its_trials(radial20):
    # a (T, d, d) stack is checked as a whole; its pairs are the trials' own
    stats = InjectionStats.uniform(radial20)
    J = lc_concentration(radial20, stats).matrix
    labels = lc_labels(radial20)
    trials = [J, 2.0 * J, J + np.eye(38)]
    stack = ConcentrationMatrix(np.stack(trials), labels, "lc")
    for k, M in enumerate(trials):
        one = ConcentrationMatrix(M, labels, "lc").pairs
        assert np.array_equal(stack.pairs.diagonal[k], one.diagonal)
        assert np.array_equal(stack.pairs.vals[k], one.vals)
        assert np.array_equal(lc_bus_pairs(stack.pairs).vals[k], lc_bus_pairs(one).vals)
    assert np.array_equal(stack.matrix, np.stack(trials))
    bad = np.stack(trials)
    bad[2, 3, 21] = np.inf
    with pytest.raises(ValueError, match=r"entry \(v_4, theta_3\) is inf"):
        ConcentrationMatrix(bad, labels, "lc")
    bad = np.stack(trials)
    bad[1, 0, 1] += 1e-3 * np.abs(J).max()
    with pytest.raises(ValueError, match="not symmetric"):
        ConcentrationMatrix(bad, labels, "lc")
    with pytest.raises(ValueError, match="not positive definite"):
        ConcentrationMatrix(np.stack([J, -J]), labels, "lc")


def test_lc_bus_pairs_needs_both_blocks_at_the_same_bus_pairs():
    # v_1 v_2 theta_1 theta_2: the v-v pair (0, 1) has no theta-theta twin
    # (2, 3), so the block sum refuses rather than drop or misplace a term
    pairs = Pairs(np.ones(4), np.array([0, 0]), np.array([1, 3]), np.array([-1.0, 0.5]))
    with pytest.raises(ValueError, match="not listed at the same bus pairs"):
        lc_bus_pairs(pairs)
    folded = lc_bus_pairs(pairs._replace(rows=np.array([0, 2]), cols=np.array([1, 3])))
    assert (folded.rows.tolist(), folded.cols.tolist(), folded.vals.tolist()) == ([0], [1], [-0.5])
    assert folded.diagonal.tolist() == [2.0, 2.0]


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
    # lc_bus_pairs pairs the i-th v label with the i-th theta label, so a
    # layout it cannot read is rejected up front
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
    vv = block(conc, "v", "v")
    tt = block(conc, "theta", "theta")
    assert vv.shape == tt.shape == (19, 19)
    np.testing.assert_allclose(conc.matrix[:19, :19], vv)
    np.testing.assert_allclose(conc.matrix[19:, 19:], tt)
    dc = dc_concentration(radial20, InjectionStats.uniform(radial20))
    assert np.array_equal(block(dc, "theta", "theta"), dc.matrix)
    assert block(dc, "v", "theta").shape == (0, 19)


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
        ln = line_between(grid, i, j)
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
    np.testing.assert_allclose(stat, block(conc, "v", "v") + block(conc, "theta", "theta"))
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


# ----------------------------------------------------------------------
# the whitened system as triples
# ----------------------------------------------------------------------


def dense_whitened(grid, stats, model):
    """M = L^{-1} S whitened row by row on the dense S = [[H_g, H_b], [H_b, -H_g]]
    (H_b for DC)."""
    Hb = reduced_laplacian(grid, "susceptance")
    M = Hb if model == "dc" else np.block([[reduced_laplacian(grid, "conductance"), Hb],
                                          [Hb, -reduced_laplacian(grid, "conductance")]])
    l11, l21, l22 = stats.cholesky
    top, bottom = M[:stats.n], M[stats.n:]
    top /= l11[:, None]
    if model == "lc":
        bottom -= l21[:, None] * top
        bottom /= l22[:, None]
    return M


@pytest.mark.parametrize("name", GRID_NAMES)
def test_system_matrices_equal_the_dense_builders(name):
    # the triples carry the dense builders' float operations, so the
    # matrices every covariance and sample is drawn from stay bit-identical
    g = builtin_grid(name)
    Hb, Hg = reduced_laplacian(g, "susceptance"), reduced_laplacian(g, "conductance")
    assert np.array_equal(lc_system_matrix(g), np.block([[Hg, Hb], [Hb, -Hg]]))
    for seed in range(3):
        st = random_stats(g, np.random.default_rng(seed))
        for model in ("dc", "lc"):
            assert np.array_equal(whitened_system(g, st, model), dense_whitened(g, st, model))


def meshed_tree(rng, make_random_tree, n_buses, n_chords):
    tree = make_random_tree(rng, n_buses)
    lines = set(edge_set(tree))
    while len(lines) < n_buses - 1 + n_chords:
        i, j = sorted(int(b) for b in rng.choice(n_buses, size=2, replace=False))
        lines.add((i, j))
    extra = [(i, j, 0.05, 0.1) for i, j in sorted(lines - edge_set(tree))]
    return make_grid(0, range(n_buses), list(tree.lines) + extra)


def test_exact_concentrations_skip_the_dense_product_and_cholesky(make_random_tree, monkeypatch):
    # J = M^T M is summed from M's non-zeros, and positive definite because
    # M is checked non-singular where it is built
    g = meshed_tree(np.random.default_rng(3), make_random_tree, 600, 60)
    st = random_stats(g, np.random.default_rng(4))

    def dense_path(*args, **kwargs):
        raise AssertionError("the exact path took a dense O(d^3) step")

    monkeypatch.setattr(np.linalg, "cholesky", dense_path)
    monkeypatch.setattr(powerflow, "_gram", dense_path)
    assert dc_concentration(g, st).matrix.shape == (599, 599)
    assert lc_concentration(g, st).matrix.shape == (1198, 1198)


def assert_pairs_equal(got: Pairs, want: Pairs):
    for field in Pairs._fields:
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.integers(2, 40))
def test_exact_concentrations_equal_the_oracle(make_random_tree, make_random_triangle_grid,
                                               seed, triangles, uniform, n_buses):
    # J summed over the grid's wedges is the oracle's sum over M's rows,
    # entry for entry and bit for bit: same positions, same float order
    rng = np.random.default_rng(seed)
    g = make_random_triangle_grid(rng, max(n_buses, 6)) if triangles else make_random_tree(rng, n_buses)
    stats = InjectionStats.uniform(g) if uniform else random_stats(g, rng)
    assert_pairs_equal(dc_concentration(g, stats).pairs, oracle_concentration(g, stats, "dc"))
    assert_pairs_equal(lc_concentration(g, stats).pairs, oracle_concentration(g, stats, "lc"))


@pytest.mark.parametrize("name", GRID_NAMES + (300,))
def test_exact_concentrations_of_fixed_grids_equal_the_oracle(name, make_random_tree):
    rng = np.random.default_rng(5)
    g = builtin_grid(name) if isinstance(name, str) else meshed_tree(rng, make_random_tree, name, 40)
    for stats in (InjectionStats.uniform(g), random_stats(g, np.random.default_rng(2))):
        assert_pairs_equal(dc_concentration(g, stats).pairs, oracle_concentration(g, stats, "dc"))
        assert_pairs_equal(lc_concentration(g, stats).pairs, oracle_concentration(g, stats, "lc"))


def test_the_two_hop_index_is_built_once_per_grid(make_random_tree):
    g = meshed_tree(np.random.default_rng(7), make_random_tree, 40, 6)
    hop = g.two_hop
    dc_concentration(g, InjectionStats.uniform(g))
    lc_concentration(g, InjectionStats.uniform(g))
    assert g.two_hop is hop
    left, right, at, rows, cols, upper = hop
    assert not left.flags.writeable
    # every wedge a-k-b reaches its position (a, b), the upper ones first
    k, a = g.laplacian_index[:2]
    assert np.array_equal(k[left], k[right])
    assert np.array_equal(a[left], rows[at]) and np.array_equal(a[right], cols[at])
    assert np.all(rows[at[:upper]] <= cols[at[:upper]]) and np.all(rows[at[upper:]] > cols[at[upper:]])


SYSTEM_BUILDERS = {
    "dc_concentration": dc_concentration,
    "lc_concentration": lc_concentration,
    "dc_phase_covariance": dc_phase_covariance,
    "lc_voltage_covariance": lc_voltage_covariance,
    "dc_samples": lambda g, st: generate_voltage_samples(g, st, "dc", 5),
    "lc_samples": lambda g, st: generate_voltage_samples(g, st, "lc", 5),
}


@pytest.mark.parametrize("builder", SYSTEM_BUILDERS)
@pytest.mark.parametrize(
    "lines,error,match",
    [
        # buses 2-3 form an island the reference does not reach
        ((Line(0, 1, 0.1, 0.2), Line(2, 3, 0.1, 0.2)), GridStructureError, "unreachable from the reference, first 2"),
        ((Line(0, 1, 0.1, 0.2), Line(1, 2, 0.1, 0.2), Line(2, 3, 0.1, -0.2)), InvalidLineError, r"\(2,3\)"),
        ((Line(0, 1, 0.1, 0.2), Line(1, 2, 0.0, 0.0), Line(2, 3, 0.1, 0.2)), InvalidLineError, r"\(1,2\)"),
        ((Line(0, 1, 0.1, 0.2), Line(1, 2, 0.1, 0.2), Line(2, 7, 0.1, 0.2)), GridStructureError,
         "endpoint 7 is not a listed bus"),
        # r^2 + x^2 underflows to 0 or overflows to inf
        ((Line(0, 1, 0.1, 0.2), Line(1, 2, 0.0, 1e-200), Line(2, 3, 0.1, 0.2)), InvalidLineError,
         r"line \(1,2\): susceptance must be finite and positive, got inf"),
        ((Line(0, 1, 0.1, 0.2), Line(1, 2, 1e200, 1.0), Line(2, 3, 0.1, 0.2)), InvalidLineError,
         r"line \(1,2\): susceptance must be finite and positive, got 0.0"),
    ],
    ids=["island", "negative-x", "zero-impedance", "unlisted-endpoint", "susceptance-inf", "susceptance-zero"],
)
def test_singular_systems_fail_where_they_are_built(builder, lines, error, match):
    # M would be singular or H_b indefinite: the grid itself fails to build,
    # so no system builder ever sees it
    with pytest.raises(error, match=match):
        g = Grid(reference=0, buses=(0, 1, 2, 3), lines=lines)
        SYSTEM_BUILDERS[builder](g, InjectionStats.uniform(g))
