"""Covariance estimation and the graphical lasso solver."""
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import estimate_dict
from gridtopo.estimation import (
    EstimatedConcentration,
    GlassoConfig,
    empirical_covariance,
    estimate_concentration,
    glasso_objective,
    graphical_lasso,
    invert_covariance,
    kkt_violations,
    load_estimate_json,
    parse_lambda,
    select_lambda,
    write_estimate_json,
)
from gridtopo.exceptions import ConfigError, RankDeficiencyError
from gridtopo.experiments import reconstruct
from gridtopo.grid import BUILTIN_GRIDS, builtin_grid, make_grid
from gridtopo.learning import edge_errors, gm_noise_scale
from gridtopo.powerflow import InjectionStats, dc_concentration, whitened_system
from gridtopo.sampling import draw_plan, draw_sample_covariance, generate_voltage_samples


def random_pd_cov(rng, d):
    A = rng.standard_normal((d, d))
    return A @ A.T / d + np.eye(d)


# ----------------------------------------------------------------------
# covariance basics
# ----------------------------------------------------------------------


def test_empirical_covariance_zero_mean_form():
    x = np.array([[1.0, -2.0]])
    np.testing.assert_allclose(empirical_covariance(x), np.outer(x[0], x[0]))
    two = np.array([[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(empirical_covariance(two), [[0.5, 0.0], [0.0, 2.0]])
    for bad, shape in ((np.ones(3), "(3,)"), (np.ones((0, 2)), "(0, 2)")):
        with pytest.raises(ConfigError, match=re.escape(f"need a non-empty 2-d sample matrix, got shape {shape}")):
            empirical_covariance(bad)


def test_invert_covariance_matches_numpy():
    cov = random_pd_cov(np.random.default_rng(0), 6)
    J = invert_covariance(cov)
    assert np.array_equal(J, J.T)
    np.testing.assert_allclose(J, np.linalg.inv(cov), rtol=1e-9)


def test_invert_covariance_matches_analytic_concentration(radial20):
    from gridtopo.powerflow import dc_phase_covariance

    st = InjectionStats.uniform(radial20)
    J = invert_covariance(dc_phase_covariance(radial20, st))
    want = dc_concentration(radial20, st).matrix
    assert np.abs(J - want).max() / np.abs(want).max() < 1e-8


def test_invert_covariance_rank_deficiency():
    v = np.arange(1.0, 5.0)
    with pytest.raises(RankDeficiencyError, match="pivot"):
        invert_covariance(np.outer(v, v))
    # a factor that exists but whose pivot lies within the rounding of S's
    # entries (10 d eps max diag S) is refused too, at any scale
    for scale in (1.0, 1e-20, 1e20):
        with pytest.raises(RankDeficiencyError, match="smallest Cholesky pivot"):
            invert_covariance(scale * np.diag([1.0, 1e-15]))
        J = invert_covariance(scale * np.diag([1.0, 1e-13]))
        np.testing.assert_allclose(J, np.diag([1.0, 1e13]) / scale, rtol=1e-12)


def _covariance_as_formed(grid, st, model, n, seed):
    """A drawn trial covariance formed densely: the Bartlett factor R that
    draw_sample_covariance documents, its columns z's in (z_p; z_q) block
    order, of which the d variables read the leading d, mapped through
    M^{-T}, then (R M^{-T})^T (R M^{-T}) / n, symmetrised."""
    M = whitened_system(grid, st, model)
    d, k = M.shape[0], 2 * st.n
    m = min(n, k)
    rng = np.random.default_rng(seed)
    R = np.triu(rng.standard_normal((m, k)), 1)
    R[np.arange(m), np.arange(m)] = np.sqrt(rng.chisquare(n - np.arange(m)))
    B = R[:, :d] @ np.linalg.inv(M).T
    cov = B.T @ B / n
    return (cov + cov.T) / 2.0


def _relative(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("model", ["dc", "lc"])
@pytest.mark.parametrize("name", BUILTIN_GRIDS)
def test_direct_estimate_is_the_inverse_of_the_formed_covariance(name, model):
    # oracle: the factor route equals np.linalg.inv of the covariance formed
    # densely, for drawn trial covariances and for snapshots alike, and a
    # drawn covariance's derived covariance equals the formed one
    grid = builtin_grid(name)
    st = InjectionStats.uniform(grid)
    plan = draw_plan(grid, st, model)
    d = len(plan.labels)
    worst = {"drawn": 0.0, "samples": 0.0, "covariance": 0.0}
    for n in (5 * d, 10 * d, 5000):
        for seed in range(5):
            formed = _covariance_as_formed(grid, st, model, n, seed)
            drawn = draw_sample_covariance(plan, n, seed)
            samples = generate_voltage_samples(grid, st, model, n, seed)
            for key, source, cov in (("drawn", drawn, formed), ("samples", samples, samples.covariance)):
                est = estimate_concentration(source, method="direct")
                assert est.method == "direct"
                worst[key] = max(worst[key], _relative(est.concentration.matrix, np.linalg.inv(cov)))
            worst["covariance"] = max(worst["covariance"], _relative(drawn.covariance, formed))
    assert max(worst.values()) <= 1e-9, worst


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([1, 2, 5]))
def test_drawn_estimate_is_the_inverse_on_random_grids(make_random_tree, make_random_triangle_grid,
                                                       seed, triangles, multiple):
    # random trees and triangle grids with random per-bus stats, n = d, 2d
    # or 5d: the factor route equals np.linalg.inv of the covariance formed
    # densely, within 1e-9 or, only at n = d, whose draws can be
    # ill-conditioned, within that inverse's own forward error cond * eps;
    # and the DC draw at one seed is the z_p block of the LC one
    rng = np.random.default_rng(seed)
    grid = make_random_triangle_grid(rng) if triangles else make_random_tree(rng, int(rng.integers(2, 16)))
    k = len(grid.non_reference_buses)
    pp, qq = rng.uniform(0.5, 2.0, k), rng.uniform(0.5, 2.0, k)
    stats = InjectionStats(pp, qq, rng.uniform(-0.9, 0.9, k) * np.sqrt(pp * qq))
    for model in ("dc", "lc"):
        plan = draw_plan(grid, stats, model)
        n = multiple * len(plan.labels)
        formed = _covariance_as_formed(grid, stats, model, n, seed)
        est = estimate_concentration(draw_sample_covariance(plan, n, seed), method="direct")
        bound = max(1e-9, np.linalg.cond(formed) * np.finfo(float).eps) if multiple == 1 else 1e-9
        assert _relative(est.concentration.matrix, np.linalg.inv(formed)) <= bound
    n = multiple * 2 * k
    dc, lc = (draw_sample_covariance(draw_plan(grid, stats, model), n, seed) for model in ("dc", "lc"))
    assert np.array_equal(dc.factor, lc.factor[:k, :k])
    lc_scatter = lc.factor.T @ lc.factor
    np.testing.assert_allclose(dc.factor.T @ dc.factor, lc_scatter[:k, :k],
                               rtol=0, atol=1e-12 * np.abs(lc_scatter).max())


def test_deep_feeder_estimates_at_full_rank():
    # a 1 000-bus tree, each bus fed from one of the 3 buses before it: its
    # DC covariance H^{-1} P H^{-1} has condition number cond(H)^2, so at
    # n = 10d the drawn covariance's eigenvalue ratio falls below 1e-12 (the
    # rank test on the covariance's eigenvalues refused it).  The drawn
    # factor of the whitened scatter is far from singular, and the estimate
    # is as good as the samples allow (1/sqrt(n) ~ 0.01 per entry; worst
    # entry 0.1399)
    rng = np.random.default_rng(0)
    grid = make_grid(0, range(1000), [(int(rng.integers(max(0, i - 3), i)), i, 0.05, 0.1)
                                      for i in range(1, 1000)])
    st = InjectionStats.uniform(grid)
    drawn = draw_sample_covariance(draw_plan(grid, st, "dc"), 10 * 999, seed=1)
    w = np.linalg.eigvalsh(drawn.covariance)
    assert w[0] / w[-1] < 1e-12
    # C^T / sqrt(n) is the whitened scatter's Cholesky factor: its smallest
    # pivot against the scatter's largest diagonal entry
    C = drawn.factor
    assert np.array_equal(C, np.triu(C)) and C.shape == (999, 999)
    assert np.diag(C).min() ** 2 / (C**2).sum(axis=0).max() > 0.8
    est = estimate_concentration(drawn, method="direct")
    J = dc_concentration(grid, st).matrix
    assert _relative(est.concentration.matrix, J) < 0.14
    err = edge_errors(reconstruct(est.concentration, "thresholding", est=est), grid)
    assert err.false_positives <= 1 and err.false_negatives == 0


# ----------------------------------------------------------------------
# graphical lasso
# ----------------------------------------------------------------------


def test_glasso_zero_penalty_matches_inversion():
    cov = random_pd_cov(np.random.default_rng(3), 10)
    S, info = graphical_lasso(cov, 0.0)
    want = invert_covariance(cov)
    assert info["converged"]
    assert np.abs(S - want).max() / np.abs(want).max() < 1e-5


def test_glasso_2x2_closed_form():
    # the optimal covariance estimate soft-thresholds the off-diagonal entry
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    lam = 0.2
    S, info = graphical_lasso(cov, lam)
    W = np.array([[1.0, 0.4], [0.4, 2.0]])
    np.testing.assert_allclose(S, np.linalg.inv(W), atol=1e-7)
    assert info["termination"] == "tol"


def test_glasso_large_penalty_gives_diagonal():
    cov = np.array([[1.0, 0.6, -0.3], [0.6, 2.0, 0.2], [-0.3, 0.2, 1.5]])
    S, _ = graphical_lasso(cov, 1.0)
    off = S[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.0)
    np.testing.assert_allclose(np.diag(S), 1.0 / np.diag(cov), rtol=1e-9)


def test_glasso_1x1_shortcut():
    S, info = graphical_lasso(np.array([[2.0]]), 0.5)
    np.testing.assert_allclose(S, [[1.0 / 2.0]])
    assert max(kkt_violations(np.array([[2.0]]), S, 0.5).values()) == 0.0
    assert info == {
        "iterations": 0,
        "converged": True,
        "termination": "tol",
        "objective_trace": [glasso_objective(S, np.array([[2.0]]), 0.5)],
        "kkt": kkt_violations(np.array([[2.0]]), S, 0.5),
    }


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_glasso_kkt_and_monotone_objective(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(4, 9))
    cov = random_pd_cov(rng, d)
    lam = 0.1 * np.abs(cov - np.diag(np.diag(cov))).max()
    cfg = GlassoConfig(tol=1e-6)
    S, info = graphical_lasso(cov, lam, cfg)
    assert info["converged"]
    trace = np.array(info["objective_trace"])
    assert np.all(np.diff(trace) <= 1e-10)
    kkt = kkt_violations(cov, S, lam)
    budget = 1e-4 * max(1.0, np.abs(cov).max())
    assert kkt["max_zero"] <= budget
    assert kkt["max_nonzero"] <= budget
    assert kkt["max_diag"] <= budget


def test_glasso_objective_is_infinite_off_the_positive_definite_cone():
    # det = +1, so a sign test on slogdet alone would call this feasible
    assert glasso_objective(np.diag([-1.0, -1.0, 1.0]), np.eye(3), 0.1) == np.inf
    S = np.array([[2.0, -0.5], [-0.5, 1.0]])
    want = -np.log(np.linalg.det(S)) + np.trace(S) + 0.1 * 1.0
    assert glasso_objective(S, np.eye(2), 0.1) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n,lam", [(150, "auto"), (300, 0.1)])
def test_glasso_converges_on_lc_estimates(radial20, n, lam):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), "lc", n, seed=2)
    est = estimate_concentration(s, method="glasso", lam=lam)
    scale = max(1.0, np.abs(empirical_covariance(s.data)).max())
    assert est.converged and max(est.kkt.values()) / scale <= 1e-6
    np.linalg.cholesky(est.concentration.matrix)
    assert np.all(np.diff(est.objective_trace) <= 0.0)


@pytest.mark.parametrize("model,n", [("dc", 50), ("lc", 60)])
def test_glasso_returns_the_kkt_of_its_solution(all_builtins, model, n):
    for g in all_builtins:
        s = generate_voltage_samples(g, InjectionStats.uniform(g), model, n, seed=3)
        cov, lam = empirical_covariance(s.data), select_lambda(s)
        S, info = graphical_lasso(cov, lam)
        assert info["kkt"] == kkt_violations(cov, S, lam)


def test_estimate_stores_the_matrix_its_estimator_returned(radial20):
    # one J per estimate: the document holds the estimator's own array bit for bit
    st = InjectionStats.uniform(radial20)
    s = generate_voltage_samples(radial20, st, "dc", 300, seed=5)
    cov = empirical_covariance(s.data)
    direct = estimate_concentration(s, method="direct")
    assert np.array_equal(np.array(estimate_dict(direct)["matrix"]), invert_covariance(cov))
    glasso = estimate_concentration(s, method="glasso", lam=0.05)
    S, info = graphical_lasso(cov, 0.05)
    assert np.array_equal(np.array(estimate_dict(glasso)["matrix"]), S)
    assert glasso.kkt == info["kkt"]


def test_glasso_hits_max_iters():
    cov = random_pd_cov(np.random.default_rng(5), 8)
    S, info = graphical_lasso(cov, 0.01, GlassoConfig(tol=1e-12, max_iters=2))
    assert info == {**info, "iterations": 2, "converged": False, "termination": "max_iters"}
    np.linalg.cholesky(S)  # iterate stays positive definite


@pytest.mark.parametrize(
    "cov,lam,match",
    [
        (np.zeros((2, 3)), 0.1, "square"),
        (np.array([[1.0, 0.5], [0.2, 1.0]]), 0.1, "symmetric"),
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), 0.1, "finite"),
        (np.eye(2), -0.1, "non-negative"),
        (np.diag([1.0, 0.0]), 0.1, "diagonal must be positive"),
    ],
)
def test_glasso_input_validation(cov, lam, match):
    with pytest.raises(ConfigError, match=match):
        graphical_lasso(cov, lam)


def test_glasso_config_validation():
    with pytest.raises(ConfigError):
        GlassoConfig(tol=0.0)
    with pytest.raises(ConfigError):
        GlassoConfig(max_iters=0)
    for bad in ({"max_iters": True}, {"max_iters": 2.5}, {"max_iters": "10"},
                {"tol": True}, {"tol": "1e-6"}):
        with pytest.raises(ConfigError):
            GlassoConfig(**bad)


# ----------------------------------------------------------------------
# penalty selection
# ----------------------------------------------------------------------


def test_parse_lambda_accepts_auto_and_non_negative_numbers():
    assert parse_lambda("auto", "lambda") == "auto"
    assert parse_lambda("0.25", "lambda") == 0.25
    assert parse_lambda(0, "lambda") == 0 and isinstance(parse_lambda(0, "lambda"), int)
    assert parse_lambda(0.1, "lambda") == 0.1


@pytest.mark.parametrize(
    "value,match",
    [
        ("x", "knob must be a number or 'auto', got 'x'"),
        ("-1", "knob must be a finite number >= 0 or 'auto', got -1.0"),
        (-0.5, "knob must be a finite number >= 0 or 'auto', got -0.5"),
        ("nan", "knob must be a finite number >= 0 or 'auto', got nan"),
        (float("inf"), "knob must be a finite number >= 0 or 'auto', got inf"),
        (True, "knob must be a finite number >= 0 or 'auto', got True"),
        (None, "knob must be a finite number >= 0 or 'auto', got None"),
    ],
)
def test_parse_lambda_rejects(value, match):
    with pytest.raises(ConfigError) as exc:
        parse_lambda(value, "knob")
    assert str(exc.value) == match


@pytest.mark.parametrize("method", ["auto", "direct", "glasso"])
@pytest.mark.parametrize("lam", ["x", -1.0, float("nan")])
def test_estimate_rejects_bad_lambda_up_front(radial20, method, lam):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), "dc", 50, seed=1)
    with pytest.raises(ConfigError, match="lambda must be"):
        estimate_concentration(s, method=method, lam=lam)


def test_select_lambda_rate(radial20):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), "dc", 400, seed=0)
    assert select_lambda(s) == pytest.approx(0.5 * np.sqrt(np.log(19) / 400))
    two_bus = make_grid(0, [0, 1], [(0, 1, 0.01, 0.1)])
    one = generate_voltage_samples(two_bus, InjectionStats.uniform(two_bus), "dc", 10, seed=0)
    assert one.dim == 1 and select_lambda(one) == 0.0


# ----------------------------------------------------------------------
# the one estimator interface
# ----------------------------------------------------------------------


def test_estimate_auto_is_the_direct_estimate(radial20):
    st = InjectionStats.uniform(radial20)
    s = generate_voltage_samples(radial20, st, "dc", 50, seed=1)
    assert estimate_dict(estimate_concentration(s)) == estimate_dict(estimate_concentration(s, "direct"))
    with pytest.raises(RankDeficiencyError, match="18 samples of 19 variables .* needs n >= 19"):
        estimate_concentration(generate_voltage_samples(radial20, st, "dc", 18, seed=1))
    # the graphical lasso runs on request only, with the rate-driven penalty
    est = estimate_concentration(s, "glasso")
    assert est.method == "glasso"
    assert est.lam == pytest.approx(select_lambda(s))
    assert est.kkt is not None and est.converged


@pytest.mark.parametrize("model", ["dc", "lc"])
@pytest.mark.parametrize("name", BUILTIN_GRIDS)
def test_estimate_auto_never_runs_the_graphical_lasso(monkeypatch, name, model):
    # n from d - 1 to 5d - 1, the counts auto once sent to glasso, on samples
    # and on a drawn covariance: auto is direct bit for bit, and raises with it
    import gridtopo.estimation as estimation

    def refuse(*args, **kwargs):
        raise AssertionError("graphical_lasso called")

    monkeypatch.setattr(estimation, "graphical_lasso", refuse)
    grid = builtin_grid(name)
    st = InjectionStats.uniform(grid)
    plan = draw_plan(grid, st, model)
    d = len(plan.labels)
    for n in (d - 1, d, 2 * d, 5 * d - 1):
        for x in (generate_voltage_samples(grid, st, model, n, seed=n),
                  draw_sample_covariance(plan, n, seed=n)):
            outcome = {}
            for method in ("auto", "direct"):
                try:
                    outcome[method] = estimate_dict(estimate_concentration(x, method))
                except RankDeficiencyError as exc:
                    outcome[method] = str(exc)
            assert outcome["auto"] == outcome["direct"]
            if n < d:
                assert f"needs n >= {d}" in outcome["auto"]


def test_estimate_auto_inverts_once(radial20, monkeypatch):
    import gridtopo.estimation as estimation

    calls = []

    def counting_inverse(cov):
        calls.append(cov.shape)
        return invert_covariance(cov)

    monkeypatch.setattr(estimation, "invert_covariance", counting_inverse)
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), "dc", 200, seed=1)
    assert estimate_concentration(s).method == "direct"
    assert len(calls) == 1


def test_estimate_forced_methods(radial20):
    st = InjectionStats.uniform(radial20)
    s = generate_voltage_samples(radial20, st, "dc", 300, seed=2)
    direct = estimate_concentration(s, method="direct")
    assert direct.termination == "direct" and direct.lam == 0.0
    glasso = estimate_concentration(s, method="glasso", lam=0.1)
    assert glasso.method == "glasso" and glasso.lam == 0.1
    assert len(glasso.objective_trace) == glasso.iterations + 1
    with pytest.raises(ConfigError, match="unknown estimator"):
        estimate_concentration(s, method="ols")


def test_estimate_standard_errors_shape(radial20):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), "dc", 200, seed=4)
    est = estimate_concentration(s)
    se = gm_noise_scale(est)
    J = est.concentration.pairs
    assert np.array_equal(se.rows, J.rows) and np.array_equal(se.cols, J.cols) and se.dim == J.dim
    assert np.all(se.vals > 0) and np.all(se.diagonal > 0)


def test_estimate_json_roundtrip(tmp_path, radial20):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), "dc", 60, seed=7)
    est = estimate_concentration(s, "glasso")  # exercises every field
    path = tmp_path / "est.json"
    write_estimate_json(est, path)
    back = load_estimate_json(path)
    np.testing.assert_allclose(back.concentration.matrix, est.concentration.matrix)
    assert back.concentration.labels == est.concentration.labels
    assert ((back.concentration.model, back.method, back.n_samples)
            == (est.concentration.model, est.method, est.n_samples))
    assert back.lam == est.lam
    assert back.objective_trace == est.objective_trace
    assert back.kkt == est.kkt
    conc = back.concentration
    assert conc.model == "dc" and conc.dim == 19


@pytest.mark.parametrize("name", BUILTIN_GRIDS)
@pytest.mark.parametrize("model", ["dc", "lc"])
def test_estimate_json_is_the_indented_dump(tmp_path, name, model):
    # J's rows are written from its pairs, in the bytes json.dump writes
    g = builtin_grid(name)
    s = generate_voltage_samples(g, InjectionStats.uniform(g), model, 2000, seed=3)
    est = estimate_concentration(s, method="direct")
    write_estimate_json(est, tmp_path / "est.json")
    assert (tmp_path / "est.json").read_bytes() == (json.dumps(estimate_dict(est), indent=2) + "\n").encode()


def test_glasso_estimate_json_is_the_indented_dump(tmp_path, radial20):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), "dc", 60, seed=7)
    est = estimate_concentration(s, "glasso")
    assert est.objective_trace and est.kkt
    write_estimate_json(est, tmp_path / "est.json")
    assert (tmp_path / "est.json").read_bytes() == (json.dumps(estimate_dict(est), indent=2) + "\n").encode()


ESTIMATE_DOC = '{"matrix": %s, "labels": [%s], "model": "dc", "method": "direct", "n_samples": 5}'
ONE_BY_ONE = ESTIMATE_DOC % ("[[1.0]]", '"theta_1"')


@pytest.mark.parametrize(
    "text,match",
    [
        ("{not json", "invalid JSON"),
        ('{"matrix": [[1.0]], "model": "dc", "method": "direct", "n_samples": 5}',
         "missing field 'labels'"),
        (ESTIMATE_DOC % ('[[2.0, 1.0], [0.0, 2.0]]', '"theta_1", "theta_2"'), "not symmetric"),
        (ESTIMATE_DOC % ('[[1.0, 2.0], [2.0, 1.0]]', '"theta_1", "theta_2"'), "not positive definite"),
        (ESTIMATE_DOC % ('[[1.0]]', '"x_1"'), "bad variable label"),
        (ESTIMATE_DOC % ('[[1.0]]', '0'), "bad variable label 0; expected a string"),
        (ESTIMATE_DOC % ('[["a"]]', '"theta_1"'), "could not convert"),
        (ESTIMATE_DOC.replace('"n_samples": 5', '"n_samples": 0') % ('[[1.0]]', '"theta_1"'),
         "n_samples must be positive"),
        (ESTIMATE_DOC.replace('"dc"', '"lc"') % ('[[1.0, 0.0], [0.0, 1.0]]', '"theta_1", "theta_2"'),
         "lc variables must be v_<bus> labels"),
        (ESTIMATE_DOC % ('[[1.0, 0.0], [0.0, 1.0]]', '"theta_1", "theta_1"'),
         "dc variables must be theta_<bus> labels on distinct buses"),
        (ESTIMATE_DOC.replace('"n_samples": 5', '"n_samples": 400.9') % ('[[1.0]]', '"theta_1"'),
         "n_samples must be an integer, got 400.9"),
        (ESTIMATE_DOC.replace('"n_samples": 5', '"n_samples": "400"') % ('[[1.0]]', '"theta_1"'),
         "n_samples must be an integer, got '400'"),
        (ESTIMATE_DOC.replace('"n_samples": 5', '"n_samples": true') % ('[[1.0]]', '"theta_1"'),
         "n_samples must be an integer, got True"),
        (ESTIMATE_DOC % ('[[1%s]]' % ("0" * 400), '"theta_1"'), "too large to convert to float"),
        (ONE_BY_ONE.replace("}", ', "converged": "false"}'), "converged must be a boolean, got 'false'"),
        (ONE_BY_ONE.replace("}", ', "converged": 0}'), "converged must be a boolean, got 0"),
        (ONE_BY_ONE.replace("}", ', "iterations": 12.7}'), "iterations must be an integer, got 12.7"),
        (ONE_BY_ONE.replace("}", ', "iterations": true}'), "iterations must be an integer, got True"),
        (ONE_BY_ONE.replace("}", ', "lambda": "0.05"}'), "lambda must be a finite number >= 0, got '0.05'"),
        (ONE_BY_ONE.replace("}", ', "lambda": true}'), "lambda must be a finite number >= 0, got True"),
        (ONE_BY_ONE.replace("}", ', "lambda": -0.1}'), "lambda must be a finite number >= 0, got -0.1"),
        (ONE_BY_ONE.replace("}", ', "lambda": NaN}'), "lambda must be a finite number >= 0, got nan"),
        (ONE_BY_ONE.replace("}", ', "lambda": 1%s}' % ("0" * 400)), "lambda must be a finite number >= 0"),
        (ONE_BY_ONE.replace("}", ', "termination": 5}'), "termination must be a string, got 5"),
        (ONE_BY_ONE.replace("}", ', "objective_trace": "abc"}'),
         "objective_trace must be a list of numbers, got 'abc'"),
        (ONE_BY_ONE.replace("}", ', "objective_trace": [1.0, "2"]}'),
         "objective_trace must be a list of numbers"),
        (ONE_BY_ONE.replace("}", ', "kkt": [1]}'), r"kkt must be an object or null, got \[1\]"),
        (ONE_BY_ONE.replace('"direct"', '"banana"'), "method must be 'direct' or 'glasso', got 'banana'"),
        (ONE_BY_ONE.replace('"direct"', '5'), "method must be 'direct' or 'glasso', got 5"),
        (ESTIMATE_DOC % ('[[1.0, NaN], [NaN, 1.0]]', '"theta_1", "theta_2"'),
         r"concentration matrix entry \(theta_1, theta_2\) is nan, not a finite number"),
        (ESTIMATE_DOC % ('[[1.0, Infinity], [Infinity, 1.0]]', '"theta_1", "theta_2"'),
         r"concentration matrix entry \(theta_1, theta_2\) is inf, not a finite number"),
        (ONE_BY_ONE.replace('"dc"', '"ac"'), "model must be 'dc' or 'lc', got 'ac'"),
        (ESTIMATE_DOC % ('[[[2.0, 1.0], [1.0, 2.0]], [[2.0, 1.0], [1.0, 2.0]]]', '"theta_1", "theta_2"'),
         re.escape("matrix must be 2-D, got shape (2, 2, 2)")),
        (ESTIMATE_DOC % ('[[1.0, 0.0], [0.0, 1.0]]', '"theta_1"'), "concentration matrix shape does not match labels"),
        ("[1, 2]", "expected a JSON object, got list"),
    ],
    ids=["invalid-json", "missing-labels", "asymmetric", "not-pd", "bad-label", "integer-label",
         "non-numeric", "zero-samples", "lc-without-v", "repeated-bus", "fractional-samples", "string-samples",
         "bool-samples", "huge-entry", "string-converged", "integer-converged", "fractional-iterations",
         "bool-iterations", "string-lambda", "bool-lambda", "negative-lambda", "nan-lambda", "huge-lambda",
         "integer-termination", "string-trace", "trace-with-a-string", "list-kkt", "unknown-method",
         "integer-method", "nan-pair", "inf-pair", "unknown-model", "stacked-matrix", "shape-mismatch",
         "list-document"],
)
def test_load_estimate_json_rejects_malformed_files(tmp_path, text, match):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match=match) as exc:
            load_estimate_json(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert caught == []
