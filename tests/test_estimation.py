"""Covariance estimation and the graphical lasso solver."""
import numpy as np
import pytest

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
from gridtopo.learning import gm_noise_scale
from gridtopo.powerflow import InjectionStats, dc_concentration
from gridtopo.sampling import generate_voltage_samples


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


def test_invert_covariance_matches_numpy():
    cov = random_pd_cov(np.random.default_rng(0), 6)
    np.testing.assert_allclose(invert_covariance(cov), np.linalg.inv(cov), rtol=1e-9)


def test_invert_covariance_matches_analytic_concentration(radial20):
    from gridtopo.powerflow import dc_phase_covariance

    st = InjectionStats.uniform(radial20)
    J = invert_covariance(dc_phase_covariance(radial20, st))
    want = dc_concentration(radial20, st).matrix
    assert np.abs(J - want).max() / np.abs(want).max() < 1e-8


def test_invert_covariance_rank_deficiency():
    v = np.arange(1.0, 5.0)
    with pytest.raises(RankDeficiencyError, match="eigenvalue"):
        invert_covariance(np.outer(v, v))


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
    np.testing.assert_allclose(S, [[1.0 / 2.5]])
    assert info == {
        "iterations": 0,
        "converged": True,
        "termination": "tol",
        "objective_trace": [glasso_objective(S, np.array([[2.0]]), 0.5)],
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


def test_glasso_penalized_diagonal_kkt():
    cov = random_pd_cov(np.random.default_rng(8), 5)
    cfg = GlassoConfig(diagonal_penalized=True)
    S, _ = graphical_lasso(cov, 0.15, cfg)
    kkt = kkt_violations(cov, S, 0.15, diagonal_penalized=True)
    assert max(kkt.values()) <= 1e-4 * np.abs(cov).max()


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
    assert select_lambda(s, grid_size_hint=40) == pytest.approx(0.0480160, abs=1e-6)
    assert select_lambda(s) == pytest.approx(0.5 * np.sqrt(np.log(19) / 400))
    assert select_lambda(s, grid_size_hint=1) == 0.0


# ----------------------------------------------------------------------
# the one estimator interface
# ----------------------------------------------------------------------


def test_estimate_auto_switches_on_sample_size(radial20):
    st = InjectionStats.uniform(radial20)
    big = generate_voltage_samples(radial20, st, "dc", 200, seed=1)
    small = generate_voltage_samples(radial20, st, "dc", 50, seed=1)
    assert estimate_concentration(big).method == "direct"  # 200 >= 5*19
    est = estimate_concentration(small)
    assert est.method == "glasso"
    assert est.lam == pytest.approx(select_lambda(small))
    assert est.kkt is not None and est.converged


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
    assert se.shape == est.matrix.shape
    assert np.all(se > 0)


def test_estimate_json_roundtrip(tmp_path, radial20):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), "dc", 60, seed=7)
    est = estimate_concentration(s)  # glasso path: exercises every field
    path = tmp_path / "est.json"
    write_estimate_json(est, path)
    back = load_estimate_json(path)
    np.testing.assert_allclose(back.matrix, est.matrix)
    assert back.labels == est.labels
    assert (back.model, back.method, back.n_samples) == (est.model, est.method, est.n_samples)
    assert back.lam == est.lam
    assert back.objective_trace == est.objective_trace
    assert back.kkt == est.kkt
    conc = back.concentration
    assert conc.model == "dc" and conc.dim == 19


ESTIMATE_DOC = '{"matrix": %s, "labels": [%s], "model": "dc", "method": "direct", "n_samples": 5}'


@pytest.mark.parametrize(
    "text,match",
    [
        ("{not json", "invalid JSON"),
        ('{"matrix": [[1.0]], "model": "dc", "method": "direct", "n_samples": 5}',
         "missing field 'labels'"),
        (ESTIMATE_DOC % ('[[2.0, 1.0], [0.0, 2.0]]', '"theta_1", "theta_2"'), "not symmetric"),
        (ESTIMATE_DOC % ('[[1.0, 2.0], [2.0, 1.0]]', '"theta_1", "theta_2"'), "not positive definite"),
        (ESTIMATE_DOC % ('[[1.0]]', '"x_1"'), "bad variable label"),
        (ESTIMATE_DOC % ('[["a"]]', '"theta_1"'), "could not convert"),
        (ESTIMATE_DOC.replace('"n_samples": 5', '"n_samples": 0') % ('[[1.0]]', '"theta_1"'),
         "n_samples must be positive"),
        (ESTIMATE_DOC.replace('"dc"', '"lc"') % ('[[1.0, 0.0], [0.0, 1.0]]', '"theta_1", "theta_2"'),
         "lc variables must be v_<bus> labels"),
        (ESTIMATE_DOC % ('[[1.0, 0.0], [0.0, 1.0]]', '"theta_1", "theta_1"'),
         "dc variables must be theta_<bus> labels on distinct buses"),
    ],
    ids=["invalid-json", "missing-labels", "asymmetric", "not-pd", "bad-label", "non-numeric",
         "zero-samples", "lc-without-v", "repeated-bus"],
)
def test_load_estimate_json_rejects_malformed_files(tmp_path, text, match):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        load_estimate_json(path)
