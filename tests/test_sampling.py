"""Sample generation: determinism, moments, convergence rate, CSV round-trip."""
import csv
import io
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import girth7_grid
from gridtopo.estimation import empirical_covariance, estimate_concentration, graphical_lasso, select_lambda
from gridtopo.exceptions import (
    InvalidInjectionStatsError,
    ModelMismatchError,
    RankDeficiencyError,
    SampleFormatError,
)
from gridtopo.grid import BUILTIN_GRIDS, builtin_grid, bus_distance, grid_hash, make_grid, reduced_laplacian
from gridtopo.powerflow import (
    InjectionStats,
    dc_concentration,
    dc_labels,
    dc_phase_covariance,
    lc_concentration,
    lc_labels,
    lc_system_matrix,
    lc_voltage_covariance,
    parse_label,
    solve_dc,
    solve_lc,
    whitened_system,
)
from gridtopo.sampling import (
    _BLOCK_CELLS,
    SampleCovariance,
    SampleSet,
    derive_trial_seed,
    draw_plan,
    draw_sample_covariance,
    generate_injections,
    generate_voltage_samples,
    load_samples_csv,
    sidecar_path,
    write_samples_csv,
    _csv_rows,
)


def test_derive_trial_seed_stable_and_distinct():
    assert derive_trial_seed(0, 1000, 3) == derive_trial_seed(0, 1000, 3)
    seeds = {
        derive_trial_seed(root, n, t)
        for root in (0, 1)
        for n in (100, 1000)
        for t in range(5)
    }
    assert len(seeds) == 20


def test_same_seed_reproduces_samples(radial20):
    st = InjectionStats.uniform(radial20)
    a = generate_voltage_samples(radial20, st, "lc", 50, seed=9)
    b = generate_voltage_samples(radial20, st, "lc", 50, seed=9)
    assert np.array_equal(a.data, b.data)
    c = generate_voltage_samples(radial20, st, "lc", 50, seed=10)
    assert not np.array_equal(a.data, c.data)


def test_injection_moments():
    pp = np.array([1.0, 2.0, 0.5])
    qq = np.array([1.5, 1.0, 2.0])
    pq = np.array([0.5, -0.8, 0.3])
    st = InjectionStats(pp, qq, pq)
    rng = np.random.default_rng(123)
    p, q = generate_injections(st, 200_000, rng)
    np.testing.assert_allclose((p * p).mean(axis=0), pp, atol=0.02)
    np.testing.assert_allclose((q * q).mean(axis=0), qq, atol=0.02)
    np.testing.assert_allclose((p * q).mean(axis=0), pq, atol=0.02)


def test_dc_and_lc_share_the_injection_stream(radial20):
    # recover injections from the voltages; same seed must give the same p
    st = InjectionStats.uniform(radial20)
    dc = generate_voltage_samples(radial20, st, "dc", 40, seed=5)
    lc = generate_voltage_samples(radial20, st, "lc", 40, seed=5)
    H = reduced_laplacian(radial20)
    p_dc = dc.data @ H.T
    pq_lc = np.concatenate([lc.data[:, :19], lc.data[:, 19:]], axis=1) @ lc_system_matrix(radial20).T
    np.testing.assert_allclose(p_dc, pq_lc[:, :19], atol=1e-10)


def _solve_route(grid, stats, model, n, seed):
    """Reference: draw the injections, then solve the power flow per snapshot."""
    p, q = generate_injections(stats, n, np.random.default_rng(seed))
    if model == "dc":
        return solve_dc(grid, p)
    return np.concatenate(solve_lc(grid, p, q), axis=1)


def _assert_matches_solve_route(grid, stats, model, n, seed):
    """Both routes are backward stable, so each lies within about cond * eps
    of the exact voltages; 1e-12 of the largest entry, or that bound on an
    ill-conditioned system, is far below any error in the map itself."""
    got = generate_voltage_samples(grid, stats, model, n, seed).data
    want = _solve_route(grid, stats, model, n, seed)
    system = reduced_laplacian(grid) if model == "dc" else lc_system_matrix(grid)
    tol = max(1e-12, np.finfo(float).eps * np.linalg.cond(system))
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def _random_stats(grid, rng):
    """Per-bus variances in [0.5, 2] and correlations in [-0.9, 0.9]."""
    k = len(grid.non_reference_buses)
    pp, qq = rng.uniform(0.5, 2.0, k), rng.uniform(0.5, 2.0, k)
    return InjectionStats(pp, qq, rng.uniform(-0.9, 0.9, k) * np.sqrt(pp * qq))


@pytest.mark.parametrize("random_stats", [False, True], ids=["uniform", "random"])
@pytest.mark.parametrize("model", ["dc", "lc"])
@pytest.mark.parametrize("name", BUILTIN_GRIDS)
def test_samples_match_the_per_snapshot_solve(name, model, random_stats):
    grid = builtin_grid(name)
    st = _random_stats(grid, np.random.default_rng(3)) if random_stats else InjectionStats.uniform(grid)
    _assert_matches_solve_route(grid, st, model, 300, seed=21)


@pytest.mark.parametrize("model", ["dc", "lc"])
def test_samples_match_the_per_snapshot_solve_on_a_deep_feeder(model):
    # each bus hangs off one of the 3 buses before it: a long, ill-conditioned H_b
    rng = np.random.default_rng(0)
    lines = [(int(rng.integers(max(0, b - 3), b)), b, float(rng.uniform(0.02, 0.08)),
              float(rng.uniform(0.05, 0.12))) for b in range(1, 400)]
    grid = make_grid(0, range(400), lines)
    _assert_matches_solve_route(grid, _random_stats(grid, rng), model, 200, seed=4)


@st.composite
def grids_with_stats(draw):
    """A random tree on 2-20 buses (reference 0) plus 0-4 chords, with
    random line impedances and random per-bus injection statistics."""
    n = draw(st.integers(2, 20))
    lines = {(draw(st.integers(0, b - 1)), b) for b in range(1, n)}
    if n > 2:
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            lines.add((min(i, j), max(i, j)))
    impedance = st.tuples(st.floats(0.005, 0.1), st.floats(0.01, 0.3))
    grid = make_grid(0, range(n), [(i, j, *draw(impedance)) for i, j in sorted(lines)])
    k = n - 1
    pp = np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=k, max_size=k)))
    qq = np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=k, max_size=k)))
    rho = np.array(draw(st.lists(st.floats(-0.95, 0.95), min_size=k, max_size=k)))
    return grid, InjectionStats(pp, qq, rho * np.sqrt(pp * qq))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(grids_with_stats(), st.sampled_from(["dc", "lc"]))
def test_concentration_covariance_and_samples_share_one_system(case, model):
    # J = M^T M inverts Cov = M^{-1} M^{-T}: each entry of J @ Cov - I lies
    # within a small multiple of d * cond(M) * eps, the forward error of the
    # computed inverse; the samples agree with the per-snapshot solve
    grid, stats = case
    J = (dc_concentration if model == "dc" else lc_concentration)(grid, stats).matrix
    cov = (dc_phase_covariance if model == "dc" else lc_voltage_covariance)(grid, stats)
    assert np.array_equal(cov, cov.T)
    bound = 10 * len(J) * np.linalg.cond(whitened_system(grid, stats, model)) * np.finfo(float).eps
    assert np.abs(J @ cov - np.eye(len(J))).max() <= bound
    _assert_matches_solve_route(grid, stats, model, 50, seed=len(J))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(grids_with_stats(), st.sampled_from(["dc", "lc"]))
def test_exact_concentration_is_the_gram_of_the_whitened_system(case, model):
    # summed from M's non-zeros: exactly symmetric, within rounding of the
    # dense M^T M, and zero between buses more than two lines apart once
    # the reference is removed (DC: non-zero at every pair within two)
    grid, stats = case
    J = (dc_concentration if model == "dc" else lc_concentration)(grid, stats).matrix
    M = whitened_system(grid, stats, model)
    assert np.array_equal(J, J.T)
    assert np.abs(J - M.T @ M).max() <= 10 * np.finfo(float).eps * np.abs(J).max()
    buses = grid.non_reference_buses * (2 if model == "lc" else 1)
    hops = np.array([[bus_distance(grid, a, b, through_reference=False) for b in buses] for a in buses])
    assert np.all(J[hops > 2] == 0)
    if model == "dc":
        assert np.array_equal(J != 0, hops <= 2)


def test_generate_rejects_stats_of_another_grid(radial20, ieee14):
    with pytest.raises(InvalidInjectionStatsError, match="19 non-reference"):
        generate_voltage_samples(radial20, InjectionStats.uniform(ieee14), "dc", 10)


def test_sample_covariance_tracks_analytic(radial20):
    st = InjectionStats.uniform(radial20)
    s = generate_voltage_samples(radial20, st, "dc", 50_000, seed=2)
    want = dc_phase_covariance(radial20, st)
    got = empirical_covariance(s.data)
    se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / s.n)
    assert (np.abs(got - want) / se).max() < 5.0


def test_deviation_decays_like_root_n(radial20):
    # Frobenius error of the empirical covariance, averaged over 8 trials,
    # should shrink by ~sqrt(10) per decade of n (within a factor of 2)
    st = InjectionStats.uniform(radial20)
    target = dc_phase_covariance(radial20, st)
    means = []
    for n in (1000, 10_000, 100_000):
        devs = []
        for trial in range(8):
            s = generate_voltage_samples(radial20, st, "dc", n, seed=derive_trial_seed(0, n, trial))
            devs.append(np.linalg.norm(empirical_covariance(s.data) - target))
        means.append(np.mean(devs))
    root10 = 10.0**0.5
    for big, small in zip(means, means[1:]):
        assert root10 / 2.0 <= big / small <= root10 * 2.0


# ----------------------------------------------------------------------
# the drawn covariance of experiment trials; the snapshots are its oracle
# ----------------------------------------------------------------------


def _moment_z_scores(covs: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """z-scores of the entry means and variances of T draws (T x d x d)
    against the given moments; the variance's standard error is estimated
    from the draws' own squared deviations."""
    T = covs.shape[0]
    dev2 = (covs - covs.mean(axis=0)) ** 2
    z_mean = (covs.mean(axis=0) - mean) / np.sqrt(var / T)
    z_var = (dev2.mean(axis=0) * T / (T - 1) - var) / (dev2.std(axis=0) / np.sqrt(T))
    return np.abs(np.concatenate([z_mean.ravel(), z_var.ravel()]))


@pytest.mark.parametrize("model,n", [("dc", 3), ("dc", 12), ("lc", 5), ("lc", 20)])
def test_drawn_covariance_has_the_moments_of_the_sample_covariance(model, n):
    # a meshed 5-bus grid with correlated injections, 2N = 8: n = 3 and 5 sit
    # below 2N.  X^T X is Wishart with scale n Sigma, so an entry of X^T X / n
    # has mean Sigma_ij and variance (Sigma_ij^2 + Sigma_ii Sigma_jj) / n.  Over
    # 2000 draws both the drawn covariance and the snapshots' covariance match
    # these moments within 5 standard errors, and each other within 5.
    grid = make_grid(0, range(5), [(0, 1, 0.02, 0.06), (1, 2, 0.03, 0.08), (2, 3, 0.02, 0.05),
                                   (3, 4, 0.04, 0.1), (1, 4, 0.03, 0.07)])
    st = _random_stats(grid, np.random.default_rng(8))
    sigma = (dc_phase_covariance if model == "dc" else lc_voltage_covariance)(grid, st)
    var = (sigma**2 + np.outer(np.diag(sigma), np.diag(sigma))) / n
    T = 2000
    plan = draw_plan(grid, st, model)
    drawn = np.array([draw_sample_covariance(plan, n, seed).covariance for seed in range(T)])
    oracle = np.array([empirical_covariance(generate_voltage_samples(grid, st, model, n, seed).data)
                       for seed in range(T, 2 * T)])
    assert _moment_z_scores(drawn, sigma, var).max() < 5.0
    assert _moment_z_scores(oracle, sigma, var).max() < 5.0
    se = np.sqrt((drawn.var(axis=0) + oracle.var(axis=0)) / T)
    assert (np.abs(drawn.mean(axis=0) - oracle.mean(axis=0)) / se).max() < 5.0


@pytest.mark.parametrize("model", ["dc", "lc"])
def test_same_seed_reproduces_the_drawn_covariance(radial20, model):
    st = InjectionStats.uniform(radial20)
    plan = draw_plan(radial20, st, model)
    a = draw_sample_covariance(plan, 50, seed=9)
    b = draw_sample_covariance(plan, 50, seed=9)
    c = draw_sample_covariance(plan, 50, seed=10)
    assert np.array_equal(a.covariance, b.covariance)
    assert not np.array_equal(a.covariance, c.covariance)
    assert np.array_equal(a.covariance, a.covariance.T)
    assert (a.n, a.dim, a.model) == (50, 19 if model == "dc" else 38, model)
    assert a.labels == (dc_labels(radial20) if model == "dc" else lc_labels(radial20))


@pytest.mark.parametrize("n", [20, 200])
def test_drawn_covariance_maps_the_documented_bartlett_factor(radial20, n):
    # with unit, uncorrelated injections z^T z is the scatter of (p, q); the
    # power flow maps the drawn covariances back to it, and DC and LC at one
    # seed map the same R^T R, built here as draw_sample_covariance documents:
    # its columns are z's in (z_p; z_q) block order
    N = 19
    st = InjectionStats(np.ones(N), np.ones(N), np.zeros(N))
    rng = np.random.default_rng(4)
    m = min(n, 2 * N)
    R = np.triu(rng.standard_normal((m, 2 * N)), 1)
    R[np.arange(m), np.arange(m)] = np.sqrt(rng.chisquare(n - np.arange(m)))
    scatter = R.T @ R
    A = lc_system_matrix(radial20)
    lc = n * A @ draw_sample_covariance(draw_plan(radial20, st, "lc"), n, seed=4).covariance @ A.T
    H = reduced_laplacian(radial20)
    dc = n * H @ draw_sample_covariance(draw_plan(radial20, st, "dc"), n, seed=4).covariance @ H.T
    tol = 1e-9 * np.abs(scatter).max()
    np.testing.assert_allclose(lc, scatter, rtol=0, atol=tol)
    np.testing.assert_allclose(dc, scatter[:N, :N], rtol=0, atol=tol)


@pytest.mark.parametrize("model,n", [("lc", 20), ("lc", 37), ("dc", 10), ("dc", 60), ("dc", 95)])
def test_drawn_covariance_has_the_rank_of_the_samples(radial20, model, n):
    # below 2N the scatter has rank n either way, so the direct inverse (auto
    # with it) fails exactly where it would on samples
    st = InjectionStats.uniform(radial20)
    drawn = draw_sample_covariance(draw_plan(radial20, st, model), n, seed=2)
    samples = generate_voltage_samples(radial20, st, model, n, seed=2)
    rank = min(n, samples.dim)
    assert np.linalg.matrix_rank(drawn.covariance) == rank
    assert np.linalg.matrix_rank(samples.covariance) == rank
    for source in (drawn, samples):
        for method in ("direct", "auto"):
            if rank < source.dim:
                with pytest.raises(RankDeficiencyError):
                    estimate_concentration(source, method=method)
            else:
                assert estimate_concentration(source, method=method).method == "direct"


def test_estimate_reads_the_covariance_its_input_holds(radial20):
    # one estimator interface: a SampleCovariance holding sqrt(n) times the
    # Cholesky factor of a SampleSet's covariance gives the same direct
    # estimate bit for bit (n = 64: scaling by sqrt(n) = 8 is exact), and
    # runs glasso on the covariance it holds, which is the SampleSet's
    # within rounding, so the two glasso estimates agree within its tol
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), "dc", 64, seed=3)
    held = SampleCovariance(factor=np.sqrt(s.n) * np.linalg.cholesky(s.covariance).T,
                            system=np.eye(s.dim), n=s.n, labels=s.labels, model=s.model)
    assert estimate_concentration(held, "direct").to_dict() == estimate_concentration(s, "direct").to_dict()
    np.testing.assert_allclose(held.covariance, s.covariance, rtol=1e-12, atol=0)
    a = estimate_concentration(s, method="glasso")
    b = estimate_concentration(held, method="glasso")
    lam = select_lambda(held)
    assert b.lam == lam
    assert np.array_equal(b.concentration.matrix, graphical_lasso(held.covariance, lam)[0])
    assert (a.method, a.n_samples, a.lam) == (b.method, b.n_samples, b.lam)
    np.testing.assert_allclose(b.concentration.matrix, a.concentration.matrix,
                               rtol=0, atol=1e-6 * np.abs(a.concentration.matrix).max())


def test_draw_rejects_bad_arguments(radial20):
    st = InjectionStats.uniform(radial20)
    with pytest.raises(ModelMismatchError):
        draw_plan(radial20, st, "ac")
    with pytest.raises(SampleFormatError):
        draw_sample_covariance(draw_plan(radial20, st, "dc"), 0, seed=0)


def test_generate_defaults_to_dc(radial20):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), n=10, seed=1)
    assert s.model == "dc"
    assert s.labels == dc_labels(radial20)
    assert (s.n, s.dim) == (10, 19)
    assert s.grid_hash == grid_hash(radial20)


def test_generate_rejects_bad_arguments(radial20):
    st = InjectionStats.uniform(radial20)
    with pytest.raises(ModelMismatchError):
        generate_voltage_samples(radial20, st, "ac", 10)
    with pytest.raises(SampleFormatError):
        generate_voltage_samples(radial20, st, "dc", 0)


def test_sampleset_validation(radial20):
    labels = dc_labels(radial20)
    with pytest.raises(SampleFormatError, match="does not match"):
        SampleSet(np.zeros((4, 3)), labels, "dc", 0, "h")
    with pytest.raises(ModelMismatchError):
        SampleSet(np.zeros((4, 19)), labels, "ac", 0, "h")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_sampleset_rejects_a_non_finite_entry(radial20, value):
    # an in-memory set fails where it is built, naming the entry, and never
    # reaches the Cholesky factor of its covariance
    data = np.ones((40, 19))
    data[7, 2] = value
    with pytest.raises(SampleFormatError) as exc:
        SampleSet(data, dc_labels(radial20), "dc", 0, "h")
    assert str(exc.value) == f"snapshot 7, column theta_3: {value} is not a finite number"


@pytest.mark.parametrize(
    "model,labels",
    [
        ("dc", ("v_1", "v_2")),
        ("dc", ("theta_1", "theta_1")),
        ("lc", ("theta_1", "theta_2")),
        ("lc", ("v_1", "v_2", "theta_2", "theta_1")),
        ("lc", ("v_1", "v_1", "theta_1", "theta_1")),
        ("lc", ("v_1", "theta_1", "theta_2")),
    ],
)
def test_sampleset_rejects_labels_out_of_layout(model, labels):
    labels = tuple(parse_label(t) for t in labels)
    with pytest.raises(SampleFormatError, match=f"{model} variables must be"):
        SampleSet(np.zeros((4, len(labels))), labels, model, 0, "h")


# ----------------------------------------------------------------------
# CSV + sidecar round-trip
# ----------------------------------------------------------------------


def test_csv_roundtrip_is_exact(tmp_path, loopy20_c4):
    st = InjectionStats.uniform(loopy20_c4)
    s = generate_voltage_samples(loopy20_c4, st, "lc", 25, seed=4)
    path = tmp_path / "samples.csv"
    write_samples_csv(s, path)
    assert (tmp_path / "samples.csv.meta.json").exists()
    back = load_samples_csv(path)
    assert np.array_equal(back.data, s.data)  # %.17g round-trips float64
    assert back.labels == s.labels
    assert (back.model, back.seed, back.grid_hash) == (s.model, s.seed, s.grid_hash)


def _reference_csv(samples: SampleSet) -> bytes:
    """The row-by-row writer: csv.writer with format(v, ".17g") per cell."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([lab.text for lab in samples.labels])
    for row in samples.data:
        writer.writerow([format(v, ".17g") for v in row])
    return buf.getvalue().encode("utf-8")


def _assert_bytes_and_roundtrip(samples: SampleSet, path):
    write_samples_csv(samples, path)
    assert path.read_bytes() == _reference_csv(samples)
    back = load_samples_csv(path)
    assert np.array_equal(back.data, samples.data)
    assert back.data.tobytes() == samples.data.tobytes()  # signed zeros too


@pytest.mark.parametrize("model", ["dc", "lc"])
@pytest.mark.parametrize("name", BUILTIN_GRIDS)
def test_csv_bytes_match_reference_writer(tmp_path, name, model):
    grid = builtin_grid(name)
    s = generate_voltage_samples(grid, InjectionStats.uniform(grid), model, 30, seed=11)
    _assert_bytes_and_roundtrip(s, tmp_path / "s.csv")


def test_csv_bytes_match_reference_writer_on_edge_values(tmp_path, radial20):
    edge = [-0.0, 5e-324, 1e308, 1 / 3, -1e-300]
    data = np.array([edge, edge[::-1]])
    s = SampleSet(data, dc_labels(radial20)[:5], "dc", 0, "h")
    _assert_bytes_and_roundtrip(s, tmp_path / "s.csv")


@pytest.mark.parametrize("model", ["dc", "lc"])
def test_csv_bytes_match_reference_writer_on_a_100_bus_grid(tmp_path, model):
    # 1 001 rows are several blocks, the last one short
    grid = girth7_grid()
    s = generate_voltage_samples(grid, InjectionStats.uniform(grid), model, 1001, seed=3)
    assert s.n % (_BLOCK_CELLS // s.dim) != 0
    _assert_bytes_and_roundtrip(s, tmp_path / "s.csv")


def test_csv_bytes_match_reference_writer_across_blocks(tmp_path, radial20):
    # one row, two full blocks, and two blocks and 5 rows, of 3 columns, with
    # every kind of cell: zeros, subnormals, the formatter's range, 1e308
    rng = np.random.default_rng(8)
    rows = _BLOCK_CELLS // 3
    for n in (1, 2 * rows, 2 * rows + 5):
        data = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-320, 308, (n, 3))
        data[rng.random((n, 3)) < 0.01] = 0.0
        s = SampleSet(data, dc_labels(radial20)[:3], "dc", 0, "h")
        _assert_bytes_and_roundtrip(s, tmp_path / "s.csv")


def _reference_rows(block: np.ndarray) -> str:
    return "".join(",".join(format(v, ".17g") for v in row) + "\r\n" for row in block.tolist())


def _assert_rows_match_python_format(block: np.ndarray):
    text = _csv_rows(block).decode("ascii")
    # cell by cell first, so a failure names the cell
    assert [row.split(",") for row in text.split("\r\n")] == (
        [[format(v, ".17g") for v in row] for row in block.tolist()] + [[""]])
    assert text == _reference_rows(block)


FINITE_BITS = (st.integers(0, 2**64 - 1)
               .map(lambda b: float(np.array(b, np.uint64).view(np.float64)))
               .filter(math.isfinite))
# the last two draw mostly cells in the formatter's range, 1e-6 < |v| < 1e16
CELLS = (st.floats(allow_nan=False, allow_infinity=False) | FINITE_BITS
         | st.floats(1e-7, 1e17) | st.floats(-1e17, -1e-7))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.data())
def test_csv_rows_match_python_format(data):
    shape = data.draw(st.sampled_from([(1, 1), (1, 7), (7, 1)]) | st.tuples(st.integers(1, 6), st.integers(1, 6)))
    cells = data.draw(st.lists(CELLS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    _assert_rows_match_python_format(np.array(cells, dtype=float).reshape(shape))


def _largest_double_below(t: Fraction) -> float:
    x = float(t)
    return float(np.nextafter(x, 0.0)) if Fraction(x) >= t else x


#: zero, the smallest subnormal and normal, 1e308, both sides of 1e-6 and
#: 1e16 (the formatter's range), the fixed/exponent switch at 1e-4, the
#: powers of ten in range and the largest double below each, 1e17, and two
#: ties at the 18th digit; the test adds their negatives
EDGE_CELLS = ([0.0, 5e-324, 2.2250738585072014e-308, 1e308,
               float(np.nextafter(1e-6, 0.0)), 1e-6, float(np.nextafter(1e-6, 1.0)),
               float(np.nextafter(1e16, 0.0)), 1e16, float(np.nextafter(1e16, np.inf)),
               9.9999999999999995e-5, 1e-4, 9999999999999998.0, 1e17,
               123456789012345.625, 123456789012345.875]
              + [_largest_double_below(Fraction(10) ** m) for m in range(-5, 17)]
              + [10.0 ** m for m in range(-5, 16)])


def test_csv_rows_match_python_format_on_edge_cells():
    cells = np.array(EDGE_CELLS + [-v for v in EDGE_CELLS])
    for shape in ((1, cells.size), (cells.size, 1), (2, cells.size // 2)):
        _assert_rows_match_python_format(cells.reshape(shape))
    for v in cells:
        _assert_rows_match_python_format(np.array([[v]]))
    assert _csv_rows(np.empty((3, 0))).decode("ascii") == _reference_rows(np.empty((3, 0)))
    assert _csv_rows(np.array([[123456789012345.625, -123456789012345.875]])) == (
        b"123456789012345.62,-123456789012345.88\r\n")
    assert _csv_rows(np.array([[9.9999999999999995e-5, 1e-4, -0.0]])) == b"9.9999999999999991e-05,0.0001,-0\r\n"


@pytest.mark.parametrize("m", range(-5, 17))
def test_no_cell_in_the_formatters_range_rounds_up_to_a_power_of_ten(m):
    # _csv_rows has no carry: 17 digits of the largest double below 10^m
    # stay below 10^m, so no double below it rounds up either
    below = _largest_double_below(Fraction(10) ** m)
    assert Fraction(10) ** m - Fraction(below) > Fraction(10) ** (m - 17) / 2


def test_load_requires_sidecar(tmp_path, radial20):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), n=5, seed=0)
    path = tmp_path / "s.csv"
    write_samples_csv(s, path)
    (tmp_path / "s.csv.meta.json").unlink()
    with pytest.raises(SampleFormatError, match="sidecar"):
        load_samples_csv(path)


NOT_INTEGERS = [("n", "four hundred"), ("n", "5"), ("n", 5.0), ("n", True), ("n", None),
                ("seed", None), ("seed", False), ("seed", "0"), ("seed", 0.5), ("seed", [0])]


@pytest.mark.parametrize(
    "tamper,match",
    [
        (lambda meta: meta.update(n=99) or meta, "claims n=99"),
        (lambda meta: meta.pop("seed") and meta, "missing field 'seed'"),
    ] + [
        pytest.param(lambda meta, f=f, v=v: meta.update({f: v}),
                     re.escape(f"s.csv.meta.json: field {f!r} must be an integer, got {v!r}"),
                     id=f"{f}-{v!r}")
        for f, v in NOT_INTEGERS
    ],
)
def test_load_rejects_bad_sidecar(tmp_path, radial20, tamper, match):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), n=5, seed=0)
    path = tmp_path / "s.csv"
    write_samples_csv(s, path)
    sc = sidecar_path(path)
    meta = json.loads(open(sc).read())
    tamper(meta)
    with open(sc, "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(SampleFormatError, match=match):
        load_samples_csv(path)


@pytest.mark.parametrize("doc", ["[]", "5", '"meta"', "null"])
def test_load_rejects_sidecar_that_is_not_an_object(tmp_path, radial20, doc):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), n=5, seed=0)
    path = tmp_path / "s.csv"
    write_samples_csv(s, path)
    with open(sidecar_path(path), "w") as fh:
        fh.write(doc + "\n")
    with pytest.raises(SampleFormatError,
                       match=re.escape(f"{sidecar_path(path)}: expected a JSON object, got ")):
        load_samples_csv(path)


def test_load_rejects_malformed_csv(tmp_path, radial20):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), n=5, seed=0)
    path = tmp_path / "s.csv"
    write_samples_csv(s, path)

    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "1.0,2.0"]) + "\n")
    with pytest.raises(SampleFormatError, match="row 1 has 2 fields"):
        load_samples_csv(path)

    path.write_text("\n".join(lines[:3] + ["1.0,2.0"] + lines[4:]) + "\n")
    with pytest.raises(SampleFormatError, match="row 3 has 2 fields, expected 19"):
        load_samples_csv(path)

    fields = lines[3].split(",")
    fields[4] = "abc"
    path.write_text("\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n")
    with pytest.raises(SampleFormatError, match="row 3, column theta_5: 'abc' is not a number"):
        load_samples_csv(path)

    fields = lines[5].split(",")
    fields[-1] = "1.0x"
    path.write_text("\n".join(lines[:5] + [",".join(fields)]) + "\n")
    with pytest.raises(SampleFormatError, match="row 5, column theta_19: '1.0x' is not a number"):
        load_samples_csv(path)

    # comments=None: a '#' row is data, and not a number
    path.write_text("\n".join(lines[:2] + ["#" + lines[2]] + lines[3:]) + "\n")
    with pytest.raises(SampleFormatError, match="row 2, column theta_1: '#"):
        load_samples_csv(path)

    path.write_text(lines[0] + "\n")
    with pytest.raises(SampleFormatError, match="no sample rows"):
        load_samples_csv(path)

    path.write_text("bogus_header," * 18 + "bogus\n")
    with pytest.raises(SampleFormatError, match="bad variable label"):
        load_samples_csv(path)

    path.write_text("")
    with pytest.raises(SampleFormatError, match="empty sample file"):
        load_samples_csv(path)


def test_load_accepts_lf_line_ends_and_skips_blank_lines(tmp_path, radial20):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), n=5, seed=0)
    path = tmp_path / "s.csv"
    write_samples_csv(s, path)
    lines = path.read_text().splitlines()

    path.write_text("\n".join(lines) + "\n")
    assert np.array_equal(load_samples_csv(path).data, s.data)

    path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")
    assert np.array_equal(load_samples_csv(path).data, s.data)

    # the sidecar still counts the rows
    path.write_text("\n".join(lines[:3] + [""] + lines[4:]) + "\n")
    with pytest.raises(SampleFormatError, match="claims n=5 but file has 4 rows"):
        load_samples_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_load_rejects_non_finite_cells(tmp_path, radial20, cell):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), n=5, seed=0)
    path = tmp_path / "s.csv"
    write_samples_csv(s, path)
    lines = path.read_text().splitlines()
    fields = lines[4].split(",")
    fields[2] = cell
    path.write_text("\n".join(lines[:4] + [",".join(fields)] + lines[5:]) + "\n")
    with pytest.raises(SampleFormatError,
                       match=f"row 4, column theta_3: '{cell}' is not a finite number"):
        load_samples_csv(path)
