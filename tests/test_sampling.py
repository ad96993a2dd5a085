"""Sample generation: determinism, moments, convergence rate, CSV round-trip."""
import json

import numpy as np
import pytest

from gridtopo.estimation import empirical_covariance
from gridtopo.exceptions import ModelMismatchError, SampleFormatError
from gridtopo.grid import grid_hash, reduced_laplacian
from gridtopo.powerflow import (
    InjectionStats,
    dc_labels,
    dc_phase_covariance,
    lc_system_matrix,
)
from gridtopo.sampling import (
    SampleSet,
    derive_trial_seed,
    generate_injections,
    generate_voltage_samples,
    load_samples_csv,
    sidecar_path,
    write_samples_csv,
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


def test_load_requires_sidecar(tmp_path, radial20):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), n=5, seed=0)
    path = tmp_path / "s.csv"
    write_samples_csv(s, path)
    (tmp_path / "s.csv.meta.json").unlink()
    with pytest.raises(SampleFormatError, match="sidecar"):
        load_samples_csv(path)


@pytest.mark.parametrize(
    "tamper,match",
    [
        (lambda meta: meta.update(n=99) or meta, "claims n=99"),
        (lambda meta: meta.pop("seed") and meta, "missing field 'seed'"),
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


def test_load_rejects_malformed_csv(tmp_path, radial20):
    s = generate_voltage_samples(radial20, InjectionStats.uniform(radial20), n=5, seed=0)
    path = tmp_path / "s.csv"
    write_samples_csv(s, path)

    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "1.0,2.0"]) + "\n")
    with pytest.raises(SampleFormatError, match="row 1 has 2 fields"):
        load_samples_csv(path)

    fields = lines[3].split(",")
    fields[4] = "abc"
    path.write_text("\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n")
    with pytest.raises(SampleFormatError, match="row 3, column theta_5: 'abc' is not a number"):
        load_samples_csv(path)

    path.write_text("bogus_header," * 18 + "bogus\n")
    with pytest.raises(SampleFormatError, match="bad variable label"):
        load_samples_csv(path)

    path.write_text("")
    with pytest.raises(SampleFormatError, match="empty sample file"):
        load_samples_csv(path)
