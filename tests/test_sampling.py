"""Sample generation: determinism, moments, convergence rate, CSV round-trip."""
import csv
import io
import json
import re

import numpy as np
import pytest

from gridtopo.estimation import empirical_covariance
from gridtopo.exceptions import ModelMismatchError, SampleFormatError
from gridtopo.grid import BUILTIN_GRIDS, builtin_grid, grid_hash, reduced_laplacian
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
