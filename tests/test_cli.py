"""End-to-end CLI behavior through click's test runner."""
import gc
import io
import json
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest
from click.testing import CliRunner

from conftest import load_topology_json
from gridtopo import __version__
from gridtopo.cli import main
from gridtopo.experiments import ExperimentSpec
from gridtopo.sampling import load_samples_csv


@pytest.fixture
def runner():
    return CliRunner()


def invoke_ok(runner, args, **kw):
    result = runner.invoke(main, args, **kw)
    assert result.exit_code == 0, result.output + result.stderr
    return result


def stderr_error(result):
    assert result.exit_code == 1
    return json.loads(result.stderr.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# grid subcommands
# ----------------------------------------------------------------------


def test_grid_validate_builtin(runner):
    result = invoke_ok(runner, ["grid", "validate", "radial20"])
    assert "ok: radial20: 20 buses, 19 lines" in result.output


def test_grid_validate_bad_file(runner, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "reference": 0, "buses": [0, 1],
        "lines": [{"i": 0, "j": 1, "r": -0.1, "x": 0.2}],
    }))
    payload = stderr_error(runner.invoke(main, ["grid", "validate", str(p)]))
    assert payload["error"] == "InvalidLineError"
    assert "negative resistance" in payload["message"]


def test_grid_validate_missing_path(runner):
    payload = stderr_error(runner.invoke(main, ["grid", "validate", "nope.json"]))
    assert payload["error"] == "FileNotFoundError"


@pytest.mark.parametrize("command", [
    ["grid", "validate", "{grid}"],
    ["grid", "info", "{grid}"],
    ["certify", "--grid", "{grid}"],
    ["sample", "--grid", "{grid}", "--n", "10", "--out", "{tmp}/s.csv"],
    ["learn", "--conc", "exact", "--grid", "{grid}"],
], ids=["validate", "info", "certify", "sample", "learn"])
@pytest.mark.parametrize("r,x,b", [(0.0, 1e-200, "inf"), (1e200, 1.0, "0.0")],
                         ids=["susceptance-inf", "susceptance-zero"])
def test_every_command_rejects_a_line_whose_susceptance_overflows(runner, tmp_path, command, r, x, b):
    # r^2 + x^2 underflows to 0 or overflows to inf on line (1,2), inside a triangle
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"reference": 0, "buses": [0, 1, 2, 3], "lines": [
        {"i": 0, "j": 1, "r": 0.1, "x": 0.2}, {"i": 1, "j": 2, "r": r, "x": x},
        {"i": 2, "j": 3, "r": 0.1, "x": 0.2}, {"i": 1, "j": 3, "r": 0.1, "x": 0.3},
    ]}))
    args = [a.format(grid=path, tmp=tmp_path) for a in command]
    payload = stderr_error(runner.invoke(main, args))
    assert payload["error"] == "InvalidLineError"
    assert payload["message"].startswith(f"line (1,2): susceptance must be finite and positive, got {b}")


@pytest.mark.parametrize("command", [
    ["grid", "validate", "{grid}"],
    ["grid", "info", "{grid}"],
    ["certify", "--grid", "{grid}"],
    ["sample", "--grid", "{grid}", "--n", "5", "--out", "{tmp}/s.csv"],
    ["learn", "--conc", "exact", "--grid", "{grid}"],
    ["experiment", "--grid", "{grid}", "--counts", "10", "--trials", "2", "--out", "{tmp}/r.csv"],
    ["experiment", "--grid", "{grid}", "--estimator", "glasso", "--counts", "10", "--trials", "1",
     "--out", "{tmp}/r.csv"],
    ["experiment", "--grid", "{grid}", "--exact", "--out", "{tmp}/r.csv"],
], ids=["validate", "info", "certify", "sample", "learn", "experiment", "experiment-glasso",
        "experiment-exact"])
def test_every_command_rejects_a_grid_of_the_reference_alone(runner, tmp_path, command):
    # no bus to sample or pair to learn: one JSON error, exit 1, no output
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"reference": 0, "buses": [0], "lines": []}))
    result = runner.invoke(main, [a.format(grid=path, tmp=tmp_path) for a in command])
    assert stderr_error(result) == {"error": "GridStructureError",
                                    "message": "grid has no bus besides the reference 0"}
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "name,lines",
    [
        ("ieee14", ["buses: 14", "lines: 20", "girth: 3", "is_radial: false"]),
        ("radial20", ["buses: 20", "girth: inf", "is_radial: true", "reference: 0"]),
    ],
)
def test_grid_info(runner, name, lines):
    result = invoke_ok(runner, ["grid", "info", name])
    for want in lines:
        assert want in result.output
    assert "grid_hash: " in result.output


# a grid with a 2**70 bus id and negative ones: a 5-cycle through the
# reference and a pendant line
SIGNED_GRID = {"name": "signed", "reference": 0, "buses": [2**70, -7, -1, 0, 3, -12], "lines": [
    {"i": 0, "j": -1, "r": 0.02, "x": 0.06}, {"i": -1, "j": -7, "r": 0.03, "x": 0.08},
    {"i": -7, "j": 2**70, "r": 0.01, "x": 0.05}, {"i": 2**70, "j": 3, "r": 0.04, "x": 0.1},
    {"i": 3, "j": 0, "r": 0.02, "x": 0.07}, {"i": -12, "j": 3, "r": 0.05, "x": 0.09},
]}

SIGNED_GRID_INFO = """name: signed
buses: 6
non_reference_buses: 5
lines: 6
reference: 0
girth: 5
is_radial: false
grid_hash: 57b621f5286d25f496aa1641b363ca0b280dca3c2f20ee72cbe55cdafa368704
"""

SIGNED_GRID_CERTIFY = """edge,theorem,satisfied,margin
-12-3,trivially-safe,true,inf
-7--1,trivially-safe,true,inf
-7-1180591620717411303424,trivially-safe,true,inf
3-1180591620717411303424,trivially-safe,true,inf
satisfied: 4/4
"""


def test_bus_ids_of_any_size_and_sign_work_end_to_end(runner, tmp_path):
    path = tmp_path / "signed.json"
    path.write_text(json.dumps(SIGNED_GRID))
    assert invoke_ok(runner, ["grid", "info", str(path)]).output == SIGNED_GRID_INFO
    for model in ("dc", "lc"):
        result = invoke_ok(runner, ["learn", "--conc", "exact", "--grid", str(path), "--model", model,
                                    "--compare-truth"])
        assert result.output == "learned 4 edges over 5 buses (thresholding)\nfp=0 fn=0 total=0\n"
    assert invoke_ok(runner, ["certify", "--grid", str(path)]).output == SIGNED_GRID_CERTIFY


@pytest.mark.parametrize("command,target,text", [
    (["grid", "validate", "{tmp}/bad.json"], "bad.json", "GridFileError"),
    (["learn", "--conc", "{tmp}/bad.json"], "bad.json", "ConfigError"),
    (["experiment", "--config", "{tmp}/bad.json", "--out", "{tmp}/r.csv"], "bad.json", "ConfigError"),
    (["estimate", "--samples", "{tmp}/s.csv", "--out", "{tmp}/e.json"], "s.csv", "SampleFormatError"),
    (["estimate", "--samples", "{tmp}/s.csv", "--out", "{tmp}/e.json"], "s.csv.meta.json",
     "SampleFormatError"),
], ids=["grid", "estimate", "config", "samples", "sidecar"])
def test_every_file_that_is_not_utf8_fails_with_an_error_naming_it(runner, tmp_path, command, target, text):
    invoke_ok(runner, ["sample", "--grid", "radial20", "--n", "30", "--out", str(tmp_path / "s.csv")])
    path = tmp_path / target
    path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))  # UTF-16 with a byte-order mark
    payload = stderr_error(runner.invoke(main, [a.format(tmp=tmp_path) for a in command]))
    assert payload["error"] == text
    assert payload["message"].startswith(f"{path}: not UTF-8 text: ")


def test_a_sample_row_that_is_not_utf8_fails_with_an_error_naming_the_file(runner, tmp_path):
    # past the reader's first buffer, so the bad byte reaches the row parser
    csv_path = tmp_path / "s.csv"
    invoke_ok(runner, ["sample", "--grid", "radial20", "--n", "200", "--out", str(csv_path)])
    csv_path.write_bytes(csv_path.read_bytes() + b"\xff\r\n")
    payload = stderr_error(runner.invoke(main, ["estimate", "--samples", str(csv_path), "--out",
                                                str(tmp_path / "e.json")]))
    assert payload["error"] == "SampleFormatError"
    assert payload["message"].startswith(f"{csv_path}: not UTF-8 text: ")


def test_version(runner):
    assert __version__ in invoke_ok(runner, ["--version"]).output


# ----------------------------------------------------------------------
# sample -> estimate -> learn pipeline
# ----------------------------------------------------------------------


def test_pipeline_recovers_topology(runner, tmp_path):
    csv_path = tmp_path / "s.csv"
    est_path = tmp_path / "e.json"
    topo_path = tmp_path / "t.json"

    result = invoke_ok(runner, [
        "sample", "--grid", "radial20", "--model", "dc",
        "--n", "2000", "--seed", "3", "--out", str(csv_path),
    ])
    assert "2000 x 19" in result.output
    samples = load_samples_csv(csv_path)
    assert samples.n == 2000 and samples.seed == 3

    result = invoke_ok(runner, ["estimate", "--samples", str(csv_path), "--out", str(est_path)])
    assert "direct inverse" in result.output  # auto is the direct inverse

    result = invoke_ok(runner, [
        "learn", "--conc", str(est_path), "--algo", "thresholding",
        "--grid", "radial20", "--compare-truth", "--out", str(topo_path),
    ])
    assert "learned 18 edges over 19 buses" in result.output
    assert "fp=0 fn=0 total=0" in result.output
    assert len(load_topology_json(topo_path).edges) == 18


@pytest.mark.parametrize("model", ["dc", "lc"])
def test_pipeline_on_negative_bus_ids(runner, tmp_path, model):
    # labels such as theta_-2 survive the sample CSV and the estimate JSON
    grid_path, csv_path, est_path = tmp_path / "g.json", tmp_path / "s.csv", tmp_path / "e.json"
    grid_path.write_text(json.dumps({"reference": 0, "buses": [-2, -1, 0, 1], "lines": [
        {"i": i, "j": j, "r": 0.05, "x": 0.1} for i, j in [(0, -1), (-1, -2), (0, 1)]
    ]}))
    invoke_ok(runner, ["sample", "--grid", str(grid_path), "--model", model, "--n", "400", "--out", str(csv_path)])
    invoke_ok(runner, ["estimate", "--samples", str(csv_path), "--out", str(est_path)])
    result = invoke_ok(runner, ["learn", "--conc", str(est_path), "--grid", str(grid_path), "--compare-truth"])
    assert "learned 1 edges over 3 buses" in result.output
    assert "fp=0 fn=0 total=0" in result.output


def test_estimate_glasso_path(runner, tmp_path):
    csv_path = tmp_path / "s.csv"
    invoke_ok(runner, ["sample", "--grid", "radial20", "--n", "60",
                       "--seed", "1", "--out", str(csv_path)])
    result = invoke_ok(runner, [
        "estimate", "--samples", str(csv_path), "--method", "glasso",
        "--lambda", "0.1", "--out", str(tmp_path / "e.json"),
    ])
    assert "glasso: lambda=0.1" in result.output
    payload = stderr_error(runner.invoke(main, [
        "estimate", "--samples", str(csv_path), "--lambda", "lots",
        "--out", str(tmp_path / "e2.json"),
    ]))
    assert payload["error"] == "ConfigError"


def test_estimate_rejects_fewer_samples_than_variables(runner, tmp_path):
    csv_path, out = tmp_path / "s.csv", tmp_path / "e.json"
    invoke_ok(runner, ["sample", "--grid", "radial20", "--n", "10", "--out", str(csv_path)])
    payload = stderr_error(runner.invoke(main, ["estimate", "--samples", str(csv_path),
                                                "--out", str(out)]))
    assert payload["error"] == "RankDeficiencyError"
    assert payload["message"] == ("10 samples of 19 variables are rank deficient: the direct "
                                  "estimate needs n >= 19; method 'glasso' estimates from fewer")
    assert not out.exists()


@pytest.mark.parametrize("flag,value,match", [("--tol", "-1", "tol must be a positive number"),
                                              ("--max-iters", "0", "max_iters must be an integer")])
def test_estimate_rejects_a_bad_glasso_knob_before_reading_samples(runner, tmp_path, flag, value,
                                                                  match):
    samples, out = tmp_path / "s.csv", tmp_path / "e.json"
    samples.write_text("not a sample file\n")
    payload = stderr_error(runner.invoke(main, ["estimate", "--samples", str(samples), flag, value,
                                                "--out", str(out)]))
    assert payload["error"] == "ConfigError"
    assert match in payload["message"]
    assert not out.exists()


def test_estimate_rejects_non_numeric_sample(runner, tmp_path):
    csv_path = tmp_path / "s.csv"
    invoke_ok(runner, ["sample", "--grid", "radial20", "--n", "5", "--out", str(csv_path)])
    lines = csv_path.read_text().splitlines()
    lines[2] = "abc" + lines[2][lines[2].index(","):]
    csv_path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["estimate", "--samples", str(csv_path),
                                  "--out", str(tmp_path / "e.json")])
    assert result.stderr.count("\n") == 1
    payload = stderr_error(result)
    assert payload["error"] == "SampleFormatError"
    assert "row 2, column theta_1" in payload["message"]


@pytest.mark.parametrize("field,value", [("n", "four hundred"), ("seed", None)])
def test_estimate_rejects_sidecar_field_that_is_not_an_integer(runner, tmp_path, field, value):
    csv_path = tmp_path / "s.csv"
    invoke_ok(runner, ["sample", "--grid", "radial20", "--n", "5", "--out", str(csv_path)])
    meta_path = tmp_path / "s.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    meta[field] = value
    meta_path.write_text(json.dumps(meta))
    result = runner.invoke(main, ["estimate", "--samples", str(csv_path),
                                  "--out", str(tmp_path / "e.json")])
    assert result.stderr.count("\n") == 1
    payload = stderr_error(result)
    assert payload["error"] == "SampleFormatError"
    assert payload["message"] == (
        f"{meta_path}: field {field!r} must be an integer, got {value!r}"
    )


@pytest.mark.parametrize("method", ["auto", "direct"])
def test_estimate_rejects_non_finite_sample(runner, tmp_path, method):
    csv_path = tmp_path / "s.csv"
    invoke_ok(runner, ["sample", "--grid", "radial20", "--n", "200", "--out", str(csv_path)])
    lines = csv_path.read_text().splitlines()
    lines[7] = "nan" + lines[7][lines[7].index(","):]
    csv_path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["estimate", "--samples", str(csv_path), "--method", method,
                                  "--out", str(tmp_path / "e.json")])
    assert result.stderr.count("\n") == 1
    payload = stderr_error(result)
    assert payload["error"] == "SampleFormatError"
    assert "row 7, column theta_1: 'nan' is not a finite number" in payload["message"]


def test_estimate_rejects_sample_labels_out_of_layout(runner, tmp_path):
    csv_path = tmp_path / "s.csv"
    invoke_ok(runner, ["sample", "--grid", "radial20", "--n", "100", "--out", str(csv_path)])
    text = csv_path.read_text()
    csv_path.write_text(text.replace("theta_2,", "theta_1,", 1))
    result = runner.invoke(main, ["estimate", "--samples", str(csv_path),
                                  "--out", str(tmp_path / "e.json")])
    assert result.stderr.count("\n") == 1
    payload = stderr_error(result)
    assert payload["error"] == "SampleFormatError"
    assert payload["message"].startswith(f"{csv_path}: dc variables must be theta_<bus> labels")
    assert payload["message"].endswith("theta_1, theta_1, theta_3, theta_4, theta_5, theta_6, "
                                       "theta_7, theta_8, ...")


ESTIMATE_DOC = '{"matrix": %s, "labels": [%s], "model": "dc", "method": "direct", "n_samples": 5}'


@pytest.mark.parametrize(
    "text,match",
    [
        ("{not json", "invalid JSON"),
        ('{"matrix": [[1.0]]}', "missing field"),
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
        (ESTIMATE_DOC.replace('"direct"', '"banana"') % ('[[1.0]]', '"theta_1"'),
         "method must be 'direct' or 'glasso', got 'banana'"),
        (ESTIMATE_DOC.replace('"direct"', '5') % ('[[1.0]]', '"theta_1"'),
         "method must be 'direct' or 'glasso', got 5"),
        (ESTIMATE_DOC % ('[[1.0, NaN], [NaN, 1.0]]', '"theta_1", "theta_2"'),
         "concentration matrix entry (theta_1, theta_2) is nan, not a finite number"),
        (ESTIMATE_DOC % ('[[1.0, Infinity], [Infinity, 1.0]]', '"theta_1", "theta_2"'),
         "concentration matrix entry (theta_1, theta_2) is inf, not a finite number"),
        (ESTIMATE_DOC.replace('"dc"', '"ac"') % ('[[1.0]]', '"theta_1"'),
         "model must be 'dc' or 'lc', got 'ac'"),
    ],
    ids=["invalid-json", "missing-field", "asymmetric", "not-pd", "bad-label", "non-numeric",
         "zero-samples", "lc-without-v", "repeated-bus", "unknown-method", "integer-method",
         "nan-pair", "inf-pair", "unknown-model"],
)
def test_learn_rejects_malformed_estimate(runner, tmp_path, text, match):
    path = tmp_path / "bad.json"
    path.write_text(text)
    result = runner.invoke(main, ["learn", "--conc", str(path)])
    assert result.stderr.count("\n") == 1
    payload = stderr_error(result)
    assert payload["error"] == "ConfigError"
    assert match in payload["message"] and str(path) in payload["message"]


def test_sample_rejects_bad_count(runner, tmp_path):
    payload = stderr_error(runner.invoke(main, [
        "sample", "--grid", "radial20", "--n", "0", "--out", str(tmp_path / "s.csv"),
    ]))
    assert payload["error"] == "SampleFormatError"


def test_learn_exact_counting(runner):
    result = invoke_ok(runner, [
        "learn", "--conc", "exact", "--grid", "loopy20_c7", "--model", "lc",
        "--algo", "counting", "--compare-truth",
    ])
    assert "fp=0 fn=0 total=0" in result.output


@pytest.mark.parametrize("model", ["dc", "lc"])
@pytest.mark.parametrize("lines", [
    [(0, 1, 0.05, 0.1)],
    [(0, 1, 0.05, 0.1), (0, 2, 0.03, 0.2)],
], ids=["two-bus", "star"])
def test_learn_exact_on_a_grid_without_bus_pairs(runner, tmp_path, lines, model):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({
        "reference": 0, "buses": list(range(len(lines) + 1)),
        "lines": [{"i": i, "j": j, "r": r, "x": x} for i, j, r, x in lines],
    }))
    result = invoke_ok(runner, ["learn", "--conc", "exact", "--grid", str(path),
                                "--model", model, "--compare-truth"])
    assert f"learned 0 edges over {len(lines)} buses" in result.output
    assert "fp=0 fn=0 total=0" in result.output


def test_learn_exact_prints_topology_json(runner):
    result = invoke_ok(runner, ["learn", "--conc", "exact", "--grid", "radial20"])
    doc = json.loads(result.output.split("\n", 1)[1])
    assert doc["algorithm"] == "thresholding"
    assert len(doc["edges"]) == 18


def test_learn_exact_requires_grid(runner):
    payload = stderr_error(runner.invoke(main, ["learn", "--conc", "exact"]))
    assert payload["error"] == "ConfigError"
    assert "requires --grid" in payload["message"]


def test_learn_compare_truth_requires_grid_before_any_output(runner, tmp_path):
    est, out = tmp_path / "e.json", tmp_path / "t.json"
    est.write_text(ESTIMATE_DOC % ('[[1.0]]', '"theta_1"'))
    result = runner.invoke(main, ["learn", "--conc", str(est), "--compare-truth", "--out", str(out)])
    assert result.stdout == ""
    assert stderr_error(result) == {"error": "ConfigError",
                                    "message": "--compare-truth requires --grid"}
    assert not out.exists()


def test_learn_compare_truth_checks_the_bus_set_before_any_output(runner, tmp_path):
    # a radial20 estimate scored against ieee14: the error comes before the
    # topology is written or its "learned" line printed
    samples, est, out = tmp_path / "s.csv", tmp_path / "e.json", tmp_path / "t.json"
    invoke_ok(runner, ["sample", "--grid", "radial20", "--n", "500", "--seed", "1", "--out", str(samples)])
    invoke_ok(runner, ["estimate", "--samples", str(samples), "--out", str(est)])
    result = runner.invoke(main, ["learn", "--conc", str(est), "--grid", "ieee14", "--compare-truth",
                                  "--out", str(out)])
    assert stderr_error(result)["error"] == "GridStructureError"
    assert result.stdout == ""
    assert not out.exists()


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------


CERTIFY_IEEE14 = """\
edge,theorem,satisfied,margin
1-2,T10,true,2.909336363
1-3,T9,true,2.945444534
1-4,T8,true,1.880878989
2-3,T10,true,3.196290189
3-4,T10,true,19.67744461
3-6,T10,true,1.454742184
3-8,T9,true,1.079108317
4-5,trivially-safe,true,inf
5-10,trivially-safe,true,inf
5-11,T10,true,0.9422004379
5-12,T10,true,4.940271955
6-7,trivially-safe,true,inf
6-8,T10,true,7.339769963
8-9,trivially-safe,true,inf
8-13,trivially-safe,true,inf
9-10,trivially-safe,true,inf
11-12,T10,true,0.01821109905
12-13,trivially-safe,true,inf
satisfied: 18/18
"""


def test_certify_stdout(runner):
    # the full report, margins and theorem tags included
    assert invoke_ok(runner, ["certify", "--grid", "ieee14"]).output == CERTIFY_IEEE14


def test_certify_to_file(runner, tmp_path):
    out = tmp_path / "cert.csv"
    result = invoke_ok(runner, ["certify", "--grid", "radial20", "--out", str(out)])
    assert "wrote 18 certificates" in result.output
    assert out.read_text().count("trivially-safe") == 18


# ----------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------


def test_experiment_sweep(runner, tmp_path):
    out = tmp_path / "r.csv"
    result = invoke_ok(runner, [
        "experiment", "--grid", "radial20", "--counts", "500,1000",
        "--trials", "2", "--seed", "1", "--out", str(out),
    ])
    assert "n=500:" in result.output and "n=1000:" in result.output
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    spec = ExperimentSpec.from_dict(meta["spec"])
    assert spec.trials == 2 and spec.sample_counts == (500, 1000)


def test_experiment_exact_flag(runner, tmp_path):
    out = tmp_path / "r.csv"
    invoke_ok(runner, ["experiment", "--exact", "--algo", "counting",
                       "--grid", "loopy20_c7", "--out", str(out)])
    rows = out.read_text().splitlines()
    assert rows[1].endswith("0,0,0,0,0")  # n=0 trial row, zero errors
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert meta["summary"]["0"]["total_mean"] == 0.0


def test_experiment_seed_precedence(runner, tmp_path):
    # the seed comes from the config or --seed; the environment is not read
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"seed": 3, "exact": True}))
    out = tmp_path / "r.csv"
    meta = tmp_path / "r.csv.meta.json"

    for args, seed in (([], 3), (["--seed", "5"], 5)):
        invoke_ok(runner, ["experiment", "--config", str(cfg), *args, "--out", str(out)])
        assert json.loads(meta.read_text())["spec"]["seed"] == seed
        for env_seed in ("9", "soon"):
            invoke_ok(runner, ["experiment", "--config", str(cfg), *args, "--out", str(out)],
                      env={"GRIDTOPO_SEED": env_seed})
            assert json.loads(meta.read_text())["spec"]["seed"] == seed


@pytest.mark.parametrize(
    "args,config,match",
    [
        (["experiment", "--exact", "--tau2", "0.5"], None, "tau2 must be a negative number"),
        (["experiment", "--exact", "--tau1", "-1"], None, "tau1 must be a positive number"),
        (["experiment"], {"exact": True, "tau2": 0.5}, "tau2 must be a negative number"),
        (["learn", "--conc", "exact", "--grid", "radial20", "--algo", "counting",
          "--tau2", "0.5"], None, "tau2 must be a negative number"),
        (["learn", "--conc", "exact", "--grid", "radial20", "--tau1", "gap"], None,
         "tau1 must be a number or 'auto', got 'gap'"),
        (["learn", "--conc", "exact", "--grid", "radial20", "--tau2", "gap"], None,
         "tau2 must be a number or 'auto', got 'gap'"),
        (["experiment", "--exact", "--tau2", "gap"], None, "tau2 must be a number or 'auto', got 'gap'"),
        (["experiment"], {"exact": True, "tau1": "gap"}, "tau1 must be a number or 'auto', got 'gap'"),
    ],
    ids=["experiment-tau2-flag", "experiment-tau1-flag", "experiment-config", "learn-tau2-flag",
         "learn-tau1-gap", "learn-tau2-gap", "experiment-tau2-gap", "experiment-config-gap"],
)
def test_wrong_sign_tau_is_rejected_up_front(runner, tmp_path, args, config, match):
    if config is not None:
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        args = args + ["--config", str(cfg)]
    out = tmp_path / "out"
    payload = stderr_error(runner.invoke(main, args + ["--out", str(out)]))
    assert payload["error"] == "ConfigError"
    assert match in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "args,config,match",
    [
        (["experiment", "--estimator", "glasso", "--lambda", "-1"], None,
         "--lambda must be a finite number >= 0 or 'auto', got -1.0"),
        (["experiment", "--estimator", "glasso", "--lambda", "nan"], None,
         "--lambda must be a finite number >= 0 or 'auto', got nan"),
        (["experiment", "--estimator", "glasso"], {"glasso_lambda": -1},
         "glasso_lambda must be a finite number >= 0 or 'auto', got -1"),
        (["estimate", "--lambda", "-1"], None,
         "--lambda must be a finite number >= 0 or 'auto', got -1.0"),
    ],
    ids=["experiment-negative", "experiment-nan", "experiment-config", "estimate-negative"],
)
def test_bad_lambda_is_rejected_up_front(runner, tmp_path, args, config, match):
    if config is not None:
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        args = args + ["--config", str(cfg)]
    if args[0] == "estimate":
        samples = tmp_path / "s.csv"
        samples.write_text("")
        args = args + ["--samples", str(samples)]
    out = tmp_path / "out"
    payload = stderr_error(runner.invoke(main, args + ["--out", str(out)]))
    assert payload["error"] == "ConfigError"
    assert match in payload["message"]
    assert not out.exists()


def test_experiment_rejects_bad_counts(runner, tmp_path):
    payload = stderr_error(runner.invoke(main, [
        "experiment", "--counts", "10,x", "--out", str(tmp_path / "r.csv"),
    ]))
    assert payload["error"] == "ConfigError"
    assert "comma-separated" in payload["message"]


def test_experiment_config_rejects_a_count_that_is_not_an_integer(runner, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"trials": 2.5, "sample_counts": [500]}))
    out = tmp_path / "r.csv"
    payload = stderr_error(runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(out)]))
    assert payload == {"error": "ConfigError", "message": "trials must be an integer, got 2.5"}
    assert not out.exists()


def test_experiment_config_rejects_a_variance_that_is_not_a_number(runner, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"sigma_pp": "abc", "sample_counts": [500], "trials": 1}))
    out = tmp_path / "r.csv"
    payload = stderr_error(runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(out)]))
    assert payload == {"error": "ConfigError", "message": "sigma_pp must be a number, got 'abc'"}
    assert not out.exists()


def test_experiment_config_rejects_a_variance_too_large_for_a_float(runner, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"sigma_pp": 10**400, "sample_counts": [500], "trials": 1}))
    out = tmp_path / "r.csv"
    payload = stderr_error(runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(out)]))
    assert payload == {"error": "ConfigError", "message": "sigma_pp must fit in a float"}
    assert not out.exists()


def test_redirected_streams_are_freed_after_each_command():
    # an in-process caller that redirects the standard streams, as a
    # benchmark driver does, gets each captured stream back: none is kept
    # alive by a cache of the streams echoed to
    captured = []
    for args in (["certify", "--grid", "ieee14"], ["learn", "--conc", "exact"]) * 5:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main.main(args=args, prog_name="gridtopo", standalone_mode=False)
            except SystemExit as exc:
                assert exc.code == 1 and args[0] == "learn"
        assert out.getvalue().endswith("satisfied: 18/18\n") if args[0] == "certify" else \
            json.loads(err.getvalue())["error"] == "ConfigError"
        captured += [weakref.ref(out), weakref.ref(err)]
    del out, err
    gc.collect()
    assert [ref() for ref in captured] == [None] * len(captured)
