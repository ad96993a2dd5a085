"""The benchmark's workloads: inputs from a seed, one pass, output checks.

A pass is a fixed script of ``gridtopo`` CLI commands, driven in-process
through ``gridtopo.cli.main`` with stdout and stderr captured.  Only the
commands are timed; scoring and checks run between passes.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from gridtopo import cli
from gridtopo.estimation import empirical_covariance, estimate_concentration, load_estimate_json
from gridtopo.experiments import ExperimentSpec, reconstruct
from gridtopo.grid import builtin_grid, save_grid
from gridtopo.sampling import generate_voltage_samples

from synthgrid import meshed_grid

#: package errors that are known reconstruction defects (ROADMAP item 2),
#: scored as a failed reconstruction rather than as a broken run
KNOWN_RECONSTRUCTION_ERRORS = ("AmbiguousLeafError", "ReconstructionError")

#: acceptance criterion 9's bound on the glasso KKT residual, which it
#: scales by max(1, max |cov_ij|)
KKT_MAX = 1e-4

#: seed of the synthetic grids, the same for every workload seed
GRID_SEED = 0

_ERRORS_LINE = re.compile(r"^fp=(\d+) fn=(\d+) total=(\d+)$", re.M)


@dataclass
class Invocation:
    args: list[str]
    code: int
    out: str
    err: str

    @property
    def error_type(self) -> str | None:
        """The ``error`` field of the CLI's JSON error line, if any."""
        try:
            return json.loads(self.err.strip().splitlines()[-1])["error"]
        except (IndexError, ValueError, KeyError, TypeError):
            return None


@dataclass
class Tally:
    """Operation accounting over all passes of a run.

    ``op_failures`` counts package exceptions, sweep trials with an error and
    failed output checks; ``broken`` names the failures the program should
    never produce (failed checks, crashes, unexpected error exits).
    """

    ops: int = 0
    op_failures: int = 0
    reconstructions: int = 0
    recovered: int = 0
    edge_errors: int = 0
    broken: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.op_failures += 1
        self.broken.append(what)


def invoke(args: list[str], tracer=None) -> Invocation:
    """Run one CLI command in-process; a span is recorded when tracing."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.begin("cli." + "_".join(args[:2] if args[0] == "grid" else args[:1]), "cli") \
        if tracer is not None else None
    code = 0
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cli.main.main(args=args, prog_name="gridtopo", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is reported as a broken operation, not raised
        code = -1
        err.write(traceback.format_exc())
    finally:
        if span is not None:
            tracer.end(span)
    return Invocation(args, code, out.getvalue(), err.getvalue())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Base: subclasses define ``commands``, ``score`` and optional checks."""

    name = ""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.first_digests: dict[str, str] = {}
        self.facts: dict = {}

    def setup(self) -> None:
        """Build inputs and warm up; everything here lands in ``setup_s``."""

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> tuple[float, list[Invocation]]:
        """One timed pass; returns its wall time and the command results."""
        start = time.perf_counter()
        results = [invoke(args, tracer) for args in self.commands()]
        return time.perf_counter() - start, results

    def score(self, results: list[Invocation], tally: Tally) -> None:
        raise NotImplementedError

    def final_checks(self, tally: Tally) -> None:
        """Checks too costly to repeat per pass; run once after timing."""

    def _same_as_first(self, path: Path, tally: Tally) -> None:
        digest = _sha256(path)
        if self.first_digests.setdefault(path.name, digest) != digest:
            tally.fail(f"{path.name} differs from the first pass")

    def _unexpected(self, inv: Invocation, tally: Tally) -> None:
        tally.fail(f"`gridtopo {' '.join(inv.args[:2])}` exited {inv.code}: "
                   f"{inv.err.strip()[-300:]}")

    def _warm_up(self, *commands: list[str]) -> None:
        for args in commands:
            inv = invoke(args)
            if inv.code != 0:
                raise RuntimeError(f"warm-up `gridtopo {' '.join(args)}` failed: {inv.err}")


# ----------------------------------------------------------------------
# experiment sweeps on the bundled radial20 grid
# ----------------------------------------------------------------------


class Sweep(Workload):
    combos: tuple[tuple[str, str], ...] = ()
    counts = ""
    trials = 0

    def _out(self, model: str, algo: str) -> Path:
        return self.workdir / f"results_{model}_{algo}.csv"

    def setup(self) -> None:
        self._warm_up(["experiment", "--grid", "radial20", "--counts", "500", "--trials", "1",
                       "--seed", str(self.seed), "--workers", "1",
                       "--out", str(self.workdir / "warmup.csv")])

    def commands(self) -> list[list[str]]:
        return [
            ["experiment", "--grid", "radial20", "--model", model, "--algo", algo,
             "--estimator", "auto", "--counts", self.counts, "--trials", str(self.trials),
             "--seed", str(self.seed), "--workers", "1", "--out", str(self._out(model, algo))]
            for model, algo in self.combos
        ]

    def score(self, results: list[Invocation], tally: Tally) -> None:
        for inv, (model, algo) in zip(results, self.combos):
            path = self._out(model, algo)
            if inv.code != 0:
                tally.ops += 1
                self._unexpected(inv, tally)
                continue
            with open(path, encoding="utf-8", newline="") as fh:
                rows = [r for r in csv.DictReader(fh) if r["trial"].isdigit()]
            with open(f"{path}.meta.json", encoding="utf-8") as fh:
                errors = len(json.load(fh)["trial_errors"])
            tally.ops += len(rows)
            tally.op_failures += errors
            tally.reconstructions += len(rows)
            tally.recovered += len(rows) - errors
            tally.edge_errors += sum(int(r["total"]) for r in rows)
            self._same_as_first(path, tally)


class SweepDirect(Sweep):
    """The paper's error-vs-n sweep; every n >= 5d, so all trials go direct."""

    name = "sweep_direct"
    combos = tuple((m, a) for m in ("lc", "dc") for a in ("thresholding", "counting"))
    counts = "500,1000,2000,5000"
    trials = 60


class SweepGlasso(Sweep):
    """n = 40 and 80 sit below 5d = 95, so ``auto`` runs the graphical lasso."""

    name = "sweep_glasso"
    combos = (("dc", "thresholding"),)
    counts = "40,80"
    trials = 1

    def final_checks(self, tally: Tally) -> None:
        # The CLI records no estimate, so each trial's estimate is rebuilt
        # from its recorded seed exactly as run_single_trial builds it.
        path = self._out(*self.combos[0])
        with open(f"{path}.meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        grid = builtin_grid("radial20")
        stats = ExperimentSpec().stats_for(grid)
        for key, seed in sorted(meta["trial_seeds"].items()):
            n = int(key.split("/")[0])
            samples = generate_voltage_samples(grid, stats, "dc", n, seed)
            est = estimate_concentration(samples, method="auto", lam="auto")
            if est.method != meta["trial_methods"][key]:
                tally.fail(f"trial {key}: rebuilt estimate used {est.method}, "
                           f"sweep recorded {meta['trial_methods'][key]}")
            elif est.method == "glasso":
                kkt = max(est.kkt.values())
                scaled = kkt / max(1.0, float(abs(empirical_covariance(samples.data)).max()))
                self.facts[f"kkt_max[{key}]"] = kkt
                self.facts[f"kkt_scaled[{key}]"] = scaled
                if not scaled <= KKT_MAX:
                    tally.fail(f"trial {key}: scaled glasso KKT {scaled:.3e} > {KKT_MAX:g} "
                               f"({est.iterations} sweeps, {est.termination})")


# ----------------------------------------------------------------------
# CLI pipelines on fixed synthetic meshed grids
# ----------------------------------------------------------------------


class OnSyntheticGrid(Workload):
    """A workload on one fixed synthetic grid per size.

    The grid does not change with the workload seed, so run-to-run spread
    comes from the samples (``cli_files``) and the machine, not the grid.
    """

    n_buses = 0

    def setup(self) -> None:
        grid = meshed_grid(self.n_buses, GRID_SEED)
        self.grid_path = self.workdir / "grid.json"
        save_grid(grid, self.grid_path)
        # a failed reconstruction is scored as every scorable line missed
        self.truth_lines = sum(1 for ln in grid.lines if grid.reference not in ln.key)
        self.facts.update(buses=grid.n_buses, lines=len(grid.lines),
                          scored_lines=self.truth_lines)

    def _score_learn(self, inv: Invocation, tally: Tally, exact: str | None = None) -> None:
        """Score one ``learn --compare-truth``; ``exact`` names a run that must be error-free."""
        tally.ops += 1
        tally.reconstructions += 1
        if inv.code == 0:
            match = _ERRORS_LINE.search(inv.out)
            if match is None:
                tally.fail(f"`gridtopo learn` printed no fp/fn line: {inv.out[-200:]!r}")
                return
            fp, fn, total = (int(g) for g in match.groups())
            tally.recovered += 1
            tally.edge_errors += total
            if exact and total:
                tally.fail(f"{exact} gave fp={fp} fn={fn}")
        elif inv.error_type in KNOWN_RECONSTRUCTION_ERRORS:
            tally.op_failures += 1
            tally.edge_errors += self.truth_lines
        else:
            self._unexpected(inv, tally)


class ExactLarge(OnSyntheticGrid):
    """Girth, exact DC/LC concentrations, pair scans and certificates, d ~ 600."""

    name = "exact_large"
    n_buses = 600
    learns = tuple((m, a) for m in ("dc", "lc") for a in ("thresholding", "counting"))

    def setup(self) -> None:
        super().setup()
        self._warm_up(["grid", "info", "radial20"],
                      ["learn", "--conc", "exact", "--grid", "radial20", "--compare-truth"],
                      ["certify", "--grid", "radial20"])

    def commands(self) -> list[list[str]]:
        g = str(self.grid_path)
        return (
            [["grid", "info", g]]
            + [["learn", "--conc", "exact", "--grid", g, "--model", m, "--algo", a,
                "--compare-truth"] for m, a in self.learns]
            + [["certify", "--grid", g]]
        )

    def score(self, results: list[Invocation], tally: Tally) -> None:
        info, *learns, certify = results
        for inv in (info, certify):
            tally.ops += 1
            if inv.code != 0:
                self._unexpected(inv, tally)
        girth = re.search(r"^girth: (\S+)$", info.out, re.M)
        if info.code == 0 and not (girth and girth.group(1) != "inf" and int(girth.group(1)) > 6):
            tally.fail(f"grid info reports girth {girth and girth.group(1)}, expected > 6")
        if certify.code == 0 and "satisfied: " not in certify.out:
            tally.fail("certify printed no summary line")
        for inv, (model, algo) in zip(learns, self.learns):
            exact = f"exact {model} thresholding" if algo == "thresholding" else None
            self._score_learn(inv, tally, exact)


class CliFiles(OnSyntheticGrid):
    """sample -> estimate -> learn through files, d ~ 300, n = 3 000."""

    name = "cli_files"
    n_buses = 300
    n_samples = 3000

    def setup(self) -> None:
        super().setup()
        warm = self.workdir / "warmup"
        self._warm_up(
            ["sample", "--grid", "radial20", "--n", "200", "--out", f"{warm}.csv"],
            ["estimate", "--samples", f"{warm}.csv", "--out", f"{warm}.json"],
            ["learn", "--conc", f"{warm}.json", "--grid", "radial20", "--compare-truth"],
        )

    def commands(self) -> list[list[str]]:
        g, d = str(self.grid_path), self.workdir
        return [
            ["sample", "--grid", g, "--model", "dc", "--n", str(self.n_samples),
             "--seed", str(self.seed), "--out", str(d / "samples.csv")],
            ["estimate", "--samples", str(d / "samples.csv"), "--method", "auto",
             "--out", str(d / "estimate.json")],
            ["learn", "--conc", str(d / "estimate.json"), "--grid", g, "--algo", "thresholding",
             "--compare-truth", "--out", str(d / "topology.json")],
            ["learn", "--conc", str(d / "estimate.json"), "--grid", g, "--algo", "counting",
             "--compare-truth"],
        ]

    def score(self, results: list[Invocation], tally: Tally) -> None:
        sample, estimate, *learns = results
        for inv in (sample, estimate):
            tally.ops += 1
            if inv.code != 0:
                self._unexpected(inv, tally)
        for inv in learns:
            self._score_learn(inv, tally)
        if learns[0].code == 0:
            self._same_as_first(self.workdir / "topology.json", tally)

    def final_checks(self, tally: Tally) -> None:
        est = load_estimate_json(self.workdir / "estimate.json")
        self.facts["estimator"] = est.method
        want = reconstruct(est.concentration, "thresholding", est=est).to_dict()
        with open(self.workdir / "topology.json", encoding="utf-8") as fh:
            if json.load(fh) != json.loads(json.dumps(want)):
                tally.fail("topology.json differs from reconstruct() on the loaded estimate")


WORKLOADS = {w.name: w for w in (SweepDirect, SweepGlasso, ExactLarge, CliFiles)}

#: modules expected to do most of each workload's work (outermost-call share)
EXPECTED_DOMINANT = {
    "sweep_direct": ("sampling",),
    "sweep_glasso": ("estimation",),
    "exact_large": ("grid", "powerflow"),
    "cli_files": ("sampling",),
}
