"""One benchmark process: set up a workload, run timed passes, report JSON.

Started by ``run.py``; not meant to be run by hand.  With ``--setup-only``
it stops after set-up, so ``run.py`` can time set-up several times.  The
last stdout line is a JSON object.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import LAYERS, Tracer, self_times, stage_roots  # noqa: E402
from workloads import EXPECTED_DOMINANT, WORKLOADS, Tally  # noqa: E402


def run_passes(workload, seconds: float, tally: Tally, tracer=None) -> list[float]:
    """Closed loop, one client: passes back to back within ``seconds``.

    A pass starts only if a pass of median length would still end inside the
    window, so a run lasts at most ``seconds`` plus one pass.
    """
    times: list[float] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        if tracer is not None:
            tracer.pass_id = len(times)
            span = tracer.begin("bench.pass", "bench")
        elapsed, results = workload.run_pass(tracer)
        if tracer is not None:
            tracer.end(span)
        times.append(elapsed)
        workload.score(results, tally)
    return times


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------


def _openblas() -> tuple[str | None, int | None]:
    """OpenBLAS config string and thread count of the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    return get_config().decode().strip(), int(get_threads())
    return None, None


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def environment(args) -> dict:
    config, threads = _openblas()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": threads,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "load": "closed loop, 1 client, 1 process, experiment --workers 1",
    }


# ----------------------------------------------------------------------
# per-layer metrics from the traced passes
# ----------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced: list[float], untraced: list[float]) -> dict:
    """Per-layer numbers: per-pass sums take the median over traced passes."""
    spans = tracer.spans
    selfs = self_times(spans)
    passes = range(len(traced))

    def per_pass(names: tuple[str, ...], value=lambda s: s[3] - s[2]) -> float:
        sums = [0.0 for _ in passes]
        for s in spans:
            if s[0] in names:
                sums[s[5]] += value(s)
        return _median(sums)

    def calls(name: str) -> list[list]:
        return [s for s in spans if s[0] == name]

    def attr(s, key, default=0):
        return (s[6] or {}).get(key, default)

    def mb_per_s(name: str) -> float:
        c = calls(name)
        return _share(sum(attr(s, "bytes") for s in c) / 2**20, sum(s[3] - s[2] for s in c))

    self_by_layer = {layer: [0.0 for _ in passes] for layer in LAYERS}
    for s, t in zip(spans, selfs):
        if s[1] in self_by_layer:
            self_by_layer[s[1]][s[5]] += t

    glasso = calls("estimation.graphical_lasso")
    estimates = calls("estimation.estimate_concentration")
    auto = [s for s in estimates if attr(s, "requested") == "auto"]
    counting = calls("learning.learn_by_counting")
    trials = calls("experiments.run_single_trial")
    trial_s = [s[3] - s[2] for s in trials]

    m = {
        "grid.girth_s": per_pass(("grid.girth",)),
        "grid.load_s": per_pass(("grid.builtin_grid", "grid.load_grid")),
        "grid.hash_s": per_pass(("grid.grid_hash",)),
        "powerflow.dc_concentration_s": per_pass(("powerflow.dc_concentration",)),
        "powerflow.lc_concentration_s": per_pass(("powerflow.lc_concentration",)),
        "powerflow.solve_s": per_pass(("powerflow.solve_dc", "powerflow.solve_lc")),
        "powerflow.concentration_mb": per_pass(
            ("powerflow.dc_concentration", "powerflow.lc_concentration"),
            lambda s: attr(s, "bytes") / 2**20),
        "sampling.generate_s": per_pass(("sampling.generate_voltage_samples",)),
        "sampling.write_csv_s": per_pass(("sampling.write_samples_csv",)),
        "sampling.read_csv_s": per_pass(("sampling.load_samples_csv",)),
        "sampling.write_mb_per_s": mb_per_s("sampling.write_samples_csv"),
        "sampling.read_mb_per_s": mb_per_s("sampling.load_samples_csv"),
        "estimation.direct_s": per_pass(("estimation.invert_covariance",)),
        "estimation.glasso_s": per_pass(("estimation.graphical_lasso",)),
        "estimation.glasso_sweeps": per_pass(("estimation.graphical_lasso",),
                                             lambda s: attr(s, "sweeps")),
        "estimation.glasso_converged_share": _share(
            sum(attr(s, "converged", False) for s in glasso), len(glasso)),
        "estimation.glasso_kkt_max": max(
            (attr(s, "kkt") for s in calls("estimation.kkt_violations")), default=0.0),
        "estimation.inversions_per_estimate": _share(
            len(calls("estimation.invert_covariance")), len(estimates)),
        "estimation.auto_glasso_share": _share(
            sum(attr(s, "method") == "glasso" for s in auto), len(auto)),
        "estimation.json_write_s": per_pass(("estimation.write_estimate_json",)),
        "estimation.json_read_s": per_pass(("estimation.load_estimate_json",)),
        "learning.build_gm_s": per_pass(("learning.build_graphical_model",)),
        "learning.thresholding_s": per_pass(("learning.learn_by_thresholding",)),
        "learning.counting_s": per_pass(("learning.learn_by_counting",)),
        "learning.certify_s": per_pass(("learning.check_sufficiency",)),
        "learning.pairs_scanned": per_pass(
            ("learning.build_graphical_model", "learning.learn_by_thresholding"),
            lambda s: attr(s, "pairs")),
        "learning.counting_failure_share": _share(
            sum("error" in (s[6] or {}) for s in counting), len(counting)),
        "experiments.trial_s.p50": _median(trial_s),
        "experiments.trial_s.p90": _p90(trial_s),
        "experiments.trial_failure_share": _share(
            sum(attr(s, "trial_error", False) for s in trials), len(trials)),
        "experiments.write_results_s": per_pass(("experiments.write_results_csv",)),
        "cli.sample_s": per_pass(("cli.sample",)),
        "cli.estimate_s": per_pass(("cli.estimate",)),
        "cli.learn_s": per_pass(("cli.learn",)),
        "cli.grid_info_s": per_pass(("cli.grid_info",)),
        "cli.certify_s": per_pass(("cli.certify",)),
        "cli.experiment_s": per_pass(("cli.experiment",)),
    }
    for layer, sums in self_by_layer.items():
        m[f"{layer}.self_s"] = _median(sums)
    m["trace.overhead_s"] = _median(traced) - _median(untraced)
    return m


def stage_shares(tracer: Tracer, traced: list[float]) -> dict[str, float]:
    """Share of traced pass time under each pipeline module's outermost calls."""
    total = sum(traced)
    out: dict[str, float] = {}
    for s, root in zip(tracer.spans, stage_roots(tracer.spans)):
        if root:
            out[s[1]] = out.get(s[1], 0.0) + (s[3] - s[2]) / total
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def self_shares(metrics: dict, traced: list[float]) -> dict[str, float]:
    pass_s = _median(traced)
    return {layer: metrics[f"{layer}.self_s"] / pass_s for layer in LAYERS}


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spans-out", type=Path, default=None)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workdir, args.seed)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    report: dict = {"setup_s": setup_s, "env": environment(args)}
    if args.trace:
        untraced = run_passes(workload, args.seconds / 2, tally)
        tracer = Tracer()
        with tracer:
            traced = run_passes(workload, args.seconds / 2, tally, tracer)
        if args.spans_out is not None:
            tracer.write(args.spans_out)
        report["per_layer"] = layer_metrics(tracer, traced, untraced)
        report["stage_shares"] = stage_shares(tracer, traced)
        report["self_shares"] = self_shares(report["per_layer"], traced)
        report["expected_dominant"] = EXPECTED_DOMINANT[args.workload]
        pass_times = untraced + traced
    else:
        pass_times = run_passes(workload, args.seconds, tally)

    workload.final_checks(tally)
    report.update(
        pass_times=pass_times,
        tally=vars(tally),
        facts=workload.facts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
