"""gridtopo benchmark: one workload, one seed, one fresh worker process.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_direct --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced and
then traced passes and prints the per-layer metrics.  Every metric is printed
by name with its unit, and the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads,
metrics and known defects are described in ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_direct", "sweep_glasso", "exact_large", "cli_files")

#: set-ups per untraced run (setup_s is their median); the worker is one
SETUPS = 5

#: BLAS threads for the worker; at most nproc
BLAS_THREADS = "1"

#: whole-run deadline, below the 180 s a run may take
DEADLINE_S = 170.0


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GRIDTOPO_SEED", None)  # would override the experiment seed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args: argparse.Namespace, workdir: Path, deadline: float, extra: list[str]) -> dict:
    """Run one worker to completion and return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)] + extra
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=worker_env(),
                          capture_output=True, text=True,
                          timeout=max(deadline - spawned_at, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(report: dict, setups: list[float]) -> dict[str, float]:
    t = report["tally"]
    times = report["pass_times"]
    return {
        "setup_s": statistics.median(setups),
        "pass_s.p50": statistics.median(times),
        "reconstructions_per_s": t["recovered"] / sum(times),
        "success_share": 1.0 - t["op_failures"] / t["ops"],
        "edge_errors_mean": t["edge_errors"] / t["reconstructions"],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "gridtopo" / "__init__.py").is_file():
        print(f"perfbench: no gridtopo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    def setup_only(k: int) -> float:
        return spawn(args, run_dir / f"setup{k}", deadline, ["--setup-only"])["setup_s"]

    # Set-up-only processes run before and after the measuring worker, so
    # their median spans the run rather than one moment of machine speed.
    probes = 0 if args.trace else SETUPS - 1
    try:
        setups = [setup_only(k) for k in range(probes // 2)]
        report = spawn(args, run_dir / "run", deadline,
                       ["--spans-out", str(out_dir / f"spans-{tag}.json")] if args.trace else [])
        setups.append(report["setup_s"])
        setups += [setup_only(k) for k in range(probes // 2, probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {tag}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    tally = report["tally"]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    computed = report["per_layer"] if args.trace else end_to_end(report, setups)
    missing = sorted(set(units) - set(computed))
    if missing:
        print(f"perfbench: {tag}: BENCHMARK.json lists metrics the run does not compute: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: computed[name] for name in units}

    times = report["pass_times"]
    print(f"{tag}: {len(times)} passes in {sum(times):.2f} s "
          f"(closed loop, 1 client, BLAS threads {report['env']['blas_threads']})")
    if not args.trace:
        print(f"set-ups timed: {len(setups)}")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.6g} {units[name]}")
    if args.trace:
        expected = report["expected_dominant"]
        stages = report["stage_shares"]
        top = next(iter(stages), None)
        print("share of traced pass under each module's outermost calls: "
              + ", ".join(f"{k} {v:.1%}" for k, v in stages.items()))
        print("self-time share of traced pass: "
              + ", ".join(f"{k} {v:.1%}" for k, v in report["self_shares"].items()))
        verdict = "confirmed" if top in expected else "MISMATCH"
        print(f"dominant module: {top}; expected {' or '.join(expected)}: {verdict}")
    for what in tally["broken"]:
        print(f"FAILED: {what}")
    print("facts " + json.dumps(report["facts"], sort_keys=True))
    print("env " + json.dumps(report["env"], sort_keys=True))

    result = {
        "correct": not tally["broken"],
        "attempted": tally["ops"],
        "failed": len(tally["broken"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "report": report, "setups": setups}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
