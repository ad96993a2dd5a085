"""Command-line interface.

Every subcommand exits 0 on success; package errors are printed as a single
machine-readable JSON object on stderr ({"error": <type>, "message": ...})
with a nonzero exit code.
"""
from __future__ import annotations

import functools
import json
import math
import os
import sys

import click

from . import __version__
from .estimation import (
    ESTIMATORS,
    GlassoConfig,
    estimate_concentration,
    load_estimate_json,
    parse_lambda,
    write_estimate_json,
)
from .exceptions import ConfigError, GridTopoError
from .experiments import (
    ExperimentSpec,
    load_experiment_config,
    reconstruct,
    resolve_grid,
    run_experiment,
    write_results_csv,
)
from .grid import girth as grid_girth
from .grid import grid_hash
from .learning import (
    CERTIFICATE_COLUMNS,
    certificate_row,
    check_sufficiency,
    edge_errors,
    parse_tau,
    write_sufficiency_csv,
    write_topology_json,
)
from .powerflow import InjectionStats, dc_concentration, lc_concentration
from .sampling import generate_voltage_samples, load_samples_csv, write_samples_csv

ESTIMATOR_HELP = "auto = direct: the inverse covariance, needs n >= d; glasso: the graphical lasso."


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (GridTopoError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
            payload = {"error": type(exc).__name__, "message": str(exc)}
            click.echo(json.dumps(payload), err=True)
            sys.exit(1)

    return wrapper


def _stats_options(fn):
    fn = click.option("--sigma-pp", type=float, default=1.0, show_default=True,
                      help="Active-power injection variance (uniform).")(fn)
    fn = click.option("--sigma-qq", type=float, default=1.0, show_default=True,
                      help="Reactive-power injection variance (uniform).")(fn)
    fn = click.option("--sigma-pq", type=float, default=0.5, show_default=True,
                      help="Per-bus p/q covariance (uniform).")(fn)
    return fn


@click.group()
@click.version_option(version=__version__)
def main():
    """Power-grid topology estimation from nodal voltage samples."""


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------


@main.group()
def grid():
    """Inspect and validate grid descriptions."""


@grid.command("validate")
@click.argument("grid_ref")
@_cli_errors
def grid_validate(grid_ref):
    """Validate GRID_REF (builtin name or grid JSON path)."""
    g = resolve_grid(grid_ref)
    click.echo(f"ok: {g.name or grid_ref}: {g.n_buses} buses, {len(g.lines)} lines")


@grid.command("info")
@click.argument("grid_ref")
@_cli_errors
def grid_info(grid_ref):
    """Print structural facts about GRID_REF."""
    g = resolve_grid(grid_ref)
    gth = grid_girth(g)
    click.echo(f"name: {g.name or grid_ref}")
    click.echo(f"buses: {g.n_buses}")
    click.echo(f"non_reference_buses: {len(g.non_reference_buses)}")
    click.echo(f"lines: {len(g.lines)}")
    click.echo(f"reference: {g.reference}")
    click.echo(f"girth: {'inf' if math.isinf(gth) else int(gth)}")
    click.echo(f"is_radial: {'true' if g.is_radial else 'false'}")
    click.echo(f"grid_hash: {grid_hash(g)}")


# ----------------------------------------------------------------------
# pipeline stages
# ----------------------------------------------------------------------


@main.command()
@click.option("--grid", "grid_ref", required=True, help="Builtin grid name or grid JSON path.")
@click.option("--model", type=click.Choice(["dc", "lc"]), default="dc", show_default=True)
@click.option("--n", type=int, default=1000, show_default=True, help="Number of snapshots.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Output CSV path.")
@_stats_options
@_cli_errors
def sample(grid_ref, model, n, seed, out, sigma_pp, sigma_qq, sigma_pq):
    """Draw voltage samples and write them as CSV + metadata sidecar."""
    g = resolve_grid(grid_ref)
    stats = InjectionStats.uniform(g, sigma_pp, sigma_qq, sigma_pq)
    samples = generate_voltage_samples(g, stats, model=model, n=n, seed=seed)
    write_samples_csv(samples, out)
    click.echo(f"wrote {samples.n} x {samples.dim} samples to {out} (+ {out}.meta.json)")


@main.command()
@click.option("--samples", "samples_path", required=True, type=click.Path(exists=True),
              help="Sample CSV produced by the sample command.")
@click.option("--method", type=click.Choice(ESTIMATORS), default="auto", show_default=True,
              help=ESTIMATOR_HELP)
@click.option("--lambda", "lam", default="auto", show_default=True,
              help="Glasso penalty (number or 'auto').")
@click.option("--tol", type=float, default=1e-6, show_default=True,
              help="Glasso stops when its KKT residual, scaled by max(1, max|cov|), "
                   "is at most 1e-2 * tol.")
@click.option("--max-iters", type=int, default=10_000, show_default=True,
              help="Glasso limit in ADMM steps.")
@click.option("--penalize-diagonal", is_flag=True, default=False)
@click.option("--out", type=click.Path(), required=True, help="Output JSON path.")
@_cli_errors
def estimate(samples_path, method, lam, tol, max_iters, penalize_diagonal, out):
    """Estimate the concentration matrix from samples."""
    lam = parse_lambda(lam, "--lambda")
    cfg = GlassoConfig(tol=tol, max_iters=max_iters, diagonal_penalized=penalize_diagonal)
    samples = load_samples_csv(samples_path)
    est = estimate_concentration(samples, method=method, lam=lam, config=cfg)
    write_estimate_json(est, out)
    detail = f"lambda={est.lam:.6g}, iterations={est.iterations}" if est.method == "glasso" else "direct inverse"
    click.echo(f"estimated {est.concentration.dim}x{est.concentration.dim} concentration "
               f"({est.method}: {detail}) -> {out}")


@main.command()
@click.option("--conc", required=True,
              help="Estimate JSON from the estimate command, or 'exact' for the "
                   "analytic concentration (requires --grid).")
@click.option("--grid", "grid_ref", default=None,
              help="Grid for exact mode (and for --compare-truth).")
@click.option("--model", type=click.Choice(["dc", "lc"]), default="dc", show_default=True,
              help="Model for exact mode.")
@click.option("--algo", type=click.Choice(["counting", "thresholding"]),
              default="thresholding", show_default=True)
@click.option("--tau1", default="auto", show_default=True,
              help="GM threshold (number or 'auto').")
@click.option("--tau2", default="auto", show_default=True,
              help="Edge threshold (negative number or 'auto').")
@click.option("--compare-truth", is_flag=True, default=False,
              help="Also print fp/fn against the --grid line set.")
@click.option("--out", type=click.Path(), default=None, help="Output topology JSON path.")
@_stats_options
@_cli_errors
def learn(conc, grid_ref, model, algo, tau1, tau2, compare_truth, out,
          sigma_pp, sigma_qq, sigma_pq):
    """Reconstruct the topology from a concentration matrix."""
    tau1, tau2 = parse_tau(tau1, "tau1"), parse_tau(tau2, "tau2")

    if grid_ref is None and (conc == "exact" or compare_truth):
        flag = "--conc exact" if conc == "exact" else "--compare-truth"
        raise ConfigError(f"{flag} requires --grid")
    g = resolve_grid(grid_ref) if conc == "exact" or compare_truth else None

    est = None
    if conc == "exact":
        stats = InjectionStats.uniform(g, sigma_pp, sigma_qq, sigma_pq)
        matrix = (dc_concentration if model == "dc" else lc_concentration)(g, stats)
    else:
        est = load_estimate_json(conc)
        matrix = est.concentration

    topo = reconstruct(matrix, algo, tau1=tau1, tau2=tau2, est=est)
    err = edge_errors(topo, g) if compare_truth else None  # a bus-set mismatch fails before any output
    if out:
        write_topology_json(topo, out)
    click.echo(f"learned {len(topo.edges)} edges over {len(topo.buses)} buses ({algo})"
               + (f" -> {out}" if out else ""))
    if compare_truth:
        click.echo(f"fp={err.false_positives} fn={err.false_negatives} total={err.total}")
    elif not out:
        click.echo(json.dumps(topo.to_dict(), indent=2))


@main.command()
@click.option("--grid", "grid_ref", required=True)
@click.option("--out", type=click.Path(), default=None, help="Report CSV path (default stdout).")
@_stats_options
@_cli_errors
def certify(grid_ref, out, sigma_pp, sigma_qq, sigma_pq):
    """Per-line sufficiency certificates for thresholding recoverability."""
    g = resolve_grid(grid_ref)
    stats = InjectionStats.uniform(g, sigma_pp, sigma_qq, sigma_pq)
    report = check_sufficiency(g, stats)
    if out:
        write_sufficiency_csv(report, out)
        lines = [f"wrote {len(report.certificates)} certificates to {out}"]
    else:
        lines = [",".join(CERTIFICATE_COLUMNS)]
        lines += [",".join(certificate_row(c)) for c in report.certificates]
    ok = sum(1 for c in report.certificates if c.satisfied)
    lines.append(f"satisfied: {ok}/{len(report.certificates)}")
    click.echo("\n".join(lines))  # one write: each echo flushes


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="Experiment config JSON; flags override its fields.")
@click.option("--grid", "grid_ref", default=None)
@click.option("--model", type=click.Choice(["dc", "lc"]), default=None)
@click.option("--algo", type=click.Choice(["counting", "thresholding"]), default=None)
@click.option("--estimator", type=click.Choice(ESTIMATORS), default=None, help=ESTIMATOR_HELP)
@click.option("--counts", default=None, help="Comma-separated sample counts.")
@click.option("--trials", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--tau1", default=None)
@click.option("--tau2", default=None)
@click.option("--exact", is_flag=True, default=None,
              help="Run on the analytic concentration instead of samples.")
@click.option("--lambda", "lam", default=None, help="Glasso penalty (number or 'auto').")
@click.option("--workers", type=int, default=None)
@click.option("--out", type=click.Path(), default="results.csv", show_default=True)
@_cli_errors
def experiment(config_path, grid_ref, model, algo, estimator, counts, trials, seed,
               tau1, tau2, exact, lam, workers, out):
    """Run a reconstruction-error sweep and write the results CSV.

    Precedence: config file < command-line flags < GRIDTOPO_SEED env var.
    """
    spec = load_experiment_config(config_path) if config_path else ExperimentSpec()
    overrides = {
        "grid": grid_ref,
        "model": model,
        "algorithm": algo,
        "estimator": estimator,
        "trials": trials,
        "seed": seed,
        "tau1": tau1,
        "tau2": tau2,
        "exact": exact,
        "workers": workers,
    }
    if counts is not None:
        try:
            overrides["sample_counts"] = tuple(int(c) for c in counts.split(","))
        except ValueError:
            raise ConfigError(f"--counts must be comma-separated integers, got {counts!r}") from None
    if lam is not None:
        overrides["glasso_lambda"] = parse_lambda(lam, "--lambda")

    doc = spec.to_dict()
    doc.update({k: v for k, v in overrides.items() if v is not None})
    env_seed = os.environ.get("GRIDTOPO_SEED")
    if env_seed is not None:
        try:
            doc["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"GRIDTOPO_SEED must be an integer, got {env_seed!r}") from None
    spec = ExperimentSpec.from_dict(doc)

    result = run_experiment(spec)
    write_results_csv(result, out)
    click.echo(f"{spec.grid} {spec.model} {spec.algorithm} estimator={spec.estimator} "
               f"seed={spec.seed} -> {out}")
    for n, agg in sorted(result.summary().items()):
        click.echo(
            f"n={n}: mean_total={agg['total_mean']:.4g} std={agg['total_std']:.4g} "
            f"failures={int(agg['failures'])}/{spec.trials if not spec.exact else 1}"
        )


if __name__ == "__main__":
    main()
