"""In-memory span recording around calls into gridtopo's modules.

The traced run wraps public package functions at the attribute names their
callers look them up by (``gridtopo.experiments.generate_voltage_samples``,
``gridtopo.estimation.invert_covariance``, ...).  Each call becomes a span
with a name, its layer (the module that defines the function), start, end,
parent span and pass id.  Untraced runs never construct a :class:`Tracer`,
so nothing is patched.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time

#: layers are gridtopo's modules; "bench" marks spans of the benchmark itself
LAYERS = ("grid", "powerflow", "sampling", "estimation", "learning", "experiments", "cli")

#: layers that do pipeline work; "cli" and "experiments" only dispatch to them
PIPELINE = frozenset(("grid", "powerflow", "sampling", "estimation", "learning"))

# Every (module, attribute) a caller inside gridtopo (or the CLI) resolves at
# call time.  One function may appear under several names; all share a span
# name.  A name that no longer exists fails the traced run.
TARGETS = (
    ("gridtopo.cli", (
        "estimate_concentration", "load_estimate_json", "write_estimate_json",
        "reconstruct", "resolve_grid", "run_experiment", "write_results_csv",
        "grid_girth", "grid_hash", "check_sufficiency", "edge_errors",
        "write_topology_json", "dc_concentration", "lc_concentration",
        "generate_voltage_samples", "load_samples_csv", "write_samples_csv",
    )),
    ("gridtopo.experiments", (
        "estimate_concentration", "builtin_grid", "grid_hash", "load_grid",
        "build_graphical_model", "edge_errors", "learn_by_counting",
        "learn_by_thresholding", "gm_noise_scale", "thresholding_noise_scale",
        "dc_concentration", "lc_concentration", "lc_threshold_statistic",
        "generate_voltage_samples", "run_single_trial", "reconstruct",
        "resolve_grid", "resolve_tau1", "resolve_tau2",
    )),
    ("gridtopo.estimation", (
        "empirical_covariance", "invert_covariance", "graphical_lasso",
        "kkt_violations", "select_lambda",
    )),
    ("gridtopo.learning", ("lc_threshold_statistic", "hybridize", "concentration_standard_error")),
    ("gridtopo.powerflow", ("reduced_laplacian",)),
    ("gridtopo.sampling", (
        "grid_hash", "solve_dc", "solve_lc", "dc_labels", "lc_labels", "generate_injections",
    )),
)


class MissingTargetError(RuntimeError):
    """A wrapped attribute no longer exists, so a layer would read as zero."""


def _matrix_bytes(result) -> dict:
    d = result.matrix.shape[0]
    return {"bytes": 8 * d * d}


def _file_bytes(arg_index: int):
    def hook(args, kwargs, result) -> dict:
        return {"bytes": os.path.getsize(args[arg_index])}
    return hook


def _glasso_info(args, kwargs, result) -> dict:
    info = result[1]
    return {"sweeps": int(info["iterations"]), "converged": bool(info["converged"])}


def _estimate_method(args, kwargs, result) -> dict:
    requested = args[1] if len(args) > 1 else kwargs.get("method", "auto")
    return {"requested": requested, "method": result.method}


def _pairs(dim) -> dict:
    return {"pairs": dim * (dim - 1) // 2}


# Attributes recorded on a span after the call returns, keyed by function name.
HOOKS = {
    "dc_concentration": lambda a, k, r: _matrix_bytes(r),
    "lc_concentration": lambda a, k, r: _matrix_bytes(r),
    "write_samples_csv": _file_bytes(1),
    "load_samples_csv": _file_bytes(0),
    "graphical_lasso": _glasso_info,
    "kkt_violations": lambda a, k, r: {"kkt": max(r.values())},
    "estimate_concentration": _estimate_method,
    "build_graphical_model": lambda a, k, r: _pairs(a[0].dim),
    "learn_by_thresholding": lambda a, k, r: _pairs(len(a[0].buses)),
    "run_single_trial": lambda a, k, r: {"trial_error": r.error is not None},
}


class Tracer:
    """Span store plus the patches that feed it; use as a context manager.

    A span is ``[name, layer, start, end, parent, pass_id, attrs]`` with
    ``parent`` the index of the enclosing span (or -1).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.pass_id, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[6] = attrs
        self._stack.pop()

    def _wrap(self, fn):
        name = fn.__name__
        layer = fn.__module__.rsplit(".", 1)[-1]
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(f"{layer}.{name}", layer)
            attrs = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            else:
                if hook is not None:
                    attrs = hook(args, kwargs, result)
                return result
            finally:
                tracer.end(idx, attrs)

        return traced

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        missing = []
        found = []
        for modname, attrs in TARGETS:
            mod = importlib.import_module(modname)
            for attr in attrs:
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    missing.append(f"{modname}.{attr}")
                else:
                    found.append((mod, attr, fn))
        if missing:
            raise MissingTargetError("traced names not found: " + ", ".join(missing))
        for mod, attr, fn in found:
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        fields = ("name", "layer", "start", "end", "parent", "pass", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)
            fh.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def stage_roots(spans: list[list]) -> list[bool]:
    """True for pipeline-layer spans with no pipeline-layer ancestor.

    Summed per layer these give the share of a pass spent under each
    pipeline module's outermost calls, callees in other modules included.
    """
    inside = [False] * len(spans)
    roots = [False] * len(spans)
    for idx, s in enumerate(spans):
        parent_inside = inside[s[4]] if s[4] >= 0 else False
        roots[idx] = s[1] in PIPELINE and not parent_inside
        inside[idx] = parent_inside or s[1] in PIPELINE
    return roots
