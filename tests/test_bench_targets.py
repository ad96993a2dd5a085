"""Every name the traced benchmark run wraps must exist in the package.

The traced run (``perfbench/run.py --trace 1``) patches the functions listed
in ``perfbench/spans.py`` ``TARGETS`` and fails on a missing one; this test
reports such a name in the unit suite instead.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_callable():
    missing = [
        f"{modname}.{attr}"
        for modname, attrs in load_spans().TARGETS
        for attr in attrs
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert missing == []
