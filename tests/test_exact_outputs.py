"""The exact path's CLI output, pinned byte for byte.

``data/exact_cli_outputs.json`` holds, for ieee14, loopy20_c4 and
:func:`conftest.girth7_grid`, the exit code, stdout and stderr of
``grid info``, of ``learn --conc exact --compare-truth`` for each model and
algorithm (counting's JSON error line included), and of ``certify`` to
stdout and to a CSV file, with the file's text.  Rewrite the file with
``PYTHONPATH=src python tests/test_exact_outputs.py`` only for a change
that means to alter the output.
"""
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import girth7_grid
from gridtopo.cli import main
from gridtopo.grid import save_grid

PINNED = Path(__file__).parent / "data" / "exact_cli_outputs.json"
GRIDS = ("ieee14", "loopy20_c4", "girth7_100")
COMMANDS = (
    [["grid", "info", "{grid}"]]
    + [["learn", "--conc", "exact", "--grid", "{grid}", "--model", model, "--algo", algo, "--compare-truth"]
       for model in ("dc", "lc") for algo in ("thresholding", "counting")]
    + [["certify", "--grid", "{grid}"], ["certify", "--grid", "{grid}", "--out", "certificates.csv"]]
)


def exact_cli_outputs(name: str) -> dict:
    """Each command's exit code, stdout and stderr on grid ``name``, run in
    a scratch directory, plus the certificate CSV's text."""
    runner, outputs = CliRunner(), {}
    with runner.isolated_filesystem():
        ref = name
        if name == "girth7_100":
            ref = "grid.json"
            save_grid(girth7_grid(), ref)
        for command in COMMANDS:
            result = runner.invoke(main, [arg.format(grid=ref) for arg in command])
            outputs[" ".join(command)] = {"code": result.exit_code, "stdout": result.stdout,
                                          "stderr": result.stderr}
        outputs["certificates.csv"] = Path("certificates.csv").read_text(encoding="utf-8")
    return outputs


@pytest.mark.parametrize("name", GRIDS)
def test_exact_cli_output_is_unchanged(name):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[name]
    got = exact_cli_outputs(name)
    assert list(got) == list(pinned)
    for key, want in pinned.items():
        assert got[key] == want, key


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps({name: exact_cli_outputs(name) for name in GRIDS}, indent=1) + "\n",
                      encoding="utf-8")
