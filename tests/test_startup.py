"""scipy stays out of start-up: only threshold's tail probability loads it.

Each check runs in a fresh interpreter, because pytest and the other test
modules import scipy into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.special

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: output directory. Prints the scipy modules loaded after each step as
# one JSON object on the last line of stdout.
_CHILD = r"""
import json, sys

from debtkit import cli

out = sys.argv[1]
io = ["--panel", f"{out}/panel_synth.csv", "--deflator",
      f"{out}/deflator_synth.csv", "--out", out]
steps = {
    "import": None,
    "--help": ["--help"],
    "--version": ["--version"],
    "synth": ["synth", "--out", out, "--n-countries", "30",
              "--years", "1990:2000", "--seed", "17"],
    "converge": ["converge", *io, "--dt-max", "3"],
    "dist": ["dist", *io, "--bins", "8", "--group", "all"],
    "scaling": ["scaling", *io],
    "simulate": ["simulate", "--out", out, "--horizon", "2",
                 "--budget-d0", "100"],
    "threshold": ["threshold", *io, "--threshold", "0.6"],
}
loaded = {}
for step, argv in steps.items():
    if argv is not None and cli.main(argv) != 0:
        sys.exit(f"{step} failed")
    loaded[step] = sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))
print(json.dumps(loaded))
"""


def test_only_threshold_loads_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path)],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    for step, modules in loaded.items():
        if step != "threshold":
            assert modules == [], step
    assert "scipy.special" in loaded["threshold"]

    summary = json.loads((tmp_path / "threshold_summary.json").read_text())
    fit = summary["gamma_fit"]
    assert summary["tail_probability"] == float(scipy.special.gammaincc(
        fit["k"], summary["threshold"] / fit["r_c"]))
