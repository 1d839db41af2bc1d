"""numpy loads only where random numbers are drawn.

Run in a fresh interpreter, as a shell runs the CLI: `import qkd3`, the
`bound`, `fig1`, `region`, `decoy` and `claims` subcommands and the capped
`exact_bound` must not import numpy; `random_attack` and `run_protocol`
import it for their draws.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
from pathlib import Path

import qkd3
import qkd3.cli

out = Path(sys.argv[1])
for argv in (
    ["bound", "--eb", "0.05", "--alpha", "0.05"],
    ["fig1"],
    ["region", "--method", "exact"],
    ["decoy"],
    ["claims"],
):
    assert qkd3.cli.main([*argv, "--out", str(out / argv[0])]) == 0, argv
qkd3.exact_bound(0.3, 0.3)  # the capped |a_Y| grid
assert "numpy" not in sys.modules, "numpy imported before any draw"

qkd3.random_attack(1)
qkd3.run_protocol(
    qkd3.SimConfig(N=1000, attack=qkd3.KrausCoefficients(1, 0, 0, 0), seed=7)
)
assert "numpy" in sys.modules
"""


def test_numpy_loads_only_for_draws(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
