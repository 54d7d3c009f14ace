"""The runtime path imports neither numpy nor networkx.

numpy and networkx are development dependencies only (test oracles and
the benchmark's independent recount); a cold ``python -m repro encode``
must not pay for importing them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

CHILD = """
import sys
import repro.cli

assert repro.cli.main(sys.argv[1:]) == 0
print(sorted(name for name in ("numpy", "networkx") if name in sys.modules))
"""


@pytest.mark.parametrize(
    "command",
    [["encode", "mmul", "-k", "4"], ["encode", "fir", "--select-per-region"]],
    ids=["encode", "select-per-region"],
)
def test_encode_imports_no_numpy_or_networkx(command, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", CHILD, *command],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
