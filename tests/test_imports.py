"""Only the float commands load numpy.

Plane decisions, exact GF(q) ranks, generation and drawing need no floats,
so a process that runs them never imports numpy.  Each group runs in a
fresh interpreter, as a module once imported stays in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURE_NAMES, fixture_path

SRC = Path(__file__).resolve().parent.parent / "src"

# prints whether numpy was loaded after the imports and after the calls,
# and each call's exit code
SCRIPT = """
import contextlib, io, json, sys
import coordrig, coordrig.cli
loaded = ["numpy" in sys.modules]
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(coordrig.cli.main(argv))
loaded.append("numpy" in sys.modules)
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def _fresh_run(calls):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(calls)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out["loaded"], out["codes"]


def test_exact_and_plane_commands_never_load_numpy(tmp_path):
    seven = str(fixture_path("seven_rigid_k2"))
    calls = [["check", str(fixture_path(name))] for name in FIXTURE_NAMES]
    calls += [
        ["check", seven, "--method", "numeric"],
        ["rank", seven, "--dim", "2"],
        ["rank", seven, "--dim", "3"],
        ["gen", "--n", "6", "--count", "2", "--out", str(tmp_path)],
        ["draw", seven, "--out", str(tmp_path / "seven.svg")],
    ]
    loaded, codes = _fresh_run(calls)
    assert loaded == [False, False]
    assert set(codes[: len(FIXTURE_NAMES)]) == {0, 1}  # rigid and flexible verdicts
    assert codes[len(FIXTURE_NAMES):] == [0] * 5  # the numeric check is rigid


@pytest.mark.parametrize("argv, code", [
    (["motions", "quad_flex_k1"], 0),
    (["stresses", "seven_rigid_k2"], 0),
    (["rank", "seven_rigid_k2", "--dump-matrix"], 0),
    # a flexible numeric verdict carries a float flex certificate
    (["check", "quad_flex_k1", "--dim", "3"], 1),
])
def test_float_commands_load_numpy(argv, code):
    argv = [argv[0], str(fixture_path(argv[1]))] + argv[2:]
    loaded, codes = _fresh_run([argv])
    assert loaded == [False, True]
    assert codes == [code]
