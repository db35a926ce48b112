"""The README's examples run as written.

Each line of the "Command line" block goes through ``cli.main`` from the
repository root, with its ``--out`` path moved under ``tmp_path``, and must
exit with the code of its ``# exit N`` comment, or 0 without one.  The
"Library" snippet is executed as it stands.
"""

import re
import shlex
from pathlib import Path

import pytest

from coordrig.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


COMMANDS = [line for line in _block("Command line", "sh").splitlines() if line.strip()]


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("COORDRIG_SEED", raising=False)


@pytest.mark.parametrize(
    "line", COMMANDS, ids=[" ".join(line.partition("#")[0].split()[1:]) for line in COMMANDS]
)
def test_command_line_example(line, tmp_path, at_root, capsys):
    command, _, comment = line.partition("#")
    expected = re.match(r"\s*exit (\d+)", comment)
    argv = shlex.split(command)
    assert argv[0] == "coordrig"
    argv = argv[1:]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / Path(argv[at]).name)
    assert main(argv) == (int(expected[1]) if expected else 0)
    assert capsys.readouterr().out


def test_library_example(at_root, capsys):
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out
