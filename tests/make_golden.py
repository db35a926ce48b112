"""Write ``tests/golden.json``, the byte-level outputs ``test_golden.py`` pins.

For every fixture and for a seeded corpus of ``random_coloured_graph`` and
``henneberg_k1_sample`` graphs it records the exit code and the compact
stdout of ``coordrig check FILE --json`` (plane, combinatorial),
``coordrig rank FILE --json --dim 2`` and ``coordrig rank FILE --json
--dim 3`` (the GF(q) oracle alone).  These outputs hold integers only, so
the file does not depend on the float library.  Regenerate it only when an
output change is intended:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
COMMANDS = {
    "check": ["check", "FILE", "--json"],
    "rank": ["rank", "FILE", "--json", "--dim", "2"],
    "rank3": ["rank", "FILE", "--json", "--dim", "3"],
}


def golden_graphs():
    """(name, graph) pairs: the fixtures, 140 random graphs with k in 0..6
    (weighted toward the k = 1, 2 deciders) and m from 2n - 4 + k to
    2n - 1 + k, 30 one-class Henneberg graphs, and four k = 2 graphs whose
    flexible witnesses are not-laman-plus-2 (Laman+1),
    no-rainbow-redundant-pair, class-all-bridges:1 and class-all-bridges:2
    (the last three at surplus > 2)."""
    from conftest import FIXTURE_NAMES, load_fixture

    from coordrig import henneberg_k1_sample
    from coordrig.corpus import random_coloured_graph

    out = [(name, load_fixture(name)) for name in FIXTURE_NAMES]
    rng = random.Random(2025)
    for i in range(140):
        n, k = rng.randint(5, 16), (0, 1, 2, 2, 3, 4, 5, 6, 1, 2)[i % 10]
        m = min(2 * n - 3 + k + (-1, 0, 0, 1, 2)[i % 5], n * (n - 1) // 2)
        out.append((f"random_n{n}_k{k}_m{m}_s{i}", random_coloured_graph(n, k, seed=i, m=m)))
    for i in range(30):
        n = rng.randint(4, 18)
        out.append((f"henneberg_n{n}_s{i}", henneberg_k1_sample(n, seed=i)))
    for n, m, s in ((5, 8, 2), (10, 20, 369), (11, 24, 340), (7, 15, 1229)):
        out.append((f"k2_witness_n{n}_m{m}_s{s}", random_coloured_graph(n, 2, seed=s, m=m)))
    return out


def run_command(graph, command: str, workdir: Path) -> tuple[int, str]:
    """Exit code and stdout of one CLI command on ``graph``."""
    from coordrig import serialize
    from coordrig.cli import main

    path = workdir / "graph.json"
    path.write_text(serialize(graph) + "\n")
    argv = [str(path) if a == "FILE" else a for a in COMMANDS[command]]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def main() -> None:
    sys.path.insert(0, str(HERE))
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, graph in golden_graphs():
            for command in COMMANDS:
                code, stdout = run_command(graph, command, Path(tmp))
                records.append(
                    {"case": name, "command": command, "exit": code, "stdout": stdout}
                )
    GOLDEN.write_text(json.dumps(records, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")


if __name__ == "__main__":
    main()
