"""Every output recorded by ``make_golden.py`` must come back byte for byte."""

import json

from make_golden import COMMANDS, GOLDEN, golden_graphs, run_command


def test_outputs_match_golden_bytes(tmp_path):
    records = json.loads(GOLDEN.read_text())
    graphs = dict(golden_graphs())
    assert len(records) == len(COMMANDS) * len(graphs)
    for rec in records:
        got = run_command(graphs[rec["case"]], rec["command"], tmp_path)
        assert got == (rec["exit"], rec["stdout"]), f"{rec['command']} {rec['case']}"
