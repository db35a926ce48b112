"""The committed benchmark trajectory: each ``BENCH_<yyyymmdd>-<sha>.json`` at
the repo root holds the last stdout line of ``perfbench/run.py`` for every
workload, seeds 0 and 1, untraced and traced, at one commit."""

import itertools
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
COMMAND = "python3 perfbench/run.py --workload {} --seed {} --seconds 25 --trace {}"


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_holds_every_run_of_its_commit(path):
    doc = json.loads(path.read_text())
    name = re.fullmatch(r"BENCH_(\d{8})-([0-9a-f]{7,40})\.json", path.name)
    assert name, path.name
    assert name[1] == doc["date"].replace("-", "")
    assert name[2] == doc["commit"]

    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = {
        0: {m["name"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"] for m in BENCHMARK["per_layer"]},
    }
    expected = set(itertools.product(workloads, (0, 1), (0, 1)))
    keys = [(run["workload"], run["seed"], run["trace"]) for run in doc["runs"]]
    assert len(keys) == len(expected) == 12
    assert set(keys) == expected
    assert sorted(doc["commands"]) == sorted(COMMAND.format(*key) for key in keys)
    for key, run in zip(keys, doc["runs"]):
        assert run["command"] == COMMAND.format(*key)
        result = run["result"]
        assert (result["correct"], result["failed"]) == (True, 0), key
        assert set(result["metrics"]) == metrics[key[2]], key
