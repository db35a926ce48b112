"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ on the path)
import gate  # noqa: E402
from coordrig import cli  # noqa: E402
from instances import RIGID, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.3",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    report = "\n".join(lines[:-1])
    for name in wanted:
        assert f" {name} " in report


def test_metric_tables_match_benchmark_json():
    assert list(run.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(run.PER_LAYER) == [m["name"] for m in SPEC["per_layer"]]
    assert list(run.WORKLOADS) == WORKLOAD_NAMES


def test_quantile_estimates():
    assert run.quantile([0.25] * 9, 0.5) == pytest.approx(0.25)
    assert run.quantile(list(range(1, 102)), 0.5) == pytest.approx(51)
    xs = [3.0, 1.0, 7.0, 2.0, 30.0, 5.0]
    assert min(xs) < run.quantile(xs, 0.2) < run.quantile(xs, 0.5) < run.quantile(xs, 0.8) < max(xs)
    value, pct = run._tail(list(range(80)))
    assert pct == pytest.approx(100 * 69 / 79) and 68 < value < 71


def _flip(decide):
    def flipped(*args, **kwargs):
        verdict = decide(*args, **kwargs)
        return dataclasses.replace(
            verdict, decision="flexible" if verdict.rigid else "rigid")
    return flipped


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_flipped_verdicts_fail_every_instance(workload, monkeypatch):
    monkeypatch.setattr(cli, "decide_plane", _flip(cli.decide_plane))
    monkeypatch.setattr(cli, "decide_generic_coordinated_rigidity",
                        _flip(cli.decide_generic_coordinated_rigidity))
    result = run.measure(workload, 5, 0.1, trace=False, tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["notes"]["failed_frac"] == 1.0


def test_changing_output_fails_the_repeat_check(monkeypatch):
    calls = []
    real = cli._emit

    def emit(payload, compact):
        calls.append(None)
        real(dict(payload, call=len(calls)), compact)

    monkeypatch.setattr(cli, "_emit", emit)
    result = run.measure("plane_k12", 5, 0.1, trace=False, tiny=True)
    assert result["failed"] == result["attempted"]
    assert all("stdout differs across repeats" in why
               for why in result["notes"]["failures"].values())


def test_gate_rejects_a_certificate_that_is_not_rainbow():
    inst = next(i for i in generate("plane_union", 5, tiny=True) if i.decision == RIGID)
    cert_edge = next((u, v) for u, v, c in inst.edges if c == 1)
    assert gate.reverify(inst, {"rainbow_tuple": [list(cert_edge)] * inst.k}, 5)


def test_generators_are_seeded():
    for workload in WORKLOAD_NAMES:
        assert generate(workload, 3, tiny=True) == generate(workload, 3, tiny=True)
        assert generate(workload, 3, tiny=True) != generate(workload, 4, tiny=True)


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
