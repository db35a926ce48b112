import argparse
import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import fixture_path
from oracles import top_level_main

from coordrig import (
    decide_plane,
    henneberg_k1_sample,
    parse_coloured_graph,
    serialize,
    sparsity_rank,
    union_rank_d2,
)
from coordrig import cli, draw, generic, linalg
from coordrig.cli import main
from coordrig.corpus import random_coloured_graph


def run_cli(*argv, env_seed=None, capsys=None):
    """Invoke the entry point in-process; returns (exit_code, stdout, stderr)."""
    import io
    import os
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    old = os.environ.get("COORDRIG_SEED")
    try:
        if env_seed is not None:
            os.environ["COORDRIG_SEED"] = str(env_seed)
        elif "COORDRIG_SEED" in os.environ:
            del os.environ["COORDRIG_SEED"]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        if old is None:
            os.environ.pop("COORDRIG_SEED", None)
        else:
            os.environ["COORDRIG_SEED"] = old
    return code, out.getvalue(), err.getvalue()


def test_check_rigid_exit_zero():
    code, out, _ = run_cli("check", str(fixture_path("quad_rigid_k1")), "--dim", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "rigid"
    assert doc["certificate"]["rainbow_tuple"] == [[0, 1]]


def test_check_flexible_exit_one():
    code, out, _ = run_cli("check", str(fixture_path("twin_blocks_k2")), "--dim", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["decision"] == "flexible"
    assert doc["witness"] == "class-all-bridges:2"


def test_check_combinatorial_wrong_dim_exit_two():
    code, _, err = run_cli(
        "check", str(fixture_path("quad_rigid_k1")), "--dim", "3",
        "--method", "combinatorial",
    )
    assert code == 2
    assert "combinatorial" in err


def test_check_numeric_dim3(tmp_path):
    code, out, _ = run_cli(
        "check", str(fixture_path("quad_rigid_k1")), "--dim", "3",
        "--seed", "5", "--trials", "2",
    )
    doc = json.loads(out)
    assert doc["method"] == "numeric"
    # K4 is independent but flexible in 3-space, so coordination cannot hold
    assert code == 1 and doc["decision"] == "flexible"


def test_check_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":2,"k":0,"edges":[[0,0,0]]}')
    code, _, err = run_cli("check", str(bad))
    assert code == 2
    assert "u < v" in err
    code, _, err = run_cli("check", str(tmp_path / "missing.json"))
    assert code == 2
    bad.write_text('{"n": true, "k": false, "edges": []}')
    code, out, err = run_cli("check", str(bad))
    assert (code, out) == (2, "")
    assert "vertex count" in err
    bad.write_text('{"n": 2, "k": 0, "edges": [[0, 1, 0]], "coords": [[0, NaN], [1, 0]]}')
    code, out, err = run_cli("stresses", str(bad), "--coords", "from-file")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1


def _doc(edges: str, n: str = "3") -> str:
    return f'{{"n": {n}, "k": 1, "edges": {edges}}}'


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(_doc('[[0, "1", 1]]'), id="string-vertex"),
        pytest.param(_doc("[[0, 1.5, 1]]"), id="fractional-vertex"),
        pytest.param(_doc("[[0, 1.0, 1]]"), id="integral-float-vertex"),
        pytest.param(_doc("[[true, 2, 1]]"), id="bool-vertex"),
        pytest.param(_doc("[[0, 1, true]]"), id="bool-colour"),
        pytest.param(_doc("[[0, null, 1]]"), id="null-vertex"),
        pytest.param(_doc("[[0, [1], 1]]"), id="nested-list-vertex"),
        pytest.param(_doc('[[0, 1, 1], ["0", 2, 0]]'), id="unsortable-mix"),
        pytest.param(_doc("[[1, 0, 1]]"), id="reversed-pair"),
        pytest.param(_doc("[[1, 1, 1]]"), id="loop"),
        pytest.param(_doc("[[0, 1]]"), id="two-entry-item"),
        pytest.param(_doc("[[0, 1" + "0" * 29 + ", 1]]"), id="30-digit-vertex"),
        pytest.param(_doc("[[0, 1, 1]]", n="3.0"), id="float-n"),
        pytest.param(_doc("[[-1, 1, 1]]"), id="negative-vertex"),
        # beyond Python's int-string digit limit, json raises a bare ValueError
        pytest.param(_doc("[[0, 1" + "0" * 5000 + ", 1]]"), id="5001-digit-vertex"),
    ],
)
def test_check_rejects_hostile_edge_entries(tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    code, out, err = run_cli("check", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "message,line",
    [
        pytest.param(
            "Unable to allocate 298. GiB for an array",
            "error: Unable to allocate 298. GiB for an array\n",
            id="numpy-message",
        ),
        pytest.param("", "error: out of memory\n", id="no-message"),
    ],
)
def test_out_of_memory_exits_two_not_flexible(monkeypatch, message, line):
    # exit 1 means "flexible"; an allocation that fails in the float route
    # must not read as one.  Nothing is allocated: the route raises at once.
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(linalg, "infinitesimal_motions", no_memory)
    path = str(fixture_path("twin_blocks_k2"))
    code, out, err = run_cli("check", path, "--method", "numeric", "--trials", "1")
    assert (code, out, err) == (2, "", line)


def test_trials_bound_allocates_nothing_per_trial():
    # --trials bounds the trials sampled; a rigid verdict eliminates one,
    # so the largest bound decides as three do, and any larger one exits 2
    path = str(fixture_path("seven_rigid_k2"))
    top = generic.MAX_TRIALS
    code, out, err = run_cli("check", path, "--method", "numeric", "--trials", str(top))
    code3, out3, _ = run_cli("check", path, "--method", "numeric", "--trials", "3")
    assert (code, err) == (code3, "") == (0, "")
    assert out == out3.replace('"trials": 3,', f'"trials": {top},')
    assert out != out3
    for trials in (top + 1, 2**62):
        code, out, err = run_cli("check", path, "--method", "numeric", "--trials", str(trials))
        assert (code, out, err) == (2, "", f"error: at most {top} trials, got {trials}\n")


def test_flexible_graph_at_the_trials_limit_ends(monkeypatch):
    # twin_blocks_k2's sampled ranks stay below the caps, so every trial is
    # eliminated; the limit keeps that to MAX_TRIALS small eliminations
    eliminations = []
    projection = linalg.modular_projection

    def counted(*args):
        eliminations.append(1)
        return projection(*args)

    monkeypatch.setattr(linalg, "modular_projection", counted)
    path = str(fixture_path("twin_blocks_k2"))
    start = time.perf_counter()
    code, out, err = run_cli(
        "check", path, "--method", "numeric", "--trials", str(generic.MAX_TRIALS))
    assert time.perf_counter() - start < 10
    assert (code, err) == (1, "")
    assert len(eliminations) == generic.MAX_TRIALS


def test_vertex_count_above_the_limit_exits_two(tmp_path):
    # a 45-byte file naming three million vertices must fail before any
    # per-vertex list is built, not write its isolated vertices
    path = tmp_path / "huge.json"
    path.write_text('{"n": 3000000, "k": 0, "edges": [[0, 2999999, 0]]}')
    tracemalloc.start()
    try:
        code, out, err = run_cli("check", str(path), "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert "vertex count 3000000 exceeds the limit" in err
    assert peak < 1_000_000


def test_reproducible_byte_identical_output():
    args = ("check", str(fixture_path("seven_rigid_k2")), "--method", "numeric",
            "--seed", "99", "--json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a == b
    assert a[0] == 0


def test_env_seed_default():
    path = str(fixture_path("seven_rigid_k2"))
    with_env = run_cli("check", path, "--method", "numeric", env_seed=42)
    with_flag = run_cli("check", path, "--method", "numeric", "--seed", "42")
    assert with_env == with_flag


def test_motions_quad_flex():
    code, out, _ = run_cli(
        "motions", str(fixture_path("quad_flex_k1")), "--seed", "4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["nontrivial_dim"] == 1
    assert doc["trivial_dim"] == 3


def test_motions_triangle(tmp_path):
    tri = tmp_path / "tri.json"
    tri.write_text('{"n":3,"k":0,"edges":[[0,1,0],[0,2,0],[1,2,0]]}')
    code, out, _ = run_cli("motions", str(tri), "--seed", "4")
    doc = json.loads(out)
    assert doc["nontrivial_dim"] == 0
    assert doc["trivial_dim"] == 3


def test_motions_from_file_coords():
    code, out, _ = run_cli(
        "motions", str(fixture_path("square_k1")), "--coords", "from-file"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coords"] == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    # the square is a degenerate placement for this colouring: one flex
    assert doc["nontrivial_dim"] == 1


def test_motions_from_file_requires_coords(tmp_path):
    tri = tmp_path / "tri.json"
    tri.write_text('{"n":3,"k":0,"edges":[[0,1,0],[0,2,0],[1,2,0]]}')
    code, _, err = run_cli("motions", str(tri), "--coords", "from-file")
    assert code == 2
    assert "coords" in err


def test_stresses_zero_on_connectors():
    code, out, _ = run_cli(
        "stresses", str(fixture_path("twin_blocks_k2")), "--seed", "11"
    )
    doc = json.loads(out)
    assert doc["dim_stress_space"] == 2
    edges = [tuple(e) for e in doc["edges"]]
    for connector in [(0, 4), (1, 5), (2, 6)]:
        idx = edges.index(connector)
        for stress in doc["basis"]:
            assert abs(stress[idx]) < 1e-9


def test_gen_henneberg_all_pass_check(tmp_path):
    code, out, _ = run_cli(
        "gen", "--n", "8", "--k", "1", "--mode", "henneberg-k1",
        "--count", "10", "--seed", "7", "--out", str(tmp_path),
    )
    assert code == 0
    files = json.loads(out)["files"]
    assert len(files) == 10
    for fn in files:
        assert run_cli("check", fn, "--dim", "2")[0] == 0


def test_gen_tiny_exit_two(tmp_path):
    code, _, err = run_cli(
        "gen", "--n", "3", "--k", "1", "--mode", "henneberg-k1",
        "--out", str(tmp_path),
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "FILE", "--dim", "0"),
        ("check", "FILE", "--dim", "3", "--trials", "0"),
        ("rank", "FILE", "--trials", "0"),
        ("gen", "--mode", "random", "--n", "1", "--out", "OUT"),
        ("gen", "--mode", "random", "--n", "3", "--k", "5", "--out", "OUT"),
        ("stresses", "FILE", "--dim", "0"),
        ("motions", "FILE", "--dim", "0"),
        ("gen", "--n", "5", "--count", "-1", "--out", "OUT"),
        ("gen", "--n", "5", "--count", "0", "--out", "OUT"),
        ("draw", "FILE", "--out", "NO_DIR"),
        ("gen", "--n", "5", "--out", "PLAIN_FILE"),
        ("motions", "FILE", "--tol", "nan"),
        ("motions", "FILE", "--tol", "inf"),
        ("motions", "FILE", "--tol", "-1"),
        ("stresses", "FILE", "--tol", "nan"),
        ("stresses", "FILE", "--tol", "inf"),
        ("stresses", "FILE", "--tol", "-1"),
        ("check", "FILE", "--trials", "0"),
        ("check", "FILE", "--trials", str(generic.MAX_TRIALS + 1)),
        ("rank", "FILE", "--trials", str(generic.MAX_TRIALS + 1)),
    ],
)
def test_usage_errors_exit_two(tmp_path, argv):
    # exit code 1 means "flexible", so a bad flag value must not produce it
    plain = tmp_path / "plain"
    plain.write_text("")
    fill = {
        "FILE": str(fixture_path("quad_rigid_k1")),
        "OUT": str(tmp_path),
        "NO_DIR": str(tmp_path / "missing" / "x.svg"),
        "PLAIN_FILE": str(plain),
    }
    code, out, err = run_cli(*(fill.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["random", "henneberg-k1"])
def test_gen_above_the_vertex_limit_exits_two(tmp_path, mode):
    # the limit is checked before any graph is drawn, so nothing is written
    n = cli.MAX_GEN_VERTICES + 1
    code, out, err = run_cli("gen", "--n", str(n), "--mode", mode, "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert f"--n {n} exceeds the limit of {cli.MAX_GEN_VERTICES}" in err
    assert list(tmp_path.iterdir()) == []


def test_gen_at_the_vertex_limit_stays_small(tmp_path):
    n = cli.MAX_GEN_VERTICES
    tracemalloc.start()
    try:
        code, out, _ = run_cli("gen", "--n", str(n), "--k", "3", "--mode", "random",
                               "--out", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(Path(json.loads(out)["files"][0]).read_text())["n"] == n
    assert peak < 100_000_000


def test_gen_requires_k1(tmp_path):
    code, _, _ = run_cli(
        "gen", "--n", "6", "--k", "2", "--mode", "henneberg-k1",
        "--out", str(tmp_path),
    )
    assert code == 2


def test_gen_random_mode(tmp_path):
    code, out, _ = run_cli(
        "gen", "--n", "6", "--k", "2", "--mode", "random",
        "--count", "3", "--seed", "12", "--out", str(tmp_path),
    )
    assert code == 0
    for fn in json.loads(out)["files"]:
        assert Path(fn).exists()


def test_gen_random_nearly_complete(tmp_path):
    # the default edge-count window must not start above n(n-1)/2: four
    # vertices and six classes leave only K4 with one edge per class
    code, out, _ = run_cli(
        "gen", "--n", "4", "--k", "6", "--mode", "random", "--out", str(tmp_path),
    )
    assert code == 0
    (fn,) = json.loads(out)["files"]
    doc = json.loads(Path(fn).read_text())
    assert sorted(tuple(e[:2]) for e in doc["edges"]) == [
        (u, v) for u in range(4) for v in range(u + 1, 4)
    ]
    assert sorted(e[2] for e in doc["edges"]) == [1, 2, 3, 4, 5, 6]


def test_draw_stroke_classes(tmp_path):
    out_svg = tmp_path / "drawing.svg"
    code, out, _ = run_cli(
        "draw", str(fixture_path("seven_rigid_k2")), "--out", str(out_svg)
    )
    assert code == 0
    svg = out_svg.read_text()
    dashed = svg.count('stroke-dasharray="8,6"')
    dotted = svg.count('stroke-dasharray="2,5"')
    assert dashed == 3
    assert dotted == 3
    # 13 edges total: 7 with no dash pattern
    assert svg.count("<line") == 13
    assert svg.count("<line") - dashed - dotted == 7


def test_draw_without_coords_above_the_layout_limit_exits_two(tmp_path, monkeypatch):
    # the spring layout makes 120 passes over all vertex pairs, so a file
    # without 2-d coords above the limit fails before any of them
    n = draw.MAX_LAYOUT_VERTICES + 1
    path, svg = tmp_path / "big.json", tmp_path / "big.svg"
    path.write_text(json.dumps({"n": n, "k": 0, "edges": [[0, 1, 0]]}))
    monkeypatch.setattr(draw, "serialize", None)  # the layout's first step
    code, out, err = run_cli("draw", str(path), "--out", str(svg))
    assert (code, out) == (2, "")
    assert f"exceeds the limit of {draw.MAX_LAYOUT_VERTICES}" in err
    assert not svg.exists()
    # 2-d coords need no layout, at any size
    edges = [[i, i + 1, 0] for i in range(n - 1)]
    coords = [[i % 17, i // 17] for i in range(n)]
    path.write_text(json.dumps({"n": n, "k": 0, "edges": edges, "coords": coords}))
    assert run_cli("draw", str(path), "--out", str(svg))[0] == 0
    assert svg.read_text().count("<circle") == n


def test_draw_default_output_name(tmp_path):
    src = tmp_path / "g.json"
    src.write_text(fixture_path("quad_rigid_k1").read_text())
    code, out, _ = run_cli("draw", str(src))
    assert code == 0
    assert json.loads(out)["out"] == str(tmp_path / "g.svg")
    assert (tmp_path / "g.svg").exists()


def test_draw_ignores_the_seed(tmp_path):
    # draw takes no seed, so a malformed COORDRIG_SEED must not stop it
    path = str(fixture_path("seven_rigid_k2"))
    plain, bad = tmp_path / "plain.svg", tmp_path / "bad.svg"
    assert run_cli("draw", path, "--out", str(plain))[0] == 0
    assert run_cli("draw", path, "--out", str(bad), env_seed="abc")[0] == 0
    assert bad.read_bytes() == plain.read_bytes()


def test_rank_report():
    code, out, _ = run_cli(
        "rank", str(fixture_path("seven_rigid_k2")), "--seed", "3", "--trials", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pebble_rank_23"] == 11
    assert doc["generic_rank"] == 11
    assert doc["union_rank"] == 13
    assert doc["coordinated_rank"] == 13
    assert doc["coordinated_target"] == 13


def test_rank_plays_only_the_union_games(tmp_path, pebble_games):
    # r(E) is the size of the union witness's basis of E minus T, so
    # `rank --dim 2` plays no game of its own; this graph's T ends with
    # 4 of its 5 colours, and the union keeps one game live throughout
    g = random_coloured_graph(14, 5, seed=2, m=31)
    path = tmp_path / "g.json"
    path.write_text(serialize(g))
    code, out, _ = run_cli("rank", str(path), "--dim", "2", "--trials", "1")
    assert code == 0
    rank_games = len(pebble_games)
    pebble_games.clear()
    rep = union_rank_d2(g)
    assert len(rep.transversal) == 4
    assert rank_games == len(pebble_games) == 1
    assert json.loads(out)["pebble_rank_23"] == sparsity_rank(g)[0]


def test_one_parser_serves_every_call(monkeypatch):
    # main builds its parser once per process; a check, a rank, an argparse
    # usage error and a check under another COORDRIG_SEED must each give
    # what a freshly built parser gives
    calls = [
        (("check", str(fixture_path("seven_rigid_k2")), "--dim", "3"), 4),
        (("rank", str(fixture_path("twin_blocks_k2")), "--trials", "1"), None),
        (("check", str(fixture_path("quad_rigid_k1")), "--method", "bogus"), None),
        (("check", str(fixture_path("seven_rigid_k2")), "--dim", "3"), 9),
    ]

    def outcome(argv, env_seed):
        try:
            return run_cli(*argv, env_seed=env_seed)
        except SystemExit as exc:
            return exc.code, "", ""

    fresh = []
    for argv, env_seed in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv, env_seed)[:2])
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    shared = [outcome(argv, env_seed)[:2] for argv, env_seed in calls]
    assert len(built) == 1
    assert shared == fresh
    assert [code for code, _ in shared] == [1, 0, 2, 1]
    assert shared[0][1] != shared[3][1]  # the seed reached the oracle


DISPATCH_ARGVS = [
    ("check", "QUAD", "--json"),
    ("check", "SEVEN", "--method", "numeric", "--dim", "3", "--seed", "4", "--json"),
    ("motions", "QUAD", "--seed", "3"),
    ("stresses", "SEVEN", "--dump-matrix", "--json"),
    ("gen", "--n", "6", "--seed", "2", "--out", "OUT"),
    ("draw", "QUAD", "--out", "OUT/quad.svg"),
    ("rank", "SEVEN", "--trials", "2", "--json"),
    ("-h",),
    ("--help",),
    ("check", "-h"),
    ("motions", "-h"),
    ("stresses", "--help"),
    ("gen", "-h"),
    ("draw", "-h"),
    ("rank", "-h"),
    ("check", "QUAD", "--json", "-h"),
    (),
    ("bogus",),
    ("bogus", "QUAD"),
    ("chec", "QUAD"),
    ("check", "MISSING"),
    ("check",),
    ("check", "QUAD", "--method", "bogus"),
    ("check", "QUAD", "--dim", "x"),
    ("check", "QUAD", "--bogus"),
    ("check", "QUAD", "--bogus", "extra", "--json", "-x"),
    ("check", "QUAD", "QUAD"),
    ("--bogus",),
    ("--bogus", "check", "QUAD"),
    ("check", "--", "QUAD"),
    ("check", "QUAD", "--"),
    ("check", "QUAD", "--", "--json"),
    ("--", "check", "QUAD"),
    ("check", "QUAD", "--js", "--me", "numeric"),
    ("check", "QUAD", "--seed", "-3", "--json"),
    ("check", "QUAD", "--dim=3", "--method=numeric", "--json"),
]


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
def test_command_dispatch_parses_as_the_top_level_parser(tmp_path, monkeypatch, argv):
    # main hands a command's tokens straight to that command's parser; the
    # namespace, exit code and every byte written must be what parsing the
    # whole argv with the top-level parser gives
    monkeypatch.delenv("COORDRIG_SEED", raising=False)
    fill = {
        "QUAD": str(fixture_path("quad_rigid_k1")),
        "SEVEN": str(fixture_path("seven_rigid_k2")),
        "MISSING": str(tmp_path / "missing.json"),
        "OUT": str(tmp_path),
    }
    argv = [fill.get(a, a.replace("OUT/", f"{tmp_path}/")) for a in argv]

    def outcome(call):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                result = call(list(argv))
            except SystemExit as exc:
                result = ("exit", exc.code)
        if isinstance(result, argparse.Namespace):
            result = vars(result)
        return result, out.getvalue(), err.getvalue()

    assert outcome(cli._parse_args) == outcome(cli._parser().parse_args)
    assert outcome(main) == outcome(top_level_main)


def test_a_crash_exits_two_with_its_traceback(monkeypatch):
    # exit 1 means "flexible", so an exception that no command expects must
    # not leave the console script with status 1 either
    def broken(g):
        raise RuntimeError("union invariant broken: test")

    monkeypatch.setattr(cli, "decide_plane", broken)
    code, out, err = run_cli("check", str(fixture_path("quad_rigid_k1")))
    assert (code, out) == (2, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("\nRuntimeError: union invariant broken: test\n")


@pytest.mark.parametrize("stop", [SystemExit(3), KeyboardInterrupt()], ids=repr)
def test_exit_and_interrupt_pass_through_main(monkeypatch, stop):
    def stopped(g):
        raise stop

    monkeypatch.setattr(cli, "decide_plane", stopped)
    with pytest.raises(type(stop)) as info:
        run_cli("check", str(fixture_path("quad_rigid_k1")))
    assert info.value is stop


def test_a_large_check_runs_no_collection(tmp_path):
    # main pauses the cyclic collector for the command; run with it on, the
    # same library call on this file collects several times
    path = tmp_path / "henneberg_600.json"
    path.write_text(serialize(henneberg_k1_sample(600, 0)) + "\n")
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(record)
    try:
        decide_plane(parse_coloured_graph(path.read_text()))
        library = len(starts)
        starts.clear()
        code, _, _ = run_cli("check", str(path), "--json")
    finally:
        gc.callbacks.remove(record)
        if not enabled:
            gc.disable()
    assert library >= 2
    assert (code, starts) == (0, [])


COLLECTOR_EXITS = [
    pytest.param(("check", "QUAD"), None, 0, id="exit-0"),
    pytest.param(("check", "TWIN"), None, 1, id="exit-1"),
    pytest.param(("check", "MISSING"), None, 2, id="cli-error"),
    pytest.param(("check", "QUAD"), generic.BackendError, 2, id="backend-error"),
    pytest.param(("check", "QUAD"), MemoryError, 2, id="out-of-memory"),
    pytest.param(("check", "QUAD"), RuntimeError, 2, id="crash"),
    pytest.param(("--bogus",), None, SystemExit, id="usage-error"),
    pytest.param(("check", "-h"), None, SystemExit, id="help"),
    pytest.param(("check", "QUAD"), KeyboardInterrupt, KeyboardInterrupt,
                 id="interrupt"),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, raised, outcome", COLLECTOR_EXITS)
def test_main_restores_the_collector_on_every_exit(
    tmp_path, monkeypatch, enabled, argv, raised, outcome
):
    # the command runs with the collector paused, and the caller finds it
    # as it left it, whether main returns or raises
    seen = []

    def decide(g):
        seen.append(gc.isenabled())
        if raised is not None:
            raise raised()
        return decide_plane(g)

    monkeypatch.setattr(cli, "decide_plane", decide)
    fill = {
        "QUAD": str(fixture_path("quad_rigid_k1")),
        "TWIN": str(fixture_path("twin_blocks_k2")),
        "MISSING": str(tmp_path / "missing.json"),
    }
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        try:
            result = run_cli(*(fill.get(a, a) for a in argv))[0]
        except (SystemExit, KeyboardInterrupt) as exc:
            result = type(exc)
        after = gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()
    assert result == outcome
    assert after is enabled
    assert True not in seen


def test_rank_dump_matrix():
    code, out, _ = run_cli(
        "rank", str(fixture_path("square_k1")), "--seed", "3",
        "--coords", "from-file", "--dump-matrix",
    )
    doc = json.loads(out)
    assert len(doc["rigidity_matrix"]) == 6
    assert len(doc["rigidity_matrix"][0]) == 8
    assert len(doc["coordinated_matrix"][0]) == 9


def test_motions_reproducible():
    args = ("motions", str(fixture_path("quad_flex_k1")), "--seed", "31", "--json")
    assert run_cli(*args) == run_cli(*args)


def test_motions_tol_flag():
    # an absurdly large tolerance treats the whole matrix as rank zero
    code, out, _ = run_cli(
        "motions", str(fixture_path("quad_flex_k1")), "--seed", "31",
        "--tol", "1e9",
    )
    assert code == 0
    assert json.loads(out)["nullity"] == 9  # dn + k, everything in the kernel


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "coordrig.cli", "check",
         str(fixture_path("quad_rigid_k1"))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["decision"] == "rigid"


@pytest.mark.parametrize("name, code", [("seven_rigid_k2", 0), ("twin_blocks_k2", 1)])
def test_python_dash_m_coordrig_is_the_cli(name, code):
    # without coordrig/__main__.py, `python -m coordrig` exits 1, which a
    # caller reads as "flexible"
    argv = ["check", str(fixture_path(name))]
    env = dict(os.environ)
    env.pop("COORDRIG_SEED", None)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "coordrig", *argv],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == run_cli(*argv)[:2]
    assert proc.returncode == code
