"""Command-line front end.

Commands: check, motions, stresses, gen, draw, rank.  All machine output is
JSON on stdout; diagnostics go to stderr.  Exit codes: 0 for a "rigid"
decision or plain success, 1 for a "flexible" decision, 2 for input or
usage errors and for running out of memory.  The environment variable
COORDRIG_SEED supplies the default seed; the same file, flags and seed
always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import generic, linalg
from .cgraph import GraphError, parse_coloured_graph, serialize
from .corpus import random_coloured_graph
from .draw import render_svg
from .generic import OracleParams, decide_generic_coordinated_rigidity
from .laman import decide_plane, henneberg_k1_sample, union_rank_d2

USAGE_ERROR = 2


class CliError(Exception):
    pass


def _default_seed() -> int:
    raw = os.environ.get("COORDRIG_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"COORDRIG_SEED must be an integer, got {raw!r}")


def _oracle_params(args) -> OracleParams:
    try:
        return OracleParams(d=args.dim, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc))


def _load(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    try:
        return parse_coloured_graph(text)
    except GraphError as exc:
        raise CliError(f"{path}: {exc}")


def _emit(payload: dict, compact: bool) -> None:
    if compact:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(payload, sort_keys=True, indent=2)
    sys.stdout.write(text + "\n")


def _round(x):
    if isinstance(x, (list, tuple)):
        return [_round(v) for v in x]
    return round(float(x), 12)


def _header(g, args) -> dict:
    """The n, m, k, d and seed that open the float and rank payloads."""
    return {"n": g.n, "m": g.m, "k": g.k, "d": args.dim, "seed": args.seed}


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _coords_for(g, args, d: int):
    if d < 1:
        raise CliError(f"--dim must be at least 1, got {d}")
    if args.coords == "from-file":
        if g.coords is None:
            raise CliError("--coords from-file requires a 'coords' entry in the input")
        if len(g.coords[0]) != d:
            raise CliError(
                f"file coords have dimension {len(g.coords[0])}, expected {d}"
            )
        return linalg.as_points(g.coords, g.n)
    return linalg.random_configuration(g.n, d, args.seed)


def cmd_check(args) -> int:
    g = _load(args.file)
    method = args.method
    if method == "combinatorial" and args.dim != 2:
        raise CliError("combinatorial decisions are only available for --dim 2")
    params = _oracle_params(args)
    if method == "auto":
        method = "combinatorial" if args.dim == 2 else "numeric"
    if method == "combinatorial":
        verdict = decide_plane(g)
    else:
        verdict = decide_generic_coordinated_rigidity(g, params)
    _emit(verdict.to_json(), args.json)
    return 0 if verdict.rigid else 1


def _tol(args) -> float | None:
    tol = args.tol
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise CliError(f"--tol must be a finite number >= 0, got {tol}")
    return tol


def cmd_motions(args) -> int:
    g = _load(args.file)
    tol = _tol(args)
    p = _coords_for(g, args, args.dim)
    try:
        report = linalg.infinitesimal_motions(g, p, tol=tol)
    except ValueError as exc:
        raise CliError(str(exc))
    payload = _header(g, args) | {
        "coords": _round(p.tolist()),
        "nullity": report.nullity,
        "trivial_dim": report.trivial_dim,
        "nontrivial_dim": report.nontrivial_dim,
        "basis": _round(report.basis.tolist()),
        "nontrivial_basis": _round(report.nontrivial_basis.tolist()),
    }
    if args.dump_matrix:
        payload["coordinated_matrix"] = _round(
            linalg.coordinated_matrix(g, p).tolist()
        )
    _emit(payload, args.json)
    return 0


def cmd_stresses(args) -> int:
    g = _load(args.file)
    tol = _tol(args)
    p = _coords_for(g, args, args.dim)
    basis = linalg.equilibrium_stresses(g, p, tol=tol)
    payload = _header(g, args) | {
        "coords": _round(p.tolist()),
        "edges": [list(e) for e in g.edges],
        "dim_stress_space": int(basis.shape[0]),
        "basis": _round(basis.tolist()),
    }
    if args.dump_matrix:
        payload["rigidity_matrix"] = _round(linalg.rigidity_matrix(g, p).tolist())
    _emit(payload, args.json)
    return 0


def cmd_gen(args) -> int:
    if args.count < 1:
        raise CliError(f"--count must be at least 1, got {args.count}")
    if args.mode == "henneberg-k1":
        if args.k != 1:
            raise CliError("henneberg-k1 generation requires --k 1")
        if args.n < 4:
            raise CliError("henneberg-k1 generation requires --n >= 4")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create {out_dir}: {exc}")
    files = []
    for i in range(args.count):
        seed_i = args.seed + i
        if args.mode == "henneberg-k1":
            g = henneberg_k1_sample(args.n, seed_i)
        else:
            try:
                g = random_coloured_graph(args.n, args.k, seed_i)
            except ValueError as exc:
                raise CliError(f"--mode random: {exc}")
        name = f"{args.mode}_n{args.n}_k{args.k}_s{seed_i}.json"
        path = out_dir / name
        _write(path, serialize(g) + "\n")
        files.append(str(path))
    _emit({"files": files, "seed": args.seed, "count": args.count}, args.json)
    return 0


def cmd_draw(args) -> int:
    g = _load(args.file)
    out = args.out or str(Path(args.file).with_suffix(".svg"))
    _write(out, render_svg(g))
    _emit({"out": out, "n": g.n, "m": g.m, "k": g.k}, args.json)
    return 0


def cmd_rank(args) -> int:
    g = _load(args.file)
    params = _oracle_params(args)
    payload = _header(g, args) | {"trials": args.trials}
    payload.update(generic.rank_summary(g, params))
    if args.dim == 2:
        # removing T keeps the rank, so E minus T's basis has r(E) edges
        rep = union_rank_d2(g)
        payload["pebble_rank_23"] = len(rep.independent_rigidity)
        payload["union_rank"] = rep.union_rank
        payload["union_deficiency"] = rep.deficiency
    if args.dump_matrix:
        p = _coords_for(g, args, args.dim)
        payload["coords"] = _round(p.tolist())
        payload["rigidity_matrix"] = _round(linalg.rigidity_matrix(g, p).tolist())
        payload["coordinated_matrix"] = _round(
            linalg.coordinated_matrix(g, p).tolist()
        )
    _emit(payload, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coordrig",
        description="Decide generic rigidity of coordinated bar-joint frameworks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="root seed (default: COORDRIG_SEED or 0)")
        p.add_argument("--json", action="store_true",
                       help="compact single-line JSON output")

    p = sub.add_parser("check", help="decide rigid/flexible with a certificate")
    p.add_argument("file")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--method", choices=["auto", "combinatorial", "numeric"],
                   default="auto")
    p.add_argument("--trials", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_check)

    for name, help_text, func in (
        ("motions", "infinitesimal motion basis", cmd_motions),
        ("stresses", "equilibrium stress basis", cmd_stresses),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.add_argument("--dim", type=int, default=2)
        p.add_argument("--coords", choices=["random", "from-file"], default="random")
        p.add_argument("--tol", type=float, default=None,
                       help="numerical rank tolerance (default: the standard "
                            "max(shape) * eps * sigma_max rule)")
        p.add_argument("--dump-matrix", action="store_true")
        common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("gen", help="generate graph files")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mode", choices=["henneberg-k1", "random"],
                   default="henneberg-k1")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", default=".")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("draw", help="render the graph to SVG")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    common(p, seed=False)
    p.set_defaults(func=cmd_draw)

    p = sub.add_parser("rank", help="rank report across all engines")
    p.add_argument("file")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--coords", choices=["random", "from-file"], default="random")
    p.add_argument("--dump-matrix", action="store_true")
    common(p)
    p.set_defaults(func=cmd_rank)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "seed" in args and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (CliError, generic.BackendError, MemoryError) as exc:
        # exit 1 means "flexible", so a crash must not exit 1
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
