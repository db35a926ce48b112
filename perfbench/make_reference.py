"""Write reference.json: each instance's decision for seeds 0..N-1.

    python3 perfbench/make_reference.py --seeds 32
    python3 perfbench/make_reference.py --seeds 32 --workloads plane_k12

With ``--workloads`` only those workloads are rebuilt; the other entries
of an existing reference.json are kept.

Every decision comes from two routes that must agree with each other and
with the construction label, or the script stops:

* plane instances: ``check`` as the benchmark runs it (combinatorial), and
  the numeric decider at d = 2 where n <= 40;
* numeric instances: ``check --method numeric`` as the benchmark runs it,
  and the combinatorial decider at d = 2 or the numeric decider at a second
  seed at d = 3.

Each entry is ``<R|F>:<digest of the instance file>``; the benchmark fails
an instance whose file or decision differs from the entry.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import ROOT, call_check, setup_instances
from coordrig import OracleParams, decide_generic_coordinated_rigidity, decide_plane

import gate
from instances import WORKLOADS

NUMERIC_MAX_N = 40  # largest plane instance also decided by the numeric route


def _second_route(inst, seed):
    g = inst.graph()
    if inst.method == "auto":
        if inst.n > NUMERIC_MAX_N:
            return None
        return decide_generic_coordinated_rigidity(g, OracleParams(d=2, seed=seed)).decision
    if inst.d == 2:
        return decide_plane(g).decision
    params = OracleParams(d=inst.d, seed=seed + gate.FRESH_SEED)
    return decide_generic_coordinated_rigidity(g, params).decision


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = parser.parse_args(argv)
    out: dict = {}
    if set(args.workloads) != set(WORKLOADS):
        out = json.loads(gate.REFERENCE.read_text())
        if out["seeds"] != args.seeds:
            sys.exit(f"reference.json has {out['seeds']} seeds, not {args.seeds}")
    out["seeds"] = args.seeds
    work = ROOT / ".perfbench" / "reference-work"
    try:
        for workload in args.workloads:
            out[workload] = {}
            for seed in range(args.seeds):
                insts, texts, paths, _ = setup_instances(workload, seed, False, work)
                outputs = []
                for inst, path in zip(insts, paths):
                    rc, text, _ = call_check(inst.argv(path, seed))
                    first = json.loads(text)["decision"]
                    second = _second_route(inst, seed)
                    if first != inst.decision or second not in (None, first):
                        sys.exit(f"{workload} seed {seed} {inst.ident}: label {inst.decision}, "
                                 f"check {first}, second route {second}")
                    outputs.append(text)
                out[workload][str(seed)] = gate.reference_entries(texts, outputs)
                print(f"{workload} seed {seed}: {len(insts)} instances agree", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gate.REFERENCE.write_text(_dump(out))
    return 0


def _dump(out: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for workload in WORKLOADS:
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entries, separators=(',', ':'))}"
                           for seed, entries in out[workload].items())
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    return "{\n" + f' "seeds": {out["seeds"]},\n' + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
