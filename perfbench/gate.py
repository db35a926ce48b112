"""Correctness gate, run outside the timed region.

An instance fails when its ``check`` call raised or exited 2, when the
decision or exit code disagrees with the construction label, when a numeric
flexible verdict names the wrong witness, when a rigid certificate does not
re-verify, or when the file or decision differs from the committed
reference list.  Repeated calls must also print identical bytes; run.py
checks that as it runs them.

Certificates re-verify through functions the deciders did not run: at d = 2
the (2,3) pebble rank of E minus the rainbow tuple, otherwise the generic
rank and ``is_redundant_set`` at a fresh seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from coordrig import OracleParams, generic_rank, is_redundant_set, sparsity_rank

from instances import RIGID

REFERENCE = Path(__file__).resolve().parent / "reference.json"
FRESH_SEED = 500_000_001  # added to the run seed; no decider trial uses it


def file_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def _letter(out: str) -> str:
    try:
        return {"rigid": "R", "flexible": "F"}.get(json.loads(out).get("decision"), "?")
    except (json.JSONDecodeError, AttributeError):
        return "?"


def reference_entries(inst_texts, outputs) -> list[str]:
    """``<decision letter>:<file digest>`` per instance, as stored."""
    return [f"{_letter(out)}:{file_digest(text)}" for text, out in zip(inst_texts, outputs)]


def load_reference(workload: str, seed: int):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def reverify(inst, cert, seed: int) -> str | None:
    """None when the rigid certificate holds, else the reason it fails."""
    tup = [tuple(e) for e in (cert or {}).get("rainbow_tuple", [])]
    colour = {(u, v): c for u, v, c in inst.edges}
    if any(e not in colour for e in tup):
        return "certificate names an edge not in the graph"
    if sorted(colour[e] for e in tup) != list(range(1, inst.k + 1)):
        return "certificate is not a rainbow tuple"
    drop = set(tup)
    n, d = inst.n, inst.d
    if inst.method == "auto":
        rest = [(u, v) for u, v, _ in inst.edges if (u, v) not in drop]
        rank, _ = sparsity_rank((rest, n))
        return None if rank == 2 * n - 3 else "E minus the tuple is not rigid (pebble rank)"
    g = inst.graph()
    params = OracleParams(d=d, trials=1, seed=seed + FRESH_SEED)
    if generic_rank(g, params) != d * n - math.comb(d + 1, 2):
        return "underlying graph not rigid at a fresh seed"
    if not is_redundant_set(g, tup, params):
        return "tuple not redundant at a fresh seed"
    return None


def check(inst, rc, out: str, seed: int) -> list[str]:
    """Reasons the instance's first call failed; empty when it passed."""
    if rc is None:
        return ["raised an exception"]
    if rc == 2:
        return ["exit code 2"]
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return ["stdout is not JSON"]
    reasons = []
    if doc.get("decision") != inst.decision:
        reasons.append(f"decision {doc.get('decision')}, expected {inst.decision}")
    elif rc != (0 if inst.decision == RIGID else 1):
        reasons.append(f"exit code {rc} for a {inst.decision} decision")
    elif inst.witness is not None and doc.get("witness") != inst.witness:
        reasons.append(f"witness {doc.get('witness')}, expected {inst.witness}")
    elif inst.decision == RIGID:
        why = reverify(inst, doc.get("certificate"), seed)
        if why:
            reasons.append(why)
    return reasons


def check_reference(stored, entries) -> list[list[str]]:
    """Per-instance reasons from comparing against the stored entries."""
    if len(stored) != len(entries):
        return [["instance count differs from the reference"]] * len(entries)
    return [[] if s == e else [f"reference {s}, got {e}"] for s, e in zip(stored, entries)]
