"""Out-of-program tracing of ``coordrig check``.

``Tracer.install`` wraps the public functions of cgraph, pebble, laman,
generic, linalg and cli in every coordrig namespace that binds them (so
``laman.run_game`` is wrapped as well as ``pebble.run_game``), the
``PebbleGame`` methods on the class, the plane rainbow-pair searches and
``numpy.linalg.svd``.  ``uninstall`` puts every original back.

Each wrapped call is a frame on one stack; a frame's self time is its
duration minus the time of the wrapped calls made inside it, and it is
charged to the frame's layer (the module name).  Frames of ordinary
functions are also kept as spans (id, parent, name, start, end, instance);
the ``PebbleGame`` methods and ``svd`` run far too often for that and only
add to counters and self time.  Inclusive group times (``laman.union_s``,
``linalg.elim_s`` and so on) count a call only when no call of the same
group encloses it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

from coordrig import cgraph, cli, generic, laman, linalg, pebble
import coordrig

LAYERS = {"cgraph": cgraph, "pebble": pebble, "laman": laman,
          "generic": generic, "linalg": linalg, "cli": cli}
NAMESPACES = (coordrig, cgraph, pebble, laman, generic, linalg, cli)

# inclusive time groups: metric name -> wrapped functions
GROUPS = {
    "cli.main_s": ("cli.main",),
    "cgraph.parse_s": ("cgraph.parse_coloured_graph",),
    "laman.union_s": ("laman.union_rank_d2",),
    "laman.rainbow_pair_s": ("laman.rainbow_pair_k2", "laman._rainbow_pair_general"),
    "generic.tuple_search_s": ("generic.find_rainbow_redundant_tuple",),
    "linalg.elim_s": ("linalg.modular_rank_rows", "linalg.modular_nullspace"),
    "linalg.modmatrix_s": ("linalg.modular_matrix",),
    "linalg.float_s": ("linalg.infinitesimal_motions", "linalg.equilibrium_stresses",
                       "linalg.float_rank", "linalg.rigidity_matrix",
                       "linalg.coordinated_matrix", "linalg.random_configuration"),
}
CHECKERS = ("laman.check_k1", "laman.check_k2", "laman.check_union")
PRIVATE = (("laman", "_rainbow_pair_general"),)


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """Spans, per-layer self times and counters of wrapped coordrig calls."""

    def __init__(self) -> None:
        self.instance = None  # request id stamped on every span
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.group_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack = [0.0]  # child time accumulated by each open frame
        self._span_ids = [None]
        self._depth: Counter[str] = Counter()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- per-pass accounting -------------------------------------------------

    def reset_totals(self) -> None:
        self.self_s.clear()
        self.group_s.clear()
        self.counts.clear()

    # -- wrapping ------------------------------------------------------------

    def _frame(self, fn, name, *, span=True, before=None):
        layer = name.split(".")[0]
        static_groups = tuple(g for g, members in GROUPS.items() if name in members)
        per_dim = name == "generic.decide_generic_coordinated_rigidity"
        checker = name in CHECKERS
        stack, span_ids, depth = self._stack, self._span_ids, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            groups = static_groups
            if per_dim:
                params = args[1] if len(args) > 1 else kwargs["params"]
                groups = (f"generic.decide_s.d{params.d}",)
            for g in groups:
                depth[g] += 1
            if span:
                sid = self._next_id
                self._next_id += 1
                parent = span_ids[-1]
                span_ids.append(sid)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                child = stack.pop()
                stack[-1] += dur
                self.self_s[layer] += dur - child
                if checker:
                    self.self_s["laman.check"] += dur - child
                self.counts[name] += 1
                for g in groups:
                    depth[g] -= 1
                    if depth[g] == 0:
                        self.group_s[g] += dur
                if span:
                    span_ids.pop()
                    self.spans.append((sid, parent, name, t0, t1, self.instance))

        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers = {}
        for short, module in LAYERS.items():
            funcs = list(_public_functions(module))
            funcs += [(name, getattr(module, name)) for mod, name in PRIVATE if mod == short]
            for name, fn in funcs:
                before = {"modular_rank_rows": self._count_rank_cells,
                          "modular_nullspace": self._count_nullspace_cells}.get(name)
                wrappers[id(fn)] = self._frame(fn, f"{short}.{name}", before=before)
        for ns in NAMESPACES:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(ns, attr, wrappers[id(obj)])
        game = pebble.PebbleGame
        self._patch(game, "__init__", self._frame(
            game.__init__, "pebble.PebbleGame", span=False, before=self._count_game))
        self._patch(game, "try_insert", self._insert_frame(game.try_insert))
        self._patch(game, "rejection_circuit", self._frame(
            game.rejection_circuit, "pebble.rejection_circuit", span=False))
        self._patch(np.linalg, "svd", self._frame(np.linalg.svd, "linalg.svd", span=False))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- counters taken from arguments and results ---------------------------

    def _count_rank_cells(self, rows, q=None, row_subset=None) -> None:
        nrows = len(rows) if row_subset is None else len(row_subset)
        self.counts["linalg.elim_cells"] += nrows * (len(rows[0]) if len(rows) else 0)

    def _count_nullspace_cells(self, rows, ncols, q=None) -> None:
        self.counts["linalg.elim_cells"] += len(rows) * ncols

    def _count_game(self, *args, **kwargs) -> None:
        if self._depth["laman.union_s"]:
            self.counts["laman.union_games"] += 1

    def _insert_frame(self, fn):
        inner = self._frame(fn, "pebble.try_insert", span=False)
        counts = self.counts

        @functools.wraps(fn)
        def try_insert(game, edge):
            ok = inner(game, edge)
            if ok:
                counts["pebble.accepted"] += 1
            return ok

        return try_insert

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, inst in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "instance": inst}) + "\n")
