"""The benchmark's ``--trace 1`` run wraps library functions by name, so a
rename in the library must fail here rather than only in the benchmark."""

from pathlib import Path

from conftest import load_fixture

import coordrig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# names the benchmark still lists after the library dropped them; the
# tracer wraps only functions that exist, so each must be truly gone
RETIRED = {"linalg.modular_nullspace", "laman.rainbow_pair_k2"}


def test_tracer_wraps_every_named_function_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import CHECKERS, GROUPS, LAYERS, Tracer

    names = {name for members in GROUPS.values() for name in members} | set(CHECKERS)
    for name in RETIRED:
        module, attr = name.split(".")
        assert not hasattr(LAYERS[module], attr), name
    names -= RETIRED
    originals = {name: getattr(LAYERS[name.split(".")[0]], name.split(".")[1]) for name in names}
    tracer = Tracer()
    tracer.install()
    try:
        for name, fn in originals.items():
            module, attr = name.split(".")
            assert getattr(LAYERS[module], attr).__wrapped__ is fn, name
        coordrig.check_union(load_fixture("seven_rigid_k2"))
    finally:
        tracer.uninstall()
    assert tracer.counts["laman.union_rank_d2"] == 1
    assert tracer.counts["laman.union_games"] >= 1
    for name, fn in originals.items():
        module, attr = name.split(".")
        assert getattr(LAYERS[module], attr) is fn, name
