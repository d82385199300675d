"""The names perfbench/tracing.py wraps must exist in symwitt.

The benchmark's tracer replaces module-level functions and methods by
name, and its report workloads swap `symwitt.cli.vaserstein_report`
only while it is `symwitt.orbits.vaserstein_report`.  A rename or a
call that bypasses these names would leave a traced run failing or its
per-layer figures at zero, so both are checked here against the
benchmark's own table, read without editing it.
"""

import importlib
import importlib.util
from pathlib import Path

import symwitt
import symwitt.cli
from symwitt import orbits
from symwitt.rings import ModularRing

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_hook_resolves():
    hooks = _tracing().HOOKS
    assert hooks
    for modname, attr, clsname, *_ in hooks:
        home = importlib.import_module("symwitt." + modname)
        if clsname is None:
            assert callable(getattr(home, attr, None)), (modname, attr)
        else:
            # the tracer wraps the class's own attribute, not an inherited one
            assert attr in vars(getattr(home, clsname)), (modname, clsname, attr)
    assert symwitt.cli.vaserstein_report is orbits.vaserstein_report


def test_traced_report_reaches_the_hooked_layers():
    tracing = _tracing()
    tracer, build = tracing.Tracer(), orbits.elementary_generators
    tracer.install()
    try:
        report = orbits.vaserstein_report(ModularRing(2))
    finally:
        tracer.uninstall()
    assert report.verdict == orbits.CONFIRMED
    layers = tracer.layer_metrics(1)
    for name in ("orbits.generators", "orbits.bfs_objects", "orbits.partition_builds",
                 "orbits.rows", "umrows.symbols"):
        assert layers[name] > 0, name
    assert orbits.elementary_generators is build
