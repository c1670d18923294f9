"""The benchmark's tracer still fits the library: perfbench/tracing.py patches
discoh's module boundaries by name, so a renamed entry point, a changed
signature or a lost validating class breaks the traced benchmark run.  One
small call through each entry point the workloads use, with the tracer
installed, shows that it does not."""

import importlib.util
from pathlib import Path

import numpy as np

import discoh
import discoh.verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_run_and_uninstall_cleanly():
    tracing = load_tracing()
    eigh = np.linalg.eigh
    classes = [getattr(importlib.import_module(f"discoh.{module}"), name)
               for module, name in tracing.VALIDATING_CLASSES]
    inits = {cls: cls.__init__ for cls in classes}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for cls, init in inits.items():
            assert cls.__init__ is not init, cls
        rho = discoh.DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]), (2, 2))
        discoh.MeasureReport.compute(rho)
        discoh.coherence_discord(rho)
        discoh.coherence_discord_symmetric(rho)
        discoh.discord(rho)
        discoh.discord_via_coherence(rho)
        for suite in ("theorem1", "theorem3", "superadditivity", "invariance"):
            assert discoh.run_suite(suite, trials=2, seed=3).passed, suite
        assert discoh.verify.verify_theorem2(trials=1, grid_checks=1).passed
    finally:
        tracer.uninstall()
    names = {tracer.names[i] for i in tracer.nid}
    for span in ("search.discord", "search.discord_via_coherence", "search.minimize",
                 "search.objective", "states.DensityMatrix", "states.ReferenceBasis",
                 "measures.MeasureReport.compute", *tracing.CLOSED_FORM):
        assert span in names, span
    assert len(tracer.solves) == 3  # discord, discord_via_coherence, the theorem2 trial
    assert np.linalg.eigh is eigh
    for cls, init in inits.items():
        assert cls.__init__ is init, cls


def test_a_traced_search_at_its_floor_is_the_search_users_run():
    # the tracer wraps the objective that minimize gets, and the floor reaches minimize as
    # an argument, so a traced search that starts at its floor still cuts every other restart
    tracing = load_tracing()
    rho = discoh.DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]), (2, 2))
    untraced = discoh.discord(rho)[1].to_dict()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [discoh.discord(rho)[1].to_dict(), discoh.discord_via_coherence(rho)[2].to_dict()]
    finally:
        tracer.uninstall()
    restarts = untraced["restarts"]
    assert [r["stop"] for r in restarts].count("cut") == 15
    assert sum(r["evaluations"] for r in restarts) == 16
    assert traced == [untraced, untraced]
