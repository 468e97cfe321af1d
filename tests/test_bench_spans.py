"""The benchmark's trace path runs against the package as it is.

``bench/spans.py`` replaces package functions by name while it traces, so a
renamed function or a changed signature shows up here rather than only in
a traced benchmark run.
"""

import dataclasses
import importlib
from pathlib import Path

import numpy as np

from lsapdma import harness, optimizer
from lsapdma.harness import ExperimentConfig
from lsapdma.optimizer import OptProblem

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_restores_what_it_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in spans.TARGETS if hasattr(mod, attr)]
    build = OptProblem.__dict__["build"]
    cfg = dataclasses.replace(ExperimentConfig.from_file(ROOT / "configs" / "fig4.cfg"), drops=2, workers=1)
    tracer = spans.Tracer()
    with tracer.installed():
        table = harness.run_monte_carlo(cfg)
        prob = OptProblem.build(np.array([[1.0, 2.0], [0.5, 1.5]]), 10.0, r_min=0.3)
        sol = optimizer.barrier_solve(prob)
    assert all(row.drops == 2 for row in table.rows)
    assert sol.status == "converged"
    for mod, attr, fn in originals:
        assert getattr(mod, attr) is fn, attr
    assert OptProblem.__dict__["build"] is build
    assert list(tracer.self_seconds()) == list(spans.LAYERS)
    assert tracer.calls["optimizer.build"] == 1
    assert tracer.calls["optimizer.solve"] == 1
    assert tracer.newton_steps > 0
