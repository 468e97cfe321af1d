"""Spans around the package's public functions, recorded from outside it.

``Tracer.installed()`` replaces each traced function, under the name its
caller looks it up by, with a wrapper that records a span (layer name,
start, end, parent span) in memory and restores the originals on exit.  A
layer's self time is the duration of its spans less the part their child
spans cover, so the self times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import gzip
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from lsapdma import harness, optimizer
from lsapdma.beamforming import SingularChannelError
from lsapdma.optimizer import OptProblem

# (module whose global the caller looks up, attribute, layer)
TARGETS = (
    (harness, "run_monte_carlo", "harness.aggregate"),
    (harness, "run_drop", "harness.self"),
    (harness, "drop_users", "channel"),
    (harness, "user_channels", "channel"),
    (harness, "simple_beam_allocation", "pattern.build"),
    (harness, "oma_pattern", "pattern.build"),
    (harness, "pnoma_pattern", "pattern.build"),
    (harness, "select_users", "beamforming.select"),
    (harness, "compute_zfbf", "beamforming.zf"),
    (harness, "equal_power", "pattern.power"),
    (harness, "fixed_ratio_power", "pattern.power"),
    (harness, "build_link_state", "receiver.link"),
    (harness, "sinr", "receiver.sinr"),
    (harness, "barrier_solve", "optimizer.solve"),
    (optimizer, "barrier_solve", "optimizer.solve"),
    (optimizer, "feasible_start", "optimizer.phase1"),
)
LAYERS = tuple(dict.fromkeys(["optimizer.build"] + [layer for _, _, layer in TARGETS]))


class Tracer:
    """In-memory span recorder with call, exception and solver counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self.calls: Counter = Counter()
        self.singular: Counter = Counter()
        self.newton_steps = 0
        self.not_converged = 0

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(layer)
            self.parents.append(self._open[-1] if self._open else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._open.append(idx)
            self.calls[layer] += 1
            self.starts[idx] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except SingularChannelError:
                self.singular[layer] += 1
                raise
            finally:
                self.ends[idx] = perf_counter()
                self._open.pop()
            if layer == "optimizer.solve":
                self.newton_steps += out.iterations
                self.not_converged += out.status != "converged"
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = []
        build = OptProblem.__dict__["build"]
        try:
            for mod, attr, layer in TARGETS:
                if hasattr(mod, attr):  # a name the package no longer uses is not traced
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, self.wrap(layer, saved[-1][2]))
            OptProblem.build = staticmethod(self.wrap("optimizer.build", build.__get__(None, OptProblem)))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            OptProblem.build = build

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time in seconds over every recorded span."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=int)
        child = np.zeros(len(dur))
        inner = parents >= 0
        np.add.at(child, parents[inner], dur[inner])
        own = dur - child
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, value in zip(self.names, own):
            totals[name] += value
        return totals

    def write(self, path) -> None:
        """Spans as gzip'd tab-separated lines: index, layer, start, end, parent."""
        with gzip.open(path, "wt") as out:
            out.write("index\tlayer\tstart_s\tend_s\tparent\n")
            for idx, row in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                out.write(f"{idx}\t{row[0]}\t{row[1]:.9f}\t{row[2]:.9f}\t{row[3]}\n")
