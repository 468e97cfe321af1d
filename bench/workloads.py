"""The benchmark's workloads: how each makes its operations from the seed.

An operation is one Monte Carlo drop (``run_drop`` on the preset as
shipped) or one rate-floor solve (``OptProblem.build`` and
``barrier_solve``).  A workload's round is a fixed list of operations made
from the seed alone; a run repeats whole rounds, serially one operation at
a time, and as one call with 1 or 2 workers.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from lsapdma import harness, optimizer
from lsapdma.harness import ExperimentConfig
from lsapdma.optimizer import OptProblem

import oracle

ROOT = Path(__file__).resolve().parent.parent


def _drop_rates(records) -> tuple:
    """A drop's records as sorted ((scheme, K, sweep), sum rate) pairs."""
    return tuple(sorted(((r.scheme, r.k_users, r.sweep_value), r.sum_rate) for r in records))


class MonteCarlo:
    """Drops 0 ... drops - 1 of a shipped preset run with seed ``seed``;
    the drop after the round is the warm-up."""

    def __init__(self, preset: str, drops: int, seed: int):
        cfg = ExperimentConfig.from_file(ROOT / "configs" / preset)
        self.cfg = dataclasses.replace(cfg, seed=seed, drops=drops, workers=1)

    def _state(self, i: int):
        return np.random.SeedSequence(self.cfg.seed, spawn_key=(i,))

    def warm_up(self) -> None:
        harness.run_drop(self.cfg, self._state(self.cfg.drops))

    def ops(self) -> list:
        return [(lambda i=i: harness.run_drop(self.cfg, self._state(i))) for i in range(self.cfg.drops)]

    comparable = staticmethod(_drop_rates)

    def check(self, i: int, rates: tuple) -> list[str]:
        got = dict(rates)
        if len(got) != len(rates):
            return ["records: a (scheme, K, sweep) record appears twice in one drop"]
        return oracle.drop_failures(self.cfg, self._state(i), got)

    def start_pool(self) -> None:
        pass  # run_monte_carlo starts its own pool on every call

    def run_round(self, workers: int) -> list[tuple]:
        """The round as one ``run_monte_carlo`` call (pool start-up included)."""
        cfg = dataclasses.replace(self.cfg, workers=workers)
        _, samples = harness.run_monte_carlo(cfg, collect_samples=True)
        if any(len(v) != cfg.drops for v in samples.values()):
            raise ValueError("run_monte_carlo did not return one sample per drop and key")
        return [tuple(sorted((key, float(v[i])) for key, v in samples.items())) for i in range(cfg.drops)]

    def close(self) -> None:
        pass


SHAPES = tuple((n, k) for n in (2, 3, 4) for k in range(n, 2**n))
# budgets cycle over the shapes; the seed draws only gains and anchors, which
# keeps the solver's work per round steady from seed to seed
BUDGETS_DB = (0.0, 10.0, 20.0)


def solve(inst: oracle.FloorInstance):
    """One rate-floor operation: build the problem and run the barrier solver."""
    prob = OptProblem.build(
        inst.gains, inst.p_sum, selected=inst.anchors, epsilon=inst.epsilon, r_min=inst.r_min
    )
    return optimizer.barrier_solve(prob)


def _solution_key(sol) -> tuple:
    p = None if sol.p_matrix is None else sol.p_matrix.tobytes()
    return (sol.status, sol.iterations, sol.objective_value, p)


class RateFloor:
    """Rate-floor solves: one instance of every (N, K) in SHAPES, drawn by
    ``default_rng([seed, 0])``; the warm-up instance comes from ``[seed, 1]``."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 0])
        self.instances = [
            oracle.floor_instance(rng, n, k, BUDGETS_DB[j % len(BUDGETS_DB)])
            for j, (n, k) in enumerate(SHAPES)
        ]
        self._warm = oracle.floor_instance(np.random.default_rng([seed, 1]), 3, 5, 10.0)
        self._pool = None

    def warm_up(self) -> None:
        solve(self._warm)

    def ops(self) -> list:
        return [(lambda inst=inst: solve(inst)) for inst in self.instances]

    comparable = staticmethod(_solution_key)

    def check(self, i: int, key: tuple) -> list[str]:
        status, _, objective, p = key
        if status == "infeasible":
            return ["rate-floor-feasible: solver reports a feasible-by-construction problem infeasible"]
        inst = self.instances[i]
        p = None if p is None else np.frombuffer(p).reshape(inst.gains.shape)
        return oracle.floor_failures(inst, p, objective)

    def start_pool(self) -> None:
        """Two spawned workers, warmed up before any timing."""
        self._pool = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn"))
        list(self._pool.map(solve, [self._warm] * 2))

    def run_round(self, workers: int) -> list[tuple]:
        """The round's solves, in turn or spread over the 2 pool workers."""
        if workers == 1:
            return [_solution_key(op()) for op in self.ops()]
        return [_solution_key(sol) for sol in self._pool.map(solve, self.instances)]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


WORKLOADS = {
    "fig4-fixed-ratio": lambda seed: MonteCarlo("fig4.cfg", 64, seed),
    "fig5-optimal": lambda seed: MonteCarlo("fig5.cfg", 16, seed),
    "rate-floor-solve": RateFloor,
}
