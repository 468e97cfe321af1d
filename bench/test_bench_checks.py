"""Each output check of the benchmark rejects a corrupted output.

Run with ``PYTHONPATH=src python -m pytest bench`` from the repository root.
"""

import dataclasses

import numpy as np
import pytest

import oracle
import workloads
from run import Tally
from lsapdma.harness import ExperimentConfig, run_drop


def _cfg(preset, **changes):
    cfg = ExperimentConfig.from_file(workloads.ROOT / "configs" / preset)
    return dataclasses.replace(cfg, drops=1, workers=1, seed=11, **changes)


def _drop(cfg, index=0):
    state = np.random.SeedSequence(cfg.seed, spawn_key=(index,))
    return state, dict(workloads._drop_rates(run_drop(cfg, state)))


@pytest.fixture(scope="module")
def fig4_drop():
    cfg = _cfg("fig4.cfg", users=(3, 5), mu=(0.5, 2.0))
    state, got = _drop(cfg)
    return cfg, state, got


@pytest.fixture(scope="module")
def fig5_drop():
    cfg = _cfg("fig5.cfg", users=(6,), p_sum_db=(0.0, 20.0))
    state, got = _drop(cfg)
    return cfg, state, got


def test_fixed_ratio_drop_passes_and_a_corrupted_rate_fails(fig4_drop):
    cfg, state, got = fig4_drop
    assert oracle.drop_failures(cfg, state, got) == []
    key = ("lsa-pdma-simple", 5, 2.0)
    bad = got | {key: got[key] * (1 + 1e-7)}
    failures = oracle.drop_failures(cfg, state, bad)
    assert failures and all(f.startswith("sum-rate") for f in failures)


def test_a_missing_or_duplicated_record_fails(fig4_drop):
    cfg, state, got = fig4_drop
    short = {k: v for k, v in got.items() if k != ("pnoma", 6, 0.5)}
    assert any(f.startswith("records") for f in oracle.drop_failures(cfg, state, short))
    wl = workloads.MonteCarlo("fig4.cfg", 1, cfg.seed)
    wl.cfg = cfg
    rates = tuple(sorted(got.items()))
    assert wl.check(0, rates) == []
    assert wl.check(0, rates + rates[:1])[0].startswith("records")


def test_k_equals_n_must_match_oma(fig4_drop):
    cfg, _, got = fig4_drop
    assert oracle.k_equals_n_failures(cfg, got) == []
    key = ("lsa-pdma-simple", 3, 0.5)
    bad = got | {key: got[key] + 1e-6}
    assert oracle.k_equals_n_failures(cfg, bad)[0].startswith("k-equals-n")


def test_optimal_rate_must_sit_just_below_the_waterfill_bound(fig5_drop):
    cfg, state, got = fig5_drop
    assert oracle.drop_failures(cfg, state, got) == []
    key = ("lsa-pdma-optimal", 6, 20.0)
    for shift, words in ((1e-3, "above the bound"), (-1e-3, "bits below")):
        failures = oracle.drop_failures(cfg, state, got | {key: got[key] + shift})
        assert len(failures) == 1 and failures[0].startswith("waterfill") and words in failures[0]


def test_waterfill_bound_matches_a_grid_search():
    gains = np.array([[0.5, 2.0], [1.0, 0.1]])
    support = np.ones(gains.shape, bool)
    split = np.linspace(0.0, 3.0, 30001)
    grid = np.log2(1 + 4.0 * split) + np.log2(1 + 1.0 * (3.0 - split))
    assert oracle.waterfill_bound(gains, support, 3.0) == pytest.approx(grid.max(), abs=1e-7)


def test_a_beam_that_leaks_into_another_anchor_fails():
    cfg = _cfg("fig4.cfg")
    state = np.random.SeedSequence(3, spawn_key=(0,))
    channels, _, beams = oracle.draw(cfg, 5, "simple", state)
    assert oracle.zf_null_failures(channels, beams) == []
    f = beams.beam_matrix.copy()
    f[:, 0] += 1e-6 * f[:, 1]
    leaky = dataclasses.replace(beams, beam_matrix=f)
    assert oracle.zf_null_failures(channels, leaky)[0].startswith("zf-null")


@pytest.fixture(scope="module")
def floor_solution():
    inst = oracle.floor_instance(np.random.default_rng(5), 3, 5, 10.0)
    sol = workloads.solve(inst)
    return inst, sol


def test_rate_floor_solution_passes(floor_solution):
    inst, sol = floor_solution
    assert oracle.floor_failures(inst, sol.p_matrix, sol.objective_value) == []


@pytest.mark.parametrize(
    "corrupt, name",
    [
        (lambda p, inst: p * 1.001, "rate-floor-feasible"),  # over budget
        (lambda p, inst: p - inst.delta * 2, "rate-floor-feasible"),  # under the power floors
        (lambda p, inst: np.where(p == p.min(), 0.0, p), "rate-floor-feasible"),  # a rate at 0
        (lambda p, inst: oracle.start_point(inst), "rate-floor-optimal"),  # feasible, not optimal
    ],
)
def test_a_corrupted_rate_floor_power_matrix_fails(floor_solution, corrupt, name):
    inst, sol = floor_solution
    p = corrupt(sol.p_matrix, inst)
    rate = oracle.sic_rates(inst.gains, p, np.ones(p.shape, bool)).sum()
    failures = oracle.floor_failures(inst, p, rate)
    assert failures and failures[0].startswith(name)


def test_a_rate_floor_objective_that_is_not_its_sum_rate_fails(floor_solution):
    inst, sol = floor_solution
    failures = oracle.floor_failures(inst, sol.p_matrix, sol.objective_value + 1e-6)
    assert failures[0].startswith("rate-floor objective")


def test_floor_instances_are_feasible_at_their_start_point():
    rng = np.random.default_rng(9)
    for n, k in workloads.SHAPES:
        inst = oracle.floor_instance(rng, n, k, 20.0)
        assert oracle.feasibility_failures(inst, oracle.start_point(inst)) == []


class _Passing:
    def check(self, i, res):
        return []


def test_a_repeated_result_that_differs_in_one_bit_fails():
    serial = [(("oma", 3, 1.0), 2.5), (("oma", 3, 2.0), 3.5)]
    tally = Tally(_Passing())
    tally.first(serial)
    tally.again(serial, serial, "two-workers")
    assert (tally.attempted, tally.failed) == (4, 0)
    flipped = [serial[0], (serial[1][0], np.nextafter(serial[1][1], 4.0))]
    tally.again(flipped, serial, "two-workers")
    assert (tally.attempted, tally.failed, tally.rejected) == (6, 1, 1)
    tally.again(ValueError("pool broke"), serial, "two-workers")
    assert (tally.attempted, tally.failed, tally.rejected) == (8, 3, 1)
