"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints one pass/fail line (visible with ``pytest -s``).  The trend
criteria run the shipped experiment presets at full scale; run the module as

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lsapdma.beamforming import SelectedUserSet, compute_zfbf
from lsapdma.channel import ChannelMatrix
from lsapdma.harness import ExperimentConfig, run_drop, run_monte_carlo
from lsapdma.optimizer import OptProblem, barrier_solve, check_constraints, gradient, hessian, objective
from lsapdma.pattern import simple_beam_allocation, validate_pattern
from lsapdma.receiver import sic_orders, sic_sinrs
from lsapdma.rng import make_rng
from test_beamforming import _zf_identity_residual

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_instances(seed, count=200):
    """Shared instance set for the derivative checks: N <= 4, K <= 7,
    ascending gains in (0.1, 10), interior powers."""
    rng = make_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 8))
        h = np.sort(rng.uniform(0.1, 10.0, (n, k)), axis=1)
        p = rng.uniform(0.05, 1.5, (n, k))
        out.append((OptProblem.build(h, p_sum=1e6), p))
    return out


def test_criterion_1_hessian_correctness():
    # oracle: 4-point central differences of the objective with steps scaled
    # to each variable's own curvature length 1/h^2 + suffix power
    t0 = time.monotonic()
    instances = _random_instances(101)
    worst_rel = 0.0
    min_eig = np.inf
    for prob, p in instances:
        n, k = p.shape
        for beam in range(n):
            ana = hessian(prob, p, beam)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(ana).min()))
            order = prob.orders[beam]
            h_row = prob.gains[beam, order]
            p_row = p[beam, order]
            scale = 1.0 / h_row**2 + np.cumsum(p_row[::-1])[::-1]
            # steps follow each variable's curvature length, capped so the
            # four-point stencil keeps every power positive
            steps = np.minimum(0.005 * scale, 0.4 * p_row)
            fd = np.zeros((k, k))
            for a in range(k):
                for b in range(k):
                    ea = np.zeros_like(p)
                    eb = np.zeros_like(p)
                    ea[beam, order[a]] = steps[a]
                    eb[beam, order[b]] = steps[b]
                    fd[a, b] = (
                        objective(prob, p + ea + eb)
                        - objective(prob, p + ea - eb)
                        - objective(prob, p - ea + eb)
                        + objective(prob, p - ea - eb)
                    ) / (4 * steps[a] * steps[b])
            rel = np.abs(ana - fd) / np.maximum(np.abs(fd), np.abs(ana))
            worst_rel = max(worst_rel, float(rel.max()))
    elapsed = time.monotonic() - t0
    ok = worst_rel < 1e-4 and min_eig >= -1e-10 and elapsed < 10.0
    _report(
        "criterion 1 (analytic Hessian vs finite differences, PSD)",
        ok,
        f"worst rel err {worst_rel:.2e}, min eig {min_eig:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_gradient_correctness():
    t0 = time.monotonic()
    instances = _random_instances(101)
    worst_rel = 0.0
    for prob, p in instances:
        ana = gradient(prob, p)
        fd = np.zeros_like(p)
        for i in range(p.shape[0]):
            for j in range(p.shape[1]):
                step = 1e-6 * (1.0 + abs(p[i, j]))
                e = np.zeros_like(p)
                e[i, j] = step
                fd[i, j] = (objective(prob, p + e) - objective(prob, p - e)) / (2 * step)
        rel = np.abs(ana - fd) / np.maximum(np.abs(fd), np.abs(ana))
        worst_rel = max(worst_rel, float(rel.max()))
    elapsed = time.monotonic() - t0
    ok = worst_rel < 1e-5
    _report(
        "criterion 2 (analytic gradient vs finite differences)",
        ok,
        f"worst rel err {worst_rel:.2e}, {elapsed:.1f} s",
    )


def _grid_rate(h, pts):
    """Independent sum-rate evaluation on a batch of power points.

    ``h`` is (N, K) with ascending gains per beam; ``pts`` is (M, N, K).
    """
    total = np.zeros(pts.shape[0])
    n, k = h.shape
    for beam in range(n):
        p = pts[:, beam, :]
        suffix = np.concatenate(
            [np.cumsum(p[:, ::-1], axis=1)[:, ::-1][:, 1:], np.zeros((p.shape[0], 1))], axis=1
        )
        h2 = h[beam] ** 2
        total += np.log2(1.0 + h2 * p / (1.0 + h2 * suffix)).sum(axis=1)
    return total


def _grid_best(h, p_sum, step=1e-3):
    """Brute-force enumeration of the discretized feasible box."""
    n, k = h.shape
    v = n * k
    axis = np.arange(0.0, p_sum + step / 2, step)
    best = -np.inf
    if v == 1:
        pts = axis.reshape(-1, n, k)
        return float(_grid_rate(h, pts).max())
    if v == 2:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        mask = a + b <= p_sum + 1e-12
        pts = np.stack([a[mask], b[mask]], axis=1).reshape(-1, n, k)
        return float(_grid_rate(h, pts).max())
    # v == 3: slice over the first variable, vectorize the remaining plane
    a2, a3 = np.meshgrid(axis, axis, indexing="ij")
    flat2, flat3 = a2.ravel(), a3.ravel()
    for p1 in axis:
        mask = flat2 + flat3 <= p_sum - p1 + 1e-12
        if not mask.any():
            continue
        pts = np.stack(
            [np.full(mask.sum(), p1), flat2[mask], flat3[mask]], axis=1
        ).reshape(-1, n, k)
        best = max(best, float(_grid_rate(h, pts).max()))
    return best


def test_criterion_3_solver_optimality():
    t0 = time.monotonic()
    rng = make_rng(103)
    shapes = [(1, 1)] * 10 + [(1, 2)] * 16 + [(2, 1)] * 8 + [(1, 3)] * 10 + [(3, 1)] * 6
    worst_gap = 0.0
    worst_kkt = 0.0
    worst_violation = -np.inf
    for n, k in shapes:
        h = np.sort(rng.uniform(0.3, 3.0, (n, k)), axis=1)
        # keep the budget on the oracle's grid so the active face is exact
        if n * k == 3:
            p_sum = round(float(rng.uniform(0.15, 0.25)), 3)
        else:
            p_sum = round(float(rng.uniform(0.5, 1.5)), 3)
        prob = OptProblem.build(h, p_sum)
        sol = barrier_solve(prob)
        assert sol.status == "converged"
        worst_kkt = max(worst_kkt, sol.kkt_residual)
        slacks = check_constraints(prob, sol.p_matrix)
        worst_violation = max(worst_violation, float(slacks.g1.max()), slacks.g2)
        oracle = _grid_best(h, p_sum)
        worst_gap = max(worst_gap, abs(sol.objective_value - oracle))
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-3 and worst_kkt < 1e-6 and worst_violation < 1e-8 and elapsed < 60.0
    _report(
        "criterion 3 (barrier vs grid oracle, KKT, feasibility)",
        ok,
        f"worst gap {worst_gap:.2e} bits, worst KKT {worst_kkt:.2e}, "
        f"worst violation {worst_violation:.2e}, {elapsed:.1f} s",
    )


def test_criterion_4_zf_identity():
    rng = make_rng(104)
    worst = 0.0
    for _ in range(1000):
        chans = [
            ChannelMatrix(
                entries=(rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16)))
                / np.sqrt(2),
                large_scale_gain=1.0,
            )
            for _ in range(3)
        ]
        omega = SelectedUserSet(pairs=((0, 0), (1, 1), (2, 2)))
        beams = compute_zfbf(chans, omega)
        g_c = np.vstack([c.entries for c in chans])
        # G_C B = E diag(c) on the unit-norm beams B, E the block-ones matrix
        worst = max(worst, _zf_identity_residual(g_c, beams.beam_matrix, 4))
    ok = worst < 1e-10
    _report("criterion 4 (zero-forcing identity on 1000 channels)", ok, f"worst residual {worst:.2e}")


def test_criterion_5_pattern_fidelity():
    canonical = np.array([[1, 1, 0, 1, 0], [1, 1, 1, 0, 0], [1, 0, 1, 0, 1]])
    got = simple_beam_allocation(3, 5, [0, 1, 2, 3, 4])
    exact = np.array_equal(got.entries, canonical)
    all_valid = True
    for n in range(2, 6):
        for k in range(n, 2**n):
            pattern = simple_beam_allocation(n, k, range(k))
            if validate_pattern(pattern.entries) is not None:
                all_valid = False
    ok = exact and all_valid
    _report(
        "criterion 5 (canonical 3x5 pattern, exhaustive validity)",
        ok,
        f"canonical match {exact}, sweep valid {all_valid}",
    )


def test_criterion_6_scheme_reduction():
    base = dict(p_sum_db=(0.0, 10.0), drops=1, seed=0)
    oma_cfg = ExperimentConfig(schemes=("oma",), users=(5,), mu=(2.0,), **base)
    oma_as_pdma = ExperimentConfig(
        schemes=("lsa-pdma",), users=(3,), pattern_policy="oma",
        policies=("fixed-ratio",), mu=(2.0,), **base,
    )
    pnoma_cfg = ExperimentConfig(schemes=("pnoma",), users=(5,), pnoma_mu=0.25, mu=(2.0,), **base)
    pnoma_as_pdma = ExperimentConfig(
        schemes=("lsa-pdma",), users=(6,), pattern_policy="pnoma",
        policies=("fixed-ratio",), mu=(0.25,), **base,
    )
    exact = True
    for seed in range(10):
        a = {r.sweep_value: r.sum_rate for r in run_drop(oma_cfg, seed) if r.scheme == "oma"}
        b = {r.sweep_value: r.sum_rate for r in run_drop(oma_as_pdma, seed)}
        if a != b:
            exact = False
        c = {r.sweep_value: r.sum_rate for r in run_drop(pnoma_cfg, seed) if r.scheme == "pnoma"}
        d = {r.sweep_value: r.sum_rate for r in run_drop(pnoma_as_pdma, seed)}
        if c != d:
            exact = False
    _report("criterion 6 (identity/diversity-1 reductions bit-exact)", exact, "10 drops each")


def test_criterion_7_power_sweep_scheme_ordering():
    t0 = time.monotonic()
    cfg = ExperimentConfig.from_file(CONFIG_DIR / "fig5.cfg")
    table = run_monte_carlo(cfg)
    rows = {(r.scheme, r.k_users, r.sweep_value): r for r in table.rows}
    ok = True
    details = []
    for db in (10.0, 15.0, 20.0):
        chain = [
            rows[("lsa-pdma-optimal", 7, db)],
            rows[("lsa-pdma-optimal", 6, db)],
            rows[("pnoma", 6, db)],
            rows[("oma", 3, db)],
        ]
        for hi, lo in zip(chain, chain[1:]):
            gap = hi.mean_sum_rate - lo.mean_sum_rate
            bound = 2.0 * np.sqrt(hi.std_error**2 + lo.std_error**2)
            if gap <= bound:
                ok = False
            details.append(f"{db:g}dB {hi.scheme}(K{hi.k_users})-{lo.scheme}: {gap:.2f}>{bound:.2f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    _report(
        "criterion 7 (power sweep ordering with 2-sigma gaps)",
        ok,
        "; ".join(details) + f"; {elapsed:.0f} s",
    )


def test_criterion_8_power_gain_sweep():
    cfg = ExperimentConfig.from_file(CONFIG_DIR / "fig4.cfg")
    table = run_monte_carlo(cfg)
    curves = {}
    for r in table.rows:
        curves.setdefault((r.scheme, r.k_users), {})[r.sweep_value] = r.mean_sum_rate
    mus = sorted(cfg.mu)
    # saturation shape of the maximum-overload curve
    top = curves[("lsa-pdma-simple", max(cfg.users))]
    tail = [top[m] for m in mus[-3:]]
    slope_drop = (tail[1] - tail[0]) >= (tail[2] - tail[1]) - 1e-9
    flat = abs(top[mus[-1]] - top[mus[-2]]) / top[mus[-2]] <= 0.02
    # every plotted curve against the horizontal references
    oma_ref = curves[("oma", 3)][mus[-1]]
    pnoma_ref = curves[("pnoma", 6)][mus[-1]]
    above = []
    for k in cfg.users:
        peak = max(curves[("lsa-pdma-simple", k)].values())
        if k > cfg.n_beams:
            flag = peak > oma_ref and peak > pnoma_ref
        else:
            # K = N: every user anchors a distinct beam and, since G_C F_C = I,
            # hears only that beam, so no pattern or power policy beats OMA's
            # N links on the same users.  The bound is the OMA reference, less
            # a 1e-9 relative round-off allowance.
            flag = peak >= oma_ref * (1.0 - 1e-9)
        above.append((k, flag, peak))
    all_above = all(flag for _, flag, _ in above)
    detail = (
        f"max-overload flat {abs(top[mus[-1]] - top[mus[-2]]) / top[mus[-2]]:.3%}, "
        f"slope nonincreasing {slope_drop}; refs oma {oma_ref:.2f} pnoma {pnoma_ref:.2f}; "
        + ", ".join(f"K={k} peak {peak:.2f} {'above' if flag else 'BELOW'}" for k, flag, peak in above)
    )
    _report("criterion 8 (power-gain sweep saturation and references)", slope_drop and flat and all_above, detail)


def test_criterion_9_policy_gap_grows_with_beams():
    t0 = time.monotonic()
    base = ExperimentConfig.from_file(CONFIG_DIR / "fig3.cfg")
    gaps_at_20 = {}
    ok = True
    details = []
    for n in (2, 3, 4):
        k = 2**n - 1
        cfg = replace(base, n_beams=n, users=(k,))
        table, samples = run_monte_carlo(cfg, collect_samples=True)
        for db in cfg.p_sum_db:
            diff = samples[("lsa-pdma-optimal", k, db)] - samples[("lsa-pdma-simple", k, db)]
            gap = float(diff.mean())
            se = float(diff.std(ddof=1) / np.sqrt(len(diff)))
            if gap <= 2 * se:
                ok = False
            if db == 20.0:
                gaps_at_20[n] = (gap, se)
        details.append(f"N={n} gap@20dB {gaps_at_20[n][0]:.2f}±{gaps_at_20[n][1]:.3f}")
    for lo, hi in ((2, 3), (3, 4)):
        delta = gaps_at_20[hi][0] - gaps_at_20[lo][0]
        bound = 2 * np.sqrt(gaps_at_20[hi][1] ** 2 + gaps_at_20[lo][1] ** 2)
        if delta <= bound:
            ok = False
        details.append(f"gap(N={hi})-gap(N={lo}) = {delta:.2f} > {bound:.2f}")
    elapsed = time.monotonic() - t0
    _report(
        "criterion 9 (optimal-vs-simple gap, growing in N)",
        ok,
        "; ".join(details) + f"; {elapsed:.0f} s",
    )


def test_criterion_10_cross_module_consistency():
    rng = make_rng(110)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 8))
        h = rng.uniform(0.0, 10.0, (n, k))
        p = rng.uniform(0.0, 2.0, (n, k))
        prob = OptProblem.build(h, p_sum=1e6)
        direct = 0.0
        orders = sic_orders(h)
        for beam in range(n):
            direct += float(np.log2(1.0 + sic_sinrs(h[beam], p[beam], orders[beam])).sum())
        worst = max(worst, abs(-objective(prob, p) - direct))
    ok = worst <= 1e-12
    _report("criterion 10 (optimizer objective vs receiver sum rate)", ok, f"worst |diff| {worst:.2e}")
