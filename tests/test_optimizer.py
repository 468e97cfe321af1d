import io
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from lsapdma import optimizer
from lsapdma.optimizer import (
    LN2,
    OptProblem,
    barrier_solve,
    check_constraints,
    feasible_start,
    gradient,
    hessian,
    objective,
    water_fills,
    _min_powers,
    _rate_terms,
)
from lsapdma.receiver import sic_orders, sic_sinrs
from lsapdma.rng import make_rng


def _random_problem(rng, n=None, k=None, lo=0.1, hi=10.0, p_sum=10.0):
    n = n or int(rng.integers(1, 5))
    k = k or int(rng.integers(1, 8))
    h = rng.uniform(lo, hi, (n, k))
    return OptProblem.build(h, p_sum)


def _fd_gradient(prob, p, step=1e-6):
    out = np.zeros_like(p)
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            h = step * (1.0 + abs(p[i, j]))
            e = np.zeros_like(p)
            e[i, j] = h
            out[i, j] = (objective(prob, p + e) - objective(prob, p - e)) / (2 * h)
    return out


def _fd_hessian_beam(prob, p, beam, step=1e-4):
    order = prob.orders[beam]
    k = p.shape[1]
    out = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            ea = np.zeros_like(p)
            eb = np.zeros_like(p)
            sa = step * (1.0 + abs(p[beam, order[a]]))
            sb = step * (1.0 + abs(p[beam, order[b]]))
            ea[beam, order[a]] = sa
            eb[beam, order[b]] = sb
            out[a, b] = (
                objective(prob, p + ea + eb)
                - objective(prob, p + ea - eb)
                - objective(prob, p - ea + eb)
                + objective(prob, p - ea - eb)
            ) / (4 * sa * sb)
    return out


def test_objective_zero_power():
    prob = OptProblem.build(np.array([[1.0, 2.0]]), 5.0)
    assert objective(prob, np.zeros((1, 2))) == 0.0


def test_objective_single_link_closed_form():
    prob = OptProblem.build(np.array([[1.0]]), 5.0)
    assert objective(prob, np.array([[1.0]])) == pytest.approx(-1.0)


def test_objective_matches_receiver_sum_rate():
    rng = make_rng(0)
    for _ in range(50):
        prob = _random_problem(rng)
        p = rng.uniform(0.0, 2.0, prob.gains.shape)
        direct = 0.0
        for n in range(prob.n_beams):
            direct += float(np.log2(1 + sic_sinrs(prob.gains[n], p[n])).sum())
        assert -objective(prob, p) == pytest.approx(direct, abs=1e-12)


def test_gradient_single_variable_hand_value():
    prob = OptProblem.build(np.array([[1.0]]), 5.0)
    g = gradient(prob, np.zeros((1, 1)))
    assert g[0, 0] == pytest.approx(-1.0 / LN2)


def test_gradient_matches_finite_differences():
    rng = make_rng(1)
    for _ in range(25):
        prob = _random_problem(rng)
        p = rng.uniform(0.05, 1.5, prob.gains.shape)
        ana = gradient(prob, p)
        fd = _fd_gradient(prob, p)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert (np.abs(ana - fd) / denom).max() < 1e-5


def test_gradient_dead_beam_is_zero():
    h = np.array([[0.0, 0.0], [1.0, 2.0]])
    prob = OptProblem.build(h, 5.0)
    g = gradient(prob, np.full((2, 2), 0.5))
    assert np.all(g[0] == 0.0)
    assert np.all(g[1] < 0.0)


def test_hessian_single_user():
    prob = OptProblem.build(np.array([[2.0]]), 5.0)
    p = np.array([[1.0]])
    hess = hessian(prob, p, 0)
    alpha0 = 1.0 / ((1.0 / 4.0 + 1.0) ** 2 * LN2)
    assert hess.shape == (1, 1)
    assert hess[0, 0] == pytest.approx(alpha0)


def test_hessian_equal_gains_rank_one():
    prob = OptProblem.build(np.full((1, 4), 1.5), 8.0)
    p = np.full((1, 4), 0.7)
    hess = hessian(prob, p, 0)
    assert np.allclose(hess, hess[0, 0])
    eig = np.linalg.eigvalsh(hess)
    assert eig[:-1].max() < 1e-12  # rank one
    assert eig.min() >= -1e-10


def test_hessian_matches_structure_reconstruction():
    # independent oracle: alpha0/beta from their defining sums, then the
    # first-row/nested-block fill
    rng = make_rng(2)
    for _ in range(20):
        prob = _random_problem(rng)
        p = rng.uniform(0.05, 1.5, prob.gains.shape)
        k = prob.n_users
        for n in range(prob.n_beams):
            order = prob.orders[n]
            h = prob.gains[n, order]
            pp = p[n, order]
            w = np.array([pp[j + 1 :].sum() for j in range(k)])
            with np.errstate(divide="ignore"):
                inv_h2 = np.where(h > 0, 1.0 / np.where(h > 0, h, 1.0) ** 2, np.inf)
            alpha0 = 1.0 / ((inv_h2[0] + pp.sum()) ** 2 * LN2)
            beta = np.zeros(k - 1)
            for m in range(1, k):
                acc = 0.0
                for l in range(m):
                    acc += 1.0 / (inv_h2[l + 1] + w[l]) ** 2 - 1.0 / (inv_h2[l] + w[l]) ** 2
                beta[m - 1] = acc / LN2
            expected = np.empty((k, k))
            for i in range(k):
                for j in range(k):
                    m = min(i, j)
                    expected[i, j] = alpha0 if m == 0 else alpha0 + beta[m - 1]
            assert np.allclose(hessian(prob, p, n), expected, rtol=1e-13, atol=1e-16)


def test_hessian_blocks_nonnegative_and_psd():
    rng = make_rng(3)
    for _ in range(30):
        prob = _random_problem(rng)
        p = rng.uniform(0.05, 2.0, prob.gains.shape)
        for n in range(prob.n_beams):
            hess = hessian(prob, p, n)
            assert hess[0, 0] > 0
            assert (np.diff(np.diag(hess)) >= -1e-15).all()
            assert np.linalg.eigvalsh(hess).min() >= -1e-10


def test_hessian_matches_finite_differences():
    rng = make_rng(4)
    for _ in range(10):
        prob = _random_problem(rng, n=2, k=4)
        p = rng.uniform(0.1, 1.0, prob.gains.shape)
        for n in range(prob.n_beams):
            ana = hessian(prob, p, n)
            fd = _fd_hessian_beam(prob, p, n)
            denom = np.maximum(np.abs(fd), 1e-7)
            assert (np.abs(ana - fd) / denom).max() < 1e-4


def test_cross_beam_second_derivatives_vanish():
    # the objective is exactly beam-separable, so the mixed difference is zero
    # for any step; a larger step just avoids floating cancellation
    rng = make_rng(5)
    prob = _random_problem(rng, n=3, k=3)
    p = rng.uniform(0.2, 1.0, (3, 3))
    step = 5e-2
    for j1 in range(3):
        for j2 in range(3):
            e1 = np.zeros_like(p)
            e2 = np.zeros_like(p)
            e1[0, j1] = step
            e2[1, j2] = step
            mixed = (
                objective(prob, p + e1 + e2)
                - objective(prob, p + e1 - e2)
                - objective(prob, p - e1 + e2)
                + objective(prob, p - e1 - e2)
            ) / (4 * step * step)
            assert abs(mixed) < 1e-8


def test_objective_convexity_probe():
    rng = make_rng(7)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        h = rng.uniform(0.1, 10.0, (n, k))
        prob = OptProblem.build(h, 5.0)
        x = rng.uniform(0.0, 1.0, (n, k))
        y = rng.uniform(0.0, 1.0, (n, k))
        theta = rng.uniform(0.01, 0.99)
        lhs = objective(prob, theta * x + (1 - theta) * y)
        rhs = theta * objective(prob, x) + (1 - theta) * objective(prob, y)
        if lhs > rhs + 1e-9:
            violations += 1
    assert violations == 0


def test_feasible_start_equal_split():
    prob = OptProblem.build(np.ones((3, 5)), 1.0)
    p0 = feasible_start(prob)
    assert p0 is not None
    assert np.allclose(p0, 1.0 / (2 * 15))
    slacks = check_constraints(prob, p0)
    assert (slacks.g1 < 0).all()
    assert slacks.g2 < 0


def test_feasible_start_with_selected_floors():
    h = np.ones((3, 5))
    selected = [(0, 0), (1, 1), (2, 2)]
    prob = OptProblem.build(h, 10.0, selected=selected, epsilon=1e-6)
    p0 = feasible_start(prob)
    assert p0 is not None
    slacks = check_constraints(prob, p0)
    assert (slacks.g1 < 0).all()
    assert slacks.g2 < 0
    assert (slacks.g3 < 0).all()  # r_min = 0 and strictly positive powers


def test_feasible_start_detects_impossible_rate_floor():
    prob = OptProblem.build(np.array([[0.5, 1.0]]), 1e-3, r_min=100.0)
    assert feasible_start(prob) is None
    # certificate: the least powers that meet the rate floor exceed the budget
    assert _min_powers(prob, 2.0**100 - 1.0, 0.0).sum() > prob.p_sum


def test_check_constraints_boundaries():
    h = np.ones((2, 2))
    delta = np.full((2, 2), 0.25)
    prob = OptProblem(gains=h, p_sum=1.0 + 1e-9, delta=delta)
    slacks = check_constraints(prob, delta.copy())
    assert np.allclose(slacks.g1, 0.0)
    p = np.full((2, 2), 0.25)
    assert check_constraints(prob, p).g2 == pytest.approx(-1e-9)


def test_barrier_single_variable_budget_binds():
    prob = OptProblem.build(np.array([[1.0]]), 10.0, selected=[(0, 0)], epsilon=1e-6)
    sol = barrier_solve(prob)
    assert sol.status == "converged"
    assert sol.p_matrix[0, 0] == pytest.approx(10.0, abs=1e-6)
    assert sol.objective_value == pytest.approx(np.log2(11.0), abs=1e-6)
    assert sol.kkt_residual < 1e-6


def test_barrier_matches_grid_search():
    h = np.array([[0.8, 1.6]])
    prob = OptProblem.build(h, 2.0)
    sol = barrier_solve(prob)
    assert sol.status == "converged"
    step = 1e-3
    grid = np.arange(0.0, 2.0 + step / 2, step)
    p1, p2 = np.meshgrid(grid, grid, indexing="ij")
    mask = p1 + p2 <= 2.0 + 1e-12
    f = -(
        np.log2(1 + 0.8**2 * p1[mask] / (1 + 0.8**2 * p2[mask]))
        + np.log2(1 + 1.6**2 * p2[mask])
    )
    # the interior point sits within the duality-gap tolerance of the optimum,
    # which the grid may hit exactly at a corner
    assert abs(-sol.objective_value - f.min()) < 1e-3


def test_barrier_budget_binding_and_kkt():
    rng = make_rng(8)
    for _ in range(5):
        prob = _random_problem(rng, n=2, k=3, p_sum=8.0)
        sol = barrier_solve(prob)
        assert sol.status == "converged"
        assert abs(sol.p_matrix.sum() - 8.0) < 1e-6
        assert sol.kkt_residual < 1e-6
        slacks = check_constraints(prob, sol.p_matrix)
        assert slacks.g1.max() < 1e-8
        assert slacks.g2 < 1e-8


def test_barrier_with_rate_floor():
    h = np.array([[1.0, 2.0], [1.5, 0.9]])
    prob = OptProblem.build(h, 10.0, r_min=0.2)
    sol = barrier_solve(prob)
    assert sol.status == "converged"
    slacks = check_constraints(prob, sol.p_matrix)
    assert slacks.g3.max() < 1e-8
    # the floor costs rate relative to the unconstrained solve
    free = barrier_solve(OptProblem.build(h, 10.0))
    assert free.objective_value >= sol.objective_value - 1e-9


def test_barrier_infeasible_status():
    prob = OptProblem.build(np.array([[0.5, 1.0]]), 1e-3, r_min=100.0)
    sol = barrier_solve(prob)
    assert sol.status == "infeasible"
    assert sol.p_matrix is None


def test_barrier_max_iterations_status(monkeypatch):
    prob = OptProblem.build(np.array([[1.0, 2.0]]), 5.0)
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "MAX_OUTER", 1)
        patch.setattr(optimizer, "BARRIER_TOL", 1e-12)
        sol = barrier_solve(prob)
    assert sol.status == "max-iterations"
    assert sol.p_matrix is not None
    # a centering cut short by the step cap did not end on its test
    monkeypatch.setattr(optimizer, "MAX_NEWTON", 1)
    sol = barrier_solve(prob)
    assert sol.status == "max-iterations"
    assert sol.p_matrix is not None


def test_barrier_trace_lines():
    prob = OptProblem.build(np.array([[1.0, 2.0]]), 5.0)
    log = io.StringIO()
    sol = barrier_solve(prob, log=log)
    lines = [ln for ln in log.getvalue().splitlines() if ln]
    assert len(lines) >= 2
    for ln in lines:
        assert ln.startswith("t=")
        assert "gap=" in ln and "newton=" in ln and "objective=" in ln
    assert sol.status == "converged"


def _sic_rates(gains, p):
    """Per-pair SIC rates, weakest decoded first, computed apart from the package."""
    out = np.zeros(gains.shape)
    for b in range(gains.shape[0]):
        order = np.lexsort((np.arange(gains.shape[1]), gains[b]))
        h2, pp = gains[b, order] ** 2, p[b, order]
        later = np.cumsum(pp[::-1])[::-1] - pp
        out[b, order] = np.log2(1.0 + h2 * pp / (1.0 + h2 * later))
    return out


def test_barrier_phase_one_start_has_budget_slack_in_solver_order():
    # Pinned rate-floor instance (log-normal gains, N = 4, a 0-20 dB budget,
    # anchor floors, a rate floor at 0.5-0.95 of the smallest rate of a
    # weak-first ladder) on which an iterative (SLSQP) phase I once put its
    # point on the budget: the slack was positive summed in user order and
    # zero in SIC-position order, where the solver divided by it and ended
    # after 0 Newton steps.  The start must have slack in solver order.
    rng = np.random.default_rng(74)
    n, k = 4, int(rng.choice([8, 10, 11, 13]))
    gains = np.exp(rng.normal(0.0, 1.0, (n, k)))
    p_sum = 10.0 ** (rng.uniform(0.0, 20.0) / 10.0)
    anchors = [(b, int(u)) for b, u in enumerate(rng.permutation(k)[:n])]
    delta = OptProblem.build(gains, p_sum, selected=anchors).delta
    orders = sic_orders(gains)
    ladder = np.zeros((n, k))
    for b in range(n):
        ladder[b, orders[b]] = 0.5 ** np.arange(k)
    ladder = delta + ladder * (p_sum - delta.sum()) / ladder.sum() * 0.999
    rates = np.concatenate([np.log2(1.0 + sic_sinrs(gains[b], ladder[b])) for b in range(n)])
    r_min = rng.uniform(0.5, 0.95) * float(rates.min())
    prob = OptProblem.build(gains, p_sum, selected=anchors, r_min=r_min)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = barrier_solve(prob)
    assert sol.iterations > 0
    ref = minimize(
        lambda x: -_sic_rates(gains, x.reshape(n, k)).sum(),
        ladder.ravel(),
        method="SLSQP",
        bounds=[(d, None) for d in delta.ravel()],
        constraints=[
            {"type": "ineq", "fun": lambda x: _sic_rates(gains, x.reshape(n, k)).ravel() - r_min},
            {"type": "ineq", "fun": lambda x: p_sum - x.sum()},
        ],
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    assert ref.success
    assert abs(sol.objective_value - -ref.fun) <= 1e-6


def _rate_floor_instance(rng, n, k, budget_db, anchored=True):
    """Log-normal gains (N, K), a budget of ``budget_db``, and (when
    ``anchored``) a distinct anchor per beam with a floor of 1e-6 of the
    budget; the rate floor is 0.6 of the smallest rate at the start that
    adds half the budget left by the floors, split equally over all pairs,
    so that start meets every constraint strictly."""
    gains = np.exp(rng.normal(0.0, 1.0, (n, k)))
    p_sum = 10.0 ** (budget_db / 10.0)
    anchors = [(b, int(u)) for b, u in enumerate(rng.permutation(k)[:n])] if anchored else []
    delta = OptProblem.build(gains, p_sum, selected=anchors).delta
    start = delta + 0.5 * (p_sum - delta.sum()) / delta.size
    r_min = 0.6 * float(_sic_rates(gains, start).min())
    return OptProblem.build(gains, p_sum, selected=anchors, r_min=r_min), start


def _sic_rate_jacobian(gains, p):
    """d rate(n, k) / d p(n, j) of ``_sic_rates``, flattened row-major into
    an (NK, NK) matrix: with a = 1/h^2 and T_j the power decoded from SIC
    position j on, rate_j = log2((a_j + T_j)/(a_j + T_{j+1}))."""
    n, k = gains.shape
    jac = np.zeros((n, k, n, k))
    later = np.arange(k) >= np.arange(k)[:, None]  # [j, m]: m at or after j
    for b in range(n):
        order = np.lexsort((np.arange(k), gains[b]))
        a = 1.0 / gains[b, order] ** 2
        t = np.cumsum(p[b, order][::-1])[::-1]
        t_next = np.append(t[1:], 0.0)
        d = (later / (a + t)[:, None] - np.triu(later, 1) / (a + t_next)[:, None]) / np.log(2.0)
        jac[b, order[:, None], b, order[None, :]] = d
    return jac.reshape(n * k, n * k)


def test_barrier_converges_on_rate_floor_instances():
    # the barrier stops on its own certificate, the duality gap with every
    # centering ended on its Newton decrement, so a solve that reaches the
    # optimum is labelled converged: every shape N <= 4, N <= K <= 2^N - 1
    # at 0, 10 and 20 dB in turn, two draws each, against SLSQP from the
    # equal start
    rng = np.random.default_rng(2026)
    shapes = [(n, k) for n in (2, 3, 4) for k in range(n, 2**n)]
    for i, (n, k) in enumerate(shapes * 2):
        prob, start = _rate_floor_instance(rng, n, k, 10.0 * (i % 3))
        sol = barrier_solve(prob)
        assert sol.status == "converged", (n, k, i)
        slacks = check_constraints(prob, sol.p_matrix)
        assert slacks.g1.max() < 0.0 and slacks.g3.max() < 0.0
        assert slacks.g2 <= 1e-12 * prob.p_sum
        gains = prob.gains
        ref = minimize(
            lambda x: -_sic_rates(gains, x.reshape(n, k)).sum(),
            start.ravel(),
            jac=lambda x: -_sic_rate_jacobian(gains, x.reshape(n, k)).sum(axis=0),
            method="SLSQP",
            bounds=[(d, None) for d in prob.delta.ravel()],
            constraints=[
                {
                    "type": "ineq",
                    "fun": lambda x: _sic_rates(gains, x.reshape(n, k)).ravel() - prob.r_min,
                    "jac": lambda x: _sic_rate_jacobian(gains, x.reshape(n, k)),
                },
                {"type": "ineq", "fun": lambda x: prob.p_sum - x.sum(), "jac": lambda x: -np.ones_like(x)},
            ],
            # at 1e-14 SLSQP stops some 0 dB instances on a failed line search
            options={"maxiter": 1000, "ftol": 1e-12},
        )
        assert ref.success, (n, k, i)
        assert sol.objective_value >= -ref.fun - 1e-6, (n, k, i)


def test_strict_support_pins_excluded_entries():
    h = np.ones((2, 3))
    support = np.array([[True, True, False], [True, False, True]])
    prob = OptProblem.build(h, 6.0, support=support)
    sol = barrier_solve(prob)
    assert sol.status == "converged"
    assert np.all(sol.p_matrix[~support] == 0.0)
    assert sol.p_matrix[support].min() > 0.0


def test_strict_support_with_rate_floor_rejected():
    support = np.array([[True, False], [True, True]])
    with pytest.raises(ValueError):
        OptProblem.build(np.ones((2, 2)), 5.0, support=support, r_min=0.5)


def test_problem_validation():
    with pytest.raises(ValueError):
        OptProblem.build(np.array([[-1.0]]), 5.0)
    with pytest.raises(ValueError):
        OptProblem.build(np.ones((1, 1)), 0.0)
    with pytest.raises(ValueError):
        OptProblem(gains=np.ones((1, 2)), p_sum=1.0, delta=np.full((1, 2), 0.6))
    # non-finite gains, floors and budgets, and a NaN rate floor, are
    # refused: each slipped past a check whose comparison is false for NaN
    nan, inf = float("nan"), float("inf")
    for gains in ([[1.0, nan]], [[inf, 1.0]]):
        with pytest.raises(ValueError, match="gains must be finite"):
            OptProblem.build(np.array(gains), 5.0)
        with pytest.raises(ValueError, match="gains must be finite"):
            water_fills(np.array(gains), 5.0, np.zeros((1, 2)))
    for delta in ([[nan, 0.0]], [[0.0, inf]]):
        with pytest.raises(ValueError, match="delta must be a finite"):
            OptProblem(gains=np.ones((1, 2)), p_sum=5.0, delta=np.array(delta))
    for p_sum in (nan, inf):
        with pytest.raises(ValueError, match="p_sum must be positive and finite"):
            OptProblem.build(np.ones((1, 2)), p_sum)
        with pytest.raises(ValueError, match="p_sum must be positive and finite"):
            water_fills(np.ones((2, 1, 2)), [5.0, p_sum], np.zeros((2, 1, 2)))
    with pytest.raises(ValueError, match="r_min"):
        OptProblem.build(np.ones((1, 2)), 5.0, r_min=nan)
    # an infinite rate floor is a well-posed problem with no solution
    assert barrier_solve(OptProblem.build(np.ones((1, 2)), 5.0, r_min=inf)).status == "infeasible"


def _anchored_problem(rng, strict, zero_row):
    """N <= 4, K in [1, 2^N - 1], log-normal gains, a 0-40 dB budget and
    floors of 1e-6 of it on one distinct anchor per beam (while users last).
    ``strict`` restricts the support to a random pattern holding the anchors;
    ``zero_row`` zeroes the last beam's gains when there are two or more."""
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, 2**n))
    gains = np.exp(rng.normal(0.0, 1.0, (n, k)))
    if zero_row and n > 1:
        gains[-1] = 0.0
    p_sum = 10.0 ** (rng.uniform(0.0, 40.0) / 10.0)
    users = rng.permutation(k)
    anchors = [(b, int(users[b])) for b in range(min(n, k))]
    support = None
    if strict:
        support = rng.random((n, k)) < 0.5
        for pair in anchors:
            support[pair] = True
    return OptProblem.build(gains, p_sum, selected=anchors, support=support)


def _water_fill_reference(prob):
    """The water-fill as a loop over the beams and the bend points, one
    problem at a time: the per-budget form the stacked kernel replaced."""
    p = prob.delta.copy()
    picks = []  # (beam, user, level L_n)
    for n, order in enumerate(prob.orders):
        free = np.flatnonzero(prob._var[n, order])
        if free.size:
            last = free[-1]
            k = order[last]
            picks.append((n, k, 1.0 / prob.gains[n, k] ** 2 + prob.delta[n, order[last + 1 :]].sum()))
    if not picks:
        return p
    beams, users, levels = (np.array(col) for col in zip(*picks))
    floors = prob.delta[beams, users]
    # the floor total left to right over the row-major matrix, as the kernel sums it
    budget = prob.p_sum - np.cumsum(prob.delta)[-1] + floors.sum()
    bends = levels + floors
    rank = np.argsort(bends, kind="stable")
    for m in range(len(rank), 0, -1):
        water = (budget - floors[rank[m:]].sum() + levels[rank[:m]].sum()) / m
        if water >= bends[rank[m - 1]]:
            break
    p[beams, users] = np.maximum(floors, water - levels)
    return p


def test_water_fill_matches_the_per_beam_loop_and_its_stack():
    # anchor floors, strict supports and zero-gain rows (a beam with no
    # free entry), and general floor matrices: the water-fill of one (N, K)
    # matrix at a scalar budget equals the loop above and the stack of that
    # one matrix; a stack of D budgets, and a (C, D, N, K) stack with the D
    # budgets and a support per c broadcast, equal the water-fill of each
    # matrix alone.  The kernel sums left to right, as numpy sums fewer
    # than 8 terms, and so does the loop's floor total; a general floor
    # matrix with K >= 9 can pin 8 or more
    # floors after a beam's served user, which numpy sums pairwise, so
    # there the level (and the powers) agree to 1e-12 relative instead of
    # bit for bit.
    rng = make_rng(14)
    for i in range(300):
        prob = _anchored_problem(rng, strict=i % 3 == 0, zero_row=i % 4 == 0)
        n, k = prob.gains.shape
        if i % 2:
            delta = rng.uniform(0.0, 0.4 / (n * k), (n, k)) * prob.p_sum * (rng.random((n, k)) < 0.7)
            prob = OptProblem(gains=prob.gains, p_sum=prob.p_sum, delta=delta, support=prob.support)
        p = water_fills(prob.gains, prob.p_sum, prob.delta, prob.support)
        assert np.array_equal(p, water_fills(prob.gains[None], [prob.p_sum], prob.delta[None], prob.support)[0])
        want = _water_fill_reference(prob)
        pinned = [int(np.flatnonzero(prob._var_pos[b])[-1:].sum()) for b in range(n)]
        if all(k - 1 - last < 8 for last in pinned):
            assert np.array_equal(p, want)
        else:
            assert np.allclose(p, want, rtol=1e-12, atol=0.0)
        if i % 4 == 0 and n > 1:
            assert np.array_equal(p[-1], prob.delta[-1])  # the zero row keeps its floors
        budgets = prob.p_sum * np.array([1.0, 10.0, 0.1])
        gains = np.stack([prob.gains, 2.0 * prob.gains, prob.gains[:, ::-1].copy()])
        delta = prob.delta * (budgets / prob.p_sum)[:, None, None]
        stacked = water_fills(gains, budgets, delta, prob.support)
        for d in range(3):
            one = OptProblem(gains=gains[d], p_sum=budgets[d], delta=delta[d], support=prob.support)
            assert np.array_equal(stacked[d], water_fills(one.gains, one.p_sum, one.delta, one.support))
        gains = np.stack([gains, gains[::-1]])
        delta = np.stack([delta, delta])
        supports = np.stack([np.ones((n, k), dtype=bool), rng.random((n, k)) < 0.5])[:, None]
        stacked = water_fills(gains, budgets, delta, supports)
        for c in range(2):
            for d in range(3):
                one = OptProblem(gains=gains[c, d], p_sum=budgets[d], delta=delta[c, d], support=supports[c, 0])
                assert np.array_equal(stacked[c, d], water_fills(one.gains, one.p_sum, one.delta, one.support))
    with pytest.raises(ValueError, match="floors"):
        water_fills(np.ones((2, 1, 2)), [1.0, 1.0], np.full((2, 1, 2), [[[0.1, 0.1]], [[0.6, 0.6]]]))


def test_zero_gain_pads_change_no_water_fill_power():
    # users with zero gains and zero floors appended to a problem (outside
    # a strict support) leave the powers of the real entries bit for bit
    # as they are and get none: a pad is never free, and the floor total
    # runs left to right, so it adds an exact +0.0.  General floor
    # matrices at N * K >= 8 are where numpy's pairwise sum would regroup
    # with the pads, which takes a few hundred instances to meet.
    rng = make_rng(22)
    for i in range(600):
        prob = _anchored_problem(rng, strict=i % 3 == 0, zero_row=i % 4 == 0)
        n, k = prob.gains.shape
        delta = prob.delta
        if i % 2:
            delta = rng.uniform(0.0, 0.4 / (n * k), (n, k)) * prob.p_sum * (rng.random((n, k)) < 0.7)
        p = water_fills(prob.gains, prob.p_sum, delta, prob.support)
        pads = int(rng.integers(1, 9))
        wide = ((0, 0), (0, pads))
        support = None if prob.support is None else np.pad(prob.support, wide)
        padded = water_fills(np.pad(prob.gains, wide), prob.p_sum, np.pad(delta, wide), support)
        assert np.array_equal(padded[:, :k], p) and not padded[:, k:].any(), i


def test_water_fill_serves_the_last_free_user_of_the_sic_order():
    # the water-fill sorts its stack as the receiver does: on (C, D, N, K)
    # stacks with tied gains, zero gains and zero-gain pad users, anchor
    # floors, with and without a strict support, each beam's powers leave
    # their floors at most at one entry, the last free (positive-gain,
    # supported) user of ``sic_orders``, ties broken by index
    rng = make_rng(23)
    served_any = False
    for i in range(100):
        c, d, n, k, pads = 2, 3, int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(0, 4))
        gains = rng.choice([0.0, 0.5, 1.0, 2.0], (c, d, n, k)) * rng.choice([1.0, 3.0], (c, 1, 1, k))
        gains = np.concatenate([gains, np.zeros((c, d, n, pads))], axis=-1)
        budgets = 10.0 ** (rng.uniform(0.0, 40.0, d) / 10.0)
        delta = np.zeros(gains.shape)
        anchors = rng.integers(0, k, (c, 1, n, 1))
        np.put_along_axis(delta, anchors, (1e-6 * budgets)[:, None, None], axis=-1)
        support = None
        if i % 2:
            support = np.concatenate([rng.random((c, 1, n, k)) < 0.6, np.zeros((c, 1, n, pads), dtype=bool)], axis=-1)
        p = water_fills(gains, budgets, delta, support)
        free = (gains > 0) & (True if support is None else support)
        orders = sic_orders(gains)
        for at in np.ndindex(gains.shape[:-1]):
            raised = np.flatnonzero(p[at] != delta[at])
            served = orders[at][free[at][orders[at]]][-1:]
            assert set(raised) <= set(served) and (p[at] >= delta[at]).all(), (i, at)
            served_any |= len(raised) > 0
    assert served_any


def test_water_fill_never_below_the_barrier():
    rng = make_rng(11)
    for i in range(210):
        prob = _anchored_problem(rng, strict=i % 3 == 0, zero_row=i % 7 == 0)
        p = water_fills(prob.gains, prob.p_sum, prob.delta, prob.support)
        slacks = check_constraints(prob, p)
        assert slacks.g1.max() <= 0.0
        assert abs(slacks.g2) <= 1e-12 * prob.p_sum
        if prob.support is not None:
            assert (p[~prob.support] == 0.0).all()
        sol = barrier_solve(prob)
        assert sol.status == "converged", i
        assert -objective(prob, p) >= sol.objective_value - 1e-9


def test_water_fill_without_floors_is_waterfilling_over_the_strongest_users():
    # oracle: bisection on the water level W of sum_n max(0, W - 1/h_max,n^2) = P
    rng = make_rng(12)
    for i in range(100):
        n = int(rng.integers(1, 5))
        gains = np.exp(rng.normal(0.0, 1.0, (n, int(rng.integers(1, 2**n)))))
        if i % 5 == 0 and n > 1:
            gains[0] = 0.0
        p_sum = 10.0 ** (rng.uniform(0.0, 40.0) / 10.0)
        prob = OptProblem(gains=gains, p_sum=p_sum, delta=np.zeros_like(gains))
        h2 = gains.max(axis=1) ** 2
        levels = 1.0 / h2[h2 > 0]
        lo, hi = 0.0, p_sum + levels.max()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.maximum(0.0, mid - levels).sum() < p_sum else (lo, mid)
        want = float(np.log2(1.0 + np.maximum(0.0, lo - levels) / levels).sum())
        assert -objective(prob, water_fills(prob.gains, prob.p_sum, prob.delta, prob.support)) == pytest.approx(want, rel=1e-12)


def test_water_fill_matches_grid_search_on_the_solver_shapes():
    # the instances of acceptance criterion 3
    from test_acceptance import _grid_best

    rng = make_rng(103)
    shapes = [(1, 1)] * 10 + [(1, 2)] * 16 + [(2, 1)] * 8 + [(1, 3)] * 10 + [(3, 1)] * 6
    for n, k in shapes:
        h = np.sort(rng.uniform(0.3, 3.0, (n, k)), axis=1)
        if n * k == 3:
            p_sum = round(float(rng.uniform(0.15, 0.25)), 3)
        else:
            p_sum = round(float(rng.uniform(0.5, 1.5)), 3)
        prob = OptProblem.build(h, p_sum)
        p = water_fills(prob.gains, prob.p_sum, prob.delta, prob.support)
        assert abs(-objective(prob, p) - _grid_best(h, p_sum)) <= 1e-3


def test_water_fill_hand_values_with_support():
    h = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 0.5]])
    support = np.array([[True, False, True], [False, True, True]])
    prob = OptProblem.build(h, 6.0, selected=[(0, 0), (1, 1)], epsilon=1e-6, support=support)
    p = water_fills(prob.gains, prob.p_sum, prob.delta, prob.support)
    # beam 0 serves user 2 (level 1/4), beam 1 its anchor, user 1 (level 1);
    # 2W - 5/4 = 6 - 1e-6 sets the water level W
    water = (6.0 - 1e-6 + 1.25) / 2.0
    want = np.array([[1e-6, 0.0, water - 0.25], [0.0, water - 1.0, 0.0]])
    assert np.allclose(p, want, rtol=1e-14, atol=0.0)


def _least_power_total(gains, delta, r_min):
    """The least total power meeting the floors and a rate floor, beam by
    beam from the last-decoded user back, apart from the package."""
    c = 2.0**r_min - 1.0
    total = 0.0
    for b in range(gains.shape[0]):
        later = 0.0
        for u in np.lexsort((np.arange(gains.shape[1]), gains[b]))[::-1]:
            p = max(delta[b, u], c * (1.0 / gains[b, u] ** 2 + later))
            later += p
        total += later
    return total


def _assert_strict_start(prob, p0):
    """``p0`` is strictly feasible, rates recomputed apart from the package
    and the budget slack summed in SIC-position order."""
    assert (p0 > prob.delta).all()
    assert (_sic_rates(prob.gains, p0) > prob.r_min).all()
    assert prob.p_sum - np.take_along_axis(p0, sic_orders(prob.gains), axis=1).sum() > 0


def test_feasible_start_at_the_least_power_boundary():
    # a budget a hair above the least total has a strictly feasible start,
    # a hair below has none, with and without power floors that bind
    rng = make_rng(15)
    for i in range(60):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        gains = np.exp(rng.normal(0.0, 1.0, (n, k)))
        r_min = float(rng.uniform(0.05, 3.0))
        delta = np.zeros((n, k))
        if i % 2:
            delta = rng.uniform(0.0, 2.0, (n, k)) * (rng.random((n, k)) < 0.5)
        least = _least_power_total(gains, delta, r_min)
        above = OptProblem(gains=gains, p_sum=least * (1 + 1e-9), delta=delta, r_min=r_min)
        p0 = feasible_start(above)
        assert p0 is not None
        _assert_strict_start(above, p0)
        below = OptProblem(gains=gains, p_sum=least * (1 - 1e-9), delta=delta, r_min=r_min)
        assert feasible_start(below) is None
        assert barrier_solve(below).status == "infeasible"


def test_feasible_start_rejects_a_zero_gain_under_a_rate_floor():
    prob = OptProblem.build(np.array([[0.0, 1.0], [1.0, 2.0]]), 100.0, r_min=0.1)
    assert feasible_start(prob) is None
    assert barrier_solve(prob).status == "infeasible"


def _near_boundary_rate_floor_instance():
    """Instance 51 of a random recipe (N < 4, K < min(6, 2^N), log-normal
    gains, 0-20 dB budgets, rate floors of 0.05-3 bits), as (gains, p_sum,
    r_min).  Its least total is below the budget, but an iterative
    max-min-slack phase I stopped short of a strictly feasible point there
    and reported it infeasible."""
    rng = np.random.default_rng(77)
    for _ in range(52):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(6, 2**n)))
        gains = np.exp(rng.normal(0.0, 1.0, (n, k)))
        p_sum = 10 ** (rng.uniform(0.0, 20.0) / 10)
        r_min = rng.uniform(0.05, 3.0)
    assert (n, k) == (2, 3) and round(p_sum, 2) == 65.29 and round(r_min, 3) == 1.104
    return gains, float(p_sum), float(r_min)


def test_rate_floor_instance_an_iterative_phase_one_called_infeasible():
    gains, p_sum, r_min = _near_boundary_rate_floor_instance()
    prob = OptProblem.build(gains, p_sum, r_min=r_min)
    p0 = feasible_start(prob)
    assert p0 is not None
    _assert_strict_start(prob, p0)
    sol = barrier_solve(prob)
    assert sol.status != "infeasible"
    slacks = check_constraints(prob, sol.p_matrix)
    assert slacks.g1.max() <= 0 and slacks.g2 <= 1e-9 * p_sum and slacks.g3.max() <= 1e-9


def _weighted_rates(gains, p, w):
    return float((w * _sic_rates(gains, p)).sum())


def test_rate_terms_match_finite_differences():
    # the barrier's own derivatives: the weighted rate sum's gradient and
    # Hessian, weights of both signs, against central differences with the
    # bounds of acceptance criteria 2 and 1 (ascending gains, so SIC
    # positions are user indices).  The gradient takes criterion 2's steps;
    # the Hessian criterion 1's, at 1/25 of the curvature length: a single
    # rate's Hessian cancels its u^2 and z^2 terms more than the sum rate's,
    # so its truncation error at criterion 1's 0.005 reached 7e-3
    rng = make_rng(16)
    worst_grad = worst_hess = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 8))
        gains = np.sort(rng.uniform(0.1, 10.0, (n, k)), axis=1)
        p = rng.uniform(0.05, 1.5, (n, k))
        w = rng.uniform(0.5, 2.0, (n, k)) * rng.choice([-1.0, 1.0], (n, k))
        prob = OptProblem.build(gains, 1e6)
        grad, blocks = _rate_terms(prob, p, w)
        f = lambda q: _weighted_rates(gains, q, w)  # noqa: E731
        fd = np.zeros((n, k))
        for i in range(n):
            for j in range(k):
                e = np.zeros((n, k))
                e[i, j] = 1e-6 * (1.0 + p[i, j])
                fd[i, j] = (f(p + e) - f(p - e)) / (2 * e[i, j])
        worst_grad = max(worst_grad, float((np.abs(grad - fd) / np.maximum(np.abs(fd), np.abs(grad))).max()))
        for b in range(n):
            scale = 1.0 / gains[b] ** 2 + np.cumsum(p[b, ::-1])[::-1]
            steps = np.minimum(0.0002 * scale, 0.4 * p[b])
            fd = np.zeros((k, k))
            for x in range(k):
                for y in range(k):
                    ex = np.zeros((n, k))
                    ey = np.zeros((n, k))
                    ex[b, x] = steps[x]
                    ey[b, y] = steps[y]
                    fd[x, y] = (f(p + ex + ey) - f(p + ex - ey) - f(p - ex + ey) + f(p - ex - ey)) / (
                        4 * steps[x] * steps[y]
                    )
            rel = np.abs(blocks[b] - fd) / np.maximum(np.abs(fd), np.abs(blocks[b]))
            worst_hess = max(worst_hess, float(rel.max()))
    assert worst_grad < 1e-5
    assert worst_hess < 1e-4
