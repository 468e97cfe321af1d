"""Interior-point optimization of the merged beam/power mapping matrix.

For fixed equivalent gains, the negative sum rate is convex in the merged
power matrix: within each beam, writing the rates against the ascending-gain
decoding order turns the objective into a telescoping sum of logs of suffix
power sums, whose Hessian has a nested nonnegative structure (rank-one
blocks accumulating down the order).  Without per-link minimum rates the
optimum has a closed form, water-filling over the beams' strongest users.
``water_fills`` computes it for a whole (D, N, K) stack of gain matrices
and budgets at once, the bend-point search included; ``water_fill`` runs
the same kernel on the one instance of an ``OptProblem``.  With minimum
rates, a standard log-barrier method with damped Newton centering
(``barrier_solve``) finds the global optimum subject to the per-entry power
floors, the total power budget and the minimum rates.  Every rate it
evaluates, the objective's and the rate constraints', goes through the
receiver's SIC SINR formula.

Conventions: the gain matrix is (beams x users); each beam's entries are
internally reindexed by SIC position (ascending gain, index tie-break,
sharing the receiver's ordering rule).  Entries with zero gain, or excluded
by a fixed pattern in strict mode, are pinned at their floor and eliminated
from the Newton system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .receiver import _sic_sinr, beam_sum_rates, sic_orders

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class OptProblem:
    """Sum-rate maximization instance for fixed equivalent gains.

    ``delta`` holds the per-entry power floors (the ZF slack epsilon on
    selected pairs, zero elsewhere); ``r_min`` the per-link minimum rate.
    ``support`` restricts the optimization variables to a fixed pattern
    (strict mode); by default every entry with positive gain is free.
    """

    gains: np.ndarray  # (N, K)
    p_sum: float
    delta: np.ndarray  # (N, K)
    epsilon: float = 0.0
    r_min: float = 0.0
    support: np.ndarray | None = None

    def __post_init__(self):
        h = np.asarray(self.gains, dtype=float)
        d = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "gains", h)
        object.__setattr__(self, "delta", d)
        if h.ndim != 2:
            raise ValueError("gains must be a 2-D matrix")
        _check_instances(h[None], d[None], np.array([self.p_sum]))
        if self.r_min < 0:
            raise ValueError("r_min must be nonnegative")
        if self.support is not None:
            support = np.asarray(self.support, dtype=bool)
            if support.shape != h.shape:
                raise ValueError("support mask must match the gain shape")
            object.__setattr__(self, "support", support)
            if self.r_min > 0 and not support.all():
                raise ValueError(
                    "a minimum rate over all links is inconsistent with a "
                    "restricted pattern support"
                )
        ord_mat = sic_orders(h)
        object.__setattr__(self, "_ord", ord_mat)
        object.__setattr__(self, "_var", _free_entries(h, self.support))
        # position-space views used by the objective machinery
        h2_pos = np.take_along_axis(h, ord_mat, axis=1) ** 2
        a_pos = np.full_like(h2_pos, np.inf)
        live = h2_pos > 0
        a_pos[live] = 1.0 / h2_pos[live]
        object.__setattr__(self, "_h2_pos", h2_pos)
        object.__setattr__(self, "_a_pos", a_pos)
        object.__setattr__(self, "_var_pos", np.take_along_axis(self._var, ord_mat, axis=1))
        object.__setattr__(self, "_delta_pos", np.take_along_axis(d, ord_mat, axis=1))

    @classmethod
    def build(
        cls,
        gains: np.ndarray,
        p_sum: float,
        *,
        selected=None,
        epsilon: float | None = None,
        r_min: float = 0.0,
        support: np.ndarray | None = None,
    ) -> "OptProblem":
        """Assemble the floor matrix from the ZF selected pairs.

        ``selected`` is an iterable of (beam, user) pairs (or an object with
        a ``pairs`` attribute); each selected pair gets the floor ``epsilon``
        (default 1e-6 of the budget) so the precoder's anchor users keep
        nonzero power.
        """
        gains = np.asarray(gains, dtype=float)
        if epsilon is None:
            epsilon = 1e-6 * p_sum
        return cls(
            gains=gains,
            p_sum=float(p_sum),
            delta=anchor_floors(gains, () if selected is None else selected, epsilon),
            epsilon=float(epsilon),
            r_min=float(r_min),
            support=support,
        )

    @property
    def n_beams(self) -> int:
        return self.gains.shape[0]

    @property
    def n_users(self) -> int:
        return self.gains.shape[1]

    @property
    def orders(self) -> tuple:
        """Per-beam decoding orders (ascending gain), shared with the receiver."""
        return tuple(self._ord)


def _check_instances(gains: np.ndarray, delta: np.ndarray, p_sum: np.ndarray) -> None:
    """Raise unless a stack of instances (gains and floors (D, N, K), budgets
    (D,)) has nonnegative gains, nonnegative floors of the gains' shape, and
    positive budgets that exceed each instance's floor sum."""
    if (gains < 0).any():
        raise ValueError("gains must be nonnegative")
    if delta.shape != gains.shape or (delta < 0).any():
        raise ValueError("delta must be a nonnegative matrix matching gains")
    if (p_sum <= 0).any():
        raise ValueError("p_sum must be positive")
    if (delta.reshape(len(delta), -1).sum(axis=-1) >= p_sum).any():
        raise ValueError("sum of power floors must stay below the budget")


def _free_entries(gains: np.ndarray, support) -> np.ndarray:
    """The optimization variables: positive gains, within ``support`` if given."""
    free = gains > 0
    return free if support is None else free & support


def anchor_floors(gains: np.ndarray, selected, epsilon) -> np.ndarray:
    """Power floors matching a gain matrix or stack (..., N, K): ``epsilon``
    on each selected (beam, user) pair, zero elsewhere.

    ``selected`` is an iterable of (beam, user) pairs or an object with a
    ``pairs`` attribute (the ZF anchors); ``epsilon`` is one floor, or one
    per matrix of the stack, shaped like ``gains.shape[:-2]``.
    """
    delta = np.zeros(np.shape(gains))
    pairs = list(getattr(selected, "pairs", selected))
    if pairs:
        beams, users = zip(*pairs)
        delta[..., beams, users] = np.asarray(epsilon, dtype=float)[..., None]
    return delta


@dataclass(frozen=True)
class OptSolution:
    """Solver output; ``p_matrix`` is in user-index space (beams x users)."""

    p_matrix: np.ndarray | None
    objective_value: float
    kkt_residual: float
    iterations: int
    status: str  # converged | infeasible | max-iterations


@dataclass(frozen=True)
class PhaseOneResult:
    """Strictly feasible start, or an infeasibility certificate.

    ``min_slack`` is the minimum rate-constraint slack at the returned point
    (feasible case) or the best slack found / a valid upper bound on it
    (infeasible case).
    """

    feasible: bool
    p0: np.ndarray | None
    min_slack: float


@dataclass
class BarrierParams:
    """Log-barrier schedule and Newton/line-search controls."""

    t0: float = 1.0
    mu: float = 20.0
    tol: float = 1e-8
    newton_tol: float = 1e-10
    backtrack: float = 0.5
    armijo: float = 0.01
    max_newton: int = 200
    max_outer: int = 40


@dataclass(frozen=True)
class ConstraintSlacks:
    """Standard-form inequality values (all <= 0 when feasible)."""

    g1: np.ndarray  # delta - p, per entry
    g2: float  # sum(p) - p_sum
    g3: np.ndarray  # r_min - rate, per entry


def _to_pos(prob: OptProblem, p: np.ndarray) -> np.ndarray:
    return np.take_along_axis(np.asarray(p, dtype=float), prob._ord, axis=1)

def _to_user(prob: OptProblem, p_pos: np.ndarray) -> np.ndarray:
    out = np.empty_like(p_pos)
    np.put_along_axis(out, prob._ord, p_pos, axis=1)
    return out


def _suffix_terms(prob: OptProblem, p_pos: np.ndarray):
    """The reciprocal terms the derivatives are built from.

    Returns (u, z): u = 1/(a + T), z = 1/(a + T - p), where T[k] sums the
    powers at positions >= k and a is the squared inverse gain (dead
    entries have a = inf, so their terms vanish).
    """
    t_suf = np.cumsum(p_pos[:, ::-1], axis=1)[:, ::-1]
    u = 1.0 / (prob._a_pos + t_suf)
    z = 1.0 / (prob._a_pos + (t_suf - p_pos))
    return u, z


def _rates_pos(prob: OptProblem, p_pos: np.ndarray) -> np.ndarray:
    """Per-position rates log2(1 + gamma), gamma the receiver's SIC SINR;
    zero for dead entries."""
    return np.log2(1.0 + _sic_sinr(prob._h2_pos, p_pos))


def objective(prob: OptProblem, p: np.ndarray) -> float:
    """Negative sum rate of the mapping matrix (the minimization objective).

    Shares the receiver's SINR code path so the two sides agree exactly.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != prob.gains.shape:
        raise ValueError("power matrix must match the gain shape")
    return -float(beam_sum_rates(prob.gains, p, prob._ord))


def _objective_pos(prob: OptProblem, p_pos: np.ndarray) -> float:
    """Vectorized objective on position-space powers (solver fast path)."""
    return -float(_rates_pos(prob, p_pos).sum())


def _gradient_pos(prob: OptProblem, p_pos: np.ndarray) -> np.ndarray:
    """Analytic objective gradient in position space.

    d f / d p_m = -(1/ln2) (sum_{j<=m} u_j - sum_{j<=m-1} z_j): raising a
    user's power helps its own log term through every suffix sum it enters
    and hurts every earlier-decoded user through their interference terms.
    """
    u, z = _suffix_terms(prob, p_pos)
    cu = np.cumsum(u, axis=1)
    cz = np.cumsum(z, axis=1)
    shifted = np.concatenate([np.zeros((z.shape[0], 1)), cz[:, :-1]], axis=1)
    return -(cu - shifted) / LN2


def gradient(prob: OptProblem, p: np.ndarray) -> np.ndarray:
    """Analytic gradient of the objective, in user-index space."""
    p = np.asarray(p, dtype=float)
    if p.shape != prob.gains.shape:
        raise ValueError("power matrix must match the gain shape")
    return _to_user(prob, _gradient_pos(prob, _to_pos(prob, p)))


def _hessian_blocks(prob: OptProblem, p_pos: np.ndarray) -> np.ndarray:
    """All per-beam Hessians, (N, K, K), position space.

    Entry (i, j) equals c[min(i, j)] with the nondecreasing accumulator
    c[m] = (sum_{l<=m} u_l^2 - sum_{l<=m-1} z_l^2)/ln2.
    """
    u, z = _suffix_terms(prob, p_pos)
    u2 = u * u
    z2 = z * z
    c = np.cumsum(u2, axis=1)
    c[:, 1:] -= np.cumsum(z2[:, :-1], axis=1)
    c /= LN2
    k = p_pos.shape[1]
    idx = np.minimum.outer(np.arange(k), np.arange(k))
    return c[:, idx]


def hessian(prob: OptProblem, p: np.ndarray, beam: int) -> np.ndarray:
    """One beam's objective Hessian in SIC-position space (ascending gain).

    Entry (i, j) is the accumulator c[min(i, j)] of ``_hessian_blocks``.
    For ascending gains c[0] >= 0 and c is nondecreasing along the order, so
    the matrix is a sum of nonnegative multiples of all-ones trailing blocks:
    symmetric positive semidefinite.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != prob.gains.shape:
        raise ValueError("power matrix must match the gain shape")
    return _hessian_blocks(prob, _to_pos(prob, p))[beam]


def water_fill(prob: OptProblem) -> np.ndarray:
    """Sum-rate-optimal power matrix without rate floors, in closed form.

    Within one beam the sum rate's marginal with respect to the power at SIC
    position m is g_m = (sum_{j<=m} u_j - sum_{j<m} z_j)/ln2 (the negated
    ``_gradient_pos``), so g_{m+1} - g_m = (1/(a_{m+1} + T_{m+1}) -
    1/(a_m + T_{m+1}))/ln2 >= 0, because the ascending order gives
    a_{m+1} <= a_m.  The marginal never decreases along the decoding order,
    so every free entry sits at its floor except the beam's last-decoded
    (strongest) free user; between equal gains the beam rate depends only
    on their total, so the index rule of the order may pick.  That user gets
    s_n = max(floor, W - L_n), where L_n is 1/h^2 plus the power pinned
    after it in the order, and the water level W makes the matrix sum to
    ``p_sum`` (Boyd & Vandenberghe, Convex Optimization, sec. 5.5.3).

    Without floors on earlier-decoded users (so always without floors) this
    is the exact optimum, sum_n log2(1 + s_n/L_n).  Such floors take s_n as
    interference, which moves the beam's marginal by a term of the floors'
    order that W ignores; the rate lost is of second order in the floors.
    Beams with no free entry are skipped, and with none at all the floors
    are returned.  The kernel is that of ``water_fills``, run on a stack of
    one.
    """
    if prob.r_min > 0:
        raise ValueError("water_fill has no rate floors; use barrier_solve for r_min > 0")
    stack = (prob.gains[None], prob.delta[None], prob._var[None], prob._ord[None])
    return _water_fill(*stack, np.array([prob.p_sum]))[0]


def water_fills(gains: np.ndarray, p_sum, delta: np.ndarray, support: np.ndarray | None = None):
    """``water_fill`` over a stack of D instances at once, shape (D, N, K).

    Instance d has the gains ``gains[d]``, the budget ``p_sum[d]`` and the
    floors ``delta[d]``; ``support`` (N, K), if given, restricts every
    instance's variables to the pattern's pairs (strict mode).  The checks
    are those of ``OptProblem``, run once on the stack.
    """
    gains = np.asarray(gains, dtype=float)
    delta = np.asarray(delta, dtype=float)
    p_sum = np.asarray(p_sum, dtype=float)
    if gains.ndim != 3 or p_sum.shape != gains.shape[:1]:
        raise ValueError("gains must stack (N, K) matrices, one per budget")
    _check_instances(gains, delta, p_sum)
    support = None if support is None else np.asarray(support, dtype=bool)
    return _water_fill(gains, delta, _free_entries(gains, support), sic_orders(gains), p_sum)


def _water_fill(gains, delta, free, orders, p_sum) -> np.ndarray:
    """The closed form of ``water_fill`` on D instances: gains, floors, free
    entries and decoding orders (D, N, K), budgets (D,).

    Each beam's strongest free user and its level L_n come from the orders
    at once; a (budget, beam) with no free entry is masked out.  The bend
    point search then evaluates the level W of every candidate segment of
    every budget and keeps, per budget, the one the sequential search
    would stop at: the largest count m whose W reaches its m-th lowest
    bend, or m = 1 when none does.  Every sum over beams or positions runs
    left to right (a masked cumulative sum), as numpy sums fewer than 8
    terms, so a problem gives the same powers stacked as alone.
    """
    n_budgets, n_beams, n_users = gains.shape
    # flat positions of each beam's users in decoding order, and of each
    # beam's strongest free user (the last free position)
    rows = n_budgets * n_beams
    at = orders.reshape(rows, n_users) + n_users * np.arange(rows)[:, None]
    free_pos = free.reshape(-1)[at]
    picked = free_pos.any(axis=-1)  # per (budget, beam): a free entry exists
    last = n_users - 1 - np.argmax(free_pos[:, ::-1], axis=-1)
    served = at[np.arange(len(at)), last]
    after = np.arange(n_users) > last[:, None]
    pinned = np.cumsum(np.where(after, delta.reshape(-1)[at], 0.0), axis=-1)[:, -1]
    h = np.where(picked, gains.reshape(-1)[served], 1.0)
    own = delta.reshape(-1)[served]
    shape = (n_budgets, n_beams)
    levels = (1.0 / h**2 + pinned).reshape(shape)
    floors = np.where(picked, own, 0.0).reshape(shape)
    picked = picked.reshape(shape)
    budget = p_sum - delta.reshape(n_budgets, -1).sum(axis=-1) + np.cumsum(floors, axis=-1)[:, -1]
    # sum_n max(floor_n, W - L_n) grows with W and bends at L_n + floor_n:
    # the level lies on the segment where the m lowest bends are passed
    bends = np.where(picked, levels + floors, np.inf)
    rank = np.argsort(bends, axis=-1, kind="stable")  # beams with no free entry last
    ranked = np.arange(n_budgets)[:, None], rank
    m = np.arange(1, n_beams + 1)
    below = np.cumsum(levels[ranked], axis=-1)  # levels of the m lowest bends
    # floors of the bends above the m lowest (beams with no free entry add 0)
    beyond = np.arange(n_beams) >= m[:, None]
    above = np.cumsum(np.where(beyond, floors[ranked][:, None], 0.0), axis=-1)[..., -1]
    water = (budget[:, None] - above + below) / m  # (D, m)
    reached = water >= bends[ranked]  # never at an infinite bend
    pick = np.where(reached.any(axis=-1), n_beams - 1 - np.argmax(reached[:, ::-1], axis=-1), 0)
    level = water[np.arange(n_budgets), pick][:, None]
    p = delta.copy()
    filled = np.where(picked, np.maximum(floors, level - levels), own.reshape(shape))
    p.reshape(-1)[served] = filled.reshape(-1)
    return p


def check_constraints(prob: OptProblem, p: np.ndarray) -> ConstraintSlacks:
    """Standard-form constraint values at a candidate power matrix."""
    p = np.asarray(p, dtype=float)
    rates_user = _to_user(prob, _rates_pos(prob, _to_pos(prob, p)))
    return ConstraintSlacks(
        g1=prob.delta - p,
        g2=float(p.sum() - prob.p_sum),
        g3=prob.r_min - rates_user,
    )


def _rate_constraint_parts(prob: OptProblem, p_pos: np.ndarray):
    """Rates plus the pieces of their gradients/Hessians, position space.

    rate_j = log2((a_j + T_j)/(a_j + T_{j+1})); its gradient w.r.t. p_m is
    (u_j [m >= j] - z_j [m >= j+1])/ln2 and its Hessian is
    -(u_j^2 [m,q >= j] - z_j^2 [m,q >= j+1])/ln2.
    """
    u, z = _suffix_terms(prob, p_pos)
    return _rates_pos(prob, p_pos), u, z


def feasible_start(prob: OptProblem) -> PhaseOneResult:
    """Strictly feasible starting point, or an infeasibility certificate.

    Construction: the floors plus an equal split of half the remaining
    budget over the free entries.  When a minimum rate is active and the
    construction violates it, a phase-I pass maximizes the minimum rate
    slack; a nonpositive optimum certifies infeasibility.
    """
    var = prob._var
    n_var = int(var.sum())
    p0 = prob.delta.copy()
    if n_var:
        p0[var] += 0.5 * (prob.p_sum - prob.delta.sum()) / n_var

    def min_rate_slack(p):
        rates = _to_user(prob, _rates_pos(prob, _to_pos(prob, p)))
        return float((rates - prob.r_min).min())

    if prob.r_min == 0:
        return PhaseOneResult(feasible=True, p0=p0, min_slack=min_rate_slack(p0))

    if not var.all():
        # some link can never reach a positive rate
        return PhaseOneResult(feasible=False, p0=None, min_slack=-prob.r_min)

    # cheap certificate: even the whole budget on one link caps its rate
    upper = np.log2(1.0 + prob.gains**2 * prob.p_sum)
    if float(upper.min()) < prob.r_min:
        return PhaseOneResult(
            feasible=False, p0=None, min_slack=float(upper.min() - prob.r_min)
        )

    slack0 = min_rate_slack(p0)
    if slack0 > 0:
        return PhaseOneResult(feasible=True, p0=p0, min_slack=slack0)

    p_cand, best_slack = _phase_one_max_min_slack(prob, p0)
    candidates = [p_cand] + [
        (1.0 - theta) * p_cand + theta * p0 for theta in (0.01, 0.05, 0.2)
    ]
    for cand in candidates:
        s1 = float((cand - prob.delta)[var].min())
        # the budget slack summed as barrier_solve sums it, in SIC-position
        # order: a candidate on the budget to round-off can have a positive
        # slack in user order and a zero one there
        s2 = prob.p_sum - float(_to_pos(prob, cand).sum())
        s3 = min_rate_slack(cand)
        best_slack = max(best_slack, s3)
        if s1 > 0 and s2 > 0 and s3 > 0:
            return PhaseOneResult(feasible=True, p0=cand, min_slack=s3)
    return PhaseOneResult(feasible=False, p0=None, min_slack=best_slack)


def _phase_one_max_min_slack(prob: OptProblem, p0: np.ndarray):
    """Maximize the minimum rate slack over the feasible power set (phase I)."""
    from scipy.optimize import minimize

    n, k = prob.gains.shape
    n_var = n * k

    def unpack(x):
        return x[:n_var].reshape(n, k), x[n_var]

    def objective_fn(x):
        return -x[n_var]

    def objective_jac(x):
        g = np.zeros(n_var + 1)
        g[n_var] = -1.0
        return g

    def rate_slack(x):
        p, s = unpack(x)
        rates = _to_user(prob, _rates_pos(prob, _to_pos(prob, p)))
        return (rates - prob.r_min - s).ravel()

    def rate_slack_jac(x):
        p, s = unpack(x)
        p_pos = _to_pos(prob, p)
        rates, u, z = _rate_constraint_parts(prob, p_pos)
        jac = np.zeros((n * k, n_var + 1))
        for row in range(n):
            order = prob._ord[row]
            for j in range(k):
                grad_pos = np.zeros(k)
                grad_pos[j:] += u[row, j]
                grad_pos[j + 1 :] -= z[row, j]
                grad_user = np.zeros(k)
                grad_user[order] = grad_pos / LN2
                jac[row * k + order[j], row * k : (row + 1) * k] = grad_user
        jac[:, n_var] = -1.0
        return jac

    def budget(x):
        p, _ = unpack(x)
        return prob.p_sum - p.sum()

    def budget_jac(x):
        g = np.full(n_var + 1, -1.0)
        g[n_var] = 0.0
        return g

    rates0 = _to_user(prob, _rates_pos(prob, _to_pos(prob, p0)))
    slack0 = float((rates0 - prob.r_min).min())
    x0 = np.concatenate([p0.ravel(), [slack0 - 0.1 * (1.0 + abs(slack0))]])
    bounds = [(float(d), None) for d in prob.delta.ravel()] + [(None, None)]
    res = minimize(
        objective_fn,
        x0,
        jac=objective_jac,
        method="SLSQP",
        bounds=bounds,
        constraints=[
            {"type": "ineq", "fun": rate_slack, "jac": rate_slack_jac},
            {"type": "ineq", "fun": budget, "jac": budget_jac},
        ],
        options={"maxiter": 200, "ftol": 1e-10},
    )
    p_cand, s_cand = unpack(res.x)
    return np.clip(p_cand, prob.delta, None), float(s_cand)


def barrier_solve(
    prob: OptProblem, params: BarrierParams | None = None, log=None
) -> OptSolution:
    """Log-barrier outer loop with damped Newton centering.

    Minimizes t*f + phi for increasing t, where phi collects -log of the
    power-floor slacks, the budget slack, and (when a minimum rate is set)
    the rate slacks; stops once the duality-gap bound m/t drops below the
    tolerance.  The Newton matrix (the per-beam objective blocks, the
    diagonal floor curvature, the budget's rank-one coupling and, with a
    minimum rate, the rate-slack curvature) is assembled and solved as one
    dense system.  ``log`` receives one structured text line per outer
    iteration.
    """
    if params is None:
        params = BarrierParams()
    start = feasible_start(prob)
    if not start.feasible:
        return OptSolution(
            p_matrix=None,
            objective_value=float("nan"),
            kkt_residual=float("inf"),
            iterations=0,
            status="infeasible",
        )

    var = prob._var_pos
    delta_pos = prob._delta_pos
    p_pos = _to_pos(prob, start.p0)
    p_pos[~var] = delta_pos[~var]
    n, k = var.shape
    n_var = int(var.sum())
    with_rate = prob.r_min > 0
    m_constraints = n_var + 1 + (n * k if with_rate else 0)

    def slacks(pp):
        s1 = pp - delta_pos
        s2 = prob.p_sum - pp.sum()
        return s1, s2

    def barrier_value(pp, t):
        s1, s2 = slacks(pp)
        if s2 <= 0 or (s1[var] <= 0).any():
            return np.inf
        val = t * _objective_pos(prob, pp) - np.log(s1[var]).sum() - np.log(s2)
        if with_rate:
            s3 = _rates_pos(prob, pp) - prob.r_min
            if (s3 <= 0).any():
                return np.inf
            val -= np.log(s3).sum()
        return float(val)

    def barrier_grad(pp, t):
        """Gradient of the barrier objective over the free entries (zeros elsewhere)."""
        s1, s2 = slacks(pp)
        g = t * _gradient_pos(prob, pp)
        g[var] -= 1.0 / s1[var]
        g += 1.0 / s2
        if with_rate:
            rates, u, z = _rate_constraint_parts(prob, pp)
            s3 = rates - prob.r_min
            # d(-log s3_j)/dp_m = -(u_j [m>=j] - z_j [m>=j+1]) / (ln2 * s3_j),
            # so summing over j gives prefix sums up to m (and m-1 for z)
            cu = np.cumsum(u / s3, axis=1)
            cz = np.cumsum(z / s3, axis=1)
            extra = cu.copy()
            extra[:, 1:] -= cz[:, :-1]
            g -= extra / LN2
        g[~var] = 0.0
        return g

    def newton_direction(pp, t):
        # the budget's rank-one coupling goes straight into the dense system;
        # eliminating it by a low-rank update cancels catastrophically once
        # the budget constraint is strongly active
        s1, s2 = slacks(pp)
        g = barrier_grad(pp, t)
        blocks = t * _hessian_blocks(prob, pp)
        diag = np.zeros_like(pp)
        diag[var] = 1.0 / s1[var] ** 2
        sigma = 1.0 / s2**2
        return _dense_direction(prob, pp, t, g, blocks, diag, sigma)

    def center(pp, t, max_steps, tol=None):
        tol = params.newton_tol if tol is None else tol
        steps = 0
        for _ in range(max_steps):
            dx, lam2, g = newton_direction(pp, t)
            if lam2 <= 0 or lam2 / 2.0 <= tol:
                break
            # largest step keeping the floor and budget slacks positive
            alpha = 1.0
            neg = dx < 0
            if neg.any():
                alpha = min(alpha, 0.99 * float(((pp - delta_pos)[neg] / -dx[neg]).min()))
            climb = float(dx.sum())
            if climb > 0:
                alpha = min(alpha, 0.99 * (prob.p_sum - float(pp.sum())) / climb)
            # in the quadratic phase the true decrease falls below the float
            # granularity of t*f, so only feasibility is checked there
            quad_phase = lam2 / 2.0 <= 0.1
            phi0 = None if quad_phase else barrier_value(pp, t)
            slope = float((g * dx).sum())
            halvings = 0
            while halvings < 60:
                trial = pp + alpha * dx
                phi_trial = barrier_value(trial, t)
                if np.isfinite(phi_trial) and (
                    quad_phase or phi_trial <= phi0 + params.armijo * alpha * slope
                ):
                    break
                alpha *= params.backtrack
                halvings += 1
            else:
                return pp, steps, False  # line search stalled
            pp = pp + alpha * dx
            steps += 1
        return pp, steps, True

    t = params.t0
    total_steps = 0
    converged_gap = False
    for _ in range(params.max_outer):
        p_pos, steps, ok = center(p_pos, t, params.max_newton)
        total_steps += steps
        gap = m_constraints / t
        if log is not None:
            log.write(
                f"t={t:.6g} gap={gap:.3e} newton={steps} "
                f"objective={_objective_pos(prob, p_pos):.9g}\n"
            )
        if not ok:
            break
        if gap < params.tol:
            converged_gap = True
            break
        t *= params.mu
    residual = _kkt_residual(prob, p_pos, t, with_rate)
    # polish the final centering until the stationarity certificate is met
    polish = 0
    while converged_gap and residual > 1e-7 and polish < 30:
        p_try, steps, ok = center(p_pos, t, 1, tol=1e-20)
        polish += 1
        total_steps += steps
        if not ok or steps == 0:
            break
        p_pos = p_try
        residual = _kkt_residual(prob, p_pos, t, with_rate)

    p_user = _to_user(prob, p_pos)
    status = "converged" if converged_gap and residual < 1e-6 else "max-iterations"
    return OptSolution(
        p_matrix=p_user,
        objective_value=-objective(prob, p_user),
        kkt_residual=residual,
        iterations=total_steps,
        status=status,
    )


def _dense_direction(prob, pp, t, g, blocks, diag, sigma):
    """Assemble and solve the full Newton system over the free entries."""
    var = prob._var_pos
    n, k = var.shape
    live_idx = np.flatnonzero(var.ravel())
    size = live_idx.size
    h_full = np.zeros((n * k, n * k))
    for row in range(n):
        sl = slice(row * k, (row + 1) * k)
        h_full[sl, sl] = blocks[row]
    h_full[np.arange(n * k), np.arange(n * k)] += diag.ravel()
    if prob.r_min > 0:
        rates, u, z = _rate_constraint_parts(prob, pp)
        s3 = rates - prob.r_min
        for row in range(n):
            base = row * k
            for j in range(k):
                grad = np.zeros(k)
                grad[j:] += u[row, j]
                grad[j + 1 :] -= z[row, j]
                grad /= LN2
                curv = np.zeros((k, k))
                curv[j:, j:] += u[row, j] ** 2
                curv[j + 1 :, j + 1 :] -= z[row, j] ** 2
                curv /= -LN2  # Hessian of the rate itself
                sl = slice(base, base + k)
                h_full[sl, sl] += np.outer(grad, grad) / s3[row, j] ** 2
                h_full[sl, sl] -= curv / s3[row, j]
    h_full += sigma
    h_live = h_full[np.ix_(live_idx, live_idx)]
    rhs = -g.ravel()[live_idx]
    # Jacobi scaling keeps the solve usable when near-active constraints
    # drive the barrier curvature many orders above the objective's
    scale = np.sqrt(np.abs(np.diag(h_live)))
    scale[scale == 0] = 1.0
    h_scaled = h_live / scale[:, None] / scale[None, :]
    rhs_scaled = rhs / scale
    ridge = 0.0
    for _ in range(6):
        try:
            sol = np.linalg.solve(h_scaled + ridge * np.eye(size), rhs_scaled) / scale
            break
        except np.linalg.LinAlgError:
            ridge = max(1e-10, ridge * 100 if ridge else 1e-10)
    else:
        sol = np.linalg.lstsq(h_scaled, rhs_scaled, rcond=None)[0] / scale
    dx = np.zeros(n * k)
    dx[live_idx] = sol
    dx = dx.reshape(n, k)
    lam2 = float(-(g * dx).sum())
    return dx, lam2, g


def _kkt_residual(prob: OptProblem, p_pos: np.ndarray, t: float, with_rate: bool) -> float:
    """Stationarity residual with multipliers reconstructed from the barrier.

    lambda_i = 1/(t * slack_i); the residual is the max-norm of
    grad f + sum_i lambda_i grad g_i over the free entries.
    """
    var = prob._var_pos
    s1 = p_pos - prob._delta_pos
    s2 = prob.p_sum - p_pos.sum()
    res = _gradient_pos(prob, p_pos).copy()
    res[var] -= 1.0 / (t * s1[var])
    res += 1.0 / (t * s2)
    if with_rate:
        rates, u, z = _rate_constraint_parts(prob, p_pos)
        s3 = rates - prob.r_min
        cu = np.cumsum(u / s3, axis=1)
        cz = np.cumsum(z / s3, axis=1)
        extra = cu.copy()
        extra[:, 1:] -= cz[:, :-1]
        res -= extra / (LN2 * t)
    return float(np.abs(res[var]).max()) if var.any() else 0.0
