"""Interior-point optimization of the merged beam/power mapping matrix.

For fixed equivalent gains, the negative sum rate is convex in the merged
power matrix: within each beam, writing the rates against the ascending-gain
decoding order turns the objective into a telescoping sum of logs of suffix
power sums, whose Hessian has a nested nonnegative structure (rank-one
blocks accumulating down the order).  Without per-link minimum rates the
optimum has a closed form, water-filling over the beams' strongest users.
``water_fills`` computes it for one (N, K) gain matrix or for a stack
(..., N, K) of them and their budgets at once, the bend-point search
included.  With minimum rates, a standard log-barrier method with damped
Newton centering (``barrier_solve``) finds the global optimum subject to
the per-entry power floors, the total power budget and the minimum rates.
Every rate it evaluates, the objective's and the rate constraints', goes
through the receiver's SIC SINR formula.

One kernel, ``_rate_terms``, gives the gradient and Hessian of any
weighted sum of the rates: the objective is the sum at weights -1, the
rate barrier the sum at weights -1/slack plus a Gauss-Newton term from the
rate Jacobians.  Phase I is exact: the least-power SIC allocation
(``_min_powers``) meets every rate floor and no feasible point spends less,
so it certifies infeasibility and, raised slightly, gives the start.

Conventions: the gain matrix is (beams x users); each beam's entries are
internally reindexed by SIC position (ascending gain, index tie-break,
sharing the receiver's ordering rule).  Entries with zero gain, or excluded
by a fixed pattern in strict mode, are pinned at their floor and eliminated
from the Newton system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pattern import flat_rows, left_sum
from .receiver import _sic_sinr, beam_sum_rates, sic_orders

LN2 = float(np.log(2.0))

# log-barrier schedule: the first t, its growth per outer iteration, the
# duality-gap bound m/t that stops it, and the outer iteration cap
BARRIER_T0 = 1.0
BARRIER_MU = 20.0
BARRIER_TOL = 1e-8
MAX_OUTER = 40
# damped Newton centering: the decrement that ends it, the Armijo fraction
# and backtracking factor of its line search, and the step cap per centering
NEWTON_TOL = 1e-10
ARMIJO = 0.01
BACKTRACK = 0.5
MAX_NEWTON = 200
# each ZF anchor's power floor as a share of the budget, so anchors keep power
ANCHOR_FLOOR = 1e-6


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
        if not self.r_min >= 0:
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

        ``selected`` is an iterable of (beam, user) pairs; each selected pair
        gets the floor ``epsilon`` (default ``ANCHOR_FLOOR`` of the budget)
        so the precoder's anchor users keep nonzero power.
        """
        gains = np.asarray(gains, dtype=float)
        if epsilon is None:
            epsilon = ANCHOR_FLOOR * p_sum
        return cls(
            gains=gains,
            p_sum=float(p_sum),
            delta=anchor_floors(gains, () if selected is None else selected, epsilon),
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
    """Raise unless a stack of instances (gains and floors (..., N, K),
    budgets (...)) has finite nonnegative gains, finite nonnegative floors
    of the gains' shape, and finite positive budgets that exceed each
    instance's floor sum.  Each test is phrased so that NaN fails it."""
    if not ((gains >= 0) & (gains < np.inf)).all():
        raise ValueError("gains must be finite and nonnegative")
    if delta.shape != gains.shape or not ((delta >= 0) & (delta < np.inf)).all():
        raise ValueError("delta must be a finite nonnegative matrix matching gains")
    if not ((p_sum > 0) & (p_sum < np.inf)).all():
        raise ValueError("p_sum must be positive and finite")
    if (delta.reshape(delta.shape[:-2] + (-1,)).sum(axis=-1) >= p_sum).any():
        raise ValueError("sum of power floors must stay below the budget")


def _free_entries(gains: np.ndarray, support) -> np.ndarray:
    """The optimization variables: positive gains, within ``support`` if given."""
    free = gains > 0
    return free if support is None else free & support


def anchor_floors(gains: np.ndarray, selected, epsilon) -> np.ndarray:
    """Power floors matching a gain matrix or stack (..., N, K): ``epsilon``
    on each selected (beam, user) pair of every matrix, zero elsewhere.

    ``selected`` is an iterable of (beam, user) pairs (the ZF anchors).
    ``epsilon`` is one floor, or one per matrix of the stack, broadcasting
    to ``gains.shape[:-2]``.
    """
    marked = np.zeros(np.shape(gains)[-2:], dtype=bool)
    for beam, user in selected:
        marked[beam, user] = True
    delta = np.zeros(np.shape(gains))
    np.copyto(delta, np.asarray(epsilon, dtype=float)[..., None, None], where=marked)
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


def _rate_terms(prob: OptProblem, p_pos: np.ndarray, w):
    """Gradient (N, K) and per-beam Hessian blocks (N, K, K) of the rate
    sum sum_j w_j rate_j, position space; ``w`` is a scalar or (N, K).

    rate_j = log2((a_j + T_j)/(a_j + T_{j+1})) has the gradient
    (u_j [m >= j] - z_j [m >= j+1])/ln2 in p_m and the Hessian
    -(u_j^2 [m,q >= j] - z_j^2 [m,q >= j+1])/ln2, so the weighted sum's are
    prefix sums of w u and w z up to m and m - 1, and of w u^2 and w z^2 up
    to min(m, q) and one less.
    """
    u, z = _suffix_terms(prob, p_pos)
    wu = w * u
    wz = w * z
    grad = np.cumsum(wu, axis=1)
    grad[:, 1:] -= np.cumsum(wz[:, :-1], axis=1)
    grad /= LN2
    acc = np.cumsum(wu * u, axis=1)
    acc[:, 1:] -= np.cumsum((wz * z)[:, :-1], axis=1)
    acc /= -LN2
    k = p_pos.shape[1]
    return grad, acc[:, np.minimum.outer(np.arange(k), np.arange(k))]


def _rate_jacobians(prob: OptProblem, p_pos: np.ndarray) -> np.ndarray:
    """Per-beam rate Jacobians (N, K, K), position space: entry [n, j, m] is
    d rate_j / d p_m = (u_j [m >= j] - z_j [m >= j+1])/ln2 on beam n."""
    u, z = _suffix_terms(prob, p_pos)
    m = np.arange(p_pos.shape[1])
    return (u[:, :, None] * (m >= m[:, None]) - z[:, :, None] * (m > m[:, None])) / LN2


def gradient(prob: OptProblem, p: np.ndarray) -> np.ndarray:
    """Analytic gradient of the objective, in user-index space."""
    p = np.asarray(p, dtype=float)
    if p.shape != prob.gains.shape:
        raise ValueError("power matrix must match the gain shape")
    return _to_user(prob, _rate_terms(prob, _to_pos(prob, p), -1.0)[0])


def hessian(prob: OptProblem, p: np.ndarray, beam: int) -> np.ndarray:
    """One beam's objective Hessian in SIC-position space (ascending gain).

    Entry (i, j) is c[min(i, j)], with the accumulator c[m] = (sum_{l<=m}
    u_l^2 - sum_{l<=m-1} z_l^2)/ln2 of ``_rate_terms`` at weights -1.
    For ascending gains c[0] >= 0 and c is nondecreasing along the order, so
    the matrix is a sum of nonnegative multiples of all-ones trailing blocks:
    symmetric positive semidefinite.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != prob.gains.shape:
        raise ValueError("power matrix must match the gain shape")
    return _rate_terms(prob, _to_pos(prob, p), -1.0)[1][beam]


def water_fills(
    gains: np.ndarray, p_sum, delta: np.ndarray, support: np.ndarray | None = None, orders: np.ndarray | None = None
) -> np.ndarray:
    """Sum-rate-optimal power matrices without rate floors, in closed form,
    for a stack of gain matrices (..., N, K) at once.

    Matrix i has the gains ``gains[i]``, the budget ``p_sum[i]`` and the
    floors ``delta[i]`` (of the gains' shape); ``p_sum`` broadcasts to the
    stack's leading axes, so one (N, K) matrix takes one budget.
    ``support``, if given, restricts the variables to the pattern's pairs
    (strict mode) and broadcasts to the gains.  ``orders``, if given, must
    be ``receiver.sic_orders(gains)``, which a caller that already sorted
    the stack passes so it is not sorted twice; without it the stack is
    sorted here.  The checks are those of ``OptProblem``, run once on the
    stack.

    Within one beam the sum rate's marginal with respect to the power at SIC
    position m is g_m = (sum_{j<=m} u_j - sum_{j<m} z_j)/ln2 (the negated
    gradient of ``_rate_terms``), so g_{m+1} - g_m = (1/(a_{m+1} + T_{m+1})
    - 1/(a_m + T_{m+1}))/ln2 >= 0, because the ascending order gives
    a_{m+1} <= a_m.  The marginal never decreases along the decoding order,
    so every free entry sits at its floor except the beam's last-decoded
    (strongest) free user; between equal gains the beam rate depends only
    on their total, so the index rule of the order may pick.  That user gets
    s_n = max(floor, W - L_n), where L_n is 1/h^2 plus the power pinned
    after it in the order, and the water level W makes the matrix sum to
    its budget (Boyd & Vandenberghe, Convex Optimization, sec. 5.5.3).

    Without floors on earlier-decoded users (so always without floors) this
    is the exact optimum, sum_n log2(1 + s_n/L_n).  Such floors take s_n as
    interference, which moves the beam's marginal by a term of the floors'
    order that W ignores; the rate lost is of second order in the floors.
    Beams with no free entry are skipped, and with none at all the floors
    are returned.

    Each beam's strongest free user and its level L_n come from the orders
    at once; a (matrix, beam) with no free entry is masked out.  The bend
    point search then evaluates the level W of every candidate segment of
    every matrix and keeps, per matrix, the one the sequential search
    would stop at: the largest count m whose W reaches its m-th lowest
    bend, or m = 1 when none does.  Every total over beams, positions or
    entries is a masked ``left_sum``, so a matrix gets the same powers
    stacked as alone, and a user appended with zero gain and no floor (a
    pad of the harness's padded stack) is never free and leaves every
    other entry's power bit for bit as it is.
    """
    gains = np.asarray(gains, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if gains.ndim < 2:
        raise ValueError("gains must be a matrix or a stack of matrices (..., N, K)")
    shape = gains.shape
    p_sum = np.broadcast_to(np.asarray(p_sum, dtype=float), shape[:-2])
    _check_instances(gains, delta, p_sum)
    free = _free_entries(gains, None if support is None else np.broadcast_to(np.asarray(support, dtype=bool), shape))
    matrices = (-1,) + shape[-2:]
    gains, delta, free, p_sum = gains.reshape(matrices), delta.reshape(matrices), free.reshape(matrices), p_sum.reshape(-1)
    if orders is None:
        orders = sic_orders(gains)
    elif np.shape(orders) != shape:
        raise ValueError("orders must be the SIC orders of the gains, of their shape")
    n_budgets, n_beams, n_users = gains.shape
    # flat positions of each beam's users in decoding order, and of each
    # beam's strongest free user (the last free position)
    rows = n_budgets * n_beams
    at = flat_rows(np.reshape(orders, (rows, n_users)), (rows, n_users))
    free_pos = free.reshape(-1)[at]
    picked = free_pos.any(axis=-1)  # per (budget, beam): a free entry exists
    last = n_users - 1 - np.argmax(free_pos[:, ::-1], axis=-1)
    served = at[np.arange(len(at)), last]
    after = np.arange(n_users) > last[:, None]
    pinned = left_sum(np.where(after, delta.reshape(-1)[at], 0.0))
    h = np.where(picked, gains.reshape(-1)[served], 1.0)
    own = delta.reshape(-1)[served]
    per_beam = (n_budgets, n_beams)
    levels = (1.0 / h**2 + pinned).reshape(per_beam)
    floors = np.where(picked, own, 0.0).reshape(per_beam)
    picked = picked.reshape(per_beam)
    budget = p_sum - left_sum(delta.reshape(n_budgets, -1)) + left_sum(floors)
    # sum_n max(floor_n, W - L_n) grows with W and bends at L_n + floor_n:
    # the level lies on the segment where the m lowest bends are passed
    bends = np.where(picked, levels + floors, np.inf)
    rank = np.argsort(bends, axis=-1, kind="stable")  # beams with no free entry last
    ranked = np.arange(n_budgets)[:, None], rank
    m = np.arange(1, n_beams + 1)
    below = np.cumsum(levels[ranked], axis=-1)  # levels of the m lowest bends
    # floors of the bends above the m lowest (beams with no free entry add 0)
    beyond = np.arange(n_beams) >= m[:, None]
    above = left_sum(np.where(beyond, floors[ranked][:, None], 0.0))
    water = (budget[:, None] - above + below) / m  # (D, m)
    reached = water >= bends[ranked]  # never at an infinite bend
    pick = np.where(reached.any(axis=-1), n_beams - 1 - np.argmax(reached[:, ::-1], axis=-1), 0)
    level = water[np.arange(n_budgets), pick][:, None]
    p = delta.copy()
    filled = np.where(picked, np.maximum(floors, level - levels), own.reshape(per_beam))
    p.reshape(-1)[served] = filled.reshape(-1)
    return p.reshape(shape)


def check_constraints(prob: OptProblem, p: np.ndarray) -> ConstraintSlacks:
    """Standard-form constraint values at a candidate power matrix."""
    p = np.asarray(p, dtype=float)
    rates_user = _to_user(prob, _rates_pos(prob, _to_pos(prob, p)))
    return ConstraintSlacks(
        g1=prob.delta - p,
        g2=float(p.sum() - prob.p_sum),
        g3=prob.r_min - rates_user,
    )


def _min_powers(prob: OptProblem, c: float, tau) -> np.ndarray:
    """Least SIC powers giving every link the SINR ``c``, raised by ``tau``
    (a scalar or (N, K)), position space (N, K).

    Backward over the SIC positions, p_j = max(delta_j, c*(a_j + T_{j+1}))
    + tau_j, T_{j+1} the powers already set after position j (Zhu et al., "On
    Optimal Power Allocation for Downlink Non-Orthogonal Multiple Access
    Systems", IEEE JSAC 2017).  Each lower bound grows with the power
    decoded after it, so at tau = 0 no point meeting the floors spends less.
    A zero gain (a = inf) gives infinite power.
    """
    p_pos = np.empty_like(prob._a_pos)
    tau = np.broadcast_to(tau, p_pos.shape)
    after = np.zeros(len(p_pos))
    for j in reversed(range(p_pos.shape[1])):
        p_pos[:, j] = np.maximum(prob._delta_pos[:, j], c * (prob._a_pos[:, j] + after)) + tau[:, j]
        after = after + p_pos[:, j]
    return p_pos


def feasible_start(prob: OptProblem) -> np.ndarray | None:
    """Strictly feasible starting point (user-index space), or ``None`` when
    no strictly feasible point exists.

    Without a minimum rate: the floors plus an equal split of half the
    remaining budget over the free entries.  With one, c = 2^r_min - 1 is
    the SINR floor, and no point meeting the floors spends less than the
    least-power allocation ``_min_powers(prob, c, 0)``: the problem is
    infeasible exactly when that total reaches the budget (a zero gain
    makes it infinite).  Otherwise the start is the recursion at c*(1 +
    theta), each power raised by theta times its floor plus the spare
    budget over 2NK, so every margin is relative to what it must clear,
    with theta halved until every slack is positive as ``barrier_solve``
    sums it: the budget's in SIC-position order, where a point on the
    budget to round-off can have a zero slack that is positive in user order.
    """
    if prob.r_min == 0:
        var = prob._var
        p0 = prob.delta.copy()
        if var.any():
            p0[var] += 0.5 * (prob.p_sum - prob.delta.sum()) / int(var.sum())
        return p0
    c = float(np.expm1(prob.r_min * LN2))  # 2^r_min - 1, accurate at small r_min
    spare = prob.p_sum - float(_min_powers(prob, c, 0.0).sum())
    theta = 1.0
    # a budget within round-off of the least total leaves no strictly
    # feasible float point; theta stops once it cannot move the target
    while spare > 0 and c * theta > np.spacing(c):
        p_pos = _min_powers(prob, c * (1.0 + theta), theta * (prob._delta_pos + spare / (2 * prob.gains.size)))
        if (
            prob.p_sum - p_pos.sum() > 0
            and (p_pos > prob._delta_pos).all()
            and (_rates_pos(prob, p_pos) > prob.r_min).all()
        ):
            return _to_user(prob, p_pos)
        theta /= 2.0
    return None


def barrier_solve(prob: OptProblem, log=None) -> OptSolution:
    """Log-barrier outer loop with damped Newton centering.

    Minimizes t*f + phi for t = BARRIER_T0, BARRIER_MU times that, ...,
    where phi collects -log of the power-floor slacks, the budget slack,
    and (when a minimum rate is set) the rate slacks; stops once the
    duality-gap bound m/t drops below ``BARRIER_TOL``, or after
    ``MAX_OUTER`` centerings (status ``max-iterations``).  The Newton
    matrix (the per-beam objective blocks, the diagonal floor curvature,
    the budget's rank-one coupling and, with a minimum rate, the rate-slack
    curvature) is assembled and solved as one dense system.  ``log``
    receives one structured text line per outer iteration.
    """
    p0 = feasible_start(prob)
    if p0 is None:
        return OptSolution(
            p_matrix=None,
            objective_value=float("nan"),
            kkt_residual=float("inf"),
            iterations=0,
            status="infeasible",
        )

    var = prob._var_pos
    delta_pos = prob._delta_pos
    p_pos = _to_pos(prob, p0)
    n_var = int(var.sum())
    with_rate = prob.r_min > 0
    m_constraints = n_var + 1 + (var.size if with_rate else 0)

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

    def newton_direction(pp, t):
        """Newton step, decrement and gradient of the barrier objective; the
        gradient is zero off the free entries."""
        s1, s2 = slacks(pp)
        grad, blocks = _rate_terms(prob, pp, -1.0)
        g = t * grad
        blocks = t * blocks
        g[var] -= 1.0 / s1[var]
        g += 1.0 / s2
        if with_rate:
            # -log s3_j has gradient -grad(rate_j)/s3_j and Hessian
            # -hess(rate_j)/s3_j + grad(rate_j) grad(rate_j)^T/s3_j^2
            s3 = _rates_pos(prob, pp) - prob.r_min
            rate_grad, rate_blocks = _rate_terms(prob, pp, -1.0 / s3)
            jac = _rate_jacobians(prob, pp) / s3[:, :, None]
            g += rate_grad
            blocks += rate_blocks + np.swapaxes(jac, 1, 2) @ jac
        g[~var] = 0.0
        diag = np.zeros_like(pp)
        diag[var] = 1.0 / s1[var] ** 2
        dx = _dense_direction(prob, g, blocks, diag, 1.0 / s2**2)
        return dx, float(-(g * dx).sum()), g

    def center(pp, t, max_steps, tol=None):
        tol = NEWTON_TOL if tol is None else tol
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
                    quad_phase or phi_trial <= phi0 + ARMIJO * alpha * slope
                ):
                    break
                alpha *= BACKTRACK
                halvings += 1
            else:
                return pp, steps, False  # line search stalled
            pp = pp + alpha * dx
            steps += 1
        return pp, steps, True

    t = BARRIER_T0
    total_steps = 0
    converged_gap = False
    for _ in range(MAX_OUTER):
        p_pos, steps, ok = center(p_pos, t, MAX_NEWTON)
        total_steps += steps
        gap = m_constraints / t
        if log is not None:
            log.write(
                f"t={t:.6g} gap={gap:.3e} newton={steps} "
                f"objective={_objective_pos(prob, p_pos):.9g}\n"
            )
        if not ok:
            break
        if gap < BARRIER_TOL:
            converged_gap = True
            break
        t *= BARRIER_MU
    residual = _kkt_residual(prob, p_pos, t)
    # polish the final centering until the stationarity certificate is met
    polish = 0
    while converged_gap and residual > 1e-7 and polish < 30:
        p_try, steps, ok = center(p_pos, t, 1, tol=1e-20)
        polish += 1
        total_steps += steps
        if not ok or steps == 0:
            break
        p_pos = p_try
        residual = _kkt_residual(prob, p_pos, t)

    p_user = _to_user(prob, p_pos)
    status = "converged" if converged_gap and residual < 1e-6 else "max-iterations"
    return OptSolution(
        p_matrix=p_user,
        objective_value=-objective(prob, p_user),
        kkt_residual=residual,
        iterations=total_steps,
        status=status,
    )


def _dense_direction(prob, g, blocks, diag, sigma):
    """Solve the Newton system over the free entries: the per-beam blocks
    (N, K, K) on the block diagonal, plus ``diag`` (N, K) on the diagonal and
    the budget's rank-one coupling ``sigma`` everywhere, against the
    gradient ``g``."""
    var = prob._var_pos
    n, k = var.shape
    live_idx = np.flatnonzero(var.ravel())
    h_full = np.zeros((n, k, n, k))
    h_full[np.arange(n), :, np.arange(n), :] = blocks + diag[:, :, None] * np.eye(k)
    # the budget's coupling goes straight into the dense system; eliminating
    # it by a low-rank update cancels catastrophically once the budget
    # constraint is strongly active
    h_live = (h_full.reshape(n * k, n * k) + sigma)[np.ix_(live_idx, live_idx)]
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
            sol = np.linalg.solve(h_scaled + ridge * np.eye(live_idx.size), rhs_scaled) / scale
            break
        except np.linalg.LinAlgError:
            ridge = max(1e-10, ridge * 100 if ridge else 1e-10)
    else:
        sol = np.linalg.lstsq(h_scaled, rhs_scaled, rcond=None)[0] / scale
    dx = np.zeros(n * k)
    dx[live_idx] = sol
    return dx.reshape(n, k)


def _kkt_residual(prob: OptProblem, p_pos: np.ndarray, t: float) -> float:
    """Stationarity residual with multipliers reconstructed from the barrier.

    lambda_i = 1/(t * slack_i); the residual is the max-norm of
    grad f + sum_i lambda_i grad g_i over the free entries.
    """
    var = prob._var_pos
    s1 = p_pos - prob._delta_pos
    s2 = prob.p_sum - p_pos.sum()
    res = _rate_terms(prob, p_pos, -1.0)[0]
    res[var] -= 1.0 / (t * s1[var])
    res += 1.0 / (t * s2)
    if prob.r_min > 0:
        s3 = _rates_pos(prob, p_pos) - prob.r_min
        res += _rate_terms(prob, p_pos, -1.0 / (t * s3))[0]
    return float(np.abs(res[var]).max()) if var.any() else 0.0
