"""Output checks made apart from the program.

Every check returns a list of failure strings, each starting with the name
of the property it tests; an empty list means the output passed.  The
checks use the package only for the quantities they take as given (the
channels, the ZF beams and the link gains of a drop); the rates, the power
ladders, the water-filling bound and the reference solve are computed here.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from lsapdma import (
    SingularChannelError,
    compute_zfbf,
    drop_users,
    oma_pattern,
    pnoma_pattern,
    select_users,
    simple_beam_allocation,
)
from lsapdma.channel import user_channels
from lsapdma.pattern import equal_power
from lsapdma.receiver import build_link_state

LN2 = float(np.log(2.0))

# relative agreement of a recomputed sum rate with the program's
RATE_RTOL = 1e-9
# leakage of a ZF beam into another beam's anchor, relative to the norms of
# the anchor's channel and the beam vector
ZF_NULL_RTOL = 1e-9
# bits by which an optimal sum rate may sit below the water-filling bound:
# the anchors' power floors (1e-6 of the budget) and the barrier's stopping
# gap keep it a little below; measured at most 1.5e-6 bits on fig5 drops
WATERFILL_TOL_BITS = 1e-4
# bits by which the reference solve may beat a rate-floor solution
REFERENCE_TOL_BITS = 1e-6
# slack allowed on the rate floors and the budget of a rate-floor solution
FEASIBILITY_TOL = 1e-9


def sic_order(gains_row: np.ndarray, users: np.ndarray) -> np.ndarray:
    """Users decoded weakest first: ascending gain, ties by lower index."""
    return users[np.lexsort((users, gains_row[users]))]


def sic_rates(gains: np.ndarray, powers: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Per-pair rates under SIC, zero outside ``support``.

    Within each beam the covered users are decoded weakest first; a user
    treats the powers of the users decoded after it as interference:
    rate = log2(1 + h^2 p / (1 + h^2 * later power)).
    """
    rates = np.zeros(gains.shape)
    for n in range(gains.shape[0]):
        order = sic_order(gains[n], np.flatnonzero(support[n]))
        p = powers[n, order]
        h2 = gains[n, order] ** 2
        later = np.cumsum(p[::-1])[::-1] - p
        rates[n, order] = np.log2(1.0 + h2 * p / (1.0 + h2 * later))
    return rates


def ladder(gains, covered, powered, p0, mu, p_sum) -> np.ndarray:
    """Fixed-ratio powers: p0, mu*p0, mu^2*p0, ... along each beam's SIC order
    over the powered users, scaled so the matrix sums to ``p_sum``."""
    p = np.zeros(gains.shape)
    for n in range(gains.shape[0]):
        order = sic_order(gains[n], np.flatnonzero(covered[n]))
        users = order[powered[n, order]]
        p[n, users] = p0 * mu ** np.arange(len(users))
    return p * (p_sum / p.sum())


def waterfill_bound(gains: np.ndarray, support: np.ndarray, p_sum: float) -> float:
    """max sum_n log2(1 + h_n,max^2 P_n) over P_n >= 0 with sum_n P_n = p_sum.

    Within one beam the SIC sum rate telescopes and is at most
    log2(1 + h_max^2 P_n), so this bounds every power matrix on ``support``.
    """
    h2 = np.where(support, gains, 0.0).max(axis=1) ** 2
    levels = np.sort(1.0 / h2[h2 > 0])
    for m in range(len(levels), 0, -1):
        water = (p_sum + levels[:m].sum()) / m
        if water > levels[m - 1]:
            return float(np.log2(water / levels[:m]).sum())
    return 0.0


def rate_mismatch(name: str, got: float, want: float) -> list[str]:
    if abs(got - want) <= RATE_RTOL * max(1.0, abs(want)):
        return []
    return [f"{name}: program {got!r} vs recomputed {want!r}"]


def zf_null_failures(channels, beams) -> list[str]:
    """Every ZF beam is nulled at every other beam's anchor."""
    out = []
    for n in range(beams.n_beams):
        f_n = beams.beam_matrix[:, n]
        for m, user in beams.selected.pairs:
            if m == n:
                continue
            g = channels[user].entries
            leak = np.linalg.norm(g @ f_n) / (np.linalg.norm(g) * np.linalg.norm(f_n))
            if not leak <= ZF_NULL_RTOL:
                out.append(f"zf-null: beam {n} leaks {leak:.3e} into the anchor of beam {m}")
    return out


def scheme_runs(cfg):
    """(label, K, pattern kind, power policy, ladder ratios) per evaluation of a drop."""
    runs = []
    for scheme in cfg.schemes:
        if scheme == "oma":
            runs.append(("oma", cfg.n_beams, "oma", "equal", (None,)))
        elif scheme == "pnoma":
            runs.append(("pnoma", 2 * cfg.n_beams, "pnoma", "fixed-ratio", (cfg.pnoma_mu,)))
        else:
            for k in cfg.users:
                for policy in cfg.policies:
                    label = "lsa-pdma-simple" if policy == "fixed-ratio" else "lsa-pdma-optimal"
                    mus = cfg.mu if policy == "fixed-ratio" else (None,)
                    runs.append((label, k, cfg.pattern_policy, policy, mus))
    return runs


def draw(cfg, k, kind, state):
    """Channels, pattern, anchors and ZF beams of one drop, redrawn while singular."""
    rng = np.random.Generator(np.random.Philox(state))
    while True:
        users = drop_users(cfg.cell, k, rng)
        channels = user_channels(cfg.cell, users, cfg.n_rx, cfg.n_tx, rng)
        hints = np.array([ch.large_scale_gain for ch in channels])
        weakest_first = np.argsort(hints, kind="stable")
        if kind == "oma":
            pattern = oma_pattern(cfg.n_beams)
        elif kind == "pnoma":
            pattern = pnoma_pattern(cfg.n_beams, weakest_first)
        elif kind == "fixed":
            pattern = cfg.fixed_pattern
        else:
            pattern = simple_beam_allocation(cfg.n_beams, k, weakest_first)
        omega = select_users(channels, pattern, hints)
        try:
            return channels, pattern, compute_zfbf(channels, omega)
        except SingularChannelError:
            continue


def expected_rates(cfg, state):
    """What each record of one drop must hold, and the drop's ZF failures.

    Returns ({(scheme, K, sweep): ("rate", value) | ("bound", value)}, failures).
    Equal and fixed-ratio records must equal the recomputed rate; optimal
    records must sit within WATERFILL_TOL_BITS below the bound.
    """
    sigma2 = cfg.cell.noise_variance
    mu_axis = len(cfg.mu) > 1
    want, failures = {}, []
    for label, k, kind, policy, mus in scheme_runs(cfg):
        channels, pattern, beams = draw(cfg, k, kind, state)
        failures += zf_null_failures(channels, beams)
        nulled = beams.selected.nulled(pattern)
        covered = pattern.entries == 1
        powered = covered & ~nulled
        for db in cfg.p_sum_db:
            p_sum = 10.0 ** (db / 10.0)
            link = build_link_state(channels, beams, equal_power(pattern, p_sum, nulled), sigma2)
            gains = link.gains
            if policy == "equal":
                p_eq = np.where(powered, p_sum / powered.sum(), 0.0)
                values = {None: ("rate", sic_rates(gains, p_eq, covered).sum())}
            elif policy == "fixed-ratio":
                values = {
                    mu: ("rate", sic_rates(gains, ladder(gains, covered, powered, cfg.p0_ratio, mu, p_sum), covered).sum())
                    for mu in mus
                }
            else:
                support = covered if cfg.strict_pattern else np.ones_like(covered)
                values = {None: ("bound", waterfill_bound(gains, support, p_sum))}
            for mu, value in values.items():
                if not mu_axis:
                    sweeps = [db]
                elif policy == "fixed-ratio" and label.startswith("lsa-pdma"):
                    sweeps = [mu]
                else:
                    sweeps = list(cfg.mu)
                for sweep in sweeps:
                    want[(label, k, float(sweep))] = value
    return want, failures


def drop_failures(cfg, state, got: dict) -> list[str]:
    """Check one drop's sum rates, keyed by (scheme, K, sweep value), against
    the rates recomputed from its link gains."""
    want, failures = expected_rates(cfg, state)
    if set(got) != set(want):
        failures.append(f"records: keys {sorted(set(got) ^ set(want))} missing or unexpected")
    for key in set(got) & set(want):
        kind, value = want[key]
        if kind == "rate":
            failures += rate_mismatch(f"sum-rate {key}", got[key], value)
        else:
            failures += waterfill_failures(key, got[key], value)
    if "oma" in cfg.schemes and cfg.n_beams in cfg.users and "fixed-ratio" in cfg.policies:
        failures += k_equals_n_failures(cfg, got)
    return failures


def waterfill_failures(key, rate: float, bound: float) -> list[str]:
    """An optimal sum rate lies at or below the water-filling bound, and close to it."""
    if rate > bound + RATE_RTOL * max(1.0, bound):
        return [f"waterfill {key}: {rate!r} above the bound {bound!r}"]
    if not rate >= bound - WATERFILL_TOL_BITS:
        return [f"waterfill {key}: {rate!r} more than {WATERFILL_TOL_BITS} bits below {bound!r}"]
    return []


def k_equals_n_failures(cfg, got) -> list[str]:
    """Each K = N fixed-ratio record equals the same drop's OMA rate to round-off."""
    out = []
    mu_axis = len(cfg.mu) > 1
    for db in cfg.p_sum_db:
        for mu in cfg.mu:
            sweep = float(mu if mu_axis else db)
            simple = got.get(("lsa-pdma-simple", cfg.n_beams, sweep))
            oma = got.get(("oma", cfg.n_beams, sweep))
            if simple is None or oma is None:
                continue
            if abs(simple - oma) > RATE_RTOL * max(1.0, abs(oma)):
                out.append(f"k-equals-n {sweep}: fixed-ratio {simple!r} vs oma {oma!r}")
    return out


# --- rate-floor solves -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FloorInstance:
    """One rate-floor problem: gains (N x K), budget, anchor pairs and floor."""

    gains: np.ndarray
    p_sum: float
    anchors: tuple
    r_min: float
    epsilon: float

    @property
    def delta(self) -> np.ndarray:
        d = np.zeros(self.gains.shape)
        for n, k in self.anchors:
            d[n, k] = self.epsilon
        return d


def floor_instance(rng: np.random.Generator, n: int, k: int, budget_db: float) -> FloorInstance:
    """A rate-floor instance whose floor is feasible by construction.

    Gains are log-normal (unit log-deviation), and each beam anchors a
    distinct random user with a power floor of 1e-6 of the budget.  The
    rate floor is 0.6 of the smallest rate at the start point: the anchor
    floors plus half the rest of the budget split equally over all pairs.
    That point meets every constraint strictly, so the problem is feasible.
    """
    gains = np.exp(rng.normal(0.0, 1.0, (n, k)))
    p_sum = 10.0 ** (budget_db / 10.0)
    users = rng.permutation(k)[:n]
    inst = FloorInstance(
        gains=gains,
        p_sum=p_sum,
        anchors=tuple((b, int(users[b])) for b in range(n)),
        r_min=0.0,
        epsilon=1e-6 * p_sum,
    )
    start = start_point(inst)
    floor = 0.6 * sic_rates(gains, start, np.ones((n, k), bool)).min()
    return dataclasses.replace(inst, r_min=float(floor))


def start_point(inst: FloorInstance) -> np.ndarray:
    delta = inst.delta
    return delta + 0.5 * (inst.p_sum - delta.sum()) / delta.size


def rate_jacobian(gains: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """d rate(n, k) / d p(n, j), flattened row-major into an (NK, NK) matrix.

    With a_j = 1/h_j^2 and T_j the power decoded from position j on, the
    rate at position j is log2((a_j + T_j) / (a_j + T_{j+1})).
    """
    n_beams, k = gains.shape
    jac = np.zeros((n_beams * k, n_beams * k))
    every = np.arange(k)
    for n in range(n_beams):
        order = sic_order(gains[n], every)
        a = 1.0 / gains[n, order] ** 2
        suffix = np.cumsum(powers[n, order][::-1])[::-1]
        after = np.append(suffix[1:], 0.0)
        for j in range(k):
            g = np.zeros(k)
            g[j:] += 1.0 / (a[j] + suffix[j])
            g[j + 1 :] -= 1.0 / (a[j] + after[j])
            jac[n * k + order[j], n * k + order] = g / LN2
    return jac


def reference_solve(inst: FloorInstance):
    """Sum-rate maximum by scipy's SLSQP from the start point.

    Returns the objective of the reference optimum, or None when SLSQP ends
    at a point that breaks a constraint (then it cannot beat anything).
    """
    from scipy.optimize import minimize

    shape = inst.gains.shape
    every = np.ones(shape, bool)
    full = lambda x: x.reshape(shape)  # noqa: E731
    res = minimize(
        lambda x: -sic_rates(inst.gains, full(x), every).sum(),
        start_point(inst).ravel(),
        jac=lambda x: -rate_jacobian(inst.gains, full(x)).sum(axis=0),
        method="SLSQP",
        bounds=[(d, None) for d in inst.delta.ravel()],
        constraints=[
            {
                "type": "ineq",
                "fun": lambda x: sic_rates(inst.gains, full(x), every).ravel() - inst.r_min,
                "jac": lambda x: rate_jacobian(inst.gains, full(x)),
            },
            {"type": "ineq", "fun": lambda x: inst.p_sum - x.sum(), "jac": lambda x: -np.ones(x.size)},
        ],
        options={"maxiter": 500, "ftol": 1e-12},
    )
    if feasibility_failures(inst, full(res.x)):
        return None
    return float(sic_rates(inst.gains, full(res.x), every).sum())


def feasibility_failures(inst: FloorInstance, p) -> list[str]:
    """Power floors, budget and every rate floor hold at ``p``."""
    if p is None:
        return ["rate-floor-feasible: no power matrix returned"]
    p = np.asarray(p, dtype=float)
    out = []
    if p.shape != inst.gains.shape or not np.isfinite(p).all():
        return ["rate-floor-feasible: power matrix has the wrong shape or non-finite entries"]
    if (p < inst.delta - FEASIBILITY_TOL * inst.p_sum).any():
        out.append("rate-floor-feasible: a power below its floor")
    if p.sum() > inst.p_sum * (1.0 + FEASIBILITY_TOL):
        out.append(f"rate-floor-feasible: total power {p.sum()!r} above the budget {inst.p_sum!r}")
    rates = sic_rates(inst.gains, p, np.ones(p.shape, bool))
    if rates.min() < inst.r_min - FEASIBILITY_TOL * max(1.0, inst.r_min):
        out.append(f"rate-floor-feasible: a rate {rates.min()!r} below the floor {inst.r_min!r}")
    return out


def floor_failures(inst: FloorInstance, p, objective: float) -> list[str]:
    """A rate-floor solution is feasible, its objective is its sum rate, and
    the reference solve does not beat it."""
    out = feasibility_failures(inst, p)
    if out:
        return out
    rate = float(sic_rates(inst.gains, np.asarray(p, float), np.ones(inst.gains.shape, bool)).sum())
    out += rate_mismatch("rate-floor objective", objective, rate)
    ref = reference_solve(inst)
    if ref is not None and ref > rate + REFERENCE_TOL_BITS:
        out.append(f"rate-floor-optimal: reference solve reaches {ref!r} > {rate!r}")
    return out
