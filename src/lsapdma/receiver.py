"""MMSE spatial filtering, scalar link reduction, SIC ordering, and rates.

Each user applies a linear MMSE filter to suppress inter-beam interference;
the filtered link then collapses to a scalar channel per (beam, user) pair
with an equivalent normalized amplitude gain h.  Within a beam, covered users
are decoded in ascending order of h: a user at SIC position k sees only the
powers of later-ordered (higher-gain) users as interference, and the
last-ordered user decodes interference-free.

The filters and gains of a drop come from one batched kernel over users:
every unit's users (a unit is one scheme evaluation of the drop, with its
own channels and ZF beams) are concatenated to a (U, N_R, N_T) stack, each
with its unit's beam matrix and its D signal statistics (one per
allocation, e.g. one equal split per budget), and one batched Cholesky
solve gives the (D, U, N_R, N) filters, stacked products the gains.
``drop_link_states`` runs it over a drop's units and pairs each allocation
with its gains as a ``LinkState``, whose SIC orders, SINRs and rates are
worked out on first read, so a caller that reads only the gains (the
optimal policy) or the orders (the fixed-ratio ladders) pays for nothing
else.  ``mmse_gains`` and ``link_states`` are its one-unit cases and
``build_link_state`` the one-allocation case of ``link_states``; a user's
outputs do not depend on the users stacked beside it.
``sinr`` takes one beam and a stack of power rows, so a sweep of power
ladders costs one call per beam.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .beamforming import BeamformerSet
from .channel import ChannelMatrix
from .pattern import PowerAllocation, correlation_matrix


@dataclass(frozen=True)
class LinkState:
    """Scalarized link quantities for one drop at one allocation.

    ``gains`` holds the noise-normalized amplitude gains h (beams x users)
    and ``power`` the allocation they serve.  ``sic_orders`` (the per-beam
    decoding orders: ascending gain, covered users only), ``sinrs`` and
    ``rates`` (the per-pair results) are computed from those two on first
    read and kept.
    """

    gains: np.ndarray
    power: PowerAllocation

    @cached_property
    def sic_orders(self) -> tuple[np.ndarray, ...]:
        support = self.power.pattern.entries.astype(bool)
        return tuple(sic_order(row, covered) for row, covered in zip(self.gains, support))

    @cached_property
    def sinrs(self) -> np.ndarray:
        rows = zip(self.gains, self.power.entries, self.sic_orders)
        return np.vstack([sinr(h, p, order) for h, p, order in rows])

    @cached_property
    def rates(self) -> np.ndarray:
        return np.log2(1.0 + self.sinrs)


def _mmse_kernel(g, f, a, sigma2):
    """Filters and gains of U users, each at D second moments.

    ``g`` (U, N_R, N_T) are the users' channels, ``f`` their beam matrices,
    (U, N_T, N) or one (N_T, N) for all, and ``a`` the second moments,
    (D, U, N, N) or (D, 1, N, N) for all.  Returns the filters
    (D, U, N_R, N) and the gains (D, U, N), user u's row n being beam n's
    gain.  Every product and the solve run slice by slice, so a user's
    outputs do not depend on the users stacked beside it.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if not (np.isfinite(g).all() and np.isfinite(a).all()):
        raise ValueError("non-finite inputs")
    gfa = (g @ f)[None] @ a  # (D, U, N_R, N)
    cov = gfa @ f.conj().swapaxes(-1, -2) @ g.conj().swapaxes(-1, -2)
    cov = cov + sigma2 * np.eye(g.shape[1])
    v = scipy.linalg.solve(cov, gfa, assume_a="pos")
    proj = v.conj().swapaxes(-1, -2) @ g @ f  # (D, U, N, N): row n is v_n^H G F
    powers = np.abs(proj) ** 2
    desired = np.diagonal(powers, axis1=-2, axis2=-1).copy()
    inter = powers.sum(axis=-1) - desired
    vnorm2 = np.sum(np.abs(v) ** 2, axis=-2)
    denom = inter + sigma2 * vnorm2
    h = np.zeros_like(desired)
    live = denom > 0  # only a zero filter column gives denom == 0
    h[live] = np.sqrt(desired[live] / denom[live])
    return v, h


def mmse_gains(
    channels: list[ChannelMatrix], beams: BeamformerSet, a: np.ndarray, sigma2: float
) -> tuple[np.ndarray, np.ndarray]:
    """MMSE filters and equivalent gains of every user at every signal statistic.

    ``a`` stacks D second moments of the superposed beam signal, shape
    (D, N, N).  For user k with channel G_k and statistic A_d the filter is

        V = (G F A F^H G^H + sigma2 I)^(-1) G F A,

    one batched Cholesky-based solve for all (d, k); the regularized matrix
    is Hermitian positive definite, so the solve always succeeds.  Column n
    of V estimates beam n's signal, and the (beam n, user k) link collapses
    to the amplitude gain

        h = sqrt(|v^H G f_n|^2 / (sum_{i != n} |v^H G f_i|^2 + sigma2 ||v||^2))

    with v that column.  A zero filter column (a beam carrying nothing
    toward the user) yields h = 0.  Returns the filters, shape
    (D, K, N_R, N), and the gains, shape (D, N, K).  This is the one-unit
    case of the kernel ``drop_link_states`` runs over a drop's units.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 3:
        raise ValueError("a must stack the second moments, shape (D, N, N)")
    g = np.stack([ch.entries for ch in channels])  # (K, N_R, N_T)
    v, h = _mmse_kernel(g, beams.beam_matrix, a[:, None], sigma2)
    return v, np.ascontiguousarray(h.swapaxes(-1, -2))


def sic_order(gains_row: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Covered users sorted by ascending gain, ties by ascending user index."""
    h = np.asarray(gains_row, dtype=float)
    idx = np.flatnonzero(np.asarray(covered, dtype=bool))
    return idx[np.argsort(h[idx], kind="stable")]


def sinr(gains_row: np.ndarray, power_row: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Per-user SINR along one beam under SIC.

    ``order`` lists the decoded users weakest first.  The user at position k
    is decoded treating earlier (weaker, already-cancelled) users as absent
    and later (stronger) users' powers as interference:

        gamma = h^2 p / (1 + h^2 * sum of later users' powers)

    and the last-ordered user sees no intra-beam interference.  Users not in
    the order get gamma = 0.  ``power_row`` may stack several power rows of
    the beam, shape (..., K); the SINRs then have that shape.
    """
    h = np.asarray(gains_row, dtype=float)
    p = np.asarray(power_row, dtype=float)
    if (p < 0).any():
        raise ValueError("powers must be nonnegative")
    order = np.asarray(order, dtype=int)
    out = np.zeros(p.shape)
    if order.size == 0:
        return out
    p_ord = p[..., order]
    # suffix[..., k] = sum of powers at positions k+1..end, summed from the end
    suffix = np.zeros_like(p_ord)
    suffix[..., :-1] = np.cumsum(p_ord[..., ::-1], axis=-1)[..., -2::-1]
    h2 = h[order] ** 2
    out[..., order] = h2 * p_ord / (1.0 + h2 * suffix)
    return out


def sum_rate(link) -> float:
    """Total rate sum_{n,k} log2(1 + gamma_nk) in bits/s/Hz.

    Accepts a LinkState or a raw matrix/vector of SINRs.
    """
    gammas = link.sinrs if isinstance(link, LinkState) else np.asarray(link, dtype=float)
    if (gammas < 0).any():
        raise ValueError("SINRs must be nonnegative")
    return float(np.log2(1.0 + gammas).sum())


def drop_link_states(units, sigma2: float) -> list[list[LinkState]]:
    """Receive chains of every unit of a drop from one MMSE kernel call.

    ``units`` lists (channels, beams, powers) triples, one per unit (one
    scheme evaluation), each with its own channels, ZF beams and D
    allocations; D must be the same for every unit.  Every unit's users are
    concatenated to one (U, N_R, N_T) stack, each with its unit's beam
    matrix and second moments, so the drop makes one batched solve.  Returns
    each unit's ``LinkState`` per allocation, equal bit for bit to a
    ``link_states`` call on that unit alone.
    """
    moments = [np.stack([correlation_matrix(p) for p in powers]) for _, _, powers in units]
    if len({m.shape[0] for m in moments}) != 1:
        raise ValueError("every unit needs the same number of allocations")
    sizes = [len(channels) for channels, _, _ in units]
    owner = np.repeat(np.arange(len(units)), sizes)  # the unit of each stacked user
    g = np.stack([ch.entries for channels, _, _ in units for ch in channels])
    f = np.stack([beams.beam_matrix for _, beams, _ in units])[owner]
    _, h = _mmse_kernel(g, f, np.stack(moments, axis=1)[:, owner], sigma2)
    out, start = [], 0
    for k, (_, _, powers) in zip(sizes, units):
        gains = np.ascontiguousarray(h[:, start : start + k].swapaxes(-1, -2))  # (D, N, K)
        out.append([LinkState(gains=h_d, power=power) for h_d, power in zip(gains, powers)])
        start += k
    return out


def link_states(
    channels: list[ChannelMatrix],
    beams: BeamformerSet,
    powers: list[PowerAllocation],
    sigma2: float,
) -> list[LinkState]:
    """Receive chain for one drop at each allocation: the filters matched to
    each allocation's signal statistics, all in one batched solve, and the
    gains they give.  The SIC orders, SINRs and rates follow on first read
    (see ``LinkState``).  The one-unit case of ``drop_link_states``.
    """
    return drop_link_states([(channels, beams, powers)], sigma2)[0]


def build_link_state(
    channels: list[ChannelMatrix],
    beams: BeamformerSet,
    power: PowerAllocation,
    sigma2: float,
) -> LinkState:
    """Full receive chain for one drop at one allocation (see ``link_states``)."""
    return link_states(channels, beams, [power], sigma2)[0]
