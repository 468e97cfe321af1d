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
with its unit's beam matrix and its D signal statistics (one per power
matrix of the unit's (D, N, K) stack, e.g. one equal split per budget), and
one batched Cholesky solve gives the (D, U, N_R, N) filters, stacked
products the gains.  ``drop_link_states`` runs it over a drop's units and
hands back each unit's (D, N, K) gains.  ``mmse_gains`` and ``link_states``
are its one-unit cases; ``link_states`` pairs each allocation with its gains
as a ``LinkState``, whose SIC orders, SINRs and rates are worked out on
first read, and ``build_link_state`` is its one-allocation case.  A user's
outputs do not depend on the users stacked beside it.

The SIC stage runs on stacks as well.  ``sic_orders`` orders every beam of
a (..., N, K) gain stack with one stable argsort, uncovered users masked to
sort last, and ``sic_sinrs`` computes the SINRs of a power stack under
such orders.  ``_sic_sinr`` is the one SINR formula: ``sinr`` (one beam,
partial order), ``sic_sinrs``, ``LinkState.sinrs`` and the optimizer's
objective all reach it.
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
    def _orders(self) -> np.ndarray:
        return sic_orders(self.gains, self.power.pattern.entries == 1)

    @cached_property
    def sic_orders(self) -> tuple[np.ndarray, ...]:
        counts = self.power.pattern.entries.sum(axis=1)
        return tuple(order[:count] for order, count in zip(self._orders, counts))

    @cached_property
    def sinrs(self) -> np.ndarray:
        return sic_sinrs(self.gains, self.power.entries, self._orders)

    @cached_property
    def rates(self) -> np.ndarray:
        return pair_rates(self.sinrs)


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


def sic_orders(gains: np.ndarray, covered: np.ndarray | None = None) -> np.ndarray:
    """Decoding orders of every row of a gain stack (..., K): ascending gain,
    ties by ascending user index, from one stable argsort over the stack.

    With ``covered`` (broadcasting to the gains), each row lists its
    covered users first, in that order, and the uncovered ones after them.
    """
    h = np.asarray(gains, dtype=float)
    if covered is not None:
        h = np.where(covered, h, np.inf)
    return np.argsort(h, axis=-1, kind="stable")


def sic_order(gains_row: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Covered users sorted by ascending gain, ties by ascending user index
    (one row of ``sic_orders``, uncovered users dropped)."""
    covered = np.asarray(covered, dtype=bool)
    return sic_orders(gains_row, covered)[: int(covered.sum())]


def _sic_sinr(h2: np.ndarray, p: np.ndarray) -> np.ndarray:
    """SINRs along decoding orders: ``h2`` and ``p`` hold the squared gains
    and the powers of each order's users, position by position, shape
    (..., L).  The user at position k sees the powers at positions k+1 ...
    as interference, summed from the end."""
    suffix = np.zeros_like(p)
    suffix[..., :-1] = np.cumsum(p[..., ::-1], axis=-1)[..., -2::-1]
    return h2 * p / (1.0 + h2 * suffix)


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
    out[..., order] = _sic_sinr(h[order] ** 2, p[..., order])
    return out


def sic_sinrs(gains: np.ndarray, powers: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """SINRs of a power stack under SIC, in user space.

    ``gains`` and ``orders`` are stacks (..., K) of one shape: gain rows and
    their decoding orders, each order a permutation of the users (see
    ``sic_orders``).  ``powers`` holds the power rows, in a shape the other
    two broadcast to (a sweep of ladders adds an axis); the SINRs have that
    shape.  Users with no power sorted last contribute nothing, so an order
    that lists a beam's uncovered users last gives those users gamma = 0 and
    the covered ones what ``sinr`` gives them.
    """
    p = np.ascontiguousarray(powers, dtype=float)
    if (p < 0).any():
        raise ValueError("powers must be nonnegative")
    h = np.asarray(gains, dtype=float)
    orders = np.asarray(orders)
    if h.shape != orders.shape:
        raise ValueError("gains and orders must share one shape")
    k = p.shape[-1]
    # flat positions of each row's users, in decoding order
    own = orders + k * np.arange(orders.size // k).reshape(orders.shape[:-1] + (1,))
    at = orders + k * np.arange(p.size // k).reshape(p.shape[:-1] + (1,))
    if at.shape != p.shape:
        raise ValueError("gains and orders must broadcast to the powers' shape")
    out = np.empty(p.size)
    out[at] = _sic_sinr(h.reshape(-1)[own] ** 2, p.reshape(-1)[at])
    return out.reshape(p.shape)


def pair_rates(sinrs) -> np.ndarray:
    """Per-pair rates log2(1 + gamma) of an SINR array of any shape."""
    gammas = np.asarray(sinrs, dtype=float)
    if (gammas < 0).any():
        raise ValueError("SINRs must be nonnegative")
    return np.log2(1.0 + gammas)


def sum_rate(link) -> float:
    """Total rate sum_{n,k} log2(1 + gamma_nk) in bits/s/Hz.

    Accepts a LinkState or a raw matrix/vector of SINRs.
    """
    gammas = link.sinrs if isinstance(link, LinkState) else link
    return float(pair_rates(gammas).sum())


def beam_sum_rates(gains: np.ndarray, powers: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Sum rate of each power matrix of a stack (..., N, K) under SIC with
    the given orders (see ``sic_sinrs``), shape (...): each beam's rates
    summed over its users, then the beams added in beam order."""
    per_beam = pair_rates(sic_sinrs(gains, powers, orders)).sum(axis=-1)
    # numpy sums 8 or more terms pairwise; this order holds for any beam count
    total = 0.0
    for n in range(per_beam.shape[-1]):
        total = total + per_beam[..., n]
    return total


def drop_link_states(units, sigma2: float) -> list[np.ndarray]:
    """Gains of every unit of a drop from one MMSE kernel call.

    ``units`` lists (channels, beams, powers) triples, one per unit (one
    scheme evaluation), each with its own channels, ZF beams and a (D, N, K)
    stack of power matrices; D must be the same for every unit.  Every
    unit's users are concatenated to one (U, N_R, N_T) stack, each with its
    unit's beam matrix and second moments, so the drop makes one batched
    solve.  Returns each unit's (D, N, K) gains, equal bit for bit to a
    ``mmse_gains`` call on that unit alone.
    """
    moments = [correlation_matrix(powers) for _, _, powers in units]
    if any(m.ndim != 3 for m in moments):
        raise ValueError("each unit's powers must stack its D matrices, shape (D, N, K)")
    if len({m.shape[0] for m in moments}) != 1:
        raise ValueError("every unit needs the same number of allocations")
    sizes = [len(channels) for channels, _, _ in units]
    owner = np.repeat(np.arange(len(units)), sizes)  # the unit of each stacked user
    g = np.stack([ch.entries for channels, _, _ in units for ch in channels])
    f = np.stack([beams.beam_matrix for _, beams, _ in units])[owner]
    _, h = _mmse_kernel(g, f, np.stack(moments, axis=1)[:, owner], sigma2)
    bounds = np.cumsum([0] + sizes)
    return [np.ascontiguousarray(h[:, a:b].swapaxes(-1, -2)) for a, b in zip(bounds[:-1], bounds[1:])]


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
    (gains,) = drop_link_states([(channels, beams, np.stack([p.entries for p in powers]))], sigma2)
    return [LinkState(gains=h, power=power) for h, power in zip(gains, powers)]


def build_link_state(
    channels: list[ChannelMatrix],
    beams: BeamformerSet,
    power: PowerAllocation,
    sigma2: float,
) -> LinkState:
    """Full receive chain for one drop at one allocation (see ``link_states``)."""
    return link_states(channels, beams, [power], sigma2)[0]
