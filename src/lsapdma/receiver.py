"""MMSE spatial filtering, scalar link reduction, SIC ordering, and rates.

Each user applies a linear MMSE filter to suppress inter-beam interference;
the filtered link then collapses to a scalar channel per (beam, user) pair
with an equivalent normalized amplitude gain h.  Within a beam, covered users
are decoded in ascending order of h: a user at SIC position k sees only the
powers of later-ordered (higher-gain) users as interference, and the
last-ordered user decodes interference-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .beamforming import BeamformerSet
from .channel import ChannelMatrix
from .pattern import PowerAllocation, correlation_matrix


@dataclass(frozen=True)
class SpatialFilter:
    """Per-user MMSE receive matrix; column n estimates beam n's signal."""

    matrix: np.ndarray  # (N_R, N)


@dataclass(frozen=True)
class LinkState:
    """Scalarized link quantities for one drop.

    ``gains`` holds the noise-normalized amplitude gains h (beams x users),
    ``sic_orders`` the per-beam decoding orders (ascending gain, covered
    users only), and ``sinrs``/``rates`` the per-pair results.
    """

    gains: np.ndarray
    sic_orders: tuple[np.ndarray, ...]
    sinrs: np.ndarray
    rates: np.ndarray


def mmse_filter(
    channel: ChannelMatrix, beams: BeamformerSet, a_matrix: np.ndarray, sigma2: float
) -> SpatialFilter:
    """Linear MMSE estimate of the beam signal vector from one user's observation.

    V = (G F A F^H G^H + sigma2 I)^(-1) G F A, where A is the second moment
    of the superposed beam signal.  The regularized matrix is Hermitian
    positive definite, so a Cholesky-based solve always succeeds.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    g = channel.entries
    f = beams.beam_matrix
    a = np.asarray(a_matrix, dtype=float)
    if not (np.isfinite(g).all() and np.isfinite(a).all()):
        raise ValueError("non-finite inputs")
    gfa = g @ f @ a
    cov = gfa @ f.conj().T @ g.conj().T
    cov = cov + sigma2 * np.eye(g.shape[0])
    v = scipy.linalg.solve(cov, gfa, assume_a="pos")
    return SpatialFilter(matrix=v)


def normalized_gain(
    filt: SpatialFilter,
    channel: ChannelMatrix,
    beams: BeamformerSet,
    sigma2: float,
    beam: int,
) -> float:
    """Equivalent scalar amplitude gain of one (beam, user) link after filtering.

    h = sqrt(|v^H G f_n|^2 / (sum_{i != n} |v^H G f_i|^2 + sigma2 ||v||^2))
    with v the beam's filter column.  A zero filter column yields h = 0
    (a beam carrying nothing toward this user contributes zero rate).
    """
    v = filt.matrix[:, beam]
    if not np.any(v):
        return 0.0
    proj = v.conj() @ channel.entries @ beams.beam_matrix  # (N,)
    powers = np.abs(proj) ** 2
    desired = powers[beam]
    inter = powers.sum() - desired
    return float(np.sqrt(desired / (inter + sigma2 * np.linalg.norm(v) ** 2)))


def normalized_gains(
    filt: SpatialFilter, channel: ChannelMatrix, beams: BeamformerSet, sigma2: float
) -> np.ndarray:
    """All beams' equivalent gains for one user (vectorized normalized_gain)."""
    proj = filt.matrix.conj().T @ channel.entries @ beams.beam_matrix  # (N, N)
    powers = np.abs(proj) ** 2
    desired = np.diag(powers).copy()
    inter = powers.sum(axis=1) - desired
    vnorm2 = np.sum(np.abs(filt.matrix) ** 2, axis=0)
    denom = inter + sigma2 * vnorm2
    h = np.zeros_like(desired)
    live = denom > 0  # only a zero filter column gives denom == 0
    h[live] = np.sqrt(desired[live] / denom[live])
    return h


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
    the order get gamma = 0.
    """
    h = np.asarray(gains_row, dtype=float)
    p = np.asarray(power_row, dtype=float)
    if (p < 0).any():
        raise ValueError("powers must be nonnegative")
    order = np.asarray(order, dtype=int)
    out = np.zeros_like(h)
    if order.size == 0:
        return out
    p_ord = p[order]
    # suffix[k] = sum of powers at positions k+1..end
    suffix = np.concatenate([np.cumsum(p_ord[::-1])[::-1][1:], [0.0]])
    h2 = h[order] ** 2
    out[order] = h2 * p_ord / (1.0 + h2 * suffix)
    return out


def sum_rate(link) -> float:
    """Total rate sum_{n,k} log2(1 + gamma_nk) in bits/s/Hz.

    Accepts a LinkState or a raw matrix/vector of SINRs.
    """
    gammas = link.sinrs if isinstance(link, LinkState) else np.asarray(link, dtype=float)
    if (gammas < 0).any():
        raise ValueError("SINRs must be nonnegative")
    return float(np.log2(1.0 + gammas).sum())


def build_link_state(
    channels: list[ChannelMatrix],
    beams: BeamformerSet,
    power: PowerAllocation,
    sigma2: float,
) -> LinkState:
    """Full receive chain for one drop: filters, gains, SIC orders, SINRs, rates.

    The filters are matched to the supplied allocation's signal statistics;
    each beam's SIC order covers the users its pattern row covers.
    """
    a = correlation_matrix(power)
    n_beams = power.pattern.n_beams
    n_users = power.pattern.n_users
    gains = np.zeros((n_beams, n_users))
    for k, ch in enumerate(channels):
        filt = mmse_filter(ch, beams, a, sigma2)
        gains[:, k] = normalized_gains(filt, ch, beams, sigma2)
    support = power.pattern.entries.astype(bool)
    orders = tuple(sic_order(gains[n], support[n]) for n in range(n_beams))
    sinrs = np.vstack([sinr(gains[n], power.entries[n], orders[n]) for n in range(n_beams)])
    rates = np.log2(1.0 + sinrs)
    return LinkState(gains=gains, sic_orders=orders, sinrs=sinrs, rates=rates)
