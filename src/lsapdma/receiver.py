"""MMSE spatial filtering, scalar link reduction, SIC ordering, and rates.

Each user applies a linear MMSE filter to suppress inter-beam interference;
the filtered link then collapses to a scalar channel per (beam, user) pair
with an equivalent normalized amplitude gain h.  Within a beam, covered users
are decoded in ascending order of h: a user at SIC position k sees only the
powers of later-ordered (higher-gain) users as interference, and the
last-ordered user decodes interference-free.

The filters and gains of a chunk of drops come from one batched kernel
over users: every unit's users (a unit is one scheme evaluation of a drop,
with its own channels and ZF beams) are concatenated to a (U, N_R, N_T)
stack, each with its unit's beam matrix and its D signal statistics (one
per power matrix of the unit's (D, N, K) stack, e.g. one equal split per
budget), and one batched Cholesky solve gives the (D, U, N_R, N) filters,
stacked products the gains.  ``drop_link_states`` takes the units as
stacks, one set-up on every drop of a chunk, and hands back each stack's
(C, D, N, K) gains; ``build_link_state`` pairs one power matrix of one
drop with its gains as a ``LinkState``.  A user's outputs do not depend on
the users stacked beside it.

The SIC stage runs on stacks as well.  ``sic_orders`` orders every beam of
a (..., N, K) gain stack with one stable argsort, uncovered users masked to
sort last, and ``sic_sinrs`` computes the SINRs of a power stack under
such orders.  ``_sic_sinr`` is the one SINR formula: ``sic_sinrs`` and the
optimizer's objective, rate constraints and barrier all reach it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .beamforming import BeamformerSet
from .channel import ChannelMatrix
from .pattern import correlation_matrix


@dataclass(frozen=True)
class LinkState:
    """Scalarized link of one drop at one power matrix: ``gains`` holds the
    noise-normalized amplitude gains h (beams x users) and ``power`` the
    (N, K) powers whose signal statistics the filters were matched to."""

    gains: np.ndarray
    power: np.ndarray


def _mmse_kernel(g, f, a, sigma2):
    """Filters and gains of U users, each at D second moments.

    ``g`` (U, N_R, N_T) are the users' channels, ``f`` their beam matrices,
    (U, N_T, N) or one (N_T, N) for all, and ``a`` the second moments of
    the superposed beam signal, (D, U, N, N) or (D, 1, N, N) for all.  For
    user channel G and statistic A the filter is

        V = (G F A F^H G^H + sigma2 I)^(-1) G F A,

    one batched Cholesky-based solve for all (d, u); the regularized matrix
    is Hermitian positive definite, so the solve always succeeds.  Column n
    of V estimates beam n's signal, and the (beam n, user) link collapses
    to the amplitude gain

        h = sqrt(|v^H G f_n|^2 / (sum_{i != n} |v^H G f_i|^2 + sigma2 ||v||^2))

    with v that column; a zero filter column (a beam carrying nothing
    toward the user) yields h = 0.  Returns the filters (D, U, N_R, N) and
    the gains (D, U, N), user u's row n being beam n's gain.  Every product
    and the solve run slice by slice, so a user's outputs do not depend on
    the users stacked beside it.
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


def _sic_sinr(h2: np.ndarray, p: np.ndarray) -> np.ndarray:
    """SINRs along decoding orders: ``h2`` and ``p`` hold the squared gains
    and the powers of each order's users, position by position, shape
    (..., L).  The user at position k sees the powers at positions k+1 ...
    as interference, summed from the end."""
    suffix = np.zeros_like(p)
    suffix[..., :-1] = np.cumsum(p[..., ::-1], axis=-1)[..., -2::-1]
    return h2 * p / (1.0 + h2 * suffix)


def sic_sinrs(gains: np.ndarray, powers: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """SINRs of a power stack under SIC, in user space.

    ``gains`` and ``orders`` are stacks (..., K) of one shape: gain rows and
    their decoding orders, each order a permutation of the users (see
    ``sic_orders``).  ``powers`` holds the power rows, in a shape the other
    two broadcast to (a sweep of ladders adds an axis); the SINRs have that
    shape.  The user at SIC position k is decoded treating earlier (weaker,
    already-cancelled) users as absent and later (stronger) users' powers
    as interference:

        gamma = h^2 p / (1 + h^2 * sum of later users' powers)

    so the last-ordered user sees no intra-beam interference.  Users with
    no power sorted last contribute nothing, so an order that lists a
    beam's uncovered users last gives those users gamma = 0 and leaves the
    covered ones' SINRs as if the uncovered were absent.
    """
    p = np.ascontiguousarray(powers, dtype=float)
    if np.count_nonzero(p < 0):
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
    if np.count_nonzero(gammas < 0):
        raise ValueError("SINRs must be nonnegative")
    return np.log2(1.0 + gammas)


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
    """Gains of stacks of units, from one MMSE kernel call.

    ``units`` lists (channels, beams, powers) triples, one per stack of C
    units (a unit is one scheme evaluation of a drop; a stack is one set-up
    on the C drops of a chunk): the users' channels (C, K, N_R, N_T), the
    ZF beam matrices (C, N_T, N) and D power matrices per unit
    (C, D, N, K); D must be the same for every stack.  Each stack's second
    moments are one ``correlation_matrix`` call, and every user of every
    stack goes, with its unit's beam matrix and second moments, into one
    (U, N_R, N_T) stack and one batched solve.  Returns each stack's
    (C, D, N, K) gains, equal bit for bit to a call on one unit alone.
    """
    for channels, beams, powers in units:
        n_stack, n_users = channels.shape[:2]
        shape = np.shape(powers)
        if not (len(shape) == 4 and shape[0] == len(beams) == n_stack and shape[2:] == (beams.shape[-1], n_users)):
            raise ValueError("each stack's powers must hold one (D, N, K) stack per unit, shape (C, D, N, K)")
    moments = [correlation_matrix(powers) for _, _, powers in units]  # (C, D, N, N) each
    if len({m.shape[1] for m in moments}) != 1:
        raise ValueError("every unit needs the same number of allocations")
    sizes = [channels.shape[1] for channels, _, _ in units]
    g = np.concatenate([channels.reshape(-1, *channels.shape[2:]) for channels, _, _ in units])
    f = np.concatenate([np.repeat(beams, k, axis=0) for (_, beams, _), k in zip(units, sizes)])
    a = np.concatenate([np.repeat(m, k, axis=0) for m, k in zip(moments, sizes)])  # (U, D, N, N)
    _, h = _mmse_kernel(g, f, np.ascontiguousarray(a.swapaxes(0, 1)), sigma2)
    parts = np.split(h, np.cumsum([len(m) * k for m, k in zip(moments, sizes)])[:-1], axis=1)  # (D, C*K, N)
    # each (D, C, K, N) -> (C, D, N, K)
    return [
        np.ascontiguousarray(p.reshape(len(h), len(m), k, -1).transpose(1, 0, 3, 2))
        for p, m, k in zip(parts, moments, sizes)
    ]


def build_link_state(
    channels: list[ChannelMatrix],
    beams: BeamformerSet,
    power: np.ndarray,
    sigma2: float,
) -> LinkState:
    """Receive chain of one drop at one (N, K) power matrix: a
    ``drop_link_states`` call on that matrix alone."""
    power = np.asarray(power, dtype=float)
    g = np.array([ch.entries for ch in channels])
    (gains,) = drop_link_states([(g[None], beams.beam_matrix[None], power[None, None])], sigma2)
    return LinkState(gains=gains[0, 0], power=power)
