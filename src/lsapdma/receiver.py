"""MMSE spatial filtering, scalar link reduction, SIC ordering, and rates.

Each user applies a linear MMSE filter to suppress inter-beam interference;
the filtered link then collapses to a scalar channel per (beam, user) pair
with an equivalent normalized amplitude gain h.  Within a beam, covered users
are decoded in ascending order of h: a user at SIC position k sees only the
powers of later-ordered (higher-gain) users as interference, and the
last-ordered user decodes interference-free.

The gains of a chunk of drops come from one kernel call over users: every
unit's users (a unit is one scheme evaluation of a drop, with its own
channels and ZF beams) see their channels through their unit's beams,
M = G F, and these are concatenated to a (U, N_R, N) stack.  A unit's D
power matrices are one shape Pi at D scales s (an equal split's Pi is its
0/1 powered support at every budget), so its signal statistics are s B
with B = sqrt(Pi) sqrt(Pi)^T, and one N x N ``eigh`` per user of its Gram
M^H M gives its filters at all D scales in closed form (see
``_mmse_kernel``).  The kernel works in N x N Gram space throughout: it
forms no (N_R, N) filter, and stacked N x N products give the gains.
``drop_link_states`` takes the units as stacks, one set-up on every drop
of a chunk, and hands back each stack's (C, D, N, K) gains;
``build_link_state`` is its case of one power matrix P = max(P) (P /
max(P)) of one drop, paired with the gains as a ``LinkState``.  A user's
outputs do not depend on the users stacked beside it.

The SIC stage runs on stacks as well.  ``sic_orders`` orders every beam of
a (..., N, K) gain stack with one stable argsort, by gain alone: a user
with no power adds an exact zero wherever it sits, so one order serves
every power policy.  ``sic_sinrs`` computes the SINRs of a power stack
under such orders.  ``_sic_sinr`` is the one SINR formula: ``sic_sinrs``
and the optimizer's objective, rate constraints and barrier all reach it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _sqrt_factors(b):
    """A square factor R of each PSD statistic of a stack (..., N, N), with
    B = R R^T: the eigenvectors scaled by the roots of the eigenvalues,
    round-off below zero taken as zero.  A singular B gives zero columns."""
    mu, u = np.linalg.eigh(b)
    return u * np.sqrt(np.maximum(mu, 0.0))[..., None, :]


def _mmse_kernel(m, root, s, sigma2):
    """Gains of U users, each at D scales of its statistic, in N x N Gram
    space.

    ``m`` (U, N_R, N) holds each user's channel seen through its beams,
    M = G F.  User u's second moment of the superposed beam signal at scale
    d is A = s[d, u] B_u, with B_u = R_u R_u^T given by its factor
    ``root``, (U, N, N) or one (N, N) for all (see ``_sqrt_factors``); ``s``
    is (D, U) or (D, 1).  With the Gram X = M^H M and
    R^T X R = W diag(lambda) W^H, one N x N ``eigh`` per user, the MMSE
    filter

        V = (M A M^H + sigma2 I)^(-1) M A = M Q,
        Q = R W diag(s / (s lambda + sigma2)) W^H R^T

    (the push-through identity with the scale factored out) serves all D
    scales.  Column n of V estimates beam n's signal, and the (beam n,
    user) link collapses to the amplitude gain

        h = sqrt(|v^H M_n|^2 / (sum_{i != n} |v^H M_i|^2 + sigma2 ||v||^2))

    with v that column.  No filter is formed: the projections V^H M are
    Q X, and ||v_n||^2 = (Q X Q)_nn, so nothing after the Gram touches N_R;
    a zero row and column of Q (a beam carrying nothing toward the user)
    yield h = 0.  Returns Q (D, U, N, N), from which V = M Q, and the gains
    (D, U, N), user u's row n being beam n's gain.  Every product and
    decomposition runs slice by slice, so a user's outputs do not depend on
    the users stacked beside it.  A level s lambda + sigma2, power or gain
    past the float range (too large a path loss or budget; an infinite
    Gram leaves lambda NaN) raises ValueError and warns of nothing.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        x = m.conj().swapaxes(-1, -2) @ m  # (U, N, N)
        lam, w = np.linalg.eigh(root.swapaxes(-1, -2) @ x @ root)
        rw = root @ w
        level = s[..., None] * np.maximum(lam, 0.0) + sigma2  # (D, U, N)
        q = (rw * (s[..., None] / level)[..., None, :]) @ rw.conj().swapaxes(-1, -2)  # (D, U, N, N)
        proj = q @ x  # row n is v_n^H M
        powers = np.abs(proj) ** 2
        desired = np.diagonal(powers, axis1=-2, axis2=-1).copy()
        inter = powers.sum(axis=-1) - desired
        vnorm2 = (proj * q.swapaxes(-1, -2)).sum(axis=-1).real  # (Q X Q)_nn
        denom = inter + sigma2 * vnorm2  # NaN or infinite if desired is
        h2 = np.divide(desired, denom, out=np.zeros_like(desired), where=denom > 0)  # 0 at a zero row of Q
    if not (np.isfinite(level).all() and np.isfinite(denom).all() and np.isfinite(h2).all()):
        raise ValueError("the link gains are not finite: the received powers overflow (is the path loss too large?)")
    return q, np.sqrt(h2)


def sic_orders(gains: np.ndarray) -> np.ndarray:
    """Decoding orders of every row of a gain stack (..., K): ascending gain,
    ties by ascending user index, from one stable argsort over the stack.
    A user without power may sit anywhere in it (see ``sic_sinrs``)."""
    return np.argsort(np.asarray(gains, dtype=float), axis=-1, kind="stable")


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

    so the last-ordered user sees no intra-beam interference.  A user with
    no power gets gamma = 0 and, wherever it sits in the order, adds an
    exact +0.0 to the interference sums of the users before it, so the
    powered users' SINRs are bit for bit those of an order without it.
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


def power_scales(powers) -> tuple[np.ndarray, np.ndarray]:
    """Each power matrix of a stack (..., N, K) as s * Pi, with s its
    largest power (...) and Pi = P / s (..., N, K); a zero matrix has
    s = 0 and Pi = 0.  An equal split's Pi is its 0/1 powered support."""
    p = np.asarray(powers, dtype=float)
    s = p.max(axis=(-2, -1))
    return p / np.where(s > 0, s, 1.0)[..., None, None], s


def drop_link_states(units, sigma2: float) -> list[np.ndarray]:
    """Gains of stacks of units, from one MMSE kernel call.

    ``units`` lists (channels, beams, pi, s) stacks, one per set-up on the
    C drops of a chunk (a unit is one scheme evaluation of a drop): the
    users' channels (C, K, N_R, N_T), the ZF beam matrices (C, N_T, N),
    each unit's power shape Pi (C, N, K) and its D scales s (C, D), the
    unit's d-th power matrix being s[d] * Pi (see ``power_scales``); D must
    be the same for every stack.  Each stack's users see their channels
    through their unit's beams as M = G F, one (C, K, N_R, N) product per
    stack, so no channel or beam matrix is copied per user.  Each unit's
    statistic B = sqrt(Pi) sqrt(Pi)^T is one ``correlation_matrix`` call on
    the stack's power shapes, factored once per run of equal consecutive
    statistics (a rank-space set-up's 0/1 supports share one), and every
    user of every stack goes, with its M, its unit's factor and scales,
    into one (U, N_R, N) stack and one kernel call.  Returns each stack's
    (C, D, N, K) gains, equal bit for bit to a call on one unit alone.
    """
    for channels, beams, pi, s in units:
        n_stack, n_users = channels.shape[:2]
        if not (n_stack and n_users and np.shape(pi) == (n_stack, beams.shape[-1], n_users) and len(beams) == n_stack):
            raise ValueError("each stack's pi must hold one (N, K) power shape per unit, shape (C, N, K)")
        if not (np.ndim(s) == 2 and len(s) == n_stack):
            raise ValueError("each stack's s must hold the D scales of each unit, shape (C, D)")
        if not np.isfinite(channels).all():
            raise ValueError("non-finite channels")
    if len({np.shape(s)[1] for *_, s in units}) != 1:
        raise ValueError("every unit needs the same number of allocations")
    counts = [len(s) for *_, s in units]
    sizes = [channels.shape[1] for channels, *_ in units]
    scales = np.concatenate([s for *_, s in units], dtype=float)  # (S, D)
    b = np.concatenate([correlation_matrix(pi) for _, _, pi, _ in units])  # (S, N, N)
    if not (np.isfinite(b).all() and np.isfinite(scales).all() and (scales >= 0).all()):
        raise ValueError("power shapes and scales must be finite, scales nonnegative")
    fresh = np.concatenate([[True], (b[1:] != b[:-1]).any(axis=(1, 2))])
    unit_user = np.repeat(np.arange(len(b)), np.repeat(sizes, counts))
    roots = _sqrt_factors(b[fresh])[(np.cumsum(fresh) - 1)[unit_user]]
    m = np.concatenate([(g @ f[:, None]).reshape(-1, g.shape[2], f.shape[-1]) for g, f, _, _ in units])  # (U, N_R, N)
    _, h = _mmse_kernel(m, roots, np.ascontiguousarray(scales[unit_user].T), sigma2)
    ends = np.cumsum(np.multiply(counts, sizes)).tolist()
    # each (D, C*K, N) -> (C, D, N, K)
    return [
        np.ascontiguousarray(h[:, end - c * k : end].reshape(len(h), c, k, -1).transpose(1, 0, 3, 2))
        for end, c, k in zip(ends, counts, sizes)
    ]


def build_link_state(
    channels: list[ChannelMatrix],
    beams: BeamformerSet,
    power: np.ndarray,
    sigma2: float,
) -> LinkState:
    """Receive chain of one drop at one (N, K) power matrix: a
    ``drop_link_states`` call on that matrix alone, as s * Pi."""
    power = np.asarray(power, dtype=float)
    pi, s = power_scales(power)
    g = np.array([ch.entries for ch in channels])
    (gains,) = drop_link_states([(g[None], beams.beam_matrix[None], pi[None], s.reshape(1, 1))], sigma2)
    return LinkState(gains=gains[0, 0], power=power)
