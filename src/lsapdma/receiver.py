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
M = G F, one (K N_R, N_T) @ (N_T, N) product per unit, and these are
concatenated to a (U, N_R, N) stack.  A unit's D power matrices are one
shape Pi at D scales s (an equal split's Pi is its 0/1 powered support at
every budget), so its signal statistics are s B with B = sqrt(Pi)
sqrt(Pi)^T, and one N x N ``eigh`` per user of its Gram M^H M gives its
filters at all D scales in closed form (see ``_mmse_kernel``).  The kernel
works in N x N Gram space throughout: it forms no (N_R, N) filter, and a
user's D filters and their projections are the row blocks of one
(D N, N) product each, so the products per user do not grow with D.
``drop_link_states`` takes a chunk's S set-ups on its C drops as one
padded stack, power shapes (S, C, N, K) with K the largest user count,
and hands back one (S, C, D, N, K) gain array: a set-up's columns past
its own users are pad users, which get zero gains and enter no filter.
``build_link_state`` is its case of one set-up on one drop at one power
matrix P = max(P) (P / max(P)), paired with the gains as a ``LinkState``.
Every product and decomposition runs unit by unit or user by user, never
across drops, so a user's outputs do not depend on the users stacked
beside it, nor a unit's gains on the chunk that holds it.

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
from .pattern import correlation_matrix, flat_rows, left_sum


@dataclass(frozen=True)
class LinkState:
    """Scalarized link of one drop at one power matrix: ``gains`` holds the
    noise-normalized amplitude gains h (beams x users)."""

    gains: np.ndarray


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
    d is A = s[u, d] B_u, with B_u = R_u R_u^T given by its factor
    ``root``, (U, N, N) or one (N, N) for all (see ``_sqrt_factors``); ``s``
    is (U, D) or (1, D).  With the Gram X = M^H M and
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
    yield h = 0.  A user's D matrices Q are the D row blocks of one
    (D N, N) product, and so are its D projections Q X: two products per
    user whatever D, each entry the same length-N dot product as one block
    alone would give.  Returns Q (U, D, N, N), from which V = M Q, and the
    gains (U, D, N), row n of user u's block d being beam n's gain.  Every
    product and decomposition runs user by user, so a user's outputs do
    not depend on the users stacked beside it.  A level s lambda + sigma2,
    power or gain past the float range (too large a path loss or budget;
    an infinite Gram leaves lambda NaN) raises ValueError and warns of
    nothing.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        x = m.conj().swapaxes(-1, -2) @ m  # (U, N, N)
        lam, w = np.linalg.eigh(root.swapaxes(-1, -2) @ x @ root)
        rw = root @ w
        n_users, n_beams = rw.shape[0], rw.shape[-1]
        level = s[..., None] * np.maximum(lam, 0.0)[:, None] + sigma2  # (U, D, N)
        ratio = (s[..., None] / level)[..., None, :]
        q = (rw[:, None] * ratio).reshape(n_users, -1, n_beams) @ rw.conj().swapaxes(-1, -2)  # (U, D N, N)
        proj = (q @ x).reshape(level.shape + (n_beams,))  # row n of block d is v_n^H M
        q = q.reshape(proj.shape)  # (U, D, N, N)
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
    # flat positions of each row's users, in decoding order
    own = flat_rows(orders, orders.shape)
    at = flat_rows(orders, p.shape)
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
    summed over its users in user order, then the beams added in beam
    order, both by ``left_sum``, so a user with zero gain and no power
    appended to the stack, a pad user, changes no bit of the sum rate.
    The gains and orders may carry a length-one axis that the powers sweep
    (see ``sic_sinrs``)."""
    return left_sum(left_sum(pair_rates(sic_sinrs(gains, powers, orders))))


def power_scales(powers) -> tuple[np.ndarray, np.ndarray]:
    """Each power matrix of a stack (..., N, K) as s * Pi, with s its
    largest power (...) and Pi = P / s (..., N, K); a zero matrix has
    s = 0 and Pi = 0.  An equal split's Pi is its 0/1 powered support."""
    p = np.asarray(powers, dtype=float)
    s = p.max(axis=(-2, -1))
    return p / np.where(s > 0, s, 1.0)[..., None, None], s


def drop_link_states(channels, beams, pi, s, sigma2: float) -> np.ndarray:
    """Gains of a chunk's set-ups on its drops, from one MMSE kernel call.

    A chunk holds S set-ups on C drops, a unit being one set-up on one
    drop.  ``channels`` lists each set-up's users' channels
    (C, K_s, N_R, N_T), real users only (set-ups of one user count may pass
    one array); ``beams`` holds the ZF beam matrices (S, C, N_T, N), ``pi``
    each unit's power shape Pi (S, C, N, K) and ``s`` its D scales
    (S, C, D), the unit's d-th power matrix being s[d] * Pi (see
    ``power_scales``).  The columns of set-up s past its K_s users are pad
    users, which must carry no power, enter no filter and get zero gains.
    Each set-up's users see their channels through their unit's beams as
    M = G F, one (K_s N_R, N_T) @ (N_T, N) product per unit (each entry the
    same length-N_T dot product as a user's own product would give), so no
    channel or beam matrix is copied per user.  The units' statistics
    B = sqrt(Pi) sqrt(Pi)^T are one ``correlation_matrix`` call on the
    shapes (its sum over users is a ``left_sum``, so a pad changes no
    bit), factored once per run of equal consecutive statistics (a
    rank-space set-up's 0/1 supports share one), and every real user goes,
    with its M, its unit's factor and scales, into one (U, N_R, N) stack
    and one kernel call.  Returns the (S, C, D, N, K) gains, each unit's
    equal bit for bit to a call on that unit alone, pad or no pad.
    """
    shape = np.shape(pi)
    n_setups, n_drops, n_beams, n_users = shape if len(shape) == 4 else (0,) * 4
    sizes = np.array([np.shape(g)[1] if np.ndim(g) == 4 and len(g) == n_drops else 0 for g in channels], dtype=int)
    fits = len(sizes) == n_setups and np.shape(beams)[:2] + np.shape(beams)[3:] == (n_setups, n_drops, n_beams)
    if not (n_setups and n_drops and fits and sizes.all() and (sizes <= n_users).all()):
        raise ValueError("pi must hold one (N, K) power shape per set-up and drop, shape (S, C, N, K)")
    real = np.arange(n_users) < sizes[:, None]  # (S, K): set-up s's users, not its pads
    if (np.not_equal(pi, 0.0) & ~real[:, None, None]).any():
        raise ValueError("pad users past a set-up's K must carry no power")
    if not (np.ndim(s) == 3 and np.shape(s)[:2] == (n_setups, n_drops)):
        raise ValueError("s must hold the D scales of each set-up and drop, shape (S, C, D)")
    for g in {id(g): g for g in channels}.values():  # each distinct array once
        if not np.isfinite(g).all():
            raise ValueError("non-finite channels")
    scales = np.asarray(s, dtype=float).reshape(n_setups * n_drops, -1)  # (S C, D)
    b = correlation_matrix(np.reshape(pi, (-1, n_beams, n_users)))  # (S C, N, N)
    if not (np.isfinite(b).all() and np.isfinite(scales).all() and (scales >= 0).all()):
        raise ValueError("power shapes and scales must be finite, scales nonnegative")
    fresh = np.concatenate([[True], (b[1:] != b[:-1]).any(axis=(1, 2))])
    unit_user = np.repeat(np.arange(len(b)), np.repeat(sizes, n_drops))
    roots = _sqrt_factors(b[fresh])[(np.cumsum(fresh) - 1)[unit_user]]
    m = np.concatenate([(g.reshape(n_drops, -1, g.shape[3]) @ f).reshape(-1, g.shape[2], n_beams) for g, f in zip(channels, beams)])  # (U, N_R, N)
    _, h = _mmse_kernel(m, roots, scales[unit_user], sigma2)
    gains = np.zeros((n_setups, n_drops, scales.shape[1], n_beams, n_users))
    # the real users, in the kernel's (set-up, drop, user) order, take their
    # (D, N) gains; the pads stay zero
    gains.transpose(0, 1, 4, 2, 3)[np.broadcast_to(real[:, None], (n_setups, n_drops, n_users))] = h
    return gains


def build_link_state(
    channels: list[ChannelMatrix],
    beams: BeamformerSet,
    power: np.ndarray,
    sigma2: float,
) -> LinkState:
    """Receive chain of one drop at one (N, K) power matrix: the
    ``drop_link_states`` call of one set-up on one drop (S = C = D = 1) at
    that matrix, as s * Pi."""
    power = np.asarray(power, dtype=float)
    pi, s = power_scales(power)
    g = np.array([ch.entries for ch in channels])
    gains = drop_link_states([g[None]], beams.beam_matrix[None, None], pi[None, None], s.reshape(1, 1, 1), sigma2)
    return LinkState(gains=gains[0, 0, 0])
