"""User geometry and MIMO channel generation.

Users are dropped uniformly by area inside a disk cell.  The propagation
coefficient between each transmit and receive antenna is a small-scale
i.i.d. complex Gaussian factor scaled by a per-user large-scale factor
(power-law path loss times log-normal shadowing).

``user_channels`` gives one drop's channels user by user; ``draw_channels``
gives C drops' channels as one (C, K, N_R, N_T) stack, one generator per
drop.  Both turn radii and normals into gains and entries through one
helper, so a drop's stack equals ``drop_users`` then ``user_channels`` on
its generator, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .rng import as_rng


@dataclass(frozen=True)
class CellConfig:
    """Cell geometry and propagation parameters (linear scale, unit noise).

    Power quantities are noise-normalized: ``noise_variance`` is the per-user
    receiver noise power and defaults to 1, so transmit powers quoted in dB
    are relative to unit noise.  ``min_distance_m`` keeps the power-law path
    loss finite near the transmitter.
    """

    radius_m: float = 800.0
    path_loss_factor: float = 1.0
    path_loss_exponent: float = 3.7
    shadow_std_db: float = 10.0
    noise_variance: float = 1.0
    min_distance_m: float = 10.0
    reference_distance_m: float = 1000.0

    def __post_init__(self):
        # each test is phrased so that NaN fails it
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not self.radius_m > 0:
            raise ValueError("radius_m must be positive")
        if not self.path_loss_factor > 0:
            raise ValueError("path_loss_factor must be positive")
        if not self.path_loss_exponent > 0:
            raise ValueError("path_loss_exponent must be positive")
        if not self.shadow_std_db >= 0:
            raise ValueError("shadow_std_db must be nonnegative")
        if not self.noise_variance > 0:
            raise ValueError("noise_variance must be positive")
        if not 0 < self.min_distance_m < self.radius_m:
            raise ValueError("min_distance_m must lie in (0, radius_m)")
        if not self.reference_distance_m > 0:
            raise ValueError("reference_distance_m must be positive")
        # every user lies in [min_distance_m, radius_m], and the path loss
        # is monotone in the distance, so the two ends bound it
        for name in ("min_distance_m", "radius_m"):
            try:
                gain = _shadowed_gain(self, getattr(self, name), 0.0)
            except OverflowError:
                gain = math.inf
            if not 0 < gain < math.inf:
                raise ValueError(
                    f"path_loss_factor = {self.path_loss_factor:g}, path_loss_exponent = "
                    f"{self.path_loss_exponent:g} and reference_distance_m = {self.reference_distance_m:g} "
                    f"give a path loss at {name} = {getattr(self, name):g} that is not a finite positive float"
                )


@dataclass(frozen=True)
class UserDrop:
    """Positions (meters, relative to the base station) of one user drop."""

    positions: np.ndarray  # (K, 2)
    distances: np.ndarray  # (K,)

    @property
    def n_users(self) -> int:
        return len(self.distances)


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex channel between the array and one user, with its large-scale gain."""

    entries: np.ndarray  # (N_R, N_T) complex
    large_scale_gain: float

    @property
    def n_rx(self) -> int:
        return self.entries.shape[0]

    @property
    def n_tx(self) -> int:
        return self.entries.shape[1]


def drop_users(cfg: CellConfig, k: int, seed) -> UserDrop:
    """Drop ``k`` users uniformly by area over the annulus [min_distance, radius].

    Uniform-by-area means the squared radius is uniform on
    (min_distance^2, radius^2).  Deterministic for a given seed/generator.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    rng = as_rng(seed)
    r = _radii(cfg, rng.random(k))
    theta = 2.0 * np.pi * rng.random(k)
    positions = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return UserDrop(positions=positions, distances=r)


def _radii(cfg: CellConfig, u: np.ndarray) -> np.ndarray:
    """Distances uniform by area over the annulus, from uniforms on [0, 1)."""
    lo2 = cfg.min_distance_m**2
    hi2 = cfg.radius_m**2
    return np.sqrt(lo2 + (hi2 - lo2) * u)


def large_scale_gain(cfg: CellConfig, distance_m: float, seed) -> float:
    """Large-scale power gain: c * (d/d_ref)^(-eta) * 10^(X/10), X ~ N(0, shadow_std^2).

    The path-loss factor is the gain at the reference distance (1 km by
    default, so unit factor gives workable link budgets against unit noise
    across an 800 m cell).  The log-normal shadowing draw is taken once per
    call (one per user per drop); pass ``shadow_std_db=0`` for a
    deterministic path-loss-only gain.
    """
    if distance_m <= 0:
        raise ValueError("distance_m must be positive")
    rng = as_rng(seed)
    return _shadowed_gain(cfg, distance_m, rng.normal(0.0, cfg.shadow_std_db))


def _shadowed_gain(cfg: CellConfig, distance_m: float, shadow_db: float) -> float:
    ratio = distance_m / cfg.reference_distance_m
    return float(
        cfg.path_loss_factor * ratio ** (-cfg.path_loss_exponent) * 10.0 ** (shadow_db / 10.0)
    )


def sample_channel(n_rx: int, n_tx: int, large_scale: float, seed) -> ChannelMatrix:
    """i.i.d. CN(0, 1) small-scale entries scaled by sqrt(large_scale)."""
    if n_rx < 1 or n_tx < 1:
        raise ValueError("n_rx and n_tx must be at least 1")
    if large_scale < 0:
        raise ValueError("large_scale must be nonnegative")
    rng = as_rng(seed)
    re = rng.standard_normal((n_rx, n_tx))
    im = rng.standard_normal((n_rx, n_tx))
    entries = np.sqrt(large_scale / 2.0) * (re + 1j * im)
    return ChannelMatrix(entries=entries, large_scale_gain=float(large_scale))


def user_channels(cfg: CellConfig, drop: UserDrop, n_rx: int, n_tx: int, seed) -> list[ChannelMatrix]:
    """Per-user channels for one drop: shadowed large-scale gain + small-scale draw.

    One call draws every normal of the drop; user by user, in user order,
    it holds the shadowing draw, then the real and the imaginary block of
    the small-scale entries.  That is the order in which ``large_scale_gain``
    and ``sample_channel`` called per user consume the generator, and the
    results and the generator's state equal theirs bit for bit.  The gains
    and entries come from the helper ``draw_channels`` shares.
    """
    if n_rx < 1 or n_tx < 1:
        raise ValueError("n_rx and n_tx must be at least 1")
    if (drop.distances <= 0).any():
        raise ValueError("distance_m must be positive")
    rng = as_rng(seed)
    z = rng.standard_normal((drop.n_users, 1 + 2 * n_rx * n_tx))
    entries, gains = _gains_and_entries(cfg, drop.distances, z, n_rx, n_tx)
    return [ChannelMatrix(entries=e, large_scale_gain=g) for e, g in zip(entries, gains.tolist())]


def draw_channels(cfg: CellConfig, k: int, n_rx: int, n_tx: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Channels of ``k`` users on each of C drops, one generator per drop:
    the entries (C, K, N_R, N_T) and the large-scale gains (C, K).

    Each generator draws what ``drop_users`` then ``user_channels`` draw
    from it (the radius uniforms, the angle uniforms, which nothing reads
    here, then the normals), so drop c's channels and its generator's state
    afterwards equal theirs bit for bit.  The radii, gains and entries are
    computed once over the stack.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n_rx < 1 or n_tx < 1:
        raise ValueError("n_rx and n_tx must be at least 1")
    u = np.empty((len(rngs), k))
    z = np.empty((len(rngs), k, 1 + 2 * n_rx * n_tx))
    for c, rng in enumerate(rngs):
        rng.random(out=u[c])
        rng.random(k)  # the angles
        rng.standard_normal(out=z[c])
    return _gains_and_entries(cfg, _radii(cfg, u), z, n_rx, n_tx)


def _gains_and_entries(cfg: CellConfig, distances: np.ndarray, z: np.ndarray, n_rx: int, n_tx: int):
    """Entries (..., N_R, N_T) and large-scale gains (...) of users at
    ``distances`` (...), from each user's normals ``z`` (..., 1 + 2 N_R N_T):
    the shadowing draw, then the real and the imaginary block of the
    small-scale entries."""
    size = n_rx * n_tx
    # per user, as large_scale_gain computes it: a vectorised power differs
    # from the scalar one in the last ulp on some draws
    gains = np.array([
        _shadowed_gain(cfg, d, 0.0 + cfg.shadow_std_db * x)
        for d, x in zip(distances.ravel().tolist(), z[..., 0].ravel().tolist())
    ]).reshape(distances.shape)
    shape = z.shape[:-1] + (n_rx, n_tx)
    small = z[..., 1 : 1 + size].reshape(shape) + 1j * z[..., 1 + size :].reshape(shape)
    return np.sqrt(gains / 2.0)[..., None, None] * small, gains
