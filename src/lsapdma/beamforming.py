"""Zero-forcing beamforming over the selected users.

One anchor user is selected per beam.  The composite precoder is the right
pseudo-inverse of the stacked anchor channels, so the product of the
composite channel and the composite precoder is the identity:
inter-anchor interference is nulled exactly.  Each beam's precoding vector
is the row-sum collapse of its block of the composite precoder, optionally
renormalized to unit norm so that allocated powers are actual per-beam
radiated powers.

The identity has a price the pattern must pay: every beam other than m is
nulled at beam m's anchor, so an anchor covered by several beams hears only
its own.  Each beam therefore anchors the covered user whose nulling costs
the least coverage (lowest diversity first, then the weakest, then the
lowest index), and ``SelectedUserSet.nulled`` names the covered pairs that
are lost anyway, so power policies can leave them unpowered.

``zf_beamformers`` computes the precoders of a stack of units (one unit is
one scheme evaluation of a drop: its channels and its anchors) in one pass
over the (E, N*N_R, N_T) anchor stack, and reports each singular unit as
None so the caller can redraw that unit alone.  ``compute_zfbf`` is a
thin seam over it for a caller holding a single unit: it raises
``SingularChannelError`` where the stack reports None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .pattern import PatternMatrix


class SingularChannelError(RuntimeError):
    """Composite selected-user channel too ill-conditioned; redraw the channel."""


@dataclass(frozen=True)
class SelectedUserSet:
    """The (beam, user) pairs whose CSI defines the ZF precoder (0-based)."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def users(self) -> tuple[int, ...]:
        """Selected user per beam, in beam order."""
        return tuple(u for _, u in self.pairs)

    def nulled(self, pattern: PatternMatrix) -> np.ndarray:
        """Covered (beam, user) pairs the ZF precoder nulls by construction.

        Beam n reaches the anchor of any other beam m with gain zero
        (G_C F_C = I), so the covered pair (n, anchor of m) carries nothing
        whatever power it gets.  Returns a boolean mask of the pattern's
        shape; it is known before any gain is computed.
        """
        mask = np.zeros(pattern.entries.shape, dtype=bool)
        for m, u in self.pairs:
            mask[:, u] = pattern.entries[:, u] == 1
            mask[m, u] = False
        return mask


@dataclass(frozen=True)
class BeamformerSet:
    """Composite ZF precoder and the per-beam precoding vectors.

    ``composite`` has shape (N_T, N*N_R); its n-th (N_T, N_R) block collapsed
    against the all-ones vector gives beam n's vector.  ``beam_matrix`` holds
    those vectors as columns (unit-norm when ``normalized``).
    """

    composite: np.ndarray  # (N_T, N*N_R)
    beam_matrix: np.ndarray  # (N_T, N)
    selected: SelectedUserSet
    normalized: bool

    @property
    def n_beams(self) -> int:
        return self.beam_matrix.shape[1]


def select_users(
    channels: list[ChannelMatrix],
    pattern: PatternMatrix,
    gains_hint: np.ndarray,
) -> SelectedUserSet:
    """Pick one distinct anchor user per beam, least-covered first.

    Zero forcing nulls every other beam at an anchor, so anchoring a user of
    diversity d silences d - 1 of its covered pairs.  Each beam therefore
    prefers the covered user of lowest diversity; among those, the weakest
    by the hint (any per-user weakness proxy available before the receive
    filters exist: the large-scale gain in the simulation pipeline); exact
    ties break toward the lowest user index.  Anchors must be distinct
    across beams (stacking one user's channel twice makes the composite
    exactly rank-deficient), so beams are processed most-constrained first
    and each takes its most preferred not-yet-taken covered user, with an
    augmenting-path fallback when a beam's covered set is exhausted.
    """
    hints = np.asarray(gains_hint, dtype=float)
    if hints.shape != (pattern.n_users,):
        raise ValueError("gains_hint must have one entry per user")
    if len(channels) != pattern.n_users:
        raise ValueError("need one channel per user")
    b = pattern.entries
    n_beams = pattern.n_beams
    # Python scalars sort in the same order as numpy's, and faster
    overlaps, diversity, weakness = b.sum(axis=1).tolist(), b.sum(axis=0).tolist(), hints.tolist()
    if 0 in overlaps:
        raise ValueError(f"beam {overlaps.index(0)} covers no user")
    beam_order = sorted(range(n_beams), key=lambda n: (overlaps[n], n))
    # covered users by ascending (diversity, hint, index) per beam
    prefer = {
        n: sorted((u for u, on in enumerate(row) if on), key=lambda u: (diversity[u], weakness[u], u))
        for n, row in enumerate(b.tolist())
    }
    owner: dict[int, int] = {}  # user -> beam

    def reassign(beam: int, visited: set) -> bool:
        for u in prefer[beam]:
            if u in visited:
                continue
            visited.add(u)
            if u not in owner or reassign(owner[u], visited):
                owner[u] = beam
                return True
        return False

    for n in beam_order:
        free = [u for u in prefer[n] if u not in owner]
        if free:
            owner[free[0]] = n
        elif not reassign(n, set()):
            raise ValueError(
                "pattern admits no distinct selected user per beam"
            )
    chosen = {beam: user for user, beam in owner.items()}
    return SelectedUserSet(pairs=tuple((n, chosen[n]) for n in range(n_beams)))


def zf_beamformers(
    channel_sets,
    omegas,
    *,
    normalize: bool = True,
    cond_limit: float = 1e8,
) -> list[BeamformerSet | None]:
    """Composite ZF precoders of a stack of units, in one pass.

    A unit is one (channels, anchors) pair: ``channel_sets[e]`` holds a
    unit's user channels and ``omegas[e]`` its anchors, one per beam; every
    unit has the same beam count and channel shape.  For each unit,
    F_C = G_C^H (G_C G_C^H)^(-1) for the stacked (N*N_R, N_T) anchor channel
    G_C; each (N_T, N_R) block of F_C is collapsed against the all-ones
    vector to get the per-beam vectors, which ``normalize`` scales to unit
    norm so beam powers are radiated powers.  The equilibration, the Gram,
    the condition test, the solve, the collapse and the normalisation each
    run once over the (E, N*N_R, N_T) stack, and a unit's result equals, bit
    for bit, that of a stack holding it alone.

    A unit is singular, and gets None, when an anchor's channel is zero or
    cond(G_C G_C^H) exceeds ``cond_limit`` (i.i.d. Gaussian draws are almost
    surely fine; the guard catches pathological draws so the caller can
    redraw).
    """
    anchors = [[channels[u].entries for _, u in omega.pairs] for channels, omega in zip(channel_sets, omegas)]
    shapes = {b.shape for unit in anchors for b in unit}
    if len(shapes) != 1 or len({len(unit) for unit in anchors}) != 1:
        raise ValueError("selected-user channels must share one shape and one beam count")
    [(n_rx, n_tx)] = shapes
    n_units, n_beams = len(anchors), len(anchors[0])
    if n_beams * n_rx > n_tx:
        raise ValueError(
            f"need n_beams*n_rx <= n_tx for zero forcing, got {n_beams}*{n_rx} > {n_tx}"
        )
    # Equilibrate per-user block scales before inverting: path-loss spreads of
    # many orders of magnitude would otherwise dominate the Gram's condition
    # number without any directional degeneracy.  The pseudo-inverse of the
    # raw stack is recovered exactly by rescaling columns afterwards.  Each
    # scale is its own norm call: a stacked norm sums in another order.
    scales = np.array([[np.linalg.norm(b) for b in unit] for unit in anchors]) / np.sqrt(n_rx * n_tx)
    singular = (scales == 0).any(axis=1)
    row_scale = np.repeat(np.where(scales == 0, 1.0, scales), n_rx, axis=1)  # (E, N*N_R)
    g_eq = np.array(anchors).reshape(n_units, n_beams * n_rx, n_tx) / row_scale[..., None]
    gram = g_eq @ g_eq.conj().swapaxes(-1, -2)
    singular |= np.linalg.cond(gram) > cond_limit
    live = np.flatnonzero(~singular)
    out: list[BeamformerSet | None] = [None] * n_units
    if live.size == 0:
        return out
    # F_C = G^H gram^{-1}; gram is Hermitian PD for full-row-rank G.  The
    # conjugate transpose leaves each composite column-major.
    composite = np.linalg.solve(gram[live], g_eq[live]).conj().swapaxes(-1, -2) / row_scale[live, None, :]
    # (E', N, N_T, N_R) views of the blocks, each collapsed by one matrix-vector product
    blocks = composite.reshape(len(live), n_tx, n_beams, n_rx).transpose(0, 2, 1, 3)
    beam_matrix = np.ascontiguousarray((blocks @ np.ones(n_rx)).swapaxes(-1, -2))  # (E', N_T, N)
    if normalize:
        beam_matrix = beam_matrix / np.linalg.norm(beam_matrix, axis=-2, keepdims=True)
    for e, f_c, f in zip(live, composite, beam_matrix):
        out[e] = BeamformerSet(composite=f_c, beam_matrix=f, selected=omegas[e], normalized=normalize)
    return out


def compute_zfbf(
    channels: list[ChannelMatrix],
    omega: SelectedUserSet,
    *,
    normalize: bool = True,
    cond_limit: float = 1e8,
) -> BeamformerSet:
    """Composite ZF precoder from the selected users' stacked channels: a
    ``zf_beamformers`` call on this unit alone.

    Raises SingularChannelError when an anchor's channel is zero or
    cond(G_C G_C^H) exceeds ``cond_limit``.
    """
    (beams,) = zf_beamformers([channels], [omega], normalize=normalize, cond_limit=cond_limit)
    if beams is None:
        raise SingularChannelError("composite channel is zero or near rank-deficient")
    return beams

