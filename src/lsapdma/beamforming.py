"""Zero-forcing beamforming over the selected users.

One anchor user is selected per beam.  For the stacked anchor channels G_C,
the right pseudo-inverse F_C = G_C^H (G_C G_C^H)^(-1) gives G_C F_C = I, so
inter-anchor interference is nulled exactly.  Each beam's precoding vector
is the row-sum collapse of its block of F_C, scaled to unit norm so that
allocated powers are actual per-beam radiated powers.

The identity has a price the pattern must pay: every beam other than m is
nulled at beam m's anchor, so an anchor covered by several beams hears only
its own.  Each beam therefore anchors the covered user whose nulling costs
the least coverage (lowest diversity first, then the weakest, then the
lowest index), and ``SelectedUserSet.nulled`` names the covered pairs that
are lost anyway, so power policies can leave them unpowered.

``rank_anchors`` gives a rank-assigned policy's pattern, anchors and
powered support (the covered pairs less the nulled ones) in weakness-rank
space, once per (policy, N, K).

``zf_beamformers`` computes the beam vectors of a stack of units (one unit
is one set-up of a drop: its anchors' channels) in one pass over the
(E, N*N_R, N_T) anchor stack, from one solve with N right-hand sides per
unit, and flags each singular unit so the caller can redraw that unit
alone; F_C itself is never built.  ``compute_zfbf`` is that pass on a
single unit, raising ``SingularChannelError`` where the pass flags it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .pattern import PatternMatrix, oma_pattern, pnoma_pattern, simple_beam_allocation


# a unit whose equilibrated anchor Gram has a larger condition number is singular
COND_LIMIT = 1e8
# units per Cholesky certificate of the condition test: this bounds the
# factors' temporary (74 kB at 12 x 12), which at a whole chunk's stack
# would raise the process's peak memory
CERTIFIED_UNITS = 32


class SingularChannelError(RuntimeError):
    """Stacked anchor channel zero or too ill-conditioned; redraw the channel."""


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

    def powered(self, pattern: PatternMatrix) -> np.ndarray:
        """The powered support Pi of ``pattern``: its covered pairs less
        the ``nulled`` ones, the pairs the power policies feed."""
        return (pattern.entries == 1) & ~self.nulled(pattern)


@dataclass(frozen=True)
class BeamformerSet:
    """The unit-norm ZF beam vectors of one unit, as the columns of
    ``beam_matrix``, and the anchors that define them."""

    beam_matrix: np.ndarray  # (N_T, N)
    selected: SelectedUserSet

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

    The choice depends on the hints only through the weakness ranks (their
    stable argsort): the key (diversity, hint, index) orders users as
    (column weight, rank) does.  Moving columns leaves the overlaps as they
    are, so a pattern whose column r goes to the user of rank r gets the
    anchors of its rank-space pattern (hints 0, 1, ...) moved the same way.
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


@functools.lru_cache(maxsize=64)
def rank_anchors(policy: str, n_beams: int, n_users: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The validated (N, K) pattern of ``simple``, ``pnoma`` or ``oma``, its
    (N,) anchors and (N, K) powered support, the covered pairs less those
    ``SelectedUserSet.nulled`` names, read-only, column r belonging to the
    user of weakness rank r.  A drop whose users sorted weakest first are
    ``order`` has the pattern and support with column r moved to user
    ``order[r]`` and the anchors ``order[anchors]`` (see ``select_users``);
    ``oma`` is the identity pattern whatever the ranks.
    """
    ranks = range(n_users)
    pattern = {
        "simple": lambda: simple_beam_allocation(n_beams, n_users, ranks),
        "pnoma": lambda: pnoma_pattern(n_beams, ranks),
        "oma": lambda: oma_pattern(n_beams),
    }[policy]()
    # the channels enter the selection only through their count
    omega = select_users([None] * n_users, pattern, np.arange(n_users))
    triple = (pattern.entries, np.array(omega.users), omega.powered(pattern))
    for array in triple:
        array.setflags(write=False)
    return triple


def _ill_conditioned(gram) -> np.ndarray:
    """Whether each Hermitian G of a stack (E, n, n) fails the condition
    test of ``zf_beamformers``, certified a block of ``CERTIFIED_UNITS``
    units at a time: one Cholesky factorisation of the block shifted by
    t = 2 tr(G) / COND_LIMIT, and ``eigvalsh`` only for a block the shift
    cannot factor.  The shift is made on ``gram``'s diagonal in place and
    the saved diagonal written back, so ``gram`` is left as it was, bit
    for bit, and no copy of the stack is made.
    """
    flags = np.zeros(len(gram), dtype=bool)
    for start in range(0, len(gram), CERTIFIED_UNITS):
        block = gram[start : start + CERTIFIED_UNITS]
        diagonal = np.einsum("...ii->...i", block)  # a writable view
        saved = diagonal.copy()
        diagonal -= 2.0 * saved.real.sum(axis=1, keepdims=True) / COND_LIMIT
        try:
            np.linalg.cholesky(block)
            continue
        except np.linalg.LinAlgError:
            pass
        finally:
            diagonal[...] = saved
        lam = np.linalg.eigvalsh(block)  # ascending
        flags[start : start + len(block)] = ~(lam[:, -1] <= COND_LIMIT * lam[:, 0])
    return flags


def zf_beamformers(anchors) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm ZF beam matrices of E units in one pass: ``anchors[e, n]``,
    shape (E, N, N_R, N_T), is the channel of unit e's anchor of beam n.

    For each unit the composite precoder is F_C = A^H (A A^H)^(-1) for the
    raw (N*N_R, N_T) anchor stack A, and beam n's vector is the sum of the
    N_R columns of F_C's n-th block, scaled to unit norm so beam powers are
    radiated powers.  The composite itself is never built.  With D the row
    scales (each anchor block's norm over sqrt(N_R N_T), so path-loss
    spreads of many orders of magnitude do not dominate the condition
    number without any directional degeneracy) and the equilibrated Gram
    G = D^(-1) A A^H D^(-1),

        F_C E = A^H D^(-1) G^(-1) D^(-1) E,

    E being the (N*N_R, N) block-ones matrix: one solve with N right-hand
    sides and one product with the raw anchors per unit.  The Gram, the
    solve and the normalisation each run once over the stack, the
    condition test once per block of ``CERTIFIED_UNITS`` units, and a
    unit's result equals, bit for bit, that of a stack holding it alone.

    Returns the beam matrices (E, N_T, N) and whether each unit is
    singular: an anchor's channel is zero or cond(G) exceeds ``COND_LIMIT``
    (i.i.d. Gaussian draws are almost surely fine; the guard catches
    pathological draws so the caller can redraw).  The condition number is
    the ratio of the extreme eigenvalues of the Hermitian G, as
    ``eigvalsh`` gives them, and a unit is flagged unless
    lambda_max <= COND_LIMIT * lambda_min, so a zero, negative or NaN
    lambda_min flags it too.  The eigenvalues are rarely computed: a
    Cholesky factorisation of G - t I with t = 2 tr(G) / COND_LIMIT
    certifies a unit first.  Where it succeeds, lambda_min(G) exceeds t up
    to O(n eps tr G) (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., ch. 10; Rump, "Verification of positive
    definiteness", BIT 46, 2006), and lambda_max <= tr G since G is
    positive definite, so the eigenvalues, each within about 1e-14 tr G of
    the truth, pass the test with a margin of two.  Only where the
    certificate fails does ``eigvalsh`` run, so the flags are exactly those
    of the eigenvalues (see ``_ill_conditioned``).  A singular unit's beams
    are NaN.  Raises ValueError when an anchor channel is not finite.
    """
    anchors = np.asarray(anchors)
    n_units, n_beams, n_rx, n_tx = anchors.shape
    if n_beams * n_rx > n_tx:
        raise ValueError(
            f"need n_beams*n_rx <= n_tx for zero forcing, got {n_beams}*{n_rx} > {n_tx}"
        )
    a = anchors.reshape(n_units, n_beams * n_rx, n_tx)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite anchor raises below
        # the raw A A^H, each entry one conjugating dot product of two
        # rows, so no conjugate copy of the stack is made
        gram = np.vecdot(a[:, None], a[:, :, None])
        # each block's squared norm, the trace of its diagonal block
        squares = np.diagonal(gram, axis1=-2, axis2=-1).real.reshape(n_units, n_beams, n_rx).sum(axis=-1)
    if not np.isfinite(squares).all():
        # any NaN or infinite entry leaves its block's square NaN or infinite
        raise ValueError("anchor channels must be finite, with finite norms")
    scales = np.sqrt(squares) / np.sqrt(n_rx * n_tx)
    singular = (scales == 0).any(axis=1)
    row_scale = np.repeat(np.where(scales == 0, 1.0, scales), n_rx, axis=1)  # (E, N*N_R), D's diagonal
    gram /= row_scale[:, :, None]
    gram /= row_scale[:, None, :]
    singular |= _ill_conditioned(gram)
    live = ~singular if singular.any() else slice(None)  # with every unit live, views and no copies
    # D^(-1) G^(-1) D^(-1) E, row r of E holding a one in its beam's column
    ones = np.arange(n_beams * n_rx)[:, None] // n_rx == np.arange(n_beams)
    y = np.linalg.solve(gram[live], ones / row_scale[live, :, None]) / row_scale[live, :, None]
    del gram  # the stack's largest temporary, not needed for the beams
    # A^H y, conjugating y rather than the anchors
    beams = (y.conj().swapaxes(-1, -2) @ a[live]).conj().swapaxes(-1, -2)
    beams /= np.linalg.norm(beams, axis=-2, keepdims=True)
    beam_matrix = np.full((n_units, n_tx, n_beams), np.nan, dtype=complex)
    beam_matrix[live] = beams
    return beam_matrix, singular


def compute_zfbf(channels: list[ChannelMatrix], omega: SelectedUserSet) -> BeamformerSet:
    """The beams of ``zf_beamformers`` on a single unit, the anchors
    ``omega`` of ``channels``.

    Raises SingularChannelError where the pass flags the unit: an anchor's
    channel is zero or the condition test fails.
    """
    beam_matrix, singular = zf_beamformers(np.array([[channels[u].entries for u in omega.users]]))
    if singular[0]:
        raise SingularChannelError("stacked anchor channel is zero or near rank-deficient")
    return BeamformerSet(beam_matrix=beam_matrix[0], selected=omega)
