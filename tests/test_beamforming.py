import warnings
from pathlib import Path

import numpy as np
import pytest

from lsapdma.beamforming import (
    COND_LIMIT,
    SelectedUserSet,
    SingularChannelError,
    compute_zfbf,
    select_users,
    zf_beamformers,
)
from lsapdma.channel import CellConfig, ChannelMatrix, drop_users, sample_channel, user_channels
from lsapdma.harness import ExperimentConfig, _chunk_rates
from lsapdma.pattern import PatternMatrix, simple_beam_allocation
from lsapdma.rng import make_rng

B35 = PatternMatrix(np.array([[1, 1, 0, 1, 0], [1, 1, 1, 0, 0], [1, 0, 1, 0, 1]]))


def _channels(k, n_rx=4, n_tx=16, seed=0):
    return [sample_channel(n_rx, n_tx, 1.0, make_rng(seed, i)) for i in range(k)]


def _zf_identity_residual(g_c, beams, n_rx):
    """How far unit-norm ZF beams B (N_T, N) are from G_C B = E diag(c), E
    the (N*N_R, N) block-ones matrix and c_n the mean of beam n's own
    block of G_C B: the largest |G_C B - E diag(c)| over |c|, column by
    column.  The composite F_C with G_C F_C = I gives exactly this, with
    c_n one over the norm of F_C's collapsed block n."""
    product = g_c @ beams
    n = beams.shape[1]
    ones = np.kron(np.eye(n), np.ones((n_rx, 1)))
    c = (product * ones).sum(axis=0) / n_rx
    return float((np.abs(product - ones * c) / np.abs(c)).max())


def test_select_users_single_candidate():
    chans = _channels(1, n_rx=1, n_tx=1)
    pattern = PatternMatrix(np.array([[1]]))
    omega = select_users(chans, pattern, np.array([2.0]))
    assert omega.pairs == ((0, 0),)


def test_select_users_weakest_covered():
    # B35 diversities are (3, 2, 2, 1, 1): beams 0 and 2 each cover one
    # diversity-1 user and anchor it, whatever the hints say
    chans = _channels(5)
    omega = select_users(chans, B35, np.arange(1.0, 6.0))
    assert omega.pairs[0] == (0, 3)
    assert omega.pairs[2] == (2, 4)
    # anchors must be distinct so the stacked channel stays full rank
    assert len(set(omega.users)) == 3
    # beam 1's candidates are users 1 and 2 at diversity 2 (user 0 has 3):
    # the weaker of the two takes it
    assert omega.pairs == ((0, 3), (1, 1), (2, 4))
    flipped = select_users(chans, B35, np.array([1.0, 3.0, 2.0, 4.0, 5.0]))
    assert flipped.pairs == ((0, 3), (1, 2), (2, 4))


def test_select_users_tie_breaks_to_lower_index():
    chans = _channels(3)
    pattern = PatternMatrix(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
    omega = select_users(chans, pattern, np.array([1.0, 1.0, 0.5]))
    # beam 0's candidates tie at diversity 2 and hint 1.0; the lower user
    # index wins
    assert omega.pairs[0] == (0, 0)
    assert omega.pairs == ((0, 0), (1, 2), (2, 1))


def test_select_users_scale_invariance():
    chans = _channels(5)
    hints = np.array([0.3, 2.0, 0.9, 4.0, 1.1])
    a = select_users(chans, B35, hints)
    b = select_users(chans, B35, 7.5 * hints)
    assert a.pairs == b.pairs


def test_select_users_exhaustion_falls_back_to_reassignment():
    # beam 1 covers only user 0; greedy order must leave user 0 for it
    chans = _channels(2)
    pattern = PatternMatrix(np.array([[1, 1], [1, 0]]))
    omega = select_users(chans, pattern, np.array([1.0, 2.0]))
    assert sorted(omega.users) == [0, 1]
    assert omega.pairs[1] == (1, 0)
    # beams 0 and 1 greedily take users 1 and 0, which exhausts beam 2's
    # covered set; the augmenting path moves beam 1 to user 2
    chans = _channels(3)
    pattern = PatternMatrix(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    omega = select_users(chans, pattern, np.array([1.0, 2.0, 3.0]))
    assert omega.pairs == ((0, 1), (1, 2), (2, 0))


def test_zfbf_unit_channel_passthrough():
    ch = ChannelMatrix(entries=np.array([[1.0 + 0j, 0, 0, 0]]), large_scale_gain=1.0)
    omega = select_users([ch], PatternMatrix(np.array([[1]])), np.array([1.0]))
    beams = compute_zfbf([ch], omega)
    expected = np.zeros(4, dtype=complex)
    expected[0] = 1.0
    assert np.allclose(beams.beam_matrix[:, 0], expected)


def test_zfbf_pseudo_inverse_identity():
    chans = _channels(5, seed=2)
    omega = select_users(chans, B35, np.arange(5.0))
    beams = compute_zfbf(chans, omega)
    g_c = np.vstack([chans[u].entries for u in omega.users])
    assert _zf_identity_residual(g_c, beams.beam_matrix, 4) < 1e-10
    assert beams.beam_matrix.shape == (16, 3)


def test_zfbf_block_consistency():
    chans = _channels(5, seed=3)
    omega = select_users(chans, B35, np.arange(5.0))
    beams = compute_zfbf(chans, omega)
    # the beams come from the N right-hand-side solve, bit for bit, and
    # agree to round-off with the collapse of the blocks of the composite
    # F_C = G^H (G G^H)^(-1), scaled to unit norm
    assert np.array_equal(beams.beam_matrix, _per_unit_zf(chans, omega))
    g_c = np.vstack([chans[u].entries for u in omega.users])
    composite = np.linalg.solve(g_c @ g_c.conj().T, g_c).conj().T
    ones = np.ones(4)
    for n in range(3):
        block = composite[:, 4 * n : 4 * (n + 1)]
        collapsed = block @ ones
        collapsed /= np.linalg.norm(collapsed)
        assert np.abs(beams.beam_matrix[:, n] - collapsed).max() <= 1e-13 * np.abs(collapsed).max()


def test_zfbf_normalized_columns():
    chans = _channels(5, seed=4)
    omega = select_users(chans, B35, np.arange(5.0))
    beams = compute_zfbf(chans, omega)
    assert np.allclose(np.linalg.norm(beams.beam_matrix, axis=0), 1.0)


def test_zfbf_zero_leakage_to_other_anchors():
    chans = _channels(5, seed=5)
    omega = select_users(chans, B35, np.arange(5.0))
    beams = compute_zfbf(chans, omega)
    for n in range(3):
        f_n = beams.beam_matrix[:, n]
        # the unit-norm beam is the collapse of F_C's block n over its norm,
        # so its anchor hears the identity block's row sums times c_n
        c_n = (chans[omega.pairs[n][1]].entries @ f_n).mean()
        for m, user in omega.pairs:
            rx = chans[user].entries @ f_n
            if m == n:
                assert np.abs(rx / c_n - 1.0).max() < 1e-9  # identity-block row sums
            else:
                assert np.abs(rx / c_n).max() < 1e-9


def test_zfbf_rejects_rank_deficient_stack():
    ch = _channels(1, seed=6)[0]
    twin = ChannelMatrix(entries=ch.entries.copy(), large_scale_gain=ch.large_scale_gain)
    from lsapdma.beamforming import SelectedUserSet

    omega = SelectedUserSet(pairs=((0, 0), (1, 1)))
    with pytest.raises(SingularChannelError):
        compute_zfbf([ch, twin], omega)


def test_zfbf_rejects_too_many_streams():
    chans = _channels(5, n_rx=4, n_tx=8)
    omega = select_users(chans, B35, np.arange(5.0))
    with pytest.raises(ValueError):
        compute_zfbf(chans, omega)


def test_zf_identity_survives_user_scale_spread():
    # different user path gains must not destroy the pseudo-inverse identity
    chans = [
        sample_channel(4, 16, g, make_rng(10, i))
        for i, g in enumerate([1e-2, 1.0, 1e2])
    ]
    pattern = simple_beam_allocation(3, 3, [0, 1, 2])
    omega = select_users(chans, pattern, np.array([1e-2, 1.0, 1e2]))
    beams = compute_zfbf(chans, omega)
    g_c = np.vstack([chans[u].entries for u in omega.users])
    assert _zf_identity_residual(g_c, beams.beam_matrix, 4) < 1e-8


def _per_unit_zf(channels, omega):
    """One unit's ZF beams, written out: A^H D^-1 Gram^-1 D^-1 E from the
    raw stack A, with D each block's norm read off the diagonal of A A^H,
    Gram = D^-1 A A^H D^-1 and E the block-ones matrix, each column scaled
    to unit norm, which the stacked pass must match bit for bit."""
    blocks = [channels[u].entries for _, u in omega.pairs]
    n_rx = blocks[0].shape[0]
    a = np.vstack(blocks)
    raw = np.vecdot(a[None], a[:, None])  # entry (i, j) is conj(a_j) . a_i
    d = np.repeat(np.sqrt(np.diagonal(raw).real.reshape(len(blocks), n_rx).sum(axis=1)) / np.sqrt(blocks[0].size), n_rx)
    ones = np.kron(np.eye(len(blocks)), np.ones((n_rx, 1)))
    y = np.linalg.solve(raw / d[:, None] / d[None, :], ones / d[:, None]) / d[:, None]
    beam_matrix = (y.conj().T @ a).conj().T
    return beam_matrix / np.linalg.norm(beam_matrix, axis=0, keepdims=True)


def _mixed_units(n, seed):
    """(channels, anchors) of six units: K = N and K = 2^N - 1, three cell
    drops each, with the simulator's path-loss and shadowing spread."""
    cell = CellConfig()
    units = []
    for k in (n, 2**n - 1):
        for d in range(3):
            rng = make_rng(seed, n, k, d)
            chans = user_channels(cell, drop_users(cell, k, rng), 4, 16, rng)
            hints = np.array([ch.large_scale_gain for ch in chans])
            pattern = simple_beam_allocation(n, k, np.argsort(hints, kind="stable"))
            units.append((chans, select_users(chans, pattern, hints)))
    return units


def _anchor_stack(units):
    """The (E, N, N_R, N_T) anchor channels of (channels, anchors) units."""
    return np.array([[chans[u].entries for u in omega.users] for chans, omega in units])


def test_stacked_zf_matches_each_unit_alone():
    for n in (2, 3, 4):
        units = _mixed_units(n, 0)
        beam_matrices, singular = zf_beamformers(_anchor_stack(units))
        assert len(beam_matrices) == len(singular) == len(units)
        assert not singular.any()
        for (chans, omega), stacked in zip(units, beam_matrices):
            beam_matrix = _per_unit_zf(chans, omega)
            alone = compute_zfbf(chans, omega)
            assert alone.selected is omega and alone.n_beams == n
            for got in (stacked, alone.beam_matrix):
                assert np.array_equal(got, beam_matrix)


def test_stacked_zf_flags_only_the_singular_units():
    units = _mixed_units(3, 1)
    # unit 1 anchors one channel twice, unit 4 has a zero anchor channel
    chans, omega = units[1]
    twin = list(chans)
    twin[omega.users[1]] = chans[omega.users[0]]
    units[1] = (twin, omega)
    chans, omega = units[4]
    zero = list(chans)
    zero[omega.users[2]] = ChannelMatrix(entries=np.zeros((4, 16), dtype=complex), large_scale_gain=0.0)
    units[4] = (zero, omega)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beam_matrices, singular = zf_beamformers(_anchor_stack(units))
    assert singular.tolist() == [e in (1, 4) for e in range(len(units))]
    for (chans, omega), beams, flagged in zip(units, beam_matrices, singular):
        if flagged:
            # a singular unit gets no precoder
            assert np.isnan(beams).all()
            with pytest.raises(SingularChannelError):
                compute_zfbf(chans, omega)
        else:
            assert np.array_equal(beams, compute_zfbf(chans, omega).beam_matrix)


def _shapes_and_scales(rng):
    """(E, N, N_R, N_T) anchor stacks of eight shapes, each block scaled by a
    log-uniform factor from 1e-12 to 1e9."""
    for n, n_rx, n_tx in ((1, 1, 1), (2, 1, 2), (3, 1, 3), (2, 3, 7), (3, 2, 8), (2, 4, 16), (3, 4, 16), (4, 4, 16)):
        shape = (40, n, n_rx, n_tx)
        scale = 10.0 ** rng.uniform(-12.0, 9.0, shape[:2] + (1, 1))
        yield scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_stacked_equilibration_equals_the_per_block_norms():
    # the stacked scales are each block's norm read off the Gram's diagonal,
    # so every beam matrix, stacked or alone, equals the per-unit
    # reference's bit for bit
    rng = np.random.default_rng(41)
    for anchors in _shapes_and_scales(rng):
        beam_matrices, singular = zf_beamformers(anchors)
        assert not singular.any()
        for unit, beams in zip(anchors, beam_matrices):
            channels = [ChannelMatrix(entries=block, large_scale_gain=1.0) for block in unit]
            omega = SelectedUserSet(pairs=tuple(enumerate(range(len(unit)))))
            want = _per_unit_zf(channels, omega)
            alone = compute_zfbf(channels, omega).beam_matrix
            assert np.array_equal(beams, want) and np.array_equal(alone, want)


def _equilibrated_gram(unit):
    """The Gram of one unit's anchors, each block scaled by its
    ``np.linalg.norm`` over sqrt(N_R N_T)."""
    g_eq = np.vstack([b / (np.linalg.norm(b) / np.sqrt(b.size)) for b in unit])
    return g_eq @ g_eq.conj().T


def _conditioned_units(rng, cond, count, n=3, n_rx=4, n_tx=16):
    """``count`` anchor stacks (n, n_rx, n_tx) whose equilibrated Gram has
    condition number ``cond``: G = U diag(sigma) V^H with U the unitary
    DFT, so every row, and so every block, has the same norm, the
    equilibration is one scalar and cond(gram) is (sigma_max / sigma_min)^2."""
    rows = n * n_rx
    u = np.exp(-2j * np.pi * np.outer(np.arange(rows), np.arange(rows)) / rows) / np.sqrt(rows)
    units = []
    for _ in range(count):
        v, _ = np.linalg.qr(rng.standard_normal((n_tx, rows)) + 1j * rng.standard_normal((n_tx, rows)))
        sigma = np.geomspace(1.0, cond**-0.5, rows)[rng.permutation(rows)]
        units.append((10.0 ** rng.uniform(-6.0, 2.0) * (u * sigma) @ v.conj().T).reshape(n, n_rx, n_tx))
    return units


def _counting_eigvalsh(monkeypatch):
    """Patch ``np.linalg.eigvalsh`` to record the eigenvalues of each call."""
    calls = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(real(a, *args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_condition_test_flags_as_the_svd_does(monkeypatch):
    # condition numbers either side of the 1e8 limit (1e7 and 1e9) and
    # either side of the Cholesky certificate's margin (3e7 and 6e7: with
    # these spectra the shift 2 tr(G) / 1e8 factors below about 4e7).  Each
    # unit is flagged as np.linalg.cond(gram) > 1e8 flags it, and a zero
    # anchor is flagged too, alone or in one stack; only a stack the
    # certificate cannot clear runs eigvalsh.
    rng = np.random.default_rng(43)
    groups = {cond: _conditioned_units(rng, cond, 20) for cond in (1e7, 3e7, 6e7, 1e9)}
    units = [unit for group in groups.values() for unit in group]
    conds = [cond for cond, group in groups.items() for _ in group]
    zero = units[0].copy()
    zero[1] = 0.0
    units.append(zero)
    calls = _counting_eigvalsh(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, singular = zf_beamformers(np.array(units))
        svd = np.array([np.linalg.cond(_equilibrated_gram(unit)) for unit in units[:-1]])
        assert np.allclose(svd, conds, rtol=1e-3)
        assert singular.tolist() == (svd > 1e8).tolist() + [True]
        assert singular.sum() == 21
        for cond, group in groups.items():
            before = len(calls)
            _, alone = zf_beamformers(np.array(group))
            assert alone.tolist() == [cond > 1e8] * len(group)
            assert len(calls) - before == (cond > 4e7)


def test_preset_stacks_run_no_eigvalsh(monkeypatch):
    # every ZF stack of a preset chunk is certified by its Cholesky shift,
    # so the eigenvalues are never computed
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("fig3", "fig4", "fig5"):
        cfg = ExperimentConfig.from_file(configs / f"{name}.cfg")
        _, redraws = _chunk_rates(cfg, [np.random.SeedSequence(cfg.seed, spawn_key=(i,)) for i in range(64)])
        assert not redraws.any()


def test_a_stack_the_certificate_fails_gets_the_eigvalsh_flags(monkeypatch):
    # condition numbers around the limit, a zero anchor and a repeated
    # anchor: the certificate cannot factor the stack, so each flag
    # is that of the unit's eigenvalues, lambda_max <= 1e8 lambda_min
    # failed (a zero anchor leaves lambda_min = 0)
    rng = np.random.default_rng(44)
    units = [unit for cond in (5e7, 0.99e8, 1.01e8, 2e8) for unit in _conditioned_units(rng, cond, 10)]
    units += list(_anchor_stack(_mixed_units(3, 3)))
    zero, twin = units[0].copy(), units[-1].copy()
    zero[2] = 0.0
    twin[1] = twin[0]
    units += [zero, twin]
    calls = _counting_eigvalsh(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, singular = zf_beamformers(np.array(units))
    (lam,) = calls  # one call on the whole stack
    assert len(lam) == len(units)
    want = ~(lam[:, -1] <= COND_LIMIT * lam[:, 0])
    assert singular.tolist() == want.tolist()
    assert singular.tolist() == [False] * 20 + [True] * 20 + [False] * 6 + [True] * 2


def test_zf_rejects_non_finite_anchors():
    # as the MMSE kernel does, before any decomposition (a NaN or infinite
    # anchor used to escape as "SVD did not converge")
    anchors = _anchor_stack(_mixed_units(3, 2))
    for bad in (np.nan, np.inf):
        corrupt = anchors.copy()
        corrupt[2, 1, 0, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            zf_beamformers(corrupt)
