import dataclasses
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from lsapdma.beamforming import BeamformerSet, SelectedUserSet, compute_zfbf, select_users
from lsapdma.channel import CellConfig, ChannelMatrix, drop_users, sample_channel, user_channels
from lsapdma.harness import ExperimentConfig, _chunk_set_ups, run_monte_carlo
from lsapdma.pattern import (
    correlation_matrix,
    equal_power,
    fixed_ratio_ladders,
    simple_beam_allocation,
)
from lsapdma.receiver import (
    LinkState,
    _mmse_kernel,
    _sic_sinr,
    _sqrt_factors,
    beam_sum_rates,
    build_link_state,
    drop_link_states,
    sic_orders,
    sic_sinrs,
)
from lsapdma.rng import make_rng


def _setup(k=5, seed=0, n_rx=4, n_tx=16):
    chans = [sample_channel(n_rx, n_tx, 1.0, make_rng(seed, i)) for i in range(k)]
    pattern = simple_beam_allocation(3, k, range(k))
    omega = select_users(chans, pattern, np.arange(1.0, k + 1.0))
    beams = compute_zfbf(chans, omega)
    return chans, pattern, beams


ROOT = Path(__file__).resolve().parent.parent


def _equal_splits(powered, p_sum):
    """The equal splits (C, D, N, K) of each budget over each support of a
    (C, N, K) powered stack: its ``fixed_ratio_ladders`` at mu = 1, whose
    steps are all 1, in any SIC order."""
    return fixed_ratio_ladders(powered, [1.0], np.arange(np.shape(powered)[-1]), p_sum)[:, :, 0]


def _power_scales(powers):
    """Each power matrix of a stack (..., N, K) as (Pi, s): s its largest
    power (...) and Pi = P / s (..., N, K), a zero matrix having s = 0 and
    Pi = 0, so an equal split's Pi is its 0/1 powered support."""
    p = np.asarray(powers, dtype=float)
    s = p.max(axis=(-2, -1))
    return p / np.where(s > 0, s, 1.0)[..., None, None], s


def _stack(chans, beams, powers):
    """One unit's D power matrices (D, N, K), all of one shape, as the
    (channels, beams, pi, s) of a ``drop_link_states`` call on one set-up
    on one drop (S = C = 1), the harness's way."""
    pi, s = _power_scales(powers)
    return [np.array([ch.entries for ch in chans])[None]], beams.beam_matrix[None, None], pi[None, None, 0], s[None, None]


def _joined(*stacks):
    """Stacks of one drop count as the set-ups of one ``drop_link_states``
    call: their power shapes zero-padded to the widest, the harness's way."""
    width = max(pi.shape[-1] for _, _, pi, _ in stacks)
    return (
        [g for channels, *_ in stacks for g in channels],
        np.concatenate([f for _, f, _, _ in stacks]),
        np.concatenate([np.pad(pi, [(0, 0)] * 3 + [(0, width - pi.shape[-1])]) for _, _, pi, _ in stacks]),
        np.concatenate([s for *_, s in stacks]),
    )


def _kernel(chans, beams, b, s, sigma2):
    """Filters (D, K, N_R, N) and gains (D, N, K) of one unit's users at the
    D second moments s[d] * b, read from the MMSE kernel: the filters are
    V = M Q, with M = G F and the kernel's Q."""
    m = np.stack([ch.entries for ch in chans]) @ beams.beam_matrix
    root = _sqrt_factors(np.asarray(b, dtype=float))
    q, h = _mmse_kernel(m, root, np.asarray(s, dtype=float)[None], sigma2)
    return (m[:, None] @ q).swapaxes(0, 1), h.transpose(1, 2, 0)


def _moments(power):
    """The (b, s) of one power matrix for ``_kernel``: its statistic at unit
    scale, and its one scale."""
    pi, s = _power_scales(power)
    return correlation_matrix(pi), [s]


def _oracle_gains(channels, f, powers, sigma2):
    """Gains (D, N, K) of one unit's users (K, N_R, N_T) under beams f at
    each power matrix of a stack (D, N, K), at 50 digits: per user the MMSE
    filter V = (M A M^H + sigma2 I)^(-1) M A with M = G F and
    A_ij = sum_k sqrt(p_ik p_jk), solved as written, then each beam's
    desired power, interference and noise from V^H M."""
    powers = np.asarray(powers, dtype=float)
    out = np.zeros(powers.shape)
    with mp.workdps(50):
        f = mp.matrix(np.asarray(f).tolist())
        ms = [mp.matrix(np.asarray(g).tolist()) * f for g in channels]
        for d, p in enumerate(powers):
            root = [[mp.sqrt(x) for x in row] for row in p.tolist()]
            a = mp.matrix([[mp.fsum(x * y for x, y in zip(ri, rj)) for rj in root] for ri in root])
            for k, m in enumerate(ms):
                ma = m * a
                v = mp.inverse(ma * m.H + sigma2 * mp.eye(m.rows)) * ma
                proj = v.H * m
                for n in range(a.rows):
                    inter = mp.fsum(abs(proj[n, i]) ** 2 for i in range(a.rows) if i != n)
                    denom = inter + sigma2 * mp.fsum(abs(v[r, n]) ** 2 for r in range(v.rows))
                    out[d, n, k] = float(mp.sqrt(abs(proj[n, n]) ** 2 / denom)) if denom else 0.0
    return out


def _oracle_errors(gains, ref):
    """Per budget, the largest relative gain error over the pairs above
    1e-8 of the unit's largest gain, and the largest gain (either side)
    of the pairs below it, relative to that floor."""
    floor = 1e-8 * ref.max(axis=(-2, -1), keepdims=True)
    big = ref > floor
    err = np.where(big, np.abs(gains - ref) / np.where(big, ref, 1.0), 0.0).max(axis=(-2, -1))
    small = np.where(big, 0.0, np.maximum(gains, ref) / floor).max(axis=(-2, -1))
    return err, small


def _beam_sinrs(h, p, order):
    """One beam's SINRs, in user space, under a decoding order of some of
    its users, which need not ascend in gain: the one SINR formula,
    ``_sic_sinr``, on the beam's rows put in that order.  The users left
    out carry no power and get SINR 0."""
    h, p = np.asarray(h, dtype=float), np.asarray(p, dtype=float)
    order = np.asarray(order, dtype=int)
    rest = np.setdiff1d(np.arange(len(h)), order)
    assert not p[rest].any()
    out = np.zeros(len(h))
    out[order] = _sic_sinr(h[order] ** 2, p[order])
    return out


def _scalar_beams(n):
    # n beams on an identity channel: g = f = I
    eye = np.eye(n, dtype=complex)
    return ChannelMatrix(entries=eye, large_scale_gain=1.0), BeamformerSet(
        beam_matrix=eye,
        selected=SelectedUserSet(pairs=tuple((i, 0) for i in range(n))),
    )


def test_mmse_zero_signal_zero_filter():
    # the zero allocation: every filter and every gain is zero, with no
    # division by the zero denominator
    chans, pattern, beams = _setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b, s in ((np.zeros((3, 3)), [1.0, 1.0]), (np.eye(3), [0.0, 0.0])):
            filters, gains = _kernel(chans, beams, b, s, 1.0)
            assert np.allclose(filters, 0.0)
            assert gains.shape == (2, 3, 5)
            assert (gains == 0.0).all()
        # and the zero power matrix through the one-matrix seam
        link = build_link_state(chans, beams, np.zeros((3, 5)), 1.0)
    assert (link.gains == 0.0).all()


def test_mmse_gains_rejects_bad_inputs():
    # a zero noise variance, non-finite powers, an unstacked power matrix,
    # a negative scale
    chans, pattern, beams = _setup()
    p = equal_power(pattern, 10.0)
    for bad_p, sigma2 in ((p[None], 0.0), (np.full((1, 3, 5), np.nan), 1.0), (p, 1.0)):
        with pytest.raises(ValueError):
            drop_link_states(*_stack(chans, beams, bad_p), sigma2)
    g, f, pi, s = _stack(chans, beams, p[None])
    with pytest.raises(ValueError):
        drop_link_states(g, f, pi, -s, 1.0)


def test_drop_link_states_rejects_powers_that_do_not_fit_the_unit():
    # the filters must be matched to the unit's own powers: a 7-user unit
    # given another pattern's (3, 5) shape, or a shape over too few beams,
    # is refused rather than filtered with foreign statistics
    chans, pattern, beams = _setup(k=7)
    other = simple_beam_allocation(3, 5, range(5))
    splits = _equal_splits(pattern.entries[None] == 1, [10.0])[0]
    for bad in (_equal_splits(other.entries[None] == 1, [10.0])[0], splits[:, :2]):
        with pytest.raises(ValueError, match=r"\(S, C, N, K\)"):
            drop_link_states(*_stack(chans, beams, bad), 1.0)
    assert drop_link_states(*_stack(chans, beams, splits), 1.0).shape == (1, 1, 1, 3, 7)


def test_drop_link_states_give_pad_users_zero_gains_and_change_no_other():
    # power shapes wider than a stack's users, the extra columns zero (pad
    # users), give the real users' gains of the unpadded call bit for bit,
    # general (not 0/1) shapes included, and zero gains to the pads, alone
    # or beside a stack of another width; a pad that carries power is
    # refused
    rng = make_rng(24)
    other_chans, other_pattern, other_beams = _setup(k=4, seed=1)
    other = _stack(other_chans, other_beams, _equal_splits(other_pattern.entries[None] == 1, [1.0, 2.0])[0])
    for k in (3, 5, 7):
        chans, pattern, beams = _setup(k=k)
        powers = pattern.entries * rng.uniform(0.5, 2.0, (3, k))
        g, f, pi, s = _stack(chans, beams, np.array([powers, 3.0 * powers]))  # one shape at two scales
        (gains,) = drop_link_states(g, f, pi, s, 1.0)
        for pads in (1, 4, 9):
            wide = np.concatenate([pi, np.zeros((1, 1, 3, pads))], axis=-1)
            (padded,) = drop_link_states(g, f, wide, s, 1.0)
            beside = drop_link_states(*_joined(other, (g, f, wide, s)), 1.0)
            assert beside.shape == (2, 1, 2, 3, max(4, k + pads))
            for got in (padded, beside[1]):
                assert np.array_equal(got[..., :k], gains) and not got[..., k:].any()
            wide[0, 0, 0, k] = 1.0
            with pytest.raises(ValueError, match="pad"):
                drop_link_states(g, f, wide, s, 1.0)


def test_mmse_high_noise_limit():
    # V -> G F A / sigma2 to first order when noise dominates
    chans, pattern, beams = _setup(seed=1)
    p = equal_power(pattern, 10.0)
    a = correlation_matrix(p)
    g = chans[1].entries
    cov = g @ beams.beam_matrix @ a @ beams.beam_matrix.conj().T @ g.conj().T
    sigma2 = 1e6 * np.linalg.norm(cov, 2)
    v = _kernel(chans, beams, *_moments(p), sigma2)[0][0, 1]
    approx = g @ beams.beam_matrix @ a / sigma2
    rel = np.linalg.norm(v - approx) / np.linalg.norm(v)
    assert rel < 0.01


def test_mmse_minimizes_analytic_mse():
    # closed form: E||t - V^H y||^2 = tr(A) - 2 Re tr(V^H G F A) + tr(V^H R V)
    chans, pattern, beams = _setup(seed=2)
    p = equal_power(pattern, 10.0)
    a = correlation_matrix(p)
    g = chans[2].entries
    f = beams.beam_matrix
    gfa = g @ f @ a
    cov = gfa @ f.conj().T @ g.conj().T + 1.0 * np.eye(4)

    def mse(v):
        return float(
            np.trace(a).real
            - 2 * np.trace(v.conj().T @ gfa).real
            + np.trace(v.conj().T @ cov @ v).real
        )

    v = _kernel(chans, beams, *_moments(p), 1.0)[0][0, 2]
    base = mse(v)
    rng = make_rng(3)
    scale = 1e-3 * np.linalg.norm(v)
    for _ in range(100):
        delta = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
        delta *= scale / np.linalg.norm(delta)
        assert mse(v + delta) >= base - 1e-12


def test_normalized_gain_scalar_case():
    # one beam, g = f = 1: v = a / (a + sigma2) is nonzero, and h = 1/sigma
    # whatever the signal power
    ch, beams = _scalar_beams(1)
    for sigma2, h in ((1.0, 1.0), (4.0, 0.5)):
        gains = _kernel([ch], beams, np.ones((1, 1)), [1e-2, 1.0, 1e2], sigma2)[1]
        assert gains == pytest.approx(np.full((3, 1, 1), h))


def test_normalized_gain_zero_filter_column():
    # a beam carrying nothing gets a zero filter column and h = 0; the
    # other beam keeps h = 1/sigma
    ch, beams = _scalar_beams(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filters, gains = _kernel([ch], beams, np.diag([1.0, 0.0]), [1.0], 1.0)
    assert not filters[0, 0, :, 1].any()
    assert gains[0, 1, 0] == 0.0
    assert gains[0, 0, 0] == pytest.approx(1.0)


def test_normalized_gain_matches_independent_accumulation():
    chans, pattern, beams = _setup(seed=4)
    sigma2 = 1.0
    filters, gains = _kernel(chans, beams, *_moments(equal_power(pattern, 10.0)), sigma2)
    for k in (0, 2, 4):
        for n in range(3):
            # separately written numerator/denominator accumulation
            v = filters[0, k, :, n]
            num = 0.0 + 0.0j
            for rx in range(4):
                for tx in range(16):
                    num += np.conj(v[rx]) * chans[k].entries[rx, tx] * beams.beam_matrix[tx, n]
            denom = sigma2 * sum(abs(v[rx]) ** 2 for rx in range(4))
            for i in range(3):
                if i == n:
                    continue
                term = 0.0 + 0.0j
                for rx in range(4):
                    for tx in range(16):
                        term += np.conj(v[rx]) * chans[k].entries[rx, tx] * beams.beam_matrix[tx, i]
                denom += abs(term) ** 2
            expected = np.sqrt(abs(num) ** 2 / denom)
            assert gains[0, n, k] == pytest.approx(expected, rel=1e-10)


def test_mmse_gains_match_a_per_user_reference_and_single_allocations():
    # every shape N <= K <= 2^N - 1 with unit-gain channels, budgets
    # 0-90 dB, nulled pairs present: the batched kernel against the
    # 50-digit per-user oracle, and a D-budget stack against D
    # one-allocation chains bit for bit.  Every pair above 1e-8 of its
    # unit's largest gain is within 2e-13 at 0-20 dB and 1e-9 at 40-90 dB
    # (the high-budget pairs far below the unit's largest gain lose digits
    # to the spread of the eigenvalues); the pairs below that floor, the
    # nulled ones among them, stay below it
    saw_nulled = False
    dbs = np.array([0.0, 20.0, 40.0, 60.0, 90.0])
    for n in (2, 3, 4):
        for k in range(n, 2**n):
            chans = [sample_channel(4, 16, 1.0, make_rng(n, k, i)) for i in range(k)]
            pattern = simple_beam_allocation(n, k, range(k))
            omega = select_users(chans, pattern, np.arange(1.0, k + 1.0))
            beams = compute_zfbf(chans, omega)
            nulled = omega.nulled(pattern)
            saw_nulled |= nulled.any()
            (splits,) = _equal_splits(((pattern.entries == 1) & ~nulled)[None], 10.0 ** (dbs / 10.0))
            ((gains,),) = drop_link_states(*_stack(chans, beams, splits), 1.0)
            ref = _oracle_gains([ch.entries for ch in chans], beams.beam_matrix, splits, 1.0)
            err, small = _oracle_errors(gains, ref)
            assert np.all(err <= np.where(dbs <= 20.0, 2e-13, 1e-9)), (n, k, err)
            assert np.all(small < 1.0), (n, k, small)
            for d, split in enumerate(splits):
                single = build_link_state(chans, beams, split, 1.0)
                assert np.array_equal(single.gains, gains[d])
                assert np.array_equal(sic_sinrs(single.gains, split), sic_sinrs(gains, splits)[d])
    assert saw_nulled


def test_preset_gains_match_a_50_digit_oracle_up_to_90_db():
    # drops 0-7 of the fig5 preset at K = 7 on the simple pattern, the
    # simulator's path-loss spread included: on every powered pair the
    # gains are within 1e-12 of the 50-digit oracle at 0-90 dB
    cfg = ExperimentConfig.from_file(ROOT / "configs" / "fig5.cfg")
    dbs = np.array([0.0, 20.0, 40.0, 60.0, 90.0])
    for i in range(8):
        setup = _chunk_set_ups(cfg, [np.random.SeedSequence(cfg.seed, spawn_key=(i,))], [(7, "simple")])
        splits = _equal_splits(setup.powered[0], 10.0 ** (dbs / 10.0))[0]
        pi, s = _power_scales(splits)
        ((gains,),) = drop_link_states(setup.channels, setup.beams, pi[None, None, 0], s[None, None], cfg.cell.noise_variance)
        ref = _oracle_gains(setup.channels[0][0], setup.beams[0, 0], splits, cfg.cell.noise_variance)
        powered = splits > 0
        assert np.all(np.abs(gains - ref)[powered] <= 1e-12 * ref[powered]), i


def test_singular_statistics_match_the_oracle():
    # two beams powering the same users carry one signal, so B = Pi Pi^T
    # has rank N - 1 and the filter's factor a zero column; the gains still
    # match the 50-digit oracle within the bounds of the unit-gain shapes
    rng = make_rng(12)
    chans = np.array([sample_channel(4, 16, 1.0, make_rng(12, i)).entries for i in range(4)])
    f = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    f /= np.linalg.norm(f, axis=0)
    shape = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    assert np.linalg.matrix_rank(correlation_matrix(shape)) == 2
    dbs = np.array([0.0, 20.0, 40.0, 60.0, 90.0])
    s = 10.0 ** (dbs / 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((gains,),) = drop_link_states([chans[None]], f[None, None], shape[None, None], s[None, None], 1.0)
    err, small = _oracle_errors(gains, _oracle_gains(chans, f, s[:, None, None] * shape, 1.0))
    assert np.all(err <= np.where(dbs <= 20.0, 2e-13, 1e-9)), err
    assert np.all(small < 1.0), small


def test_fig4_runs_at_90_and_120_db():
    # the preset's chain at budgets where the noise falls below the
    # round-off of the signal covariance: finite records, no warning
    cfg = ExperimentConfig.from_file(ROOT / "configs" / "fig4.cfg")
    for db in (90.0, 120.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table, samples = run_monte_carlo(
                dataclasses.replace(cfg, p_sum_db=(db,), drops=4, workers=1), collect_samples=True
            )
        assert table.rows and all(np.isfinite(row.mean_sum_rate) for row in table.rows)
        assert all(len(v) == 4 and np.isfinite(v).all() for v in samples.values())


def test_one_matrix_seams_equal_their_stack_slices():
    # equal_power and build_link_state, which a caller holding one budget
    # uses, give the (N, K) slices of the mu = 1 ladders and drop_link_states
    # bit for bit, at every shape N <= K <= 2^N - 1 and 0, 20 and 40 dB
    cell = CellConfig()
    budgets = [10.0 ** (db / 10.0) for db in (0.0, 20.0, 40.0)]
    for n in (2, 3, 4):
        units = []
        for k in range(n, 2**n):
            rng = make_rng(11, n, k)
            chans = user_channels(cell, drop_users(cell, k, rng), 4, 16, rng)
            hints = np.array([ch.large_scale_gain for ch in chans])
            pattern = simple_beam_allocation(n, k, np.argsort(hints, kind="stable"))
            omega = select_users(chans, pattern, hints)
            nulled = omega.nulled(pattern)
            (splits,) = _equal_splits(((pattern.entries == 1) & ~nulled)[None], budgets)
            for d, p_sum in enumerate(budgets):
                one = equal_power(pattern, p_sum, nulled)
                assert one.shape == (n, k)
                assert np.array_equal(one, splits[d])
            units.append((chans, compute_zfbf(chans, omega), splits))
        for (chans, beams, splits), (gains,) in zip(units, drop_link_states(*_joined(*(_stack(*u) for u in units)), 1.0)):
            for d, split in enumerate(splits):
                link = build_link_state(chans, beams, split, 1.0)
                assert isinstance(link, LinkState)
                assert np.array_equal(link.gains, gains[d, :, : len(chans)])


def test_sic_order_sorts_ascending_with_ties():
    def order(gains, covered):
        full = sic_orders(gains)
        return full[np.asarray(covered)[full]]

    assert np.array_equal(order([3.0, 1.0, 2.0], [True] * 3), [1, 2, 0])
    assert np.array_equal(order([1.0, 1.0, 1.0], [True] * 3), [0, 1, 2])
    assert np.array_equal(order([0.1, 0.2, 0.3], [True, False, True]), [0, 2])
    # already ascending stays put
    assert np.array_equal(order([0.1, 0.2, 0.3], [True] * 3), [0, 1, 2])
    # a stack orders row by row
    stack = sic_orders(np.array([[[3.0, 1.0, 2.0], [0.1, 0.2, 0.3]]]))
    assert np.array_equal(stack, [[[1, 2, 0], [0, 1, 2]]])


def test_pad_users_change_no_sinr_and_no_sum_rate():
    # users with zero gain and no power appended to a (C, D, M, N, K) stack
    # (the gains broadcast over M, as the harness hands them) leave the
    # real users' SINRs and every sum rate of ``beam_sum_rates`` bit for
    # bit as they are, for K = 1 ... 16 and 1 ... 16 pads, though the
    # padded gains sort the pads among the zero gains, first: every sum
    # they enter runs left to right
    rng = make_rng(21)
    for k in range(1, 17):
        for pads in range(1, 17):
            gains = rng.lognormal(0.0, 1.0, (2, 2, 1, 3, k)) * (rng.random((2, 2, 1, 3, k)) < 0.9)
            powers = rng.uniform(0.0, 5.0, (2, 2, 3, 3, k)) * (rng.random((2, 2, 3, 3, k)) < 0.8)
            sinrs, rates = sic_sinrs(gains, powers), beam_sum_rates(gains, powers)
            padded_gains = np.concatenate([gains, np.zeros(gains.shape[:-1] + (pads,))], axis=-1)
            padded_powers = np.concatenate([powers, np.zeros(powers.shape[:-1] + (pads,))], axis=-1)
            padded_sinrs = sic_sinrs(padded_gains, padded_powers)
            assert np.array_equal(padded_sinrs[..., :k], sinrs) and not padded_sinrs[..., k:].any()
            assert np.array_equal(beam_sum_rates(padded_gains, padded_powers), rates), (k, pads)


def test_sum_rates_add_left_to_right():
    # with 8 or more terms numpy's sum would regroup them pairwise: each
    # beam's 15 pair rates and the 9 beam rates must add up in a Python
    # loop's order, bit for bit
    rng = make_rng(22)
    gains = rng.lognormal(0.0, 1.0, (5, 9, 15))
    powers = rng.uniform(0.1, 5.0, (5, 9, 15))
    rates = np.log2(1.0 + sic_sinrs(gains, powers)).tolist()
    want = []
    for stack in rates:
        total = 0.0
        for beam in stack:
            beam_rate = beam[0]
            for rate in beam[1:]:
                beam_rate += rate
            total += beam_rate
        want.append(total.hex())
    assert [rate.hex() for rate in beam_sum_rates(gains, powers).tolist()] == want


def test_sinr_single_user():
    gamma = _beam_sinrs(np.array([1.0]), np.array([10.0]), np.array([0]))
    assert gamma[0] == pytest.approx(10.0)


def test_sinr_two_user_ladder():
    # h = (1, 1), powers (4, 2) in decode order: 4/(1+2) and 2
    gamma = _beam_sinrs(np.array([1.0, 1.0]), np.array([4.0, 2.0]), np.array([0, 1]))
    assert gamma[0] == pytest.approx(4.0 / 3.0)
    assert gamma[1] == pytest.approx(2.0)


def test_sinr_zero_power():
    gamma = _beam_sinrs(np.array([1.0, 2.0]), np.zeros(2), np.array([0, 1]))
    assert np.all(gamma == 0.0)
    with pytest.raises(ValueError):
        sic_sinrs(np.array([1.0]), np.array([-1.0]))


def test_sinr_uncovered_users_get_zero():
    gamma = _beam_sinrs(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 2.0]), np.array([0, 2]))
    assert gamma[1] == 0.0


def test_merged_and_separate_powers_agree_exactly():
    rng = make_rng(5)
    h = rng.uniform(0.1, 3.0, 5)
    b = np.array([1, 0, 1, 1, 0])
    p = rng.uniform(0.5, 2.0, 5)
    merged = b * p
    assert np.array_equal(sic_sinrs(h, merged), sic_sinrs(h, b * p))


def test_mimo_and_scalar_models_agree():
    # the SINR from h must equal the ratio assembled from raw filter
    # outputs; as in the harness, the pairs the ZF anchors null carry no
    # power (their gain is 0, so any ratio of theirs is round-off)
    chans, pattern, beams = _setup(seed=6)
    sigma2 = 1.0
    alloc = equal_power(pattern, 10.0, beams.selected.nulled(pattern))
    filters, _ = _kernel(chans, beams, *_moments(alloc), sigma2)
    link = build_link_state(chans, beams, alloc, sigma2)
    orders = sic_orders(link.gains)
    sinrs = sic_sinrs(link.gains, alloc)
    for k in range(5):
        v = filters[0, k]
        proj = v.conj().T @ chans[k].entries @ beams.beam_matrix
        powers = np.abs(proj) ** 2
        for n in range(3):
            if alloc[n, k] == 0:
                continue
            order = orders[n]
            pos = int(np.flatnonzero(order == k)[0])
            later = order[pos + 1 :]
            desired = powers[n, n] * alloc[n, k]
            inter_beam = powers[n].sum() - powers[n, n]
            noise = sigma2 * np.linalg.norm(v[:, n]) ** 2
            intra = powers[n, n] * alloc[n, later].sum()
            direct = desired / (inter_beam + noise + intra)
            rel = abs(direct - sinrs[n, k]) / direct
            assert rel < 1e-9


def test_relabeling_invariance():
    rng = make_rng(7)
    h = rng.uniform(0.1, 5.0, (3, 6))
    p = rng.uniform(0.0, 2.0, (3, 6))
    base = np.log2(1.0 + sic_sinrs(h, p)).sum()
    perm = rng.permutation(6)
    h2, p2 = h[:, perm], p[:, perm]
    new = np.log2(1.0 + sic_sinrs(h2, p2)).sum()
    assert new == pytest.approx(base, rel=1e-12)


def test_two_user_power_domain_oracle():
    # diversity-one pattern must reduce to the classic two-user ladder
    rng = make_rng(8)
    h = rng.uniform(0.2, 4.0, (3, 6))
    pairs = [(0, 3), (1, 4), (2, 5)]
    p = np.zeros((3, 6))
    for n, (a, b) in enumerate(pairs):
        p[n, a] = rng.uniform(0.5, 2.0)
        p[n, b] = rng.uniform(0.5, 2.0)
    gamma = sic_sinrs(h, p)
    for n, (a, b) in enumerate(pairs):
        weak, strong = (a, b) if h[n, a] <= h[n, b] else (b, a)
        expected_weak = h[n, weak] ** 2 * p[n, weak] / (1 + h[n, weak] ** 2 * p[n, strong])
        expected_strong = h[n, strong] ** 2 * p[n, strong]
        assert gamma[n, weak] == pytest.approx(expected_weak, rel=1e-14)
        assert gamma[n, strong] == pytest.approx(expected_strong, rel=1e-14)


def test_last_user_rate_monotone_in_power():
    h = np.array([0.5, 1.0, 2.0])  # decoded in index order
    base = np.array([1.0, 1.0, 1.0])
    r0 = np.log2(1 + sic_sinrs(h, base))[2]
    bigger = base.copy()
    bigger[2] = 2.0
    r1 = np.log2(1 + sic_sinrs(h, bigger))[2]
    assert r1 > r0


def test_sum_rate_values():
    def sum_of_rates(gammas):
        # one user per beam at unit gain decodes free of intra-beam
        # interference, so its SINR is its power
        p = np.reshape(gammas, (-1, 1))
        return float(beam_sum_rates(np.ones(p.shape), p))

    assert sum_of_rates(np.zeros((3, 5))) == 0.0
    assert sum_of_rates(np.ones((3, 5))) == pytest.approx(15.0)
    rng = make_rng(9)
    gammas = rng.uniform(0.0, 8.0, (3, 5))
    naive = 0.0
    for n in range(3):
        for k in range(5):
            naive += np.log2(1 + gammas[n, k])
    assert sum_of_rates(gammas) == pytest.approx(naive, rel=1e-14)
    with pytest.raises(ValueError):
        sum_of_rates(np.array([[-0.1]]))


def test_build_link_state_invariants():
    chans, pattern, beams = _setup(seed=10)
    alloc = equal_power(pattern, 10.0)
    link = build_link_state(chans, beams, alloc, 1.0)
    assert isinstance(link, LinkState)
    assert (link.gains >= 0).all()
    orders = sic_orders(link.gains)
    sinrs = sic_sinrs(link.gains, alloc)
    assert (sinrs[alloc == 0] == 0).all()
    for n in range(3):
        hs = link.gains[n, orders[n]]
        assert (np.diff(hs) >= 0).all()


def test_drop_link_states_match_each_unit_alone():
    # mixed-K set-ups, K = N and K = 2^N - 1 with the simulator's path-loss
    # spread, budgets 0-40 dB: every user's gains in the one stacked solve
    # equal its unit's gains from a call on that unit alone bit for bit,
    # whether its unit is a set-up of its own, padded beside the others, or
    # one of the two drops of a set-up that holds both units of K = N
    cell = CellConfig()
    budgets = [10.0 ** (db / 10.0) for db in (0.0, 20.0, 40.0)]
    for n in (2, 3, 4):
        units = []
        for k in (n, 2**n - 1, n):
            rng = make_rng(3, n, k, len(units))
            chans = user_channels(cell, drop_users(cell, k, rng), 4, 16, rng)
            hints = np.array([ch.large_scale_gain for ch in chans])
            pattern = simple_beam_allocation(n, k, np.argsort(hints, kind="stable"))
            omega = select_users(chans, pattern, hints)
            (splits,) = _equal_splits(((pattern.entries == 1) & ~omega.nulled(pattern))[None], budgets)
            units.append((chans, compute_zfbf(chans, omega), splits))
        stacks = [_stack(*unit) for unit in units]
        # the two K = N units as one set-up on two drops
        pair = ([np.concatenate(stacks[0][0] + stacks[2][0])],) + tuple(
            np.concatenate([a, b], axis=1) for a, b in zip(stacks[0][1:], stacks[2][1:])
        )
        stacked, (paired,) = drop_link_states(*_joined(*stacks), 1.0), drop_link_states(*pair, 1.0)
        assert stacked.shape == (len(units), 1, len(budgets), n, 2**n - 1)
        for unit, unit_gains, paired_gains in zip(units, stacked, [paired[0], None, paired[1]]):
            ((gains,),) = drop_link_states(*_stack(*unit), 1.0)
            k = len(unit[0])
            assert np.array_equal(unit_gains[0, ..., :k], gains) and not unit_gains[..., k:].any()
            if paired_gains is not None:
                assert np.array_equal(paired_gains, gains)
            pi, s = _power_scales(unit[2])
            _, reference = _kernel(unit[0], unit[1], correlation_matrix(pi[0]), s, 1.0)
            assert np.array_equal(gains, reference)
    g, f, pi, s = stacks[0]
    with pytest.raises(ValueError, match=r"\(S, C, D\)"):
        drop_link_states(g, f, pi, s[0], 1.0)


def test_drop_link_states_refuse_non_finite_shared_and_redrawn_channels():
    # two set-ups on two drops, as the harness passes them: both pass the
    # one draw they share, or the second a copy of it with a drop redrawn.
    # A NaN in the shared draw, or only in the redrawn copy, is refused
    chans, pattern, beams = _setup()
    g, f, pi, s = _stack(chans, beams, _equal_splits(pattern.entries[None] == 1, [1.0])[0])
    shared = np.concatenate(g + g)  # (C = 2, K, N_R, N_T)
    f, pi, s = np.tile(f, (2, 2, 1, 1)), np.tile(pi, (2, 2, 1, 1)), np.tile(s, (2, 2, 1))
    assert drop_link_states([shared, shared], f, pi, s, 1.0).shape == (2, 2, 1, 3, 5)
    poisoned = shared.copy()
    poisoned[1, 0, 0, 0] = np.nan
    for channels in ([poisoned, poisoned], [shared, poisoned]):
        with pytest.raises(ValueError, match="non-finite channels"):
            drop_link_states(channels, f, pi, s, 1.0)
