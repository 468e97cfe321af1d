import warnings

import numpy as np
import pytest
import scipy.linalg

from lsapdma.beamforming import BeamformerSet, SelectedUserSet, compute_zfbf, select_users
from lsapdma.channel import CellConfig, ChannelMatrix, drop_users, sample_channel, user_channels
from lsapdma.pattern import (
    correlation_matrix,
    equal_power,
    equal_splits,
    simple_beam_allocation,
)
from lsapdma.receiver import (
    LinkState,
    _mmse_kernel,
    build_link_state,
    drop_link_states,
    pair_rates,
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


def _kernel(chans, beams, a, sigma2):
    """Filters (D, K, N_R, N) and gains (D, N, K) of one unit's users at the
    D second moments ``a``, read from the MMSE kernel."""
    g = np.stack([ch.entries for ch in chans])
    v, h = _mmse_kernel(g, beams.beam_matrix, np.asarray(a, dtype=float)[:, None], sigma2)
    return v, h.swapaxes(-1, -2)


def _beam_sinrs(h, p, order):
    """One beam's SINRs under a decoding order of some of its users, as a
    one-row stack: the users left out are ordered last and carry no power."""
    h, p = np.asarray(h, dtype=float), np.asarray(p, dtype=float)
    order = np.asarray(order, dtype=int)
    rest = np.setdiff1d(np.arange(len(h)), order)
    assert not p[rest].any()
    return sic_sinrs(h[None], p[None], np.concatenate([order, rest])[None])[0]


def _scalar_beams(n):
    # n beams on an identity channel: g = f = I
    eye = np.eye(n, dtype=complex)
    return ChannelMatrix(entries=eye, large_scale_gain=1.0), BeamformerSet(
        composite=eye,
        beam_matrix=eye,
        selected=SelectedUserSet(pairs=tuple((i, 0) for i in range(n))),
        normalized=True,
    )


def test_mmse_zero_signal_zero_filter():
    # the zero allocation: every filter and every gain is zero, with no
    # division by the zero denominator
    chans, pattern, beams = _setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filters, gains = _kernel(chans, beams, np.zeros((2, 3, 3)), 1.0)
    assert np.allclose(filters, 0.0)
    assert gains.shape == (2, 3, 5)
    assert (gains == 0.0).all()


def test_mmse_gains_rejects_bad_inputs():
    # a zero noise variance, non-finite powers, an unstacked power matrix
    chans, pattern, beams = _setup()
    p = equal_power(pattern, 10.0)
    for bad_p, sigma2 in ((p[None], 0.0), (np.full((1, 3, 5), np.nan), 1.0), (p, 1.0)):
        with pytest.raises(ValueError):
            drop_link_states([(chans, beams, bad_p)], sigma2)


def test_drop_link_states_rejects_powers_that_do_not_fit_the_unit():
    # the filters must be matched to the unit's own powers: a 7-user unit
    # given another pattern's (D, 3, 5) split, or a split over too few
    # beams, is refused rather than filtered with foreign statistics
    chans, pattern, beams = _setup(k=7)
    other = simple_beam_allocation(3, 5, range(5))
    for bad in (equal_splits(other, [10.0]), equal_splits(pattern, [10.0])[:, :2]):
        with pytest.raises(ValueError, match=r"\(D, N, K\)"):
            drop_link_states([(chans, beams, bad)], 1.0)
    assert drop_link_states([(chans, beams, equal_splits(pattern, [10.0]))], 1.0)[0].shape == (1, 3, 7)


def test_mmse_high_noise_limit():
    # V -> G F A / sigma2 to first order when noise dominates
    chans, pattern, beams = _setup(seed=1)
    a = correlation_matrix(equal_power(pattern, 10.0))
    g = chans[1].entries
    cov = g @ beams.beam_matrix @ a @ beams.beam_matrix.conj().T @ g.conj().T
    sigma2 = 1e6 * np.linalg.norm(cov, 2)
    v = _kernel(chans, beams, a[None], sigma2)[0][0, 1]
    approx = g @ beams.beam_matrix @ a / sigma2
    rel = np.linalg.norm(v - approx) / np.linalg.norm(v)
    assert rel < 0.01


def test_mmse_minimizes_analytic_mse():
    # closed form: E||t - V^H y||^2 = tr(A) - 2 Re tr(V^H G F A) + tr(V^H R V)
    chans, pattern, beams = _setup(seed=2)
    a = correlation_matrix(equal_power(pattern, 10.0))
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

    v = _kernel(chans, beams, a[None], 1.0)[0][0, 2]
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
    a = np.array([1e-2, 1.0, 1e2]).reshape(3, 1, 1)
    for sigma2, h in ((1.0, 1.0), (4.0, 0.5)):
        gains = _kernel([ch], beams, a, sigma2)[1]
        assert gains == pytest.approx(np.full((3, 1, 1), h))


def test_normalized_gain_zero_filter_column():
    # a beam carrying nothing gets a zero filter column and h = 0; the
    # other beam keeps h = 1/sigma
    ch, beams = _scalar_beams(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filters, gains = _kernel([ch], beams, np.diag([1.0, 0.0])[None], 1.0)
    assert not filters[0, 0, :, 1].any()
    assert gains[0, 1, 0] == 0.0
    assert gains[0, 0, 0] == pytest.approx(1.0)


def test_normalized_gain_matches_independent_accumulation():
    chans, pattern, beams = _setup(seed=4)
    a = correlation_matrix(equal_power(pattern, 10.0))
    sigma2 = 1.0
    filters, gains = _kernel(chans, beams, a[None], sigma2)
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


def _per_user_gains(channels, beams, a, sigma2):
    """One user and one beam at a time: a 2-D solve per user, then each
    beam's projections, interference and noise summed term by term."""
    f = beams.beam_matrix
    n_beams = f.shape[1]
    h = np.zeros((n_beams, len(channels)))
    for k, ch in enumerate(channels):
        g = ch.entries
        gfa = g @ f @ a
        cov = gfa @ f.conj().T @ g.conj().T + sigma2 * np.eye(g.shape[0])
        v = scipy.linalg.solve(cov, gfa, assume_a="pos")
        proj = v.conj().T @ g @ f
        for n in range(n_beams):
            if not v[:, n].any():
                continue
            desired = abs(proj[n, n]) ** 2
            inter = sum(abs(proj[n, i]) ** 2 for i in range(n_beams) if i != n)
            noise = sigma2 * sum(abs(x) ** 2 for x in v[:, n])
            h[n, k] = np.sqrt(desired / (inter + noise))
    return h


def test_mmse_gains_match_a_per_user_reference_and_single_allocations():
    # every shape N <= K <= 2^N - 1, budgets 0-40 dB, nulled pairs present:
    # the batched kernel against a per-user loop, and a D-budget stack
    # against D one-allocation chains bit for bit
    saw_nulled = False
    for n in (2, 3, 4):
        for k in range(n, 2**n):
            chans = [sample_channel(4, 16, 1.0, make_rng(n, k, i)) for i in range(k)]
            pattern = simple_beam_allocation(n, k, range(k))
            omega = select_users(chans, pattern, np.arange(1.0, k + 1.0))
            beams = compute_zfbf(chans, omega)
            nulled = omega.nulled(pattern)
            saw_nulled |= nulled.any()
            splits = equal_splits(pattern, [10.0 ** (db / 10.0) for db in (0.0, 20.0, 40.0)], nulled)
            (gains,) = drop_link_states([(chans, beams, splits)], 1.0)
            covered = pattern.entries == 1
            for d, split in enumerate(splits):
                ref = _per_user_gains(chans, beams, correlation_matrix(split), 1.0)
                assert np.all(np.abs(gains[d] - ref) <= 1e-13 * ref)
                single = build_link_state(chans, beams, split, 1.0)
                assert np.array_equal(single.gains, gains[d])
                orders = sic_orders(single.gains, covered)
                assert np.array_equal(orders, sic_orders(gains[d], covered))
                assert np.array_equal(
                    sic_sinrs(single.gains, split, orders), sic_sinrs(gains, splits, sic_orders(gains, covered))[d]
                )
    assert saw_nulled


def test_one_matrix_seams_equal_their_stack_slices():
    # equal_power and build_link_state, which a caller holding one budget
    # uses, give the (N, K) slices of equal_splits and drop_link_states
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
            splits = equal_splits(pattern, budgets, nulled)
            for d, p_sum in enumerate(budgets):
                one = equal_power(pattern, p_sum, nulled)
                assert one.shape == (n, k)
                assert np.array_equal(one, splits[d])
            units.append((chans, compute_zfbf(chans, omega), splits))
        for (chans, beams, splits), gains in zip(units, drop_link_states(units, 1.0)):
            for d, split in enumerate(splits):
                link = build_link_state(chans, beams, split, 1.0)
                assert isinstance(link, LinkState)
                assert np.array_equal(link.power, split)
                assert np.array_equal(link.gains, gains[d])


def test_sic_order_sorts_ascending_with_ties():
    def order(gains, covered):
        return sic_orders(gains, covered)[: sum(covered)]

    assert np.array_equal(order([3.0, 1.0, 2.0], [True] * 3), [1, 2, 0])
    assert np.array_equal(order([1.0, 1.0, 1.0], [True] * 3), [0, 1, 2])
    assert np.array_equal(order([0.1, 0.2, 0.3], [True, False, True]), [0, 2])
    # already ascending stays put
    assert np.array_equal(order([0.1, 0.2, 0.3], [True] * 3), [0, 1, 2])
    # the uncovered users follow the covered ones; a stack orders row by row
    assert np.array_equal(sic_orders([0.3, 0.1, 0.2], [False, True, True]), [1, 2, 0])
    stack = sic_orders(np.array([[[3.0, 1.0, 2.0], [0.1, 0.2, 0.3]]]))
    assert np.array_equal(stack, [[[1, 2, 0], [0, 1, 2]]])


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
        _beam_sinrs(np.array([1.0]), np.array([-1.0]), np.array([0]))


def test_sinr_uncovered_users_get_zero():
    gamma = _beam_sinrs(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 2.0]), np.array([0, 2]))
    assert gamma[1] == 0.0


def test_merged_and_separate_powers_agree_exactly():
    rng = make_rng(5)
    h = rng.uniform(0.1, 3.0, 5)
    b = np.array([1, 0, 1, 1, 0])
    p = rng.uniform(0.5, 2.0, 5)
    order = sic_orders(h, b.astype(bool))
    merged = b * p
    assert np.array_equal(sic_sinrs(h, merged, order), sic_sinrs(h, b * p, order))


def test_mimo_and_scalar_models_agree():
    # the SINR from h must equal the ratio assembled from raw filter outputs
    chans, pattern, beams = _setup(seed=6)
    sigma2 = 1.0
    alloc = equal_power(pattern, 10.0)
    filters, _ = _kernel(chans, beams, correlation_matrix(alloc)[None], sigma2)
    link = build_link_state(chans, beams, alloc, sigma2)
    covered = pattern.entries == 1
    orders = sic_orders(link.gains, covered)
    sinrs = sic_sinrs(link.gains, alloc, orders)
    for k in range(5):
        v = filters[0, k]
        proj = v.conj().T @ chans[k].entries @ beams.beam_matrix
        powers = np.abs(proj) ** 2
        for n in range(3):
            if alloc[n, k] == 0:
                continue
            order = orders[n, : covered[n].sum()]
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
    base = pair_rates(sic_sinrs(h, p, sic_orders(h, p > 0))).sum()
    perm = rng.permutation(6)
    h2, p2 = h[:, perm], p[:, perm]
    new = pair_rates(sic_sinrs(h2, p2, sic_orders(h2, p2 > 0))).sum()
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
    gamma = sic_sinrs(h, p, sic_orders(h, p > 0))
    for n, (a, b) in enumerate(pairs):
        weak, strong = (a, b) if h[n, a] <= h[n, b] else (b, a)
        expected_weak = h[n, weak] ** 2 * p[n, weak] / (1 + h[n, weak] ** 2 * p[n, strong])
        expected_strong = h[n, strong] ** 2 * p[n, strong]
        assert gamma[n, weak] == pytest.approx(expected_weak, rel=1e-14)
        assert gamma[n, strong] == pytest.approx(expected_strong, rel=1e-14)


def test_last_user_rate_monotone_in_power():
    h = np.array([0.5, 1.0, 2.0])
    order = np.array([0, 1, 2])
    base = np.array([1.0, 1.0, 1.0])
    r0 = np.log2(1 + sic_sinrs(h, base, order))[2]
    bigger = base.copy()
    bigger[2] = 2.0
    r1 = np.log2(1 + sic_sinrs(h, bigger, order))[2]
    assert r1 > r0


def test_sum_rate_values():
    def sum_of_rates(gammas):
        return float(pair_rates(gammas).sum())

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
    covered = pattern.entries == 1
    orders = sic_orders(link.gains, covered)
    sinrs = sic_sinrs(link.gains, link.power, orders)
    assert np.array_equal(pair_rates(sinrs), np.log2(1 + sinrs))
    assert (sinrs[alloc == 0] == 0).all()
    for n in range(3):
        hs = link.gains[n, orders[n, : covered[n].sum()]]
        assert (np.diff(hs) >= 0).all()


def test_drop_link_states_match_each_unit_alone():
    # mixed-K stacks, K = N and K = 2^N - 1 with the simulator's path-loss
    # spread, budgets 0-40 dB: every user's gains in the one stacked solve
    # equal its unit's gains from a call on that unit alone bit for bit
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
            units.append((chans, compute_zfbf(chans, omega), equal_splits(pattern, budgets, omega.nulled(pattern))))
        stacked = drop_link_states(units, 1.0)
        assert len(stacked) == len(units)
        for unit, unit_gains in zip(units, stacked):
            (gains,) = drop_link_states([unit], 1.0)
            assert unit_gains.shape == (len(budgets), n, len(unit[0]))
            assert np.array_equal(unit_gains, gains)
            _, reference = _kernel(unit[0], unit[1], correlation_matrix(unit[2]), 1.0)
            assert np.array_equal(gains, reference)
    short = units[:2]
    with pytest.raises(ValueError, match="same number"):
        drop_link_states([short[0], (*short[1][:2], short[1][2][:2])], 1.0)
