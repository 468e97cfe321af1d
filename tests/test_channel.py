import numpy as np
import pytest

from lsapdma.channel import (
    CellConfig,
    draw_channels,
    drop_users,
    large_scale_gain,
    sample_channel,
    user_channels,
)
from lsapdma.rng import make_rng


def test_drop_users_empty():
    drop = drop_users(CellConfig(), 0, make_rng(0))
    assert drop.n_users == 0
    assert drop.positions.shape == (0, 2)


def test_drop_users_within_radius():
    cfg = CellConfig(radius_m=800.0)
    drop = drop_users(cfg, 5, make_rng(1))
    assert drop.n_users == 5
    assert (drop.distances <= 800.0).all()
    assert (drop.distances >= cfg.min_distance_m).all()
    assert np.allclose(np.linalg.norm(drop.positions, axis=1), drop.distances)


def test_drop_users_squared_radius_uniform():
    # r^2 should be uniform on (d_min^2, R^2); Kolmogorov distance vs the
    # analytic CDF below 0.01 at 1e5 samples
    cfg = CellConfig(radius_m=800.0, min_distance_m=10.0)
    n = 100_000
    drop = drop_users(cfg, n, make_rng(2))
    r2 = np.sort(drop.distances**2)
    lo, hi = cfg.min_distance_m**2, cfg.radius_m**2
    cdf = (r2 - lo) / (hi - lo)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    assert ks < 0.01


def test_large_scale_gain_at_reference_distance():
    cfg = CellConfig(shadow_std_db=0.0, path_loss_factor=1.0, path_loss_exponent=3.7,
                     reference_distance_m=1.0, min_distance_m=0.5)
    assert large_scale_gain(cfg, 1.0, make_rng(0)) == pytest.approx(1.0)


def test_large_scale_gain_power_law():
    cfg = CellConfig(shadow_std_db=0.0, path_loss_factor=1.0, path_loss_exponent=3.7,
                     reference_distance_m=1.0, min_distance_m=0.5)
    # direct evaluation of d^(-eta)
    assert large_scale_gain(cfg, 10.0, make_rng(0)) == pytest.approx(10.0**-3.7, rel=1e-12)


def test_large_scale_gain_rejects_bad_distance():
    cfg = CellConfig()
    with pytest.raises(ValueError):
        large_scale_gain(cfg, 0.0, make_rng(0))
    with pytest.raises(ValueError):
        large_scale_gain(cfg, -5.0, make_rng(0))


def test_large_scale_gain_decreasing_without_shadowing():
    cfg = CellConfig(shadow_std_db=0.0)
    gains = [large_scale_gain(cfg, d, make_rng(0)) for d in (20.0, 50.0, 200.0, 799.0)]
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_default_parameters_follow_setup():
    cfg = CellConfig()
    assert cfg.path_loss_factor == 1.0
    assert cfg.path_loss_exponent == 3.7
    assert cfg.shadow_std_db == 10.0
    assert cfg.radius_m == 800.0


def test_cell_config_validation():
    with pytest.raises(ValueError):
        CellConfig(radius_m=-1.0)
    with pytest.raises(ValueError):
        CellConfig(shadow_std_db=-0.1)
    with pytest.raises(ValueError):
        CellConfig(noise_variance=0.0)
    with pytest.raises(ValueError):
        CellConfig(min_distance_m=900.0)
    # every field must be finite, and the error names it: NaN passed every
    # comparison, a NaN or infinite noise ran to zero rates, an infinite
    # reference distance divided by zero inside the first drop
    for name in ("radius_m", "path_loss_factor", "path_loss_exponent", "shadow_std_db",
                 "noise_variance", "min_distance_m", "reference_distance_m"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=rf"^{name} must be finite$"):
                CellConfig(**{name: bad})
    # the path loss at both ends of the annulus must be a finite positive
    # float: an overflow at the minimum distance raised OverflowError in the
    # first drop, and an underflow at the radius gives users zero gain
    with pytest.raises(ValueError, match=r"path loss at min_distance_m = 10 that is not a finite positive float$"):
        CellConfig(path_loss_exponent=1000.0)
    with pytest.raises(ValueError, match=r"path loss at radius_m = 800 that is not a finite positive float$"):
        CellConfig(path_loss_factor=1e-300, path_loss_exponent=20.0, reference_distance_m=10.0)
    CellConfig(path_loss_exponent=100.0)


def test_sample_channel_zero_gain():
    ch = sample_channel(2, 3, 0.0, make_rng(0))
    assert np.all(ch.entries == 0)


def test_sample_channel_shape():
    ch = sample_channel(4, 16, 1.0, make_rng(3))
    assert ch.entries.shape == (4, 16)
    assert np.isfinite(ch.entries).all()


def test_sample_channel_variance():
    # per-entry variance equals the large-scale gain, halves per component
    ch = sample_channel(250, 400, 1.0, make_rng(4))  # 1e5 entries
    flat = ch.entries.ravel()
    assert 0.99 < np.mean(np.abs(flat) ** 2) < 1.01
    assert abs(np.var(flat.real) - 0.5) < 0.01
    assert abs(np.var(flat.imag) - 0.5) < 0.01


def test_channel_determinism():
    cfg = CellConfig()
    a = drop_users(cfg, 7, make_rng(11, 2))
    b = drop_users(cfg, 7, make_rng(11, 2))
    assert np.array_equal(a.positions, b.positions)
    ca = sample_channel(4, 16, 0.3, make_rng(11, 3))
    cb = sample_channel(4, 16, 0.3, make_rng(11, 3))
    assert np.array_equal(ca.entries, cb.entries)
    la = user_channels(cfg, a, 4, 16, make_rng(11, 4))
    lb = user_channels(cfg, b, 4, 16, make_rng(11, 4))
    for x, y in zip(la, lb):
        assert np.array_equal(x.entries, y.entries)
        assert x.large_scale_gain == y.large_scale_gain


def test_streams_are_independent():
    a = sample_channel(4, 4, 1.0, make_rng(5, 0))
    b = sample_channel(4, 4, 1.0, make_rng(5, 1))
    assert not np.array_equal(a.entries, b.entries)


def test_user_channels_match_the_per_user_draws():
    # one standard_normal call for the drop against large_scale_gain then
    # sample_channel per user: equal bit for bit, generator left in the
    # same state
    cells = (
        CellConfig(),
        CellConfig(radius_m=300.0, path_loss_exponent=2.9, shadow_std_db=6.0, reference_distance_m=50.0),
        CellConfig(shadow_std_db=0.0, path_loss_factor=3.5e-3),
    )
    for c, cell in enumerate(cells):
        for k in range(9):
            for n_rx, n_tx in ((4, 16), (1, 3)):
                for s in range(10):
                    rng, ref_rng = make_rng(c, k, s), make_rng(c, k, s)
                    drop = drop_users(cell, k, rng)
                    drop_users(cell, k, ref_rng)
                    got = user_channels(cell, drop, n_rx, n_tx, rng)
                    want = []
                    for d in drop.distances:
                        gain = large_scale_gain(cell, float(d), ref_rng)
                        want.append(sample_channel(n_rx, n_tx, gain, ref_rng))
                    assert len(got) == k
                    for g, w in zip(got, want):
                        assert g.large_scale_gain == w.large_scale_gain
                        assert type(g.large_scale_gain) is float
                        assert g.entries.shape == (n_rx, n_tx)
                        assert np.array_equal(g.entries, w.entries)
                    assert np.array_equal(rng.integers(0, 2**63, 4), ref_rng.integers(0, 2**63, 4))


def test_draw_channels_match_the_per_drop_draws():
    # the stack of C drops against drop_users then user_channels on a fresh
    # generator per drop: entries, gains and the generator's state after,
    # bit for bit; and a generator restarted by its saved state draws what
    # a new Philox on the drop's seed sequence draws
    for shadow in (0.0, 10.0):
        cell = CellConfig(shadow_std_db=shadow)
        for n_rx, n_tx in ((1, 1), (4, 16)):
            for k in (0, 1, 3, 7):
                states = [np.random.SeedSequence(3, spawn_key=(k, n_rx, c)) for c in range(5)]
                rngs = [np.random.Generator(np.random.Philox(state)) for state in states]
                starts = [rng.bit_generator.state for rng in rngs]
                entries, gains = draw_channels(cell, k, n_rx, n_tx, rngs)
                assert entries.shape == (5, k, n_rx, n_tx) and gains.shape == (5, k)
                for state, rng, drop_entries, drop_gains in zip(states, rngs, entries, gains):
                    ref_rng = np.random.Generator(np.random.Philox(state))
                    want = user_channels(cell, drop_users(cell, k, ref_rng), n_rx, n_tx, ref_rng)
                    assert drop_gains.tolist() == [ch.large_scale_gain for ch in want]
                    assert np.array_equal(drop_entries, np.array([ch.entries for ch in want]).reshape(k, n_rx, n_tx))
                    assert np.array_equal(rng.integers(0, 2**63, 4), ref_rng.integers(0, 2**63, 4))
                for rng, start in zip(rngs, starts):
                    rng.bit_generator.state = start
                again = draw_channels(cell, k, n_rx, n_tx, rngs)
                fresh = draw_channels(cell, k, n_rx, n_tx, [np.random.Generator(np.random.Philox(s)) for s in states])
                for got in (again, fresh):
                    assert np.array_equal(got[0], entries) and np.array_equal(got[1], gains)
