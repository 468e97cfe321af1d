import dataclasses
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lsapdma import receiver

from lsapdma.beamforming import compute_zfbf, select_users
from lsapdma.channel import CellConfig, ChannelMatrix, drop_users, user_channels
from lsapdma.harness import (
    ConfigError,
    DropRecord,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    _anchored,
    _channels,
    _chunk_rates,
    _chunk_set_ups,
    _draw_drop,
    _layout,
    _scheme_runs,
    _tail_rates,
    emit_results,
    run_chunk,
    run_drop,
    run_monte_carlo,
)
from lsapdma.optimizer import ANCHOR_FLOOR, OptProblem, water_fills
from lsapdma.pattern import (
    PatternMatrix,
    equal_power,
    equal_splits,
    fixed_ratio_ladders,
    oma_pattern,
    pnoma_pattern,
    simple_beam_allocation,
)
from lsapdma.receiver import build_link_state, drop_link_states, pair_rates, power_scales, sic_orders
from test_golden_records import CASES, case_config
from test_optimizer import _water_fill_reference
from test_pattern import _ladder_reference
from test_receiver import _beam_sinrs

FAST_CELL = CellConfig()


def _beam_rate(h, p, order):
    """A beam's sum rate under SIC, ``order`` listing the powered users
    weakest first (see ``_beam_sinrs``): its users' rates added left to
    right in user order, as ``beam_sum_rates`` adds them."""
    return float(np.cumsum(pair_rates(_beam_sinrs(h, p, order)))[-1])


def _ladder(pattern, mu, orders, p_sum, nulled):
    """The ladder of one gain factor at one budget, from (N, K) orders."""
    powered = (pattern.entries == 1) & ~nulled
    return fixed_ratio_ladders(powered[None], [mu], orders[None, None], [p_sum])[0, 0, 0]


def _cfg(**kwargs):
    defaults = dict(
        schemes=("oma",),
        users=(5,),
        policies=("fixed-ratio",),
        p_sum_db=(10.0,),
        mu=(2.0,),
        drops=3,
        seed=5,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(drops=0)
    with pytest.raises(ConfigError):
        _cfg(n_tx=2)  # fewer antennas than beams
    with pytest.raises(ConfigError):
        _cfg(n_tx=8)  # zero forcing needs n_beams * n_rx <= n_tx
    with pytest.raises(ConfigError):
        _cfg(schemes=("carrier-pigeon",))
    with pytest.raises(ConfigError):
        _cfg(schemes=("lsa-pdma",), users=(9,))
    with pytest.raises(ConfigError):
        _cfg(p_sum_db=(0.0, 10.0), mu=(1.0, 2.0))
    with pytest.raises(ConfigError):
        _cfg(pattern_policy="fixed")
    # a removed or misspelt key, or an unknown section, is named, not ignored
    for text, names in (
        ("[power]\nr_min = 0.5\n", ("[power]", "r_min")),
        ("[experiment]\nmax_redraws = 5\n", ("[experiment]", "max_redraws")),
        ("[power]\nepsilon_ratio = 1e-6\n", ("[power]", "epsilon_ratio")),
        ("[experiment]\ndorps = 5\n", ("[experiment]", "dorps")),
        ("[powr]\nmu = 2\n", ("[powr]",)),
        # the ladder's first step cancels in its scaling to the budget
        ("[power]\np0_ratio = 0.5\n", ("[power]", "p0_ratio")),
        # a pattern matrix that the pattern policy would ignore
        ("[pattern]\npolicy = simple\nmatrix = 1 0 0\n  0 1 0\n  0 0 1\n", ("matrix", "'simple'")),
        # strict support that no policy of the run reads
        ("[power]\npolicies = fixed-ratio\nstrict_pattern = true\n", ("strict_pattern", "'optimal'")),
    ):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_text(text)
        assert all(name in str(err.value) for name in names)


def test_config_rejects_repeated_sweep_values():
    # a repeat would put two evaluations of each drop into one result row
    for field, values in (("users", (5, 5)), ("p_sum_db", (10.0, 10.0)), ("mu", (1.0, 1.0, 2.0))):
        with pytest.raises(ConfigError, match=field):
            _cfg(schemes=("lsa-pdma",), **{field: values})
    with pytest.raises(ConfigError, match="users"):
        ExperimentConfig.from_text("[experiment]\nusers = 5, 5\n")


def test_config_rejects_bad_power_and_run_parameters():
    # each used to pass the config and fail inside the first drop (or run
    # without complaint); the error names the field
    cases = (
        ("mu", dict(mu=(-1.0,))),
        ("pnoma_mu", dict(pnoma_mu=-2.0)),
        ("workers", dict(workers=0)),
        # only the optimal policy reads the flag
        ("strict_pattern", dict(strict_pattern=True, policies=("fixed-ratio",))),
        # an empty list crashed the drop or ran it to an empty table
        ("schemes", dict(schemes=())),
        ("users", dict(users=())),
        ("policies", dict(policies=())),
        ("p_sum_db", dict(p_sum_db=())),
        ("mu", dict(mu=())),
        ("n_tx", dict(n_tx=0)),
        ("n_rx", dict(n_rx=0)),
        ("n_beams", dict(n_beams=0)),
        ("p_sum_db", dict(p_sum_db=(float("nan"),))),
        ("p_sum_db", dict(p_sum_db=(10.0, float("inf")))),
        ("seed", dict(seed=-1)),
        # values that are not floats the drop can compute with: a ladder
        # step or a budget overflows, or underflows to zero
        ("mu", dict(mu=(float("inf"),))),
        ("mu", dict(mu=(1e300,))),
        ("mu", dict(mu=(1e60,), users=(7,))),  # mu^6 overflows at K = 7
        ("mu", dict(mu=(1e-300,))),
        ("pnoma_mu", dict(pnoma_mu=float("inf"))),
        ("p_sum_db", dict(p_sum_db=(4000.0,))),
        ("p_sum_db", dict(p_sum_db=(-4000.0,))),
    )
    for name, kwargs in cases:
        with pytest.raises(ConfigError, match=rf"\b{name}\b"):
            _cfg(**{"schemes": ("oma", "pnoma", "lsa-pdma"), "policies": ("fixed-ratio", "optimal"), **kwargs})
    # the edges that make sense still pass
    _cfg(schemes=("pnoma", "lsa-pdma"), users=(7,), mu=(1e50, 1e-50))
    _cfg(schemes=("pnoma", "lsa-pdma"), p_sum_db=(-3000.0, 30.0))


def test_config_file_round_trip(tmp_path):
    # the echo reads back to an equal config: the presets, a fixed pattern,
    # strict support, and sweep values of 9 significant digits
    configs = Path(__file__).resolve().parent.parent / "configs"
    presets = [ExperimentConfig.from_file(configs / f"fig{i}.cfg") for i in (3, 4, 5)]
    fixed = PatternMatrix(np.array([[1, 1, 0, 1, 0], [1, 1, 1, 0, 0], [1, 0, 1, 0, 1]]))
    cases = presets + [
        _cfg(
            schemes=("oma", "lsa-pdma"),
            users=(5, 7),
            policies=("fixed-ratio", "optimal"),
            p_sum_db=(0.0, 10.0),
            mu=(2.0,),
            drops=12,
            seed=99,
        ),
        _cfg(
            schemes=("lsa-pdma",),
            policies=("fixed-ratio", "optimal"),
            pattern_policy="fixed",
            fixed_pattern=fixed,
            strict_pattern=True,
        ),
        _cfg(p_sum_db=(12.3456789, -3.14159265), mu=(0.123456789,)),
        _cfg(p_sum_db=(7.5,), mu=(0.25, 1.00000001, 2.71828183)),
    ]
    for i, cfg in enumerate(cases):
        path = tmp_path / f"exp{i}.cfg"
        path.write_text(cfg.to_text())
        back = ExperimentConfig.from_file(path)
        assert back.to_text() == cfg.to_text()
        if cfg.fixed_pattern is None:
            assert back == cfg
        else:  # a pattern's entries are an array, which == compares elementwise
            assert np.array_equal(back.fixed_pattern.entries, cfg.fixed_pattern.entries)
            assert dataclasses.replace(back, fixed_pattern=None, pattern_policy="simple") == dataclasses.replace(
                cfg, fixed_pattern=None, pattern_policy="simple"
            )
            # the pattern compares and hashes by value
            assert back == cfg
            assert hash(back) == hash(cfg)
    assert "p_sum_db = 12.3456789, -3.14159265" in cases[-2].to_text()
    assert "strict_pattern = True" in cases[-3].to_text()


def test_config_file_with_pattern_block(tmp_path):
    text = """
[array]
n_tx = 16
n_rx = 4
n_beams = 3

[experiment]
schemes = lsa-pdma
users = 5
drops = 2
seed = 1

[pattern]
policy = fixed
matrix = 1 1 0 1 0
  1 1 1 0 0
  1 0 1 0 1
"""
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    cfg = ExperimentConfig.from_file(path)
    assert cfg.pattern_policy == "fixed"
    assert np.array_equal(
        cfg.fixed_pattern.entries,
        [[1, 1, 0, 1, 0], [1, 1, 1, 0, 0], [1, 0, 1, 0, 1]],
    )
    round_trip = ExperimentConfig.from_text(cfg.to_text())
    assert np.array_equal(round_trip.fixed_pattern.entries, cfg.fixed_pattern.entries)


def test_missing_config_file():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file("/nonexistent/exp.cfg")


def test_run_drop_deterministic():
    cfg = _cfg(schemes=("oma", "pnoma", "lsa-pdma"), policies=("fixed-ratio",))
    a = run_drop(cfg, 42)
    b = run_drop(cfg, 42)
    assert a == b
    c = run_drop(cfg, 43)
    assert any(x.sum_rate != y.sum_rate for x, y in zip(a, c))


def test_run_drop_produces_positive_rates():
    cfg = _cfg(schemes=("oma", "pnoma", "lsa-pdma"))
    records = run_drop(cfg, 7)
    schemes = {r.scheme for r in records}
    assert schemes == {"oma", "pnoma", "lsa-pdma-simple"}
    assert all(r.sum_rate > 0 for r in records)
    by_scheme = {r.scheme: r for r in records}
    assert by_scheme["oma"].k_users == 3
    assert by_scheme["pnoma"].k_users == 6
    assert by_scheme["lsa-pdma-simple"].k_users == 5


def test_oma_reduction_is_exact():
    # the pattern-mapped scheme with the identity pattern must equal the
    # orthogonal baseline drop for drop
    base = _cfg(schemes=("oma",), drops=4)
    reduced = _cfg(
        schemes=("lsa-pdma",),
        users=(3,),
        pattern_policy="oma",
        policies=("fixed-ratio",),
        drops=4,
    )
    for seed in range(4):
        a = {r.sweep_value: r.sum_rate for r in run_drop(base, seed) if r.scheme == "oma"}
        b = {
            r.sweep_value: r.sum_rate
            for r in run_drop(reduced, seed)
            if r.scheme == "lsa-pdma-simple"
        }
        assert a == b  # bit-exact


def test_oma_reduction_is_exact_at_every_beam_count():
    # the orthogonal baseline and the pattern-mapped scheme on the identity
    # pattern with the fixed-ratio ladder share one rate tail, so their
    # records agree bit for bit at N = 2 ... 5 and 0, 10 and 20 dB (the
    # baseline used to sum its N x N pair rates flat, which differed in the
    # last bit from N = 4 on)
    for n in (2, 3, 4, 5):
        cfg = _cfg(
            schemes=("oma", "lsa-pdma"),
            n_beams=n,
            n_tx=4 * n,
            users=(n,),
            pattern_policy="oma",
            p_sum_db=(0.0, 10.0, 20.0),
        )
        for records in run_chunk(cfg, range(16)):
            oma = {r.sweep_value: r.sum_rate for r in records if r.scheme == "oma"}
            pdma = {r.sweep_value: r.sum_rate for r in records if r.scheme == "lsa-pdma-simple"}
            assert len(oma) == 3
            assert oma == pdma, n


def test_pnoma_reduction_is_exact():
    base = _cfg(schemes=("pnoma",), pnoma_mu=0.25, drops=4)
    reduced = _cfg(
        schemes=("lsa-pdma",),
        users=(6,),
        pattern_policy="pnoma",
        policies=("fixed-ratio",),
        mu=(0.25,),
        drops=4,
    )
    for seed in range(4):
        a = {r.sweep_value: r.sum_rate for r in run_drop(base, seed) if r.scheme == "pnoma"}
        b = {
            r.sweep_value: r.sum_rate
            for r in run_drop(reduced, seed)
            if r.scheme == "lsa-pdma-simple"
        }
        assert a == b


def _singular_on_first_draw(monkeypatch, first=None, pick=None):
    """Make ``harness.zf_beamformers`` flag singular every unit whose anchor
    channels all belong to the draw ``first``, its (K, N_R, N_T) channels
    (and, with ``pick``, whose anchor users in that draw ``pick``
    accepts).  The mark follows the channels, so the redraw loop's fresh
    start sees that draw singular again and redraws once.  Without
    ``first`` the marked draw is the first unit's anchors in the first
    call."""
    import lsapdma.harness as harness

    real = harness.zf_beamformers
    marked = [] if first is None else [np.asarray(first)]

    def fake(anchors, **kwargs):
        if not marked:
            marked.append(anchors[0].copy())
        beams, singular = real(anchors, **kwargs)
        for e, unit in enumerate(anchors):
            users = [next((u for u, ch in enumerate(marked[0]) if np.array_equal(block, ch)), None) for block in unit]
            if None not in users and (pick is None or pick(tuple(users))):
                beams[e], singular[e] = np.nan, True
        return beams, singular

    monkeypatch.setattr(harness, "zf_beamformers", fake)


def _oracle_setup(cfg, k, pattern_policy, channels):
    """Pattern and anchors of one set-up on one draw, built for that draw
    alone: the policy's pattern on the draw's weakness order and
    ``select_users`` on its hints."""
    hints = np.array([ch.large_scale_gain for ch in channels])
    weakest = np.argsort(hints, kind="stable")
    pattern = {
        "simple": lambda: simple_beam_allocation(cfg.n_beams, k, weakest),
        "pnoma": lambda: pnoma_pattern(cfg.n_beams, weakest),
        "oma": lambda: oma_pattern(cfg.n_beams),
        "fixed": lambda: cfg.fixed_pattern,
    }[pattern_policy]()
    return pattern, select_users(channels, pattern, hints)


def _drawn(cfg, k, pattern_policy, state):
    """``_draw_drop``'s set-up, checked bit for bit against the per-draw
    oracle on the draw it kept: (channels, pattern, omega, beams, redraws)."""
    setup = _draw_drop(cfg, k, pattern_policy, state)
    ((redraws,),) = setup.redraws.tolist()
    rng = np.random.Generator(np.random.Philox(state))
    for _ in range(redraws + 1):
        channels = user_channels(cfg.cell, drop_users(cfg.cell, k, rng), cfg.n_rx, cfg.n_tx, rng)
    pattern, omega = _oracle_setup(cfg, k, pattern_policy, channels)
    beams = compute_zfbf(channels, omega)
    assert np.array_equal(setup.channels[0][0], [ch.entries for ch in channels])
    assert np.array_equal(setup.entries[0, 0], pattern.entries)
    assert setup.anchors[0, 0].tolist() == list(omega.users)
    assert np.array_equal(setup.powered[0, 0], (pattern.entries == 1) & ~omega.nulled(pattern))
    assert np.array_equal(setup.beams[0, 0], beams.beam_matrix)
    return channels, pattern, omega, beams, redraws


def test_redraw_limit_raises_config_error(monkeypatch):
    import lsapdma.harness as harness

    real = harness.zf_beamformers
    monkeypatch.setattr(harness, "zf_beamformers", lambda anchors: (real(anchors)[0], np.ones(len(anchors), bool)))
    cfg = _cfg()
    with pytest.raises(ConfigError, match=f"more than {harness.MAX_REDRAWS} .* redraws"):
        run_drop(cfg, 0)


def test_redraws_reach_the_table_and_the_summary(monkeypatch, tmp_path):
    # drop 0's first unit (OMA, the only K = 3 unit) is singular on its
    # first draw
    _singular_on_first_draw(monkeypatch)
    # a mu sweep replicates the records of one evaluation; its redraw counts once
    table = run_monte_carlo(_cfg(schemes=("oma", "lsa-pdma"), mu=(1.0, 2.0), drops=2))
    assert table.redraws == 1
    _, summary_path = emit_results(table, tmp_path / "out")
    assert "redraws = 1" in summary_path.read_text().splitlines()


def test_a_singular_unit_is_redrawn_alone(monkeypatch):
    # the power-domain unit (K = 6) is singular on its first draw; the
    # lsa-pdma unit with K = 6 shares that draw but not its anchors, and
    # must keep it
    cfg = _cfg(schemes=("oma", "pnoma", "lsa-pdma"), users=(4, 6), p_sum_db=(0.0, 20.0))
    for seed in range(3):
        state = np.random.SeedSequence(seed)
        draw = _channels(cfg, 6, [np.random.Generator(np.random.Philox(state))])
        first = draw[0][0]
        target = tuple(_anchored(cfg, "pnoma", *draw)[1][0].tolist())
        assert tuple(_anchored(cfg, "simple", *draw)[1][0].tolist()) != target
        plain = run_drop(cfg, state)
        with monkeypatch.context() as m:
            _singular_on_first_draw(m, first, lambda users: users == target)
            redrawn = run_drop(cfg, state)
            channels, pattern, omega, beams, redraws = _drawn(cfg, 6, "pnoma", state)
        assert redraws == 1
        assert [r.scheme for r in redrawn] == [r.scheme for r in plain]
        for got, was in zip(redrawn, plain):
            if got.scheme != "pnoma":
                assert got == was and got.redraws == 0
                continue
            # the per-unit reference on the redrawn channels
            assert got.redraws == 1 and got.sum_rate != was.sum_rate
            p_sum = 10.0 ** (got.sweep_value / 10.0)
            nulled = omega.nulled(pattern)
            link = build_link_state(channels, beams, equal_power(pattern, p_sum, nulled), 1.0)
            orders = sic_orders(link.gains)
            alloc = _ladder(pattern, cfg.pnoma_mu, orders, p_sum, nulled)
            assert got.sum_rate == sum(
                _beam_rate(link.gains[b], alloc[b], order) for b, order in enumerate(orders)
            )


def test_a_redraw_inside_a_chunk_changes_only_its_own_slot(monkeypatch):
    # a chunk of three drops whose power-domain set-up (K = 6) is singular
    # on its first draw at drop 1: the lsa-pdma K = 6 set-up keeps the
    # shared first draw bit for bit at every drop, and the power-domain
    # set-up's channels differ from it at drop 1 only, where they are the
    # draw that drop's set-up redraws alone
    cfg = _cfg(schemes=("oma", "pnoma", "lsa-pdma"), users=(4, 6), p_sum_db=(0.0, 20.0))
    states = [np.random.SeedSequence(cfg.seed, spawn_key=(i,)) for i in range(3)]
    shared = _channels(cfg, 6, [np.random.Generator(np.random.Philox(state)) for state in states])
    keys = _layout(cfg).setups
    pnoma, lsa = keys.index((6, "pnoma")), keys.index((6, "simple"))
    target = tuple(_anchored(cfg, "pnoma", *shared)[1][1].tolist())
    with monkeypatch.context() as m:
        _singular_on_first_draw(m, shared[0][1], lambda users: users == target)
        stack = _chunk_set_ups(cfg, states, keys)
        alone = _draw_drop(cfg, 6, "pnoma", states[1])
    assert stack.redraws[pnoma].tolist() == [0, 1, 0] and not stack.redraws[lsa].any()
    assert np.array_equal(stack.channels[lsa], shared[0])
    got = stack.channels[pnoma]
    assert [np.array_equal(a, b) for a, b in zip(got, shared[0])] == [True, False, True]
    assert np.array_equal(got[1], alone.channels[0][0])
    assert np.array_equal(stack.beams[pnoma, 1], alone.beams[0, 0])


def test_the_chunk_shapes_its_links_by_the_powered_support(monkeypatch):
    # _chunk_rates hands drop_link_states the stack's boolean powered
    # support as the power shape Pi and the equal splits' largest powers as
    # the scales: bit for bit the (Pi, s) that power_scales takes from
    # those splits at every budget, on a chunk of each shipped preset and
    # on a fig4 chunk whose first set-up is singular on its first draw
    import lsapdma.harness as harness

    configs = Path(__file__).resolve().parent.parent / "configs"
    for preset, singular in (("fig3", False), ("fig4", False), ("fig5", False), ("fig4", True)):
        cfg = ExperimentConfig.from_file(configs / f"{preset}.cfg")
        states = [np.random.SeedSequence(cfg.seed, spawn_key=(i,)) for i in range(6)]
        seen = {}

        def splits(powered, p_sum, real=harness.equal_splits):
            seen["splits"] = real(powered, p_sum)
            return seen["splits"]

        def links(channels, beams, pi, s, sigma2, real=harness.drop_link_states):
            seen["pi"], seen["s"] = pi, s
            return real(channels, beams, pi, s, sigma2)

        with monkeypatch.context() as m:
            if singular:
                _singular_on_first_draw(m)
            m.setattr(harness, "equal_splits", splits)
            m.setattr(harness, "drop_link_states", links)
            _, redraws = _chunk_rates(cfg, states)
        assert redraws.any() == singular, preset
        n_setups, n_drops, n_budgets = seen["s"].shape
        pi, s = power_scales(seen["splits"].reshape((n_setups, n_drops) + seen["splits"].shape[1:]))
        assert seen["pi"].dtype == bool and seen["pi"].shape[:2] == (n_setups, n_drops)
        assert np.array_equal(seen["s"], s), preset
        for d in range(n_budgets):
            assert np.array_equal(pi[:, :, d], seen["pi"].astype(float)), (preset, d)


def test_rank_space_set_ups_equal_the_per_drop_oracle():
    # every simple shape N <= K <= 2^N - 1 and the power-domain K = 2N, N =
    # 2 ... 5, on log-normal hints and on hints with exact ties: the
    # pattern, anchors and powered supports gathered from the rank-space
    # triple over a stack of draws equal, draw by draw, the policy's
    # pattern built on that draw's weakness order, select_users on its
    # hints and the covered pairs less SelectedUserSet.nulled
    rng = np.random.default_rng(29)
    cases = [(n, k, "simple") for n in (2, 3, 4, 5) for k in range(n, 2**n)]
    cases += [(n, 2 * n, "pnoma") for n in (2, 3, 4, 5)] + [(n, n, "oma") for n in (2, 5)]
    for n, k, policy in cases:
        cfg = _cfg(schemes=("lsa-pdma",) if policy == "simple" else (policy,), n_beams=n, n_rx=1, n_tx=n, users=(k,))
        hints = np.concatenate([np.exp(rng.normal(0.0, 2.3, (40, k))), rng.integers(0, 3, (40, k)) / 4.0])
        # only the hints matter here
        draws = [
            [ChannelMatrix(entries=np.ones((1, n), dtype=complex), large_scale_gain=h) for h in row] for row in hints
        ]
        setups = _anchored(cfg, policy, np.ones((len(hints), k, 1, n), dtype=complex), hints)
        assert setups[0].shape == setups[2].shape == (len(draws), n, k)
        for draw, entries, anchors, powered in zip(draws, *setups):
            pattern, omega = _oracle_setup(cfg, k, policy, draw)
            assert np.array_equal(entries, pattern.entries), (n, k, policy)
            assert anchors.tolist() == list(omega.users), (n, k, policy)
            assert np.array_equal(powered, (pattern.entries == 1) & ~omega.nulled(pattern)), (n, k, policy)
    # no rank-assigned shape above needs select_users' augmenting path; a
    # rank-space pattern that does (beams 0 and 1 take ranks 1 and 0, which
    # exhausts beam 2) moves its anchors with the ranks all the same
    base = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    base_anchors = np.array(select_users([None] * 3, PatternMatrix(base), np.arange(3.0)).users)
    assert base_anchors.tolist() == [1, 2, 0]
    for hints in np.concatenate([np.exp(rng.normal(0.0, 2.3, (20, 3))), rng.integers(0, 2, (20, 3)) / 4.0]):
        order = np.argsort(hints, kind="stable")
        pattern = PatternMatrix(base[:, np.argsort(order)])
        assert select_users([None] * 3, pattern, hints).users == tuple(order[base_anchors].tolist())


def _hexed(drops):
    """Each drop's records with the floats as ``float.hex``, so equal means
    equal bit for bit."""
    return [[(r.scheme, r.k_users, r.sweep_value.hex(), r.sum_rate.hex(), r.redraws) for r in recs] for recs in drops]


def test_drop_records_do_not_depend_on_the_chunk(monkeypatch):
    # each drop's records equal those of the drop run alone, bit for bit,
    # whatever chunk holds it and wherever the chunk boundaries fall; the
    # presets, and the strict and fixed-pattern variants of the golden records
    configs = Path(__file__).resolve().parent.parent / "configs"
    for preset in CASES:
        cfg = case_config(preset)
        states = [np.random.SeedSequence(cfg.seed, spawn_key=(i,)) for i in range(9)]
        alone = _hexed(run_drop(cfg, state) for state in states)
        for sizes in ((9,), (4, 5), (1, 7, 1), (3, 3, 3)):
            bounds = np.cumsum((0,) + sizes)
            chunked = [recs for a, b in zip(bounds[:-1], bounds[1:]) for recs in run_chunk(cfg, states[a:b])]
            assert _hexed(chunked) == alone, (preset, sizes)
    # the K = 6 set-ups (the power-domain baseline's and lsa-pdma's) of the
    # middle drop of a chunk are singular on their first draw: they redraw
    # once, alone, as in a chunk of that drop only, and every other record
    # of the chunk stays as it was
    cfg = ExperimentConfig.from_file(configs / "fig4.cfg")
    states = [np.random.SeedSequence(cfg.seed, spawn_key=(i,)) for i in range(5)]
    plain = _hexed(run_chunk(cfg, states))
    first = _channels(cfg, 6, [np.random.Generator(np.random.Philox(states[2]))])[0][0]
    with monkeypatch.context() as m:
        _singular_on_first_draw(m, first)
        redrawn = _hexed(run_chunk(cfg, states))
        alone = _hexed(run_chunk(cfg, states[2:3]))
    assert redrawn[:2] + redrawn[3:] == plain[:2] + plain[3:]
    assert redrawn[2] == alone[0]
    assert {got[0] for got in redrawn[2] if got[1] == 6} == {"pnoma", "lsa-pdma-simple"}
    for got, was in zip(redrawn[2], plain[2]):
        if got[1] == 6:
            assert got[4] == 1 and got[3] != was[3]
        else:
            assert got == was


def test_records_do_not_depend_on_the_scheme_order():
    # units with the same K share one first draw; listing the schemes in
    # another order must give each scheme the same records
    for users in ((3, 6), (4, 5, 7)):
        forward = _cfg(schemes=("oma", "pnoma", "lsa-pdma"), users=users)
        backward = dataclasses.replace(forward, schemes=("lsa-pdma", "pnoma", "oma"))
        for seed in range(4):
            a, b = run_drop(forward, seed), run_drop(backward, seed)
            assert sorted(a, key=repr) == sorted(b, key=repr)
            assert len(a) == len(set(map(repr, a)))
    # nor on the other units: at N = 4, where the chunk pads every set-up
    # to K = 15 and the ladders (mu = 1.3 and 0.7, which unlike 1.5 and 3
    # do not sum exactly) and the rate tail sum 8 or more terms, each
    # (scheme, K, policy) run in a config of its own gives the records it
    # gives in the full config, bit for bit
    full = _cfg(
        schemes=("oma", "pnoma", "lsa-pdma"),
        n_beams=4,
        n_tx=16,
        users=(4, 9, 15),
        policies=("fixed-ratio", "optimal"),
        mu=(1.3, 0.7),
    )
    alone = [dataclasses.replace(full, schemes=(scheme,)) for scheme in ("oma", "pnoma")] + [
        dataclasses.replace(full, schemes=("lsa-pdma",), users=(k,), policies=(policy,))
        for k in full.users
        for policy in full.policies
    ]
    for seed in range(4):
        records = run_drop(full, seed)
        parts = [run_drop(cfg, seed) for cfg in alone]
        assert sorted(records) == sorted(r for part in parts for r in part)
        assert len(parts) == 8 and all(parts)


def test_monte_carlo_single_drop_zero_stderr():
    cfg = _cfg(drops=1)
    table = run_monte_carlo(cfg)
    assert len(table.rows) == 1
    assert table.rows[0].std_error == 0.0
    assert table.rows[0].drops == 1
    single = run_drop(cfg, np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    assert table.rows[0].mean_sum_rate == single[0].sum_rate


def test_monte_carlo_reproducible():
    cfg = _cfg(drops=5, schemes=("oma", "lsa-pdma"))
    a = run_monte_carlo(cfg)
    b = run_monte_carlo(cfg)
    assert a == b


def test_monte_carlo_worker_count_invariant():
    # 7 drops split into uneven chunks (2, 2, 3 at three workers)
    for drops in (6, 7):
        runs = [run_monte_carlo(_cfg(drops=drops, workers=w), collect_samples=True) for w in (1, 2, 3)]
        (table, samples), *others = runs
        for other_table, other_samples in others:
            assert other_table == table
            assert other_samples.keys() == samples.keys()
            for key, values in samples.items():
                assert [v.hex() for v in other_samples[key]] == [v.hex() for v in values]


def test_result_rows_equal_the_per_record_reductions():
    # one row-wise pass over the (records, drops) table gives each row, bit
    # for bit, its samples' mean() and std(ddof=1) / sqrt(drops), taken
    # record by record; one drop has no standard error
    cfg = _cfg(schemes=("oma", "pnoma", "lsa-pdma"), users=(4, 6), p_sum_db=(0.0, 20.0))
    for drops in (1, 2, 7, 300):
        table, samples = run_monte_carlo(dataclasses.replace(cfg, drops=drops), collect_samples=True)
        assert len(table.rows) == len(samples)
        for row in table.rows:
            arr = samples[(row.scheme, row.k_users, row.sweep_value)]
            stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if drops > 1 else 0.0
            assert (row.mean_sum_rate.hex(), row.std_error.hex(), row.drops) == (float(arr.mean()).hex(), stderr.hex(), drops)


def _record_oracle(cfg):
    """``run_monte_carlo``'s (table, samples) aggregated record by record
    from ``run_drop``: each record appends its sum rate to its (scheme, K,
    sweep value) list in drop order, and each (scheme, K) evaluation's
    redraws count once per drop."""
    samples, redraws = {}, 0
    for i in range(cfg.drops):
        drop_records = run_drop(cfg, np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        for rec in drop_records:
            samples.setdefault((rec.scheme, rec.k_users, rec.sweep_value), []).append(rec.sum_rate)
        redraws += sum({(rec.scheme, rec.k_users): rec.redraws for rec in drop_records}.values())
    rows = []
    for (scheme, k, sweep), values in samples.items():
        arr = np.asarray(values)
        stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
        rows.append(ResultRow(sweep, scheme, k, float(arr.mean()), stderr, len(arr)))
    rows.sort(key=lambda r: (r.sweep_value, r.scheme, r.k_users))
    return ResultTable(tuple(rows), redraws), {key: np.asarray(values) for key, values in samples.items()}


def _hexed_run(table, samples):
    """A Monte Carlo result with its floats as ``float.hex``, and each
    sample array's dtype and layout."""
    rows = [(r.sweep_value.hex(), r.scheme, r.k_users, r.mean_sum_rate.hex(), r.std_error.hex(), r.drops) for r in table.rows]
    samples = [
        (key, values.dtype, values.flags.c_contiguous, [v.hex() for v in values.tolist()]) for key, values in samples.items()
    ]
    return rows, table.redraws, samples


def test_monte_carlo_equals_the_record_oracle(monkeypatch):
    # the rate tables give, bit for bit, the rows, redraws and samples of
    # the per-record aggregation over run_drop's records: a budget sweep and
    # a mu sweep (whose baseline and optimal rows replicate), the optimal
    # policy with and without strict support, and a fixed pattern, at 1, 2
    # and 3 workers on 6 and 7 drops
    fixed = PatternMatrix(np.array([[1, 1, 0, 1, 0], [1, 1, 1, 0, 0], [1, 0, 1, 0, 1]]))
    both = ("fixed-ratio", "optimal")
    every = ("oma", "pnoma", "lsa-pdma")
    cases = [
        _cfg(schemes=every, users=(4, 6), policies=both, p_sum_db=(0.0, 20.0)),
        _cfg(schemes=every, users=(5,), policies=both, mu=(0.5, 1.0, 2.0)),
        _cfg(schemes=("lsa-pdma",), users=(6, 7), policies=("optimal",), p_sum_db=(10.0, 30.0)),
        _cfg(schemes=("lsa-pdma",), users=(6, 7), policies=("optimal",), p_sum_db=(10.0, 30.0), strict_pattern=True),
        _cfg(schemes=("oma", "lsa-pdma"), policies=both, pattern_policy="fixed", fixed_pattern=fixed, mu=(1.0, 2.0)),
    ]
    for cfg in cases:
        for drops in (6, 7):
            run = dataclasses.replace(cfg, drops=drops)
            want = _hexed_run(*_record_oracle(run))
            for workers in (1, 2, 3):
                got = _hexed_run(*run_monte_carlo(dataclasses.replace(run, workers=workers), collect_samples=True))
                assert got == want, (cfg, drops, workers)
    # drop 0's K = 6 draw is singular for both the power-domain and the
    # lsa-pdma set-up: each redraws once, whatever the mu sweep replicates
    cfg = _cfg(schemes=("pnoma", "lsa-pdma"), users=(6,), mu=(1.0, 2.0), drops=3)
    state = np.random.SeedSequence(cfg.seed, spawn_key=(0,))
    _singular_on_first_draw(monkeypatch, _channels(cfg, 6, [np.random.Generator(np.random.Philox(state))])[0][0])
    table, samples = run_monte_carlo(cfg, collect_samples=True)
    assert table.redraws == 2
    assert _hexed_run(table, samples) == _hexed_run(*_record_oracle(cfg))


def test_run_chunk_reads_its_records_off_the_rate_table(monkeypatch):
    # a chunk is one float64 (C, R) rate table and one integer (C, U) array
    # of each unit's redraws; run_chunk's records are the table's rows, in
    # order, each with its unit's redraws (drop 1's OMA unit is redrawn)
    cfg = _cfg(schemes=("oma", "pnoma", "lsa-pdma"), users=(4, 6), policies=("fixed-ratio", "optimal"), mu=(1.0, 2.0))
    states = [np.random.SeedSequence(cfg.seed, spawn_key=(i,)) for i in range(3)]
    _singular_on_first_draw(monkeypatch, _channels(cfg, 3, [np.random.Generator(np.random.Philox(states[1]))])[0][0])
    units = [(label, k) for label, k, *_ in _scheme_runs(cfg)]
    table, redraws = _chunk_rates(cfg, states)
    records = run_chunk(cfg, states)
    assert table.dtype == np.float64 and table.shape == (3, len(records[0]))
    assert np.issubdtype(redraws.dtype, np.integer) and redraws.shape == (3, len(units))
    assert redraws.tolist() == [[0] * len(units), [1] + [0] * (len(units) - 1), [0] * len(units)]
    for row, unit_redraws, drop in zip(table.tolist(), redraws.tolist(), records):
        assert all(isinstance(r, DropRecord) for r in drop)
        assert [r.sum_rate.hex() for r in drop] == [rate.hex() for rate in row]
        assert [r.redraws for r in drop] == [unit_redraws[units.index((r.scheme, r.k_users))] for r in drop]


def _thread_pools(monkeypatch):
    """Stand ``harness.ProcessPoolExecutor`` in with a thread pool of this
    process, which has the same submit and shutdown semantics; returns the
    list of the sizes of the pools started.  A thread has no parent
    process to watch, so the stand-in runs no initializer."""
    from concurrent.futures import ThreadPoolExecutor

    import lsapdma.harness as harness

    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
    return sizes


def _chunk_calls(monkeypatch, fail=None):
    """Record each ``_chunk_rates`` call as (first drop, run by the calling
    thread), in call order.  With ``fail``, the call whose first drop is
    ``fail`` raises ConfigError, and every pool call waits up to 10 s for
    that failure before it runs."""
    import threading

    import lsapdma.harness as harness

    real, calls, failed = harness._chunk_rates, [], threading.Event()

    def recorded(cfg, states):
        first = int(states[0].spawn_key[0])
        caller = threading.current_thread() is threading.main_thread()
        calls.append((first, caller))
        if first == fail:
            failed.set()
            raise ConfigError("chunk fails")
        if fail is not None and not caller:
            failed.wait(10.0)
        return real(cfg, states)

    monkeypatch.setattr(harness, "_chunk_rates", recorded)
    return calls


def test_monte_carlo_starts_no_more_workers_than_chunks(monkeypatch):
    # the calling process is worker 0: the pool has workers - 1 processes,
    # at most one per chunk besides the caller's, and one chunk starts none
    started = _thread_pools(monkeypatch)
    for drops, workers, pool in ((1, 2, []), (3, 4, [2]), (5, 2, [1])):
        started.clear()
        table = run_monte_carlo(_cfg(drops=drops, workers=workers))
        assert started == pool
        assert table == run_monte_carlo(_cfg(drops=drops, workers=1))


def test_the_caller_runs_every_workers_th_chunk(monkeypatch):
    # with one drop per chunk, the calling thread runs exactly the chunks
    # i = 0 (mod workers) and the pool every other chunk, each once
    import lsapdma.harness as harness

    monkeypatch.setattr(harness, "CHUNK_DROPS", 1)
    started = _thread_pools(monkeypatch)
    calls = _chunk_calls(monkeypatch)
    want = run_monte_carlo(_cfg(drops=7, workers=1))
    for workers in (2, 3, 4):
        started.clear()
        calls.clear()
        assert run_monte_carlo(_cfg(drops=7, workers=workers)) == want
        assert started == [workers - 1]
        assert sorted(first for first, _ in calls) == list(range(7))
        assert sorted(first for first, caller in calls if caller) == list(range(0, 7, workers))


def test_a_failing_chunk_cancels_the_chunks_not_yet_started(monkeypatch):
    # 6 chunks over 2 workers: the pool's one thread holds chunk 1 until
    # the caller's chunk 2 raises; the pool's chunks 3 and 5, still queued,
    # and the caller's chunk 4 never run
    import lsapdma.harness as harness

    monkeypatch.setattr(harness, "CHUNK_DROPS", 1)
    _thread_pools(monkeypatch)
    calls = _chunk_calls(monkeypatch, fail=2)
    with pytest.raises(ConfigError, match="chunk fails"):
        run_monte_carlo(_cfg(drops=6, workers=2))
    assert sorted(calls) == [(0, True), (1, False), (2, True)]


def test_calls_at_one_worker_count_share_one_pool(monkeypatch):
    # the pool outlives the call: a second 2-worker call reuses it, a
    # 1-worker call leaves it alone, and every table is bit for bit the same
    started = _thread_pools(monkeypatch)
    cfg = _cfg(schemes=("oma", "lsa-pdma"), drops=5, workers=2)
    first = _hexed_run(*run_monte_carlo(cfg, collect_samples=True))
    second = _hexed_run(*run_monte_carlo(cfg, collect_samples=True))
    alone = _hexed_run(*run_monte_carlo(dataclasses.replace(cfg, workers=1), collect_samples=True))
    assert started == [1]
    assert second == first == alone


def test_a_call_at_another_worker_count_replaces_the_pool(monkeypatch):
    started = _thread_pools(monkeypatch)
    want = run_monte_carlo(_cfg(drops=7, workers=1))
    for workers in (2, 3, 2):
        assert run_monte_carlo(_cfg(drops=7, workers=workers)) == want
    assert started == [1, 2, 1]


def test_a_failing_chunk_drops_the_pool(monkeypatch):
    # the failing call shuts its pool down and forgets it; the next call
    # starts a fresh one and runs every chunk
    import lsapdma.harness as harness

    monkeypatch.setattr(harness, "CHUNK_DROPS", 1)
    started = _thread_pools(monkeypatch)
    want = run_monte_carlo(_cfg(drops=6, workers=1))
    with monkeypatch.context() as m:
        _chunk_calls(m, fail=2)
        with pytest.raises(ConfigError, match="chunk fails"):
            run_monte_carlo(_cfg(drops=6, workers=2))
    assert harness._kept_pool is None
    assert run_monte_carlo(_cfg(drops=6, workers=2)) == want
    assert started == [1, 1]


def test_a_pool_started_by_another_process_is_not_reused(monkeypatch):
    # a forked process inherits the module's kept pool; it starts its own
    # and leaves the inherited one running for the process that owns it
    import lsapdma.harness as harness

    started = _thread_pools(monkeypatch)
    cfg = _cfg(drops=5, workers=2)
    want = run_monte_carlo(cfg)
    inherited = harness._kept_pool._replace(pid=-1)
    harness._kept_pool = inherited
    try:
        assert run_monte_carlo(cfg) == want
        assert started == [1, 1]
        assert harness._kept_pool.pid == os.getpid()
        assert inherited.executor.submit(int, "7").result() == 7
    finally:
        inherited.executor.shutdown()


_POOL_PIDS = """
import dataclasses, sys, time
from lsapdma import harness
cfg = dataclasses.replace(harness.ExperimentConfig.from_file(sys.argv[1]), drops=16, workers=2)
for _ in range(int(sys.argv[2])):
    harness.run_monte_carlo(cfg)
    print(*sorted(harness._kept_pool.executor._processes), flush=True)
time.sleep(float(sys.argv[3]))
"""


def _pool_pids_process(calls, linger_s):
    """A Python process that runs ``calls`` 2-worker Monte Carlo calls on
    16 fig5 drops, prints its pool's pids after each and then waits
    ``linger_s`` seconds before it exits."""
    import lsapdma

    src = str(Path(lsapdma.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    fig5 = Path(__file__).resolve().parent.parent / "configs" / "fig5.cfg"
    args = [sys.executable, "-c", _POOL_PIDS, str(fig5), str(calls), str(linger_s)]
    return subprocess.Popen(args, env=env, stdout=subprocess.PIPE, text=True)


def _running(pid) -> bool:
    """Whether process ``pid`` exists and is not a zombie left for its
    reaper."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def test_no_pool_process_outlives_the_caller():
    # two calls share one pool, and interpreter exit joins its processes
    with _pool_pids_process(2, 0.0) as proc:
        try:
            out, _ = proc.communicate(timeout=30)
        finally:
            proc.kill()
    assert proc.returncode == 0
    first, second = out.splitlines()
    assert first == second and len(first.split()) == 1
    for pid in map(int, first.split()):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_pool_processes_end_when_the_caller_is_killed():
    # a caller killed by a signal runs no exit hook; its pool's processes
    # see their parent gone and end themselves within about a second
    with _pool_pids_process(1, 60.0) as proc:
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.kill()
    assert len(pids) == 1
    deadline = time.monotonic() + 15.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = [pid for pid in pids if _running(pid)]
    for pid in left:  # a failure leaves nothing behind either
        os.kill(pid, signal.SIGKILL)
    assert not left


def test_monte_carlo_is_bit_identical_for_every_worker_count():
    # real pools: rows, redraws and samples as float.hex at 1-4 workers on
    # 1, 2, 5 and 130 drops (three chunks at one worker, four at four)
    cfg = _cfg(schemes=("oma", "pnoma", "lsa-pdma"), users=(4, 6), policies=("fixed-ratio", "optimal"))
    for drops in (1, 2, 5, 130):
        runs = [
            _hexed_run(*run_monte_carlo(dataclasses.replace(cfg, drops=drops, workers=workers), collect_samples=True))
            for workers in (1, 2, 3, 4)
        ]
        assert all(run == runs[0] for run in runs[1:]), drops


def test_monte_carlo_stderr_scaling():
    # doubling the drops should shrink the standard error by about 1/sqrt(2)
    cfg_a = _cfg(drops=400, schemes=("oma",))
    cfg_b = _cfg(drops=800, schemes=("oma",))
    se_a = run_monte_carlo(cfg_a).rows[0].std_error
    se_b = run_monte_carlo(cfg_b).rows[0].std_error
    ratio = se_b / se_a
    assert abs(ratio - 1 / np.sqrt(2)) < 0.2 * (1 / np.sqrt(2))


def test_monte_carlo_optimal_at_least_simple_per_drop():
    cfg = _cfg(
        schemes=("lsa-pdma",),
        users=(5,),
        policies=("fixed-ratio", "optimal"),
        drops=6,
    )
    table, samples = run_monte_carlo(cfg, collect_samples=True)
    simple = samples[("lsa-pdma-simple", 5, 10.0)]
    optimal = samples[("lsa-pdma-optimal", 5, 10.0)]
    assert (optimal >= simple - 1e-6).all()


def test_emit_results_format(tmp_path):
    table = ResultTable(
        rows=(
            ResultRow(
                sweep_value=10.0,
                scheme="oma",
                k_users=3,
                mean_sum_rate=12.3456789,
                std_error=0.123456789,
                drops=100,
            ),
        )
    )
    csv_path, summary_path = emit_results(table, tmp_path / "out", config_text="drops = 100")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "sweep,scheme,K,mean_sum_rate,stderr,drops"
    assert len(lines) == 2
    assert lines[1] == "10,oma,3,12.3457,0.123457,100"
    summary = summary_path.read_text()
    assert "version = lsapdma-" in summary
    assert "drops = 100" in summary


def test_emit_results_rejects_empty_table():
    with pytest.raises(ValueError):
        emit_results(ResultTable(rows=()), "/tmp/nowhere")


def test_emit_results_unwritable_path(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    table = ResultTable(
        rows=(ResultRow(10.0, "oma", 3, 1.0, 0.0, 1),)
    )
    with pytest.raises(OSError):
        emit_results(table, blocker / "sub")


def test_mu_sweep_emits_horizontal_references():
    cfg = _cfg(
        schemes=("oma", "pnoma", "lsa-pdma"),
        users=(5,),
        policies=("fixed-ratio",),
        p_sum_db=(10.0,),
        mu=(0.5, 1.0, 2.0),
        drops=2,
    )
    table = run_monte_carlo(cfg)
    for scheme in ("oma", "pnoma"):
        rows = [r for r in table.rows if r.scheme == scheme]
        assert {r.sweep_value for r in rows} == {0.5, 1.0, 2.0}
        assert len({r.mean_sum_rate for r in rows}) == 1  # horizontal reference
    simple = [r for r in table.rows if r.scheme == "lsa-pdma-simple"]
    assert {r.sweep_value for r in simple} == {0.5, 1.0, 2.0}
    assert len({r.mean_sum_rate for r in simple}) == 3


def test_power_policies_skip_pairs_the_anchors_null():
    # G_C F_C = I leaves round-off gains (~1e-13 of the user's large-scale
    # amplitude) on the nulled pairs and real gains (>~1e-3) everywhere else.
    # The harness's rate at each mu must equal, bit for bit, one beam's
    # SINR row at a time summed over users, then over beams.
    mus = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    budgets_db = (0.0, 20.0, 40.0)
    for n in (2, 3, 4):
        for k in range(n, 2**n):
            cfg = _cfg(schemes=("lsa-pdma",), n_beams=n, users=(k,), p_sum_db=budgets_db)
            for d in range(3):
                state = np.random.SeedSequence(11, spawn_key=(n, k, d))
                channels, pattern, omega, beams, _ = _drawn(cfg, k, "simple", state)
                nulled = omega.nulled(pattern)
                scale = np.sqrt([ch.large_scale_gain for ch in channels])
                # one run per mu: a config sweeps either the budget or mu
                records = {mu: iter(run_drop(dataclasses.replace(cfg, mu=(mu,)), state)) for mu in mus}
                for db in budgets_db:
                    p_sum = 10.0 ** (db / 10.0)
                    equal = equal_power(pattern, p_sum, nulled)
                    link = build_link_state(channels, beams, equal, 1.0)
                    live = link.gains > 1e-8 * scale
                    orders = sic_orders(link.gains)
                    allocs = [equal] + [_ladder(pattern, mu, orders, p_sum, nulled) for mu in mus]
                    for alloc in allocs:
                        powered = alloc > 0
                        assert live[powered].all()
                        assert np.array_equal(powered, (pattern.entries == 1) & ~nulled)
                    assert not live[nulled].any()
                    for mu, alloc in zip(mus, allocs[1:]):
                        rate = sum(
                            _beam_rate(link.gains[b], alloc[b], order)
                            for b, order in enumerate(orders)
                        )
                        record = next(records[mu])
                        assert record.sweep_value == db
                        assert record.sum_rate == rate
                if k == 2**n - 1:
                    # every beam anchors its own diversity-1 user
                    assert not nulled.any()


def _per_budget_rates(cfg, unit, pattern, omega, gains):
    """A unit's sum rates, one budget (and one mu) at a time: the per-budget
    path the stacked tail replaced.  Equal split: ``equal_power`` and one
    beam's SINR row at a time; ladders: a one-mu ladder and one beam's SINR
    row at a time; optimal: ``OptProblem.build`` and the
    per-beam water-fill loop, its rate one beam's row at a time in the
    all-user order.  ``gains[d]`` stands for budget d's equal-split link."""
    _, _, _, policy, mus = unit
    nulled = omega.nulled(pattern)
    covered = pattern.entries == 1
    out = []
    for db, h in zip(cfg.p_sum_db, gains):
        p_sum = 10.0 ** (db / 10.0)
        cov = [np.flatnonzero(row) for row in covered]
        orders = [idx[np.argsort(row[idx], kind="stable")] for row, idx in zip(h, cov)]
        if policy == "equal":
            p = equal_power(pattern, p_sum, nulled)
            out.append([sum(_beam_rate(h[n], p[n], orders[n]) for n in range(len(h)))])
        elif policy == "fixed-ratio":
            full = np.array([np.concatenate([o, np.flatnonzero(~c)]) for o, c in zip(orders, covered)])
            row = []
            for mu in mus:
                p = _ladder(pattern, mu, full, p_sum, nulled)
                row.append(sum(_beam_rate(h[n], p[n], orders[n]) for n in range(len(h))))
            out.append(row)
        else:
            support = covered if cfg.strict_pattern else None
            prob = OptProblem.build(h, p_sum, selected=omega.pairs, epsilon=ANCHOR_FLOOR * p_sum, support=support)
            p = _water_fill_reference(prob)
            every = [np.argsort(row, kind="stable") for row in h]
            out.append([sum(_beam_rate(h[n], p[n], every[n]) for n in range(len(h)))])
            assert np.array_equal(water_fills(prob.gains, prob.p_sum, prob.delta, prob.support), p)
    return out


def test_stacked_tail_matches_the_per_budget_path():
    # every shape N <= K <= 2^N - 1, budgets 0, 20 and 40 dB, strict and
    # non-strict support, nulled pairs present, and the gains as given or
    # with beam 0's row zeroed (so the optimal policy finds no free entry
    # there), and fig4's gain factors with 0.3 and 1.7: every policy's
    # rates on a chunk of two drops equal, drop by drop, the per-budget
    # path's bit for bit.  Every sum over beams runs in beam
    # order on both sides, and every sum over users is numpy's sum over one
    # contiguous row of the same length and order on both sides, so the
    # agreement is exact even where K >= 8.
    fig4 = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "fig4.cfg")
    mus = fig4.mu + (0.3, 1.7)
    saw_nulled = False
    for n in (2, 3, 4):
        for k in range(n, 2**n):
            for strict in (False, True):
                cfg = _cfg(
                    schemes=("lsa-pdma",),
                    n_beams=n,
                    users=(k,),
                    policies=("fixed-ratio", "optimal"),
                    p_sum_db=(0.0, 20.0, 40.0),
                    strict_pattern=strict,
                )
                keys = [(n, k, strict), (n, k, strict, 1)]
                states = [np.random.SeedSequence(17, spawn_key=key) for key in keys]
                setups = [_drawn(cfg, k, "simple", state) for state in states]
                stack = _chunk_set_ups(cfg, states, [(k, "simple")])
                budgets = np.array([10.0 ** (db / 10.0) for db in cfg.p_sum_db])
                splits, gains = [], []
                for channels, pattern, omega, beams, _ in setups:
                    nulled = omega.nulled(pattern)
                    saw_nulled |= nulled.any()
                    splits.append(equal_splits(((pattern.entries == 1) & ~nulled)[None], budgets)[0])
                    gains.append([build_link_state(channels, beams, split, 1.0).gains for split in splits[-1]])
                splits, gains = np.array(splits), np.array(gains)
                zeroed = gains.copy()
                zeroed[:, :, 0] = 0.0
                # the tail runs the units of its config's layout at the D
                # budgets it is given, so a config whose one unit has the
                # policy (and mus) stands for each unit; a mu list needs a
                # config of one budget
                tails = {
                    "equal": dataclasses.replace(cfg, schemes=("oma",)),
                    "ladders": dataclasses.replace(cfg, policies=("fixed-ratio",), mu=mus, p_sum_db=(0.0,), strict_pattern=False),
                    "optimal": dataclasses.replace(cfg, policies=("optimal",)),
                }
                for h in (gains, zeroed):
                    units = [
                        ("equal", k, "simple", "equal", (None,)),
                        ("ladders", k, "simple", "fixed-ratio", mus),
                        ("optimal", k, "simple", "optimal", (None,)),
                    ]
                    for unit in units:
                        tail = tails[unit[0]]
                        assert [call[:2] for calls, _ in _layout(tail).groups for call in calls] == [unit[3:]]
                        chunk = _tail_rates(tail, stack, splits[None], h[None], budgets)
                        assert len(chunk) == len(setups)
                        for rates, (_, pattern, omega, _, _), drop_gains in zip(chunk, setups, h):
                            got = rates.tolist()
                            want = [
                                rate for row in _per_budget_rates(cfg, unit, pattern, omega, drop_gains) for rate in row
                            ]
                            assert got == want, (n, k, strict, unit[0])
    assert saw_nulled


def _water_filling_bound(gains, p_sum):
    """The sum rate of water-filling ``p_sum`` over each beam's strongest
    user of an (N, K) gain matrix, with no floors: the most any power
    matrix within the budget gets.  The level W solves
    sum_n max(0, W - L_n) = p_sum, L_n = 1/h_n^2, over the m lowest L_n."""
    levels = np.sort(1.0 / gains.max(axis=1) ** 2)
    for m in range(len(levels), 0, -1):
        water = (p_sum + levels[:m].sum()) / m
        if water > levels[m - 1]:
            break
    return float(np.log2(water / levels[:m]).sum())


def test_the_chain_at_five_beams_matches_the_per_user_path():
    # N = 5 beams and K = 2^5 - 1 = 31 users at n_tx = 32, and N = 8 beams
    # with K = 16 and K = 2^8 - 1 = 255 users at n_tx = 128, at 0 and
    # 20 dB, three drops each, each rebuilt from the per-user objects:
    # drop_users and user_channels on the drop's stream, the simple pattern
    # and select_users on the large-scale gains, compute_zfbf, and
    # build_link_state on the equal split.  The fixed-ratio rates, with
    # the ladder written out beam by beam and the SIC rates taken a beam at
    # a time, agree to 1e-12 relative; the optimal rates lie at or below
    # the water-filling bound of the same gains (to 1e-12 relative: where
    # each beam's anchor is its strongest user the floors do not bind and
    # the two differ by round-off), and the anchors' floors (1e-6 of the
    # budget) keep them within 1e-4 bits of it.
    for n, k, n_tx in ((5, 31, 32), (8, 16, 128), (8, 255, 128)):
        cfg = _cfg(
            schemes=("lsa-pdma",), n_beams=n, users=(k,), n_tx=n_tx, policies=("fixed-ratio", "optimal"), p_sum_db=(0.0, 20.0)
        )
        for i in range(3):
            state = np.random.SeedSequence(cfg.seed, spawn_key=(i,))
            records = {(r.scheme, r.sweep_value): r for r in run_drop(cfg, state)}
            assert len(records) == 4 and not any(r.redraws for r in records.values())
            rng = np.random.Generator(np.random.Philox(state))
            channels = user_channels(cfg.cell, drop_users(cfg.cell, k, rng), cfg.n_rx, cfg.n_tx, rng)
            pattern, omega = _oracle_setup(cfg, k, "simple", channels)
            beams = compute_zfbf(channels, omega)
            nulled = omega.nulled(pattern)
            for db in cfg.p_sum_db:
                p_sum = 10.0 ** (db / 10.0)
                gains = build_link_state(channels, beams, equal_power(pattern, p_sum, nulled), cfg.cell.noise_variance).gains
                orders = [idx[np.argsort(row[idx], kind="stable")] for row, idx in zip(gains, map(np.flatnonzero, pattern.entries))]
                ladder = _ladder_reference(pattern, cfg.mu[0], orders, p_sum, nulled)
                want = sum(_beam_rate(gains[b], ladder[b], orders[b]) for b in range(n))
                assert records["lsa-pdma-simple", db].sum_rate == pytest.approx(want, rel=1e-12, abs=0.0), (n, k, i, db)
                bound = _water_filling_bound(gains, p_sum)
                assert bound - 1e-4 <= records["lsa-pdma-optimal", db].sum_rate <= bound * (1.0 + 1e-12), (n, k, i, db)


def test_k_equals_n_fixed_ratio_matches_oma():
    # at K = N each user anchors a distinct beam and hears only that beam,
    # so the fixed-ratio ladder reduces to OMA's equal split for every mu
    mus = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    for n in (2, 3, 4):
        cfg = _cfg(schemes=("oma", "lsa-pdma"), n_beams=n, users=(n,), mu=mus)
        for seed in range(3):
            records = run_drop(cfg, seed)
            oma = {r.sweep_value: r.sum_rate for r in records if r.scheme == "oma"}
            pdma = {r.sweep_value: r.sum_rate for r in records if r.scheme == "lsa-pdma-simple"}
            assert set(pdma) == set(mus)
            for mu in mus:
                assert abs(pdma[mu] - oma[mu]) <= 1e-9 * oma[mu]


def test_each_policy_computes_its_sinrs_as_one_stack(monkeypatch):
    # the units of a chunk compute their SINRs in one call of the
    # receiver's SINR formula per mu count, over all the drops of the chunk
    # and all the budgets (and the mu sweep), so the call count grows with
    # neither the drops, the budgets nor the units.  Every power stack is
    # (U, C, D, M, N, K), M = 1 but for a mu sweep's ladders, and K the
    # chunk's largest user count.  The optimal policy reads only the gains
    # of the equal splits: its call carries the water-fill, whose beams
    # each hold at most one entry above the anchors' 1e-6 floor.
    calls = []
    real = receiver._sic_sinr

    def counted(h2, p):
        calls.append(p)
        return real(h2, p)

    monkeypatch.setattr(receiver, "_sic_sinr", counted)
    budgets = 10.0 ** (np.array([0.0, 20.0]) / 10.0)
    drops = [4, 5, 6]
    run_chunk(_cfg(schemes=("lsa-pdma",), users=(6,), policies=("optimal",), p_sum_db=(0.0, 20.0)), drops)
    assert [p.shape for p in calls] == [(1, 3, 2, 1, 3, 6)]
    assert ((calls[0] > 2e-6 * budgets[:, None, None, None]).sum(axis=-1) <= 1).all()
    calls.clear()
    run_chunk(_cfg(schemes=("oma",)), drops)
    assert [p.shape for p in calls] == [(1, 3, 1, 1, 3, 3)]
    calls.clear()
    run_chunk(_cfg(schemes=("lsa-pdma",), users=(6,), mu=(0.5, 1.0, 2.0)), drops)
    assert [p.shape for p in calls] == [(1, 3, 1, 3, 3, 6)]
    calls.clear()
    run_drop(_cfg(schemes=("oma", "lsa-pdma"), users=(6,), mu=(0.5, 1.0, 2.0)), 4)
    assert [p.shape for p in calls] == [(1, 1, 1, 1, 3, 6), (1, 1, 1, 3, 3, 6)]
    calls.clear()
    # fig4's seven units: oma and pnoma share the one-mu call, the five
    # ladders of K = 3 ... 7 the mu sweep's
    run_chunk(_cfg(schemes=("oma", "pnoma", "lsa-pdma"), users=(3, 4, 5, 6, 7), mu=(0.5, 1.0, 2.0)), drops)
    assert [p.shape for p in calls] == [(2, 3, 1, 1, 3, 7), (5, 3, 1, 3, 3, 7)]
    calls.clear()
    # fig5's four units at two budgets, the two optimal ones among them
    cfg = _cfg(schemes=("oma", "pnoma", "lsa-pdma"), users=(6, 7), policies=("optimal",), p_sum_db=(0.0, 20.0))
    run_chunk(cfg, drops)
    assert [p.shape for p in calls] == [(4, 3, 2, 1, 3, 7)]
    assert ((calls[0][2:] > 2e-6 * budgets[:, None, None, None]).sum(axis=-1) <= 1).all()


def test_units_that_share_k_and_pattern_share_one_setup(monkeypatch):
    # fig3's two units (the simple and the optimal policy, both K = 7 on the
    # simple pattern) share the draw, the pattern and the anchors, so a
    # chunk of three drops puts one set-up per drop in one ZF stack and 7
    # users per drop in one MMSE solve; each unit's records equal those of
    # a run of it alone
    import lsapdma.harness as harness

    cfg = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "fig3.cfg")
    stacks = []
    real_zf, real_links = harness.zf_beamformers, harness.drop_link_states

    def zf(anchors, **kwargs):
        stacks.append(("zf", len(anchors)))
        return real_zf(anchors, **kwargs)

    def links(channels, beams, pi, s, sigma2):
        stacks.append(("mmse", sum(g.shape[0] * g.shape[1] for g in channels)))
        return real_links(channels, beams, pi, s, sigma2)

    states = [np.random.SeedSequence(cfg.seed, spawn_key=(i,)) for i in range(3)]
    with monkeypatch.context() as m:
        m.setattr(harness, "zf_beamformers", zf)
        m.setattr(harness, "drop_link_states", links)
        both = run_chunk(cfg, states)
    assert stacks == [("zf", 3), ("mmse", 21)]
    alone = [run_chunk(dataclasses.replace(cfg, policies=(policy,)), states) for policy in cfg.policies]
    assert both == [[r for per_policy in alone for r in per_policy[i]] for i in range(len(states))]


def test_a_fig5_drop_builds_no_problem_and_no_per_budget_allocation(monkeypatch):
    # the simulation path runs each policy on the unit's stack over a
    # chunk's drops and budgets: no OptProblem is built, and every power
    # check covers all the drops and all the budgets
    from lsapdma import pattern as pattern_module

    built, checked = [], []
    real_init, real_check = OptProblem.__post_init__, pattern_module._check_powers

    def counted(self):
        built.append(type(self).__name__)
        real_init(self)

    def check(p, support, p_sum):
        checked.append(p.shape)
        real_check(p, support, p_sum)

    monkeypatch.setattr(OptProblem, "__post_init__", counted)
    monkeypatch.setattr(pattern_module, "_check_powers", check)
    cfg = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "fig5.cfg")
    assert all(run_chunk(cfg, [np.random.SeedSequence(cfg.seed, spawn_key=(i,)) for i in range(3)]))
    assert built == []
    # one equal-split check over the chunk's four set-ups (oma, pnoma,
    # K = 6 and 7) and one ladder check per mu list (pnoma's), each over
    # every drop and budget of its set-ups
    assert [shape[:2] for shape in checked] == [(4 * 3, len(cfg.p_sum_db)), (1 * 3, len(cfg.p_sum_db))]
    # the counters see what they should
    checked.clear()
    equal_power(oma_pattern(3), 1.0)
    OptProblem.build(np.ones((1, 1)), 1.0)
    assert checked == [(1, 1, 3, 3)] and built == ["OptProblem"]


def test_fig4_runs_at_high_budgets():
    # the budget check scales with p_sum: at 80 dB a fixed budget slack of
    # 1e-9 rejected the ladders' rounding
    cfg = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "fig4.cfg")
    table = run_monte_carlo(dataclasses.replace(cfg, p_sum_db=(80.0,), drops=2, workers=1))
    assert all(row.drops == 2 and row.mean_sum_rate > 0 for row in table.rows)


def test_a_fig4_chunk_stays_within_its_working_set():
    # the calling process runs chunks itself, so a chunk's peak memory is
    # the caller's: 32 fig4 drops peak at 2.76 MB of traced allocations
    # (5.62 MB before the Gram-space MMSE kernel and the N right-hand-side
    # ZF solve); 3.5 MB leaves room for library versions, not for another
    # stack-sized temporary
    import tracemalloc

    cfg = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "fig4.cfg")
    states = [np.random.SeedSequence(cfg.seed, spawn_key=(i,)) for i in range(32)]
    _chunk_rates(cfg, states)  # caches and first-call allocations
    tracemalloc.start()
    try:
        _chunk_rates(cfg, states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6, peak
