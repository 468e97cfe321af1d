import dataclasses
from pathlib import Path

import numpy as np
import pytest

from lsapdma import receiver

from lsapdma.channel import CellConfig
from lsapdma.harness import (
    ConfigError,
    DropRecord,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    _anchored,
    _channels,
    _draw_drop,
    _unit_records,
    emit_results,
    run_drop,
    run_monte_carlo,
)
from lsapdma.optimizer import OptProblem, water_fill
from lsapdma.pattern import PatternMatrix, equal_power, equal_splits, fixed_ratio_ladders, oma_pattern
from lsapdma.receiver import build_link_state, drop_link_states, pair_rates, sic_orders
from test_optimizer import _water_fill_reference
from test_receiver import _beam_sinrs

FAST_CELL = CellConfig()


def _beam_rates(h, p, order):
    """A beam's per-user rates under SIC, ``order`` listing the powered
    users weakest first (see ``_beam_sinrs``)."""
    return pair_rates(_beam_sinrs(h, p, order))


def _ladder(pattern, p0, mu, orders, p_sum, nulled):
    """The ladder of one gain factor at one budget, from (N, K) orders."""
    return fixed_ratio_ladders(pattern, p0, [mu], orders[None], [p_sum], nulled)[0, 0]


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
        ("[experiment]\ndorps = 5\n", ("[experiment]", "dorps")),
        ("[powr]\nmu = 2\n", ("[powr]",)),
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
        ("p0_ratio", dict(p0_ratio=0.0)),
        ("pnoma_mu", dict(pnoma_mu=-2.0)),
        ("epsilon_ratio", dict(epsilon_ratio=-1e-6)),
        # one anchor per beam sits on the floor: n_beams floors reach the budget
        ("epsilon_ratio", dict(epsilon_ratio=1.0 / 3.0)),
        ("workers", dict(workers=0)),
        ("max_redraws", dict(max_redraws=-1)),
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
    )
    for name, kwargs in cases:
        with pytest.raises(ConfigError, match=rf"\b{name}\b"):
            _cfg(**{"schemes": ("oma", "pnoma", "lsa-pdma"), "policies": ("fixed-ratio", "optimal"), **kwargs})
    with pytest.raises(ConfigError, match="epsilon_ratio"):
        ExperimentConfig.from_text("[power]\npolicies = optimal\nepsilon_ratio = 0.5\n")
    # the edges that make sense still pass
    _cfg(epsilon_ratio=0.0, max_redraws=0, n_beams=2, n_rx=4)
    _cfg(epsilon_ratio=0.49, n_beams=2)


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
        _cfg(schemes=("lsa-pdma",), pattern_policy="fixed", fixed_pattern=fixed, strict_pattern=True),
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
    """Make ``harness.zf_beamformers`` report singular every unit whose
    channels are the draw ``first`` (and, with ``pick``, whose anchors
    ``pick`` accepts).  The mark follows the channels, so the redraw loop's
    fresh start sees that draw singular again and redraws once.  Without
    ``first`` the marked draw is the first unit's in the first call."""
    import lsapdma.harness as harness

    real = harness.zf_beamformers
    marked = [] if first is None else [first[0].entries]

    def fake(channel_sets, omegas, **kwargs):
        if not marked:
            marked.append(channel_sets[0][0].entries.copy())
        out = real(channel_sets, omegas, **kwargs)
        return [
            None if np.array_equal(chans[0].entries, marked[0]) and (pick is None or pick(omega)) else beams
            for chans, omega, beams in zip(channel_sets, omegas, out)
        ]

    monkeypatch.setattr(harness, "zf_beamformers", fake)


def test_redraw_limit_raises_config_error(monkeypatch):
    import lsapdma.harness as harness

    monkeypatch.setattr(harness, "zf_beamformers", lambda channel_sets, omegas: [None] * len(omegas))
    cfg = _cfg(max_redraws=5)
    with pytest.raises(ConfigError, match="redraws"):
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
        first = _channels(cfg, 6, np.random.Generator(np.random.Philox(state)))
        target = _anchored(cfg, "pnoma", 6, first)[1].pairs
        assert _anchored(cfg, "simple", 6, first)[1].pairs != target
        plain = run_drop(cfg, state)
        with monkeypatch.context() as m:
            _singular_on_first_draw(m, first, lambda omega: omega.pairs == target)
            redrawn = run_drop(cfg, state)
            channels, pattern, omega, beams, redraws = _draw_drop(cfg, 6, "pnoma", state)
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
            orders = sic_orders(link.gains, pattern.entries == 1)
            alloc = _ladder(pattern, 1.0, cfg.pnoma_mu, orders, p_sum, nulled)
            assert got.sum_rate == sum(
                float(_beam_rates(link.gains[b], alloc[b], order).sum()) for b, order in enumerate(orders)
            )


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
    cfg1 = _cfg(drops=6, workers=1)
    cfg2 = _cfg(drops=6, workers=2)
    a = run_monte_carlo(cfg1)
    b = run_monte_carlo(cfg2)
    assert a == b


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
                channels, pattern, omega, beams, _ = _draw_drop(cfg, k, "simple", state)
                nulled = omega.nulled(pattern)
                scale = np.sqrt([ch.large_scale_gain for ch in channels])
                # one run per mu: a config sweeps either the budget or mu
                records = {mu: iter(run_drop(dataclasses.replace(cfg, mu=(mu,)), state)) for mu in mus}
                for db in budgets_db:
                    p_sum = 10.0 ** (db / 10.0)
                    equal = equal_power(pattern, p_sum, nulled)
                    link = build_link_state(channels, beams, equal, 1.0)
                    live = link.gains > 1e-8 * scale
                    orders = sic_orders(link.gains, pattern.entries == 1)
                    allocs = [equal] + [_ladder(pattern, 1.0, mu, orders, p_sum, nulled) for mu in mus]
                    for alloc in allocs:
                        powered = alloc > 0
                        assert live[powered].all()
                        assert np.array_equal(powered, (pattern.entries == 1) & ~nulled)
                    assert not live[nulled].any()
                    for mu, alloc in zip(mus, allocs[1:]):
                        rate = sum(
                            float(_beam_rates(link.gains[b], alloc[b], order).sum())
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
    path the stacked tail replaced.  Equal split: ``equal_power`` and every
    pair's rate summed over the N x K matrix; ladders: a one-mu ladder and
    one beam's SINR row at a time; optimal: ``OptProblem.build`` and the
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
            rates = np.vstack([_beam_rates(h[n], p[n], orders[n]) for n in range(len(h))])
            out.append([float(rates.sum())])
        elif policy == "fixed-ratio":
            full = np.array([np.concatenate([o, np.flatnonzero(~c)]) for o, c in zip(orders, covered)])
            row = []
            for mu in mus:
                p = _ladder(pattern, cfg.p0_ratio, mu, full, p_sum, nulled)
                row.append(sum(float(_beam_rates(h[n], p[n], orders[n]).sum()) for n in range(len(h))))
            out.append(row)
        else:
            support = covered if cfg.strict_pattern else None
            prob = OptProblem.build(h, p_sum, selected=omega, epsilon=cfg.epsilon_ratio * p_sum, support=support)
            p = _water_fill_reference(prob)
            every = [np.argsort(row, kind="stable") for row in h]
            out.append([sum(float(_beam_rates(h[n], p[n], every[n]).sum()) for n in range(len(h)))])
            assert np.array_equal(water_fill(prob), p)
    return out


def test_stacked_tail_matches_the_per_budget_path():
    # every shape N <= K <= 2^N - 1, budgets 0, 20 and 40 dB, strict and
    # non-strict support, nulled pairs present, and the gains as given or
    # with beam 0's row zeroed (so the optimal policy finds no free entry
    # there), fig4's gain factors with 0.3 and 1.7, and p0 = 1 and 0.37:
    # every policy's rates equal the per-budget path's bit for bit.  Every
    # sum over beams runs in beam order on both sides, and every sum over
    # users (or over the N x K pairs of the equal split) is numpy's sum over
    # one contiguous row of the same length and order on both sides, so the
    # agreement is exact even where K >= 8.
    fig4 = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "fig4.cfg")
    mus = fig4.mu + (0.3, 1.7)
    saw_nulled = False
    for n in (2, 3, 4):
        for k in range(n, 2**n):
            for strict in (False, True):
                cfg = _cfg(schemes=("lsa-pdma",), n_beams=n, users=(k,), p_sum_db=(0.0, 20.0, 40.0), strict_pattern=strict)
                setup = _draw_drop(cfg, k, "simple", np.random.SeedSequence(17, spawn_key=(n, k, strict)))
                channels, pattern, omega, beams, _ = setup
                nulled = omega.nulled(pattern)
                saw_nulled |= nulled.any()
                budgets = np.array([10.0 ** (db / 10.0) for db in cfg.p_sum_db])
                splits = equal_splits(pattern, budgets, nulled)
                (gains,) = drop_link_states([(channels, beams, splits)], 1.0)
                zeroed = gains.copy()
                zeroed[:, 0] = 0.0
                for h in (gains, zeroed):
                    for p0 in (1.0, 0.37):
                        run = dataclasses.replace(cfg, p0_ratio=p0)
                        units = [
                            ("equal", k, "simple", "equal", (None,)),
                            ("ladders", k, "simple", "fixed-ratio", mus),
                            ("optimal", k, "simple", "optimal", (None,)),
                        ]
                        for unit in units[1:2] if p0 != 1.0 else units:
                            got = [r.sum_rate for r in _unit_records(run, unit, setup, splits, h, budgets)]
                            want = [rate for row in _per_budget_rates(run, unit, pattern, omega, h) for rate in row]
                            assert got == want, (n, k, strict, unit[0], p0)
    assert saw_nulled


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
    # every unit computes its SINRs in one call of the receiver's SINR
    # formula over all its budgets (and its mu sweep), so the call count
    # does not grow with the budgets.  The optimal policy reads only the
    # gains of the equal splits: its one call carries the water-fill, whose
    # beams each hold at most one entry above the anchors' 1e-6 floor.
    calls = []
    real = receiver._sic_sinr

    def counted(h2, p):
        calls.append(p)
        return real(h2, p)

    monkeypatch.setattr(receiver, "_sic_sinr", counted)
    budgets = 10.0 ** (np.array([0.0, 20.0]) / 10.0)
    run_drop(_cfg(schemes=("lsa-pdma",), users=(6,), policies=("optimal",), p_sum_db=(0.0, 20.0)), 4)
    assert [p.shape for p in calls] == [(2, 3, 6)]
    assert ((calls[0] > 2e-6 * budgets[:, None, None]).sum(axis=-1) <= 1).all()
    calls.clear()
    run_drop(_cfg(schemes=("oma",)), 4)
    assert [p.shape for p in calls] == [(1, 3, 3)]
    calls.clear()
    run_drop(_cfg(schemes=("lsa-pdma",), users=(6,), mu=(0.5, 1.0, 2.0)), 4)
    assert [p.shape for p in calls] == [(1, 3, 3, 6)]


def test_units_that_share_k_and_pattern_share_one_setup(monkeypatch):
    # fig3's two units (the simple and the optimal policy, both K = 7 on the
    # simple pattern) share the draw, the pattern and the anchors, so a drop
    # puts one unit in the ZF stack and 7 users in the MMSE solve; each
    # unit's records equal those of a run of it alone
    import lsapdma.harness as harness

    cfg = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "fig3.cfg")
    stacks = []
    real_zf, real_links = harness.zf_beamformers, harness.drop_link_states

    def zf(channel_sets, omegas, **kwargs):
        stacks.append(("zf", len(omegas)))
        return real_zf(channel_sets, omegas, **kwargs)

    def links(units, sigma2):
        stacks.append(("mmse", sum(len(channels) for channels, _, _ in units)))
        return real_links(units, sigma2)

    for seed in range(3):
        state = np.random.SeedSequence(cfg.seed, spawn_key=(seed,))
        with monkeypatch.context() as m:
            m.setattr(harness, "zf_beamformers", zf)
            m.setattr(harness, "drop_link_states", links)
            both = run_drop(cfg, state)
        assert stacks == [("zf", 1), ("mmse", 7)]
        stacks.clear()
        alone = [r for policy in cfg.policies for r in run_drop(dataclasses.replace(cfg, policies=(policy,)), state)]
        assert both == alone


def test_a_fig5_drop_builds_no_problem_and_no_per_budget_allocation(monkeypatch):
    # the simulation path runs each policy on the unit's budget stack: no
    # OptProblem is built, and every power check covers all the budgets
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
    assert run_drop(cfg, np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    assert built == []
    assert checked and all(shape[0] == len(cfg.p_sum_db) for shape in checked)
    # the counters see what they should
    checked.clear()
    equal_power(oma_pattern(3), 1.0)
    OptProblem.build(np.ones((1, 1)), 1.0)
    assert checked == [(1, 3, 3)] and built == ["OptProblem"]


def test_fig4_runs_at_high_budgets():
    # the budget check scales with p_sum: at 80 dB a fixed budget slack of
    # 1e-9 rejected the ladders' rounding
    cfg = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "fig4.cfg")
    table = run_monte_carlo(dataclasses.replace(cfg, p_sum_db=(80.0,), drops=2, workers=1))
    assert all(row.drops == 2 and row.mean_sum_rate > 0 for row in table.rows)
