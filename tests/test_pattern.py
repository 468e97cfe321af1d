import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from lsapdma import harness
from lsapdma.beamforming import select_users
from lsapdma.channel import sample_channel
from lsapdma.harness import ExperimentConfig, _Stack, _tail_rates
from lsapdma.optimizer import anchor_floors, water_fills
from lsapdma.pattern import (
    PatternMatrix,
    _check_powers,
    _simple_columns,
    correlation_matrix,
    equal_power,
    equal_splits,
    fixed_ratio_ladders,
    format_pattern_text,
    left_sum,
    oma_pattern,
    parse_pattern_text,
    pnoma_pattern,
    simple_beam_allocation,
    validate_pattern,
)
from lsapdma.receiver import sic_orders
from lsapdma.rng import make_rng

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

B35 = np.array([[1, 1, 0, 1, 0], [1, 1, 1, 0, 0], [1, 0, 1, 0, 1]])


def test_simple_allocation_canonical_3x5():
    got = simple_beam_allocation(3, 5, [0, 1, 2, 3, 4])
    assert np.array_equal(got.entries, B35)


def test_simple_allocation_respects_user_order():
    # the weakest-first permutation decides which user gets which column
    order = [4, 2, 0, 1, 3]
    got = simple_beam_allocation(3, 5, order)
    canonical = simple_beam_allocation(3, 5, [0, 1, 2, 3, 4])
    for rank, user in enumerate(order):
        assert np.array_equal(got.entries[:, user], canonical.entries[:, rank])


def test_simple_allocation_full_house():
    # K = 7 uses all nonzero columns; the weakest user spans every beam
    got = simple_beam_allocation(3, 7, range(7))
    cols = {tuple(c) for c in got.entries.T}
    assert cols == {c for c in itertools.product((0, 1), repeat=3) if any(c)}
    assert np.array_equal(got.entries[:, 0], [1, 1, 1])
    d = got.entries.sum(axis=0)
    assert all(d[i] >= d[i + 1] for i in range(6))


def test_simple_allocation_exhaustive_validity():
    for n in range(2, 6):
        for k in range(n, 2**n):
            got = simple_beam_allocation(n, k, range(k))
            assert validate_pattern(got.entries) is None
            d = got.entries.sum(axis=0)
            assert all(d[i] >= d[i + 1] for i in range(k - 1))


def test_simple_columns_are_shared_and_read_only():
    cols = _simple_columns(3, 5)
    assert _simple_columns(3, 5) is cols
    assert not cols.flags.writeable
    got = simple_beam_allocation(3, 5, [4, 3, 2, 1, 0])
    got.entries[:] = 0  # a drop's pattern is its own copy
    assert np.array_equal(simple_beam_allocation(3, 5, range(5)).entries, B35)


def test_simple_allocation_bounds():
    with pytest.raises(ValueError):
        simple_beam_allocation(3, 2, [0, 1])
    with pytest.raises(ValueError):
        simple_beam_allocation(3, 8, range(8))


def test_oma_pattern_is_identity():
    assert np.array_equal(oma_pattern(3).entries, np.eye(3, dtype=int))


def test_pnoma_pattern_far_near_pairing():
    got = pnoma_pattern(3, [5, 1, 0, 2, 4, 3])
    # weakest (5) pairs with strongest (3) on beam 0, and so on
    assert np.array_equal(np.flatnonzero(got.entries[0]), sorted([5, 3]))
    assert np.array_equal(np.flatnonzero(got.entries[1]), sorted([1, 4]))
    assert np.array_equal(np.flatnonzero(got.entries[2]), sorted([0, 2]))
    assert (got.entries.sum(axis=0) == 1).all()
    assert (got.entries.sum(axis=1) == 2).all()


def test_validate_pattern_accepts_canonical():
    assert validate_pattern(B35) is None


def test_validate_pattern_reports_uncovered_user():
    bad = B35.copy()
    bad[:, 3] = 0
    assert "uncovered user" in validate_pattern(bad)
    assert validate_pattern(bad, strict=False) == "uncovered user 3"


def test_validate_pattern_reports_bounds():
    assert "exceeds" in validate_pattern(np.ones((3, 8), dtype=int))
    assert "below" in validate_pattern(np.array([[1, 0], [1, 1], [0, 1]]))
    # the baseline matrices need neither bound
    assert validate_pattern(np.ones((3, 8), dtype=int), strict=False) is None
    assert validate_pattern(np.array([[1, 0], [1, 1], [0, 1]]), strict=False) is None


def test_validate_pattern_reports_duplicates_and_idle_beams():
    dup = np.array([[1, 1, 0], [1, 1, 1], [0, 0, 1]])
    dup[:, 1] = dup[:, 0]
    assert validate_pattern(dup) == "duplicate columns"
    idle = np.array([[1, 1, 1], [0, 0, 0], [1, 0, 1]])
    assert "unused beam" in validate_pattern(idle)
    assert validate_pattern(dup, strict=False) is None
    assert validate_pattern(idle, strict=False) == "unused beam 1"


def test_pattern_matrix_raises_on_violation():
    with pytest.raises(ValueError):
        PatternMatrix(np.zeros((2, 2), dtype=int))


def test_pattern_entries_are_validated_before_the_cast():
    # cast first, 0.7 and 1.9 truncate to 0 and 1 and the matrix below
    # passes as the identity
    for bad in (0.7, 1.9, -1.0, np.nan):
        entries = np.eye(3)
        entries[0, 2] = bad
        for strict in (True, False):
            with pytest.raises(ValueError, match="0 or 1"):
                PatternMatrix(entries, strict=strict)
        assert validate_pattern(entries) == "entries must be 0 or 1"
    for good in (B35.astype(bool), B35.astype(float)):
        pattern = PatternMatrix(good)
        assert pattern.entries.dtype == int
        assert np.array_equal(pattern.entries, B35)
    assert np.array_equal(PatternMatrix(np.eye(3, dtype=bool), strict=False).entries, np.eye(3))


def _powered(pattern, nulled=None):
    """The (1, N, K) powered support of one pattern: its covered pairs
    less the ``nulled`` ones (none by default)."""
    covered = pattern.entries == 1
    return (covered if nulled is None else covered & ~nulled)[None]


def _ladder(pattern, mu, sic_orders, p_sum, nulled=None):
    """The ladder of one gain factor at one budget: a one-pattern,
    one-budget, one-mu ``fixed_ratio_ladders`` stack, from per-beam orders
    of the covered users."""
    orders = _full_orders(pattern, sic_orders)[None, None]
    return fixed_ratio_ladders(_powered(pattern, nulled), [mu], orders, [p_sum])[0, 0, 0]


def test_fixed_ratio_equal_split_at_unit_mu():
    pattern = PatternMatrix(B35)
    orders = [np.flatnonzero(row) for row in B35]
    alloc = _ladder(pattern, 1.0, orders, 9.0)
    assert np.allclose(alloc[B35 == 1], 1.0)
    assert alloc.sum() == pytest.approx(9.0, rel=1e-15)


def test_fixed_ratio_two_user_ladder():
    # single beam, two users, ratio 1:2 rescaled to total 3
    pattern = PatternMatrix(np.array([[1, 1]]), strict=False)
    alloc = _ladder(pattern, 2.0, [np.array([0, 1])], 3.0)
    assert np.allclose(alloc, [[1.0, 2.0]])


def test_fixed_ratio_budget_and_ratios_exact():
    pattern = simple_beam_allocation(3, 6, range(6))
    rng = make_rng(5)
    orders = [rng.permutation(np.flatnonzero(row)) for row in pattern.entries]
    for mu in (0.25, 1.7, 8.0):
        alloc = _ladder(pattern, mu, orders, 12.5)
        assert abs(alloc.sum() - 12.5) / 12.5 < 1e-12
        for n, order in enumerate(orders):
            ladder = alloc[n, order]
            assert np.allclose(ladder[1:] / ladder[:-1], mu, rtol=1e-12)


def test_fixed_ratio_rejects_bad_order():
    pattern = PatternMatrix(B35)
    orders = _full_orders(pattern, [np.flatnonzero(row) for row in B35])[None, None]
    # an order row one user short
    with pytest.raises(ValueError):
        fixed_ratio_ladders(_powered(pattern), [2.0], orders[..., :-1], [5.0])


def test_fixed_ratio_rejects_a_repeated_user_in_an_order():
    # [0, 0] names user 0 twice and user 1 never, which would give user 0
    # two rungs of the ladder
    pattern = PatternMatrix(np.array([[1, 1]]), strict=False)
    with pytest.raises(ValueError, match="once"):
        fixed_ratio_ladders(_powered(pattern), [2.0], np.array([[[[0, 0]]]]), [3.0])
    # a stacked order that lists beam 0's covered users first but repeats
    # user 3 in place of the uncovered user 2
    orders = _full_orders(PatternMatrix(B35), [np.flatnonzero(row) for row in B35])[None, None]
    orders[0, 0, 0] = [0, 1, 3, 3, 4]
    with pytest.raises(ValueError, match="once"):
        fixed_ratio_ladders(B35[None] == 1, [0.5, 2.0], orders, [5.0])


def test_ladders_do_not_depend_on_where_unpowered_users_sit():
    # a step is placed by counting the powered users along the order, so
    # an order that lists each beam's covered users first, in ascending
    # gain, and its uncovered users after them in any order (built here by
    # hand) gives the ladders of the plain ascending-gain order of
    # ``sic_orders`` bit for bit: every shape N <= K <= 2^N - 1, a
    # (C, D, N, K) stack of random gains on a coarse grid (so ties occur)
    # and nulled pairs present
    mus = (0.25, 0.3, 1.7, 8.0)
    budgets = [10.0 ** (db / 10.0) for db in (0.0, 20.0, 40.0)]
    saw_nulled = saw_interleaved = False
    for n in (2, 3, 4):
        for k in range(n, 2**n):
            rng = make_rng(n, k, 13)
            patterns = [simple_beam_allocation(n, k, rng.permutation(k)) for _ in range(3)]
            entries = np.array([pattern.entries for pattern in patterns])
            nulled = np.array(
                [
                    select_users([sample_channel(4, 16, 1.0, rng) for _ in range(k)], pattern, rng.uniform(0.1, 1.0, k))
                    .nulled(pattern)
                    for pattern in patterns
                ]
            )
            saw_nulled |= nulled.any()
            gains = np.round(rng.uniform(0.0, 1.0, (len(patterns), len(budgets), n, k)), 1)
            covered_first = np.empty(gains.shape, dtype=int)
            for c, d, b in itertools.product(range(len(patterns)), range(len(budgets)), range(n)):
                row = entries[c, b] == 1
                covered = np.flatnonzero(row)
                covered = covered[np.argsort(gains[c, d, b, covered], kind="stable")]
                covered_first[c, d, b] = np.concatenate([covered, rng.permutation(np.flatnonzero(~row))])
            plain = sic_orders(gains)
            saw_interleaved |= not np.array_equal(plain, covered_first)
            powered = (entries == 1) & ~nulled
            want = fixed_ratio_ladders(powered, mus, covered_first, budgets)
            assert np.array_equal(fixed_ratio_ladders(powered, mus, plain, budgets), want)
    assert saw_nulled and saw_interleaved


def _full_orders(pattern, sic_orders):
    """Per-beam orders of the covered users, each completed to a
    permutation of the users by the beam's uncovered users: the (N, K) form
    ``fixed_ratio_ladders`` takes per budget."""
    return np.array(
        [np.concatenate([order, np.flatnonzero(row == 0)]) for order, row in zip(sic_orders, pattern.entries)]
    )


def _ladder_reference(pattern, mu, sic_orders, p_sum, nulled):
    """One gain factor at a time, beam by beam, scaled by the matrix's sum
    taken left to right over its row-major entries."""
    b = pattern.entries
    support = (b == 1) & ~nulled
    entries = np.zeros(b.shape, dtype=float)
    for n in range(b.shape[0]):
        order = np.asarray(sic_orders[n], dtype=int)
        powered = order[support[n, order]]
        entries[n, powered] = mu ** np.arange(len(powered))
    entries *= p_sum / np.cumsum(entries)[-1]
    return entries


def test_fixed_ratio_ladders_match_a_per_mu_reference():
    # every shape N <= K <= 2^N - 1, fig4's gain factors and the power-domain
    # baseline's, budgets 0-40 dB with an order of their own each, nulled
    # pairs present: the (D, M, N, K) stack equals the per-budget, per-mu
    # ladders bit for bit, and so does a one-mu stack.  fig4's factors
    # are powers of two, whose ladders sum exactly in any order, so two that
    # are not join them.
    fig4 = ExperimentConfig.from_file(CONFIGS / "fig4.cfg")
    mus = fig4.mu + (fig4.pnoma_mu, 0.3, 1.7)
    budgets = [10.0 ** (db / 10.0) for db in (0.0, 20.0, 40.0)]
    saw_nulled = False
    for n in (2, 3, 4):
        for k in range(n, 2**n):
            rng = make_rng(n, k)
            chans = [sample_channel(4, 16, 1.0, make_rng(n, k, i)) for i in range(k)]
            pattern = simple_beam_allocation(n, k, rng.permutation(k))
            nulled = select_users(chans, pattern, rng.uniform(0.1, 1.0, k)).nulled(pattern)
            saw_nulled |= nulled.any()
            orders = [[rng.permutation(np.flatnonzero(row)) for row in pattern.entries] for _ in budgets]
            stacked = np.array([_full_orders(pattern, per_beam) for per_beam in orders])
            (ladders,) = fixed_ratio_ladders(_powered(pattern, nulled), mus, stacked[None], budgets)
            assert ladders.shape == (len(budgets), len(mus), n, k)
            for p_sum, per_beam, per_budget in zip(budgets, orders, ladders):
                for mu, ladder in zip(mus, per_budget):
                    ref = _ladder_reference(pattern, mu, per_beam, p_sum, nulled)
                    assert np.array_equal(ladder, ref)
                    one = _ladder(pattern, mu, per_beam, p_sum, nulled)
                    assert np.array_equal(one, ref)
    assert saw_nulled


def test_uncovered_pad_users_change_no_ladder_entry():
    # uncovered columns appended to a (C, N, K) pattern stack, their users
    # appended to each order or put before it, leave every real entry of
    # the ladders bit for bit as it is, at mu = 1.7, whose ladders do not
    # sum exactly (mu = 1.5's do), for every shape with N * K >= 8: each
    # ladder's total runs left to right, so a pad adds an exact +0.0
    budgets = [10.0 ** (db / 10.0) for db in (0.0, 13.0, 40.0)]
    for n in (2, 3, 4):
        for k in range(n, 2**n):
            if n * k < 8:
                continue
            rng = make_rng(31, n, k)
            entries = np.array([simple_beam_allocation(n, k, rng.permutation(k)).entries for _ in range(3)])
            nulled = (entries == 1) & (rng.random(entries.shape) < 0.2)
            nulled[:, :, 0] = False  # keep powered pairs in every matrix
            orders = np.array([[[rng.permutation(k) for _ in range(n)] for _ in budgets] for _ in range(3)])
            powered = (entries == 1) & ~nulled
            ladders = fixed_ratio_ladders(powered, [1.7], orders, budgets)
            for pads in range(1, 9):
                pad = np.arange(k, k + pads) + np.zeros(orders.shape[:-1] + (1,), dtype=int)
                padded = np.concatenate([powered, np.zeros((3, n, pads), dtype=bool)], axis=-1)
                for padded_orders in (np.concatenate([orders, pad], axis=-1), np.concatenate([pad, orders], axis=-1)):
                    got = fixed_ratio_ladders(padded, [1.7], padded_orders, budgets)
                    assert np.array_equal(got[..., :k], ladders) and not got[..., k:].any(), (n, k, pads)


def _harness_floors(monkeypatch, entries, anchors, gains, budgets):
    """The (C, D, N, K) anchor floors the optimal policy of the harness
    hands the water-fill for C patterns' entries and anchors (C, N), gains
    (C, D, N, K) and D budgets, at the anchors' floor of 1e-6 of each
    budget (``optimizer.ANCHOR_FLOOR``)."""
    seen = []

    def recorded(gains, p_sum, delta, support=None, orders=None):
        seen.append(delta)
        return water_fills(gains, p_sum, delta, support, orders)

    monkeypatch.setattr(harness, "water_fills", recorded)
    _, n, k = entries.shape
    # the one unit of this config is the optimal policy's
    cfg = ExperimentConfig(n_beams=n, users=(k,), policies=("optimal",))
    _tail_rates(cfg, _Stack(None, entries[None], anchors[None], None, None, None), None, gains[None], budgets)
    return seen[0][0]


def test_power_stacks_over_patterns_equal_each_pattern_alone(monkeypatch):
    # a (C, N, K) stack of C patterns' entries, with one nulled mask, one
    # order stack and one anchor set each, gives the C stacks of the
    # patterns run one at a time, bit for bit: equal splits (C, D, N, K),
    # ladders (C, D, M, N, K) and the harness's anchor floors (C, D, N, K),
    # each drop's floors those of its anchor pairs given as a tuple or as
    # an (N, 2) array
    mus = (0.25, 0.3, 1.7, 8.0)
    budgets = [10.0 ** (db / 10.0) for db in (0.0, 20.0, 40.0)]
    for n in (2, 3, 4):
        for k in range(n, 2**n):
            rng = make_rng(n, k, 7)
            patterns, nulled, orders, anchors = [], [], [], []
            for _ in range(3):
                chans = [sample_channel(4, 16, 1.0, rng) for _ in range(k)]
                patterns.append(simple_beam_allocation(n, k, rng.permutation(k)))
                anchors.append(select_users(chans, patterns[-1], rng.uniform(0.1, 1.0, k)))
                nulled.append(anchors[-1].nulled(patterns[-1]))
                orders.append(
                    [_full_orders(patterns[-1], [rng.permutation(np.flatnonzero(row)) for row in patterns[-1].entries]) for _ in budgets]
                )
            nulled, orders = np.array(nulled), np.array(orders)
            stack = np.array([pattern.entries for pattern in patterns])
            powered = (stack == 1) & ~nulled
            splits = equal_splits(powered, budgets)
            ladders = fixed_ratio_ladders(powered, mus, orders, budgets)
            gains = rng.uniform(0.1, 1.0, (3, len(budgets), n, k))
            users = np.array([omega.users for omega in anchors])
            floors = _harness_floors(monkeypatch, stack, users, gains, np.array(budgets))
            assert splits.shape == gains.shape and ladders.shape == (3, len(budgets), len(mus), n, k)
            for c, pattern in enumerate(patterns):
                alone = _powered(pattern, nulled[c])
                assert np.array_equal(splits[c], equal_splits(alone, budgets)[0])
                assert np.array_equal(ladders[c], fixed_ratio_ladders(alone, mus, orders[c][None], budgets)[0])
                assert np.array_equal(floors[c], anchor_floors(gains[c], anchors[c].pairs, 1e-6 * np.array(budgets)))
                pairs = np.array(anchors[c].pairs)
                assert np.array_equal(anchor_floors(gains[c], pairs, 1e-6 * np.array(budgets)), floors[c])
    # a stack must list one order stack per support
    with pytest.raises(ValueError, match="per support"):
        fixed_ratio_ladders(powered, mus, orders[:2], budgets)
    # and a stack is three-dimensional and boolean: a pattern's 0/1 entries
    # are not its powered support
    for bad in (powered[0], stack):
        with pytest.raises(ValueError, match=r"\(C, N, K\) boolean"):
            equal_splits(bad, budgets)
        with pytest.raises(ValueError, match=r"\(C, N, K\) boolean"):
            fixed_ratio_ladders(bad, mus, orders, budgets)


def test_left_sum_adds_from_the_left():
    # bit for bit the total of a Python loop adding a row from the left,
    # on stacks of rows whose terms span many orders of magnitude, at K = 7
    # and at K = 8 and 15, where numpy's pairwise sum regroups the terms
    # and, on these rows, gives other totals (so a switch to it fails)
    rng = make_rng(41)
    for k in (7, 8, 15):
        x = rng.normal(0.0, 1.0, (4, 50, k)) * np.exp(rng.normal(0.0, 6.0, (4, 50, k)))
        want = []
        for row in x.reshape(-1, k).tolist():
            total = row[0]
            for term in row[1:]:
                total += term
            want.append(total)
        got = left_sum(x)
        assert got.shape == (4, 50)
        assert got.reshape(-1).tolist() == want
        assert (np.sum(x, axis=-1).reshape(-1).tolist() != want) == (k >= 8)


def _cumsum_totals(path):
    """(function, line) of each ``np.cumsum(...)`` indexed with a last
    index of -1 (a total over its axis) in the module at ``path``."""
    tree = ast.parse(path.read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)):
            continue
        if ast.unparse(node.value.func) != "np.cumsum":
            continue
        last = node.slice.elts[-1] if isinstance(node.slice, ast.Tuple) else node.slice
        if ast.unparse(last) == "-1":
            owners = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            found.append((max(owners, key=lambda f: f.lineno).name if owners else "<module>", node.lineno))
    return found


def test_the_left_to_right_total_is_written_once():
    # a total over the last axis that a pad may enter is taken by
    # left_sum, so ``np.cumsum(...)[..., -1]`` appears in the package only
    # there; the suffix sums of the SIC formula index otherwise
    found = {}
    for path in sorted((CONFIGS.parent / "src" / "lsapdma").glob("*.py")):
        for name, line in _cumsum_totals(path):
            found.setdefault(name, []).append(f"{path.name}:{line}")
    assert list(found) == ["left_sum"] and len(found["left_sum"]) == 1, found


def test_budget_check_scales_with_the_budget():
    # ladders and equal splits scaled to 40-120 dB pass; 1 % over fails
    rng = make_rng(12)
    for db in (40.0, 60.0, 80.0, 90.0, 100.0, 120.0):
        p_sum = 10.0 ** (db / 10.0)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(n, 2**n))
            pattern = simple_beam_allocation(n, k, rng.permutation(k))
            orders = [rng.permutation(np.flatnonzero(row)) for row in pattern.entries]
            mus = rng.uniform(0.1, 10.0, 4)
            stacked = _full_orders(pattern, orders)[None, None]
            ladders = fixed_ratio_ladders(_powered(pattern), mus, stacked, [p_sum])[0, 0]
            _ladder(pattern, float(mus[0]), orders, p_sum)
            support = pattern.entries == 1
            for entries in (ladders[0], equal_power(pattern, p_sum)):
                _check_powers(entries, support, p_sum)
                with pytest.raises(ValueError, match="budget"):
                    _check_powers(1.01 * entries, support, p_sum)


def test_power_allocation_support_must_match():
    # power on an uncovered pair, or none on a covered one, is refused
    support = PatternMatrix(B35).entries == 1
    with pytest.raises(ValueError, match="support"):
        _check_powers(np.ones_like(B35, dtype=float), support, None)
    with pytest.raises(ValueError, match="support"):
        _check_powers(np.where(support, 1.0, 0.0) * (np.arange(5) > 0), support, None)
    _check_powers(np.where(support, 1.0, 0.0), support, None)


def test_correlation_matrix_diagonal_for_disjoint_support():
    alloc = np.diag([1.0, 2.0, 3.0])  # the identity pattern's support
    assert np.allclose(correlation_matrix(alloc), np.diag([1.0, 2.0, 3.0]))


def test_correlation_matrix_shared_user_rank_one():
    alloc = np.array([[1.0], [1.0]])  # one user on two beams
    assert np.allclose(correlation_matrix(alloc), np.ones((2, 2)))


def test_correlation_matrix_monte_carlo_oracle():
    # A should equal E[t t^H] over unit-variance symbols within 2%
    pattern = simple_beam_allocation(3, 5, range(5))
    rng = make_rng(7)
    p = pattern.entries * rng.uniform(0.2, 3.0, pattern.entries.shape)
    a = correlation_matrix(p)
    n_draws = 100_000
    s = (rng.standard_normal((n_draws, 5)) + 1j * rng.standard_normal((n_draws, 5))) / np.sqrt(2)
    t = s @ np.sqrt(p).T
    estimate = (t.conj()[:, :, None] * t[:, None, :]).mean(axis=0).real.T
    assert np.allclose(estimate, a, rtol=0.02, atol=0.02 * a.max())


def test_correlation_matrix_psd():
    rng = make_rng(8)
    for _ in range(20):
        p = rng.uniform(0.0, 4.0, (4, 9))
        a = correlation_matrix(p)
        assert np.allclose(a, a.T)
        assert np.linalg.eigvalsh(a).min() >= -1e-10


def test_pattern_text_round_trip():
    pattern = PatternMatrix(B35)
    text = format_pattern_text(pattern)
    back = parse_pattern_text(text)
    assert np.array_equal(back.entries, pattern.entries)


def test_parse_pattern_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pattern_text("")
    with pytest.raises(ValueError):
        parse_pattern_text("1 0\n1")


def test_patterns_compare_and_hash_by_value():
    entries = np.array([[1, 1, 0, 1, 0], [1, 1, 1, 0, 0], [1, 0, 1, 0, 1]])
    a, b = PatternMatrix(entries), PatternMatrix(entries.copy())
    assert a == b and hash(a) == hash(b)
    other = entries.copy()
    other[0, 4] = 1
    assert PatternMatrix(other) != a
    assert PatternMatrix(entries, strict=False) != a
    assert PatternMatrix(entries[:, :3]) != a
