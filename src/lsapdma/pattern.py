"""Beam-allocation patterns and power allocation.

A pattern is a binary N x K matrix: rows are beams, columns are users, and a
one means the beam carries that user's symbol.  A user's diversity is its
column weight and a beam's overlap is its row weight.  The power matrix
shares the pattern's support; merging both gives the mapping the
transmitter applies to the symbol vector.

The simple and power-domain policies assign their columns by weakness
rank, so a drop's pattern is one (N, K) matrix per policy with its columns
permuted by the drop's ranks (see ``beamforming.rank_anchors``).  Power
matrices are checked by one routine, ``_check_powers``, which takes a stack
of shape (..., N, K).  The power policies take a (C, N, K) stack of powered
supports Pi (one per drop of a chunk: the covered pairs less those the ZF
anchors null) and build every matrix for all D budgets at once, checked
once as a stack.  ``fixed_ratio_ladders`` is the one split rule: it gives
the (C, D, M, N, K) ladders of a gain-factor sweep, from per-budget SIC
orders.  The equal split is its ladder at mu = 1, every step 1 and each
power the budget over Pi's count; ``equal_power`` is that ladder of one
budget on one pattern, a checked (N, K) matrix: the stack of one.

Every total over a stack's last axis that a pad user may enter is taken by
``left_sum``, and every gather of a stack's rows along SIC orders goes
through ``flat_rows``; the receiver and the optimizer use both.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np


def validate_pattern(entries: np.ndarray, strict: bool = True) -> str | None:
    """Check pattern invariants; return a description of the first violation.

    Returns None when the matrix is a valid pattern.  Rules, in the order
    checked: binary entries; K within [N, 2^N - 1]; every user covered by at
    least one beam; every beam carrying at least one user; pairwise distinct
    columns (column weight <= N holds for any binary column).  Without
    ``strict`` (the baseline matrices) the K range and distinct columns are
    not required.
    """
    b = np.asarray(entries)
    if b.ndim != 2:
        return "pattern must be a 2-D matrix"
    n, k = b.shape
    if not ((b == 0) | (b == 1)).all():
        return "entries must be 0 or 1"
    if strict and k < n:
        return f"K={k} is below the beam count N={n}"
    if strict and k > 2**n - 1:
        return f"K={k} exceeds 2^N - 1 = {2**n - 1}"
    if (b.sum(axis=0) == 0).any():
        u = int(np.flatnonzero(b.sum(axis=0) == 0)[0])
        return f"uncovered user {u}"
    if (b.sum(axis=1) == 0).any():
        m = int(np.flatnonzero(b.sum(axis=1) == 0)[0])
        return f"unused beam {m}"
    if strict and len(set(map(tuple, b.T.tolist()))) != k:
        return "duplicate columns"
    return None


@dataclass(frozen=True, eq=False)
class PatternMatrix:
    """Validated binary beam-allocation matrix (beams x users).

    ``strict`` enforces the full pattern-design invariants (distinct columns,
    K within [N, 2^N - 1]).  The baseline reduction matrices (one user per
    beam repeated, or two users sharing each beam) necessarily duplicate
    columns, so they are built in relaxed mode, which still requires binary
    entries, full user coverage, and no idle beams.

    Two patterns are equal when their shapes, entries and ``strict`` are;
    the hash is taken over the same, so a pattern used as (part of) a key
    must not have its entries written afterwards.
    """

    entries: np.ndarray
    strict: bool = True

    def __post_init__(self):
        # validate the values as given: casting first would truncate 0.7 to 0
        entries = np.asarray(self.entries)
        violation = validate_pattern(entries, self.strict)
        if violation is not None:
            raise ValueError(f"invalid pattern: {violation}")
        object.__setattr__(self, "entries", np.asarray(entries, dtype=int))

    def __eq__(self, other):
        if not isinstance(other, PatternMatrix):
            return NotImplemented
        return self.strict == other.strict and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash((self.entries.shape, self.entries.tobytes(), self.strict))

    @property
    def n_beams(self) -> int:
        return self.entries.shape[0]

    @property
    def n_users(self) -> int:
        return self.entries.shape[1]


def _columns_by_weight(n: int) -> dict[int, list[tuple[int, ...]]]:
    """Nonzero binary columns of length n grouped by weight, desc-lex within a group."""
    groups: dict[int, list[tuple[int, ...]]] = {}
    for bits in itertools.product((0, 1), repeat=n):
        w = sum(bits)
        if w:
            groups.setdefault(w, []).append(bits)
    for cols in groups.values():
        cols.sort(reverse=True)
    return groups


def _pick_class_columns(
    cols: list[tuple[int, ...]], count: int, loads: np.ndarray
) -> list[tuple[int, ...]]:
    """Choose ``count`` columns of one weight class, keeping beam loads even.

    Each pick minimizes the sorted multiset of row loads; ties prefer the
    mirror image of the previous pick (mirror pairs cancel each other's load
    skew), then the lexicographically largest column.  ``loads`` is updated
    in place.
    """
    remaining = list(cols)
    out: list[tuple[int, ...]] = []
    prev: tuple[int, ...] | None = None
    for _ in range(count):
        keyed = {c: tuple(sorted(loads + np.array(c), reverse=True)) for c in remaining}
        best = min(keyed.values())
        candidates = [c for c in remaining if keyed[c] == best]
        mirror = tuple(reversed(prev)) if prev is not None else None
        pick = mirror if mirror in candidates else max(candidates)
        out.append(pick)
        loads += np.array(pick)
        remaining.remove(pick)
        prev = pick
    return out


def _diversity_profile(n: int, k: int) -> dict[int, int]:
    """How many columns of each weight the simple policy uses.

    Starts from the greedy fill (all-ones column first, then as many of each
    next-lower weight as fit) and then demotes single columns to the next
    lower weight, lowest weight first, until the total number of ones divides
    the beam count, so the per-beam overlaps can come out even.  If no such
    profile is reachable the greedy fill is kept.
    """
    caps = {w: math.comb(n, w) for w in range(1, n + 1)}

    def greedy() -> dict[int, int]:
        counts = {w: 0 for w in range(1, n + 1)}
        counts[n] = 1
        left = k - 1
        for w in range(n - 1, 0, -1):
            take = min(left, caps[w])
            counts[w] = take
            left -= take
        if left:
            raise ValueError(f"K={k} exceeds the {2**n - 1} distinct columns for N={n}")
        return counts

    counts = greedy()
    total = sum(w * c for w, c in counts.items())
    while total % n:
        for w in range(2, n):  # the weight-n column stays: max diversity must be present
            if counts[w] > 0 and counts[w - 1] < caps[w - 1]:
                counts[w] -= 1
                counts[w - 1] += 1
                total -= 1
                break
        else:
            return greedy()
    return counts


@functools.lru_cache(maxsize=32)
def _simple_columns(n_beams: int, n_users: int) -> np.ndarray:
    """The simple policy's column sequence, read-only, shape (N, K).

    Column r goes to the user of weakness rank r: nonincreasing weight (the
    all-ones column first), class sizes from the balanced profile, and
    load-evening picks within a class.
    """
    groups = _columns_by_weight(n_beams)
    counts = _diversity_profile(n_beams, n_users)
    loads = np.zeros(n_beams, dtype=int)
    cols: list[tuple[int, ...]] = []
    for w in range(n_beams, 0, -1):
        cols.extend(_pick_class_columns(groups[w], counts[w], loads))
    out = np.array(cols, dtype=int).T
    out.setflags(write=False)
    return out


def simple_beam_allocation(n_beams: int, n_users: int, weakest_first) -> PatternMatrix:
    """Deterministic diversity-to-weakness beam allocation.

    Assigns the column sequence of ``_simple_columns`` to users in the given
    weakest-first order, so weaker users get at least the diversity of
    stronger ones.

    ``weakest_first`` is a permutation of user indices, weakest user first.
    Column r goes to user ``weakest_first[r]``, so the pattern is that of
    ``range(K)`` with each column moved to the user of its rank.  Moving
    columns keeps the overlaps and carries each diversity with its user, so
    the anchors ``select_users`` picks move the same way.
    """
    if not n_beams <= n_users <= 2**n_beams - 1:
        raise ValueError(
            f"need N <= K <= 2^N - 1, got N={n_beams}, K={n_users}"
        )
    order = list(weakest_first)
    if sorted(order) != list(range(n_users)):
        raise ValueError("weakest_first must be a permutation of range(n_users)")
    entries = np.zeros((n_beams, n_users), dtype=int)
    entries[:, order] = _simple_columns(n_beams, n_users)
    return PatternMatrix(entries)


def oma_pattern(n_beams: int) -> PatternMatrix:
    """One user per beam: the identity pattern (all diversities and overlaps one)."""
    return PatternMatrix(np.eye(n_beams, dtype=int))


def pnoma_pattern(n_beams: int, weakest_first) -> PatternMatrix:
    """Power-domain baseline: two users per beam, diversity one everywhere.

    Users are far-near paired: the weakest is grouped with the strongest,
    the second weakest with the second strongest, and so on; pair j goes to
    beam j.  ``weakest_first`` is a permutation of the 2N user indices.
    As in ``simple_beam_allocation``, column r goes to the user of rank r,
    so the pattern and its anchors are those of ``range(2N)`` moved.
    """
    order = list(weakest_first)
    if sorted(order) != list(range(2 * n_beams)):
        raise ValueError("pnoma needs a permutation of exactly 2*n_beams users")
    entries = np.zeros((n_beams, 2 * n_beams), dtype=int)
    for j in range(n_beams):
        entries[j, order[j]] = 1
        entries[j, order[2 * n_beams - 1 - j]] = 1
    return PatternMatrix(entries, strict=False)


def left_sum(x) -> np.ndarray:
    """The sum over the last axis of a stack (..., L), run left to right.

    numpy sums 8 or more terms pairwise, so appending a zero (a pad user
    of the harness's padded stack) would regroup the other terms; run
    left to right, a pad adds an exact +0.0 and the sum keeps every bit it
    has without it (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., ch. 4).
    """
    return np.cumsum(x, axis=-1)[..., -1]


def flat_rows(orders, shape) -> np.ndarray:
    """Flat positions, in a C-ordered array of ``shape`` (..., K), of each
    row's K entries in the order its row of ``orders`` lists them; the
    orders broadcast to ``shape``."""
    rows = shape[:-1]
    return orders + shape[-1] * np.arange(math.prod(rows)).reshape(rows + (1,))


def _powered_stack(powered) -> np.ndarray:
    """``powered`` as a checked (C, N, K) boolean stack."""
    powered = np.asarray(powered)
    if powered.ndim != 3 or powered.dtype != bool:
        raise ValueError("a powered support stack holds (C, N, K) boolean entries")
    return powered


def _check_powers(p: np.ndarray, support: np.ndarray, p_sum) -> None:
    """Raise unless every matrix of the stack ``p``, shape (..., N, K), is
    nonnegative, positive exactly on ``support`` and, when ``p_sum`` is
    given, within the budget.  ``p_sum`` is one budget for the whole stack
    or one per matrix, shaped like ``p.shape[:-2]`` or broadcasting to it.

    A matrix scaled to sum to ``p_sum`` carries rounding of up to about one
    ulp of ``p_sum`` per entry, so the budget allows that much and no more:
    the slack scales with the budget.
    """
    # count_nonzero: the checks run on every stack, and ``any`` costs more per call
    if np.count_nonzero(p < 0):
        raise ValueError("powers must be nonnegative")
    if np.count_nonzero((p > 0) != support):
        raise ValueError("power support must match the pattern support less its nulled pairs")
    if p_sum is not None:
        slack = (p.shape[-2] * p.shape[-1] + 2) * np.spacing(p_sum)
        if np.count_nonzero(p.sum(axis=(-2, -1)) > p_sum + slack):
            raise ValueError("total power exceeds the budget")


def _budgets(p_sum) -> np.ndarray:
    """The budgets of a stack as a checked 1-D array."""
    p_sum = np.asarray(p_sum, dtype=float)
    if p_sum.ndim != 1:
        raise ValueError("p_sum must list one budget per matrix of the stack")
    if (p_sum <= 0).any():
        raise ValueError("p_sum must be positive")
    return p_sum


def fixed_ratio_ladders(powered: np.ndarray, mus, sic_orders, p_sum) -> np.ndarray:
    """Geometric power ladders within each beam of a (C, N, K) stack of
    powered supports, one per (support, budget, gain factor), shape
    (C, D, M, N, K).

    For support c, budget ``p_sum[d]`` and ``mus[m]`` = mu, within beam n
    the powered users (``powered[c, n]``), taken in the ascending-gain
    order ``sic_orders[c, d, n]``, get powers 1, mu, mu^2, ...; one
    constant per ladder then scales the whole matrix so its total, a
    ``left_sum`` over its row-major entries, equals the budget.
    ``sic_orders`` has shape (C, D, N, K), each row a permutation of the
    users (as ``receiver.sic_orders`` gives them); a step is placed by
    counting only the powered users along the row, so users without power
    may sit anywhere in it and get none.  Only the steps some beam of the
    stack places are computed, so a ratio whose powers past them leave the
    float range still gives finite ladders.  Every ladder passes
    ``_check_powers``, run once on the stack.
    """
    mus = np.asarray(mus, dtype=float)
    if mus.ndim != 1:
        raise ValueError("mus must be a sequence of gain factors")
    if (mus <= 0).any():
        raise ValueError("mu must be positive")
    p_sum = _budgets(p_sum)
    support = _powered_stack(powered)
    n_stack, n_beams, n_users = support.shape
    orders = np.asarray(sic_orders)
    if orders.shape != (n_stack, len(p_sum), n_beams, n_users) or orders.dtype.kind not in "iu":
        raise ValueError("sic_orders must hold one (N, K) integer order stack per support and budget")
    valid = (np.sort(orders, axis=-1) == np.arange(n_users)).all(axis=-1)
    if not valid.all():
        n = int(np.flatnonzero(~valid.reshape(-1, n_beams).all(axis=0))[0])
        raise ValueError(f"sic_orders[..., {n}, :] must list each user once")
    # each powered user's place among its beam's powered users, in user space
    place = np.empty(orders.shape, dtype=int)
    in_support = support.reshape(-1)[flat_rows(orders, (n_stack, 1, n_beams, n_users))]
    place.reshape(-1)[flat_rows(orders, orders.shape)] = np.cumsum(in_support, axis=-1) - 1
    # only the steps mu^j the stack places: j below its beams' largest powered
    # count (one step at least)
    steps = mus[:, None] ** np.arange(support.sum(axis=-1).max(initial=1))  # (M, J)
    support = support[:, None, None]  # (C, 1, 1, N, K): one support for all budgets
    ladders = np.where(support, steps[np.arange(len(mus))[:, None, None], place[:, :, None]], 0.0)
    ladders *= (p_sum[:, None] / left_sum(ladders.reshape(ladders.shape[:-2] + (-1,))))[..., None, None]
    _check_powers(ladders, support, p_sum[:, None])
    return ladders


def equal_power(pattern: PatternMatrix, p_sum: float, nulled: np.ndarray | None = None) -> np.ndarray:
    """The equal split of one budget on one pattern, shape (N, K), over its
    covered pairs less the ``nulled`` ones (none by default): the
    ``fixed_ratio_ladders`` ladder at mu = 1, whose steps are all 1, so
    each powered pair gets the budget over their count, which ``left_sum``
    counts exactly, whatever the SIC order."""
    powered = pattern.entries == 1
    if nulled is not None:
        powered &= ~np.asarray(nulled, dtype=bool)
    orders = np.broadcast_to(np.arange(pattern.n_users), (1, 1) + powered.shape)
    return fixed_ratio_ladders(powered[None], [1.0], orders, [p_sum])[0, 0, 0]


def correlation_matrix(power) -> np.ndarray:
    """Second moment of the superposed signal: A_ij = sum_k sqrt(p_ik p_jk).

    Accepts a nonnegative power matrix or a stack of them, shape
    (..., N, K), giving (..., N, N).  A is symmetric positive semidefinite
    (it is M M^T for M = sqrt of the power matrix).  The sum over k is a
    ``left_sum``, so a user with no power appended to the matrix changes no
    bit.
    """
    p = np.asarray(power, dtype=float)
    if (p < 0).any():
        raise ValueError("powers must be nonnegative")
    m = np.sqrt(p)
    return left_sum(m[..., :, None, :] * m[..., None, :, :])


def parse_pattern_text(text: str) -> PatternMatrix:
    """Parse a plain-text matrix block: one row per line, space-separated 0/1."""
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([int(tok) for tok in line.split()])
    if not rows:
        raise ValueError("empty pattern block")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("pattern rows must all have the same length")
    return PatternMatrix(np.array(rows, dtype=int))


def format_pattern_text(pattern: PatternMatrix) -> str:
    """Inverse of parse_pattern_text."""
    return "\n".join(" ".join(str(v) for v in row) for row in pattern.entries)
