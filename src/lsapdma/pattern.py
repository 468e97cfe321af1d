"""Beam-allocation patterns, power allocation, and signal superposition.

A pattern is a binary N x K matrix: rows are beams, columns are users, and a
one means the beam carries that user's symbol.  A user's diversity is its
column weight, a beam's overlap is its row weight, and the overload ratio is
K/N.  The power matrix shares the pattern's support; merging both gives the
mapping the transmitter applies to the symbol vector.

The simple policy's column sequence depends only on (N, K), so it is built
once per process and each drop only assigns it to users by weakness.  Power
matrices are checked by one routine, ``_check_powers``, which takes a stack
of shape (..., N, K): ``PowerAllocation`` runs it on one matrix, and
``fixed_ratio_ladders`` fills the ladders of a whole gain-factor sweep in
one pass over the beams and runs it once on the (M, N, K) stack.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np


def validate_pattern(entries: np.ndarray) -> str | None:
    """Check pattern invariants; return a description of the first violation.

    Returns None when the matrix is a valid pattern.  Rules, in the order
    checked: binary entries; K within [N, 2^N - 1]; every user covered by at
    least one beam; every beam carrying at least one user; pairwise distinct
    columns (column weight <= N holds for any binary column).
    """
    b = np.asarray(entries)
    if b.ndim != 2:
        return "pattern must be a 2-D matrix"
    n, k = b.shape
    if not ((b == 0) | (b == 1)).all():
        return "entries must be 0 or 1"
    if k < n:
        return f"K={k} is below the beam count N={n}"
    if k > 2**n - 1:
        return f"K={k} exceeds 2^N - 1 = {2**n - 1}"
    if (b.sum(axis=0) == 0).any():
        u = int(np.flatnonzero(b.sum(axis=0) == 0)[0])
        return f"uncovered user {u}"
    if (b.sum(axis=1) == 0).any():
        m = int(np.flatnonzero(b.sum(axis=1) == 0)[0])
        return f"unused beam {m}"
    if len({tuple(col) for col in b.T}) != k:
        return "duplicate columns"
    return None


def _validate_coverage(entries: np.ndarray) -> str | None:
    """Relaxed checks for baseline matrices: binary, all users covered, no idle beams."""
    b = np.asarray(entries)
    if b.ndim != 2:
        return "pattern must be a 2-D matrix"
    if not ((b == 0) | (b == 1)).all():
        return "entries must be 0 or 1"
    if (b.sum(axis=0) == 0).any():
        return "uncovered user"
    if (b.sum(axis=1) == 0).any():
        return "unused beam"
    return None


@dataclass(frozen=True)
class PatternMatrix:
    """Validated binary beam-allocation matrix (beams x users).

    ``strict`` enforces the full pattern-design invariants (distinct columns,
    K within [N, 2^N - 1]).  The baseline reduction matrices (one user per
    beam repeated, or two users sharing each beam) necessarily duplicate
    columns, so they are built in relaxed mode, which still requires binary
    entries, full user coverage, and no idle beams.
    """

    entries: np.ndarray
    strict: bool = True

    def __post_init__(self):
        # validate the values as given: casting first would truncate 0.7 to 0
        entries = np.asarray(self.entries)
        if self.strict:
            violation = validate_pattern(entries)
        else:
            violation = _validate_coverage(entries)
        if violation is not None:
            raise ValueError(f"invalid pattern: {violation}")
        object.__setattr__(self, "entries", np.asarray(entries, dtype=int))

    @property
    def n_beams(self) -> int:
        return self.entries.shape[0]

    @property
    def n_users(self) -> int:
        return self.entries.shape[1]

    def diversity(self) -> np.ndarray:
        """Per-user column weights."""
        return self.entries.sum(axis=0)

    def overlap(self) -> np.ndarray:
        """Per-beam row weights."""
        return self.entries.sum(axis=1)


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
    """
    order = list(weakest_first)
    if sorted(order) != list(range(2 * n_beams)):
        raise ValueError("pnoma needs a permutation of exactly 2*n_beams users")
    entries = np.zeros((n_beams, 2 * n_beams), dtype=int)
    for j in range(n_beams):
        entries[j, order[j]] = 1
        entries[j, order[2 * n_beams - 1 - j]] = 1
    return PatternMatrix(entries, strict=False)


@dataclass(frozen=True)
class PowerAllocation:
    """Nonnegative power matrix whose support is the pattern's powered support.

    Entries are linear, noise-normalized powers.  ``nulled`` (boolean, the
    pattern's shape) marks covered pairs that the zero-forcing anchors null
    by construction (see ``SelectedUserSet.nulled``); they carry nothing, so
    they get no power.  Entry (n, k) is positive exactly when beam n covers
    user k and the pair is not nulled; power outside the pattern is
    rejected.
    """

    entries: np.ndarray
    pattern: PatternMatrix
    p_sum: float | None = None
    nulled: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", p)
        if p.shape != self.pattern.entries.shape:
            raise ValueError("power matrix must match the pattern shape")
        if self.nulled is not None:
            nulled = np.asarray(self.nulled, dtype=bool)
            if nulled.shape != p.shape:
                raise ValueError("nulled mask must match the pattern shape")
            object.__setattr__(self, "nulled", nulled)
        _check_powers(p, _powered_support(self.pattern, self.nulled), self.p_sum)


def _powered_support(pattern: PatternMatrix, nulled) -> np.ndarray:
    """The pattern's covered pairs less the nulled ones."""
    covered = pattern.entries == 1
    return covered if nulled is None else covered & ~np.asarray(nulled, dtype=bool)


def _check_powers(p: np.ndarray, support: np.ndarray, p_sum: float | None) -> None:
    """Raise unless every matrix of the stack ``p``, shape (..., N, K), is
    nonnegative, positive exactly on ``support`` and, when ``p_sum`` is
    given, within the budget.

    A matrix scaled to sum to ``p_sum`` carries rounding of up to about one
    ulp of ``p_sum`` per entry, so the budget allows that much and no more:
    the slack scales with the budget.
    """
    if (p < 0).any():
        raise ValueError("powers must be nonnegative")
    if ((p > 0) != support).any():
        raise ValueError("power support must match the pattern support less its nulled pairs")
    if p_sum is not None:
        slack = (p.shape[-2] * p.shape[-1] + 2) * np.spacing(p_sum)
        if (p.sum(axis=(-2, -1)) > p_sum + slack).any():
            raise ValueError("total power exceeds the budget")


@dataclass(frozen=True)
class SuperposedSignal:
    """Per-beam superposed signal after pattern mapping."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or not np.isfinite(v).all():
            raise ValueError("signal must be a finite vector")


def fixed_ratio_ladders(
    pattern: PatternMatrix,
    p0: float,
    mus,
    sic_orders,
    p_sum: float,
    nulled: np.ndarray | None = None,
) -> np.ndarray:
    """Geometric power ladders within each beam, one per gain factor, shape (M, N, K).

    For ``mus[m]`` = mu, within beam n the powered users (covered and not
    ``nulled``), taken in the supplied ascending-gain order, get powers p0,
    mu*p0, mu^2*p0, ...; one constant per ladder then scales the whole
    matrix so its total equals ``p_sum``.  ``sic_orders[n]`` must list each
    user covered by beam n exactly once; nulled users keep their place in it
    but get no power.  Every ladder passes the checks a ``PowerAllocation``
    makes, run once on the stack.
    """
    mus = np.asarray(mus, dtype=float)
    if mus.ndim != 1:
        raise ValueError("mus must be a sequence of gain factors")
    if p0 <= 0 or (mus <= 0).any():
        raise ValueError("p0 and mu must be positive")
    if p_sum <= 0:
        raise ValueError("p_sum must be positive")
    b = pattern.entries
    support = _powered_support(pattern, nulled)
    ladders = np.zeros((len(mus), *b.shape))
    for n in range(pattern.n_beams):
        order = np.asarray(sic_orders[n], dtype=int)
        if not np.array_equal(np.sort(order), np.flatnonzero(b[n])):
            raise ValueError(f"sic_orders[{n}] must list each user covered by beam {n} once")
        powered = order[support[n, order]]
        ladders[:, n, powered] = p0 * mus[:, None] ** np.arange(len(powered))
    ladders *= (p_sum / ladders.sum(axis=(1, 2)))[:, None, None]
    _check_powers(ladders, support, p_sum)
    return ladders


def fixed_ratio_power(
    pattern: PatternMatrix,
    p0: float,
    mu: float,
    sic_orders,
    p_sum: float,
    nulled: np.ndarray | None = None,
) -> PowerAllocation:
    """The ladder of one gain factor ``mu`` (see ``fixed_ratio_ladders``)."""
    entries = fixed_ratio_ladders(pattern, p0, [mu], sic_orders, p_sum, nulled)[0]
    return PowerAllocation(entries=entries, pattern=pattern, p_sum=p_sum, nulled=nulled)


def equal_power(
    pattern: PatternMatrix, p_sum: float, nulled: np.ndarray | None = None
) -> PowerAllocation:
    """Equal split of the budget across the powered (beam, user) pairs.

    The powered pairs are the pattern's covered pairs less the ``nulled``
    ones (none by default).
    """
    if p_sum <= 0:
        raise ValueError("p_sum must be positive")
    support = _powered_support(pattern, nulled)
    entries = support * (p_sum / support.sum())
    return PowerAllocation(entries=entries, pattern=pattern, p_sum=p_sum, nulled=nulled)


def superpose(power: PowerAllocation, symbols: np.ndarray) -> SuperposedSignal:
    """Per-beam signal t_n = sum_k sqrt(p_nk) s_k over the covered users."""
    s = np.asarray(symbols)
    if s.shape != (power.pattern.n_users,):
        raise ValueError(f"symbols must have length {power.pattern.n_users}")
    return SuperposedSignal(values=np.sqrt(power.entries) @ s)


def overload_ratio(n_beams: int, n_users: int) -> float:
    """Users per beam resource, K/N."""
    if n_beams < 1 or n_users < 1:
        raise ValueError("counts must be positive")
    return n_users / n_beams


def correlation_matrix(power) -> np.ndarray:
    """Second moment of the superposed signal: A_ij = sum_k sqrt(p_ik p_jk).

    Accepts a PowerAllocation or a raw nonnegative (N, K) matrix.  A is
    symmetric positive semidefinite (it is M M^T for M = sqrt of the power
    matrix).
    """
    p = power.entries if isinstance(power, PowerAllocation) else np.asarray(power, dtype=float)
    if (p < 0).any():
        raise ValueError("powers must be nonnegative")
    m = np.sqrt(p)
    return m @ m.T


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
