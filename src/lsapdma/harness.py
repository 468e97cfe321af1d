"""Monte Carlo experiment driver and baselines.

One drop runs the full link: user geometry, channels, pattern construction,
user selection, ZF precoding, MMSE filtering and gain extraction, the power
policy (equal split, fixed-ratio ladder, or the optimum), and the resulting
sum rate.  Equivalent gains are computed once per drop from an equal-power
allocation and held fixed while the policy sets the powers.  The equal and
fixed-ratio policies feed only the powered support Pi: the covered pairs
less those the ZF anchors null by construction.

A drop evaluates its units, one per configured (scheme, K, policy), and a
chunk of drops (``run_chunk``) evaluates them as one stack.  Every unit
restarts its drop's stream and the draw does not depend on the pattern, so
the users and channels of each distinct K are drawn once per drop and
shared, and units that also share the pattern policy share the whole
set-up: pattern, anchors, ZF beams, equal splits and gains.  Each drop
draws from its own generator, restarted from its saved state for each
user count, and each user count's channels and large-scale gains over the
chunk are one stacked draw (``channel.draw_channels``), so no per-user
object is built.  A set-up's patterns, anchors and powered supports are
one gather of its rank-space triple (``beamforming.rank_anchors``) through
one stable argsort of the chunk's (C, K) hints; only a fixed pattern
selects anchors drop by drop.

The chunk's S set-ups are one stack (``_Stack``) from the anchors to the
gains: ``_chunk_set_ups`` allocates the patterns, anchors, powered
supports and ZF beams once, zero-padded to the largest user count K, shape
(S, C, N, K) and the like, and writes each set-up into its slot; the
channels stay one (C, K_s, N_R, N_T) array per user count.  The ZF
precoders of every (set-up, drop) come from one ``zf_beamformers`` pass.
A (set-up, drop) whose first draw is singular is redrawn alone by
``_draw_drop`` from the restarted stream, so its redraw count and its
channels are those it would have run by itself, and written into its slot
(its channels into a copy of the shared draw).  A pad user is a column
past its set-up's own K: it is uncovered and unpowered, and has zero
gain.  It never enters ZF or the MMSE kernel, whose per-user work
stays on real users, but it sits in every stack after them, so each layer
runs once per chunk: one ``equal_splits`` call on the stack's Pi, one
``drop_link_states`` call on the stack's arrays with Pi as the power shape
and the splits' largest powers as its scales (one N x N ``eigh`` per user
serves all D budgets), one ``sic_orders`` call over all the gains, one
policy call per (power policy, mu list) and one ``beam_sum_rates`` call
per mu count (``_tail_rates``, laid out by ``_layout``).  Each policy
gives a (U, C, D, M, N, K) power stack over its U units, the C drops, the
D budgets and the M sweep values (M = 1 but for the mu sweep's ladders),
and the tail broadcasts the gains and orders over the mu axis.  Every sum
a pad enters is a ``pattern.left_sum``, to which it adds an exact +0.0, so
every kernel computes a slice of its stack as it would alone, and a unit's
rates depend neither on the chunk that holds its drop nor on the other
units beside it.

A chunk's result is one rate table (``_chunk_rates``): a row per drop and
a column per record, laid out once per config by ``_layout``.  Records
(``DropRecord``) are built only on request: ``run_chunk`` builds them from
the table's rows, and ``run_drop`` is the chunk of one.
``run_monte_carlo`` runs the drops as contiguous chunks spread over the
workers, puts the tables back in drop order and reads each (scheme, K,
sweep value) off its column.  ``workers`` counts the calling process: it
runs every workers-th chunk itself, and a pool of workers - 1 processes,
which send back only their tables, runs the rest; one worker starts no
pool.  The pool is module state kept across calls: the first call that
needs one starts it, later calls at the same worker count in the same
process reuse it, a call at another count replaces it, and a call that
raises or is left unfinished shuts it down and forgets it.  Its processes
are forked by the call that starts the pool, so they run the module as it
was then and do not see an attribute patched later.  Interpreter exit
joins them, and each ends itself once its parent is gone.  The calls of a
process share the pool, so they are made one at a time, not from several
threads at once.

The optimal policy is the water-filling closed form
(``optimizer.water_fills``): the anchors keep their ZF power floors
(``optimizer.ANCHOR_FLOOR`` of each budget), and the rest of the budget is
water-filled across beams onto each beam's strongest user.  The floors are
put on the (U, C, D, N, K) gain stack of the optimal units at each drop's
anchors, and one ``water_fills`` call takes that stack, the D budgets, the
gains' SIC orders and, under ``strict_pattern``, the (U, C, 1, N, K)
covered pairs as they are.
Unless ``strict_pattern`` restricts it to the pattern's pairs, the served
user is the beam's strongest whatever the pattern covers, so the policy
then ignores the pattern.

Baselines run through the same evaluator and the same rate tail: the
orthogonal scheme is the identity pattern with equal power, and the
power-domain scheme is the diversity-one far-near paired pattern with a
fixed power ratio, so reducing the main scheme to either baseline is a
configuration change, not a separate code path, and gives the baseline's
rates bit for bit.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import math
import os
import subprocess
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar, NamedTuple

import numpy as np

from . import __version__
from .beamforming import rank_anchors, select_users, zf_beamformers
from .channel import CellConfig, draw_channels
from .optimizer import ANCHOR_FLOOR, water_fills
from .pattern import PatternMatrix, equal_splits, fixed_ratio_ladders, format_pattern_text, parse_pattern_text
from .receiver import beam_sum_rates, drop_link_states, sic_orders

SCHEMES = ("oma", "pnoma", "lsa-pdma")
POLICIES = ("fixed-ratio", "optimal")
PATTERN_POLICIES = ("simple", "oma", "pnoma", "fixed")
# consecutive singular draws of one set-up before a drop gives up: i.i.d.
# Gaussian draws are almost surely fine, so this many means a broken config
MAX_REDRAWS = 100


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: cell, array, schemes, sweeps, and output destination.

    Exactly one of ``p_sum_db`` / ``mu`` may hold more than one value; that
    list is the sweep axis of the emitted table.  The values of ``users``,
    ``p_sum_db`` and ``mu`` must be distinct.  For the baselines the user
    count is forced (N for oma, 2N for pnoma); ``users`` applies to the
    pattern-mapped scheme.

    The ``optimal`` policy is the water-filling closed form: with the
    default (non-strict) support it serves each beam's strongest user
    whatever the pattern; ``strict_pattern`` restricts it to the pattern's
    pairs, and so needs the ``optimal`` policy.  Its anchors' power floor
    is the constant ``optimizer.ANCHOR_FLOOR`` of each budget, not an
    option.  It has no per-link minimum rate; the optimizer's log-barrier
    solver (``lsapdma solve --rmin``) handles those.  A fixed-ratio ladder's
    powers are p_sum mu^j / sum_j mu^j: a first step would cancel, so it is
    not an option either (``p0_ratio`` is a constant 1).
    """

    cell: CellConfig = field(default_factory=CellConfig)
    n_tx: int = 16
    n_rx: int = 4
    n_beams: int = 3
    schemes: tuple[str, ...] = ("lsa-pdma",)
    users: tuple[int, ...] = (7,)
    policies: tuple[str, ...] = ("fixed-ratio",)
    pattern_policy: str = "simple"
    fixed_pattern: PatternMatrix | None = None
    p_sum_db: tuple[float, ...] = (10.0,)
    mu: tuple[float, ...] = (2.0,)
    # a ladder's first step, which cancels; a constant that bench/oracle.py reads
    p0_ratio: ClassVar[float] = 1.0
    pnoma_mu: float = 0.25
    strict_pattern: bool = False
    drops: int = 1000
    seed: int = 1
    workers: int = 1
    output_path: str = "results"

    def __post_init__(self):
        for name in ("schemes", "users", "policies", "p_sum_db", "mu"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must list at least one value")
        for name in ("n_tx", "n_rx", "n_beams", "drops", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.pnoma_mu > 0:
            raise ConfigError("pnoma_mu must be positive")
        if not all(mu > 0 for mu in self.mu):
            raise ConfigError("mu values must be positive")
        if self.n_tx < self.n_beams:
            raise ConfigError("need n_tx >= n_beams")
        if self.n_beams * self.n_rx > self.n_tx:
            raise ConfigError("zero forcing needs n_beams * n_rx <= n_tx")
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ConfigError(f"unknown scheme {scheme!r}")
        for policy in self.policies:
            if policy not in POLICIES:
                raise ConfigError(f"unknown power policy {policy!r}")
        if self.pattern_policy not in PATTERN_POLICIES:
            raise ConfigError(f"unknown pattern policy {self.pattern_policy!r}")
        if self.strict_pattern and "optimal" not in self.policies:
            # only the optimal policy reads the flag; the echo would show it
            raise ConfigError("strict_pattern needs the 'optimal' power policy")
        if "lsa-pdma" in self.schemes:
            for k in self.users:
                if not self.n_beams <= k <= 2**self.n_beams - 1:
                    raise ConfigError(
                        f"lsa-pdma needs N <= K <= 2^N - 1, got K={k} for N={self.n_beams}"
                    )
        for name in ("users", "p_sum_db", "mu"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                # two evaluations of one drop would land in one result row
                raise ConfigError(f"{name} repeats a value: {', '.join(f'{v:g}' for v in values)}")
        if len(self.p_sum_db) > 1 and len(self.mu) > 1:
            raise ConfigError("only one of p_sum_db and mu may sweep")
        if self.pattern_policy == "fixed":
            if self.fixed_pattern is None:
                raise ConfigError("pattern_policy 'fixed' needs a pattern matrix")
            if self.fixed_pattern.n_beams != self.n_beams:
                raise ConfigError("fixed pattern must have one row per beam")
            if tuple(self.users) != (self.fixed_pattern.n_users,):
                raise ConfigError("users must match the fixed pattern's column count")
        elif self.fixed_pattern is not None:
            # only a fixed pattern policy reads the matrix; the echo would show it
            raise ConfigError(f"a pattern matrix needs pattern_policy 'fixed', not {self.pattern_policy!r}")
        _check_float_range(self)

    @property
    def sweep_axis(self) -> str:
        return "mu" if len(self.mu) > 1 else "p_sum_db"

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        with _syntax_errors():
            read = cp.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        return _config_from_parser(cp)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        with _syntax_errors():
            cp.read_string(text)
        return _config_from_parser(cp)

    def to_text(self) -> str:
        """Canonical key = value echo of the resolved configuration, one
        line per key of ``_CONFIG_KEYS``; ``from_text`` reads it back to an
        equal config."""
        lines = []
        for section, keys in _CONFIG_KEYS.items():
            owner = self.cell if section == "cell" else self
            lines.append(f"[{section}]")
            for key, (name, _) in keys.items():
                value = getattr(owner, name)
                if value is not None:
                    lines.append(f"{key} = {_echo(value)}")
            lines.append("")
        return "\n".join(lines)


def _check_float_range(cfg: ExperimentConfig) -> None:
    """Raise unless every budget 10^(dB/10), every step mu^j of a ladder
    the drop runs (j below its user count) and every such step scaled to a
    budget is a finite positive float, computed as the drop computes them.
    An infinite or zero step makes its scaled steps NaN or zero, so the
    scaled steps are the ones checked."""
    ladders = []  # (field, gain factors, user count)
    if "pnoma" in cfg.schemes:
        ladders.append(("pnoma_mu", (cfg.pnoma_mu,), 2 * cfg.n_beams))
    if "lsa-pdma" in cfg.schemes and "fixed-ratio" in cfg.policies:
        ladders.append(("mu", cfg.mu, max(cfg.users)))
    budgets = np.array([_budget(db) for db in cfg.p_sum_db])
    for db, budget in zip(cfg.p_sum_db, budgets):
        if not 0 < budget < np.inf:
            raise ConfigError(f"p_sum_db = {db:g} gives a budget that is not a finite positive float")
    with np.errstate(all="ignore"):
        for name, mus, n_users in ladders:
            for mu in mus:
                steps = mu ** np.arange(n_users)
                scaled = steps * (budgets[:, None] / steps.sum())
                if not ((0 < scaled) & (scaled < np.inf)).all():
                    raise ConfigError(
                        f"{name} = {mu:g} gives a power ladder step that is not a finite positive float"
                    )


def _budget(db: float) -> float:
    """The linear budget 10^(dB/10) of a dB value as every drop computes it;
    one past the float range, where Python's power raises, is inf."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _echo(value) -> str:
    """A config value as its parser reads it back: floats by ``repr``, so
    they return exactly, and a pattern as an indented block."""
    if isinstance(value, PatternMatrix):
        return format_pattern_text(value).replace("\n", "\n  ")
    if isinstance(value, tuple):
        return ", ".join(_echo(v) for v in value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _listed(parse):
    return lambda value: tuple(parse(tok) for tok in value.replace(",", " ").split())


def _boolean(value: str) -> bool:
    if value.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ConfigError(f"not a boolean: {value!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]


# section -> {key: (field, parser)}; [cell] keys are CellConfig fields, the
# rest ExperimentConfig fields
_CONFIG_KEYS = {
    "cell": {f.name: (f.name, float) for f in fields(CellConfig)},
    "array": {key: (key, int) for key in ("n_tx", "n_rx", "n_beams")},
    "experiment": {
        "schemes": ("schemes", _listed(str)),
        "users": ("users", _listed(int)),
        **{key: (key, int) for key in ("drops", "seed", "workers")},
    },
    "power": {
        "policies": ("policies", _listed(str)),
        **{key: (key, _listed(float)) for key in ("p_sum_db", "mu")},
        "pnoma_mu": ("pnoma_mu", float),
        "strict_pattern": ("strict_pattern", _boolean),
    },
    "pattern": {"policy": ("pattern_policy", str.strip), "matrix": ("fixed_pattern", parse_pattern_text)},
    "output": {"path": ("output_path", str.strip)},
}


@contextlib.contextmanager
def _syntax_errors():
    """Raise a ``configparser`` error as a ConfigError on one line, which
    names the section and key, or the line, that it is about."""
    try:
        yield
    except configparser.Error as exc:
        where = f"[{exc.section}] {exc.option}: " if isinstance(exc, configparser.InterpolationError) else ""
        raise ConfigError(where + " ".join(str(exc).split())) from None


def _config_from_parser(cp: configparser.ConfigParser) -> ExperimentConfig:
    """Build the config from the parsed sections, rejecting any unknown
    section or key (a typo must not fall back to a default silently) and
    naming the section and key of a value that does not parse."""
    kwargs, cell_kwargs = {}, {}
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        known = _CONFIG_KEYS[section]
        with _syntax_errors():
            items = cp.items(section)
        for key, value in items:
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in config section [{section}]")
            name, parse = known[key]
            try:
                (cell_kwargs if section == "cell" else kwargs)[name] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    return ExperimentConfig(cell=CellConfig(**cell_kwargs), **kwargs)


class DropRecord(NamedTuple):
    """Sum rate of one scheme at one sweep point for a single drop.

    Built only on request, by ``run_chunk`` and ``run_drop``, from a row of
    the chunk's rate table; ``run_monte_carlo`` reads the table itself.
    """

    scheme: str
    k_users: int
    sweep_value: float
    sum_rate: float
    redraws: int


@dataclass(frozen=True)
class ResultRow:
    sweep_value: float
    scheme: str
    k_users: int
    mean_sum_rate: float
    std_error: float
    drops: int


@dataclass(frozen=True)
class ResultTable:
    """The result rows, and the singular-channel redraws the run made, summed
    over every drop and scheme evaluation."""

    rows: tuple[ResultRow, ...]
    redraws: int = 0


def _scheme_runs(cfg: ExperimentConfig):
    """Expand the config into its units: one (label, K, pattern policy,
    power policy, mus) per (scheme, K, policy) evaluation of a drop."""
    runs = []
    for scheme in cfg.schemes:
        if scheme == "oma":
            runs.append(("oma", cfg.n_beams, "oma", "equal", (None,)))
        elif scheme == "pnoma":
            # the baseline's power ratio is fixed; on a mu sweep its rows are
            # replicated as a horizontal reference
            runs.append(("pnoma", 2 * cfg.n_beams, "pnoma", "fixed-ratio", (cfg.pnoma_mu,)))
        else:
            for k in cfg.users:
                for policy in cfg.policies:
                    label = "lsa-pdma-simple" if policy == "fixed-ratio" else "lsa-pdma-optimal"
                    mus = cfg.mu if policy == "fixed-ratio" else (None,)
                    runs.append((label, k, cfg.pattern_policy, policy, mus))
    return runs


def _channels(cfg: ExperimentConfig, k, rngs):
    """Channels (C, K, N_R, N_T) and large-scale gains (C, K) of one draw
    of ``k`` users from each of the C generators ``rngs``."""
    return draw_channels(cfg.cell, k, cfg.n_rx, cfg.n_tx, rngs)


class _Stack(NamedTuple):
    """A chunk's S set-ups, each a (K, pattern policy), on its C drops as
    one stack, zero-padded to the largest user count K: set-up s's columns
    from its own K_s on are pad users, uncovered and unpowered."""

    channels: tuple  # S arrays (C, K_s, N_R, N_T), real users only
    entries: np.ndarray  # (S, C, N, K) pattern
    anchors: np.ndarray  # (S, C, N) anchor user of each beam
    powered: np.ndarray  # (S, C, N, K) Pi: covered pairs the ZF beams do not null
    beams: np.ndarray  # (S, C, N_T, N) ZF beam matrices
    redraws: np.ndarray  # (S, C) singular draws before these


def _anchored(cfg: ExperimentConfig, pattern_policy, channels, hints):
    """Pattern entries (C, N, K), anchors (C, N) and powered supports
    (C, N, K) of one set-up on C draws, given their channels
    (C, K, N_R, N_T) and large-scale gains (C, K) as hints: a gather of
    ``rank_anchors`` through the draws' ranks, or for a fixed pattern a
    selection per draw."""
    n_draws, k = hints.shape
    if pattern_policy == "fixed":
        pattern = cfg.fixed_pattern
        omegas = [select_users(draw, pattern, h) for draw, h in zip(channels, hints)]
        anchors, powered = np.array([omega.users for omega in omegas]), np.array([omega.powered(pattern) for omega in omegas])
        return np.repeat(pattern.entries[None], n_draws, axis=0), anchors, powered
    base, anchor_ranks, base_powered = rank_anchors(pattern_policy, cfg.n_beams, k)
    # users weakest first; the identity pattern of oma ignores the ranks
    order = np.argsort(hints, axis=1, kind="stable") if pattern_policy != "oma" else np.tile(np.arange(k), (n_draws, 1))
    # each user's column; stable like the chain's other argsorts (a process's
    # first default-kind argsort of integers costs about 0.3 MB of memory)
    rank = np.argsort(order, axis=1, kind="stable")
    return base[:, rank].swapaxes(0, 1), order[:, anchor_ranks], base_powered[:, rank].swapaxes(0, 1)


def _anchor_channels(channels, anchors) -> np.ndarray:
    """The anchors' channels of each draw, (C, N, N_R, N_T), from the
    draws' channels (C, K, N_R, N_T) and anchors (C, N)."""
    return channels[np.arange(len(anchors))[:, None], anchors]


def _draw_drop(cfg: ExperimentConfig, k, pattern_policy, state) -> _Stack:
    """One set-up on one drop (S = C = 1), ZF beams included.

    Redraws users and channels from the restarted stream while the anchors'
    stacked channel is singular, counting the redraws; raises ConfigError
    after ``MAX_REDRAWS`` of them.
    """
    rng = np.random.Generator(np.random.Philox(state))
    redraws = 0
    while True:
        channels, hints = _channels(cfg, k, [rng])
        entries, anchors, powered = _anchored(cfg, pattern_policy, channels, hints)
        beams, singular = zf_beamformers(_anchor_channels(channels, anchors))
        if not singular[0]:
            return _Stack((channels,), entries[None], anchors[None], powered[None], beams[None], np.array([[redraws]]))
        redraws += 1
        if redraws > MAX_REDRAWS:
            raise ConfigError(f"more than {MAX_REDRAWS} consecutive singular-channel redraws")


def _chunk_set_ups(cfg: ExperimentConfig, states, keys) -> _Stack:
    """The set-ups ``keys``, each a (K, pattern policy), on the drops of a
    chunk, ZF beams included, as one padded stack.

    Each user count's first draw on every drop is shared by its set-ups; a
    generator restarted by its saved state draws what a new one would.  The
    anchors of every (set-up, drop) go into one ``zf_beamformers`` pass,
    and a (set-up, drop) whose first draw is singular is redrawn alone by
    ``_draw_drop``, as in a chunk of one, and written into its slot.
    """
    rngs = [np.random.Generator(np.random.Philox(state)) for state in states]
    starts = [rng.bit_generator.state for rng in rngs]
    draws = {}
    for k in dict.fromkeys(k for k, _ in keys):
        for rng, start in zip(rngs, starts):
            rng.bit_generator.state = start
        draws[k] = _channels(cfg, k, rngs)
    entries = np.zeros((len(keys), len(states), cfg.n_beams, max(draws)), dtype=int)
    powered = np.zeros(entries.shape, dtype=bool)
    anchors = np.zeros(entries.shape[:-1], dtype=int)
    for s, (k, pattern_policy) in enumerate(keys):
        entries[s, ..., :k], anchors[s], powered[s, ..., :k] = _anchored(cfg, pattern_policy, *draws[k])
    channels = [draws[k][0] for k, _ in keys]
    beams, singular = zf_beamformers(np.concatenate([_anchor_channels(g, a) for g, a in zip(channels, anchors)]))
    beams = beams.reshape(anchors.shape[:2] + beams.shape[1:])
    redraws = np.zeros(anchors.shape[:2], dtype=int)
    for s, c in zip(*np.nonzero(singular.reshape(redraws.shape))):
        k = keys[s][0]
        one = _draw_drop(cfg, *keys[s], states[c])
        if channels[s] is draws[k][0]:  # the draw the other set-ups of K share
            channels[s] = channels[s].copy()
        channels[s][c] = one.channels[0][0]
        entries[s, c, :, :k], anchors[s, c], powered[s, c, :, :k] = one.entries[0, 0], one.anchors[0, 0], one.powered[0, 0]
        beams[s, c], redraws[s, c] = one.beams[0, 0], one.redraws[0, 0]
    return _Stack(tuple(channels), entries, anchors, powered, beams, redraws)


def _shared(values) -> np.ndarray:
    """``values`` as a read-only array, shared by every caller."""
    array = np.array(values)
    array.flags.writeable = False
    return array


def _picker(setups):
    """An index of the padded stack's set-up axis picking ``setups``: a
    slice where they run consecutively, so the pick is a view, not a copy."""
    if all(b == a + 1 for a, b in zip(setups, setups[1:])):
        return slice(setups[0], setups[-1] + 1)
    return _shared(setups)


def _tail_rates(cfg: ExperimentConfig, stack: _Stack, splits, gains, budgets) -> np.ndarray:
    """The sum rates of the units of ``cfg`` on each drop of a chunk: a
    (C, sum of D·M) table, each unit's (D, M) rates flattened, the units in
    the order of ``_layout(cfg).groups``.

    ``stack`` holds the units' padded set-ups, ``splits`` their
    (S, C, D, N, K) equal splits of the D ``budgets`` and ``gains`` the
    (S, C, D, N, K) gains those give.  One ``sic_orders`` call orders every
    beam of the gains.  Each policy call then covers all of its units: the
    equal split is a gather of ``splits``, the units of one mu list share
    one ``fixed_ratio_ladders`` call, and the optimal units one
    ``water_fills`` call with the anchors' floors and the orders.  Each
    gives a (U, C, D, M, N, K) power stack, M = 1 but for a mu sweep's
    ladders, and the units of one M share one ``beam_sum_rates`` call, the
    gains and orders broadcast over the mu axis.
    """
    orders = sic_orders(gains)  # (S, C, D, N, K)
    n_drops, n_budgets, n_beams, n_users = gains.shape[1:]
    rates = []
    for calls, group in _layout(cfg).groups:
        powers = []
        for power_policy, mus, at in calls:
            if power_policy == "equal":
                powers.append(splits[at][:, :, :, None])
            elif power_policy == "fixed-ratio":
                ladders = fixed_ratio_ladders(
                    stack.powered[at].reshape((-1, n_beams, n_users)),
                    mus,
                    orders[at].reshape((-1, n_budgets, n_beams, n_users)),
                    budgets,
                )
                powers.append(ladders.reshape((-1, n_drops) + ladders.shape[1:]))
            else:  # optimal
                # each beam's anchor keeps the floor ANCHOR_FLOOR of each budget
                delta = np.zeros(gains[at].shape)
                np.put_along_axis(delta, stack.anchors[at][:, :, None, :, None], (ANCHOR_FLOOR * budgets)[:, None, None], axis=-1)
                covered = (stack.entries[at] == 1)[:, :, None] if cfg.strict_pattern else None  # (U, C, 1, N, K)
                powers.append(water_fills(gains[at], budgets, delta, covered, orders[at])[:, :, :, None])
        powers = powers[0] if len(powers) == 1 else np.concatenate(powers)
        group = beam_sum_rates(gains[group][:, :, :, None], powers, orders[group][:, :, :, None])  # (U, C, D, M)
        rates.append(group.swapaxes(0, 1).reshape(n_drops, -1))
    return np.concatenate(rates, axis=1)


class _Layout(NamedTuple):
    """How a config's units run through a chunk, and where their records
    sit in its rate table."""

    setups: tuple  # the distinct (K, pattern policy), in order of first use
    unit_setups: np.ndarray  # (U,) each unit's set-up
    # one per mu count M: the (power policy, mus, set-ups) of each policy
    # call whose power stacks have that M, and the set-ups of all of them
    groups: tuple
    columns: np.ndarray  # (R,) each record's place in the tail's rates
    records: tuple  # (scheme, K, sweep value, unit index) of each record


@functools.lru_cache
def _layout(cfg: ExperimentConfig) -> _Layout:
    """The layout of the units of ``cfg`` (``_scheme_runs``): their
    set-ups, one policy call per (power policy, mus) and one tail group per
    mu count, and for each record of a drop, in record order, its column
    of the tail's rates (``_tail_rates``) and its key.  On a mu sweep the
    mu-independent units (equal power, the power-domain baseline's fixed
    ratio, the optimal policy) replicate as horizontal rows: one column
    gathered once per mu."""
    units = _scheme_runs(cfg)
    setups = tuple(dict.fromkeys((k, pattern_policy) for _, k, pattern_policy, _, _ in units))
    unit_setups = [setups.index(unit[1:3]) for unit in units]
    calls = {}
    for u, (_, _, _, power_policy, mus) in enumerate(units):
        calls.setdefault((power_policy, mus), []).append(u)
    groups, slots = {}, {}
    for (power_policy, mus), members in calls.items():
        groups.setdefault(len(mus), []).append((power_policy, mus, _picker([unit_setups[u] for u in members])))
        slots.setdefault(len(mus), []).extend(members)
    groups = tuple((tuple(calls), _picker([unit_setups[u] for u in slots[m]])) for m, calls in groups.items())
    offsets = {}  # each unit's first column of the tail's rates
    offset = 0
    for u in (u for members in slots.values() for u in members):
        offsets[u] = offset
        offset += len(cfg.p_sum_db) * len(units[u][4])
    mu_axis = cfg.sweep_axis == "mu"
    columns, records = [], []
    for u, (label, k, _, power_policy, mus) in enumerate(units):
        own_mu = power_policy == "fixed-ratio" and label.startswith("lsa-pdma")
        for d, db in enumerate(cfg.p_sum_db):
            for m, mu in enumerate(mus):
                for sweep in ((mu,) if own_mu else cfg.mu) if mu_axis else (db,):
                    columns.append(offsets[u] + d * len(mus) + m)
                    records.append((label, k, float(sweep), u))
    return _Layout(setups, _shared(unit_setups), groups, _shared(columns), tuple(records))


def _chunk_rates(cfg: ExperimentConfig, states) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every configured unit (scheme, K, policy) on each drop of a
    chunk, as one stack (see the module docstring).

    Returns the chunk's rate table, (C, R) float64 with one row per drop in
    the order of ``states`` and one column per record of ``_layout(cfg)``,
    and the (C, U) singular-channel redraws of each drop's U units.
    """
    states = [s if isinstance(s, np.random.SeedSequence) else np.random.SeedSequence(s) for s in states]
    layout = _layout(cfg)
    stack = _chunk_set_ups(cfg, states, layout.setups)
    budgets = np.array([_budget(db) for db in cfg.p_sum_db])
    n_setups, n_drops, n_beams, n_users = stack.powered.shape
    splits = equal_splits(stack.powered.reshape((-1, n_beams, n_users)), budgets)
    splits = splits.reshape((n_setups, n_drops) + splits.shape[1:])  # (S, C, D, N, K)
    # each equal split is its largest power times the powered support Pi
    gains = drop_link_states(stack.channels, stack.beams, stack.powered, splits.max(axis=(-2, -1)), cfg.cell.noise_variance)
    rates = _tail_rates(cfg, stack, splits, gains, budgets)
    return rates[:, layout.columns], stack.redraws[layout.unit_setups].T


def run_chunk(cfg: ExperimentConfig, states) -> list[list[DropRecord]]:
    """The records of every configured unit on each drop of a chunk: one
    list per drop, in the order of ``states``, built from the rows of the
    chunk's rate table (``_chunk_rates``).

    Each of ``states`` is an int or a SeedSequence identifying a drop.
    Each unit restarts its drop's stream, so units with the same user count
    see identical channels (paired comparisons, exact reductions), and a
    drop's records do not depend on the chunk that holds it.
    """
    table, redraws = _chunk_rates(cfg, states)
    records = _layout(cfg).records
    return [
        [DropRecord(scheme, k, sweep, rate, unit_redraws[u]) for (scheme, k, sweep, u), rate in zip(records, row)]
        for row, unit_redraws in zip(table.tolist(), redraws.tolist())
    ]


def run_drop(cfg: ExperimentConfig, seed) -> list[DropRecord]:
    """Evaluate every configured unit on one drop: a chunk of one.

    ``seed`` is an int or a SeedSequence identifying the drop.
    """
    return run_chunk(cfg, [seed])[0]


# a chunk of about this many drops amortises the per-call cost of the
# stacked kernels; larger chunks gain little
CHUNK_DROPS = 64


def _chunks(cfg: ExperimentConfig) -> list[range]:
    """Contiguous drop-index ranges, at least one per worker, of at most
    about ``CHUNK_DROPS`` drops and differing in size by at most one."""
    count = min(cfg.drops, max(cfg.workers, -(-cfg.drops // CHUNK_DROPS)))
    bounds = [cfg.drops * i // count for i in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


class _KeptPool(NamedTuple):
    """The pool ``_finished_chunks`` keeps across calls: the process that
    started it, its size and the executor."""

    pid: int
    size: int
    executor: ProcessPoolExecutor


_kept_pool: _KeptPool | None = None


def _exit_with_parent() -> None:
    """Pool initializer: end this process once its parent is gone, so a
    kept pool does not outlive a caller that is killed."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _pool(size: int) -> ProcessPoolExecutor:
    """The kept pool of ``size`` processes; any other, or one inherited
    from the process this one was forked from, is replaced."""
    global _kept_pool
    if _kept_pool is None or (_kept_pool.pid, _kept_pool.size) != (os.getpid(), size):
        _drop_pool()
        executor = ProcessPoolExecutor(max_workers=size, initializer=_exit_with_parent)
        _kept_pool = _KeptPool(os.getpid(), size, executor)
    return _kept_pool.executor


def _drop_pool() -> None:
    """Forget the kept pool, and shut it down with its queued chunks
    cancelled if this process started it (a fork's copy is not its own)."""
    global _kept_pool
    kept, _kept_pool = _kept_pool, None
    if kept is not None and kept.pid == os.getpid():
        kept.executor.shutdown(cancel_futures=True)


def _finished_chunks(cfg: ExperimentConfig, chunks):
    """(chunk index, (rate table, redraws)) of each chunk as it finishes.

    The calling process is worker 0 of w = min(workers, chunks): it first
    submits every chunk whose index is not a multiple of w to the kept pool
    of w - 1 processes (``_pool``), so they start at once, then computes
    chunks 0, w, 2w, ... itself and collects the pool's as they finish.
    With w = 1 no pool is used.  A pool process sends back only the two
    arrays of ``_chunk_rates``.  The pool outlives the call: the next call
    at the same w reuses it, one at another w replaces it.  Its processes
    are forks taken when it started, so they do not see a module attribute
    patched since.  On any exception or early exit the pool is shut down
    with its queued chunks cancelled, so a chunk that raises surfaces
    without waiting for the chunks not yet started, and is dropped, so a
    broken pool never serves the next call.
    """
    states = [[np.random.SeedSequence(cfg.seed, spawn_key=(i,)) for i in chunk] for chunk in chunks]
    workers = min(cfg.workers, len(chunks))
    pooled = [index for index in range(len(states)) if index % workers]
    pool = _pool(workers - 1) if pooled else None
    try:
        futures = {pool.submit(_chunk_rates, cfg, states[index]): index for index in pooled}
        for index in range(0, len(states), workers):
            yield index, _chunk_rates(cfg, states[index])
        for future in as_completed(futures):
            yield futures[future], future.result()
    except BaseException:  # GeneratorExit too: a call left unfinished
        if pool is not None:
            _drop_pool()
        raise


def run_monte_carlo(cfg: ExperimentConfig, collect_samples: bool = False, log=None):
    """Average the drops' sum rates over independent per-drop streams.

    The drops run in contiguous chunks, each one rate table
    (``_chunk_rates``); the chunks are spread over ``cfg.workers``
    processes, the calling process counted as one of them (see
    ``_finished_chunks``), and their tables put back in drop order, so
    results are identical for any worker count.  The pool of the other
    workers is kept for the next call at the same count, replaced by a
    call at another count and dropped by a call that raises; its
    processes are forks taken at the call that started it, so they do not
    see a module attribute patched later.  No record is built: each
    (scheme, K, sweep_value) is one column of the table.  With a text
    stream ``log``, each finished chunk reports the drops done.

    Returns a ResultTable; with ``collect_samples`` also returns the raw
    per-drop sum rates keyed by (scheme, K, sweep_value), ordered by drop
    index.
    """
    chunks = _chunks(cfg)
    per_chunk: list = [None] * len(chunks)
    redraws = done = 0
    for index, (chunk_rates, chunk_redraws) in _finished_chunks(cfg, chunks):
        per_chunk[index] = chunk_rates
        redraws += int(chunk_redraws.sum())
        done += len(chunk_rates)
        if log is not None:
            print(f"drops {done}/{cfg.drops}", file=log, flush=True)

    rates = np.concatenate(per_chunk)  # ordered by drop index
    # each record's samples as one contiguous row, so one row-wise pass
    # gives every mean and standard deviation, bit for bit those of
    # per-record calls
    by_record = np.ascontiguousarray(rates.T)
    drops = len(rates)
    means = by_record.mean(axis=1).tolist()
    stderrs = (by_record.std(axis=1, ddof=1) / np.sqrt(drops)).tolist() if drops > 1 else [0.0] * len(by_record)
    columns = {(scheme, k, sweep): j for j, (scheme, k, sweep, _) in enumerate(_layout(cfg).records)}
    samples = {key: by_record[j] for key, j in columns.items()}
    rows = [ResultRow(sweep, scheme, k, means[j], stderrs[j], drops) for (scheme, k, sweep), j in columns.items()]
    rows.sort(key=lambda r: (r.sweep_value, r.scheme, r.k_users))
    table = ResultTable(rows=tuple(rows), redraws=redraws)
    if collect_samples:
        return table, samples
    return table


def _version_string() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--tags", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"lsapdma-{__version__}+git.{out.stdout.strip()}"
    except Exception:
        pass
    return f"lsapdma-{__version__}"


def emit_results(table: ResultTable, path, config_text: str | None = None):
    """Write the result table (CSV) and a run summary under ``path``.

    The CSV carries one row per (sweep, scheme, K) point with decimals at six
    significant digits; the summary records a version string, the row count
    and the singular-channel redraws, and echoes the resolved configuration.
    """
    if not table.rows:
        raise ValueError("result table is empty")
    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    lines = ["sweep,scheme,K,mean_sum_rate,stderr,drops"]
    for row in table.rows:
        lines.append(
            f"{row.sweep_value:.6g},{row.scheme},{row.k_users},"
            f"{row.mean_sum_rate:.6g},{row.std_error:.6g},{row.drops}"
        )
    csv_path.write_text("\n".join(lines) + "\n")

    summary_path = out_dir / "summary.txt"
    parts = [
        f"version = {_version_string()}",
        f"rows = {len(table.rows)}",
        f"redraws = {table.redraws}",
        "",
    ]
    if config_text:
        parts += ["[config]", config_text]
    summary_path.write_text("\n".join(parts) + "\n")
    return csv_path, summary_path
