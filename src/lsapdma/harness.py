"""Monte Carlo experiment driver and baselines.

One drop runs the full link: user geometry, channels, pattern construction,
user selection, ZF precoding, MMSE filtering and gain extraction, the power
policy (equal split, fixed-ratio ladder, or the optimum), and the resulting
sum rate.  Equivalent gains are computed once per drop from an equal-power
allocation and held fixed while the policy sets the powers.  The equal and
fixed-ratio policies leave unpowered the covered pairs that the ZF anchors
null by construction.

A drop evaluates its units, one per configured (scheme, K, policy), as one
stack.  Every unit restarts the drop's stream and the draw does not depend
on the pattern, so the users and channels of each distinct K are drawn once
and shared, and units that also share the pattern policy share the whole
set-up: pattern, anchors, ZF beams, equal splits and gains.  The set-ups'
ZF precoders come from one ``zf_beamformers`` pass and their receive chains
from one ``drop_link_states`` solve.  A set-up whose first draw is singular
falls back to ``_draw_drop``, which redraws it alone from the restarted
stream, so its redraw count and its channels are those it would have run
by itself.  Each unit's power policy then runs over all D budgets as one
array operation: the equal splits (D, N, K), the mu sweep's ladders
(D, M, N, K) and the water-fill (D, N, K) are each one stack, and so are
their SIC orders, SINRs and rates.

The optimal policy is the water-filling closed form
(``optimizer.water_fills``): the anchors keep their ZF power floors, and the
rest of the budget is water-filled across beams onto each beam's strongest
user.  Unless ``strict_pattern`` restricts it to the pattern's pairs, that
user is the beam's strongest whatever the pattern covers, so the policy
then ignores the pattern.

Baselines run through the same evaluator: the orthogonal scheme is the
identity pattern with equal power, and the power-domain scheme is the
diversity-one far-near paired pattern with a fixed power ratio, so reducing
the main scheme to either baseline is a configuration change, not a separate
code path.
"""

from __future__ import annotations

import configparser
import subprocess
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .beamforming import select_users, zf_beamformers
from .channel import CellConfig, drop_users, user_channels
from .optimizer import anchor_floors, water_fills
from .pattern import (
    PatternMatrix,
    equal_splits,
    fixed_ratio_ladders,
    format_pattern_text,
    oma_pattern,
    parse_pattern_text,
    pnoma_pattern,
    simple_beam_allocation,
)
from .receiver import beam_sum_rates, drop_link_states, pair_rates, sic_orders, sic_sinrs

SCHEMES = ("oma", "pnoma", "lsa-pdma")
POLICIES = ("fixed-ratio", "optimal")
PATTERN_POLICIES = ("simple", "oma", "pnoma", "fixed")


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
    pairs.  It has no per-link minimum rate; the optimizer's log-barrier
    solver (``lsapdma solve --rmin``) handles those.
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
    p0_ratio: float = 1.0
    pnoma_mu: float = 0.25
    epsilon_ratio: float = 1e-6
    strict_pattern: bool = False
    drops: int = 1000
    seed: int = 1
    workers: int = 1
    max_redraws: int = 100
    output_path: str = "results"

    def __post_init__(self):
        for name in ("schemes", "users", "policies", "p_sum_db", "mu"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must list at least one value")
        for name in ("n_tx", "n_rx", "n_beams", "drops", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if not np.isfinite(self.p_sum_db).all():
            raise ConfigError("p_sum_db values must be finite")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.max_redraws < 0:
            raise ConfigError("max_redraws must be nonnegative")
        for name in ("p0_ratio", "pnoma_mu"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not all(mu > 0 for mu in self.mu):
            raise ConfigError("mu values must be positive")
        if not (self.epsilon_ratio >= 0 and self.n_beams * self.epsilon_ratio < 1):
            # one anchor per beam sits on the floor, so n_beams floors must
            # leave part of the budget free
            raise ConfigError("epsilon_ratio must lie in [0, 1/n_beams)")
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

    @property
    def sweep_axis(self) -> str:
        return "mu" if len(self.mu) > 1 else "p_sum_db"

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        read = cp.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        return _config_from_parser(cp)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
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
        **{key: (key, int) for key in ("drops", "seed", "workers", "max_redraws")},
    },
    "power": {
        "policies": ("policies", _listed(str)),
        **{key: (key, _listed(float)) for key in ("p_sum_db", "mu")},
        **{key: (key, float) for key in ("p0_ratio", "pnoma_mu", "epsilon_ratio")},
        "strict_pattern": ("strict_pattern", _boolean),
    },
    "pattern": {"policy": ("pattern_policy", str.strip), "matrix": ("fixed_pattern", parse_pattern_text)},
    "output": {"path": ("output_path", str.strip)},
}


def _config_from_parser(cp: configparser.ConfigParser) -> ExperimentConfig:
    """Build the config from the parsed sections, rejecting any unknown
    section or key (a typo must not fall back to a default silently)."""
    kwargs, cell_kwargs = {}, {}
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        known = _CONFIG_KEYS[section]
        for key, value in cp.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in config section [{section}]")
            name, parse = known[key]
            (cell_kwargs if section == "cell" else kwargs)[name] = parse(value)
    return ExperimentConfig(cell=CellConfig(**cell_kwargs), **kwargs)


@dataclass(frozen=True)
class DropRecord:
    """Sum rate of one scheme at one sweep point for a single drop."""

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


def _build_pattern(cfg: ExperimentConfig, pattern_policy: str, k: int, weakest_first) -> PatternMatrix:
    if pattern_policy == "oma":
        return oma_pattern(cfg.n_beams)
    if pattern_policy == "pnoma":
        return pnoma_pattern(cfg.n_beams, weakest_first)
    if pattern_policy == "fixed":
        return cfg.fixed_pattern
    return simple_beam_allocation(cfg.n_beams, k, weakest_first)


def _channels(cfg: ExperimentConfig, k, rng):
    """Users and channels of one draw from ``rng``."""
    return user_channels(cfg.cell, drop_users(cfg.cell, k, rng), cfg.n_rx, cfg.n_tx, rng)


def _anchored(cfg: ExperimentConfig, pattern_policy, k, channels):
    """Pattern and anchors of one unit on a draw's channels."""
    hints = np.array([ch.large_scale_gain for ch in channels])
    pattern = _build_pattern(cfg, pattern_policy, k, np.argsort(hints, kind="stable"))
    return pattern, select_users(channels, pattern, hints)


def _draw_drop(cfg: ExperimentConfig, k, pattern_policy, state):
    """Users, channels, pattern, anchors and ZF beams of one unit's drop.

    Redraws users and channels while the anchors' stacked channel is
    singular.  Returns (channels, pattern, omega, beams, redraws).
    """
    rng = np.random.Generator(np.random.Philox(state))
    redraws = 0
    while True:
        channels = _channels(cfg, k, rng)
        pattern, omega = _anchored(cfg, pattern_policy, k, channels)
        (beams,) = zf_beamformers([channels], [omega])
        if beams is not None:
            return channels, pattern, omega, beams, redraws
        redraws += 1
        if redraws > cfg.max_redraws:
            raise ConfigError(f"more than {cfg.max_redraws} consecutive singular-channel redraws")


def _unit_records(cfg: ExperimentConfig, unit, setup, splits, gains, budgets):
    """The records of one unit (one scheme evaluation) across the sweep points.

    ``setup`` is the unit's (channels, pattern, omega, beams, redraws),
    ``splits`` its (D, N, K) equal splits of the D ``budgets`` and ``gains``
    the (D, N, K) gains they give.  The equal-split and fixed-ratio
    policies power only the pattern's pairs that the anchors do not null;
    the optimal policy is the water-fill with the anchors' floors.  Each
    policy's powers, SINRs and rates are one stack over the budgets (and
    the mu sweep): a (D, M) table of sum rates, M = 1 but for the ladders.
    """
    label, k, _, power_policy, mus = unit
    _, pattern, omega, _, redraws = setup
    covered = pattern.entries == 1
    if power_policy == "equal":
        sinrs = sic_sinrs(gains, splits, sic_orders(gains, covered))
        rates = pair_rates(sinrs).reshape(len(budgets), -1).sum(axis=-1)[:, None]
    elif power_policy == "fixed-ratio":
        orders = sic_orders(gains, covered)
        nulled = omega.nulled(pattern)
        ladders = fixed_ratio_ladders(pattern, cfg.p0_ratio, mus, orders, budgets, nulled)
        rates = beam_sum_rates(gains[:, None], ladders, orders[:, None])
    else:  # optimal
        delta = anchor_floors(gains, omega, cfg.epsilon_ratio * budgets)
        powers = water_fills(gains, budgets, delta, covered if cfg.strict_pattern else None)
        rates = beam_sum_rates(gains, powers, sic_orders(gains))[:, None]

    mu_axis = cfg.sweep_axis == "mu"
    # mu-independent runs (equal power, the power-domain baseline's fixed
    # ratio, the optimal policy) replicate as horizontal rows on a mu sweep
    own_mu = power_policy == "fixed-ratio" and label.startswith("lsa-pdma")
    records = []
    for db, row in zip(cfg.p_sum_db, rates):
        for mu_value, rate in zip(mus, row):
            if mu_axis:
                sweeps = [mu_value] if own_mu else list(cfg.mu)
            else:
                sweeps = [db]
            records.extend(
                DropRecord(
                    scheme=label, k_users=k, sweep_value=float(sweep), sum_rate=float(rate), redraws=redraws
                )
                for sweep in sweeps
            )
    return records


def run_drop(cfg: ExperimentConfig, seed) -> list[DropRecord]:
    """Evaluate every configured unit (scheme, K, policy) on one drop, as
    one stack (see the module docstring).

    ``seed`` is an int or a SeedSequence identifying the drop.  Each unit
    restarts the drop's stream, so units with the same user count see
    identical channels (paired comparisons, exact reductions).
    """
    state = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    units = _scheme_runs(cfg)
    # one set-up per distinct (K, pattern policy), in order of first use
    keys = list(dict.fromkeys((k, pattern_policy) for _, k, pattern_policy, _, _ in units))
    first: dict[int, list] = {}  # user count -> channels of the stream's first draw
    draws = []  # (channels, pattern, omega) per set-up
    for k, pattern_policy in keys:
        if k not in first:
            first[k] = _channels(cfg, k, np.random.Generator(np.random.Philox(state)))
        draws.append((first[k], *_anchored(cfg, pattern_policy, k, first[k])))
    channel_sets, _, omegas = zip(*draws)
    setups = [
        _draw_drop(cfg, k, pattern_policy, state) if beams is None else (*draw, beams, 0)
        for (k, pattern_policy), draw, beams in zip(keys, draws, zf_beamformers(channel_sets, omegas))
    ]
    budgets = np.array([10.0 ** (db / 10.0) for db in cfg.p_sum_db])
    splits = [
        equal_splits(pattern, budgets, omega.nulled(pattern)) for _, pattern, omega, _, _ in setups
    ]
    gains = drop_link_states(
        [(channels, beams, split) for (channels, _, _, beams, _), split in zip(setups, splits)],
        cfg.cell.noise_variance,
    )
    records = []
    for unit in units:
        s = keys.index(unit[1:3])
        records.extend(_unit_records(cfg, unit, setups[s], splits[s], gains[s], budgets))
    return records


def _mc_task(args):
    cfg, index = args
    return run_drop(cfg, np.random.SeedSequence(cfg.seed, spawn_key=(index,)))


def run_monte_carlo(cfg: ExperimentConfig, collect_samples: bool = False):
    """Average run_drop over independent per-drop streams.

    Returns a ResultTable; with ``collect_samples`` also returns the raw
    per-drop sum rates keyed by (scheme, K, sweep_value), ordered by drop
    index, so results are identical for any worker count.
    """
    tasks = [(cfg, idx) for idx in range(cfg.drops)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            per_drop = list(pool.map(_mc_task, tasks, chunksize=max(1, cfg.drops // (8 * cfg.workers))))
    else:
        per_drop = [_mc_task(task) for task in tasks]

    samples: dict[tuple[str, int, float], list[float]] = {}
    redraws = 0
    for drop_records in per_drop:  # ordered by drop index
        for rec in drop_records:
            samples.setdefault((rec.scheme, rec.k_users, rec.sweep_value), []).append(rec.sum_rate)
        # one scheme evaluation emits a record per sweep point, all with its redraws
        redraws += sum({(rec.scheme, rec.k_users): rec.redraws for rec in drop_records}.values())

    rows = []
    for (scheme, k, sweep), values in samples.items():
        arr = np.asarray(values)
        stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
        rows.append(
            ResultRow(
                sweep_value=sweep,
                scheme=scheme,
                k_users=k,
                mean_sum_rate=float(arr.mean()),
                std_error=stderr,
                drops=len(arr),
            )
        )
    rows.sort(key=lambda r: (r.sweep_value, r.scheme, r.k_users))
    table = ResultTable(rows=tuple(rows), redraws=redraws)
    if collect_samples:
        return table, {key: np.asarray(vals) for key, vals in samples.items()}
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
