"""Command-line front end: simulate, solve, validate-pattern."""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .harness import SCHEMES, ConfigError, ExperimentConfig, emit_results, run_monte_carlo
from .optimizer import OptProblem, barrier_solve, objective, water_fills
from .pattern import parse_pattern_text


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    overrides = {}
    if args.drops is not None:
        overrides["drops"] = args.drops
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.scheme is not None:
        overrides["schemes"] = (args.scheme,)
        if args.scheme != "lsa-pdma":
            # only lsa-pdma reads the user counts and the pattern keys; the
            # echo would show them
            overrides.update(users=ExperimentConfig.users, pattern_policy=ExperimentConfig.pattern_policy, fixed_pattern=None)
    if args.out is not None:
        overrides["output_path"] = args.out
    if overrides:
        cfg = replace(cfg, **overrides)
    if args.verbose:
        print(f"running {cfg.drops} drops for schemes {', '.join(cfg.schemes)}", file=sys.stderr)
    table = run_monte_carlo(cfg, log=sys.stderr if args.verbose else None)
    csv_path, summary_path = emit_results(table, cfg.output_path, config_text=cfg.to_text())
    if args.verbose:
        for row in table.rows:
            print(
                f"sweep={row.sweep_value:g} {row.scheme} K={row.k_users} "
                f"mean={row.mean_sum_rate:.4f} stderr={row.std_error:.4f}",
                file=sys.stderr,
            )
    print(f"wrote {csv_path} and {summary_path}")
    return 0


def _print_powers(p_matrix) -> None:
    print("p_matrix =")
    for row in p_matrix:
        print("  " + " ".join(f"{v:.6g}" for v in row))


def _read_gains(path) -> np.ndarray:
    """The (beams, users) gain matrix in ``path``; a file with no numbers
    in it, or rows of unequal length, is refused with a ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's "no data": refused below
        try:
            gains = np.loadtxt(path, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"cannot read the gain matrix in {path}: {exc}") from None
    if gains.size == 0:
        raise ValueError(f"the gain matrix in {path} is empty")
    return gains


def _cmd_solve(args) -> int:
    gains = _read_gains(args.gains)
    prob = OptProblem.build(gains, args.psum, r_min=args.rmin)
    if prob.r_min == 0:
        # without rate (or power) floors the water-fill is the exact optimum
        p = water_fills(prob.gains, prob.p_sum, prob.delta)
        print("status = optimal")
        print(f"sum_rate = {-objective(prob, p):.6g}")
        _print_powers(p)
        return 0
    log = sys.stderr if args.verbose else None
    sol = barrier_solve(prob, log=log)
    print(f"status = {sol.status}")
    if sol.status == "infeasible":
        print("no strictly feasible power matrix exists for these constraints", file=sys.stderr)
        return 2
    print(f"sum_rate = {sol.objective_value:.6g}")
    print(f"kkt_residual = {sol.kkt_residual:.3g}")
    print(f"newton_iterations = {sol.iterations}")
    _print_powers(sol.p_matrix)
    return 0 if sol.status == "converged" else 2


def _cmd_validate_pattern(args) -> int:
    text = Path(args.matrix).read_text()
    try:
        parse_pattern_text(text)
    except ValueError as exc:  # names the first violation
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lsapdma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a config file")
    sim.add_argument("--config", required=True, help="experiment config file (key = value sections)")
    sim.add_argument("--drops", type=int, default=None, help="override the drop count")
    sim.add_argument("--seed", type=int, default=None, help="override the root seed")
    sim.add_argument("--scheme", choices=SCHEMES, default=None, help="run a single scheme")
    sim.add_argument("--out", default=None, help="output directory")
    sim.add_argument(
        "--verbose", action="store_true", help="report progress after each chunk of drops, and the rows, on stderr"
    )
    sim.set_defaults(func=_cmd_simulate)

    solve = sub.add_parser(
        "solve", help="optimize a power mapping for a gain matrix file (exit code 2: infeasible or max-iterations)"
    )
    solve.add_argument("--gains", required=True, help="plain-text gain matrix (beams x users)")
    solve.add_argument("--psum", type=float, required=True, help="total power budget (linear)")
    solve.add_argument(
        "--rmin", type=float, default=0.0, help="per-link minimum rate (0: the closed-form water-fill)"
    )
    solve.add_argument("--verbose", action="store_true", help="trace the barrier outer iterations (rmin > 0)")
    solve.set_defaults(func=_cmd_solve)

    val = sub.add_parser("validate-pattern", help="check a pattern matrix file")
    val.add_argument("--matrix", required=True, help="plain-text 0/1 matrix, one row per line")
    val.set_defaults(func=_cmd_validate_pattern)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
