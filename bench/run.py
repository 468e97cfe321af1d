"""Benchmark of the lsapdma drop chain: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
A workload's round is a fixed list of operations made from the seed (see
``workloads.py``).  With ``--trace 0`` the run repeats, for S seconds, a
serial pass over the round (each operation timed alone), with 2-worker
calls on the round for about a third of the time, and prints the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
1-worker calls for S seconds and prints the per-layer metrics.  The first pass is checked (see
``oracle.py``) and every later pass or call must equal it bit for bit.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A fuller record, with the machine and the library
versions, goes to ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
MAX_FAILURE_LINES = 20


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed nonnegative")
    return args


def set_up(name: str, seed: int):
    """Imports, workload construction and one untimed warm-up operation."""
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name](seed)
    wl.warm_up()
    return wl


def setup_probe(args) -> float:
    """Wall time of a fresh process that only sets up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    t0 = perf_counter()
    # wait() with no timeout blocks in waitpid; with one it polls every 50 ms
    code = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).wait()
    elapsed = perf_counter() - t0
    if code:
        raise RuntimeError(f"set-up process exited with code {code}")
    return elapsed


def timed_call(fn):
    """(seconds, result or exception) of one call; an exception is a failure."""
    t0 = perf_counter()
    try:
        res = fn()
    except Exception as exc:
        res = exc
    return perf_counter() - t0, res


def serial_pass(wl) -> list:
    """The round's operations one at a time: [(seconds, comparable or exception)]."""
    out = []
    for op in wl.ops():
        dt, res = timed_call(op)
        out.append((dt, res if isinstance(res, Exception) else wl.comparable(res)))
    return out


class Tally:
    """Attempted and failed operations, and what the checks rejected."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.lines: list[str] = []

    def first(self, results: list) -> None:
        """Count and check the first pass over the round."""
        for i, res in enumerate(results):
            self.attempted += 1
            if isinstance(res, Exception):
                self.fail([f"operation {i} raised: {type(res).__name__}: {res}"], False)
                continue
            problems = self.wl.check(i, res)
            if problems:
                self.fail([f"operation {i}: {p}" for p in problems], True)

    def again(self, res, reference: list, label: str) -> None:
        """Count a later pass or call over the round; it must equal ``reference``."""
        n = len(reference)
        self.attempted += n
        if isinstance(res, Exception):
            self.fail([f"{label} call raised: {type(res).__name__}: {res}"], False, n)
        elif len(res) != n:
            self.fail([f"{label}: {len(res)} results for {n} operations"], True, n)
        else:
            for i, (got, want) in enumerate(zip(res, reference)):
                if isinstance(got, Exception):
                    self.fail([f"{label} operation {i} raised: {type(got).__name__}: {got}"], False)
                elif got != want:
                    self.fail([f"{label} operation {i} differs from the first serial pass"], True)

    def fail(self, lines, rejected: bool, count: int = 1) -> None:
        self.failed += count
        self.rejected += count if rejected else 0
        self.lines.extend(lines)


def percentile_ms(times, q: int) -> float:
    return float(statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e3)


def end_to_end(args, wl, tally: Tally) -> tuple[dict, dict]:
    times, reference = [], None
    calls_s, probes = [], []
    serial_s = parallel_s = 0.0
    wl.start_pool()
    try:
        # stop before a pass would overrun the budget; a third of the time
        # goes to 2-worker calls.  Later results are compared as they come
        # and then dropped, so memory does not grow with the run.
        while not times or serial_s + parallel_s + serial_s / len(times) <= args.seconds:
            if len(probes) < SETUP_PROBES:  # spread over the run, outside the timing
                probes.append(setup_probe(args))
            done = serial_pass(wl)
            times.append([dt for dt, _ in done])
            serial_s += sum(times[-1])
            if reference is None:
                reference = [res for _, res in done]
            else:
                tally.again([res for _, res in done], reference, "serial")
            if not calls_s or parallel_s < serial_s / 2:
                dt, res = timed_call(lambda: wl.run_round(2))
                tally.again(res, reference, "two-workers")
                calls_s.append(dt)
                parallel_s += dt
    finally:
        wl.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args))
    tally.first(reference)

    # each operation's median time over the passes, and the median call:
    # the host's speed wanders over seconds, and the fastest sample of a
    # run spread about twice as much from run to run as the median
    typical = [statistics.median(column) for column in zip(*times)]
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_ms_p50": (statistics.median(typical) * 1e3, "ms"),
        "op_ms_p90": (percentile_ms(typical, 90), "ms"),
        "ops_per_s_2w": (len(reference) / statistics.median(calls_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "ops_per_round": len(reference),
        "serial_passes": len(times),
        "two_worker_calls": len(calls_s),
        "serial_seconds": serial_s,
        "two_worker_seconds": parallel_s,
        "setup_probes_s": probes,
        "serial_mean_ms": 1e3 * serial_s / (len(times) * len(reference)),
    }
    return metrics, detail


def per_layer(args, wl, tally: Tally) -> tuple[dict, dict]:
    from spans import LAYERS, Tracer

    tracer = Tracer()

    def traced():
        with tracer.installed():
            return wl.run_round(1)

    n = len(wl.ops())
    plain_s, traced_s, reference = [], [], None
    start = perf_counter()
    while not traced_s or perf_counter() - start < args.seconds:
        # alternate which call goes first, so drift falls on both alike; the
        # very first call is untraced, and it is the one checked
        order = ("plain", "traced") if len(plain_s) % 2 == 0 else ("traced", "plain")
        for kind in order:
            dt, res = timed_call(traced if kind == "traced" else lambda: wl.run_round(1))
            (traced_s if kind == "traced" else plain_s).append(dt)
            if reference is None:
                if isinstance(res, Exception) or len(res) != n:
                    reference = [None] * n
                    tally.again(res, reference, "untraced")
                else:
                    reference = res
                    tally.first(res)
            else:  # compared as they come, then dropped
                tally.again(res, reference, "untraced" if kind == "plain" else "traced")

    ops = len(traced_s) * n
    self_s = tracer.self_seconds()
    ms = {name: 1e3 * self_s[name] / ops for name in LAYERS}
    solves = tracer.calls["optimizer.solve"]
    plain_ms = 1e3 * sum(plain_s) / (len(plain_s) * n)
    traced_ms = 1e3 * sum(traced_s) / ops
    metrics = {
        "channel.ms": (ms["channel"], "ms"),
        "pattern.build_ms": (ms["pattern.build"], "ms"),
        "beamforming.select_ms": (ms["beamforming.select"], "ms"),
        "beamforming.zf_ms": (ms["beamforming.zf"], "ms"),
        "beamforming.redraws": (tracer.singular["beamforming.zf"] / ops, "1/op"),
        "pattern.power_ms": (ms["pattern.power"], "ms"),
        "pattern.power_calls": (tracer.calls["pattern.power"] / ops, "1/op"),
        "receiver.link_ms": (ms["receiver.link"], "ms"),
        "receiver.sinr_ms": (ms["receiver.sinr"], "ms"),
        "receiver.sinr_calls": (tracer.calls["receiver.sinr"] / ops, "1/op"),
        "optimizer.build_ms": (ms["optimizer.build"], "ms"),
        "optimizer.solve_ms": (ms["optimizer.solve"], "ms"),
        "optimizer.solves": (solves / ops, "1/op"),
        "optimizer.newton_steps": (tracer.newton_steps / solves if solves else 0.0, "steps/solve"),
        "optimizer.not_converged": (tracer.not_converged / ops, "1/op"),
        "optimizer.phase1_ms": (ms["optimizer.phase1"], "ms"),
        "harness.self_ms": (ms["harness.self"], "ms"),
        "harness.aggregate_ms": (ms["harness.aggregate"], "ms"),
        "trace.layer_sum_ms": (sum(ms.values()), "ms"),
        "trace.op_ms": (traced_ms, "ms"),
        "trace.untraced_op_ms": (plain_ms, "ms"),
        "trace.overhead_pct": (100.0 * (traced_ms / plain_ms - 1.0), "%"),
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
    tracer.write(spans_path)
    detail = {"calls_each": len(traced_s), "ops_per_round": n, "spans": len(tracer.names),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail


def machine() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except Exception:  # older builds have no dict form
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS/OpenMP thread per process, set before numpy loads; workers
    # inherit the environment and, when spawned, this sys.path
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    wl = set_up(args.workload, args.seed)
    if args.setup_probe:
        return 0
    tally = Tally(wl)
    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(args, wl, tally)
    result = {
        "correct": tally.rejected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, detail=detail, machine=machine(),
                  failures=tally.lines[:MAX_FAILURE_LINES])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {json.dumps(detail)}")
    print(f"machine: {json.dumps(record['machine'])}")
    for line in tally.lines[:MAX_FAILURE_LINES]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {tally.attempted}, failed = {tally.failed}, correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
