"""Benchmark for the ostrowski library: one workload per run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (see README.md); with ``--trace 1`` the
run is traced and the metrics are the per-layer ones. The result, and with
``--trace 1`` the spans, are also written under ``perfbench/out/``.

Each run: measure set-up in fresh interpreters, build one round of the
workload from the seed, run that round once untimed with evaluation probes
(this counts ``evals_per_op`` and warms up), then repeat whole rounds, one
operation at a time, until the operations have taken ``--seconds`` seconds
and enough have succeeded to leave ten samples beyond the workload's tail
percentile.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: op_tail_ms is this percentile of the successful operations' latencies.
#: Each run reaches the count min_ok() gives, which leaves at least ten
#: samples beyond it; higher percentiles moved too much between runs of the
#: same code on a shared host (see README.md)
TAIL_PERCENTILE = {"certify": 75, "oracle": 95, "sweep": 95, "cli": 75}
WORKLOADS = tuple(TAIL_PERCENTILE)
SETUP_REPEATS = 5

_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import ostrowski
t1 = time.perf_counter()
import workloads
t2 = time.perf_counter()
workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(t1 - t0 + time.perf_counter() - t2)
"""

_IMPORT_CLI_CHILD = """\
import time
t0 = time.perf_counter()
import ostrowski.cli
print(time.perf_counter() - t0)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def _child(code: str, *args: str) -> float:
    """Run code in a fresh interpreter; it prints one float."""
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up seconds over fresh interpreters, at reference speed.

    In-process workloads: ``import ostrowski`` plus building the inputs.
    ``cli``: the wall time of a fresh interpreter running
    ``import ostrowski.cli``, which every CLI invocation pays.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        scale = calibration.scale_now()
        if workload == "cli":
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import ostrowski.cli"], cwd=ROOT,
                           env=_child_env(), check=True, timeout=120)
            seconds = time.perf_counter() - t0
        else:
            seconds = _child(_SETUP_CHILD, workload, str(seed), str(ROOT))
        times.append(seconds * scale)
    return statistics.median(times)


class Tally:
    """Every operation's latency and outcome, and what went wrong."""

    def __init__(self) -> None:
        self.samples: list = []  # (end time, seconds, succeeded)
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0  # seconds spent inside operations, failed ones too
        self.problems: list = []

    def add(self, op, seconds: float, problem) -> None:
        self.samples.append((time.perf_counter(), seconds, problem is None))
        self.attempted += 1
        self.busy += seconds
        if problem is not None:
            self.failed += 1
            if not op.known_fault:
                self.problems.append(problem)

    def scaled(self, cal: calibration.Calibrator) -> tuple:
        """(latencies of the successes, total time of all operations), in
        seconds at reference speed."""
        ok, total = [], 0.0
        for t, seconds, succeeded in self.samples:
            seconds *= cal.scale(t)
            total += seconds
            if succeeded:
                ok.append(seconds)
        return ok, total


def attempt(run, op):
    """Run one operation: (seconds, None or a one-line reason it failed)."""
    t0 = time.perf_counter()
    try:
        out = run()
    except Exception as exc:  # an operation that raises is a failed operation
        return time.perf_counter() - t0, f"{op.cls}: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return seconds, op.check(out)


def min_ok(workload: str) -> int:
    """Successful operations a run needs: ten beyond the tail percentile."""
    return math.ceil(10 * 100 / (100 - TAIL_PERCENTILE[workload]))


def run_rounds(ops, seconds: float, least_ok: int, do_op,
               cal: calibration.Calibrator) -> Tally:
    """Whole rounds until the operations took `seconds` and `least_ok`
    succeeded, timing the calibration loop between operations."""
    tally = Tally()
    while tally.busy < seconds or tally.attempted - tally.failed < least_ok:
        for op in ops:
            tally.add(op, *do_op(op))
            cal.between_ops()
    return tally


def percentile(latencies: list, q: float) -> float:
    """Nearest-rank q-th percentile."""
    return sorted(latencies)[math.ceil(q / 100 * len(latencies)) - 1]


def end_to_end(name: str, ops, seconds: float, setup_s: float) -> tuple:
    counter = probes.EvalCounter()
    warm = Tally()
    with probes.instrument(counter):
        for op in ops:
            warm.add(op, *attempt(op.inprocess or op.run, op))
    evals_per_op = counter.points / len(ops)

    cal = calibration.Calibrator()
    tally = run_rounds(ops, seconds, min_ok(name), lambda op: attempt(op.run, op), cal)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    lat, total = tally.scaled(cal)
    raw = statistics.median(s for _, s, ok in tally.samples if ok)
    print(f"unscaled op_p50_ms {1e3 * raw:.4g}, calibration loop median "
          f"{1e3 * statistics.median(cal.seconds):.4g} ms", file=sys.stderr)
    metrics = {
        "ops_per_s": (len(lat) / total, "op/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * percentile(lat, TAIL_PERCENTILE[name]), "ms"),
        "evals_per_op": (evals_per_op, "points/op"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return tally, warm.problems, metrics


def traced(name: str, ops, seconds: float, seed: int) -> tuple:
    tracer = probes.Tracer()
    process_s = []
    out_bytes = []

    def do_op(op):
        if op.inprocess is None:
            return attempt(tracer.wrap("bench.op", op.run), op)
        seconds_p, problem = attempt(op.run, op)
        process_s.append(seconds_p)

        def inprocess():
            code, text = op.inprocess()
            out_bytes.append(len(text.encode("utf-8")))
            return code, text

        seconds_i, problem_i = attempt(tracer.wrap("bench.op", inprocess), op)
        return seconds_p + seconds_i, problem or problem_i

    cal = calibration.Calibrator()
    with probes.instrument(tracer, tracer):
        tally = run_rounds(ops, seconds, min_ok(name), do_op, cal)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{name}-seed{seed}.npz")
    import_s = [_child(_IMPORT_CLI_CHILD) for _ in range(SETUP_REPEATS)]
    metrics = layer_metrics(tracer.summary(), tally, process_s, out_bytes, import_s)
    metrics["traced.op_p50_ms"] = (1e3 * statistics.median(tally.scaled(cal)[0]), "ms")
    return tally, [], metrics


def layer_metrics(spans: dict, tally: Tally, process_s: list, out_bytes: list,
                  import_s: list) -> dict:
    n = tally.attempted

    def col(names, key) -> float:
        return sum(spans[s][key] for s in names if s in spans)

    def layer(prefix: str) -> list:
        return [s for s in spans if s.startswith(prefix)]

    def ms(*names) -> float:
        return col(names, "self_ns") / 1e6 / n

    ci, ri, td = "quadrature.certified_integrate", "toolkit.reference_integrate", "toolkit.true_deviation"
    f_all = col(spans, "f_points")
    df_all = col(spans, "df_points")
    return {
        "quadrature.certify_ms": (ms(ci), "ms/op"),
        "quadrature.levels": (col(["quadrature.Partition.uniform"], "calls") / n, "levels/op"),
        "quadrature.partition_ms": (ms("quadrature.Partition.uniform"), "ms/op"),
        "quadrature.error_bound_ms": (ms("quadrature.midpoint_error_bound"), "ms/op"),
        "quadrature.midpoint_sum_ms": (ms("quadrature.composite_midpoint"), "ms/op"),
        "quadrature.deriv_points": (col([ci], "df_points") / n, "points/op"),
        "eval.f_points": (f_all / n, "points/op"),
        "eval.df_points": (df_all / n, "points/op"),
        "eval.ms": (col(spans, "eval_ns") / 1e6 / n, "ms/op"),
        "toolkit.oracle_calls": (col([ri], "calls") / n, "calls/op"),
        "toolkit.oracle_ms": (ms(ri, td), "ms/op"),
        "toolkit.oracle_points": (
            (col([ri, td], "f_points") + col([ri, td], "df_points")) / n, "points/op"),
        "toolkit.sconvex_ms": (ms("toolkit.check_sconvex"), "ms/op"),
        "toolkit.sconvex_points": (col(["toolkit.check_sconvex"], "f_points") / n, "points/op"),
        "bounds.calls": (col(layer("bounds."), "calls") / n, "calls/op"),
        "bounds.ms": (ms(*layer("bounds.")), "ms/op"),
        "kernel.calls": (col(layer("kernel."), "calls") / n, "calls/op"),
        "kernel.ms": (ms(*layer("kernel.")), "ms/op"),
        "means.ms": (ms(*layer("means.")), "ms/op"),
        "cli.run_sweep_ms": (ms("cli.run_sweep"), "ms/op"),
        "cli.import_ms": (1e3 * statistics.median(import_s), "ms"),
        "cli.main_ms": (col(["cli.main"], "total_ns") / 1e6 / n, "ms/op"),
        "cli.out_bytes": (sum(out_bytes) / n, "B/op"),
        "cli.process_ms": (1e3 * sum(process_s) / n, "ms/op"),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ostrowski" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'ostrowski'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    import workloads

    ops = workloads.build(args.workload, args.seed, str(ROOT))
    if args.trace:
        tally, warm_problems, metrics = traced(args.workload, ops, args.seconds, args.seed)
    else:
        tally, warm_problems, metrics = end_to_end(args.workload, ops, args.seconds, setup_s)

    problems = warm_problems + tally.problems
    for problem in problems[:10]:
        print(f"incorrect: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
