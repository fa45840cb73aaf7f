"""Benchmark for reachcons: four workloads, end-to-end and per-layer metrics.

    python3 reachbench/run.py --workload flood-k7 --seed 1 --seconds 10 --trace 0
    python3 reachbench/run.py --seed 1          # every workload, one process each

Run from the root of a checkout; the package is imported from `src/`.  A
workload runs whole rounds of its operations, one at a time, until
`--seconds` have passed.  With `--trace 0` the last line of standard output
is a JSON object with the end-to-end metrics; with `--trace 1` the same
rounds run untraced, then one more round runs under cProfile and the JSON
object holds the per-layer metrics instead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "reachcons")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("flood-k7", "small-runs", "traced-run", "conditions")
SETUP_SAMPLES = 7
LAYER_SUM_TOLERANCE = 0.05  # layer self times vs. traced wall time

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "work_per_s": "1/s", "ops_per_s": "1/s", "op_ms_p50": "ms"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one workload; default: each in its own process")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def import_package():
    """Import reachcons from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise SystemExit(f"error: no package at {PACKAGE}; run the benchmark "
                         f"from the root of a reachcons checkout")
    sys.path.insert(0, os.path.dirname(PACKAGE))
    import reachcons
    found = os.path.realpath(os.path.dirname(reachcons.__file__))
    if found != os.path.realpath(PACKAGE):
        raise SystemExit(f"error: imported reachcons from {found}, "
                         f"not {PACKAGE}")


class Tally:
    """Everything one or more rounds produced."""

    def __init__(self):
        self.attempted = self.failed = self.work = 0
        self.round_s = []
        self.op_s = {}  # position in the round -> latencies, one per round
        self.problems = []
        self.failures = Counter()
        self.digest = self.counts = None  # of the first round


def run_rounds(workload, state, seconds, tally, profiler=None):
    """Whole rounds until `seconds` have passed; one round if profiling."""
    start = time.perf_counter()
    clock = time.perf_counter
    while True:
        done = []
        busy = 0.0
        for i, op in enumerate(workload.round_ops(state)):
            tally.attempted += 1
            latencies = tally.op_s.setdefault(i, [])
            t0 = clock()
            try:
                if profiler is not None:
                    profiler.enable()
                try:
                    res = op.call()
                finally:
                    if profiler is not None:
                        profiler.disable()
            except Exception as e:  # a failed operation is counted, not fatal
                busy += clock() - t0
                tally.failed += 1
                latencies.append(float("inf"))
                tally.failures[f"{op.label}: {type(e).__name__}: {e}"] += 1
                continue
            dt = clock() - t0
            busy += dt
            latencies.append(dt)
            done.append((op, res))
        h = hashlib.sha256()
        counts = Counter()
        for op, res in done:
            outcome = op.finish(res)
            tally.problems += outcome.problems
            tally.work += outcome.work
            h.update(outcome.digest)
            counts.update(outcome.tallies)
        del done
        tally.round_s.append(busy)
        if tally.digest is None:
            tally.digest, tally.counts = h.hexdigest(), counts
        elif (h.hexdigest(), counts) != (tally.digest, tally.counts):
            tally.problems.append(f"round outputs differ from the first "
                                  f"round: {dict(counts)} vs "
                                  f"{dict(tally.counts)}")
        if profiler is not None or clock() - start >= seconds:
            return


def setup_samples(args, own: float) -> list:
    """This process's set-up time plus that of fresh processes doing the
    same set-up, so the median smooths out one slow start."""
    samples = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise SystemExit(f"setup probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def end_to_end(tally: Tally, setup: list) -> dict:
    """Rates use the median round, as every round does the same work; the
    latency is the median over operations of each one's median latency."""
    rounds = len(tally.round_s)
    wall = statistics.median(tally.round_s)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "work_per_s": tally.work / rounds / wall,
        "ops_per_s": (tally.attempted - tally.failed) / rounds / wall,
        "op_ms_p50": statistics.median(
            statistics.median(v) for v in tally.op_s.values()) * 1000.0,
    }


def per_layer(profiler, traced: Tally, untraced: Tally) -> dict:
    index = layers.FunctionIndex(PACKAGE)
    stats = pstats.Stats(profiler).stats
    out = layers.per_layer_metrics(stats, index)
    wall = traced.round_s[0]
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = statistics.median(untraced.round_s)
    out["trace.overhead_s"] = wall - out["trace.untraced_wall_s"]
    out["trace.layer_sum_s"] = sum(out[f"{name}.self_s"]
                                   for name in layers.SELF_LAYERS)
    return {name: out[name] for name in layers.PER_LAYER}


def report_lines(name, args, tally: Tally):
    yield f"workload {name} seed {args.seed}: {len(tally.round_s)} rounds, " \
          f"{tally.attempted} operations attempted, {tally.failed} failed"
    for what, times in sorted(tally.failures.items()):
        yield f"  failed x{times}: {what}"
    yield f"  digest {tally.digest}"
    yield "  per round: " + ", ".join(f"{k}={v}" for k, v in
                                      sorted(tally.counts.items()))
    ops = sorted(x for v in tally.op_s.values() for x in v)
    # A tail percentile needs ten samples beyond it.
    if len(ops) >= 1000:
        yield f"  op_ms_p99 {ops[int(len(ops) * 0.99)] * 1000.0:.4f} ms " \
              f"over {len(ops)} operations"
    for p in tally.problems[:20]:
        yield f"  CHECK FAILED: {p}"


def run_workload(args) -> int:
    import_package()
    from workloads import WORKLOADS
    os.environ.pop("REACHCONS_SEED", None)  # the CLI would override seeds
    workload = WORKLOADS[args.workload]
    tmpdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        state = workload.setup(args.seed, tmpdir)
        setup_own = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(setup_own))
            return 0
        tally = Tally()
        run_rounds(workload, state, args.seconds, tally)
        if args.trace:
            traced = Tally()
            profiler = cProfile.Profile()
            run_rounds(workload, state, 0, traced, profiler)
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tally.failures.update(traced.failures)
            tally.problems += traced.problems
            if traced.digest != tally.digest:
                tally.problems.append("profiled round outputs differ")
            metrics = per_layer(profiler, traced, tally)
            gap = abs(metrics["trace.layer_sum_s"] - metrics["trace.wall_s"])
            if gap > LAYER_SUM_TOLERANCE * metrics["trace.wall_s"]:
                tally.problems.append(
                    f"layer self times sum to {metrics['trace.layer_sum_s']}"
                    f" s, traced wall time is {metrics['trace.wall_s']} s")
            units = layers.PER_LAYER
        else:
            metrics = end_to_end(tally, setup_samples(args, setup_own))
            units = END_TO_END
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for line in report_lines(args.workload, args, tally):
        print(line)
    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; their results side by side."""
    import_package()
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited {done.returncode}")
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        for metric, v in results[name]["metrics"].items():
            print(f"  {metric:34s} {v['value']:14.6g} {v['unit']}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"results-seed{args.seed}-trace{args.trace}"
                                ".json"), "w") as fh:
        json.dump(results, fh, indent=1)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
