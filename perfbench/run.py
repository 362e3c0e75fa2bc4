"""Benchmark of qespoly: fixed, seeded task lists run against its public API.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 perfbench/run.py --workload chains --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  A run sets up (imports, task list from the seed, one untimed
warm-up), then executes whole passes over the task list until --seconds
have passed, three passes are done and at least 100 tasks have run,
checking every output of every pass.  A task's time is the median of its
passes.  On chains and levels, whose work is interpreted Python, each
execution is first scaled to a nominal host speed measured by a reference
loop run between the tasks (see host_scaled).  Set-up is timed in fresh
interpreters, five times, and reported as the median.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it
spends half the time untraced and half traced and prints the per-layer
metrics, per traced pass, plus the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MIN_TASKS = 100
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

# The host this runs on is shared: the speed of interpreted code changes by
# up to 2x within seconds and for minutes at a time, while LAPACK-bound code
# changes by a few per cent.  So on the workloads whose work is interpreted
# Python, each task's time is scaled by the speed of a fixed reference loop
# measured around it: scaled = seconds * REFERENCE_S / (reference loop time),
# the median of the REF_WINDOW reference times on each side of the task.
# Scaled times are seconds on a host where the reference loop takes
# REFERENCE_S.  oracle, and set-up on every workload, are timed by the
# wall clock alone: scaling made them noisier.
HOST_SCALED = {"chains": True, "levels": True, "oracle": False}
REFERENCE_S = 0.0025
REF_WINDOW = 5

# per-layer metrics, each reported per traced pass
PER_LAYER_CALLS = (
    "exactpoly.EnergyPoly.mul", "exactpoly.sturm_real_root_count", "exactpoly.real_roots",
    "families.gen_family", "spectrum.qes_energies", "wavefunctions.build_qes_state",
    "oracle.lowest_eigenvalues",
)
PER_LAYER_SELF = (
    "exactpoly.EnergyPoly.mul", "exactpoly.poly_divide_exact",
    "exactpoly.sturm_real_root_count", "exactpoly.real_roots",
    "families.gen_family", "families.gen_quotient", "families.gen_R",
    "spectrum.qes_energies", "spectrum.weights", "spectrum.moments",
    "spectrum.norm_weight_crosscheck", "spectrum.factorization_check",
    "wavefunctions.build_qes_state", "duality.dsg_spectrum", "duality.dsg_weights_moments",
    "oracle.lowest_eigenvalues", "oracle.match_levels", "cli.main",
)
PER_LAYER_COUNTS = {
    "families.members_generated": "members/pass",
    "wavefunctions.QESState.eval.points": "points/pass",
    "potentials.potential_eval.points": "points/pass",
    "oracle.grid_points": "points/pass",
    "oracle.circle_dense_bytes": "computed_B/pass",
    "oracle.domain_enlargements": "count/pass",
    "cli.main.bytes_out": "bytes/pass",
    "python.gc_ms": "ms/pass",
    "python.gc_collections": "count/pass",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def program_sources() -> Path:
    src = ROOT / "src"
    if not (src / "qespoly" / "__init__.py").is_file():
        fail(f"no qespoly sources under {src}; run from the root of a checkout")
    return src


def import_program():
    """Import qespoly from this checkout's src/, and nowhere else."""
    src = program_sources()
    sys.path.insert(0, str(src))
    import qespoly

    if Path(qespoly.__file__).resolve().parent != (src / "qespoly").resolve():
        fail(f"qespoly imported from {qespoly.__file__}, not from {src}")


def setup(workload: str, seed: int):
    """Imports, inputs from the seed, and one untimed, checked warm-up."""
    import_program()
    import workloads

    warmup, tasks = workloads.build(workload, seed)
    stats = RunStats()
    outputs = run_pass(warmup, stats, None, False)
    wrong = check_pass(warmup, outputs)
    if wrong or stats.failed:
        fail(f"warm-up failed: {wrong or stats.failures}")
    return tasks


def _reference_loop():
    """Fixed interpreted work, of the kind qespoly does: Fraction
    arithmetic and dict updates.  It is the benchmark's own code, so no
    change to the program changes its speed."""
    total = Fraction(0)
    table = {}
    for i in range(1, 320):
        total += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
        table[i % 13] = table.get(i % 13, 0) + i * i
    return total


def reference_seconds() -> float:
    start = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - start


def host_scaled(seconds: list, refs: list) -> list:
    """Scale the i-th of `seconds`, timed between refs[i] and refs[i + 1],
    to the nominal host speed."""
    out = []
    for i, t in enumerate(seconds):
        window = refs[max(0, i - REF_WINDOW + 1):i + REF_WINDOW + 1]
        out.append(t * REFERENCE_S / statistics.median(window))
    return out


@dataclass
class RunStats:
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    times: dict = field(default_factory=dict)     # task name -> seconds, one per pass
    failures: dict = field(default_factory=dict)  # task name -> first error
    wrong: list = field(default_factory=list)     # check failures

    def task_times(self) -> dict:
        """Each task's median over the passes: a pass that the host slowed
        in a way the scaling missed moves it less than it moves a mean or
        a minimum."""
        return {name: statistics.median(ts) for name, ts in self.times.items()}

    def pass_seconds(self) -> float:
        """One pass over the task list, at each task's time."""
        return sum(self.task_times().values())


def run_pass(tasks, stats: RunStats, tracer, scaled: bool) -> dict:
    gc.collect()
    outputs, seconds, refs = {}, [], []
    for task in tasks:
        if scaled:
            refs.append(reference_seconds())
        scope = tracer.task(task.name) if tracer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                out = task.run()
        except Exception as exc:  # noqa: BLE001 - a failing task is counted, not fatal
            seconds.append(time.perf_counter() - start)
            stats.failed += 1
            stats.failures.setdefault(task.name, f"{type(exc).__name__}: {exc}")
        else:
            seconds.append(time.perf_counter() - start)
            outputs[task.name] = out
        stats.attempted += 1
    if scaled:
        refs.append(reference_seconds())
        seconds = host_scaled(seconds, refs)
    for task, t in zip(tasks, seconds):
        stats.times.setdefault(task.name, []).append(t)
    stats.passes += 1
    return outputs


def check_pass(tasks, outputs) -> list:
    import checks

    wrong = []
    for task in tasks:
        if task.name not in outputs:
            continue
        try:
            task.check(outputs[task.name], outputs)
        except checks.CheckFailed as exc:
            wrong.append(f"{task.name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - a malformed output is a wrong output
            wrong.append(f"{task.name}: {type(exc).__name__}: {exc}")
    return wrong


def measure(tasks, scaled: bool, seconds: float, min_passes: int, min_tasks: int,
            tracer=None) -> RunStats:
    """Whole passes until `seconds` have passed, at least `min_passes`
    passes are done and at least `min_tasks` tasks have run."""
    stats = RunStats()
    start = time.perf_counter()
    while True:
        outputs = run_pass(tasks, stats, tracer, scaled)
        stats.wrong += check_pass(tasks, outputs)
        if (time.perf_counter() - start >= seconds and stats.passes >= min_passes
                and stats.attempted >= min_tasks):
            return stats


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its first timed task."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--probe-setup"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            line = ""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        fail(f"set-up probe failed with code {proc.returncode}")
    return elapsed


def quantile(values, q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1])


def end_to_end_metrics(stats: RunStats, setup_times) -> dict:
    """Throughput and latency percentiles over the tasks' times; a task
    that fails costs its time but counts for no throughput and no latency."""
    ok = [t for name, t in stats.task_times().items() if name not in stats.failures]
    return {
        "tasks_per_s": (len(ok) / stats.pass_seconds(), "1/s"),
        "task_p50_ms": (1e3 * quantile(ok, 0.5), "ms"),
        "task_p90_ms": (1e3 * quantile(ok, 0.9), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, traced: RunStats, untraced: RunStats) -> dict:
    n = traced.passes
    out = {}
    for name in PER_LAYER_CALLS:
        out[name + ".calls"] = (tracer.calls[name] / n, "calls/pass")
    for name in PER_LAYER_SELF:
        out[name + ".self_ms"] = (1e3 * tracer.self_s[name] / n, "ms/pass")
    for name, unit in PER_LAYER_COUNTS.items():
        out[name] = (tracer.counters[name] / n, unit)
    generated = tracer.counters["families.members_generated"]
    out["families.distinct_member_ratio"] = (
        tracer.counters["families.distinct_members"] / generated if generated else 0.0, "ratio")
    weight_calls = tracer.calls["spectrum.weights"]
    out["spectrum.weights.exact_ratio"] = (
        tracer.counters["spectrum.weights.exact"] / weight_calls if weight_calls else 0.0, "ratio")
    out["trace.overhead_pct"] = (
        100.0 * (traced.pass_seconds() / untraced.pass_seconds() - 1.0), "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(HOST_SCALED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    sys.path.insert(0, str(HERE))

    if args.probe_setup:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    program_sources()
    missing = [v for v in BLAS_VARS if not os.environ.get(v)]
    if missing:
        fail(f"set {', '.join(missing)} (the BLAS thread count) in the command")
    setup_times = [probe_setup(args) for _ in range(SETUP_PROBES)]
    tasks = setup(args.workload, args.seed)
    scaled = HOST_SCALED[args.workload]

    tracer = None
    if args.trace == 0:
        stats = measure(tasks, scaled, args.seconds, MIN_PASSES, MIN_TASKS)
        metrics = end_to_end_metrics(stats, setup_times)
        runs = [stats]
    else:
        import tracing

        untraced = measure(tasks, scaled, args.seconds / 2, 1, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            stats = measure(tasks, scaled, args.seconds / 2, 1, 0, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer_metrics(tracer, stats, untraced)
        runs = [untraced, stats]

    failures = {}
    for r in runs:
        failures.update(r.failures)
    for name, error in sorted(failures.items()):
        print(f"perfbench: failed: {name}: {error}", file=sys.stderr)
    wrong = [w for r in runs for w in r.wrong]
    for line in wrong[:20]:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)

    result = {
        "correct": not wrong,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"spans-{stem}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
