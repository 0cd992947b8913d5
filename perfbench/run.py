"""pamsim benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

One process, one client, closed loop: a session runs the workload's steps in
order and the next step starts only when the previous one has returned. The
first session warms caches and fixes the reference output files; the
sessions after it are measured until ``--seconds`` have passed. Every step
is checked, outside its timed region, and a step that fails any check counts
in ``failed``. A timing is the fastest of its samples in the run (see
``_fastest``); its median is in the ``stats`` line.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced sessions and reports the per-layer metrics: self times,
call and work counts from the traced sessions, per-command times from the
untraced ones, and the tracing overhead as the difference of the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
print each metric by name with its unit, the sample count and tail
percentile of each timing (``stats``) and the run's environment (``meta``).

All generated inputs and outputs live in a temporary directory under
``.perfbench_work/`` at the repository root, removed at exit; a traced run
leaves its spans in ``.perfbench_work/traces/``.
"""

from __future__ import annotations

import os

# pamsim is single-threaded numpy code; one BLAS/OpenMP thread in this
# process and in its set-up probes keeps runs comparable between machines.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("analysis", "bounds")
# A claimed gain must also hold on this seed, which tuning never uses.
HELD_OUT_SEED = 918_273_645
SETUP_PROBES = 6

# Untraced per-command times; a command's steps carry its name as their metric.
COMMAND_TIMES = (
    "predict_s",
    "herald_s",
    "simulate_s",
    "report_s",
    "spacetime_s",
    "bounds_idw_s",
    "retro_sweep_s",
    "bounds_det_s",
)
# Per-layer self times (s), each the median over traced sessions.
SELF_TIMES = (
    "cli.self_s",
    "qubits.self_s",
    "scenario.self_s",
    "witness.self_s",
    "trials.self_s",
    "classical.self_s",
    "spacetime.self_s",
    "classical.classical_max_linear.self_s",
    "classical.strategy_table.self_s",
    "scenario.ProbabilityTable.self_s",
    "witness.dimension_witness.self_s",
    "classical.setting_aware_max.self_s",
    "classical.classical_max_det.self_s",
    "trials.bootstrap_report.self_s",
    "trials.sample.self_s",
    "trials.estimate.self_s",
    "trials.CountTable.to_csv.self_s",
    "trials.CountTable.from_csv.self_s",
    "scenario.probability_table.self_s",
    "scenario.heralded_table.self_s",
    "qubits.herald.self_s",
    "witness.report_from_table.self_s",
    "spacetime.validate.self_s",
)
# Exact counts per session, which must repeat in every traced session:
# metric -> key of the session summary.
COUNTS = {
    "classical.classical_max_linear.strategies": "classical.classical_max_linear.strategies",
    "classical.strategy_table.calls": "classical.strategy_table.calls",
    "scenario.ProbabilityTable.constructions": "scenario.ProbabilityTable.calls",
    "witness.dimension_witness.calls": "witness.dimension_witness.calls",
    "classical.classical_max_det.restarts": "classical.classical_max_det.restarts",
    "classical.det.line_searches": "classical.det.line_searches",
    "trials.bootstrap_report.resamples": "trials.bootstrap_report.resamples",
    "qubits.herald.calls": "qubits.herald.calls",
    "spacetime.validate.calls": "spacetime.validate.calls",
    "cli.bytes_written": "cli.bytes_written",
}
# Work per second of a span's total time: metric -> (work counter, span).
RATES = {
    "classical.classical_max_linear.strategies_per_s": (
        "classical.classical_max_linear.strategies", "classical.classical_max_linear"),
    "classical.setting_aware_max.strategies_per_s": (
        "classical.setting_aware_max.strategies", "classical.setting_aware_max"),
    "classical.classical_max_det.restarts_per_s": (
        "classical.classical_max_det.restarts", "classical.classical_max_det"),
    "trials.bootstrap_report.resamples_per_s": (
        "trials.bootstrap_report.resamples", "trials.bootstrap_report"),
    "trials.sample.trials_per_s": ("trials.sample.trials", "trials.sample"),
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reference: dict = field(default_factory=dict)  # step -> {file: sha256}


@dataclass
class Session:
    times: dict[str, float]  # step name -> seconds
    bytes_written: int


def _digests(out: Path) -> tuple[dict[str, str], int]:
    digests, size = {}, 0
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digests, size


def run_session(steps, tally: Tally) -> Session:
    """Run every step once; the first session's outputs become the reference."""
    gc.collect()
    times, written = {}, 0
    for step in steps:
        t0 = time.perf_counter()
        try:
            result = step.call()
            times[step.name] = time.perf_counter() - t0
            error = step.check(result)
            if step.out is not None:
                digests, size = _digests(step.out)
                written += size
                expected = tally.reference.setdefault(step.name, digests)
                if not error and digests != expected:
                    error = "output files differ from the first session's"
        except Exception as exc:  # a crashing step is a failed step; keep going
            times.setdefault(step.name, time.perf_counter() - t0)
            error = f"{type(exc).__name__}: {exc}"
        tally.attempted += 1
        if error:
            tally.failed += 1
            print(f"FAIL {step.name}: {error}", file=sys.stderr)
    return Session(times, written)


def _distribution(samples: list[float]) -> dict:
    """Median, sample count and the highest of p50/p90/p95/p99 that has at
    least ten samples beyond it (null when there are fewer than 20)."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    for p in (99, 95, 90, 50):
        if n * (100 - p) / 100 >= 10:
            tail = {"p": p, "value": ordered[math.ceil(p / 100 * n) - 1]}
            break
    return {"samples": n, "median": statistics.median(ordered), "tail": tail}


def _probe_command(args) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]


def probe_setup(args, work: Path) -> dict:
    """Time one fresh interpreter from start until the first step is ready.

    Probes share one bytecode cache inside ``work``, which the run's first,
    unmeasured probe fills, so every measured probe starts warm.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(work / "pycache"))
    t0 = time.perf_counter()
    with subprocess.Popen(_probe_command(args), stdout=subprocess.PIPE, env=env, text=True) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return {"setup_s": wall, **json.loads(line)}


def setup_probe(args, work: Path) -> int:
    t0 = time.perf_counter()
    import workloads

    t1 = time.perf_counter()
    workloads.WORKLOADS[args.workload](args.seed, work)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)
    return 0


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pamsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args, sessions: dict) -> dict:
    import numpy
    import pamsim
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "sessions": sessions,
        "setup_probes": SETUP_PROBES,
        "sizes": workloads.SIZES,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pamsim": pamsim.__version__,
        "pamsim_source_sha256": _source_digest(),
        "git_commit": _git_commit(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _fastest(steps, sessions: list[Session]) -> dict[str, float]:
    """Each step's fastest time over the sessions.

    Other tenants of a shared host can slow the same code by up to twice for
    seconds at a time. The fastest sample is the one least affected, so it
    moves less between runs than the median does.
    """
    return {step.name: min(s.times[step.name] for s in sessions) for step in steps}


def per_layer(steps, untraced, traced, summaries, setups) -> tuple[dict, bool]:
    """Per-layer metrics, and whether every count repeated in every session."""
    metrics = {name: (0.0, "s") for name in COMMAND_TIMES}
    for step, fastest in zip(steps, _fastest(steps, untraced).values()):
        metrics[step.metric] = (metrics[step.metric][0] + step.weight * fastest, "s")
    for name in ("import_s", "inputs_s"):
        metrics[f"setup.{name}"] = (min(s[name] for s in setups), "s")

    for summary, session in zip(summaries, traced):
        summary["cli.bytes_written"] = session.bytes_written
    for name in SELF_TIMES:
        metrics[name] = (min(s.get(name, 0.0) for s in summaries), "s")
    repeated = True
    for name, key in COUNTS.items():
        values = {s.get(key, 0) for s in summaries}
        if len(values) != 1:
            print(f"FAIL count {name} differs between sessions: {sorted(values)}", file=sys.stderr)
            repeated = False
        metrics[name] = (summaries[0].get(key, 0), "count")
    strategies = summaries[0].get("classical.classical_max_linear.strategies", 0)
    tables = summaries[0]["classical.classical_max_linear.tables"]
    metrics["classical.classical_max_linear.tables_per_strategy"] = (
        tables / strategies if strategies else 0.0, "ratio")
    for name, (work, span) in RATES.items():
        busy = min(s.get(f"{span}.total_s", 0.0) for s in summaries)
        metrics[name] = (summaries[0].get(work, 0) / busy if busy else 0.0, "1/s")

    traced_s = sum(_fastest(steps, traced).values())
    metrics["trace.overhead_s"] = (traced_s - sum(_fastest(steps, untraced).values()), "s")
    metrics["trace.unaccounted_s"] = (
        min(sum(t.times.values()) - s["roots_s"] for t, s in zip(traced, summaries)), "s")
    return metrics, repeated


def run(args, work: Path) -> int:
    probe_setup(args, work)
    import workloads

    steps = workloads.WORKLOADS[args.workload](args.seed, work)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    tally = Tally()
    run_session(steps, tally)
    untraced, traced, summaries, setups = [], [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline or not untraced or (tracer and not traced):
        if tracer and len(traced) < len(untraced):
            with tracer.installed():
                tracer.begin()
                traced.append(run_session(steps, tally))
            summaries.append(tracer.summary())
        else:
            untraced.append(run_session(steps, tally))
        # Probes are spread over the run, so that a stretch of time in which
        # the host is slow does not hold all of them.
        due = (time.perf_counter() - start) * SETUP_PROBES / args.seconds
        if len(setups) < min(due, SETUP_PROBES):
            setups.append(probe_setup(args, work))
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(args, work))

    correct = tally.failed == 0
    if tracer:
        metrics, repeated = per_layer(steps, untraced, traced, summaries, setups)
        correct = correct and repeated
        stats = {}
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{args.workload}-seed{args.seed}.npz")
    else:
        fastest = _fastest(steps, untraced)
        setup = [s["setup_s"] for s in setups]
        metrics = {
            "setup_s": (min(setup), "s"),
            "session_s": (sum(fastest.values()), "s"),
            "slowest_op_s": (max(fastest.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        stats = {
            "setup_s": _distribution(setup),
            "session_s": _distribution([sum(s.times.values()) for s in untraced]),
            "slowest_op_s": _distribution([max(s.times.values()) for s in untraced]),
        }

    sessions = {"warmup": 1, "untraced": len(untraced), "traced": len(traced)}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<14} {name:<52} {value:>16.6g} {unit}")
    print("stats " + json.dumps(stats, sort_keys=True))
    print("meta " + json.dumps(metadata(args, sessions), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print their metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pamsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pamsim" / "__init__.py").is_file():
        print(f"error: pamsim sources not found in {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    # Leave no __pycache__ in the source tree; probes write theirs under WORK.
    sys.dont_write_bytecode = not args.setup_probe
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_probe:
            return setup_probe(args, work)
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
