"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid-tiny-cold --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
traced run and prints the per-layer split instead.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record (environment, counters, and for traced runs every span)
is written under ``.perfbench/results/``.  The exit code is 0 only
when every point matched its committed fingerprint and none failed.

See ``perfbench/README.md`` for the workloads and what each metric
means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"

WORKLOADS = ("grid-tiny-cold", "serve-closed-loop")

#: what a user's process imports before its first point
IMPORTS = (
    "repro.experiments.cli",
    "repro.serve.server",
    "repro.serve.client",
)

#: fresh interpreters whose import time ``setup_s`` takes the median of
IMPORT_REPEATS = 3

#: metric -> unit, per mode
END_TO_END = {
    "wall_s": "s",
    "sim_kips": "kinstr/s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "workloads.build_s": "s",
    "workloads.validate_s": "s",
    "analyze.verify_s": "s",
    "analyze.verify_calls": "count",
    "sim.functional_s": "s",
    "sim.instructions": "count",
    "mem.access_s": "s",
    "mem.accesses": "count",
    "mem.l1_miss_ratio": "ratio",
    "cpu.timing_s": "s",
    "cpu.cycles": "count",
    "experiments.runner_s": "s",
    "experiments.worker_busy_s": "s",
    "experiments.pool_utilization": "ratio",
    "experiments.cache_load_s": "s",
    "experiments.cache_store_s": "s",
    "experiments.cache_hit_ratio": "ratio",
    "experiments.cache_quarantined": "count",
    "serve.queue_wait_ms": "ms",
    "serve.worker_s": "s",
    "serve.coalesce_ratio": "ratio",
    "serve.sims_per_unique_point": "ratio",
    "serve.journal_s": "s",
    "serve.loop_idle_s": "s",
    "serve.loop_s": "s",
    "bench.traced_wall_s": "s",
    "bench.unattributed_s": "s",
    "bench.tracing_overhead_s": "s",
}


def repro_overrides(environ: Dict[str, str]) -> List[str]:
    """``REPRO_*`` variables that would change what the program runs."""
    return sorted(name for name in environ if name.startswith("REPRO_"))


def import_seconds(repeats: int = IMPORT_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing :data:`IMPORTS`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import " + ", ".join(IMPORTS)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content: identifies
    the measured code where no git commit is available."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> Dict[str, Any]:
    try:
        from repro.sim.engine import resolve_engine

        engine = resolve_engine()
    except ImportError:
        engine = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "engine": engine,
        "platform": platform.platform(),
    }


def _json_number(value: float) -> float:
    """JSON has no infinity: a failed request's latency reads as the
    largest float, which is over any limit."""
    return sys.float_info.max if math.isinf(value) else value


def _child_pids() -> List[int]:
    """Direct children of this process, as the kernel lists them."""
    pids: List[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend(int(pid) for pid in
                        (task / "children").read_text().split())
        except (OSError, ValueError):
            continue  # the thread ended while it was listed
    return pids


def _stop_children() -> None:
    """Stop and reap every process the run started, so none outlives
    it: the server kills its pool workers on shutdown without waiting
    for them, and multiprocessing leaves its resource tracker running
    until the interpreter exits.  An unreaped child would be handed to
    the host's init, which may never reap it."""
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()  # closes its pipe and waits for it to exit
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already ended and reaped


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv: Optional[List[str]]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    overrides = repro_overrides(dict(os.environ))
    if overrides:
        print(f"refusing to run with {', '.join(overrides)} set: the "
              f"benchmark measures the program's defaults", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    STATE_DIR.mkdir(exist_ok=True)

    traced = bool(args.trace)
    import_s = 0.0 if traced else import_seconds()
    import drive

    if args.workload == "serve-closed-loop":
        run = drive.run_serve(args.seed, args.seconds, traced, STATE_DIR)
    else:
        run = drive.run_grid(args.seed, args.seconds, traced, STATE_DIR)

    if traced:
        values = run.layers
        units = PER_LAYER
    else:
        values = drive.end_to_end(run, import_s)
        units = END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")

    gate = run.gate
    failed = run.failed
    attempted = run.attempted
    correct = failed == 0  # a fingerprint mismatch is a failure too
    env = environment()
    latencies = [x for p in run.passes for x in p.latencies_s]

    print(f"workload {run.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.passes)} pass(es), {attempted} operations, "
          f"{failed} failed (failed_ratio "
          f"{drive.failed_ratio(attempted, failed):.4f}), "
          f"{len(gate.mismatches)} fingerprint mismatch(es)")
    print("environment: " + json.dumps(env, sort_keys=True))
    if not traced:
        print(f"latency samples: {len(latencies)} (highest percentile with "
              f"ten beyond it: p{drive.tail_percentile(len(latencies))})")
    for name in units:
        print(f"  {name:32s} {values[name]:>16.6g} {units[name]}")
    for i, p in enumerate(run.passes):
        print(f"  pass {i}: wall {p.wall_s:.3f} s, {p.requests} requests, "
              f"jobs {p.jobs}" + (
                  f", counters {json.dumps(p.counters, sort_keys=True)}"
                  if p.counters else ""))
    if traced:
        covered = sum(values[f"{layer}_s"] for layer in drive.probes.SELF_TIME_LAYERS)
        print(f"  layer self times {covered:.4f} s + unattributed "
              f"{values['bench.unattributed_s']:.4f} s = traced wall "
              f"{values['bench.traced_wall_s']:.4f} s")
    for label in gate.mismatches[:10]:
        print(f"  fingerprint mismatch: {label}")

    metrics = {
        name: {"value": _json_number(values[name]), "unit": units[name]}
        for name in units
    }
    record = {
        "workload": run.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env, "metrics": metrics,
        "passes": [vars(p) | {"latencies_s": [_json_number(x) for x in p.latencies_s]}
                   for p in run.passes],
        "mismatches": gate.mismatches,
        "spans": [list(span) for span in run.spans],
    }
    out_dir = STATE_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{run.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
