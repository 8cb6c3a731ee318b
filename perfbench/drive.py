"""The workloads, driven through the program's public entry points.

* the grid: ``ParallelRunner.run_points``, one call per experiment as
  ``cli all`` makes them, with its in-run manifest (no disk cache, so
  no lint memo);
* serve: an in-process ``BatchServer`` and closed-loop ``ServeClient``
  connections.

Each workload repeats a fixed unit of work, a *pass*, until the run
has measured ``--seconds`` and has at least :data:`MIN_LATENCY_SAMPLES`
latency samples, so the tail percentile has ten samples beyond it.  A
traced run makes exactly one traced pass, so its counts repeat exactly.
"""

from __future__ import annotations

import asyncio
import math
import os
import selectors
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import fingerprints
import points as point_sets
import probes
from repro.cpu.stats import ExecutionStats
from repro.experiments.faults import RunManifest
from repro.experiments.parallel import ParallelRunner
from repro.serve import BatchServer, ServeConfig
from repro.serve.client import ServeBusy, ServeClient, ServeConnectionError
from repro.serve.protocol import SOURCE_SIMULATED, point_from_wire

#: latency samples a run collects at least: p90 then has ten beyond it
MIN_LATENCY_SAMPLES = 100

#: serve shape: an in-process server with one worker, and one
#: closed-loop client connection sending this many 3-point requests a
#: pass.  With two of each (the server's default worker count), the
#: event loop competed with both workers for a 2-core host and the two
#: clients' requests interleaved, so the median request latency jumped
#: between about 3 and 5 ms from run to run (IQR 33% over ten seeds).
SERVE_WORKERS = 1
SERVE_CLIENTS = 1
SERVE_REQUESTS_PER_CLIENT = 500

clock = time.perf_counter


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(n: int, beyond: int = 10) -> int:
    """The highest whole percentile with at least ``beyond`` of ``n``
    samples above it (nearest-rank), or -1 when there is none."""
    for p in range(99, -1, -1):
        if n - max(1, math.ceil(p * n / 100)) >= beyond:
            return p
    return -1


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank percentile (``inf`` entries sort last)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def failed_ratio(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


# ---------------------------------------------------------------------------
# Host memory
# ---------------------------------------------------------------------------


def _status_kb(pid: int, field_name: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith(field_name):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass  # the process ended between listing and reading
    return 0


def _descendants(pid: int) -> List[int]:
    found: List[int] = []
    todo = [pid]
    while todo:
        parent = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children",
                          encoding="ascii") as f:
                    kids = [int(k) for k in f.read().split()]
            except (OSError, ValueError):
                continue
            found.extend(kids)
            todo.extend(kids)
    return found


class PeakRss:
    """Largest sum of peak resident sets (``VmHWM``) of this process and
    its live descendants, sampled as points and requests complete."""

    def __init__(self) -> None:
        self.peak_kb = 0

    def sample(self) -> None:
        me = os.getpid()
        total = _status_kb(me, "VmHWM:") + sum(
            _status_kb(pid, "VmHWM:") for pid in _descendants(me)
        )
        self.peak_kb = max(self.peak_kb, total)

    @property
    def mb(self) -> float:
        return self.peak_kb / 1024.0


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """One unit of work of a workload."""

    wall_s: float
    requests: int
    attempted: int
    failed: int
    #: simulated instructions retired by the points this pass simulated
    instructions: int
    #: submit-to-done time of each request (a point for grids, timed
    #: from the start of the pass); ``inf`` for a failed one
    latencies_s: List[float]
    #: sum of per-point simulation times reported back (worker busy)
    busy_s: float
    jobs: int
    setup_s: Optional[float] = None
    counters: Dict[str, float] = field(default_factory=dict)
    #: simulated totals over the distinct points the pass resolved
    totals: Dict[str, int] = field(default_factory=dict)


@dataclass
class Run:
    workload: str
    passes: List[Pass]
    gate: fingerprints.Gate
    rss: PeakRss
    #: the in-worker split of a traced run (metric name -> value)
    layers: Dict[str, float] = field(default_factory=dict)
    spans: List[Any] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)


def _simulated_totals(stats_by_label: Dict[str, Dict[str, Any]]) -> Dict[str, int]:
    """Simulated statistics summed over distinct points."""
    totals = {"instructions": 0, "cycles": 0, "l1_accesses": 0, "l1_misses": 0}
    for stats in stats_by_label.values():
        memory = stats.get("memory") or {}
        totals["instructions"] += stats["instructions"]
        totals["cycles"] += stats["cycles"]
        totals["l1_accesses"] += (
            memory.get("loads", 0) + memory.get("stores", 0)
            + memory.get("prefetches", 0)
        )
        totals["l1_misses"] += memory.get("l1_misses", 0)
    return totals


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def grid_pass(
    stages: Sequence[Sequence[Any]],
    gate: fingerprints.Gate,
    rss: PeakRss,
    state_root: Path,
    rec: Optional[probes.SpanRecorder] = None,
) -> Pass:
    """Run the grid as ``cli all --no-cache --jobs 1`` does: one fresh
    serial ``ParallelRunner`` with an in-run manifest, one
    ``run_points`` call per experiment; the manifest answers points an
    earlier experiment already resolved.  (No disk cache, so no lint
    memo; ``keep_going``, so a failed point is counted instead of
    aborting the grid.)

    A point's latency runs from the start of the pass, when the user
    launched the grid, to the moment the runner reports its result:
    submit to done, as for a serve request.  (A point's own simulation
    time sits on a steep, clustered distribution whose median jumps
    between clusters from run to run; it is kept as worker busy time.)
    """
    simulated: Dict[str, float] = {}  # key -> its simulation's seconds
    done_at: Dict[str, float] = {}  # key -> latency, for the current stage
    outcomes: List[Any] = []
    start = 0.0

    def progress(_k: int, _n: int, point: Any, seconds: float,
                 cached: bool) -> None:
        key = point.content_key()
        done_at[key] = clock() - start
        if not cached:
            simulated[key] = seconds
        rss.sample()

    with tempfile.TemporaryDirectory(prefix="grid-", dir=state_root) as tmp:
        manifest = RunManifest(Path(tmp) / "run_manifest.jsonl")
        runner = ParallelRunner(
            scale=stages[0][0].scale, jobs=1, cache=None, keep_going=True,
            progress=progress, manifest=manifest,
        )
        patches = probes.Patches()
        if rec is not None:
            probes.probe_simulation(rec, patches, runner)
        try:
            start = clock()
            for stage in stages:
                done_at.clear()
                results = runner.run_points(stage)
                outcomes.extend(
                    (point, result, done_at.get(point.content_key(), math.inf))
                    for point, result in zip(stage, results)
                )
            wall = clock() - start
        finally:
            patches.undo()
            manifest.close()
    rss.sample()

    failed = instructions = 0
    latencies: List[float] = []
    resolved: Dict[str, Dict[str, Any]] = {}
    for point, result, latency in outcomes:
        label = fingerprints.point_label(point)
        ok = isinstance(result, ExecutionStats)
        if ok:
            stats = result.to_dict()
            if label not in resolved:
                resolved[label] = stats
                instructions += result.instructions
            ok = gate.check(label, stats)
        failed += not ok
        latencies.append(latency if ok else math.inf)
    return Pass(
        wall_s=wall, requests=len(outcomes), attempted=len(outcomes),
        failed=failed, instructions=instructions, latencies_s=latencies,
        busy_s=sum(simulated.values()), jobs=1,
        totals=_simulated_totals(resolved),
    )


def _layer_metrics(rec: probes.SpanRecorder, traced_wall: float,
                   cost: Dict[str, float]) -> Dict[str, float]:
    layers = {f"{layer}_s": rec.self_s[layer] for layer in probes.SELF_TIME_LAYERS}
    layers["analyze.verify_calls"] = rec.calls["analyze.verify"]
    layers["bench.traced_wall_s"] = traced_wall
    layers["bench.unattributed_s"] = traced_wall - rec.top_level_s()
    span_calls = len(rec.spans)
    layers["bench.tracing_overhead_s"] = (
        span_calls * cost["span"]
        + (rec.probe_calls() - span_calls) * cost["leaf"]
    )
    return layers


def _count_metrics(p: Pass) -> Dict[str, float]:
    totals = p.totals
    accesses = totals["l1_accesses"]
    return {
        "sim.instructions": totals["instructions"],
        "cpu.cycles": totals["cycles"],
        "mem.accesses": accesses,
        "mem.l1_miss_ratio": totals["l1_misses"] / accesses if accesses else 0.0,
    }


def _pool_metrics(p: Pass) -> Dict[str, float]:
    return {
        "experiments.worker_busy_s": p.busy_s,
        "experiments.pool_utilization": p.busy_s / (p.jobs * p.wall_s),
    }


_SERVE_ZEROS = {
    "experiments.cache_hit_ratio": 0.0,
    "experiments.cache_quarantined": 0,
    "serve.queue_wait_ms": 0.0,
    "serve.worker_s": 0.0,
    "serve.coalesce_ratio": 0.0,
    "serve.sims_per_unique_point": 0.0,
}


def _repeat(make_pass: Callable[[int], Pass], seconds: float) -> List[Pass]:
    """Passes until ``seconds`` are measured and the latency samples
    support p90 (at least one pass); ``make_pass`` gets the pass index."""
    passes: List[Pass] = []
    start = clock()
    while not passes or (
        clock() - start < seconds
        or sum(len(p.latencies_s) for p in passes) < MIN_LATENCY_SAMPLES
    ):
        passes.append(make_pass(len(passes)))
    return passes


def run_grid(seed: int, seconds: float, traced: bool, state_root: Path) -> Run:
    """``grid-tiny-cold``, serially.  ``cli all`` would use
    min(2, nproc) jobs here, but at two jobs the seed's submission order
    decides how many programs both workers build and which point runs
    last, and wall time swung 42-64 s across seeds (README.md has the
    numbers)."""
    ordered = point_sets.seeded_order(point_sets.tiny_stages(), seed)
    run = Run("grid-tiny-cold", [],
              fingerprints.Gate(fingerprints.load("tiny")), PeakRss())
    if not traced:
        run.passes = _repeat(
            lambda _k: grid_pass(ordered, run.gate, run.rss, state_root),
            seconds,
        )
        return run
    cost = probes.probe_cost()
    rec = probes.SpanRecorder()
    traced_pass = grid_pass(ordered, run.gate, run.rss, state_root, rec)
    run.passes.append(traced_pass)
    run.layers = _layer_metrics(rec, traced_pass.wall_s, cost)
    run.layers.update(_count_metrics(traced_pass))
    run.layers.update(_pool_metrics(traced_pass))
    run.layers.update(_SERVE_ZEROS)
    run.spans = rec.spans
    return run


# ---------------------------------------------------------------------------
# Serve
# ---------------------------------------------------------------------------


async def _client(port: int, requests: Sequence[List[Dict[str, Any]]],
                  samples: List[Any], rss: PeakRss) -> None:
    """One closed-loop connection: the next request goes out only when
    the previous one is done."""
    async with ServeClient(port=port) as client:
        for request in requests:
            start = clock()
            try:
                outcome = await client.submit(request, progress=True)
            except (ServeBusy, ServeConnectionError):
                outcome = None
            samples.append((request, clock() - start, outcome))
            rss.sample()


def serve_pass(
    loop: asyncio.AbstractEventLoop,
    selector: selectors.BaseSelector,
    sequences: Sequence[Sequence[List[Dict[str, Any]]]],
    state_root: Path,
    gate: fingerprints.Gate,
    rss: PeakRss,
    rec: Optional[probes.SpanRecorder] = None,
) -> Pass:
    """Start a server on a fresh disk cache, run every client's request
    sequence to completion, stop the server.  Only the client phase is
    timed; start-up (pool warm-up included) is the pass's set-up."""
    cache_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=state_root))
    try:
        server = BatchServer(ServeConfig(
            cache_dir=cache_dir, workers=SERVE_WORKERS,
        ))
        start = clock()
        loop.run_until_complete(server.start())
        setup = clock() - start
        samples: List[Any] = []

        async def clients() -> None:
            await asyncio.gather(*(
                _client(server.port, seq, samples, rss) for seq in sequences
            ))

        patches = probes.Patches()
        run_loop = loop.run_until_complete
        if rec is not None:
            probes.probe_server(rec, patches, server)
            patches.set(selector, "select",
                        rec.span("serve.loop_idle", selector.select))
            run_loop = rec.span("serve.loop", run_loop)
        try:
            start = clock()
            run_loop(clients())
            wall = clock() - start
        finally:
            patches.undo()
        rss.sample()
        counters = _server_counters(server)
        loop.run_until_complete(server.shutdown())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return _serve_outcome(samples, wall, setup, counters, gate)


def _server_counters(server: BatchServer) -> Dict[str, float]:
    stats = server.stats
    cache = server.cache
    sims = server.simulated_keys
    return {
        "points_requested": stats.points_requested,
        "cache_hits": stats.cache_hits,
        "coalesced": stats.coalesced,
        "simulated": stats.simulated,
        "busy_rejections": stats.busy_rejections,
        "failed_points": stats.failed_points,
        "cache_loads": cache.hits + cache.misses,
        "cache_load_hits": cache.hits,
        "cache_quarantined": cache.quarantined,
        "simulations": sum(sims.values()),
        "simulated_keys": len(sims),
    }


def _serve_outcome(samples: Sequence[Any], wall: float, setup: float,
                   counters: Dict[str, float], gate: fingerprints.Gate) -> Pass:
    attempted = failed = instructions = 0
    busy = 0.0
    latencies: List[float] = []
    queue_waits: List[float] = []
    resolved: Dict[str, Dict[str, Any]] = {}
    for request, latency, outcome in samples:
        attempted += len(request)
        if outcome is None:  # busy or transport failure
            failed += len(request)
            latencies.append(math.inf)
            continue
        bad = 0
        for spec, stats, source in zip(
            request, outcome.results, outcome.point_sources
        ):
            if stats is None:
                bad += 1
                continue
            label = fingerprints.point_label(point_from_wire(spec))
            resolved.setdefault(label, stats)
            if source == SOURCE_SIMULATED:
                instructions += stats["instructions"]
            bad += not gate.check(label, stats)
        failed += bad
        latencies.append(math.inf if bad else latency)
        slowest = 0.0
        for frame in outcome.progress:
            slowest = max(slowest, frame["elapsed_s"])
            if frame["source"] == SOURCE_SIMULATED:
                busy += frame["elapsed_s"]
        queue_waits.append(max(0.0, latency - slowest))
    counters = dict(counters)
    counters["queue_wait_ms"] = 1e3 * statistics.median(queue_waits) if queue_waits else 0.0
    return Pass(
        wall_s=wall, requests=len(samples), attempted=attempted,
        failed=failed, instructions=instructions, latencies_s=latencies,
        busy_s=busy, jobs=SERVE_WORKERS, setup_s=setup, counters=counters,
        totals=_simulated_totals(resolved),
    )


def _serve_layers(p: Pass) -> Dict[str, float]:
    c = p.counters
    requested = c["points_requested"]
    loads = c["cache_loads"]
    return {
        "experiments.cache_hit_ratio": c["cache_load_hits"] / loads if loads else 0.0,
        "experiments.cache_quarantined": c["cache_quarantined"],
        "serve.queue_wait_ms": c["queue_wait_ms"],
        "serve.worker_s": p.busy_s,
        "serve.coalesce_ratio": c["coalesced"] / requested if requested else 0.0,
        "serve.sims_per_unique_point": (
            c["simulations"] / c["simulated_keys"] if c["simulated_keys"] else 0.0
        ),
    }


def run_serve(seed: int, seconds: float, traced: bool, state_root: Path) -> Run:
    def sequences(k: int) -> List[List[List[Dict[str, Any]]]]:
        return point_sets.serve_requests(
            seed, k, SERVE_CLIENTS, SERVE_REQUESTS_PER_CLIENT
        )

    run = Run("serve-closed-loop", [],
              fingerprints.Gate(fingerprints.load("tiny")), PeakRss())
    selector = selectors.DefaultSelector()
    loop = asyncio.SelectorEventLoop(selector)
    try:
        if not traced:
            run.passes = _repeat(lambda k: serve_pass(
                loop, selector, sequences(k), state_root, run.gate, run.rss,
            ), seconds)
            return run
        cost = probes.probe_cost()
        rec = probes.SpanRecorder()
        traced_pass = serve_pass(
            loop, selector, sequences(0), state_root, run.gate, run.rss, rec,
        )
        run.passes.append(traced_pass)
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()
    run.layers = _layer_metrics(rec, traced_pass.wall_s, cost)
    run.layers.update(_count_metrics(traced_pass))
    run.layers.update(_pool_metrics(traced_pass))
    run.layers.update(_serve_layers(traced_pass))
    run.spans = rec.spans
    return run


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(run: Run, import_s: float) -> Dict[str, float]:
    passes = run.passes
    latencies = [x for p in passes for x in p.latencies_s]
    tail = tail_percentile(len(latencies))
    if tail < 90:
        raise RuntimeError(
            f"{len(latencies)} latency samples cannot support p90 "
            f"(highest percentile with ten beyond it: p{tail})"
        )
    setup = import_s
    serve_setups = [p.setup_s for p in passes if p.setup_s is not None]
    if serve_setups:
        setup += statistics.median(serve_setups)
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "sim_kips": statistics.median(
            p.instructions / p.wall_s / 1e3 for p in passes
        ),
        "req_per_s": statistics.median(p.requests / p.wall_s for p in passes),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p90_ms": 1e3 * percentile(latencies, 90),
        "setup_s": setup,
        "peak_rss_mb": run.rss.mb,
    }
