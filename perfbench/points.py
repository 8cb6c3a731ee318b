"""The point sets the workloads run, and the orders the seed sets.

Grid point sets are not written down here: they are captured from the
experiment functions themselves (``repro.experiments.cli.EXPERIMENTS``),
so the benchmark asks for exactly the points a user's ``cli all`` asks
for, experiment by experiment.  Image inputs stay those of the seeded
generators inside ``repro.workloads``; the benchmark seed only orders
grid points and serve requests.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Sequence

from repro.experiments.cli import EXPERIMENTS
from repro.experiments.parallel import SimPoint
from repro.workloads.params import TINY_SCALE
from repro.workloads.suite import KERNEL_NAMES

#: serve universe: {6 kernels, cjpeg, djpeg} x {scalar, vis} x the three
#: Figure 1 processor configs, at the tiny scale (48 points)
SERVE_BENCHMARKS = KERNEL_NAMES + ("cjpeg", "djpeg")
SERVE_VARIANTS = ("scalar", "vis")
SERVE_CPUS = ("inorder-1way", "inorder-4way", "ooo-4way")

#: Zipf exponent of the serve popularity distribution
ZIPF_S = 1.0

#: fixed popularity ranking of the serve universe.  It is a constant,
#: not the run seed, so every seed sees the same hot points and the
#: seed only orders the draws; a seeded ranking would turn the seed
#: into a cost knob (a hot cjpeg is far dearer than a hot addition).
POPULARITY_SEED = 1999

POINTS_PER_REQUEST = 3


class _Captured(Exception):
    """Raised by :class:`_PointRecorder` to stop an experiment after its grid
    is known, before anything is simulated."""


class _PointRecorder:
    """RunCache-protocol stand-in (``.scale`` + ``.run_points``) that
    records the grid an experiment function asks for."""

    def __init__(self, scale) -> None:
        self.scale = scale
        self.points: List[SimPoint] = []

    def run_points(self, points: Sequence[SimPoint]) -> list:
        self.points.extend(points)
        raise _Captured


def tiny_stages() -> List[List[SimPoint]]:
    """The grid each ``cli all --scale tiny`` experiment asks for, in
    the CLI's order: 246 requested points, 144 unique.  Points repeat
    across experiments; like the CLI, the benchmark serves the repeats
    from an in-run manifest."""
    stages = []
    for key in sorted(EXPERIMENTS):
        recorder = _PointRecorder(TINY_SCALE)
        try:
            EXPERIMENTS[key][1](recorder, None)
        except _Captured:
            pass
        stages.append(recorder.points)
    return stages


def unique_points(stages: Sequence[Sequence[SimPoint]]) -> List[SimPoint]:
    seen: Dict[str, SimPoint] = {}
    for stage in stages:
        for point in stage:
            seen.setdefault(point.content_key(), point)
    return list(seen.values())


def seeded_order(
    stages: Sequence[Sequence[SimPoint]], seed: int
) -> List[List[SimPoint]]:
    """The submission order for one run.

    Within each stage the seed shuffles whole programs (the consecutive
    points of one benchmark and variant), keeping each program's points
    in the experiment's order; the stages keep the CLI's order.  So the
    seed moves programs around but never changes which point of a
    program is timed first and pays for its build and lint gate.
    """
    rng = random.Random(seed)
    ordered = []
    for stage in stages:
        programs: List[List[SimPoint]] = []
        for point in stage:
            last = programs[-1][-1] if programs else None
            if last is not None and (last.benchmark, last.variant) == (
                point.benchmark, point.variant
            ):
                programs[-1].append(point)
            else:
                programs.append([point])
        rng.shuffle(programs)
        ordered.append([point for program in programs for point in program])
    return ordered


def serve_universe() -> List[Dict[str, Any]]:
    """Wire specs of the serve universe, in popularity order (rank 1
    first)."""
    specs = [
        {"benchmark": b, "variant": v, "cpu": c, "scale": "tiny"}
        for b in SERVE_BENCHMARKS
        for v in SERVE_VARIANTS
        for c in SERVE_CPUS
    ]
    random.Random(POPULARITY_SEED).shuffle(specs)
    return specs


def zipf_weights(n: int, s: float = ZIPF_S) -> List[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def zipf_counts(n: int, total: int, s: float = ZIPF_S) -> List[int]:
    """Draws per popularity rank: the Zipf share of ``total``, rounded
    by largest remainder, with every rank drawn at least once."""
    weights = zipf_weights(n, s)
    norm = sum(weights)
    exact = [total * w / norm for w in weights]
    counts = [max(1, math.floor(x)) for x in exact]
    spare = total - sum(counts)
    if spare < 0:
        raise ValueError(f"{total} draws cannot cover {n} points")
    by_remainder = sorted(range(n), key=lambda i: exact[i] - counts[i],
                          reverse=True)
    for i in by_remainder[:spare]:
        counts[i] += 1
    return counts


def serve_requests(
    seed: int, pass_index: int, clients: int, per_client: int
) -> List[List[List[Dict[str, Any]]]]:
    """The seeded request sequence of every client for one pass:
    ``per_client`` requests of :data:`POINTS_PER_REQUEST` points each.

    The draws are stratified: a pass draws each point exactly its Zipf
    share of the pass's points (every point at least once), and the
    seed shuffles those draws into requests.  So every seed asks for
    the same work in a different order and grouping; a plain random
    draw would make the seed choose how many cold points a pass meets.
    Each pass of a run takes its own order, so a run's medians average
    over orders instead of repeating one.
    One request may name a point twice (the server coalesces it)."""
    universe = serve_universe()
    total = clients * per_client * POINTS_PER_REQUEST
    draws = [
        spec
        for spec, count in zip(universe, zipf_counts(len(universe), total))
        for _ in range(count)
    ]
    random.Random(f"{seed}:{pass_index}").shuffle(draws)
    requests = [
        draws[i:i + POINTS_PER_REQUEST]
        for i in range(0, total, POINTS_PER_REQUEST)
    ]
    return [requests[client::clients] for client in range(clients)]
