"""Per-point output fingerprints: the benchmark's correctness gate.

Every point a run resolves is checked against a committed fingerprint:
the sha256 of its canonical :class:`~repro.cpu.stats.ExecutionStats`
payload.  A missing or different fingerprint counts as a failed
operation and makes the run exit nonzero.

The files under ``fingerprints/`` were recorded by running this module
on a clean tree::

    python3 perfbench/fingerprints.py --record

Recording simulates every point once, cross-checks the tiny set
against the committed golden CSVs (``tests/golden/*_tiny.csv``, read
only) by re-rendering the figures from the recorded stats, and refuses
to write anything if a golden differs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

HERE = Path(__file__).resolve().parent
FINGERPRINT_DIR = HERE / "fingerprints"

def point_label(point) -> str:
    """Stable, human-readable identity of a point within one scale.

    Unlike ``SimPoint.content_key`` it leaves out the registry and
    analyzer version stamps, so a change that only bumps a stamp still
    finds its fingerprints (and must reproduce them)."""
    return (
        f"{point.benchmark}[{point.variant.value}]@{point.cpu.name}"
        f"/l1={point.mem.l1_size}/l2={point.mem.l2_size}"
    )


def fingerprint(stats_dict: Mapping[str, Any]) -> str:
    """sha256 of the canonical JSON of a stats payload.

    The payload goes through ``ExecutionStats.from_dict`` first, so a
    dict read back from JSON or the wire (histogram keys as strings)
    hashes the same as the in-memory stats (integer keys)."""
    from repro.cpu.stats import ExecutionStats

    canonical = ExecutionStats.from_dict(dict(stats_dict)).to_dict()
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def path_for(scale: str) -> Path:
    return FINGERPRINT_DIR / f"{scale}.json"


def load(scale: str) -> Dict[str, Dict[str, Any]]:
    """label -> {"sha256", "instructions", "cycles", "l1_accesses",
    "l1_misses"} for one scale."""
    with open(path_for(scale), encoding="utf-8") as f:
        return json.load(f)["points"]


def record_entry(stats) -> Dict[str, Any]:
    memory = stats.memory
    return {
        "sha256": fingerprint(stats.to_dict()),
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "l1_accesses": memory.l1_accesses if memory else 0,
        "l1_misses": memory.l1_misses if memory else 0,
    }


class Gate:
    """Checks results against one scale's fingerprints and counts
    mismatches (a point with no fingerprint is a mismatch too)."""

    def __init__(self, expected: Mapping[str, Mapping[str, Any]]) -> None:
        self.expected = expected
        self.mismatches: List[str] = []

    def check(self, label: str, stats_dict: Mapping[str, Any]) -> bool:
        want = self.expected.get(label)
        if want is None or fingerprint(stats_dict) != want["sha256"]:
            self.mismatches.append(label)
            return False
        return True


# ---------------------------------------------------------------------------
# Recording (run once on the commit the fingerprints describe)
# ---------------------------------------------------------------------------


class _ReplayRunner:
    """RunCache-protocol runner that answers from recorded stats."""

    def __init__(self, scale, stats_by_key: Mapping[str, Any]) -> None:
        self.scale = scale
        self.stats_by_key = stats_by_key

    def run_points(self, points: Sequence) -> list:
        return [self.stats_by_key[p.content_key()] for p in points]


def golden_diffs(scale, stats_by_key, out_dir: Path) -> List[str]:
    """Re-render the golden figures from recorded stats; return the
    names whose CSV differs from ``tests/golden`` (read only)."""
    from repro.experiments import figures
    from repro.experiments.report import write_csv

    golden_dir = HERE.parent / "tests" / "golden"
    figures_by_name = {  # the figures committed as tiny-scale goldens
        "figure1": figures.figure1,
        "figure2": figures.figure2,
        "figure3": figures.figure3,
        "l2_sweep": lambda r: figures.cache_sweep(r, "l2"),
        "l1_sweep": lambda r: figures.cache_sweep(r, "l1"),
    }
    runner = _ReplayRunner(scale, stats_by_key)
    diffs = []
    for name, render in figures_by_name.items():
        headers, rows, _raw = render(runner)
        rendered = write_csv(out_dir / f"{name}_tiny.csv", headers, rows)
        golden = golden_dir / f"{name}_tiny.csv"
        if rendered.read_bytes() != golden.read_bytes():
            diffs.append(name)
    return diffs


def _simulate_all(points, jobs: int) -> Dict[str, Any]:
    from repro.experiments.parallel import ParallelRunner

    runner = ParallelRunner(scale=points[0].scale, jobs=jobs, cache=None)
    results = runner.run_points(points)
    return {p.content_key(): s for p, s in zip(points, results)}


def record(jobs: int = 2) -> int:
    """Simulate every tiny point, check the goldens, write the file."""
    import tempfile

    import points as point_sets
    from repro.workloads.params import TINY_SCALE

    grid = point_sets.unique_points(point_sets.tiny_stages())
    stats_by_key = _simulate_all(grid, jobs)
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        diffs = golden_diffs(TINY_SCALE, stats_by_key, Path(tmp))
    if diffs:
        raise SystemExit(
            f"recorded tiny stats disagree with tests/golden for "
            f"{', '.join(diffs)}; refusing to write fingerprints"
        )
    entries = {}
    for point in grid:
        label = point_label(point)
        if label in entries:
            raise SystemExit(f"duplicate point label {label}")
        entries[label] = record_entry(stats_by_key[point.content_key()])
    FINGERPRINT_DIR.mkdir(exist_ok=True)
    with open(path_for("tiny"), "w", encoding="utf-8") as f:
        json.dump({"scale": "tiny", "points": entries}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    return len(entries)


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help="simulate every point and rewrite the file")
    parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    count = record()
    print(f"recorded {count} tiny fingerprints; they match tests/golden")
