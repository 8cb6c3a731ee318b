"""Self-tests of the benchmark (not part of the program's tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench

The smoke tests run every workload in-process on a cut-down point set
or request sequence, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import drive  # noqa: E402
import fingerprints  # noqa: E402
import points as point_sets  # noqa: E402
import run  # noqa: E402
from repro.serve.client import SubmitOutcome  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_well_formed_and_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    for name in [*e2e, *layers, *(w["name"] for w in BENCHMARK["workloads"])]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    stems = {f"{layer}_s" for layer in drive.probes.SELF_TIME_LAYERS}
    assert stems <= set(layers)


@pytest.mark.parametrize("n", [1, 10, 11, 20, 99, 100, 101, 144, 480, 1000])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    p = drive.tail_percentile(n)
    beyond = lambda q: n - max(1, math.ceil(q * n / 100))  # noqa: E731
    if n <= 10:
        assert p == -1
        return
    assert beyond(p) >= 10
    assert p == 99 or beyond(p + 1) < 10


def test_tail_percentile_of_one_hundred_is_p90():
    assert drive.tail_percentile(100) == 90
    assert drive.tail_percentile(99) < 90


def test_percentile_counts_failures_as_over_any_limit():
    values = [0.1] * 95 + [math.inf] * 5
    assert drive.percentile(values, 90) == 0.1
    assert drive.percentile(values, 96) == math.inf


def test_same_seed_same_serve_sequence():
    a = point_sets.serve_requests(7, 0, 2, 30)
    assert a == point_sets.serve_requests(7, 0, 2, 30)
    assert a != point_sets.serve_requests(8, 0, 2, 30)
    assert a != point_sets.serve_requests(7, 1, 2, 30)

    def drawn(sequence):
        return sorted(json.dumps(spec, sort_keys=True)
                      for client in sequence for req in client
                      for spec in req)

    # every seed and pass draws the same points, in another order
    assert drawn(a) == drawn(point_sets.serve_requests(8, 1, 2, 30))
    assert all(len(req) == point_sets.POINTS_PER_REQUEST
               for client in a for req in client)


def test_serve_universe_is_in_the_tiny_fingerprints():
    expected = fingerprints.load("tiny")
    from repro.serve.protocol import point_from_wire

    labels = {fingerprints.point_label(point_from_wire(spec))
              for spec in point_sets.serve_universe()}
    assert len(labels) == 48
    assert labels <= set(expected)


def _flat(stages):
    return [point for stage in stages for point in stage]


def test_grid_point_set_matches_its_fingerprints():
    tiny = point_sets.tiny_stages()
    assert len(_flat(tiny)) == 246
    assert len(point_sets.unique_points(tiny)) == 144
    assert {fingerprints.point_label(p) for p in _flat(tiny)} == \
        set(fingerprints.load("tiny"))


def test_seed_orders_whole_programs():
    stages = point_sets.tiny_stages()
    a = point_sets.seeded_order(stages, 1)
    assert a == point_sets.seeded_order(stages, 1)
    assert a != point_sets.seeded_order(stages, 2)
    for before, after in zip(stages, a):
        assert sorted(p.content_key() for p in before) == \
            sorted(p.content_key() for p in after)

        def firsts(stage):
            seen = {}
            for p in stage:
                seen.setdefault((p.benchmark, p.variant), p.content_key())
            return seen

        assert firsts(before) == firsts(after)


def _cheap_tiny_points(count):
    grid = [p for p in point_sets.unique_points(point_sets.tiny_stages())
            if p.benchmark == "addition"]
    return grid[:count]


def test_fingerprint_mismatch_raises_failed_ratio(tmp_path):
    points = _cheap_tiny_points(3)
    expected = dict(fingerprints.load("tiny"))
    victim = fingerprints.point_label(points[1])
    expected[victim] = dict(expected[victim], sha256="0" * 64)
    gate = fingerprints.Gate(expected)
    result = drive.grid_pass([points], gate, drive.PeakRss(), tmp_path)
    assert gate.mismatches == [victim]
    assert result.failed == 1
    assert drive.failed_ratio(result.attempted, result.failed) == 1 / 3
    assert math.isinf(max(result.latencies_s))


def test_serve_point_failed_raises_failed_ratio():
    spec = point_sets.serve_universe()[0]
    from repro.serve.protocol import point_from_wire

    label = fingerprints.point_label(point_from_wire(spec))
    good = SubmitOutcome(rid="1", ok=1, results=[None], failures=[None],
                         point_sources=["cache"])
    good.results[0] = _stats_for(label)
    failed = SubmitOutcome(rid="2", ok=0, failed=1, results=[None],
                           failures=[{"status": "error"}],
                           point_sources=[None])
    gate = fingerprints.Gate(fingerprints.load("tiny"))
    samples = [([spec], 0.01, good), ([spec], 0.02, failed),
               ([spec], 0.03, None)]  # None: busy / transport failure
    result = drive._serve_outcome(samples, 1.0, 0.5, {}, gate)
    assert (result.attempted, result.failed) == (3, 2)
    assert not gate.mismatches
    assert result.latencies_s[0] == 0.01
    assert all(math.isinf(x) for x in result.latencies_s[1:])


def _stats_for(label):
    """A real stats payload for a tiny point (simulated once)."""
    for point in point_sets.unique_points(point_sets.tiny_stages()):
        if fingerprints.point_label(point) == label:
            from repro.experiments.parallel import ParallelRunner

            stats = ParallelRunner(scale=point.scale).run_points([point])[0]
            return json.loads(json.dumps(stats.to_dict()))
    raise KeyError(label)


def test_probes_split_traced_wall_exactly(tmp_path):
    points = _cheap_tiny_points(4)
    rec = drive.probes.SpanRecorder()
    gate = fingerprints.Gate(fingerprints.load("tiny"))
    result = drive.grid_pass([points], gate, drive.PeakRss(), tmp_path, rec)
    layers = drive._layer_metrics(rec, result.wall_s, {"span": 0, "leaf": 0})
    covered = sum(layers[f"{layer}_s"] for layer in drive.probes.SELF_TIME_LAYERS)
    assert covered + layers["bench.unattributed_s"] == pytest.approx(result.wall_s)
    for layer in ("workloads.build", "analyze.verify", "sim.functional",
                  "mem.access", "cpu.timing"):
        assert rec.self_s[layer] > 0, layer
    assert layers["analyze.verify_calls"] == 4
    # the probes are gone after the pass
    from repro.experiments import runner as run_mod
    from repro.workloads import suite

    assert "build" not in vars(suite.ALL_WORKLOADS[0])
    assert run_mod.verify_program.__module__ == "repro.analyze.verify"


@pytest.fixture
def small_sets(monkeypatch):
    """Cut every workload down to a few seconds of work."""
    tiny = _cheap_tiny_points(25)
    # the second stage repeats two points: the manifest answers them
    monkeypatch.setattr(point_sets, "tiny_stages",
                        lambda: [tiny[:5], tiny[3:]])
    monkeypatch.setattr(drive, "SERVE_REQUESTS_PER_CLIENT", 60)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(small_sets, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert run._child_pids() == []  # pool workers and tracker reaped
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert any(line.strip().startswith(name + " ") for line in out), name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_repro_overrides(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_ENGINE", "scalar")
    code = run.main(["--workload", "grid-tiny-cold", "--seed", "1",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-tiny-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
