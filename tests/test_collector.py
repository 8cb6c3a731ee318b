"""Cyclic-collector discipline of the simulation path.

``RunCache.run`` pauses CPython's cyclic garbage collector for each
point (``runner.collector_paused``) and restores the caller's state
afterwards.  That is only safe because the per-program state a cache
keeps alive -- built program, static info, lint report, machine and
its decoded/compiled code -- holds no reference cycle, so reference
counting frees a dropped cache at once.  These tests pin both halves:
the pause/restore contract, and the acyclic invariant that keeps peak
memory flat while the collector is paused.
"""

import gc
import weakref

import pytest

from repro.cpu.config import ProcessorConfig
from repro.experiments import parallel, runner
from repro.experiments.parallel import SimPoint, _simulate_point
from repro.experiments.runner import RunCache, collector_paused
from repro.sim.machine import SimulationError
from repro.workloads import TINY_SCALE, Variant

MEM = TINY_SCALE.memory_config()


@pytest.fixture
def collector_state():
    """Run the test with the collector enabled; restore it afterwards
    whatever the test did to it."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def enabled_during_run(monkeypatch):
    """Record ``gc.isenabled()`` at the moment each point simulates."""
    seen = []
    real = runner.simulate_program

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "simulate_program", spy)
    return seen


class TestCollectorPaused:
    def test_disabled_while_a_point_runs_then_restored(
        self, collector_state, enabled_during_run
    ):
        cache = RunCache(scale=TINY_SCALE)
        cache.run("addition", Variant.VIS, ProcessorConfig.ooo_4way(), MEM)
        assert enabled_during_run == [False]
        assert gc.isenabled()

    def test_restored_when_the_point_raises(
        self, collector_state, enabled_during_run
    ):
        cache = RunCache(scale=TINY_SCALE, max_steps=10)
        with pytest.raises(SimulationError, match="step-budget watchdog"):
            cache.run(
                "addition", Variant.VIS, ProcessorConfig.ooo_4way(), MEM
            )
        assert enabled_during_run == [False]
        assert gc.isenabled()

    def test_already_disabled_caller_is_left_disabled(self, collector_state):
        gc.disable()
        point = ("addition", Variant.VIS, ProcessorConfig.ooo_4way(), MEM)
        RunCache(scale=TINY_SCALE).run(*point)
        assert not gc.isenabled()
        with pytest.raises(SimulationError, match="step-budget watchdog"):
            RunCache(scale=TINY_SCALE, max_steps=10).run(*point)
        assert not gc.isenabled()

    def test_nested_pause_restores_only_at_the_outermost_exit(
        self, collector_state
    ):
        cache = RunCache(scale=TINY_SCALE)
        with collector_paused():
            cache.run(
                "addition", Variant.SCALAR, ProcessorConfig.ooo_4way(), MEM
            )
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


def _program_state_refs(cache, key):
    """Weak references to the per-program state ``cache`` keeps for
    ``key``: the built program, its static info and its machine."""
    program = cache.built(*key).program
    return {
        "program": weakref.ref(program),
        "static_info": weakref.ref(runner.static_info(program)),
        "machine": weakref.ref(cache._machines[key]),
    }


def _assert_reclaimed_without_collector(refs):
    """Every weakref is dead and no cyclic garbage is left behind."""
    dead = {name: ref() is None for name, ref in refs.items()}
    assert all(dead.values()), f"kept alive by a reference cycle: {dead}"
    assert gc.collect() == 0


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize(
    "cpu",
    [ProcessorConfig.inorder_1way(), ProcessorConfig.ooo_4way()],
    ids=["in-order", "ooo"],
)
def test_dropped_cache_is_freed_by_reference_counting(
    collector_state, engine, cpu
):
    gc.collect()
    gc.disable()
    cache = RunCache(scale=TINY_SCALE, engine=engine)
    key = ("djpeg", Variant.VIS_PREFETCH)
    # Twice: the second run re-times through the vector engine's
    # replayed trace and compiled blocks.
    for _ in range(2):
        cache.run(*key, cpu, MEM)
    refs = _program_state_refs(cache, key)
    del cache
    _assert_reclaimed_without_collector(refs)


def test_checkpointed_worker_cache_is_freed_by_reference_counting(
    collector_state, monkeypatch, tmp_path
):
    monkeypatch.setattr(parallel, "_WORKER_CACHES", {})
    gc.collect()
    gc.disable()
    point = SimPoint(
        "addition", Variant.SCALAR, ProcessorConfig.ooo_4way(), MEM,
        TINY_SCALE,
    )
    _stats, _elapsed, resumed_from = _simulate_point(
        point, validate=True, checkpoint_dir=tmp_path,
        checkpoint_interval=2000, checkpoint_keep=2,
    )
    assert resumed_from is None
    assert list(tmp_path.glob("*/ckpt_*")), "the run wrote snapshots"
    (cache,) = parallel._WORKER_CACHES.values()
    refs = _program_state_refs(cache, ("addition", Variant.SCALAR))
    del cache
    parallel._WORKER_CACHES.clear()
    _assert_reclaimed_without_collector(refs)
