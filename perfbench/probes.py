"""Layer probes for the traced run.

The program carries no spans of its own yet, so the traced run wraps
the public functions and objects each layer hands to the next, from
the benchmark's side, and restores them afterwards.  Untraced runs
install nothing.

A span's *self time* is its duration minus the time of the spans it
directly encloses, so the self times of all spans add up to the time
covered by top-level spans; ``bench.unattributed_s`` is the rest of
the traced wall time.

``mem.access`` runs once per simulated memory request (1.5 million
calls in the tiny grid), so it is a *leaf*: its time and count are
summed into the enclosing span instead of being kept as one record per
call.  Every other span is kept in memory as ``(layer, depth, start,
end)`` and written out when the run ends.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

#: layers whose self time the traced run reports, as metric stems
#: (``<stem>_s``); their sum plus ``bench.unattributed_s`` is the
#: traced wall time
SELF_TIME_LAYERS = (
    "workloads.build",
    "workloads.validate",
    "analyze.verify",
    "sim.functional",
    "mem.access",
    "cpu.timing",
    "experiments.runner",
    "experiments.cache_load",
    "experiments.cache_store",
    "serve.journal",
    "serve.loop_idle",
    "serve.loop",
)


class SpanRecorder:
    """In-memory span store with per-layer self time and call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in SELF_TIME_LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in SELF_TIME_LAYERS}
        self.spans: List[Tuple[str, int, float, float]] = []
        # child time of each open span; index 0 is the traced pass itself
        self._open: List[List[float]] = [[0.0]]

    def _frame_time(self, layer: str, start: float, end: float,
                    frame: List[float]) -> None:
        duration = end - start
        self.self_s[layer] += duration - frame[0]
        self.calls[layer] += 1
        self._open[-1][0] += duration
        self.spans.append((layer, len(self._open), start, end))

    def span(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so every call is one span of ``layer``."""
        clock = time.perf_counter
        stack = self._open

        def spanned(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._frame_time(layer, start, end, frame)

        return spanned

    def leaf(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a hot function that calls no other probe: time and
        count only, no span record."""
        clock = time.perf_counter
        stack = self._open
        totals = self.self_s
        counts = self.calls

        def timed(*args: Any) -> Any:
            start = clock()
            try:
                return fn(*args)
            finally:
                duration = clock() - start
                totals[layer] += duration
                counts[layer] += 1
                stack[-1][0] += duration

        return timed

    def chunks(self, layer: str, gen_fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a generator function so producing each item is one span
        (the functional engine yields one trace chunk per item)."""
        clock = time.perf_counter
        stack = self._open

        def spanned_gen(*args: Any, **kwargs: Any) -> Any:
            inner = gen_fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    self._frame_time(layer, start, end, frame)
                yield item

        return spanned_gen

    def top_level_s(self) -> float:
        """Time covered by top-level spans (= the sum of self times)."""
        return self._open[0][0]

    def probe_calls(self) -> int:
        return sum(self.calls.values())


class Patches:
    """Attribute replacements that :meth:`undo` restores in reverse."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def set(self, obj: Any, name: str, value: Any) -> None:
        getattr(obj, name)  # a missing target is a broken probe: fail loudly
        own = vars(obj)
        self._undo.append((obj, name, name in own, own.get(name)))
        setattr(obj, name, value)

    def undo(self) -> None:
        while self._undo:
            obj, name, had, old = self._undo.pop()
            if had:
                setattr(obj, name, old)
            else:
                delattr(obj, name)


def probe_simulation(rec: SpanRecorder, patches: Patches, runner: Any) -> None:
    """Probe an in-process grid pass run by ``runner`` (a
    ``ParallelRunner`` with ``jobs=1``).

    Layer boundaries, all of which the serial path reaches through
    ``repro.experiments.runner``:

    * ``experiments.runner`` — ``runner.run_points`` (the rest of the
      runner and ``RunCache`` is its self time);
    * ``workloads.build`` — each registered ``Workload.build`` and the
      per-program static decode (``static_info``);
    * ``workloads.validate`` — each built program's ``validate``;
    * ``analyze.verify`` — the lint gate, ``verify_program``;
    * ``sim.functional`` — engine construction, ``reset`` and every
      trace chunk the engine's ``run`` produces;
    * ``cpu.timing`` — model construction and ``model.simulate`` (its
      self time excludes the chunks and memory accesses it drives);
    * ``mem.access`` — ``MemorySystem`` construction and every
      ``access`` (leaf).
    """
    from repro.experiments import runner as run_mod
    from repro.workloads import suite

    patches.set(runner, "run_points",
                rec.span("experiments.runner", runner.run_points))
    patches.set(run_mod, "verify_program",
                rec.span("analyze.verify", run_mod.verify_program))
    patches.set(run_mod, "static_info",
                rec.span("workloads.build", run_mod.static_info))

    make_machine = rec.span("sim.functional", run_mod.make_machine)

    def probed_machine(*args: Any, **kwargs: Any) -> Any:
        machine = make_machine(*args, **kwargs)
        machine.run = rec.chunks("sim.functional", machine.run)
        machine.reset = rec.span("sim.functional", machine.reset)
        return machine

    patches.set(run_mod, "make_machine", probed_machine)

    make_model = rec.span("cpu.timing", run_mod.make_model)

    def probed_model(*args: Any, **kwargs: Any) -> Any:
        model = make_model(*args, **kwargs)
        model.simulate = rec.span("cpu.timing", model.simulate)
        return model

    patches.set(run_mod, "make_model", probed_model)

    make_memory = rec.span("mem.access", run_mod.MemorySystem)

    def probed_memory(*args: Any, **kwargs: Any) -> Any:
        memory = make_memory(*args, **kwargs)
        memory.access = rec.leaf("mem.access", memory.access)
        return memory

    patches.set(run_mod, "MemorySystem", probed_memory)

    for workload in suite.ALL_WORKLOADS:
        build = rec.span("workloads.build", workload.build)

        def probed_build(*args: Any, _build=build, **kwargs: Any) -> Any:
            built = _build(*args, **kwargs)
            built.validate = rec.span("workloads.validate", built.validate)
            return built

        patches.set(workload, "build", probed_build)


#: journal writes the server makes while serving
JOURNAL_WRITES = ("record_admitted", "record_ok", "record_failure", "compact")


def probe_server(rec: SpanRecorder, patches: Patches, server: Any) -> None:
    """Probe a started in-process ``BatchServer``: its disk cache
    (``experiments.cache_load`` / ``experiments.cache_store``) and its
    request journal (``serve.journal``).  The event loop's own probes
    (``serve.loop`` and ``serve.loop_idle``) are set up by the caller,
    which owns the loop."""
    cache = server.cache
    patches.set(cache, "load", rec.span("experiments.cache_load", cache.load))
    patches.set(cache, "store",
                rec.span("experiments.cache_store", cache.store))
    journal = server.journal
    for name in JOURNAL_WRITES:
        patches.set(journal, name, rec.span("serve.journal",
                                            getattr(journal, name)))


def probe_cost(calls: int = 200_000) -> Dict[str, float]:
    """Seconds each probe kind adds per call, measured here and now by
    timing a wrapped no-op against the bare no-op (median of three)."""
    clock = time.perf_counter

    def noop(*_args: Any) -> None:
        return None

    def per_call(fn: Callable[..., Any]) -> float:
        samples = []
        for _ in range(3):
            start = clock()
            for _ in range(calls):
                fn()
            samples.append((clock() - start) / calls)
        return sorted(samples)[1]

    bare = per_call(noop)
    rec = SpanRecorder()
    span = per_call(rec.span("sim.functional", noop)) - bare
    leaf = per_call(rec.leaf("mem.access", noop)) - bare
    return {"span": max(0.0, span), "leaf": max(0.0, leaf)}
