"""Glue: build a benchmark, run it functionally, feed the trace to a
timing model, validate the output, return :class:`ExecutionStats`.

With ``audit=True`` (or an explicit :class:`~repro.trace.Tracer`)
every run also streams per-cycle events through the tracing layer and
:func:`repro.trace.audit.audit_run` proves the stall/instruction
decompositions conserve exactly — any divergence raises
:class:`~repro.trace.AuditError`."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from ..analyze import verify_program
from ..cpu.config import ProcessorConfig
from ..cpu.pipeline import make_model
from ..cpu.stats import ExecutionStats
from ..mem.config import MemoryConfig
from ..mem.system import MemorySystem
from ..sim.engine import make_machine
from ..sim.machine import Machine
from ..sim.static_info import StaticProgramInfo
from ..trace import AuditReport, Tracer, audit_run
from ..workloads.base import BuiltWorkload, Variant
from ..workloads.params import DEFAULT_SCALE, WorkloadScale
from ..workloads.suite import get


def simulate_program(
    program,
    cpu_config: ProcessorConfig,
    mem_config: MemoryConfig,
    benchmark: str = "",
    machine: Optional[Machine] = None,
    tracer: Optional[Tracer] = None,
    audit: bool = False,
    max_steps: Optional[int] = None,
    max_cycles: Optional[int] = None,
    lint: bool = True,
    lint_memo_dir: Optional[Path] = None,
    checkpoint=None,
    engine: Optional[str] = None,
) -> Tuple[ExecutionStats, Machine]:
    """Run one program through the functional machine + timing model.

    ``tracer`` attaches an existing :class:`~repro.trace.Tracer` (with
    whatever sinks it carries); ``audit=True`` builds one on the fly if
    needed and raises :class:`~repro.trace.AuditError` on any
    attribution divergence.  With neither, the timing hot paths run
    exactly as before — tracing is strictly pay-for-use.

    ``max_steps`` / ``max_cycles`` are the runaway watchdogs: a bound
    on functionally executed instructions (``None`` = the machine's
    size-proportional default budget) and on simulated cycles (``None``
    = unbounded); both raise
    :class:`~repro.sim.machine.SimulationError` instead of hanging.

    ``lint`` (default on) statically verifies the program before the
    first simulated cycle: the :mod:`repro.analyze` gate raises
    :class:`~repro.analyze.VerificationError` on uninitialized reads,
    provably out-of-bounds accesses, GSR-state misuse, or malformed
    control flow.  The analysis report is memoized on the program
    object, so re-running the same built program (the common case
    across an experiment grid) verifies once.  ``lint=False`` is the
    escape hatch (CLI ``--no-lint``) for deliberately-broken programs.
    ``lint_memo_dir`` points the gate at the persistent digest-keyed
    verdict memo (see :func:`repro.analyze.verify_program`) so repeat
    runs pay only a content hash.

    ``checkpoint`` (a :class:`repro.checkpoint.CheckpointSession`)
    arms cycle-level checkpointing: the run restores from the newest
    valid snapshot in the session directory (if any) and writes a new
    snapshot every ``checkpoint.interval`` simulated cycles.  Final
    stats are byte-identical to an unarmed run.

    ``engine`` selects the execution engine for a machine built here
    (``scalar`` / ``vector``; ``None`` = ``REPRO_ENGINE`` or the
    default).  It is ignored when ``machine`` is passed in.  Either
    engine produces byte-identical stats.
    """
    stats, machine, _report = _simulate(
        program, cpu_config, mem_config, benchmark, machine, tracer, audit,
        max_steps, max_cycles, lint, lint_memo_dir, checkpoint, engine,
    )
    return stats, machine


def audited_simulate(
    program,
    cpu_config: ProcessorConfig,
    mem_config: MemoryConfig,
    benchmark: str = "",
    machine: Optional[Machine] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[ExecutionStats, AuditReport, Machine]:
    """Like :func:`simulate_program` with ``audit=True``, but also
    returns the :class:`~repro.trace.AuditReport` (already verified)."""
    stats, machine, report = _simulate(
        program, cpu_config, mem_config, benchmark, machine, tracer, True,
        max_steps=None, max_cycles=None, lint=True,
    )
    assert report is not None
    return stats, report, machine


def static_info(program) -> StaticProgramInfo:
    """Per-program :class:`StaticProgramInfo`, cached on the program
    object — it is pure static metadata, and one grid re-times each
    built program under several processor configs."""
    info = getattr(program, "_static_info_cache", None)
    if info is None:
        info = StaticProgramInfo(program)
        try:
            program._static_info_cache = info
        except AttributeError:
            pass
    return info


def _simulate(
    program,
    cpu_config: ProcessorConfig,
    mem_config: MemoryConfig,
    benchmark: str,
    machine: Optional[Machine],
    tracer: Optional[Tracer],
    audit: bool,
    max_steps: Optional[int] = None,
    max_cycles: Optional[int] = None,
    lint: bool = True,
    lint_memo_dir: Optional[Path] = None,
    checkpoint=None,
    engine: Optional[str] = None,
) -> Tuple[ExecutionStats, Machine, Optional[AuditReport]]:
    if lint:
        # Pre-run gate: provably-wrong programs never reach the
        # simulator.  Memoized on the program object, so repeated runs
        # of one built program (an experiment grid) verify once; with a
        # memo dir the verdict additionally persists across processes.
        verify_program(program, memo_dir=lint_memo_dir)
    machine = machine or make_machine(program, engine)
    machine.reset()
    info = static_info(program)
    if tracer is None and audit:
        tracer = Tracer(info, cpu_config.issue_width)
    memory = MemorySystem(mem_config, tracer=tracer)
    model = make_model(
        info, cpu_config, memory, tracer=tracer, max_cycles=max_cycles
    )
    if checkpoint is not None:
        from ..checkpoint import run_with_checkpoints

        stats = run_with_checkpoints(
            checkpoint, machine, model, memory, tracer,
            benchmark or program.name, max_steps=max_steps,
        )
    else:
        stats = model.simulate(
            machine.run(max_instructions=max_steps, observer=tracer),
            benchmark or program.name,
        )
    stats.check_consistency()
    report = None
    if tracer is not None:
        tracer.close()
        if audit:
            report = audit_run(stats, tracer).raise_if_failed()
    return stats, machine, report


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable automatic cyclic garbage collection for the block and
    restore the previous state on exit, also when the block raises.

    Simulation allocates millions of short-lived tracked objects, and
    each automatic full collection rescans everything a
    :class:`RunCache` keeps alive (hundreds of milliseconds per pass
    late in a grid).  Per-program state is acyclic (DESIGN.md §8), so
    reference counting alone frees it and pausing loses nothing."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class RunCache:
    """Builds (program construction is expensive for the codecs) and
    functional validations are cached per (benchmark, variant, scale)."""

    scale: WorkloadScale = DEFAULT_SCALE
    validate: bool = True
    #: when True every run is audited against the event-stream
    #: recomputation (raises :class:`~repro.trace.AuditError` on any
    #: attribution divergence)
    audit: bool = False
    #: runaway watchdogs forwarded to :func:`simulate_program`
    #: (``None`` = the machine's size-proportional default / unbounded)
    max_steps: Optional[int] = None
    max_cycles: Optional[int] = None
    #: pre-run static verification gate (CLI ``--no-lint`` disables)
    lint: bool = True
    #: persistent digest-keyed gate-verdict memo (``None`` = off);
    #: the parallel runner points this at ``<simcache>/analysis/``
    lint_memo_dir: Optional[Path] = None
    #: execution engine for the functional machine (``None`` = resolve
    #: from ``REPRO_ENGINE`` / the default)
    engine: Optional[str] = None
    _built: Dict[Tuple[str, Variant], BuiltWorkload] = field(default_factory=dict)
    _validated: Dict[Tuple[str, Variant], bool] = field(default_factory=dict)
    #: one machine per built program, reused across processor configs —
    #: the vector engine memoizes the functional trace on the machine,
    #: so every re-timing after the first replays it for free
    _machines: Dict[Tuple[str, Variant], Machine] = field(default_factory=dict)

    def built(self, name: str, variant: Variant) -> BuiltWorkload:
        key = (name, variant)
        if key not in self._built:
            self._built[key] = get(name).build(variant, self.scale)
        return self._built[key]

    def run(
        self,
        name: str,
        variant: Variant,
        cpu_config: ProcessorConfig,
        mem_config: MemoryConfig,
        checkpoint=None,
    ) -> ExecutionStats:
        with collector_paused():
            built = self.built(name, variant)
            key = (name, variant)
            stats, machine = simulate_program(
                built.program, cpu_config, mem_config,
                benchmark=f"{name}[{variant.value}]",
                machine=self._machines.get(key),
                audit=self.audit,
                max_steps=self.max_steps,
                max_cycles=self.max_cycles,
                lint=self.lint,
                lint_memo_dir=self.lint_memo_dir,
                checkpoint=checkpoint,
                engine=self.engine,
            )
            self._machines[key] = machine
            if self.validate and not self._validated.get(key):
                built.validate(machine)
                self._validated[key] = True
            return stats

    def run_points(self, points) -> list:
        """Serial point-running protocol (see
        :class:`repro.experiments.parallel.ParallelRunner` for the
        parallel, disk-cached implementation): resolve a sequence of
        :class:`~repro.experiments.parallel.SimPoint` in enumeration
        order."""
        return [
            self.run(p.benchmark, p.variant, p.cpu, p.mem) for p in points
        ]
