"""Vectorized execution engine: block-compiled functional execute,
structure-of-arrays trace chunks, and whole-trace memoization.

The scalar :class:`~repro.sim.machine.Machine` interprets one closure
per dynamic instruction.  :class:`VectorMachine` keeps the same
architectural semantics (the scalar closures remain the reference and
the fallback) but restructures the hot path three ways:

1. **Straight-line batching.**  The static program is partitioned into
   basic blocks once.  A block that executes often enough (the JIT
   threshold) is compiled — with ``exec`` — into a single Python
   function that performs the whole block's register/memory updates
   inline and emits its trace events with one ``list.extend`` per
   straight-line segment instead of one ``append`` per instruction.
   Rare/complex opcodes (``pst``, the FP ops) delegate to the scalar
   closure for that instruction *in position*, so event order is
   preserved exactly.  Cold blocks and irregular entry points (a
   corrupted link register, resume cursors) fall back to the scalar
   closures, which are decoded lazily per instruction.

2. **Structure-of-arrays chunks.**  ``run()`` yields
   :class:`VectorChunk` objects instead of raw ``(sidx, aux)`` tuple
   lists.  A chunk carries parallel ``sidx``/``aux`` sequences plus
   lazily-computed per-chunk aggregates (Figure-2 category counts,
   branch counts) that the timing models consume in batch; iterating a
   chunk still produces the classic tuples, so every scalar consumer
   (attached tracers, audits, tests) works unchanged.

3. **Trace memoization.**  The dynamic trace of a program is a pure
   function of the program.  The first complete run records its chunks
   and final architectural state; subsequent runs of the *same machine*
   (an experiment grid re-timing one program under many CPU/memory
   configs) replay the recorded chunks without re-interpreting a single
   instruction.  Replay restores the exact final registers, memory
   image, cursors, and instruction count, so workload validation and
   downstream stats are byte-identical.  Mid-run machine snapshots are
   unavailable while replaying (:meth:`VectorMachine.can_snapshot`
   returns False); the checkpoint layer skips snapshot writes for
   those runs, and ``resume=True`` runs always execute genuinely
   through the scalar reference path.

Equivalence guarantees and fallback conditions are documented in
DESIGN.md §"Execution engines"; ``tests/test_engine_differential.py``
enforces them bit-for-bit against the scalar engine.
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..isa import vis
from ..isa.bits import MASK64, s64
from ..isa.registers import GSR, LINK, gsr_scale
from .machine import (
    _BRANCH_CONDS,
    _FP_OPS,
    _LOADS,
    _STORES,
    _VIS_BINOPS,
    _VIS_UNOPS,
    _div_trunc,
    _rem_trunc,
    Event,
    Machine,
    SimulationError,
)
from .static_info import K_BRANCH

#: block execution count after which a block is exec-compiled
DEFAULT_JIT_THRESHOLD = 16
#: traces longer than this many events are not memoized (memory bound)
DEFAULT_MEMO_MAX_EVENTS = 2_000_000


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ[name])
    except (KeyError, ValueError):
        return default


#: integer ALU ops inlined by the block compiler; the expression
#: templates mirror ``machine._INT_BINOPS`` lambda-for-lambda
_ALU_EXPR = {
    "add": "({a} + {b}) & _M",
    "sub": "({a} - {b}) & _M",
    "mul": "(_s({a}) * _s({b})) & _M",
    "div": "_div({a}, {b})",
    "rem": "_rem({a}, {b})",
    "and_": "({a} & {b}) & _M",
    "or_": "({a} | {b}) & _M",
    "xor": "({a} ^ {b}) & _M",
    "andn": "({a} & ~{b}) & _M",
    "sll": "({a} << ({b} & 63)) & _M",
    "srl": "({a} & _M) >> ({b} & 63)",
    "sra": "(_s({a}) >> ({b} & 63)) & _M",
    "slt": "(1 if _s({a}) < _s({b}) else 0)",
    "sltu": "(1 if ({a} & _M) < ({b} & _M) else 0)",
    "seq": "(1 if ({a} & _M) == ({b} & _M) else 0)",
}

_BRANCH_CMP = {
    "beq": "==", "bne": "!=", "blt": "<",
    "ble": "<=", "bgt": ">", "bge": ">=",
}
assert set(_BRANCH_CMP) == set(_BRANCH_CONDS)

#: opcodes the block compiler delegates to the scalar closure (rare in
#: the media kernels; delegation preserves exact semantics and event
#: order at the cost of one closure call)
_DELEGATED = frozenset(_FP_OPS) | {"pst"}


class VectorChunk:
    """One trace chunk in structure-of-arrays form.

    ``sidx``/``aux`` are parallel tuples; iteration yields the scalar
    engine's ``(sidx, aux)`` event tuples so any tuple-consuming code
    path works unchanged.  Per-chunk aggregates are derived lazily from
    a :class:`StaticProgramInfo`'s numpy columns and cached — a
    replayed chunk pays for them once across every timing configuration
    of the grid.
    """

    __slots__ = ("sidx", "aux", "n", "_counts4", "_branches", "_cond")

    def __init__(self, sidx: Tuple[int, ...], aux: Tuple[int, ...]) -> None:
        self.sidx = sidx
        self.aux = aux
        self.n = len(sidx)
        self._counts4: Optional[List[int]] = None
        self._branches = 0
        self._cond = 0

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Event]:
        return iter(zip(self.sidx, self.aux))

    def aggregates(self, info) -> Tuple[List[int], int, int]:
        """(figure-2 category counts, branch count, cond-branch count)."""
        if self._counts4 is None:
            sarr = np.array(self.sidx, dtype=np.int32)
            self._counts4 = np.bincount(
                info.category_arr[sarr], minlength=4
            ).tolist()
            kinds = info.kind_arr[sarr]
            self._branches = int((kinds >= K_BRANCH).sum())
            self._cond = int((kinds == K_BRANCH).sum())
        return self._counts4, self._branches, self._cond


class _TraceMemo:
    """A complete recorded run: chunks, per-chunk cursors, final state."""

    __slots__ = ("chunks", "cursors", "executed", "final_regs", "final_mem")

    def __init__(self) -> None:
        self.chunks: List[VectorChunk] = []
        self.cursors: List[Tuple[int, int]] = []
        self.executed = 0
        self.final_regs: List[int] = []
        self.final_mem = b""


class VectorMachine(Machine):
    """Drop-in :class:`Machine` with the vectorized hot path."""

    ENGINE = "vector"

    def __init__(self, program, extra_memory: int = 0) -> None:
        self._jit_threshold = _env_int(
            "REPRO_VECTOR_JIT", DEFAULT_JIT_THRESHOLD
        )
        self._memo_max = _env_int(
            "REPRO_TRACE_MEMO_MAX", DEFAULT_MEMO_MAX_EVENTS
        )
        self._trace_memo: Optional[_TraceMemo] = None
        self._replaying = False
        super().__init__(program, extra_memory)
        self._find_blocks()
        self._bcode: List = [None] * len(self._blocks)
        self._bcounts: List[int] = [0] * len(self._blocks)
        # Shared codegen namespace, built from the scalar op tables so
        # the two engines can never drift apart on helper identity.
        ns = {
            "_M": MASK64,
            "_s": s64,
            "_div": _div_trunc,
            "_rem": _rem_trunc,
            "_ck": self._check_addr,
            "_ifb": int.from_bytes,
            "_gs": gsr_scale,
            "_code": self._code,
            "_v_faligndata": vis.faligndata,
            "_v_pdist": vis.pdist,
            "_v_array8": vis.array8,
            "_v_fpack16": vis.fpack16,
            "_v_fpack32": vis.fpack32,
            "_v_fpackfix": vis.fpackfix,
        }
        for name, fn in _VIS_BINOPS.items():
            ns["_v_" + name] = fn
        for name, fn in _VIS_UNOPS.items():
            ns["_v_" + name] = fn
        self._gen_ns = ns

    # -- lazy scalar decode ------------------------------------------------

    def _build_code(self) -> List:
        """Per-instruction trampolines: decode on first execution, then
        self-replace in the code table.  Cold code never pays decode.

        A trampoline reaches the machine (and through it the code table)
        by weak reference, so the table holds no reference cycle."""
        machine = weakref.ref(self)
        instructions = self.program.instructions

        def make(idx: int):
            def trampoline():
                m = machine()
                fn = m._decode(instructions[idx], idx)
                m._code[idx] = fn
                return fn()

            return trampoline

        return [make(i) for i in range(len(instructions))]

    # -- block discovery ---------------------------------------------------

    def _find_blocks(self) -> None:
        """Partition the program into single-entry straight-line blocks.

        Only the *last* instruction of a block may transfer control
        (branch/jump/call/ret/halt), so a compiled block body runs to
        its end unconditionally — the invariant the block compiler and
        the ``executed`` accounting in :meth:`_vector_run` rely on.
        """
        instructions = self.program.instructions
        n = len(instructions)
        leaders = {0} if n else set()
        for idx, instr in enumerate(instructions):
            if instr.spec.is_control or instr.op == "halt":
                if idx + 1 < n:
                    leaders.add(idx + 1)
                if 0 <= instr.target < n:
                    leaders.add(instr.target)
        starts = sorted(leaders)
        #: (start, end) per block; block index by leader pc (-1 = not
        #: a leader, reachable only via an irregular resume/ret target)
        self._blocks: List[Tuple[int, int]] = []
        self._bindex: List[int] = [-1] * n
        for bi, start in enumerate(starts):
            end = starts[bi + 1] if bi + 1 < len(starts) else n
            self._blocks.append((start, end))
            self._bindex[start] = bi

    # -- block compiler ----------------------------------------------------

    def _compile_block(self, bi: int):
        """exec-compile one basic block into a single closure.

        The generated function mutates ``regs``/``mem`` exactly like
        the scalar closures, appends the identical event tuples in the
        identical order (batched into per-segment ``extend`` calls),
        and returns the next pc.  Opcodes in ``_DELEGATED`` call the
        scalar closure in position; everything else is inlined.
        """
        start, end = self._blocks[bi]
        instructions = self.program.instructions
        ns = dict(self._gen_ns)
        lines: List[str] = []
        seg: List[str] = []  # pending event expressions
        seg_static = True  # every pending event a compile-time constant

        def flush() -> None:
            nonlocal seg_static
            if not seg:
                return
            if seg_static:
                name = f"_EV{len(ns)}"
                if len(seg) == 1:
                    ns[name] = eval(seg[0], ns)
                    lines.append(f"    _ap({name})")
                else:
                    ns[name] = tuple(eval(e, ns) for e in seg)
                    lines.append(f"    _ex({name})")
            elif len(seg) == 1:
                lines.append(f"    _ap({seg[0]})")
            else:
                lines.append("    _ex((" + ", ".join(seg) + ",))")
            seg.clear()
            seg_static = True

        def emit_event(expr: str, static: bool) -> None:
            nonlocal seg_static
            seg.append(expr)
            if not static:
                seg_static = False

        for i in range(start, end):
            instr = instructions[i]
            op = instr.op
            srcs = instr.srcs
            if op in _DELEGATED:
                flush()
                lines.append(f"    _code[{i}]()")
            elif op in _ALU_EXPR:
                a = f"regs[{srcs[0]}]"
                b = f"regs[{srcs[1]}]" if len(srcs) == 2 else repr(instr.imm)
                expr = _ALU_EXPR[op].format(a=a, b=b)
                lines.append(f"    regs[{instr.dst}] = {expr}")
                emit_event(f"({i}, 0)", True)
            elif op == "li":
                lines.append(f"    regs[{instr.dst}] = {instr.imm & MASK64}")
                emit_event(f"({i}, 0)", True)
            elif op == "mov":
                lines.append(f"    regs[{instr.dst}] = regs[{srcs[0]}]")
                emit_event(f"({i}, 0)", True)
            elif op == "nop":
                emit_event(f"({i}, 0)", True)
            elif op == "halt":
                flush()
                lines.append("    return -1")
            elif op in _LOADS:
                size, signed, _low32 = _LOADS[op]
                av = f"_a{i}"
                lines.append(f"    {av} = regs[{srcs[0]}] + {instr.imm}")
                lines.append(
                    f"    if {av} < 0 or {av} + {size} > {self.memory_size}:"
                )
                lines.append(f"        _ck({av}, {size})")
                lines.append(
                    f"    _v = _ifb(mem[{av}:{av} + {size}], 'little')"
                )
                if signed:
                    lines.append(f"    if _v >= {1 << (8 * size - 1)}:")
                    lines.append(f"        _v -= {1 << (8 * size)}")
                lines.append(f"    regs[{instr.dst}] = _v & _M")
                emit_event(f"({i}, {av})", False)
            elif op in _STORES:
                size = _STORES[op]
                smask = (1 << (8 * size)) - 1
                val_reg, base = srcs
                av = f"_a{i}"
                lines.append(f"    {av} = regs[{base}] + {instr.imm}")
                lines.append(
                    f"    if {av} < 0 or {av} + {size} > {self.memory_size}:"
                )
                lines.append(f"        _ck({av}, {size})")
                lines.append(
                    f"    mem[{av}:{av} + {size}] = "
                    f"(regs[{val_reg}] & {smask}).to_bytes({size}, 'little')"
                )
                emit_event(f"({i}, {av})", False)
            elif op == "pf":
                av = f"_a{i}"
                lines.append(f"    {av} = regs[{srcs[0]}] + {instr.imm}")
                lines.append(f"    if not 0 <= {av} < {self.memory_size}:")
                lines.append(f"        {av} = 0")
                emit_event(f"({i}, {av})", False)
            elif op in _BRANCH_CMP:
                flush()
                a, b = srcs
                ns[f"_T{i}"] = (i, 1)
                ns[f"_N{i}"] = (i, 0)
                lines.append(
                    f"    if _s(regs[{a}]) {_BRANCH_CMP[op]} _s(regs[{b}]):"
                )
                lines.append(f"        _ap(_T{i})")
                lines.append(f"        return {instr.target}")
                lines.append(f"    _ap(_N{i})")
                lines.append(f"    return {i + 1}")
            elif op == "j":
                flush()
                ns[f"_T{i}"] = (i, 1)
                lines.append(f"    _ap(_T{i})")
                lines.append(f"    return {instr.target}")
            elif op == "call":
                flush()
                ns[f"_T{i}"] = (i, 1)
                lines.append(f"    regs[{LINK}] = {i + 1}")
                lines.append(f"    _ap(_T{i})")
                lines.append(f"    return {instr.target}")
            elif op == "ret":
                flush()
                ns[f"_T{i}"] = (i, 1)
                lines.append(f"    _ap(_T{i})")
                lines.append(f"    return regs[{LINK}]")
            elif op in _VIS_BINOPS:
                lines.append(
                    f"    regs[{instr.dst}] = "
                    f"_v_{op}(regs[{srcs[0]}], regs[{srcs[1]}])"
                )
                emit_event(f"({i}, 0)", True)
            elif op in _VIS_UNOPS:
                lines.append(
                    f"    regs[{instr.dst}] = _v_{op}(regs[{srcs[0]}])"
                )
                emit_event(f"({i}, 0)", True)
            elif op == "fzero":
                lines.append(f"    regs[{instr.dst}] = 0")
                emit_event(f"({i}, 0)", True)
            elif op == "fone":
                lines.append(f"    regs[{instr.dst}] = {MASK64}")
                emit_event(f"({i}, 0)", True)
            elif op in ("fpack16", "fpack32", "fpackfix"):
                lines.append(
                    f"    regs[{instr.dst}] = "
                    f"_v_{op}(regs[{srcs[0]}], _gs(regs[{GSR}]))"
                )
                emit_event(f"({i}, 0)", True)
            elif op == "faligndata":
                lines.append(
                    f"    regs[{instr.dst}] = _v_faligndata("
                    f"regs[{srcs[0]}], regs[{srcs[1]}], regs[{GSR}] & 7)"
                )
                emit_event(f"({i}, 0)", True)
            elif op == "alignaddr":
                if len(srcs) > 1:
                    addend = f"regs[{srcs[1]}]"
                else:
                    addend = repr(instr.imm if instr.imm is not None else 0)
                av = f"_a{i}"
                lines.append(f"    {av} = regs[{srcs[0]}] + {addend}")
                lines.append(f"    regs[{instr.dst}] = {av} & ~7 & _M")
                lines.append(
                    f"    regs[{GSR}] = (regs[{GSR}] & ~7) | ({av} & 7)"
                )
                emit_event(f"({i}, 0)", True)
            elif op == "pdist":
                a, b, acc = srcs
                lines.append(
                    f"    regs[{instr.dst}] = "
                    f"_v_pdist(regs[{a}], regs[{b}], regs[{acc}])"
                )
                emit_event(f"({i}, 0)", True)
            elif op == "array8":
                lines.append(
                    f"    regs[{instr.dst}] = "
                    f"_v_array8(regs[{srcs[0]}], {instr.imm or 0})"
                )
                emit_event(f"({i}, 0)", True)
            elif op == "rdgsr":
                lines.append(f"    regs[{instr.dst}] = regs[{GSR}]")
                emit_event(f"({i}, 0)", True)
            elif op == "wrgsr":
                lines.append(f"    regs[{GSR}] = regs[{srcs[0]}] & 0x7F")
                emit_event(f"({i}, 0)", True)
            else:
                # Unknown to the block compiler: delegate (the scalar
                # decoder raises for genuinely unknown opcodes).
                flush()
                lines.append(f"    _code[{i}]()")
        if not lines or not lines[-1].lstrip().startswith("return"):
            flush()
            lines.append(f"    return {end}")

        src = (
            "def _blk(regs=_regs, mem=_mem, _ap=_ap_, _ex=_ex_):\n"
            + "\n".join(lines)
            + "\n"
        )
        ns["_regs"] = self.regs
        ns["_mem"] = self.memory
        ns["_ap_"] = self._events.append
        ns["_ex_"] = self._events.extend
        exec(src, ns)
        # ``ns`` is the block's ``__globals__``: leaving the block in it
        # would make every compiled block a reference cycle.
        return ns.pop("_blk")

    # -- snapshot interaction ----------------------------------------------

    def can_snapshot(self) -> bool:
        """Mid-run snapshots are meaningless while replaying a memoized
        trace (architectural state is only reconstructed at the end of
        the run); the checkpoint layer checks this before writing."""
        return not self._replaying

    def snapshot(self) -> Dict:
        if self._replaying:
            raise SimulationError(
                "machine state is unavailable mid-replay; snapshot at "
                "the end of the run or use the scalar engine"
            )
        return super().snapshot()

    # -- execution ---------------------------------------------------------

    def run(
        self,
        max_instructions: Optional[int] = None,
        chunk_size: int = 1 << 16,
        observer=None,
        resume: bool = False,
    ):
        if max_instructions is None:
            max_instructions = self.default_step_budget()
        if resume:
            # Resume cursors can point mid-block; the scalar reference
            # path handles them exactly (and resumed runs are partial,
            # so they are never memoized).
            yield from Machine.run(
                self,
                max_instructions=max_instructions,
                chunk_size=chunk_size,
                observer=observer,
                resume=True,
            )
            return
        memo = self._trace_memo
        if memo is not None and memo.executed <= max_instructions:
            yield from self._replay(memo, observer)
            return
        yield from self._vector_run(max_instructions, chunk_size, observer)

    def _vector_run(self, max_instructions: int, chunk_size: int, observer):
        events = self._events
        events.clear()
        code = self._code
        bcode = self._bcode
        bcounts = self._bcounts
        bindex = self._bindex
        blocks = self._blocks
        threshold = self._jit_threshold
        pc = 0
        executed = 0

        recording = self._memo_max > 0
        memo = _TraceMemo() if recording else None

        def boundary(chunk_pc: int, chunk_executed: int) -> VectorChunk:
            nonlocal recording
            self.run_pc = chunk_pc
            self.run_executed = chunk_executed
            sidx, aux = zip(*events)
            chunk = VectorChunk(sidx, aux)
            if recording:
                memo.chunks.append(chunk)
                memo.cursors.append((chunk_pc, chunk_executed))
                if chunk_executed > self._memo_max:
                    recording = False
                    memo.chunks.clear()
                    memo.cursors.clear()
            if observer is not None:
                observer.on_functional_chunk(chunk.n)
            return chunk

        try:
            while pc >= 0:
                bi = bindex[pc]
                if bi >= 0:
                    blk = bcode[bi]
                    if blk is not None:
                        pc = blk()
                        executed += blocks[bi][1] - blocks[bi][0]
                    else:
                        count = bcounts[bi] + 1
                        bcounts[bi] = count
                        start, end = blocks[bi]
                        if count >= threshold:
                            blk = self._compile_block(bi)
                            bcode[bi] = blk
                            pc = blk()
                        else:
                            for _ in range(end - start):
                                pc = code[pc]()
                        executed += end - start
                else:
                    pc = code[pc]()
                    executed += 1
                # The pc guard mirrors the scalar invariant that a
                # mid-run chunk boundary never carries a halted cursor
                # (there halt appends no event; here a halting block
                # may have filled the chunk, so the check is explicit —
                # the whole tail is delivered in the final chunk).
                if len(events) >= chunk_size and pc >= 0:
                    yield boundary(pc, executed)
                    events.clear()
                if executed > max_instructions:
                    raise SimulationError(
                        f"exceeded {max_instructions} instructions "
                        f"(step-budget watchdog; pc={pc}, "
                        f"program={self.program.name!r})"
                    )
        except IndexError:
            raise SimulationError(
                f"control flow escaped the program (pc={pc})"
            ) from None
        # The final halt is not traced.
        self.run_pc = -1
        self.run_executed = executed
        self.instruction_count += executed - 1
        if events:
            chunk = boundary(-1, executed)
            if recording:
                self._seal_memo(memo, executed)
            yield chunk
            events.clear()
        elif recording:
            self._seal_memo(memo, executed)

    def _seal_memo(self, memo: _TraceMemo, executed: int) -> None:
        memo.executed = executed
        memo.final_regs = list(self.regs)
        memo.final_mem = bytes(self.memory)
        self._trace_memo = memo

    def _apply_memo_final(self, memo: _TraceMemo) -> None:
        self.regs[:] = memo.final_regs
        self.memory[:] = memo.final_mem
        self.instruction_count += memo.executed - 1
        self.run_pc = -1
        self.run_executed = memo.executed

    def _replay(self, memo: _TraceMemo, observer):
        if not memo.chunks:
            # A trace with no events (a lone halt) yields nothing,
            # exactly like the scalar engine; only the final state and
            # cursors are observable.
            self._apply_memo_final(memo)
            return
        self._replaying = True
        try:
            last = len(memo.chunks) - 1
            for pos, chunk in enumerate(memo.chunks):
                if pos == last:
                    # Final state must be visible at the final chunk:
                    # consumers stop iterating the moment run_pc goes
                    # negative, before this generator body resumes.
                    self._replaying = False
                    self._apply_memo_final(memo)
                else:
                    self.run_pc, self.run_executed = memo.cursors[pos]
                if observer is not None:
                    observer.on_functional_chunk(chunk.n)
                yield chunk
        finally:
            self._replaying = False
