"""Functional SVIS machine.

Executes a :class:`repro.asm.Program` over a flat little-endian memory,
producing (a) the final architectural state — validated against numpy
references by the workload suite — and (b) a dynamic trace consumed by
the timing models in :mod:`repro.cpu`.

The trace is a stream of ``(static_index, aux)`` tuples, one per retired
instruction: ``aux`` is the effective byte address for memory
operations, the taken/not-taken outcome (1/0) for conditional branches,
and 0 otherwise.  All other per-instruction facts are static and come
from :class:`repro.sim.static_info.StaticProgramInfo`.

Each static instruction is pre-decoded into a Python closure returning
the next PC; this keeps the interpreter loop tight enough to simulate
the scaled benchmark suite in minutes (see DESIGN.md substitution 1).
"""

from __future__ import annotations

import base64
import struct
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..asm.program import Program
from ..isa import vis
from ..isa.bits import MASK64, s64
from ..isa.registers import GSR, LINK, NUM_REGS, ZERO, gsr_scale

Event = Tuple[int, int]


class SimulationError(RuntimeError):
    """A functional-execution fault (bad address, div-by-zero, runaway)."""


# -- default step-budget watchdog -------------------------------------------
#
# A program with a malformed loop (e.g. a hypothesis-generated
# ProgramBuilder program whose exit branch never fires) used to spin
# for the full 200M-instruction ceiling before failing — minutes of
# apparent hang in pytest.  The default budget is instead proportional
# to program size: measured dynamic/static ratios across the suite top
# out near ~3.2k and dynamic/memory-byte ratios near ~14, so the
# constants below leave >10x headroom for every real workload at every
# scale while bounding a 10-instruction runaway to ~1M steps (~1 s).

#: flat floor of the default step budget
STEP_BUDGET_BASE = 1_000_000
#: budget granted per static instruction
STEP_BUDGET_PER_INSTRUCTION = 1_000
#: budget granted per byte of program memory (dynamic counts scale
#: with data footprint, which is how WorkloadScale grows programs)
STEP_BUDGET_PER_BYTE = 200


class Machine:
    """Functional simulator for one program instance."""

    def __init__(self, program: Program, extra_memory: int = 0) -> None:
        self.program = program
        self.memory_size = program.memory_size + extra_memory
        self.memory = bytearray(self.memory_size)
        self.regs: List[int] = [0] * NUM_REGS
        self.instruction_count = 0
        #: resume cursor for :meth:`run`: the PC of the next instruction
        #: as of the latest yielded chunk boundary (``-1`` once the
        #: program has halted), and the cumulative executed-instruction
        #: count at that boundary.  Captured by :meth:`snapshot` so a
        #: restored machine can continue with ``run(resume=True)``.
        self.run_pc = 0
        self.run_executed = 0
        self._events: List[Event] = []
        #: bounds checker shared by every decoded closure; it closes over
        #: the memory size only, so the closures never reference ``self``
        self._check_addr = _addr_checker(self.memory_size)
        self._code = self._build_code()
        self.reset()

    def _build_code(self) -> List:
        """Compile the whole program to next-PC closures (eager).

        :class:`repro.sim.vector.VectorMachine` overrides this with a
        lazy per-instruction variant so cold code never pays decode.
        """
        return [
            self._decode(instr, idx)
            for idx, instr in enumerate(self.program.instructions)
        ]

    # -- state management ------------------------------------------------------

    def reset(self) -> None:
        """Reset registers and reload every buffer's initial contents."""
        for i in range(NUM_REGS):
            self.regs[i] = 0
        self.memory[:] = b"\x00" * self.memory_size
        for buf in self.program.buffers.values():
            if buf.data is not None:
                self.memory[buf.address : buf.address + len(buf.data)] = buf.data
        self.instruction_count = 0
        self.run_pc = 0
        self.run_executed = 0
        self._events.clear()

    # -- checkpoint/restore -----------------------------------------------------

    def snapshot(self) -> Dict:
        """Serialize the architectural state at a chunk boundary.

        The memory image is zlib-compressed (level 1: the images are
        dominated by long zero runs) and base64-encoded so the whole
        snapshot stays JSON-safe.
        """
        return {
            "memory_size": self.memory_size,
            "regs": list(self.regs),
            "memory_b64": base64.b64encode(
                zlib.compress(bytes(self.memory), 1)
            ).decode("ascii"),
            "instruction_count": self.instruction_count,
            "run_pc": self.run_pc,
            "run_executed": self.run_executed,
        }

    def restore(self, state: Dict) -> None:
        """Restore :meth:`snapshot` state *in place* (the decoded
        closures capture ``self.regs`` / ``self.memory``, so both are
        mutated, never replaced).  Raises ``ValueError`` on any shape
        mismatch instead of restoring partially-checked state."""
        if state["memory_size"] != self.memory_size:
            raise ValueError(
                f"snapshot memory size {state['memory_size']} != "
                f"machine memory size {self.memory_size}"
            )
        regs = state["regs"]
        if len(regs) != NUM_REGS:
            raise ValueError(f"snapshot has {len(regs)} registers")
        raw = zlib.decompress(base64.b64decode(state["memory_b64"]))
        if len(raw) != self.memory_size:
            raise ValueError(
                f"snapshot memory image is {len(raw)} bytes, "
                f"expected {self.memory_size}"
            )
        run_pc = int(state["run_pc"])
        if run_pc < -1 or run_pc >= len(self._code):
            raise ValueError(f"snapshot resume pc {run_pc} out of range")
        self.regs[:] = [int(r) for r in regs]
        self.memory[:] = raw
        self.instruction_count = int(state["instruction_count"])
        self.run_pc = run_pc
        self.run_executed = int(state["run_executed"])
        self._events.clear()

    def read_buffer(self, name: str) -> bytes:
        buf = self.program.buffers[name]
        return bytes(self.memory[buf.address : buf.address + buf.size])

    def read_buffer_array(self, name: str, dtype="u1") -> np.ndarray:
        """Read a buffer as a little-endian numpy array."""
        return np.frombuffer(self.read_buffer(name), dtype=np.dtype(dtype).newbyteorder("<"))

    def write_buffer(self, name: str, data: bytes, offset: int = 0) -> None:
        buf = self.program.buffers[name]
        if offset + len(data) > buf.size:
            raise ValueError(f"write overruns buffer {name!r}")
        self.memory[buf.address + offset : buf.address + offset + len(data)] = data

    # -- execution ----------------------------------------------------------------

    def default_step_budget(self) -> int:
        """The default ``max_instructions`` watchdog: proportional to
        program size (static instructions + memory footprint), so a
        malformed program raises :class:`SimulationError` in seconds
        instead of hanging pytest, while every real workload keeps
        >10x headroom (see the module constants)."""
        return (
            STEP_BUDGET_BASE
            + STEP_BUDGET_PER_INSTRUCTION * len(self._code)
            + STEP_BUDGET_PER_BYTE * self.memory_size
        )

    def run(
        self,
        max_instructions: Optional[int] = None,
        chunk_size: int = 1 << 16,
        observer=None,
        resume: bool = False,
    ) -> Iterator[List[Event]]:
        """Execute from the entry point, yielding trace chunks.

        ``max_instructions`` is the runaway watchdog; ``None`` (the
        default) uses :meth:`default_step_budget`.

        Each yielded list is reused storage: consume (or copy) it before
        advancing the generator.

        ``observer`` (optional, e.g. a :class:`repro.trace.Tracer`) is
        notified once per yielded chunk via
        ``observer.on_functional_chunk(len(chunk))`` — the audit layer
        uses this to prove the timing models retire exactly the
        instructions the functional machine executed.  The check is
        per-chunk, not per-instruction, so it costs nothing in the
        interpreter loop.

        ``resume=True`` continues from the :attr:`run_pc` /
        :attr:`run_executed` cursor (set at every chunk boundary and
        restored by :meth:`restore`) instead of the entry point — the
        checkpoint layer's resume path.  Because the cursor is only
        ever a chunk boundary, the concatenation of the chunks from the
        original run and the resumed run is exactly the trace of an
        uninterrupted run.
        """
        if max_instructions is None:
            max_instructions = self.default_step_budget()
        events = self._events
        events.clear()
        code = self._code
        if resume:
            if self.run_pc < 0:
                raise SimulationError(
                    "cannot resume: the program already halted"
                )
            pc = self.run_pc
            executed = self.run_executed
        else:
            pc = 0
            executed = 0
        try:
            while pc >= 0:
                pc = code[pc]()
                executed += 1
                if len(events) >= chunk_size:
                    self.run_pc = pc
                    self.run_executed = executed
                    if observer is not None:
                        observer.on_functional_chunk(len(events))
                    yield events
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
            if observer is not None:
                observer.on_functional_chunk(len(events))
            yield events
            events.clear()

    def run_to_completion(
        self, max_instructions: Optional[int] = None
    ) -> List[Event]:
        """Execute and return the whole trace as one list (tests/small runs)."""
        trace: List[Event] = []
        for chunk in self.run(max_instructions=max_instructions):
            trace.extend(chunk)
        return trace

    def run_functional(self, max_instructions: Optional[int] = None) -> int:
        """Execute for side effects only; returns the instruction count."""
        count = 0
        for chunk in self.run(max_instructions=max_instructions):
            count += len(chunk)
        return count

    # -- decode -----------------------------------------------------------------------

    def _decode(self, instr, idx: int):
        """Compile one static instruction to a closure returning next PC.

        The closures capture the machine's state containers (``regs``,
        ``memory``, the event list), never the machine itself: a machine
        is then free of reference cycles and is reclaimed by reference
        counting the moment its last owner drops it (DESIGN.md §8).
        """
        regs = self.regs
        mem = self.memory
        events = self._events
        append = events.append
        op = instr.op
        dst = instr.dst
        srcs = instr.srcs
        imm = instr.imm
        target = instr.target
        nxt = idx + 1
        check = self._check_addr
        memory_size = self.memory_size

        # ---- integer ALU -------------------------------------------------
        if op in _INT_BINOPS:
            fn = _INT_BINOPS[op]
            if len(srcs) == 2:
                a, b = srcs

                def run_rr(fn=fn, a=a, b=b):
                    regs[dst] = fn(regs[a], regs[b])
                    append((idx, 0))
                    return nxt

                return run_rr

            (a,) = srcs
            const = imm

            def run_ri(fn=fn, a=a, const=const):
                regs[dst] = fn(regs[a], const)
                append((idx, 0))
                return nxt

            return run_ri

        if op == "li":

            def run_li(value=imm & MASK64):
                regs[dst] = value
                append((idx, 0))
                return nxt

            return run_li

        if op == "mov":
            (a,) = srcs

            def run_mov(a=a):
                regs[dst] = regs[a]
                append((idx, 0))
                return nxt

            return run_mov

        if op == "nop":

            def run_nop():
                append((idx, 0))
                return nxt

            return run_nop

        if op == "halt":

            def run_halt():
                # the terminating halt is not part of the workload and
                # is excluded from the trace
                return -1

            return run_halt

        # ---- floating point -----------------------------------------------
        if op in _FP_OPS:
            return _FP_OPS[op](self, instr, idx)

        # ---- memory ---------------------------------------------------------
        if op in _LOADS:
            size, signed, to_low32 = _LOADS[op]
            (base,) = srcs
            off = imm

            def run_load(base=base, off=off, size=size, signed=signed):
                addr = regs[base] + off
                check(addr, size)
                value = int.from_bytes(mem[addr : addr + size], "little")
                if signed and value >= 1 << (8 * size - 1):
                    value -= 1 << (8 * size)
                regs[dst] = value & MASK64
                append((idx, addr))
                return nxt

            return run_load

        if op in _STORES:
            size = _STORES[op]
            val_reg, base = srcs
            off = imm

            def run_store(val_reg=val_reg, base=base, off=off, size=size):
                addr = regs[base] + off
                check(addr, size)
                mem[addr : addr + size] = (
                    regs[val_reg] & ((1 << (8 * size)) - 1)
                ).to_bytes(size, "little")
                append((idx, addr))
                return nxt

            return run_store

        if op == "pst":
            val_reg, mask_reg, base = srcs
            off = imm

            def run_pst(val_reg=val_reg, mask_reg=mask_reg, base=base, off=off):
                addr = regs[base] + off
                check(addr, 8)
                mask = regs[mask_reg] & 0xFF
                value = regs[val_reg]
                for k in range(8):
                    if mask & (1 << k):
                        mem[addr + k] = (value >> (8 * k)) & 0xFF
                append((idx, addr))
                return nxt

            return run_pst

        if op == "pf":
            (base,) = srcs
            off = imm

            def run_pf(base=base, off=off):
                addr = regs[base] + off
                # Non-binding and non-faulting: out-of-range prefetches
                # are dropped, as on real hardware.
                if 0 <= addr < memory_size:
                    append((idx, addr))
                else:
                    append((idx, 0))
                return nxt

            return run_pf

        # ---- control flow ------------------------------------------------------
        if op in _BRANCH_CONDS:
            cond = _BRANCH_CONDS[op]
            a, b = srcs

            def run_branch(cond=cond, a=a, b=b, target=target):
                if cond(s64(regs[a]), s64(regs[b])):
                    append((idx, 1))
                    return target
                append((idx, 0))
                return nxt

            return run_branch

        if op == "j":

            def run_jump(target=target):
                append((idx, 1))
                return target

            return run_jump

        if op == "call":

            def run_call(target=target):
                regs[LINK] = nxt
                append((idx, 1))
                return target

            return run_call

        if op == "ret":

            def run_ret():
                append((idx, 1))
                return regs[LINK]

            return run_ret

        # ---- VIS -------------------------------------------------------------------
        if op in _VIS_BINOPS:
            fn = _VIS_BINOPS[op]
            a, b = srcs[0], srcs[1]

            def run_vis2(fn=fn, a=a, b=b):
                regs[dst] = fn(regs[a], regs[b])
                append((idx, 0))
                return nxt

            return run_vis2

        if op in _VIS_UNOPS:
            fn = _VIS_UNOPS[op]
            (a,) = srcs

            def run_vis1(fn=fn, a=a):
                regs[dst] = fn(regs[a])
                append((idx, 0))
                return nxt

            return run_vis1

        if op == "fzero":

            def run_fzero():
                regs[dst] = 0
                append((idx, 0))
                return nxt

            return run_fzero

        if op == "fone":

            def run_fone():
                regs[dst] = MASK64
                append((idx, 0))
                return nxt

            return run_fone

        if op in ("fpack16", "fpack32", "fpackfix"):
            fn = {
                "fpack16": vis.fpack16,
                "fpack32": vis.fpack32,
                "fpackfix": vis.fpackfix,
            }[op]
            a = srcs[0]

            def run_pack(fn=fn, a=a):
                regs[dst] = fn(regs[a], gsr_scale(regs[GSR]))
                append((idx, 0))
                return nxt

            return run_pack

        if op == "faligndata":
            a, b = srcs[0], srcs[1]

            def run_align(a=a, b=b):
                regs[dst] = vis.faligndata(regs[a], regs[b], regs[GSR] & 7)
                append((idx, 0))
                return nxt

            return run_align

        if op == "alignaddr":
            a = srcs[0]
            b = srcs[1] if len(srcs) > 1 else None
            const = imm if imm is not None else 0

            def run_alignaddr(a=a, b=b, const=const):
                addr = regs[a] + (regs[b] if b is not None else const)
                regs[dst] = addr & ~7 & MASK64
                regs[GSR] = (regs[GSR] & ~7) | (addr & 7)
                append((idx, 0))
                return nxt

            return run_alignaddr

        if op == "pdist":
            a, b, acc = srcs

            def run_pdist(a=a, b=b, acc=acc):
                regs[dst] = vis.pdist(regs[a], regs[b], regs[acc])
                append((idx, 0))
                return nxt

            return run_pdist

        if op == "array8":
            (a,) = srcs
            bits = imm or 0

            def run_array8(a=a, bits=bits):
                regs[dst] = vis.array8(regs[a], bits)
                append((idx, 0))
                return nxt

            return run_array8

        if op == "rdgsr":

            def run_rdgsr():
                regs[dst] = regs[GSR]
                append((idx, 0))
                return nxt

            return run_rdgsr

        if op == "wrgsr":
            (a,) = srcs

            def run_wrgsr(a=a):
                regs[GSR] = regs[a] & 0x7F
                append((idx, 0))
                return nxt

            return run_wrgsr

        raise SimulationError(f"no decoder for opcode {op!r}")


# ---------------------------------------------------------------------------
# Operation tables used by the decoder.
# ---------------------------------------------------------------------------


def _addr_checker(memory_size: int):
    """The decoded closures' bounds check for a memory of ``memory_size``
    bytes: raises :class:`SimulationError` on an out-of-range access."""

    def check(addr: int, size: int) -> None:
        if addr < 0 or addr + size > memory_size:
            raise SimulationError(
                f"memory access out of range: addr=0x{addr:x} size={size} "
                f"(memory is {memory_size} bytes)"
            )

    return check


def _div_trunc(a: int, b: int) -> int:
    a, b = s64(a), s64(b)
    if b == 0:
        raise SimulationError("integer division by zero")
    return (abs(a) // abs(b) * (1 if (a >= 0) == (b >= 0) else -1)) & MASK64


def _rem_trunc(a: int, b: int) -> int:
    a, b = s64(a), s64(b)
    if b == 0:
        raise SimulationError("integer remainder by zero")
    return (a - s64(_div_trunc(a, b)) * b) & MASK64


_INT_BINOPS = {
    "add": lambda a, b: (a + b) & MASK64,
    "sub": lambda a, b: (a - b) & MASK64,
    "mul": lambda a, b: (s64(a) * s64(b)) & MASK64,
    "div": _div_trunc,
    "rem": _rem_trunc,
    "and_": lambda a, b: (a & b) & MASK64,
    "or_": lambda a, b: (a | b) & MASK64,
    "xor": lambda a, b: (a ^ b) & MASK64,
    "andn": lambda a, b: (a & ~b) & MASK64,
    "sll": lambda a, b: (a << (b & 63)) & MASK64,
    "srl": lambda a, b: (a & MASK64) >> (b & 63),
    "sra": lambda a, b: (s64(a) >> (b & 63)) & MASK64,
    "slt": lambda a, b: 1 if s64(a) < s64(b) else 0,
    "sltu": lambda a, b: 1 if (a & MASK64) < (b & MASK64) else 0,
    "seq": lambda a, b: 1 if (a & MASK64) == (b & MASK64) else 0,
}

#: op -> (size, sign-extend, low-32-only)
_LOADS = {
    "ldb": (1, False, False),
    "ldbs": (1, True, False),
    "ldh": (2, False, False),
    "ldhs": (2, True, False),
    "ldw": (4, False, False),
    "ldws": (4, True, False),
    "ldx": (8, False, False),
    "ldf": (8, False, False),
    "ldfw": (4, False, True),
    "ldfb": (1, False, True),
    "ldfh": (2, False, True),
}

_STORES = {
    "stb": 1,
    "sth": 2,
    "stw": 4,
    "stx": 8,
    "stf": 8,
    "stfw": 4,
    "stfb": 1,
    "stfh": 2,
}

_BRANCH_CONDS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b,
    "ble": lambda a, b: a <= b,
    "bgt": lambda a, b: a > b,
    "bge": lambda a, b: a >= b,
}

_VIS_BINOPS = {
    "fpadd16": vis.fpadd16,
    "fpadd32": vis.fpadd32,
    "fpsub16": vis.fpsub16,
    "fpsub32": vis.fpsub32,
    "fand": vis.fand,
    "for_": vis.for_,
    "fxor": vis.fxor,
    "fandnot": vis.fandnot,
    "fmul8x16": vis.fmul8x16,
    "fmul8x16au": vis.fmul8x16au,
    "fmul8x16al": vis.fmul8x16al,
    "fmul8sux16": vis.fmul8sux16,
    "fmul8ulx16": vis.fmul8ulx16,
    "fpmerge": vis.fpmerge,
    "fcmpgt16": vis.fcmpgt16,
    "fcmple16": vis.fcmple16,
    "fcmpeq16": vis.fcmpeq16,
    "fcmpne16": vis.fcmpne16,
    "fcmpgt32": vis.fcmpgt32,
    "fcmpeq32": vis.fcmpeq32,
    "edge8": vis.edge8,
    "edge16": vis.edge16,
    "edge32": vis.edge32,
}

_VIS_UNOPS = {
    "fexpand": vis.fexpand,
    "fnot": vis.fnot,
    "fsrc": lambda a: a & MASK64,
}


# ---------------------------------------------------------------------------
# Floating point (rarely used by the media benchmarks, provided for ISA
# completeness).  Doubles are stored bit-for-bit in the 64-bit registers.
# ---------------------------------------------------------------------------


def _bits_to_double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]


def _double_to_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _make_fp_binop(fn):
    def factory(machine: Machine, instr, idx: int):
        regs = machine.regs
        append = machine._events.append
        a, b = instr.srcs
        dst = instr.dst
        nxt = idx + 1

        def run(a=a, b=b, dst=dst):
            regs[dst] = _double_to_bits(
                fn(_bits_to_double(regs[a]), _bits_to_double(regs[b]))
            )
            append((idx, 0))
            return nxt

        return run

    return factory


def _fdiv_impl(x: float, y: float) -> float:
    if y == 0.0:
        raise SimulationError("floating-point division by zero")
    return x / y


def _make_fmov(machine: Machine, instr, idx: int):
    regs = machine.regs
    append = machine._events.append
    (a,) = instr.srcs
    dst = instr.dst
    nxt = idx + 1

    def run(a=a, dst=dst):
        regs[dst] = regs[a]
        append((idx, 0))
        return nxt

    return run


def _make_fitod(machine: Machine, instr, idx: int):
    regs = machine.regs
    append = machine._events.append
    (a,) = instr.srcs
    dst = instr.dst
    nxt = idx + 1

    def run(a=a, dst=dst):
        regs[dst] = _double_to_bits(float(s64(regs[a])))
        append((idx, 0))
        return nxt

    return run


def _make_fdtoi(machine: Machine, instr, idx: int):
    regs = machine.regs
    append = machine._events.append
    (a,) = instr.srcs
    dst = instr.dst
    nxt = idx + 1

    def run(a=a, dst=dst):
        regs[dst] = int(_bits_to_double(regs[a])) & MASK64
        append((idx, 0))
        return nxt

    return run


_FP_OPS = {
    "fadd": _make_fp_binop(lambda x, y: x + y),
    "fsub": _make_fp_binop(lambda x, y: x - y),
    "fmuld": _make_fp_binop(lambda x, y: x * y),
    "fdivd": _make_fp_binop(_fdiv_impl),
    "fmovd": _make_fmov,
    "fitod": _make_fitod,
    "fdtoi": _make_fdtoi,
}
