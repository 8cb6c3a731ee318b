"""Pre-computed per-static-instruction metadata for the timing models.

The dynamic trace from :class:`repro.sim.machine.Machine` carries only
``(static_index, aux)``; everything else the in-order and out-of-order
models need is static and is flattened here into parallel lists for
fast indexed access in the hot simulation loops.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..asm.program import Program
from ..isa.opcodes import Category, OpClass, spec

# Instruction kinds (dispatch codes for the timing loops).
K_SIMPLE = 0
K_LOAD = 1
K_STORE = 2
K_PREFETCH = 3
K_BRANCH = 4  # conditional
K_UNCOND = 5  # j / call / ret

# Functional-unit classes (Table 2).
FU_INT = 0
FU_FP = 1
FU_ADDR = 2  # address generation for memory operations
FU_VADD = 3
FU_VMUL = 4
NUM_FU_TYPES = 5

FU_NAMES = ("integer", "fp", "addrgen", "vis-adder", "vis-multiplier")

# Figure 2 categories.
CAT_FU = 0
CAT_BRANCH = 1
CAT_MEMORY = 2
CAT_VIS = 3
CATEGORY_NAMES = ("FU", "Branch", "Memory", "VIS")

_OPCLASS_TO_FU = {
    OpClass.IALU: FU_INT,
    OpClass.IMUL: FU_INT,
    OpClass.IDIV: FU_INT,
    OpClass.FALU: FU_FP,
    OpClass.FMUL: FU_FP,
    OpClass.FDIV: FU_FP,
    OpClass.LOAD: FU_ADDR,
    OpClass.STORE: FU_ADDR,
    OpClass.PREFETCH: FU_ADDR,
    OpClass.BRANCH: FU_INT,
    OpClass.JUMP: FU_INT,
    OpClass.CALL: FU_INT,
    OpClass.RET: FU_INT,
    OpClass.VIS_ADD: FU_VADD,
    OpClass.VIS_MUL: FU_VMUL,
}

_CATEGORY_CODE = {
    Category.FU: CAT_FU,
    Category.BRANCH: CAT_BRANCH,
    Category.MEMORY: CAT_MEMORY,
    Category.VIS: CAT_VIS,
}


class StaticProgramInfo:
    """Flattened static metadata, one entry per static instruction."""

    def __init__(self, program: Program) -> None:
        n = len(program.instructions)
        self.kind: List[int] = [0] * n
        self.fu: List[int] = [0] * n
        self.latency: List[int] = [1] * n
        self.pipelined: List[bool] = [True] * n
        self.dst: List[int] = [-1] * n
        self.dst2: List[int] = [-1] * n
        self.srcs: List[Tuple[int, ...]] = [()] * n
        self.category: List[int] = [0] * n
        self.hint_taken: List[bool] = [True] * n
        self.is_call: List[bool] = [False] * n
        self.is_ret: List[bool] = [False] * n
        self.size: List[int] = [0] * n  # memory access size in bytes
        self.op_name: List[str] = [""] * n

        for i, instr in enumerate(program.instructions):
            op = spec(instr.op)
            self.op_name[i] = instr.op
            self.fu[i] = _OPCLASS_TO_FU[op.opclass]
            self.latency[i] = op.latency
            self.pipelined[i] = op.pipelined
            self.dst[i] = instr.dst
            self.dst2[i] = instr.dst2
            self.srcs[i] = instr.srcs
            self.category[i] = _CATEGORY_CODE[op.category]
            self.hint_taken[i] = bool(instr.hint_taken)
            if op.opclass == OpClass.LOAD:
                self.kind[i] = K_LOAD
            elif op.opclass == OpClass.STORE:
                self.kind[i] = K_STORE
            elif op.opclass == OpClass.PREFETCH:
                self.kind[i] = K_PREFETCH
            elif op.opclass == OpClass.BRANCH:
                self.kind[i] = K_BRANCH
            elif op.opclass in (OpClass.JUMP, OpClass.CALL, OpClass.RET):
                self.kind[i] = K_UNCOND
                self.is_call[i] = op.opclass == OpClass.CALL
                self.is_ret[i] = op.opclass == OpClass.RET
            else:
                self.kind[i] = K_SIMPLE
            if op.is_memory:
                self.size[i] = _access_size(instr.op)

        # numpy columns for the vector engine's per-chunk aggregates
        # (VectorChunk.aggregates): fancy-indexed by dynamic sidx.
        self.kind_arr = np.array(self.kind, dtype=np.int8)
        self.category_arr = np.array(self.category, dtype=np.int8)

    def __len__(self) -> int:
        return len(self.kind)


def _access_size(op_name: str) -> int:
    sizes = {
        "ldb": 1, "ldbs": 1, "stb": 1, "ldfb": 1, "stfb": 1,
        "ldh": 2, "ldhs": 2, "sth": 2, "ldfh": 2, "stfh": 2,
        "ldw": 4, "ldws": 4, "stw": 4, "ldfw": 4, "stfw": 4,
        "ldx": 8, "stx": 8, "ldf": 8, "stf": 8, "pst": 8,
        "pf": 64,
    }
    return sizes[op_name]
