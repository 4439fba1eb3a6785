"""IR structural verifier.

Run after construction and after every compiler pass; transformation bugs
surface here instead of deep inside the simulator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from .core import (
    AtomicGlobal,
    Cmp,
    If,
    Instr,
    Kernel,
    LoadGlobal,
    LoadLocal,
    LoadParam,
    PredOp,
    Select,
    Stmt,
    StoreGlobal,
    StoreLocal,
    While,
)
from .types import DType


class VerificationError(Exception):
    """Raised when a kernel fails structural verification.

    ``errors`` holds every individual failure (the message shows only a
    prefix of them, plus the total count).
    """

    def __init__(self, message: str, errors: Optional[Sequence[str]] = None):
        super().__init__(message)
        self.errors: List[str] = list(errors) if errors is not None else []


def verify_kernel(kernel: Kernel) -> None:
    """Check structural invariants; raise :class:`VerificationError`.

    Invariants checked:

    * every register read has a dominating write (conservatively: some
      earlier write in program order at an enclosing-or-earlier position);
    * parameter and LDS references point at objects declared on the kernel;
    * predicate registers only feed control flow, selects and pred-ops;
    * cmp destinations are predicates; memory value operands match buffer
      element types.
    """
    checker = _Checker(kernel)
    checker.check_body(kernel.body, set())
    if checker.errors:
        n = len(checker.errors)
        shown = "; ".join(checker.errors[:10])
        if n > 10:
            shown += f"; ... ({n - 10} more)"
        raise VerificationError(
            f"kernel {kernel.name!r}: {n} error(s): {shown}",
            errors=checker.errors,
        )


class _Checker:
    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.errors: List[str] = []
        self.param_set = set(id(p) for p in kernel.params)
        self.local_set = set(id(a) for a in kernel.locals)

    def _err(self, msg: str) -> None:
        self.errors.append(msg)

    def check_body(self, body: Sequence[Stmt], defined: Set[int]) -> Set[int]:
        """Walk a statement list, returning the updated defined-register set."""
        for stmt in body:
            if isinstance(stmt, If):
                self._check_read(stmt.cond, defined, "if condition")
                if stmt.cond.dtype is not DType.PRED:
                    self._err(f"if condition {stmt.cond!r} is not a predicate")
                # Writes in either arm may or may not happen; treat them as
                # defining (non-SSA IR relies on programmer discipline for
                # conditional initialization, as C does).
                then_defs = self.check_body(stmt.then_body, set(defined))
                else_defs = self.check_body(stmt.else_body, set(defined))
                defined |= then_defs | else_defs
            elif isinstance(stmt, While):
                loop_defs = self.check_body(stmt.cond_block, set(defined))
                self._check_read(stmt.cond, loop_defs, "while condition")
                if stmt.cond.dtype is not DType.PRED:
                    self._err(f"while condition {stmt.cond!r} is not a predicate")
                body_defs = self.check_body(stmt.body, set(loop_defs))
                defined |= loop_defs | body_defs
            else:
                self.check_instr(stmt, defined)
                for dst in stmt.dests():
                    defined.add(id(dst))
        return defined

    def _check_read(self, reg, defined: Set[int], where: str) -> None:
        if id(reg) not in defined:
            self._err(f"{where} reads undefined register {reg!r}")

    def check_instr(self, instr: Instr, defined: Set[int]) -> None:
        for src in instr.sources():
            if id(src) not in defined:  # message built only on failure
                self._check_read(src, defined, f"{instr!r}")
        if isinstance(instr, LoadParam):
            if id(instr.param) not in self.param_set:
                self._err(f"{instr!r} references undeclared parameter")
        elif isinstance(instr, (LoadGlobal, StoreGlobal, AtomicGlobal)):
            if id(instr.buf) not in self.param_set:
                self._err(f"{instr!r} references undeclared buffer")
        elif isinstance(instr, (LoadLocal, StoreLocal)):
            if id(instr.lds) not in self.local_set:
                self._err(f"{instr!r} references undeclared LDS allocation")
        if isinstance(instr, Cmp) and instr.dst.dtype is not DType.PRED:
            self._err(f"cmp destination {instr.dst!r} is not a predicate")
        if isinstance(instr, PredOp):
            for src in instr.sources():
                if src.dtype is not DType.PRED:
                    self._err(f"pred-op source {src!r} is not a predicate")
        if isinstance(instr, Select) and instr.pred.dtype is not DType.PRED:
            self._err(f"select predicate {instr.pred!r} is not a predicate")
        if isinstance(instr, StoreGlobal) and instr.value.dtype != instr.buf.dtype:
            self._err(
                f"store value type {instr.value.dtype} != buffer "
                f"{instr.buf.name} type {instr.buf.dtype}"
            )
        if isinstance(instr, StoreLocal) and instr.value.dtype != instr.lds.dtype:
            self._err(
                f"local store value type {instr.value.dtype} != LDS "
                f"{instr.lds.name} type {instr.lds.dtype}"
            )
