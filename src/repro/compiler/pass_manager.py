"""Compiler pass framework.

Mirrors the structure of the paper's toolchain (Section 4): kernels
arrive from the frontend (our builder DSL), optimization/transformation
passes run at the IR layer — where the RMT transformations live — and
analyses annotate the result for the backend (our timing simulator).
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..ir.core import Kernel, Stmt, clone_stmt, walk_instrs
from ..ir.verify import verify_kernel


def clone_kernel(kernel: Kernel) -> Kernel:
    """Deep-copy a kernel (fresh statement objects, shared registers).

    Registers are immutable value handles, so sharing them between the
    original and the clone is safe; statements and the body tree are
    duplicated so passes can mutate freely.
    """
    new = Kernel(
        name=kernel.name,
        params=list(kernel.params),
        locals=list(kernel.locals),
        body=[clone_stmt(s, {}) for s in kernel.body],
        metadata=copy.deepcopy(kernel.metadata),
    )
    # Continue register numbering where the original left off.
    new._name_counter = copy.copy(kernel._name_counter)
    return new


class Pass:
    """Base class for kernel transformation passes."""

    name = "pass"

    def run(self, kernel: Kernel) -> Kernel:
        """Transform and return a kernel (may mutate its argument)."""
        raise NotImplementedError


class PassManager:
    """Runs a pass pipeline with verification between stages.

    With ``lint=True`` the static lint suite (barrier divergence, LDS
    races, definite assignment, RMT SoR coverage) runs once over the
    final kernel as post-pass verification; lint errors raise
    :class:`~repro.compiler.lint.LintError`, a
    :class:`~repro.ir.verify.VerificationError` subclass.  The analyses
    it computed stay available as :attr:`lint_context` for later stages
    of the same compile.
    """

    def __init__(
        self, passes: Sequence[Pass], verify: bool = True, lint: bool = False
    ):
        self.passes = list(passes)
        self.verify = verify
        self.lint = lint
        #: the last run's :class:`~repro.compiler.lint.LintContext`
        self.lint_context = None

    def run(self, kernel: Kernel) -> Kernel:
        """Clone the input, run every pass, verify after each."""
        result = clone_kernel(kernel)
        if self.verify:
            verify_kernel(result)
        for p in self.passes:
            result = p.run(result)
            if self.verify:
                verify_kernel(result)
        self.lint_context = None
        if self.lint:
            from .lint import LintContext, check_kernel  # lazy: lint imports analyses

            self.lint_context = LintContext(result)
            check_kernel(result, ctx=self.lint_context)
        return result
