"""Lint driver: shared per-kernel analysis context and checker dispatch."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...ir.core import Kernel
from ..analysis.dataflow import (
    CFG,
    BarrierIntervals,
    ReachingDefs,
    barrier_intervals,
    build_cfg,
    reaching_definitions,
)
from ..analysis.ranges import RangeAnalysis, analyze_ranges
from ..analysis.uniformity import UniformityInfo, analyze_uniformity
from .diagnostics import ERROR, Diagnostic, LintError, normalize_diagnostics

#: One wavefront = 64 lanes on GCN; accesses inside a wavefront are
#: lockstep-ordered, which several checkers exploit.
WAVEFRONT = 64


class LintContext:
    """Lazily-computed analyses shared by all checkers for one kernel."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._cfg: Optional[CFG] = None
        self._uniformity: Optional[UniformityInfo] = None
        self._intervals: Optional[BarrierIntervals] = None
        self._rdefs: Optional[ReachingDefs] = None
        self._ranges: Optional[RangeAnalysis] = None
        #: each checker's diagnostics from :func:`run_lints`, by checker
        #: name, for later stages (TV reads ``sor-coverage``)
        self.results: Dict[str, List[Diagnostic]] = {}

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.kernel)
        return self._cfg

    @property
    def uniformity(self) -> UniformityInfo:
        if self._uniformity is None:
            self._uniformity = analyze_uniformity(self.kernel)
        return self._uniformity

    @property
    def intervals(self) -> BarrierIntervals:
        if self._intervals is None:
            self._intervals = barrier_intervals(self.cfg)
        return self._intervals

    @property
    def reaching_defs(self) -> ReachingDefs:
        if self._rdefs is None:
            self._rdefs = reaching_definitions(self.cfg)
        return self._rdefs

    @property
    def ranges(self) -> RangeAnalysis:
        if self._ranges is None:
            self._ranges = analyze_ranges(self.kernel)
        return self._ranges

    @property
    def local_size(self) -> Optional[Tuple[int, int, int]]:
        """Normalized work-group shape, or None if the kernel has none."""
        ls = self.kernel.metadata.get("local_size")
        if ls is None:
            return None
        if isinstance(ls, int):
            ls = (ls, 1, 1)
        ls = tuple(int(x) for x in ls) + (1,) * (3 - len(ls))
        return ls[:3]

    @property
    def flat_local_size(self) -> Optional[int]:
        ls = self.local_size
        if ls is None:
            return None
        return ls[0] * ls[1] * ls[2]

    def loc(self, instr) -> str:
        """Render an instruction's structured-IR path."""
        loc = self.cfg.locs.get(id(instr))
        return str(loc) if loc is not None else "<unknown>"

    def diag(self, checker: str, severity: str, instr_or_loc, message: str) -> Diagnostic:
        loc = (
            instr_or_loc
            if isinstance(instr_or_loc, str)
            else self.loc(instr_or_loc)
        )
        return Diagnostic(checker, severity, self.kernel.name, loc, message)


Checker = Callable[[LintContext], List[Diagnostic]]


def _registry() -> Dict[str, Checker]:
    from .barrier_divergence import check_barrier_divergence
    from .lds_races import check_lds_races
    from .oob import check_oob
    from .sor_coverage import check_sor_coverage
    from .undef import check_undefined_uses
    from .vuln import check_vuln

    return {
        "barrier-divergence": check_barrier_divergence,
        "lds-race": check_lds_races,
        "undef": check_undefined_uses,
        "sor-coverage": check_sor_coverage,
        "oob": check_oob,
        "vuln": check_vuln,
    }


def checker_names() -> List[str]:
    return list(_registry().keys())


def run_lints(
    kernel: Kernel,
    checkers: Optional[Sequence[str]] = None,
    ctx: Optional[LintContext] = None,
) -> List[Diagnostic]:
    """Run the requested checkers (default: all) over one kernel.

    ``ctx`` supplies the analysis context to fill (it must be for
    ``kernel``), so a caller can reuse the analyses afterwards.
    """
    registry = _registry()
    names = list(checkers) if checkers is not None else list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise KeyError(f"unknown lint checker(s) {unknown}; have {sorted(registry)}")
    if ctx is None:
        ctx = LintContext(kernel)
    out: List[Diagnostic] = []
    for name in names:
        ctx.results[name] = registry[name](ctx)
        out.extend(ctx.results[name])
    return normalize_diagnostics(out)


def check_kernel(
    kernel: Kernel,
    checkers: Optional[Sequence[str]] = None,
    ctx: Optional[LintContext] = None,
) -> List[Diagnostic]:
    """Run the lint suite and raise :class:`LintError` on any error.

    Returns the full diagnostic list (warnings included) when clean.
    ``ctx`` is as for :func:`run_lints`.
    """
    diagnostics = run_lints(kernel, checkers, ctx)
    if any(d.severity == ERROR for d in diagnostics):
        raise LintError(diagnostics)
    return diagnostics
