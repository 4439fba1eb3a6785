"""Compilation pipeline: frontend IR → (optional RMT pass) → backend
annotations.

``compile_kernel`` is the toolchain entry point the benchmarks use.  It
mirrors the paper's three-stage compiler (Section 4): the builder DSL
plays the high-level frontend, the RMT transformation runs at the IR
layer, and the backend annotations (uniformity → scalar-unit placement,
register/LDS footprints → occupancy) feed the timing simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Set

from ..gpu.occupancy import KernelResources
from ..ir.core import Kernel
from ..ir.verify import verify_kernel
from .analysis.resources import estimate_resources
from .analysis.sor import SorReport, analyze_sor
from .analysis.uniformity import UniformityInfo, analyze_uniformity
from .cache import compile_key, resolve_cache
from .pass_manager import Pass, PassManager
from .passes.rmt_common import RmtOptions
from .passes.rmt_inter import InterGroupRmtPass
from .passes.rmt_intra import IntraGroupRmtPass

#: The RMT variants evaluated in the paper, by harness name.
RMT_VARIANTS = (
    "original",
    "intra+lds",
    "intra-lds",
    "intra+lds_fast",
    "intra-lds_fast",
    "inter",
)


def rmt_pass_for(variant: str, communication: bool = True) -> Optional[Pass]:
    """Map a harness variant name to its transformation pass."""
    if variant == "original":
        return None
    if variant.startswith("intra"):
        include_lds = "+lds" in variant
        fast = variant.endswith("_fast")
        return IntraGroupRmtPass(
            RmtOptions(include_lds=include_lds, communication=communication,
                       fast_comm=fast)
        )
    if variant == "inter":
        return InterGroupRmtPass(RmtOptions(communication=communication))
    raise ValueError(f"unknown RMT variant {variant!r}")


@dataclass
class CompiledKernel:
    """A kernel plus the backend annotations the simulator consumes."""

    kernel: Kernel
    resources: KernelResources
    uniformity: UniformityInfo
    sor: SorReport
    variant: str

    @property
    def scalar_instrs(self) -> Set[int]:
        return self.uniformity.scalar_instrs

    @property
    def rmt_metadata(self) -> Optional[dict]:
        return self.kernel.metadata.get("rmt")


def _annotate(transformed: Kernel, variant: str,
              lint_context=None) -> CompiledKernel:
    """Backend annotation tail: analyses the simulator consumes.

    Factored out so the compile cache can rebuild process-local
    annotations (the uniformity/SoR sets are ``id()``-based and do not
    survive pickling) for a kernel restored from the disk tier.
    ``lint_context`` is the compile's lint context for ``transformed``,
    whose uniformity is reused instead of recomputed.
    """
    if lint_context is not None:
        uniformity = lint_context.uniformity
    else:
        uniformity = analyze_uniformity(transformed)
    resources = estimate_resources(transformed, uniformity)
    sor = analyze_sor(transformed)
    return CompiledKernel(
        kernel=transformed,
        resources=resources,
        uniformity=uniformity,
        sor=sor,
        variant=variant,
    )


def compile_kernel(
    kernel: Kernel,
    variant: str = "original",
    communication: bool = True,
    verify: bool = True,
    optimize: bool = False,
    lint: bool = True,
    validate: Optional[bool] = None,
    rmt_pass: Optional[Pass] = None,
    extra_passes: Sequence[Pass] = (),
    cache=None,
) -> CompiledKernel:
    """Run the pipeline for one kernel/variant pair.

    ``optimize=True`` appends the cleanup pipeline (constant folding,
    CSE, DCE) after the RMT transformation, reducing the transformed
    kernel's register pressure the way a production backend would.

    ``lint=False`` opts out of the post-pass static lint suite (see
    :mod:`repro.compiler.lint`); lint also requires ``verify``.

    ``validate`` controls per-compile translation validation (see
    :mod:`repro.compiler.tv`): the transformed kernel is checked against
    the original under the RMT simulation relation, and any *failed*
    proof obligation raises :class:`~repro.compiler.tv.TvError` with a
    counterexample witness.  The default (``None``) follows ``lint and
    verify``; pass ``validate=False`` to opt out, or ``validate=True``
    to validate even with lint disabled.

    ``rmt_pass`` substitutes a custom transformation for the variant's
    stock pass, and ``extra_passes`` run right after it (before the
    cleanup pipeline).  Both exist for differential testing — the fuzz
    oracle uses them to plant deliberately broken passes and prove it
    can detect them (see :mod:`repro.fuzz.oracle`).

    ``cache`` selects the compile cache (see
    :mod:`repro.compiler.cache`): ``None`` uses the process-wide
    default, ``False`` bypasses caching for this call, and an explicit
    :class:`~repro.compiler.cache.CompileCache` is used as-is.  The key
    covers the kernel's structural fingerprint and every argument above,
    so a hit is exactly the compile that would have run; a compile whose
    inputs cannot be canonically fingerprinted (an exotic planted pass)
    silently bypasses the cache.
    """
    from .passes.optimize import (
        CommonSubexpressionPass,
        ConstantFoldingPass,
        DeadCodeEliminationPass,
    )

    if validate is None:
        validate = lint and verify

    cache_obj = resolve_cache(cache)
    key = None
    if cache_obj is not None:
        key = compile_key(
            kernel, variant=variant, communication=communication,
            verify=verify, optimize=optimize, lint=lint, validate=validate,
            rmt_pass=rmt_pass, extra_passes=extra_passes,
        )
        if key is None:
            cache_obj.stats.uncacheable += 1
        else:
            hit = cache_obj.lookup(key, _annotate)
            if hit is not None:
                return hit

    passes = []
    p = rmt_pass if rmt_pass is not None else rmt_pass_for(
        variant, communication=communication)
    if p is not None:
        passes.append(p)
    passes.extend(extra_passes)
    if optimize:
        passes.extend([
            ConstantFoldingPass(),
            CommonSubexpressionPass(),
            DeadCodeEliminationPass(),
        ])
    pm = PassManager(passes, verify=verify, lint=lint and verify)
    transformed = pm.run(kernel)
    # Lint, TV and the annotations share one set of analyses of the
    # transformed kernel.
    ctx = pm.lint_context
    if validate:
        from .tv import validate_compile  # lazy: tv imports the lint suite

        validate_compile(kernel, transformed, variant=variant, context=ctx)
    compiled = _annotate(transformed, variant, ctx)
    if cache_obj is not None and key is not None:
        cache_obj.store(key, compiled)
    return compiled
