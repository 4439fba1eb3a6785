"""Layer attribution for the end-to-end benchmark, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`install` rebinds
named public functions and methods of ``repro`` at run time: a module
function is replaced in every already-imported ``repro`` module that
bound it (``from x import f`` copies), unless a target says it is wanted
only "as bound in" one module; a method is replaced on its class.  Each
wrapper charges its call to a span named after a package layer.

Two levels exist, so the untraced run pays almost nothing:

* **probes** (always on) — the op functions, ``Device.launch``,
  ``compile_kernel`` and the Figure 2/6 builders, each timed with one
  clock pair per call: per-op latency and simulated cycles are end-to-end
  metrics, and the deterministic counts are compared across runs; an
  optional host-speed probe runs after every op, outside its timing;
* **spans** (``--trace 1``) — every target below records
  ``[name, start, end, parent, op]`` in memory; self time is a span's
  duration minus the durations of its direct children (spans nest
  strictly: one thread, one stack).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

perf = time.perf_counter


class Tracer:
    """Span stack plus the counters the benchmark reads back."""

    def __init__(self, spans: bool, calibrate=None):
        self.spans_on = spans
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op = -1
        self._next_op = 0
        #: count-style statistics (deterministic for a given commit)
        self.counts: Dict[str, float] = defaultdict(float)
        #: one entry per completed op: (kind, seconds, result)
        self.ops: List[tuple] = []
        #: host-speed probe run after every op, outside its timing
        self.calibrate = calibrate
        #: ``op_cal[i]``: what the probe returned right after ``ops[i]``
        self.op_cal: List[float] = []
        #: seconds spent in the probe, for callers to take out of wall time
        self.cal_s = 0.0

    def call(self, fn, name, args, kwargs, after, is_op):
        idx = None
        if self.spans_on:
            idx = len(self.spans)
            if is_op:
                self._op = self._next_op
                self._next_op += 1
            parent = self._stack[-1] if self._stack else -1
            label = name(args) if callable(name) else name
            self.spans.append([label, 0.0, 0.0, parent, self._op])
            self._stack.append(idx)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf()
            if idx is not None:
                self._stack.pop()
                self.spans[idx][1] = t0
                self.spans[idx][2] = t1
                if is_op:
                    self._op = -1
        if after is not None:
            relabel = after(self, args, result, t1 - t0)
            if relabel and idx is not None:
                self.spans[idx][0] = relabel
        if is_op and self.calibrate is not None:
            t2 = perf()
            self.op_cal.append(self.calibrate())
            self.cal_s += perf() - t2
        return result


def _wrapper(tracer: Tracer, fn, name, after=None, is_op=False):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.call(fn, name, args, kwargs, after, is_op)

    return wrapped


def _rebind_function(module, attr: str, make, everywhere: bool) -> bool:
    original = getattr(module, attr, None)
    if original is None:
        return False
    wrapped = make(original)
    if not everywhere:
        setattr(module, attr, wrapped)
        return True
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
    return True


def _rebind_method(cls, attr: str, make) -> bool:
    original = cls.__dict__.get(attr)
    if original is None:
        return False
    setattr(cls, attr, make(original))
    return True


# -- after-hooks: counts and span relabelling --------------------------------


def _after_launch(tr: Tracer, args, result, dt):
    c = tr.counts
    c["gpu.sim_cycles.n"] += result.cycles
    c["gpu.waves.n"] += result.waves_launched
    c["gpu.events.n"] += result.events_processed


def _after_compile(tr: Tracer, args, result, dt):
    from repro.ir.core import walk_instrs

    tr.counts["compiler.compile.n"] += 1
    tr.counts["compiler.ir_instrs.n"] += sum(
        1 for _ in walk_instrs(result.kernel.body))


def _after_trial(tr: Tracer, args, rec, dt):
    if getattr(rec, "engine", "") == "elided":
        kind = "elided"
    elif rec.outcome == "hang":
        kind = "hang"
    elif rec.fired:
        kind = "fired"
    else:
        kind = "unfired"
    tr.ops.append((kind, dt, rec))
    return f"faults.trial.{kind}"


def _after_run_program(tr: Tracer, args, run, dt):
    tr.ops.append((run.status, dt, None))


def _after_check_program(tr: Tracer, args, report, dt):
    tr.counts["fuzz.findings.n"] += len(report.findings)


def _after_cell(tr: Tracer, args, record, dt):
    tr.ops.append(("cell", dt, record))


def _after_band(tr: Tracer, args, fig, dt):
    tr.counts["eval.band_match.n"] += sum(
        bool(row.get("band_match")) for row in fig.rows)


def _engine_label(args) -> str:
    # ``VecEngine.run`` runs the timing loop through ``Engine.run`` and
    # stamps ``engine_kind="vectorized"`` only after it returns, so the
    # engine class, not the result, names the span.
    from repro.gpu.vectorized import VecEngine

    return ("gpu.engine.vectorized" if isinstance(args[0], VecEngine)
            else "gpu.engine.standard")


# -- installation -------------------------------------------------------------


def install(tracer: Tracer) -> List[str]:
    """Install probes (always) and spans (when ``tracer.spans_on``).

    Returns the names of targets this checkout does not have, so an older
    commit can still be measured with whatever of the layer table exists.
    """
    import importlib

    missing: List[str] = []
    # Import every module that binds a target first, so "everywhere"
    # rebinding reaches their copies too.
    for module in ("repro.compiler.analysis.vulnerability", "repro.compiler.lint",
                   "repro.compiler.tv", "repro.eval.experiments_md",
                   "repro.faults.campaign", "repro.fuzz", "repro.kernels.suite",
                   "repro.orchestrator"):
        try:
            importlib.import_module(module)
        except ImportError:
            missing.append(module)

    from repro.gpu.device import Device
    from repro.gpu.engine import Engine
    from repro.kernels.base import Benchmark

    def fn(module: str, attr: str, name, after=None, is_op=False,
           everywhere=True, probe=False):
        if not (probe or tracer.spans_on):
            return
        try:
            mod = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            return
        make = lambda f: _wrapper(tracer, f, name, after, is_op)  # noqa: E731
        if not _rebind_function(mod, attr, make, everywhere):
            missing.append(f"{module}.{attr}")

    def meth(cls, attr: str, name, after=None, is_op=False, probe=False):
        if not (probe or tracer.spans_on):
            return
        make = lambda f: _wrapper(tracer, f, name, after, is_op)  # noqa: E731
        if not _rebind_method(cls, attr, make):
            missing.append(f"{cls.__name__}.{attr}")

    # Probes: op boundaries and simulated cycles.
    meth(Device, "launch", "gpu.launch", _after_launch, probe=True)
    fn("repro.faults.campaign", "execute_trial", "faults.trial", _after_trial,
       is_op=True, probe=True)
    fn("repro.fuzz.oracle", "run_program", "fuzz.run", _after_run_program,
       is_op=True, probe=True)
    fn("repro.eval.harness", "compute_record", "eval.cell", _after_cell,
       is_op=True, probe=True)
    # Deterministic counts, also probed untraced so the two runs of a
    # traced invocation can be compared exactly.
    fn("repro.compiler.pipeline", "compile_kernel", "compiler.compile",
       _after_compile, probe=True)
    for attr in ("fig2_data", "fig6_data"):
        fn("repro.eval.experiments_md", attr, "eval.figure", _after_band,
           everywhere=False, probe=True)

    # compiler
    meth(importlib.import_module("repro.compiler.pass_manager").PassManager,
         "run", "compiler.passes")
    fn("repro.compiler.lint", "check_kernel", "compiler.lint")
    fn("repro.compiler.tv", "validate_compile", "compiler.tv")
    for attr in ("analyze_uniformity", "estimate_resources", "analyze_sor"):
        fn("repro.compiler.pipeline", attr, "compiler.analysis",
           everywhere=False)
    fn("repro.compiler.analysis.vulnerability", "register_buckets",
       "compiler.vuln")
    # gpu
    fn("repro.gpu.device", "maybe_lower", "gpu.lower", everywhere=False)
    meth(Engine, "run", _engine_label)
    # faults
    fn("repro.faults.campaign", "run_campaign", "faults.campaign")
    fn("repro.faults.campaign", "draw_plans", "faults.plan", everywhere=False)
    fn("repro.faults.campaign", "classify_trial", "faults.classify",
       everywhere=False)
    # orchestrator
    meth(importlib.import_module("repro.orchestrator.journal").Journal,
         "append", "orchestrator.journal")
    fn("repro.orchestrator.pool", "run_tasks", "orchestrator.pool")
    # kernels: every suite class's host driver, golden model and oracle
    # (Benchmark.run itself is abstract; only concrete drivers are wrapped.)
    meth(Benchmark, "check", "kernels.check")
    for cls in _subclasses(Benchmark):
        for attr in ("reference", "check", "run"):
            if attr in cls.__dict__:
                meth(cls, attr, f"kernels.{attr}")
    # fuzz
    fn("repro.fuzz.generator", "generate_program", "fuzz.generate")
    fn("repro.fuzz.oracle", "check_program", "fuzz.diff", _after_check_program)
    # eval
    fn("repro.eval.experiments_md", "generate", "eval.render")
    for attr in ("table1_data", "table2_data", "table3_data", "fig3_data",
                 "fig4_data", "fig5_data", "fig7_data", "fig8_data",
                 "fig9_data"):
        fn("repro.eval.experiments_md", attr, "eval.figure", everywhere=False)
    return missing


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# -- analysis -------------------------------------------------------------------


def self_times(spans: List[list]):
    """``{name: (self_seconds, count)}`` over all spans."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, list] = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        entry = out[name]
        entry[0] += (end - start) - child[i]
        entry[1] += 1
    return dict(out)


def inclusive_times(spans: List[list]) -> Dict[str, float]:
    """Summed durations of spans by name (children included)."""
    out: Dict[str, float] = defaultdict(float)
    for name, start, end, _parent, _op in spans:
        out[name] += end - start
    return dict(out)


def top_level_seconds(spans: List[list]) -> float:
    """Wall time inside some span (top-level spans never overlap)."""
    return sum(end - start for _n, start, end, parent, _op in spans
               if parent < 0)


def campaign_setup_seconds(spans: List[list]) -> float:
    """Sum over campaigns of entry-to-first-trial time.

    Covers compile, priority buckets, golden run, host reference and plan
    drawing: everything a campaign does before its first ``execute_trial``.
    """
    total = 0.0
    open_campaign: Optional[float] = None
    for name, start, _end, _parent, _op in spans:
        if name == "faults.campaign":
            open_campaign = start
        elif name.startswith("faults.trial.") and open_campaign is not None:
            total += start - open_campaign
            open_campaign = None
    return total

