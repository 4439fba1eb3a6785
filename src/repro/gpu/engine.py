"""Discrete-event timing engine.

Wavefront interpreters yield timed resource requests; the engine resolves
them against a next-free-time model of every contended resource:

* per-SIMD issue ports (VALU occupancy — 4 cycles per 64-wide op),
* the CU scalar unit,
* the CU LDS port (serialized bank-conflict passes),
* the CU vector memory unit (per-64B-transaction occupancy),
* shared L2 banks and DRAM bandwidth (bytes/cycle tokens),
* per-address atomic serialization at the L2.

A single global event queue applies functional global-memory effects in
processing order, which keeps cross-work-group protocols (the
Inter-Group RMT locks) causally consistent.  The queue's pop order is a
pluggable :class:`~repro.gpu.schedule.Scheduler` policy; the default is
a time-ordered heap with FIFO tie-break (the historical behaviour),
while adversarial and model-checking schedulers may legally permute
continuations to explore other interleavings.  Latency hiding emerges
naturally: a wavefront blocked on memory leaves its SIMD free for the
other resident wavefronts — the mechanism behind the paper's headline
finding that memory-bound kernels hide the cost of redundant computation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import GpuConfig
from .counters import KernelCounters
from .memory import CacheModel, GlobalMemory, GlobalPattern, global_pattern
from .occupancy import KernelResources, Occupancy, compute_occupancy
from .schedule import DefaultScheduler, Scheduler
from .wavefront import (
    BarrierReq,
    ErrorReq,
    ExecReq,
    GlobalReq,
    GroupState,
    LaunchContext,
    LdsReq,
    Wavefront,
)


class SimulationError(Exception):
    """Deadlock/livelock watchdog or internal inconsistency."""

    #: the engine that ran the aborted launch, stamped by the device
    engine_kind: str = ""


class UpsetMasked(Exception):
    """The fault hook flipped a register no instruction reads again.

    Raised by :class:`~repro.faults.injector.FaultHook` only in a launch
    the device armed for it (``LaunchContext.dead_upset``): the device
    then finishes the launch from the recorded golden launch instead of
    simulating the rest (DESIGN.md §20).  Not a
    :class:`SimulationError`: nothing went wrong.
    """


@dataclass
class LaunchResult:
    """Outcome of a single kernel launch."""

    cycles: float
    counters: KernelCounters
    occupancy: Occupancy
    detections: List[Tuple[float, int, int]] = field(default_factory=list)
    groups_launched: int = 0
    waves_launched: int = 0
    events_processed: int = 0
    #: final dynamic instruction count of each wave, indexed by ordinal
    #: minus this launch's ordinal base — the *fault envelope* campaigns
    #: use to prove a plan can never fire without simulating the trial.
    wave_instrs: List[int] = field(default_factory=list)
    #: which engine produced this result ("standard" | "vectorized") —
    #: lets tests prove the vectorized engine's fallback paths fired.
    engine_kind: str = "standard"
    #: wild global and LDS accesses wrapped under a fault hook (an
    #: upset-corrupted address); diagnostic only, not part of a trial
    #: record
    oob_events: int = 0

    @property
    def detected(self) -> bool:
        return bool(self.detections)


class _CuState:
    """Per-CU next-free-time bookkeeping."""

    __slots__ = ("simd_free", "simd_waves", "mem_free", "lds_free", "salu_free",
                 "resident_groups")

    def __init__(self, num_simds: int):
        self.simd_free = [0.0] * num_simds
        self.simd_waves = [0] * num_simds
        self.mem_free = 0.0
        self.lds_free = 0.0
        self.salu_free = 0.0
        self.resident_groups = 0


#: Cycles of store-queue decoupling before the write unit stalls.
_STORE_QUEUE_SLACK = 1024.0
#: Cycles between a group finishing and the next being dispatched.
_DISPATCH_LATENCY = 64.0
#: Stagger between wave launches of one group.
_WAVE_STAGGER = 4.0


class Engine:
    """Executes one kernel launch over the device timing model."""

    def __init__(
        self,
        config: GpuConfig,
        global_mem: GlobalMemory,
        l1s: List[CacheModel],
        l2: CacheModel,
        start_time: float = 0.0,
        scheduler: Optional[Scheduler] = None,
        wave_ordinal_base: int = 0,
    ):
        self.config = config
        self.mem = global_mem
        self.l1s = l1s
        self.l2 = l2
        self.start_time = start_time
        self.scheduler = scheduler
        # Execution-start ordinals: stamped on each wave the first time
        # it is popped from the event queue — the exact order the fault
        # hook used to observe first-executed waves in, so existing
        # campaign journals keep targeting the same victims.  The base
        # is carried across launches by the device so multi-launch
        # benchmarks number waves continuously.
        self._ordinal_base = wave_ordinal_base
        self._next_ordinal = wave_ordinal_base
        self._wave_instrs_done: Dict[int, int] = {}
        self.counters = KernelCounters(window_cycles=1_000_000)
        self._dram_free = start_time
        self._l2_bank_free = [start_time] * config.l2_banks
        self._atomic_free: Dict[int, float] = {}
        self._atomic_line_free: Dict[int, float] = {}
        self._atomic_unit_free = start_time

    # -- subclass hooks (see repro.gpu.vectorized) ---------------------

    def _make_scheduler(self, ctx: LaunchContext) -> Scheduler:
        """The scheduler instance this run pops continuations from."""
        return self.scheduler if self.scheduler is not None else DefaultScheduler()

    def _spawn_wave(self, ctx: LaunchContext, group: GroupState, wave_idx: int):
        """Create one wavefront with its continuation generator."""
        wave = Wavefront(ctx, group, wave_idx)
        wave.gen = wave.run()
        return wave

    # ------------------------------------------------------------------

    def run(self, ctx: LaunchContext, resources: KernelResources) -> LaunchResult:
        # Kernel arithmetic wraps like the hardware, so numpy's overflow
        # and invalid-value warnings are noise.  The error state is set
        # once around the whole launch, never inside wave generators:
        # generators suspend mid-``with`` and interleave, so per-wave
        # resets would run out of order and leak "ignore" to the caller,
        # and a generator abandoned by an aborted launch would reset it
        # from a GC finalizer, which can land inside another ``errstate``
        # entry and segfault CPython 3.11.
        self._live: set = set()
        with np.errstate(all="ignore"):
            try:
                return self._run(ctx, resources)
            except BaseException:
                self._abandon(ctx)
                raise

    def _abandon(self, ctx: LaunchContext) -> None:
        """Break the reference cycles of an aborted launch's waves.

        A suspended wave and its generator reference each other, as do a
        parked wave and its group's barrier list, and a stuck wave and
        the livelock proof on its context: without these breaks only
        the cyclic garbage collector could free the launch.
        """
        for wave in self._live:
            wave.gen = None
            wave.group.barrier_waiting = []
        if ctx.livelock is not None:
            ctx.livelock.stuck = set()

    def _run(self, ctx: LaunchContext, resources: KernelResources) -> LaunchResult:
        cfg = self.config
        occ = compute_occupancy(cfg, resources, ctx.flat_local)

        cus = [_CuState(cfg.simds_per_cu) for _ in range(cfg.num_cus)]
        self._cus = cus
        pending_groups = list(range(ctx.total_groups))
        pending_groups.reverse()  # pop() yields group 0 first

        sched = self._make_scheduler(ctx)
        sched.begin(ctx)
        observe = sched.observe if sched.observes else None
        seq = itertools.count()
        t0 = self.start_time
        end_time = t = t0
        events = 0
        waves_launched = 0
        waves_completed = 0
        groups_launched = 0
        parked = 0  # waves waiting at a barrier
        proof = ctx.livelock
        live = self._live
        detections: List[Tuple[float, int, int]] = []

        def dispatch(cu_idx: int, when: float) -> None:
            nonlocal waves_launched, groups_launched
            flat_group = pending_groups.pop()
            group = GroupState(ctx, flat_group)
            cu = cus[cu_idx]
            cu.resident_groups += 1
            groups_launched += 1
            for w in range(group.n_waves):
                wave = self._spawn_wave(ctx, group, w)
                live.add(wave)
                wave.cu = cu_idx
                simd = min(range(cfg.simds_per_cu), key=lambda s: cu.simd_waves[s])
                cu.simd_waves[simd] += 1
                wave.simd = simd
                sched.push((when + w * _WAVE_STAGGER, next(seq), wave, None))
                waves_launched += 1

        # Initial fill: round-robin groups over CUs up to the occupancy cap.
        for _round in range(occ.max_groups_per_cu):
            for cu_idx in range(cfg.num_cus):
                if not pending_groups:
                    break
                dispatch(cu_idx, t0)

        max_events = 200_000_000
        while sched:
            # Livelock proof (DESIGN.md §17): every live wave is stuck at
            # the current write epoch or parked at a barrier.  Waves are
            # only marked stuck once the hook has fired.
            if (proof is not None and proof.stuck_epoch == proof.epoch
                    and len(proof.stuck) + parked
                    == waves_launched - waves_completed):
                raise SimulationError(
                    f"{proof.describe(parked, t)} "
                    f"(kernel {ctx.kernel.name!r})")
            t, _s, wave, sendval = sched.pop()
            if wave.ordinal < 0:
                wave.ordinal = self._next_ordinal
                self._next_ordinal += 1
            events += 1
            if events > max_events or t > cfg.max_cycles:
                raise SimulationError(
                    f"watchdog: events={events}, t={t:.0f} "
                    f"(kernel {ctx.kernel.name!r} — possible deadlock/livelock)"
                )
            try:
                req = wave.gen.send(sendval)
            except StopIteration:
                end_time = max(end_time, t)
                self._wave_instrs_done[wave.ordinal] = wave.dyn_instrs
                # Break the wave <-> generator reference cycle so finished
                # waves (and their register files) free by refcount instead
                # of waiting for a gc pass — campaigns churn thousands of
                # launches and the cycle collector pauses were measurable.
                wave.gen = None
                live.discard(wave)
                group = wave.group
                cu = cus[wave.cu]
                cu.simd_waves[wave.simd] -= 1
                group.waves_done += 1
                waves_completed += 1
                if group.waves_done == group.n_waves:
                    cu.resident_groups -= 1
                    if pending_groups:
                        dispatch(wave.cu, t + _DISPATCH_LATENCY)
                if observe is not None:
                    observe(wave, None, t, None)
                continue

            kind = type(req)
            if kind is ExecReq:
                ready = self._do_exec(wave, req, t)
                sched.push((ready, next(seq), wave, None))
            elif kind is GlobalReq:
                ready, result = self._do_global(wave, req, t)
                sched.push((ready, next(seq), wave, result))
                if observe is not None:
                    observe(wave, req, t, result)
            elif kind is LdsReq:
                ready = self._do_lds(wave, req, t)
                sched.push((ready, next(seq), wave, None))
            elif kind is BarrierReq:
                group = wave.group
                group.barrier_waiting.append((t, wave))
                parked += 1
                if len(group.barrier_waiting) == group.n_waves:
                    parked -= group.n_waves
                    release = max(bt for bt, _w in group.barrier_waiting)
                    release += self.config.branch_cycles
                    for _bt, w in group.barrier_waiting:
                        sched.push((release, next(seq), w, None))
                    group.barrier_waiting = []
                if observe is not None:
                    observe(wave, req, t, None)
            elif kind is ErrorReq:
                detections.append((t, req.code, req.lanes))
                sched.push((t, next(seq), wave, None))
                if observe is not None:
                    observe(wave, req, t, None)
            else:  # pragma: no cover
                raise SimulationError(f"unknown request {req!r}")
            end_time = max(end_time, t)

        if pending_groups:
            raise SimulationError(
                f"{len(pending_groups)} groups never dispatched "
                f"(kernel {ctx.kernel.name!r})"
            )
        if waves_completed != waves_launched:
            # Waves parked at a barrier that was never fully reached —
            # a barrier-divergence deadlock (possible under fault injection).
            raise SimulationError(
                f"barrier deadlock: {waves_launched - waves_completed} of "
                f"{waves_launched} waves never finished "
                f"(kernel {ctx.kernel.name!r})"
            )

        self.counters.detections.extend(detections)
        return LaunchResult(
            cycles=end_time - t0,
            counters=self.counters,
            occupancy=occ,
            detections=detections,
            groups_launched=groups_launched,
            waves_launched=waves_launched,
            events_processed=events,
            wave_instrs=[
                self._wave_instrs_done.get(self._ordinal_base + i, 0)
                for i in range(waves_launched)
            ],
            oob_events=ctx.oob_events,
        )

    # -- request handlers ------------------------------------------------

    def _do_exec(self, wave: Wavefront, req: ExecReq, t: float) -> float:
        cu = self._cu(wave)
        c = self.counters
        ready = t
        if req.valu_cycles:
            start = max(t, cu.simd_free[wave.simd])
            end = start + req.valu_cycles
            cu.simd_free[wave.simd] = end
            c.valu.add(start, end)
            ready = end
        if req.salu_cycles:
            start = max(ready, cu.salu_free)
            end = start + req.salu_cycles
            cu.salu_free = end
            c.salu.add(start, end)
            ready = end
        c.valu_instructions += req.n_valu
        c.salu_instructions += req.n_salu
        c.branch_instructions += req.n_branch
        c.divergent_branches += req.n_div_branch
        return ready

    def _do_lds(self, wave: Wavefront, req: LdsReq, t: float) -> float:
        cfg = self.config
        cu = self._cu(wave)
        start = max(t, cu.lds_free)
        busy = req.passes * cfg.lds_issue_cycles
        cu.lds_free = start + busy
        c = self.counters
        c.lds.add(start, start + busy)
        c.lds_accesses += 1
        c.lds_bank_conflict_passes += req.passes
        if req.op == "load":
            return start + busy + cfg.lds_latency
        return start + busy

    def _do_global(self, wave: Wavefront, req: GlobalReq, t: float):
        # One memoized lane analysis (DESIGN.md §18) serves the bounds
        # check, the coalesced lines and the atomic's distinctness test.
        cfg = self.config
        op = req.op
        buf = req.buf
        ctx = wave.ctx
        line_bytes = cfg.l2_line_bytes if op == "atomic" else cfg.l1_line_bytes
        i0, line0, pat = global_pattern(ctx.access_patterns, buf,
                                        req.indices, line_bytes)
        size = buf.data.size
        if i0 + pat.lo < 0 or i0 + pat.hi >= size:
            if ctx.fault_hook is None:
                raise IndexError(
                    f"out-of-bounds access to buffer {buf.name!r}: "
                    f"indices in [{i0 + pat.lo}, {i0 + pat.hi}], size {size}"
                )
            # Under fault injection a flipped address register may point
            # anywhere; real hardware would issue the wild access.  Model
            # it as a wrap within the buffer and count the event on the
            # launch's result.
            ctx.oob_events += 1
            req.indices = req.indices % size
            i0, line0, pat = global_pattern(ctx.access_patterns, buf,
                                            req.indices, line_bytes)
        if op == "load":
            return self._do_load(wave, req, t, line0, pat)
        if op == "sload":
            return self._do_scalar_load(wave, req, t)
        if op == "store":
            return self._do_store(wave, req, t, line0, pat)
        return self._do_atomic(wave, req, t, line0, pat)

    def _do_scalar_load(self, wave: Wavefront, req: GlobalReq, t: float):
        """Wavefront-uniform load through the scalar unit / constant cache.

        One 4-byte fetch serves the whole wavefront: it occupies the SU
        briefly and bypasses the vector memory unit entirely — the GCN
        scalarization the paper's Section 3.3 describes.
        """
        cfg = self.config
        cu = self._cu(wave)
        c = self.counters
        start = max(t, cu.salu_free)
        cu.salu_free = start + cfg.salu_latency
        c.salu.add(start, start + cfg.salu_latency)
        c.salu_instructions += 1
        data = req.buf.data[req.indices]
        return start + cfg.salu_latency + cfg.l1_hit_latency / 2.0, data

    def _do_load(self, wave: Wavefront, req: GlobalReq, t: float,
                 line0: int, pat: GlobalPattern):
        cfg = self.config
        cu = self._cu(wave)
        c = self.counters
        ntx = len(pat.lines)
        start = max(t, cu.mem_free)
        issue = cfg.mem_issue_cycles_per_instr + ntx * cfg.mem_issue_cycles_per_tx
        cu.mem_free = start + issue
        c.mem.add(start, start + issue)
        c.mem_transactions += ntx
        c.global_load_bytes += int(req.indices.size) * req.buf.elem_bytes

        l1 = self.l1s[wave.cu]
        max_done = start + issue
        for line in pat.lines:
            line += line0
            hit, _ = l1.access(line)
            if hit:
                c.l1_hits += 1
                done = start + cfg.l1_hit_latency
            else:
                c.l1_misses += 1
                bank = line % cfg.l2_banks
                bstart = max(start, self._l2_bank_free[bank])
                self._l2_bank_free[bank] = bstart + (
                    cfg.l2_line_bytes / cfg.l2_bytes_per_cycle_per_bank
                )
                l2_hit, writeback = self.l2.access(line)
                if l2_hit:
                    c.l2_hits += 1
                    done = bstart + cfg.l2_hit_latency
                else:
                    c.l2_misses += 1
                    dstart = max(bstart, self._dram_free)
                    self._dram_free = dstart + cfg.l2_line_bytes / cfg.dram_bytes_per_cycle
                    if writeback is not None:
                        self._dram_free += cfg.l2_line_bytes / cfg.dram_bytes_per_cycle
                    c.dram.add(dstart, self._dram_free)
                    done = dstart + cfg.dram_latency
            if done > max_done:
                max_done = done
        return max_done, req.buf.data[req.indices]

    def _do_store(self, wave: Wavefront, req: GlobalReq, t: float,
                  line0: int, pat: GlobalPattern):
        cfg = self.config
        cu = self._cu(wave)
        c = self.counters
        ntx = len(pat.lines)
        start = max(t, cu.mem_free)
        issue = cfg.mem_issue_cycles_per_instr + ntx * cfg.mem_issue_cycles_per_tx
        c.mem_transactions += ntx
        c.global_store_bytes += int(req.indices.size) * req.buf.elem_bytes

        # Stores write through the L1 into the writeback L2; DRAM traffic
        # happens only when allocation evicts a dirty victim — so streaming
        # stores saturate DRAM while hot lines (e.g. RMT communication
        # buffers) stay on chip.
        drain = start
        for line in pat.lines:
            line += line0
            bank = line % cfg.l2_banks
            bstart = max(start, self._l2_bank_free[bank])
            self._l2_bank_free[bank] = bstart + (
                cfg.l2_line_bytes / cfg.l2_bytes_per_cycle_per_bank
            )
            hit, writeback = self.l2.access(line, write=True)
            if hit:
                c.l2_hits += 1
            else:
                c.l2_misses += 1
            drain = max(drain, bstart)
            if writeback is not None:
                dstart = max(bstart, self._dram_free)
                self._dram_free = dstart + cfg.l2_line_bytes / cfg.dram_bytes_per_cycle
                c.dram.add(dstart, self._dram_free)
                drain = max(drain, self._dram_free)

        # The store queue decouples the wavefront from the drain unless the
        # downstream path is saturated — that residual is WriteUnitStalled.
        stall = max(0.0, (drain - (start + issue)) - _STORE_QUEUE_SLACK)
        end = start + issue + stall
        cu.mem_free = end
        c.mem.add(start, start + issue)
        if stall > 0:
            c.write_stall.add(start + issue, end)
        req.buf.data[req.indices] = req.values
        if wave.ctx.livelock is not None:
            wave.ctx.livelock.epoch += 1
        return end, None

    def _do_atomic(self, wave: Wavefront, req: GlobalReq, t: float,
                   line0: int, pat: GlobalPattern):
        cfg = self.config
        cu = self._cu(wave)
        c = self.counters
        addrs = req.buf.addresses(req.indices).tolist()
        nlanes = len(addrs)
        lb = cfg.l2_line_bytes
        start = max(t, cu.mem_free)
        # The memory unit issues one vector-atomic instruction; the L2's
        # atomic units unroll it lane by lane.
        issue = cfg.atomic_issue_cycles
        cu.mem_free = start + issue
        c.mem.add(start, start + issue)
        c.atomic_transactions += nlanes

        # Cold atomic targets fill from (and eventually write back to)
        # DRAM like any other dirty line.
        for line in pat.lines:
            line += line0
            hit, writeback = self.l2.access(line, write=True)
            if hit:
                c.l2_hits += 1
            else:
                c.l2_misses += 1
                dstart = max(start, self._dram_free)
                self._dram_free = dstart + cfg.l2_line_bytes / cfg.dram_bytes_per_cycle
                if writeback is not None:
                    self._dram_free += cfg.l2_line_bytes / cfg.dram_bytes_per_cycle
                c.dram.add(dstart, self._dram_free)

        # Serialization at the L2 atomic units: lanes touching one cache
        # line process back-to-back, and lanes to the same *address* (lock
        # words contended across wavefronts) serialize more strongly.
        # The comparison chains keep max()'s first-maximum semantics.
        max_done = start + issue
        per_op = 1.0 / cfg.atomic_chip_ops_per_cycle
        serial = cfg.atomic_serial_cycles
        op_cycles = cfg.atomic_op_cycles
        latency = cfg.atomic_latency
        addr_free = self._atomic_free
        line_free = self._atomic_line_free
        addr_get = addr_free.get
        line_get = line_free.get
        unit_free = self._atomic_unit_free
        for addr in addrs:
            line = addr // lb
            # Chip-wide atomic-ALU throughput: a pure rate token, consumed
            # at issue so one contended line cannot stall the pipeline.
            ustart = start
            if unit_free > ustart:
                ustart = unit_free
            unit_free = ustart + per_op
            astart = ustart
            free = addr_get(addr, 0.0)
            if free > astart:
                astart = free
            free = line_get(line, 0.0)
            if free > astart:
                astart = free
            addr_free[addr] = astart + serial
            line_free[line] = astart + op_cycles
            done = astart + latency
            if done > max_done:
                max_done = done
        self._atomic_unit_free = unit_free
        old = self.mem.atomic(req.atomic_op, req.buf, req.indices, req.values,
                              req.compares, distinct=pat.distinct)
        # Every lane reading back its own old value, bit for bit, means
        # no word changed (an add of 0, an xchg or cmpxchg that stored
        # what was there).
        proof = wave.ctx.livelock
        if proof is not None:
            new = req.buf.data[req.indices]
            if new.dtype != old.dtype or new.tobytes() != old.tobytes():
                proof.epoch += 1
        return max_done, old

    def _cu(self, wave: Wavefront) -> _CuState:
        return self._cus[wave.cu]
