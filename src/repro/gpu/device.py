"""Top-level simulated device.

Owns the global memory, the per-CU L1s and the shared L2, and runs
kernel launches through the timing engine.  Caches stay warm across
launches of a multi-pass benchmark (BitonicSort, FloydWarshall, ...),
matching real hardware behaviour; time accumulates across launches.

A device can also record its launches on a :class:`LaunchTape` and,
on another device, replay a recorded launch instead of simulating it
when the device state and arguments are exactly the recorded ones
(DESIGN.md §16), or finish one from the tape once its fault upset is
proven dead (DESIGN.md §20).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir.core import Kernel
from .config import DEFAULT_POWER, GpuConfig, HD7790, PowerConfig
from .counters import KernelCounters, merge_counters
from .engine import Engine, LaunchResult, SimulationError, UpsetMasked
from .memory import CacheModel, CacheState, DeviceBuffer, GlobalMemory
from .occupancy import KernelResources, compute_occupancy
from .fused import LivelockProof, fault_window_enabled, maybe_lower
from .power import PowerReport, estimate_power
from .vectorized import VecEngine, vector_enabled
from .wavefront import LaunchContext


def _normalize_size(size) -> Tuple[int, int, int]:
    if isinstance(size, int):
        return (size, 1, 1)
    size = tuple(size)
    return size + (1,) * (3 - len(size))


@dataclass
class DeviceRunStats:
    """Aggregate statistics across all launches on a device."""

    total_cycles: float = 0.0
    launches: int = 0
    launch_results: List[LaunchResult] = field(default_factory=list)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise array equality (tells -0.0 from 0.0 and NaN payloads)."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.uint8), b.view(np.uint8)))


def _scalar_key(scalars: Dict[str, object]) -> tuple:
    return tuple(sorted(
        (name, type(v).__name__, np.asarray(v).tobytes())
        for name, v in scalars.items()))


@dataclass(eq=False)
class TapeEntry:
    """One recorded launch.

    The pre-launch state is everything a launch reads: every buffer's
    name, base address and contents, the allocator's next base, the
    L1/L2 images, the clock and the wave-ordinal base; ``args`` holds
    the launch arguments.  The post-launch image is everything a launch
    writes besides the clock and ordinals: its bound buffers and the
    caches.
    """

    buffers: Tuple[Tuple[str, int, np.ndarray], ...]
    next_base: int
    caches: Tuple[CacheState, ...]
    clock: float
    ordinal_base: int
    args: tuple
    result: LaunchResult
    post_buffers: Dict[str, np.ndarray]
    post_caches: Tuple[CacheState, ...]


class LaunchTape:
    """A golden run's launches, in order, with their exact device state.

    Images are shared between entries wherever the state did not change:
    a buffer the host did not write between launches, and the caches
    (which only launches touch), reuse the previous entry's arrays.
    """

    def __init__(self, config: GpuConfig):
        self.config = config
        #: ``None`` marks a launch that must never be replayed: it ran
        #: under a fault hook or a non-default scheduler, or bound a
        #: buffer the device's memory does not hold.
        self.entries: List[Optional[TapeEntry]] = []
        self._last_buffer: Dict[str, np.ndarray] = {}
        self._last_caches: Tuple[CacheState, ...] = ()

    def capture(self, device: "Device", args: tuple) -> Dict:
        """The pre-launch half of an entry: ``device``'s state now."""
        return dict(
            buffers=tuple(
                (name, buf.base_addr, self._buffer_image(name, buf.data))
                for name, buf in device.memory.buffers.items()),
            next_base=device.memory._next_base,
            caches=self._cache_images(device._caches()),
            clock=device.clock,
            ordinal_base=device._wave_ordinals,
            args=args,
        )

    def append(self, pre: Optional[Dict], device: "Device",
               buffers: Dict[str, DeviceBuffer], result: LaunchResult) -> None:
        """Complete the entry ``pre`` began (``None``: unreplayable)."""
        entry = None if pre is None else TapeEntry(
            **pre,
            result=copy.deepcopy(result),
            post_buffers={buf.name: self._buffer_image(buf.name, buf.data)
                          for buf in buffers.values()},
            post_caches=self._cache_images(device._caches()),
        )
        self.entries.append(entry)

    def _buffer_image(self, name: str, data: np.ndarray) -> np.ndarray:
        last = self._last_buffer.get(name)
        if last is None or not _same_bits(last, data):
            last = self._last_buffer[name] = data.copy()
        return last

    def _cache_images(self, caches: List[CacheModel]) -> Tuple[CacheState, ...]:
        states = tuple(c.snapshot() for c in caches)
        if states != self._last_caches:
            self._last_caches = states
        return self._last_caches


class Device:
    """A simulated GCN GPU with persistent memory and caches."""

    def __init__(self, config: GpuConfig = HD7790, power: PowerConfig = DEFAULT_POWER):
        self.config = config
        self.power_config = power
        self.memory = GlobalMemory()
        self.l1s = [
            CacheModel(config.l1_bytes, config.l1_line_bytes, config.l1_ways)
            for _ in range(config.num_cus)
        ]
        self.l2 = CacheModel(config.l2_bytes, config.l2_line_bytes, config.l2_ways)
        self.clock = 0.0
        self.stats = DeviceRunStats()
        # Waves are numbered continuously across launches (execution-start
        # ordinals) so fault plans against multi-launch benchmarks keep
        # their historical victim numbering.
        self._wave_ordinals = 0
        #: launches are appended here while set (see :meth:`record_tape`)
        self.recording: Optional[LaunchTape] = None
        #: launches may replay from here while set (see :meth:`replay_from`)
        self.replaying: Optional[LaunchTape] = None

    # -- launch tape -------------------------------------------------------

    def record_tape(self) -> LaunchTape:
        """Record every following launch on a fresh :class:`LaunchTape`."""
        self.recording = LaunchTape(self.config)
        return self.recording

    def replay_from(self, tape: LaunchTape) -> None:
        """Let launches replay ``tape`` once device state re-converges.

        A tape recorded under a different configuration is ignored; only
        the watchdog horizon ``max_cycles`` may differ, and each replay
        checks that the recorded launch ended within this device's.
        """
        same = self.config.with_(max_cycles=tape.config.max_cycles)
        self.replaying = tape if same == tape.config else None

    def _caches(self) -> List[CacheModel]:
        return [*self.l1s, self.l2]

    def _replayable(self, args: tuple, fault_hook, scheduler) -> Optional[TapeEntry]:
        """The tape entry this launch starts from the state of, or ``None``.

        The launch is then a deterministic function of exactly the
        recorded state: same state and arguments, the default
        scheduler, a watchdog that the recorded launch did not reach,
        and no hook or one with the window API (:meth:`launch` tests
        whether it can fire).  Plain callable hooks observe every
        instruction and never match.
        """
        tape = self.replaying
        k = self.stats.launches
        if (scheduler is not None or k >= len(tape.entries)
                or not fault_window_enabled()
                or (fault_hook is not None
                    and not getattr(fault_hook, "supports_window", False))):
            return None
        entry = tape.entries[k]
        if (entry is None or entry.clock != self.clock
                or entry.ordinal_base != self._wave_ordinals):
            return None
        result = entry.result
        # The engine's watchdog trips on an event later than max_cycles;
        # the recorded launch's last event is at clock + cycles (the
        # extra cycle absorbs float rounding of that sum).
        if entry.clock + result.cycles + 1.0 > self.config.max_cycles:
            return None
        # The kernel object by identity (its lowered closures and register
        # ids are part of what runs), the other arguments by value.
        if entry.args[0] is not args[0] or entry.args[1:] != args[1:]:
            return None
        bufs = self.memory.buffers
        if (self.memory._next_base != entry.next_base
                or len(bufs) != len(entry.buffers)):
            return None
        for (name, base, image), (key, buf) in zip(entry.buffers, bufs.items()):
            if (key != name or buf.base_addr != base
                    or not _same_bits(buf.data, image)):
                return None
        for cache, state in zip(self._caches(), entry.caches):
            if not cache.matches(state):
                return None
        return entry

    def _replay(self, entry: TapeEntry, kind: str = "replayed") -> LaunchResult:
        """Apply a recorded launch's effects without simulating it."""
        for name, image in entry.post_buffers.items():
            np.copyto(self.memory.buffers[name].data, image)
        for cache, state in zip(self._caches(), entry.post_caches):
            cache.restore(state)
        # The counters are shared with the tape: no caller mutates a
        # finished launch's counters.
        recorded = entry.result
        return replace(recorded, engine_kind=kind,
                       detections=list(recorded.detections),
                       wave_instrs=list(recorded.wave_instrs))

    # -- buffers ----------------------------------------------------------

    def alloc(self, name: str, data: np.ndarray) -> DeviceBuffer:
        """Copy host data into a fresh device buffer."""
        return self.memory.alloc(name, data)

    def alloc_zeros(self, name: str, nelems: int, dtype) -> DeviceBuffer:
        return self.memory.alloc(name, np.zeros(nelems, dtype=dtype))

    # -- launches ----------------------------------------------------------

    def launch(
        self,
        kernel: Kernel,
        global_size,
        local_size,
        buffers: Dict[str, DeviceBuffer],
        scalars: Optional[Dict[str, object]] = None,
        resources: Optional[KernelResources] = None,
        scalar_instrs: Optional[set] = None,
        fault_hook=None,
        scheduler=None,
    ) -> LaunchResult:
        """Run one NDRange launch; advances the device clock.

        ``scheduler`` substitutes a :class:`~repro.gpu.schedule.Scheduler`
        for the engine's default time-ordered/FIFO event order.  While a
        tape is being replayed (:meth:`replay_from`) a launch whose state
        equals the recorded one returns the recorded result, marked
        ``engine_kind="replayed"``, instead of running the engine.  When
        only the fault hook can still fire, the launch runs armed: an
        upset that lands in a register no instruction reads again stops
        it, and the recorded launch finishes it, marked
        ``engine_kind="dead-upset"`` (DESIGN.md §20).
        """
        if resources is None:
            resources = KernelResources(
                vgprs_per_workitem=32, sgprs_per_wave=32,
                lds_bytes_per_group=kernel.lds_bytes(),
            )
        args = None
        if self.replaying is not None or self.recording is not None:
            resident = all(self.memory.buffers.get(buf.name) is buf
                           for buf in buffers.values())
            if resident:
                args = (
                    kernel, _normalize_size(global_size),
                    _normalize_size(local_size),
                    tuple(sorted((p, buf.name) for p, buf in buffers.items())),
                    _scalar_key(scalars or {}), resources, scalar_instrs,
                )
        finish = None
        if args is not None and self.replaying is not None:
            entry = self._replayable(args, fault_hook, scheduler)
            if entry is not None:
                if fault_hook is None or fault_hook.inert(
                        entry.ordinal_base, entry.result.waves_launched):
                    return self._finish(self._replay(entry))
                finish = entry
        tape = self.recording
        pre = None
        if (tape is not None and args is not None
                and fault_hook is None and scheduler is None):
            pre = tape.capture(self, args)
        try:
            result = self._simulate(kernel, global_size, local_size, buffers,
                                    scalars, resources, scalar_instrs,
                                    fault_hook, scheduler, finish is not None)
        except UpsetMasked:
            # The rest of the launch is the recorded one: restoring its
            # post-image discards the partial simulation's writes.
            return self._finish(self._replay(finish, "dead-upset"))
        if tape is not None:
            tape.append(pre, self, buffers, result)
        return self._finish(result)

    def _finish(self, result: LaunchResult) -> LaunchResult:
        self._wave_ordinals += result.waves_launched
        self.clock += result.cycles
        self.stats.total_cycles += result.cycles
        self.stats.launches += 1
        self.stats.launch_results.append(result)
        return result

    def _simulate(self, kernel, global_size, local_size, buffers, scalars,
                  resources, scalar_instrs, fault_hook, scheduler,
                  dead_upset=False) -> LaunchResult:
        """Run one launch through the timing engine."""
        ctx = LaunchContext(
            kernel=kernel,
            global_size=_normalize_size(global_size),
            local_size=_normalize_size(local_size),
            buffers=buffers,
            scalars=scalars or {},
            scalar_instrs=scalar_instrs,
            config=self.config,
        )
        # Window-capable hooks (FaultHook) name one victim wave and one
        # trigger watermark, so fused execution stays legal everywhere
        # except a short per-instruction window around the trigger.
        # Plain callable hooks observe every instruction and keep the
        # reference interpreter.
        windowable = (
            fault_hook is not None
            and getattr(fault_hook, "supports_window", False)
            and fault_window_enabled()
        )
        if fault_hook is not None:
            ctx.fault_hook = fault_hook
            ctx.dead_upset = dead_upset
        if fault_hook is None or windowable:
            # Lowered once per kernel instance and memoized on it.
            ctx.fused = maybe_lower(kernel)
            ctx.fault_window = windowable
        # The vectorized engine batches resident wavefronts through
        # stacked-register closures; it is bitwise- and cycle-identical
        # under the default event order, so the launches routed away
        # from it are schedulers that permute pop order and fault hooks
        # it cannot carve a victim group out for (the victim's group
        # runs as standard wavefronts; predicting which group that is
        # requires the default no-redispatch dispatch geometry).
        occ = compute_occupancy(self.config, resources, ctx.flat_local)
        no_redispatch = (
            ctx.total_groups <= occ.max_groups_per_cu * self.config.num_cus
        )
        use_vec = (
            vector_enabled()
            and (scheduler is None
                 or getattr(scheduler, "supports_vectorized", False))
            and (fault_hook is None
                 or (windowable and scheduler is None and no_redispatch))
        )
        # The livelock proof (DESIGN.md §17) runs in the fused walkers of
        # fault-window launches only: the reference interpreter and the
        # vectorized walker never mark a wave stuck.
        if windowable and ctx.fused is not None and not use_vec:
            ctx.livelock = LivelockProof(fault_hook)
        engine_cls = VecEngine if use_vec else Engine
        engine = engine_cls(self.config, self.memory, self.l1s, self.l2,
                            start_time=self.clock, scheduler=scheduler,
                            wave_ordinal_base=self._wave_ordinals)
        try:
            return engine.run(ctx, resources)
        except SimulationError as err:
            err.engine_kind = "vectorized" if use_vec else "standard"
            raise

    # -- aggregate reporting -------------------------------------------------

    def merged_counters(self) -> KernelCounters:
        parts = [r.counters for r in self.stats.launch_results]
        return merge_counters(parts, window_cycles=1_000_000)

    def power_report(self) -> PowerReport:
        """Power over everything run on this device so far."""
        return estimate_power(
            self.merged_counters(), self.stats.total_cycles,
            self.config, self.power_config,
        )

    def read_buffer(self, buf: DeviceBuffer) -> np.ndarray:
        """Copy-out: current contents of a device buffer."""
        return buf.data.copy()
