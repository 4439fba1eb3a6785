"""Functional global memory and cache tag models.

Data lives in flat numpy arrays owned by :class:`DeviceBuffer`.  Buffers
are assigned disjoint base addresses in a flat byte address space so the
set-associative tag models (write-through per-CU L1, shared L2) can
classify each 64-byte line transaction as an L1 hit, L2 hit, or DRAM
access — the classification the timing engine turns into latency and
bandwidth consumption.

Which lines a vector access touches, its index bounds, its LDS bank
passes and whether its lanes are distinct all follow from the lane
pattern; :func:`global_pattern` and :func:`lds_pattern` derive them
once per pattern per launch (DESIGN.md §18).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..ir.core import BufferParam
from ..ir.types import DType
from .config import GpuConfig


class DeviceBuffer:
    """A global-memory allocation bound to a kernel buffer parameter."""

    def __init__(self, name: str, data: np.ndarray, base_addr: int):
        if data.ndim != 1:
            raise ValueError("device buffers are 1-D")
        self.name = name
        self.data = data
        self.base_addr = base_addr
        self.elem_bytes = data.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def addresses(self, indices: np.ndarray) -> np.ndarray:
        """Byte addresses for element indices."""
        return self.base_addr + indices.astype(np.int64) * self.elem_bytes

    def __repr__(self) -> str:
        return f"DeviceBuffer({self.name!r}, n={self.data.size}, base={self.base_addr:#x})"


class GlobalMemory:
    """Allocator for the flat global address space, plus the atomic RMW.

    Plain loads and stores index ``DeviceBuffer.data`` directly once the
    engine has bounds-checked the request.
    """

    _LINE_ALIGN = 256

    def __init__(self):
        self._next_base = 0x1000
        self.buffers: Dict[str, DeviceBuffer] = {}

    def alloc(self, name: str, data: np.ndarray) -> DeviceBuffer:
        """Bind host data as a device buffer (copy-in)."""
        data = np.ascontiguousarray(data).reshape(-1)
        buf = DeviceBuffer(name, data.copy(), self._next_base)
        step = -(-data.nbytes // self._LINE_ALIGN) * self._LINE_ALIGN
        self._next_base += max(step, self._LINE_ALIGN)
        self.buffers[name] = buf
        return buf

    def atomic(
        self,
        op: str,
        buf: DeviceBuffer,
        indices: np.ndarray,
        values: np.ndarray,
        compares: Optional[np.ndarray] = None,
        distinct: bool = False,
    ) -> np.ndarray:
        """Apply a lane-ordered atomic RMW; returns old values per lane.

        ``indices`` must be in bounds (the engine checks them once per
        request).  When the caller vouches that every lane names a
        distinct element (``distinct``, the access pattern's flag) and
        the operands share the buffer's dtype, so no promotion differs
        between scalar and array arithmetic, the lanes cannot observe
        each other and the RMW runs as one numpy gather/compute/scatter;
        otherwise it keeps the sequential lane loop.
        """
        data = buf.data
        if (distinct and data.dtype == values.dtype
                and (compares is None or compares.dtype == data.dtype)):
            old = data[indices]
            if op == "add":
                data[indices] = old + values
            elif op == "or":
                data[indices] = old | values
            elif op == "max":
                # max(prev, v) keeps prev unless v is strictly greater.
                data[indices] = np.where(values > old, values, old)
            elif op == "xchg":
                data[indices] = values
            elif op == "cmpxchg":
                data[indices] = np.where(old == compares, values, old)
            else:  # pragma: no cover - guarded by IR validation
                raise ValueError(f"unknown atomic op {op!r}")
            return old
        old = np.empty_like(values)
        for i in range(indices.size):
            idx = indices[i]
            prev = data[idx]
            old[i] = prev
            if op == "add":
                data[idx] = prev + values[i]
            elif op == "or":
                data[idx] = prev | values[i]
            elif op == "max":
                data[idx] = max(prev, values[i])
            elif op == "xchg":
                data[idx] = values[i]
            elif op == "cmpxchg":
                if prev == compares[i]:
                    data[idx] = values[i]
            else:  # pragma: no cover - guarded by IR validation
                raise ValueError(f"unknown atomic op {op!r}")
        return old


class GlobalPattern(NamedTuple):
    """Lane analysis of one vector global access, relative to lane 0.

    ``lo``/``hi`` bound the element indices minus lane 0's index,
    ``lines`` holds the sorted distinct cache lines touched minus lane
    0's line, and ``distinct`` says no two lanes name one element.
    """

    lo: int
    hi: int
    lines: Tuple[int, ...]
    distinct: bool


class LdsPattern:
    """Lane analysis of one LDS access, relative to lane 0.

    ``passes`` (serialized bank-conflict passes) stays ``None`` until
    an in-bounds access with this pattern fills it in; see
    :func:`bank_passes`.
    """

    __slots__ = ("lo", "hi", "passes")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        self.passes: Optional[int] = None


def global_pattern(
    memo: dict, buf: DeviceBuffer, indices: np.ndarray, line_bytes: int
) -> Tuple[int, int, GlobalPattern]:
    """Analyse a global access's int64 lane indices through ``memo``.

    Returns ``(i0, line0, pattern)``: lane 0's element index, lane 0's
    cache line, and the shift-normalised :class:`GlobalPattern`.  Lane
    ``i``'s byte address is ``line0 * line_bytes + residue + rel[i] *
    elem_bytes``, with ``rel = indices - i0`` and ``residue`` lane 0's
    offset within its line, so the lines relative to ``line0`` depend
    only on ``rel``, the element size, the line size and the residue:
    that is the memo key.  This is the GCN coalescing model — a 64-lane
    access to consecutive 32-bit elements touches 4 lines, a fully
    scattered one up to 64.
    """
    i0 = int(indices[0])
    eb = buf.elem_bytes
    line0, residue = divmod(buf.base_addr + i0 * eb, line_bytes)
    rel = indices - i0
    key = (rel.tobytes(), eb, line_bytes, residue)
    pat = memo.get(key)
    if pat is None:
        pat = memo[key] = GlobalPattern(
            int(rel.min()), int(rel.max()),
            tuple(np.unique((residue + rel * eb) // line_bytes).tolist()),
            np.unique(rel).size == rel.size)
    return i0, line0, pat


def lds_pattern(memo: dict, indices: np.ndarray,
                banks: int) -> Tuple[int, LdsPattern]:
    """Analyse an LDS access's int64 lane indices through ``memo``.

    Returns lane 0's index and the shift-normalised :class:`LdsPattern`
    (keyed on ``indices - i0`` and the bank count).
    """
    i0 = int(indices[0])
    rel = indices - i0
    key = (rel.tobytes(), banks)
    pat = memo.get(key)
    if pat is None:
        pat = memo[key] = LdsPattern(int(rel.min()), int(rel.max()))
    return i0, pat


def bank_passes(indices: np.ndarray, banks: int) -> int:
    """Serialized LDS passes of an access (``banks`` banks, 4 B wide).

    Broadcasts (same address) do not conflict, so the pass count is the
    largest number of *distinct* addresses mapping to one bank.  A
    uniform shift of every index permutes the banks cyclically, so the
    count is a property of the shift-normalised pattern.

    ``indices`` must be in bounds (checked or fault-wrapped): the
    ``bincount`` passes allocate by the largest index.
    """
    distinct = np.flatnonzero(np.bincount(indices))
    return int(np.bincount(distinct % banks).max())


class CacheModel:
    """Set-associative LRU writeback tag array.

    Tags only — data lives in :class:`GlobalMemory`.  ``access`` returns
    the hit/miss outcome plus the address of any dirty line evicted by
    the allocation, which the timing engine turns into a DRAM writeback.
    (The per-CU L1s in GCN are write-through and never hold dirty lines;
    the shared L2 is writeback, which is why streaming stores reach DRAM
    while hot lines — like the Inter-Group RMT communication buffers —
    stay on chip.)
    """

    def __init__(self, size_bytes: int, line_bytes: int, ways: int):
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = max(1, size_bytes // (line_bytes * ways))
        # Each set is an LRU-ordered list of line tags (most recent last).
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._dirty: set = set()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def access(
        self, line_addr: int, allocate: bool = True, write: bool = False
    ) -> Tuple[bool, Optional[int]]:
        """Probe (and update) the cache for one line.

        Returns ``(hit, evicted_dirty_line)``; the second element is
        ``None`` unless the allocation evicted a dirty line.
        """
        s = self._sets[line_addr % self.num_sets]
        if line_addr in s:
            s.remove(line_addr)
            s.append(line_addr)
            self.hits += 1
            if write:
                self._dirty.add(line_addr)
            return True, None
        self.misses += 1
        victim = None
        if allocate:
            if len(s) >= self.ways:
                evicted = s.pop(0)
                if evicted in self._dirty:
                    self._dirty.discard(evicted)
                    self.writebacks += 1
                    victim = evicted
            s.append(line_addr)
            if write:
                self._dirty.add(line_addr)
        return False, victim

    def snapshot(self) -> "CacheState":
        """Compact image of the tag array, dirty set and statistics."""
        sets = self._sets
        return CacheState(
            tags=np.fromiter(itertools.chain.from_iterable(sets),
                             dtype=np.int64),
            fill=np.fromiter(map(len, sets), dtype=np.int64,
                             count=len(sets)),
            dirty=np.array(sorted(self._dirty), dtype=np.int64),
            stats=(self.hits, self.misses, self.writebacks),
        )

    def matches(self, state: "CacheState") -> bool:
        """True when this cache is exactly in ``state``."""
        return ((self.hits, self.misses, self.writebacks) == state.stats
                and self.snapshot() == state)

    def restore(self, state: "CacheState") -> None:
        """Put the cache back into a :meth:`snapshot` image."""
        tags = state.tags.tolist()
        ends = np.cumsum(state.fill).tolist()
        self._sets = [tags[a:b] for a, b in zip([0, *ends], ends)]
        self._dirty = set(state.dirty.tolist())
        self.hits, self.misses, self.writebacks = state.stats

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True, eq=False)
class CacheState:
    """Immutable image of one :class:`CacheModel`.

    ``tags`` concatenates every set's tags in LRU order (least recent
    first), ``fill`` holds each set's occupancy, ``dirty`` the sorted
    dirty lines and ``stats`` the (hits, misses, writebacks) totals.
    Equality is exact array equality of all four.
    """

    tags: np.ndarray
    fill: np.ndarray
    dirty: np.ndarray
    stats: Tuple[int, int, int]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CacheState):
            return NotImplemented
        return (self.stats == other.stats
                and np.array_equal(self.fill, other.fill)
                and np.array_equal(self.tags, other.tags)
                and np.array_equal(self.dirty, other.dirty))
