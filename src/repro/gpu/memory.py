"""Functional global memory and cache tag models.

Data lives in flat numpy arrays owned by :class:`DeviceBuffer`.  Buffers
are assigned disjoint base addresses in a flat byte address space so the
set-associative tag models (write-through per-CU L1, shared L2) can
classify each 64-byte line transaction as an L1 hit, L2 hit, or DRAM
access — the classification the timing engine turns into latency and
bandwidth consumption.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
    """Allocator + functional access for the flat global address space."""

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

    def read(self, buf: DeviceBuffer, indices: np.ndarray) -> np.ndarray:
        self._bounds_check(buf, indices)
        return buf.data[indices]

    def write(self, buf: DeviceBuffer, indices: np.ndarray, values: np.ndarray) -> None:
        self._bounds_check(buf, indices)
        buf.data[indices] = values

    def atomic(
        self,
        op: str,
        buf: DeviceBuffer,
        indices: np.ndarray,
        values: np.ndarray,
        compares: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply a lane-ordered atomic RMW; returns old values per lane.

        When every lane names a distinct element (and the operands share
        the buffer's dtype, so no promotion differs between scalar and
        array arithmetic) the lanes cannot observe each other and the
        RMW runs as one numpy gather/compute/scatter; lanes that collide
        on an element keep the sequential lane loop.
        """
        self._bounds_check(buf, indices)
        data = buf.data
        if (data.dtype == values.dtype
                and (compares is None or compares.dtype == data.dtype)
                and (indices.size == 1
                     or np.unique(indices).size == indices.size)):
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

    @staticmethod
    def _bounds_check(buf: DeviceBuffer, indices: np.ndarray) -> None:
        if indices.size == 0:
            return
        lo = int(indices.min())
        hi = int(indices.max())
        if lo < 0 or hi >= buf.data.size:
            raise IndexError(
                f"out-of-bounds access to buffer {buf.name!r}: "
                f"indices in [{lo}, {hi}], size {buf.data.size}"
            )


def coalesce_lines(addresses: np.ndarray, line_bytes: int) -> np.ndarray:
    """Unique cache-line addresses touched by a vector memory operation.

    This is the GCN coalescing model: a 64-lane access to consecutive
    32-bit elements touches 4 lines; a fully scattered access touches up
    to 64.
    """
    return np.unique(addresses // line_bytes)


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
