"""GCN-class GPU simulator substrate.

Cycle-approximate model of the paper's AMD Radeon HD 7790 test platform:
compute units with four 16-wide SIMDs, 64-wide wavefronts, VGPR/SGPR/LDS
occupancy limits, a scalar unit, write-through L1s over a banked shared
L2, DRAM bandwidth accounting, L2 atomics, CodeXL-style performance
counters, and an activity-based power monitor.
"""

from .config import DEFAULT_POWER, HD7790, GpuConfig, PowerConfig
from .counters import CounterReport, KernelCounters, merge_counters
from .device import Device, DeviceRunStats
from .engine import Engine, LaunchResult, SimulationError
from .memory import CacheModel, DeviceBuffer, GlobalMemory
from .occupancy import KernelResources, Occupancy, SchedulingError, compute_occupancy
from .power import PowerReport, estimate_power
from .schedule import (
    DefaultScheduler,
    OpInfo,
    ReorderScheduler,
    ScheduleDeadlock,
    Scheduler,
)
from .wavefront import LaunchContext, Wavefront

__all__ = [
    "CacheModel",
    "CounterReport",
    "DEFAULT_POWER",
    "DefaultScheduler",
    "Device",
    "DeviceBuffer",
    "DeviceRunStats",
    "Engine",
    "GlobalMemory",
    "GpuConfig",
    "HD7790",
    "KernelCounters",
    "KernelResources",
    "LaunchContext",
    "LaunchResult",
    "Occupancy",
    "OpInfo",
    "PowerConfig",
    "PowerReport",
    "ReorderScheduler",
    "ScheduleDeadlock",
    "Scheduler",
    "SchedulingError",
    "SimulationError",
    "Wavefront",
    "compute_occupancy",
    "estimate_power",
    "merge_counters",
]
