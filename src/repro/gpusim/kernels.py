"""Kernel, launch and profiling descriptors consumed by the executor.

A *kernel launch* is described by its grid shape, its resource footprint
(which bounds SM residency via :mod:`repro.gpusim.occupancy`), a per-block
work array in **SM-cycles** produced by :mod:`repro.gpusim.costmodel`, and
profiler counters.  Launch graphs — host launches ordered by stream plus
device-side (dynamic parallelism) launches hanging off parent launches —
are what templates hand to :class:`repro.gpusim.executor.GpuExecutor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import LaunchError, WorkloadError
from repro.gpusim.atomics import AtomicStats
from repro.gpusim.coalesce import MemoryTraffic
from repro.gpusim.config import DeviceConfig
from repro.gpusim.occupancy import OccupancyResult, occupancy
from repro.gpusim.warps import WarpExecStats

__all__ = [
    "ProfileCounters",
    "KernelCosts",
    "Launch",
    "LaunchGraph",
    "HOST",
]

#: sentinel parent id for host-side launches
HOST = -1


@dataclass
class ProfileCounters:
    """Visual-Profiler-style counters for one launch (or aggregated).

    The three Table-I metrics come straight out of here:
    ``warp.warp_execution_efficiency``, ``load_traffic.efficiency`` (gld)
    and ``store_traffic.efficiency`` (gst).
    """

    warp: WarpExecStats = field(default_factory=WarpExecStats)
    load_traffic: MemoryTraffic = field(default_factory=MemoryTraffic)
    store_traffic: MemoryTraffic = field(default_factory=MemoryTraffic)
    atomic: AtomicStats = field(default_factory=AtomicStats)
    shared_accesses: int = 0
    host_launches: int = 0
    device_launches: int = 0

    def merge(self, other: "ProfileCounters") -> None:
        """Fold another counter record into this one."""
        self.warp.merge(other.warp)
        self.load_traffic = self.load_traffic.merge(other.load_traffic)
        self.store_traffic = self.store_traffic.merge(other.store_traffic)
        self.atomic.merge(other.atomic)
        self.shared_accesses += other.shared_accesses
        self.host_launches += other.host_launches
        self.device_launches += other.device_launches

    @property
    def total_launches(self) -> int:
        """Host plus device kernel invocations."""
        return self.host_launches + self.device_launches


def _check_costs(block_cycles: np.ndarray, block_floor: np.ndarray,
                 serial_tail: float) -> None:
    """The one validity check of kernel costs: every value finite and
    non-negative (a NaN or inf block would never retire, or retire at
    inf).  Shared by :class:`KernelCosts` and :meth:`KernelCosts.split`."""
    for what, values in (("block cycles", block_cycles),
                         ("block floors", block_floor)):
        # NaN fails the min test: comparisons with NaN are False
        if values.size and not (values.min() >= 0.0
                                and values.max() < math.inf):
            bad = values[~((values >= 0.0) & (values < math.inf))][0]
            raise WorkloadError(
                f"{what} must be finite and non-negative, got {bad!r}"
            )
    if not 0.0 <= serial_tail < math.inf:
        raise WorkloadError(
            f"serial_tail must be finite and non-negative, got {serial_tail!r}"
        )


def _run_bounds(work: np.ndarray, floor: np.ndarray,
                piece_starts: np.ndarray | int = 0,
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of the maximal runs of equal ``(work, floor)``
    over non-empty flat arrays cut into pieces at ``piece_starts`` (which
    must include 0); a run never crosses a piece boundary."""
    n = work.shape[0]
    change = np.empty(n, dtype=bool)
    np.not_equal(work[1:], work[:-1], out=change[1:])
    change[1:] |= floor[1:] != floor[:-1]
    change[piece_starts] = True
    starts = np.flatnonzero(change)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = n
    return starts, ends


@dataclass
class KernelCosts:
    """Per-block work of one kernel, in SM-cycles.

    ``block_cycles[b]`` is the total work block ``b`` contributes to
    whichever SM it lands on; ``block_floor[b]`` is the duration the block
    cannot beat even on an idle SM (its critical warp).  ``serial_tail``
    models kernel-wide serialization (e.g. a globally hot atomic address)
    appended after the last block retires.  Every value must be finite
    and non-negative.
    """

    block_cycles: np.ndarray
    block_floor: np.ndarray | None = None
    serial_tail: float = 0.0

    def __post_init__(self) -> None:
        self.block_cycles = np.asarray(self.block_cycles, dtype=np.float64)
        if self.block_cycles.ndim != 1:
            raise WorkloadError("block_cycles must be a 1-D array")
        if self.block_floor is None:
            self.block_floor = np.zeros_like(self.block_cycles)
        else:
            self.block_floor = np.asarray(self.block_floor, dtype=np.float64)
            if self.block_floor.shape != self.block_cycles.shape:
                raise WorkloadError("block_floor must match block_cycles shape")
        _check_costs(self.block_cycles, self.block_floor, self.serial_tail)

    @classmethod
    def split(cls, block_cycles, block_floor, ends) -> list["KernelCosts"]:
        """Cut flat per-block arrays into the costs of many launches.

        Launch ``i`` owns blocks ``[ends[i-1], ends[i])`` (0 for the
        first) of ``block_cycles`` / ``block_floor``.  The arrays are
        validated once and each launch gets views into them plus its
        run-length encoding from one vectorized pass, so a launch costs
        O(1) Python work instead of a construction's NumPy reductions —
        what lets launch graphs with one tiny launch per visited node
        (recursive templates) build in bulk.  ``serial_tail`` is 0.0.
        The launches' arrays are views of the flat ones: treat both as
        read-only.
        """
        cycles = np.asarray(block_cycles, dtype=np.float64)
        floor = np.asarray(block_floor, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.int64)
        if cycles.ndim != 1 or floor.shape != cycles.shape:
            raise WorkloadError(
                "block_cycles and block_floor must be 1-D arrays of one shape"
            )
        if ends.ndim != 1 or ends.size == 0 or ends[-1] != cycles.shape[0]:
            raise WorkloadError("ends must be 1-D and end at the array length")
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1]
        if np.any(ends <= starts):
            raise WorkloadError("every launch needs at least one block")
        _check_costs(cycles, floor, 0.0)
        run_starts, run_ends = _run_bounds(cycles, floor, starts)
        # runs never cross a launch start, so each run's launch is the one
        # its first block lies in
        run_launch = np.searchsorted(ends, run_starts, side="right")
        local_ends = (run_ends - starts[run_launch]).tolist()
        works = cycles[run_starts].tolist()
        floors = floor[run_starts].tolist()
        first_run = np.searchsorted(run_launch, np.arange(ends.size + 1)).tolist()
        out = []
        new = object.__new__
        for i, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
            costs = new(cls)
            costs.block_cycles = cycles[a:b]
            costs.block_floor = floor[a:b]
            costs.serial_tail = 0.0
            r0, r1 = first_run[i], first_run[i + 1]
            costs._block_runs = (local_ends[r0:r1], works[r0:r1], floors[r0:r1])
            out.append(costs)
        return out

    @property
    def n_blocks(self) -> int:
        """Grid size in blocks."""
        return int(self.block_cycles.shape[0])

    @property
    def total_cycles(self) -> float:
        """Total SM-cycles of work in the grid."""
        return float(self.block_cycles.sum())

    def block_runs(self) -> tuple[list[int], list[float], list[float]]:
        """Run-length encoding of ``(work, floor)`` over the block array.

        Returns ``(ends, works, floors)`` where blocks ``[ends[i-1],
        ends[i])`` (0 for the first run) all share ``works[i]`` /
        ``floors[i]``.  Template grids are dominated by long runs of
        identical blocks (uniform phases, bulk children), which is what
        lets the fast engine place whole runs per SM scan instead of one
        block at a time.  Cached; treat the lists as read-only.
        """
        cached = getattr(self, "_block_runs", None)
        if cached is None:
            w, f = self.block_cycles, self.block_floor
            if w.shape[0] == 0:
                cached = ([], [], [])
            else:
                starts, ends = _run_bounds(w, f)
                cached = (ends.tolist(), w[starts].tolist(), f[starts].tolist())
            object.__setattr__(self, "_block_runs", cached)
        return cached


@dataclass
class Launch:
    """One kernel launch node in a :class:`LaunchGraph`.

    Host launches (``parent == HOST``) execute in stream order; device
    launches become *pending* at a fraction ``issue_point`` of their issuing
    parent block's execution, then pass through the grid-management queue.
    Launches sharing a ``device_stream`` key (the same parent block and
    CUDA stream) serialize with each other in issue order — the semantics
    the paper's "multiple streams per thread-block" experiments toggle.
    """

    name: str
    block_size: int
    costs: KernelCosts
    registers_per_thread: int = 24
    shared_mem_per_block: int = 0
    stream: int = 0
    parent: int = HOST
    parent_block: int = 0
    issue_point: float = 1.0
    device_stream: int = 0
    counters: ProfileCounters = field(default_factory=ProfileCounters)
    #: replicate this launch N times (bulk dynamic-parallelism fan-out);
    #: replicas share the cost/counters description
    count: int = 1
    #: cost-model estimate of warps resident per SM while this kernel runs;
    #: feeds the profiler's achieved-occupancy metric
    resident_warps_hint: float = 0.0

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise LaunchError(f"block_size must be positive, got {self.block_size}")
        if self.count <= 0:
            raise LaunchError(f"launch count must be positive, got {self.count}")
        if not (0.0 <= self.issue_point <= 1.0):
            raise LaunchError("issue_point must lie in [0, 1]")
        if self.costs.n_blocks == 0:
            raise LaunchError(f"launch {self.name!r} has an empty grid")

    @property
    def is_device(self) -> bool:
        """Whether this is a nested (dynamic-parallelism) launch."""
        return self.parent != HOST

    def residency(self, config: DeviceConfig) -> OccupancyResult:
        """SM residency of this kernel's blocks on ``config``."""
        return occupancy(
            config,
            self.block_size,
            self.registers_per_thread,
            self.shared_mem_per_block,
        )


@dataclass
class LaunchGraph:
    """A complete program: host launches plus nested device launches.

    ``launches[i].parent`` indexes into the same list; parents must appear
    before children (topological order by construction).
    """

    launches: list[Launch] = field(default_factory=list)

    def add(self, launch: Launch) -> int:
        """Append a launch, validating parent linkage; returns its id."""
        if launch.parent != HOST:
            if not (0 <= launch.parent < len(self.launches)):
                raise LaunchError(
                    f"launch {launch.name!r} references unknown parent {launch.parent}"
                )
            parent = self.launches[launch.parent]
            n_parent_blocks = parent.costs.n_blocks
            if not (0 <= launch.parent_block < n_parent_blocks):
                raise LaunchError(
                    f"launch {launch.name!r} issued from block {launch.parent_block} "
                    f"but parent grid has {n_parent_blocks} blocks"
                )
        self.launches.append(launch)
        return len(self.launches) - 1

    def __len__(self) -> int:
        return len(self.launches)

    def validate(self, config: DeviceConfig) -> None:
        """Check device limits: nesting depth and grid sizes."""
        max_grid = config.max_grid_dim_x
        max_depth = config.max_launch_depth
        # nesting depth per launch (0 for host launches), one step per
        # launch: :meth:`add` keeps parents ahead of their children
        depth: list[int] = []
        for launch in self.launches:
            if launch.costs.n_blocks > max_grid:
                raise LaunchError(f"launch {launch.name!r} grid exceeds device limit")
            if launch.parent == HOST:
                depth.append(0)
                continue
            d = depth[launch.parent] + 1
            if d > max_depth:
                raise LaunchError(
                    f"launch {launch.name!r} exceeds max nesting depth "
                    f"{max_depth}"
                )
            depth.append(d)

    def aggregate_counters(self) -> ProfileCounters:
        """Merge all launches' counters (bulk launches weighted by count)."""
        total = ProfileCounters()
        for launch in self.launches:
            if launch.count == 1:
                total.merge(launch.counters)
            else:
                total.merge(_scale_counters(launch.counters, launch.count))
        return total


def _scale_counters(counters: ProfileCounters, factor: int) -> ProfileCounters:
    """Scale a counter record by an integer replica count."""
    scaled = ProfileCounters()
    scaled.warp = WarpExecStats(
        warp_size=counters.warp.warp_size,
        issued_steps=counters.warp.issued_steps * factor,
        active_slots=counters.warp.active_slots * factor,
        warps_launched=counters.warp.warps_launched * factor,
    )
    scaled.load_traffic = MemoryTraffic(
        requested_bytes=counters.load_traffic.requested_bytes * factor,
        transactions=counters.load_traffic.transactions * factor,
        segment_bytes=counters.load_traffic.segment_bytes,
    )
    scaled.store_traffic = MemoryTraffic(
        requested_bytes=counters.store_traffic.requested_bytes * factor,
        transactions=counters.store_traffic.transactions * factor,
        segment_bytes=counters.store_traffic.segment_bytes,
    )
    scaled.atomic = AtomicStats(
        n_atomics=counters.atomic.n_atomics * factor,
        max_address_multiplicity=counters.atomic.max_address_multiplicity,
        hot_serialization_cycles=counters.atomic.hot_serialization_cycles * factor,
    )
    scaled.shared_accesses = counters.shared_accesses * factor
    scaled.host_launches = counters.host_launches * factor
    scaled.device_launches = counters.device_launches * factor
    return scaled
