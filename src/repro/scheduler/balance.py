"""Static vs. dynamic job scheduling and makespan simulation (Section V-B).

The GPU hosts a fixed number of concurrently resident blocks; jobs
(graph pairs) are bound to blocks either **statically** — round-robin at
launch, the CUDA grid-stride idiom — or **dynamically** — each finished
block pops the next job from a global work queue (an atomic counter on
the real GPU).  With uniform job sizes both are equivalent; with the
heavy-tailed size distribution of DrugBank the static binding strands
big jobs behind small ones, and dynamic scheduling recovers the
difference (the "+DynSched" step of Fig. 9).

The simulation is an event-driven list scheduler: deterministic, exact
for the model's assumptions (independent jobs, no preemption).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..vgpu.device import DeviceSpec, V100
from .jobs import PairJob


@dataclass
class ScheduleResult:
    """Outcome of one schedule simulation.

    ``makespan_cycles`` is the finishing time of the last job in
    warp-cycles; ``utilization`` is total work divided by
    (makespan x slots).
    """

    makespan_cycles: float
    total_cycles: float
    slots: int
    policy: str

    @property
    def utilization(self) -> float:
        denom = self.makespan_cycles * self.slots
        return self.total_cycles / denom if denom else 0.0

    def seconds(self, device: DeviceSpec = V100) -> float:
        """Makespan in modeled seconds (each slot advances at core clock)."""
        return self.makespan_cycles / device.clock_hz


def concurrent_block_slots(
    device: DeviceSpec = V100,
    warps_per_block: int = 1,
    occupancy_warps_per_sm: int | None = None,
) -> int:
    """Number of blocks the device can keep resident simultaneously."""
    if occupancy_warps_per_sm is None:
        # Production kernels sustain about half the architectural
        # occupancy once shared memory and registers are accounted for.
        occupancy_warps_per_sm = device.max_warps_per_sm // 2
    per_sm = max(1, occupancy_warps_per_sm // warps_per_block)
    return per_sm * device.sm_count


def simulate_schedule(
    jobs: list[PairJob],
    slots: int,
    policy: str = "dynamic",
    seed: int = 0,
) -> ScheduleResult:
    """Simulate executing ``jobs`` on ``slots`` parallel block slots.

    ``policy``:

    * "static"  — job k is bound to slot k mod slots at launch
      (grid-stride); slots process their bound list in order.
    * "dynamic" — a global work queue; the next job goes to the
      earliest-finishing slot (list scheduling).
    * "sorted-dynamic" — dynamic with longest-job-first ordering, the
      classic LPT heuristic; an upper bound on what runtime reordering
      can buy.
    """
    if slots < 1:
        raise ValueError("need at least one slot")
    total = float(sum(j.span for j in jobs))
    if not jobs:
        return ScheduleResult(0.0, 0.0, slots, policy)

    if policy == "static":
        finish = np.zeros(slots)
        for k, job in enumerate(jobs):
            finish[k % slots] += job.span
        makespan = float(finish.max())
    elif policy in ("dynamic", "sorted-dynamic"):
        ordered = list(jobs)
        if policy == "sorted-dynamic":
            ordered = sorted(jobs, key=lambda j: -j.span)
        heap = [0.0] * slots
        heapq.heapify(heap)
        makespan = 0.0
        for job in ordered:
            t0 = heapq.heappop(heap)
            t1 = t0 + job.span
            makespan = max(makespan, t1)
            heapq.heappush(heap, t1)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return ScheduleResult(makespan, total, slots, policy)


def makespan_comparison(
    jobs: list[PairJob], device: DeviceSpec = V100, warps_per_block: int = 1
) -> dict[str, ScheduleResult]:
    """Static vs. dynamic vs. LPT makespans at matched occupancy."""
    slots = concurrent_block_slots(device, warps_per_block)
    return {
        policy: simulate_schedule(jobs, slots, policy)
        for policy in ("static", "dynamic", "sorted-dynamic")
    }
