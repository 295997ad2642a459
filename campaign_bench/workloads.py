"""The benchmark's workloads: campaign grids generated from a seed.

Each workload is one :class:`~repro.campaign.CampaignSpec` whose run
seeds are drawn from ``numpy.random.default_rng([seed, index])``, so
the same benchmark seed always yields the same campaign and two
workloads never share seeds. ``smoke=True`` shrinks the grid for the
self-tests; the code path and the checks stay the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.campaign import CampaignSpec

#: The five policies the paper compares on EXP-1/EXP-2 stacks.
SWEEP_POLICIES = ("Default", "Adapt3D", "DVFS_TT", "Adapt3D&DVFS_TT", "Migr")
#: The Figure 4 policies (EXP-4 with DPM).
FIG4_POLICIES = ("Default", "DVFS_TT", "Adapt3D", "Adapt3D&DVFS_TT")
#: Idle-heavy two-job mix (~2% core utilization on EXP-4).
IDLE_MIX = (("gzip", 1), ("MPlayer", 1))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its campaign shape and executor backend."""

    name: str
    index: int  # mixes into the seed, so workloads never share run seeds
    backend: str  # "serial" or "batched" (always one worker process)
    n_seeds: int
    smoke_seeds: int

    def seeds(self, seed: int, smoke: bool = False) -> Tuple[int, ...]:
        """Run seeds of this workload for benchmark seed ``seed``."""
        count = self.smoke_seeds if smoke else self.n_seeds
        rng = np.random.default_rng([seed, self.index])
        return tuple(int(s) for s in rng.integers(1, 2**31 - 1, size=count))

    def campaign(self, seed: int, smoke: bool = False) -> CampaignSpec:
        """The campaign grid this workload runs for ``seed``."""
        seeds = self.seeds(seed, smoke)
        if self.name == "sweep_short":
            return CampaignSpec(
                name=self.name, exp_ids=(1, 2), policies=SWEEP_POLICIES,
                durations_s=(2.0,), dpm=(False, True), seeds=seeds,
                fidelities=("event",),
            )
        if self.name == "fig4_long":
            return CampaignSpec(
                name=self.name, exp_ids=(4,), policies=FIG4_POLICIES,
                durations_s=(120.0,), dpm=(True,), seeds=seeds,
                fidelities=("eager",),
            )
        return CampaignSpec(
            name=self.name, exp_ids=(4,), policies=("Default",),
            durations_s=(60.0,), dpm=(True,), seeds=seeds,
            benchmark_mixes=(IDLE_MIX,), fidelities=("event",),
        )

    @property
    def stacks(self) -> Tuple[int, ...]:
        """EXP stacks the workload simulates (warmed during set-up)."""
        return (1, 2) if self.name == "sweep_short" else (4,)


WORKLOADS = {
    w.name: w
    for w in (
        # 2 stacks x 5 policies x DPM off/on x 50 seeds = 1000 units.
        Workload("sweep_short", 1, "serial", n_seeds=50, smoke_seeds=2),
        # 4 policies x 2 seeds = 8 units; smoke keeps the full size
        # because the paper-claim check needs 120 s on both seeds.
        Workload("fig4_long", 2, "serial", n_seeds=2, smoke_seeds=2),
        # 16 lanes in one fused batch on one worker process.
        Workload("batch_idle", 3, "batched", n_seeds=16, smoke_seeds=4),
    )
}
