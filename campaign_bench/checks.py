"""Output checks of a finished benchmark campaign.

They run outside the timed region and recompute what they compare
against apart from the campaign path: a fresh ExperimentRunner for the
tolerance contract, plain numpy over the stored arrays for the physics
and for the paper's Figure 4 claims, and the filesystem itself for
leftover fabric files. Each function returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.runner import ExperimentRunner
from repro.campaign import (
    CampaignExecutor,
    CampaignSpec,
    ResultStore,
    default_stage_dir,
)

#: The paper's ambient temperature (45 C).
AMBIENT_K = 318.15
#: Hot-spot threshold: 85 C per core and tick.
HOT_K = 85.0 + 273.15
#: Spatial-gradient threshold: 15 K across one die.
GRADIENT_K = 15.0
#: Event-fidelity tolerance contract against the eager reference.
MAX_DT_K = 1e-3
MAX_ENERGY_REL = 1e-3
#: The store writes total power with 6 decimals (half a microwatt of
#: rounding per tick).
POWER_QUANTUM_W = 5e-7


def check_completeness(
    root: Path,
    campaign: CampaignSpec,
    statuses: Sequence[str],
    report: str,
    backend: str,
) -> List[str]:
    """Every unit ok, keys equal, no leftovers, a second pass all cached."""
    errors: List[str] = []
    not_ok = [s for s in statuses if s != "ok"]
    if not_ok:
        errors.append(f"{len(not_ok)} unit(s) not ok: {sorted(set(not_ok))}")
    keys = set(campaign.keys())
    n = len(keys)
    if f"{n}/{n} runs (0 failed, 0 pending)" not in report:
        errors.append("report title does not show every run completed")
    stored = set(ResultStore(root).keys())
    if stored != keys:
        errors.append(
            f"store keys differ from campaign keys: "
            f"{len(stored - keys)} extra, {len(keys - stored)} missing"
        )
    leftovers = []
    for sub in ("leases", "drivers", "checkpoints"):
        leftovers += [p for p in (root / sub).rglob("*") if p.is_file()]
    runs = root / "runs"
    if runs.is_dir():
        leftovers += [p for p in runs.iterdir() if p.name.startswith(".")]
    staging = Path(default_stage_dir(root))
    if staging.exists():
        leftovers += [p for p in staging.rglob("*") if p.is_file()]
    if leftovers:
        errors.append(
            f"{len(leftovers)} lease/heartbeat/staging/temp file(s) left, "
            f"e.g. {leftovers[0]}"
        )
    rerun = CampaignExecutor(
        store=ResultStore(root), backend=backend, max_workers=1
    ).run_campaign(campaign)
    if rerun.counts() != {"cached": n}:
        errors.append(f"second pass is not all cached: {rerun.counts()}")
    return errors


def check_tolerance(root: Path, keys: Sequence[str]) -> List[str]:
    """Recompute ``keys`` at eager fidelity and compare with the store."""
    errors: List[str] = []
    store = ResultStore(root)
    runner = ExperimentRunner()
    for key in keys:
        spec = store.load_spec(key)
        fresh = runner.run(replace(spec, fidelity="eager", telemetry=False))
        stored = store.load(key)
        if not np.array_equal(stored.vf_indices, fresh.vf_indices):
            errors.append(f"{key}: vf_indices differ from eager")
        if not np.array_equal(stored.core_states, fresh.core_states):
            errors.append(f"{key}: core_states differ from eager")
        if stored.unit_temps_k.shape != fresh.unit_temps_k.shape:
            errors.append(f"{key}: temperature series shape differs")
            continue
        d_t = max(
            float(np.abs(stored.unit_temps_k - fresh.unit_temps_k).max()),
            float(np.abs(stored.core_peak_temps_k
                         - fresh.core_peak_temps_k).max()),
        )
        if d_t > MAX_DT_K:
            errors.append(f"{key}: max|dT| {d_t:.3g} K > {MAX_DT_K} K")
        if abs(stored.energy_j - fresh.energy_j) > MAX_ENERGY_REL * abs(
            fresh.energy_j
        ):
            errors.append(
                f"{key}: energy {stored.energy_j:.6g} J vs eager "
                f"{fresh.energy_j:.6g} J"
            )
    return errors


def check_physics(root: Path, keys: Sequence[str]) -> List[str]:
    """Energy equals the integrated power; no temperature below ambient."""
    errors: List[str] = []
    store = ResultStore(root)
    for key in keys:
        result = store.load(key)
        dt = result.sampling_interval_s
        power = np.asarray(result.total_power_w)
        integrated = float(power.sum() * dt)
        slack = power.size * dt * POWER_QUANTUM_W + 1e-9 * abs(integrated)
        if abs(result.energy_j - integrated) > slack:
            errors.append(
                f"{key}: energy_j {result.energy_j:.9g} J != "
                f"sum(P*dt) {integrated:.9g} J"
            )
        coldest = min(float(result.unit_temps_k.min()),
                      float(result.core_peak_temps_k.min()))
        if coldest < AMBIENT_K:
            errors.append(f"{key}: {coldest:.4f} K below ambient")
    return errors


def fig4_fractions(root: Path, campaign: CampaignSpec) -> Dict[str, tuple]:
    """Policy -> (hot-spot fraction, gradient fraction) pooled over seeds."""
    store = ResultStore(root)
    hot: Dict[str, List[np.ndarray]] = {}
    grad: Dict[str, List[np.ndarray]] = {}
    for spec, key in zip(campaign.expand(), campaign.keys()):
        result = store.load(key)
        hot.setdefault(spec.policy, []).append(
            np.asarray(result.core_peak_temps_k) >= HOT_K)
        grad.setdefault(spec.policy, []).append(
            np.asarray(result.layer_spreads_k).max(axis=1) > GRADIENT_K)
    return {
        policy: (float(np.mean(hot[policy])), float(np.mean(grad[policy])))
        for policy in hot
    }


def check_paper_claims(root: Path, campaign: CampaignSpec) -> List[str]:
    """The paper's Figure 4 orderings on EXP-4 with DPM."""
    frac = fig4_fractions(root, campaign)
    errors: List[str] = []
    if not frac["Adapt3D"][0] < frac["Default"][0]:
        errors.append(f"Adapt3D hot spots {frac['Adapt3D'][0]:.4f} not "
                      f"below Default {frac['Default'][0]:.4f}")
    if not frac["Adapt3D&DVFS_TT"][0] < frac["DVFS_TT"][0]:
        errors.append(
            f"Adapt3D&DVFS_TT hot spots {frac['Adapt3D&DVFS_TT'][0]:.4f} "
            f"not below DVFS_TT {frac['DVFS_TT'][0]:.4f}")
    if not frac["Adapt3D"][1] < 0.5 * frac["Default"][1]:
        errors.append(f"Adapt3D gradients {frac['Adapt3D'][1]:.4f} not "
                      f"under half of Default {frac['Default'][1]:.4f}")
    return errors
