"""Self-tests of the campaign benchmark.

Run with ``python3 -m pytest campaign_bench/test_bench.py -q`` from the
repository root (about a minute). Smoke-sized runs go through the same
code path and checks as the benchmark; each kind of output check is
shown failing on a perturbed copy of a finished store.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from setup_phase import ROOT, prepare_process  # noqa: E402

prepare_process()

import checks  # noqa: E402
from calibrate import REFERENCE_S, HostSpeed, Usage  # noqa: E402
from measure import run_benchmark, run_pass  # noqa: E402
from repro.analysis.runner import ExperimentRunner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _names(section):
    return sorted(m["name"] for m in SPEC[section])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_its_checks(name):
    result = run_benchmark(name, SEED, 0.0, False, perf_counter(),
                           smoke=True)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS[name].campaign(
        SEED, smoke=True).keys())
    assert sorted(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer():
    result = run_benchmark("batch_idle", SEED, 0.0, True, perf_counter(),
                           smoke=True)
    assert result["correct"], result
    assert sorted(result["metrics"]) == _names("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["batch.lanes_per_batch"] == 4
    assert metrics["engine.ticks"] == 4 * 600


def test_host_speed_scales_user_time():
    speed = HostSpeed()
    speed.at = [0.1 * i for i in range(20)]
    # The host runs at half the reference speed.
    speed.cost = [2.0 * REFERENCE_S] * 20
    own = speed.own(0.0, 1.0)
    assert own == pytest.approx(10 * 2.0 * REFERENCE_S)
    # System time and the kernel's own time are left out.
    used = Usage(1.0 + own, 0.3)
    assert speed.scaled(0.0, 1.0, used) == pytest.approx(0.5)
    # A span with fewer samples than MIN_SAMPLES borrows its neighbours.
    assert speed.factor(0.45, 0.46) == pytest.approx(0.5)
    assert speed.scaled_short(0.45, 0.46, 0.8) == pytest.approx(
        0.01 * 0.8 * 0.5)


def test_host_speed_samples_while_armed_only():
    with HostSpeed() as speed:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            sum(range(1000))
    taken = len(speed.at)
    assert taken >= 5
    assert all(c > 0 for c in speed.cost)
    t0 = perf_counter()
    while perf_counter() - t0 < 0.1:
        sum(range(1000))
    assert len(speed.at) == taken


def test_workload_inputs_follow_the_seed():
    for workload in WORKLOADS.values():
        assert workload.campaign(3).keys() == workload.campaign(3).keys()
        assert workload.campaign(3).keys() != workload.campaign(4).keys()


def _store(tmp_path_factory, name):
    workload = WORKLOADS[name]
    campaign = workload.campaign(SEED, smoke=True)
    root = tmp_path_factory.mktemp(name) / "store"
    done = run_pass(workload, campaign, ExperimentRunner(), root,
                    traced=False)
    return root, campaign, done


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _store(tmp_path_factory, "sweep_short")


@pytest.fixture(scope="module")
def fig4(tmp_path_factory):
    return _store(tmp_path_factory, "fig4_long")


def _copy(store, tmp_path):
    root, campaign, done = store
    copy = tmp_path / "store"
    shutil.copytree(root, copy)
    return copy, campaign, done


def _rewrite_csv(path: Path, edit) -> None:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def test_unperturbed_stores_pass_every_check(sweep, fig4):
    for root, campaign, done in (sweep, fig4):
        keys = campaign.keys()
        assert checks.check_completeness(root, campaign, done.statuses,
                                         done.report, "serial") == []
        assert checks.check_tolerance(root, keys[:2]) == []
        assert checks.check_physics(root, keys) == []
    root, campaign, _ = fig4
    assert checks.check_paper_claims(root, campaign) == []


def test_completeness_fails_on_a_deleted_key(sweep, tmp_path):
    root, campaign, done = _copy(sweep, tmp_path)
    shutil.rmtree(root / "runs" / campaign.keys()[3])
    errors = checks.check_completeness(root, campaign, done.statuses,
                                       done.report, "serial")
    assert any("second pass" in e for e in errors)


def test_completeness_fails_on_a_leftover_lease(sweep, tmp_path):
    root, campaign, done = _copy(sweep, tmp_path)
    (root / "leases").mkdir(exist_ok=True)
    (root / "leases" / f"{campaign.keys()[0]}.lease").write_text("x")
    errors = checks.check_completeness(root, campaign, done.statuses,
                                       done.report, "serial")
    assert any("left" in e for e in errors)


def test_tolerance_fails_on_a_nudged_temperature(sweep, tmp_path):
    root, campaign, _ = _copy(sweep, tmp_path)
    key = campaign.keys()[5]

    def nudge(rows):
        rows[4][2] = f"{float(rows[4][2]) + 0.01:.4f}"

    _rewrite_csv(root / "runs" / key / "result_temps.csv", nudge)
    errors = checks.check_tolerance(root, [key])
    assert any("max|dT|" in e for e in errors)


def test_physics_fails_on_a_changed_energy(sweep, tmp_path):
    root, campaign, _ = _copy(sweep, tmp_path)
    key = campaign.keys()[1]
    meta_path = root / "runs" / key / "result_meta.json"
    meta = json.loads(meta_path.read_text())
    meta["energy_j"] *= 1.001
    meta_path.write_text(json.dumps(meta))
    errors = checks.check_physics(root, [key])
    assert any("energy_j" in e for e in errors)


def test_physics_fails_below_ambient(sweep, tmp_path):
    root, campaign, _ = _copy(sweep, tmp_path)
    key = campaign.keys()[2]

    def chill(rows):
        rows[3][1] = "318.1000"

    _rewrite_csv(root / "runs" / key / "result_temps.csv", chill)
    errors = checks.check_physics(root, [key])
    assert any("below ambient" in e for e in errors)


def test_paper_claims_fail_on_swapped_policies(fig4, tmp_path):
    root, campaign, _ = _copy(fig4, tmp_path)
    by_policy = {}
    for spec, key in zip(campaign.expand(), campaign.keys()):
        by_policy.setdefault(spec.policy, []).append(key)
    runs = root / "runs"
    for a, b in zip(by_policy["Default"], by_policy["Adapt3D"]):
        (runs / a).rename(runs / "swap")
        (runs / b).rename(runs / a)
        (runs / "swap").rename(runs / b)
    errors = checks.check_paper_claims(root, campaign)
    assert any("Adapt3D hot spots" in e for e in errors)
    assert any("gradients" in e for e in errors)
