"""Campaign passes, timers and metrics of one benchmark run.

Every end-to-end time is user CPU time of the benchmark's process tree,
scaled to a reference host speed (``calibrate.py``): the driver, the
batched backend's worker and the set-up probes each sample the speed
of the virtual CPU they run on while they work, and every span is
scaled by the speed measured inside it. On the shared host, wall-clock
time of identical passes spread up to a quarter from stolen time, CPU
time as much again from neighbours loading the physical cores, and
system time several-fold with the file system's recent churn. The
campaign path never waits on a device (no fsync). Unscaled CPU and
wall-clock figures of each pass go to standard error.

A *pass* runs the workload's campaign into a fresh store, then reopens
the store and builds ``campaign_report``, five times. An untraced run
repeats whole passes until ``--seconds`` is spent and reports
end-to-end metrics. A traced run makes one untraced pass (the reference for the tracing
overhead), then traced passes: public functions of each layer wrapped
with timers from this file, and ``CampaignExecutor(telemetry=True)``
so the engine's ``TickProfiler`` phases land in the ``telemetry.json``
sidecars, which also cover the batched backend's worker process.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep, thread_time
from typing import Dict, List, Optional

import numpy as np

import repro.campaign.executor as executor_mod
import repro.campaign.reports as reports_mod
import repro.campaign.store as store_mod
from repro.analysis.runner import ExperimentRunner
from repro.campaign import (
    CampaignExecutor,
    CampaignSpec,
    ResultStore,
    campaign_report,
)
from repro.sched.engine import SimulationEngine

import checks
from calibrate import HostSpeed, Usage
from setup_phase import ROOT, warm
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
#: Stores live inside the checkout; each run removes its own.
WORK_DIR = BENCH_DIR / "_work"
#: Set-up probes per run: one discarded warm-up, then the timed ones.
SETUP_PROBES = 3
#: Reopen-and-report repetitions per pass (report_s is their median).
REPORT_REPEATS = 5
#: Stored units recomputed at eager fidelity by the tolerance check.
TOLERANCE_SAMPLE = {"sweep_short": 10, "fig4_long": 2, "batch_idle": 4}


class Tracer:
    """Wall-time spans around public functions, patched in place.

    Used as a context manager: every wrapped attribute is restored on
    exit, so untraced passes and the output checks run unwrapped code.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = defaultdict(list)
        self._undo: List[tuple] = []

    def wrap(self, owner, name: str, span: str) -> None:
        original = getattr(owner, name)
        sink = self.spans[span]

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                sink.append(perf_counter() - t0)

        setattr(owner, name, timed)
        self._undo.append((owner, name, original))

    def __enter__(self) -> "Tracer":
        self.wrap(ExperimentRunner, "build_engine", "build")
        self.wrap(SimulationEngine, "run", "engine_run")
        self.wrap(ResultStore, "save", "save")
        self.wrap(ResultStore, "load", "load")
        self.wrap(store_mod, "save_result", "serialize")
        self.wrap(store_mod, "load_result", "deserialize")
        self.wrap(reports_mod, "summarize", "summarize")
        self.wrap(executor_mod, "wait", "worker_wait")
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


@dataclass
class Pass:
    """Measurements of one campaign pass (times scaled, see calibrate.py)."""

    statuses: List[str]
    campaign_s: float
    campaign_cpu_s: float
    campaign_wall_s: float
    unit_ms: List[float]
    report_s: List[float]
    open_wall_s: List[float]
    report_wall_s: List[float]
    store_bytes: int
    store_files: int
    runs_bytes: int
    report: str
    system_s: float  # unscaled system CPU of the campaign
    kernel_us: float  # mean cost of the driver's calibration kernel
    tracer: Optional[Tracer] = None
    telemetry: List[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.campaign_wall_s + sum(self.report_wall_s)


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _live_children() -> Dict[int, Usage]:
    """Pid -> CPU of this process's children not yet reaped."""
    me = str(os.getpid())
    out = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[1] == me:
            out[int(entry.name)] = Usage(int(fields[11]) / _CLK_TCK,
                                         int(fields[12]) / _CLK_TCK)
    return out


def children_cpu(live: bool = False) -> Usage:
    """CPU of this process's reaped children.

    With ``live`` the CPU of children still running is added (read
    from /proc in clock ticks), which covers the batched backend's pool
    worker while a pass is in flight.
    """
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = Usage(usage.ru_utime, usage.ru_stime)
    if live:
        for child in _live_children().values():
            total += child
    return total


@dataclass(frozen=True)
class Clocks:
    """CPU clocks read at one instant."""

    thread: float  # main thread: places a span among the speed samples
    own: Usage  # every thread of this process
    children: Usage  # child processes: the batched backend's worker

    @classmethod
    def read(cls, live_children: bool = False) -> "Clocks":
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return cls(thread_time(), Usage(usage.ru_utime, usage.ru_stime),
                   children_cpu(live_children))


@dataclass
class SpanScale:
    """Scales the spans of one pass (see calibrate.py).

    ``driver`` holds this process's samples, ``workers`` those of the
    batched backend's worker; without ``driver`` spans are unscaled
    user CPU time. ``user_share`` is the user part of the driver's CPU
    over the whole pass, the split of spans too short to split
    themselves.
    """

    driver: Optional[HostSpeed]
    workers: Optional[HostSpeed]
    user_share: float

    def span(self, a: Clocks, b: Clocks, short: bool = False) -> float:
        """Scaled user CPU seconds of the process tree from ``a`` to ``b``.

        The driver's share is every thread's CPU, or with ``short`` the
        main thread's alone (a unit: a few ms, too short for the
        tick-grained user/system split). A worker's share is all of
        its CPU: each span that sees worker CPU covers the worker's
        whole batch, since units start before the pool forks and end
        after their lane is saved.
        """
        worker = b.children - a.children
        if self.driver is None:
            own = ((b.thread - a.thread) * self.user_share if short
                   else (b.own - a.own).user)
            return own + worker.user
        if short:
            scaled = self.driver.scaled_short(a.thread, b.thread,
                                              self.user_share)
        else:
            scaled = self.driver.scaled(a.thread, b.thread, b.own - a.own)
        if worker.total > 0.0:
            if self.workers is None or not self.workers.at:
                raise RuntimeError("a child process used CPU but took no "
                                   "host-speed samples")
            scaled += self.workers.total_scaled(worker)
        return scaled


@contextmanager
def sampled_workers(out_dir: Path):
    """Sample the host speed inside every batched backend worker.

    ``ExperimentRunner.run_batch`` is wrapped in this process before
    the pool forks its worker, which inherits the wrapper; the worker
    writes its samples to ``out_dir`` when the batch returns.
    """
    original = ExperimentRunner.run_batch

    def run_batch(self, *args, **kwargs):
        speed = HostSpeed().start()
        try:
            return original(self, *args, **kwargs)
        finally:
            speed.stop()
            speed.dump(out_dir / f"speed-{os.getpid()}-{perf_counter()}.json")

    out_dir.mkdir(parents=True, exist_ok=True)
    ExperimentRunner.run_batch = run_batch
    try:
        yield
    finally:
        ExperimentRunner.run_batch = original


def _await_reaped(timeout_s: float = 30.0) -> None:
    """Wait until every child has been reaped, so its CPU is counted.

    The executor shuts its pool down without waiting; the pool's
    management thread reaps the worker shortly after.
    """
    deadline = perf_counter() + timeout_s
    while _live_children():
        if perf_counter() > deadline:
            raise RuntimeError("a child process outlived its campaign pass")
        sleep(0.002)


def _tree_size(path: Path):
    """Bytes and count of the files under ``path``.

    Telemetry sidecars are left out: only traced passes write them, and
    the size metrics describe what a campaign stores.
    """
    files = [p for p in path.rglob("*")
             if p.is_file() and p.name != "telemetry.json"]
    return sum(p.stat().st_size for p in files), len(files)


def run_pass(workload: Workload, campaign: CampaignSpec,
             runner: ExperimentRunner, root: Path, traced: bool,
             sampled: bool = True) -> Pass:
    """One campaign into a fresh store at ``root``, then its report.

    With ``sampled`` the pass samples the host speed and its times are
    scaled; the worker's samples live next to ``root``, outside the
    store. Without it, times are unscaled user CPU time and the pass runs
    uninterrupted, as traced passes do so that the tracer's wall-clock
    spans hold no sampling.
    """
    marks: Dict[str, Clocks] = {}
    units: List[tuple] = []
    pooled = workload.backend != "serial"
    speed_dir = root.parent / f"{root.name}.speed"

    def progress(event: str, key: str, detail: str) -> None:
        if event in ("start", "ok"):
            now = Clocks.read(live_children=pooled)
            if event == "start":
                marks[key] = now
            else:
                units.append((marks[key], now))

    # Commit what earlier passes and runs wrote and deleted before the
    # clock starts: on the reference host (ext4 mounted with discard),
    # file creation after an uncommitted mass deletion cost up to twice
    # the system time, and that cost grew from pass to pass.
    os.sync()
    tracer = Tracer() if traced else None
    driver = HostSpeed() if sampled else None
    workers = (sampled_workers(speed_dir) if sampled and pooled
               else nullcontext())
    reports = []
    with driver or nullcontext(), workers, tracer or nullcontext():
        w0 = perf_counter()
        c0 = Clocks.read()
        executor = CampaignExecutor(
            store=ResultStore(root), backend=workload.backend,
            max_workers=1, runner=runner, progress=progress,
            telemetry=traced,
        )
        outcome = executor.run_campaign(campaign)
        w1 = perf_counter()
        _await_reaped()
        c1 = Clocks.read()
        open_wall_s, report_wall_s = [], []
        for _ in range(REPORT_REPEATS):
            c2, w2 = Clocks.read(), perf_counter()
            reopened = ResultStore(root)
            open_wall_s.append(perf_counter() - w2)
            report = campaign_report(reopened, campaign)
            reports.append((c2, Clocks.read()))
            report_wall_s.append(perf_counter() - w2)
    own = c1.own - c0.own
    if driver is not None:
        own -= Usage(driver.own(c0.thread, c1.thread))
    scale = SpanScale(
        driver,
        HostSpeed.load(sorted(speed_dir.glob("*.json")))
        if sampled and pooled else None,
        user_share=own.user / own.total,
    )
    shutil.rmtree(speed_dir, ignore_errors=True)
    store_bytes, store_files = _tree_size(root)
    runs_bytes, _ = _tree_size(root / "runs")
    telemetry = []
    if traced:
        for key in campaign.keys():
            snap = reopened.load_telemetry(key)
            if snap is not None:
                telemetry.append(snap)
    return Pass(
        statuses=[o.status for o in outcome.outcomes],
        campaign_s=scale.span(c0, c1),
        campaign_cpu_s=((c1.own - c0.own) + (c1.children - c0.children)).total,
        campaign_wall_s=w1 - w0,
        unit_ms=[scale.span(a, b, short=True) * 1e3 for a, b in units],
        report_s=[scale.span(a, b) for a, b in reports],
        open_wall_s=open_wall_s, report_wall_s=report_wall_s,
        store_bytes=store_bytes, store_files=store_files,
        runs_bytes=runs_bytes, report=report, tracer=tracer,
        telemetry=telemetry,
        system_s=(c1.own - c0.own).sys + (c1.children - c0.children).sys,
        kernel_us=np.mean(driver.cost) * 1e6 if driver else 0.0,
    )


def probe_setup(stacks, samples: int) -> List[Dict[str, float]]:
    """Time ``samples`` set-ups, each in a fresh interpreter.

    One extra probe runs first and is discarded: the first set-up after
    a quiet spell reads the program from a cold file cache. Each probe
    reports its own scaled user CPU time (``setup_probe.py``).
    """
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
               ",".join(str(s) for s in stacks)]
    out = []
    for i in range(samples + 1):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, cwd=str(ROOT))
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
        if i > 0:
            out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(passes: List[Pass], setups, peak_rss_mb: float) -> dict:
    units = sum(len(p.statuses) for p in passes)
    return {
        "runs_per_s": (units / sum(p.campaign_s for p in passes), "1/s"),
        "unit_p50_ms": (_median(ms for p in passes for ms in p.unit_ms),
                        "ms"),
        "report_s": (_median(r for p in passes for r in p.report_s), "s"),
        "setup_s": (_median(s["cpu_s"] for s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "store_mb": (_median(p.store_bytes for p in passes) / 1e6, "MB"),
    }


def _phase_totals(snaps: List[dict]):
    """Per-phase seconds and lane-ticks summed over telemetry sidecars.

    A batched lane carries the fused loop's shared profile under
    ``batch``; it is credited to each lane in equal shares, so both
    loops report time per simulated lane-tick.
    """
    totals: Dict[str, float] = defaultdict(float)
    ticks = 0
    batch_lanes = 0
    batches = 0.0
    for snap in snaps:
        if "batch" in snap:
            lanes = snap["batch"]["n_lanes"]
            prof = snap["batch"]["phases"]
            share = 1.0 / lanes
            batch_lanes += 1
            batches += share
        else:
            prof = snap.get("phases") or {}
            share = 1.0
        ticks += int(prof.get("ticks", 0))
        for name, entry in (prof.get("phases") or {}).items():
            totals[name] += entry["total_s"] * share
    lanes_per_batch = batch_lanes / batches if batches else 0.0
    return totals, ticks, lanes_per_batch


def per_layer(plain: Pass, traced: List[Pass], setups) -> dict:
    """Per-layer metrics of the traced passes (see README.md)."""
    units = sum(len(p.statuses) for p in traced)
    campaign_wall_s = sum(p.campaign_wall_s for p in traced)
    spans: Dict[str, List[float]] = defaultdict(list)
    for p in traced:
        for name, values in p.tracer.spans.items():
            spans[name].extend(values)

    def total(name: str) -> float:
        return sum(spans.get(name, ()))

    def per_unit_ms(name: str) -> float:
        return total(name) / units * 1e3

    snaps = [s for p in traced for s in p.telemetry]
    phases, ticks, lanes_per_batch = _phase_totals(snaps)
    tick_s = sum(phases.values())
    # Ticks of one pass: a count a speed-only change leaves equal.
    pass_ticks = ticks // len(traced)

    def phase_ms(name: str) -> float:
        return phases.get(name, 0.0) / ticks * 1e3 if ticks else 0.0

    engine_run = total("engine_run")
    skipped = sum(s["engine"]["counters"]["event_skipped_ticks"]
                  for s in snaps)
    jobs = sum(s["engine"]["jobs_completed"] for s in snaps)
    saves = spans.get("save", [])
    tenth = max(1, len(saves) // 10)
    loads = spans.get("load", [])
    summaries = spans.get("summarize", [])
    reports = len(traced) * REPORT_REPEATS
    report_s = sum(r for p in traced for r in p.report_wall_s)
    open_s = sum(o for p in traced for o in p.open_wall_s)
    traced_rate = units / sum(p.campaign_s for p in traced)
    plain_rate = len(plain.statuses) / plain.campaign_s
    metrics = {
        "setup.import_s": (_median(s["import_s"] for s in setups), "s"),
        "setup.indices_ms": (_median(s["indices_ms"] for s in setups), "ms"),
        "setup.assembly_ms": (_median(s["assembly_ms"] for s in setups),
                              "ms"),
        "setup.first_event_ms": (
            _median(s["first_event_ms"] for s in setups), "ms"),
        "runner.build_ms_per_unit": (per_unit_ms("build"), "ms"),
        "engine.run_ms_per_unit": (per_unit_ms("engine_run"), "ms"),
        "engine.fixed_ms_per_unit": (
            (engine_run - (0.0 if lanes_per_batch else tick_s)) / units * 1e3,
            "ms"),
        "engine.ms_per_tick": (tick_s / ticks * 1e3 if ticks else 0.0, "ms"),
        "engine.interval_ms_per_tick": (phase_ms("interval"), "ms"),
        "engine.sensors_ms_per_tick": (phase_ms("sensors"), "ms"),
        "engine.dpm_ms_per_tick": (phase_ms("dpm"), "ms"),
        "engine.record_ms_per_tick": (phase_ms("record"), "ms"),
        "engine.event_jump_ms_per_tick": (phase_ms("event_jump"), "ms"),
        "engine.skipped_tick_ratio": (skipped / ticks if ticks else 0.0,
                                      "ratio"),
        "engine.ticks": (pass_ticks, "count"),
        "engine.jobs_completed": (jobs // len(traced), "count"),
        "power.ms_per_tick": (phase_ms("power"), "ms"),
        "thermal.ms_per_tick": (phase_ms("thermal"), "ms"),
        "policy.ms_per_tick": (phase_ms("policy"), "ms"),
        "batch.ms_per_lane_tick": (
            tick_s / ticks * 1e3 if lanes_per_batch else 0.0, "ms"),
        "batch.lanes_per_batch": (lanes_per_batch, "count"),
        "executor.self_ms_per_unit": (
            (campaign_wall_s - total("build") - engine_run - total("save")
             - total("worker_wait")) / units * 1e3, "ms"),
        "store.save_ms_p50": (_median(saves) * 1e3, "ms"),
        "store.save_ms_p99": (
            float(np.percentile(saves, 99)) * 1e3 if saves else 0.0, "ms"),
        "store.index_ms_per_save": (
            (total("save") - total("serialize")) / max(len(saves), 1) * 1e3,
            "ms"),
        "store.save_growth": (
            (sum(saves[-tenth:]) / sum(saves[:tenth])) if saves else 0.0,
            "ratio"),
        "store.open_ms": (open_s / reports * 1e3, "ms"),
        "store.load_ms_p50": (_median(loads) * 1e3, "ms"),
        "store.files_per_unit": (
            sum(p.store_files for p in traced) / units, "count"),
        "campaign.sys_ms_per_unit": (
            sum(p.system_s for p in traced) / units * 1e3, "ms"),
        "result_io.save_ms_per_unit": (per_unit_ms("serialize"), "ms"),
        "result_io.load_ms_per_unit": (
            total("deserialize") / max(len(loads), 1) * 1e3, "ms"),
        "result_io.kb_per_unit": (
            sum(p.runs_bytes for p in traced) / units / 1024.0, "KiB"),
        "report.summarize_ms_per_run": (
            sum(summaries) / max(len(summaries), 1) * 1e3, "ms"),
        "report.self_ms": (
            (report_s - open_s - total("load") - sum(summaries))
            / reports * 1e3, "ms"),
        "trace.overhead_pct": ((plain_rate / traced_rate - 1.0) * 100.0, "%"),
    }
    return metrics


def run_checks(workload: Workload, campaign: CampaignSpec, last: Pass,
               root: Path, seed: int) -> List[str]:
    """Every output check of the workload on the last pass's store."""
    keys = campaign.keys()
    errors = checks.check_completeness(
        root, campaign, last.statuses, last.report, workload.backend)
    rng = np.random.default_rng([seed, workload.index, 1])
    count = min(TOLERANCE_SAMPLE[workload.name], len(keys))
    sample = [keys[i] for i in sorted(rng.choice(len(keys), count,
                                                 replace=False))]
    errors += checks.check_tolerance(root, sample)
    errors += checks.check_physics(root, keys)
    if workload.name == "fig4_long":
        errors += checks.check_paper_claims(root, campaign)
    return errors


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  started: float, smoke: bool = False) -> dict:
    """Measure one workload; returns the benchmark's result object."""
    workload = WORKLOADS[name]
    campaign = workload.campaign(seed, smoke)
    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    passes: List[Pass] = []
    plain: Optional[Pass] = None
    try:
        setups = probe_setup(workload.stacks, 1 if smoke else SETUP_PROBES)
        runner, _ = warm(workload.stacks, started)
        begin = perf_counter()
        if trace:
            plain = run_pass(workload, campaign, runner, work / "plain",
                             traced=False, sampled=False)
            shutil.rmtree(work / "plain")
        while True:
            root = work / f"pass{len(passes)}"
            if passes:
                shutil.rmtree(work / f"pass{len(passes) - 1}")
            passes.append(run_pass(workload, campaign, runner, root,
                                   traced=trace, sampled=not trace))
            # Stop where the next pass would end nearer past the budget
            # than the last one ended short of it.
            elapsed = perf_counter() - begin
            if elapsed + 0.5 * _median(p.wall_s for p in passes) > seconds:
                break
        peak_rss = _peak_rss_mb()
        print(f"campaign_bench: {name} seed={seed} passes={len(passes)} "
              f"units/pass={len(passes[0].statuses)} store={root}",
              file=sys.stderr)
        for p in passes:
            print(f"campaign_bench: pass campaign scaled {p.campaign_s:.3f} s "
                  f"cpu {p.campaign_cpu_s:.3f} s wall {p.campaign_wall_s:.3f} s; "
                  f"report scaled {sum(p.report_s):.3f} s "
                  f"wall {sum(p.report_wall_s):.3f} s; campaign system "
                  f"{p.system_s:.3f} s; kernel {p.kernel_us:.0f} us",
                  file=sys.stderr)
        errors = run_checks(workload, campaign, passes[-1], root, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()
    for error in errors:
        print(f"campaign_bench: CHECK FAILED: {error}", file=sys.stderr)
    all_passes = passes + ([plain] if plain is not None else [])
    statuses = [s for p in all_passes for s in p.statuses]
    if trace:
        metrics = per_layer(plain, passes, setups)
    else:
        metrics = end_to_end(passes, setups, peak_rss)
    return {
        "correct": not errors,
        "attempted": len(statuses),
        "failed": sum(1 for s in statuses if s != "ok"),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
