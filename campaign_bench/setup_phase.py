"""Set-up of a benchmark process: environment, imports and warm caches.

Imports nothing from the program at module level, so that the import
time of the program can be measured from a fresh interpreter
(``setup_probe.py``) by the same code the benchmark driver runs.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, Tuple

#: Root of the checkout: the benchmark directory's parent.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: BLAS thread pools pinned to one thread. With OpenBLAS's default two
#: threads the eager tick loop's small GEMVs spread far more between
#: repetitions than pinned.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def prepare_process() -> None:
    """Pin BLAS threads and put the program's sources on ``sys.path``.

    Must run before numpy is imported. Exits with code 2 when the
    checkout holds no program sources.
    """
    os.environ.update(BLAS_ENV)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"campaign_bench: no program sources under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def warm(stacks: Tuple[int, ...], started: float):
    """Import the program and warm every per-stack cache a campaign uses.

    ``started`` is the ``perf_counter()`` reading at process start.
    Returns ``(runner, phases)``: an :class:`ExperimentRunner` whose
    thermal indices, assemblies (with their expm propagators) and modal
    bases are built for each stack, and the time spent per phase.
    """
    import repro.analysis.runner as runner_mod
    from repro.analysis.runner import ExperimentRunner, RunSpec
    import repro.campaign  # noqa: F401  (executor, store, reports)
    import repro.metrics.report  # noqa: F401

    phases: Dict[str, float] = {"import_s": perf_counter() - started}
    runner = ExperimentRunner()
    indices_s = 0.0
    build_s = 0.0
    first_event_s = 0.0
    compute = runner_mod.compute_thermal_indices

    def timed_indices(*args, **kwargs):
        nonlocal indices_s
        t0 = perf_counter()
        try:
            return compute(*args, **kwargs)
        finally:
            indices_s += perf_counter() - t0

    runner_mod.compute_thermal_indices = timed_indices
    try:
        for exp_id in stacks:
            spec = RunSpec(exp_id=exp_id, policy="Default", duration_s=0.3,
                           fidelity="event")
            t0 = perf_counter()
            engine = runner.build_engine(spec)
            build_s += perf_counter() - t0
            t0 = perf_counter()
            engine.run()
            first_event_s += perf_counter() - t0
    finally:
        runner_mod.compute_thermal_indices = compute
    phases["indices_ms"] = indices_s * 1e3
    phases["assembly_ms"] = (build_s - indices_s) * 1e3
    phases["first_event_ms"] = first_event_s * 1e3
    return runner, phases
