"""Child process that times one benchmark set-up from a fresh interpreter.

Usage: ``python3 campaign_bench/setup_probe.py <stack,stack,...>``.
Prints the phase times of :func:`setup_phase.warm` as one JSON line,
with ``cpu_s``: the probe's user CPU time since the interpreter
started, scaled to the reference host speed (``calibrate.py``).
"""

from time import perf_counter

STARTED = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from setup_phase import prepare_process, warm  # noqa: E402

if __name__ == "__main__":
    prepare_process()
    from calibrate import HostSpeed, Usage

    stacks = tuple(int(s) for s in sys.argv[1].split(","))
    with HostSpeed() as speed:
        _, phases = warm(stacks, STARTED)
        usage = resource.getrusage(resource.RUSAGE_SELF)
    phases["cpu_s"] = speed.total_scaled(Usage(usage.ru_utime,
                                               usage.ru_stime))
    print(json.dumps(phases))
