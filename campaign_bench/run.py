"""Campaign benchmark: one workload, timed from outside the program.

Usage::

    python3 campaign_bench/run.py --workload sweep_short --seed 1 \
        --seconds 20 --trace 0

Runs the workload's campaign into fresh stores for ``--seconds``,
checks the outputs, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``). See README.md for the workloads and metrics.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

from setup_phase import prepare_process  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_short", "fig4_long", "batch_idle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    prepare_process()
    from measure import run_benchmark

    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), STARTED)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
