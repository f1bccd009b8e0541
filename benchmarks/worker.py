"""One fresh process that builds a workload and runs it once.

run.py starts this script with BLAS pinned to one thread and reads the single
JSON line it prints: set-up times, peak memory, and the iteration's time,
checks and result digest.  The calibration kernel runs right before and
right after the iteration.  ``ready`` is the monotonic clock (shared by every
process on Linux) at the moment the workload is built, so run.py can time
set-up from the moment it started this process.

    python3 benchmarks/worker.py --workload scan --seed 1 --traced 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from time import perf_counter

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    import numpy
    import scipy

    uname = os.uname()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "system": f"{uname.sysname} {uname.release} {uname.machine}",
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = perf_counter()
    import bellkit  # noqa: F401 - timed: the package import is most of set-up
    import workloads
    imported = perf_counter()
    run = workloads.build(args.workload, args.seed, args.scale)
    built = perf_counter()
    ready = time.monotonic()

    import calibration
    from calibration import cpu_seconds

    if args.traced:
        from layers import LAYERS, layer_metrics
        from tracer import Tracer

    kernel_before = calibration.measure()
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install(LAYERS)
    cpu_before, wall_before = cpu_seconds(), perf_counter()
    try:
        outcome = run()
    finally:
        if tracer is not None:
            tracer.restore()
    wall, cpu = perf_counter() - wall_before, cpu_seconds() - cpu_before
    kernel_after = calibration.measure()
    iteration = {
        "wall_s": wall,
        "cpu_s": cpu,
        "kernel_wall_s": [kernel_before[0], kernel_after[0]],
        "kernel_cpu_s": [kernel_before[1], kernel_after[1]],
        "outcome": outcome.summary(),
    }
    if tracer is not None:
        iteration["layers"] = layer_metrics(tracer)
        iteration["patched"] = len(tracer.patched_names())
        iteration["unrestored"] = tracer.unrestored()

    print(json.dumps({
        "ready": ready,
        "setup_kernel_wall_s": kernel_before[0],
        "import_s": imported - started,
        "build_s": built - imported,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iteration": iteration,
        "machine": machine(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
