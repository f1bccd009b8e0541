"""bellkit benchmark: one run of one workload.

    python3 benchmarks/run.py --workload scan --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; bellkit is imported from its ``src/``.  A
run starts fresh worker processes one after another, each with BLAS pinned to
one thread, until ``--seconds`` are used (at least three).  Each builds the
workload and runs it once.  Every iteration of one seed must produce the same
result digest; a mismatch is a failed operation.  With ``--trace 1`` the
second process is traced, and the per-layer metrics come from its iteration.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics untraced,
the per-layer metrics traced).  The whole record, with the machine and every
iteration, is also written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import calibrated  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALES = ("full", "smoke")
# At least untraced, traced (with --trace 1), untraced: the replay check
# compares the scan digest with and without tracing.
MIN_PROCESSES = 3
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 120  # cap on --seconds, well inside the 180 s a run may take
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def calibrated_time(iterations: list[dict], clock: str) -> float:
    """Time of one iteration at the calibration kernel's reference speed.

    The sum of the iterations' raw times over the sum of the kernel times
    measured beside them (the mean of the runs before and after each
    iteration); pooling all iterations of a run averages out the kernel's
    own noise.  Every iteration is the first in a fresh process: a second
    iteration in one process runs 5-10% slower on certify, so a loop inside
    a process would make the time depend on how many iterations fit.
    """
    raw = sum(it[f"{clock}_s"] for it in iterations)
    kernel = sum(statistics.mean(it[f"kernel_{clock}_s"]) for it in iterations)
    return calibrated(raw, kernel)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def spawn(workload: str, seed: int, scale: str, traced: bool) -> dict:
    """Start one worker process and return its report."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--scale", scale, "--traced", str(int(traced))]
    spawned = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker did not finish within {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"worker exited with {done.returncode}:\n{done.stderr[-4000:]}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["setup_raw_s"] = report.pop("ready") - spawned
    report["setup_s"] = calibrated(report["setup_raw_s"], report["setup_kernel_wall_s"])
    report["traced"] = traced
    return report


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    limit = min(seconds, RUN_LIMIT_S)
    started = time.monotonic()
    reports = []
    while len(reports) < MIN_PROCESSES or (
            time.monotonic() - started) * (len(reports) + 1) / len(reports) <= limit:
        reports.append(spawn(workload, seed, scale, trace and len(reports) == 1))
    plain = [r["iteration"] for r in reports if not r["traced"]]
    traced = [r["iteration"] for r in reports if r["traced"]]
    outcomes = [r["iteration"]["outcome"] for r in reports]

    digests = [o["digest"] for o in outcomes]
    replay_failures = sum(1 for digest in digests[1:] if digest != digests[0])
    attempted = sum(o["ops"] for o in outcomes) + len(outcomes) - 1
    failed = sum(o["failed"] for o in outcomes) + replay_failures
    unrestored = sorted({name for it in traced for name in it["unrestored"]})
    correct = failed == 0 and not unrestored
    # The share of the workload's checked jobs that failed, over every iteration.
    fail_frac = sum(o["failed"] for o in outcomes) / sum(o["ops"] for o in outcomes)

    if trace:
        metrics = dict(traced[0]["layers"])
        metrics["setup.import_s"] = statistics.median(r["import_s"] for r in reports)
        metrics["setup.build_s"] = statistics.median(r["build_s"] for r in reports)
        metrics["checks.fail_frac"] = fail_frac
        metrics["trace.overhead_frac"] = (
            calibrated_time(traced, "wall") / calibrated_time(plain, "wall") - 1.0)
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "wall_s": calibrated_time(plain, "wall"),
            "cpu_s": calibrated_time(plain, "cpu"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
            "ratio_geomean": statistics.median(o["ratio_geomean"] for o in outcomes),
            "pass_frac": 1.0 - fail_frac,
        }
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "seconds": seconds,
        "machine": reports[0]["machine"],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "replay_failures": replay_failures,
        "unrestored": unrestored,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "checks": outcomes[0]["lines"],
        "processes": [{key: value for key, value in r.items() if key != "machine"}
                      for r in reports],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one bellkit benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in DECLARED["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="smoke: minimal inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bellkit" / "__init__.py").is_file():
        print(f"error: no bellkit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for line in record["checks"]:
        print(line)
    print(f"{len(record['processes'])} processes, replay failures: "
          f"{record['replay_failures']}, record: .bench_out/{name}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
