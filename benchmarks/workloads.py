"""The benchmark's three workloads: scan, search and certify.

Each workload is built once per process (the set-up that ``setup_s`` times)
and then run repeatedly (the work that ``wall_s`` times).  A run returns an
``Outcome``: one checked operation per job, the ratios R it found, and a
digest of its results that must be identical whenever the same seed is run
again.

Why these three: ``scan`` is the end-to-end ``bellkit table`` run, whose time
goes to dense eigensolves on states of dimension up to 243; ``search`` runs the
criterion-7 trio and the symmetric exponent-table sweep on small states, where
the per-phase pairing work dominates; ``certify`` enumerates deterministic
strategies and evaluates random setups through the Born and fast paths, and
runs no search at all.

bellkit functions are looked up on their modules at call time (``lhv.x``, not
``from bellkit.lhv import x``) so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from bellkit import cglmp, cli, lhv, optimize, specdoc
from bellkit.bases import FunctionalForm
from bellkit.multiport import QuantumSetup
from bellkit.presets import PRESETS

# Optimizer seeds are fixed at the values of the acceptance criteria the jobs
# come from (table: 23; criterion 7: 31, 37, 41; criterion 4: 17).  Restart
# iteration counts are heavy-tailed in the start point, so a seed-derived
# optimizer seed moves the table run's time by 20-35% between seeds; the
# workload seed varies certify's random setups instead.
TABLE_SEED = 23
I323_SEEDS = {"full": 31, "ghz": 37, "fixed": 41}
SWEEP_SEED = 17

# Criterion 5's reference ratios (real part, modulus) per (N, k, d) row.
SCAN_REFERENCES = {
    (2, 2, 2): (1.41421, 1.41421),
    (2, 2, 3): (1.0, 1.0),
    (3, 2, 2): (1.66667, 1.66667),
    (4, 2, 2): (1.84277, 1.84277),
    (2, 2, 6): (2.0, 1.71638),
    (5, 2, 3): (1.0, 1.79252),
}
SCAN_ROWS = {
    "full": [(2, 2, 2), (2, 2, 3), (3, 2, 2), (4, 2, 2), (2, 2, 6), (5, 2, 3)],
    "smoke": [(2, 2, 2), (2, 2, 3)],
}
SCAN_RESTARTS = {"full": 2, "smoke": 1}
# Rows whose criterion-5 reference exceeds the |E| <= 1 ceiling sum|c|/beta:
# no model can reach it, so such a row is checked against the ratio this code
# reaches at the table seed instead (a floor 2% below it, up to the ceiling),
# and the reference and ceiling are printed beside it.
UNATTAINABLE_RECORDED = {
    ((2, 2, 6), "real-part"): 0.999999999375,
    ((2, 2, 6), "modulus"): 0.972087510121,
    ((5, 2, 3), "modulus"): 0.999999999995,
}

# (restarts of the full search, GHZ family, fixed state), then the sweep's
# (restarts, coarse_restarts, refine_top).
SEARCH_BUDGET = {
    "full": ((6, 24, 4), (2, 1, 2)),
    "smoke": ((1, 1, 1), (1, 1, 1)),
}
I323_VALUE = 4.543
SWEEP_RATIO = 1.0482

# Exact enumeration results at the parent commit, keyed by (N, d, form).
RECORDED_BOUNDS = {
    (3, 3, "real-part"): 4.000000000000001,
    (3, 3, "modulus"): 4.000000000000002,
    (5, 4, "real-part"): 40.0,
    (5, 4, "modulus"): 41.0,
    (6, 3, "real-part"): 20.50000000000004,
    (6, 3, "modulus"): 23.38803112705302,
}
# facet_check on product-g (5, 2, 3), real part: (dimension, count, rank).
RECORDED_FACET_523 = (64, 972, 6)
CERTIFY_BUDGET = {
    # bound scenarios (N, d), tight presets, facet on (5,2,3), random setups
    # for i323 and for product-g (5, 2, 3)
    "full": ([(5, 4), (6, 3)], ("g1", "g2", "g3"), True, (200, 80)),
    "smoke": ([(3, 3)], ("g1",), False, (4, 2)),
}
BORN_FAST_TOLERANCE = 1e-10


@dataclass
class Op:
    """One checked job."""

    job: str
    ok: bool
    detail: str
    error: str | None = None
    quiet: bool = False  # left out of the printed report unless it fails


@dataclass
class Outcome:
    ops: list[Op] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)

    def add(self, op: Op) -> None:
        self.ops.append(op)

    def guarded(self, job: str, fn: Callable[[], Op]) -> None:
        """Run one job; an exception counts as a failed operation."""
        try:
            op = fn()
        except Exception as exc:  # noqa: BLE001 - a failing job is a measurement
            op = Op(job, False, f"raised {type(exc).__name__}: {exc}", error=type(exc).__name__)
        self.add(op)

    @property
    def digest(self) -> str:
        text = json.dumps(self.results, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def summary(self) -> dict:
        failed = [op for op in self.ops if op.error or not op.ok]
        return {
            "ops": len(self.ops),
            "failed": len(failed),
            "ratio_geomean": geomean(self.ratios),
            "digest": self.digest,
            "lines": [
                f"{'ok  ' if op.ok and not op.error else 'FAIL'} {op.job}: {op.detail}"
                for op in self.ops if not op.quiet or op.error or not op.ok
            ],
        }


def geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _g(value: float) -> str:
    """A float as bellkit's result documents round it (12 significant digits)."""
    return f"{value:.12g}"


# -- scan ---------------------------------------------------------------------

def build_scan(seed: int, scale: str) -> Callable[[], Outcome]:
    rows = SCAN_ROWS[scale]
    coefficient_sums = {}
    for n, _, d in rows:
        for form in (FunctionalForm.REAL_PART, FunctionalForm.MODULUS):
            functional = optimize.product_g_functional(n, d, form)
            coefficient_sums[(n, d, form.value)] = float(np.abs(functional.coefficients).sum())
    argv = [
        "table",
        "--scenarios", ";".join(f"{n},{k},{d}" for n, k, d in rows),
        "--seed", str(TABLE_SEED),
        "--restarts", str(SCAN_RESTARTS[scale]),
        "--format", "csv",
    ]
    return lambda: run_scan(argv, coefficient_sums)


def run_scan(argv: list[str], coefficient_sums: dict) -> Outcome:
    outcome = Outcome()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    manifest = None
    for line in stderr.getvalue().splitlines():
        if line.startswith('{"manifest"'):
            manifest = json.loads(line)["manifest"]
    if code != 0 or manifest is None:
        outcome.add(Op("table", False, f"exit code {code}", error=f"exit {code}"))
        return outcome
    outcome.results.append(manifest["result_digest"])
    for row in csv.DictReader(io.StringIO(stdout.getvalue())):
        n, k, d = int(row["parties"]), int(row["settings"]), int(row["outcomes"])
        references = SCAN_REFERENCES[(n, k, d)]
        for tag, form, want in (("re", "real-part", references[0]),
                                ("abs", "modulus", references[1])):
            job = f"({n},{k},{d}) {form}"
            if row["error"]:
                outcome.add(Op(job, False, row["error"], error="row error"))
                continue
            ratio, beta = float(row[f"ratio_{tag}"]), float(row[f"beta_{tag}"])
            ceiling = coefficient_sums[(n, d, form)] / beta
            outcome.ratios.append(ratio)
            outcome.add(Op(job, *check_scan_row((n, k, d), form, ratio, want, ceiling)))
    return outcome


def check_scan_row(row: tuple, form: str, ratio: float, want: float,
                   ceiling: float) -> tuple[bool, str]:
    """Criterion 5's check of one table row and form: (ok, detail).

    R must lie within 2% of the reference and not above the ceiling.  Where
    the reference itself is above the ceiling, R must instead stay within
    the ceiling and no more than 2% below the ratio recorded at the seed, so
    a loss of violation on that row still fails.
    """
    detail = f"R={ratio:.5f} reference={want:.5f} ceiling={ceiling:.5f}"
    if ratio > ceiling + 1e-9:
        return False, detail + "  [above the ceiling]"
    if want <= ceiling + 1e-9:
        return abs(ratio - want) <= 0.02 * want, detail + " (band +-2%)"
    recorded = UNATTAINABLE_RECORDED[(row, form)]
    return ratio >= 0.98 * recorded, detail + (
        f"  [reference above the ceiling, unattainable; floor -2% of recorded {recorded:.5f}]")


# -- search -------------------------------------------------------------------

def i323_pattern_state() -> np.ndarray:
    """Criterion 7's fixed pattern state on three qutrits."""
    a, b, c, d, e = 0.313, 0.299, 0.515, 0.035, 0.309
    pattern = np.zeros((3, 3, 3))
    for index, value in (((0, 1, 0), a), ((0, 2, 0), b), ((1, 0, 1), c), ((1, 2, 1), d),
                         ((2, 0, 2), d), ((2, 1, 2), e), ((0, 0, 0), b), ((1, 1, 1), e),
                         ((2, 2, 2), c)):
        pattern[index] = value
    return pattern


def build_search(seed: int, scale: str) -> Callable[[], Outcome]:
    (full, ghz, fixed), sweep = SEARCH_BUDGET[scale]
    functional = cglmp.i323_functional()
    pattern = i323_pattern_state()
    config = optimize.OptimizationConfig
    configs = {
        "full": config(restarts=full, seed=I323_SEEDS["full"]),
        "ghz": config(restarts=ghz, seed=I323_SEEDS["ghz"]),
        "fixed": config(restarts=fixed, seed=I323_SEEDS["fixed"]),
        "sweep": config(restarts=sweep[0], seed=SWEEP_SEED),
    }
    stated = np.zeros((3, 3), dtype=np.int64)
    stated[2, 2] = 1  # delta(h1,2) delta(h2,2)
    stated_key = tuple(stated.ravel().tolist())

    def record(outcome: Outcome, name: str, result) -> None:
        outcome.ratios.append(result.ratio)
        outcome.results.append([name, _g(result.quantum_value), result.restart_index,
                                result.iterations, [_g(v) for v in result.restart_values]])

    def run() -> Outcome:
        outcome = Outcome()

        def full_job() -> Op:
            result = optimize.maximize_violation(functional, configs["full"], beta=3.0)
            record(outcome, "full", result)
            value = result.quantum_value
            return Op("i323 full search", abs(value - I323_VALUE) <= 0.01 * I323_VALUE,
                      f"value={value:.5f} reference={I323_VALUE} +-1%")

        def ghz_job() -> Op:
            result = optimize.maximize_restricted_ghz(functional, configs["ghz"], beta=3.0)
            record(outcome, "ghz", result)
            value = result.quantum_value
            return Op("i323 GHZ family", value <= 3.0 + 1e-6, f"value={value:.7f} <= 3 + 1e-6")

        def fixed_job() -> Op:
            result = optimize.maximize_with_fixed_state(functional, pattern, configs["fixed"],
                                                        beta=3.0)
            record(outcome, "fixed", result)
            value = result.quantum_value
            return Op("i323 fixed pattern state",
                      abs(value - I323_VALUE) <= 0.01 * I323_VALUE,
                      f"value={value:.5f} reference={I323_VALUE} +-1%")

        def sweep_job() -> Op:
            result = optimize.symmetric_g_search(
                FunctionalForm.MODULUS, configs["sweep"],
                coarse_restarts=sweep[1], refine_top=sweep[2],
            )
            record(outcome, "sweep", result.best)
            best = result.best.ratio
            stated_ratio = dict(result.ranking)[stated_key]
            outcome.results.append([[list(key), _g(ratio)] for key, ratio in result.ranking])
            ok = abs(best - SWEEP_RATIO) <= 0.006 and stated_ratio >= best - 2e-3
            return Op("modulus symmetric-g sweep", ok,
                      f"best R={best:.5f} reference={SWEEP_RATIO} +-0.006; "
                      f"stated table R={stated_ratio:.5f} (within 2e-3 of best)")

        for job, fn in (("i323 full search", full_job), ("i323 GHZ family", ghz_job),
                        ("i323 fixed pattern state", fixed_job),
                        ("modulus symmetric-g sweep", sweep_job)):
            outcome.guarded(job, fn)
        return outcome

    return run


# -- certify ------------------------------------------------------------------

def random_setups(functional, count: int, rng: np.random.Generator) -> list[QuantumSetup]:
    scenario = functional.scenario
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    setups = []
    for _ in range(count):
        amplitudes = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
        phases = rng.uniform(0.0, 2 * np.pi, size=(n, k, d))
        setups.append(QuantumSetup.normalized(scenario, amplitudes, phases))
    return setups


def build_certify(seed: int, scale: str) -> Callable[[], Outcome]:
    bound_scenarios, tight_names, large_facet, (n_i323, n_523) = CERTIFY_BUDGET[scale]
    forms = (FunctionalForm.REAL_PART, FunctionalForm.MODULUS)
    bound_jobs = [
        ((n, d, form.value), optimize.product_g_functional(n, d, form))
        for n, d in bound_scenarios for form in forms
    ]
    facet_jobs = [
        (f"tight-323-{name}",
         specdoc.parse_functional_document(PRESETS[f"tight-323-{name}"], f"preset:{name}"))
        for name in tight_names
    ]
    product_523 = optimize.product_g_functional(5, 3, FunctionalForm.REAL_PART)
    if large_facet:
        facet_jobs.append(("product-g (5,2,3) real-part", product_523))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    evaluations = [("i323", cglmp.i323_functional()),
                   ("product-g (5,2,3) real-part", product_523)]
    evaluations = [
        (name, functional, random_setups(functional, count, rng))
        for (name, functional), count in zip(evaluations, (n_i323, n_523))
    ]

    def bound_job(key, functional, outcome: Outcome) -> Op:
        result = lhv.classical_bound(functional)
        want = RECORDED_BOUNDS[key]
        n, d, form = key
        expected_count = d ** (n * 2)
        ok = (abs(result.bound - want) <= 1e-9 * max(1.0, abs(want))
              and result.examined == expected_count)
        ceiling = float(np.abs(functional.coefficients).sum()) / result.bound
        outcome.ratios.append(ceiling)
        outcome.results.append([list(key), _g(result.bound), result.examined, len(result.argmax)])
        return Op(f"bound product-g ({n},2,{d}) {form}", ok,
                  f"bound={result.bound!r} recorded={want!r} strategies={result.examined}")

    def facet_job(name, functional, outcome: Outcome) -> Op:
        report = lhv.facet_check(functional)
        outcome.results.append([name, _g(report.bound), report.polytope_dimension,
                                report.saturating_count, report.saturating_rank,
                                report.is_facet, report.is_valid])
        detail = (f"dim={report.polytope_dimension} saturating={report.saturating_count} "
                  f"rank={report.saturating_rank} facet={report.is_facet} "
                  f"valid={report.is_valid}")
        if name.startswith("tight-323"):
            return Op(f"facet {name}", report.is_facet and report.is_valid, detail)
        found = (report.polytope_dimension, report.saturating_count, report.saturating_rank)
        return Op(f"facet {name}", report.is_valid and found == RECORDED_FACET_523,
                  detail + f" recorded (dim, count, rank)={RECORDED_FACET_523}")

    def run() -> Outcome:
        outcome = Outcome()
        for key, functional in bound_jobs:
            outcome.guarded(f"bound {key}", lambda: bound_job(key, functional, outcome))
        for name, functional in facet_jobs:
            outcome.guarded(f"facet {name}", lambda: facet_job(name, functional, outcome))
        for name, functional, setups in evaluations:
            born_values = []
            for index, setup in enumerate(setups):
                def evaluate() -> Op:
                    born = optimize.quantum_functional_value(functional, setup, path="born")
                    fast = optimize.quantum_functional_value(functional, setup, path="fast")
                    born_values.append(born)
                    gap = abs(born - fast)
                    return Op(f"born/fast {name} #{index}", gap <= BORN_FAST_TOLERANCE,
                              f"|born - fast|={gap:.2e}", quiet=True)

                outcome.guarded(f"born/fast {name} #{index}", evaluate)
            outcome.results.append([name, len(setups), _g(sum(born_values))])
        return outcome

    return run


BUILDERS = {"scan": build_scan, "search": build_search, "certify": build_certify}


def build(name: str, seed: int, scale: str) -> Callable[[], Outcome]:
    return BUILDERS[name](seed, scale)
