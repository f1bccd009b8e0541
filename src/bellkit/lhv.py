"""Exact local-realistic bounds by exhaustive deterministic-strategy enumeration.

The maximum of Re[linear] or |linear| over the LHV polytope is attained at a
vertex, so the classical bound of any functional here is the maximum of its
value over all d^(N*k) deterministic strategies.  Enumeration is chunked so
that arbitrarily large (budget-permitting) scenarios stream in bounded memory,
and the reduction is order-independent: results do not depend on chunk size.

Facet certification embeds the deterministic correlation tensors in the real
space of dimension 2*k^N (real and imaginary parts) and compares the affine
rank of the saturating set against the polytope's affine dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Iterator

import numpy as np

from .core import (DeterministicStrategy, Scenario, as_mask, settings_tuples,
                   strategy_correlation_tensor, unit_roots)
from .bases import BellFunctional, FunctionalForm, apply_form

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "UnsupportedFormError",
    "ClassicalBoundResult",
    "FacetReport",
    "enumerate_strategies",
    "classical_bound",
    "strategy_functional_value",
    "polytope_dimension",
    "facet_check",
    "linearize_modulus",
]

DEFAULT_BUDGET = 10**8
DEFAULT_CHUNK = 1 << 18
RANK_RTOL = 1e-9  # singular values below this fraction of the largest count as zero
SATURATION_TOL = 1e-9


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured strategy budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs {required} strategies, beyond the budget of {budget}"
        )
        self.required = required
        self.budget = budget


class UnsupportedFormError(ValueError):
    """Raised for operations that only apply to real-part functionals."""


@dataclass(frozen=True)
class ClassicalBoundResult:
    """Exact LHV bound with every saturating strategy."""

    bound: float
    argmax: tuple[DeterministicStrategy, ...]
    examined: int

    @property
    def witness(self) -> DeterministicStrategy:
        """The lexicographically smallest saturating strategy."""
        return self.argmax[0]


@dataclass(frozen=True)
class FacetReport:
    """Rank certificate for tightness of a real-part inequality."""

    bound: float
    polytope_dimension: int
    saturating_count: int
    saturating_rank: int
    is_facet: bool
    is_valid: bool


def _check_budget(scenario: Scenario, budget: int) -> int:
    total = scenario.n_strategies
    if total > budget:
        raise BudgetExceededError(total, budget)
    return total


def enumerate_strategies(
    scenario: Scenario, budget: int = DEFAULT_BUDGET
) -> Iterator[DeterministicStrategy]:
    """Yield every deterministic strategy once, lexicographically."""
    _check_budget(scenario, budget)
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    for digits in itertools.product(range(d), repeat=n * k):
        yield DeterministicStrategy(scenario, np.array(digits).reshape(n, k))


def _party_assignments(scenario: Scenario) -> np.ndarray:
    """All d^k single-party assignments, row i in lexicographic order (setting 0 slowest)."""
    k, d = scenario.settings, scenario.outcomes
    rows = np.array(list(itertools.product(range(d), repeat=k)), dtype=np.int64)
    return rows


def _party_factor(scenario: Scenario, assignments: np.ndarray, setting: int, mask_entry: int):
    d = scenario.outcomes
    return unit_roots(d)[(mask_entry * assignments[:, setting]) % d]


def _chunk_values(functional, scenario, assignments, start, stop) -> np.ndarray:
    """Complex functional totals for the flat strategy indices [start, stop)."""
    n = scenario.parties
    per_party = len(assignments)
    rest = np.arange(start, stop, dtype=np.int64)
    party_idx: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for p in range(n - 1, -1, -1):
        rest, party_idx[p] = np.divmod(rest, per_party)
    totals = np.zeros(stop - start, dtype=complex)
    for x, mask_entries, weight in functional.terms():
        factor = np.ones(stop - start, dtype=complex)
        for p in range(n):
            column = _party_factor(scenario, assignments, x[p], mask_entries[p])
            factor *= column[party_idx[p]]
        totals += weight * factor
    return totals


def strategy_functional_value(functional, strategy: DeterministicStrategy) -> float:
    """Evaluate a functional on one deterministic strategy."""
    if strategy.scenario != functional.scenario:
        raise ValueError("strategy belongs to a different scenario")
    total = functional.contract(lambda mask: strategy_correlation_tensor(strategy, mask))
    return apply_form(functional.form, total)


def classical_bound(
    functional,
    budget: int = DEFAULT_BUDGET,
    chunk: int = DEFAULT_CHUNK,
) -> ClassicalBoundResult:
    """Maximize the functional over every deterministic strategy.

    The saturation tolerance is 1e-9 * max(1, |bound|); all strategies within
    it are returned, lexicographically smallest first.
    """
    scenario = functional.scenario
    total = _check_budget(scenario, budget)
    assignments = _party_assignments(scenario)
    form = functional.form

    def reduce_chunk(start: int) -> tuple[float, np.ndarray, np.ndarray]:
        stop = min(start + chunk, total)
        totals = _chunk_values(functional, scenario, assignments, start, stop)
        values = totals.real if form is FunctionalForm.REAL_PART else np.abs(totals)
        top = values.max()
        keep = values >= top - 2 * SATURATION_TOL * max(1.0, abs(top))
        return top, np.nonzero(keep)[0] + start, values[keep]

    partials = [reduce_chunk(start) for start in range(0, total, chunk)]

    bound = max(top for top, _, _ in partials)
    tol = SATURATION_TOL * max(1.0, abs(bound))
    saturating: list[int] = []
    for _, indices, values in partials:
        saturating.extend(int(i) for i, v in zip(indices, values) if v >= bound - tol)
    saturating.sort()
    argmax = tuple(DeterministicStrategy.from_flat_index(scenario, i) for i in saturating)
    return ClassicalBoundResult(float(bound), argmax, total)


def correlation_vertex_matrix(
    scenario: Scenario, mask, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """Row i: the correlation tensor of strategy i, flattened canonically."""
    total = _check_budget(scenario, budget)
    mask = as_mask(scenario, mask)
    assignments = _party_assignments(scenario)
    n = scenario.parties
    per_party = len(assignments)
    xs = settings_tuples(scenario)
    matrix = np.empty((total, len(xs)), dtype=complex)
    for col, x in enumerate(xs):
        factors = [
            _party_factor(scenario, assignments, x[p], mask.entries[p]) for p in range(n)
        ]
        matrix[:, col] = reduce(np.multiply.outer, factors).ravel()
    return matrix


def _embed_real(rows: np.ndarray) -> np.ndarray:
    return np.hstack([rows.real, rows.imag])


def _affine_rank(points: np.ndarray) -> int:
    if len(points) <= 1:
        return 0
    diffs = points[1:] - points[0]
    sv = np.linalg.svd(diffs, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def _affine_dimension(rows: np.ndarray) -> int:
    """Affine rank of the distinct real-embedded rows, rounded to 12 digits."""
    points = np.ascontiguousarray(np.round(_embed_real(rows), 12) + 0.0)  # -0.0 -> 0.0
    # one 1-D unique over whole rows as opaque bytes, far cheaper than unique(axis=0)
    keys = points.view(np.dtype((np.void, points.itemsize * points.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    return _affine_rank(points[np.sort(first)])


def polytope_dimension(scenario: Scenario, mask, budget: int = DEFAULT_BUDGET) -> int:
    """Affine dimension of the deterministic correlation tensors, real-embedded."""
    return _affine_dimension(correlation_vertex_matrix(scenario, mask, budget))


def facet_check(functional: BellFunctional, budget: int = DEFAULT_BUDGET) -> FacetReport:
    """Certify whether a real-part inequality supports a facet of the polytope.

    The saturating vertices are those within 1e-9 of the bound; the inequality
    is a facet precisely when their affine rank is one less than the polytope's
    affine dimension.
    """
    if functional.form is not FunctionalForm.REAL_PART:
        raise UnsupportedFormError(
            "facet certification applies to real-part functionals; linearize the modulus first"
        )
    if functional.mask is None:
        raise UnsupportedFormError(
            "facet certification needs a single-mask functional; "
            "per-term masks do not embed in one correlation polytope"
        )
    scenario = functional.scenario
    vertices = correlation_vertex_matrix(scenario, functional.mask, budget)
    coeff = functional.coefficients.ravel()
    values = (vertices @ coeff).real
    computed = float(values.max())
    reference = functional.cached_bound if functional.cached_bound is not None else computed
    is_valid = bool(computed <= reference + SATURATION_TOL)
    saturating = vertices[values >= reference - SATURATION_TOL]
    rank = _affine_dimension(saturating)
    dim = _affine_dimension(vertices)
    return FacetReport(
        bound=reference,
        polytope_dimension=dim,
        saturating_count=len(saturating),
        saturating_rank=rank,
        is_facet=bool(rank == dim - 1),
        is_valid=is_valid,
    )


def linearize_modulus(functional: BellFunctional, phase: float) -> BellFunctional:
    """Re[e^(i*phase) sum c_x E_x]: one linear slice of a modulus functional.

    The supremum over the phase recovers the modulus value pointwise.
    """
    if functional.form is not FunctionalForm.MODULUS:
        raise UnsupportedFormError("only modulus functionals can be linearized")
    rotation = np.exp(1j * phase)
    return BellFunctional.from_terms(
        functional.scenario,
        [(x, r, w * rotation) for x, r, w in functional.terms()],
        FunctionalForm.REAL_PART,
        provenance=functional.provenance,
    )
