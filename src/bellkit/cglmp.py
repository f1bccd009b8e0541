"""CGLMP constructions for qutrits and their three-party generalization.

The probability form of the CGLMP inequality aggregates coincidence
probabilities with outcome offsets; rewriting those aggregates through the
qutrit Fourier components E_xy = <alpha^(a-b)> turns it into a correlation
inequality whose coefficients expand in the two-setting conjugate basis.  A
second, independent generalization to three parties rests on the product
identity obeyed by root-of-unity value assignments: three of the four
deterministic correlations fix the fourth.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import ConjugationMask, DeterministicStrategy, ProbabilityTable, Scenario, root_of_unity
from .bases import BellFunctional, FunctionalForm, GTable, build_functional, k2_conjugate_basis
from .lhv import facet_check
from .optimize import OptimizationConfig, maximize_violation

__all__ = [
    "CGLMP_SCENARIO",
    "I323_SCENARIO",
    "PROBABILITY_TO_CORRELATION_SCALE",
    "cglmp_probability_value",
    "equality_probability",
    "cglmp_correlation_functional",
    "cglmp_conjugate_expansion_g",
    "cglmp_starred_functional",
    "bell_numbers_identity_check",
    "i323_functional",
    "TIGHT_323_G_TABLES",
    "three_party_tight_functional",
    "three_party_tight_family",
]

CGLMP_SCENARIO = Scenario(2, 2, 3)
I323_SCENARIO = Scenario(3, 2, 3)

ALPHA = root_of_unity(3, 1)

# The probability form equals this multiple of the correlation form on every
# probability table; derived once by expanding the aggregates through the
# Fourier components and frozen here (regression-tested exhaustively).
PROBABILITY_TO_CORRELATION_SCALE = 2.0 / 3.0


# The coincidence aggregates of the probability form as (x, y, offset) keys
# of equality_probability, 0-based: the value is the plus group minus the
# minus group, each summed in this order.
CGLMP_PLUS = ((0, 0, 0), (1, 0, -1), (1, 1, 0), (0, 1, 0))
CGLMP_MINUS = ((0, 0, -1), (1, 0, 0), (1, 1, -1), (0, 1, 1))


def equality_probability(table: ProbabilityTable, x: int, y: int, offset: int) -> float:
    """P(a = b + offset mod 3 | x, y) for 0-based settings."""
    values = table.slice_for((x, y))
    total = 0.0
    for b in range(3):
        total += values[(b + offset) % 3, b]
    return float(total)


def cglmp_probability_value(table: ProbabilityTable) -> float:
    """The probability-form combination; at most 2 for every LHV model."""
    if table.scenario != CGLMP_SCENARIO:
        raise ValueError("CGLMP aggregates need the two-setting qutrit scenario")
    plus, minus = (sum(equality_probability(table, *key) for key in group)
                   for group in (CGLMP_PLUS, CGLMP_MINUS))
    return plus - minus


CGLMP_MASK = (1, 2)  # a enters plainly, b conjugated: <alpha^(a-b)>


def cglmp_correlation_functional() -> BellFunctional:
    """The correlation form: Re of the coefficient pairing, bound 3."""
    return BellFunctional.from_coefficients(
        CGLMP_SCENARIO,
        np.array([[1 - ALPHA, 1 - ALPHA**2], [ALPHA - 1, 1 - ALPHA]], dtype=complex),
        FunctionalForm.REAL_PART,
        ConjugationMask(CGLMP_MASK, 3),
        cached_bound=3.0,
    )


def cglmp_conjugate_expansion_g() -> GTable:
    """Exponent table whose conjugate-basis expansion yields the correlation form.

    With the dual order v_0 = (-a,1)/(1-a), v_1 = (1,-1)/(1-a) and bilinear
    probes, the table is the party-swapped image of the usual presentation;
    three times the expansion reproduces the coefficients exactly.
    """
    return GTable(CGLMP_SCENARIO, np.array([[0, 1], [0, 2]], dtype=np.int64))


def cglmp_starred_functional() -> BellFunctional:
    """The rewriting that conjugates the cross term: same values, bound 3.

    Identical to the correlation form because the conjugated term's weight is
    the conjugate-rotated coefficient.
    """
    return BellFunctional(
        CGLMP_SCENARIO,
        (
            ((0, 0), CGLMP_MASK, 1 - ALPHA),
            ((1, 0), (2, 1), ALPHA**2 * (1 - ALPHA)),
            ((1, 1), CGLMP_MASK, 1 - ALPHA),
            ((0, 1), CGLMP_MASK, 1 - ALPHA**2),
        ),
        FunctionalForm.REAL_PART,
        cached_bound=3.0,
    )


def bell_numbers_identity_check(strategy: DeterministicStrategy) -> bool:
    """Exact product identity for root-of-unity value assignments.

    Two parties: e11 e21* e22 = e12.  Three parties: the starred triple
    product reproduces a1 b1* c1.  Verified in integer arithmetic mod 3.
    """
    scenario = strategy.scenario
    if scenario.outcomes != 3 or scenario.settings != 2:
        raise ValueError("the identity is defined for two-setting qutrit strategies")
    a = strategy.assignments
    if scenario.parties == 2:
        lhs = (a[0, 0] + a[1, 0]) - (a[0, 1] + a[1, 0]) + (a[0, 1] + a[1, 1])
        rhs = a[0, 0] + a[1, 1]
        return (lhs - rhs) % 3 == 0
    if scenario.parties == 3:
        lhs = (
            (a[0, 0] - a[1, 1] + a[2, 1])
            + (-a[0, 1] - a[1, 0] - a[2, 1])
            + (a[0, 1] + a[1, 1] + a[2, 0])
        )
        rhs = a[0, 0] - a[1, 0] + a[2, 0]
        return (lhs - rhs) % 3 == 0
    raise ValueError("the identity is defined for two or three parties")


def i323_functional() -> BellFunctional:
    """Three-party CGLMP generalization; a star conjugates that party's factor."""
    w1 = 1 - ALPHA
    return BellFunctional(
        I323_SCENARIO,
        (
            ((0, 1, 1), (1, 2, 1), w1),
            ((1, 0, 1), (2, 2, 2), ALPHA**2 * w1),
            ((1, 1, 0), (1, 1, 1), w1),
            ((0, 0, 0), (1, 2, 1), 1 - ALPHA**2),
        ),
        FunctionalForm.REAL_PART,
        cached_bound=3.0,
    )


# Exponent tables for the tight three-party conjugate-basis family, 0-based,
# exposed in listing order as g1, g2, g3.
TIGHT_323_G_TABLES: dict[str, np.ndarray] = {
    "g1": np.array(
        [[[0, 0], [0, 0]], [[0, 1], [0, 0]]], dtype=np.int64
    ),  # delta(k,1) delta(l,0) delta(m,1)
    "g2": np.array(
        [[[0, 0], [1, 0]], [[2, 2], [2, 0]]], dtype=np.int64
    ),  # delta(k,0)d(l,1)d(m,0) + 2 d(k,1)d(l,0) + 2 d(k,1)d(l,1)d(m,0)
    "g3": np.array(
        [[[0, 0], [0, 0]], [[0, 0], [1, 1]]], dtype=np.int64
    ),  # delta(k,1) delta(l,1)
}


def three_party_tight_functional(g) -> BellFunctional:
    """Conjugate-basis functional on three qutrits with two settings each."""
    if isinstance(g, str):
        g = TIGHT_323_G_TABLES[g]
    table = GTable(I323_SCENARIO, np.asarray(g, dtype=np.int64))
    return build_functional(
        I323_SCENARIO, k2_conjugate_basis(3), table, FunctionalForm.REAL_PART
    )


def three_party_tight_family(g, config: OptimizationConfig | None = None):
    """Build one family member, certify tightness, and maximize its violation."""
    functional = three_party_tight_functional(g)
    report = facet_check(functional)
    certified = replace(functional, cached_bound=report.bound)
    result = maximize_violation(certified, config, beta=report.bound)
    return certified, report, result
