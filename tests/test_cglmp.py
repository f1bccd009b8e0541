from dataclasses import replace

import numpy as np
import pytest

from bellkit import (
    BellFunctional,
    DeterministicStrategy,
    FunctionalForm,
    Pairing,
    Scenario,
    build_functional,
    classical_bound,
    enumerate_strategies,
    evaluate_functional,
    k2_conjugate_basis,
    point_mass_table,
    root_of_unity,
    strategy_correlation_tensor,
)
from bellkit.bases import apply_form
from bellkit.core import ProbabilityTable, correlation_stack
from bellkit.lhv import strategy_functional_value
from bellkit.cglmp import (
    CGLMP_SCENARIO,
    CGLMP_MINUS,
    CGLMP_PLUS,
    I323_SCENARIO,
    PROBABILITY_TO_CORRELATION_SCALE,
    bell_numbers_identity_check,
    cglmp_conjugate_expansion_g,
    cglmp_correlation_functional,
    cglmp_probability_value,
    cglmp_starred_functional,
    equality_probability,
    i323_functional,
    three_party_tight_functional,
)
from bellkit.multiport import QuantumSetup
from bellkit.optimize import quantum_functional_value

ALPHA = root_of_unity(3, 1)


def zero_strategy(scenario):
    return DeterministicStrategy(
        scenario, np.zeros((scenario.parties, scenario.settings), dtype=int)
    )


def random_setup(scenario, rng):
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    amps = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
    phases = rng.uniform(0, 2 * np.pi, size=(n, k, d))
    return QuantumSetup.normalized(scenario, amps, phases)


def test_probability_form_examples():
    assert cglmp_probability_value(point_mass_table(zero_strategy(CGLMP_SCENARIO))) == 2.0
    uniform = ProbabilityTable(CGLMP_SCENARIO, np.full((3, 3, 2, 2), 1 / 9))
    assert cglmp_probability_value(uniform) == pytest.approx(0.0, abs=1e-15)
    best = max(
        cglmp_probability_value(point_mass_table(s))
        for s in enumerate_strategies(CGLMP_SCENARIO)
    )
    assert best == pytest.approx(2.0, abs=1e-12)


def test_probability_form_wrong_scenario():
    table = ProbabilityTable(Scenario(2, 2, 2), np.full((2, 2, 2, 2), 1 / 4))
    with pytest.raises(ValueError):
        cglmp_probability_value(table)


def test_correlation_form_examples():
    tensor = strategy_correlation_tensor(zero_strategy(CGLMP_SCENARIO), (1, 2))
    functional = cglmp_correlation_functional()
    assert evaluate_functional(functional, tensor) == pytest.approx(3.0, abs=1e-12)
    assert classical_bound(functional).bound == pytest.approx(3.0, abs=1e-10)


def test_conjugate_basis_expansion_matches_correlation_form():
    functional = build_functional(
        CGLMP_SCENARIO,
        k2_conjugate_basis(3),
        cglmp_conjugate_expansion_g(),
        FunctionalForm.REAL_PART,
        Pairing.BILINEAR,
    )
    assert np.allclose(
        3 * functional.coefficients, cglmp_correlation_functional().coefficients, atol=1e-12
    )


def test_probability_correlation_affine_relation_exhaustive():
    functional = cglmp_correlation_functional()
    for s in enumerate_strategies(CGLMP_SCENARIO):
        prob = cglmp_probability_value(point_mass_table(s))
        corr = evaluate_functional(functional, strategy_correlation_tensor(s, (1, 2)))
        assert prob == pytest.approx(PROBABILITY_TO_CORRELATION_SCALE * corr, abs=1e-12)


def test_starred_rewriting_matches_plain_form():
    plain = cglmp_correlation_functional()
    starred = cglmp_starred_functional()
    for s in enumerate_strategies(CGLMP_SCENARIO):
        assert strategy_functional_value(starred, s) == pytest.approx(
            strategy_functional_value(plain, s), abs=1e-10
        )
    rng = np.random.default_rng(3)
    for _ in range(10):
        setup = random_setup(CGLMP_SCENARIO, rng)
        assert quantum_functional_value(starred, setup) == pytest.approx(
            quantum_functional_value(plain, setup), abs=1e-10
        )


def test_bell_numbers_identities_exhaustive():
    assert all(bell_numbers_identity_check(s) for s in enumerate_strategies(CGLMP_SCENARIO))
    assert all(bell_numbers_identity_check(s) for s in enumerate_strategies(I323_SCENARIO))


def test_bell_numbers_identity_needs_the_conjugation():
    # without conjugating the cross term, the product identity fails somewhere
    def naive_identity(s):
        a = s.assignments
        lhs = (a[0, 0] + a[1, 0]) + (a[0, 1] + a[1, 0]) + (a[0, 1] + a[1, 1])
        rhs = a[0, 0] + a[1, 1]
        return (lhs - rhs) % 3 == 0

    assert not all(naive_identity(s) for s in enumerate_strategies(CGLMP_SCENARIO))


def test_i323_bound_and_dispatch():
    functional = i323_functional()
    result = classical_bound(functional)
    assert result.bound == pytest.approx(3.0, abs=1e-10)
    assert result.examined == 729

    strategy = zero_strategy(I323_SCENARIO)
    assert strategy_functional_value(functional, strategy) == pytest.approx(3.0, abs=1e-12)
    table = point_mass_table(strategy)
    total = functional.contract(lambda masks: correlation_stack(table, masks))
    assert apply_form(functional.form, total) == pytest.approx(3.0, abs=1e-12)
    rng = np.random.default_rng(5)
    setup = random_setup(I323_SCENARIO, rng)
    born = quantum_functional_value(functional, setup, path="born")
    assert born == pytest.approx(quantum_functional_value(functional, setup, path="fast"),
                                 abs=1e-12)


def test_masked_functional_validation():
    with pytest.raises(ValueError):
        BellFunctional(I323_SCENARIO, ())
    with pytest.raises(ValueError):
        BellFunctional(I323_SCENARIO, [((0, 0), (1, 1), 1.0)])
    with pytest.raises(ValueError):
        BellFunctional(I323_SCENARIO, [((0, 0, 5), (1, 1, 1), 1.0)])


def test_i323_term_list_is_kept_in_order():
    w1 = 1 - ALPHA
    assert i323_functional().terms() == [
        ((0, 1, 1), (1, 2, 1), w1),
        ((1, 0, 1), (2, 2, 2), ALPHA**2 * w1),
        ((1, 1, 0), (1, 1, 1), w1),
        ((0, 0, 0), (1, 2, 1), 1 - ALPHA**2),
    ]
    assert i323_functional().mask is None
    assert i323_functional().coefficients is None


def test_replace_keeps_the_terms():
    starred = cglmp_starred_functional()
    for functional in (cglmp_correlation_functional(), three_party_tight_functional("g2"),
                       starred, i323_functional()):
        certified = replace(functional, cached_bound=7.0)
        assert certified.cached_bound == 7.0
        assert certified.terms() == functional.terms()
        assert certified.mask == functional.mask
    # a term list sharing one mask gets that mask and a dense tensor
    single = BellFunctional(CGLMP_SCENARIO, [((1, 1), (1, 2), 2.0), ((0, 0), (1, 2), 1.0)])
    assert single.terms() == [((1, 1), (1, 2), 2.0), ((0, 0), (1, 2), 1.0)]
    assert single.mask.entries == (1, 2)
    assert np.array_equal(single.coefficients, [[1.0, 0.0], [0.0, 2.0]])
    assert replace(single, cached_bound=1.0).terms() == single.terms()
    with pytest.raises(TypeError):
        replace(single, coefficients=np.ones((2, 2)))


def test_cglmp_terms_fields():
    table = point_mass_table(zero_strategy(CGLMP_SCENARIO))
    assert [equality_probability(table, *key) for key in CGLMP_PLUS] == [1.0, 0.0, 1.0, 1.0]
    assert [equality_probability(table, *key) for key in CGLMP_MINUS] == [0.0, 1.0, 0.0, 0.0]
    assert cglmp_probability_value(table) == 2.0


def test_tight_family_functionals_build():
    for name in ("g1", "g2", "g3"):
        functional = three_party_tight_functional(name)
        assert functional.coefficients.shape == (2, 2, 2)
        assert np.abs(functional.coefficients).max() > 0.1
        assert functional.form is FunctionalForm.REAL_PART
