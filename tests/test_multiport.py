from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellkit import Scenario, root_of_unity
from bellkit.core import ConjugationMask, settings_tuples
from bellkit.multiport import (
    QuantumSetup,
    born_correlation_tensor,
    born_probabilities,
    fourier_multiport,
    probability_table,
    quantum_correlation_tensor,
)

SCENARIOS = [Scenario(2, 2, 3), Scenario(2, 3, 3), Scenario(3, 2, 3), Scenario(2, 2, 5)]


def random_setup(scenario, rng):
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    amps = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
    phases = rng.uniform(0, 2 * np.pi, size=(n, k, d))
    return QuantumSetup.normalized(scenario, amps, phases)


def test_fourier_multiport_d3_matrix():
    a = root_of_unity(3, 1)
    expected = np.array([[1, 1, 1], [1, a, a**2], [1, a**2, a]]) / np.sqrt(3)
    assert np.allclose(fourier_multiport(3).matrix, expected, atol=1e-15)


def test_fourier_multiport_d2_and_flat_modulus():
    assert np.allclose(fourier_multiport(2).matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    for d in (2, 3, 5, 7):
        mat = fourier_multiport(d).matrix
        assert np.allclose(np.abs(mat), d**-0.5, atol=1e-14)
        assert np.allclose(mat @ mat.conj().T, np.eye(d), atol=1e-12)


def test_point_mass_state_is_flat():
    sc = Scenario(2, 2, 3)
    amps = np.zeros((3, 3))
    amps[0, 0] = 1.0
    setup = QuantumSetup.normalized(sc, amps, np.zeros((2, 2, 3)))
    assert np.allclose(born_probabilities(setup, (0, 1)), 1 / 9, atol=1e-14)


def test_maximally_entangled_qutrits_anticorrelate():
    sc = Scenario(2, 1, 3)
    amps = np.eye(3) / np.sqrt(3)
    setup = QuantumSetup.normalized(sc, amps, np.zeros((2, 1, 3)))
    probs = born_probabilities(setup, (0, 0))
    for a in range(3):
        for b in range(3):
            expected = (1 / 3) if (a + b) % 3 == 0 else 0.0
            assert probs[a, b] == pytest.approx(expected, abs=1e-12)


def test_product_state_probabilities_factorize():
    sc = Scenario(2, 2, 3)
    rng = np.random.default_rng(2)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    phases = rng.uniform(0, 2 * np.pi, size=(2, 2, 3))
    setup = QuantumSetup.normalized(sc, np.multiply.outer(u, v), phases)

    for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        joint = born_probabilities(setup, x)
        pa, pb = joint.sum(axis=1), joint.sum(axis=0)
        assert np.allclose(joint, np.multiply.outer(pa, pb), atol=1e-12)


def test_born_normalization_on_random_setups():
    rng = np.random.default_rng(8)
    for scenario in SCENARIOS:
        for _ in range(5):
            setup = random_setup(scenario, rng)
            for x in [(0,) * scenario.parties, (scenario.settings - 1,) * scenario.parties]:
                assert born_probabilities(setup, x).sum() == pytest.approx(1.0, abs=1e-10)


def test_closed_form_matches_born_path():
    rng = np.random.default_rng(13)
    for scenario in SCENARIOS:
        d = scenario.outcomes
        masks = [(1,) * scenario.parties, (d - 1,) * scenario.parties]
        if scenario.parties == 2:
            masks.append((1, d - 1))
        for _ in range(4):
            setup = random_setup(scenario, rng)
            for mask in masks:
                fast = quantum_correlation_tensor(setup, mask)
                oracle = born_correlation_tensor(setup, mask)
                assert np.allclose(fast.values, oracle.values, atol=1e-10)


def test_zero_mask_gives_unit_correlations():
    rng = np.random.default_rng(4)
    setup = random_setup(Scenario(2, 2, 3), rng)
    tensor = quantum_correlation_tensor(setup, (0, 0))
    assert np.allclose(tensor.values, 1.0, atol=1e-12)


def test_point_mass_amplitudes_have_zero_shift_overlap():
    sc = Scenario(2, 2, 3)
    amps = np.zeros((3, 3))
    amps[0, 0] = 1.0
    rng = np.random.default_rng(6)
    setup = QuantumSetup.normalized(sc, amps, rng.uniform(0, 2 * np.pi, (2, 2, 3)))
    tensor = quantum_correlation_tensor(setup, (1, 1))
    assert np.allclose(tensor.values, 0.0, atol=1e-14)


def test_phase_gauge_invariance():
    sc = Scenario(2, 2, 3)
    rng = np.random.default_rng(9)
    amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    phases = rng.uniform(0, 2 * np.pi, size=(2, 2, 3))
    setup = QuantumSetup.normalized(sc, amps, phases)
    shifted = phases.copy()
    shifted[0, 1] += 0.7  # constant offset on one setting of one party
    other = QuantumSetup.normalized(sc, amps, shifted)
    for x in [(0, 0), (1, 0), (1, 1)]:
        assert np.allclose(
            born_probabilities(setup, x), born_probabilities(other, x), atol=1e-12
        )


def test_conjugated_mask_conjugates_quantum_correlations():
    rng = np.random.default_rng(21)
    setup = random_setup(Scenario(2, 2, 3), rng)
    mask = ConjugationMask((1, 2), 3)
    lhs = quantum_correlation_tensor(setup, mask).values.conj()
    rhs = quantum_correlation_tensor(setup, mask.conjugated()).values
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_probability_table_roundtrip():
    rng = np.random.default_rng(17)
    setup = random_setup(Scenario(2, 2, 3), rng)
    table = probability_table(setup)
    for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert np.allclose(table.slice_for(x), born_probabilities(setup, x), atol=1e-15)


def test_setup_validation():
    sc = Scenario(2, 2, 3)
    good = np.zeros((3, 3))
    good[0, 0] = 1.0
    with pytest.raises(ValueError):
        QuantumSetup(sc, 2 * good, np.zeros((2, 2, 3)))
    bad_phases = np.zeros((2, 2, 3))
    bad_phases[0, 0, 0] = 0.3
    with pytest.raises(ValueError):
        QuantumSetup(sc, good, bad_phases)
    fixed = QuantumSetup.normalized(sc, good, bad_phases)
    assert fixed.phases[0, 0, 0] == 0.0


@pytest.mark.parametrize("x", [(-1, 0), (0.5, 0), (2, 0), (0, 3), (True, 0), ("0", 0)])
def test_born_probabilities_rejects_bad_settings(x):
    setup = random_setup(Scenario(2, 2, 3), np.random.default_rng(5))
    with pytest.raises(ValueError, match="settings"):
        born_probabilities(setup, x)


def test_born_probabilities_accepts_numpy_settings():
    setup = random_setup(Scenario(2, 2, 3), np.random.default_rng(5))
    x = np.array([1, 0])
    assert np.array_equal(born_probabilities(setup, x), born_probabilities(setup, (1, 0)))


# The per-settings loops the batched kernels replaced, kept as the oracle.

def loop_born_probabilities(setup, x):
    d = setup.scenario.outcomes
    psi = setup.amplitudes
    for p, xp in enumerate(x):
        transfer = fourier_multiport(d).matrix * np.exp(1j * setup.phases[p, xp])[None, :]
        psi = np.moveaxis(np.tensordot(transfer, psi, axes=([1], [p])), 0, p)
    return np.abs(psi) ** 2


def loop_quantum_correlations(setup, mask):
    scenario = setup.scenario
    shifted = setup.amplitudes
    for p, r in enumerate(mask):
        shifted = np.roll(shifted, -r, axis=p)
    values = np.empty(scenario.settings_shape(), dtype=complex)
    for x in settings_tuples(scenario):
        factors = []
        for p, r in enumerate(mask):
            e = np.exp(1j * setup.phases[p, x[p]])
            factors.append(e * np.roll(e, -r).conj())
        weight = reduce(np.multiply.outer, factors)
        values[x] = np.sum(weight * setup.amplitudes * shifted.conj())
    return values


@st.composite
def setups_and_masks(draw):
    n, k, d = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = tuple(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    return random_setup(Scenario(n, k, d), rng), mask


@settings(max_examples=40, deadline=None)
@given(case=setups_and_masks())
def test_batched_kernels_match_per_settings_loops(case):
    setup, mask = case
    n = setup.scenario.parties
    table = probability_table(setup)
    for x in settings_tuples(setup.scenario):
        oracle = loop_born_probabilities(setup, x)
        assert np.abs(table.slice_for(x) - oracle).max() <= 1e-13
        # one setting per party takes another BLAS path: equal up to round-off
        assert np.abs(born_probabilities(setup, x) - table.slice_for(x)).max() <= 1e-14
    fast = quantum_correlation_tensor(setup, mask).values
    assert fast.shape == (setup.scenario.settings,) * n
    assert np.abs(fast - loop_quantum_correlations(setup, mask)).max() <= 1e-13
