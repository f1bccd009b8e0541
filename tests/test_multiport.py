from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellkit import FunctionalForm, Scenario, core, product_g_functional, root_of_unity
from bellkit.bases import apply_form
from bellkit.cglmp import i323_functional
from bellkit.core import (ConjugationMask, _mask_weight_tensor, check_correlations,
                          correlation_stack, settings_tuples)
from bellkit.multiport import (
    QuantumSetup,
    _final_amplitudes,
    _shift_plan,
    born_correlation_tensor,
    born_probabilities,
    fourier_multiport,
    probability_table,
    quantum_correlation_stack,
    quantum_correlation_tensor,
)
from bellkit.optimize import quantum_functional_value

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
    for bad in [np.nan, np.inf, complex(np.nan, 0)]:
        amps = good.astype(complex)
        amps[1, 2] = bad
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            QuantumSetup(sc, amps, np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            QuantumSetup.normalized(sc, amps, np.zeros((2, 2, 3)))
    for port in (0, 2):
        for bad in [np.nan, np.inf, -np.inf]:
            phases = np.zeros((2, 2, 3))
            phases[1, 0, port] = bad
            with pytest.raises(ValueError, match="phases must be finite"):
                QuantumSetup(sc, good, phases)
            with pytest.raises(ValueError, match="phases must be finite"):
                QuantumSetup.normalized(sc, good, phases)


@pytest.mark.parametrize("phases", [np.zeros(3), np.zeros((2, 3)), np.array(0.0)],
                         ids=["(3,)", "(2, 3)", "0-d"])
def test_normalized_refuses_misshapen_phases(phases):
    amplitudes = np.ones((3, 3))
    with pytest.raises(ValueError, match=r"expected phase shape \(2, 2, 3\)"):
        QuantumSetup.normalized(Scenario(2, 2, 3), amplitudes, phases)


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


# The per-mask kernels the mask-batched stacks replaced, kept as the oracle.

def per_mask_fast(setup, mask, clip=True):
    shifted = setup.amplitudes
    for p, r in enumerate(mask):
        shifted = np.roll(shifted, -r, axis=p)
    values = setup.amplitudes * shifted.conj()
    for p, r in enumerate(mask):
        e = np.exp(1j * setup.phases[p])
        factor = e * np.roll(e, -r, axis=1).conj()
        values = np.tensordot(values, factor, axes=([0], [1]))
    mags = np.abs(values)
    if clip and np.any(mags > 1.0):
        values = np.where(mags > 1.0, values / mags, values)
    return values


def per_mask_born(table, mask):
    weights = _mask_weight_tensor(table.scenario, ConjugationMask(mask, table.scenario.outcomes))
    n = table.scenario.parties
    return np.tensordot(weights, table.values, axes=(tuple(range(n)), tuple(range(n))))


def per_mask_value(functional, correlations):
    """sum_t w_t E^(r_t)[x_t] with one kernel call per distinct mask, in term order."""
    tensors, total = {}, 0j
    for x, r, w in functional.terms():
        if r not in tensors:
            tensors[r] = correlations(r)
        total += w * complex(tensors[r][x])
    return apply_form(functional.form, total)


@st.composite
def setups_and_mask_lists(draw):
    n, k, d = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = st.lists(st.integers(0, d - 1), min_size=n, max_size=n).map(tuple)
    masks = draw(st.lists(mask, min_size=1, max_size=5, unique=True))
    return random_setup(Scenario(n, k, d), rng), masks


@settings(max_examples=60, deadline=None)
@given(case=setups_and_mask_lists())
def test_mask_stacks_match_per_mask_kernels_bit_for_bit(case):
    setup, masks = case
    table = probability_table(setup)
    fast = quantum_correlation_stack(setup, masks)
    born = correlation_stack(table, masks)
    assert fast.shape == born.shape == (len(masks),) + setup.scenario.settings_shape()
    for m, mask in enumerate(masks):
        assert np.array_equal(fast[m], per_mask_fast(setup, mask))
        assert np.array_equal(born[m], per_mask_born(table, mask))
        assert np.array_equal(quantum_correlation_tensor(setup, mask).values, fast[m])
        assert np.array_equal(born_correlation_tensor(setup, mask).values, born[m])


@pytest.mark.parametrize("case", [
    (Scenario(2, 2, 2), [(1, 1)]),                  # d = 2, all ones: must come out real
    (Scenario(3, 2, 3), [(1, 0, 2), (0, 0, 0)]),    # zero entries drop parties
    (Scenario(2, 3, 4), [(2, 2), (1, 3), (2, 0)]),  # entries sharing a factor with d
])
def test_mask_stack_cases(case):
    scenario, masks = case
    rng = np.random.default_rng(29)
    for _ in range(5):
        setup = random_setup(scenario, rng)
        fast = quantum_correlation_stack(setup, masks)
        born = correlation_stack(probability_table(setup), masks)
        for m, mask in enumerate(masks):
            assert np.array_equal(fast[m], per_mask_fast(setup, mask))
            assert np.allclose(fast[m], born[m], atol=1e-10)
            if all(r == 0 for r in mask):
                assert np.allclose(fast[m], 1.0, atol=1e-12)


@pytest.mark.parametrize("name, functional", [
    ("i323", i323_functional()),  # three masks
    ("product-g (3,2,3)", product_g_functional(3, 3, FunctionalForm.MODULUS)),
])
def test_functional_value_takes_one_stack_per_path(name, functional):
    assert len(functional.masks()) == (3 if name == "i323" else 1)
    rng = np.random.default_rng(41)
    for _ in range(5):
        setup = random_setup(functional.scenario, rng)
        table = probability_table(setup)
        born = per_mask_value(functional, lambda r: per_mask_born(table, r))
        fast = per_mask_value(functional, lambda r: per_mask_fast(setup, r))
        assert quantum_functional_value(functional, setup, path="born") == born
        assert quantum_functional_value(functional, setup, path="fast") == fast


def test_fast_path_clips_round_off_and_refuses_more():
    # the zero mask gives sum |s|^2 = 1 up to round-off: find setups a hair above 1
    rng = np.random.default_rng(3)
    clipped = 0
    for _ in range(200):
        setup = random_setup(Scenario(3, 2, 3), rng)
        masks = [(0, 0, 0), (1, 1, 1)]
        raw = per_mask_fast(setup, masks[0], clip=False)
        stack = quantum_correlation_stack(setup, masks)
        assert np.abs(stack).max() <= 1.0
        assert np.array_equal(stack[0], per_mask_fast(setup, masks[0]))
        clipped += bool(np.abs(raw).max() > 1.0)
    assert clipped > 0
    # a state 1e-3 off unit norm is beyond round-off, whichever mask shows it
    setup = random_setup(Scenario(2, 2, 3), rng)
    object.__setattr__(setup, "amplitudes", setup.amplitudes * (1 + 1e-3))
    with pytest.raises(ValueError, match="beyond round-off"):
        quantum_correlation_stack(setup, [(1, 2), (0, 0)])


def test_stack_checks_apply_to_every_mask():
    scenario = Scenario(2, 2, 2)
    masks = [ConjugationMask((1, 0), 2), ConjugationMask((1, 1), 2)]
    values = np.zeros((2, 2, 2), dtype=complex)
    values[0, 0, 0] = 1j  # an imaginary part is allowed under a mask that is not plain
    check_correlations(scenario, masks, values)
    values[1, 1, 1] = 1e-9j
    with pytest.raises(ValueError, match="must be real"):
        check_correlations(scenario, masks, values)
    values[1, 1, 1] = 0
    values[0, 1, 0] = 1 + 1e-9
    with pytest.raises(ValueError, match="exceeds 1"):
        check_correlations(scenario, masks, values)


def test_stacks_refuse_a_mask_of_another_scenario():
    setup = random_setup(Scenario(2, 2, 3), np.random.default_rng(2))
    for stack in (lambda masks: quantum_correlation_stack(setup, masks),
                  lambda masks: correlation_stack(probability_table(setup), masks)):
        with pytest.raises(ValueError, match="entries"):
            stack([(1, 1), (1, 1, 1)])
        with pytest.raises(ValueError, match="mask entries"):
            stack([(1, 3)])


def test_functional_value_refuses_foreign_setups_and_unknown_paths():
    functional = i323_functional()
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="different scenario"):
        quantum_functional_value(functional, random_setup(Scenario(3, 2, 4), rng))
    with pytest.raises(ValueError, match="unknown path"):
        quantum_functional_value(functional, random_setup(functional.scenario, rng), path="slow")


def tensordot_final_amplitudes(setup, phases):
    """The per-party tensordot the one-matmul contraction replaced, kept as the oracle."""
    fourier = fourier_multiport(setup.scenario.outcomes).matrix
    psi = setup.amplitudes
    for p, shifters in enumerate(np.exp(1j * phases)):
        transfer = fourier[None] * shifters[:, None, :]  # (k', d out, d in)
        # the output port axis moves back to p, the settings axis stays last
        psi = np.moveaxis(np.tensordot(psi, transfer, axes=([p], [2])), -1, p)
    return psi


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_final_amplitudes_match_per_party_tensordot(n):
    rng = np.random.default_rng(100 + n)
    for k in (1, 2, 3):
        for d in range(2, 6):
            setup = random_setup(Scenario(n, k, d), rng)
            found = _final_amplitudes(setup, setup.phases)
            assert found.shape == (d,) * n + (k,) * n
            assert np.abs(found - tensordot_final_amplitudes(setup, setup.phases)).max() <= 1e-15
            # one setting per party, as born_probabilities passes them
            x = tuple(int(v) for v in rng.integers(0, k, n))
            single = setup.phases[np.arange(n), np.asarray(x)][:, None, :]
            found = _final_amplitudes(setup, single)
            assert found.shape == (d,) * n + (1,) * n
            assert np.abs(found - tensordot_final_amplitudes(setup, single)).max() <= 1e-15


def test_shift_plan_is_cached_read_only():
    scenario = Scenario(3, 2, 3)
    entries = ((1, 0, 2), (0, 0, 0))
    shifted, displaced = _shift_plan(scenario, entries)
    assert _shift_plan(scenario, entries)[0] is shifted
    assert shifted.shape == (2, 3, 3, 3) and displaced.shape == (3, 2, 2, 3)
    for m, mask in enumerate(entries):
        for j in np.ndindex(3, 3, 3):
            moved = tuple((jp + r) % 3 for jp, r in zip(j, mask))
            assert shifted[(m,) + j] == np.ravel_multi_index(moved, (3, 3, 3))
        for p, r in enumerate(mask):
            assert displaced[p, m].tolist() == [[x * 3 + (j + r) % 3 for j in range(3)]
                                                for x in range(2)]
    for arr in (shifted, displaced):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0


def test_evaluation_builds_no_mask_after_the_first_call(monkeypatch):
    functional = i323_functional()
    setup = random_setup(functional.scenario, np.random.default_rng(8))
    for path in ("born", "fast"):
        quantum_functional_value(functional, setup, path=path)
    built = []
    validate = core.ConjugationMask.__post_init__
    monkeypatch.setattr(core.ConjugationMask, "__post_init__",
                        lambda mask: built.append(mask.entries) or validate(mask))
    for path in ("born", "fast"):
        quantum_functional_value(functional, setup, path=path)
    assert built == []
    # a new functional of the same terms validates each of its masks once
    again = i323_functional()
    for path in ("born", "fast", "born"):
        quantum_functional_value(again, setup, path=path)
    assert built == list(functional.masks())
