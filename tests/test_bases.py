import itertools
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellkit import (
    BellFunctional,
    DeterministicStrategy,
    FunctionalForm,
    GTable,
    Pairing,
    Scenario,
    build_functional,
    product_g_functional,
    evaluate_functional,
    fourier_party_basis,
    k2_conjugate_basis,
    root_of_unity,
    settings_tuples,
    strategy_correlation_tensor,
    ww_coefficients,
    wwzb_nonlinear,
)
from bellkit.bases import _probe_matrix
from bellkit.cglmp import cglmp_correlation_functional, i323_functional
from bellkit.core import ConjugationMask, CorrelationTensor, correlation_stack, unit_roots
from bellkit.multiport import QuantumSetup, probability_table, quantum_correlation_stack


def all_strategies(scenario):
    for index in range(scenario.n_strategies):
        yield DeterministicStrategy.from_flat_index(scenario, index)


def test_fourier_basis_d2():
    basis = fourier_party_basis(2)
    assert np.allclose(basis.vectors[0], np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(basis.vectors[1], np.array([1, -1]) / np.sqrt(2))


def test_fourier_basis_orthonormal_and_self_conjugate():
    for d in (2, 3, 5):
        basis = fourier_party_basis(d)
        gram = basis.vectors @ basis.vectors.conj().T
        assert np.allclose(gram, np.eye(d), atol=1e-12)
        assert np.allclose(basis.vectors[0], np.full(d, d**-0.5))
        # conjugating v_h lands on v_(-h mod d)
        for h in range(d):
            assert np.allclose(basis.vectors[h].conj(), basis.vectors[(-h) % d], atol=1e-14)


def test_fourier_parseval():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        basis = fourier_party_basis(d)
        u = rng.normal(size=d) + 1j * rng.normal(size=d)
        coeffs = basis.vectors.conj() @ u
        assert abs(np.sum(np.abs(coeffs) ** 2) - np.linalg.norm(u) ** 2) < 1e-12


def test_k2_conjugate_basis_duality():
    for d in (3, 4, 5, 7, 14):
        basis = k2_conjugate_basis(d)
        pairing = basis.deterministic @ basis.vectors.conj().T
        assert np.allclose(pairing, np.eye(2), atol=1e-12)
        alpha = root_of_unity(d, 1)
        assert np.allclose(basis.deterministic[0], [1, 1])
        assert np.allclose(basis.deterministic[1], [1, alpha ** (d - 1)])
    with pytest.raises(ValueError):
        k2_conjugate_basis(2)


def test_k2_deterministic_vectors_never_orthogonal():
    # bilinear products of root-of-unity pairs cannot vanish for d=3
    d = 3
    alpha = root_of_unity(d, 1)
    for h1, h2, g1, g2 in itertools.product(range(d), repeat=4):
        v = np.array([alpha**h1, alpha**h2])
        w = np.array([alpha**g1, alpha**g2])
        assert abs(np.dot(v, w)) > 1e-12


def test_chsh_coefficients_from_fourier_basis():
    sc = Scenario(2, 2, 2)
    g = GTable.from_function(sc, lambda l, n: l * n)
    functional = build_functional(sc, fourier_party_basis(2), g, FunctionalForm.REAL_PART)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(functional.coefficients, expected, atol=1e-14)
    pr_box = CorrelationTensor(sc, ConjugationMask((1, 1), 2), expected)
    assert abs(evaluate_functional(functional, pr_box) - 4.0) < 1e-12


def test_cglmp_coefficients_from_conjugate_basis():
    # The correlation-form CGLMP coefficients arise from the dual basis with
    # exponents {(0,0):0,(0,1):1,(1,0):0,(1,1):2} under bilinear pairing; the
    # opposite index orientation gives the party-swapped functional.
    sc = Scenario(2, 2, 3)
    a = root_of_unity(3, 1)
    target = {(0, 0): 1 - a, (0, 1): 1 - a**2, (1, 0): a - 1, (1, 1): 1 - a}
    g = GTable(sc, np.array([[0, 1], [0, 2]]))
    functional = build_functional(sc, k2_conjugate_basis(3), g, FunctionalForm.REAL_PART)
    for x, value in target.items():
        assert abs(3 * functional.coefficients[x] - value) < 1e-12

    swapped = GTable(sc, np.array([[0, 0], [1, 2]]))
    party_swapped = build_functional(sc, k2_conjugate_basis(3), swapped, FunctionalForm.REAL_PART)
    for (x1, x2), value in target.items():
        assert abs(3 * party_swapped.coefficients[(x2, x1)] - value) < 1e-12


def test_constant_g_factorizes():
    sc = Scenario(2, 3, 3)
    g = GTable(sc, np.zeros((3, 3), dtype=int))
    functional = build_functional(sc, fourier_party_basis(3), g, FunctionalForm.REAL_PART)
    # rank-one coefficient tensor
    mat = functional.coefficients.reshape(3, 3)
    assert np.linalg.matrix_rank(mat, tol=1e-10) == 1


def test_ww_coefficients_examples():
    q = ww_coefficients({(0,): 1, (1,): 1})
    assert np.allclose(q, [1.0, 0.0])

    f = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}
    q = ww_coefficients(f)
    assert np.allclose(q, np.array([[1, 1], [1, -1]]) / 2)

    # brute-force oracle over the r-tuples
    for x in itertools.product(range(2), repeat=2):
        expected = sum(
            f[r] * (-1) ** (r[0] * x[0] + r[1] * x[1]) for r in itertools.product(range(2), repeat=2)
        ) / 4
        assert abs(q[x] - expected) < 1e-15

    assert len(list(itertools.product([1, -1], repeat=4))) == 16


def test_ww_requires_sign_values():
    with pytest.raises(ValueError):
        ww_coefficients({(0,): 1, (1,): 0})


@pytest.mark.parametrize("f", [
    {(0, 1): 1, (1, 0): 1, (1, 1): 1},  # (0, 0) missing
    {(0, 0): 1, (0, 1): 1, (1,): -1},  # a short key
    {},
    {(0, 0): 1, (0, 1): 1, (1, 0): 1, (2, 0): 1},  # an entry outside {0, 1}
], ids=["missing-key", "short-key", "empty", "entry-outside-0-1"])
def test_ww_dict_must_cover_the_cube_exactly(f):
    with pytest.raises(ValueError, match="keyed by exactly"):
        ww_coefficients(f)


def test_ww_reconstruction_from_fourier_basis():
    # f(r) = (-1)^g(r) turns the basis construction into the q family, up to
    # the positive scale 2^(N/2), for every choice of g and N <= 3.
    for n in (1, 2, 3):
        sc = Scenario(n, 2, 2)
        for bits in itertools.product(range(2), repeat=2**n):
            g_arr = np.array(bits, dtype=int).reshape((2,) * n)
            g = GTable(sc, g_arr)
            functional = build_functional(sc, fourier_party_basis(2), g, FunctionalForm.REAL_PART)
            q = ww_coefficients((-1.0) ** g_arr)
            assert np.allclose(functional.coefficients, 2 ** (n / 2) * q, atol=1e-12)


def test_ww_coefficients_equal_the_kronecker_walsh_matrix():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4):
        # the 2^N x 2^N signs (-1)^(r.x), rows r and columns x in lexicographic order
        walsh = np.ones((1, 1))
        for _ in range(n):
            walsh = np.kron(walsh, [[1.0, 1.0], [1.0, -1.0]])
        signs = np.array(list(itertools.product([1.0, -1.0], repeat=2**n)))
        if n == 4:
            signs = signs[rng.choice(len(signs), 300, replace=False)]
        for f in signs:
            q = ww_coefficients(f.reshape((2,) * n))
            assert q.shape == (2,) * n
            assert np.array_equal(q.ravel(), f @ walsh / 2**n)


# The per-party tensordot loops the construction and the envelope ran before
# `contract_parties`, kept as the oracle.

def tensordot_coefficients(scenario, basis, g, pairing):
    u, scale = _probe_matrix(scenario, basis, pairing)
    coeff = unit_roots(scenario.outcomes)[g.table]
    for _ in range(scenario.parties):
        coeff = np.tensordot(coeff, u, axes=([0], [0]))
    return coeff * scale if scale != 1.0 else coeff


def tensordot_envelope(tensor, basis, pairing):
    u, scale = _probe_matrix(tensor.scenario, basis, pairing)
    probe = tensor.values
    for _ in range(tensor.scenario.parties):
        probe = np.tensordot(probe, u, axes=([0], [1]))
    return float(np.abs(probe).sum() * scale)


@settings(max_examples=60, deadline=None)
@given(fourier=st.booleans(), n=st.integers(1, 5), d=st.integers(2, 14),
       pairing=st.sampled_from(list(Pairing)), seed=st.integers(0, 2**32 - 1))
@example(fourier=False, n=2, d=14, pairing=Pairing.BILINEAR, seed=0)
@example(fourier=False, n=2, d=14, pairing=Pairing.SESQUILINEAR, seed=1)
@example(fourier=True, n=5, d=4, pairing=Pairing.SESQUILINEAR, seed=2)
def test_construction_and_envelope_match_the_tensordot_loops(fourier, n, d, pairing, seed):
    # the Fourier basis needs k = d (kept to k^N <= 1024 entries), k2-conjugate k = 2, d >= 3
    if fourier:
        d = min(d, int(round(1024 ** (1 / n))))
    else:
        d = max(d, 3)
    k = d if fourier else 2
    scenario = Scenario(n, k, d)
    basis = fourier_party_basis(d) if fourier else k2_conjugate_basis(d)
    rng = np.random.default_rng(seed)
    g = GTable(scenario, rng.integers(0, d, size=(k,) * n))
    functional = build_functional(scenario, basis, g, FunctionalForm.REAL_PART, pairing)
    assert np.array_equal(functional.coefficients,
                          tensordot_coefficients(scenario, basis, g, pairing))
    raw = rng.uniform(-1, 1, (k,) * n) + 1j * rng.uniform(-1, 1, (k,) * n)
    tensor = CorrelationTensor(scenario, ConjugationMask((1,) * n, d),
                               raw.real if d == 2 else raw / np.sqrt(2))
    assert wwzb_nonlinear(tensor, basis, pairing) == tensordot_envelope(tensor, basis, pairing)


def test_wwzb_nonlinear_values():
    sc = Scenario(2, 2, 2)
    basis = fourier_party_basis(2)
    ones = strategy_correlation_tensor(
        DeterministicStrategy(sc, np.zeros((2, 2), dtype=int)), (1, 1)
    )
    assert abs(wwzb_nonlinear(ones, basis) - 2.0) < 1e-12

    values = [
        wwzb_nonlinear(strategy_correlation_tensor(s, (1, 1)), basis) for s in all_strategies(sc)
    ]
    assert max(values) <= 2 + 1e-12
    assert abs(max(values) - 2.0) < 1e-12

    zero = CorrelationTensor(sc, ConjugationMask((1, 1), 2), np.zeros((2, 2)))
    assert wwzb_nonlinear(zero, basis) == 0.0


def test_wwzb_dominates_every_linearization():
    sc = Scenario(2, 2, 2)
    basis = fourier_party_basis(2)
    rng = np.random.default_rng(19)
    for _ in range(50):
        tensor = CorrelationTensor(
            sc, ConjugationMask((1, 1), 2), rng.uniform(-1, 1, size=(2, 2))
        )
        envelope = wwzb_nonlinear(tensor, basis)
        for bits in itertools.product(range(2), repeat=4):
            g = GTable(sc, np.array(bits).reshape(2, 2))
            functional = build_functional(sc, basis, g, FunctionalForm.MODULUS)
            assert evaluate_functional(functional, tensor) <= envelope + 1e-9


def test_wwzb_dominates_linearizations_for_qutrits():
    sc = Scenario(2, 3, 3)
    basis = fourier_party_basis(3)
    rng = np.random.default_rng(29)
    for _ in range(10):
        raw = 0.5 * (rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3)))
        tensor = CorrelationTensor(sc, ConjugationMask((1, 1), 3), raw)
        envelope = wwzb_nonlinear(tensor, basis)
        for _ in range(20):
            g = GTable(sc, rng.integers(0, 3, size=(3, 3)))
            functional = build_functional(sc, basis, g, FunctionalForm.MODULUS)
            assert evaluate_functional(functional, tensor) <= envelope + 1e-9


def test_modulus_gauge_invariance():
    sc = Scenario(2, 3, 3)
    basis = fourier_party_basis(3)
    rng = np.random.default_rng(23)
    g_arr = rng.integers(0, 3, size=(3, 3))
    tensor = CorrelationTensor(
        sc,
        ConjugationMask((1, 1), 3),
        0.5 * (rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))),
    )
    base = evaluate_functional(
        build_functional(sc, basis, GTable(sc, g_arr), FunctionalForm.MODULUS), tensor
    )
    for shift in (1, 2):
        shifted = evaluate_functional(
            build_functional(sc, basis, GTable(sc, (g_arr + shift) % 3), FunctionalForm.MODULUS),
            tensor,
        )
        assert abs(base - shifted) < 1e-12


def test_evaluate_functional_checks_masks_and_scenario():
    sc = Scenario(2, 2, 3)
    g = GTable(sc, np.zeros((2, 2), dtype=int))
    functional = build_functional(sc, k2_conjugate_basis(3), g, FunctionalForm.REAL_PART)
    tensor = CorrelationTensor(sc, ConjugationMask((1, 2), 3), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        evaluate_functional(functional, tensor)
    zero = CorrelationTensor(sc, ConjugationMask((1, 1), 3), np.zeros((2, 2)))
    modulus = build_functional(sc, k2_conjugate_basis(3), g, FunctionalForm.MODULUS)
    assert evaluate_functional(modulus, zero) == 0.0


def test_gtable_validation():
    sc = Scenario(2, 2, 3)
    with pytest.raises(ValueError):
        GTable(sc, np.array([[0, 3], [0, 0]]))
    with pytest.raises(ValueError):
        GTable(sc, np.zeros((3, 3), dtype=int))


@pytest.mark.parametrize("table", [
    [[0.5, 1.7], [0, 2.9]],
    np.array([[0.0, 1.0], [0.0, 2.0]]),
    np.array([[False, True], [False, True]]),
])
def test_gtable_refuses_non_integer_values(table):
    # an int64 cast would truncate [[0.5, 1.7], [0, 2.9]] to [[0, 1], [0, 2]]
    with pytest.raises(ValueError, match="must be integers"):
        GTable(Scenario(2, 2, 3), table)


def test_functional_requires_nonzero_coefficients():
    sc = Scenario(2, 2, 2)
    with pytest.raises(ValueError):
        BellFunctional.from_coefficients(sc, np.zeros((2, 2)), FunctionalForm.REAL_PART)


def test_functional_refuses_non_integer_settings_and_masks():
    sc = Scenario(2, 2, 3)
    # int() would read these as settings (0, 1) and mask (1, 2)
    for x, r in [((0.9, 1.5), (1, 2)), ((0, 1), (1.99, 2)), ((True, 0), (1, 2)),
                 ((0, 1), (1, np.bool_(True)))]:
        with pytest.raises(ValueError, match="must be an integer"):
            BellFunctional(sc, [(x, r, 1.0)])
    for mask in [(1.5, 2.2), (1.0, 2), (True, 2)]:
        with pytest.raises(ValueError, match="must be an integer"):
            BellFunctional.from_coefficients(sc, np.ones((2, 2)), FunctionalForm.REAL_PART, mask)
    numpy_ints = BellFunctional(sc, [((np.int64(0), 1), (1, np.int32(2)), 1.0)])
    assert numpy_ints.terms() == [((0, 1), (1, 2), 1.0)]
    assert type(numpy_ints.terms()[0][0][0]) is int


def test_gtable_equality_and_hash():
    sc = Scenario(2, 2, 3)
    table = GTable(sc, np.array([[0, 1], [0, 2]]))
    same = GTable(sc, np.array([[0, 1], [0, 2]], dtype=np.int32))
    assert table == same and hash(table) == hash(same)
    shifted = GTable(sc, (table.table + 1) % 3)
    assert table != shifted
    assert table != GTable(Scenario(2, 2, 4), np.array([[0, 1], [0, 2]]))
    assert len({table, same, shifted}) == 2


def test_functional_is_its_term_list():
    assert [f.name for f in fields(BellFunctional)] == [
        "scenario", "term_list", "form", "cached_bound"]
    sc = Scenario(2, 2, 3)
    dense = product_g_functional(2, 2, FunctionalForm.REAL_PART)
    single = BellFunctional(sc, [((1, 1), (1, 2), 2.0), ((0, 0), (1, 2), 1.0)])
    mixed = i323_functional()
    for functional in (dense, single, mixed):
        copy = BellFunctional(functional.scenario, list(functional.terms()), functional.form,
                              functional.cached_bound)
        assert functional == copy and hash(functional) == hash(copy)
        bounded = replace(functional, cached_bound=5.5)
        assert bounded.cached_bound == 5.5 and bounded.terms() == functional.terms()
        assert bounded != functional
        assert replace(bounded, cached_bound=functional.cached_bound) == functional
        assert len({functional, copy, bounded}) == 2
    assert dense.mask.entries == (1, 1)
    assert not dense.coefficients.flags.writeable
    assert single.mask.entries == (1, 2)
    assert np.array_equal(single.coefficients, [[1.0, 0.0], [0.0, 2.0]])
    assert mixed.mask is None and mixed.coefficients is None
    assert dense != single != mixed


def test_from_coefficients_lists_nonzero_entries_in_settings_order():
    sc = Scenario(2, 2, 3)
    coeff = np.array([[0.0, 2.0], [1j, 0.0]])
    functional = BellFunctional.from_coefficients(sc, coeff, FunctionalForm.MODULUS, (1, 2), 3.0)
    assert functional == BellFunctional(sc, [((0, 1), (1, 2), 2.0), ((1, 0), (1, 2), 1j)],
                                        FunctionalForm.MODULUS, 3.0)
    assert np.array_equal(functional.coefficients, coeff)
    with pytest.raises(ValueError, match="expected shape"):
        BellFunctional.from_coefficients(sc, np.ones(4), FunctionalForm.REAL_PART)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1, float("-inf"))])
def test_functional_refuses_non_finite_weights(bad):
    sc = Scenario(2, 2, 3)
    with pytest.raises(ValueError, match=r"settings \(1, 0\), mask \(1, 2\).*not finite"):
        BellFunctional(sc, [((0, 0), (1, 2), 1.0), ((1, 0), (1, 2), bad)])
    coeff = np.ones((2, 2), dtype=complex)
    coeff[1, 0] = bad
    with pytest.raises(ValueError, match=r"settings \(1, 0\), mask \(1, 1\).*not finite"):
        BellFunctional.from_coefficients(sc, coeff, FunctionalForm.REAL_PART)


@pytest.mark.parametrize("weights", [
    [1e308, 1e308, 1e308, -1e308],  # each finite, their moduli summing past the float range
    [complex(1.7e308, 1.7e308)],  # a finite weight whose own modulus overflows
])
def test_functional_refuses_weights_whose_moduli_overflow(weights):
    sc = Scenario(2, 2, 2)
    terms = [(x, (0, 0), w) for x, w in zip([(0, 0), (0, 1), (1, 0), (1, 1)], weights)]
    with pytest.raises(ValueError, match="moduli sum past the float range"):
        BellFunctional(sc, terms, FunctionalForm.MODULUS)
    # the largest single finite modulus is accepted
    BellFunctional(sc, [((0, 0), (0, 0), complex(1e308, 1e308))], FunctionalForm.MODULUS)


# The term-by-term sum `contract` made before it planned its gather, kept as the oracle.

def reference_total(functional, correlations):
    masks = functional.masks()
    stack = correlations(masks)
    row = {r: m for m, r in enumerate(masks)}
    total = 0j
    for x, r, w in functional.terms():
        total += w * complex(stack[(row[r],) + x])
    return total


def random_setup(scenario, rng):
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    amps = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
    return QuantumSetup.normalized(scenario, amps, rng.uniform(0, 2 * np.pi, size=(n, k, d)))


def kernels(scenario, rng):
    """Born, fast and deterministic-strategy correlations of one random model each."""
    setup = random_setup(scenario, rng)
    table = probability_table(setup)
    strategy = DeterministicStrategy.from_flat_index(
        scenario, int(rng.integers(scenario.n_strategies)))
    return {
        "born": lambda masks: correlation_stack(table, masks),
        "fast": lambda masks: quantum_correlation_stack(setup, masks),
        "strategy": lambda masks: np.stack(
            [strategy_correlation_tensor(strategy, mask).values for mask in masks]),
    }


def assert_plan_matches_reference(functional, rng):
    for name, correlations in kernels(functional.scenario, rng).items():
        assert functional.contract(correlations) == reference_total(functional, correlations), name


@st.composite
def mixed_mask_functionals(draw):
    n, k, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 5))
    entries = st.lists(st.integers(0, d - 1), min_size=n, max_size=n).map(tuple)
    masks = draw(st.lists(entries, min_size=1, max_size=4))
    settings_tuple = st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(tuple)
    parts = st.one_of(st.integers(-2, 2), st.floats(-2, 2, allow_nan=False))
    weights = st.builds(complex, parts, parts).filter(lambda w: w != 0)
    terms = draw(st.lists(st.tuples(settings_tuple, st.sampled_from(masks), weights),
                          min_size=1, max_size=8))
    return BellFunctional(Scenario(n, k, d), terms, draw(st.sampled_from(list(FunctionalForm))))


@settings(max_examples=60, deadline=None)
@given(functional=mixed_mask_functionals(), order=st.randoms(use_true_random=False),
       seed=st.integers(0, 2**32 - 1))
def test_contract_plan_matches_term_by_term_sum(functional, order, seed):
    rng = np.random.default_rng(seed)
    assert_plan_matches_reference(functional, rng)
    # the same masks first used in another order: a plan of its own
    terms = functional.terms()
    order.shuffle(terms)
    assert_plan_matches_reference(BellFunctional(functional.scenario, terms, functional.form), rng)


@pytest.mark.parametrize("scenario, terms", [
    # repeated masks across terms, and a zero entry
    (Scenario(3, 2, 3), [((0, 1, 0), (1, 0, 2), 1.0), ((1, 1, 1), (1, 1, 1), 2 - 1j),
                         ((1, 0, 1), (1, 0, 2), -0.5), ((0, 0, 0), (1, 1, 1), 1j)]),
    # one setting per party
    (Scenario(2, 1, 4), [((0, 0), (2, 3), 1 + 1j), ((0, 0), (0, 3), -1.0)]),
    # two outcomes under the plain mask
    (Scenario(2, 2, 2), [((0, 0), (1, 1), 1.0), ((1, 1), (1, 1), -1.0), ((0, 1), (1, 1), 0.5)]),
])
def test_contract_plan_cases(scenario, terms):
    rng = np.random.default_rng(13)
    for order in (terms, terms[::-1]):
        functional = BellFunctional(scenario, order)
        for _ in range(3):
            assert_plan_matches_reference(functional, rng)


def test_plan_masks_are_validated_once_in_order_of_first_use():
    functional = i323_functional()
    masks, gather = functional._plan
    assert functional._plan[0] is masks
    assert all(isinstance(mask, ConjugationMask) for mask in masks)
    assert tuple(mask.entries for mask in masks) == functional.masks()
    assert len(gather) == len(functional.terms())
    seen = []
    functional.contract(lambda given: seen.append(given) or np.zeros((3, 2, 2, 2)))
    assert seen == [masks] and seen[0] is masks


@pytest.mark.parametrize("functional, stack, found", [
    # one row too many: the gather would read the first rows and return 0j
    (i323_functional(), np.zeros((4, 2, 2, 2)), r"\(4, 2, 2, 2\)"),
    # the mask axis last instead of first
    (cglmp_correlation_functional(), np.ones((2, 2, 1)), r"\(2, 2, 1\)"),
    # fewer masks than the functional uses
    (i323_functional(), np.zeros((2, 2, 2, 2)), r"\(2, 2, 2, 2\)"),
])
def test_contract_refuses_a_stack_of_the_wrong_shape(functional, stack, found):
    expected = (len(functional.masks()),) + functional.scenario.settings_shape()
    with pytest.raises(ValueError, match=found + r", expected " + re.escape(str(expected))):
        functional.contract(lambda masks: stack)


@pytest.mark.parametrize("form", ["modulus", "real-part", None, 1])
def test_functional_refuses_a_form_that_is_not_a_member(form):
    # a string form used to construct, then read as a modulus by one step and
    # as a real part by another
    sc = Scenario(2, 2, 2)
    with pytest.raises(ValueError, match="FunctionalForm"):
        BellFunctional(sc, [((0, 0), (1, 1), 1.0)], form)
    with pytest.raises(ValueError, match="FunctionalForm"):
        BellFunctional.from_coefficients(sc, np.eye(2), form)


def test_product_g_functional_refuses_a_string_form():
    with pytest.raises(ValueError, match="FunctionalForm"):
        product_g_functional(2, 3, "real-part")


@pytest.mark.parametrize("pairing", ["sesquilinear", "bilinear", None])
def test_build_functional_refuses_a_pairing_that_is_not_a_member(pairing):
    # "sesquilinear" used to build the bilinear coefficients
    sc = Scenario(2, 2, 3)
    g = GTable.from_function(sc, lambda x, y: x * y)
    with pytest.raises(ValueError, match="Pairing"):
        build_functional(sc, k2_conjugate_basis(3), g, FunctionalForm.MODULUS, pairing)
