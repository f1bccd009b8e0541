import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import (
    ConjugationMask,
    CorrelationTensor,
    DeterministicStrategy,
    ProbabilityTable,
    Scenario,
    correlation_from_probabilities,
    point_mass_table,
    root_of_unity,
    settings_tuples,
    strategy_correlation_tensor,
)
from bellkit.bases import BasisKind, GTable, PartyBasis, fourier_party_basis, k2_conjugate_basis
from bellkit.core import _mask_weights, contract_parties, correlation_stack
from bellkit.multiport import MultiportUnitary, QuantumSetup, fourier_multiport


def uniform_table(scenario):
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    return ProbabilityTable(scenario, np.full((d,) * n + (k,) * n, d ** -n))


def random_table(scenario, rng):
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    raw = rng.random((d,) * n + (k,) * n)
    raw /= raw.sum(axis=tuple(range(n)), keepdims=True)
    return ProbabilityTable(scenario, raw)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(0, 2, 2)
    with pytest.raises(ValueError):
        Scenario(2, 0, 2)
    with pytest.raises(ValueError):
        Scenario(2, 2, 1)
    s = Scenario(3, 2, 3)
    assert s.n_outcome_tuples == 27
    assert s.n_strategies == 3**6


@pytest.mark.parametrize("counts", [(2.5, 2, 3), (True, 2, 3), (2, 2.0, 3), (2, 2, np.float64(3))])
def test_scenario_refuses_non_integer_counts(counts):
    # int() would truncate 2.5 and read True as one party
    with pytest.raises(ValueError, match="must be an integer"):
        Scenario(*counts)


def test_scenario_counts_are_python_ints():
    s = Scenario(np.int64(3), np.int32(2), np.int64(3))
    assert s == Scenario(3, 2, 3)
    assert type(s.n_strategies) is int and s.n_strategies == 3**6


@pytest.mark.parametrize("assignments", [
    [[0.5, 1.7], [0, 2.9]],
    np.array([[0.0, 1.0], [0.0, 2.0]]),
    np.array([[False, True], [False, True]]),
])
def test_strategy_refuses_non_integer_outcomes(assignments):
    # an int64 cast would truncate [[0.5, 1.7], [0, 2.9]] to [[0, 1], [0, 2]]
    with pytest.raises(ValueError, match="must be integers"):
        DeterministicStrategy(Scenario(2, 2, 3), assignments)


def test_root_of_unity():
    assert abs(root_of_unity(3, 5) - np.exp(4j * np.pi / 3)) < 1e-15
    assert abs(root_of_unity(7, 7) - 1) < 1e-15


def test_settings_tuples_order():
    assert settings_tuples(Scenario(2, 2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert settings_tuples(Scenario(1, 3, 2)) == [(0,), (1,), (2,)]
    triples = settings_tuples(Scenario(3, 2, 2))
    assert len(triples) == 8
    assert triples[0] == (0, 0, 0) and triples[-1] == (1, 1, 1)


def test_mask_validation_and_conjugation():
    sc = Scenario(2, 2, 3)
    with pytest.raises(ValueError):
        ConjugationMask((1, 3), 3)
    mask = ConjugationMask((1, 2), 3)
    assert mask.conjugated().entries == (2, 1)
    assert ConjugationMask((0, 0), 3).conjugated().entries == (0, 0)
    with pytest.raises(ValueError):
        correlation_from_probabilities(uniform_table(sc), (1, 1, 1))
    # int() would truncate these; numpy integers are integers
    for entries in [(1.7, 2), (1.0, 2), (True, 2), (np.bool_(True), 2), ("1", 2)]:
        with pytest.raises(ValueError, match="mask entry"):
            ConjugationMask(entries, 3)
    assert ConjugationMask((np.int64(1), np.uint8(2)), 3).entries == (1, 2)


def test_probability_table_normalization_and_clamp():
    sc = Scenario(1, 1, 2)
    with pytest.raises(ValueError):
        ProbabilityTable(sc, np.array([[0.6], [0.6]]))
    with pytest.raises(ValueError):
        ProbabilityTable(sc, np.array([[1.1], [-0.1]]))
    table = ProbabilityTable(sc, np.array([[1.0 + 5e-16], [-5e-16]]))
    assert table.values.min() == 0.0


@pytest.mark.parametrize("values, message", [
    ([[np.nan], [1.0]], "settings slices must sum to 1"),
    ([[1.0 + 2e-12], [-2e-12]], "too negative to be round-off"),
    ([[0.5 + 2e-12], [0.5]], "settings slices must sum to 1"),
    ([[0.5], [0.5 - 2e-12]], "settings slices must sum to 1"),
])
def test_probability_table_refusals(values, message):
    with pytest.raises(ValueError, match=message):
        ProbabilityTable(Scenario(1, 1, 2), np.array(values))


def test_probability_table_clamps_round_off_and_copies():
    raw = np.array([[1.0], [-1e-16]])
    table = ProbabilityTable(Scenario(1, 1, 2), raw)
    assert table.values[1, 0] == 0.0 and not np.signbit(table.values[1, 0])
    # slices within 1e-12 of one are kept as given
    kept = np.array([[0.5 + 5e-13], [0.5]])
    assert ProbabilityTable(Scenario(1, 1, 2), kept).values[0, 0] == 0.5 + 5e-13
    # the table freezes its own copy, never the caller's array
    assert not table.values.flags.writeable
    assert raw.flags.writeable and raw[1, 0] == -1e-16
    assert not np.shares_memory(ProbabilityTable(Scenario(1, 1, 2), kept).values, kept)


def test_uniform_probabilities_have_vanishing_correlation():
    for scenario, mask in [
        (Scenario(2, 2, 2), (1, 1)),
        (Scenario(2, 2, 3), (1, 2)),
        (Scenario(3, 2, 3), (0, 1, 0)),
    ]:
        tensor = correlation_from_probabilities(uniform_table(scenario), mask)
        assert np.abs(tensor.values).max() < 1e-14


def test_point_mass_correlation_examples():
    # d=2: weight concentrated on a=(0,1) gives E = (-1)^(0+1) = -1
    sc = Scenario(2, 1, 2)
    values = np.zeros((2, 2, 1, 1))
    values[0, 1, 0, 0] = 1.0
    tensor = correlation_from_probabilities(ProbabilityTable(sc, values), (1, 1))
    assert abs(tensor[(0, 0)] + 1) < 1e-15

    # d=3: point mass on a=(1,1) with mask (1,2) gives alpha^3 = 1
    sc3 = Scenario(2, 1, 3)
    values = np.zeros((3, 3, 1, 1))
    values[1, 1, 0, 0] = 1.0
    tensor = correlation_from_probabilities(ProbabilityTable(sc3, values), (1, 2))
    assert abs(tensor[(0, 0)] - 1) < 1e-15


def test_strategy_value_examples():
    sc = Scenario(2, 1, 2)
    s = DeterministicStrategy(sc, np.array([[0], [1]]))
    assert abs(strategy_correlation_tensor(s, (1, 1))[(0, 0)] + 1) < 1e-15

    sc3 = Scenario(2, 2, 3)
    zero = DeterministicStrategy(sc3, np.zeros((2, 2), dtype=int))
    for x in settings_tuples(sc3):
        assert abs(strategy_correlation_tensor(zero, (1, 2))[x] - 1) < 1e-15

    sc33 = Scenario(3, 1, 3)
    s = DeterministicStrategy(sc33, np.array([[1], [2], [2]]))
    got = strategy_correlation_tensor(s, (1, 2, 1))[(0, 0, 0)]
    assert abs(got - root_of_unity(3, 1)) < 1e-15


def test_strategy_correlation_tensor_example():
    sc = Scenario(2, 2, 2)
    s = DeterministicStrategy(sc, np.array([[0, 0], [0, 1]]))
    tensor = strategy_correlation_tensor(s, (1, 1))
    expected = {(0, 0): 1, (0, 1): -1, (1, 0): 1, (1, 1): -1}
    for x, value in expected.items():
        assert abs(tensor[x] - value) < 1e-15

    zero = DeterministicStrategy(sc, np.zeros((2, 2), dtype=int))
    assert np.allclose(strategy_correlation_tensor(zero, (1, 1)).values, 1.0)


def test_strategy_tensor_unit_modulus_and_mask_conjugation():
    rng = np.random.default_rng(7)
    sc = Scenario(3, 2, 3)
    for _ in range(20):
        s = DeterministicStrategy(sc, rng.integers(0, 3, size=(3, 2)))
        mask = ConjugationMask(tuple(rng.integers(0, 3, size=3)), 3)
        tensor = strategy_correlation_tensor(s, mask)
        assert np.allclose(np.abs(tensor.values), 1.0, atol=1e-14)
        conj = strategy_correlation_tensor(s, mask.conjugated())
        assert np.allclose(conj.values, tensor.values.conj(), atol=1e-14)


def test_vertex_consistency_with_point_mass_tables():
    sc = Scenario(2, 2, 3)
    rng = np.random.default_rng(11)
    for _ in range(10):
        s = DeterministicStrategy(sc, rng.integers(0, 3, size=(2, 2)))
        mask = ConjugationMask(tuple(rng.integers(0, 3, size=2)), 3)
        direct = strategy_correlation_tensor(s, mask)
        via_table = correlation_from_probabilities(point_mass_table(s), mask)
        assert np.array_equal(direct.values, via_table.values) or np.allclose(
            direct.values, via_table.values, atol=0
        )


def test_strategy_flat_index_roundtrip():
    sc = Scenario(2, 2, 3)
    for index in [0, 1, 42, 80]:
        s = DeterministicStrategy.from_flat_index(sc, index)
        assert s.flat_index() == index
    assert DeterministicStrategy.from_flat_index(sc, 0).assignments.tolist() == [[0, 0], [0, 0]]
    assert DeterministicStrategy.from_flat_index(sc, 80).assignments.tolist() == [[2, 2], [2, 2]]


def test_strategy_flat_index_refuses_out_of_range_and_non_integers():
    sc = Scenario(2, 2, 2)
    assert DeterministicStrategy.from_flat_index(sc, 0).assignments.tolist() == [[0, 0], [0, 0]]
    last = DeterministicStrategy.from_flat_index(sc, sc.n_strategies - 1)
    assert last.assignments.tolist() == [[1, 1], [1, 1]]
    for index in (-1, sc.n_strategies, 10**6, True, 1.5):
        with pytest.raises(ValueError):
            DeterministicStrategy.from_flat_index(sc, index)


def test_strategy_equality_and_hash():
    sc = Scenario(2, 2, 3)
    zeros = DeterministicStrategy(sc, np.zeros((2, 2), dtype=np.int64))
    same = DeterministicStrategy(sc, np.zeros((2, 2), dtype=np.int32))
    assert zeros == same and hash(zeros) == hash(same)
    assert zeros != DeterministicStrategy.from_flat_index(sc, 1)
    assert zeros != DeterministicStrategy(Scenario(2, 2, 4), np.zeros((2, 2), dtype=np.int64))
    assert len({zeros, same, DeterministicStrategy.from_flat_index(sc, 1)}) == 2


def test_strategy_rows_are_read_only_views_of_one_checked_block():
    sc = Scenario(2, 2, 3)
    flat = [0, 5, 42, 80]
    tables = np.array([DeterministicStrategy.from_flat_index(sc, i).assignments for i in flat],
                      dtype=np.int32)
    rows = DeterministicStrategy._rows(sc, tables)
    assert [s.flat_index() for s in rows] == flat
    for s, i in zip(rows, flat):
        assert s == DeterministicStrategy.from_flat_index(sc, i)
        assert hash(s) == hash(DeterministicStrategy.from_flat_index(sc, i))
        assert s.assignments.dtype == np.int64 and s.assignments.shape == (2, 2)
        with pytest.raises(ValueError, match="read-only"):
            s.assignments[0, 0] = 1


@pytest.mark.parametrize("tables, message", [
    (np.array([[[0, 1], [2, 0]], [[0, 3], [0, 0]]]), "must lie in"),   # a digit = d
    (np.array([[[0, 1], [2, 0]], [[0, -1], [0, 0]]]), "must lie in"),  # a negative digit
    (np.zeros((2, 2, 2)), "must be integers"),                          # a float block
    (np.array([[[True, False], [False, False]]]), "must be integers"),
    (np.zeros((2, 2, 3), dtype=np.int64), "expected shape"),
    (np.zeros((2, 2), dtype=np.int64), "expected shape"),
])
def test_strategy_rows_refuse_a_bad_block(tables, message):
    with pytest.raises(ValueError, match=message):
        DeterministicStrategy._rows(Scenario(2, 2, 3), tables)


SC223 = Scenario(2, 2, 3)
K2_BASIS = k2_conjugate_basis(3)
SETUP_223 = QuantumSetup.normalized(SC223, np.ones((3, 3)), np.zeros((2, 2, 3)))

# each stored array: (a caller's array of the stored dtype, the stored array built from it)
STORED_ARRAYS = {
    "DeterministicStrategy": (np.array([[0, 1], [2, 0]]),
                              lambda a: DeterministicStrategy(SC223, a).assignments),
    "GTable": (np.array([[0, 1], [1, 2]]), lambda a: GTable(SC223, a).table),
    "CorrelationTensor": (np.full((2, 2), 0.5 + 0j),
                          lambda a: CorrelationTensor(SC223, (1, 1), a).values),
    "PartyBasis.vectors": (fourier_party_basis(3).vectors,
                           lambda a: PartyBasis(BasisKind.SELF_CONJUGATE, 3, a).vectors),
    "PartyBasis.deterministic": (K2_BASIS.deterministic, lambda a: PartyBasis(
        BasisKind.DETERMINISTIC_WITH_DUAL, 3, K2_BASIS.vectors, a).deterministic),
    "MultiportUnitary": (fourier_multiport(3).matrix, lambda a: MultiportUnitary(3, a).matrix),
    "QuantumSetup.amplitudes": (SETUP_223.amplitudes,
                                lambda a: QuantumSetup(SC223, a, SETUP_223.phases).amplitudes),
    "QuantumSetup.phases": (SETUP_223.phases,
                            lambda a: QuantumSetup(SC223, SETUP_223.amplitudes, a).phases),
}


@pytest.mark.parametrize("name", sorted(STORED_ARRAYS))
def test_constructors_keep_a_private_read_only_copy(name):
    template, build = STORED_ARRAYS[name]
    caller = template.copy()
    stored = build(caller)
    before = stored.copy()
    caller.flat[-1] += 1  # the caller's array stays writable
    assert np.array_equal(stored, before)
    assert not stored.flags.writeable


def test_fourier_consistency_zero_mask():
    rng = np.random.default_rng(3)
    for scenario in [Scenario(2, 2, 2), Scenario(2, 2, 3), Scenario(3, 2, 3)]:
        table = random_table(scenario, rng)
        tensor = correlation_from_probabilities(table, (0,) * scenario.parties)
        assert np.allclose(tensor.values, 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.floats(0.01, 1.0), min_size=9, max_size=9),
    entries=st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_conjugation_symmetry(data, entries):
    sc = Scenario(2, 1, 3)
    raw = np.array(data).reshape(3, 3, 1, 1)
    raw /= raw.sum(axis=(0, 1), keepdims=True)
    table = ProbabilityTable(sc, raw)
    mask = ConjugationMask(entries, 3)
    lhs = correlation_from_probabilities(table, mask).values.conj()
    rhs = correlation_from_probabilities(table, mask.conjugated()).values
    assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(weight=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_mixture_linearity(weight, seed):
    sc = Scenario(2, 2, 3)
    rng = np.random.default_rng(seed)
    t1, t2 = random_table(sc, rng), random_table(sc, rng)
    mixed = ProbabilityTable(sc, weight * t1.values + (1 - weight) * t2.values)
    mask = (1, 2)
    e_mixed = correlation_from_probabilities(mixed, mask).values
    e_combo = (
        weight * correlation_from_probabilities(t1, mask).values
        + (1 - weight) * correlation_from_probabilities(t2, mask).values
    )
    assert np.allclose(e_mixed, e_combo, atol=1e-12)


def test_mask_weights_are_cached_read_only():
    scenario = Scenario(2, 2, 3)
    masks = ((1, 2), (0, 1))
    weights = _mask_weights(scenario, masks)
    assert weights is _mask_weights(scenario, masks)
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0, 0] = 0.0
    table = random_table(scenario, np.random.default_rng(3))
    for m, mask in enumerate(masks):
        expected = correlation_from_probabilities(table, mask).values
        assert np.array_equal(correlation_stack(table, masks)[m], expected)


def test_probability_table_layout_does_not_change_correlations():
    # equal tables give the same bits: a Fortran-ordered one-party table used
    # to take another BLAS path through the weight matrix product
    rng = np.random.default_rng(1)
    for scenario in (Scenario(1, 2, 3), Scenario(1, 3, 4), Scenario(1, 2, 5), Scenario(2, 2, 3)):
        for _ in range(10):
            table = random_table(scenario, rng)
            fortran = ProbabilityTable(scenario, np.asfortranarray(table.values))
            assert fortran.values.flags.c_contiguous
            masks = [(1,) * scenario.parties, (scenario.outcomes - 1,) * scenario.parties]
            assert np.array_equal(correlation_stack(fortran, masks), correlation_stack(table, masks))


def test_correlation_tensor_validation():
    sc = Scenario(1, 1, 2)
    with pytest.raises(ValueError):
        CorrelationTensor(sc, ConjugationMask((1,), 2), np.array([1.5]))
    with pytest.raises(ValueError):
        CorrelationTensor(sc, ConjugationMask((1,), 2), np.array([0.5 + 0.5j]))
    CorrelationTensor(sc, ConjugationMask((1,), 2), np.array([0.5 + 0j]))
    sc3 = Scenario(2, 2, 3)
    for bad in [np.nan, np.inf, complex(0, np.nan)]:
        values = np.zeros((2, 2), dtype=complex)
        values[1, 0] = bad
        with pytest.raises(ValueError, match="not finite"):
            CorrelationTensor(sc3, ConjugationMask((1, 2), 3), values)


@pytest.mark.parametrize("leading, trailing, columns", [
    ((2,), (), (3,)),
    ((3, 2), (4,), (2, 5)),
    ((2, 3, 2), (2, 3), (4, 1, 3)),
])
def test_contract_parties_expands_party_by_party(leading, trailing, columns):
    rng = np.random.default_rng(len(leading))
    # small integers, so every sum is exact and the comparison can be too
    values = rng.integers(-3, 4, leading + trailing).astype(float)
    matrices = [rng.integers(-3, 4, (rows, cols)).astype(float)
                for rows, cols in zip(leading, columns)]
    found = contract_parties(values, matrices)
    assert found.shape == trailing + columns
    expected = np.zeros(trailing + columns)
    for i in np.ndindex(leading):
        for j in np.ndindex(columns):
            weight = np.prod([m[a, b] for m, a, b in zip(matrices, i, j)])
            expected[(...,) + j] += weight * values[i]
    assert np.array_equal(found, expected)
    # a stack of tables on the trailing axes expands as each table alone
    for t in np.ndindex(trailing):
        single = contract_parties(values[(...,) + t], matrices)
        assert np.array_equal(found[t], single)
