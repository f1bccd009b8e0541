import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellkit import (
    BellFunctional,
    DeterministicStrategy,
    FunctionalForm,
    GTable,
    Scenario,
    build_functional,
    k2_conjugate_basis,
    point_mass_table,
    product_g_functional,
    root_of_unity,
    strategy_correlation_tensor,
)
from bellkit import lhv
from bellkit.bases import Pairing, _expand_tables, evaluate_functional
from bellkit.cglmp import i323_functional
from bellkit.core import ConjugationMask, CorrelationTensor, settings_tuples, unit_roots
from bellkit.lhv import (
    DEFAULT_CHUNK,
    SATURATION_TOL,
    BudgetExceededError,
    UnsupportedFormError,
    _affine_rank,
    _embed_real,
    _gauge,
    _representatives,
    _term_table,
    _totals,
    classical_bound,
    classical_bounds,
    enumerate_strategies,
    facet_check,
    polytope_dimension,
    strategy_functional_value,
)


def chsh_functional():
    sc = Scenario(2, 2, 2)
    return BellFunctional.from_coefficients(
        sc, np.array([[1.0, 1.0], [1.0, -1.0]]), FunctionalForm.REAL_PART
    )


def cglmp_coefficients():
    a = root_of_unity(3, 1)
    return np.array([[1 - a, 1 - a**2], [a - 1, 1 - a]])


def test_enumeration_counts_and_order():
    assert sum(1 for _ in enumerate_strategies(Scenario(2, 2, 2))) == 16
    assert sum(1 for _ in enumerate_strategies(Scenario(2, 2, 3))) == 81
    assert sum(1 for _ in enumerate_strategies(Scenario(5, 2, 3))) == 59049

    listed = list(enumerate_strategies(Scenario(2, 2, 3)))
    for i, s in enumerate(listed):
        assert s.flat_index() == i


@pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 7, 10])
def test_enumeration_matches_itertools_product_in_any_block_size(chunk):
    # chunk 7 gives blocks of one strategy, 10 two, DEFAULT_CHUNK one block of 81
    sc = Scenario(2, 2, 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lhv, "DEFAULT_CHUNK", chunk)
        listed = list(enumerate_strategies(sc))
    expected = [DeterministicStrategy(sc, np.array(digits).reshape(2, 2))
                for digits in itertools.product(range(3), repeat=4)]
    assert listed == expected
    for s in listed:
        assert s.assignments.dtype == np.int64 and s.assignments.shape == (2, 2)
        assert not s.assignments.flags.writeable


def test_budget_guard():
    with pytest.raises(BudgetExceededError) as err:
        list(enumerate_strategies(Scenario(4, 4, 4), budget=1000))
    assert err.value.required == 4**16


def test_chsh_bound_is_two():
    result = classical_bound(chsh_functional())
    assert result.bound == pytest.approx(2.0, abs=1e-12)
    assert result.examined == 16
    for s in result.argmax:
        tensor = strategy_correlation_tensor(s, (1, 1))
        assert evaluate_functional(chsh_functional(), tensor) == pytest.approx(2.0, abs=1e-12)


def test_saturating_strategies_compare_by_contents():
    result = classical_bound(chsh_functional())
    assert result.witness in result.argmax
    zeros = DeterministicStrategy(Scenario(2, 2, 2), np.zeros((2, 2), dtype=np.int64))
    assert zeros in result.argmax
    assert len(set(result.argmax)) == len(result.saturating) == 8
    # results hold arrays, so they compare by identity
    again = classical_bound(chsh_functional())
    assert result == result and result != again
    assert len({result, again}) == 2


def test_cglmp_bound_is_three_for_both_mask_conventions():
    sc = Scenario(2, 2, 3)
    for mask in [(1, 2), (1, 1)]:
        functional = BellFunctional.from_coefficients(
            sc, cglmp_coefficients(), FunctionalForm.REAL_PART, ConjugationMask(mask, 3)
        )
        result = classical_bound(functional)
        assert result.bound == pytest.approx(3.0, abs=1e-10)
        assert result.examined == 81


def test_strategy_functional_value_matches_tensor_path():
    sc = Scenario(2, 2, 3)
    functional = BellFunctional.from_coefficients(
        sc, cglmp_coefficients(), FunctionalForm.REAL_PART, ConjugationMask((1, 2), 3)
    )
    for s in enumerate_strategies(sc):
        direct = strategy_functional_value(functional, s)
        tensor = strategy_correlation_tensor(s, functional.mask)
        assert direct == pytest.approx(evaluate_functional(functional, tensor), abs=1e-12)


def test_classical_bound_chunking_is_invisible():
    sc = Scenario(2, 2, 3)
    functional = BellFunctional.from_coefficients(
        sc, cglmp_coefficients(), FunctionalForm.MODULUS, ConjugationMask((1, 2), 3)
    )
    baseline = classical_bound(functional)
    for chunk in (7, 13):
        other = bound_in_blocks(functional, chunk)
        assert other.bound == baseline.bound
        assert [s.flat_index() for s in other.argmax] == [
            s.flat_index() for s in baseline.argmax
        ]


def bound_in_blocks(functional, chunk):
    """classical_bound with its block size set to `chunk` numbers."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lhv, "DEFAULT_CHUNK", chunk)
        return classical_bound(functional)


def strategy_totals(functional, indices):
    """Complex totals of the functional on the strategies at these flat indices (`_totals`)."""
    terms = functional.terms()
    xs = np.array([x for x, _, _ in terms], dtype=np.int64)
    rs = np.array([r for _, r, _ in terms], dtype=np.int64)
    table = _term_table([[w for _, _, w in terms]], functional.scenario.outcomes)
    return _totals(functional.scenario, xs, rs, table, 0, np.asarray(indices, dtype=np.int64), 0)


def brute_force_bound(functional):
    """Bound and saturating flat indices from every strategy, in one batch.

    The saturation tolerance is the documented 1e-9 * sum |w|, the moduli
    added in term order.
    """
    totals = strategy_totals(functional, np.arange(functional.scenario.n_strategies))
    values = totals.real if functional.form is FunctionalForm.REAL_PART else np.abs(totals)
    bound = values.max()
    tol = SATURATION_TOL * sum(abs(w) for _, _, w in functional.terms())
    return bound, [int(i) for i in np.nonzero(values >= bound - tol)[0]]


def assert_matches_brute_force(functional, chunk=DEFAULT_CHUNK):
    bound, argmax = brute_force_bound(functional)
    result = bound_in_blocks(functional, chunk)
    assert result.bound == bound
    assert result.saturating.dtype == np.int64 and not result.saturating.flags.writeable
    assert result.saturating.tolist() == argmax
    assert [s.flat_index() for s in result.argmax] == argmax
    assert result.witness.flat_index() == argmax[0]
    assert result.examined == functional.scenario.n_strategies


SMALL_SCENARIOS = [(n, k, d) for n in (1, 2, 3) for k in (1, 2, 3) for d in (2, 3, 4, 6)
                   if d ** (n * k) <= 5000]


@st.composite
def mixed_mask_functionals(draw, scenarios=SMALL_SCENARIOS, forms=tuple(FunctionalForm)):
    n, k, d = draw(st.sampled_from(scenarios))
    entries = st.lists(st.integers(0, d - 1), min_size=n, max_size=n).map(tuple)
    masks = draw(st.lists(entries, min_size=1, max_size=3))
    settings_tuples = st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(tuple)
    parts = st.one_of(st.integers(-2, 2), st.floats(-2, 2, allow_nan=False))
    weights = st.builds(complex, parts, parts).filter(lambda w: w != 0)
    terms = draw(st.lists(st.tuples(settings_tuples, st.sampled_from(masks), weights),
                          min_size=1, max_size=6))
    form = draw(st.sampled_from(forms))
    return BellFunctional(Scenario(n, k, d), terms, form)


@settings(max_examples=150, deadline=None)
@given(functional=mixed_mask_functionals(), chunk=st.sampled_from([7, 13, DEFAULT_CHUNK]))
def test_classical_bound_matches_brute_force(functional, chunk):
    assert_matches_brute_force(functional, chunk)


GAUGE_CASES = {
    # N = 1: the prefix is empty; 2c = 0 (mod 4) leaves the shift by 2
    "single-party": (Scenario(1, 2, 4), [((0,), (2,), 1.0), ((1,), (2,), 1j)]),
    # k = 1, masks sharing factors with 6
    "shared-factors-of-6": (Scenario(2, 1, 6), [((0, 0), (2, 3), 1 + 1j),
                                                ((0, 0), (0, 3), -1.0)]),
    # a zero entry, and 2 shares a factor with 4
    "zero-and-shared": (Scenario(3, 2, 4), [((0, 1, 0), (2, 0, 2), 1.0),
                                            ((1, 1, 1), (2, 0, 2), 2 - 1j),
                                            ((1, 0, 1), (0, 0, 2), -0.5)]),
    # the plain mask: every shift with sum c = 0 (mod d)
    "plain-mask": (Scenario(3, 2, 3), [((0, 0, 0), (1, 1, 1), 1.0), ((1, 1, 0), (1, 1, 1), 1j),
                                       ((0, 1, 1), (1, 1, 1), -1 + 1j)]),
    # a mask and its conjugate share the real-part gauge
    "conjugate-pair": (Scenario(2, 2, 5), [((0, 0), (1, 4), 1.0), ((1, 1), (4, 1), 0.5),
                                           ((0, 1), (1, 4), -1j)]),
    # float weights: a modulus member's total rounds like its representative's
    # only at the member's own exponent offset r_0.c; at offset 0 the bound
    # moves by an ulp
    "float-weights": (Scenario(2, 2, 6), [((1, 1), (5, 2), -1.01 - 0.209j),
                                          ((1, 0), (5, 2), 0.541 + 0.215j),
                                          ((0, 0), (5, 2), -0.654 - 0.13j),
                                          ((0, 1), (5, 2), 1.493 - 1.259j)]),
}


@pytest.mark.parametrize("form", list(FunctionalForm))
@pytest.mark.parametrize("name", list(GAUGE_CASES))
def test_gauge_orbits_match_brute_force_in_both_forms(name, form):
    scenario, terms = GAUGE_CASES[name]
    functional = BellFunctional(scenario, terms, form)
    group, steps = _gauge(scenario, functional.masks(), form)
    assert len(group) > 1  # a non-trivial gauge group
    assert len(_representatives(scenario, steps)) * len(group) == scenario.n_strategies
    for chunk in (7, 13, DEFAULT_CHUNK):
        assert_matches_brute_force(functional, chunk)


@pytest.mark.parametrize("form", list(FunctionalForm))
def test_product_g_orbits_match_brute_force(form):
    # (4,2,3): 81 shifts fix the real part; values are shared by whole orbits
    assert_matches_brute_force(product_g_functional(4, 3, form))


@pytest.mark.parametrize("scenario, terms, form, steps", [
    # N = 1: the prefix is empty; 2c = 0 (mod 4) leaves the shift by 2
    (Scenario(1, 2, 4), [((0,), (2,), 1.0), ((1,), (2,), 1j)], FunctionalForm.REAL_PART, [2]),
    # k = 1, masks sharing factors with 6: the invariant shifts are {0, 3} x {0, 2, 4}
    (Scenario(2, 1, 6), [((0, 0), (2, 3), 1 + 1j), ((0, 0), (0, 3), -1.0)],
     FunctionalForm.REAL_PART, [3, 2]),
    # moduli only need r_t.c = r_0.c: here 2c_1 = 0 (mod 4)
    (Scenario(3, 2, 4), [((0, 1, 0), (1, 2, 1), 1.0), ((1, 1, 1), (3, 2, 1), 2 - 1j)],
     FunctionalForm.MODULUS, [2, 1, 1]),
    # no invariant shift but zero: the gauge fixes nothing
    (Scenario(2, 2, 3), [((0, 0), (1, 0), 1.0), ((1, 1), (0, 1), 1.0)],
     FunctionalForm.REAL_PART, [3, 3]),
])
def test_gauge_steps_and_exactness(scenario, terms, form, steps):
    functional = BellFunctional(scenario, terms, form)
    group, found = _gauge(scenario, tuple(r for _, r, _ in terms), form)
    assert list(found) == steps
    assert len(group) == np.prod([scenario.outcomes // g for g in steps])
    for chunk in (7, 13, DEFAULT_CHUNK):
        assert_matches_brute_force(functional, chunk)


def test_strategy_value_does_not_depend_on_batch():
    # a strategy evaluated alone must get its batch total: a kernel that
    # multiplied per-party complex factors moved this unique optimum by two ulps
    scenario = Scenario(2, 1, 6)
    terms = [((0, 0), (2, 5), -2 + 1j), ((0, 0), (1, 0), 2.0), ((0, 0), (1, 0), 1j),
             ((0, 0), (1, 0), 1 - 2j), ((0, 0), (1, 0), -2.0)]
    functional = BellFunctional(scenario, terms, FunctionalForm.REAL_PART)
    batch = strategy_totals(functional, np.arange(36))
    alone = [strategy_totals(functional, [i])[0] for i in range(36)]
    assert list(batch) == alone
    assert_matches_brute_force(functional)


def contract_total(functional, strategy):
    """The complex total `strategy_functional_value` takes, from the strategy's tensors."""
    return functional.contract(lambda masks: np.stack(
        [strategy_correlation_tensor(strategy, mask).values for mask in masks]))


KERNEL_SCENARIOS = [(n, k, d) for n in (1, 2, 3) for k in (1, 2, 3) for d in range(2, 8)
                    if d ** (n * k) <= 1000]


@settings(max_examples=60, deadline=None)
@given(functional=mixed_mask_functionals(KERNEL_SCENARIOS))
def test_totals_equal_contract_bit_for_bit(functional):
    scenario = functional.scenario
    totals = strategy_totals(functional, np.arange(scenario.n_strategies))
    expected = np.array([contract_total(functional, strategy)
                         for strategy in enumerate_strategies(scenario)])
    assert np.array_equal(totals.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("form", list(FunctionalForm))
def test_product_g_723_bound_within_reach(form):
    functional = product_g_functional(7, 3, form)
    result = classical_bound(functional)
    assert result.examined == 3**14
    flat = [s.flat_index() for s in result.argmax]
    assert all(a < b for a, b in zip(flat, flat[1:]))
    for strategy in result.argmax:
        value = strategy_functional_value(functional, strategy)
        assert value == pytest.approx(result.bound, abs=1e-9)


def test_scale_covariance():
    functional = chsh_functional()
    scaled = functional.rescaled(2.5)
    r1 = classical_bound(functional)
    r2 = classical_bound(scaled)
    assert r2.bound == pytest.approx(2.5 * r1.bound, rel=1e-12)
    assert [s.flat_index() for s in r1.argmax] == [s.flat_index() for s in r2.argmax]


def test_vertex_optimality_random_mixtures():
    sc = Scenario(2, 2, 3)
    functional = BellFunctional.from_coefficients(
        sc, cglmp_coefficients(), FunctionalForm.REAL_PART, ConjugationMask((1, 2), 3)
    )
    bound = classical_bound(functional).bound
    rng = np.random.default_rng(31)
    strategies = list(enumerate_strategies(sc))
    for _ in range(100):
        weights = rng.dirichlet(np.ones(6))
        picks = rng.choice(len(strategies), size=6, replace=False)
        mixed = sum(
            w * strategy_correlation_tensor(strategies[i], functional.mask).values
            for w, i in zip(weights, picks)
        )
        tensor = CorrelationTensor(sc, functional.mask, mixed)
        assert evaluate_functional(functional, tensor) <= bound + 1e-9


def test_enumeration_completeness_reconstructs_uniform():
    sc = Scenario(2, 2, 2)
    strategies = list(enumerate_strategies(sc))
    average = sum(point_mass_table(s).values for s in strategies) / len(strategies)
    assert np.allclose(average, 0.25, atol=1e-15)


def test_polytope_dimensions():
    assert polytope_dimension(Scenario(2, 2, 2), [(1, 1)]) == 4
    assert polytope_dimension(Scenario(1, 1, 2), [(1,)]) == 1
    # recorded, not asserted a priori: the two-setting qutrit polytope dimension
    d223 = polytope_dimension(Scenario(2, 2, 3), [(1, 1)])
    assert 4 <= d223 <= 8


def test_polytope_dimension_refuses_no_masks():
    with pytest.raises(ValueError, match="at least one mask"):
        polytope_dimension(Scenario(2, 2, 2), [])


def _row_unique_rank(rows):
    """Affine rank of the distinct real-embedded rows, found by rounding floats."""
    return _affine_rank(np.unique(np.round(_embed_real(rows), 12), axis=0))


def test_polytope_dimension_matches_row_unique_reference():
    """Both ranks facet_check takes over exponent-distinct vertices, against rounded floats."""
    rng = np.random.default_rng(7)
    for scenario, mask in (
        (Scenario(2, 2, 3), (1, 1)),
        (Scenario(2, 2, 4), (2, 1)),
        (Scenario(3, 2, 3), (1, 2, 1)),
        (Scenario(2, 2, 4), (2, 2)),     # every entry shares a factor with d
        (Scenario(3, 2, 4), (2, 0, 3)),  # a zero entry and a shared factor
        (Scenario(2, 3, 3), (0, 2)),     # a zero entry
        (Scenario(2, 2, 2), (0, 0)),     # a single vertex
    ):
        vertices = np.stack([strategy_correlation_tensor(strategy, mask).values.ravel()
                             for strategy in enumerate_strategies(scenario)])
        dimension = _row_unique_rank(vertices)
        assert polytope_dimension(scenario, [mask]) == dimension
        for _ in range(4):
            coeff = rng.integers(-2, 3, size=scenario.settings_shape()).astype(complex)
            coeff.flat[0] = 1.0
            functional = BellFunctional.from_coefficients(
                scenario, coeff, FunctionalForm.REAL_PART, ConjugationMask(mask, scenario.outcomes))
            values = (vertices @ coeff.ravel()).real
            saturating = vertices[values >= values.max() - SATURATION_TOL]
            report = facet_check(functional)
            assert report.polytope_dimension == dimension
            assert report.saturating_count == len(saturating)
            assert report.saturating_rank == _row_unique_rank(saturating)


@pytest.mark.parametrize("scenario, masks", [
    (Scenario(3, 2, 3), [(1, 2, 1), (2, 2, 2), (1, 1, 1)]),  # i323's masks
    (Scenario(3, 2, 3), [(1, 1, 1), (2, 2, 2)]),             # a conjugate pair
    (Scenario(2, 2, 4), [(2, 1), (0, 3)]),                   # a shared factor, a zero entry
    (Scenario(2, 2, 3), [(1, 0), (0, 1), (1, 1)]),
    (Scenario(2, 2, 2), [(0, 0), (1, 1)]),
], ids=["i323", "conjugate-pair", "shared-and-zero", "marginals", "constant-block"])
def test_mixed_mask_facet_check_matches_row_unique_reference(scenario, masks):
    """The embedding concatenates one block per mask; both ranks against rounded floats."""
    vertices = np.stack([
        np.concatenate([strategy_correlation_tensor(strategy, mask).values.ravel()
                        for mask in masks])
        for strategy in enumerate_strategies(scenario)])
    dimension = _row_unique_rank(vertices)
    assert polytope_dimension(scenario, masks) == dimension
    rng = np.random.default_rng(11)
    coordinates = [(x, r) for r in masks for x in settings_tuples(scenario)]
    for _ in range(4):
        size = len(coordinates)
        weights = rng.integers(-2, 3, size=size) + 1j * rng.integers(-1, 2, size=size)
        weights[0] = 1.0
        terms = [(x, r, w) for (x, r), w in zip(coordinates, weights) if w != 0]
        functional = BellFunctional(scenario, terms, FunctionalForm.REAL_PART)
        values = (vertices @ weights).real
        saturating = vertices[values >= values.max() - SATURATION_TOL]
        report = facet_check(functional)
        assert report.polytope_dimension == dimension
        assert report.saturating_count == len(saturating)
        assert report.saturating_rank == _row_unique_rank(saturating)
        assert report.is_facet == (report.saturating_rank == dimension - 1)


def first_unique_rows(rows):
    """The distinct rows in order of first occurrence, found by a row-wise unique."""
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


def full_enumeration_rank(rows, d):
    """Affine rank of the distinct vertices with these exponent rows, real-embedded."""
    return _affine_rank(_embed_real(unit_roots(d)[first_unique_rows(rows)]))


def all_exponent_rows(scenario, masks):
    """Row s: sum_p r_p a_p(x_p) mod d of strategy s, one column per (mask r, settings tuple x)."""
    tables = np.stack([strategy.assignments for strategy in enumerate_strategies(scenario)])
    parties = np.arange(scenario.parties)
    return np.stack([tables[:, parties, x] @ np.array(r) % scenario.outcomes
                     for r in masks for x in settings_tuples(scenario)], axis=1)


@settings(max_examples=100, deadline=None)
@given(functional=mixed_mask_functionals(forms=(FunctionalForm.REAL_PART,)))
def test_facet_check_matches_full_enumeration(functional):
    """Orbit representatives give the rows, dimension and rank of all d^(N*k) strategies."""
    scenario, masks = functional.scenario, functional.masks()
    d = scenario.outcomes
    everything = all_exponent_rows(scenario, masks)
    assert len(everything) == scenario.n_strategies
    lhv._gauge.cache_clear()
    lhv._vertex_structure.cache_clear()
    report = facet_check(functional)
    assert facet_check(functional) == report  # a warm cache gives the cold cache's report
    representatives, rows, dimension = lhv._vertex_structure(scenario, masks)
    group = lhv._gauge(scenario, masks, FunctionalForm.REAL_PART)[0]
    assert not (representatives.flags.writeable or rows.flags.writeable or group.flags.writeable)
    assert np.array_equal(rows, everything[representatives])
    assert np.array_equal(first_unique_rows(rows), first_unique_rows(everything))
    assert dimension == full_enumeration_rank(everything, d)
    assert polytope_dimension(scenario, masks) == dimension
    bound, saturating = brute_force_bound(functional)
    assert report.bound == bound
    assert report.polytope_dimension == dimension
    assert report.saturating_count == len(saturating)
    rank = full_enumeration_rank(everything[saturating], d) if saturating else 0
    assert report.saturating_rank == rank
    assert report.is_facet == (rank == dimension - 1)


def test_facet_check_budget_is_its_own(monkeypatch):
    """The cached vertex structure checks no budget; polytope_dimension checks DEFAULT_BUDGET."""
    functional = i323_functional()
    expected = facet_check(functional)
    lhv._vertex_structure.cache_clear()
    monkeypatch.setattr(lhv, "DEFAULT_BUDGET", functional.scenario.n_strategies - 1)
    assert facet_check(functional, budget=10**6) == expected
    with pytest.raises(BudgetExceededError):
        polytope_dimension(functional.scenario, functional.masks())


def test_i323_is_a_facet_of_its_projection():
    report = facet_check(i323_functional())
    found = (report.polytope_dimension, report.saturating_count, report.saturating_rank)
    assert found == (32, 270, 31)
    assert report.bound == 3.0
    assert report.is_valid and report.is_facet


def test_facet_needs_a_saturating_vertex():
    # the cached bound 5 is valid but loose: no vertex reaches it
    functional = BellFunctional(Scenario(1, 1, 2), [((0,), (1,), 1.0)],
                                FunctionalForm.REAL_PART, cached_bound=5.0)
    report = facet_check(functional)
    assert (report.polytope_dimension, report.saturating_count, report.saturating_rank) == (1, 0, 0)
    assert report.is_valid and not report.is_facet


def test_invalid_bound_is_not_a_facet():
    functional = replace(chsh_functional(), cached_bound=1.0)
    report = facet_check(functional)
    assert report.bound == 1.0
    assert not report.is_valid and not report.is_facet


@pytest.mark.parametrize("functional", [
    chsh_functional(),
    BellFunctional.from_coefficients(Scenario(2, 2, 3), cglmp_coefficients(),
                                     FunctionalForm.REAL_PART, ConjugationMask((1, 2), 3)),
    BellFunctional(Scenario(3, 2, 4), [((0, 1, 0), (2, 0, 3), 1 - 1j),
                                       ((1, 1, 1), (2, 0, 3), 0.5),
                                       ((1, 0, 1), (2, 0, 3), -2j)]),
    product_g_functional(3, 3, FunctionalForm.REAL_PART),
    product_g_functional(5, 3, FunctionalForm.REAL_PART),
    replace(i323_functional(), cached_bound=None),
], ids=["chsh", "cglmp", "mask-203", "product-g-323", "product-g-523", "i323"])
def test_facet_bound_is_the_classical_bound(functional):
    assert functional.cached_bound is None
    assert facet_check(functional).bound == classical_bound(functional).bound


def test_product_g_523_facet_certificate():
    report = facet_check(product_g_functional(5, 3, FunctionalForm.REAL_PART))
    found = (report.polytope_dimension, report.saturating_count, report.saturating_rank)
    assert found == (64, 972, 6)
    assert report.is_valid and not report.is_facet


def test_chsh_is_a_facet():
    report = facet_check(chsh_functional())
    assert report.is_facet
    assert report.is_valid
    assert report.polytope_dimension == 4
    assert report.saturating_rank == 3
    assert report.saturating_count >= report.polytope_dimension


def test_single_coefficient_functional_is_not_a_facet_for_qutrits():
    sc = Scenario(2, 2, 3)
    coeff = np.zeros((2, 2), dtype=complex)
    coeff[0, 0] = 1.0
    functional = BellFunctional.from_coefficients(sc, coeff, FunctionalForm.REAL_PART,
                                                  ConjugationMask((1, 1), 3))
    report = facet_check(functional)
    assert report.bound == pytest.approx(1.0, abs=1e-12)
    assert not report.is_facet
    assert report.saturating_rank < report.polytope_dimension - 1


def test_facet_check_refuses_modulus():
    sc = Scenario(2, 2, 2)
    functional = BellFunctional.from_coefficients(sc, np.array([[1.0, 1.0], [1.0, -1.0]]),
                                                  FunctionalForm.MODULUS)
    with pytest.raises(UnsupportedFormError):
        facet_check(functional)


def rotated_real_part(functional, phase):
    """Re[e^(i*phase) sum c_x E_x]: one linear slice of a modulus functional."""
    rotation = np.exp(1j * phase)
    terms = [(x, r, w * rotation) for x, r, w in functional.terms()]
    return BellFunctional(functional.scenario, terms, FunctionalForm.REAL_PART)


def test_linearize_modulus():
    sc = Scenario(2, 2, 2)
    modulus = BellFunctional.from_coefficients(sc, np.array([[1.0, 1.0], [1.0, -1.0]]),
                                               FunctionalForm.MODULUS)
    flat = rotated_real_part(modulus, 0.0)
    assert flat.form is FunctionalForm.REAL_PART

    tensor = CorrelationTensor(sc, ConjugationMask((1, 1), 2), np.array([[1.0, 1.0], [1.0, 1.0]]))
    # real, nonnegative pairing: the zero-phase slice already matches
    assert evaluate_functional(flat, tensor) == pytest.approx(
        evaluate_functional(modulus, tensor), abs=1e-12
    )

    sc3 = Scenario(2, 2, 3)
    functional = BellFunctional.from_coefficients(
        sc3, cglmp_coefficients(), FunctionalForm.MODULUS, ConjugationMask((1, 2), 3)
    )
    rng = np.random.default_rng(5)
    raw = 0.5 * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
    tensor = CorrelationTensor(sc3, ConjugationMask((1, 2), 3), raw)
    target = evaluate_functional(functional, tensor)
    sweep = max(
        evaluate_functional(rotated_real_part(functional, 2 * np.pi * j / 360), tensor)
        for j in range(360)
    )
    assert sweep <= target + 1e-12
    assert sweep == pytest.approx(target, abs=1e-4)

    # every slice's classical bound sits below the modulus bound
    modulus_bound = classical_bound(functional).bound
    for j in range(0, 360, 45):
        slice_bound = classical_bound(
            rotated_real_part(functional, 2 * np.pi * j / 360)
        ).bound
        assert slice_bound <= modulus_bound + 1e-9


@pytest.mark.parametrize("functional", [
    chsh_functional(),
    i323_functional(),
    BellFunctional(Scenario(3, 2, 3), [((0, 1, 0), (1, 2, 1), 1.0)], FunctionalForm.MODULUS),
], ids=["chsh", "i323", "all-saturate"])
def test_argmax_matches_from_flat_index(functional):
    result = classical_bound(functional)
    scenario = functional.scenario
    reference = [DeterministicStrategy.from_flat_index(scenario, i)
                 for i in result.saturating.tolist()]
    assert len(result.argmax) == len(reference) == len(result.saturating)
    for s, expected in zip(result.argmax, reference):
        assert s == expected and hash(s) == hash(expected)
        assert s.assignments.dtype == np.int64
        assert s.assignments.shape == (scenario.parties, scenario.settings)
        with pytest.raises(ValueError, match="read-only"):
            s.assignments[0, 0] = 0


def test_facet_chunk_counts():
    # saturating count for CHSH: 8 of 16 strategies reach the bound
    result = classical_bound(chsh_functional())
    assert len(result.argmax) == 8
    assert result.witness.flat_index() == min(s.flat_index() for s in result.argmax)


# -- one strategy pass for a dense stack of tables ----------------------------

@st.composite
def dense_stacks(draw, scenarios=SMALL_SCENARIOS):
    """A scenario, 1-5 dense tables on it and a form.

    Some settings are zero in every table, the others may be zero (+0 or -0)
    in some tables and not in others; no table is all zero.
    """
    n, k, d = draw(st.sampled_from(scenarios))
    scenario = Scenario(n, k, d)
    live = draw(st.lists(st.booleans(), min_size=k**n, max_size=k**n).filter(any))
    parts = st.one_of(st.integers(-2, 2), st.floats(-2, 2, allow_nan=False))
    nonzero = st.builds(complex, parts, parts).filter(lambda w: w != 0)
    maybe = st.one_of(st.sampled_from([0j, complex(-0.0, -0.0)]), nonzero)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = [draw(maybe) if on else 0j for on in live]
        row[draw(st.sampled_from([i for i, on in enumerate(live) if on]))] = draw(nonzero)
        rows.append(row)
    form = draw(st.sampled_from(list(FunctionalForm)))
    return scenario, np.array(rows).reshape((len(rows),) + scenario.settings_shape()), form


def assert_same_result(result, expected):
    assert repr(result.bound) == repr(expected.bound)
    assert result.saturating.dtype == np.int64 and not result.saturating.flags.writeable
    assert np.array_equal(result.saturating, expected.saturating)
    assert result.examined == expected.examined and result.scenario == expected.scenario


@settings(max_examples=100, deadline=None)
@given(stack=dense_stacks(), data=st.data())
def test_classical_bounds_match_brute_force_alone_and_permuted(stack, data):
    scenario, coefficients, form = stack
    results = classical_bounds(scenario, coefficients, form)
    assert len(results) == len(coefficients)
    for table, result in zip(coefficients, results):
        functional = BellFunctional.from_coefficients(scenario, table, form)
        bound, argmax = brute_force_bound(functional)
        assert result.bound == bound
        assert result.saturating.tolist() == argmax
        assert result.examined == scenario.n_strategies
        assert_same_result(result, classical_bound(functional))
    order = data.draw(st.permutations(range(len(coefficients))))
    for index, result in zip(order, classical_bounds(scenario, coefficients[order], form)):
        assert_same_result(result, results[index])


@settings(max_examples=40, deadline=None)
@given(stack=dense_stacks(), chunk=st.sampled_from([7, 13, 61]))
def test_classical_bounds_do_not_depend_on_the_block_size(stack, chunk):
    # 61 holds several tables and several prefixes of a small stack per block
    baseline = classical_bounds(*stack)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lhv, "DEFAULT_CHUNK", chunk)
        blocked = classical_bounds(*stack)
    for result, expected in zip(blocked, baseline):
        assert_same_result(result, expected)


def test_classical_bounds_refuse_what_a_functional_refuses():
    scenario = Scenario(2, 2, 2)
    chsh = np.array([[1.0, 1.0], [1.0, -1.0]])
    form = FunctionalForm.REAL_PART
    with pytest.raises(ValueError, match="FunctionalForm"):
        classical_bounds(scenario, chsh[None], "real-part")
    for shape in [chsh, chsh[None, :1], np.zeros((1, 2, 2, 2)), np.zeros((0, 2, 2))]:
        with pytest.raises(ValueError, match="need shape"):
            classical_bounds(scenario, shape, form)
    for bad, match in [(np.zeros((2, 2)), "table 1 has no nonzero"),
                       (chsh * 1e308, "table 1 sum past"),
                       (chsh * np.nan, r"table 1 has weight \(nan\+0j\) at settings \(0, 0\), "
                                       "not finite"),
                       (chsh * np.inf, r"table 1 has weight \(inf\+0j\) at settings \(0, 0\)"),
                       (np.where([[0, 0], [0, 1]], complex(1, np.nan), chsh),
                        r"table 1 has weight \(1\+nanj\) at settings \(1, 1\), not finite"),
                       (np.where([[0, 1], [0, 0]], -np.inf, chsh),
                        r"table 1 has weight \(-inf\+0j\) at settings \(0, 1\), not finite")]:
        with pytest.raises(ValueError):
            BellFunctional.from_coefficients(scenario, bad, form)
        with pytest.raises(ValueError, match=match):
            classical_bounds(scenario, np.stack([chsh, bad]), form)


def assert_stack_matches_per_table(parties, d, form, tables):
    """One classical_bounds call on the expanded k2-conjugate tables equals each table's bound."""
    scenario, basis = Scenario(parties, 2, d), k2_conjugate_basis(d)
    tables = np.array(list(tables))
    coefficients = _expand_tables(scenario, basis, tables.T.reshape((2,) * parties + (-1,)),
                                  Pairing.BILINEAR)
    for g, result in zip(tables, classical_bounds(scenario, coefficients, form)):
        functional = build_functional(scenario, basis, GTable(scenario, g.reshape((2,) * parties)),
                                      form)
        assert_same_result(result, classical_bound(functional))
        bound, argmax = brute_force_bound(functional)
        assert result.bound == bound and result.saturating.tolist() == argmax


@pytest.mark.parametrize("form", list(FunctionalForm))
@pytest.mark.parametrize("d", [3, 4])
def test_stacked_bounds_equal_per_table_bounds_on_every_two_party_table(d, form):
    assert_stack_matches_per_table(2, d, form, itertools.product(range(d), repeat=4))


@pytest.mark.parametrize("form", list(FunctionalForm))
def test_stacked_bounds_equal_per_table_bounds_on_a_323_sample(form):
    flat = np.random.default_rng(323).choice(3**8, size=300, replace=False)
    assert_stack_matches_per_table(3, 3, form, np.stack(np.unravel_index(flat, (3,) * 8), axis=1))


SCALE_CASES = {"chsh": chsh_functional(), "i323": i323_functional(),
               "product-g-323": product_g_functional(3, 3, FunctionalForm.REAL_PART)}


@pytest.mark.parametrize("form", list(FunctionalForm))
@pytest.mark.parametrize("name", list(SCALE_CASES))
def test_weights_scaled_by_a_power_of_two_scale_the_bound_exactly(name, form):
    """The saturation tolerance scales with the weights, so no verdict depends on their scale."""
    base = SCALE_CASES[name]
    functional = BellFunctional(base.scenario, base.terms(), form, base.cached_bound)
    result = classical_bound(functional)
    report = facet_check(functional) if form is FunctionalForm.REAL_PART else None
    for k in (-900, -40, -1, 1, 40, 900):
        scaled = functional.rescaled(2.0**k)
        found = classical_bound(scaled)
        assert found.bound == result.bound * 2.0**k
        assert np.array_equal(found.saturating, result.saturating)
        if report is not None:
            assert facet_check(scaled) == replace(report, bound=report.bound * 2.0**k)
