import cmath
import itertools
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.stats import qmc  # the oracle for _sobol_points only; bellkit never imports it

from bellkit import (
    BellFunctional,
    FunctionalForm,
    GTable,
    OptimizationConfig,
    Pairing,
    Scenario,
    build_functional,
    classical_bound,
    fourier_party_basis,
    maximize_violation,
    maximize_with_fixed_state,
    product_g_functional,
    quantum_functional_value,
)
from bellkit.bases import apply_form
from bellkit.specdoc import serialize_opt_result
from bellkit.cglmp import cglmp_correlation_functional, i323_functional
from bellkit.optimize import (
    OVERRELAXATION,
    SOBOL_BITS,
    ScanRow,
    _MultiportObjective,
    _child_seed,
    _direction_numbers,
    _eigh,
    _eigh_stack,
    _ghz_support,
    _hermitian_part,
    _quadratic,
    _recentred,
    _refine_leaders,
    _search,
    _seesaw,
    _sobol_points,
    _state_column,
    _sweep,
    _symmetric_orbits,
    _update_phases,
    coset_support,
    scan_product_g,
    symmetric_g_search,
)


def chsh():
    sc = Scenario(2, 2, 2)
    return BellFunctional.from_coefficients(
        sc, np.array([[1.0, 1.0], [1.0, -1.0]]), FunctionalForm.REAL_PART, cached_bound=2.0
    )


def reweighted(functional, seed):
    """The functional's term structure with random complex weights."""
    rng = np.random.default_rng(seed)
    return BellFunctional(
        functional.scenario,
        [(x, r, complex(*rng.normal(size=2))) for x, r, _ in functional.terms()],
        functional.form,
    )


def assert_same_result(got, want):
    for field in ("quantum_value", "classical_bound", "ratio", "restart_index", "iterations",
                  "restart_values", "restart_iterations"):
        assert getattr(got, field) == getattr(want, field), field
    assert np.array_equal(got.setup.amplitudes, want.setup.amplitudes)
    assert np.array_equal(got.setup.phases, want.setup.phases)


def test_chsh_reaches_tsirelson():
    result = maximize_violation(chsh(), OptimizationConfig(restarts=8, seed=1))
    assert result.quantum_value == pytest.approx(2 * np.sqrt(2), abs=1e-6)
    assert result.ratio == pytest.approx(np.sqrt(2), abs=1e-6)


def test_product_g_223_has_no_violation():
    for form in (FunctionalForm.REAL_PART, FunctionalForm.MODULUS):
        functional = product_g_functional(2, 3, form)
        result = maximize_violation(functional, OptimizationConfig(restarts=8, seed=2))
        assert result.ratio == pytest.approx(1.0, abs=1e-3)


def test_reported_value_reproducible_from_setup():
    functional = cglmp_correlation_functional()
    result = maximize_violation(functional, OptimizationConfig(restarts=8, seed=3))
    replayed = quantum_functional_value(functional, result.setup, path="born")
    assert abs(replayed - result.quantum_value) < 1e-9
    fast = quantum_functional_value(functional, result.setup, path="fast")
    assert abs(fast - result.quantum_value) < 1e-9
    # the qutrit correlation functional is violated up to about 1.436 * 3
    assert result.quantum_value > 3.0 + 0.1


def test_repeat_runs_are_identical():
    functional = cglmp_correlation_functional()
    base = OptimizationConfig(restarts=6, seed=11)
    first = maximize_violation(functional, base)
    second = maximize_violation(functional, base)
    assert second.quantum_value == first.quantum_value
    assert second.restart_index == first.restart_index
    assert second.restart_values == first.restart_values
    assert np.array_equal(second.setup.amplitudes, first.setup.amplitudes)
    assert np.array_equal(second.setup.phases, first.setup.phases)
    # the same search as one row group of a larger batch
    batched = _search([(functional, 11, None), (reweighted(functional, 3), 5, None)], base)[0]
    assert_same_result(batched, first)


def test_top_eigenvectors_solve_each_matrix_when_the_stack_fails(monkeypatch):
    rng = np.random.default_rng(29)
    raw = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
    stack = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
    values, vectors = _eigh_stack(stack)
    for i, h in enumerate(stack):
        alone = _eigh(h)
        assert np.array_equal(values[i], alone[0]) and np.array_equal(vectors[i], alone[1])
    solve = np.linalg.eigh

    def fails_on_stacks_and_on_matrix_2(h, *args, **kwargs):
        if h.ndim > 2 or np.array_equal(h, stack[2]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", fails_on_stacks_and_on_matrix_2)
    fallback_values, fallback = _eigh_stack(stack)
    for i in (0, 1, 3, 4):
        assert np.array_equal(fallback_values[i], values[i])
        assert np.array_equal(fallback[i], vectors[i])
    assert np.allclose(fallback_values[2], np.linalg.eigvalsh(stack[2]), rtol=0, atol=1e-10)
    assert np.linalg.norm(stack[2] @ fallback[2] - fallback[2] * fallback_values[2]) < 1e-10
    assert abs(abs(np.vdot(vectors[2][:, -1], fallback[2][:, -1])) - 1.0) < 1e-10


def test_top_eigenvector_falls_back_when_eigh_fails(monkeypatch):
    rng = np.random.default_rng(19)
    raw = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = 0.5 * (raw + raw.conj().T)
    direct = _eigh(h)[1][:, -1]

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    values, vectors = _eigh(h)
    assert np.allclose(values, np.linalg.eigvalsh(h), rtol=0, atol=1e-10)
    assert np.linalg.norm(h @ vectors - vectors * values) < 1e-10
    assert abs(abs(np.vdot(direct, vectors[:, -1])) - 1.0) < 1e-10


def test_restart_prefix_monotonicity():
    functional = cglmp_correlation_functional()
    small = maximize_violation(functional, OptimizationConfig(restarts=3, seed=5))
    large = maximize_violation(functional, OptimizationConfig(restarts=6, seed=5))
    assert large.restart_values[:3] == small.restart_values
    assert large.quantum_value >= small.quantum_value - 1e-12


def test_never_below_classical():
    for functional in (chsh(), cglmp_correlation_functional()):
        result = maximize_violation(functional, OptimizationConfig(restarts=6, seed=7))
        assert result.quantum_value >= result.classical_bound - 1e-6


def test_absent_ratio_for_zero_bound():
    sc = Scenario(1, 1, 2)
    functional = BellFunctional.from_coefficients(sc, np.array([1j]), FunctionalForm.REAL_PART)
    assert classical_bound(functional).bound == pytest.approx(0.0, abs=1e-12)
    result = maximize_violation(functional, OptimizationConfig(restarts=3, seed=1))
    assert result.ratio is None
    assert result.quantum_value == pytest.approx(0.0, abs=1e-9)


def test_fixed_state_chsh():
    sc = Scenario(2, 2, 2)
    bell_state = np.array([[1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2)
    result = maximize_with_fixed_state(chsh(), bell_state, OptimizationConfig(restarts=6, seed=9))
    assert result.quantum_value == pytest.approx(2 * np.sqrt(2), abs=1e-6)
    assert np.allclose(np.abs(result.setup.amplitudes), np.abs(bell_state) , atol=1e-12)


@pytest.mark.parametrize("name, make", [
    ("cglmp-corr", cglmp_correlation_functional),
    ("product-g 323 modulus", lambda: product_g_functional(3, 3, FunctionalForm.MODULUS)),
])
def test_fixed_state_recovers_the_full_optimum(name, make):
    functional = make()
    config = OptimizationConfig(restarts=4, seed=7)
    full = maximize_violation(functional, config)
    fixed = maximize_with_fixed_state(functional, full.setup.amplitudes, config,
                                      beta=full.classical_bound)
    assert abs(fixed.quantum_value - full.quantum_value) < 1e-6, name


@pytest.mark.parametrize("name, amplitudes", [
    ("zero", np.zeros((3, 3, 3))),
    ("nan", np.where(np.arange(27).reshape(3, 3, 3) == 4, np.nan, 1.0)),
    ("8 amplitudes", np.ones(8)),
    ("81 amplitudes", np.ones(81)),
])
def test_fixed_state_rejects_bad_amplitudes(name, amplitudes):
    with pytest.raises(ValueError, match="amplitudes"):
        maximize_with_fixed_state(i323_functional(), amplitudes,
                                  OptimizationConfig(restarts=1), beta=3.0)


@pytest.mark.parametrize("field, value", [
    ("restarts", 2.5),
    ("restarts", True),
    ("restarts", 3.0),
    ("restarts", "4"),
    ("restarts", 0),
    ("restarts", 2**30 + 1),
    ("seed", -1),
    ("seed", 2.5),
    ("seed", True),
    ("seed", None),
    ("seed", "1"),
])
def test_config_rejects_bad_counts(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizationConfig(**{field: value})


def test_config_accepts_integer_counts():
    config = OptimizationConfig(restarts=np.int64(3), seed=np.uint32(7))
    assert config.restarts == 3 and config.seed == 7
    assert OptimizationConfig(seed=0).seed == 0
    # the whole 30-bit Sobol stream; building the config starts no search
    assert OptimizationConfig(restarts=2**30).restarts == 2**30


@pytest.mark.parametrize("argument, value", [
    ("coarse_restarts", 0),
    ("coarse_restarts", -2),
    ("coarse_restarts", 1.5),
    ("coarse_restarts", True),
    ("refine_top", -1),
    ("refine_top", 2.0),
    ("refine_top", None),
])
def test_symmetric_g_search_rejects_bad_arguments_before_searching(monkeypatch, argument, value):
    import bellkit.optimize as optimize

    def no_search(*args, **kwargs):
        raise AssertionError("a search ran before the arguments were checked")

    monkeypatch.setattr(optimize, "maximize_violation", no_search)
    monkeypatch.setattr(optimize, "_search", no_search)
    monkeypatch.setattr(optimize, "classical_bound", no_search)
    with pytest.raises(ValueError, match=argument):
        symmetric_g_search(FunctionalForm.MODULUS, OptimizationConfig(restarts=1),
                           **{argument: value})


def test_symmetric_g_single_target():
    # the best-known real-part table on two qutrits with three settings
    sc = Scenario(2, 3, 3)
    g = GTable.from_function(sc, lambda x, y: int(x != 0) * int(y != 0))
    functional = build_functional(sc, fourier_party_basis(3), g, FunctionalForm.REAL_PART)
    beta = classical_bound(functional).bound
    result = maximize_violation(functional, OptimizationConfig(restarts=16, seed=13), beta=beta)
    assert result.ratio == pytest.approx(1.167, abs=0.006)


def symmetric_g_tables() -> list[np.ndarray]:
    """The 729 symmetric tables on (2, 3, 3), upper triangles in itertools.product order."""
    rows, cols = np.triu_indices(3)
    tables = []
    for values in itertools.product(range(3), repeat=len(rows)):
        table = np.zeros((3, 3), dtype=np.int64)
        table[rows, cols] = table[cols, rows] = values
        tables.append(table)
    return tables


def g_orbit(table: np.ndarray, form: FunctionalForm) -> set[tuple[int, ...]]:
    """The oracle: one table's orbit, from np.roll images of the table and its flip."""
    d = len(table)
    table = np.asarray(table) % d
    axes = tuple(range(table.ndim))
    flipped = (-table[np.ix_(*[(-np.arange(s)) % s for s in table.shape])]) % d
    shifts = range(d) if form is FunctionalForm.MODULUS else (0,)
    return {
        tuple(((np.roll(t, c, axis=axes) + s) % d).ravel().tolist())
        for t in (table, flipped)
        for c in range(table.shape[0])
        for s in shifts
    }


def orbits_of(form: FunctionalForm) -> dict[tuple[int, ...], set[tuple[int, ...]]]:
    """Each representative of _symmetric_orbits to its members."""
    orbits: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for member, representative in _symmetric_orbits(form).items():
        orbits.setdefault(representative, set()).add(member)
    return orbits


@pytest.mark.parametrize("form, count", [(FunctionalForm.REAL_PART, 129),
                                         (FunctionalForm.MODULUS, 48)])
def test_symmetric_orbits_match_the_per_table_oracle(form, count):
    assigned: dict[tuple[int, ...], tuple[int, ...]] = {}
    for table in symmetric_g_tables():
        if tuple(table.ravel().tolist()) not in assigned:
            orbit = g_orbit(table, form)
            assigned.update(dict.fromkeys(orbit, min(orbit)))
    mapping = _symmetric_orbits(form)
    assert mapping == assigned
    assert len(set(mapping.values())) == count


def test_g_orbit_members_share_classical_bounds():
    sc = Scenario(2, 3, 3)
    basis = fourier_party_basis(3)
    rng = np.random.default_rng(3)
    tables = symmetric_g_tables()
    for _ in range(6):
        table = tuple(tables[rng.integers(0, len(tables))].ravel().tolist())
        for form in (FunctionalForm.REAL_PART, FunctionalForm.MODULUS):
            mapping = _symmetric_orbits(form)
            orbit = {member for member, least in mapping.items() if least == mapping[table]}
            bounds = set()
            for member in sorted(orbit)[:8]:
                g = GTable(sc, np.asarray(member).reshape(3, 3))
                functional = build_functional(sc, basis, g, form)
                bounds.add(round(classical_bound(functional).bound, 9))
            assert len(bounds) == 1, f"orbit of {table} mixes bounds {bounds}"


def test_g_orbit_is_the_closed_orbit_of_its_table():
    d = 3

    def generators(table, form):
        yield np.roll(table, 1, axis=(0, 1))
        yield (-table[np.ix_(*[(-np.arange(s)) % s for s in table.shape])]) % d
        if form is FunctionalForm.MODULUS:
            yield (table + 1) % d

    for form in (FunctionalForm.REAL_PART, FunctionalForm.MODULUS):
        for representative, orbit in orbits_of(form).items():
            assert representative == min(orbit)
            # the closure of the representative under the generators is the orbit
            closure, frontier = {representative}, [representative]
            while frontier:
                member = np.asarray(frontier.pop()).reshape(3, 3)
                for image in generators(member, form):
                    key = tuple(image.ravel().tolist())
                    assert key in orbit
                    if key not in closure:
                        closure.add(key)
                        frontier.append(key)
            assert closure == orbit


@pytest.mark.parametrize("form", [FunctionalForm.REAL_PART, FunctionalForm.MODULUS])
def test_symmetric_g_search_best_is_the_first_ranked_table(form):
    result = symmetric_g_search(form, OptimizationConfig(restarts=1, seed=5),
                                coarse_restarts=1, refine_top=1)
    key, ratio = result.ranking[0]
    assert _symmetric_orbits(form)[key] == key
    assert result.best.ratio == ratio
    sc = Scenario(2, 3, 3)
    functional = build_functional(sc, fourier_party_basis(3),
                                  GTable(sc, np.asarray(key).reshape(3, 3)), form)
    assert result.best.classical_bound == classical_bound(functional).bound
    assert result.best.quantum_value == quantum_functional_value(functional, result.best.setup,
                                                                 path="born")


def test_scan_refuses_over_budget_rows_before_building(monkeypatch):
    import bellkit.optimize as optimize

    def unbuildable(*args, **kwargs):
        raise AssertionError("the functional was built before the budget check")

    monkeypatch.setattr(optimize, "product_g_functional", unbuildable)
    (row,) = scan_product_g([(20, 2, 2)], OptimizationConfig(restarts=1))
    assert row.error == (
        "enumeration needs 1099511627776 strategies, beyond the budget of 100000000"
    )


def test_scan_handles_bad_rows_and_continues():
    rows = scan_product_g(
        [(2, 3, 3), (2, 2, 2)], OptimizationConfig(restarts=4, seed=1)
    )
    assert rows[0].error is not None
    assert rows[1].error is None
    assert rows[1].ratio_re == pytest.approx(np.sqrt(2), abs=1e-3)


def scipy_sobol_points(seed, count, dims):
    size = 1 << int(count - 1).bit_length()
    return qmc.Sobol(d=dims, scramble=True, seed=seed).random(size)[:count] * 2 * np.pi


sobol_seeds = st.one_of(
    st.integers(0, 2**64 + 1),
    st.integers(0, 2**32 - 1).map(np.uint32),
    st.builds(_child_seed, st.integers(0, 2**32), st.integers(0, 60)),
)


@settings(max_examples=150, deadline=None)
@given(seed=sobol_seeds, count=st.integers(1, 300) | st.integers(1, 300).map(np.int64),
       dims=st.integers(1, 80))
def test_sobol_points_match_scipy(seed, count, dims):
    assert np.array_equal(_sobol_points(seed, count, dims), scipy_sobol_points(seed, count, dims))


def test_sobol_points_cover_the_direction_table():
    last = qmc.Sobol.MAXDIM
    assert np.array_equal(_sobol_points(5, 1, last), scipy_sobol_points(5, 1, last))
    with pytest.raises(ValueError):
        qmc.Sobol(d=last + 1, scramble=True, seed=5)
    with pytest.raises(ValueError, match="dimensions"):
        _sobol_points(5, 1, last + 1)


def test_sobol_points_match_scipy_at_the_last_dimension():
    # 64 points scramble the first six direction numbers of every dimension
    last = qmc.Sobol.MAXDIM
    assert np.array_equal(_sobol_points(7, 64, last), scipy_sobol_points(7, 64, last))


def bratley_fox_directions(poly: np.ndarray, vinit: np.ndarray) -> np.ndarray:
    """Direction numbers from primitive polynomials and initial numbers, shifted like bellkit's.

    Dimension 0 is all ones; dimension i of degree m = bit_length(poly[i]) - 1
    takes its first m numbers from vinit and the rest from the Bratley-Fox
    recurrence v[j] = v[j-m] ^ XOR_k a_k (v[j-k-1] << (k+1)) over the bits a_k
    of poly[i], in uint32 like scipy; column j is then shifted by 29 - j.
    """
    dims = len(poly)
    poly = poly.astype(np.uint32)
    degree = np.frexp(poly)[1] - 1
    taps = np.arange(vinit.shape[1])
    # the term v[j-k-1] << (k+1) enters where bit m-1-k of poly is set, for k < m
    active = (taps < degree[:, None]) & (
        (poly[:, None] >> np.maximum(degree[:, None] - 1 - taps, 0)) & 1 == 1)
    shifts = (taps + 1).astype(np.uint32)
    v = np.zeros((dims, SOBOL_BITS), dtype=np.uint32)
    v[:, :vinit.shape[1]] = vinit
    v[0] = 1
    rows = np.arange(dims)
    for j in range(1, SOBOL_BITS):
        recurring = (degree > 0) & (degree <= j)
        earlier = v[:, np.maximum(j - 1 - taps, 0)] << shifts
        step = v[rows, np.maximum(j - degree, 0)] ^ np.bitwise_xor.reduce(
            np.where(active, earlier, 0), axis=1)
        v[recurring, j] = step[recurring]
    return v << (SOBOL_BITS - 1 - np.arange(SOBOL_BITS, dtype=np.uint32))


def test_shipped_direction_table_is_scipys_joe_kuo_table():
    path = Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz"
    with np.load(path) as table:
        expected = bratley_fox_directions(table["poly"], table["vinit"])
    shipped = _direction_numbers(qmc.Sobol.MAXDIM)
    assert expected.shape == (21201, SOBOL_BITS)
    assert shipped.dtype == np.uint32 and shipped.flags.c_contiguous
    assert not shipped.flags.writeable
    assert np.array_equal(shipped, expected)


def test_child_seed_stability():
    assert _child_seed(0, 1) == _child_seed(0, 1)
    assert _child_seed(0, 1) != _child_seed(0, 2)


def d4_half_shift_functional():
    """Two parties, d = 4, with mask entries 2 (where c + 2 = c - 2) and 0 mixed in."""
    rng = np.random.default_rng(41)
    masks = [(2, 1), (1, 2), (2, 2), (0, 3), (3, 0), (2, 3)]
    terms = [((x, y), mask, complex(*rng.normal(size=2)))
             for x in range(2) for y in range(2) for mask in masks[x + 2 * y: x + 2 * y + 3]]
    return BellFunctional(Scenario(2, 2, 4), terms)


KERNEL_CASES = [
    ("i323", i323_functional),
    ("product-g (3,2,3) modulus", lambda: product_g_functional(3, 3, FunctionalForm.MODULUS)),
    ("d4 half shift", d4_half_shift_functional),
]


def random_points(objective, rng, count):
    """count random phase stacks and unit states on the objective's support (or its fixed state)."""
    sc = objective.scenario
    phases = rng.uniform(0, 2 * np.pi, size=(count, sc.parties, sc.settings, sc.outcomes))
    if objective.fixed is not None:
        return phases, np.tile(objective.fixed, (count, 1))
    size = len(objective.support)
    blocks = rng.normal(size=(count, size)) + 1j * rng.normal(size=(count, size))
    return phases, blocks / np.linalg.norm(blocks, axis=1, keepdims=True)


STATE_KINDS = ["full", "coset", "ghz", "fixed"]


def objective_of_kind(functionals, kind, rng):
    """The objective on the whole space, on H, on the GHZ span, or with a fixed random state."""
    sc = functionals[0].scenario
    if kind == "full":
        return _MultiportObjective(functionals, support=np.arange(sc.outcomes ** sc.parties))
    if kind == "coset":
        return _MultiportObjective(functionals, support=coset_support(functionals[0]))
    if kind == "ghz":
        return _MultiportObjective(functionals, support=_ghz_support(sc))
    shape = (sc.outcomes,) * sc.parties
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    support, fixed = _state_column(sc, state)
    return _MultiportObjective(functionals, support=support, fixed=fixed)


def kinds_for(functional):
    sc = functional.scenario
    # the GHZ family is defined for three qutrits
    return [kind for kind in STATE_KINDS if kind != "ghz" or (sc.parties, sc.outcomes) == (3, 3)]


def probe_fit(objective, phases, state, weights, p, x, c):
    """(A, B, C) of total = A e^(i*phi) + B e^(-i*phi) + C from three reference pair totals."""
    probed = phases.copy()
    totals = []
    for offset in (0.0, np.pi / 2, np.pi):
        probed[p, x, c] = offset
        totals.append(objective.pair_total(probed, state, weights))
    const = 0.5 * (totals[0] + totals[2])
    a = 0.5 * ((totals[0] - const) + (totals[1] - const) / 1j)
    b = 0.5 * ((totals[0] - const) - (totals[1] - const) / 1j)
    return a, b, const


@pytest.mark.parametrize("name, make", KERNEL_CASES)
def test_environment_coefficients_match_probe_fit(name, make):
    functional = make()
    functionals = [functional, reweighted(functional, 5)]
    rng = np.random.default_rng(17)
    owners = np.array([0, 1, 0])
    for kind in kinds_for(functional):
        objective = objective_of_kind(functionals, kind, rng)
        sc = objective.scenario
        weights = objective.weights[owners]
        phases, blocks = random_points(objective, rng, len(owners))
        products = objective.state_products(blocks)
        u = objective.phase_factors(phases)
        factors = objective.support_factors(u)
        for p in range(sc.parties):
            env = objective.environment(factors, products, weights, p)
            sums = objective.shift_sums(env, p)
            for row in range(len(owners)):
                state = objective.scatter(blocks[row])
                reference_total = objective.pair_total(phases[row], state, weights[row])
                total = complex(np.sum(env[row] * u[row, :, p]))
                assert abs(total - reference_total) < 1e-12, (name, kind)
                for x in range(sc.settings):
                    f = np.exp(1j * phases[row, p, x])
                    for c in range(sc.outcomes):
                        # A = sum_s E_s[c] conj(f[c + s]), B = sum_s E_s[c - s] f[c - s]
                        a = sum(sums[row, g, c] * f[plus[c]].conj()
                                for g, plus, _ in objective.shift_groups[p][x])
                        b = sum(sums[row, g, minus[c]] * f[minus[c]]
                                for g, _, minus in objective.shift_groups[p][x])
                        const = total - a * f[c] - b / f[c]
                        want = probe_fit(objective, phases[row], state, weights[row], p, x, c)
                        assert np.allclose((a, b, const), want, rtol=0, atol=1e-12), \
                            (name, kind, p, x, c)


@pytest.mark.parametrize("name, make", KERNEL_CASES)
def test_sweep_never_lowers_the_objective(name, make):
    functional = make()
    functionals = [functional, reweighted(functional, 7)]
    rng = np.random.default_rng(23)
    count = 5
    owners = np.array([0, 1, 0, 1, 0])
    for kind in kinds_for(functional):
        objective = objective_of_kind(functionals, kind, rng)
        weights = objective.weights[owners]
        phases, blocks = random_points(objective, rng, count)
        phases[:, :, :, 0] = 0.0
        states = [objective.scatter(block) for block in blocks]
        before = [objective.pair_total(phases[i], states[i], weights[i]) for i in range(count)]
        theta = -np.angle(before) if objective.is_modulus else np.zeros(count)
        u = objective.phase_factors(phases)
        swept, _ = _sweep(objective, phases, u, objective.support_factors(u),
                          objective.state_products(blocks), theta, weights)
        for i in range(count):
            assert swept[i] >= apply_form(functional.form, before[i]) - 1e-12, (name, kind)
            after = objective.pair_total(phases[i], states[i], weights[i])
            assert abs(swept[i] - apply_form(functional.form, after)) < 1e-12, (name, kind)


# every moved phase lies in [-omega*pi, omega*pi]; the slack covers the last bit of omega*pi
PHASE_LIMIT = OVERRELAXATION * np.pi + 1e-12


def gained(total, theta, new_total, modulus):
    """The rise of Re[e^(i*theta) * total] over one call, |total| after it for a modulus row."""
    after = abs(new_total) if modulus else new_total.real
    return after - (cmath.exp(1j * theta) * total).real


@pytest.mark.parametrize("modulus", [False, True])
@pytest.mark.parametrize("name, make", KERNEL_CASES)
def test_update_phases_is_monotone_and_keeps_phases_bounded(name, make, modulus):
    objective = _MultiportObjective([make()], coset_support(make()))
    sc = objective.scenario
    rng = np.random.default_rng(43)
    for _ in range(20):
        for p in range(sc.parties):
            groups, size = objective.shift_groups[p], (len(objective.shift_masks[p]), sc.outcomes)
            sums = (rng.normal(size=size) + 1j * rng.normal(size=size)).tolist()
            start = rng.uniform(0, 2 * np.pi, size=(sc.settings, sc.outcomes))
            start[:, 0] = 0.0
            rows = start.tolist()
            total = complex(*rng.normal(size=2))
            theta = -cmath.phase(total) if modulus else 0.0
            new_total, new_theta = _update_phases(rows, sums, groups, total, theta, modulus)
            assert gained(total, theta, new_total, modulus) >= -1e-12, (name, p)
            assert np.all(np.abs(np.array(rows)[:, 1:]) <= PHASE_LIMIT), (name, p, rows)
            assert np.array_equal(np.array(rows)[:, 0], start[:, 0])
            assert new_theta == (-cmath.phase(new_total) if modulus else 0.0)

            # z = 0 for every phase: nothing moves
            zeros = np.zeros(size, dtype=complex).tolist()
            rows = start.tolist()
            assert _update_phases(rows, zeros, groups, total, theta, modulus) == (total, theta)
            assert rows == start.tolist()


@pytest.mark.parametrize("modulus", [False, True])
@pytest.mark.parametrize("start", [np.pi, -np.pi])
def test_update_phases_over_relaxes_a_half_turn(start, modulus):
    # one setting of d = 2 and one shift group with E = (0, 1): the total is
    # e^(i*phi_1) + 2, maximized at phi* = 0, and phi_1 = +-pi is a half turn away
    rows, sums, groups = [[0.0, start]], [[0j, 1 + 0j]], [[(0, [1, 0], [1, 0])]]
    total = cmath.exp(1j * start) + 2
    theta = -cmath.phase(total) if modulus else 0.0
    new_total, _ = _update_phases(rows, sums, groups, total, theta, modulus)
    # past phi* by (omega - 1) pi, on whichever side the wrapped step points
    assert abs(abs(rows[0][1]) - (OVERRELAXATION - 1) * np.pi) < 1e-12
    assert abs(new_total - (cmath.exp(1j * rows[0][1]) + 2)) < 1e-12
    assert gained(total, theta, new_total, modulus) > 1.5


def test_large_d_search_is_pinned():
    # product-g (2,2,10), real part: the exact phase step (omega = 1) took
    # 1,348 sweeps over these 8 restarts and reached R = 0.999999997385
    result = maximize_violation(product_g_functional(2, 10, FunctionalForm.REAL_PART),
                                OptimizationConfig(restarts=8, seed=1))
    assert sum(result.restart_iterations) == 495
    assert result.ratio == pytest.approx(0.999999998898, abs=1e-12)


def run_rows(objective, owners, starts, sizes):
    """_seesaw over consecutive batches of the given sizes, outputs joined in row order."""
    parts, begin = [], 0
    for size in sizes:
        parts.append(_seesaw(objective, owners[begin:begin + size], starts[begin:begin + size]))
        begin += size
    return [np.concatenate([part[i] for part in parts]) for i in range(4)]


@pytest.mark.parametrize("name, make", KERNEL_CASES)
def test_seesaw_rows_do_not_depend_on_their_batch(name, make):
    functional = make()
    functionals = [functional, reweighted(functional, 3), reweighted(functional, 4)]
    rng = np.random.default_rng(31)
    rows = 12
    for kind in kinds_for(functional):
        objective = objective_of_kind(functionals, kind, rng)
        sc = objective.scenario
        owners = rng.integers(0, len(functionals), size=rows)
        starts = rng.uniform(0, 2 * np.pi, size=(rows, sc.parties, sc.settings, sc.outcomes))
        whole = run_rows(objective, owners, starts, [rows])
        for sizes in ([1] * rows, [7, rows - 7]):
            # values, phases, states and iterations, bit for bit
            for got, want in zip(run_rows(objective, owners, starts, sizes), whole):
                assert np.array_equal(got, want), (name, kind, sizes)


@pytest.mark.parametrize("name, make", KERNEL_CASES)
def test_carried_factors_match_fresh_ones(name, make, monkeypatch):
    import bellkit.optimize as optimize

    functional = make()
    functionals = [functional, reweighted(functional, 9)]
    rng = np.random.default_rng(37)
    rows = 8
    sweep, sizes = optimize._sweep, []

    def checked(objective, phases, u, factors, *rest):
        result = sweep(objective, phases, u, factors, *rest)
        # bit for bit the factors a fresh evaluation of the swept phases gives
        fresh = objective.phase_factors(phases)
        assert np.array_equal(u, fresh), (name, kind)
        assert np.array_equal(factors, objective.support_factors(fresh)), (name, kind)
        sizes.append(len(phases))
        return result

    monkeypatch.setattr(optimize, "_sweep", checked)
    for kind in kinds_for(functional):
        objective = objective_of_kind(functionals, kind, rng)
        sc = objective.scenario
        owners = rng.integers(0, len(functionals), size=rows)
        starts = rng.uniform(0, 2 * np.pi, size=(rows, sc.parties, sc.settings, sc.outcomes))
        sizes.clear()
        _seesaw(objective, owners, starts)
        # the checks ran on the whole batch and again after rows retired
        assert sizes[0] == rows and min(sizes) < rows, (name, kind, sizes)


def fixed_point_recentred(g, theta, rounds=8):
    """The rotation re-centring the Newton ascent replaced, kept as its oracle.

    Each round takes the top eigenvector s of H(theta) and moves theta to
    -arg(s* G s), until theta moves by less than 1e-12, s* G s = 0, or after
    rounds rounds.  Returns the last round's states, the rotations, the values
    |s* G s| and which rows settled (stopped before the cap with s* G s != 0).
    """
    theta = theta.copy()
    states, total = np.empty(g.shape[:2], dtype=complex), np.zeros(len(g), dtype=complex)
    settled_rows = np.zeros(len(g), dtype=bool)
    live = np.arange(len(g))
    for _ in range(rounds):
        g_live, theta_live = g[live], theta[live]
        rotated = _hermitian_part(g_live, np.exp(1j * theta_live))
        states[live] = vectors = np.linalg.eigh(rotated)[1][:, :, -1]
        total[live] = sums = _quadratic(g_live, vectors)
        next_theta = -np.angle(sums)
        settled = np.abs((next_theta - theta_live + np.pi) % (2 * np.pi) - np.pi) < 1e-12
        theta[live] = np.where(sums != 0, next_theta, theta_live)
        settled_rows[live[settled & (sums != 0)]] = True
        live = live[(sums != 0) & ~settled]
        if not live.size:
            break
    return states, theta, np.abs(total), settled_rows


def random_g_stack(rng, count, size):
    """count random complex (size, size) matrices: dense, sparse or near-Hermitian; some zero."""
    g = rng.normal(size=(count, size, size)) + 1j * rng.normal(size=(count, size, size))
    kind = rng.integers(3)
    if kind == 1:
        g *= rng.random(size=g.shape) < 0.4
    elif kind == 2:
        g += 3 * np.exp(1j * rng.uniform(0, 2 * np.pi)) * (g + g.conj().transpose(0, 2, 1))
    g[rng.random(count) < 0.15] = 0
    return g


def test_newton_recentring_against_the_fixed_point_oracle(monkeypatch):
    solved = {}  # matrices each refresh solves, from the same starts

    def counted(name, refresh, *args):
        eigh = np.linalg.eigh

        def counting(h):
            solved[name] = solved.get(name, 0) + len(h)
            return eigh(h)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", counting)
            return refresh(*args)

    rng = np.random.default_rng(43)
    settled_count = 0
    for trial in range(400):
        size, count = rng.integers(1, 10), rng.integers(1, 9)
        g = random_g_stack(rng, count, size)
        # from an arbitrary rotation a Newton step can cross to another local
        # maximum of lambda_max(H(theta)), higher or lower than the oracle's, so
        # the two must agree only from the starts a seesaw makes: the states
        # of a refresh at a nearby G, theta re-centred on them as
        # refreshed_states does
        seesaw_like = trial % 2 == 0
        if seesaw_like:
            moved = g + rng.choice([0.01, 0.1]) * (g != 0) * (
                rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
            states = fixed_point_recentred(moved, rng.uniform(-np.pi, np.pi, count))[0]
            total = _quadratic(g, states)
            theta = np.where(total != 0, -np.angle(total), rng.uniform(-np.pi, np.pi, count))
        else:
            theta = rng.uniform(-np.pi, np.pi, count)
        first = fixed_point_recentred(g, theta, rounds=1)[2]
        oracle_value, settled = counted("oracle", fixed_point_recentred, g, theta)[2:]
        states, new_theta, value = counted("newton", _recentred, g, theta)
        # the best round is kept, and the first round is the oracle's first eigensolve
        assert np.all(value >= first), trial
        # the returned state, rotation and value belong together
        total = _quadratic(g, states)
        assert np.allclose(value, np.abs(total), rtol=1e-12, atol=0), trial
        live = total != 0
        turn = (new_theta[live] + np.angle(total[live]) + np.pi) % (2 * np.pi) - np.pi
        assert np.all(np.abs(turn) < 1e-12), trial
        # a zero G is refreshed to value 0 and keeps its rotation
        zero = ~g.reshape(count, -1).any(axis=1)
        assert np.array_equal(new_theta[zero], theta[zero]) and not value[zero].any(), trial
        if seesaw_like:
            # where the oracle settles, the ascent ends on the same maximum, at a
            # rotation the oracle's step keeps (on a plateau of lambda_max the two
            # rotations may differ)
            assert np.allclose(value[settled], oracle_value[settled], rtol=1e-12, atol=0), trial
            kept = fixed_point_recentred(g, new_theta, rounds=1)[1]
            turn = (kept - new_theta + np.pi) % (2 * np.pi) - np.pi
            assert np.all(np.abs(turn[settled]) < 1e-8), trial
            settled_count += settled.sum()
    assert settled_count > 300
    # quadratic convergence: under three quarters of the oracle's eigensolves
    assert solved["newton"] < 0.75 * solved["oracle"], solved


@pytest.mark.parametrize("n, d", [(2, 4), (2, 6), (3, 3)])
@pytest.mark.parametrize("form", list(FunctionalForm))
def test_reported_restart_value_is_the_born_value_of_the_setup(n, d, form):
    functional = product_g_functional(n, d, form)
    for seed in range(1, 5):
        result = maximize_violation(functional, OptimizationConfig(restarts=3, seed=seed))
        reported = result.restart_values[result.restart_index]
        assert abs(reported - result.quantum_value) <= 1e-12 * abs(result.quantum_value), seed


def test_coarse_batch_matches_single_searches():
    sc = Scenario(2, 3, 3)
    tables = sorted(set(_symmetric_orbits(FunctionalForm.MODULUS).values()))
    jobs = []
    for index, key in enumerate(tables):
        g = GTable(sc, np.asarray(key).reshape(3, 3))
        functional = build_functional(sc, fourier_party_basis(3), g, FunctionalForm.MODULUS,
                                      Pairing.BILINEAR)
        jobs.append((functional, _child_seed(17, index), classical_bound(functional).bound))
    assert len(jobs) == 48
    config = OptimizationConfig(restarts=2, seed=17)
    whole = _search(jobs, config)
    chunked = [result for begin in range(0, len(jobs), 7)
               for result in _search(jobs[begin:begin + 7], config)]
    for (functional, seed, beta), got, in_chunks in zip(jobs, whole, chunked):
        single = maximize_violation(functional, OptimizationConfig(restarts=2, seed=seed), beta)
        assert_same_result(got, single)
        assert_same_result(in_chunks, single)


def test_restart_iterations_show_the_cap(monkeypatch):
    import bellkit.optimize as optimize

    functional = i323_functional()
    config = OptimizationConfig(restarts=4, seed=31)
    free = maximize_violation(functional, config, beta=3.0)
    assert len(free.restart_iterations) == 4
    assert free.iterations == free.restart_iterations[free.restart_index]
    cap = min(free.restart_iterations) + 1
    assert max(free.restart_iterations) > cap
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", cap)
    capped = maximize_violation(functional, config, beta=3.0)
    assert capped.restart_iterations == tuple(min(n, cap) for n in free.restart_iterations)
    assert serialize_opt_result(capped)["restart_iterations"] == list(capped.restart_iterations)


def test_refine_leaders_ignore_last_bit_jitter():
    rng = np.random.default_rng(43)
    keys = [tuple(rng.integers(0, 3, size=9).tolist()) for _ in range(30)]
    # three plateaus of ratios that agree to about 1e-8, some of them exactly, plus distinct ones
    plateaus = [1.0482193425, 1.0471, 1.0]
    noise = rng.uniform(-1e-8, 1e-8, size=12)
    ratios = {key: plateaus[i % 3] + noise[i % 12] if i < 24 else 0.9 + 0.001 * i
              for i, key in enumerate(keys)}
    leaders = _refine_leaders(ratios, 10)
    assert [ratios[key] > 1.048 for key in leaders] == [True] * 8 + [False] * 2
    for trial in range(20):
        jitter = np.random.default_rng(trial).uniform(-1e-12, 1e-12, size=len(keys))
        jittered = {key: ratio + shift for (key, ratio), shift in zip(ratios.items(), jitter)}
        assert _refine_leaders(jittered, 10) == leaders


# -- the coset subgroup H = <r_t> ----------------------------------------------

def flat_indices(scenario, digits):
    d = scenario.outcomes
    return np.ravel_multi_index(np.asarray(digits).reshape(scenario.parties, -1) % d,
                                (d,) * scenario.parties)


def dense_g(objective, phases):
    """G(phi) on the whole space by definition: G[j + r_t, j] += w_t prod_p u_t,p(j_p)."""
    sc = objective.scenario
    dim = sc.outcomes ** sc.parties
    digits = np.indices((sc.outcomes,) * sc.parties).reshape(sc.parties, dim)
    u = objective.phase_factors(phases[None])[0]
    g = np.zeros((dim, dim), dtype=complex)
    for t, weight in enumerate(objective.weights[0]):
        factor = np.prod([u[t, p, digits[p]] for p in range(sc.parties)], axis=0)
        g[objective.rows[t], np.arange(dim)] += weight * factor
    return g


def g_on_support(objective, phases):
    """The objective's G for one phase stack and its first functional."""
    factors = objective.support_factors(objective.phase_factors(phases[None]))
    return objective.g_matrix(factors, objective.mask_weights[:1])[0]


@st.composite
def mixed_mask_problems(draw):
    """A mixed-mask functional (N <= 3, d in {2, 3, 4, 6}), phases, a state and a shift c."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    d = draw(st.sampled_from([2, 3, 4, 6]))
    entries = st.lists(st.integers(0, d - 1), min_size=n, max_size=n).map(tuple)
    masks = draw(st.lists(entries, min_size=1, max_size=3))
    settings_tuples = st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(tuple)
    parts = st.floats(-2, 2, allow_nan=False)
    weights = st.builds(complex, parts, parts).filter(lambda w: abs(w) > 1e-3)
    terms = draw(st.lists(st.tuples(settings_tuples, st.sampled_from(masks), weights),
                          min_size=1, max_size=6))
    form = draw(st.sampled_from(list(FunctionalForm)))
    functional = BellFunctional(Scenario(n, k, d), terms, form)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = tuple(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    return functional, rng, shift


def rolled(phases, shift):
    """phases[p, x, j + c_p]: every party's phase rows rolled by its entry of c."""
    return np.stack([np.roll(phases[p], -c, axis=-1) for p, c in enumerate(shift)])


@settings(max_examples=60, deadline=None)
@given(problem=mixed_mask_problems())
def test_translation_invariance_and_coset_blocks(problem):
    functional, rng, shift = problem
    sc = functional.scenario
    n, d = sc.parties, sc.outcomes
    dim = d**n
    support = coset_support(functional)
    objective = _MultiportObjective([functional], support)
    in_h = np.zeros(dim, dtype=bool)
    in_h[support] = True
    phases = rng.uniform(0, 2 * np.pi, size=(n, sc.settings, d))
    theta = rng.uniform(0, 2 * np.pi)
    g = dense_g(objective, phases)

    # no entry of G couples two different cosets of H
    digits = np.indices((d,) * n).reshape(n, dim)
    rows, cols = np.nonzero(np.abs(g) > 0)
    assert in_h[flat_indices(sc, digits[:, rows] - digits[:, cols])].all()

    # the support-built G is the dense G on H's rows and columns
    assert np.allclose(g_on_support(objective, phases), g[np.ix_(support, support)],
                       rtol=0, atol=1e-12)

    # a state translated by c pairs like the state itself with phase rows rolled by c
    state = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
    translated = np.roll(state, shift, axis=tuple(range(n)))
    weights = objective.weights[0]
    moved = objective.pair_total(phases, translated, weights)
    kept = objective.pair_total(rolled(phases, shift), state, weights)
    assert abs(moved - kept) < 1e-12

    # the full top eigenvalue is H's block maximized over one translation per coset
    cosets, seen = [], np.zeros(dim, dtype=bool)
    for j in range(dim):
        if not seen[j]:
            seen[flat_indices(sc, digits[:, support] + digits[:, j:j + 1])] = True
            cosets.append(tuple(digits[:, j]))
    assert len(cosets) * len(support) == dim
    rotation = np.exp(1j * np.array([theta])) if objective.is_modulus else None
    full_top = np.linalg.eigvalsh(_hermitian_part(g[None], rotation)[0])[-1]
    block_tops = [np.linalg.eigvalsh(_hermitian_part(
        g_on_support(objective, rolled(phases, c))[None], rotation)[0])[-1]
        for c in cosets]
    assert abs(full_top - max(block_tops)) < 1e-10


def ghz_indices(n, d):
    return sorted(np.ravel_multi_index((j,) * n, (d,) * n) for j in range(d))


@pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 3), (2, 4), (4, 4), (2, 6)])
@pytest.mark.parametrize("form", list(FunctionalForm))
def test_product_g_support_is_the_diagonal(n, d, form):
    support = coset_support(product_g_functional(n, d, form))
    assert support.tolist() == ghz_indices(n, d)


def test_i323_support_is_the_aba_subgroup():
    support = coset_support(i323_functional())
    want = sorted(np.ravel_multi_index((a, b, a), (3, 3, 3)) for a in range(3) for b in range(3))
    assert support.tolist() == want


@pytest.mark.parametrize("name, functional", [
    ("d4 half shift", d4_half_shift_functional()),
    ("unit masks", BellFunctional(
        Scenario(3, 2, 3), [((0, 0, 0), (1, 0, 0), 1.0), ((1, 0, 1), (0, 1, 0), 1.0),
                            ((0, 1, 1), (0, 0, 2), 1.0)])),
])
def test_generating_masks_give_the_whole_space(name, functional):
    sc = functional.scenario
    assert coset_support(functional).tolist() == list(range(sc.outcomes ** sc.parties)), name


def test_523_search_assembles_nothing_larger_than_3x3(monkeypatch):
    shapes = []
    build = _MultiportObjective.g_matrix

    def recording(self, factors, mask_weights):
        g = build(self, factors, mask_weights)
        shapes.append(g.shape[1:])
        return g

    monkeypatch.setattr(_MultiportObjective, "g_matrix", recording)
    for form in FunctionalForm:
        result = maximize_violation(product_g_functional(5, 3, form),
                                    OptimizationConfig(restarts=2, seed=23))
        assert result.ratio == pytest.approx(1.0, abs=1e-6)
    assert shapes and set(shapes) == {(3, 3)}
