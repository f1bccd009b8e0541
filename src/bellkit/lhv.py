"""Exact local-realistic bounds over the deterministic strategies.

The maximum of Re[linear] or |linear| over the LHV polytope is attained at a
vertex, so the classical bound of any functional here is the maximum of its
value over all d^(N*k) deterministic strategies.  A strategy gives term t the
root alpha^e, e = sum_p r_p a_p(x_p) mod d, so values are exact integer
exponent sums looked up in a table of w_t alpha^e.  `classical_bounds` covers
the strategies of a dense stack of coefficient tables without visiting each
one, and `classical_bound` runs the same pass on one functional's terms:

- Stack.  Every table lists every settings tuple under the plain mask, zero
  weights included, so a whole family of exponent tables is one stack.  Every
  step below runs once for the stack, with the tables on a leading axis, and
  each result is bit for bit the one the table's functional gets alone.
- Gauge.  Shifting every outcome of party p by c_p multiplies term t by
  alpha^(r_t.c).  The shifts that change no value form a group G in Z_d^N,
  found by trying all d^N shifts, and one strategy per G-orbit is searched.
- Marginal.  For each strategy of parties 1..N-1 the terms are summed per
  setting and outcome of party N, and every row of party N is scored from
  those sums.
- Certificate.  Each table's near-optimal candidates are re-evaluated
  exactly at each exponent offset r_0.c an orbit member can have (d for
  moduli, one for real parts), and each orbit member takes its
  representative's total at its own offset.  So the bound, the saturating
  set and the count of strategies covered are those of exhaustive
  enumeration, bit for bit, and do not depend on the block size
  DEFAULT_CHUNK or on the rest of the stack.

Facet certification embeds each strategy's correlation tensors E^(r), one
block per mask r the functional uses, in the real space of dimension 2*M*k^N
for M masks, and compares the affine rank of the saturating set against the
polytope's affine dimension.  With mixed masks this certifies a facet of the
local polytope's projection onto the (mask, settings) coordinates used.
Every entry of a vertex is a root of unity, so distinct vertices are found
exactly by their integer exponents rather than by rounding floats.  All
strategies of one real-part gauge orbit of the masks share one exponent row,
and the representative a_p(0) < g_p is the orbit's first strategy in
flat-index order, so both ranks are taken over the representatives alone
(every strategy, only when the gauge is trivial).  The gauge, cached per
mask set and form, and the vertex structure (representatives, exponent rows,
polytope dimension), cached per mask set, are computed once per process and
shared read-only by every later call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
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
    "classical_bounds",
    "strategy_functional_value",
    "polytope_dimension",
    "facet_check",
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


@dataclass(frozen=True, eq=False)
class ClassicalBoundResult:
    """Exact LHV bound with every saturating strategy.

    saturating holds the saturating strategies of scenario as flat indices
    (DeterministicStrategy.flat_index), ascending, in a read-only int64 array.
    No strategy object is built until one is asked for: argmax builds them all
    on first access, as one validated block of digits with a row view per
    strategy, and keeps them; witness builds only the first.  Results compare
    by identity.
    """

    bound: float
    saturating: np.ndarray
    examined: int
    scenario: Scenario

    @functools.cached_property
    def argmax(self) -> tuple[DeterministicStrategy, ...]:
        """Every saturating strategy, lexicographically smallest first."""
        return _strategies(self.scenario, self.saturating)

    @property
    def witness(self) -> DeterministicStrategy:
        """The lexicographically smallest saturating strategy."""
        return DeterministicStrategy.from_flat_index(self.scenario, int(self.saturating[0]))


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
    """Yield every deterministic strategy once, lexicographically.

    The strategies are built a block of flat indices at a time, at most
    DEFAULT_CHUNK digits per block, each block validated once as a whole.
    """
    total = _check_budget(scenario, budget)
    block = max(1, DEFAULT_CHUNK // (scenario.parties * scenario.settings))
    for start in range(0, total, block):
        yield from _strategies(scenario, np.arange(start, min(start + block, total),
                                                   dtype=np.int64))


@functools.lru_cache(maxsize=256)
def _party_assignments(scenario: Scenario) -> np.ndarray:
    """All d^k single-party assignments, read-only, in lexicographic order (setting 0 slowest)."""
    k, d = scenario.settings, scenario.outcomes
    assignments = np.array(list(itertools.product(range(d), repeat=k)), dtype=np.int64)
    assignments.setflags(write=False)
    return assignments


@functools.lru_cache(maxsize=256)
def _party_exponents(scenario: Scenario) -> np.ndarray:
    """Read-only [x, r, i] = r * a_i(x) mod d: a party's exponent for setting x, mask entry r."""
    d = scenario.outcomes
    exponents = np.arange(d)[:, None] * _party_assignments(scenario).T[:, None, :] % d
    exponents.setflags(write=False)
    return exponents


def _digits(flat: np.ndarray, radices) -> list[np.ndarray]:
    """Mixed-radix digits of the flat indices, most significant first."""
    digits = []
    for radix in reversed(radices):
        flat, digit = np.divmod(flat, radix)
        digits.append(digit)
    return digits[::-1]


def _strategies(scenario: Scenario, flat: np.ndarray) -> tuple[DeterministicStrategy, ...]:
    """The strategies at these int64 flat indices, built as one validated block."""
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    tables = np.stack(_digits(flat, [d] * (n * k)), axis=1).reshape(-1, n, k)
    return DeterministicStrategy._rows(scenario, tables)


def _term_table(weights, d: int) -> np.ndarray:
    """[..., t, e] = w_t * alpha^e for weights of shape (..., T).

    The product is taken componentwise as Python's complex product is, so
    every entry is bit for bit `w * root` as `contract` multiplies.
    """
    w = np.asarray(weights, dtype=complex)[..., None]
    roots = unit_roots(d)
    table = np.empty(w.shape[:-1] + (d,), dtype=complex)
    table.real = w.real * roots.real - w.imag * roots.imag
    table.imag = w.real * roots.imag + w.imag * roots.real
    return table


def _totals(scenario: Scenario, xs, rs, table, which, indices, offsets) -> np.ndarray:
    """Complex totals of table `which[i]` on the strategy at flat index `indices[i]`.

    table is a stack of `_term_table`s, shape (F, T, d), for the terms with
    settings xs and masks rs.  Term t is the table at the term's exponent sum
    plus an offset, added in term order, so each total is bit for bit
    `strategy_functional_value`'s `contract` (at offset 0; see
    `classical_bounds` for the others).  Offsets broadcast against the
    indices: offsets of shape (O, 1) give totals of shape (O, len(indices)).
    """
    d = scenario.outcomes
    exponents = _party_exponents(scenario)
    party_idx = _digits(indices, [exponents.shape[2]] * scenario.parties)
    # [..., t, i]: term t's exponent on strategy i, then its entry in the stack
    exponent = sum(exponents[xs[:, p, None], rs[:, p, None], idx]
                   for p, idx in enumerate(party_idx))
    exponent = (exponent + np.asarray(offsets)[..., None]) % d
    first = (np.asarray(which, dtype=np.int64) * len(xs) + np.arange(len(xs))[:, None]) * d
    values = table.ravel()[first + exponent]
    totals = np.zeros(values.shape[:-2] + values.shape[-1:], dtype=complex)
    for t in range(len(xs)):
        totals += values[..., t, :]
    return totals


def strategy_functional_value(functional, strategy: DeterministicStrategy) -> float:
    """Evaluate a functional on one deterministic strategy."""
    if strategy.scenario != functional.scenario:
        raise ValueError("strategy belongs to a different scenario")
    total = functional.contract(lambda masks: np.stack(
        [strategy_correlation_tensor(strategy, mask).values for mask in masks]))
    return apply_form(functional.form, total)


def _form_values(form: FunctionalForm, totals: np.ndarray) -> np.ndarray:
    return totals.real if form is FunctionalForm.REAL_PART else np.abs(totals)


@functools.lru_cache(maxsize=256)
def _gauge(scenario: Scenario, entries: tuple[tuple[int, ...], ...],
           form: FunctionalForm) -> tuple[np.ndarray, tuple[int, ...]]:
    """The read-only outcome shifts c in Z_d^N that fix every strategy's value, and the steps.

    entries holds the mask entries r_t, one tuple per distinct mask, the first
    term's first.
    Shifting party p's outcomes by c_p multiplies term t by alpha^(r_t.c).
    Real parts are unchanged when r_t.c = 0 for every t, moduli when
    r_t.c = r_0.c.  Step g_p is the least positive c_p over the invariant
    shifts with c_1..c_(p-1) = 0, or d if there is none; every orbit then has
    exactly one strategy with a_p(0) < g_p for all p, its lexicographically
    smallest (`_representatives`).
    """
    n, d = scenario.parties, scenario.outcomes
    masks = np.array(entries, dtype=np.int64).reshape(-1, n)
    block = max(1, DEFAULT_CHUNK // masks.size)
    found = []
    for start in range(0, d**n, block):
        flat = np.arange(start, min(start + block, d**n), dtype=np.int64)
        shifts = np.stack(_digits(flat, [d] * n), axis=1)
        phases = shifts @ masks.T % d
        reference = 0 if form is FunctionalForm.REAL_PART else phases[:, :1]
        found.append(shifts[(phases == reference).all(axis=1)])
    group = np.concatenate(found)
    group.setflags(write=False)
    steps = []
    for p in range(n):
        lead = group[(group[:, :p] == 0).all(axis=1), p]
        positive = lead[lead > 0]
        steps.append(int(positive.min()) if positive.size else d)
    return group, tuple(steps)


def _leading_rows(scenario: Scenario, steps) -> list[int]:
    """Per party, the number of rows with a_p(0) < g_p: setting 0 is the leading digit."""
    return [g * scenario.outcomes ** (scenario.settings - 1) for g in steps]


def _representatives(scenario: Scenario, steps) -> np.ndarray:
    """Flat indices, ascending, of the strategies with a_p(0) < g_p: one per gauge orbit."""
    per_party = scenario.outcomes ** scenario.settings
    flat = np.zeros(1, dtype=np.int64)
    for rows in _leading_rows(scenario, steps):
        flat = (flat[:, None] * per_party + np.arange(rows)).ravel()
    return flat


def _weight_scale(weights) -> np.ndarray:
    """sum_t |w_t| per row, added in term order, so zero weights leave it unchanged bit for bit."""
    return np.abs(weights).cumsum(axis=-1)[..., -1]


def classical_bound(functional, budget: int = DEFAULT_BUDGET) -> ClassicalBoundResult:
    """The exact bound by `classical_bounds`'s pass on the functional's terms, any masks."""
    xs, rs, weights = zip(*functional.terms())
    return _bounds(functional.scenario, functional.form, np.array(xs), np.array(rs),
                   np.array([weights]), budget)[0]


def classical_bounds(scenario: Scenario, coefficients, form: FunctionalForm,
                     budget: int = DEFAULT_BUDGET) -> list[ClassicalBoundResult]:
    """Maximize each table of a dense stack over every deterministic strategy, exactly.

    coefficients has shape (F,) + settings shape, F tables under the plain
    mask (1, ..., 1).  Result f is, bit for bit, `classical_bound` of
    `BellFunctional.from_coefficients(scenario, coefficients[f], form)`: a
    zero entry adds +-0.0 to a running sum that starts at +0.0, so it moves no
    total and no tolerance.  What that functional refuses raises ValueError:
    a form that is not a FunctionalForm, a table with no nonzero entry, with
    a non-finite entry or with moduli that sum past the float range; so do a
    wrong shape and an empty stack.

    One pass, the module's, serves the stack: parties 1..N-1 run in blocks of
    at most about DEFAULT_CHUNK numbers over all tables, and each table's
    candidates within twice its saturation tolerance of its top marginal score
    are re-evaluated exactly by `_totals`.

    A table's saturation tolerance is 1e-9 * sum |w|, so weights scaled by a
    power of two scale the bound exactly and keep the saturating set.  The
    flat indices of all strategies within it are returned as `saturating`,
    ascending, and no strategy object is built.  Each result's `bound` and
    `saturating` are those of evaluating all d^(N*k) strategies on its table
    alone, bit for bit, whatever the stack, and `examined` is d^(N*k), the
    number of strategies the certificate covers.  The budget applies to it.
    """
    if not isinstance(form, FunctionalForm):
        raise ValueError(f"form must be a FunctionalForm, got {form!r}")
    weights, shape = np.asarray(coefficients, dtype=complex), scenario.settings_shape()
    if weights.shape[1:] != shape or not len(weights):
        raise ValueError(f"need shape (F >= 1,) + {shape}, got {weights.shape}")
    infinite = np.argwhere(~np.isfinite(weights))
    if len(infinite):
        table, *x = infinite[0].tolist()
        raise ValueError(f"table {table} has weight {weights[(table, *x)]} at settings "
                         f"{tuple(x)}, not finite")
    weights = weights.reshape(len(weights), -1)
    empty = ~(weights != 0).any(axis=1)
    if empty.any():
        raise ValueError(f"table {empty.argmax()} has no nonzero weight")
    with np.errstate(over="ignore"):
        unbounded = ~np.isfinite(_weight_scale(weights))
    if unbounded.any():
        raise ValueError(f"the moduli of table {unbounded.argmax()} sum past the float range")
    xs = np.array(settings_tuples(scenario)).reshape(-1, scenario.parties)
    return _bounds(scenario, form, xs, np.ones_like(xs), weights, budget)


def _bounds(scenario: Scenario, form: FunctionalForm, xs: np.ndarray, rs: np.ndarray,
            weights: np.ndarray, budget: int) -> list[ClassicalBoundResult]:
    """`classical_bounds`'s pass: term t has settings xs[t], mask rs[t], weights weights[:, t]."""
    total = _check_budget(scenario, budget)
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    assignments = _party_assignments(scenario)
    per_party = len(assignments)
    count, width = weights.shape
    group, steps = _gauge(scenario, tuple(dict.fromkeys(map(tuple, rs.tolist()))), form)
    allowed = _leading_rows(scenario, steps)
    roots = unit_roots(d)
    # table[f, t, e] is table f's term t at exponent e; a prefix's term t
    # reads it at e, its exponent summed over parties 1..N-1
    table = _term_table(weights, d)
    rows = table.reshape(count, width * d)
    exponents = _party_exponents(scenario)
    prefix_exponents = [exponents[xs[:, p], rs[:, p], : allowed[p]].T for p in range(n - 1)]
    term_rows = np.arange(width) * d
    outcomes = np.arange(d)
    last_phases = np.zeros((width, k * d), dtype=complex)
    last_phases[np.arange(width)[:, None], xs[:, -1:] * d + outcomes] = (
        roots[np.outer(rs[:, -1], outcomes) % d])
    last_columns = assignments[: allowed[-1]] + np.arange(k) * d

    tol = SATURATION_TOL * _weight_scale(weights)
    window = 2 * tol  # wide enough that the marginal's own rounding cannot drop a tie
    prefixes = math.prod(allowed[:-1])
    per_block = max(1, DEFAULT_CHUNK // max(width, k * allowed[-1]))
    stride = min(count, per_block)  # tables per block
    block = max(1, per_block // stride)  # prefixes per block
    top = np.full(count, -np.inf)
    kept_owner, kept_index, kept_value = [], [], []
    for lo in range(0, count, stride):
        tables = slice(lo, lo + stride)
        for start in range(0, prefixes, block):
            ids = np.arange(start, min(start + block, prefixes), dtype=np.int64)
            digits = _digits(ids, allowed[:-1])
            exponent = np.zeros((len(ids), width), dtype=np.int64)
            prefix_flat = np.zeros(len(ids), dtype=np.int64)
            for part, digit in zip(prefix_exponents, digits):
                exponent += part[digit]
                prefix_flat = prefix_flat * per_party + digit
            gathered = rows[tables].take(exponent % d + term_rows, axis=1)
            sums = (gathered.reshape(-1, width) @ last_phases).reshape(
                len(gathered), len(ids), k * d)
            values = _form_values(form, sums[..., last_columns].sum(axis=3))
            top[tables] = np.maximum(top[tables], values.max(axis=(1, 2)))
            owner, prefix, row = np.nonzero(
                values >= (top[tables] - window[tables])[:, None, None])
            kept_owner.append(owner + lo)
            kept_index.append(prefix_flat[prefix] * per_party + row)
            kept_value.append(values[owner, prefix, row])

    owner, representatives = kept_owner[0], kept_index[0]
    if len(kept_owner) > 1:  # an early block's top may have been beaten later
        owner = np.concatenate(kept_owner)
        keep = np.concatenate(kept_value) >= (top - window)[owner]
        # by table, and within a table ascending, as the blocks found them
        order = np.argsort(owner[keep], kind="stable")
        owner, representatives = owner[keep][order], np.concatenate(kept_index)[keep][order]
    # a member shifted by c from its representative has every term's exponent
    # moved by r_t.c = r_0.c (0 for real parts), so its total is, bit for bit,
    # its representative's at the exponent offset r_0.c
    offsets = np.arange(d if form is FunctionalForm.MODULUS else 1)[:, None]
    step = max(1, DEFAULT_CHUNK // (len(offsets) * width))
    by_offset = np.concatenate([
        _form_values(form, _totals(scenario, xs, rs, table, owner[at:at + step],
                                   representatives[at:at + step], offsets))
        for at in range(0, len(representatives), step)
    ], axis=-1)
    values = by_offset[group @ rs[0] % d].T  # [representative, member]
    # every table keeps at least its top, so each owns one run of representatives
    bounds = np.maximum.reduceat(values.max(axis=1), np.searchsorted(owner, np.arange(count)))
    rep, member = np.nonzero(values >= (bounds - tol)[owner][:, None])
    # shifted[c, i]: the row index of party row i with every outcome shifted by c
    moved = (assignments + outcomes[:, None, None]) % d
    shifted = (moved * d ** np.arange(k - 1, -1, -1)).sum(axis=2)
    saturating = np.zeros(len(rep), dtype=np.int64)
    for p, party_rows in enumerate(_digits(representatives[rep], [per_party] * n)):
        saturating = saturating * per_party + shifted[group[member, p], party_rows]
    # owner[rep] ascends, so one sort by (table, flat index) orders every table's run
    owner = owner[rep]
    saturating = saturating[np.lexsort((saturating, owner))]
    saturating.setflags(write=False)
    edges = np.searchsorted(owner, np.arange(count + 1)).tolist()
    return [ClassicalBoundResult(bound, saturating[lo:hi], total, scenario)
            for bound, lo, hi in zip(bounds.tolist(), edges, edges[1:])]


def _embed_real(rows: np.ndarray) -> np.ndarray:
    return np.hstack([rows.real, rows.imag])


def _affine_rank(points: np.ndarray) -> int:
    if len(points) <= 1:
        return 0
    sv = np.linalg.svd(points[1:] - points[0], compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def _affine_dimension(exponents: np.ndarray, d: int) -> int:
    """Affine rank of the distinct vertices with these exponent rows, real-embedded."""
    exponents = np.ascontiguousarray(exponents)
    # one 1-D unique over whole rows as opaque bytes, far cheaper than unique(axis=0)
    keys = exponents.view(np.dtype((np.void, exponents.itemsize * exponents.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    return _affine_rank(_embed_real(unit_roots(d)[exponents[np.sort(first)]]))


@functools.lru_cache(maxsize=256)
def _vertex_structure(scenario: Scenario,
                      entries: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """One strategy per real-part gauge orbit of the masks, their exponent rows, the dimension.

    The representatives (`_representatives`) are read-only flat indices,
    ascending.  Row i of the read-only rows holds the exponents
    (sum_p r_p a_p(x_p)) mod d of representative i: one block of columns per
    mask entries r, in the order given, and one column per settings tuple x
    within a block.  alpha to these exponents is the vertex, so two strategies
    give the same vertex exactly when their rows agree.  Every strategy of an
    orbit has one row, and the representative is the orbit's first strategy in
    flat-index order, so the distinct rows here, in order of first occurrence,
    are those of all d^(N*k) strategies.  No budget is checked here.
    """
    d = scenario.outcomes
    steps = _gauge(scenario, entries, FunctionalForm.REAL_PART)[1]
    representatives = _representatives(scenario, steps)
    exponents = _party_exponents(scenario)
    party_rows = _digits(representatives, [exponents.shape[2]] * scenario.parties)
    blocks = []
    for mask in entries:
        # party 0's setting is the slowest column digit, as in settings_tuples
        block = np.zeros((len(representatives), 1), dtype=np.int64)
        for rows, r in zip(party_rows, mask):
            block = (block[:, :, None] + exponents[:, r, rows].T[:, None, :]).reshape(
                len(representatives), -1)
        blocks.append(block % d)
    rows = np.hstack(blocks).astype(np.min_scalar_type(d - 1))
    representatives.setflags(write=False)
    rows.setflags(write=False)
    return representatives, rows, _affine_dimension(rows, d)


def polytope_dimension(scenario: Scenario, masks) -> int:
    """Affine dimension of the deterministic vertices over these masks, real-embedded."""
    _check_budget(scenario, DEFAULT_BUDGET)
    entries = tuple(as_mask(scenario, mask).entries for mask in masks)
    if not entries:
        raise ValueError("polytope_dimension needs at least one mask")
    return _vertex_structure(scenario, entries)[2]


def facet_check(functional: BellFunctional, budget: int = DEFAULT_BUDGET) -> FacetReport:
    """Certify whether a real-part inequality supports a facet of the polytope.

    The vertices are the exponent rows over every mask the terms use, so with
    mixed masks this is a facet of the local polytope's projection onto the
    (mask, settings) coordinates used.  The reported bound is the cached one,
    else `classical_bound`'s.  With tol = 1e-9 * sum |w|, the saturation
    tolerance, it is valid when computed <= reported + tol, and the saturating
    set is `classical_bound`'s when reported <= computed + tol, else empty.  A facet
    is valid, has a saturating vertex, and the saturating vertices' affine rank
    is one less than the polytope's; both ranks count distinct exponent rows.
    The saturating set is a union of gauge orbits, so its rank, like the
    polytope's, is taken over the rows of the orbit representatives alone
    (`_vertex_structure`).
    """
    if functional.form is not FunctionalForm.REAL_PART:
        raise UnsupportedFormError(
            "facet reports exist only for real-part functionals, not for modulus forms"
        )
    scenario = functional.scenario
    result = classical_bound(functional, budget)
    reference = functional.cached_bound if functional.cached_bound is not None else result.bound
    tol = SATURATION_TOL * float(_weight_scale([w for _, _, w in functional.terms()]))
    is_valid = bool(result.bound <= reference + tol)
    saturating = result.saturating if reference <= result.bound + tol else result.saturating[:0]
    representatives, rows, dim = _vertex_structure(scenario, functional.masks())
    at = np.searchsorted(representatives, saturating)
    at = at[representatives.take(at, mode="clip") == saturating]
    rank = _affine_dimension(rows[at], scenario.outcomes)
    return FacetReport(
        bound=reference,
        polytope_dimension=dim,
        saturating_count=len(saturating),
        saturating_rank=rank,
        is_facet=bool(is_valid and len(saturating) and rank == dim - 1),
        is_valid=is_valid,
    )
