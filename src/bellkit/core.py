"""Core Bell-scenario types and correlation-function algebra.

Outcomes are valued on the d-th roots of unity alpha_d^a.  A correlation
tensor collects, for every joint choice of measurement settings, one Fourier
component of the outcome distribution; which component is selected per party
is recorded in a conjugation mask.  All tensors are flattened lexicographically
with party 0 slowest; settings and outcomes are 0-based throughout.

Every type here is immutable after construction and every operation is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "Scenario",
    "unit_roots",
    "ConjugationMask",
    "ProbabilityTable",
    "CorrelationTensor",
    "DeterministicStrategy",
    "root_of_unity",
    "settings_tuples",
    "correlation_from_probabilities",
    "correlation_stack",
    "contract_parties",
    "strategy_correlation_tensor",
    "point_mass_table",
]

# Probabilities this far below zero are treated as round-off and clamped.
NEGATIVITY_CLAMP = 1e-15
# Larger negativity means the input is not a probability table.
NEGATIVITY_ERROR = 1e-12


@dataclass(frozen=True)
class Scenario:
    """A Bell scenario: N parties, k settings per party, d outcomes per measurement."""

    parties: int
    settings: int
    outcomes: int

    def __post_init__(self):
        for name in ("parties", "settings", "outcomes"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        if self.parties < 1:
            raise ValueError(f"need at least one party, got {self.parties}")
        if self.settings < 1:
            raise ValueError(f"need at least one setting, got {self.settings}")
        if self.outcomes < 2:
            raise ValueError(f"need at least two outcomes, got {self.outcomes}")

    @property
    def n_outcome_tuples(self) -> int:
        return self.outcomes**self.parties

    @property
    def n_strategies(self) -> int:
        return self.outcomes ** (self.parties * self.settings)

    def settings_shape(self) -> tuple[int, ...]:
        return (self.settings,) * self.parties


@lru_cache(maxsize=None)
def unit_roots(order: int) -> np.ndarray:
    """The `order` roots of unity with exact +-1, +-i, 0 components.

    exp() puts round-off on the axis-aligned roots (e.g. exp(i*pi) has a
    1e-16 imaginary part); snapping keeps two-outcome arithmetic exact.
    """
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    real, imag = roots.real.copy(), roots.imag.copy()
    for target in (-1.0, 0.0, 1.0):
        real[np.abs(real - target) < 1e-15] = target
        imag[np.abs(imag - target) < 1e-15] = target
    snapped = real + 1j * imag
    snapped.setflags(write=False)
    return snapped


def root_of_unity(order: int, exponent: int) -> complex:
    """alpha_order^exponent, reduced mod order."""
    return complex(unit_roots(order)[exponent % order])


def as_index(value, name: str) -> int:
    """An int or numpy integer as int; int() would truncate 1.7 and read True as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_index_array(values, name: str) -> np.ndarray:
    """An integer array as int64; an int64 cast would truncate 1.7 and read True as 1."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":  # signed or unsigned integers; bool is kind "b"
        raise ValueError(f"{name} must be integers, got an array of {arr.dtype}")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class ConjugationMask:
    """Per-party Fourier exponents: party p contributes alpha^(r_p * a_p).

    An entry of 1 is the plain assignment, d-1 the conjugated one; 0 drops
    the party from the correlation altogether.
    """

    entries: tuple[int, ...]
    order: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(as_index(r, "mask entry") for r in self.entries))
        if any(not 0 <= r < self.order for r in self.entries):
            raise ValueError(f"mask entries must lie in [0, {self.order}), got {self.entries}")

    @classmethod
    def all_ones(cls, scenario: Scenario) -> "ConjugationMask":
        return cls((1,) * scenario.parties, scenario.outcomes)

    def conjugated(self) -> "ConjugationMask":
        """Componentwise r -> (d - r) mod d; maps E to its complex conjugate."""
        return ConjugationMask(tuple((self.order - r) % self.order for r in self.entries), self.order)

    def __len__(self) -> int:
        return len(self.entries)


def as_mask(scenario: Scenario, mask) -> ConjugationMask:
    """Coerce a tuple/list/None into a validated mask for the scenario."""
    if mask is None:
        return ConjugationMask.all_ones(scenario)
    if not isinstance(mask, ConjugationMask):
        mask = ConjugationMask(tuple(mask), scenario.outcomes)
    if len(mask) != scenario.parties:
        raise ValueError(f"mask has {len(mask)} entries for {scenario.parties} parties")
    if mask.order != scenario.outcomes:
        raise ValueError(f"mask order {mask.order} does not match d={scenario.outcomes}")
    return mask


def settings_tuples(scenario: Scenario) -> list[tuple[int, ...]]:
    """All joint settings in lexicographic order, party 0 slowest.

    This order is the canonical flattening of every tensor in the package.
    """
    return list(itertools.product(range(scenario.settings), repeat=scenario.parties))


@dataclass(frozen=True)
class ProbabilityTable:
    """p(a|x) indexed by outcome tuple then settings tuple.

    values has shape (d,)*N + (k,)*N.  Each settings slice must be normalized
    within 1e-12; negative round-off down to -1e-15 is clamped to zero.
    """

    scenario: Scenario
    values: np.ndarray

    def __post_init__(self):
        n, k, d = self.scenario.parties, self.scenario.settings, self.scenario.outcomes
        # a C-ordered copy: the caller's array stays writable, and the sums
        # and products below see one layout whatever the caller's was
        arr = np.array(self.values, dtype=float, order="C")
        expected = (d,) * n + (k,) * n
        if arr.shape != expected:
            raise ValueError(f"expected shape {expected}, got {arr.shape}")
        lowest = arr.min()
        if lowest < -NEGATIVITY_ERROR:
            raise ValueError(f"probability {lowest:.3e} is too negative to be round-off")
        if lowest < 0:
            arr = np.where(arr < 0, 0.0, arr)
        worst = np.abs(arr.sum(axis=tuple(range(n))) - 1.0).max()
        # NaN fails every comparison, so test the bound itself
        if not worst <= 1e-12:
            raise ValueError(f"settings slices must sum to 1 (worst deviation {worst:.3e})")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def slice_for(self, x: tuple[int, ...]) -> np.ndarray:
        """The outcome distribution p(.|x), shape (d,)*N."""
        n = self.scenario.parties
        index = (slice(None),) * n + tuple(x)
        return self.values[index]


def check_correlations(scenario: Scenario, masks, values: np.ndarray) -> None:
    """Refuse a stack of correlation tensors, shape (M,) + settings shape, one per mask.

    Every |E| must be finite and at most 1, and two-outcome tensors under the
    plain mask must be real, both up to 1e-12 of round-off.
    """
    largest = np.abs(values).max()
    # NaN fails every comparison, so test the bound itself
    if not largest <= 1 + 1e-12:
        raise ValueError(f"|E| = {largest:.15f} exceeds 1 or is not finite; not a correlation")
    if scenario.outcomes == 2:
        plain = [all(r == 1 for r in mask.entries) for mask in masks]
        if any(plain) and np.abs(values[plain].imag).max() > 1e-12:
            raise ValueError("two-outcome correlations with the plain mask must be real")


@dataclass(frozen=True)
class CorrelationTensor:
    """One Fourier component E_x of the outcome distribution, per settings tuple."""

    scenario: Scenario
    mask: ConjugationMask
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mask", as_mask(self.scenario, self.mask))
        arr = np.array(self.values, dtype=complex)  # a copy: the caller's array stays writable
        if arr.shape != self.scenario.settings_shape():
            raise ValueError(f"expected shape {self.scenario.settings_shape()}, got {arr.shape}")
        check_correlations(self.scenario, [self.mask], arr[None])
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __getitem__(self, x: tuple[int, ...]) -> complex:
        return complex(self.values[tuple(x)])


@dataclass(frozen=True)
class DeterministicStrategy:
    """A fixed outcome for every (party, setting) pair; a vertex generator of the LHV polytope.

    Strategies compare and hash by scenario and assignments.
    """

    scenario: Scenario
    assignments: np.ndarray  # shape (N, k), entries in [0, d)

    def __post_init__(self):
        arr = np.array(self.assignments)  # a copy: the caller's array stays writable
        object.__setattr__(self, "assignments", self._checked_block(self.scenario, arr, ()))

    @staticmethod
    def _checked_block(scenario: Scenario, values, lead: tuple[int, ...]) -> np.ndarray:
        """values as read-only int64, checked: integers, shape lead + (N, k), entries in [0, d)."""
        arr = as_index_array(values, "outcomes")
        shape = lead + (scenario.parties, scenario.settings)
        if arr.shape != shape:
            raise ValueError(f"expected shape {shape}, got {arr.shape}")
        if arr.min() < 0 or arr.max() >= scenario.outcomes:
            raise ValueError(f"outcomes must lie in [0, {scenario.outcomes})")
        arr.setflags(write=False)
        return arr

    def __eq__(self, other):
        if not isinstance(other, DeterministicStrategy):
            return NotImplemented
        return self.scenario == other.scenario and np.array_equal(self.assignments,
                                                                  other.assignments)

    def __hash__(self):
        return hash((self.scenario, self.assignments.tobytes()))

    def outcome(self, party: int, setting: int) -> int:
        return int(self.assignments[party, setting])

    def flat_index(self) -> int:
        """Position in the lexicographic enumeration (party 0, setting 0 most significant)."""
        d = self.scenario.outcomes
        index = 0
        for digit in self.assignments.ravel():
            index = index * d + int(digit)
        return index

    @classmethod
    def _rows(cls, scenario: Scenario, tables) -> tuple["DeterministicStrategy", ...]:
        """One strategy per row of an (S, N, k) block of outcomes, the block checked once.

        The block gets `__post_init__`'s checks as a whole and is made
        read-only; each strategy holds a row view of it and skips
        `__post_init__`.  An int64 block is not copied, so the caller's array
        becomes read-only: only the library calls this, with fresh arrays.
        """
        block = cls._checked_block(scenario, tables, np.shape(tables)[:1])
        strategies = []
        for row in block:
            strategy = object.__new__(cls)
            object.__setattr__(strategy, "scenario", scenario)
            object.__setattr__(strategy, "assignments", row)
            strategies.append(strategy)
        return tuple(strategies)

    @classmethod
    def from_flat_index(cls, scenario: Scenario, index: int) -> "DeterministicStrategy":
        index = as_index(index, "strategy index")
        if not 0 <= index < scenario.n_strategies:
            raise ValueError(f"strategy index {index} is outside [0, {scenario.n_strategies})")
        n, k, d = scenario.parties, scenario.settings, scenario.outcomes
        digits = np.empty(n * k, dtype=np.int64)
        for pos in range(n * k - 1, -1, -1):
            index, digits[pos] = divmod(index, d)
        return cls(scenario, digits.reshape(n, k))


def contract_parties(values, matrices) -> np.ndarray:
    """out[..., j_0, .., j_(N-1)] = sum_i values[i_0, .., i_(N-1), ...] prod_p m_p[i_p, j_p].

    Each matrix m_p in turn consumes the leading axis of `values` in one
    matmul and appends its column axis at the end.  Trailing axes of `values`
    are carried along, so one call expands a whole stack of tables.
    """
    values = np.asarray(values)
    shape = values.shape[len(matrices):] + tuple(m.shape[1] for m in matrices)
    for m in matrices:
        values = np.dot(values.reshape(len(m), -1).T, m)
    return values.reshape(shape)


def _mask_weight_tensor(scenario: Scenario, mask: ConjugationMask) -> np.ndarray:
    """W[a] = alpha^(sum_p r_p a_p), shape (d,)*N."""
    d = scenario.outcomes
    outcomes = np.arange(d)
    factors = [unit_roots(d)[(r * outcomes) % d] for r in mask.entries]
    return reduce(np.multiply.outer, factors)


@lru_cache(maxsize=256)
def _mask_weights(scenario: Scenario, entries: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Read-only W: row m is the weight tensor of mask entries[m], flattened."""
    weights = np.stack([
        _mask_weight_tensor(scenario, ConjugationMask(r, scenario.outcomes)).ravel()
        for r in entries])
    weights.setflags(write=False)
    return weights


def correlation_stack(table: ProbabilityTable, masks) -> np.ndarray:
    """E^(r)_x = sum_a alpha^(r . a) p(a|x) for every mask r and settings tuple x.

    The result has shape (M,) + settings shape, one slice per mask in order.
    Row m of the weight matrix W is mask m's weight tensor, and each row is
    multiplied into the table on its own, so a mask's slice does not depend
    on the other masks in the stack.  W is built once per scenario and masks.
    """
    scenario = table.scenario
    masks = [as_mask(scenario, mask) for mask in masks]
    weights = _mask_weights(scenario, tuple(mask.entries for mask in masks))
    probabilities = table.values.reshape(scenario.n_outcome_tuples, -1).astype(complex)
    values = np.concatenate([weights[m:m + 1] @ probabilities for m in range(len(masks))])
    values = values.reshape((len(masks),) + scenario.settings_shape())
    check_correlations(scenario, masks, values)
    return values


def correlation_from_probabilities(table: ProbabilityTable, mask) -> CorrelationTensor:
    """E_x = sum_a alpha^(mask . a) p(a|x) for every settings tuple x."""
    mask = as_mask(table.scenario, mask)
    return CorrelationTensor(table.scenario, mask, correlation_stack(table, [mask])[0])


def strategy_correlation_tensor(strategy: DeterministicStrategy, mask) -> CorrelationTensor:
    """The correlation tensor of a deterministic strategy; every entry is an exact root."""
    scenario = strategy.scenario
    mask = as_mask(scenario, mask)
    d = scenario.outcomes
    exponents = reduce(
        np.add.outer, [r * strategy.assignments[p] for p, r in enumerate(mask.entries)]
    )
    return CorrelationTensor(scenario, mask, unit_roots(d)[exponents % d])


def point_mass_table(strategy: DeterministicStrategy) -> ProbabilityTable:
    """The probability table that plays the strategy with certainty."""
    scenario = strategy.scenario
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    values = np.zeros((d,) * n + (k,) * n)
    for x in settings_tuples(scenario):
        a = tuple(strategy.outcome(p, xp) for p, xp in enumerate(x))
        values[a + x] = 1.0
    return ProbabilityTable(scenario, values)
