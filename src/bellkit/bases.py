"""Party-local bases and the Bell functionals built from them.

Two basis families are supported.  When the number of settings matches the
number of outcomes (k = d) the Fourier vectors form an orthonormal basis that
is its own conjugate.  When k = 2 and d >= 3 no orthonormal basis of
deterministic-outcome vectors exists, so a deterministic pair (1,1),
(1, alpha^(d-1)) is stored together with its dual basis under the sesquilinear
product.

A functional is assembled by weighting tensor products of basis vectors with
root-of-unity exponents g(h) and reading the result either through its real
part or through its modulus.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConjugationMask,
    CorrelationTensor,
    Scenario,
    as_index,
    as_index_array,
    as_mask,
    contract_parties,
    root_of_unity,
    settings_tuples,
    unit_roots,
)

__all__ = [
    "BasisKind",
    "Pairing",
    "FunctionalForm",
    "PartyBasis",
    "GTable",
    "BellFunctional",
    "fourier_party_basis",
    "k2_conjugate_basis",
    "build_functional",
    "ww_coefficients",
    "wwzb_nonlinear",
    "evaluate_functional",
    "apply_form",
]


class BasisKind(enum.Enum):
    SELF_CONJUGATE = "self-conjugate"
    DETERMINISTIC_WITH_DUAL = "deterministic-with-dual"


class Pairing(enum.Enum):
    BILINEAR = "bilinear"
    SESQUILINEAR = "sesquilinear"


class FunctionalForm(enum.Enum):
    REAL_PART = "real-part"
    MODULUS = "modulus"


@dataclass(frozen=True)
class PartyBasis:
    """k vectors of length k used to probe one party's correlations.

    `vectors` are the probe vectors v_h entering the functionals.  For the
    deterministic/dual pair, `deterministic` holds the root-of-unity vectors
    w_r satisfying (w_r, v_s) = delta_rs under the sesquilinear product.
    """

    kind: BasisKind
    order: int  # d, the root-of-unity order of the entries
    vectors: np.ndarray  # shape (k, k), row h is v_h
    deterministic: np.ndarray | None = None

    def __post_init__(self):
        vecs = np.array(self.vectors, dtype=complex)  # a copy: the caller's array stays writable
        if vecs.ndim != 2 or vecs.shape[0] != vecs.shape[1]:
            raise ValueError(f"need a square vector array, got shape {vecs.shape}")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)
        if self.kind is BasisKind.SELF_CONJUGATE:
            gram = vecs @ vecs.conj().T
            if not np.allclose(gram, np.eye(len(vecs)), atol=1e-12):
                raise ValueError("self-conjugate basis must be orthonormal")
        elif self.kind is BasisKind.DETERMINISTIC_WITH_DUAL:
            if self.deterministic is None:
                raise ValueError("deterministic-with-dual basis needs the w vectors")
            w = np.array(self.deterministic, dtype=complex)  # a copy, as vecs
            if w.shape != vecs.shape:
                raise ValueError("w and v arrays must have matching shape")
            if not np.allclose(np.abs(w), 1.0, atol=1e-12):
                raise ValueError("deterministic vectors must have root-of-unity entries")
            pairing = w @ vecs.conj().T
            if not np.allclose(pairing, np.eye(len(w)), atol=1e-12):
                raise ValueError("duality (w_r, v_s) = delta_rs violated")
            w.setflags(write=False)
            object.__setattr__(self, "deterministic", w)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def fourier_party_basis(d: int) -> PartyBasis:
    """The self-conjugate orthonormal basis v_h = d^(-1/2) (1, a^h, ..., a^((d-1)h)).

    Its vectors are rescaled deterministic outcome assignments; usable whenever
    the number of settings equals the number of outcomes.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    grid = np.outer(np.arange(d), np.arange(d)) % d
    vectors = unit_roots(d)[grid] / np.sqrt(d)
    return PartyBasis(BasisKind.SELF_CONJUGATE, d, vectors)


def k2_conjugate_basis(d: int) -> PartyBasis:
    """Deterministic pair w_0=(1,1), w_1=(1,a^(d-1)) with its sesquilinear dual.

    The duals are v_0 = (-a, 1)/(1-a) and v_1 = (1, -1)/(1-a); the index order
    pairs v_r with w_r.  For d = 2 use fourier_party_basis instead.
    """
    if d < 3:
        raise ValueError("k2_conjugate_basis needs d >= 3; for d = 2 the Fourier basis applies")
    alpha = root_of_unity(d, 1)
    w = np.array([[1.0, 1.0], [1.0, root_of_unity(d, d - 1)]], dtype=complex)
    v = np.array([[-alpha, 1.0], [1.0, -1.0]], dtype=complex) / (1.0 - alpha)
    return PartyBasis(BasisKind.DETERMINISTIC_WITH_DUAL, d, v, deterministic=w)


@dataclass(frozen=True)
class GTable:
    """Exponent table g: basis-index tuples h -> Z_d, stored dense with shape (k,)*N.

    Tables compare and hash by scenario and entries.
    """

    scenario: Scenario
    table: np.ndarray

    def __post_init__(self):
        # a copy: the caller's array stays writable
        arr = as_index_array(np.array(self.table), "g values")
        if arr.shape != self.scenario.settings_shape():
            raise ValueError(f"expected shape {self.scenario.settings_shape()}, got {arr.shape}")
        if arr.min() < 0 or arr.max() >= self.scenario.outcomes:
            raise ValueError(f"g values must lie in [0, {self.scenario.outcomes})")
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    def __eq__(self, other):
        if not isinstance(other, GTable):
            return NotImplemented
        return self.scenario == other.scenario and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.scenario, self.table.tobytes()))

    @classmethod
    def from_function(cls, scenario: Scenario, fn) -> "GTable":
        arr = np.empty(scenario.settings_shape(), dtype=np.int64)
        for h in settings_tuples(scenario):
            arr[h] = fn(*h) % scenario.outcomes
        return cls(scenario, arr)


Term = tuple[tuple[int, ...], tuple[int, ...], complex]


@dataclass(frozen=True)
class BellFunctional:
    """Re or |.| of sum_t w_t E^(r_t)[x_t] over a term list kept in order.

    The terms are (x_t, r_t, w_t) triples: settings, mask entries and a
    finite weight, with a finite sum of moduli |w_t|; their masks may differ,
    as the starred three-party construction needs.  from_coefficients lists a
    dense tensor's nonzero entries in settings order under one mask.  `mask` and the dense
    `coefficients` are built from the terms on first use, and are None when
    the masks are mixed.  Weights are never normalized implicitly.  A form
    that is not a FunctionalForm member raises ValueError; strings are not
    converted.
    """

    scenario: Scenario
    term_list: tuple[Term, ...]
    form: FunctionalForm = FunctionalForm.REAL_PART
    cached_bound: float | None = None

    def __post_init__(self):
        if not isinstance(self.form, FunctionalForm):
            raise ValueError(f"form must be a FunctionalForm, got {self.form!r}")
        n, k, d = self.scenario.parties, self.scenario.settings, self.scenario.outcomes
        terms = tuple((tuple(as_index(v, "setting") for v in x),
                       tuple(as_index(v, "mask entry") for v in r), complex(w))
                      for x, r, w in self.term_list)
        for x, r, w in terms:
            fits = (len(x) == len(r) == n and all(0 <= s < k for s in x)
                    and all(0 <= e < d for e in r))
            if not fits:
                raise ValueError(f"term with settings {x}, mask {r} does not fit {self.scenario}")
            if not cmath.isfinite(w):
                raise ValueError(f"term with settings {x}, mask {r} has weight {w}, not finite")
        if not any(w != 0 for _, _, w in terms):
            raise ValueError("functional has no nonzero weight")
        # every value, quantum or classical, is bounded by sum_t |w_t|
        if not math.isfinite(sum(math.hypot(w.real, w.imag) for _, _, w in terms)):
            raise ValueError("the weights' moduli sum past the float range")
        object.__setattr__(self, "term_list", terms)

    @classmethod
    def from_coefficients(cls, scenario: Scenario, coefficients, form: FunctionalForm,
                          mask=None, cached_bound=None) -> "BellFunctional":
        """The nonzero entries of a dense tensor, in settings order, under one mask."""
        entries = as_mask(scenario, mask).entries
        arr = np.asarray(coefficients, dtype=complex)
        if arr.shape != scenario.settings_shape():
            raise ValueError(f"expected shape {scenario.settings_shape()}, got {arr.shape}")
        terms = [(x, entries, arr[x]) for x in settings_tuples(scenario) if arr[x] != 0]
        return cls(scenario, terms, form, cached_bound)

    @functools.cached_property
    def mask(self) -> ConjugationMask | None:
        """The terms' one mask, or None when the masks are mixed."""
        masks = self._plan[0]
        return masks[0] if len(masks) == 1 else None

    @functools.cached_property
    def coefficients(self) -> np.ndarray | None:
        """The read-only dense weights under the one mask, or None when the masks are mixed."""
        if self.mask is None:
            return None
        arr = np.zeros(self.scenario.settings_shape(), dtype=complex)
        for x, _, w in self.term_list:
            arr[x] += w
        arr.setflags(write=False)
        return arr

    def terms(self) -> list[Term]:
        """(settings tuple, mask entries, weight) for every term, in order."""
        return list(self.term_list)

    def masks(self) -> tuple[tuple[int, ...], ...]:
        """The distinct mask entries of the terms, in order of first use."""
        return tuple(dict.fromkeys(r for _, r, _ in self.term_list))

    @functools.cached_property
    def _plan(self) -> tuple[tuple[ConjugationMask, ...], tuple[tuple[int, complex], ...]]:
        """The distinct masks, validated, and each term's flat offset into their stack.

        The stack has shape (M,) + settings shape; term t reads offset
        m_t * k^N + (x_t read in base k), with its weight, in term order.
        """
        entries = self.masks()
        masks = tuple(ConjugationMask(r, self.scenario.outcomes) for r in entries)
        row = {r: m for m, r in enumerate(entries)}
        k = self.scenario.settings
        gather = []
        for x, r, w in self.term_list:
            offset = row[r]
            for v in x:
                offset = offset * k + v
            gather.append((offset, w))
        return masks, tuple(gather)

    def contract(self, correlations) -> complex:
        """sum_t w_t E^(r_t)[x_t], summed in term order.

        `correlations(masks)` is called once with the distinct masks, as
        validated `ConjugationMask`s in order of first use, and returns their
        correlation tensors stacked, shape (M,) + settings shape.
        """
        masks, gather = self._plan
        stack = np.asarray(correlations(masks), dtype=complex)
        expected = (len(masks),) + self.scenario.settings_shape()
        if stack.shape != expected:
            raise ValueError(f"correlation stack has shape {stack.shape}, expected {expected}")
        flat = stack.ravel().tolist()
        total = 0j
        for offset, w in gather:
            total += w * flat[offset]
        return total

    def rescaled(self, factor: complex) -> "BellFunctional":
        bound = None
        if self.cached_bound is not None and factor.imag == 0 and factor.real > 0:
            bound = self.cached_bound * factor.real
        return BellFunctional(self.scenario, [(x, r, w * factor) for x, r, w in self.term_list],
                              self.form, bound)


def apply_form(form: FunctionalForm, total: complex) -> float:
    """Collapse the complex pairing sum_x c_x E_x to the functional's real value."""
    if form is FunctionalForm.REAL_PART:
        return float(total.real)
    return float(abs(total))


def _probe_matrix(
    scenario: Scenario, basis: PartyBasis, pairing: Pairing
) -> tuple[np.ndarray, float]:
    """The probe matrix every party shares, plus a deferred common scale.

    For the self-conjugate basis the d^(-1/2) normalization is factored out so
    the contraction runs on exact roots of unity (two-outcome coefficients
    then come out exact); the scale is reapplied once by the caller.
    """
    if basis.size != scenario.settings:
        raise ValueError(f"basis size {basis.size} does not match k={scenario.settings}")
    if basis.order != scenario.outcomes:
        raise ValueError(f"basis order {basis.order} does not match d={scenario.outcomes}")
    u = basis.vectors
    norm_radicand = 1
    if basis.kind is BasisKind.SELF_CONJUGATE:
        exact = unit_roots(basis.order)[
            np.outer(np.arange(basis.size), np.arange(basis.size)) % basis.order
        ]
        if np.allclose(u * np.sqrt(basis.order), exact, atol=1e-12):
            u = exact
            norm_radicand = basis.order**scenario.parties
    if pairing is Pairing.SESQUILINEAR:
        u = u.conj()
    return u, 1.0 / np.sqrt(norm_radicand)


def build_functional(
    scenario: Scenario,
    basis: PartyBasis,
    g: GTable,
    form: FunctionalForm,
    pairing: Pairing = Pairing.BILINEAR,
    mask=None,
) -> BellFunctional:
    """Coefficients c_x = sum_h alpha^g(h) prod_p u_(h_p)[x_p].

    The h-axis of the g table pairs with parties in order: axis p indexes the
    basis vector probing party p.  Under BILINEAR pairing the probe vectors are
    the basis vectors themselves; under SESQUILINEAR their conjugates.  A
    pairing that is not a Pairing member raises ValueError.
    """
    if g.scenario != scenario:
        raise ValueError("g table was built for a different scenario")
    if not isinstance(pairing, Pairing):
        raise ValueError(f"pairing must be a Pairing, got {pairing!r}")
    u, scale = _probe_matrix(scenario, basis, pairing)
    coeff = contract_parties(unit_roots(scenario.outcomes)[g.table], [u] * scenario.parties)
    if scale != 1.0:
        coeff = coeff * scale
    return BellFunctional.from_coefficients(scenario, coeff, form, mask)


# (-1)^(r x): the d = 2 Fourier probe without its 2^(-1/2), exact
WALSH_PROBE = np.array([[1.0, 1.0], [1.0, -1.0]])
WALSH_PROBE.setflags(write=False)


def ww_coefficients(f) -> np.ndarray:
    """Two-outcome coefficient family q(x) = 2^-N sum_r f(r) (-1)^(r.x), f = +/-1.
    It is the construction's expansion of f in the exact d = 2 probe.

    `f` is a dict keyed by exactly the 2^N tuples of {0,1}^N, or an ndarray
    of shape (2,)*N; any other dict raises ValueError.  The resulting
    functionals satisfy sum_x q(x) E_x <= 1 for every LHV model.
    """
    if isinstance(f, dict):
        first = next(iter(f), None)
        n = len(first) if isinstance(first, tuple) else 0
        cube = list(np.ndindex((2,) * n))
        if not isinstance(first, tuple) or set(f) != set(cube):
            raise ValueError("f must be keyed by exactly the 2^N tuples of {0,1}^N")
        arr = np.array([f[r] for r in cube], dtype=float).reshape((2,) * n)
    else:
        arr = np.asarray(f, dtype=float)
        n = arr.ndim
    if arr.shape != (2,) * n:
        raise ValueError(f"f must cover all of {{0,1}}^{n}")
    if not np.all(np.abs(arr) == 1):
        raise ValueError("f must take values +1 or -1")
    return contract_parties(arr, [WALSH_PROBE] * n) / 2**n


def wwzb_nonlinear(
    tensor: CorrelationTensor,
    basis: PartyBasis,
    pairing: Pairing = Pairing.BILINEAR,
) -> float:
    """sum_h |(E, v_h1 x ... x v_hN)|, the nonlinear envelope of the linear family.

    It dominates |sum_h alpha^g(h) (E, V_h)| for every exponent table g.
    """
    scenario = tensor.scenario
    u, scale = _probe_matrix(scenario, basis, pairing)
    probe = contract_parties(tensor.values, [u.T] * scenario.parties)
    return float(np.abs(probe).sum() * scale)


def evaluate_functional(functional: BellFunctional, tensor: CorrelationTensor) -> float:
    """Re or |.| of sum_t w_t E[x_t] on a tensor of the functional's one mask."""
    if tensor.scenario != functional.scenario:
        raise ValueError("correlation tensor belongs to a different scenario")
    if functional.mask is None or tensor.mask.entries != functional.mask.entries:
        entries = "mixed" if functional.mask is None else functional.mask.entries
        raise ValueError(f"mask mismatch: functional {entries}, tensor {tensor.mask.entries}")
    return apply_form(functional.form, functional.contract(lambda _: tensor.values[None]))
