"""Interferometric measurement model: phase shifters feeding a Fourier multiport.

Each party holds a symmetric d-port whose unitary is the discrete Fourier
transform; a measurement setting is a list of input-port phases, and the
outcome is the index of the output port that fires.  Born probabilities are
the authoritative path; the shift-product form of the correlations is an
algebraically equal fast path, kept as the cross-check of the Born path
(quantum_functional_value(path="fast")).  Its index plan, the ports and basis
states j + r displaced by each mask (_shift_plan), is the one the optimizer's
seesaw reads too.  Both paths are contracted party by party
over all k^N joint settings at once, with no loop over settings tuples (the
Born path through `core.contract_parties`), and each evaluates all of a
functional's masks in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    CorrelationTensor,
    ProbabilityTable,
    Scenario,
    as_index,
    as_mask,
    check_correlations,
    contract_parties,
    correlation_from_probabilities,
    unit_roots,
)

__all__ = [
    "MultiportUnitary",
    "QuantumSetup",
    "fourier_multiport",
    "born_probabilities",
    "probability_table",
    "quantum_correlation_stack",
    "quantum_correlation_tensor",
    "born_correlation_tensor",
]


@dataclass(frozen=True)
class MultiportUnitary:
    """The d x d optical Fourier transform M_uj = d^(-1/2) alpha^(u*j)."""

    dimension: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)  # a copy: the caller's array stays writable
        if mat.shape != (self.dimension, self.dimension):
            raise ValueError(f"expected {self.dimension}x{self.dimension} matrix")
        if not np.allclose(mat @ mat.conj().T, np.eye(self.dimension), atol=1e-12):
            raise ValueError("multiport matrix must be unitary")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@lru_cache(maxsize=None)
def fourier_multiport(d: int) -> MultiportUnitary:
    """The d-port Fourier multiport; built and checked once per d."""
    if d < 2:
        raise ValueError("need d >= 2")
    grid = np.outer(np.arange(d), np.arange(d)) % d
    return MultiportUnitary(d, unit_roots(d)[grid] / np.sqrt(d))


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
    return values


def _unit_state(amplitudes) -> np.ndarray:
    """amplitudes / |amplitudes|; refuses non-finite and all-zero amplitudes.

    The norm is taken after an exact scaling by 2^-e, e the binary exponent of
    the largest real or imaginary part, so it neither overflows nor underflows,
    and a state whose norm was representable unscaled keeps its bits.
    """
    amps = _finite("amplitudes", np.asarray(amplitudes, dtype=complex))
    if not amps.any():
        raise ValueError("cannot normalize the zero state: all amplitudes are 0")
    exponent = -np.frexp(np.abs([amps.real, amps.imag]).max())[1]
    scaled = np.empty_like(amps)
    scaled.real, scaled.imag = np.ldexp(amps.real, exponent), np.ldexp(amps.imag, exponent)
    return scaled / np.linalg.norm(scaled.ravel())


@dataclass(frozen=True)
class QuantumSetup:
    """Input-state amplitudes plus per-party, per-setting input port phases.

    amplitudes has shape (d,)*N and unit norm; phases has shape (N, k, d) in
    radians with port 0 fixed to zero (the global phase of each setting is
    unobservable).
    """

    scenario: Scenario
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        n, k, d = self.scenario.parties, self.scenario.settings, self.scenario.outcomes
        # copies: the caller's arrays stay writable
        amps = _finite("amplitudes", np.array(self.amplitudes, dtype=complex))
        if amps.shape != (d,) * n:
            raise ValueError(f"expected amplitude shape {(d,) * n}, got {amps.shape}")
        norm = np.linalg.norm(amps.ravel())
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} is not 1; use QuantumSetup.normalized")
        phases = _finite("phases", np.array(self.phases, dtype=float))
        if phases.shape != (n, k, d):
            raise ValueError(f"expected phase shape {(n, k, d)}, got {phases.shape}")
        if np.abs(phases[:, :, 0]).max() > 0:
            raise ValueError("port-0 phases must be zero; use QuantumSetup.normalized")
        amps.setflags(write=False)
        phases.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "phases", phases)

    @classmethod
    def normalized(cls, scenario: Scenario, amplitudes, phases) -> "QuantumSetup":
        """Build a setup from raw data: normalize the state, gauge-fix port 0."""
        amps = _unit_state(amplitudes)
        phases = _finite("phases", np.asarray(phases, dtype=float))
        if phases.ndim == 3:  # any other shape is refused by __post_init__
            phases = phases - phases[:, :, :1]
        return cls(scenario, amps, phases)


def _final_amplitudes(setup: QuantumSetup, phases: np.ndarray) -> np.ndarray:
    """Output amplitudes for every joint setting of phases at once.

    phases has shape (N, k', d): k' settings per party.  `contract_parties`
    expands the amplitudes party by party, each party's stack of k' transfer
    matrices F diag(e^(i phi)) read as one (d in, k' * d out) matrix.  One
    transposed view then gives shape (d,)*N + (k',)*N, the ProbabilityTable
    layout.
    """
    fourier = fourier_multiport(setup.scenario.outcomes).matrix
    n, settings, d = phases.shape
    transfers = fourier * np.exp(1j * phases)[:, :, None, :]  # (N, k', d out, d in)
    psi = contract_parties(setup.amplitudes, [t.reshape(settings * d, d).T for t in transfers])
    return psi.reshape((settings, d) * n).transpose(
        list(range(1, 2 * n, 2)) + list(range(0, 2 * n, 2)))


def born_probabilities(setup: QuantumSetup, x: tuple[int, ...]) -> np.ndarray:
    """p(a|x) = |<a|Psi'>|^2, shape (d,)*N; sums to 1."""
    n, k = setup.scenario.parties, setup.scenario.settings
    if len(x) != n:
        raise ValueError("settings tuple length does not match the party count")
    if not all(0 <= as_index(v, "settings") < k for v in x):
        raise ValueError(f"settings must be integers in [0, {k}), got {tuple(x)!r}")
    phases = setup.phases[np.arange(n), np.asarray(x, dtype=np.int64)][:, None, :]
    psi = _final_amplitudes(setup, phases)
    return np.abs(psi.reshape(psi.shape[:n])) ** 2


def probability_table(setup: QuantumSetup) -> ProbabilityTable:
    """Born probabilities for every joint setting, as a ProbabilityTable."""
    psi = _final_amplitudes(setup, setup.phases)
    return ProbabilityTable(setup.scenario, np.abs(psi) ** 2)


@lru_cache(maxsize=256)
def _shift_plan(scenario: Scenario, entries: tuple[tuple[int, ...], ...]):
    """The read-only flat gathers that displace ports by each mask in a list.

    With j + r the ports j displaced by mask entries[m] (mod d), shifted[m, j]
    is the flat index of j + r into the amplitudes, shape (M,) + (d,)*N, and
    displaced[p, m, x, j] = x * d + (j_p + r_p) indexes party p's (k, d)
    phase factors.
    """
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    count = len(entries)
    ports = (np.arange(d) + np.array(entries, dtype=np.int64).reshape(count, n, 1)) % d
    shifted = sum(ports[:, p].reshape((count,) + (1,) * p + (d,) + (1,) * (n - 1 - p))
                  * d ** (n - 1 - p) for p in range(n))
    displaced = np.arange(k)[:, None] * d + ports.transpose(1, 0, 2)[:, :, None, :]
    shifted.setflags(write=False)
    displaced.setflags(write=False)
    return shifted, displaced


def quantum_correlation_stack(setup: QuantumSetup, masks) -> np.ndarray:
    """E^(r)_x via the shift-product form, for every mask r at once.

    The Fourier sums collapse the double Born sum onto amplitude pairs
    displaced by the mask.  With B[j] = s_j conj(s_(j+r)) and f_p[x, j] =
    e^(i phi[p,x,j]) conj(e^(i phi[p,x,j+r_p])), E_x = sum_j B[j] prod_p
    f_p[x_p, j_p], contracted one party at a time with one matmul over the
    mask axis.  The result has shape (M,) + settings shape, one slice per mask
    in order; a mask's slice does not depend on the other masks in the stack.
    The displaced ports are built once per scenario and masks.
    """
    scenario = setup.scenario
    n, k, d = scenario.parties, scenario.settings, scenario.outcomes
    masks = [as_mask(scenario, mask) for mask in masks]
    count = len(masks)
    shifted, displaced = _shift_plan(scenario, tuple(mask.entries for mask in masks))
    amps = setup.amplitudes
    values = amps * amps.take(shifted).conj()  # (M,) + (d,)*N
    e = np.exp(1j * setup.phases)  # (N, k, d)
    for p in range(n):
        factor = e[p] * e[p].take(displaced[p]).conj()  # (M, k, d)
        rest = values.shape[2:]
        # party p's ports lead the remaining axes; its settings axis goes last
        flat = values.reshape(count, d, -1).transpose(0, 2, 1)
        values = (flat @ factor.transpose(0, 2, 1)).reshape((count,) + rest + (k,))
    # round-off can push |E| a hair above 1; clip the modulus, not the phase
    mags = np.abs(values)
    over = mags > 1.0
    if np.any(over):
        if mags.max() > 1 + 1e-10:
            raise ValueError(f"correlation modulus {mags.max()} exceeds 1 beyond round-off")
        values = np.where(over, values / mags, values)
    check_correlations(scenario, masks, values)
    return values


def quantum_correlation_tensor(setup: QuantumSetup, mask) -> CorrelationTensor:
    """E_x(r) via the shift-product form; one mask of `quantum_correlation_stack`."""
    mask = as_mask(setup.scenario, mask)
    return CorrelationTensor(setup.scenario, mask, quantum_correlation_stack(setup, [mask])[0])


def born_correlation_tensor(setup: QuantumSetup, mask) -> CorrelationTensor:
    """Correlations through the Born path; the oracle for the shift-product form."""
    return correlation_from_probabilities(probability_table(setup), mask)
