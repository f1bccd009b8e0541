"""Maximize quantum values of Bell functionals over multiport setups.

For fixed phase-shifter settings the pairing sum_x c_x E_x is a quadratic form
s* G(phi) s in the input state, and G only couples basis index j with j + r_t,
where r_t are the term masks.  So G is block-diagonal over the cosets of the
subgroup H = <r_t> of Z_d^N, and every coset block gives the same optimum: for
the Fourier matrix F X^c = Z^c F, so translating the state by c and rolling
each party's phase rows by c_p leaves every probability unchanged.  The search
therefore runs on H alone, an index array of basis states (the support): G is
built on the support's rows and columns, |H| x |H| instead of d^N x d^N (d x d
for any single-mask functional), and the best state for given phases is the
top eigenvector of its Hermitian part (rotated by exp(i*theta) for modulus
forms, whose optimum over theta is the numerical radius).  The GHZ family
span{|00..0>, |11..1>, ...} is another support; a fixed state s is the one
column s/|s| on the support of s, where the value is |s* G s| and no
eigensolve is needed.

Each restart runs a monotone alternating ascent: with the state held fixed,
every free phase has a sinusoidal objective A e^(i*phi) + B e^(-i*phi) + C
whose coefficients are read off a per-party environment (the pairing
contracted over every other party), so each phase's maximizer phi* is known
exactly.  Each phase in turn is over-relaxed: it steps omega = OVERRELAXATION
times the wrapped way to phi*, past it.  Its objective is
|z| cos(phi - phi*) + C and the step lands no farther from phi* than it
started, so the ascent stays monotone, and a moved phase lies in
[-omega*pi, omega*pi].  Exact steps (omega = 1) crawl along coupled phases
at a linear rate; the longer step needs about a quarter fewer sweeps.  The
state is then refreshed by an eigensolve.  A modulus form's refresh also
re-centres the rotation theta: safeguarded Newton steps climb
lambda_max(H(theta)), reading its first and second derivatives off each
round's eigendecomposition, and the refresh keeps its best round, so it never
ends below its first eigensolve (see _recentred).

The ascent runs on a batch of rows.  A row is one (functional, restart) pair;
the rows of a batch share a term structure and a support and differ in their
weights and start phases.  The search driver puts every restart of every
functional it is given into one batch per term structure and support, so the
orbit representatives of the exponent-table sweep share one batch.  The phase
factors, environments, G, its Hermitian part, one stacked eigensolve, the
modulus rotation re-centring and the convergence test run on all rows at
once, and a converged row leaves the batch.  The phase factors are evaluated
once per batch and carried across iterations: the sweep, the only step that
moves phases, refreshes a party's factors right after updating its phases,
and G is built from the factors the sweep leaves.  The single-phase updates
are sequential, so each row makes them in plain complex arithmetic from its
environment summed per (setting, shift) group.  Every batched sum runs along
the last axis of a fresh array and every eigensolve is one matrix's, so a
row's result is bit-identical whatever else shares its batch.

Every reported quantum value is re-evaluated through the Born-rule path on the
returned setup, so results are reproducible from the setup alone.  A fixed seed
gives bit-identical results on every run: restarts draw from disjoint rows of
one Sobol stream, and the reduction breaks ties by restart index.  The stream
is the scrambled Sobol sequence of scipy.stats.qmc.Sobol, rebuilt here bit for
bit (see _sobol_points) from Joe & Kuo's (2008) direction numbers as scipy
ships them.  bellkit ships the table precomputed in sobol_directions.npy and
memory-maps it, so a search imports no scipy module.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Scenario, correlation_stack
from .bases import (
    BellFunctional,
    FunctionalForm,
    GTable,
    Pairing,
    apply_form,
    build_functional,
    fourier_party_basis,
    k2_conjugate_basis,
)
from .lhv import DEFAULT_BUDGET, _check_budget, classical_bound
from .multiport import QuantumSetup, probability_table, quantum_correlation_stack

__all__ = [
    "ConfigError",
    "OptimizationConfig",
    "OptResult",
    "ScanRow",
    "SymmetricSearchResult",
    "quantum_functional_value",
    "maximize_violation",
    "maximize_with_fixed_state",
    "maximize_restricted_ghz",
    "product_g_functional",
    "scan_product_g",
    "symmetric_g_search",
]

BETA_CUTOFF = 1e-9  # below this the ratio R is reported as absent
MAX_ITERATIONS = 2000  # alternating sweeps per restart
TOLERANCE = 1e-8  # the least gain that continues a restart's sweeps
OVERRELAXATION = 1.3  # each phase step, as a multiple of the step to its exact maximizer
SOBOL_BITS = 30  # bits of every Sobol coordinate: one stream has 2**SOBOL_BITS points


class ConfigError(ValueError):
    """A search option out of range; field names the option."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _check_count(name: str, value, least: int):
    """Refuse anything but an integer (bool excluded) of at least least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(name, f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(name, f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class OptimizationConfig:
    """Budget and seed of one search, whatever its state support.

    The search runs over the free port phases (ports 1..d-1 of every party and
    setting; port 0 is gauge-fixed) plus one rotation angle for modulus forms;
    the state is resolved exactly per iteration by an eigensolve on the
    support.  restarts is the number of Sobol starts (at most 2**SOBOL_BITS,
    the length of the stream) and seed (a non-negative integer) selects the
    Sobol scrambling.  A value out of range raises ConfigError naming its
    field.
    """

    restarts: int = 200
    seed: int = 0

    def __post_init__(self):
        # seed=None would draw fresh entropy and break bit-for-bit repeats
        for name, least in (("restarts", 1), ("seed", 0)):
            _check_count(name, getattr(self, name), least)
        if self.restarts > 1 << SOBOL_BITS:
            raise ConfigError("restarts", f"restarts must be at most 2**{SOBOL_BITS}, the "
                                          f"Sobol stream's length, got {self.restarts}")


@dataclass(frozen=True)
class OptResult:
    """Best quantum value found, with the setup that realizes it.

    restart_index is the best restart (ties go to the lower index), iterations
    the number of alternating sweeps it ran, restart_values every restart's
    final seesaw value and restart_iterations its sweep count, both in restart
    order; a restart that MAX_ITERATIONS stopped shows MAX_ITERATIONS.
    """

    quantum_value: float
    classical_bound: float
    ratio: float | None
    setup: QuantumSetup
    restart_index: int
    iterations: int
    restart_values: tuple[float, ...]
    restart_iterations: tuple[int, ...]


def quantum_functional_value(functional, setup: QuantumSetup, path: str = "born") -> float:
    """Evaluate a functional on a multiport setup.

    path="born" goes through output probabilities (the authoritative route);
    path="fast" uses the shift-product correlations.
    """
    scenario = functional.scenario
    if setup.scenario != scenario:
        raise ValueError("setup belongs to a different scenario")
    if path == "born":
        table = probability_table(setup)
        correlations = lambda masks: correlation_stack(table, masks)
    elif path == "fast":
        correlations = lambda masks: quantum_correlation_stack(setup, masks)
    else:
        raise ValueError(f"unknown path {path!r}")
    return apply_form(functional.form, functional.contract(correlations))


def coset_support(functional) -> np.ndarray:
    """Flat indices, ascending, of H = <r_t>: the term masks closed under addition mod d."""
    n, d = functional.scenario.parties, functional.scenario.outcomes
    shape = (d,) * n
    elements = np.zeros((n, 1), dtype=np.int64)
    for mask in {r for _, r, _ in functional.terms()}:
        spread = elements[:, :, None] + np.outer(mask, np.arange(d))[:, None, :]
        # marking, not np.unique, which imports numpy.ma on its first call
        member = np.zeros(d**n, dtype=bool)
        member[np.ravel_multi_index(spread.reshape(n, -1) % d, shape)] = True
        elements = np.array(np.unravel_index(np.flatnonzero(member), shape))
    return np.ravel_multi_index(elements, shape)


class _MultiportObjective:
    """Pairing totals, G(phi) on a support, and eigen-resolved states, batched over rows.

    The functionals share one term structure: they list the same (settings,
    mask) pairs in the same order and differ only in their weights, one row of
    weights (F, T) and of mask_weights (F, M, T) each.  The batched methods
    take a leading axis of B rows, each reading its own functional's weights.
    States live on support, an ascending index array of basis states: G is
    built on the support's rows and columns and the pairing is contracted over
    the support's states; entries that would leave the support are dropped,
    which on H never happens.  A fixed state is the unit vector fixed on the
    support, and then no eigensolve runs.

    Every batched sum runs along the last axis of a fresh array and every
    eigensolve is one matrix's, so a row's arithmetic does not depend on the
    other rows of its batch.
    """

    def __init__(self, functionals: Sequence, support: np.ndarray,
                 fixed: np.ndarray | None = None):
        first = functionals[0]
        scenario: Scenario = first.scenario
        self.scenario = scenario
        n, k, d = scenario.parties, scenario.settings, scenario.outcomes
        self.dim = d**n
        terms = first.terms()
        self.xs = np.array([t[0] for t in terms], dtype=np.int64)          # (T, n)
        self.rs = np.array([t[1] for t in terms], dtype=np.int64)          # (T, n)
        self.weights = np.array([[t[2] for t in functional.terms()]
                                 for functional in functionals], dtype=complex)  # (F, T)
        # port indices j + r_t, per party, for rolling phase rows by a mask entry
        ports = np.arange(d)
        roll_idx = (ports[None, None, :] + self.rs.T[:, :, None]) % d       # (n, T, d)
        # flat indices into phases[p] of ports j and j + r_t for setting x_t, per party
        self.port_idx = self.xs.T[:, :, None] * d + ports                   # (n, T, d)
        self.shifted_port_idx = self.xs.T[:, :, None] * d + roll_idx
        self.support = np.asarray(support)
        self.fixed = fixed
        self._index_support()
        self._group_shifts()
        self.is_modulus = first.form is FunctionalForm.MODULUS
        self.n_phases = n * k * (d - 1)

    def _index_support(self):
        """Where each term puts its G entries and pairs its amplitudes on the support.

        Column a of G holds basis state h = support[a]; a term with mask r puts
        w prod_p u_p(h_p) in the row of h + r.  Terms sharing a mask share that
        row, so their entries are summed first (mask_weights) and each distinct
        mask fills distinct cells of G.  partners[t, a] is the support position
        of h + r_t, or the support's size where h + r_t leaves it.
        """
        n, d = self.scenario.parties, self.scenario.outcomes
        size = len(self.support)
        count = len(self.xs)
        self.digits = np.array(np.unravel_index(self.support, (d,) * n))  # (n, m)
        # u.reshape(B, T, n * d)[:, :, factor_idx] gives u[b, t, p, h_p] for every column
        self.factor_idx = np.arange(n)[:, None] * d + self.digits          # (n, m)
        # port_masks[p, c, a] = 1 where support[a] has digit c at party p
        self.port_masks = (self.digits[:, None, :] == np.arange(d)[:, None]).astype(float)
        masks, mask_of = np.unique(self.rs, axis=0, return_inverse=True)
        mask_of = mask_of.reshape(-1)
        self.mask_weights = np.zeros((len(self.weights), len(masks), count), dtype=complex)
        self.mask_weights[:, mask_of, np.arange(count)] = self.weights
        targets = np.ravel_multi_index((self.digits[:, None] + masks.T[:, :, None]) % d,
                                       (d,) * n)
        rows = np.minimum(np.searchsorted(self.support, targets), size - 1)  # (M, m)
        inside = self.support[rows] == targets
        self.g_cells = (rows * size + np.arange(size))[inside]
        self.g_sources = (np.arange(len(masks))[:, None] * size + np.arange(size))[inside]
        self.partners = np.where(inside, rows, size)[mask_of]                # (T, m)

    def _group_shifts(self):
        """Per party, the terms whose phase row moves, grouped by (setting, mask entry s).

        shift_masks[p][g] marks group g's terms.  shift_groups[p][x] lists, for
        the groups reading setting x, (g, plus, minus) with plus[c] = c + s and
        minus[c] = c - s mod d.
        """
        n, k, d = self.scenario.parties, self.scenario.settings, self.scenario.outcomes
        ports = np.arange(d)
        self.shift_masks, self.shift_groups = [], []
        for p in range(n):
            settings, shifts = self.xs[:, p], self.rs[:, p] % d
            keys = sorted({(int(x), int(s)) for x, s in zip(settings, shifts) if s})
            self.shift_masks.append(np.array(
                [(settings == x) & (shifts == s) for x, s in keys], dtype=float,
            ).reshape(len(keys), len(self.xs)))
            groups = [[] for _ in range(k)]
            for g, (x, s) in enumerate(keys):
                groups[x].append((g, ((ports + s) % d).tolist(), ((ports - s) % d).tolist()))
            self.shift_groups.append(groups)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """rows[t, j] = flat index of (j + r_t) mod d over all d^N states, for pair_total."""
        n, d = self.scenario.parties, self.scenario.outcomes
        grid = np.indices((d,) * n).reshape(n, self.dim)
        shifted = (grid[None, :, :] + self.rs[:, :, None]) % d
        return np.array([np.ravel_multi_index(shifted[t], (d,) * n) for t in range(len(self.rs))])

    # -- core algebra, batched over a leading row axis ------------------------
    def phase_factors(self, phases: np.ndarray) -> np.ndarray:
        """u[b, t, p, j] = exp(i(phi[b, p, x_t_p, j] - phi[b, p, x_t_p, j + r_t_p])), (B, T, n, d)."""
        return np.stack([self.party_factors(phases, p) for p in range(self.scenario.parties)],
                        axis=2)

    def party_factors(self, phases: np.ndarray, p: int) -> np.ndarray:
        """u[:, :, p, :], the phase factors of one party."""
        row = phases[:, p].reshape(len(phases), -1)
        return np.exp(1j * (row[:, self.port_idx[p]] - row[:, self.shifted_port_idx[p]]))

    def support_factors(self, u: np.ndarray) -> np.ndarray:
        """f[b, t, p, a] = u[b, t, p, h_p] at the support's states h = support[a], (B, T, n, m)."""
        return u.reshape(u.shape[0], u.shape[1], -1)[:, :, self.factor_idx]

    def state_products(self, blocks: np.ndarray) -> np.ndarray:
        """P[b, t, a] = s_a conj(s_(a + r_t)) for states s on the support, (B, T, m)."""
        padded = np.concatenate([blocks, np.zeros((len(blocks), 1))], axis=1)
        return blocks[:, None, :] * padded.conj()[:, self.partners]

    def environment(self, factors: np.ndarray, products: np.ndarray, weights: np.ndarray,
                    p: int) -> np.ndarray:
        """M_p[b, t, c] = w_t sum_(h_p = c) prod_(q != p) u_t,q(h_q) P_t(h), (B, T, d).

        The sum runs over the support's states h.  The pairing total is
        sum_t,c M_p[t, c] u_t,p(c) and M_p does not depend on party p's phases,
        so it serves every phase of that party.
        """
        z = products
        for q in range(self.scenario.parties):
            if q != p:
                z = z * factors[:, :, q]
        return weights[:, :, None] * (z[:, :, None, :] * self.port_masks[p]).sum(axis=-1)

    def shift_sums(self, env: np.ndarray, p: int) -> np.ndarray:
        """E[b, g, j] = sum of M_p[b, t, j] over the terms of party p's shift group g, (B, G, d)."""
        return (env.transpose(0, 2, 1)[:, None] * self.shift_masks[p][:, None, :]).sum(axis=-1)

    def g_matrix(self, factors: np.ndarray, mask_weights: np.ndarray) -> np.ndarray:
        """G(phi) of every row on the support from its support factors, (B, m, m).

        G[b, a', a] couples support[a] with support[a'] = support[a] + r_t.
        """
        count, size = len(factors), len(self.support)
        columns = factors[:, :, 0]
        for q in range(1, self.scenario.parties):
            columns = columns * factors[:, :, q]                              # (B, T, m)
        per_mask = (mask_weights[:, :, None, :]
                    * columns.transpose(0, 2, 1)[:, None]).sum(axis=-1)      # (B, M, m)
        g = np.zeros((count, size * size), dtype=complex)
        g[:, self.g_cells] = per_mask.reshape(count, -1)[:, self.g_sources]
        return g.reshape(count, size, size)

    def pair_total(self, phases: np.ndarray, state: np.ndarray, weights: np.ndarray) -> complex:
        """sum_t w_t sum_j u_t(j) s_j conj(s_(j + r_t)) for one row on the whole space.

        The reference path: a full d^N state, contracted party by party.
        """
        n, d = self.scenario.parties, self.scenario.outcomes
        u = self.phase_factors(phases[None])[0]
        flat = state.ravel()
        z = (flat[None, :] * flat.conj()[self.rows]).reshape((len(self.xs),) + (d,) * n)
        for p in range(n):
            z = (z * u[:, p][(...,) + (None,) * (n - 1 - p)]).sum(axis=1)
        return complex(weights @ z)

    # -- eigen-resolved objective -------------------------------------------
    def scatter(self, block: np.ndarray) -> np.ndarray:
        """The full d^N state whose amplitudes on the support are block."""
        state = np.zeros(self.dim, dtype=complex)
        state[self.support] = block
        return state

    def refreshed_states(self, factors: np.ndarray, mask_weights: np.ndarray,
                         blocks: np.ndarray | None, theta: np.ndarray):
        """Eigen state updates of every row; for modulus forms also re-centre the rotations.

        factors are the rows' support factors.  A real-part row takes the top
        eigenvector of G's Hermitian part.  A modulus row's rotation first
        moves to -arg(s* G s) of its state blocks (None starts each row from
        the top eigenvector at theta); then _recentred climbs
        lambda_max(H(theta)) by Newton steps, up to 8 eigensolves, and keeps
        the round with the largest |s* G s|.  So a refresh never ends below
        its first eigensolve, and each row's value is that of the state and
        rotation returned with it.  Returns the states on the support, the
        rotations and the values.
        """
        g = self.g_matrix(factors, mask_weights)
        if not self.is_modulus:
            new = _eigh_stack(_hermitian_part(g))[1][:, :, -1]
            return new, theta, _quadratic(g, new).real
        if blocks is None:
            blocks = _eigh_stack(_hermitian_part(g, np.exp(1j * theta)))[1][:, :, -1]
        total = _quadratic(g, blocks)
        return _recentred(g, np.where(total != 0, -np.angle(total), theta))

    def setup_at(self, phases: np.ndarray, state: np.ndarray) -> QuantumSetup:
        # fix the state's arbitrary global phase for reproducible output
        anchor = np.argmax(np.abs(state))
        state = state * np.exp(-1j * np.angle(state[anchor]))
        d = self.scenario.outcomes
        shape = (d,) * self.scenario.parties
        return QuantumSetup.normalized(self.scenario, state.reshape(shape), phases)


def _quadratic(g: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """s* G s for every row of a (B, m, m) stack and (B, m) states."""
    return (blocks.conj() * (g * blocks[:, None, :]).sum(axis=-1)).sum(axis=-1)


def _hermitian_part(g: np.ndarray, rotation: np.ndarray | None = None) -> np.ndarray:
    """H = (R + R*) / 2 of every row of a (B, m, m) stack, R = rotation[b] G[b] (G for None)."""
    rotated = g if rotation is None else g * rotation[:, None, None]
    return 0.5 * (rotated + rotated.conj().transpose(0, 2, 1))


def _recentred(g: np.ndarray, theta: np.ndarray):
    """Modulus rows' states, rotations and values: a safeguarded Newton ascent in theta.

    The value of a rotation is f(theta) = lambda_1, the top eigenvalue of
    H(theta) = _hermitian_part(G, e^(i*theta)), with top eigenvector s.  From
    the round's eigenpairs (lambda_j, v_j), f' = -Im(e^(i*theta) s* G s) and
    f'' = -lambda_1 + 2 sum_(j != 1) |v_j* G s|^2 / (lambda_1 - lambda_j).
    Each round steps to theta - f'/f'' where f'' is negative and the step
    finite, and elsewhere to -arg(s* G s), the fixed point of the rotation
    (Newton's step with the sum dropped, so it converges only linearly).  A
    row stops once theta moves by less than 1e-12, once s* G s = 0, or after
    8 rounds.  A Newton step can overshoot, so each row returns the round
    with the largest |s* G s|: its state, the rotation -arg(s* G s) and the
    value |s* G s|.  The first round is one eigensolve at the given theta, so
    no refresh ends below it; a row whose first s* G s is 0 keeps its theta.
    """
    count, size = g.shape[:2]
    best, best_total = np.empty((count, size), dtype=complex), np.zeros(count, dtype=complex)
    best_value = np.full(count, -1.0)
    theta = theta.copy()
    live = np.arange(count)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(8):
            g_live, theta_live = g[live], theta[live]
            rotation = np.exp(1j * theta_live)
            values, vectors = _eigh_stack(_hermitian_part(g_live, rotation))
            image = (g_live * vectors[:, None, :, -1]).sum(axis=-1)           # G s
            # v_j* G s for every eigenvector j, each summed along a fresh last
            # axis; the top one, j = m, is s* G s bit for bit as _quadratic
            pairs = (np.ascontiguousarray(vectors.transpose(0, 2, 1)).conj()
                     * image[:, None, :]).sum(axis=-1)
            sums, magnitude = pairs[:, -1], np.abs(pairs[:, -1])
            better = magnitude > best_value[live]
            rows = live[better]
            best[rows], best_total[rows] = vectors[better, :, -1], sums[better]
            best_value[rows] = magnitude[better]
            gaps = values[:, -1:] - values[:, :-1]                           # lambda_1 - lambda_j
            curvature = 2 * (np.abs(pairs[:, :-1]) ** 2 / gaps).sum(axis=-1) - values[:, -1]
            newton = theta_live + (rotation * sums).imag / curvature
            next_theta = np.where((curvature < 0) & np.isfinite(newton), newton, -np.angle(sums))
            moving = sums != 0
            theta[live] = np.where(moving, next_theta, theta_live)
            turn = (next_theta - theta_live + np.pi) % (2 * np.pi) - np.pi
            live = live[moving & (np.abs(turn) >= 1e-12)]
            if not live.size:
                break
    return best, np.where(best_total != 0, -np.angle(best_total), theta), best_value


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and eigenvectors of the Hermitian matrix h.

    LAPACK's divide-and-conquer solver behind numpy's eigh can fail to converge
    on a finite, exactly Hermitian matrix (seen at 243x243 with one BLAS
    thread).  Only then is the MRRR driver used, so every result where the
    default solver converges is unchanged.
    """
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError:
        from scipy import linalg  # imported only here: no converging run loads it

        return linalg.eigh(h, driver="evr")


def _eigh_stack(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (B, m), ascending, and eigenvectors (B, m, m) of a stack of Hermitian matrices.

    The stacked eigh solves each matrix as a call on it alone would.  If it
    raises, every matrix is solved alone through _eigh, so a row's
    eigenpairs never depend on the rest of its stack.
    """
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError:
        solved = [_eigh(matrix) for matrix in h]
        return np.array([w for w, _ in solved]), np.array([v for _, v in solved])


def _update_phases(rows: list, sums: list, groups: list, total: complex, theta: float,
                   modulus: bool) -> tuple[complex, float]:
    """Over-relaxed single-phase updates of one row's party, in plain complex arithmetic.

    rows[x][c] is the party's phase phi[x, c], updated in place for c >= 1 in
    order; sums[g] is the shift group sum E_s of group g.  With everything
    else frozen the pairing total is A e^(i*phi) + B e^(-i*phi) + C in
    phi[x, c], with A = sum_s E_s[c] e^(-i*phi[x, c + s]) and
    B = sum_s E_s[c - s] e^(i*phi[x, c - s]) over the groups reading setting x.
    Re[e^(i*theta) * total] is then |z| cos(phi - phi*) + C' with
    z = e^(i*theta) A + conj(e^(i*theta) B) and phi* = -arg z.  A phase moves
    to phi* + (omega - 1) wrap(phi* - phi), omega = OVERRELAXATION and wrap
    into [-pi, pi): for omega in [0, 2] that is no farther from phi* than
    phi, so every step is monotone, and the moved phase lies in
    [-omega*pi, omega*pi]; z = 0 leaves it where it is.  The running total
    follows each step, and a modulus row's rotation then moves to
    -arg(total), which leaves Re[e^(i*theta) * total] = |total| no lower.
    Returns the final total and rotation.
    """
    for x, phis in enumerate(rows):
        moving = [(sums[g], plus, minus) for g, plus, minus in groups[x]]
        factors = [cmath.exp(1j * phi) for phi in phis]
        for c in range(1, len(phis)):
            a = b = 0j
            for shift_sum, plus, minus in moving:
                a += shift_sum[c] * factors[plus[c]].conjugate()
                j = minus[c]
                b += shift_sum[j] * factors[j]
            current = factors[c]
            const = total - a * current - b * current.conjugate()
            rotation = cmath.exp(1j * theta)
            z = rotation * a + (rotation * b).conjugate()
            if z != 0:
                best = -cmath.phase(z)
                step = (best - phis[c] + math.pi) % (2 * math.pi) - math.pi
                phis[c] = best + (OVERRELAXATION - 1) * step
                factors[c] = current = cmath.exp(1j * phis[c])
            total = a * current + b * current.conjugate() + const
            if modulus and total != 0:
                theta = -cmath.phase(total)
    return total, theta


def _sweep(objective: _MultiportObjective, phases: np.ndarray, u: np.ndarray,
           factors: np.ndarray, products: np.ndarray, theta: np.ndarray,
           weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One pass of over-relaxed single-phase updates on every row, with the states held fixed.

    u and factors are the rows' phase factors and support factors at phases.
    Party by party, the environments of all rows are contracted in one batch
    and summed per shift group; then each row updates that party's phases in
    turn (_update_phases), each step monotone and each moved phase within
    [-OVERRELAXATION*pi, OVERRELAXATION*pi].  Updates phases, u and factors
    in place, party by party, and returns the rows' final values and
    rotations.
    """
    thetas = theta.tolist()
    for p in range(objective.scenario.parties):
        env = objective.environment(factors, products, weights, p)
        totals = (env * u[:, :, p]).reshape(len(env), -1).sum(axis=-1).tolist()
        sums = objective.shift_sums(env, p).tolist()
        rows = phases[:, p].tolist()
        groups = objective.shift_groups[p]
        for b, row in enumerate(rows):
            totals[b], thetas[b] = _update_phases(row, sums[b], groups, totals[b], thetas[b],
                                                  objective.is_modulus)
        phases[:, p] = rows
        u[:, :, p] = objective.party_factors(phases, p)
        factors[:, :, p] = u[:, :, p][:, :, objective.digits[p]]
    totals = np.array(totals)
    values = np.abs(totals) if objective.is_modulus else totals.real
    return values, np.array(thetas)


def _seesaw(objective: _MultiportObjective, owners: np.ndarray, start_phases: np.ndarray):
    """Alternate over-relaxed phase sweeps and eigen state updates on every row until stationary.

    Row b runs functional owners[b] from start_phases[b].  A row leaves the
    batch once a sweep and state update gain at most TOLERANCE, or after
    MAX_ITERATIONS sweeps.  A fixed state never changes, so its value and
    rotation are the sweep's running pairing total and no state update runs.
    Phases change only inside _sweep, which keeps the phase factors u and
    the support factors in step with them, so each is evaluated once per
    batch.  Returns every row's value, phases, state on the support and sweep
    count.
    """
    phases = start_phases.copy()
    phases[:, :, :, 0] = 0.0
    u = objective.phase_factors(phases)
    factors = objective.support_factors(u)
    weights = objective.weights[owners]
    mask_weights = objective.mask_weights[owners]
    theta = np.zeros(len(owners))
    if objective.fixed is None:
        blocks, theta, value = objective.refreshed_states(factors, mask_weights, None, theta)
    else:
        blocks = np.tile(objective.fixed, (len(owners), 1))
        total = _quadratic(objective.g_matrix(factors, mask_weights), blocks)
        if objective.is_modulus:
            theta = np.where(total != 0, -np.angle(total), theta)
        value = np.abs(total) if objective.is_modulus else total.real
    products = objective.state_products(blocks)
    values, final_phases = np.empty(len(owners)), np.empty_like(phases)
    states, iterations = np.empty_like(blocks), np.empty(len(owners), dtype=np.int64)
    ids = np.arange(len(owners))
    for iteration in range(1, MAX_ITERATIONS + 1):
        new_value, theta = _sweep(objective, phases, u, factors, products, theta, weights)
        if objective.fixed is None:
            blocks, theta, new_value = objective.refreshed_states(factors, mask_weights, blocks,
                                                                  theta)
            products = objective.state_products(blocks)
        done = new_value <= value + TOLERANCE
        value = np.where(done, np.maximum(value, new_value), new_value)
        if iteration == MAX_ITERATIONS:
            done[:] = True
        if not done.any():
            continue
        finished = ids[done]
        values[finished], final_phases[finished] = value[done], phases[done]
        states[finished], iterations[finished] = blocks[done], iteration
        if done.all():
            break
        kept = ~done
        ids, phases, blocks, products = ids[kept], phases[kept], blocks[kept], products[kept]
        u, factors = u[kept], factors[kept]
        theta, value = theta[kept], value[kept]
        weights, mask_weights = weights[kept], mask_weights[kept]
    return values, final_phases, states, iterations


@functools.cache
def _direction_table() -> np.ndarray:
    """Joe-Kuo direction numbers, (21201, SOBOL_BITS) uint32, column j shifted by 29 - j.

    Row i holds dimension i's numbers from new-joe-kuo-6.21201 (Joe & Kuo,
    SIAM J. Sci. Comput. 30, 2635, 2008), as scipy ships them, extended by the
    Bratley-Fox recurrence.  The file is memory-mapped read-only, so a search
    reads only the rows it uses.
    """
    return np.load(Path(__file__).with_name("sobol_directions.npy"), mmap_mode="r")


def _direction_numbers(dims: int) -> np.ndarray:
    """A read-only copy of the first dims rows of the direction table."""
    table = _direction_table()
    if dims > len(table):
        raise ValueError(f"at most {len(table)} Sobol dimensions are supported, got {dims}")
    directions = np.array(table[:dims])
    directions.setflags(write=False)
    return directions


def _sobol_points(seed: int, count: int, dims: int) -> np.ndarray:
    """The first count points of a scrambled Sobol stream in [0, 2*pi)^dims.

    Bit-identical to qmc.Sobol(dims, scramble=True, seed=seed).random(2**m)
    [:count] * 2 * pi for any 2**m >= count: the same direction numbers, the
    same draws from np.random.default_rng(seed) in the same order (the digital
    shift, then the lower-triangular LMS matrices with unit diagonal), the same
    GF(2) products, and the points in Gray-code order from the shift, point i
    being point i-1 XOR the scrambled direction number of i's lowest set bit.
    Only the first bit_length(count - 1) direction numbers are scrambled; with
    a single point no LMS matrix is needed, and none is drawn, since no draw
    follows it.
    """
    directions = _direction_numbers(dims)
    rng = np.random.default_rng(seed)
    weights = np.uint32(1) << np.arange(SOBOL_BITS, dtype=np.uint32)
    quasi = np.empty((count, dims), dtype=np.uint32)
    quasi[0] = rng.integers(2, size=(dims, SOBOL_BITS), dtype=np.uint32) @ weights
    if count > 1:
        used = int(count - 1).bit_length()
        lms = np.tril(rng.integers(2, size=(dims, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
        lms[:, range(SOBOL_BITS), range(SOBOL_BITS)] = 1
        # most significant bit first: row p of lms produces bit 29 - p
        msb = weights[::-1, None]
        bits = (directions[:, None, :used] & msb) != 0                    # (dims, bits, used)
        scrambled = (((lms @ bits) & 1) * msb).sum(axis=1, dtype=np.uint32)  # (dims, used)
        index = np.arange(1, count)
        lowest_bit = np.frexp(index & -index)[1] - 1
        quasi[1:] = scrambled[:, lowest_bit].T
        np.bitwise_xor.accumulate(quasi, axis=0, out=quasi)
    return quasi * 2.0**-SOBOL_BITS * 2 * np.pi


def _resolve_bound(functional, budget: int = DEFAULT_BUDGET) -> float:
    if functional.cached_bound is not None:
        return float(functional.cached_bound)
    return classical_bound(functional, budget).bound


def _search(jobs: Sequence[tuple[BellFunctional, int, float | None]],
            config: OptimizationConfig, support: np.ndarray | None = None,
            fixed: np.ndarray | None = None) -> list[OptResult]:
    """The one search driver: batched restarts and Born re-evaluation, one OptResult per job.

    A job is (functional, seed, beta); beta None is the functional's classical
    bound.  Its config.restarts restarts start from the first points of the
    Sobol stream of seed.  States range over the basis states in support (each
    functional's coset_support when None), or are the fixed unit vector on it.
    The restarts of all jobs whose functionals share a term structure and a
    support run as rows of one seesaw; a row's result does not depend on the
    rows beside it.  Each job's best restart, ties broken by restart index,
    is reported as found.
    """
    betas = [_resolve_bound(f) if beta is None else beta for f, _, beta in jobs]
    batches: dict = {}
    for index, (functional, _, _) in enumerate(jobs):
        own = coset_support(functional) if support is None else support
        structure = tuple((tuple(x), tuple(r)) for x, r, _ in functional.terms())
        key = (functional.scenario, functional.form, structure, own.tobytes())
        batches.setdefault(key, (own, []))[1].append(index)

    restarts = config.restarts
    results: list = [None] * len(jobs)
    for own, members in batches.values():
        objective = _MultiportObjective([jobs[i][0] for i in members], own, fixed)
        n, k, d = (objective.scenario.parties, objective.scenario.settings,
                   objective.scenario.outcomes)
        starts = np.zeros((len(members) * restarts, n, k, d))
        for slot, index in enumerate(members):
            points = _sobol_points(jobs[index][1], restarts, objective.n_phases)
            starts[slot * restarts:(slot + 1) * restarts, :, :, 1:] = points.reshape(
                restarts, n, k, d - 1)
        owners = np.repeat(np.arange(len(members)), restarts)
        values, phases, states, iterations = _seesaw(objective, owners, starts)
        for slot, index in enumerate(members):
            rows = slice(slot * restarts, (slot + 1) * restarts)
            restart_values = tuple(values[rows].tolist())
            best = max(range(restarts), key=lambda i: (restart_values[i], -i))
            row = slot * restarts + best
            setup = objective.setup_at(phases[row], objective.scatter(states[row]))
            functional, beta = jobs[index][0], betas[index]
            born_value = quantum_functional_value(functional, setup, path="born")
            results[index] = OptResult(
                quantum_value=float(born_value),
                classical_bound=float(beta),
                ratio=born_value / beta if abs(beta) > BETA_CUTOFF else None,
                setup=setup,
                restart_index=best,
                iterations=int(iterations[row]),
                restart_values=restart_values,
                restart_iterations=tuple(iterations[rows].tolist()),
            )
    return results


def _search_one(functional, config: OptimizationConfig | None, beta: float | None,
                support: np.ndarray | None = None, fixed: np.ndarray | None = None) -> OptResult:
    config = config or OptimizationConfig()
    return _search([(functional, config.seed, beta)], config, support, fixed)[0]


def maximize_violation(functional, config: OptimizationConfig | None = None,
                       beta: float | None = None) -> OptResult:
    """Multi-start search for the largest quantum value of the functional.

    States are searched on H = <r_t> only (coset_support), which is exact: G is
    block-diagonal over the cosets c + H, and the block on c + H is H's block
    with every party's phase rows rolled by c_p (F X^c = Z^c F), so every coset
    reaches the same optimum.  When the masks generate Z_d^N, H is everything.
    """
    return _search_one(functional, config, beta)


def _state_column(scenario: Scenario, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """The one-column subspace s/|s| of a fixed input state s: its support and values there."""
    shape = (scenario.outcomes,) * scenario.parties
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != shape:
        raise ValueError(f"amplitudes must have shape {shape}, got {amps.shape}")
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")
    norm = np.linalg.norm(amps.ravel())
    if not 0 < norm < np.inf:
        raise ValueError(f"amplitudes must have a finite nonzero norm, got {norm}")
    support = np.flatnonzero(amps.ravel())
    return support, amps.ravel()[support] / norm


def maximize_with_fixed_state(functional, amplitudes, config: OptimizationConfig | None = None,
                              beta: float | None = None) -> OptResult:
    """Optimize the phases only, holding the input state fixed."""
    return _search_one(functional, config, beta, *_state_column(functional.scenario, amplitudes))


def _ghz_support(scenario: Scenario) -> np.ndarray:
    """Flat indices of |00..0>, |11..1>, ... on three qutrits."""
    if scenario.parties != 3 or scenario.outcomes != 3:
        raise ValueError("the GHZ-family restriction is defined for three qutrits")
    d = scenario.outcomes
    return np.ravel_multi_index((np.arange(d),) * scenario.parties, (d,) * scenario.parties)


def maximize_restricted_ghz(functional, config: OptimizationConfig | None = None,
                            beta: float | None = None) -> OptResult:
    """Optimization with amplitudes confined to span{|00..0>, |11..1>, ...}."""
    return _search_one(functional, config, beta, _ghz_support(functional.scenario))


def product_g_functional(parties: int, outcomes: int, form: FunctionalForm) -> BellFunctional:
    """Two-setting functional with g(h) = prod_p (h_p + 1) over h in {0,1}^N.

    The exponent is the product of the basis labels counted from 1.  Uses the
    Fourier basis for d = 2 (where settings match outcomes) and the
    deterministic/dual pair otherwise; the vectors probe through their
    conjugates (sesquilinear pairing), which pins the two-party, four-outcome
    ratios.
    """
    scenario = Scenario(parties, 2, outcomes)
    table = GTable.from_function(scenario, lambda *h: math.prod(v + 1 for v in h))
    basis = fourier_party_basis(2) if outcomes == 2 else k2_conjugate_basis(outcomes)
    return build_functional(scenario, basis, table, form, Pairing.SESQUILINEAR)


@dataclass(frozen=True)
class ScanRow:
    """One (N, 2, d) scan entry: bounds, optima and ratios for both forms."""

    parties: int
    settings: int
    outcomes: int
    beta_re: float | None = None
    quantum_re: float | None = None
    ratio_re: float | None = None
    beta_abs: float | None = None
    quantum_abs: float | None = None
    ratio_abs: float | None = None
    seed: int | None = None
    error: str | None = None


def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)).generate_state(1)[0])


def scan_product_g(
    scenarios: Sequence[tuple[int, int, int]],
    config: OptimizationConfig | None = None,
    budget: int | None = None,
) -> list[ScanRow]:
    """Product-g scan over (N, 2, d) scenarios in both forms.

    Per-row failures are annotated.  A row whose enumeration exceeds the budget
    (None means DEFAULT_BUDGET) is refused before its functional is built.
    """
    config = config or OptimizationConfig()
    budget = DEFAULT_BUDGET if budget is None else budget
    rows = []
    for row_index, (n, k, d) in enumerate(scenarios):
        if k != 2:
            rows.append(ScanRow(n, k, d, error="the product-g scan needs k = 2"))
            continue
        seed = _child_seed(config.seed, row_index)
        fields: dict = {"seed": seed}
        try:
            _check_budget(Scenario(n, k, d), budget)
            for form in (FunctionalForm.REAL_PART, FunctionalForm.MODULUS):
                functional = product_g_functional(n, d, form)
                beta = _resolve_bound(functional, budget)
                result = maximize_violation(
                    functional, replace(config, seed=seed), beta=beta
                )
                tag = "re" if form is FunctionalForm.REAL_PART else "abs"
                fields[f"beta_{tag}"] = beta
                fields[f"quantum_{tag}"] = result.quantum_value
                fields[f"ratio_{tag}"] = result.ratio
            rows.append(ScanRow(n, k, d, **fields))
        except Exception as exc:  # noqa: BLE001 - scans must survive bad rows
            rows.append(ScanRow(n, k, d, seed=seed, error=str(exc)))
    return rows


def _symmetric_orbits(form: FunctionalForm) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each symmetric table g(h1, h2) = g(h2, h1) on (2, 3, 3) to the least member of its orbit.

    Tables are flat row-major tuples.  An orbit holds the exponent tables with
    provably identical bounds and optima.  For the self-conjugate basis,
    uniform index translations and the joint (h -> -h, g -> -g) flip are local
    outcome relabelings the multiport family absorbs into its phases; constant
    shifts of g rescale a modulus form by a phase.  (A pure index flip alone is
    not an equivalence: it corresponds to switching the pairing convention,
    which lands on the value-negated table.)  The flip conjugates a roll by c
    into a roll by -c and a value shift by s into one by -s, and rolls commute
    with shifts, so every group element is a shift of a roll of the table or of
    its flip: the images +-g(+-(h1 - c), +-(h2 - c)) + s mod d of every table,
    one sign throughout and taken in one array pass, are its whole orbit.
    """
    d = 3
    rows, cols = np.triu_indices(d)
    # every upper triangle, in lexicographic order
    upper = np.stack(np.unravel_index(np.arange(d ** len(rows)), (d,) * len(rows)), axis=1)
    tables = np.zeros((len(upper), d, d), dtype=np.int64)
    tables[:, rows, cols] = tables[:, cols, rows] = upper
    h = np.arange(d)
    shifts = range(d) if form is FunctionalForm.MODULUS else (0,)
    # row-major codes over (d,)*d^2, so integer order is the flat tuples' order
    codes = np.stack([
        np.ravel_multi_index(
            ((sign * tables[:, index[:, None], index] + s) % d).reshape(len(tables), -1).T,
            (d,) * d**2)
        for sign in (1, -1)
        for index in (sign * (h - c) % d for c in range(d))
        for s in shifts
    ])
    least = np.stack(np.unravel_index(codes.min(axis=0), (d,) * d**2), axis=1)
    return dict(zip(map(tuple, tables.reshape(len(tables), -1).tolist()),
                    map(tuple, least.tolist())))


RANK_DECIMALS = 6  # coarse ratios equal to this many decimals rank by table key


def _refine_leaders(ratios: dict[tuple[int, ...], float], count: int) -> list[tuple[int, ...]]:
    """The count tables to refine: best coarse ratio first, rounded to RANK_DECIMALS.

    Many orbits reach the same ratio up to about 1e-8, so ranking by the raw
    ratio would let last-bit differences pick the leaders (and, through their
    rank, their child seeds); rounded ties go to the smaller table key.
    """
    return sorted(ratios, key=lambda key: (-round(ratios[key], RANK_DECIMALS), key))[:count]


@dataclass(frozen=True)
class SymmetricSearchResult:
    """Outcome of the symmetric-g sweep on the two-party, k = d = 3 scenario."""

    best: OptResult
    ranking: tuple[tuple[tuple[int, ...], float], ...]  # (flat g, ratio), best first


def symmetric_g_search(
    form: FunctionalForm,
    config: OptimizationConfig | None = None,
    coarse_restarts: int = 6,
    refine_top: int = 40,
) -> SymmetricSearchResult:
    """Sweep all 3^6 symmetric exponent tables on (2, 3, 3) and rank by ratio.

    Tables are grouped into relabeling orbits (see _symmetric_orbits) and one
    representative per orbit is optimized: a coarse pass over every orbit, then
    a refined pass with the full restart budget on the leading candidates.
    coarse_restarts (at least 1) caps the coarse pass's restarts and
    refine_top (at least 0) is the number of leaders refined; either out of
    range raises ConfigError naming it before any search runs.  The ranking
    and the best table order ratios rounded to RANK_DECIMALS, ties by table
    key, as the leaders are chosen.
    """
    config = config or OptimizationConfig()
    _check_count("coarse_restarts", coarse_restarts, 1)
    _check_count("refine_top", refine_top, 0)
    scenario = Scenario(2, 3, 3)
    basis = fourier_party_basis(3)

    assigned = _symmetric_orbits(form)
    reps = sorted(set(assigned.values()))
    # every representative is built and bounded once; the refined pass reuses both
    functionals = {key: build_functional(
        scenario, basis, GTable(scenario, np.asarray(key, dtype=np.int64).reshape(3, 3)),
        form) for key in reps}
    bounds = {key: classical_bound(functional).bound for key, functional in functionals.items()}

    def search(keys: list[tuple[int, ...]], first_index: int, restarts: int) -> dict:
        jobs = [(functionals[key], _child_seed(config.seed, first_index + index), bounds[key])
                for index, key in enumerate(keys)]
        results = _search(jobs, replace(config, restarts=restarts))
        return {key: (result.ratio if result.ratio is not None else float("-inf"), result)
                for key, result in zip(keys, results)}

    scored = search(reps, 0, min(coarse_restarts, config.restarts))
    leaders = _refine_leaders({key: ratio for key, (ratio, _) in scored.items()}, refine_top)
    for key, candidate in search(leaders, len(reps), config.restarts).items():
        if candidate[0] > scored[key][0]:
            scored[key] = candidate

    ranking = sorted(
        ((member, scored[assigned[member]][0]) for member in assigned),
        key=lambda item: (-round(item[1], RANK_DECIMALS), item[0]),
    )
    (best_rep,) = _refine_leaders({key: ratio for key, (ratio, _) in scored.items()}, 1)
    return SymmetricSearchResult(best=scored[best_rep][1], ranking=tuple(ranking))
