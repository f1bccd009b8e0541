"""Maximize quantum values of Bell functionals over multiport setups.

For fixed phase-shifter settings the pairing sum_x c_x E_x is a quadratic form
s* G(phi) s in the input state, and G only couples basis index j with j + r_t,
where r_t are the term masks; the map j -> j + r_t (mod d), on basis states
and on ports, is read from multiport._shift_plan, the plan the shift-product
path uses too.  So G is block-diagonal over the cosets of the subgroup
H = <r_t> of Z_d^N, and every coset block gives the same optimum: for the
Fourier matrix F X^c = Z^c F, so translating the state by c and rolling each
party's phase rows by c_p leaves every probability unchanged.  The search
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
weights, their form and their start phases.  The search driver puts every
restart of every functional it is given into one batch per term structure and
support, whatever the form: both forms of one bellkit table row share one
batch, and so do the exponent-table sweep's 48 modulus-form representatives,
while its 129 real-part ones run as two (128 + 1; their zero coefficients
differ).  Each row carries its form as a flag, like its weights, so the rows
of a batch may come in any order.  The phase factors, environments, G and the
convergence test run on all rows at once, the real-part rows' state refresh
is one stacked eigensolve, the modulus rows' rotation re-centring runs on all
of them at once, and a converged row leaves the batch.  The phase
factors are evaluated once per batch and carried across iterations: the
sweep, the only step that moves phases, refreshes a party's factors right
after updating its phases, and G is built from the factors the sweep leaves.
The single-phase updates are sequential, so each row makes them in plain
complex arithmetic from its environment summed per (setting, shift) group,
reading each phase's groups from a plan built once per batch.  Every batched
sum runs along the last axis of a fresh array and every eigensolve is one
matrix's, so a row's result is bit-identical whatever else shares its batch.

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
    _expand_tables,
    apply_form,
    build_functional,
    fourier_party_basis,
    k2_conjugate_basis,
)
from .lhv import DEFAULT_BUDGET, _check_budget, classical_bound, classical_bounds
from .multiport import (QuantumSetup, _shift_plan, _unit_state, probability_table,
                        quantum_correlation_stack)

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
    """Environments, G(phi) on a support, and eigen-resolved states, batched over rows.

    The functionals share one term structure: they list the same (settings,
    mask) pairs in the same order and differ only in their weights, one row of
    weights (F, T) and of mask_weights (F, M, T) each, the M distinct masks in
    order of first use (functional.masks()), and in their form, one flag of
    modulus (F,) each, so both forms of one term structure share an objective.
    Every j + r_t it uses (the shifted ports of the phase factors, the shifted
    states of G and of the state products) comes from multiport._shift_plan of
    those masks.  The batched methods take a leading axis of B rows, each
    reading its own functional's weights and form.
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
        # the distinct masks in order of first use, and each term's mask
        masks = first.masks()
        self.mask_of = np.array([masks.index(r) for _, r, _ in terms], dtype=np.int64)  # (T,)
        shifted, displaced = _shift_plan(scenario, masks)
        # flat indices into phases[p] of ports j and j + r_t for setting x_t, per party
        self.port_idx = self.xs.T[:, :, None] * d + np.arange(d)             # (n, T, d)
        self.shifted_port_idx = displaced[np.arange(n)[:, None], self.mask_of, self.xs.T]
        self.support = np.asarray(support)
        self.fixed = fixed
        self._index_support(shifted.reshape(len(masks), -1))
        self._group_shifts()
        self.modulus = np.array([f.form is FunctionalForm.MODULUS for f in functionals])
        self.n_phases = n * k * (d - 1)

    def _index_support(self, shifted: np.ndarray):
        """Where each term puts its G entries and pairs its amplitudes on the support.

        shifted[m, j] is the flat index of j + r_m for the m-th distinct mask.
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
        self.mask_weights = np.zeros((len(self.weights), len(shifted), count), dtype=complex)
        self.mask_weights[:, self.mask_of, np.arange(count)] = self.weights
        targets = shifted[:, self.support]                                   # (M, m)
        rows = np.minimum(np.searchsorted(self.support, targets), size - 1)
        inside = self.support[rows] == targets
        self.g_cells = (rows * size + np.arange(size))[inside]
        self.g_sources = (np.arange(len(shifted))[:, None] * size + np.arange(size))[inside]
        self.partners = np.where(inside, rows, size)[self.mask_of]           # (T, m)

    def _group_shifts(self):
        """Per party, the terms whose phase row moves, grouped by (setting, mask entry s).

        shift_masks[p][g] marks group g's terms.  phase_reads[p][x][c] is the
        read plan of phase phi[x, c]: a tuple of (g, c + s mod d, c - s mod d),
        one per group g reading setting x, in group order.
        """
        n, k, d = self.scenario.parties, self.scenario.settings, self.scenario.outcomes
        self.shift_masks, self.phase_reads = [], []
        for p in range(n):
            settings, shifts = self.xs[:, p], self.rs[:, p] % d
            keys = sorted({(int(x), int(s)) for x, s in zip(settings, shifts) if s})
            self.shift_masks.append(np.array(
                [(settings == x) & (shifts == s) for x, s in keys], dtype=float,
            ).reshape(len(keys), len(self.xs)))
            self.phase_reads.append([
                [tuple((g, (c + s) % d, (c - s) % d)
                       for g, (y, s) in enumerate(keys) if y == x) for c in range(d)]
                for x in range(k)])

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

    # -- eigen-resolved objective -------------------------------------------
    def refreshed_states(self, factors: np.ndarray, mask_weights: np.ndarray,
                         blocks: np.ndarray | None, theta: np.ndarray, modulus: np.ndarray):
        """Eigen state updates of every row; for modulus rows also re-centre the rotations.

        factors are the rows' support factors and modulus flags each row's
        form.  The real-part rows take the top eigenvectors of their G's
        Hermitian parts, one stacked eigensolve, and keep their rotations.  A
        modulus row's rotation first moves to -arg(s* G s) of its state blocks
        (None starts each row from the top eigenvector at theta); then
        _recentred climbs lambda_max(H(theta)) by Newton steps, up to 8
        eigensolves, and keeps the round with the largest |s* G s|.  So a
        refresh never ends below its first eigensolve, and each row's value is
        that of the state and rotation returned with it.  Returns the states on
        the support, the rotations and the values.
        """
        g = self.g_matrix(factors, mask_weights)
        states, values, real = np.empty(g.shape[:2], dtype=complex), np.empty(len(g)), g[~modulus]
        states[~modulus] = state = _eigh_stack(_hermitian_part(real))[1][:, :, -1]
        values[~modulus] = _quadratic(real, state).real
        if modulus.any():
            g, theta, start = g[modulus], theta.copy(), theta[modulus]
            if blocks is None:
                state = _eigh_stack(_hermitian_part(g, np.exp(1j * start)))[1][:, :, -1]
            else:
                state = blocks[modulus]
            total = _quadratic(g, state)
            states[modulus], theta[modulus], values[modulus] = _recentred(
                g, np.where(total != 0, -np.angle(total), start))
        return states, theta, values

    def setup_at(self, phases: np.ndarray, block: np.ndarray) -> QuantumSetup:
        """The setup of phases and the full d^N state whose amplitudes on the support are block."""
        state = np.zeros(self.dim, dtype=complex)
        state[self.support] = block
        # fix the state's arbitrary global phase for reproducible output
        anchor = np.argmax(np.abs(state))
        state = state * np.exp(-1j * np.angle(state[anchor]))
        d = self.scenario.outcomes
        shape = (d,) * self.scenario.parties
        return QuantumSetup.normalized(self.scenario, state.reshape(shape), phases)


def _form_values(totals: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """Each row's value in its form: |total| where modulus flags the row, Re total elsewhere."""
    return np.where(modulus, np.abs(totals), totals.real)


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


def _update_phases(rows: list, sums: list, reads: list, total: complex, theta: float,
                   modulus: bool) -> tuple[complex, float]:
    """Over-relaxed single-phase updates of one row's party, in plain complex arithmetic.

    rows[x][c] is the party's phase phi[x, c], updated in place for c >= 1 in
    order; sums[g] is the shift group sum E_s of group g and reads[x][c] is
    phi[x, c]'s read plan, (g, c + s, c - s) per group.  With everything
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
    e^(i*theta) is evaluated once, and again only when the rotation moves.
    Returns the final total and rotation.
    """
    rotation = cmath.exp(1j * theta)
    for phis, plan in zip(rows, reads):
        factors = [cmath.exp(1j * phi) for phi in phis]
        for c in range(1, len(phis)):
            a = b = 0j
            for g, plus, minus in plan[c]:
                shift_sum = sums[g]
                a += shift_sum[c] * factors[plus].conjugate()
                b += shift_sum[minus] * factors[minus]
            current = factors[c]
            const = total - a * current - b * current.conjugate()
            z = rotation * a + (rotation * b).conjugate()
            if z != 0:
                best = -cmath.phase(z)
                step = (best - phis[c] + math.pi) % (2 * math.pi) - math.pi
                phis[c] = best + (OVERRELAXATION - 1) * step
                factors[c] = current = cmath.exp(1j * phis[c])
            total = a * current + b * current.conjugate() + const
            if modulus and total != 0:
                theta = -cmath.phase(total)
                rotation = cmath.exp(1j * theta)
    return total, theta


def _sweep(objective: _MultiportObjective, phases: np.ndarray, u: np.ndarray,
           factors: np.ndarray, products: np.ndarray, theta: np.ndarray,
           weights: np.ndarray, modulus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One pass of over-relaxed single-phase updates on every row, with the states held fixed.

    u and factors are the rows' phase factors and support factors at phases,
    and modulus flags each row's form.
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
        reads = objective.phase_reads[p]
        for b, row in enumerate(rows):
            totals[b], thetas[b] = _update_phases(row, sums[b], reads, totals[b], thetas[b],
                                                  modulus[b])
        phases[:, p] = rows
        u[:, :, p] = objective.party_factors(phases, p)
        factors[:, :, p] = u[:, :, p][:, :, objective.digits[p]]
    return _form_values(np.array(totals), modulus), np.array(thetas)


def _seesaw(objective: _MultiportObjective, owners: np.ndarray, start_phases: np.ndarray):
    """Alternate over-relaxed phase sweeps and eigen state updates on every row until stationary.

    Row b runs functional owners[b], in its form, from start_phases[b]; the
    owners may come in any order.  A row leaves the batch once a sweep and
    state update gain at most TOLERANCE, or after MAX_ITERATIONS sweeps.  A
    fixed state never changes, so its value and rotation are the sweep's
    running pairing total and no state update runs.  Phases change only
    inside _sweep, which keeps the phase factors u and the support factors in
    step with them, so each is evaluated once per batch.  Returns every row's
    value, phases, state on the support and sweep count.
    """
    modulus = objective.modulus[owners]
    phases = start_phases.copy()
    phases[:, :, :, 0] = 0.0
    u = objective.phase_factors(phases)
    factors = objective.support_factors(u)
    weights = objective.weights[owners]
    mask_weights = objective.mask_weights[owners]
    theta = np.zeros(len(owners))
    if objective.fixed is None:
        blocks, theta, value = objective.refreshed_states(factors, mask_weights, None, theta,
                                                          modulus)
    else:
        blocks = np.tile(objective.fixed, (len(owners), 1))
        total = _quadratic(objective.g_matrix(factors, mask_weights), blocks)
        theta = np.where(modulus & (total != 0), -np.angle(total), theta)
        value = _form_values(total, modulus)
    products = objective.state_products(blocks)
    values, final_phases = np.empty(len(owners)), np.empty_like(phases)
    states, iterations = np.empty_like(blocks), np.empty(len(owners), dtype=np.int64)
    ids = np.arange(len(owners))
    for iteration in range(1, MAX_ITERATIONS + 1):
        new_value, theta = _sweep(objective, phases, u, factors, products, theta, weights,
                                  modulus)
        if objective.fixed is None:
            blocks, theta, new_value = objective.refreshed_states(factors, mask_weights, blocks,
                                                                  theta, modulus)
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
        theta, value, modulus = theta[kept], value[kept], modulus[kept]
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
    Sobol stream of seed, drawn once per seed and phase count, so jobs that
    share a seed share their start points.  States range over the basis
    states in support (each functional's coset_support when None), or are the
    fixed unit vector on it.  The restarts of all jobs whose functionals share
    a term structure and a support run as rows of one seesaw, whatever their
    form and order; a row's result does not depend on the rows beside it.
    Each job's best restart, ties broken by restart index, is reported as
    found.
    """
    betas = [_resolve_bound(f) if beta is None else beta for f, _, beta in jobs]
    batches: dict = {}
    for index, (functional, _, _) in enumerate(jobs):
        own = coset_support(functional) if support is None else support
        structure = tuple((tuple(x), tuple(r)) for x, r, _ in functional.terms())
        key = (functional.scenario, structure, own.tobytes())
        batches.setdefault(key, (own, []))[1].append(index)

    restarts = config.restarts
    results: list = [None] * len(jobs)
    drawn: dict = {}
    for own, members in batches.values():
        objective = _MultiportObjective([jobs[i][0] for i in members], own, fixed)
        n, k, d = (objective.scenario.parties, objective.scenario.settings,
                   objective.scenario.outcomes)
        starts = np.zeros((len(members) * restarts, n, k, d))
        for slot, index in enumerate(members):
            stream = (jobs[index][1], objective.n_phases)
            if stream not in drawn:
                drawn[stream] = _sobol_points(stream[0], restarts, stream[1])
            starts[slot * restarts:(slot + 1) * restarts, :, :, 1:] = drawn[stream].reshape(
                restarts, n, k, d - 1)
        owners = np.repeat(np.arange(len(members)), restarts)
        values, phases, states, iterations = _seesaw(objective, owners, starts)
        for slot, index in enumerate(members):
            rows = slice(slot * restarts, (slot + 1) * restarts)
            restart_values = tuple(values[rows].tolist())
            best = max(range(restarts), key=lambda i: (restart_values[i], -i))
            row = slot * restarts + best
            setup = objective.setup_at(phases[row], states[row])
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
    support = np.flatnonzero(amps.ravel())
    return support, _unit_state(amps).ravel()[support]


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

    A row's two forms share their terms, their support and their child seed,
    so one search runs both as one seesaw batch.  Per-row failures are
    annotated.  A row whose enumeration exceeds the budget (None means
    DEFAULT_BUDGET) is refused before its functional is built.
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
            functionals = [product_g_functional(n, d, form)
                           for form in (FunctionalForm.REAL_PART, FunctionalForm.MODULUS)]
            jobs = [(functional, seed, _resolve_bound(functional, budget))
                    for functional in functionals]
            for tag, (_, _, beta), result in zip(("re", "abs"), jobs, _search(jobs, config)):
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
    The representatives (48 for the modulus form, 129 for the real part) are
    expanded by one contraction, as `build_functional` expands one, and
    bounded as one dense stack by one `classical_bounds` call, bit for bit
    their per-table bounds.
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
    # every representative is built and bounded once; the refined pass reuses
    # both.  One contraction expands them all, and one pass bounds them
    tables = np.array(reps, dtype=np.int64).T.reshape(3, 3, len(reps))
    coefficients = _expand_tables(scenario, basis, tables, Pairing.BILINEAR)
    bounds = classical_bounds(scenario, coefficients, form)
    functionals = {key: BellFunctional.from_coefficients(scenario, row, form,
                                                         cached_bound=result.bound)
                   for key, row, result in zip(reps, coefficients, bounds)}

    def search(keys: list[tuple[int, ...]], first_index: int, restarts: int) -> dict:
        jobs = [(functionals[key], _child_seed(config.seed, first_index + index), None)
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
