"""Hamiltonian powers, moment tables, and the unique-string ledger.

Powers are computed iteratively (H^n = H^{n-1} * H) with simplification at
every step and cached, since the string ledger up to order 2K-1 reuses the
same ladder.  Each step is one product by the Pauli transform, block by
block over the cosets of the span of H's X masks (see
`pauli.multiply_sums`), in which H keeps its own blocks from the first step
on, and is budgeted from the qubit count alone.  The ledger is read off the
powers' (x, z) mask arrays: it holds every distinct Pauli string across
H^1..H^n, excluding the identity, whose expectation never needs a circuit,
with the first power it appears in.  A cache keeps one Ledger per order n,
which is the measurement plan of those powers: the strings, their first
powers and the column map that places each term of H^0..H^n among them for
moment assembly, all from the one numbering that builds the ledger, and,
built on first use, their QWC groups.

Exact moments of a state need no powers at all: they come from one Lanczos
recurrence.  K matvecs of H build an orthonormal Krylov basis Q and the
Jacobi matrix T, with H^k|psi> = Q T^k e_0, so <H^{2k}> = |H^k psi|^2 and
<H^{2k+1}> = <H^k psi|H|H^k psi> follow from T.  The recurrence is kept in
the table, since it fixes the PDS roots far more stably than the moments do
(Golub & Welsch, Math. Comp. 23, 221 (1969)).  A reference's Krylov space
stays in its Z2 symmetry sector, so the pipeline runs the recurrence on the
sector's tapered H and state: 2^(n-r) amplitudes for r generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import grouping
# exact_expectation is not called here, but the benchmark's tracer
# (benchmarks/tracer.py) rebinds it in this module, so the name stays.
from .backend import StateVector, apply_pauli_sum, exact_expectation  # noqa: F401
from .budget import check_memory
from .pauli import PauliString, PauliSum, _number_strings, multiply_sums


# Lanczos stops once an off-diagonal falls below this fraction of the
# recurrence's scale (the largest |alpha| or beta so far): the state's Krylov
# space is then invariant and no data fixes any further root.
BREAKDOWN_TOL = 1e-8


class PowerCache:
    """Caches H^0..H^n for one Hamiltonian; read-only after each fill.

    It also keeps one Ledger per max_power (see `ledger`): the powers never
    change once filled, so nothing kept can go stale.
    """

    def __init__(self, h: PauliSum):
        self.h = h
        self._powers: dict[int, PauliSum] = {0: PauliSum.identity(h.n_qubits), 1: h}
        self._ledgers: dict[int, Ledger] = {}

    def power(self, n: int) -> PauliSum:
        if n < 0:
            raise ValueError("power must be non-negative")
        top = max(self._powers)
        while top < n:
            self._powers[top + 1] = multiply_sums(self._powers[top], self.h)
            top += 1
        return self._powers[n]

    def ledger(self, max_power: int) -> Ledger:
        """The string ledger over H^1..H^max_power, built once and kept."""
        if max_power not in self._ledgers:
            powers = tuple(self.power(n) for n in range(max_power + 1))
            # H^0 is the identity alone, so the identity is string 0
            xz = np.concatenate([p.mask_arrays()[:2] for p in powers], axis=1)
            x, z, columns = _number_strings(self.h.n_qubits, *xz)
            # each string's lowest power among the terms numbered to it
            first = np.full(x.size, max_power)
            power = np.repeat(range(max_power + 1), [p.n_terms for p in powers])
            np.minimum.at(first, columns, power)
            for a in (x, z, first, columns):
                a.flags.writeable = False
            self._ledgers[max_power] = Ledger(powers, x[1:], z[1:], first[1:], columns)
        return self._ledgers[max_power]


@dataclass(frozen=True, eq=False)
class Ledger:
    """The distinct non-identity strings over H^1..H^max_power of one
    PowerCache, as uint64 masks in canonical (z, x) order, each with the
    first power it appears in, and the powers H^0..H^max_power they come from.

    The identity is left out: its expectation never needs a circuit.  The
    column map places each term of H^0..H^max_power, in turn, among the
    identity (column 0) and the strings: it is the numbering the build made,
    kept.  The PauliStrings and QWC groups are built on first use and kept,
    so a ledger that is only counted holds no strings.
    """

    powers: tuple[PauliSum, ...]
    x: np.ndarray  # read-only, as are z, first and columns
    z: np.ndarray
    first: np.ndarray
    columns: np.ndarray

    @cached_property
    def strings(self) -> tuple[PauliString, ...]:
        n = self.powers[0].n_qubits
        return tuple(PauliString(n, *xz) for xz in zip(self.x.tolist(), self.z.tolist()))

    @cached_property
    def groups(self) -> tuple[grouping.QwcGroup, ...]:
        """QWC groups of the strings, by `grouping.group_qwc`."""
        return tuple(grouping.group_qwc(self.strings))


@dataclass(frozen=True, eq=False)
class Recurrence:
    """Three-term recurrence of the monic orthogonal polynomials of a moment
    functional, p_{k+1}(E) = (E - alpha_k) p_k(E) - beta_{k+1}^2 p_{k-1}(E).

    alpha and beta are the diagonal and off-diagonal of the Jacobi matrix,
    whose eigenvalues are the zeros of p_order.  As an array, the recurrence
    is the monomial coefficients X_1..X_order of
    p_order(E) = E^order + sum_i X_i E^{order-i}.
    """

    alpha: np.ndarray  # length order
    beta: np.ndarray  # length order - 1

    @property
    def order(self) -> int:
        return len(self.alpha)

    def truncated(self, order: int) -> Recurrence:
        """The recurrence of degree min(order, self.order)."""
        return Recurrence(self.alpha[:order], self.beta[: max(order - 1, 0)])

    def jacobi(self) -> np.ndarray:
        return np.diag(self.alpha) + np.diag(self.beta, 1) + np.diag(self.beta, -1)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        prev, cur = np.zeros(0), np.ones(1)  # p_{k-1}, p_k, highest power first
        for k, a in enumerate(self.alpha):
            b2 = self.beta[k - 1] ** 2 if k else 0.0
            prev, cur = cur, (
                np.append(cur, 0.0) - a * np.append(0.0, cur)
                - b2 * np.append([0.0, 0.0], prev)
            )
        return np.asarray(cur[1:], dtype=dtype)


@dataclass(frozen=True)
class MomentTable:
    """Moments <H^n> for n = 0..2K-1.

    Exact tables also carry the Lanczos recurrence the moments came from, of
    order min(K, dimension of the state's Krylov space); tables built from
    sampled values carry none.
    """

    K: int
    values: np.ndarray  # length 2K, values[0] == 1
    recurrence: Recurrence | None = None

    @property
    def max_power(self) -> int:
        return 2 * self.K - 1


def moments_for_state(h: PauliSum, state: StateVector, K: int) -> MomentTable:
    """Exact statevector moments of h up to order 2K-1 for one trial
    state, with the recurrence of the K-step Lanczos run they come from."""
    if K < 1:
        raise ValueError("K must be at least 1")
    recurrence = _lanczos(h, state, K)
    return MomentTable(K, _krylov_moments(recurrence, 2 * K), recurrence)


def _lanczos(h: PauliSum, state: StateVector, steps: int) -> Recurrence:
    """Up to `steps` Lanczos steps of h from state, with full
    reorthogonalisation; stops early when the Krylov space is invariant.
    h and the state are real, and so is every vector of the run."""
    size = state.amplitudes.size
    # the basis, and the matvec's input, output and basis indices
    check_memory(f"{steps} Lanczos vectors of {size} amplitudes", 8 * (steps + 3) * size)
    basis = np.empty((steps, size))
    basis[0] = state.amplitudes
    alpha: list[float] = []
    beta: list[float] = []
    scale = 0.0
    for j in range(steps):
        w = apply_pauli_sum(h, StateVector(state.n_qubits, basis[j]))
        alpha.append(float(basis[j] @ w))
        scale = max(scale, abs(alpha[-1]))
        if j == steps - 1:
            break
        q = basis[: j + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice, against all of Q
            w = w - q.T @ (q @ w)
        b = float(np.linalg.norm(w))
        if b <= BREAKDOWN_TOL * scale:
            break
        beta.append(b)
        scale = max(scale, b)
        basis[j + 1] = w / b
    return Recurrence(np.array(alpha), np.array(beta))


def _krylov_moments(recurrence: Recurrence, n_moments: int) -> np.ndarray:
    """<H^n> for n < n_moments from H^k|psi> = Q c_k with c_k = T^k e_0."""
    t = recurrence.jacobi()
    c = np.zeros(recurrence.order)
    c[0] = 1.0
    values = np.empty(n_moments)
    for k in range(0, n_moments, 2):
        tc = t @ c
        values[k] = c @ c
        if k + 1 < n_moments:
            values[k + 1] = c @ tc
        c = tc
    return values


def unique_string_count(cache: PowerCache, max_power: int) -> list[int]:
    """Cumulative count of distinct non-identity strings over H^1..H^n of
    cache.h, for n = 1..max_power.

    Entry k (0-based) covers powers up to k+1; the sequence is monotone and
    saturates once the powers stop producing new strings.
    """
    first = cache.ledger(max_power).first
    return np.cumsum(np.bincount(first, minlength=max_power + 1))[1:].tolist()
