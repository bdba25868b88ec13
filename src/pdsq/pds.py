"""PDS(K) energy functional: moment linear system, polynomial roots, bounds.

The K-th order functional consumes moments <H^n> up to n = 2K-1 and reads
state-energy upper bounds off the roots of the monic polynomial P_K with
coefficients X solving the Hankel system M X = -Y.  P_K is the degree-K
orthogonal polynomial of the moment functional, so its roots are the K-step
Lanczos (Gauss) nodes (Golub & Welsch, Math. Comp. 23, 221 (1969)).

The map from moments to roots is violently ill-conditioned: moment vectors
that agree to 1e-14 can give roots that differ at 1e-3 for K = 8.  Exact
moment tables therefore carry the Lanczos recurrence they came from, and
their roots are the eigenvalues of its Jacobi matrix: real, and accurate to
machine precision.  When the state's Krylov space is invariant below order
K, no data fixes further roots, and only the resolved ones come back.

Sampled moments have no recurrence.  They are solved by truncated-SVD
pseudoinverse and companion-matrix roots, where the top of the root set can
degenerate into conjugate pairs once the retained rank drops below K.  Results
therefore keep every root's imaginary magnitude alongside its real part: a
hard error is raised only when contamination beyond tolerance reaches a root
a caller actually consumes, which is the signature of moments too noisy to
use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import StateVector
from .moments import MomentTable, Recurrence, moments_for_state
from .pauli import PauliSum
from .units import EV_PER_HARTREE

# Relative singular-value cutoff for the Hankel solve.  1e-12 already
# stabilizes the ground root, but the second root of the K=10 singlet system
# needs the two extra decades to pin the singlet gap below a milli-hartree.
DEFAULT_SVD_CUTOFF = 1e-14
# Largest |Im| of a companion-matrix root projected away as round-off.
DEFAULT_IMAG_TOL = 1e-6  # hartree


class ComplexRootError(RuntimeError):
    """A consumed polynomial root kept an imaginary part beyond tolerance,
    signalling noisy or inconsistent moments rather than a numerical hiccup."""

    def __init__(self, root: complex, index: int):
        super().__init__(
            f"root {index} = {root} has |Im| = {abs(root.imag):.3e} beyond tolerance"
        )
        self.root = root
        self.index = index


@dataclass(frozen=True)
class MomentSystem:
    """The Hankel system of order K and its solution X.

    For an exact table, X is the Lanczos recurrence of the resolved order
    `rank` = min(K, Krylov dimension), and M and Y are of that order too; as
    an array X gives the monomial coefficients.  For sampled moments, X is
    the truncated-SVD solution of length K and `rank` the retained rank.
    """

    K: int
    M: np.ndarray
    Y: np.ndarray
    X: np.ndarray
    condition_estimate: float
    rank: int


@dataclass(frozen=True)
class PdsResult:
    roots: np.ndarray  # real parts, ascending, hartree
    imag_parts: np.ndarray  # |Im| aligned with roots, 0 up to DEFAULT_IMAG_TOL

    @property
    def discarded_imaginary(self) -> float:
        """Largest |Im| kept in imag_parts (0.0 without roots)."""
        return float(self.imag_parts.max(initial=0.0))

    def require_real(self, index: int) -> float:
        """Root value at `index`, erroring if its |Im| exceeds DEFAULT_IMAG_TOL."""
        if self.imag_parts[index] > DEFAULT_IMAG_TOL:
            raise ComplexRootError(
                complex(self.roots[index], self.imag_parts[index]), index
            )
        return float(self.roots[index])


def build_system(moments: MomentTable, K: int) -> MomentSystem:
    """Assemble and solve M X = -Y from a moment table covering order 2K-1.

    A table with a Lanczos recurrence needs no solve.  Tables of sampled
    values are solved by pseudoinverse, keeping the singular values above
    DEFAULT_SVD_CUTOFF times the largest.
    """
    values = moments.values
    if len(values) < 2 * K:
        raise ValueError(f"need moments up to order {2 * K - 1}, have {len(values) - 1}")
    if moments.recurrence is not None:
        X = moments.recurrence.truncated(K)
        M, Y = _hankel(values, X.order)
        s = np.linalg.svd(M, compute_uv=False)
        condition = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
        return MomentSystem(K, M, Y, X, condition, X.order)

    M, Y = _hankel(values, K)
    u, s, vt = np.linalg.svd(M)
    keep = s > DEFAULT_SVD_CUTOFF * s[0]
    if not np.any(keep):
        raise ValueError("moment matrix has no singular value above the cutoff")
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    X = -(vt.T * inv) @ (u.T @ Y)
    condition = float(s[0] / s[keep][-1])
    return MomentSystem(K, M, Y, X, condition, int(keep.sum()))


def _hankel(values: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    # 1-based i, j = 1..K: M_ij = <H^{2K-i-j}>, Y_i = <H^{2K-i}>
    idx = np.arange(1, K + 1)
    return values[2 * K - idx[:, None] - idx[None, :]], values[2 * K - idx]


def polynomial_roots(X: np.ndarray | Recurrence) -> PdsResult:
    """Roots of E^K + sum_i X_i E^{K-i}.

    A Lanczos recurrence gives its Gauss nodes, the eigenvalues of its Jacobi
    matrix, without passing through monomial coefficients: they are real and
    ascending.  Plain coefficients go through companion-matrix eigenvalues.
    Imaginary parts up to DEFAULT_IMAG_TOL are projected away silently;
    larger ones are recorded per root, and raise immediately when they touch
    the ground (minimum) root, whose realness every use of the functional
    relies on.
    """
    if isinstance(X, Recurrence):
        roots = np.linalg.eigvalsh(X.jacobi())
        return PdsResult(roots, np.zeros_like(roots))
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("polynomial coefficients must be finite")
    coeffs = np.concatenate(([1.0], X))
    raw = np.roots(coeffs)
    order = np.argsort(raw.real)
    roots = raw.real[order]
    imag_parts = np.abs(raw.imag[order])
    imag_parts[imag_parts <= DEFAULT_IMAG_TOL] = 0.0
    if len(roots) and imag_parts[0] > DEFAULT_IMAG_TOL:
        raise ComplexRootError(complex(roots[0], imag_parts[0]), 0)
    return PdsResult(roots, imag_parts)


def pds_from_values(moment_values: np.ndarray, K: int) -> PdsResult:
    """PDS(K) result from a raw vector of moments <H^0>..<H^{2K-1}>: the
    pseudoinverse solve of build_system (singular values above
    DEFAULT_SVD_CUTOFF relative) and the roots of polynomial_roots (|Im| up
    to DEFAULT_IMAG_TOL dropped)."""
    table = MomentTable(K, np.asarray(moment_values, dtype=float))
    return polynomial_roots(build_system(table, K).X)


def pds_energies(h: PauliSum, state: StateVector, K: int) -> PdsResult:
    """Exact-moment PDS(K) bounds for one trial state.

    For a closed-shell reference the two lowest roots bound/approximate the
    lowest two singlet levels; a triplet reference bounds the triplet ground
    level through its own sector.
    """
    table = moments_for_state(h, state, K)
    return polynomial_roots(build_system(table, K).X)


@dataclass(frozen=True)
class TransitionSummary:
    s0_s1_ev: float
    s0_t0_ev: float
    fission_ratio: float  # E(S0->S1) / (2 E(S0->T0)), slightly above 1 when viable


def transition_energies(singlet: PdsResult, triplet: PdsResult) -> TransitionSummary:
    """Singlet-fission energetics from the two sector results."""
    if len(singlet.roots) < 2:
        raise ValueError("need at least two singlet roots for the S0->S1 gap")
    s0 = singlet.require_real(0)
    s1 = singlet.require_real(1)
    t0 = triplet.require_real(0)
    s0_s1 = (s1 - s0) * EV_PER_HARTREE
    s0_t0 = (t0 - s0) * EV_PER_HARTREE
    ratio = s0_s1 / (2.0 * s0_t0) if s0_t0 != 0.0 else np.inf
    return TransitionSummary(float(s0_s1), float(s0_t0), float(ratio))
