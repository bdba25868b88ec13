"""Inversion of tensored symmetric readout bit-flip noise on count data.

The channel S = [[1-p, p], [p, 1-p]] acts independently per qubit, so its
inverse is (S^-1)_ij = (p - delta_ij)/(2p - 1) per qubit and the mitigated
probability of outcome i over the observed support B is

    P~_i  =  sum_{j in B}  a^(n - d(i,j)) * b^d(i,j) * P_j,

with a = (p-1)/(2p-1), b = p/(2p-1) and d the Hamming distance: the M3 form
(Nation et al., arXiv:2108.12518), then clipped at zero and renormalized.

The kernel is a product over qubits.  Split each outcome into its low
m = floor(n/2) and high n - m bits, put the observed P in a matrix V (one
row per distinct high half, one column per distinct low half), and let
K_hi, K_lo be the kernels a^(w-d) b^d over those halves (w = width): then
P~_i = (K_hi V K_lo)[hi(i), lo(i)] exactly.  With U_hi, U_lo distinct halves
(each at most min(|B|, 2^(n-m))) that is U_hi U_lo (U_hi + U_lo)
multiply-adds instead of |B|^2 pair terms, with at most three float64 arrays
of at most U^2 = max(U_hi, U_lo)^2 elements alive: three 1024 x 1024 arrays
(24 MiB) for a 20-bit register.  Wider histograms (the `mitigate` subcommand
reads any) work while those 24 U^2 bytes fit in budget.MEMORY_BUDGET and
are refused beyond it before any kernel is allocated.

Each half is numbered by `pauli._distinct`, as Pauli strings are: a half
of w bits is marked in a 2^w presence table when 2^w <= |B|, and sorted
only when that table would outgrow the histogram.
"""

from __future__ import annotations

import numpy as np

from .backend import NoiseModel, _check_histogram
from .budget import check_memory
from .pauli import _distinct


def _kernel(halves: np.ndarray, width: int, a: float, b: float) -> np.ndarray:
    """a^(width-d) b^d between every pair of half-values at Hamming distance d."""
    d = np.arange(width + 1)
    factor = a ** (width - d) * b**d
    halves = halves.astype(np.uint32)  # a half of an int64 index fits
    return factor[np.bitwise_count(halves[:, None] ^ halves[None, :])]


def mitigate(
    outcomes: np.ndarray, weights: np.ndarray, n_bits: int, noise: NoiseModel
) -> np.ndarray:
    """Error-mitigated probabilities of the observed outcomes, aligned with
    `outcomes` (strictly increasing n_bits-bit indices; `weights` are their
    counts or probabilities), under the readout flips of `noise`.

    Exact inverse of the forward channel when the support is complete;
    approximate (clip + renormalize) otherwise.
    """
    outcomes = np.asarray(outcomes, dtype=np.int64)
    probs = np.asarray(weights, dtype=float)
    _check_histogram(outcomes, probs, n_bits)
    total = probs.sum()
    if not total > 0.0:
        raise ValueError("empty histogram")
    probs = probs / total
    p = noise.spam_flip_probability
    if p == 0.0:
        return probs

    a = (p - 1.0) / (2.0 * p - 1.0)
    b = p / (2.0 * p - 1.0)
    low = n_bits // 2
    u_hi, hi = _distinct(outcomes >> low, 1 << n_bits - low)
    u_lo, lo = _distinct(outcomes & ((1 << low) - 1), 1 << low)
    need = 24 * max(u_hi.size, u_lo.size) ** 2
    check_memory(f"mitigating {u_hi.size} x {u_lo.size} outcome halves", need)
    v = np.zeros((u_hi.size, u_lo.size))
    v[hi, lo] = probs
    x = _kernel(u_hi, n_bits - low, a, b) @ v
    del v  # at most three U x U arrays are alive at once
    mitigated = (x @ _kernel(u_lo, low, a, b))[hi, lo]

    clipped = np.clip(mitigated, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ValueError("mitigation produced an empty distribution")
    return clipped / total

