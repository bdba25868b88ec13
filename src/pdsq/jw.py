"""Jordan-Wigner mapping of second-quantized tables onto Pauli sums.

Qubit k carries spin orbital k (blocked ordering: alpha block then beta
block), with |1> meaning occupied.  Ladder operators pick up a Z parity
string on all lower-indexed qubits.

`jordan_wigner` expands every table entry above the cutoff in one pass over
uint64 mask arrays.  A ladder operator is the sum of two strings,
X_k Z_{<k} / 2 and Y_k Z_{<k} (-+i/2), so a+_p a_q is a sum of 4 string
products and a+_p a+_q a_s a_r of 16, each with coefficient 2^-k i^e, whose
phase e follows from the running product of the factors' strings, one
`pauli._multiply_masks` call per factor over all rows and products at once.
Ladder operators are real matrices, and so is each part: e is odd exactly
on strings with an odd number of Y letters, so a part is carried as the
real 2^-k (-1)^{e >> 1}, its coefficient, or its coefficient over i there.
X and Y set the same x bit, so every product of one entry has the entry's
X mask, and like strings meet only within the entry's row: they are merged
there first, and as the parts are +-2^-k that sum is exact in any order.
Each merged product is scaled by h[p, q] or <pq||rs>/4, and the scaled
terms are summed string by string in table order (one-body (p, q), then
two-body (p, q, r, s), both row-major), starting from the core energy.
Those are the additions, in the order, that accumulating one product after
another makes, so every coefficient carries the same bits whatever the
layout of the pass.  Symmetric tables leave the odd strings at
round-off, which the sum drops; a remainder above DROP_TOL is refused.
"""

from __future__ import annotations

import numpy as np

from .chem import SpinOrbitalTables
from .pauli import PauliSum, _multiply_masks, _sum_in_order

_COEFF_CUTOFF = 1e-14


def _string_products(modes: np.ndarray, daggers: tuple[bool, ...]):
    """The merged string products of a^(daggers[0])_{modes[i, 0]} ...
    a^(daggers[k-1])_{modes[i, k-1]} for each row i of modes.

    Of the 2^k products, product j takes factor f's Y string when bit f of j
    is set and has coefficient 2^-k i^e.  Returns (row, x, z, c): each row's
    distinct strings with a nonzero coefficient c (over i where e is odd),
    rows in order and ascending on z within a row.
    """
    k = len(daggers)
    bit = np.uint64(1) << modes.astype(np.uint64)
    tail = bit - np.uint64(1)
    takes_y = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1 == 1
    x = z = np.zeros((len(modes), 1 << k), dtype=np.uint64)
    e = 0
    for f, dagger in enumerate(daggers):
        xf = bit[:, f, None]
        zf = tail[:, f, None] | np.where(takes_y[:, f], xf, np.uint64(0))
        x, z, e_f = _multiply_masks(x, z, xf, zf)
        # the Y string's coefficient: -i/2 = i^3 / 2 on a+, +i/2 on a
        e = e + e_f + np.where(takes_y[:, f], 3 if dagger else 1, 0)
    # a row's products share one X mask (see the module notes): sort each
    # row on z and add its +-2^-k parts, which is exact in any order
    order = np.argsort(z, axis=1)
    z = np.take_along_axis(z, order, axis=1)
    part = np.where(np.take_along_axis(e, order, axis=1) & 2, -(0.5**k), 0.5**k)
    first = np.ones(z.shape, dtype=bool)
    first[:, 1:] = z[:, 1:] != z[:, :-1]
    c = np.bincount(np.cumsum(first) - 1, weights=part.ravel())
    keep = c != 0
    row = np.nonzero(first)[0][keep]
    return row, x[row, 0], z[first][keep], c[keep]


def jordan_wigner(tables: SpinOrbitalTables) -> PauliSum:
    """Qubit Hamiltonian of core + one-body + antisymmetrized two-body tables."""
    m = tables.n_spin_orbitals
    one, two = tables.one_body, tables.two_body
    if np.shape(one) != (m, m) or np.shape(two) != (m,) * 4:
        raise ValueError(
            f"tables for {m} spin orbitals need one_body of shape {(m, m)} and "
            f"two_body of shape {(m,) * 4}, got {np.shape(one)} and {np.shape(two)}"
        )
    if m > 64:
        raise ValueError("PauliSum supports at most 64 qubits")

    # entries in row-major (loop) order; a+_p a+_p = a_r a_r = 0
    p, q = np.nonzero(np.abs(one) > _COEFF_CUTOFF)
    distinct = ~np.eye(m, dtype=bool)
    pp, qq, rr, ss = np.nonzero(
        (np.abs(two) > _COEFF_CUTOFF) & distinct[:, :, None, None] & distinct
    )
    row1, x1, z1, c1 = _string_products(np.stack((p, q), axis=1), (True, False))
    row2, x2, z2, c2 = _string_products(
        np.stack((pp, qq, ss, rr), axis=1), (True, True, False, False)
    )
    # the core energy, then each entry's merged product scaled by h[p, q] or
    # <pq||rs>/4, summed string by string in loop order
    return _sum_in_order(
        m, np.concatenate(([np.uint64(0)], x1, x2)), np.concatenate(([np.uint64(0)], z1, z2)),
        np.concatenate(([float(tables.core_energy)], one[p, q][row1] * c1,
                        0.25 * two[pp, qq, rr, ss][row2] * c2)),
    )
