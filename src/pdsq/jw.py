"""Jordan-Wigner mapping of second-quantized tables onto Pauli sums.

Qubit k carries spin orbital k (blocked ordering: alpha block then beta
block), with |1> meaning occupied.  Ladder operators pick up a Z parity
string on all lower-indexed qubits.
"""

from __future__ import annotations

from .chem import SpinOrbitalTables
from .pauli import PauliSum, multiply_sums

_COEFF_CUTOFF = 1e-14


def ladder_operator(index: int, n_modes: int, dagger: bool) -> PauliSum:
    """a_index (or its dagger) as a two-term Pauli sum on n_modes qubits."""
    if not 0 <= index < n_modes:
        raise ValueError(f"mode {index} outside 0..{n_modes - 1}")
    tail = (1 << index) - 1
    bit = 1 << index
    y_coeff = -0.5j if dagger else 0.5j
    return PauliSum(n_modes, {(bit, tail): 0.5, (bit, tail | bit): y_coeff})


def jordan_wigner(tables: SpinOrbitalTables, drop_tol: float = 1e-12) -> PauliSum:
    """Qubit Hamiltonian of core + one-body + antisymmetrized two-body tables."""
    m = tables.n_spin_orbitals
    create = [ladder_operator(p, m, dagger=True) for p in range(m)]
    annihilate = [ladder_operator(p, m, dagger=False) for p in range(m)]

    accum: dict[tuple[int, int], complex] = {(0, 0): complex(tables.core_energy)}

    def add(op: PauliSum, scale: complex) -> None:
        scale = complex(scale)  # a NumPy scalar times a Python complex is slow
        for key, coeff in op._terms.items():
            accum[key] = accum.get(key, 0.0) + scale * coeff

    def cached_product(cache, ops, i, j):
        if (i, j) not in cache:
            cache[(i, j)] = multiply_sums(ops[i], ops[j], drop_tol=0.0)
        return cache[(i, j)]

    cc_cache: dict[tuple[int, int], PauliSum] = {}
    aa_cache: dict[tuple[int, int], PauliSum] = {}

    one = tables.one_body
    for p in range(m):
        for q in range(m):
            if abs(one[p, q]) > _COEFF_CUTOFF:
                add(multiply_sums(create[p], annihilate[q], drop_tol=0.0), one[p, q])

    two = tables.two_body
    for p in range(m):
        for q in range(m):
            if p == q:
                continue
            cc = cached_product(cc_cache, create, p, q)
            for r in range(m):
                for s in range(m):
                    if r == s:
                        continue
                    v = two[p, q, r, s]
                    if abs(v) <= _COEFF_CUTOFF:
                        continue
                    # a+_p a+_q a_s a_r, weighted by <pq||rs>/4
                    aa = cached_product(aa_cache, annihilate, s, r)
                    add(multiply_sums(cc, aa, drop_tol=0.0), 0.25 * v)

    return PauliSum(m, accum, drop_tol=drop_tol)
