"""Independent dense-matrix oracles shared across tests.

Everything here builds operators by explicit Kronecker products of 2x2
letters, deliberately avoiding the package's mask-based fast paths.
"""

import numpy as np

PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_string(label: str) -> np.ndarray:
    """Kronecker product of letters; qubit 0 is the leftmost letter.

    Basis-state index convention matches the package: bit k of the index is
    qubit k, so qubit 0 is the *fastest-varying* index bit and the single
    qubit matrices enter the Kronecker product in reversed label order.
    """
    out = np.eye(1, dtype=complex)
    for ch in reversed(label):
        out = np.kron(out, PAULI_2X2[ch])
    return out


def dense_sum(labeled_terms: dict[str, complex]) -> np.ndarray:
    n = len(next(iter(labeled_terms)))
    out = np.zeros((2**n, 2**n), dtype=complex)
    for label, coeff in labeled_terms.items():
        out += coeff * dense_string(label)
    return out


def pauli_sum_to_dense(ps) -> np.ndarray:
    """Dense matrix of a PauliSum via the kron oracle (not ps.to_matrix)."""
    n = ps.n_qubits
    out = np.zeros((2**n, 2**n), dtype=complex)
    for string, coeff in ps.terms():
        out += coeff * dense_string(string.label)
    return out


def string_ledger(powers) -> tuple[list, list[int]]:
    """Distinct non-identity strings across the given Pauli sums (H^1..H^n),
    sorted on (z, x), and the cumulative count after each sum.

    A plain set of PauliString objects, with no mask arrays or sorting
    tricks: the reference the array ledger is checked against.
    """
    seen = set()
    counts = []
    for power in powers:
        seen.update(s for s in power.strings() if not s.is_identity)
        counts.append(len(seen))
    return sorted(seen, key=lambda s: (s.z, s.x)), counts
