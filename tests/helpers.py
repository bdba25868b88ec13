"""Test-side conveniences on the package's public types: building sums from
letter labels, parsing `PauliSum.to_text`, single-string products and
commutation, sum comparison, random real symmetric sums and random real
states."""

import numpy as np

from pdsq.backend import StateVector
from pdsq.pauli import PauliString, PauliSum, _check_qubits

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def from_labels(n_qubits: int, labels: dict[str, float]) -> PauliSum:
    """Sum of `label: coeff` terms, e.g. {"XZ": 0.5}; qubit 0 leftmost."""
    return PauliSum(n_qubits, ((PauliString.from_label(k), c) for k, c in labels.items()))


def parse_term(line: str) -> tuple[PauliString, float]:
    """Parse one `coeff * LETTERS` term; spaces inside the letter block are fine."""
    if "*" not in line:
        raise ValueError(f"expected 'coeff * letters': {line!r}")
    coeff_part, _, label_part = line.partition("*")
    try:
        coeff = float(coeff_part.strip())
    except ValueError:
        raise ValueError(f"invalid coefficient in {line!r}") from None
    return PauliString.from_label(label_part), coeff


def parse_sum(text: str) -> PauliSum:
    """Parse the non-empty lines of PauliSum.to_text (round trip)."""
    terms = [parse_term(line) for line in text.splitlines() if line.strip()]
    return PauliSum(terms[0][0].n_qubits, terms)


def multiply_strings(a: PauliString, b: PauliString) -> tuple[PauliString, complex]:
    """Product a*b as (string, phase) with phase in {1, i, -1, -i}."""
    _check_qubits(a.n_qubits, b.n_qubits)
    x = a.x ^ b.x
    z = a.z ^ b.z
    # i-exponent from normalizing X^x Z^z products back to Hermitian letters.
    e = (
        (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        - (x & z).bit_count()
        + 2 * (a.z & b.x).bit_count()
    ) % 4
    return PauliString(a.n_qubits, x, z), _PHASES[e]


def commutes(a: PauliString, b: PauliString) -> bool:
    """Symplectic commutation test: parity of anticommuting letter overlaps."""
    _check_qubits(a.n_qubits, b.n_qubits)
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def qubit_wise_commutes(a: PauliString, b: PauliString) -> bool:
    """True when on every qubit the letters are equal or one side is identity."""
    _check_qubits(a.n_qubits, b.n_qubits)
    shared = (a.x | a.z) & (b.x | b.z)
    return (a.x ^ b.x) & shared == 0 and (a.z ^ b.z) & shared == 0


def allclose(a: PauliSum, b: PauliSum, tol: float = 1e-10) -> bool:
    """True when every string's coefficients in a and b differ by at most tol:
    a's terms, then b's negated, summed string by string in order."""
    if a.n_qubits != b.n_qubits:
        return False
    diff: dict[PauliString, float] = {}
    for string, coeff in [*a.terms(), *((s, -c) for s, c in b.terms())]:
        diff[string] = diff.get(string, 0.0) + coeff
    return all(abs(c) <= tol for c in diff.values())


def random_sum(rng: np.random.Generator, n_qubits: int, n_terms: int) -> PauliSum:
    """A random real symmetric sum: n_terms draws of a string with an even
    number of Y letters and a standard-normal coefficient, repeats summed."""
    labels = {}
    while n_terms:
        label = "".join(rng.choice(list("IXYZ"), size=n_qubits))
        if label.count("Y") % 2 == 0:
            labels[label] = labels.get(label, 0.0) + rng.standard_normal()
            n_terms -= 1
    return from_labels(n_qubits, labels)


def commuting_sums(rng: np.random.Generator, n_qubits: int, *sizes: int) -> list[PauliSum]:
    """Random real symmetric sums that commute with each other, one per
    size: each has standard-normal coefficients on that many distinct
    strings (at most 2^n_qubits) of one maximal commuting set, the Z strings
    conjugated by a random circuit of Hadamard and CNOT gates.  Those gates
    are real orthogonal, so every image has an even number of Y letters."""
    gates = [(int(rng.integers(2)), *rng.integers(0, n_qubits, 2).tolist())
             for _ in range(4 * n_qubits)]
    mask = (1 << n_qubits) - 1
    sums = []
    for size in sizes:
        drawn: set[int] = set()
        while len(drawn) < size:  # distinct Z strings, so distinct images
            drawn.add(int.from_bytes(rng.bytes(8), "little") & mask)
        x, z = np.zeros(size, dtype=np.uint64), np.array(sorted(drawn), dtype=np.uint64)
        one = np.uint64(1)
        for hadamard, c, t in gates:
            c, t = np.uint64(c), np.uint64(t)
            if hadamard:  # swap the X and Z bits of qubit c
                flip = ((x >> c) ^ (z >> c)) & one
                x ^= flip << c
                z ^= flip << c
            elif c != t:  # CNOT from c to t
                x ^= ((x >> c) & one) << t
                z ^= ((z >> t) & one) << c
        terms = zip(zip(x.tolist(), z.tolist()), rng.standard_normal(size).tolist())
        sums.append(PauliSum(n_qubits, terms))
    return sums


def random_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    amps = rng.standard_normal(1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))
