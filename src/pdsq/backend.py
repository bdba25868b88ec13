"""Exact statevector engine and shot sampler for packed measurement circuits.

Basis-state indexing: bit k of an index is qubit k, and serialized
bitstrings put qubit 0 leftmost, so `index_to_bits(5, 4) == "1010"`.
Packed 20-qubit executions are sampled slot by slot and concatenated, which
is exact because slots never share entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pauli import PauliSum

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# Basis-change matrices: measuring X or Y in the computational basis.
_BASIS_CHANGE = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
}


def index_to_bits(index: int, n_bits: int) -> str:
    return "".join("1" if (index >> k) & 1 else "0" for k in range(n_bits))


def bits_to_index(bits: str | Sequence[int]) -> int:
    index = 0
    for k, b in enumerate(bits):
        if b in ("1", 1):
            index |= 1 << k
        elif b not in ("0", 0):
            raise ValueError(f"invalid bit {b!r}")
    return index


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude length must be 2**n_qubits")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized (norm {norm!r})")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def prepare_basis_state(bits: str | Sequence[int]) -> StateVector:
    """One-hot state |bits>, qubit 0 given by the leftmost bit."""
    n = len(bits)
    amps = np.zeros(1 << n, dtype=complex)
    amps[bits_to_index(bits)] = 1.0
    return StateVector(n, amps)


def random_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    amps = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def apply_pauli_sum(h: PauliSum, state: StateVector) -> np.ndarray:
    """Amplitudes of h|state> (not normalized), in one pass over the blocks
    of h.matrix_blocks(): each amplitude adds its terms' contributions one
    by one in canonical term order."""
    if 1 << h.n_qubits != state.amplitudes.size:
        raise ValueError("operator and state dimensions differ")
    amps = state.amplitudes
    out = np.zeros_like(amps)
    for rows, values in h.matrix_blocks():
        # np.add.at adds in array order, so term by term for each amplitude
        np.add.at(out, rows.ravel(), (values * amps).ravel())
    return out


def exact_expectation(h: PauliSum, state: StateVector, imag_tol: float = 1e-10) -> float:
    """<state|h|state>, checked to be real within imag_tol."""
    value = np.vdot(state.amplitudes, apply_pauli_sum(h, state))
    if abs(value.imag) > imag_tol * max(1.0, abs(value.real)):
        raise ValueError(f"expectation has imaginary part {value.imag:.3e}")
    return float(value.real)


def apply_basis_changes(state: StateVector, gates: Sequence[Sequence[str]]) -> StateVector:
    """Apply per-qubit gate name sequences (from rotation_circuit) to a state."""
    n = state.n_qubits
    if len(gates) != n:
        raise ValueError("need one gate list per qubit")
    amps = state.amplitudes.reshape((2,) * n)
    for qubit, gate_names in enumerate(gates):
        axis = n - 1 - qubit  # C-order: qubit 0 is the fastest-varying bit
        for name in gate_names:
            mat = _BASIS_CHANGE[name]
            amps = np.moveaxis(
                np.tensordot(mat, np.moveaxis(amps, axis, 0), axes=([1], [0])), 0, axis
            )
    return StateVector(n, amps.reshape(-1))


@dataclass(frozen=True)
class NoiseModel:
    """Independent symmetric readout bit flips with probability p per qubit."""

    spam_flip_probability: float = 0.0

    def __post_init__(self):
        p = self.spam_flip_probability
        if not 0.0 <= p < 0.5:
            raise ValueError("flip probability must lie in [0, 0.5)")


@dataclass(frozen=True, eq=False)
class CountTable:
    """Outcome histogram: strictly increasing int64 basis-state indices (bit k
    is qubit k) and how often each was seen.  Bitstrings (qubit 0 leftmost)
    appear only in the text form of to_lines/from_lines."""

    n_bits: int
    outcomes: np.ndarray
    counts: np.ndarray
    shots: int

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "counts", counts)
        if outcomes.ndim != 1 or outcomes.shape != counts.shape:
            raise ValueError("need one count per outcome")
        if np.any(counts < 0):
            raise ValueError(f"negative count {int(counts.min())} in the histogram")
        total = int(counts.sum())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")
        if outcomes.size and (
            outcomes[0] < 0 or int(outcomes[-1]) >> self.n_bits or np.any(np.diff(outcomes) <= 0)
        ):
            raise ValueError("malformed outcomes: need increasing indices below 2**n_bits")

    @classmethod
    def from_indices(cls, indices: np.ndarray, n_bits: int) -> "CountTable":
        outcomes, counts = np.unique(np.asarray(indices, dtype=np.int64), return_counts=True)
        return cls(n_bits, outcomes, counts, int(counts.sum()))

    def probabilities(self) -> np.ndarray:
        """Relative frequencies, aligned with outcomes."""
        if self.shots == 0:
            raise ValueError("empty histogram")
        return self.counts / self.shots

    def to_lines(self) -> str:
        keys = [index_to_bits(o, self.n_bits) for o in self.outcomes.tolist()]
        return "\n".join(f"{k} {v}" for k, v in sorted(zip(keys, self.counts.tolist())))

    @classmethod
    def from_lines(cls, text: str) -> "CountTable":
        counts: dict[int, int] = {}
        n_bits = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'bitstring count'")
            key, value = parts
            if n_bits is None:
                n_bits = len(key)
            if len(key) != n_bits or set(key) - {"0", "1"}:
                raise ValueError(f"malformed bitstring key {key!r}")
            count = int(value)
            if count < 0:  # caught here, before repeated keys are summed
                raise ValueError(f"line {lineno}: negative count {count}")
            index = bits_to_index(key)
            counts[index] = counts.get(index, 0) + count
        if n_bits is None:
            raise ValueError("no histogram lines found")
        outcomes = sorted(counts)
        return cls(n_bits, outcomes, [counts[o] for o in outcomes], sum(counts.values()))


def _sample_outcome_indices(
    state: StateVector, gates, shots: int, rng: np.random.Generator
) -> np.ndarray:
    rotated = apply_basis_changes(state, gates)
    probs = rotated.probabilities()
    probs = probs / probs.sum()
    return rng.choice(probs.size, size=shots, p=probs)


def _apply_bit_flips(
    indices: np.ndarray, n_bits: int, p: float, rng: np.random.Generator
) -> np.ndarray:
    if p <= 0.0:
        return indices
    flips = rng.random((indices.size, n_bits)) < p
    masks = flips @ (1 << np.arange(n_bits, dtype=np.int64))
    return indices ^ masks


def serial_sample(
    state: StateVector,
    group,
    shots: int,
    noise: NoiseModel | None = None,
    seed=None,
) -> CountTable:
    """Sample one QWC group's rotated measurement on its own register."""
    return _sample_slots([(state, group, 0)], state.n_qubits, shots, noise, seed)


def sample_batch(
    state_per_slot: Sequence[StateVector],
    batch,
    shots: int,
    noise: NoiseModel | None = None,
    seed=None,
) -> CountTable:
    """Joint counts for a packed execution: slots sampled independently and
    concatenated (exact, since slot states are unentangled), then flipped."""
    if len(state_per_slot) != len(batch.slots):
        raise ValueError("need one prepared state per filled slot")
    slots = [(s, group, offset) for s, (group, offset) in zip(state_per_slot, batch.slots)]
    return _sample_slots(slots, batch.register_width, shots, noise, seed)


def _sample_slots(slots, register: int, shots: int, noise, seed) -> CountTable:
    """Draw each (state, group, offset) slot in turn from one seeded generator,
    shift it into the register, then apply readout flips."""
    from .grouping import rotation_circuit

    if shots <= 0:
        raise ValueError("shots must be positive")
    rng = np.random.default_rng(seed)
    joint = np.zeros(shots, dtype=np.int64)
    for state, group, offset in slots:
        joint |= _sample_outcome_indices(state, rotation_circuit(group), shots, rng) << offset
    if noise is not None and noise.spam_flip_probability > 0.0:
        joint = _apply_bit_flips(joint, register, noise.spam_flip_probability, rng)
    return CountTable.from_indices(joint, register)
