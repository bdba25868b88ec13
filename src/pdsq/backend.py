"""Exact statevector engine and shot sampler for packed measurement circuits.

Basis-state indexing: bit k of an index is qubit k, and serialized
bitstrings put qubit 0 leftmost, so `index_to_bits(5, 4) == "1010"`.
The sampler takes a computational basis state |b> (the tapered reference
determinant is one) as its bitstring and measures it in closed form: in a QWC
group's rotated basis, a qubit where the rotation has X or Y gives a uniform
bit, each independently, and any other qubit gives b's bit.  So a packed
execution is two seeded draws on int64 outcomes, with no statevector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .budget import check_memory
from .grouping import PackedBatch
from .pauli import PauliSum

# Peak bytes of the sampler, with room over those traced: per shot, the int64
# outcomes and np.unique's copies in CountTable.from_indices (41); per flip,
# its position, the redraws and the XOR's shot and bit arrays (32).
SHOT_BYTES, FLIP_BYTES = 48, 40


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
    """float64 amplitudes: every operator is real symmetric, so a real state loses nothing."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude length must be 2**n_qubits")
        if not np.isfinite(amps).all():
            raise ValueError("state has a non-finite amplitude")
        if np.iscomplexobj(amps) and amps.imag.any():
            raise ValueError("state has a complex amplitude: states are real")
        amps = np.asarray(amps.real, dtype=np.float64)
        object.__setattr__(self, "amplitudes", amps)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized (norm {norm!r})")


def prepare_basis_state(bits: str | Sequence[int]) -> StateVector:
    """One-hot state |bits>, qubit 0 given by the leftmost bit, budgeted
    before its 2^n amplitudes are allocated."""
    n, index = len(bits), bits_to_index(bits)
    check_memory(f"a {n}-qubit state", 8 << n)
    amps = np.zeros(1 << n)
    amps[index] = 1.0
    return StateVector(n, amps)


def apply_pauli_sum(h: PauliSum, state: StateVector) -> np.ndarray:
    """Amplitudes of h|state> (not normalized), in one pass over the blocks
    of h.matrix_blocks(): each amplitude adds its terms' contributions one
    by one in canonical term order."""
    if 1 << h.n_qubits != state.amplitudes.size:
        raise ValueError("operator and state dimensions differ")
    amps = state.amplitudes
    out = np.zeros_like(amps)
    for rows, values in h.matrix_blocks(np.arange(amps.size, dtype=np.uint64)):
        # np.add.at adds in array order, so term by term for each amplitude
        np.add.at(out, rows.ravel(), (values * amps).ravel())
    return out


def exact_expectation(h: PauliSum, state: StateVector) -> float:
    """<state|h|state> of the real symmetric h and the real state."""
    return float(state.amplitudes @ apply_pauli_sum(h, state))


@dataclass(frozen=True)
class NoiseModel:
    """Independent symmetric readout bit flips with probability p per qubit, which
    the sampler injects and mitigation.mitigate inverts; p = 0 is noiseless."""

    spam_flip_probability: float

    def __post_init__(self):
        p = self.spam_flip_probability
        if not 0.0 <= p < 0.5:
            singular = "; p=0.5 is singular" if p == 0.5 else ""
            raise ValueError(f"flip probability p={p!r} must lie in [0, 0.5){singular}")


def _check_histogram(outcomes: np.ndarray, weights: np.ndarray, n_bits: int) -> None:
    """Refuse int64 outcomes that are not increasing indices below 2**n_bits, one per weight."""
    if outcomes.ndim != 1 or outcomes.shape != weights.shape:
        raise ValueError("need one weight per outcome")
    if outcomes.size and (
        outcomes[0] < 0 or int(outcomes[-1]) >> n_bits or np.any(np.diff(outcomes) <= 0)
    ):
        raise ValueError("malformed outcomes: need increasing indices below 2**n_bits")


@dataclass(frozen=True, eq=False)
class CountTable:
    """Outcome histogram: strictly increasing int64 basis-state indices (bit k
    is qubit k) and how often each was seen.  Bitstrings (qubit 0 leftmost)
    appear only in the text form of to_lines/from_lines."""

    n_bits: int
    outcomes: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if self.n_bits > 63:
            raise ValueError(f"a {self.n_bits}-bit histogram exceeds the 63 bits of int64 outcomes")
        outcomes = np.asarray(self.outcomes, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "counts", counts)
        _check_histogram(outcomes, counts, self.n_bits)
        if np.any(counts < 0):
            raise ValueError(f"negative count {int(counts.min())} in the histogram")

    @classmethod
    def from_indices(cls, indices: np.ndarray, n_bits: int) -> "CountTable":
        outcomes, counts = np.unique(np.asarray(indices, dtype=np.int64), return_counts=True)
        return cls(n_bits, outcomes, counts)

    @property
    def shots(self) -> int:
        return int(self.counts.sum())

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
                raise ValueError(f"line {lineno}: malformed bitstring key {key!r}")
            try:
                count = int(value)
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer count {value!r}") from None
            if count < 0:  # caught here, before repeated keys are summed
                raise ValueError(f"line {lineno}: negative count {count}")
            index = bits_to_index(key)
            counts[index] = counts.get(index, 0) + count
        if n_bits is None:
            raise ValueError("no histogram lines found")
        outcomes = sorted(counts)
        return cls(n_bits, outcomes, [counts[o] for o in outcomes])


def _distinct_positions(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    """count distinct positions of range(size), sorted and uniform over the
    count-subsets: uniform draws with repeats redrawn, in O(count) memory."""
    positions = np.empty(0, dtype=np.int64)
    while positions.size < count:
        positions = np.sort(np.r_[positions, rng.integers(0, size, count - positions.size)])
        positions = positions[np.r_[True, positions[1:] != positions[:-1]]]
    return positions


def sample_batch(bits: str, batch, shots: int, noise: NoiseModel, seed) -> CountTable:
    """Joint counts for a packed execution whose every slot holds a copy of
    the basis state |b>, given as its bitstring (qubit 0 leftmost), each
    measured in its (group, offset) slot's rotated basis (exact, since the
    copies are unentangled): one seeded generator draws uniform register
    bits, kept where a slot's rotation has X or Y and set to b's bits
    elsewhere.  Then it draws the readout flips: a Binomial(shots * register,
    p) count of distinct (shot, bit) positions chosen uniformly, which is
    exactly an independent Bernoulli(p) flip of every bit."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    if not batch.slots:
        raise ValueError("an execution needs at least one slot")
    n, b = len(bits), bits_to_index(bits)
    free = fixed = 0
    for group, offset in batch.slots:
        if n != group.n_qubits:
            raise ValueError(f"{n}-qubit state in a {group.n_qubits}-qubit slot")
        free |= group.rotation.x << offset
        fixed |= (b & ~group.rotation.x) << offset
    register = batch.register_width
    check_memory(f"sampling {shots} shots", shots * SHOT_BYTES)
    rng = np.random.default_rng(seed)
    joint = rng.integers(0, (1 << register) - 1, shots, dtype=np.int64, endpoint=True)
    joint &= free
    joint |= fixed
    if noise.spam_flip_probability > 0.0:
        count = int(rng.binomial(shots * register, noise.spam_flip_probability))
        need = shots * SHOT_BYTES + count * FLIP_BYTES
        check_memory(f"sampling {shots} shots with {count} readout flips", need)
        flips = _distinct_positions(rng, shots * register, count)
        # flat position f is shot f // register, bit f % register
        np.bitwise_xor.at(joint, flips // register, np.left_shift(1, flips % register))
    return CountTable.from_indices(joint, register)


def serial_sample(bits: str, group, shots: int, noise: NoiseModel, seed) -> CountTable:
    """Sample one QWC group's rotated measurement on its own register: a
    one-group sample_batch."""
    return sample_batch(bits, PackedBatch(((group, 0),), group.n_qubits), shots, noise, seed)
