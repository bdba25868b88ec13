"""Qubit-wise-commuting measurement groups and 4-way packed batches.

Grouping is greedy first-fit over strings sorted by descending weight (ties
broken by canonical mask order): deterministic and close to the partition
sizes good solvers reach, though not necessarily minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pauli import PauliString


@dataclass(frozen=True)
class QwcGroup:
    """Strings sharing a measurement basis; rotation holds the per-qubit
    dominant letter (the non-identity letter any member uses there)."""

    members: tuple[PauliString, ...]
    rotation: PauliString

    @property
    def n_qubits(self) -> int:
        return self.rotation.n_qubits


@dataclass(frozen=True)
class PackedBatch:
    """Up to register_width/slot_width groups measured in one execution."""

    slots: tuple[tuple[QwcGroup, int], ...]  # (group, qubit offset)
    register_width: int = 20


def group_qwc(strings: Sequence[PauliString]) -> list[QwcGroup]:
    """Partition strings into QWC groups (greedy, largest weight first)."""
    pauli_list = list(strings)
    if not pauli_list:
        return []
    n = pauli_list[0].n_qubits
    for s in pauli_list:
        if s.n_qubits != n:
            raise ValueError("strings must share one qubit count")
        if s.is_identity:
            raise ValueError("the identity string is never measured; exclude it")
    ordered = sorted(pauli_list, key=lambda s: (-s.weight, s.z, s.x))

    rotations: list[tuple[int, int]] = []  # running (x, z) masks per group
    members: list[list[PauliString]] = []
    for s in ordered:
        for gi, (rx, rz) in enumerate(rotations):
            shared = (rx | rz) & (s.x | s.z)
            if (rx ^ s.x) & shared == 0 and (rz ^ s.z) & shared == 0:
                members[gi].append(s)
                rotations[gi] = (rx | s.x, rz | s.z)
                break
        else:
            members.append([s])
            rotations.append((s.x, s.z))

    return [
        QwcGroup(tuple(group), PauliString(n, rx, rz))
        for group, (rx, rz) in zip(members, rotations)
    ]


def rotation_circuit(group: QwcGroup) -> list[list[str]]:
    """Per-qubit basis-change gate names: X -> H, Y -> SDG then H, Z/I -> none.

    Applying these and measuring in the computational basis yields every
    member's eigenvalue as a parity over its support.
    """
    gates: list[list[str]] = []
    for k in range(group.n_qubits):
        letter = group.rotation.letter(k)
        if letter == "X":
            gates.append(["H"])
        elif letter == "Y":
            gates.append(["SDG", "H"])
        else:
            gates.append([])
    return gates


def pack_batches(
    groups: Sequence[QwcGroup], slot_width: int = 5, register: int = 20
) -> list[PackedBatch]:
    """Pack groups four-per-execution (fill order = group order)."""
    per_batch = register // slot_width
    batches = []
    for start in range(0, len(groups), per_batch):
        chunk = groups[start : start + per_batch]
        slots = []
        for slot_index, group in enumerate(chunk):
            if group.n_qubits != slot_width:
                raise ValueError(
                    f"group width {group.n_qubits} does not fit slot width {slot_width}"
                )
            slots.append((group, slot_index * slot_width))
        batches.append(PackedBatch(tuple(slots), register))
    return batches


def slot_expectations(
    outcomes: np.ndarray, weights: np.ndarray, slots: Sequence[tuple[QwcGroup, int]]
) -> dict[PauliString, float]:
    """Member expectations of every (group, qubit offset) slot from outcome
    weights over a (possibly joint) register.

    Each member's value is the weighted mean of (-1)^parity of the outcome's
    bits on its support, shifted to the slot's offset.
    """
    outcomes = np.asarray(outcomes, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if not total > 0.0:
        raise ValueError("empty histogram")
    out: dict[PauliString, float] = {}
    for group, offset in slots:
        supports = np.array([m.support for m in group.members], dtype=np.int64)
        parity = np.bitwise_count((outcomes[:, None] >> offset) & supports) & 1
        values = (weights @ (1.0 - 2.0 * parity)) / total
        out.update(zip(group.members, values.tolist()))
    return out


# The four uses of slot_expectations by name.  The pipeline calls the fold
# itself; the benchmark's tracer (benchmarks/tracer.py) times these names.
def expectations_from_counts(counts, batch: PackedBatch) -> dict[PauliString, float]:
    return slot_expectations(counts.outcomes, counts.counts, batch.slots)


def expectations_from_weights(outcomes, weights, batch: PackedBatch) -> dict[PauliString, float]:
    return slot_expectations(outcomes, weights, batch.slots)


def expectations_from_group_counts(counts, group: QwcGroup) -> dict[PauliString, float]:
    return slot_expectations(counts.outcomes, counts.counts, ((group, 0),))


def expectations_from_group_weights(outcomes, weights, group: QwcGroup) -> dict[PauliString, float]:
    return slot_expectations(outcomes, weights, ((group, 0),))
