"""Qubit-wise-commuting measurement groups and 4-way packed batches.

Grouping is greedy first-fit over strings sorted by descending weight (ties
broken by canonical mask order): deterministic and close to the partition
sizes good solvers reach, though not necessarily minimal.

It is computed one group at a time on uint64 mask arrays.  Under first-fit a
group's rotation depends only on the strings that joined it earlier, so
group 0 is one scan over all strings that takes every string fitting its
running rotation, group 1 the same scan over the strings left, and so on.
Within a scan a fitting string that reaches no new qubit leaves the rotation
as it is, so one vector pass takes all of them up to the first fitting string
that does extend it; that string joins and the pass resumes after it.  Each
extension adds a qubit, so a group costs at most n + 1 passes over the
strings left (n qubits), where the per-string loop tried every open group
for every string.
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
    if n > 64:
        raise ValueError(f"QWC grouping holds masks in uint64: {n} qubits exceed 64")
    x = np.fromiter((s.x for s in pauli_list), dtype=np.uint64, count=len(pauli_list))
    z = np.fromiter((s.z for s in pauli_list), dtype=np.uint64, count=len(pauli_list))
    weight = np.bitwise_count(x | z).astype(np.int64)
    order = np.lexsort((x, z, -weight))  # the stable order of key (-weight, z, x)
    x, z = x[order], z[order]

    groups = []
    while order.size:
        joined, rx, rz = _peel_group(x, z)
        members = tuple(pauli_list[i] for i in order[joined].tolist())
        groups.append(QwcGroup(members, PauliString(n, int(rx), int(rz))))
        left = ~joined
        order, x, z = order[left], x[left], z[left]
    return groups


def _peel_group(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.uint64, np.uint64]:
    """Which of the strings, in order, first-fit puts in the group that the
    first one opens, and that group's rotation masks (see the module notes)."""
    joined = np.zeros(x.size, dtype=bool)
    joined[0] = True
    rx, rz = x[0], z[0]
    start = 1
    while start < x.size:
        sx, sz = x[start:], z[start:]
        covered = rx | rz
        support = sx | sz
        fits = ((rx ^ sx) | (rz ^ sz)) & covered & support == 0
        extends = np.flatnonzero(fits & (support & ~covered != 0))
        stop = extends[0] if extends.size else fits.size
        joined[start : start + stop] = fits[:stop]
        if not extends.size:
            break
        grow = start + stop
        joined[grow] = True
        rx, rz = rx | x[grow], rz | z[grow]
        start = grow + 1
    return joined, rx, rz


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
    """Pack groups register // slot_width to an execution, in group order:
    four 5-qubit groups to the 20-qubit device, and one to an execution in
    serial mode (register = slot_width)."""
    if not 1 <= slot_width <= register:
        raise ValueError(
            f"slot width {slot_width} does not fit register width {register}"
        )
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
