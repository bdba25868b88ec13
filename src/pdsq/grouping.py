"""Qubit-wise-commuting measurement groups and 4-way packed batches.

Grouping is greedy first-fit over strings sorted by descending weight (ties
broken by canonical mask order): deterministic and close to the partition
sizes good solvers reach, though not necessarily minimal.

It is computed one group at a time on Python-int bitsets over the strings'
sorted positions.  A first-fit group is exactly the set of strings left
that fit its final rotation.  A rotation only ever gains letters, so a
string that fits the final rotation fitted the running one when first-fit
reached it, and one that did not fit then never fits later.  So the first
string left opens the group, the rotation takes in the first string left
that fits it and reaches a new qubit until none does, and the members are
the strings that fit the result, in order.  Per qubit q there are four
N-bit ints (N strings): the strings whose letter on q is I or X, I or Z,
I or Y, and those not I on q.  The strings left that fit a rotation are the
AND of the first three over the letters it holds; those reaching a new
qubit are the OR of the fourth over the qubits it leaves idle.  Each
extension covers a new qubit, so a group costs at most n ANDs in all, at
most n ORs for each of its at most n extensions (n qubits), and one read of
its members' bits.  No NumPy pass runs per group.

A group is measured in the basis its rotation masks name, which the sampler
reads directly (a uniform bit where the rotation has X or Y): each member's
eigenvalue is then a parity of the outcome bits on its support.  A slot's
members all lie in its n bits, so one weighted histogram of those bits, the
slot's marginal, fixes every member: its value is the +-1 parity of its
support over the marginal's bins, dotted with the marginal.  The bins are
the 2^n values of the slot, or only the distinct observed ones when 2^n
exceeds the outcome count, so a wide slot never allocates 2^n bins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .budget import check_memory
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
    register_width: int

    def __post_init__(self):
        taken = 0
        for index, (group, offset) in enumerate(self.slots):
            qubits = f"slot {index} (qubits {offset}..{offset + group.n_qubits - 1})"
            if offset < 0 or offset + group.n_qubits > self.register_width:
                raise ValueError(
                    f"{qubits} does not fit a {self.register_width}-qubit register"
                )
            span = ((1 << group.n_qubits) - 1) << offset
            if taken & span:
                raise ValueError(f"{qubits} overlaps an earlier slot")
            taken |= span


# the most bytes of member bitsets read back to positions at once
_DECODE_BYTES = 1 << 20


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
    count = len(pauli_list)
    x = np.fromiter((s.x for s in pauli_list), dtype=np.uint64, count=count)
    z = np.fromiter((s.z for s in pauli_list), dtype=np.uint64, count=count)
    weight = np.bitwise_count(x | z).astype(np.int64)
    order = np.lexsort((x, z, -weight))  # the stable order of key (-weight, z, x)
    x, z = x[order], z[order]

    nwords = -(-count // 64)
    check_memory(f"QWC grouping of {count} strings on {n} qubits", 4 * n * 8 * nwords)
    groups = []
    found = _fixed_points(x, z, n)
    while chunk := list(itertools.islice(found, max(1, _DECODE_BYTES // (8 * nwords)))):
        where, bounds = _positions([fits for fits, _, _ in chunk], nwords)
        members = [pauli_list[i] for i in order[where].tolist()]
        for (_, rx, rz), start, stop in zip(chunk, bounds, bounds[1:]):
            groups.append(QwcGroup(tuple(members[start:stop]), PauliString(n, rx, rz)))
    return groups


def _fixed_points(x: np.ndarray, z: np.ndarray, n: int):
    """First-fit groups of the sorted masks x, z, in order: the bitset of
    each group's members (bit i for position i) and its rotation masks."""
    # per qubit q: fit[q][letter], the strings that are I or that letter on
    # q (letter = x bit + 2 z bit: 0 I, 1 X, 2 Z, 3 Y); busy[q], the strings
    # not I on q
    everyone = (1 << x.size) - 1
    fit, busy = [], []
    for q in range(n):
        bit = np.uint64(1 << q)
        xq, zq = (x & bit) != 0, (z & bit) != 0
        fit.append((everyone, _bitset(~zq), _bitset(~xq), _bitset(xq == zq)))
        busy.append(_bitset(xq | zq))
    alive = everyone
    while alive:
        # the group of the rotation's fixed point (see the module notes)
        first = (alive & -alive).bit_length() - 1
        rx, rz = int(x[first]), int(z[first])
        fits, idle = alive, range(n)
        while True:
            # take in the letters of newly covered qubits; the strings left
            # busy on a qubit still idle reach a new one
            covered, reach, still = rx | rz, 0, []
            for q in idle:
                if covered >> q & 1:
                    fits &= fit[q][(rx >> q & 1) | (rz >> q & 1) << 1]
                else:
                    reach |= busy[q]
                    still.append(q)
            idle = still
            extends = fits & reach
            if not extends:
                break
            i = (extends & -extends).bit_length() - 1
            rx, rz = rx | int(x[i]), rz | int(z[i])
        yield fits, rx, rz
        alive ^= fits


def _bitset(mask: np.ndarray) -> int:
    """The int whose bit i is mask[i]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _positions(sets: list[int], nwords: int) -> tuple[np.ndarray, list[int]]:
    """The set bits of ints of at most 64 * nwords bits, each int's ascending
    and one after another, and where each int's bits start and stop."""
    raw = b"".join(s.to_bytes(8 * nwords, "little") for s in sets)
    words = np.flatnonzero(np.frombuffer(raw, dtype=np.uint64))  # scanned 8 bytes at a time
    octets = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 8)[words].ravel()
    at = np.flatnonzero(octets)
    bits = np.flatnonzero(np.unpackbits(octets[at], bitorder="little"))
    at = words[at >> 3] * 8 + (at & 7)  # the bytes holding a bit
    row, where = np.divmod(at[bits >> 3] * 8 + (bits & 7), 64 * nwords)
    return where, np.searchsorted(row, np.arange(len(sets) + 1)).tolist()


def pack_batches(
    groups: Sequence[QwcGroup], slot_width: int, register: int
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

    Each member's value is the +-1 parity of its support over the bins of
    the slot's marginal histogram, dotted with that marginal, over the
    total weight (see the module notes).
    """
    outcomes = np.asarray(outcomes, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if not total > 0.0:
        raise ValueError("empty histogram")
    out: dict[PauliString, float] = {}
    for group, offset in slots:
        size = 1 << group.n_qubits
        bits = (outcomes >> offset) & (size - 1)
        if size > bits.size:  # bin the observed values only
            bins, bits = np.unique(bits, return_inverse=True)
        else:
            bins = np.arange(size)
        marginal = np.bincount(bits, weights, minlength=bins.size)
        supports = np.array([m.support for m in group.members], dtype=np.int64)
        signs = 1.0 - 2.0 * (np.bitwise_count(supports[:, None] & bins) & 1)
        out.update(zip(group.members, (signs @ marginal / total).tolist()))
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
