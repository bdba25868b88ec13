"""Z2 symmetry detection and qubit tapering of Pauli-sum Hamiltonians.

Symmetries are Pauli strings commuting with every Hamiltonian term, found as
the GF(2) kernel of the term-wise symplectic check matrix.  Each generator
is paired with a single-qubit X partner on a qubit exclusive to it; the
Clifford (X_q + g)/sqrt(2) maps the generator onto that X, after which the
partner qubit carries only I or X in every term and can be replaced by the
sector eigenvalue +-1 and removed.

Reference determinants in the chosen sector taper to plain basis states on
the remaining qubits: the Clifford sends them to product states whose
removed-qubit factors are X eigenstates matching the sector signs, so
expectation values restrict exactly.

Everything past the Clifford rotations works on the sums' uint64 mask
arrays: the check matrix is cut from the masks by shift-and-mask, the
commutation of each generator with all terms is one popcount parity, and the
restriction multiplies every rotated term by its sector signs (+-1, exact),
gathers the remaining qubits' bits into compact masks, and sums the terms
that land on one string in canonical order of the rotated sum, which is the
order a term-by-term loop adds them in; so the tapered sum has the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .chem import ReferenceDeterminant
from .pauli import (
    DEFAULT_DROP_TOL, PauliString, PauliSum, _check_qubits, _sum_in_order, multiply_sums,
)


@dataclass(frozen=True)
class TaperingData:
    generators: tuple[PauliString, ...]
    paulix_partners: tuple[int, ...]  # one exclusive qubit per generator
    sector_signs: tuple[int, ...]
    removed_qubits: tuple[int, ...]
    n_remaining: int


def _gf2_rref(rows: np.ndarray) -> np.ndarray:
    """Reduced row-echelon form over GF(2); zero rows dropped."""
    m = rows.copy().astype(np.uint8) & 1
    n_rows, n_cols = m.shape
    pivot_row = 0
    for col in range(n_cols):
        hits = np.nonzero(m[pivot_row:, col])[0]
        if hits.size == 0:
            continue
        swap = pivot_row + hits[0]
        m[[pivot_row, swap]] = m[[swap, pivot_row]]
        others = np.nonzero(m[:, col])[0]
        others = others[others != pivot_row]
        m[others] ^= m[pivot_row]
        pivot_row += 1
        if pivot_row == n_rows:
            break
    keep = m.any(axis=1)
    return m[keep]


def _gf2_kernel_basis(rows: np.ndarray) -> np.ndarray:
    """Basis of {v : rows @ v = 0 mod 2}, one kernel vector per row."""
    n_cols = rows.shape[1]
    rref = _gf2_rref(rows)
    pivots = [int(np.nonzero(r)[0][0]) for r in rref]
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(n_cols, dtype=np.uint8)
        v[f] = 1
        for r, p in zip(rref, pivots):
            if r[f]:
                v[p] ^= 1
        basis.append(v)
    return np.array(basis, dtype=np.uint8).reshape(len(basis), n_cols)


def _check_matrix(h: PauliSum) -> np.ndarray:
    """One uint8 row per term in canonical order: its z bits, then its x
    bits (a term's z multiplies a candidate's x part, its x the z part)."""
    x, z, _ = h.mask_arrays()
    shifts = np.arange(h.n_qubits, dtype=np.uint64)
    bits = np.concatenate((z[:, None] >> shifts, x[:, None] >> shifts), axis=1)
    return (bits & np.uint64(1)).astype(np.uint8)


def _bits_to_mask(bits: np.ndarray) -> int:
    mask = 0
    for k, b in enumerate(bits):
        if b:
            mask |= 1 << k
    return mask


def find_symmetries(h: PauliSum) -> list[PauliString]:
    """Independent Z2 symmetry generators of h (empty list if none).

    The returned basis is in reduced row-echelon form with X components
    eliminated first, so generators come out purely Z whenever the kernel
    allows it; ordering is canonical for reproducible downstream counts.
    """
    n = h.n_qubits
    if not h:
        return []
    kernel = _gf2_kernel_basis(_check_matrix(h))
    if kernel.size == 0:
        return []
    # RREF over (x | z) columns: rows with pivots in the z block are pure Z
    reduced = _gf2_rref(kernel)
    generators = []
    for row in reduced:
        x_mask = _bits_to_mask(row[:n])
        z_mask = _bits_to_mask(row[n:])
        if x_mask == 0 and z_mask == 0:
            continue
        generators.append(PauliString(n, x_mask, z_mask))
    generators.sort(key=lambda s: (s.z, s.x))
    return generators


def sector_of(det: ReferenceDeterminant, generators) -> tuple[int, ...]:
    """Eigenvalue of each (purely Z) generator on the determinant."""
    signs = []
    occ = det.occupation_mask
    for g in generators:
        if g.x != 0:
            raise ValueError(f"generator {g.label} is not purely Z")
        signs.append(-1 if (occ & g.z).bit_count() & 1 else 1)
    return tuple(signs)


def build_tapering(
    h: PauliSum, generators, sector_signs
) -> TaperingData:
    """Choose X partners (lowest-index qubit exclusive to each generator)."""
    generators = tuple(generators)
    sector_signs = tuple(sector_signs)
    if len(generators) != len(sector_signs):
        raise ValueError("need one sector sign per generator")
    _check_generators(h, generators)
    supports = [g.support for g in generators]
    partners = []
    for i, g in enumerate(generators):
        others = 0
        for j, s in enumerate(supports):
            if j != i:
                others |= s
        # the partner must anticommute with its generator: Z or Y letter there
        exclusive = supports[i] & ~others & g.z
        if exclusive == 0:
            raise ValueError(
                f"generator {g.label} has no exclusive qubit for an X partner"
            )
        partners.append((exclusive & -exclusive).bit_length() - 1)
    removed = tuple(partners)
    return TaperingData(
        generators=generators,
        paulix_partners=tuple(partners),
        sector_signs=sector_signs,
        removed_qubits=removed,
        n_remaining=h.n_qubits - len(removed),
    )


def tapering_for_determinant(h: PauliSum, det: ReferenceDeterminant) -> TaperingData:
    """Convenience: symmetries of h with the sector fixed by a determinant."""
    generators = find_symmetries(h)
    return build_tapering(h, generators, sector_of(det, generators))


def _check_generators(h: PauliSum, generators) -> None:
    x, z, _ = h.mask_arrays()
    if not x.size:
        return
    for g in generators:
        _check_qubits(g.n_qubits, h.n_qubits)
        # symplectic product parity with every term in one pass
        odd = np.bitwise_count((x & np.uint64(g.z)) ^ (z & np.uint64(g.x))) & 1
        if odd.any():
            t = int(np.argmax(odd))
            term = PauliString(h.n_qubits, int(x[t]), int(z[t]))
            raise ValueError(
                f"generator {g.label} does not commute with term {term.label}"
            )


def _compact(masks: np.ndarray, remaining: list[int]) -> np.ndarray:
    """Masks with bit remaining[k] moved to bit k and every other bit dropped."""
    out = np.zeros_like(masks)
    for new, old in enumerate(remaining):
        out |= ((masks >> np.uint64(old)) & np.uint64(1)) << np.uint64(new)
    return out


def taper_operator(h: PauliSum, td: TaperingData) -> PauliSum:
    """Restrict h to the sector fixed in td, on n_remaining qubits.

    The rotated Hamiltonian acts as I or X on every removed qubit; those
    letters are replaced by the sector signs.  The spectrum of the result is
    a subset of h's spectrum.
    """
    n = h.n_qubits
    rotated = h
    inv_sqrt2 = 1.0 / sqrt(2.0)
    for g, q in zip(td.generators, td.paulix_partners):
        u = PauliSum(n, {(1 << q, 0): inv_sqrt2, (g.x, g.z): inv_sqrt2})
        rotated = multiply_sums(multiply_sums(u, rotated), u)
    if rotated.max_imag() > 1e-9:
        raise ValueError("tapering rotation broke Hermiticity; incompatible data")

    removed = set(td.removed_qubits)
    remaining = [q for q in range(n) if q not in removed]
    sign_of = dict(zip(td.removed_qubits, td.sector_signs))
    x, z, c = rotated.mask_arrays()
    on_removed = np.flatnonzero(z & np.uint64(sum(1 << q for q in removed)))
    if on_removed.size:
        string = PauliString(n, int(x[on_removed[0]]), int(z[on_removed[0]]))
        q = next(q for q in removed if (string.z >> q) & 1)
        raise ValueError(
            f"rotated term {string.label} acts as Z/Y on removed qubit {q}"
        )
    # an X on a removed qubit becomes that qubit's sector sign
    factor = np.ones(len(c))
    for q in removed:
        factor = np.where((x >> np.uint64(q)) & np.uint64(1), factor * sign_of[q], factor)
    x, z = _compact(x, remaining), _compact(z, remaining)
    if int((x | z).max(initial=0)) >> td.n_remaining:
        raise ValueError("term masks exceed qubit count")
    return _sum_in_order(
        td.n_remaining, x, z, c.real * factor, c.imag * factor, DEFAULT_DROP_TOL
    )


def taper_state(det: ReferenceDeterminant, td: TaperingData) -> str:
    """Basis state on the remaining qubits matching det's sector expectations."""
    det_signs = sector_of(det, td.generators)
    if det_signs != td.sector_signs:
        raise ValueError(
            f"determinant sector {det_signs} does not match tapering sector "
            f"{td.sector_signs}"
        )
    removed = set(td.removed_qubits)
    bits = det.bits
    return "".join(b for q, b in enumerate(bits) if q not in removed)
