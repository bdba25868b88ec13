"""Z2 symmetry detection and qubit tapering of Pauli-sum Hamiltonians.

The symmetries are Z-type symmetries, the kernel of the terms' X bits (Z^v
commutes with a term exactly when the term's X bits meet v an even number of
times), as only those have a sign on a basis determinant.  The kernel is the
orthogonal complement of the X masks' span V, read off V's reduced echelon
basis (`pauli._gf2_basis`, the elimination the products block over): one
vector per non-pivot qubit f, with bit f and the pivot of every basis vector
holding f, reduced again.  In that reduced basis each generator g's pivot,
its lowest qubit, is in no other generator, and it is g's single-qubit X
partner q; the Clifford U = (X_q + g)/2^(1/2) (Bravyi et al.,
arXiv:1701.08213) maps g onto X_q, after which the partner qubit carries
only I or X in every term and can be replaced by the sector eigenvalue +-1
and removed.  U is applied in
closed form: a term P commutes with g, so U P U = P where P has I or X on q,
and U P U = X_q P g where it has Z or Y.  That image is Hermitian, so the
product's phase is +-1 and the coefficient stays exactly +-c; and as the
partners are exclusive, each rotation leaves the other generators unchanged.

Reference determinants in the chosen sector taper to plain basis states on
the remaining qubits: the Clifford sends them to product states whose
removed-qubit factors are X eigenstates matching the sector signs, so
expectation values restrict exactly.

Everything works on the sums' uint64 mask arrays.  A rotation is two
`pauli._multiply_masks` passes (X_q P, then times g); the restriction
multiplies every rotated term by its sector signs (+-1, exact), gathers the
remaining qubits' bits into compact masks, and sums the terms that land on
one string in h's canonical order, which is the order a term-by-term loop
over h adds them in; so the tapered sum has the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chem import ReferenceDeterminant
from .pauli import PauliString, PauliSum, _check_qubits, _gf2_basis, _multiply_masks, _sum_in_order


@dataclass(frozen=True)
class TaperingData:
    generators: tuple[PauliString, ...]
    paulix_partners: tuple[int, ...]  # one exclusive qubit per generator, each removed
    sector_signs: tuple[int, ...]
    n_remaining: int


def find_symmetries(h: PauliSum) -> list[PauliString]:
    """Independent generators of h's Z-type symmetries, the kernel of the
    terms' X bits (empty list if none).

    The basis is the kernel's reduced row-echelon form, sorted by Z mask, so
    downstream counts are reproducible.
    """
    span = _gf2_basis(h.mask_arrays()[0].tolist())
    # one kernel vector per non-pivot bit f: f, and the pivot of each
    # basis vector holding f
    kernel = _gf2_basis(
        1 << f | sum(1 << p for p, v in span.items() if v >> f & 1)
        for f in range(h.n_qubits) if f not in span
    )
    return sorted((PauliString(h.n_qubits, 0, z) for z in kernel.values()), key=lambda s: s.z)


def sector_of(det: ReferenceDeterminant, generators) -> tuple[int, ...]:
    """Eigenvalue of each (purely Z) generator on the determinant."""
    signs = []
    occ = det.occupation_mask
    for g in generators:
        if g.x != 0:
            raise ValueError(f"generator {g.label} is not purely Z")
        signs.append(-1 if (occ & g.z).bit_count() & 1 else 1)
    return tuple(signs)


def tapering_for_determinant(h: PauliSum, det: ReferenceDeterminant) -> TaperingData:
    """The symmetries of h, each partnered with its pivot, in the sector
    fixed by a determinant."""
    generators = tuple(find_symmetries(h))
    partners = tuple((g.z & -g.z).bit_length() - 1 for g in generators)
    return TaperingData(
        generators, partners, sector_of(det, generators), h.n_qubits - len(partners)
    )


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

    Each generator's rotation sends a term c P with Z or Y on the partner
    qubit q to +-c X_q P g (see the module docstring).  The rotated
    Hamiltonian acts as I or X on every removed qubit; those letters are
    replaced by the sector signs.  The spectrum of the result is a subset of
    h's spectrum.
    """
    n = h.n_qubits
    _check_generators(h, td.generators)
    x, z, c = h.mask_arrays()
    factor = np.ones(len(c))
    for g, q in zip(td.generators, td.paulix_partners):
        if not (g.z >> q) & 1:
            raise ValueError(f"generator {g.label} acts as I or X on its partner qubit {q}")
        if sum((other.z >> q) & 1 for other in td.generators) > 1:
            raise ValueError(f"partner qubit {q} of generator {g.label} is Z or Y in another")
        moved = ((z >> np.uint64(q)) & np.uint64(1)).astype(bool)
        xq, zq, e_q = _multiply_masks(np.uint64(1 << q), np.uint64(0), x, z)
        xg, zg, e_g = _multiply_masks(xq, zq, np.uint64(g.x), np.uint64(g.z))
        # the image is Hermitian: its i-exponent is 0 or 2
        factor = np.where(moved & ((e_q + e_g) & 2 != 0), -factor, factor)
        x, z = np.where(moved, xg, x), np.where(moved, zg, z)

    removed = set(td.paulix_partners)
    remaining = [q for q in range(n) if q not in removed]
    sign_of = dict(zip(td.paulix_partners, td.sector_signs))
    on_removed = np.flatnonzero(z & np.uint64(sum(1 << q for q in removed)))
    if on_removed.size:
        string = PauliString(n, int(x[on_removed[0]]), int(z[on_removed[0]]))
        q = next(q for q in removed if (string.z >> q) & 1)
        raise ValueError(
            f"rotated term {string.label} acts as Z/Y on removed qubit {q}"
        )
    # an X on a removed qubit becomes that qubit's sector sign
    for q in removed:
        factor = np.where((x >> np.uint64(q)) & np.uint64(1), factor * sign_of[q], factor)
    x, z = _compact(x, remaining), _compact(z, remaining)
    if int((x | z).max(initial=0)) >> td.n_remaining:
        raise ValueError("term masks exceed qubit count")
    return _sum_in_order(td.n_remaining, x, z, c * factor)


def taper_state(det: ReferenceDeterminant, td: TaperingData) -> str:
    """Basis state on the remaining qubits matching det's sector expectations."""
    det_signs = sector_of(det, td.generators)
    if det_signs != td.sector_signs:
        raise ValueError(
            f"determinant sector {det_signs} does not match tapering sector "
            f"{td.sector_signs}"
        )
    return "".join(b for q, b in enumerate(det.bits) if q not in td.paulix_partners)
