"""Z2 symmetry detection and qubit tapering of Pauli-sum Hamiltonians.

The symmetries are Z-type symmetries, the kernel of the terms' X bits (Z^v
commutes with a term exactly when the term's X bits meet v an even number of
times), as only those have a sign on a basis determinant.  Each generator g is
paired with a single-qubit X partner on a qubit q exclusive to it; the
Clifford U = (X_q + g)/2^(1/2) (Bravyi et al., arXiv:1701.08213) maps g onto
X_q, after which the partner qubit carries only I or X in every term and can
be replaced by the sector eigenvalue +-1 and removed.  U is applied in
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
from .pauli import PauliString, PauliSum, _check_qubits, _multiply_masks, _sum_in_order


@dataclass(frozen=True)
class TaperingData:
    generators: tuple[PauliString, ...]
    paulix_partners: tuple[int, ...]  # one exclusive qubit per generator, each removed
    sector_signs: tuple[int, ...]
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
    """Basis of {v : rows @ v = 0 mod 2}, one kernel vector per free column:
    1 there, and each pivot row's entry in that column at its pivot."""
    n_cols = rows.shape[1]
    rref = _gf2_rref(rows)
    pivots = [int(np.nonzero(r)[0][0]) for r in rref]
    free = [c for c in range(n_cols) if c not in pivots]
    basis = np.zeros((len(free), n_cols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = rref[:, free].T
    return basis


def _check_matrix(h: PauliSum) -> np.ndarray:
    """One uint8 row per term in canonical order: its X bits, qubit k in column k."""
    x, _, _ = h.mask_arrays()
    shifts = np.arange(h.n_qubits, dtype=np.uint64)
    return ((x[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def _bits_to_mask(bits: np.ndarray) -> int:
    return sum(1 << k for k in np.flatnonzero(bits).tolist())


def find_symmetries(h: PauliSum) -> list[PauliString]:
    """Independent generators of h's Z-type symmetries, the kernel of the
    terms' X bits (empty list if none).

    The basis is the kernel's reduced row-echelon form, sorted by Z mask, so
    downstream counts are reproducible.
    """
    if not h:
        return []
    kernel = _gf2_rref(_gf2_kernel_basis(_check_matrix(h)))
    return sorted(
        (PauliString(h.n_qubits, 0, _bits_to_mask(row)) for row in kernel),
        key=lambda s: s.z,
    )


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
    seen = shared = 0  # qubits in some support, in two or more supports
    for g in generators:
        shared |= seen & g.support
        seen |= g.support
    partners = []
    for g in generators:
        # the partner must anticommute with its generator: Z or Y letter there
        exclusive = g.z & ~shared
        if exclusive == 0:
            raise ValueError(
                f"generator {g.label} has no exclusive qubit for an X partner"
            )
        partners.append((exclusive & -exclusive).bit_length() - 1)
    return TaperingData(generators, tuple(partners), sector_signs, h.n_qubits - len(partners))


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
