"""Exact reference spectra by dense diagonalization of qubit Hamiltonians.

Sector filtering selects computational basis states by electron count and
s_z under the blocked spin-orbital convention (alpha qubits first); the
"exact" singlet/triplet energies come from the Hamiltonian's block on those
states, assembled without the full 2^n x 2^n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum, _dense_block
from .units import EV_PER_HARTREE

# Two levels closer than this (hartree) count as degenerate spin partners.
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray  # ascending, hartree

    @property
    def ground(self) -> float:
        return float(self.eigenvalues[0])


def sector_basis_indices(n_qubits: int, n_electrons: int, s_z: float) -> np.ndarray:
    """Basis-state indices (ascending uint64) with the requested occupation
    and spin projection."""
    if n_qubits % 2 != 0:
        raise ValueError("sector filtering expects an even qubit count")
    half = n_qubits // 2
    idx = np.arange(1 << n_qubits, dtype=np.uint64)
    n_alpha = np.bitwise_count(idx & np.uint64((1 << half) - 1)).astype(int)
    n_beta = np.bitwise_count(idx >> np.uint64(half)).astype(int)
    keep = (n_alpha + n_beta == n_electrons) & (n_alpha - n_beta == round(2 * s_z))
    return idx[keep]


def exact_spectrum(h: PauliSum, sector: tuple[int, float]) -> SpectrumResult:
    """Eigenvalues of the dense Hamiltonian restricted to the basis states of
    sector = (n_electrons, s_z), assembled on that block alone."""
    keep = sector_basis_indices(h.n_qubits, *sector)
    if keep.size == 0:
        raise ValueError(f"empty sector {sector}")
    # 48 bytes per entry: the block, its conjugate and their difference in
    # the Hermiticity check; eigvalsh's copy of the block needs less
    matrix = _dense_block(h, keep, 48)
    herm_defect = np.max(np.abs(matrix - matrix.conj().T))
    if herm_defect > 1e-9:
        raise ValueError(f"Hamiltonian is not Hermitian (defect {herm_defect:.2e})")
    return SpectrumResult(np.linalg.eigvalsh(matrix))


def lowest_spin_singlet_excitation(
    singlet_sector: SpectrumResult, triplet_sector: SpectrumResult
) -> float:
    """First level above the ground state of the s_z=0 sector that has no
    partner within DEGENERACY_TOL in the s_z=1 sector (i.e. is a spin
    singlet)."""
    levels = singlet_sector.eigenvalues
    partners = triplet_sector.eigenvalues
    for e in levels[1:]:
        if not np.any(np.abs(partners - e) < DEGENERACY_TOL):
            return float(e)
    raise ValueError("no spin-singlet excitation found in the filtered spectrum")


def exact_transitions(
    singlet_sector: SpectrumResult, triplet_sector: SpectrumResult
) -> tuple[float, float]:
    """(S0->S1, S0->T0) excitation energies in eV from sector-filtered spectra."""
    if len(singlet_sector.eigenvalues) < 2:
        raise ValueError("need at least two levels in the s_z=0 sector")
    s0 = singlet_sector.ground
    s1 = lowest_spin_singlet_excitation(singlet_sector, triplet_sector)
    t0 = triplet_sector.ground
    return (s1 - s0) * EV_PER_HARTREE, (t0 - s0) * EV_PER_HARTREE
