"""Exact reference spectra by dense diagonalization of qubit Hamiltonians.

Sector filtering selects computational basis states by electron count and
s_z under the blocked spin-orbital convention (alpha qubits first); the
"exact" singlet/triplet energies come from the real symmetric Hamiltonian
on the float64 block of those d states.  The states
are listed from the alpha and beta occupations and the block is assembled
on them alone, so no array has 2^n entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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


def _occupations(n_orbitals: int, n_occupied: int) -> np.ndarray:
    """Ascending uint64 masks of n_orbitals bits with n_occupied >= 0 set."""
    occupations = combinations(range(n_orbitals), n_occupied)
    return np.sort(np.array([sum(1 << k for k in occ) for occ in occupations], dtype=np.uint64))


def sector_basis_indices(n_qubits: int, n_electrons: int, s_z: float) -> np.ndarray:
    """Basis-state indices (ascending uint64) with the requested occupation
    and spin projection: each beta occupation (high half) over each alpha
    occupation (low half)."""
    if n_qubits % 2 != 0:
        raise ValueError("sector filtering expects an even qubit count")
    half = n_qubits // 2
    n_alpha, odd = divmod(n_electrons + round(2 * s_z), 2)
    n_beta = n_electrons - n_alpha
    if odd or min(n_alpha, n_beta) < 0:
        return np.zeros(0, dtype=np.uint64)
    alpha, beta = _occupations(half, n_alpha), _occupations(half, n_beta)
    return (beta[:, None] << np.uint64(half) | alpha).ravel()


def exact_spectrum(h: PauliSum, sector: tuple[int, float]) -> SpectrumResult:
    """Eigenvalues of h restricted to the basis states of sector =
    (n_electrons, s_z), assembled on that block alone."""
    keep = sector_basis_indices(h.n_qubits, *sector)
    if keep.size == 0:
        raise ValueError(f"empty sector {sector}")
    return SpectrumResult(np.linalg.eigvalsh(_dense_block(h, keep)))


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
