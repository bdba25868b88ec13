"""Moment-expansion (PDS) eigenvalue bounds for hydrogen-chain singlet fission.

End-to-end classical reproduction of a quantum-device workflow: qubit
Hamiltonian construction for linear H chains, Hamiltonian-moment evaluation,
PDS(K) energy bounds for singlet and triplet sectors, measurement-cost
reduction (tapering, qubit-wise-commuting grouping, 4-way parallel packing),
shot sampling with readout bit-flip noise, and mitigation of that noise.

The names below are the documented library surface, listed with their
roles in the README's "Library use" section.
"""

from .backend import CountTable, NoiseModel, StateVector, exact_expectation, prepare_basis_state
from .chem import Geometry, build_h_chain, compute_integrals, hartree_fock, reference_determinant, second_quantized_hamiltonian
from .exact import exact_spectrum, exact_transitions
from .fcidump import fcidump_read, fcidump_write
from .grouping import PackedBatch, group_qwc, pack_batches, slot_expectations
from .jw import jordan_wigner
from .mitigation import mitigate
from .moments import PowerCache, moments_for_state, unique_string_count
from .pauli import PauliString, PauliSum, multiply_sums
from .pds import build_system, pds_energies, polynomial_roots, transition_energies
from .pipeline import RunConfig, build_problem, run_pipeline
from .taper import find_symmetries, sector_of, taper_operator, taper_state

__all__ = [
    "CountTable", "NoiseModel", "StateVector", "exact_expectation", "prepare_basis_state",
    "Geometry", "build_h_chain", "compute_integrals", "hartree_fock",
    "reference_determinant", "second_quantized_hamiltonian",
    "exact_spectrum", "exact_transitions",
    "fcidump_read", "fcidump_write",
    "PackedBatch", "group_qwc", "pack_batches", "slot_expectations",
    "jordan_wigner",
    "mitigate",
    "PowerCache", "moments_for_state", "unique_string_count",
    "PauliString", "PauliSum", "multiply_sums",
    "build_system", "pds_energies", "polynomial_roots", "transition_energies",
    "RunConfig", "build_problem", "run_pipeline",
    "find_symmetries", "sector_of", "taper_operator", "taper_state",
]

__version__ = "0.1.0"
