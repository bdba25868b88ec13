"""The documented library surface: `pdsq.__all__` is the README's list, and
its callables take exactly the parameters and defaults pinned below, so an
option can come back only by editing these tables."""

import dataclasses
import functools
import inspect
import re
from pathlib import Path

import pdsq

# Parameter names and defaults of every exported callable (a class by its
# constructor), and of PauliSum's two named constructors
SIGNATURES = {
    "CountTable": "(n_bits, outcomes, counts)",
    "NoiseModel": "(spam_flip_probability)",
    "StateVector": "(n_qubits, amplitudes)",
    "exact_expectation": "(h, state)",
    "prepare_basis_state": "(bits)",
    "Geometry": "(atoms)",
    "build_h_chain": "(spacings)",
    "compute_integrals": "(geometry)",
    "hartree_fock": "(ints)",
    "reference_determinant": "(sector, n_electrons, n_spin_orbitals)",
    "second_quantized_hamiltonian": "(ints, scf)",
    "exact_spectrum": "(h, sector)",
    "exact_transitions": "(singlet_sector, triplet_sector)",
    "fcidump_read": "(path)",
    "fcidump_write": "(ints, path)",
    "PackedBatch": "(slots, register_width)",
    "group_qwc": "(strings)",
    "pack_batches": "(groups, slot_width, register)",
    "slot_expectations": "(outcomes, weights, slots)",
    "jordan_wigner": "(tables)",
    "mitigate": "(outcomes, weights, n_bits, noise)",
    "PowerCache": "(h)",
    "moments_for_state": "(h, state, K)",
    "unique_string_count": "(cache, max_power)",
    "PauliString": "(n_qubits, x, z)",
    "PauliSum": "(n_qubits, terms=None)",
    "PauliSum.identity": "(n_qubits)",
    "PauliSum.from_string": "(string)",
    "multiply_sums": "(a, b)",
    "build_system": "(moments, K)",
    "pds_energies": "(h, state, K)",
    "polynomial_roots": "(X)",
    "transition_energies": "(singlet, triplet)",
    "RunConfig": (
        "(spacings=None, geometry_path=None, fcidump_path=None, k_max=10, "
        "shots=8192, seed=7, spam_p=0.0, mode='exact', "
        "output_dir=PosixPath('pdsq-out'), apply_mitigation=True)"
    ),
    "build_problem": "(cfg)",
    "run_pipeline": "(cfg, problem=None)",
    "find_symmetries": "(h)",
    "sector_of": "(det, generators)",
    "taper_operator": "(h, td)",
    "taper_state": "(det, td)",
}

# Stored fields of the exported dataclasses and of the results that exported
# callables return; derived values (CountTable.shots,
# PdsResult.discarded_imaginary) are properties, not fields
FIELDS = {
    "CountTable": ("n_bits", "outcomes", "counts"),
    "NoiseModel": ("spam_flip_probability",),
    "StateVector": ("n_qubits", "amplitudes"),
    "Geometry": ("atoms",),
    "PackedBatch": ("slots", "register_width"),
    "PauliString": ("n_qubits", "x", "z"),
    "RunConfig": (
        "spacings", "geometry_path", "fcidump_path", "k_max", "shots", "seed",
        "spam_p", "mode", "output_dir", "apply_mitigation",
    ),
    "chem.IntegralSet": (
        "n_orbitals", "core_energy", "one_body", "two_body", "overlap", "n_electrons",
    ),
    "chem.ScfResult": ("coefficients", "orbital_energies", "scf_energy", "n_iterations"),
    "exact.SpectrumResult": ("eigenvalues",),
    "pds.PdsResult": ("roots", "imag_parts"),
}


def _resolve(path: str):
    return functools.reduce(getattr, path.split("."), pdsq)


def _parameters(fn) -> str:
    """The signature with its annotations dropped: names, kinds and defaults."""
    sig = inspect.signature(fn)
    return str(sig.replace(
        parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
        return_annotation=sig.empty,
    ))


def test_all_resolves_and_is_the_readme_list():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library use")[1].split("\n## ")[0]
    listed = {
        name for line in section.splitlines() if line.startswith(("- ", "  "))
        for name in re.findall(r"`(\w+)`", line)
    }
    assert sorted(pdsq.__all__) == sorted(listed)
    assert all(getattr(pdsq, name) is not None for name in pdsq.__all__)
    example = re.search(r"from pdsq import \(([^)]*)\)", section).group(1)
    assert {name.strip() for name in example.split(",")} <= listed


def test_exported_callables_take_the_pinned_parameters():
    assert set(pdsq.__all__) <= set(SIGNATURES)
    assert {name: _parameters(_resolve(name)) for name in SIGNATURES} == SIGNATURES


def test_result_dataclasses_store_the_pinned_fields():
    exported = {n for n in pdsq.__all__ if dataclasses.is_dataclass(getattr(pdsq, n))}
    assert exported <= set(FIELDS)
    assert {
        name: tuple(f.name for f in dataclasses.fields(_resolve(name))) for name in FIELDS
    } == FIELDS
