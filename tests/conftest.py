"""Shared fixtures: the linear H4 system is expensive enough to build once."""

from pathlib import Path

import pytest

from pdsq import chem, jw
from pdsq.backend import prepare_basis_state
from pdsq.pipeline import RunConfig, build_problem


@pytest.fixture(scope="session")
def h4_problem():
    """Full H4 (2 Angstrom spacings) problem with cached power ladders."""
    cfg = RunConfig(spacings=(2.0, 2.0, 2.0), output_dir=Path("/tmp/pdsq-fixture"))
    return build_problem(cfg)


@pytest.fixture(scope="session")
def h4(h4_problem):
    return h4_problem.hamiltonian


@pytest.fixture(scope="session")
def h4_references(h4_problem):
    """Each sector's reference determinant as a full-space (8-qubit) state:
    the pipeline itself holds only the tapered ones."""
    return {
        s: prepare_basis_state(ctx.determinant.bits) for s, ctx in h4_problem.sectors.items()
    }


@pytest.fixture(scope="session")
def h2_system():
    """Small fast system: H2 near equilibrium (4 qubits)."""
    geometry = chem.build_h_chain([0.7414])
    ints = chem.compute_integrals(geometry)
    scf = chem.hartree_fock(ints)
    tables = chem.second_quantized_hamiltonian(ints, scf)
    hamiltonian = jw.jordan_wigner(tables)
    det = chem.reference_determinant("singlet", 2, 4)
    return {
        "integrals": ints,
        "scf": scf,
        "tables": tables,
        "hamiltonian": hamiltonian,
        "determinant": det,
        "state": prepare_basis_state(det.bits),
    }
