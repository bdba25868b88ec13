"""Dense sector-filtered diagonalization and transition extraction."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pdsq.exact import (
    SpectrumResult,
    exact_spectrum,
    exact_transitions,
    lowest_spin_singlet_excitation,
    sector_basis_indices,
)
from pdsq.pauli import PauliSum
from pdsq.pipeline import RunConfig, build_problem
from pdsq.units import EV_PER_HARTREE

from helpers import from_labels
from oracles import sector_basis_reference


def test_single_qubit_z_spectrum():
    # Z on qubit 0 over the one-alpha-electron sector of 4 qubits: the
    # electron sits on qubit 0 (Z = -1) or on qubit 1 (Z = +1)
    z = from_labels(4, {"ZIII": 1.0})
    spec = exact_spectrum(z, (1, 0.5))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])


def test_sector_indices_blocked_convention():
    # 4 qubits: alpha = qubits 0,1; beta = qubits 2,3
    idx = sector_basis_indices(4, 2, 0.0)
    for i in idx:
        n_alpha = bin(i & 0b0011).count("1")
        n_beta = bin(i & 0b1100).count("1")
        assert n_alpha == 1 and n_beta == 1
    assert len(idx) == 4


@pytest.mark.parametrize("n_qubits", [8, 12])
@pytest.mark.parametrize("s_z", [0.0, 1.0])
def test_sector_indices_match_the_full_enumeration(n_qubits, s_z):
    """Every H4 and H6 sector: the indices built from the alpha and beta
    occupations are those of filtering all 2^n basis states."""
    for n_electrons in range(n_qubits + 1):
        got = sector_basis_indices(n_qubits, n_electrons, s_z)
        want = sector_basis_reference(n_qubits, n_electrons, s_z)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)


def test_sector_indices_need_no_2n_array():
    """28 qubits, two electrons: 196 indices, built in a child process under
    a 2 GB address-space limit, where one 2^28 uint64 array takes 2 GiB."""
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))\n"
        "import numpy as np\n"
        "from pdsq.exact import sector_basis_indices\n"
        "idx = sector_basis_indices(28, 2, 0.0)\n"
        "assert idx.dtype == np.uint64 and np.all(np.diff(idx) > 0)\n"
        "print(idx.size)\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "196\n"


def test_sector_minimum_matches_unfiltered_when_ground_in_sector(h4):
    full = np.linalg.eigvalsh(h4.to_matrix())
    singlet = exact_spectrum(h4, (4, 0.0))
    assert singlet.ground == pytest.approx(full[0], abs=1e-10)


def test_h4_reference_sector_energies(h4):
    assert exact_spectrum(h4, (4, 0.0)).ground == pytest.approx(-1.897781, abs=2e-4)
    assert exact_spectrum(h4, (4, 1.0)).ground == pytest.approx(-1.881876, abs=2e-4)


def test_h4_transitions(h4):
    spec_s = exact_spectrum(h4, (4, 0.0))
    spec_t = exact_spectrum(h4, (4, 1.0))
    s0_s1, s0_t0 = exact_transitions(spec_s, spec_t)
    assert s0_s1 == pytest.approx(1.122, abs=2e-3)
    assert s0_t0 == pytest.approx(0.433, abs=2e-3)


def test_triplet_levels_are_skipped_in_s1_search(h4):
    spec_s = exact_spectrum(h4, (4, 0.0))
    spec_t = exact_spectrum(h4, (4, 1.0))
    s1 = lowest_spin_singlet_excitation(spec_s, spec_t)
    # the two levels between S0 and S1 both appear in the s_z = 1 sector
    between = spec_s.eigenvalues[
        (spec_s.eigenvalues > spec_s.ground + 1e-9) & (spec_s.eigenvalues < s1 - 1e-9)
    ]
    assert len(between) >= 1
    for e in between:
        assert np.min(np.abs(spec_t.eigenvalues - e)) < 1e-9


def test_identical_spectra_zero_transitions():
    spec = SpectrumResult(np.array([-1.0, -0.5, 0.2]))
    with_partner = SpectrumResult(np.array([-1.0, -0.5, 0.2]))
    # every level has a partner: no spin singlet above ground
    with pytest.raises(ValueError, match="no spin-singlet"):
        exact_transitions(spec, with_partner)
    # once the S1 level is unmatched the transitions follow directly:
    # -0.5 has a partner in the s_z=1 sector, so S1 is the 0.2 level
    spec_s = SpectrumResult(np.array([-1.0, -0.5, 0.2]))
    spec_t = SpectrumResult(np.array([-0.5]))
    s0_s1, s0_t0 = exact_transitions(spec_s, spec_t)
    assert s0_s1 == pytest.approx(1.2 * EV_PER_HARTREE)
    assert s0_t0 == pytest.approx(0.5 * EV_PER_HARTREE)
    # equal sector grounds give a zero singlet-triplet gap
    spec_s = SpectrumResult(np.array([-1.0, 0.3]))
    spec_t = SpectrumResult(np.array([-1.0]))
    _, s0_t0 = exact_transitions(spec_s, spec_t)
    assert s0_t0 == pytest.approx(0.0)


def test_insufficient_levels_error():
    single = SpectrumResult(np.array([-1.0]))
    with pytest.raises(ValueError, match="two levels"):
        exact_transitions(single, single)


def test_dimension_guard():
    with pytest.raises(ValueError, match="empty sector"):
        exact_spectrum(from_labels(2, {"ZI": 1.0}), (5, 0.0))


def test_non_hermitian_rejected():
    """iZ is not real symmetric, so it cannot become a sum to diagonalise."""
    with pytest.raises(ValueError, match="complex coefficient 1j"):
        PauliSum(2, {(0, 1): 1j})  # iZ on qubit 0


def test_oracle_bounds_pds_roots(h4, h4_references):
    from pdsq.moments import moments_for_state
    from pdsq.pds import build_system, polynomial_roots

    ground = np.linalg.eigvalsh(h4.to_matrix())[0]
    table = moments_for_state(h4, h4_references["singlet"], 10)
    for K in (1, 3, 6, 10):
        res = polynomial_roots(build_system(table, K).X)
        assert res.roots[0] >= ground - 1e-8


def test_h6_reference_is_built_on_the_sector_block_alone():
    """H6 (12 qubits): each sector's 400- or 225-state block is assembled
    and diagonalised within 8 MiB, where the full 4096 x 4096 matrix takes
    256 MiB, and gives the bits of eigvalsh on the sliced full matrix."""
    h = build_problem(RunConfig(spacings=(2.0,) * 5)).hamiltonian
    full = h.to_matrix()
    for sector in ((6, 0.0), (6, 1.0)):
        tracemalloc.start()
        try:
            spec = exact_spectrum(h, sector)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20
        keep = sector_basis_indices(12, *sector)
        want = np.linalg.eigvalsh(full[np.ix_(keep, keep)])
        assert spec.eigenvalues.tobytes() == want.tobytes()
