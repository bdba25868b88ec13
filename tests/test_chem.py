"""Geometry, STO-3G integrals, RHF, and spin-orbital tables."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from pdsq import chem
from pdsq.backend import prepare_basis_state, exact_expectation
from pdsq.budget import MemoryBudgetError
from pdsq.units import BOHR_PER_ANGSTROM

from oracles import H4_SPACINGS, hartree_fock_reference, integrals_reference

# H2, the H4 chains, an uneven H6 and a non-collinear H4
ORACLE_GEOMETRIES = {
    "h2": chem.build_h_chain([0.7414]),
    **{f"h4-{'-'.join(map(str, s))}": chem.build_h_chain(list(s)) for s in H4_SPACINGS},
    "h6-uneven": chem.build_h_chain([0.8, 1.3, 2.1, 0.95, 1.7]),
    "h4-bent": chem.Geometry((
        ("H", (0.0, 0.0, 0.0)),
        ("H", (0.9, 0.1, 0.0)),
        ("H", (1.3, 1.1, 0.4)),
        ("H", (0.2, 1.7, -0.6)),
    )),
}


def test_h_chain_positions():
    g = chem.build_h_chain([2.0, 2.0, 2.0])
    assert len(g.atoms) == 4
    zs = [xyz[2] for _, xyz in g.atoms]
    assert zs == [0.0, 2.0, 4.0, 6.0]
    assert all(el == "H" for el, _ in g.atoms)


def test_h_chain_trivial_cases():
    assert len(chem.build_h_chain([]).atoms) == 1
    g = chem.build_h_chain([0.7414])
    assert len(g.atoms) == 2
    with pytest.raises(ValueError, match="spacing"):
        chem.build_h_chain([-1.0])
    with pytest.raises(ValueError, match="spacing"):
        chem.build_h_chain([0.0])


def test_xyz_round_trip():
    g = chem.build_h_chain([1.0, 2.0])
    text = "\n".join(f"{el} {x:.10f} {y:.10f} {z:.10f}" for el, (x, y, z) in g.atoms)
    again = chem.Geometry.from_xyz_lines(text)
    assert len(again.atoms) == 3
    assert np.allclose(again.coords_bohr(), g.coords_bohr())
    with pytest.raises(ValueError, match="line 1"):
        chem.Geometry.from_xyz_lines("H 0 0")
    with pytest.raises(ValueError, match="non-numeric"):
        chem.Geometry.from_xyz_lines("H 0 0 x")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_xyz_rejects_non_finite_coordinates(value):
    with pytest.raises(ValueError, match="line 2: non-finite coordinate"):
        chem.Geometry.from_xyz_lines(f"H 0 0 0\nH 0 0 {value}")


def test_core_energy_is_pairwise_coulomb_sum():
    g = chem.build_h_chain([2.0, 2.0, 2.0])
    # independent oracle: explicit sum over the six pairs
    coords = g.coords_bohr()
    expected = sum(
        1.0 / np.linalg.norm(coords[i] - coords[j])
        for i, j in itertools.combinations(range(4), 2)
    )
    ints = chem.compute_integrals(g)
    assert ints.core_energy == pytest.approx(expected, abs=1e-12)
    assert ints.core_energy == pytest.approx(1.1465507, abs=1e-6)


def test_unsupported_inputs():
    bad = chem.Geometry((("He", (0.0, 0.0, 0.0)),))
    with pytest.raises(ValueError, match="unsupported element"):
        chem.compute_integrals(bad)


@pytest.mark.parametrize("name", ORACLE_GEOMETRIES)
def test_integrals_and_scf_match_the_loop_engine_byte_for_byte(name):
    geometry = ORACLE_GEOMETRIES[name]
    ints, ref = chem.compute_integrals(geometry), integrals_reference(geometry)
    for field in ("overlap", "one_body", "two_body"):
        assert getattr(ints, field).tobytes() == getattr(ref, field).tobytes()
    assert ints.core_energy == ref.core_energy
    scf, scf_ref = chem.hartree_fock(ints), hartree_fock_reference(ref)
    assert scf.coefficients.tobytes() == scf_ref.coefficients.tobytes()
    assert scf.orbital_energies.tobytes() == scf_ref.orbital_energies.tobytes()
    assert scf.scf_energy == scf_ref.scf_energy
    assert scf.n_iterations == scf_ref.n_iterations


@pytest.mark.parametrize("name", ["h2", "h4-2.0-2.0-2.0", "h6-uneven"])
def test_mo_transform_keeps_the_searched_path_bits(name):
    """The MO integrals take the contraction order optimize=True searches,
    searched once per shape: the bits of a fresh search on every call."""
    ints = chem.compute_integrals(ORACLE_GEOMETRIES[name])
    scf = chem.hartree_fock(ints)
    c = scf.coefficients
    want = np.einsum("mnls,mp,nq,lr,st->pqrt", ints.two_body, c, c, c, c, optimize=True)
    for _ in range(2):
        mo = chem.mo_integrals(ints, scf)
        assert mo.two_body.tobytes() == want.tobytes()
        assert mo.one_body.tobytes() == (c.T @ ints.one_body @ c).tobytes()
    hits = chem._mo_transform_path.cache_info().hits
    chem.mo_integrals(ints, scf)
    assert chem._mo_transform_path.cache_info().hits == hits + 1


def test_integral_temporaries_stay_bounded():
    """A 16-atom chain has 136 shell pairs and 9316 canonical pair quartets:
    one broadcast over all quartets would take tens of MB, one bra pair at a
    time keeps it to a few."""
    chain = chem.build_h_chain([1.0] * 15)
    tracemalloc.start()
    try:
        ints = chem.compute_integrals(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ints.two_body.shape == (16,) * 4
    assert peak < 4_000_000


def test_integrals_past_the_budget_are_refused_before_the_pair_loop():
    """A 108-atom chain needs a 1.09 GB two-electron table: it is refused
    naming the bytes and the cap before any shell pair is formed."""
    chain = chem.build_h_chain([1.0] * 107)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError, match=(
            "the two-electron table of 108 orbitals: 1088391168 bytes exceed the cap "
            "MEMORY_BUDGET = 1073741824 bytes"
        )):
            chem.compute_integrals(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_h_atom_energy_matches_reference():
    # 1-orbital analytic HF: orbital energy of the single contracted function
    ints = chem.compute_integrals(chem.build_h_chain([]))
    e = ints.one_body[0, 0] / ints.overlap[0, 0]
    assert e == pytest.approx(-0.4666, abs=1e-3)


def test_h2_rhf_energy_matches_reference():
    r = 1.4 / BOHR_PER_ANGSTROM
    ints = chem.compute_integrals(chem.build_h_chain([r]))
    scf = chem.hartree_fock(ints)
    assert scf.scf_energy == pytest.approx(-1.1167, abs=2e-4)
    assert scf.orbital_energies.shape == (2,)
    assert scf.orbital_energies[0] < 0 < scf.orbital_energies[1]


def test_integral_tensor_symmetries():
    ints = chem.compute_integrals(chem.build_h_chain([1.0, 1.5]))
    two = ints.two_body
    assert np.allclose(ints.one_body, ints.one_body.T, atol=1e-10)
    assert np.allclose(ints.overlap, ints.overlap.T, atol=1e-10)
    for perm in (
        two.transpose(1, 0, 2, 3),
        two.transpose(0, 1, 3, 2),
        two.transpose(2, 3, 0, 1),
        two.transpose(3, 2, 1, 0),
    ):
        assert np.allclose(two, perm, atol=1e-10)


def test_scf_orbitals_orthonormal_and_variational(h4_problem):
    ints, scf = h4_problem.integrals, h4_problem.scf
    c = scf.coefficients
    assert np.max(np.abs(c.T @ ints.overlap @ c - np.eye(4))) < 1e-8
    exact_ground = np.linalg.eigvalsh(h4_problem.hamiltonian.to_matrix())[0]
    assert scf.scf_energy > exact_ground  # variational bound


def test_scf_rejects_odd_electron_counts():
    ints = chem.compute_integrals(chem.build_h_chain([1.0]))
    with pytest.raises(ValueError, match="even electron count"):
        chem.hartree_fock(dataclasses.replace(ints, n_electrons=3))


def test_scf_convergence_error(monkeypatch):
    # H4 needs ~19 iterations from the core guess; 2 cannot be enough
    ints = chem.compute_integrals(chem.build_h_chain([2.0, 2.0, 2.0]))
    monkeypatch.setattr(chem, "MAX_SCF_ITERATIONS", 2)
    with pytest.raises(chem.ScfConvergenceError, match="after 2 iterations"):
        chem.hartree_fock(ints)


def test_tables_reproduce_scf_energy(h4_problem):
    tables = chem.second_quantized_hamiltonian(h4_problem.integrals, h4_problem.scf)
    det = chem.reference_determinant("singlet", 4, 8)
    occ = list(det.occupied)
    energy = tables.core_energy + sum(tables.one_body[i, i] for i in occ)
    energy += 0.5 * sum(tables.two_body[i, j, i, j] for i in occ for j in occ)
    assert energy == pytest.approx(
        h4_problem.scf.scf_energy, abs=1e-8
    )


def test_table_permutation_symmetries(h2_system):
    two = h2_system["tables"].two_body
    assert np.allclose(two, -two.transpose(0, 1, 3, 2), atol=1e-10)
    assert np.allclose(two, -two.transpose(1, 0, 2, 3), atol=1e-10)
    assert np.allclose(two, two.transpose(2, 3, 0, 1), atol=1e-10)


def test_h2_spin_orbital_nonzero_count_matches_enumeration(h2_system):
    """Brute-force enumeration over spin patterns predicts which antisymmetrized
    elements can be nonzero; the table must vanish exactly off that set."""
    tables = h2_system["tables"]
    eri = np.einsum(
        "mnls,mp,nq,lr,st->pqrt",
        h2_system["integrals"].two_body,
        *(h2_system["scf"].coefficients,) * 4,
        optimize=True,
    )
    n = 2
    spin = [0, 0, 1, 1]
    spatial = [0, 1, 0, 1]
    mismatches = 0
    for p, q, r, s in itertools.product(range(4), repeat=4):
        v = 0.0
        if spin[p] == spin[r] and spin[q] == spin[s]:
            v += eri[spatial[p], spatial[r], spatial[q], spatial[s]]
        if spin[p] == spin[s] and spin[q] == spin[r]:
            v -= eri[spatial[p], spatial[s], spatial[q], spatial[r]]
        if abs(tables.two_body[p, q, r, s] - v) > 1e-10:
            mismatches += 1
    assert mismatches == 0


def test_reference_determinants():
    singlet = chem.reference_determinant("singlet", 4, 8)
    assert singlet.occupied == (0, 1, 4, 5)
    assert singlet.s_z == 0.0
    assert singlet.bits == "11001100"

    triplet = chem.reference_determinant("triplet", 4, 8)
    assert triplet.occupied == (0, 1, 2, 4)
    assert triplet.s_z == 1.0
    assert triplet.bits == "11101000"

    with pytest.raises(ValueError, match="exceeds"):
        chem.reference_determinant("singlet", 10, 8)
    with pytest.raises(ValueError, match="unknown sector"):
        chem.reference_determinant("quintet", 4, 8)


def test_triplet_reference_is_lowest_sz1_determinant(h4_problem):
    """Brute force over all 4-electron s_z=1 determinants by orbital-energy sum."""
    eps = h4_problem.scf.orbital_energies
    best = None
    for alpha in itertools.combinations(range(4), 3):
        for beta in itertools.combinations(range(4), 1):
            e = sum(eps[a] for a in alpha) + sum(eps[b] for b in beta)
            occ = tuple(sorted(alpha + tuple(4 + b for b in beta)))
            if best is None or e < best[0]:
                best = (e, occ)
    det = chem.reference_determinant("triplet", 4, 8)
    assert det.occupied == best[1]


def test_triplet_reference_energy_above_exact_t0(h4_problem):
    det = chem.reference_determinant("triplet", 4, 8)
    state = prepare_basis_state(det.bits)
    e_ref = exact_expectation(h4_problem.hamiltonian, state)
    assert e_ref >= -1.881876  # variational relation against the exact T0
