"""Jordan-Wigner mapping against an occupation-basis fermion oracle."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsq import chem, fcidump, jw, pauli
from pdsq.backend import prepare_basis_state, exact_expectation
from pdsq.exact import exact_spectrum
from pdsq.pauli import PauliString, PauliSum

from oracles import (
    H4_SPACINGS,
    assert_same_bits,
    dense_string,
    jordan_wigner_reference,
    ladder_operator,
    product_reference,
    spin_orbital_tables_reference,
)


def dense_creation(p: int, n_modes: int) -> np.ndarray:
    """Oracle: matrix of a_p^dagger built from occupation bit patterns.

    Index bit k = occupation of mode k; the sign is the parity of occupied
    modes below p.
    """
    dim = 1 << n_modes
    out = np.zeros((dim, dim))
    for ket in range(dim):
        if (ket >> p) & 1:
            continue
        sign = (-1) ** ((ket & ((1 << p) - 1)).bit_count())
        out[ket | (1 << p), ket] = sign
    return out


def dense_terms(n_qubits: int, terms) -> np.ndarray:
    """Dense matrix of (x, z, coeff) arrays via the kron oracle."""
    return sum(
        c * dense_string(PauliString(n_qubits, x, z).label)
        for x, z, c in zip(*(a.tolist() for a in terms))
    )


def test_ladder_operators_match_occupation_oracle():
    for n in (1, 2, 4):
        for p in range(n):
            created = dense_terms(n, ladder_operator(p, n, dagger=True))
            expected = dense_creation(p, n)
            assert np.allclose(created, expected, atol=1e-12)
            annihilated = dense_terms(n, ladder_operator(p, n, dagger=False))
            assert np.allclose(annihilated, expected.T, atol=1e-12)


def test_ladder_operator_bounds():
    with pytest.raises(ValueError, match="mode"):
        ladder_operator(4, 4, dagger=True)


def test_number_operator_is_textbook():
    from pdsq.pauli import PauliString

    tables = chem.SpinOrbitalTables(1, 0.0, np.array([[1.0]]), np.zeros((1,) * 4))
    h = jw.jordan_wigner(tables)
    assert h.n_terms == 2
    assert h.coefficient(PauliString.from_label("I")) == pytest.approx(0.5)
    assert h.coefficient(PauliString.from_label("Z")) == pytest.approx(-0.5)


def test_h4_hamiltonian_is_hermitian_8_qubits(h4):
    assert h4.n_qubits == 8
    assert np.abs(h4.mask_arrays()[2].imag).max(initial=0.0) < 1e-12


def test_jw_matches_dense_fermionic_build(h2_system):
    """Full oracle: assemble the dense Hamiltonian from ladder-matrix products."""
    tables = h2_system["tables"]
    m = tables.n_spin_orbitals
    dim = 1 << m
    dense = tables.core_energy * np.eye(dim)
    create = [dense_creation(p, m) for p in range(m)]
    annihilate = [c.T for c in create]
    for p in range(m):
        for q in range(m):
            if abs(tables.one_body[p, q]) > 1e-14:
                dense += tables.one_body[p, q] * create[p] @ annihilate[q]
    for p in range(m):
        for q in range(m):
            for r in range(m):
                for s in range(m):
                    v = tables.two_body[p, q, r, s]
                    if abs(v) > 1e-14:
                        dense += 0.25 * v * create[p] @ create[q] @ annihilate[s] @ annihilate[r]
    assert np.allclose(h2_system["hamiltonian"].to_matrix(), dense, atol=1e-10)


def test_hamiltonian_commutes_with_number_and_sz(h4):
    n = h4.n_qubits
    half = n // 2
    number = PauliSum.zero(n)
    sz = PauliSum.zero(n)
    for k in range(n):
        x, z, c = product_reference(n, ladder_operator(k, n, True), ladder_operator(k, n, False))
        # a+_k a_k = (I - Z_k) / 2, real: its coefficients have zero imaginary parts
        nk = PauliSum(n, zip(zip(x.tolist(), z.tolist()), c.tolist()))
        number = number + nk
        sz = sz + (0.5 if k < half else -0.5) * nk
    hm = h4.to_matrix()
    for op in (number, sz):
        om = op.to_matrix()
        assert np.linalg.norm(hm @ om - om @ hm) < 1e-10


def test_h4_spectrum_reproduces_reference_energies(h4):
    spec_s = exact_spectrum(h4, (4, 0.0))
    spec_t = exact_spectrum(h4, (4, 1.0))
    assert spec_s.ground == pytest.approx(-1.897781, abs=2e-4)
    assert spec_t.ground == pytest.approx(-1.881876, abs=2e-4)


def test_reference_expectations_from_statevector(h4, h4_problem):
    det = chem.reference_determinant("singlet", 4, 8)
    e = exact_expectation(h4, prepare_basis_state(det.bits))
    assert e == pytest.approx(h4_problem.scf.scf_energy, abs=1e-8)


def assert_tables_match_the_loop(ints, scf):
    """Spin-orbital tables and their Hamiltonian, against the m^4 table loop
    and the per-entry Jordan-Wigner loop, byte for byte."""
    tables = chem.second_quantized_hamiltonian(ints, scf)
    mo = chem.mo_integrals(ints, scf)
    for mine, theirs in zip(
        (tables.one_body, tables.two_body),
        spin_orbital_tables_reference(mo.one_body, mo.two_body),
    ):
        assert mine.shape == theirs.shape and mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()
    assert_same_bits(jw.jordan_wigner(tables), jordan_wigner_reference(tables))


@pytest.mark.parametrize("spacings", [(0.7414,), *H4_SPACINGS])
def test_hamiltonian_matches_the_entry_loop_bit_for_bit(spacings):
    ints = chem.compute_integrals(chem.build_h_chain(list(spacings)))
    assert_tables_match_the_loop(ints, chem.hartree_fock(ints))


def test_fcidump_round_trip_matches_the_entry_loop_bit_for_bit(tmp_path):
    ints = chem.compute_integrals(chem.build_h_chain([2.0, 2.0, 2.0]))
    path = tmp_path / "h4.fcidump"
    fcidump.fcidump_write(chem.mo_integrals(ints, chem.hartree_fock(ints)), path)
    again = fcidump.fcidump_read(path)
    assert_tables_match_the_loop(again, chem.hartree_fock(again))


@st.composite
def spin_orbital_tables(draw):
    """Symmetric tables on 1-6 spin orbitals, mixing exact zeros (both
    signs), values at and just past +-_COEFF_CUTOFF, negative entries and
    normal draws, at several densities: one_body, and two_body as an m^2 x m^2
    matrix over (p, q) and (r, s), have each upper-triangle value copied
    below the diagonal."""
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.3, 1.0]))
    cut = jw._COEFF_CUTOFF
    special = np.array([
        0.0, -0.0, cut, -cut, np.nextafter(cut, 1.0), -np.nextafter(cut, 1.0),
        0.5 * cut, 1.0, -1.0, -0.25, 3.0,
    ])

    def table(shape):
        values = np.where(
            rng.random(shape) < 0.5, rng.choice(special, shape), rng.normal(size=shape)
        )
        values = np.where(rng.random(shape) < density, values, 0.0)
        square = values.reshape(m ** (len(shape) // 2), -1)
        return (np.triu(square) + np.triu(square, 1).T).reshape(shape)

    core = draw(st.sampled_from([0.0, -0.0, 0.7, -2.25]))
    return chem.SpinOrbitalTables(m, core, table((m, m)), table((m,) * 4))


@given(spin_orbital_tables(), st.sampled_from([1e-12, 0.0]))
@settings(max_examples=80, deadline=None)
def test_drawn_tables_match_the_entry_loop_bit_for_bit(tables, drop_tol):
    """The same sum, or, where a string with an odd number of Y letters
    keeps a round-off remainder above drop_tol (0.0), the same refusal."""
    with mock.patch.object(pauli, "DROP_TOL", drop_tol):
        try:
            want = jordan_wigner_reference(tables, drop_tol)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                jw.jordan_wigner(tables)
            assert drop_tol == 0.0 and str(got.value) == str(err)
            return
        assert_same_bits(jw.jordan_wigner(tables), want)


def test_tables_that_are_not_symmetric_are_refused():
    """h[0, 1] a+_0 a_1 with no h[1, 0] partner is not Hermitian: its
    imaginary strings X Y and Y X do not cancel, and the sum refuses them."""
    one = np.array([[0.0, -1.0], [0.0, 3.0]])
    tables = chem.SpinOrbitalTables(2, 0.0, one, np.zeros((2,) * 4))
    with pytest.raises(ValueError, match=r"^sum is not real symmetric: YX has an odd number "
                                         r"of Y letters and a coefficient of modulus 2\.500e-01$"):
        jw.jordan_wigner(tables)
    one[1, 0] = -1.0
    assert len(jw.jordan_wigner(tables)) == 4


def test_tables_past_32_modes_match_the_entry_loop_bit_for_bit():
    """33 modes: strings wider than a 32-bit half of a packed (z, x) key."""
    m = 33
    one = np.zeros((m, m))
    two = np.zeros((m,) * 4)
    one[32, 0] = one[0, 32] = -0.75
    one[32, 32] = 0.5
    one[5, 31] = one[31, 5] = 1e-3
    two[32, 1, 0, 32] = two[1, 32, 32, 0] = two[0, 32, 32, 1] = two[32, 0, 1, 32] = 0.3
    two[32, 1, 32, 0] = two[1, 32, 0, 32] = two[32, 0, 32, 1] = two[0, 32, 1, 32] = -0.3
    two[31, 32, 30, 29] = two[30, 29, 31, 32] = 0.125
    two[0, 31, 31, 0] = two[31, 0, 0, 31] = -2.0
    tables = chem.SpinOrbitalTables(m, -1.5, one, two)
    h = jw.jordan_wigner(tables)
    assert h.n_qubits == 33 and int(h.mask_arrays()[1].max()) >> 32
    assert_same_bits(h, jordan_wigner_reference(tables))


@pytest.mark.parametrize(
    "one_shape, two_shape",
    [((3, 3), (2,) * 4), ((2, 2), (3,) * 4), ((2, 3), (2,) * 4), ((2, 2), (2,) * 3)],
)
def test_table_shapes_are_checked(one_shape, two_shape):
    """An oversized table would put entries past mode m - 1 in the sum."""
    tables = chem.SpinOrbitalTables(2, 0.0, np.ones(one_shape), np.ones(two_shape))
    with pytest.raises(ValueError, match=r"\(2, 2\) .* \(2, 2, 2, 2\)"):
        jw.jordan_wigner(tables)
