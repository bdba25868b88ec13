"""Z2 symmetry detection, operator tapering, and state tapering."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pdsq import chem, jw, pauli, taper
from pdsq.backend import exact_expectation, prepare_basis_state
from pdsq.moments import unique_string_count
from pdsq.pauli import PauliString, PauliSum

from helpers import commutes, from_labels
from oracles import (
    H4_SPACINGS,
    assert_same_bits,
    gf2_rref_reference,
    restriction_reference,
    rotation_term_loop,
    symmetry_check_matrix_reference,
    taper_operator_reference,
    taper_operator_term_loop,
)


def test_single_term_hamiltonian_symmetries():
    h = from_labels(2, {"ZZ": 1.0})
    labels = {g.label for g in taper.find_symmetries(h)}
    assert "ZI" in labels and "IZ" in labels


@pytest.mark.parametrize("terms, labels", [
    ({"ZZ": 1.0}, ["ZI", "IZ"]),  # XX and YY commute with ZZ too
    ({"ZZ": 1.0, "XX": 0.5}, ["ZZ"]),  # XX is a symmetry of its own
    ({"IZ": 0.3, "II": 1.0}, ["ZI", "IZ"]),  # an idle qubit commutes with X
])
def test_only_z_type_generators_are_returned(terms, labels):
    """A sum whose symmetry group has non-Z members yields its Z-type
    subgroup's generators: only those have a sign on a determinant."""
    gens = taper.find_symmetries(from_labels(2, terms))
    assert [g.label for g in gens] == labels
    assert all(g.x == 0 for g in gens)


def test_no_symmetry_case():
    h = from_labels(1, {"X": 1.0, "Z": 0.3})
    assert taper.find_symmetries(h) == []


def test_generators_commute_with_every_term(h4):
    gens = taper.find_symmetries(h4)
    assert len(gens) == 3
    for g in gens:
        assert g.x == 0  # purely Z on this Hamiltonian
        for t, _ in h4.terms():
            assert commutes(g, t)


def test_generators_independent_over_gf2(h4):
    gens = taper.find_symmetries(h4)
    assert len(pauli._gf2_basis(g.z for g in gens)) == len(gens)


def test_sector_signs():
    gens = [PauliString.from_label("ZZII"), PauliString.from_label("IIZZ")]
    vacuum = chem.ReferenceDeterminant(4, (), 0.0)
    assert taper.sector_of(vacuum, gens) == (1, 1)
    det = chem.ReferenceDeterminant(4, (0, 2), 0.0)
    assert taper.sector_of(det, gens) == (-1, -1)
    with pytest.raises(ValueError, match="purely Z"):
        taper.sector_of(vacuum, [PauliString.from_label("XZII")])


def test_singlet_triplet_sectors_differ(h4):
    gens = taper.find_symmetries(h4)
    s = taper.sector_of(chem.reference_determinant("singlet", 4, 8), gens)
    t = taper.sector_of(chem.reference_determinant("triplet", 4, 8), gens)
    assert s != t


def test_tapered_operator_preserves_sector_ground(h4, h4_problem):
    ctx = h4_problem.sectors["singlet"]
    full = np.linalg.eigvalsh(h4.to_matrix())
    sub = np.linalg.eigvalsh(ctx.tapered_h.to_matrix())
    assert ctx.tapered_h.n_qubits == 5
    assert sub[0] == pytest.approx(full[0], abs=1e-10)


def test_tapered_spectrum_contained_in_full(h4, h4_problem):
    full = np.linalg.eigvalsh(h4.to_matrix())
    for sector in ("singlet", "triplet"):
        sub = np.linalg.eigvalsh(h4_problem.sectors[sector].tapered_h.to_matrix())
        for e in sub:
            assert np.min(np.abs(full - e)) < 1e-10


def test_tapered_term_count_bound(h4_problem):
    for sector in ("singlet", "triplet"):
        ht = h4_problem.sectors[sector].tapered_h
        n = ht.n_qubits
        assert ht.n_terms <= 2 ** (n - 1) * (2**n + 1)


def test_tapered_unique_string_tallies(h4_problem):
    ucs = unique_string_count(h4_problem.sectors["singlet"].tapered_cache, 19)
    uct = unique_string_count(h4_problem.sectors["triplet"].tapered_cache, 19)
    assert abs(ucs[-1] - 527) <= 0.05 * 527
    assert abs(uct[-1] - 379) <= 0.05 * 379


def test_taper_state_preserves_expectations(h4, h4_problem):
    for sector in ("singlet", "triplet"):
        ctx = h4_problem.sectors[sector]
        bits = taper.taper_state(ctx.determinant, ctx.tapering)
        assert len(bits) == 5
        full_e = exact_expectation(h4, prepare_basis_state(ctx.determinant.bits))
        tapered_e = exact_expectation(ctx.tapered_h, prepare_basis_state(bits))
        assert tapered_e == pytest.approx(full_e, abs=1e-10)


def test_taper_state_sector_mismatch_errors(h4_problem):
    ctx = h4_problem.sectors["singlet"]
    wrong = chem.reference_determinant("triplet", 4, 8)
    with pytest.raises(ValueError, match="does not match"):
        taper.taper_state(wrong, ctx.tapering)


def hand_built(h, generators, partners):
    """TaperingData of the given generators and partners, in the +1 sector."""
    return taper.TaperingData(
        tuple(generators), tuple(partners), (1,) * len(partners), h.n_qubits - len(partners)
    )


def test_taper_operator_rejects_foreign_generators(h4):
    bad = PauliString.from_label("XIIIIIII")
    with pytest.raises(ValueError, match="does not commute"):
        taper.taper_operator(h4, hand_built(h4, [bad], [0]))


def test_exclusive_partner_required():
    h = from_labels(2, {"ZZ": 1.0, "XX": 0.5})
    gen = PauliString.from_label("ZZ")
    with pytest.raises(ValueError, match="partner qubit 0 of generator ZZ is Z or Y in another"):
        taper.taper_operator(h, hand_built(h, [gen, gen], [0, 1]))


def test_all_zero_determinant_sector_is_trivial(h4):
    gens = taper.find_symmetries(h4)
    vacuum = chem.ReferenceDeterminant(8, (), 0.0)
    assert taper.sector_of(vacuum, gens) == (1, 1, 1)


@pytest.mark.parametrize("spacings", H4_SPACINGS)
def test_tapering_matches_the_term_loops_bit_for_bit(spacings):
    ints = chem.compute_integrals(chem.build_h_chain(list(spacings)))
    tables = chem.second_quantized_hamiltonian(ints, chem.hartree_fock(ints))
    h = jw.jordan_wigner(tables)
    basis = pauli._gf2_basis(h.mask_arrays()[0].tolist())
    expected = gf2_rref_reference(symmetry_check_matrix_reference(h))
    assert np.array_equal(gf2_rows(basis, h.n_qubits), expected)
    for sector in ("singlet", "triplet"):
        det = chem.reference_determinant(sector, 4, 8)
        td = taper.tapering_for_determinant(h, det)
        tapered = taper.taper_operator(h, td)
        assert_same_bits(tapered, taper_operator_term_loop(h, td))
        assert_within_clifford_round_off(tapered, h, td)


def assert_within_clifford_round_off(tapered, h, td):
    """`tapered` has the strings of the Clifford products' taper and its
    coefficients within their round-off.

    With s = fl(1/sqrt(2)) = (1 + d0)/sqrt(2), a rotation by (X_q + g) s
    gives each fixed term c P the two pair products fl(fl(s c) s), from
    X_q P X_q and g P g, and each moved term the same two products, from
    X_q P g and g P X_q; the other two products of a moved term cancel
    exactly, and no other term reaches its string (it would anticommute
    with g).  So each rotated coefficient is 2 fl(fl(s c) s) = c (1 + d0)^2
    (1 + d1)(1 + d2) with |d| <= u = 2^-53, and after k rotations it is
    c (1 + t), |t| <= gamma(4k) = 4k u / (1 - 4k u).  The restriction sums
    the m rotated terms c_j of a tapered string, in any order, within
    gamma(m - 1) sum_j |c_j| of its exact value on either side, so the two
    results differ by at most (gamma(4k) + (2 + gamma(4k)) gamma(m - 1))
    sum_j |c_j|.
    """
    x, z, _ = tapered.mask_arrays()
    xr, zr, cr = taper_operator_reference(h, td).mask_arrays()
    assert np.array_equal(x, xr) and np.array_equal(z, zr)

    def gamma(k):
        return k * 2.0**-53 / (1 - k * 2.0**-53)

    # sum_j |c_j| and m per tapered string: the restriction of the rotated
    # moduli, and of ones, with every sector sign +1
    rotated = rotation_term_loop(h, td)
    plus = taper.TaperingData(
        td.generators, td.paulix_partners, (1,) * len(td.sector_signs), td.n_remaining,
    )
    mass, count = (
        dict(restriction_reference(h.n_qubits, [(s, w(c)) for s, c in rotated], plus).terms())
        for w in (abs, lambda c: 1.0)
    )
    g4k = gamma(4 * len(td.generators))
    for (string, coeff), ref in zip(tapered.terms(), cr.tolist()):
        bound = (g4k + (2 + g4k) * gamma(count[string].real - 1)) * mass[string].real
        assert abs(coeff - ref) <= bound


def gf2_rows(basis, n_cols):
    """A _gf2_basis as uint8 rows sorted by pivot, qubit k in column k."""
    rows = [[v >> k & 1 for k in range(n_cols)] for _, v in sorted(basis.items())]
    return np.array(rows, dtype=np.uint8).reshape(-1, n_cols)


@given(st.integers(1, 12), st.integers(1, 16), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_gf2_rref_matches_the_row_loop(n_rows, n_cols, seed):
    rows = np.random.default_rng(seed).integers(0, 2, (n_rows, n_cols), dtype=np.uint8)
    masks = [sum(int(b) << k for k, b in enumerate(row)) for row in rows]
    assert np.array_equal(gf2_rows(pauli._gf2_basis(masks), n_cols), gf2_rref_reference(rows))


@st.composite
def z_symmetric_sums(draw):
    """A real symmetric sum on n qubits (n = 0 included) commuting with k
    random Z strings: its X masks meet each an even number of times; or
    the identity alone, or the zero sum."""
    n = draw(st.integers(0, 10))
    kind = draw(st.sampled_from(["symmetric", "identity", "zero"]))
    event(kind)
    if kind != "symmetric":
        return PauliSum.identity(n) if kind == "identity" else PauliSum.zero(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    symmetries = rng.integers(0, 1 << n, draw(st.integers(0, n))).tolist()
    xs = [x for x in range(1 << n) if all((x & s).bit_count() % 2 == 0 for s in symmetries)]
    terms = []
    for _ in range(draw(st.integers(1, 3 * n + 3))):
        x, z = int(rng.choice(xs)), int(rng.integers(1 << n))
        if (x & z).bit_count() % 2 == 0:
            terms.append(((x, z), rng.standard_normal()))
    return PauliSum(n, terms)


@given(z_symmetric_sums())
@settings(max_examples=200, deadline=None)
def test_z_symmetries_are_the_complement_of_the_x_span(h):
    """The generators are orthogonal to the span V of the X masks and
    complete it to the register (dim V + their count = n), and each one's
    pivot, its lowest qubit, is in no other generator."""
    gens = taper.find_symmetries(h)
    span = pauli._span(h.mask_arrays()[0])
    for g in gens:
        assert not (np.bitwise_count(span & np.uint64(g.z)) & 1).any()
    assert len(gens) + span.size.bit_length() - 1 == h.n_qubits
    for g in gens:
        pivot = g.z & -g.z
        assert all(not other.z & pivot for other in gens if other is not g)


@st.composite
def restrictions(draw):
    """A real symmetric sum and a sector on removed qubits, with no
    generators (so no rotation): X letters on removed qubits merge terms
    under sector signs, and Z/Y letters there, when drawn, must be rejected
    by name.  Drawn strings with an odd number of Y letters are left out."""
    n = draw(st.sampled_from([2, 5, 9, 33, 64]))
    removed = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n - 1, 4), unique=True))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(removed), max_size=len(removed)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kept = [q for q in range(n) if q not in removed]
    active = [int(q) for q in rng.choice(kept, size=min(len(kept), 3), replace=False)]
    z_on_removed = draw(st.sampled_from([0.0, 0.05]))

    def bits(qubits, p):
        return sum(1 << q for q in qubits if rng.random() < p)

    # a few kept-qubit strings, each extended by X (and rarely Z) letters on
    # removed qubits, so that several terms restrict to one string
    bases = [(bits(active, 0.5), bits(active, 0.5)) for _ in range(rng.integers(1, 6))]
    terms = []
    for _ in range(draw(st.integers(2, 40))):
        x, z = bases[rng.integers(len(bases))]
        x, z = x | bits(removed, 0.5), z | bits(removed, z_on_removed)
        coeff = rng.choice([rng.normal(), 0.5, -0.5, 1e-13])
        if (x & z).bit_count() % 2 == 0:
            terms.append(((x, z), coeff))
    td = taper.TaperingData((), tuple(removed), tuple(signs), n - len(removed))
    return PauliSum(n, terms), td


@given(restrictions())
@settings(max_examples=200, deadline=None)
def test_restriction_matches_the_term_loop_bit_for_bit(drawn):
    h, td = drawn
    try:
        expected = taper_operator_reference(h, td)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            taper.taper_operator(h, td)
        assert str(got.value) == str(err)
        event("Z/Y on a removed qubit")
        return
    event("terms merged" if len(expected) < len(h) else "no merge")
    assert_same_bits(taper.taper_operator(h, td), expected)


def test_first_anticommuting_term_is_named(h4):
    """The error names the first generator that fails, and its first
    anticommuting term in canonical order."""
    good = taper.find_symmetries(h4)[0]
    bad = PauliString.from_label("IIXIIIII")
    first = next(t for t, _ in h4.terms() if not commutes(bad, t))
    with pytest.raises(ValueError) as err:
        taper.taper_operator(h4, hand_built(h4, [good, bad], [0, 2]))
    assert str(err.value) == (
        f"generator {bad.label} does not commute with term {first.label}"
    )
    with pytest.raises(ValueError, match="qubit counts differ: 2 vs 8"):
        taper.taper_operator(h4, hand_built(h4, [PauliString.from_label("ZZ")], [0]))


@st.composite
def commuting_sums(draw):
    """A real symmetric sum and one to three generators it commutes with,
    each with an even number of Y letters, Z or (when drawn, and there is a
    qubit for a second Y) Y on its own partner qubit and I or X on the
    others'.  Letters sit on the partners and up to three other qubits, so
    the restriction merges up to 2^k terms into one string."""
    n = draw(st.sampled_from([2, 5, 9, 33, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = [int(q) for q in rng.choice(n, size=min(n, 5), replace=False)]
    partners = active[:draw(st.integers(1, min(n, 3)))]

    def letters(qubits):
        return sum(1 << q for q in qubits if rng.random() < 0.5)

    def even_y(string):
        return (string.x & string.z).bit_count() % 2 == 0

    generators = []
    unshared = [k for k in active if k not in partners]
    for q in partners:
        partner_y = bool(unshared) and draw(st.booleans())
        event("Y on a partner" if partner_y else "Z on a partner")
        while True:  # until it commutes with the generators drawn so far
            g = PauliString(
                n, letters(unshared) | letters(partners) & ~(1 << q) | partner_y << q,
                letters(unshared) | 1 << q,
            )
            if even_y(g) and all(commutes(g, other) for other in generators):
                generators.append(g)
                break
    terms = []
    for _ in range(draw(st.integers(2, 40)) << len(partners)):
        string = PauliString(n, letters(active), letters(active))
        if even_y(string) and all(commutes(string, g) for g in generators):
            terms.append((string, rng.choice([rng.normal(), 0.5, -0.5])))
    signs = tuple(draw(st.sampled_from([1, -1])) for _ in partners)
    event(f"{len(partners)} generators")
    return PauliSum(n, terms), taper.TaperingData(
        tuple(generators), tuple(partners), signs, n - len(partners)
    )


@given(commuting_sums())
@settings(max_examples=200, deadline=None)
def test_rotation_matches_the_term_loop_bit_for_bit(drawn):
    h, td = drawn
    tapered = taper.taper_operator(h, td)
    event("terms merged" if len(tapered) < len(h) else "no merge")
    assert_same_bits(tapered, taper_operator_term_loop(h, td))
    assert_within_clifford_round_off(tapered, h, td)


def test_taper_operator_checks_its_preconditions():
    """Hand-built TaperingData need not come from tapering_for_determinant,
    so taper_operator itself rejects a generator that does not commute with
    h, and a partner qubit where its generator acts as I or X or another
    generator as Z or Y (either would break the closed-form rotation)."""
    h = from_labels(3, {"ZZI": 1.0, "XXI": 0.5, "IIZ": 0.25})

    def tapering(labels, partners):
        gens = tuple(PauliString.from_label(g) for g in labels)
        return taper.TaperingData(gens, partners, (1,) * len(gens), 3 - len(gens))

    assert taper.taper_operator(h, tapering(["ZZI", "IIZ"], (0, 2))).n_qubits == 1
    with pytest.raises(ValueError, match="generator XII does not commute with term ZZI"):
        taper.taper_operator(h, tapering(["XII"], (0,)))
    with pytest.raises(ValueError, match="generator ZZI acts as I or X on its partner qubit 2"):
        taper.taper_operator(h, tapering(["ZZI"], (2,)))
    with pytest.raises(ValueError, match="generator XXI acts as I or X on its partner qubit 0"):
        taper.taper_operator(h, tapering(["XXI"], (0,)))
    with pytest.raises(ValueError, match="partner qubit 0 of generator ZZI is Z or Y in another"):
        taper.taper_operator(h, tapering(["ZZI", "ZZZ"], (0, 2)))
