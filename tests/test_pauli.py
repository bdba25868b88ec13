"""Pauli string/sum algebra against dense Kronecker oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsq import pauli
from pdsq.budget import MemoryBudgetError
from pdsq.pauli import (
    PauliString,
    PauliSum,
    _distinct,
    _multiply_masks,
    _number_strings,
    multiply_sums,
)

from helpers import (
    allclose,
    commutes,
    commuting_sums,
    from_labels,
    multiply_strings,
    parse_sum,
    parse_term,
    qubit_wise_commutes,
    random_sum,
)
from oracles import (
    assert_same_bits,
    number_strings_reference,
    dense_string,
    gf2_rref_reference,
    multiply_sums_dense_reference,
    multiply_sums_reference,
    pauli_sum_reference,
    pauli_sum_to_dense,
)

LETTERS = "IXYZ"


# -- strings ----------------------------------------------------------------


def test_label_round_trip():
    s = PauliString.from_label("IXYZ")
    assert s.label == "IXYZ"
    assert s.label[0] == "I" and s.label[3] == "Z"
    assert (s.x | s.z).bit_count() == 3
    assert not s.is_identity
    assert PauliString.from_label("II").is_identity


def test_label_ignores_spaces():
    assert PauliString.from_label("II XZ").label == "IIXZ"


def test_bad_letter_rejected():
    with pytest.raises(ValueError, match="invalid Pauli letter"):
        PauliString.from_label("IXQ")


def test_single_qubit_products():
    X = PauliString.from_label("X")
    Z = PauliString.from_label("Z")
    s, phase = multiply_strings(X, Z)
    assert s.label == "Y" and phase == -1j
    s, phase = multiply_strings(X, X)
    assert s.label == "I" and phase == 1


def test_two_qubit_product_phases_multiply():
    a = PauliString.from_label("XZ")
    b = PauliString.from_label("ZX")
    s, phase = multiply_strings(a, b)
    assert s.label == "YY"
    # per-qubit phases: (X.Z -> -i) * (Z.X -> +i) = 1
    assert phase == 1


def test_mismatched_qubit_counts():
    with pytest.raises(ValueError, match="qubit counts differ"):
        multiply_strings(PauliString.from_label("X"), PauliString.from_label("XX"))
    with pytest.raises(ValueError, match="qubit counts differ"):
        commutes(PauliString.from_label("X"), PauliString.from_label("XX"))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_string_product_matches_dense_oracle(data):
    n = data.draw(st.integers(1, 4))
    la = data.draw(st.text(alphabet=LETTERS, min_size=n, max_size=n))
    lb = data.draw(st.text(alphabet=LETTERS, min_size=n, max_size=n))
    a, b = PauliString.from_label(la), PauliString.from_label(lb)
    s, phase = multiply_strings(a, b)
    expected = dense_string(la) @ dense_string(lb)
    assert np.allclose(phase * dense_string(s.label), expected, atol=1e-12)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_string_product_associative(data):
    n = data.draw(st.integers(1, 4))
    labels = [
        data.draw(st.text(alphabet=LETTERS, min_size=n, max_size=n)) for _ in range(3)
    ]
    a, b, c = (PauliString.from_label(s) for s in labels)
    ab, p_ab = multiply_strings(a, b)
    left, p_left = multiply_strings(ab, c)
    bc, p_bc = multiply_strings(b, c)
    right, p_right = multiply_strings(a, bc)
    assert left == right
    assert p_ab * p_left == pytest.approx(p_bc * p_right)


@pytest.mark.parametrize("n", [1, 5, 8, 33, 64])
def test_mask_products_match_the_string_products(n):
    """`_multiply_masks` on a column of strings times a row of strings gives
    multiply_strings' string and phase for every pair.  The strings include
    all-Y ones and others of weight near n, so at n = 64 the uint8 counts
    reach 256 and wrap."""
    rng = np.random.default_rng(n)

    def draw(k, p_identity):
        """k strings, each letter I with probability p_identity, else X, Y or Z."""
        p = [p_identity] + [(1 - p_identity) / 3] * 3
        return [
            PauliString.from_label("".join(rng.choice(list(LETTERS), size=n, p=p)))
            for _ in range(k)
        ]

    a = [PauliString.from_label("Y" * n), PauliString.identity(n), *draw(6, 0.02)]
    b = [PauliString.from_label("Y" * n), *draw(5, 0.5), *draw(3, 0.02)]

    def masks(strings):
        return (np.array([s.x for s in strings], dtype=np.uint64),
                np.array([s.z for s in strings], dtype=np.uint64))

    (xa, za), (xb, zb) = masks(a), masks(b)
    x, z, e = _multiply_masks(xa[:, None], za[:, None], xb, zb)
    assert x.shape == z.shape == e.shape == (len(a), len(b)) and e.dtype == np.uint8
    for i, sa in enumerate(a):
        for j, sb in enumerate(b):
            string, phase = multiply_strings(sa, sb)
            assert (int(x[i, j]), int(z[i, j])) == (string.x, string.z)
            assert (1, 1j, -1, -1j)[e[i, j]] == phase
    if n == 64:  # all-Y times all-Y: 64 + 64 - 0 + 2 * 64 = 256 = 0 (mod 256)
        assert e[0, 0] == 0 and x[0, 0] == z[0, 0] == 0


def test_commutation_textbook_pairs():
    XX, ZZ = PauliString.from_label("XX"), PauliString.from_label("ZZ")
    assert commutes(XX, ZZ)
    assert not qubit_wise_commutes(XX, ZZ)
    XI, XZ = PauliString.from_label("XI"), PauliString.from_label("XZ")
    assert qubit_wise_commutes(XI, XZ)


def test_commutation_exhaustive_two_qubits():
    labels = [a + b for a in LETTERS for b in LETTERS]
    for la in labels:
        for lb in labels:
            a, b = PauliString.from_label(la), PauliString.from_label(lb)
            ma, mb = dense_string(la), dense_string(lb)
            really_commutes = np.allclose(ma @ mb, mb @ ma, atol=1e-12)
            assert commutes(a, b) == really_commutes
            qwc = all(x == y or x == "I" or y == "I" for x, y in zip(la, lb))
            assert qubit_wise_commutes(a, b) == qwc
            if qubit_wise_commutes(a, b):
                assert commutes(a, b)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_qwc_implies_commutes(data):
    n = data.draw(st.integers(1, 6))
    la = data.draw(st.text(alphabet=LETTERS, min_size=n, max_size=n))
    lb = data.draw(st.text(alphabet=LETTERS, min_size=n, max_size=n))
    a, b = PauliString.from_label(la), PauliString.from_label(lb)
    if qubit_wise_commutes(a, b):
        assert commutes(a, b)


# -- sums ---------------------------------------------------------------------


def test_anticommuting_cross_terms_cancel():
    h = from_labels(1, {"X": 1.0, "Z": 1.0})
    sq = multiply_sums(h, h)
    assert sq.n_terms == 1
    assert sq.coefficient(PauliString.identity(1)) == pytest.approx(2.0)


def test_identity_is_multiplicative_unit():
    rng = np.random.default_rng(7)
    h = random_sum(rng, 3, 8)
    eye = PauliSum.identity(3)
    assert allclose(multiply_sums(h, eye), h)
    assert allclose(multiply_sums(eye, h), h)


def test_sum_product_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for trial in range(20):
        a, b = commuting_sums(rng, 3, 8 - trial % 4, 6)
        prod = multiply_sums(a, b)
        expected = pauli_sum_to_dense(a) @ pauli_sum_to_dense(b)
        assert np.allclose(pauli_sum_to_dense(prod), expected, atol=1e-12)


def test_hermitian_product_of_hermitian_square():
    """A random real symmetric sum and its square are float64 sums whose
    dense matrices are real symmetric."""
    rng = np.random.default_rng(3)
    h = random_sum(rng, 3, 12)
    for s in (h, multiply_sums(h, h)):
        assert s.mask_arrays()[2].dtype == np.float64
        dense = pauli_sum_to_dense(s)
        assert not dense.imag.any() and np.array_equal(dense, dense.T)


def test_complex_coefficients_and_odd_y_strings_are_refused():
    """Every sum is real symmetric: a complex coefficient or scalar, or a
    kept string with an odd number of Y letters, is refused where the sum
    would be built; a complex value with a zero imaginary part is real."""
    y = PauliString.from_label("YZ")
    with pytest.raises(ValueError, match=r"^complex coefficient 0\.5j on term masks \(3, 3\): "):
        PauliSum(2, {(3, 3): 0.5j})
    with pytest.raises(ValueError, match="complex coefficient"):
        from_labels(2, {"XZ": 1.0, "ZZ": complex(1.0, 1e-300)})
    with pytest.raises(ValueError, match=r"^sum is not real symmetric: YZ has an odd number of Y "
                                         r"letters and a coefficient of modulus 2\.500e-01$"):
        PauliSum(2, [(y, -0.25)])
    with pytest.raises(ValueError, match="complex coefficient 2j"):
        2j * from_labels(2, {"XX": 1.0})
    with pytest.raises(ValueError, match="complex coefficient"):
        from_labels(2, {"XX": 1.0}) * np.complex128(1.0 - 1.0j)
    # dropped below DROP_TOL, or cancelled, an odd string is never kept
    assert not PauliSum(2, [(y, 1e-13)]) and not PauliSum(2, [(y, 0.5), (y, -0.5)])
    assert list(PauliSum(2, {(3, 3): complex(2.0, -0.0)}).terms()) == [(PauliString(2, 3, 3), 2.0)]
    assert (complex(3.0, 0.0) * from_labels(2, {"XX": 1.0})).coefficient(
        PauliString.from_label("XX")) == 3.0


def test_sum_mismatched_qubits():
    with pytest.raises(ValueError, match="qubit counts differ"):
        multiply_sums(PauliSum.identity(2), PauliSum.identity(3))


def test_drop_tolerance_prunes(monkeypatch):
    h = from_labels(1, {"X": 1e-15, "Z": 1.0})
    assert h.n_terms == 1
    monkeypatch.setattr(pauli, "DROP_TOL", 0.0)
    h2 = PauliSum(1, {(1, 0): 1e-15, (0, 1): 1.0})
    assert h2.n_terms == 2


def duplicate_heavy_input(rng, n_qubits):
    """(x, z) keys, each with an even number of Y letters, and coefficients:
    60 draws over 6 strings of float, integer, NumPy and real complex
    values, then on 5 other strings a pair that cancels to exactly 0.0, a
    near-cancellation left at round-off and signed zeros.  Returns the terms
    and the two cancelling keys."""
    mask = (1 << n_qubits) - 1
    keys = {(0, 0)}
    while len(keys) < 11:
        x, z = (int.from_bytes(rng.bytes(8), "little") & mask for _ in "xz")
        if (x & z).bit_count() % 2 == 0:
            keys.add((x, z))
    pool = sorted(keys)
    terms = []
    for _ in range(60):
        re = rng.standard_normal()
        coeff = (complex(re, 0.0), float(re), int(10 * re), np.float64(re))
        terms.append((pool[rng.integers(6)], coeff[rng.integers(4)]))
    exact, near = pool[6], pool[7]
    terms += [(exact, 0.75), (pool[8], complex(-0.0, -0.0)), (exact, -0.75)]
    terms += [(near, 0.1), (near, 0.2), (near, -0.3), (pool[9], complex(2.0, -0.0))]
    terms.append((pool[10], -0.0))
    return terms, exact, near


@pytest.mark.parametrize("n_qubits", [3, 33, 64])
@pytest.mark.parametrize("drop_tol", [1e-12, 0.0])
def test_constructor_matches_the_dict_merge(n_qubits, drop_tol, monkeypatch):
    """Every constructor merges like a Python dict taking the terms in turn,
    byte for byte: duplicates summed in input order from 0.0, cancellations
    dropped."""
    monkeypatch.setattr(pauli, "DROP_TOL", drop_tol)
    rng = np.random.default_rng(n_qubits)
    terms, exact, near = duplicate_heavy_input(rng, n_qubits)
    strings = [(PauliString(n_qubits, x, z), c) for (x, z), c in terms]
    want = pauli_sum_reference(n_qubits, terms, drop_tol=drop_tol)
    kept = {(s.x, s.z) for s, _ in want.terms()}
    assert exact not in kept and (near in kept) == (drop_tol == 0.0)
    for given in (terms, strings, (t for t in terms)):
        assert_same_bits(PauliSum(n_qubits, given), want)
    as_dict = dict(terms)
    assert_same_bits(
        PauliSum(n_qubits, as_dict),
        pauli_sum_reference(n_qubits, as_dict, drop_tol=drop_tol),
    )
    labels = {s.label: c for s, c in strings}
    assert_same_bits(
        from_labels(n_qubits, labels),
        pauli_sum_reference(
            n_qubits, [(PauliString.from_label(k), c) for k, c in labels.items()], drop_tol
        ),
    )
    assert_same_bits(PauliSum.zero(n_qubits), pauli_sum_reference(n_qubits))
    assert_same_bits(0.5 * PauliSum.identity(n_qubits), pauli_sum_reference(n_qubits, {(0, 0): 0.5}))
    # coefficient finds every kept string and reads 0.0 for the rest
    got = PauliSum(n_qubits, terms)
    for string, c in want.terms():
        assert got.coefficient(string) == c
    present = {s for s, _ in want.terms()}
    for x, z in ((1, 0), (0, 1), (3, 1), (1 << n_qubits - 1, 1)):
        string = PauliString(n_qubits, x, z)
        assert got.coefficient(string) == (want.coefficient(string) if string in present else 0.0)
    identity = PauliString.identity(n_qubits)
    assert got.coefficient(identity) == dict(want.terms()).get(identity, 0.0)


def test_constructor_drops_by_numpy_abs(monkeypatch):
    """A merged string is dropped when np.abs(c) <= DROP_TOL, at that
    boundary as the dict merge drops it: a real c has one magnitude."""
    c = -float(np.random.default_rng(2).standard_normal())
    mag = float(np.abs(c))
    monkeypatch.setattr(pauli, "DROP_TOL", mag)
    assert not PauliSum(1, {(1, 0): c})
    assert not pauli_sum_reference(1, {(1, 0): c}, drop_tol=mag)
    monkeypatch.setattr(pauli, "DROP_TOL", np.nextafter(mag, 0.0))
    assert len(PauliSum(1, {(1, 0): c})) == 1
    assert len(pauli_sum_reference(1, {(1, 0): c}, drop_tol=np.nextafter(mag, 0.0))) == 1


def test_constructor_rejects_bad_masks_and_widths():
    for n_qubits, key in ((3, (8, 0)), (3, (0, 1 << 3)), (3, (-1, 0)), (64, (0, -1)),
                          (64, (1 << 64, 0))):
        with pytest.raises(ValueError, match="term masks exceed qubit count"):
            PauliSum(n_qubits, {key: 1.0})
    with pytest.raises(ValueError, match="at most 64 qubits"):
        PauliSum(65)
    with pytest.raises(ValueError, match="qubit counts differ"):
        PauliSum(3, [(PauliString.from_label("XX"), 1.0)])
    with pytest.raises(ValueError, match="qubit counts differ"):
        from_labels(3, {"XXX": 1.0, "XX": 1.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("-inf"))])
def test_constructor_rejects_non_finite_coefficients(bad):
    # NaN would otherwise be dropped silently (np.abs(nan) > tol is False)
    with pytest.raises(ValueError, match=r"non-finite coefficient .* on term masks \(1, 0\)"):
        PauliSum(1, {(0, 0): 1.0, (1, 0): bad})
    with pytest.raises(ValueError, match="non-finite coefficient"):
        from_labels(2, {"XZ": bad})


def test_mask_arrays_are_read_only():
    """A write into a sum's arrays raises and leaves the sum as it was, for
    constructed sums and for products."""
    a = from_labels(2, {"XZ": 0.5, "YY": 0.25, "ZI": 1.0})
    for ps in (PauliSum(1, {(1, 0): 2.0}), a, multiply_sums(a, a), a + a):
        string, coeff = next(iter(ps.terms()))
        x, z, c = ps.mask_arrays()
        with pytest.raises(ValueError, match="read-only"):
            c[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            x[0] ^= 1
        assert not (x.flags.writeable or z.flags.writeable or c.flags.writeable)
        assert ps.coefficient(string) == coeff


@pytest.mark.parametrize("n_qubits", [3, 33])
def test_arithmetic_matches_python_complex_bit_for_bit(n_qubits):
    """Scaling by real scalars of any type, + and - give the bits of Python
    complex arithmetic over terms(), merged by the dict reference."""
    rng = np.random.default_rng(50 + n_qubits)
    s = random_sum(rng, n_qubits, 40)
    s_pairs = list(s.terms())
    # t shares strings with s: some with new coefficients, some equal
    t = PauliSum(n_qubits, [(k, rng.standard_normal()) for k, _ in s_pairs[::3]])
    t = t + PauliSum(n_qubits, s_pairs[1::3]) + random_sum(rng, n_qubits, 20)
    for scalar in (2.5, np.float64(-0.3), -1.0, 3, complex(-2.0, -0.0)):
        want = pauli_sum_reference(n_qubits, [(k, c * scalar) for k, c in s_pairs])
        assert_same_bits(scalar * s, want)
        assert_same_bits(s * scalar, want)
    assert_same_bits(s + t, pauli_sum_reference(n_qubits, s_pairs + list(t.terms())))
    negated = [(k, c * -1.0) for k, c in t.terms()]
    assert_same_bits(s - t, pauli_sum_reference(n_qubits, s_pairs + negated))
    assert allclose(s - t + t, s, tol=1e-12)
    assert not allclose(s, t) and not allclose(s, PauliSum(n_qubits + 1))


def assert_same_sum(got, want):
    """Same strings in the same canonical order with bit-identical
    coefficients, and the same terms as plain float values."""
    for g, w in zip(got.mask_arrays(), want.mask_arrays()):
        assert g.dtype == w.dtype and np.array_equal(g, w)
        assert g.tobytes() == w.tobytes()
    assert list(got.terms()) == list(want.terms())


def l1_norm(s):
    return float(np.abs(s.mask_arrays()[2]).sum())


def assert_product_within_bound(got, a, b):
    """got has the strings of multiply_sums_reference(a, b), in canonical
    order, and each coefficient within a float64 bound of the reference's.

    The bound, to first order in u = 2^-53, with d = 2^n, gamma_k =
    k u / (1 - k u) and |s|_1 the sum of s's np.abs(c):
    - an entry of a's or b's dense matrix sums at most d of its terms, and
      each row or column of its absolute values sums to at most |s|_1, so
      each entry of the computed A B is within 3 gamma_d |a|_1 |b|_1;
    - a coefficient is 2^-n times a sum of d of those entries with signs
      +-1: another gamma_d |a|_1 |b|_1;
    - the reference adds at most min(|a|, |b|) rounded pair products into
      each string: gamma_{min(|a|, |b|) + 1} |a|_1 |b|_1.
    """
    want = multiply_sums_reference(a, b)
    for g, w in zip(got.mask_arrays()[:2], want.mask_arrays()[:2]):
        assert np.array_equal(g, w)
    u = 2.0**-53

    def gamma(k):
        return k * u / (1 - k * u)

    bound = (4 * gamma(1 << a.n_qubits) + gamma(min(len(a), len(b)) + 1)) * l1_norm(a) * l1_norm(b)
    assert np.all(np.abs(got.mask_arrays()[2] - want.mask_arrays()[2]) <= bound)


def assert_refused_before_allocating(a, b):
    """a*b is refused by the memory budget, within 1 MiB of traced memory,
    and b keeps no matrix."""
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError,
                           match=f"^a product on {a.n_qubits} qubits needs 6 dense "):
            multiply_sums(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert b._walsh is None


def test_power_ladders_match_the_uncached_product(h4_problem):
    """Each step H^n = H^{n-1} * H of the three H4 ladders has the strings of
    the reference product of the same operands, and coefficients within
    its bound."""
    caches = [h4_problem.cache] + [
        ctx.tapered_cache for ctx in h4_problem.sectors.values()
    ]
    for cache in caches:
        for n in range(2, 20):
            assert_product_within_bound(cache.power(n), cache.power(n - 1), cache.h)


def test_power_ladders_take_the_real_merge(h4_problem):
    """All 54 products of the three H4 ladders (H^2..H^19 of H and of each
    tapered H) give float64 sums of strings with an even number of Y
    letters, with the same bits from a fresh cache."""
    from pdsq.moments import PowerCache

    caches = [h4_problem.cache] + [
        ctx.tapered_cache for ctx in h4_problem.sectors.values()
    ]
    for cache in caches:
        fresh = PowerCache(_fresh_copy(cache.h))
        for n in range(1, 20):
            x, z, c = fresh.power(n).mask_arrays()
            assert c.dtype == np.float64 and not np.any(np.bitwise_count(x & z) & 1)
            assert_same_sum(fresh.power(n), cache.power(n))


def test_products_of_sums_that_do_not_commute_are_refused():
    """(X - Z)(X + Z) = XZ - ZX = -2iY is not real symmetric: the product
    refuses it by name, as the reference does, and so does a product of
    random real symmetric sums that do not commute."""
    h = from_labels(1, {"X": 1.0, "Z": 1.0})
    minus = from_labels(1, {"X": 1.0, "Z": -1.0})
    message = "sum is not real symmetric"
    with pytest.raises(ValueError, match=f"^{message}: Y has an odd number of Y letters and a "
                                         "coefficient of modulus 2.000e\\+00$"):
        multiply_sums(minus, h)
    with pytest.raises(ValueError, match=message):
        multiply_sums_reference(minus, h)
    rng = np.random.default_rng(41)
    a, b = random_sum(rng, 2, 12), random_sum(rng, 2, 9)
    for left, right in ((a, b), (b, a)):
        with pytest.raises(ValueError, match=message):
            multiply_sums(left, right)
        with pytest.raises(ValueError, match=message):
            multiply_sums_reference(left, right)
    # each commutes with itself; the matrices the refused products kept stay valid
    assert_product_within_bound(multiply_sums(a, a), a, a)
    assert_product_within_bound(multiply_sums(b, b), b, b)


def test_products_drop_relative_to_their_largest_term():
    """A product keeps np.abs(c) > DROP_TOL * max np.abs(c): (10^-8 Z)(Z +
    10^-5 I) keeps its 10^-13 Z term, which the constructors' absolute bound
    would drop, and (10^6 Z)(Z + 10^-15 I) drops its 10^-9 Z term, which
    that bound would keep."""
    for scale, weight, kept in ((1e-8, 1e-5, 2), (1e6, 1e-15, 1)):
        a = from_labels(1, {"Z": scale})
        b = from_labels(1, {"Z": 1.0, "I": weight})
        got = multiply_sums(a, b)
        assert len(got) == kept
        assert_product_within_bound(got, a, b)


@pytest.mark.parametrize("n", [1, 3, 5, 8, 32, 33, 64])
@pytest.mark.parametrize("wide", [False, True])
def test_number_strings_matches_unique_oracle(n, wide):
    """Both sides of the 4^n-input edge where a table replaces the sort, and
    empty input, on masks of the narrowest type of n bits and on uint64."""
    rng = np.random.default_rng(n)
    mask_type = np.uint64 if wide else np.min_scalar_type((1 << n) - 1)
    edge = 1 << 2 * n if n <= 8 else 300
    for size in (0, edge - 1, edge):
        # drawn from a pool of edge // 2 strings, so most repeat
        pool = rng.integers(0, 1 << n, (2, max(edge // 2, 1)), dtype=np.uint64)
        x, z = pool[:, rng.integers(0, pool.shape[1], size)].astype(mask_type)
        got = _number_strings(n, x, z)
        assert got[0].dtype == got[1].dtype == np.uint64
        for g, w in zip(got, number_strings_reference(x, z)):
            assert np.array_equal(g, w)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_distinct_matches_unique(data):
    """pauli._distinct against np.unique on uint8 to uint64 values below
    `size`: a table no larger than the input, the edge size == length
    included, and a sort past it, on empty input too.  The table counts in
    int32."""
    dtype = np.dtype(data.draw(st.sampled_from(["uint8", "uint16", "uint32", "uint64"])))
    length = data.draw(st.integers(0, 40))
    size = data.draw(st.one_of(
        st.just(length),
        st.integers(1, max(length, 1)),
        st.integers(length + 1, 1 << 8 * dtype.itemsize),
    ))
    values = np.array(
        data.draw(st.lists(st.integers(0, max(size - 1, 0)), min_size=length, max_size=length)),
        dtype=dtype,
    )
    got, inverse = _distinct(values, size)
    want, want_inverse = np.unique(values, return_inverse=True)
    assert np.array_equal(got, want) and np.array_equal(inverse, want_inverse)
    if size <= length:
        assert inverse.dtype == np.int32


def spread_out(rng, s):
    """s with each coefficient scaled by 10^-u, u uniform on [0, 8): some
    pair products then fall below the products' relative drop bound."""
    return PauliSum(s.n_qubits, [(k, c * 10.0 ** -rng.uniform(0, 8)) for k, c in s.terms()])


# 16 to 64 qubits are past the 12 a dense product's budget admits
@pytest.mark.parametrize("n_qubits", [1, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64])
@pytest.mark.parametrize("spread", [True, False])
def test_random_products_match_the_uncached_product(n_qubits, spread):
    """Commuting random real symmetric sums, with coefficients of one scale
    or spread over 8 decades; past 12 qubits each product is refused before
    allocating."""
    rng = np.random.default_rng(n_qubits + 100 * spread)
    a, b = commuting_sums(rng, n_qubits, min(40, 2**n_qubits), min(30, 2**n_qubits))
    if spread:
        a, b = spread_out(rng, a), spread_out(rng, b)
    if n_qubits > 12:
        assert_refused_before_allocating(a, b)
        assert_refused_before_allocating(b, b)
        return
    first = multiply_sums(a, b)
    assert_product_within_bound(first, a, b)
    assert_same_sum(multiply_sums(a, b), first)  # with b's matrix kept
    assert_product_within_bound(multiply_sums(b, b), b, b)
    if n_qubits > 8:
        return
    # operands of all 2^n strings of their commuting set, and of one string
    side = 2**n_qubits
    for n_a, n_b in ((side, side), (side, side - 1), (1, side)):
        a, b = commuting_sums(rng, n_qubits, n_a, n_b)
        if spread:
            a, b = spread_out(rng, a), spread_out(rng, b)
        assert a.n_terms * b.n_terms == n_a * n_b
        assert_product_within_bound(multiply_sums(a, b), a, b)


def test_cache_hit_recombines_new_coefficients():
    """b keeps its matrix blocks from its first product as the right
    operand; a later product with new left coefficients reuses them, and
    keeps or refuses its output strings by those coefficients."""
    rng = np.random.default_rng(17)
    a, b = commuting_sums(rng, 5, 30, 20)
    multiply_sums(a, b)
    entry = b._walsh
    x, z, _ = a.mask_arrays()
    a2 = PauliSum(5, zip(zip(x.tolist(), z.tolist()), rng.standard_normal(a.n_terms).tolist()))
    assert_product_within_bound(multiply_sums(a2, b), a2, b)
    assert b._walsh is entry

    # (X + Z)^2 = 2I + (XZ + ZX) = 2I, while (2X + Z)(X + Z) adds 2XZ + ZX =
    # -iY: a hit must keep and refuse output strings by the new coefficients
    h = from_labels(1, {"X": 1.0, "Z": 1.0})
    assert_same_sum(multiply_sums(h, h), 2.0 * PauliSum.identity(1))
    entry = h._walsh
    with pytest.raises(ValueError, match="not real symmetric: Y has an odd number of Y letters"):
        multiply_sums(from_labels(1, {"X": 2.0, "Z": 1.0}), h)
    assert h._walsh is entry


def test_cache_belongs_to_its_right_operand():
    """Each right operand keeps its own matrix blocks, here one block (the X
    masks span all 4 qubits), which is its Kronecker matrix; the left
    operand keeps nothing."""
    rng = np.random.default_rng(31)
    a, b1, b2 = commuting_sums(rng, 4, 12, 10, 10)
    assert {s for s, _ in b1.terms()} != {s for s, _ in b2.terms()}
    multiply_sums(a, b1)
    entry = b1._walsh
    assert a._walsh is None and b2._walsh is None
    assert_product_within_bound(multiply_sums(a, b2), a, b2)
    assert b1._walsh is entry and a._walsh is None
    assert b2._walsh[2] is not entry[2]
    for b in (b1, b2):
        assert b._walsh[2].shape == (1, 16, 16)
        assert np.allclose(b._walsh[2], pauli_sum_to_dense(b), rtol=0, atol=1e-14)


def full_span_sum(rng, n_qubits, n_terms):
    """random_sum plus an X on each qubit: its X masks span all n qubits."""
    xs = PauliSum(n_qubits, [((1 << k, 0), rng.standard_normal()) for k in range(n_qubits)])
    return random_sum(rng, n_qubits, n_terms) + xs


def test_full_span_products_match_the_dense_route_byte_for_byte(h4_problem):
    """Operands whose X masks span every qubit make one block, which goes
    through the dense route's gemm shapes: the H4 singlet and triplet
    ladders H^2..H^19 and random full-span products on 1 to 6 qubits have
    the dense route's bytes."""
    for ctx in h4_problem.sectors.values():
        cache = ctx.tapered_cache
        for n in range(2, 20):
            want = multiply_sums_dense_reference(cache.power(n - 1), cache.h)
            assert_same_sum(cache.power(n), want)
        assert cache.h._walsh[2].shape == (1, 32, 32)
    rng = np.random.default_rng(61)
    for n_qubits in range(1, 7):
        h = full_span_sum(rng, n_qubits, 3 * n_qubits)
        square = multiply_sums_reference(h, h)
        for a, b in ((h, h), (square, h), (h, square)):
            assert_same_sum(multiply_sums(a, b), multiply_sums_dense_reference(a, b))
            assert b._walsh[2].shape == (1, 2**n_qubits, 2**n_qubits)


def symmetric_sum(rng, n_qubits, generators, n_terms):
    """A random real symmetric sum of n_terms draws that commutes with each
    Z string Z^s, s in generators: its X masks x have |x & s| even."""
    xs = [x for x in range(1 << n_qubits) if all((x & s).bit_count() % 2 == 0 for s in generators)]
    terms = []
    while len(terms) < n_terms:
        x, z = int(rng.choice(xs)), int(rng.integers(1 << n_qubits))
        if (x & z).bit_count() % 2 == 0:
            terms.append(((x, z), rng.standard_normal()))
    return PauliSum(n_qubits, terms)


def independent_masks(rng, n_qubits, k):
    """k masks on n qubits that are independent over GF(2)."""
    while True:
        masks = rng.integers(1, 1 << n_qubits, k).tolist() if k else []
        bits = np.zeros((k, n_qubits), dtype=np.uint8)
        for row, m in enumerate(masks):
            bits[row] = [m >> q & 1 for q in range(n_qubits)]
        if len(gf2_rref_reference(bits)) == k:
            return masks


@pytest.mark.parametrize("n_qubits", [0, 1, 4, 9, 12])
def test_span_is_the_ascending_closure_of_its_masks(n_qubits):
    """_span is every XOR of a subset of the masks, ascending, and linear in
    its index: span[i ^ j] == span[i] ^ span[j]."""
    rng = np.random.default_rng(91 + n_qubits)
    for size in (0, 1, 3, n_qubits, 4 * n_qubits):
        x = rng.integers(0, 1 << n_qubits, size, dtype=np.uint64)
        closure = {0}
        for v in x.tolist():
            closure |= {u ^ v for u in closure}
        span = pauli._span(x)
        assert span.dtype == np.uint64 and span.tolist() == sorted(closure)
        i = np.arange(span.size)
        assert np.array_equal(span[i[:, None] ^ i], span[:, None] ^ span)


@pytest.mark.parametrize("n_qubits", range(10))
def test_products_with_z_symmetries_match_the_reference(n_qubits):
    """Sums commuting with k independent Z strings, k = 0..n, have X masks
    in a span of dimension at most n - k, so their products run over
    2^(n - m) blocks: down to diagonal sums (m = 0, 1 x 1 blocks) and the
    0-qubit sum."""
    rng = np.random.default_rng(71 + n_qubits)
    for k in range(n_qubits + 1):
        h = symmetric_sum(rng, n_qubits, independent_masks(rng, n_qubits, k), 4 + 2 * n_qubits)
        square = multiply_sums_reference(h, h)
        for a, b in ((h, h), (square, h), (h, square)):
            assert_product_within_bound(multiply_sums(a, b), a, b)
            span, _, blocks, _ = b._walsh
            assert span.size <= 2 ** (n_qubits - k)
            assert blocks.shape == (2**n_qubits // span.size, span.size, span.size)


def test_cached_right_operand_rebuilds_for_a_left_operand_outside_its_span():
    """b keeps the span of its first product's X masks; a later left
    operand whose X masks leave it makes b rebuild over the union of the
    two spans, and every product still matches the reference."""
    # b's X masks span {0, X0}; IXX and IYY commute with b, and their X
    # masks span {0, X1 X2}, which holds neither X0 nor b's span
    b = from_labels(3, {"XII": 1.0, "IZZ": 0.5})
    inside = from_labels(3, {"XII": 0.3, "III": 1.0})
    outside = from_labels(3, {"IXX": 0.7, "IYY": 0.2})
    assert_product_within_bound(multiply_sums(inside, b), inside, b)
    assert b._walsh[0].tolist() == [0, 0b001]
    assert_product_within_bound(multiply_sums(outside, b), outside, b)
    entry = b._walsh
    assert entry[0].tolist() == [0, 0b001, 0b110, 0b111]
    assert_product_within_bound(multiply_sums(inside, b), inside, b)
    assert b._walsh is entry

    rng = np.random.default_rng(81)
    for _ in range(5):
        a, b = commuting_sums(rng, 6, 40, 2)
        assert_product_within_bound(multiply_sums(b, b), b, b)
        before = set(b._walsh[0].tolist())
        assert not before >= set(a.mask_arrays()[0].tolist())
        assert_product_within_bound(multiply_sums(a, b), a, b)
        after = set(b._walsh[0].tolist())
        assert after > before and after >= set(a.mask_arrays()[0].tolist())


def _fresh_copy(h):
    return PauliSum(h.n_qubits, h.terms())


def test_saturated_ladder_step_keeps_a_small_cache(h4_problem):
    """H^5 * H on H4 (4224 x 185 terms, 8 qubits, X masks spanning 5): the
    right operand keeps its 8 blocks of 32 x 32 (64 KiB), the 256 x 256
    Hadamard of its width (512 KiB) and its span's index tables, and
    nothing else."""
    a = h4_problem.cache.power(5)
    h = _fresh_copy(h4_problem.hamiltonian)
    # the same product on another copy first, so that the interpreter's
    # free lists are full and keep nothing new while tracing
    multiply_sums(a, _fresh_copy(h))
    tracemalloc.start()
    try:
        out = multiply_sums(a, h)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    span, (coord, gather, signs), blocks, hadamard = h._walsh
    assert blocks.shape == (8, 32, 32) and blocks.nbytes == 64 << 10
    assert hadamard.shape == (256, 256) and hadamard.nbytes == 512 << 10
    # the span's 32 masks, the coordinate of each of the 256 X masks, one
    # index per block entry and one sign byte per (z, x in the span)
    assert [t.nbytes for t in (span, coord, gather, signs)] == [256, 2 << 10, 64 << 10, 8 << 10]
    arrays = sum(t.nbytes for t in (span, coord, gather, signs, blocks, hadamard))
    # those arrays, and two uint64 masks and a coefficient per output string
    assert kept <= arrays + 24 * len(out) + (16 << 10)


def test_cache_hit_peaks_below_the_uncached_product(h4_problem):
    a = h4_problem.cache.power(5)
    h = _fresh_copy(h4_problem.hamiltonian)
    multiply_sums(a, h)
    tracemalloc.start()
    try:
        multiply_sums(a, h)
        hit_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        multiply_sums_reference(a, h)
        reference_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit_peak < reference_peak


def test_to_matrix_agrees_with_kron_oracle():
    rng = np.random.default_rng(23)
    h = random_sum(rng, 4, 14)
    matrix = h.to_matrix()
    assert matrix.dtype == np.float64
    assert np.allclose(matrix, pauli_sum_to_dense(h), atol=1e-12)


def test_to_matrix_is_budgeted_before_its_basis_indices():
    """40 qubits: the 2^40 basis indices alone would take 8 TiB, so
    to_matrix refuses before building them, naming the dense block's bytes."""
    from pdsq.budget import MemoryBudgetError

    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError, match=r"^a dense 1099511627776 x 1099511627776 "
                                                    r"block on 40 qubits: \d+ bytes exceed"):
            PauliSum.identity(40).to_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("seed, block_elements", [(0, 1 << 14), (1, 1 << 14), (2, 40), (3, 7)])
def test_dense_block_is_the_sliced_matrix_bit_for_bit(monkeypatch, seed, block_elements):
    """The assembly on a subset of basis indices gives the bits of a loop
    that adds each term's entries in canonical order, however the terms fall
    into blocks, and so the full matrix's entries there; rows outside the
    subset go to the dropped spill row."""
    monkeypatch.setattr(pauli, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(seed)
    h = random_sum(rng, 5, 80)
    basis = np.sort(rng.choice(32, size=rng.integers(1, 33), replace=False)).astype(np.uint64)
    position = {b: k for k, b in enumerate(basis.tolist())}
    want = np.zeros((basis.size, basis.size))
    for s, c in h.terms():
        c = c * (-1.0) ** ((s.x & s.z).bit_count() // 2)
        for j, b in enumerate(basis.tolist()):
            if b ^ s.x in position:
                want[position[b ^ s.x], j] += c * (-1.0) ** (b & s.z).bit_count()
    block = pauli._dense_block(h, basis)
    assert block.tobytes() == want.tobytes()
    assert block.tobytes() == h.to_matrix()[np.ix_(basis, basis)].tobytes()


def test_canonical_order_is_stable():
    h = from_labels(2, {"XI": 1.0, "IZ": 2.0, "YY": 3.0})
    labels = [s.label for s, _ in h.terms()]
    assert labels == sorted(
        labels,
        key=lambda lab: (PauliString.from_label(lab).z, PauliString.from_label(lab).x),
    )


def test_scalar_and_additive_arithmetic():
    a = from_labels(2, {"XI": 1.0})
    b = from_labels(2, {"XI": 2.0, "ZZ": -1.0})
    s = a + b
    assert s.coefficient(PauliString.from_label("XI")) == pytest.approx(3.0)
    d = b - a
    assert d.coefficient(PauliString.from_label("XI")) == pytest.approx(1.0)
    scaled = 2.0 * a
    assert scaled.coefficient(PauliString.from_label("XI")) == pytest.approx(2.0)


# -- serialization ------------------------------------------------------------


def test_term_parse_round_trip():
    s, c = parse_term("-0.5 * IIXZ")
    assert s.label == "IIXZ" and c == pytest.approx(-0.5)
    s, c = parse_term("2.5e-3 * XY")
    assert s.label == "XY" and c == 2.5e-3


def test_term_parse_accepts_spaced_letters():
    s, _ = parse_term("1.0 * II XZ")
    assert s.label == "IIXZ"


def test_parse_errors():
    with pytest.raises(ValueError, match="coeff"):
        parse_term("IIXZ")
    with pytest.raises(ValueError, match="invalid coefficient"):
        parse_term("abc * II")
    with pytest.raises(ValueError, match="invalid coefficient"):
        parse_term("(1+2j) * XY")


def test_product_terms_are_plain_floats_and_round_trip():
    h = from_labels(2, {"XI": 1.0, "ZZ": 0.5, "YY": 0.25})
    sq = multiply_sums(h, h)
    x, z, c = sq.mask_arrays()
    assert [(s.x, s.z, v) for s, v in sq.terms()] == list(
        zip(x.tolist(), z.tolist(), c.tolist())
    )
    assert all(type(v) is float for _, v in sq.terms())
    assert sq.to_text().splitlines()[0] == "1.3125 * II"
    assert allclose(parse_sum(sq.to_text()), sq, tol=0.0)


def test_sum_text_round_trip():
    rng = np.random.default_rng(5)
    h = random_sum(rng, 3, 9)
    again = parse_sum(h.to_text())
    assert allclose(h, again, tol=0.0)
