"""Independent oracles shared across tests.

Operators are built by explicit Kronecker products of 2x2 letters, and sums
are plain loops or pair sums, deliberately avoiding the package's mask-based
and factorized fast paths.
"""

import math
from dataclasses import dataclass

import numpy as np

from pdsq.chem import (
    STO3G_H_COEFFS,
    STO3G_H_EXPONENTS,
    Geometry,
    IntegralSet,
    ScfConvergenceError,
    ScfResult,
    _boys0,
    nuclear_repulsion,
)
from pdsq.mitigation import _kernel

PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_string(label: str) -> np.ndarray:
    """Kronecker product of letters; qubit 0 is the leftmost letter.

    Basis-state index convention matches the package: bit k of the index is
    qubit k, so qubit 0 is the *fastest-varying* index bit and the single
    qubit matrices enter the Kronecker product in reversed label order.
    """
    out = np.eye(1, dtype=complex)
    for ch in reversed(label):
        out = np.kron(out, PAULI_2X2[ch])
    return out


def pauli_sum_to_dense(ps) -> np.ndarray:
    """Dense matrix of a PauliSum via the kron oracle (not ps.to_matrix)."""
    n = ps.n_qubits
    out = np.zeros((2**n, 2**n), dtype=complex)
    for string, coeff in ps.terms():
        out += coeff * dense_string(string.label)
    return out


def string_ledger(powers) -> tuple[list, list[int]]:
    """Distinct non-identity strings across the given Pauli sums (H^1..H^n),
    sorted on (z, x), and the cumulative count after each sum.

    A plain set of PauliString objects, with no mask arrays or sorting
    tricks: the reference the array ledger is checked against.
    """
    seen = set()
    counts = []
    for power in powers:
        seen.update(s for s, _ in power.terms() if not s.is_identity)
        counts.append(len(seen))
    return sorted(seen, key=lambda s: (s.z, s.x)), counts


def restricted_inverse(outcomes, weights, n_bits: int, p: float) -> np.ndarray:
    """Observed-support inverse of the tensored bit-flip channel as the plain
    pair sum over outcomes i, j: sum_j a^(n-d) b^d P_j with d the Hamming
    distance, then clipped at zero and renormalized.

    O(|B|^2) time and memory, with no factorization over qubits: the
    reference the two-product mitigation is checked against.
    """
    outcomes = np.asarray(outcomes, dtype=np.int64)
    probs = np.asarray(weights, dtype=float) / np.sum(weights)
    a = (p - 1.0) / (2.0 * p - 1.0)
    b = p / (2.0 * p - 1.0)
    d = np.bitwise_count(np.bitwise_xor.outer(outcomes, outcomes))
    mitigated = (a ** (n_bits - d) * b**d) @ probs
    clipped = np.clip(mitigated, 0.0, None)
    return clipped / clipped.sum()


def mitigate_by_sorted_halves(outcomes, weights, n_bits: int, p: float) -> np.ndarray:
    """`mitigation.mitigate` with the distinct high and low outcome halves
    and their inverses taken by np.unique: the steps whose output bytes the
    sort-free halves must keep (the kernels are the package's own)."""
    outcomes = np.asarray(outcomes, dtype=np.int64)
    probs = np.asarray(weights, dtype=float)
    probs = probs / probs.sum()
    a = (p - 1.0) / (2.0 * p - 1.0)
    b = p / (2.0 * p - 1.0)
    low = n_bits // 2
    u_hi, hi = np.unique(outcomes >> low, return_inverse=True)
    u_lo, lo = np.unique(outcomes & ((1 << low) - 1), return_inverse=True)
    v = np.zeros((u_hi.size, u_lo.size))
    v[hi, lo] = probs
    x = _kernel(u_hi, n_bits - low, a, b) @ v
    mitigated = (x @ _kernel(u_lo, low, a, b))[hi, lo]
    clipped = np.clip(mitigated, 0.0, None)
    return clipped / clipped.sum()


def slot_expectations_by_parity_matrix(outcomes, weights, slots) -> dict:
    """Member expectations of (group, offset) slots as the weighted mean,
    over every outcome, of (-1)^parity of its bits on the member's support
    shifted to the slot: one outcomes x members parity matrix per slot."""
    outcomes = np.asarray(outcomes, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    out = {}
    for group, offset in slots:
        supports = np.array([m.support for m in group.members], dtype=np.int64)
        parity = np.bitwise_count((outcomes[:, None] >> offset) & supports) & 1
        values = (weights @ (1.0 - 2.0 * parity)) / total
        out.update(zip(group.members, values.tolist()))
    return out


def moments_by_term_loop(cache, estimates: dict, k: int) -> np.ndarray:
    """<H^n> for n = 0..2k-1 as a Python loop over each power's terms, adding
    coefficient times estimate in canonical term order (identity: 1)."""
    values = np.empty(2 * k)
    for n in range(2 * k):
        total = 0.0
        for string, coeff in cache.power(n).terms():
            total += coeff * (1.0 if string.is_identity else estimates[string])
        values[n] = total
    return values


def flip_channel(probs, p: float) -> np.ndarray:
    """Exact forward push of a dense distribution over all 2^n outcomes
    through independent symmetric bit flips, one qubit at a time."""
    out = np.array(probs, dtype=float)
    if out.size == 0:
        raise ValueError("empty distribution")
    n_bits = out.size.bit_length() - 1
    if out.ndim != 1 or out.size != 1 << n_bits:
        raise ValueError("need one probability per outcome of n bits")
    for k in range(n_bits):
        pairs = out.reshape(-1, 2, 1 << k)  # axis 1 is bit k
        pairs[:] = (1.0 - p) * pairs + p * pairs[:, ::-1]
    return out


# Dense basis changes, by gate names and by rotation masks: the references
# that the closed-form sampler's distributions are checked against.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_BASIS_CHANGE = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
}


def _rotation_gates(rotation) -> list[list[str]]:
    """Per-qubit gate names: X -> H, Y -> SDG then H, Z/I -> none."""
    names = {"X": ["H"], "Y": ["SDG", "H"]}
    return [names.get(letter, []) for letter in rotation.label]


def basis_change_reference(amplitudes, rotation) -> np.ndarray:
    """Amplitudes rotated into the eigenbasis of a rotation PauliString, one
    2x2 gate at a time by tensordot along the qubit's axis."""
    gates = _rotation_gates(rotation)
    n = len(gates)
    amps = np.asarray(amplitudes, dtype=complex).reshape((2,) * n)
    for qubit, gate_names in enumerate(gates):
        axis = n - 1 - qubit  # C-order: qubit 0 is the fastest-varying bit
        for name in gate_names:
            mat = _BASIS_CHANGE[name]
            amps = np.moveaxis(
                np.tensordot(mat, np.moveaxis(amps, axis, 0), axes=([1], [0])), 0, axis
            )
    return amps.reshape(-1)


def rotate_to_eigenbases(amplitudes: np.ndarray, x, z) -> np.ndarray:
    """Row i of a (slots, 2**n) amplitude stack, rotated into the eigenbasis
    of the rotation masks (x[i], z[i]), as a new array: qubit by qubit,
    S-dagger on the rows with Y there, then the Hadamard on those with X or Y."""
    amps = np.array(amplitudes, dtype=complex)
    slots, dim = amps.shape
    x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
    for k in range(dim.bit_length() - 1):
        # axis 2 of the view is qubit k, since bit k of an index is qubit k
        pairs = amps.reshape(slots, dim >> (k + 1), 2, 1 << k)
        y_rows = np.flatnonzero((x & z) >> k & 1)
        pairs[y_rows, :, 1] *= -1j
        h_rows = np.flatnonzero(x >> k & 1)
        low, high = pairs[h_rows, :, 0], pairs[h_rows, :, 1]
        pairs[h_rows, :, 0] = (low + high) * _INV_SQRT2
        pairs[h_rows, :, 1] = (low - high) * _INV_SQRT2
    return amps


def packed_distribution_reference(state, batch) -> tuple[np.ndarray, np.ndarray]:
    """A packed execution's exact joint outcome distribution on its support,
    as increasing int64 outcomes and their probabilities: per slot, a copy
    of state rotated by basis_change_reference and squared, kept above
    1e-12, shifted to the slot's offset; the slots' product over the
    register."""
    outcomes, probs = np.zeros(1, dtype=np.int64), np.ones(1)
    for group, offset in batch.slots:
        slot = np.abs(basis_change_reference(state.amplitudes, group.rotation)) ** 2
        support = np.flatnonzero(slot > 1e-12)
        outcomes = np.add.outer(outcomes, support << offset).ravel()
        probs = np.multiply.outer(probs, slot[support]).ravel()
    order = np.argsort(outcomes)
    return outcomes[order], probs[order]


def product_reference(n_qubits: int, a, b):
    """The merged product of two sums given as (x, z, coeff) arrays, with no
    merge-structure cache and nothing dropped: every call computes all
    |a| * |b| complex phases, sorts the merge keys with np.unique and adds
    like strings with np.add.at, in row-major (a, b) pair order.  Returns
    the distinct output strings in canonical (z, x) order and their complex
    coefficients."""
    phases = np.array([1.0, 1.0j, -1.0, -1.0j])
    (xa, za, ca), (xb, zb, cb) = a, b
    x = (xa[:, None] ^ xb[None, :]).ravel()
    z = (za[:, None] ^ zb[None, :]).ravel()
    ya = np.bitwise_count(xa & za).astype(np.int64)
    yb = np.bitwise_count(xb & zb).astype(np.int64)
    anti = np.bitwise_count(za[:, None] & xb[None, :]).astype(np.int64)
    e = ((ya[:, None] + yb[None, :] + 2 * anti).ravel()
         - np.bitwise_count(x & z).astype(np.int64)) % 4
    coeffs = (ca[:, None] * cb[None, :]).ravel() * phases[e]
    if n_qubits <= 32:
        uniq, inverse = np.unique((z << np.uint64(32)) | x, return_inverse=True)
        ux, uz = uniq & np.uint64(0xFFFFFFFF), uniq >> np.uint64(32)
    else:
        uniq, inverse = np.unique(np.stack((z, x), axis=1), axis=0, return_inverse=True)
        ux, uz = uniq[:, 1].copy(), uniq[:, 0].copy()
    acc = np.zeros(len(ux), dtype=np.complex128)
    np.add.at(acc, inverse.ravel(), coeffs)
    return ux, uz, acc


def multiply_sums_reference(a, b, drop_tol: float = 1e-12):
    """Product of two PauliSums by `product_reference`: it keeps abs(c) >
    drop_tol * max abs(c), and a kept string with an odd number of Y
    letters (its coefficient over i) refuses the product.

    The reference the transform product is checked against, string for
    string and within a float64 bound on the coefficients.
    """
    from pdsq.pauli import PauliSum

    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    if not a or not b:
        return PauliSum.zero(a.n_qubits)
    x, z, c = product_reference(a.n_qubits, a.mask_arrays(), b.mask_arrays())
    kept = np.abs(c) > drop_tol * np.abs(c).max()
    c = np.where(np.bitwise_count(x & z) % 2 == 1, c.imag, c.real)
    return PauliSum._from_canonical(a.n_qubits, x[kept], z[kept], c[kept])


def number_strings_reference(x, z):
    """The distinct (x, z) mask pairs in canonical (z, x) order and each
    input's index among them, by np.unique over stacked rows: the reference
    pauli._number_strings is checked against."""
    uniq, inverse = np.unique(np.stack((z, x), axis=1), axis=0, return_inverse=True)
    return uniq[:, 1], uniq[:, 0], inverse.ravel()


def pauli_sum_reference(n_qubits: int, terms=None, drop_tol: float = 1e-12):
    """A PauliSum merged in a Python dict: each (x, z) key's coefficients
    added one after another as Python complex from 0.0, keys with
    abs(c) <= drop_tol (Python's abs) dropped, the rest sorted on (z, x).
    A kept coefficient must be real on a string with an even number of Y
    letters; one on a string with an odd number is refused by name, with
    its coefficient over i.

    The reference the array constructor is checked against byte for byte.
    """
    from pdsq.pauli import PauliString, PauliSum, _check_qubits

    if n_qubits > 64:
        raise ValueError("PauliSum supports at most 64 qubits")
    mask = (1 << n_qubits) - 1
    merged: dict[tuple[int, int], complex] = {}
    if terms:
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            if isinstance(key, PauliString):
                _check_qubits(key.n_qubits, n_qubits)
                key = (key.x, key.z)
            xm, zm = key
            if xm & ~mask or zm & ~mask:
                raise ValueError("term masks exceed qubit count")
            c = merged.get((xm, zm), 0.0) + complex(coeff)
            merged[(xm, zm)] = c
    kept = {k: c for k, c in merged.items() if abs(c) > drop_tol}
    keys = sorted(kept, key=lambda k: (k[1], k[0]))
    x = np.array([k[0] for k in keys], dtype=np.uint64)
    z = np.array([k[1] for k in keys], dtype=np.uint64)
    c = np.array([kept[k] for k in keys], dtype=np.complex128)
    odd = np.bitwise_count(x & z) % 2 == 1
    if np.any(c.imag[~odd]):
        raise ValueError("complex coefficient: a PauliSum is real symmetric")
    return PauliSum._from_canonical(n_qubits, x, z, np.where(odd, c.imag, c.real))


def group_qwc_reference(strings):
    """QWC groups by per-string greedy first-fit: strings sorted on
    (-weight, z, x), each joining the first group whose running rotation it
    fits, else opening a new group.

    Plain Python ints and loops, with no mask arrays: the reference the
    peeled grouping is checked against member for member.
    """
    from pdsq.grouping import QwcGroup
    from pdsq.pauli import PauliString

    pauli_list = list(strings)
    if not pauli_list:
        return []
    n = pauli_list[0].n_qubits
    for s in pauli_list:
        if s.n_qubits != n:
            raise ValueError("strings must share one qubit count")
        if s.is_identity:
            raise ValueError("the identity string is never measured; exclude it")
    ordered = sorted(pauli_list, key=lambda s: (-(s.x | s.z).bit_count(), s.z, s.x))

    rotations: list[tuple[int, int]] = []  # running (x, z) masks per group
    members: list[list[PauliString]] = []
    for s in ordered:
        for gi, (rx, rz) in enumerate(rotations):
            shared = (rx | rz) & (s.x | s.z)
            if (rx ^ s.x) & shared == 0 and (rz ^ s.z) & shared == 0:
                members[gi].append(s)
                rotations[gi] = (rx | s.x, rz | s.z)
                break
        else:
            members.append([s])
            rotations.append((s.x, s.z))

    return [
        QwcGroup(tuple(group), PauliString(n, rx, rz))
        for group, (rx, rz) in zip(members, rotations)
    ]


def apply_pauli_sum_reference(h, state) -> np.ndarray:
    """Amplitudes of h|state> as a Python loop over h's terms in canonical
    order: fold i^{|x & z|} = (-1)^{|x & z| / 2} into the coefficient,
    multiply by the signs (-1)^{|j & z|} and the amplitudes, and add the
    rows j ^ x into the result one term at a time.

    The reference the one-pass matvec is checked against byte for byte.
    """
    amps = state.amplitudes
    if 1 << h.n_qubits != amps.size:
        raise ValueError("operator and state dimensions differ")
    idx = np.arange(amps.size, dtype=np.uint64)
    out = np.zeros_like(amps)
    for string, coeff in h.terms():
        phase_coeff = coeff * (-1.0) ** ((string.x & string.z).bit_count() // 2)
        signs = 1.0 - 2.0 * (
            np.bitwise_count(idx & np.uint64(string.z)).astype(np.int64) & 1
        )
        vals = phase_coeff * signs * amps
        if string.x:
            out += vals[idx ^ np.uint64(string.x)]
        else:
            out += vals
    return out


# H4 chains the set-up oracles are checked on: the benchmark's spacings, a
# near-equilibrium chain and an uneven one (361 Jordan-Wigner terms, not 185)
H4_SPACINGS = [(2.0, 2.0, 2.0), (1.4, 1.6, 1.4), (0.9, 2.5, 1.1)]


def assert_same_bits(a, b) -> None:
    """Two PauliSums have byte-identical canonical (x, z, coeff) arrays."""
    assert a.n_qubits == b.n_qubits
    for mine, theirs in zip(a.mask_arrays(), b.mask_arrays()):
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()


def spin_orbital_tables_reference(h_mo, eri_mo):
    """One-body and antisymmetrized two-body spin-orbital tables from MO
    integrals (chemists' (pq|rs)) by an m^4 Python loop over spin orbitals.

    The reference the array build of `chem.second_quantized_hamiltonian` is
    checked against element for element.
    """
    n = h_mo.shape[0]
    m = 2 * n
    spin = [0] * n + [1] * n
    spatial = list(range(n)) * 2
    one = np.zeros((m, m))
    for pp in range(m):
        for qq in range(m):
            if spin[pp] == spin[qq]:
                one[pp, qq] = h_mo[spatial[pp], spatial[qq]]

    # <PQ||RS> = <PQ|RS> - <PQ|SR> with <PQ|RS> = (pr|qs) on matching spins
    two = np.zeros((m, m, m, m))
    for p in range(m):
        for q in range(m):
            for r in range(m):
                for s in range(m):
                    v = 0.0
                    if spin[p] == spin[r] and spin[q] == spin[s]:
                        v += eri_mo[spatial[p], spatial[r], spatial[q], spatial[s]]
                    if spin[p] == spin[s] and spin[q] == spin[r]:
                        v -= eri_mo[spatial[p], spatial[s], spatial[q], spatial[r]]
                    two[p, q, r, s] = v
    return one, two


def ladder_operator(index: int, n_modes: int, dagger: bool):
    """a_index (or its dagger) as two (x, z, complex coeff) terms on n_modes
    qubits: X_k Z_{<k} / 2 and Y_k Z_{<k} (-+i/2) for k = index."""
    if not 0 <= index < n_modes:
        raise ValueError(f"mode {index} outside 0..{n_modes - 1}")
    tail = (1 << index) - 1
    bit = 1 << index
    y_coeff = -0.5j if dagger else 0.5j
    return (np.array([bit, bit], dtype=np.uint64), np.array([tail, tail | bit], dtype=np.uint64),
            np.array([0.5, y_coeff]))


def jordan_wigner_reference(tables, drop_tol: float = 1e-12):
    """Qubit Hamiltonian of spin-orbital tables, one table entry at a time:
    each a+_p a_q or a+_p a+_q a_s a_r is a `product_reference` of ladder
    operators (exact zeros dropped), scaled and added into a dict in (p, q)
    then (p, q, r, s) row-major order, starting from the core energy.

    The reference the one-pass expansion is checked against byte for byte.
    """
    from pdsq.jw import _COEFF_CUTOFF

    m = tables.n_spin_orbitals
    create = [ladder_operator(p, m, dagger=True) for p in range(m)]
    annihilate = [ladder_operator(p, m, dagger=False) for p in range(m)]

    accum: dict[tuple[int, int], complex] = {(0, 0): complex(tables.core_energy)}

    def add(op, scale: complex) -> None:
        scale = complex(scale)  # a NumPy scalar times a Python complex is slow
        for key, coeff in zip(zip(*(a.tolist() for a in op[:2])), op[2].tolist()):
            accum[key] = accum.get(key, 0.0) + scale * coeff

    def product(a, b):
        x, z, c = product_reference(m, a, b)
        nonzero = c != 0
        return x[nonzero], z[nonzero], c[nonzero]

    def cached_product(cache, ops, i, j):
        if (i, j) not in cache:
            cache[(i, j)] = product(ops[i], ops[j])
        return cache[(i, j)]

    cc_cache: dict[tuple[int, int], tuple] = {}
    aa_cache: dict[tuple[int, int], tuple] = {}

    one = tables.one_body
    for p in range(m):
        for q in range(m):
            if abs(one[p, q]) > _COEFF_CUTOFF:
                add(product(create[p], annihilate[q]), one[p, q])

    two = tables.two_body
    for p in range(m):
        for q in range(m):
            if p == q:
                continue
            cc = cached_product(cc_cache, create, p, q)
            for r in range(m):
                for s in range(m):
                    if r == s:
                        continue
                    v = two[p, q, r, s]
                    if abs(v) <= _COEFF_CUTOFF:
                        continue
                    # a+_p a+_q a_s a_r, weighted by <pq||rs>/4
                    aa = cached_product(aa_cache, annihilate, s, r)
                    add(product(cc, aa), 0.25 * v)

    return pauli_sum_reference(m, accum, drop_tol=drop_tol)


def _mask_to_bits(mask: int, n: int) -> np.ndarray:
    return np.array([(mask >> k) & 1 for k in range(n)], dtype=np.uint8)


def sector_basis_reference(n_qubits: int, n_electrons: int, s_z: float) -> np.ndarray:
    """Sector indices by filtering all 2^n basis states on their alpha
    (low half) and beta (high half) occupations."""
    half = n_qubits // 2
    idx = np.arange(1 << n_qubits, dtype=np.uint64)
    n_alpha = np.bitwise_count(idx & np.uint64((1 << half) - 1)).astype(int)
    n_beta = np.bitwise_count(idx >> np.uint64(half)).astype(int)
    keep = (n_alpha + n_beta == n_electrons) & (n_alpha - n_beta == round(2 * s_z))
    return idx[keep]


def symmetry_check_matrix_reference(h) -> np.ndarray:
    """The symplectic check matrix of h, one Python row per term in
    canonical order: the term's z bits, then its x bits.

    The reference `taper.find_symmetries`' array build is checked against.
    """
    n = h.n_qubits
    strings = [s for s, _ in h.terms()]
    check = np.zeros((len(strings), 2 * n), dtype=np.uint8)
    for row, s in enumerate(strings):
        check[row, :n] = _mask_to_bits(s.z, n)  # multiplies candidate x-part
        check[row, n:] = _mask_to_bits(s.x, n)  # multiplies candidate z-part
    return check


def gf2_rref_reference(rows: np.ndarray) -> np.ndarray:
    """Reduced row-echelon form over GF(2), XORing the pivot row into one
    hit row at a time; zero rows dropped."""
    m = rows.copy().astype(np.uint8) & 1
    n_rows, n_cols = m.shape
    pivot_row = 0
    for col in range(n_cols):
        hits = np.nonzero(m[pivot_row:, col])[0]
        if hits.size == 0:
            continue
        swap = pivot_row + hits[0]
        m[[pivot_row, swap]] = m[[swap, pivot_row]]
        others = np.nonzero(m[:, col])[0]
        for r in others:
            if r != pivot_row:
                m[r] ^= m[pivot_row]
        pivot_row += 1
        if pivot_row == n_rows:
            break
    keep = m.any(axis=1)
    return m[keep]


def _compact_mask(mask: int, remaining: list[int]) -> int:
    out = 0
    for new, old in enumerate(remaining):
        if (mask >> old) & 1:
            out |= 1 << new
    return out


def taper_operator_reference(h, td):
    """h restricted to td's sector: the Clifford rotations U = (X_q + g)/sqrt(2)
    as `product_reference` products, (U h) U per generator with 1/sqrt(2)
    rounded and each product's abs(c) <= 1e-12 dropped, then
    `restriction_reference` of the rotated terms in canonical order.

    The reference the closed-form rotation is checked against up to the
    round-off of those products.
    """
    from math import sqrt

    from pdsq.pauli import PauliString

    n = h.n_qubits

    def product(a, b):
        x, z, c = product_reference(n, a, b)
        kept = np.abs(c) > 1e-12
        return x[kept], z[kept], c[kept]

    rotated = h.mask_arrays()
    inv_sqrt2 = 1.0 / sqrt(2.0)
    for g, q in zip(td.generators, td.paulix_partners):
        u = (np.array([1 << q, g.x], np.uint64), np.array([0, g.z], np.uint64),
             np.full(2, inv_sqrt2))
        rotated = product(product(u, rotated), u)
    x, z, c = rotated
    if np.abs(c.imag).max(initial=0.0) > 1e-9:
        raise ValueError("tapering rotation broke Hermiticity; incompatible data")
    terms = [(PauliString(n, xm, zm), cm) for xm, zm, cm in zip(x.tolist(), z.tolist(), c.tolist())]
    return restriction_reference(n, terms, td)


def rotation_term_loop(h, td):
    """h's terms in canonical order, each rotated one generator at a time: a
    term c P with Z or Y on the partner q of g becomes the string of
    multiply_strings(multiply_strings(X_q, P), g), with c times both phases."""
    from pdsq.pauli import PauliString

    from helpers import multiply_strings

    terms = list(h.terms())
    for g, q in zip(td.generators, td.paulix_partners):
        x_q = PauliString(h.n_qubits, 1 << q, 0)
        rotated = []
        for string, coeff in terms:
            if (string.z >> q) & 1:
                moved, phase_q = multiply_strings(x_q, string)
                string, phase_g = multiply_strings(moved, g)
                coeff = coeff * phase_q * phase_g
            rotated.append((string, coeff))
        terms = rotated
    return terms


def taper_operator_term_loop(h, td):
    """h restricted to td's sector one term at a time: `restriction_reference`
    of `rotation_term_loop`, so each tapered string adds its terms in h's
    canonical order.

    The reference the closed-form rotation is checked against byte for byte.
    """
    return restriction_reference(h.n_qubits, rotation_term_loop(h, td), td)


def restriction_reference(n, terms, td):
    """Rotated (string, coeff) terms on n qubits restricted to td's sector: a
    Python loop over them in the given order that replaces each X on a
    removed qubit by its sector sign, compacts the masks and adds into a
    dict.

    The reference the array restriction is checked against byte for byte.
    """
    removed = set(td.paulix_partners)
    remaining = [q for q in range(n) if q not in removed]
    sign_of = dict(zip(td.paulix_partners, td.sector_signs))
    out: dict[tuple[int, int], complex] = {}
    for string, coeff in terms:
        factor = 1.0
        for q in removed:
            letter_x = (string.x >> q) & 1
            letter_z = (string.z >> q) & 1
            if letter_z:
                raise ValueError(
                    f"rotated term {string.label} acts as Z/Y on removed qubit {q}"
                )
            if letter_x:
                factor *= sign_of[q]
        key = (
            _compact_mask(string.x, remaining),
            _compact_mask(string.z, remaining),
        )
        out[key] = out.get(key, 0.0) + coeff * factor
    return pauli_sum_reference(td.n_remaining, out)


def serial_draws_reference(ctx, max_power: int, shots: int, seed: int, sector_index: int,
                           noise):
    """(group, counts) for every QWC group of a sector's tapered ledger, each
    sampled on its own register with seed [seed, sector_index, group index]:
    the one-group-at-a-time loop, with no packing."""
    from pdsq.backend import serial_sample
    from pdsq.grouping import group_qwc
    from pdsq.pipeline import unique_measured_strings

    groups = group_qwc(unique_measured_strings(ctx.tapered_cache, max_power))
    return [
        (group, serial_sample(ctx.tapered_state, group, shots, noise, [seed, sector_index, gi]))
        for gi, group in enumerate(groups)
    ]


def packed_draws_reference(ctx, max_power: int, shots: int, seed: int, sector_index: int,
                           noise):
    """(batch, counts) for the sector's groups packed into 20-qubit
    executions, batch bi sampled with seed [seed, sector_index, bi]."""
    from pdsq.backend import sample_batch
    from pdsq.grouping import group_qwc, pack_batches
    from pdsq.pipeline import unique_measured_strings

    groups = group_qwc(unique_measured_strings(ctx.tapered_cache, max_power))
    batches = pack_batches(groups, ctx.tapered_h.n_qubits, 20)
    return [
        (batch, sample_batch(ctx.tapered_state, batch, shots, noise, [seed, sector_index, bi]))
        for bi, batch in enumerate(batches)
    ]


def serial_estimates_reference(
    ctx, max_power: int, shots: int, seed: int, sector_index: int,
    spam_p: float, apply_mitigation: bool,
) -> dict:
    """String estimates from serial_draws_reference, group by group: each
    group's counts mitigated when asked, then folded into its members'
    expectations."""
    from pdsq.backend import NoiseModel
    from pdsq.grouping import slot_expectations
    from pdsq.mitigation import MitigationConfig, mitigate

    noise = NoiseModel(spam_p) if spam_p > 0.0 else None
    estimates = {}
    draws = serial_draws_reference(ctx, max_power, shots, seed, sector_index, noise)
    for group, counts in draws:
        weights = counts.counts
        if spam_p > 0.0 and apply_mitigation:
            config = MitigationConfig(spam_p)
            weights = mitigate(counts.outcomes, weights, counts.n_bits, config)
        estimates.update(slot_expectations(counts.outcomes, weights, ((group, 0),)))
    return estimates


# The STO-3G engine and RHF as per-pair and per-element loops: one _Shell per
# atom, one np.sum per primitive block, a 4-deep ERI fill, and a double loop
# for the DIIS matrix.  The array engine in pdsq.chem must match them byte
# for byte.


@dataclass(frozen=True)
class _Shell:
    center: np.ndarray
    exponents: np.ndarray
    coeffs: np.ndarray  # contraction coefficients times primitive norms


def _h_shell(center_bohr: np.ndarray) -> _Shell:
    alphas = np.array(STO3G_H_EXPONENTS)
    norms = (2.0 * alphas / np.pi) ** 0.75
    coeffs = np.array(STO3G_H_COEFFS) * norms
    # renormalize the contracted function
    p = alphas[:, None] + alphas[None, :]
    s_self = (np.pi / p) ** 1.5
    norm2 = coeffs @ s_self @ coeffs
    return _Shell(center_bohr, alphas, coeffs / math.sqrt(norm2))


def _pair_quantities(sa: _Shell, sb: _Shell):
    a = sa.exponents[:, None]
    b = sb.exponents[None, :]
    p = a + b
    mu = a * b / p
    ab2 = float(np.dot(sa.center - sb.center, sa.center - sb.center))
    kab = np.exp(-mu * ab2)
    centers = (a[..., None] * sa.center + b[..., None] * sb.center) / p[..., None]
    weights = sa.coeffs[:, None] * sb.coeffs[None, :]
    return p, mu, ab2, kab, centers, weights


def integrals_reference(geometry: Geometry, basis: str = "STO-3G") -> IntegralSet:
    """Overlap, core-Hamiltonian and two-electron integrals for an H chain."""
    if basis.upper() != "STO-3G":
        raise ValueError(f"unsupported basis: {basis}")
    charges = geometry.charges()  # validates elements (H only)
    coords = geometry.coords_bohr()
    shells = [_h_shell(c) for c in coords]
    n = len(shells)

    overlap = np.zeros((n, n))
    kinetic = np.zeros((n, n))
    attraction = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            p, mu, ab2, kab, centers, w = _pair_quantities(shells[i], shells[j])
            s_prim = (np.pi / p) ** 1.5 * kab
            overlap[i, j] = overlap[j, i] = np.sum(w * s_prim)
            t_prim = mu * (3.0 - 2.0 * mu * ab2) * s_prim
            kinetic[i, j] = kinetic[j, i] = np.sum(w * t_prim)
            v = 0.0
            for zc, rc in zip(charges, coords):
                pc2 = np.sum((centers - rc) ** 2, axis=-1)
                v -= zc * np.sum(w * (2.0 * np.pi / p) * kab * _boys0(p * pc2))
            attraction[i, j] = attraction[j, i] = v

    two_body = np.zeros((n, n, n, n))
    pair_cache = {}
    for i in range(n):
        for j in range(i + 1):
            pair_cache[(i, j)] = _pair_quantities(shells[i], shells[j])
    unique_pairs = list(pair_cache)
    for ia, (i, j) in enumerate(unique_pairs):
        p, _, _, kab, pcen, wij = pair_cache[(i, j)]
        for k, l in unique_pairs[: ia + 1]:
            q, _, _, kcd, qcen, wkl = pair_cache[(k, l)]
            pq2 = np.sum(
                (pcen[:, :, None, None, :] - qcen[None, None, :, :, :]) ** 2, axis=-1
            )
            pp = p[:, :, None, None]
            qq = q[None, None, :, :]
            pref = 2.0 * np.pi**2.5 / (pp * qq * np.sqrt(pp + qq))
            f0 = _boys0(pp * qq / (pp + qq) * pq2)
            val = np.sum(
                wij[:, :, None, None]
                * wkl[None, None, :, :]
                * pref
                * kab[:, :, None, None]
                * kcd[None, None, :, :]
                * f0
            )
            for a, b in ((i, j), (j, i)):
                for c, d in ((k, l), (l, k)):
                    two_body[a, b, c, d] = val
                    two_body[c, d, a, b] = val

    one_body = kinetic + attraction
    return IntegralSet(
        n_orbitals=n,
        core_energy=nuclear_repulsion(geometry),
        one_body=one_body,
        two_body=two_body,
        overlap=overlap,
        n_electrons=sum(charges),
    )


def hartree_fock_reference(
    ints: IntegralSet,
    n_electrons: int | None = None,
    *,
    max_iterations: int = 200,
    density_tol: float = 1e-10,
    diis_size: int = 8,
) -> ScfResult:
    """Restricted closed-shell SCF from a core-Hamiltonian guess, with DIIS."""
    if n_electrons is None:
        n_electrons = ints.n_electrons
    if n_electrons % 2 != 0:
        raise ValueError("restricted SCF needs an even electron count")
    n_occ = n_electrons // 2
    if n_occ > ints.n_orbitals:
        raise ValueError("more electron pairs than orbitals")

    s = ints.overlap
    hcore = ints.one_body
    eri = ints.two_body
    s_vals, s_vecs = np.linalg.eigh(s)
    if np.min(s_vals) < 1e-10:
        raise ValueError("overlap matrix is numerically singular")
    x = s_vecs @ np.diag(s_vals**-0.5) @ s_vecs.T

    def solve_orbitals(fock):
        fp = x.T @ fock @ x
        energies, cp = np.linalg.eigh(fp)
        return energies, x @ cp

    def density_of(c):
        cocc = c[:, :n_occ]
        return 2.0 * cocc @ cocc.T

    def fock_of(p):
        j = np.einsum("ls,mnls->mn", p, eri)
        k = np.einsum("ls,mlns->mn", p, eri)
        return hcore + j - 0.5 * k

    energies, c = solve_orbitals(hcore)
    p = density_of(c)
    fock_hist: list[np.ndarray] = []
    err_hist: list[np.ndarray] = []
    delta = np.inf
    for iteration in range(1, max_iterations + 1):
        fock = fock_of(p)

        err = x.T @ (fock @ p @ s - s @ p @ fock) @ x
        fock_hist.append(fock)
        err_hist.append(err)
        if len(fock_hist) > diis_size:
            fock_hist.pop(0)
            err_hist.pop(0)
        if len(fock_hist) > 1:
            m = len(fock_hist)
            b = -np.ones((m + 1, m + 1))
            b[m, m] = 0.0
            for a in range(m):
                # elementwise products commute exactly: B is symmetric bit for bit
                for bi in range(a, m):
                    b[a, bi] = b[bi, a] = np.sum(err_hist[a] * err_hist[bi])
            rhs = np.zeros(m + 1)
            rhs[m] = -1.0
            try:
                weights = np.linalg.solve(b, rhs)[:m]
                fock = sum(w * f for w, f in zip(weights, fock_hist))
            except np.linalg.LinAlgError:
                pass  # fall back to the plain Fock matrix

        energies, c = solve_orbitals(fock)
        p_new = density_of(c)
        delta = np.max(np.abs(p_new - p))
        p = p_new
        if delta < density_tol:
            fock = fock_of(p)
            e_elec = 0.5 * np.sum(p * (hcore + fock))
            energies, c = solve_orbitals(fock)
            return ScfResult(c, energies, e_elec + ints.core_energy, iteration)
    raise ScfConvergenceError(
        f"SCF not converged after {max_iterations} iterations (last change {delta:.3e})"
    )
