"""Independent oracles shared across tests.

Operators are built by explicit Kronecker products of 2x2 letters, and sums
are plain loops or pair sums, deliberately avoiding the package's mask-based
and factorized fast paths.
"""

import numpy as np

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


def dense_sum(labeled_terms: dict[str, complex]) -> np.ndarray:
    n = len(next(iter(labeled_terms)))
    out = np.zeros((2**n, 2**n), dtype=complex)
    for label, coeff in labeled_terms.items():
        out += coeff * dense_string(label)
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
        seen.update(s for s in power.strings() if not s.is_identity)
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


def moments_by_term_loop(cache, estimates: dict, k: int) -> np.ndarray:
    """<H^n> for n = 0..2k-1 as a Python loop over each power's terms, adding
    coefficient times estimate in canonical term order (identity: 1)."""
    values = np.empty(2 * k)
    for n in range(2 * k):
        total = 0.0
        for string, coeff in cache.power(n).terms():
            total += coeff.real * (1.0 if string.is_identity else estimates[string])
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


def multiply_sums_reference(a, b, drop_tol: float = 1e-12):
    """Product of two PauliSums with no merge-structure cache: every call
    computes all |a| * |b| phases, sorts the merge keys with np.unique and
    adds like strings with np.add.at, in row-major (a, b) pair order.

    The reference the cached product is checked against bit for bit.
    """
    from pdsq.pauli import PauliSum

    phases = np.array([1.0, 1.0j, -1.0, -1.0j])
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    if not a or not b:
        return PauliSum.zero(a.n_qubits)
    xa, za, ca = a.mask_arrays()
    xb, zb, cb = b.mask_arrays()

    x = xa[:, None] ^ xb[None, :]
    z = za[:, None] ^ zb[None, :]
    ya = np.bitwise_count(xa & za).astype(np.int64)
    yb = np.bitwise_count(xb & zb).astype(np.int64)
    yab = np.bitwise_count(x & z).astype(np.int64)
    anti = np.bitwise_count(za[:, None] & xb[None, :]).astype(np.int64)
    e = (ya[:, None] + yb[None, :] - yab + 2 * anti) % 4
    coeffs = ca[:, None] * cb[None, :] * phases[e]

    if a.n_qubits <= 32:
        packed = (x.ravel() << np.uint64(32)) | z.ravel()
        uniq, inverse = np.unique(packed, return_inverse=True)
        acc = np.zeros(len(uniq), dtype=np.complex128)
        np.add.at(acc, inverse.ravel(), coeffs.ravel())
        keep = np.abs(acc) > drop_tol
        terms = {
            (int(k >> np.uint64(32)), int(k & np.uint64(0xFFFFFFFF))): c
            for k, c in zip(uniq[keep], acc[keep])
        }
    else:
        keys = np.empty((x.size, 2), dtype=np.uint64)
        keys[:, 0] = x.ravel()
        keys[:, 1] = z.ravel()
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        acc = np.zeros(len(uniq), dtype=np.complex128)
        np.add.at(acc, inverse.ravel(), coeffs.ravel())
        keep = np.abs(acc) > drop_tol
        terms = {(int(ux), int(uz)): c for (ux, uz), c in zip(uniq[keep], acc[keep])}
    out = PauliSum(a.n_qubits)
    out._terms = terms
    return out


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
    ordered = sorted(pauli_list, key=lambda s: (-s.weight, s.z, s.x))

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
    order: fold i^{|x & z|} into the coefficient, multiply by the signs
    (-1)^{|j & z|} and the amplitudes, and add the rows j ^ x into the
    result one term at a time.

    The reference the one-pass matvec is checked against byte for byte.
    """
    phases = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
    amps = state.amplitudes
    if 1 << h.n_qubits != amps.size:
        raise ValueError("operator and state dimensions differ")
    idx = np.arange(amps.size, dtype=np.uint64)
    out = np.zeros_like(amps)
    for string, coeff in h.terms():
        phase_coeff = coeff * phases[(string.x & string.z).bit_count() % 4]
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


def jordan_wigner_reference(tables, drop_tol: float = 1e-12):
    """Qubit Hamiltonian of spin-orbital tables, one table entry at a time:
    each a+_p a_q or a+_p a+_q a_s a_r is a `multiply_sums` product of ladder
    operators, scaled and added into a dict in (p, q) then (p, q, r, s)
    row-major order, starting from the core energy.

    The reference the one-pass expansion is checked against byte for byte.
    """
    from pdsq.jw import _COEFF_CUTOFF, ladder_operator
    from pdsq.pauli import PauliSum, multiply_sums

    m = tables.n_spin_orbitals
    create = [ladder_operator(p, m, dagger=True) for p in range(m)]
    annihilate = [ladder_operator(p, m, dagger=False) for p in range(m)]

    accum: dict[tuple[int, int], complex] = {(0, 0): complex(tables.core_energy)}

    def add(op: PauliSum, scale: complex) -> None:
        scale = complex(scale)  # a NumPy scalar times a Python complex is slow
        for key, coeff in op._terms.items():
            accum[key] = accum.get(key, 0.0) + scale * coeff

    def cached_product(cache, ops, i, j):
        if (i, j) not in cache:
            cache[(i, j)] = multiply_sums(ops[i], ops[j], drop_tol=0.0)
        return cache[(i, j)]

    cc_cache: dict[tuple[int, int], PauliSum] = {}
    aa_cache: dict[tuple[int, int], PauliSum] = {}

    one = tables.one_body
    for p in range(m):
        for q in range(m):
            if abs(one[p, q]) > _COEFF_CUTOFF:
                add(multiply_sums(create[p], annihilate[q], drop_tol=0.0), one[p, q])

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
                    add(multiply_sums(cc, aa, drop_tol=0.0), 0.25 * v)

    return PauliSum(m, accum, drop_tol=drop_tol)


def _mask_to_bits(mask: int, n: int) -> np.ndarray:
    return np.array([(mask >> k) & 1 for k in range(n)], dtype=np.uint8)


def symmetry_check_matrix_reference(h) -> np.ndarray:
    """The symplectic check matrix of h, one Python row per term in
    canonical order: the term's z bits, then its x bits.

    The reference `taper.find_symmetries`' array build is checked against.
    """
    n = h.n_qubits
    strings = h.strings()
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
    """h restricted to td's sector: the Clifford rotations, then a Python
    loop over the rotated terms in canonical order that replaces each X on a
    removed qubit by its sector sign, compacts the masks and adds into a
    dict.

    The reference the array restriction is checked against byte for byte.
    """
    from math import sqrt

    from pdsq.pauli import PauliSum, multiply_sums

    n = h.n_qubits
    rotated = h
    inv_sqrt2 = 1.0 / sqrt(2.0)
    for g, q in zip(td.generators, td.paulix_partners):
        u = PauliSum(n, {(1 << q, 0): inv_sqrt2, (g.x, g.z): inv_sqrt2})
        rotated = multiply_sums(multiply_sums(u, rotated), u)
    if rotated.max_imag() > 1e-9:
        raise ValueError("tapering rotation broke Hermiticity; incompatible data")

    removed = set(td.removed_qubits)
    remaining = [q for q in range(n) if q not in removed]
    sign_of = dict(zip(td.removed_qubits, td.sector_signs))
    terms: dict[tuple[int, int], complex] = {}
    for string, coeff in rotated.terms():
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
        terms[key] = terms.get(key, 0.0) + coeff * factor
    return PauliSum(td.n_remaining, terms)


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
        (group, serial_sample(
            ctx.tapered_state, group, shots, noise, seed=[seed, sector_index, gi]
        ))
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
    batches = pack_batches(groups, ctx.tapered_h.n_qubits)
    return [
        (batch, sample_batch(
            [ctx.tapered_state] * len(batch.slots), batch, shots, noise,
            seed=[seed, sector_index, bi],
        ))
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
