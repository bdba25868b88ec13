"""Pauli strings and sparse Pauli sums with exact phase bookkeeping.

A string on n qubits is a pair of bit masks (x, z): bit k of each mask holds
the X/Z component of the letter acting on qubit k, decoded per qubit as
(0,0) -> I, (1,0) -> X, (1,1) -> Y, (0,1) -> Z.  Internally a string is the
Hermitian operator

    P(x, z) = i^{|x & z|} * (prod_k X_k^{x_k}) * (prod_k Z_k^{z_k}),

so products of strings are again strings times a phase in {1, i, -1, -i}.
`_multiply_masks` computes them on mask arrays for the Jordan-Wigner
expansion and the tapering rotation.
A sum is a real symmetric operator, as every qubit Hamiltonian of the
program (real JW tables, tapered sums, powers) is: real coefficients on
strings with an even number of Y letters, the real symmetric strings
P = (-1)^{|x & z| / 2} X^x Z^z.  It is three parallel arrays in canonical
(z, x) order, uint64 masks and float64 coefficients, which limits sums (not
strings) to 64 qubits; sums are built, added and scaled through one
in-order merge (see PauliSum).

A product a*b of two such sums goes through their matrices, by the Pauli
(Walsh-Hadamard) transform (Hantzko, Binkowski & Gupta, arXiv:2310.13421;
Jones, arXiv:2401.16378).  A sum's matrix has entry (r, r ^ x) = sum_z
(-1)^{|r & z|} (-1)^{|x & z| / 2} c(x, z), which is nonzero only for x in
V, the GF(2) span of the X masks of both operands, of dimension m.  So
both matrices, and their product, are block-diagonal over the 2^(n-m)
cosets r ^ V, in blocks of 2^m x 2^m: a sum's blocks are one +-1 Hadamard
matmul over its (z, x in V) coefficient table of 2^n x 2^m entries and one
gather, the product is one batched matmul of the blocks, and it returns to
coefficients the same way,

    c(x, z) = 2^-n (-1)^{|x & z| / 2} sum_r (-1)^{|r & z|} M[r, r ^ x],

which is 2^-n Tr(P(x, z) M).  A string with an odd number of Y letters
gets the antisymmetric part of M, which is round-off when the operands
commute, as the powers of one sum do.  Symmetries split the register this
way (Bravyi et al., arXiv:1701.08213): V is found by one GF(2) elimination,
`_gf2_basis`, and a sum's Z-type symmetries are V's orthogonal complement,
which tapering takes from the same basis.  H4's X masks span 5 of its 8
qubits, so its full-register products multiply 8 blocks of 32 x 32; a sum
tapered of all its Z-type symmetries spans its whole register and makes one
block.
The right operand keeps V, its blocks and the tables of its width, so a
power ladder, which multiplies by the same H every step, builds them once.  No array has more
than 4^n entries, so a product's bytes are budgeted from n alone, an upper
bound as m <= n, before any exists: 12 qubits fit MEMORY_BUDGET, 13 do not.

Strings are numbered in one place, `_number_strings`: the distinct strings
of two mask arrays in canonical order, as uint64 masks, and each input's
index among them, for sums and the string ledgers.  Up to 32 qubits it
numbers the codes z << n | x, whose ascending order is the canonical one,
by `_distinct`, which the readout mitigation uses too: a presence table
when the range is no larger than the input (the full H4 ledger), one sort
otherwise.  Past 32 qubits the codes do not fit in 64 bits, and it takes
one lexsort.

Serialization convention, used project-wide: qubit 0 is the leftmost letter
of a label and the leftmost character of a measurement bitstring.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .budget import check_memory

# A merged coefficient with np.abs(c) <= DROP_TOL is dropped from a sum,
# and one with np.abs(c) <= DROP_TOL * (the largest np.abs(c)) from a product.
DROP_TOL = 1e-12

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_LETTER_BITS = {v: k for k, v in _LETTERS.items()}
# (term, basis state) elements per block of PauliSum.matrix_blocks: each
# of a block's arrays then fits in a core's cache (<= 256 KiB), which
# measured fastest for the H4 matvec
_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class PauliString:
    """One tensor product of single-qubit Pauli letters (no coefficient)."""

    n_qubits: int
    x: int
    z: int

    def __post_init__(self):
        if self.n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        mask = (1 << self.n_qubits) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError(
                f"masks exceed {self.n_qubits} qubits: x={self.x:#x} z={self.z:#x}"
            )

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a letter string like 'IXYZ' (qubit 0 leftmost); spaces ignored."""
        letters = label.replace(" ", "").upper()
        x = z = 0
        for k, ch in enumerate(letters):
            try:
                xb, zb = _LETTER_BITS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r} in {label!r}") from None
            x |= xb << k
            z |= zb << k
        return cls(len(letters), x, z)

    @property
    def label(self) -> str:
        return "".join(
            _LETTERS[((self.x >> k) & 1, (self.z >> k) & 1)]
            for k in range(self.n_qubits)
        )

    @property
    def support(self) -> int:
        """Mask of qubits carrying a non-identity letter."""
        return self.x | self.z

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def __str__(self) -> str:
        return self.label


def _multiply_masks(xa, za, xb, zb) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """String products P(xa, za) P(xb, zb) on unsigned mask arrays, broadcast
    like xa ^ xb: the product masks and i-exponents e mod 4 of the phase i^e
    (uint8; the counts wrap mod 256, a multiple of 4, so the residue is
    exact)."""
    x, z = xa ^ xb, za ^ zb
    e = (
        np.bitwise_count(xa & za)
        + np.bitwise_count(xb & zb)
        - np.bitwise_count(x & z)
        + 2 * np.bitwise_count(za & xb)
    )
    return x, z, e & 3


def _check_qubits(na: int, nb: int) -> None:
    if na != nb:
        raise ValueError(f"qubit counts differ: {na} vs {nb}")


class PauliSum:
    """Real symmetric operator: a sparse real-weighted sum of Pauli strings
    with an even number of Y letters, on a fixed qubit count.

    Its only state is the mask_arrays(): its distinct strings' x and z masks
    (uint64) and coefficients (float64), ascending on (z_mask, x_mask).
    Constructors, + and scaling merge terms in input order, each string's
    coefficients added one by one from 0.0, and drop np.abs(c) <= DROP_TOL.
    They refuse a complex coefficient or scalar, and a kept string with an
    odd number of Y letters.  Instances are immutable after construction
    (a right operand of multiply_sums keeps its matrix blocks beside them);
    arithmetic returns new sums.
    """

    __slots__ = ("n_qubits", "_x", "_z", "_c", "_walsh")

    def __init__(self, n_qubits: int, terms=None):
        if n_qubits > 64:
            raise ValueError("PauliSum supports at most 64 qubits")
        mask = (1 << n_qubits) - 1
        keys, cs = [], []
        items = terms.items() if isinstance(terms, dict) else terms or ()
        for key, coeff in items:
            if isinstance(key, PauliString):
                _check_qubits(key.n_qubits, n_qubits)
                key = (key.x, key.z)
            xm, zm = key
            # checked as Python ints, so a negative mask fails here too
            if xm & ~mask or zm & ~mask:
                raise ValueError("term masks exceed qubit count")
            keys.append(key)
            cs.append(_real(coeff, f" on term masks {key}"))
        x, z = np.array(keys, dtype=np.uint64).reshape(-1, 2).T
        merged = _sum_in_order(n_qubits, x, z, np.array(cs, dtype=np.float64))
        self.n_qubits = n_qubits
        self._x, self._z, self._c = merged.mask_arrays()
        # (span, index tables, matrix blocks, hadamard), kept on the first
        # product with this sum on the right; see multiply_sums
        self._walsh = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits, {(0, 0): 1.0})

    @classmethod
    def from_string(cls, string: PauliString) -> "PauliSum":
        return cls(string.n_qubits, {(string.x, string.z): 1.0})

    @classmethod
    def _from_canonical(cls, n_qubits: int, x, z, c) -> "PauliSum":
        """Sum of distinct strings given as (x, z, coeff) arrays already in
        canonical order; they become the sum's read-only mask_arrays().
        Refuses a string with an odd number of Y letters."""
        odd = np.flatnonzero(np.bitwise_count(x & z) & 1)
        if odd.size:
            k = odd[0]
            label = PauliString(n_qubits, int(x[k]), int(z[k])).label
            raise ValueError(f"sum is not real symmetric: {label} has an odd number of Y "
                             f"letters and a coefficient of modulus {abs(c[k]):.3e}")
        out = cls.__new__(cls)
        out.n_qubits = n_qubits
        for a in (x, z, c):
            a.flags.writeable = False
        out._x, out._z, out._c = x, z, c
        out._walsh = None
        return out

    # -- inspection --------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def terms(self) -> Iterator[tuple[PauliString, float]]:
        """Terms in canonical order: lexicographic on (z_mask, x_mask)."""
        x, z, c = self.mask_arrays()
        for xm, zm, coeff in zip(x.tolist(), z.tolist(), c.tolist()):
            yield PauliString(self.n_qubits, xm, zm), coeff

    def coefficient(self, string: PauliString) -> float:
        _check_qubits(string.n_qubits, self.n_qubits)
        x, z = np.uint64(string.x), np.uint64(string.z)
        lo, hi = np.searchsorted(self._z, z, "left"), np.searchsorted(self._z, z, "right")
        k = lo + np.searchsorted(self._x[lo:hi], x)
        return self._c[k].item() if k < hi and self._x[k] == x else 0.0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        _check_qubits(self.n_qubits, other.n_qubits)
        return _sum_in_order(
            self.n_qubits, np.concatenate((self._x, other._x)),
            np.concatenate((self._z, other._z)), np.concatenate((self._c, other._c)),
        )

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            return multiply_sums(self, other)
        return self._scaled(other)

    def __rmul__(self, scalar) -> "PauliSum":
        return self._scaled(scalar)

    def _scaled(self, scalar) -> "PauliSum":
        return _sum_in_order(self.n_qubits, self._x, self._z, self._c * _real(scalar, " (scalar)"))

    # -- bulk views --------------------------------------------------------

    def mask_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parallel (x, z, coeff) arrays in canonical order (uint64, uint64, float64)."""
        return self._x, self._z, self._c

    def matrix_blocks(self, basis: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The dense matrix's elements in the columns basis (uint64 basis
        indices) as (rows, values), block by block of terms in canonical order.

        Term t of a block puts values[t, j] = (-1)^{|x_t & z_t| / 2} c_t
        (-1)^{|b & z_t|} in row rows[t, j] = b ^ x_t (int64) of column b =
        basis[j].  A block holds max(1, _BLOCK_ELEMENTS // basis.size) terms,
        so the arrays stay small whatever the number of terms.
        """
        x, z, c = self.mask_arrays()
        # folds the letter normalization i^{|x & z|} = +-1 into the coefficient
        c = np.where(np.bitwise_count(x & z) & 2, -c, c)
        step = max(1, _BLOCK_ELEMENTS // basis.size)
        for lo in range(0, c.size, step):
            block = slice(lo, lo + step)
            signs = np.where(np.bitwise_count(basis & z[block, None]) & 1, -1.0, 1.0)
            yield (basis ^ x[block, None]).view(np.int64), c[block, None] * signs

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix: _dense_block over every basis index,
        budgeted before the 2^n indices exist."""
        _check_block(self.n_qubits, 1 << self.n_qubits)
        return _dense_block(self, np.arange(1 << self.n_qubits, dtype=np.uint64))

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """One `coeff * LETTERS` line per term in canonical order."""
        return "\n".join(f"{coeff!r} * {string.label}" for string, coeff in self.terms())

    def __str__(self) -> str:
        return self.to_text() if self else f"0 (on {self.n_qubits} qubits)"

    def __repr__(self) -> str:
        return f"PauliSum(n_qubits={self.n_qubits}, n_terms={self.n_terms})"


# Arrays of at most 4^n float64 or intp entries a product holds at most at
# once: the right operand's blocks, its gather table and its Hadamard, which
# it keeps, and two working arrays; this leaves room for the one-byte sign
# table it also keeps and for a mask over the working array
_PRODUCT_ARRAYS = 6


def multiply_sums(a: PauliSum, b: PauliSum) -> PauliSum:
    """Product of two commuting sums, by the Pauli transform (see the module
    docstring): a's matrix times b's, block by block over the cosets of the
    span V of both operands' X masks, returned to coefficients.

    b keeps V, its index tables, its blocks and the Hadamard of its width
    from its first product as the right operand (see _walsh_cache), and
    reuses them while a's X masks lie in V (checked only when V is not the
    whole space); otherwise it rebuilds them over the union of the two
    spans.  a's blocks are built per call.  Both are budgeted from n alone,
    _PRODUCT_ARRAYS arrays of 4^n entries (an upper bound, as V's dimension
    m <= n), before anything is allocated.  The product's blocks go back to
    a (z, x in V) table whose flat order is the canonical one, as V is
    ascending, so its strings need no sort.

    The product keeps np.abs(c) > DROP_TOL * max np.abs(c) over all 4^n
    strings.  A kept string with an odd number of Y letters refuses the
    product: a and b do not commute.
    """
    _check_qubits(a.n_qubits, b.n_qubits)
    if not a or not b:
        return PauliSum.zero(a.n_qubits)
    n, d = a.n_qubits, 1 << a.n_qubits
    check_memory(
        f"a product on {n} qubits needs {_PRODUCT_ARRAYS} dense {d} x {d} arrays",
        _PRODUCT_ARRAYS * 8 << 2 * n,
    )
    walsh = b._walsh
    # coord is -1 at an X mask of a outside V
    if walsh is None or walsh[0].size < d and np.any(walsh[1][0][a._x] < 0):
        spanned = b._x if walsh is None else walsh[0]
        walsh = b._walsh = None  # the old arrays go before the new ones exist
        b._walsh = walsh = _walsh_cache(b, _span(np.concatenate((spanned, a._x))))
    span, tables, blocks, hadamard = walsh
    _, gather, signs = tables
    # sums[z * 2^m + i] = sum_r (-1)^{|r & z|} M[r, r ^ span[i]], with M = a b;
    # each temporary goes once the next exists, so at most two are alive
    product = np.matmul(_walsh_blocks(a, tables, hadamard), blocks)
    m = np.empty(product.size)
    m[gather] = product
    del product
    sums = (hadamard @ m.reshape(d, span.size)).ravel()
    del m
    magnitude = np.abs(sums)
    codes = np.flatnonzero(magnitude > DROP_TOL * magnitude.max())
    del magnitude
    c = sums[codes] * 2.0**-n * signs[codes]
    x = span[codes & (span.size - 1)]
    z = (codes >> span.size.bit_length() - 1).astype(np.uint64)
    return PauliSum._from_canonical(n, x, z, c)


def _gf2_basis(masks) -> dict[int, int]:
    """The reduced echelon basis of the GF(2) span of the int masks: each
    vector keyed by its pivot, its lowest set bit, which no other vector
    has.  It is the unique RREF with qubit k in column k."""
    basis: dict[int, int] = {}
    for v in set(masks):
        for p, u in basis.items():
            if v >> p & 1:
                v ^= u  # clears bit p; no other pivot bit of v changes
        if v:
            p = (v & -v).bit_length() - 1
            for q, u in basis.items():
                if u >> p & 1:
                    basis[q] = u ^ v  # v has no bit below p, so q stays u's pivot
            basis[p] = v
    return basis


def _span(x: np.ndarray) -> np.ndarray:
    """The GF(2) span of the masks x, ascending, as uint64: the closure of
    their _gf2_basis.  Sorted, span[i ^ j] == span[i] ^ span[j]: span[i] is
    the XOR of span[2^k] over the bits k of i."""
    span = [0]
    for v in _gf2_basis(x.tolist()).values():
        span += [u ^ v for u in span]
    return np.array(sorted(span), dtype=np.uint64)


def _walsh_cache(s: PauliSum, span: np.ndarray) -> tuple:
    """(span, (coord, gather, signs), blocks, hadamard): what a right
    operand s keeps for products over the span V (2^m ascending masks).

    The cosets t of V are numbered by their representatives, the states
    with no bit at any pivot (the top bit of a span[2^k]), and state j of
    coset t is rows[t, j] = rep_t ^ span[j].  Then
    - coord[x] is i with span[i] == x, or -1 for x outside V;
    - gather[t, j, k] = rows[t, j] * 2^m + (j ^ k), so that W.ravel()[gather]
      takes a (r, i) table W[r, i] = M[r, r ^ span[i]] to the 2^(n-m)
      blocks M[rows[t, j], rows[t, k]], and assigning the blocks through it
      takes them back;
    - signs[z * 2^m + i] = (-1)^{|span[i] & z| / 2} (int8), the letter signs;
    - hadamard[r, z] = (-1)^{|r & z|}, the +-1 Sylvester matrix;
    - blocks are s's own."""
    d, size = 1 << s.n_qubits, span.size
    pivots = sum(1 << int(span[1 << k]).bit_length() - 1 for k in range(size.bit_length() - 1))
    r, j, x = np.arange(d), np.arange(size), span.astype(np.intp)
    rows = r[(r & pivots) == 0, None] ^ x
    gather = rows[:, :, None] * size | j[:, None] ^ j
    coord = np.full(d, -1)
    coord[x] = j
    signs = np.where(np.bitwise_count(r[:, None] & x) & 2, np.int8(-1), np.int8(1)).ravel()
    tables = coord, gather, signs
    hadamard = np.where(np.bitwise_count(r[:, None] & r) & 1, -1.0, 1.0)
    return span, tables, _walsh_blocks(s, tables, hadamard), hadamard


def _walsh_blocks(s: PauliSum, tables: tuple, hadamard: np.ndarray) -> np.ndarray:
    """s's matrix blocks by the inverse transform: its coefficients, with
    the letter signs, in a (z, i) table with x = span[i], one Hadamard
    matmul to rows W[r, i], and one gather to the blocks (see
    _walsh_cache)."""
    coord, gather, signs = tables
    d, size = hadamard.shape[0], gather.shape[1]
    x, z, c = s.mask_arrays()
    where = z.astype(np.intp) * size | coord[x]
    table = np.zeros(d * size)
    table[where] = c * signs[where]
    w = hadamard @ table.reshape(d, size)
    del table
    return w.ravel()[gather]


def _distinct(values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values, ascending, of an integer array whose entries lie
    in [0, size), and each entry's index among them: by a presence table of
    `size` flags when size <= values.size, else by one sort.  The table
    counts in int32, which holds its indices while the input has fewer than
    2^31 entries; the sort returns intp indices."""
    if size > values.size:
        return np.unique(values, return_inverse=True)
    present = np.zeros(size, dtype=bool)
    present[values] = True
    return np.flatnonzero(present), (np.cumsum(present, dtype=np.int32) - 1)[values]


def _number_strings(
    n: int, x: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ux, uz, inverse): the distinct strings of the n-qubit unsigned mask
    arrays x, z as uint64 masks in canonical order, and each input's index
    among them, so ux[inverse] == x: the merge of a sum's terms and the
    string ledgers (see the module docstring)."""
    if n <= 32:
        key = np.min_scalar_type((1 << 2 * n) - 1)
        codes, inverse = _distinct(z.astype(key) << n | x.astype(key), 1 << 2 * n)
        codes = codes.astype(np.uint64)
        return codes & np.uint64((1 << n) - 1), codes >> np.uint64(n), inverse
    order = np.lexsort((x, z))
    x, z = x[order], z[order]
    first = np.ones(x.size, dtype=bool)
    first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
    inverse = np.empty(x.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    ux, uz = (m[first].astype(np.uint64, copy=False) for m in (x, z))
    return ux, uz, inverse


def _sum_in_order(n_qubits: int, x: np.ndarray, z: np.ndarray, c: np.ndarray) -> PauliSum:
    """Sum of the terms (x[i], z[i], c[i]), each string's terms added one
    after another in array order from 0.0; a string with np.abs(c) <=
    DROP_TOL is dropped, and a kept one with an odd number of Y letters
    refused."""
    ux, uz, inverse = _number_strings(n_qubits, x, z)
    # float64 even with no terms, where bincount gives int64
    acc = np.bincount(inverse, weights=c, minlength=ux.size).astype(np.float64, copy=False)
    keep = np.abs(acc) > DROP_TOL
    return PauliSum._from_canonical(n_qubits, ux[keep], uz[keep], acc[keep])


def _real(value, where: str) -> float:
    """value as a float; refuses a non-finite or complex one, naming where."""
    c = complex(value)
    if not cmath.isfinite(c):
        raise ValueError(f"non-finite coefficient {value}{where}")
    if c.imag:
        raise ValueError(f"complex coefficient {value}{where}: a PauliSum is real symmetric")
    return c.real


def _check_block(n: int, d: int) -> None:
    """Budget a dense d x d block: 16 bytes per entry of the block and its
    spill row, for the block itself and the copy eigvalsh takes of it."""
    check_memory(f"a dense {d} x {d} block on {n} qubits", 16 * (d + 1) * d)


def _dense_block(h: PauliSum, basis: np.ndarray) -> np.ndarray:
    """h's dense matrix on the d ascending uint64 indices basis, each entry
    summing its terms in canonical order from 0.0; a term's row is found by
    binary search in basis, and rows outside it go to a dropped spill row.
    Budgeted by _check_block before allocating."""
    n, d = h.n_qubits, basis.size
    _check_block(n, d)
    cols = np.arange(d)
    out = np.zeros((d + 1) * d)
    for rows, values in h.matrix_blocks(basis):
        rows = rows.view(np.uint64)
        where = np.searchsorted(basis, rows)
        where[basis[np.minimum(where, d - 1)] != rows] = d
        # np.add.at adds in array order: each entry sums its terms in turn
        np.add.at(out, (where * d + cols).ravel(), values.ravel())
    return out[: d * d].reshape(d, d)
