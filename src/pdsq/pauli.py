"""Pauli strings and sparse Pauli sums with exact phase bookkeeping.

A string on n qubits is a pair of bit masks (x, z): bit k of each mask holds
the X/Z component of the letter acting on qubit k, decoded per qubit as
(0,0) -> I, (1,0) -> X, (1,1) -> Y, (0,1) -> Z.  Internally a string is the
Hermitian operator

    P(x, z) = i^{|x & z|} * (prod_k X_k^{x_k}) * (prod_k Z_k^{z_k}),

so products of strings are again strings times a phase in {1, i, -1, -i}.
Sums are dictionaries mapping mask pairs to complex coefficients; products of
sums are evaluated in bulk over numpy uint64 masks, which limits sums (not
strings) to 64 qubits.

Which strings a product a*b holds, and how its |a|*|b| string products
merge into them, depends only on the two operands' masks, never on their
coefficients.  So the right operand keeps that merge structure for the last
left operand it met: one byte of phase exponent per string pair, the
distinct output strings in canonical order, and the pair -> output index
(int32 while |a|*|b| fits).  The entry is keyed on the left operand's exact
mask bytes and replaced on a miss; since sums are immutable it stays valid
for the right operand's lifetime.  A Hamiltonian power ladder multiplies by
the same H every step, so once H^n's strings stop changing each step only
recombines coefficients; for the saturated H4 step (4224 x 185 pairs) H
keeps 4.0 MiB.

Building a structure numbers the distinct output strings by their 2n-bit
code z << n | x, whose ascending order is the canonical one.  While there
are fewer pairs than the 4^n possible codes, the pairs' codes are sorted;
otherwise (the H4 ladder from H^3 on, the tapered 5-qubit ladders from H^2
on) the present codes are marked in a 4^n table and numbered by a running
count, with no sort.

Serialization convention, used project-wide: qubit 0 is the leftmost letter
of a label and the leftmost character of a measurement bitstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

DEFAULT_DROP_TOL = 1e-12

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_LETTER_BITS = {v: k for k, v in _LETTERS.items()}
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_PHASES_ARR = np.array(_PHASES, dtype=np.complex128)
_INT32_MAX = np.iinfo(np.int32).max
# built once: constructing them took ~4% of a 16-pair product (Jordan-Wigner
# makes 800 of those for H4)
_SHIFT32, _LOW32 = np.uint64(32), np.uint64(0xFFFFFFFF)
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
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def letter(self, k: int) -> str:
        return _LETTERS[((self.x >> k) & 1, (self.z >> k) & 1)]

    def __str__(self) -> str:
        return self.label


def multiply_strings(a: PauliString, b: PauliString) -> tuple[PauliString, complex]:
    """Product a*b as (string, phase) with phase in {1, i, -1, -i}."""
    _check_qubits(a.n_qubits, b.n_qubits)
    x = a.x ^ b.x
    z = a.z ^ b.z
    # i-exponent from normalizing X^x Z^z products back to Hermitian letters.
    e = (
        (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        - (x & z).bit_count()
        + 2 * (a.z & b.x).bit_count()
    ) % 4
    return PauliString(a.n_qubits, x, z), _PHASES[e]


def commutes(a: PauliString, b: PauliString) -> bool:
    """Symplectic commutation test: parity of anticommuting letter overlaps."""
    _check_qubits(a.n_qubits, b.n_qubits)
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def qubit_wise_commutes(a: PauliString, b: PauliString) -> bool:
    """True when on every qubit the letters are equal or one side is identity."""
    _check_qubits(a.n_qubits, b.n_qubits)
    shared = (a.x | a.z) & (b.x | b.z)
    return (a.x ^ b.x) & shared == 0 and (a.z ^ b.z) & shared == 0


def _check_qubits(na: int, nb: int) -> None:
    if na != nb:
        raise ValueError(f"qubit counts differ: {na} vs {nb}")


class PauliSum:
    """Sparse complex-weighted sum of Pauli strings on a fixed qubit count.

    Instances are immutable after construction; arithmetic returns new sums.
    Coefficients with |c| <= drop_tol are discarded on construction.
    """

    __slots__ = ("n_qubits", "_terms", "_cached_arrays", "_product_cache")

    def __init__(self, n_qubits: int, terms=None, *, drop_tol: float = DEFAULT_DROP_TOL):
        if n_qubits > 64:
            raise ValueError("PauliSum supports at most 64 qubits")
        self.n_qubits = n_qubits
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
        self._terms = {k: c for k, c in merged.items() if abs(c) > drop_tol}
        self._cached_arrays = None
        # (left operand's mask bytes, _ProductStructure) of the last product
        # with this sum on the right; see multiply_sums
        self._product_cache = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits)

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, {(0, 0): coeff})

    @classmethod
    def from_string(cls, string: PauliString, coeff: complex = 1.0) -> "PauliSum":
        return cls(string.n_qubits, {(string.x, string.z): coeff})

    @classmethod
    def _from_canonical(cls, n_qubits: int, x, z, c) -> "PauliSum":
        """Sum of distinct strings given as (x, z, coeff) arrays already in
        canonical order; the arrays become the sum's mask_arrays()."""
        out = cls(n_qubits)
        out._terms = dict(zip(zip(x.tolist(), z.tolist()), c.tolist()))
        out._cached_arrays = (x, z, c)
        return out

    @classmethod
    def from_labels(cls, n_qubits: int, labels: dict[str, complex]) -> "PauliSum":
        pairs = []
        for label, coeff in labels.items():
            s = PauliString.from_label(label)
            _check_qubits(s.n_qubits, n_qubits)
            pairs.append(((s.x, s.z), coeff))
        return cls(n_qubits, pairs)

    # -- inspection --------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[PauliString, complex]]:
        """Terms in canonical order: lexicographic on (z_mask, x_mask)."""
        x, z, c = self.mask_arrays()
        for xm, zm, coeff in zip(x.tolist(), z.tolist(), c.tolist()):
            yield PauliString(self.n_qubits, xm, zm), coeff

    def strings(self) -> list[PauliString]:
        return [s for s, _ in self.terms()]

    def coefficient(self, string: PauliString) -> complex:
        _check_qubits(string.n_qubits, self.n_qubits)
        return self._terms.get((string.x, string.z), 0.0)

    @property
    def identity_coefficient(self) -> complex:
        return self._terms.get((0, 0), 0.0)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    def max_imag(self) -> float:
        return max((abs(c.imag) for c in self._terms.values()), default=0.0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        _check_qubits(self.n_qubits, other.n_qubits)
        merged = dict(self._terms)
        for k, c in other._terms.items():
            merged[k] = merged.get(k, 0.0) + c
        return PauliSum(self.n_qubits, merged)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            return multiply_sums(self, other)
        return self._scaled(other)

    def __rmul__(self, scalar) -> "PauliSum":
        return self._scaled(scalar)

    def _scaled(self, scalar) -> "PauliSum":
        scalar = complex(scalar)
        return PauliSum(
            self.n_qubits, ((k, c * scalar) for k, c in self._terms.items())
        )

    # -- bulk views --------------------------------------------------------

    def mask_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parallel (x, z, coeff) arrays in canonical order (uint64, uint64, c128)."""
        if self._cached_arrays is None:
            keys = sorted(self._terms, key=lambda k: (k[1], k[0]))
            x = np.array([k[0] for k in keys], dtype=np.uint64)
            z = np.array([k[1] for k in keys], dtype=np.uint64)
            c = np.array([self._terms[k] for k in keys], dtype=np.complex128)
            self._cached_arrays = (x, z, c)
        return self._cached_arrays

    def matrix_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The dense matrix's elements as (rows, values), block by block of
        terms in canonical order.

        Term t of a block puts values[t, j] = i^{|x_t & z_t|} c_t (-1)^{|j & z_t|}
        in row rows[t, j] = j ^ x_t (int64) of column j, for every basis index
        j < 2^n.  A block holds max(1, _BLOCK_ELEMENTS >> n) terms, so the
        arrays stay small whatever the number of terms.
        """
        x, z, c = self.mask_arrays()
        # folds the i^{|x & z|} letter normalization into the coefficient
        c = c * _PHASES_ARR[np.bitwise_count(x & z) & 3]
        cols = np.arange(1 << self.n_qubits, dtype=np.uint64)
        step = max(1, _BLOCK_ELEMENTS >> self.n_qubits)
        for lo in range(0, c.size, step):
            block = slice(lo, lo + step)
            signs = np.where(np.bitwise_count(cols & z[block, None]) & 1, -1.0, 1.0)
            yield (cols ^ x[block, None]).view(np.int64), c[block, None] * signs

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix; refuse beyond 16 qubits."""
        n = self.n_qubits
        if n > 16:
            raise ValueError("dense matrix limited to 16 qubits")
        dim = 1 << n
        cols = np.arange(dim)
        out = np.zeros(dim * dim, dtype=np.complex128)
        for rows, values in self.matrix_blocks():
            # np.add.at adds in array order: each entry sums its terms in turn
            np.add.at(out, (rows * dim + cols).ravel(), values.ravel())
        return out.reshape(dim, dim)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """One `coeff * LETTERS` line per term in canonical order."""
        lines = []
        for string, coeff in self.terms():
            if abs(coeff.imag) <= 1e-15:
                cs = repr(coeff.real)
            else:
                cs = repr(coeff).strip("()")
            lines.append(f"{cs} * {string.label}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text() if self._terms else f"0 (on {self.n_qubits} qubits)"

    def __repr__(self) -> str:
        return f"PauliSum(n_qubits={self.n_qubits}, n_terms={self.n_terms})"


def parse_term(line: str) -> tuple[PauliString, complex]:
    """Parse one `coeff * LETTERS` term; spaces inside the letter block are fine."""
    if "*" not in line:
        raise ValueError(f"expected 'coeff * letters': {line!r}")
    coeff_part, _, label_part = line.partition("*")
    try:
        coeff = complex(coeff_part.strip())
    except ValueError:
        raise ValueError(f"invalid coefficient in {line!r}") from None
    return PauliString.from_label(label_part), coeff


def parse_sum(text: str, n_qubits: int | None = None) -> PauliSum:
    """Parse newline-separated terms into a PauliSum (round-trip of to_text)."""
    pairs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        string, coeff = parse_term(line)
        if n_qubits is None:
            n_qubits = string.n_qubits
        pairs.append((string, coeff))
    if n_qubits is None:
        raise ValueError("empty Pauli-sum text and no qubit count given")
    return PauliSum(n_qubits, pairs)


class _ProductStructure(NamedTuple):
    """How the string products of a*b merge, for fixed operand masks."""

    phase_exp: np.ndarray  # (|a|, |b|) uint8: i-exponent of each pair, 0..3
    x: np.ndarray  # distinct output strings, canonical (z, x) order
    z: np.ndarray
    inverse: np.ndarray  # (|a| * |b|,) index of each pair's output string


def _product_structure(a: PauliSum, b: PauliSum) -> _ProductStructure:
    """The merge structure of a*b, from b's cache when a has the masks of
    b's last left operand, else computed and cached on b."""
    xa, za, _ = a.mask_arrays()
    xb, zb, _ = b.mask_arrays()
    key = (xa.tobytes(), za.tobytes())
    if b._product_cache is not None and b._product_cache[0] == key:
        return b._product_cache[1]

    x = xa[:, None] ^ xb[None, :]
    z = za[:, None] ^ zb[None, :]
    # i-exponent from normalizing X^x Z^z products back to Hermitian letters;
    # uint8 wraps mod 256, a multiple of 4, so the residue mod 4 is exact
    phase_exp = (
        np.bitwise_count(xa & za)[:, None]
        + np.bitwise_count(xb & zb)[None, :]
        - np.bitwise_count(x & z)
        + 2 * np.bitwise_count(za[:, None] & xb[None, :])
    ) & 3
    n = a.n_qubits
    index_type = np.int32 if x.size <= _INT32_MAX else np.int64
    if 1 << 2 * n <= x.size:
        # no more keys z << n | x than pairs: mark the present ones in a
        # 4^n table, whose ascending order is the canonical (z, x) order,
        # and number them by a running count instead of sorting the pairs
        keys = ((z << np.uint64(n)) | x).ravel().view(np.int64)
        present = np.zeros(1 << 2 * n, dtype=bool)
        present[keys] = True
        inverse = (np.cumsum(present, dtype=index_type) - 1)[keys]
        uniq = np.flatnonzero(present).astype(np.uint64)
        ux, uz = uniq & np.uint64((1 << n) - 1), uniq >> np.uint64(n)
    elif n <= 32:
        # one scalar key per pair, z in the high half: sorts in (z, x) order
        uniq, inverse = np.unique((z.ravel() << _SHIFT32) | x.ravel(), return_inverse=True)
        ux, uz = uniq & _LOW32, uniq >> _SHIFT32
    else:
        uniq, inverse = np.unique(
            np.stack((z.ravel(), x.ravel()), axis=1), axis=0, return_inverse=True
        )
        ux, uz = uniq[:, 1], uniq[:, 0]
    structure = _ProductStructure(
        phase_exp, ux, uz, inverse.ravel().astype(index_type, copy=False)
    )
    b._product_cache = (key, structure)
    return structure


def multiply_sums(
    a: PauliSum, b: PauliSum, drop_tol: float = DEFAULT_DROP_TOL
) -> PauliSum:
    """Distributed product of two sums with like-string merging.

    All |a| * |b| string products are evaluated in one vectorized pass, then
    merged; Hermitian inputs with real coefficients stay Hermitian.  The
    merge sorts the pairs' string codes only when there are fewer pairs than
    the 4^n possible strings, and addresses the strings directly otherwise
    (see the module docstring); both give the same structure.  The
    merge structure (phases, output strings, pair -> string index) comes
    from b's one-entry cache when a has exactly the strings of the last left
    operand b met (keyed on a's mask bytes), and is computed and cached on b
    otherwise.  The entry holds about 5 bytes per pair (4.0 MiB for the
    saturated 4224 x 185 H4 step) and lives as long as b.  Like strings
    are summed pair by pair in row-major (a, b) order, whether or not the
    structure was cached, so the result does not depend on the cache.
    """
    _check_qubits(a.n_qubits, b.n_qubits)
    if not a._terms or not b._terms:
        return PauliSum.zero(a.n_qubits)
    s = _product_structure(a, b)
    _, _, ca = a.mask_arrays()
    _, _, cb = b.mask_arrays()
    coeffs = ca[:, None] * cb[None, :]
    coeffs *= _PHASES_ARR[s.phase_exp]
    coeffs = coeffs.ravel()
    acc = np.empty(len(s.x), dtype=np.complex128)
    acc.real = np.bincount(s.inverse, weights=coeffs.real, minlength=len(s.x))
    acc.imag = np.bincount(s.inverse, weights=coeffs.imag, minlength=len(s.x))
    keep = np.abs(acc) > drop_tol
    return PauliSum._from_canonical(a.n_qubits, s.x[keep], s.z[keep], acc[keep])


def _sum_in_order(
    n_qubits: int, x: np.ndarray, z: np.ndarray, re: np.ndarray, im: np.ndarray,
    drop_tol: float,
) -> PauliSum:
    """Sum of the terms (x[i], z[i], re[i] + i im[i]), each string's terms
    added one after another in array order from 0.0, as a dict accumulating
    them in turn would; |c| <= drop_tol is dropped."""
    order = np.lexsort((x, z))
    x, z = x[order], z[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
    index = np.empty(len(x), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    acc = np.empty(np.count_nonzero(first), dtype=np.complex128)
    acc.real = np.bincount(index, weights=re, minlength=len(acc))
    acc.imag = np.bincount(index, weights=im, minlength=len(acc))
    keep = np.abs(acc) > drop_tol
    return PauliSum._from_canonical(n_qubits, x[first][keep], z[first][keep], acc[keep])


def allclose(a: PauliSum, b: PauliSum, tol: float = 1e-10) -> bool:
    """Coefficient-wise comparison of two sums."""
    if a.n_qubits != b.n_qubits:
        return False
    keys = set(a._terms) | set(b._terms)
    return all(
        abs(a._terms.get(k, 0.0) - b._terms.get(k, 0.0)) <= tol for k in keys
    )
