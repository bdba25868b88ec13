"""Hydrogen-chain electronic structure: geometry, STO-3G integrals, RHF.

The built-in integral engine covers contracted s-type Gaussians only, which
is all hydrogen chains need; anything else should be imported from an
FCIDUMP file.  All energies are in hartree, geometries in Angstrom.

Every H shell has the same normalized STO-3G contraction, so the shell set
is just the (n, 3) array of centres.  The integrals run on array passes
over the canonical shell pairs i >= j (np.tril_indices order): each pair's
|AB|^2, K_AB and product centres are formed once; overlap, kinetic and
nuclear attraction are reductions over those arrays; the two-electron
integrals take one pass per bra pair over all ket pairs up to it, which
bounds the temporaries by the pair count, and reach the 8-fold symmetric
tensor through index arrays.

The results keep the bits of a per-pair loop (tests/oracles.py keeps one
for comparison).  Each 3x3 or 3^4 primitive block is summed along a
C-contiguous last axis, the pairwise order np.sum takes over a lone block.
Only the lower triangle is computed and then mirrored, because the (j, i)
block is the transpose of the (i, j) block and would sum in another order.
|AB|^2 is one np.dot per pair, which an elementwise sum does not reproduce.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .budget import check_memory
from .units import BOHR_PER_ANGSTROM

# Standard STO-3G hydrogen 1s contraction (exponents in bohr^-2).
STO3G_H_EXPONENTS = (3.42525091, 0.62391373, 0.16885540)
STO3G_H_COEFFS = (0.15432897, 0.53532814, 0.44463454)

ELEMENT_CHARGES = {"H": 1}

DENSITY_TOL = 1e-10  # largest density-matrix change of a converged SCF
DIIS_SIZE = 8  # Fock and error matrices the DIIS extrapolation keeps
MAX_SCF_ITERATIONS = 200  # SCF cycles before ScfConvergenceError


class ScfConvergenceError(RuntimeError):
    """SCF failed to reach the density-change threshold."""


@dataclass(frozen=True)
class Geometry:
    """Atoms as (element, xyz) with coordinates in Angstrom."""

    atoms: tuple[tuple[str, tuple[float, float, float]], ...]

    def charges(self) -> list[int]:
        try:
            return [ELEMENT_CHARGES[el] for el, _ in self.atoms]
        except KeyError as exc:
            raise ValueError(f"unsupported element: {exc.args[0]}") from None

    def coords_bohr(self) -> np.ndarray:
        return np.array([xyz for _, xyz in self.atoms]) * BOHR_PER_ANGSTROM

    @classmethod
    def from_xyz_lines(cls, text: str) -> "Geometry":
        atoms = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 'element x y z'")
            el = parts[0]
            try:
                xyz = tuple(float(p) for p in parts[1:])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric coordinate") from None
            if not all(map(math.isfinite, xyz)):
                raise ValueError(f"line {lineno}: non-finite coordinate")
            atoms.append((el, xyz))
        if not atoms:
            raise ValueError("no atoms in geometry text")
        return cls(tuple(atoms))


def build_h_chain(spacings: list[float]) -> Geometry:
    """Collinear H atoms on the z axis: n spacings give n+1 atoms from the origin."""
    for s in spacings:
        if not 0.0 < s < 100.0:
            raise ValueError(f"spacing out of range (0, 100) Angstrom: {s}")
    z = 0.0
    positions = [0.0]
    for s in spacings:
        z += s
        positions.append(z)
    return Geometry(tuple(("H", (0.0, 0.0, p)) for p in positions))


@dataclass(frozen=True)
class IntegralSet:
    """AO (or imported orthonormal-basis) integrals in hartree.

    two_body holds (pq|rs) in chemists' notation with 8-fold symmetry;
    overlap is the identity for imported orthonormal integrals.  n_electrons
    is the filling that the SCF and the reference determinants use.
    """

    n_orbitals: int
    core_energy: float
    one_body: np.ndarray
    two_body: np.ndarray
    overlap: np.ndarray
    n_electrons: int


def nuclear_repulsion(geometry: Geometry) -> float:
    charges = geometry.charges()
    coords = geometry.coords_bohr()
    energy = 0.0
    for i in range(len(charges)):
        for j in range(i + 1, len(charges)):
            r = np.linalg.norm(coords[i] - coords[j])
            if r <= 0.0:
                raise ValueError(f"coincident atoms {i} and {j}")
            energy += charges[i] * charges[j] / r
    return energy


# math.erf elementwise: NumPy has no erf of its own
_erf = np.frompyfunc(math.erf, 1, 1)


def _boys0(t: np.ndarray | float) -> np.ndarray | float:
    """F0(t) = (1/2) sqrt(pi/t) erf(sqrt(t)), with the t -> 0 limit handled."""
    t = np.asarray(t, dtype=float)
    small = t < 1e-12
    safe = np.where(small, 1.0, t)
    out = 0.5 * np.sqrt(np.pi / safe) * np.asarray(_erf(np.sqrt(safe)), dtype=float)
    return np.where(small, 1.0 - t / 3.0, out)


# Primitive-pair constants shared by every shell pair: exponents a and b, the
# product exponent p = a + b, the reduced exponent mu = ab/p, and the weights
# c_a c_b from the contraction coefficients times the primitive norms,
# renormalized so that the contracted 1s function has unit norm.
_A = np.array(STO3G_H_EXPONENTS)[:, None]
_B = _A.T
_P = _A + _B
_MU = _A * _B / _P
_C = np.array(STO3G_H_COEFFS) * (2.0 * _A[:, 0] / np.pi) ** 0.75
_C = _C / math.sqrt(_C @ (np.pi / _P) ** 1.5 @ _C)
_W = _C[:, None] * _C[None, :]


def _block_sums(blocks: np.ndarray) -> np.ndarray:
    """Sum of each leading-axis entry's primitive block, in np.sum's order."""
    return blocks.reshape(len(blocks), -1).sum(-1)


def fill_eri(two: np.ndarray, i, j, k, l, value) -> None:
    """Set (ij|kl) and its 8-fold images in two, in place; indices may be arrays."""
    for a, b in ((i, j), (j, i)):
        for c, d in ((k, l), (l, k)):
            two[a, b, c, d] = two[c, d, a, b] = value


def check_eri(n: int) -> None:
    """Budget the n^4 float64 two-electron table of n orbitals before it exists."""
    check_memory(f"the two-electron table of {n} orbitals", 8 * n**4)


def compute_integrals(geometry: Geometry) -> IntegralSet:
    """Overlap, core-Hamiltonian and two-electron integrals for an H chain."""
    charges = geometry.charges()  # validates elements (H only)
    coords = geometry.coords_bohr()
    n = len(coords)
    check_eri(n)

    # canonical shell pairs i >= j, and each pair's Gaussian products
    i, j = np.tril_indices(n)
    ab2 = np.array([np.dot(d, d) for d in coords[i] - coords[j]])[:, None, None]
    kab = np.exp(-_MU * ab2)
    ci, cj = coords[i][:, None, None], coords[j][:, None, None]
    centers = (_A[..., None] * ci + _B[..., None] * cj) / _P[..., None]

    s_prim = (np.pi / _P) ** 1.5 * kab
    t_prim = _MU * (3.0 - 2.0 * _MU * ab2) * s_prim
    v = np.zeros(len(i))
    for zc, rc in zip(charges, coords):
        pc2 = np.sum((centers - rc) ** 2, axis=-1)
        v -= zc * _block_sums(_W * (2.0 * np.pi / _P) * kab * _boys0(_P * pc2))
    lower = (_block_sums(_W * s_prim), _block_sums(_W * t_prim), v)
    one = np.zeros((3, n, n))
    one[:, i, j] = one[:, j, i] = lower
    overlap, kinetic, attraction = one

    # (ij|kl) for each bra pair against all ket pairs up to it
    pp, qq = _P[:, :, None, None], _P[None, None, :, :]
    pref = 2.0 * np.pi**2.5 / (pp * qq * np.sqrt(pp + qq))
    rho = pp * qq / (pp + qq)
    w_pref = _W[:, :, None, None] * _W[None, None, :, :] * pref
    vals = []
    for bra in range(len(i)):
        kets = slice(bra + 1)
        pq = centers[bra, :, :, None, None, :] - centers[kets, None, None]
        f0 = _boys0(rho * np.sum(pq**2, axis=-1))
        vals.append(
            _block_sums(w_pref * kab[bra, ..., None, None] * kab[kets, None, None] * f0)
        )
    bra, ket = np.tril_indices(len(i))
    two_body = np.zeros((n, n, n, n))
    fill_eri(two_body, i[bra], j[bra], i[ket], j[ket], np.concatenate(vals))

    return IntegralSet(
        n_orbitals=n,
        core_energy=nuclear_repulsion(geometry),
        one_body=kinetic + attraction,
        two_body=two_body,
        overlap=overlap,
        n_electrons=sum(charges),
    )


@dataclass(frozen=True)
class ScfResult:
    coefficients: np.ndarray  # columns are orbitals, overlap-orthonormal
    orbital_energies: np.ndarray
    scf_energy: float  # total, including core_energy
    n_iterations: int


def hartree_fock(ints: IntegralSet) -> ScfResult:
    """Restricted closed-shell SCF of ints.n_electrons electrons from a
    core-Hamiltonian guess, with DIIS."""
    if ints.n_electrons % 2 != 0:
        raise ValueError("restricted SCF needs an even electron count")
    n_occ = ints.n_electrons // 2
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
    for iteration in range(1, MAX_SCF_ITERATIONS + 1):
        fock = fock_of(p)

        err = x.T @ (fock @ p @ s - s @ p @ fock) @ x
        fock_hist.append(fock)
        err_hist.append(err)
        if len(fock_hist) > DIIS_SIZE:
            fock_hist.pop(0)
            err_hist.pop(0)
        if len(fock_hist) > 1:
            m = len(fock_hist)
            errs = np.array(err_hist).reshape(m, -1)
            b = -np.ones((m + 1, m + 1))
            b[m, m] = 0.0
            b[:m, :m] = (errs[:, None] * errs[None]).sum(-1)
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
        if delta < DENSITY_TOL:
            fock = fock_of(p)
            e_elec = 0.5 * np.sum(p * (hcore + fock))
            energies, c = solve_orbitals(fock)
            return ScfResult(c, energies, e_elec + ints.core_energy, iteration)
    raise ScfConvergenceError(
        f"SCF not converged after {MAX_SCF_ITERATIONS} iterations (last change {delta:.3e})"
    )


_MO_TRANSFORM = "mnls,mp,nq,lr,st->pqrt"


@functools.cache
def _mo_transform_path(eri_shape: tuple, c_shape: tuple) -> tuple:
    """The contraction order optimize=True picks for these shapes, searched
    once: it depends on the shapes alone and fixes the MO integral bits."""
    eri, c = np.zeros(eri_shape), np.zeros(c_shape)
    return tuple(np.einsum_path(_MO_TRANSFORM, eri, c, c, c, c, optimize=True)[0])


def mo_integrals(ints: IntegralSet, scf: ScfResult) -> IntegralSet:
    """Integrals transformed to the (orthonormal) RHF orbital basis.

    This is the form FCIDUMP files conventionally carry; the overlap becomes
    the identity.
    """
    c = scf.coefficients
    path = _mo_transform_path(ints.two_body.shape, c.shape)
    return IntegralSet(
        n_orbitals=ints.n_orbitals,
        core_energy=ints.core_energy,
        one_body=c.T @ ints.one_body @ c,
        two_body=np.einsum(_MO_TRANSFORM, ints.two_body, c, c, c, c, optimize=path),
        overlap=np.eye(ints.n_orbitals),
        n_electrons=ints.n_electrons,
    )


@dataclass(frozen=True)
class SpinOrbitalTables:
    """MO-basis tables over 2*n_orbitals spin orbitals, blocked (alphas first)."""

    n_spin_orbitals: int
    core_energy: float
    one_body: np.ndarray  # h[P, Q]
    two_body: np.ndarray  # antisymmetrized <PQ||RS>, physicists' notation


def second_quantized_hamiltonian(ints: IntegralSet, scf: ScfResult) -> SpinOrbitalTables:
    """Transform AO integrals to the MO basis and expand to spin orbitals."""
    n = ints.n_orbitals
    if scf.coefficients.shape != (n, n):
        raise ValueError("orbital coefficient shape does not match integral set")
    mo = mo_integrals(ints, scf)
    h_mo = mo.one_body
    eri_mo = mo.two_body

    m = 2 * n
    spin = np.repeat([0, 1], n)
    spatial = np.tile(np.arange(n), 2)
    same_spin = spin[:, None] == spin[None, :]
    one = np.where(same_spin, h_mo[np.ix_(spatial, spatial)], 0.0)

    # <PQ||RS> = <PQ|RS> - <PQ|SR> with <PQ|RS> = (pr|qs) on matching spins;
    # each element is 0.0 (+ (pr|qs)) (- (ps|qr)), the terms present in turn
    eri = eri_mo[np.ix_(spatial, spatial, spatial, spatial)]  # (pr|qs) at [P, R, Q, S]
    direct = same_spin[:, None, :, None] & same_spin[None, :, None, :]  # P~R, Q~S
    exchange = same_spin[:, None, None, :] & same_spin[None, :, :, None]  # P~S, Q~R
    two = (0.0 + np.where(direct, eri.transpose(0, 2, 1, 3), 0.0)) - np.where(
        exchange, eri.transpose(0, 2, 3, 1), 0.0
    )
    return SpinOrbitalTables(m, ints.core_energy, one, two)


@dataclass(frozen=True)
class ReferenceDeterminant:
    """Computational-basis determinant: occupied spin-orbital indices, blocked."""

    n_spin_orbitals: int
    occupied: tuple[int, ...]
    s_z: float

    @property
    def occupation_mask(self) -> int:
        mask = 0
        for k in self.occupied:
            mask |= 1 << k
        return mask

    @property
    def bits(self) -> str:
        return "".join(
            "1" if k in set(self.occupied) else "0"
            for k in range(self.n_spin_orbitals)
        )


def reference_determinant(
    sector: str, n_electrons: int, n_spin_orbitals: int
) -> ReferenceDeterminant:
    """Lowest-energy determinant of the requested spin sector (aufbau filling).

    'singlet' doubly occupies the lowest spatial orbitals (s_z = 0);
    'triplet' promotes one beta electron to the next alpha orbital (s_z = 1),
    which is the lowest determinant with s_z = 1 by orbital-energy ordering.
    """
    if n_electrons > n_spin_orbitals:
        raise ValueError("electron count exceeds spin-orbital count")
    n_spatial = n_spin_orbitals // 2
    if sector == "singlet":
        if n_electrons % 2 != 0:
            raise ValueError("singlet sector needs an even electron count")
        pairs = n_electrons // 2
        occ = list(range(pairs)) + [n_spatial + k for k in range(pairs)]
        sz = 0.0
    elif sector == "triplet":
        if n_electrons % 2 != 0:
            raise ValueError("triplet reference defined for even electron counts")
        n_alpha = n_electrons // 2 + 1
        n_beta = n_electrons // 2 - 1
        if n_alpha > n_spatial or n_beta < 0:
            raise ValueError("triplet occupation does not fit the orbital space")
        occ = list(range(n_alpha)) + [n_spatial + k for k in range(n_beta)]
        sz = 1.0
    else:
        raise ValueError(f"unknown sector: {sector!r}")
    return ReferenceDeterminant(n_spin_orbitals, tuple(sorted(occ)), sz)
