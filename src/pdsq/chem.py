"""Hydrogen-chain electronic structure: geometry, STO-3G integrals, RHF.

The built-in integral engine covers contracted s-type Gaussians only, which
is all hydrogen chains need; anything else should be imported from an
FCIDUMP file.  All energies are in hartree, geometries in Angstrom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .units import BOHR_PER_ANGSTROM

# Standard STO-3G hydrogen 1s contraction (exponents in bohr^-2).
STO3G_H_EXPONENTS = (3.42525091, 0.62391373, 0.16885540)
STO3G_H_COEFFS = (0.15432897, 0.53532814, 0.44463454)

ELEMENT_CHARGES = {"H": 1}


class ScfConvergenceError(RuntimeError):
    """SCF failed to reach the density-change threshold."""


@dataclass(frozen=True)
class Geometry:
    """Atoms as (element, xyz) with coordinates in Angstrom."""

    atoms: tuple[tuple[str, tuple[float, float, float]], ...]
    units: str = "angstrom"

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def charges(self) -> list[int]:
        try:
            return [ELEMENT_CHARGES[el] for el, _ in self.atoms]
        except KeyError as exc:
            raise ValueError(f"unsupported element: {exc.args[0]}") from None

    def coords_bohr(self) -> np.ndarray:
        return np.array([xyz for _, xyz in self.atoms]) * BOHR_PER_ANGSTROM

    def to_xyz_lines(self) -> str:
        return "\n".join(
            f"{el} {x:.10f} {y:.10f} {z:.10f}" for el, (x, y, z) in self.atoms
        )

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
    is carried as metadata so downstream stages know the default filling.
    """

    n_orbitals: int
    core_energy: float
    one_body: np.ndarray
    two_body: np.ndarray
    overlap: np.ndarray = None
    n_electrons: int = None

    def __post_init__(self):
        if self.overlap is None:
            object.__setattr__(self, "overlap", np.eye(self.n_orbitals))
        if self.n_electrons is None:
            object.__setattr__(self, "n_electrons", self.n_orbitals)


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


def _boys0(t: np.ndarray | float) -> np.ndarray | float:
    """F0(t) = (1/2) sqrt(pi/t) erf(sqrt(t)), with the t -> 0 limit handled."""
    t = np.asarray(t, dtype=float)
    small = t < 1e-12
    safe = np.where(small, 1.0, t)
    out = 0.5 * np.sqrt(np.pi / safe) * erf(np.sqrt(safe))
    return np.where(small, 1.0 - t / 3.0, out)


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


def compute_integrals(geometry: Geometry, basis: str = "STO-3G") -> IntegralSet:
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


@dataclass(frozen=True)
class ScfResult:
    coefficients: np.ndarray  # columns are orbitals, overlap-orthonormal
    orbital_energies: np.ndarray
    scf_energy: float  # total, including core_energy
    n_iterations: int


def hartree_fock(
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


def mo_integrals(ints: IntegralSet, scf: ScfResult) -> IntegralSet:
    """Integrals transformed to the (orthonormal) RHF orbital basis.

    This is the form FCIDUMP files conventionally carry; the overlap becomes
    the identity.
    """
    c = scf.coefficients
    return IntegralSet(
        n_orbitals=ints.n_orbitals,
        core_energy=ints.core_energy,
        one_body=c.T @ ints.one_body @ c,
        two_body=np.einsum(
            "mnls,mp,nq,lr,st->pqrt", ints.two_body, c, c, c, c, optimize=True
        ),
        n_electrons=ints.n_electrons,
    )


@dataclass(frozen=True)
class SpinOrbitalTables:
    """MO-basis tables over 2*n_orbitals spin orbitals, blocked (alphas first)."""

    n_spin_orbitals: int
    core_energy: float
    one_body: np.ndarray  # h[P, Q]
    two_body: np.ndarray  # antisymmetrized <PQ||RS>, physicists' notation

    def reference_energy(self, occupied) -> float:
        occ = list(occupied)
        e = self.core_energy + sum(self.one_body[i, i] for i in occ)
        e += 0.5 * sum(self.two_body[i, j, i, j] for i in occ for j in occ)
        return e


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
