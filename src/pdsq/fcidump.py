"""FCIDUMP text interchange for one- and two-electron integrals.

Layout: an &FCI header carrying NORB/NELEC/MS2 (terminated by &END or /),
then `value i j k l` records with 1-based indices in chemists' notation:
four indices for (ij|kl), `i j 0 0` for h_ij, and `0 0 0 0` for the core
energy.  Fortran D exponents are accepted on read.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .chem import IntegralSet, check_eri, fill_eri

_WRITE_THRESHOLD = 1e-14


class FcidumpError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_header(lines: list[str]) -> tuple[dict, int]:
    if not lines or "&FCI" not in lines[0].upper():
        raise FcidumpError(1, "missing &FCI header")
    header_text = ""
    end_line = None
    for i, line in enumerate(lines):
        header_text += " " + line
        if "&END" in line.upper() or line.strip() == "/" or line.strip().endswith("/"):
            end_line = i
            break
    if end_line is None:
        raise FcidumpError(len(lines), "header never terminated with &END or /")
    fields = {}
    for key in ("NORB", "NELEC", "MS2"):
        m = re.search(rf"{key}\s*=\s*(-?\d+)", header_text, re.IGNORECASE)
        if m:
            fields[key] = int(m.group(1))
    if "NORB" not in fields:
        raise FcidumpError(1, "header does not define NORB")
    if fields["NORB"] < 1:
        raise FcidumpError(1, f"NORB must be at least 1, got {fields['NORB']}")
    if fields.get("NELEC", 0) < 0:
        raise FcidumpError(1, f"NELEC must be non-negative, got {fields['NELEC']}")
    return fields, end_line + 1


def fcidump_read(path: str | Path) -> IntegralSet:
    """Parse an FCIDUMP file into an IntegralSet (identity overlap)."""
    lines = Path(path).read_text().splitlines()
    fields, body_start = _parse_header(lines)
    n = fields["NORB"]
    check_eri(n)
    one = np.zeros((n, n))
    two = np.zeros((n, n, n, n))
    core = 0.0
    for lineno, raw in enumerate(lines[body_start:], start=body_start + 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FcidumpError(lineno, f"expected 'value i j k l', got {line!r}")
        try:
            value = float(parts[0].upper().replace("D", "E"))
        except ValueError:
            raise FcidumpError(lineno, f"non-numeric value {parts[0]!r}") from None
        if not np.isfinite(value):
            raise FcidumpError(lineno, f"non-finite value {parts[0]!r}")
        try:
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError:
            raise FcidumpError(lineno, "non-integer index") from None
        for idx in (i, j, k, l):
            if idx < 0 or idx > n:
                raise FcidumpError(lineno, f"orbital index {idx} outside 1..{n}")
        if i == j == k == l == 0:
            core = value
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpError(lineno, "one-body record with a zero index")
            one[i - 1, j - 1] = one[j - 1, i - 1] = value
        elif 0 in (i, j, k, l):
            raise FcidumpError(lineno, "mixed zero/nonzero index pattern")
        else:
            fill_eri(two, i - 1, j - 1, k - 1, l - 1, value)
    return IntegralSet(
        n_orbitals=n,
        core_energy=core,
        one_body=one,
        two_body=two,
        overlap=np.eye(n),
        n_electrons=fields.get("NELEC", n),
    )


def fcidump_write(ints: IntegralSet, path: str | Path) -> None:
    """Write an IntegralSet with canonical 8-fold-unique two-body records;
    integrals of magnitude <= _WRITE_THRESHOLD are left out."""
    n = ints.n_orbitals
    out = [
        f"&FCI NORB={n},NELEC={ints.n_electrons},MS2=0,",
        " ORBSYM=" + "1," * n,
        " ISYM=1,",
        "&END",
    ]
    # pairs i >= j, and each bra pair's kets up to it, as compute_integrals
    i, j = np.tril_indices(n)
    bra, ket = np.tril_indices(len(i))
    two = ints.two_body[i[bra], j[bra], i[ket], j[ket]].tolist()
    one = ints.one_body[i, j].tolist()
    i, j = (i + 1).tolist(), (j + 1).tolist()
    rows = [(v, i[b], j[b], i[k], j[k]) for v, b, k in zip(two, bra.tolist(), ket.tolist())]
    rows += [(v, p, q, 0, 0) for v, p, q in zip(one, i, j)]
    rows = [r for r in rows if abs(r[0]) > _WRITE_THRESHOLD] + [(ints.core_energy, 0, 0, 0, 0)]
    out += ["{: .16e} {:4d} {:4d} {:4d} {:4d}".format(*row) for row in rows]
    Path(path).write_text("\n".join(out) + "\n")
