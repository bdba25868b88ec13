"""FCIDUMP reader/writer round trips and error reporting."""

import re
import tracemalloc

import numpy as np
import pytest

from pdsq import chem
from pdsq.budget import MemoryBudgetError
from pdsq.fcidump import FcidumpError, fcidump_read, fcidump_write

HAND_BUILT = """&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
 0.6745 1 1 1 1
 0.6634 2 2 1 1
 0.6973 2 2 2 2
 0.1813 2 1 2 1
-1.2524 1 1 0 0
-0.4759 2 2 0 0
 1.146553 0 0 0 0
"""


def test_hand_built_file_round_trip(tmp_path):
    src = tmp_path / "h2.fcidump"
    src.write_text(HAND_BUILT)
    ints = fcidump_read(src)
    assert ints.n_orbitals == 2
    assert ints.n_electrons == 2
    assert ints.core_energy == pytest.approx(1.146553)
    assert ints.one_body[0, 0] == pytest.approx(-1.2524)
    assert ints.two_body[1, 1, 0, 0] == pytest.approx(0.6634)
    # 8-fold symmetry was expanded
    assert ints.two_body[0, 0, 1, 1] == pytest.approx(0.6634)
    assert ints.two_body[1, 0, 1, 0] == pytest.approx(0.1813)
    assert ints.two_body[0, 1, 0, 1] == pytest.approx(0.1813)

    out = tmp_path / "h2b.fcidump"
    fcidump_write(ints, out)
    again = fcidump_read(out)
    assert np.allclose(again.one_body, ints.one_body, atol=1e-12)
    assert np.allclose(again.two_body, ints.two_body, atol=1e-12)
    assert again.core_energy == pytest.approx(ints.core_energy, abs=1e-12)


def test_computed_integrals_round_trip(tmp_path, h2_system):
    ints = h2_system["integrals"]
    path = tmp_path / "h2.fcidump"
    # FCIDUMP assumes an orthonormal basis: export in the RHF orbital basis
    mo = chem.mo_integrals(ints, h2_system["scf"])
    fcidump_write(mo, path)
    again = fcidump_read(path)
    assert np.allclose(again.one_body, mo.one_body, atol=1e-12)
    assert np.allclose(again.two_body, mo.two_body, atol=1e-12)
    # the re-imported integrals give the same SCF energy (orthonormal basis)
    scf = chem.hartree_fock(again)
    assert scf.scf_energy == pytest.approx(h2_system["scf"].scf_energy, abs=1e-8)


def test_missing_header_names_line_1(tmp_path):
    path = tmp_path / "bad.fcidump"
    path.write_text("1.0 1 1 1 1\n")
    with pytest.raises(FcidumpError, match="line 1.*&FCI"):
        fcidump_read(path)


def test_index_out_of_range_reports_line(tmp_path):
    path = tmp_path / "bad.fcidump"
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n1.0 3 1 1 1\n")
    with pytest.raises(FcidumpError, match="line 3"):
        fcidump_read(path)


def test_non_numeric_value_reports_line(tmp_path):
    path = tmp_path / "bad.fcidump"
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\nabc 1 1 1 1\n")
    with pytest.raises(FcidumpError, match="line 3.*non-numeric"):
        fcidump_read(path)


@pytest.mark.parametrize("value", ["nan", "-inf", "1D+999"])
def test_non_finite_value_reports_line(tmp_path, value):
    path = tmp_path / "bad.fcidump"
    path.write_text(f"&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.5 1 1 1 1\n{value} 2 1 2 1\n")
    with pytest.raises(FcidumpError, match=re.escape(f"line 4: non-finite value '{value}'")):
        fcidump_read(path)


def test_fortran_d_exponents(tmp_path):
    path = tmp_path / "d.fcidump"
    path.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n-1.25D+00 1 1 0 0\n")
    ints = fcidump_read(path)
    assert ints.one_body[0, 0] == pytest.approx(-1.25)


def test_core_energy_record(tmp_path):
    path = tmp_path / "core.fcidump"
    path.write_text("&FCI NORB=1,NELEC=1,MS2=1,\n&END\n1.146553 0 0 0 0\n")
    assert fcidump_read(path).core_energy == pytest.approx(1.146553)


@pytest.mark.parametrize("header, message", [
    ("NORB=0,NELEC=2", "NORB must be at least 1, got 0"),
    ("NORB=-2,NELEC=2", "NORB must be at least 1, got -2"),
    ("NORB=2,NELEC=-2", "NELEC must be non-negative, got -2"),
])
def test_header_counts_out_of_range_name_the_field(tmp_path, header, message):
    # unchecked, NORB < 1 failed inside NumPy and NELEC < 0 ran SCF to its cap
    path = tmp_path / "bad.fcidump"
    path.write_text(f"&FCI {header},MS2=0,\n&END\n1.0 0 0 0 0\n")
    with pytest.raises(FcidumpError, match=re.escape(f"line 1: {message}")):
        fcidump_read(path)


def test_norb_past_the_budget_is_refused_before_the_tables(tmp_path):
    """NORB comes from outside input: a header-only NORB=120 file needs a
    1.66 GB two-electron table, and is refused naming the bytes and the cap
    before any table exists (unchecked, NumPy failed to allocate it under a
    2 GB address limit)."""
    path = tmp_path / "wide.fcidump"
    path.write_text("&FCI NORB=120,NELEC=2,MS2=0,\n&END\n")
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError, match=re.escape(
            "the two-electron table of 120 orbitals: 1658880000 bytes exceed the cap "
            "MEMORY_BUDGET = 1073741824 bytes"
        )):
            fcidump_read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
