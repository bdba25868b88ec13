"""Hamiltonian powers, moment evaluation, and the unique-string ledger."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pdsq import budget, moments, pauli
from pdsq.backend import StateVector, apply_pauli_sum, prepare_basis_state
from pdsq.budget import MemoryBudgetError
from pdsq.moments import PowerCache, moments_for_state, unique_string_count
from pdsq.pauli import PauliString, PauliSum, multiply_sums
from pdsq.pipeline import unique_measured_strings

from helpers import from_labels, random_state, random_sum
from oracles import pauli_sum_to_dense, string_ledger


def test_power_trivials():
    identity = PauliString.identity(1)
    z = from_labels(1, {"Z": 1.0})
    assert PowerCache(z).power(2).coefficient(identity) == pytest.approx(1.0)
    assert PowerCache(z).power(2).n_terms == 1

    xz = from_labels(1, {"X": 1.0, "Z": 1.0})
    sq = PowerCache(xz).power(2)
    assert sq.n_terms == 1
    assert sq.coefficient(identity) == pytest.approx(2.0)

    assert PowerCache(z).power(0).coefficient(identity) == 1.0


def test_power_matches_dense_oracle():
    rng = np.random.default_rng(31)
    h = random_sum(rng, 3, 10)
    dense = pauli_sum_to_dense(h)
    cache = PowerCache(h)
    expected = np.linalg.matrix_power(dense, 5)
    assert np.max(np.abs(pauli_sum_to_dense(cache.power(5)) - expected)) < 1e-10


def test_repeated_squaring_agrees_with_iteration():
    rng = np.random.default_rng(5)
    h = random_sum(rng, 3, 8)
    cache = PowerCache(h)
    h2 = multiply_sums(h, h)
    h4 = multiply_sums(h2, h2)
    direct = cache.power(4)
    for s, c in h4.terms():
        assert direct.coefficient(s) == pytest.approx(c, abs=1e-10)


def test_cache_validation():
    cache = PowerCache(from_labels(1, {"Z": 1.0}))
    with pytest.raises(ValueError, match="non-negative"):
        cache.power(-1)


def test_term_budget_overflow(monkeypatch):
    """A step over the memory budget is refused before its product is
    built: the powers and H's kept matrix stay as they were."""
    rng = np.random.default_rng(17)
    h = random_sum(rng, 4, 30)
    cache = PowerCache(h)
    cache.power(2)
    kept = h._walsh
    monkeypatch.setattr(budget, "MEMORY_BUDGET", pauli._PRODUCT_ARRAYS * 8 * 4**4 - 1)
    with pytest.raises(MemoryBudgetError, match="cap"):
        cache.power(3)
    assert max(cache._powers) == 2
    assert h._walsh is kept


def test_over_budget_step_fails_before_allocating():
    """13 qubits is the narrowest width whose product's six 4^n-entry arrays
    exceed MEMORY_BUDGET (2^30 bytes): H^2 is refused before any of them
    exists, naming the arrays, the bytes and the cap."""
    h = PauliSum(13, [((k, 0), 1.0) for k in range(1, 4034)])
    cache = PowerCache(h)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError) as err:
            cache.power(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 48 * 4**12 <= budget.MEMORY_BUDGET < 48 * 4**13
    assert str(err.value) == (
        "a product on 13 qubits needs 6 dense 8192 x 8192 arrays: 3221225472 bytes "
        "exceed the cap MEMORY_BUDGET = 1073741824 bytes"
    )
    assert peak < 1 << 20
    assert max(cache._powers) == 1


def test_lanczos_basis_is_budgeted_before_allocating():
    """K = 2100 Lanczos vectors of 2^16 amplitudes, with the matvec's three,
    would take 1.1 GB: refused before the basis exists."""
    state = prepare_basis_state("0" * 16)
    h = from_labels(16, {"Z" * 16: 1.0})
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError) as err:
            moments_for_state(h, state, 2100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "2100 Lanczos vectors of 65536 amplitudes: 1102577664 bytes exceed the cap "
        "MEMORY_BUDGET = 1073741824 bytes"
    )
    assert peak < 1 << 20


def test_moments_of_basis_state_with_z():
    z = from_labels(1, {"Z": 1.0})
    table = moments_for_state(z, prepare_basis_state("0"), K=3)
    assert np.allclose(table.values, 1.0)
    assert table.values[0] == 1.0


def test_complex_expectations_are_refused_alike():
    """exact_expectation, moments_for_state and exact_spectrum take only real
    symmetric sums and real states, so none checks its input: 0.5i Z and a
    complex amplitude are refused where they would be built."""
    with pytest.raises(
        ValueError,
        match=r"^complex coefficient 0\.5j on term masks \(0, 1\): a PauliSum is real symmetric$",
    ):
        PauliSum(2, {(0, 1): 0.5j})  # 0.5i Z on qubit 0
    with pytest.raises(ValueError, match="^state has a complex amplitude: states are real$"):
        StateVector(2, np.array([0.0, 1j, 0.0, 0.0]))


def test_moment_table_bookkeeping():
    z = from_labels(1, {"Z": 1.0})
    table = moments_for_state(z, prepare_basis_state("0"), K=3)
    assert table.max_power == 5
    assert len(table.values) == 6


def test_singlet_first_moment_is_scf_energy(h4_problem):
    table = moments_for_state(
        h4_problem.hamiltonian, h4_problem.sectors["singlet"].state, 2
    )
    assert table.values[0] == 1.0
    assert table.values[1] == pytest.approx(h4_problem.scf.scf_energy, abs=1e-10)


def test_moments_match_dense_oracle():
    rng = np.random.default_rng(3)
    h = random_sum(rng, 3, 12)
    state = random_state(3, rng)
    dense = pauli_sum_to_dense(h)
    table = moments_for_state(h, state, K=4)
    v = state.amplitudes
    for n in range(8):
        expected = np.real(v.conj() @ np.linalg.matrix_power(dense, n) @ v)
        assert table.values[n] == pytest.approx(expected, abs=1e-10)


def test_exact_moments_never_multiply_powers(h4_problem, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("exact moments built a Hamiltonian power")

    monkeypatch.setattr(moments, "multiply_sums", forbidden)
    table = moments_for_state(
        h4_problem.hamiltonian, h4_problem.sectors["singlet"].state, 10
    )
    assert table.values[1] == pytest.approx(h4_problem.scf.scf_energy, abs=1e-10)
    assert table.recurrence.order == 10


def test_split_power_pipelined_cross_check(h4_problem):
    """<phi|H^n|phi> via repeated statevector application of H^(a), H^(b)."""
    h = h4_problem.hamiltonian
    state = h4_problem.sectors["singlet"].state
    table = moments_for_state(h, state, K=3)
    for n, (a, b) in ((3, (1, 2)), (5, (2, 3)), (4, (2, 2))):
        # <phi| H^a H^b |phi> contracted from two half-power applications
        va = apply_pauli_sum(h4_problem.cache.power(a), state)
        vb = apply_pauli_sum(h4_problem.cache.power(b), state)
        pipelined = np.real(np.vdot(va, vb))
        assert table.values[n] == pytest.approx(pipelined, rel=1e-9)


def test_unique_count_single_string_hamiltonian():
    z = from_labels(1, {"Z": 2.0})
    assert unique_string_count(PowerCache(z), 6) == [1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize(
    "n_qubits, n_terms, max_power, seed",
    [(1, 2, 6, 1), (3, 10, 5, 2), (5, 14, 4, 3), (9, 8, 4, 4), (64, 6, 1, 5)],
)
def test_ledger_matches_string_set_oracle(n_qubits, n_terms, max_power, seed):
    """Contents, (z, x) order and per-power counts of the mask-array ledger
    equal a set of PauliStrings, also past the 32 qubits a packed key holds
    (at 64 qubits only H^1, since a product there is over the budget)."""
    rng = np.random.default_rng(seed)
    h = random_sum(rng, n_qubits, n_terms)
    cache = PowerCache(h)
    strings, counts = string_ledger(cache.power(n) for n in range(1, max_power + 1))
    assert unique_measured_strings(cache, max_power) == strings
    assert unique_string_count(cache, max_power) == counts
    assert unique_string_count(PowerCache(h), max_power) == counts


@pytest.mark.parametrize("n_qubits, n_terms, seed", [(3, 10, 2), (5, 14, 3), (9, 6, 5)])
def test_ledger_is_kept_per_cache_and_power(n_qubits, n_terms, seed, monkeypatch):
    """Each (cache, max_power) ledger is built once, kept read-only and
    apart from the others; a kept one, its column map included, is read
    back without touching the powers, and the counts still equal the
    string-set oracle's."""
    rng = np.random.default_rng(seed)
    cache = PowerCache(random_sum(rng, n_qubits, n_terms))
    want = {}
    # H^3 of a 3-qubit sum can already hold all 35 real symmetric strings
    for m in (2, 1, 3):
        want[m] = string_ledger(cache.power(n) for n in range(1, m + 1))
        assert unique_measured_strings(cache, m) == want[m][0]
    kept = {m: cache.ledger(m) for m in want}
    for m, ledger in kept.items():
        assert not ledger.first.flags.writeable and not ledger.columns.flags.writeable
        with pytest.raises(ValueError):
            ledger.first[0] = 1
        with pytest.raises(ValueError):
            ledger.columns[0] = 1
    assert len(kept[1].strings) < len(kept[2].strings) < len(kept[3].strings)
    columns = {m: ledger.columns for m, ledger in kept.items()}

    filled = dict(cache._powers)

    def refuse(*args):
        raise AssertionError("a kept ledger filled a power")

    monkeypatch.setattr(cache, "power", refuse)
    monkeypatch.setattr(moments, "multiply_sums", refuse)
    for m in (3, 1, 2):
        assert unique_measured_strings(cache, m) == want[m][0]
        assert unique_measured_strings(cache, m) == want[m][0]
        assert unique_string_count(cache, m) == want[m][1]
        assert cache.ledger(m) is kept[m] and cache.ledger(m).columns is columns[m]
    assert cache._powers == filled


@pytest.mark.parametrize("sector", [None, "singlet", "triplet"])
def test_unique_count_reads_its_own_cache(h4_problem, sector):
    """The counts are those of the cache passed, full or tapered: cumulative
    tallies of its own ledger's first powers, and of its own powers' strings."""
    cache = h4_problem.cache if sector is None else h4_problem.sectors[sector].tapered_cache
    first = cache.ledger(19).first
    counts = unique_string_count(cache, 19)
    assert counts == [int(np.count_nonzero(first <= n)) for n in range(1, 20)]
    assert counts == string_ledger(cache.power(n) for n in range(1, 20))[1]


def test_unique_count_monotone_and_bounded(h4_problem):
    counts = unique_string_count(h4_problem.cache, 19)
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    n = h4_problem.hamiltonian.n_qubits
    assert counts[-1] <= 2 ** (n - 1) * (2**n + 1)


def test_hankel_matrix_is_positive_semidefinite(h4_problem):
    table = moments_for_state(
        h4_problem.hamiltonian, h4_problem.sectors["singlet"].state, 10
    )
    K = 10
    idx = np.arange(1, K + 1)
    M = table.values[2 * K - idx[:, None] - idx[None, :]]
    eigs = np.linalg.eigvalsh(M)
    assert eigs.min() > -1e-8


def test_ladders_do_not_depend_on_the_blas_thread_count():
    """H^1..H^19 of H4's three ladders have the same strings and coefficient
    bytes at 1 and at 2 OpenBLAS threads: each runs in a child process, and
    the two sha256 digests are compared with each other."""
    script = (
        "import hashlib\n"
        "from pdsq.pipeline import RunConfig, build_problem\n"
        "problem = build_problem(RunConfig(spacings=(2.0, 2.0, 2.0)))\n"
        "digest = hashlib.sha256()\n"
        "caches = [problem.cache] + [s.tapered_cache for s in problem.sectors.values()]\n"
        "for cache in caches:\n"
        "    for n in range(1, 20):\n"
        "        for a in cache.power(n).mask_arrays():\n"
        "            digest.update(a.tobytes())\n"
        "print(digest.hexdigest())\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1]
