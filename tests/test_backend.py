"""Statevector engine, count tables, and the shot sampler."""

import tracemalloc

import numpy as np
import pytest

from pdsq.backend import (
    CountTable,
    NoiseModel,
    StateVector,
    apply_basis_changes,
    apply_pauli_sum,
    bits_to_index,
    exact_expectation,
    index_to_bits,
    prepare_basis_state,
    random_state,
    sample_batch,
    serial_sample,
)
from pdsq.grouping import PackedBatch, group_qwc
from pdsq.pauli import PauliString, PauliSum

from oracles import apply_pauli_sum_reference, pauli_sum_to_dense


def test_bit_conventions():
    assert index_to_bits(5, 4) == "1010"
    assert bits_to_index("1010") == 5
    assert bits_to_index([1, 0, 1, 0]) == 5
    with pytest.raises(ValueError, match="invalid bit"):
        bits_to_index("10x0")


def test_prepare_basis_state():
    s = prepare_basis_state("00000")
    assert s.amplitudes[0] == 1.0
    s = prepare_basis_state("10110")
    assert s.amplitudes[bits_to_index("10110")] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_state_validation():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="length"):
        StateVector(2, np.array([1.0, 0.0]))


def test_textbook_expectations():
    z = PauliSum.from_labels(1, {"Z": 1.0})
    assert exact_expectation(z, prepare_basis_state("0")) == pytest.approx(1.0)
    x = PauliSum.from_labels(1, {"X": 1.0})
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    assert exact_expectation(x, plus) == pytest.approx(1.0)


def test_expectation_matches_dense_oracle():
    rng = np.random.default_rng(12)
    from test_moments import random_hermitian_sum

    h = random_hermitian_sum(rng, 4, 12)
    state = random_state(4, rng)
    dense = pauli_sum_to_dense(h)
    expected = np.real(state.amplitudes.conj() @ dense @ state.amplitudes)
    assert exact_expectation(h, state) == pytest.approx(expected, abs=1e-10)


def _random_complex_sum(rng, n_qubits, n_terms, x_free=0):
    """n_terms draws of (x, z, complex coefficient); the first x_free have x = 0."""
    x = rng.integers(0, 1 << n_qubits, n_terms)
    x[:x_free] = 0
    z = rng.integers(0, 1 << n_qubits, n_terms)
    c = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    return PauliSum(n_qubits, zip(zip(x.tolist(), z.tolist()), c.tolist()))


@pytest.mark.parametrize("n_qubits", range(1, 9))
def test_matvec_matches_the_term_loop_byte_for_byte(n_qubits):
    rng = np.random.default_rng(40 + n_qubits)
    sums = [
        _random_complex_sum(rng, n_qubits, 3 * 4**n_qubits // 4, x_free=n_qubits),
        _random_complex_sum(rng, n_qubits, 5, x_free=5),  # diagonal only
        PauliSum.identity(n_qubits, 0.3 - 0.7j),
        PauliSum.zero(n_qubits),
    ]
    for h in sums:
        state = random_state(n_qubits, rng)
        got = apply_pauli_sum(h, state)
        assert got.tobytes() == apply_pauli_sum_reference(h, state).tobytes()


def test_lanczos_matvecs_match_the_term_loop(h4_problem, monkeypatch):
    """Every matvec of the exact H4 moment tables, full and tapered, on the
    Lanczos vectors the recurrence builds."""
    from pdsq import moments

    checked = []

    def compared(h, state):
        got = apply_pauli_sum(h, state)
        assert got.tobytes() == apply_pauli_sum_reference(h, state).tobytes()
        checked.append(h.n_qubits)
        return got

    monkeypatch.setattr(moments, "apply_pauli_sum", compared)
    for ctx in h4_problem.sectors.values():
        moments.moments_for_state(h4_problem.hamiltonian, ctx.state, 10)
        moments.moments_for_state(ctx.tapered_h, ctx.tapered_state, 10)
    assert len(checked) >= 4 * 8 and 8 in checked and min(checked) < 8


def test_matvec_temporaries_stay_bounded():
    """919 terms on 12 qubits (an H6-sized sum): 919 x 4096 elements would
    take 60 MB as one complex array; blocks of terms keep it to a few."""
    rng = np.random.default_rng(12)
    h = _random_complex_sum(rng, 12, 919)
    state = random_state(12, rng)
    apply_pauli_sum(h, state)  # mask arrays cached, allocator warm
    tracemalloc.start()
    try:
        out = apply_pauli_sum(h, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tobytes() == apply_pauli_sum_reference(h, state).tobytes()
    assert peak <= 4 << 20


def test_expectation_dimension_mismatch():
    z = PauliSum.from_labels(2, {"ZI": 1.0})
    with pytest.raises(ValueError, match="dimensions differ"):
        exact_expectation(z, prepare_basis_state("0"))


def test_basis_change_diagonalizes_x_and_y():
    for letter in ("X", "Y"):
        group = group_qwc([PauliString.from_label(letter)])[0]
        from pdsq.grouping import rotation_circuit

        op = PauliSum.from_labels(1, {letter: 1.0})
        rng = np.random.default_rng(3)
        state = random_state(1, rng)
        rotated = apply_basis_changes(state, rotation_circuit(group))
        probs = rotated.probabilities()
        z_value = probs[0] - probs[1]
        assert exact_expectation(op, state) == pytest.approx(z_value, abs=1e-12)


def test_count_table_validation():
    with pytest.raises(ValueError, match="sum"):
        CountTable(2, [0], [3], 4)
    with pytest.raises(ValueError, match="malformed"):
        CountTable(2, [4], [1], 1)  # index 4 needs a third bit
    with pytest.raises(ValueError, match="malformed"):
        CountTable(2, [2, 1], [1, 1], 2)  # outcomes must increase
    table = CountTable(2, [0b01, 0b10], [1, 3], 4)  # "10" and "01"
    assert table.probabilities().tolist() == [0.25, 0.75]


def test_count_table_lines_round_trip():
    table = CountTable(3, [0b010, 0b011, 0b100], [2, 1, 1], 4)  # "010" "110" "001"
    assert table.to_lines() == "001 1\n010 2\n110 1"
    again = CountTable.from_lines(table.to_lines())
    assert np.array_equal(again.outcomes, table.outcomes)
    assert np.array_equal(again.counts, table.counts)
    with pytest.raises(ValueError, match="expected"):
        CountTable.from_lines("0101\n")


def test_count_table_rejects_negative_counts():
    with pytest.raises(ValueError, match="negative count -5"):
        CountTable(2, [0b00, 0b10], [10, -5], 5)
    with pytest.raises(ValueError, match="line 2: negative count -5"):
        CountTable.from_lines("00 10\n01 -5\n")
    # a repeated key would hide the negative line in the summed table
    with pytest.raises(ValueError, match="line 2: negative count -5"):
        CountTable.from_lines("00 10\n00 -5\n")


def test_noise_model_validation():
    NoiseModel(0.0)
    NoiseModel(0.499)
    with pytest.raises(ValueError, match="0.5"):
        NoiseModel(0.5)
    with pytest.raises(ValueError, match="0.5"):
        NoiseModel(-0.1)


def test_noiseless_z_measurement_is_deterministic():
    group = group_qwc([PauliString.from_label("ZZZZZ")])[0]
    counts = serial_sample(prepare_basis_state("00000"), group, 100, seed=3)
    assert (counts.outcomes.tolist(), counts.counts.tolist()) == ([0], [100])


def test_all_zero_state_batch_sampling():
    group = group_qwc([PauliString.from_label("ZIIII")])[0]
    batch = PackedBatch(((group, 0), (group, 5), (group, 10), (group, 15)), 20)
    states = [prepare_basis_state("00000")] * 4
    counts = sample_batch(states, batch, 50, seed=5)
    assert (counts.outcomes.tolist(), counts.counts.tolist()) == ([0], [50])
    assert counts.n_bits == 20


def test_seeded_runs_bit_identical():
    group = group_qwc([PauliString.from_label("XYZIX")])[0]
    rng = np.random.default_rng(0)
    state = random_state(5, rng)
    def histogram(table):
        return table.outcomes.tolist(), table.counts.tolist()

    a = serial_sample(state, group, 2000, NoiseModel(0.01), seed=42)
    b = serial_sample(state, group, 2000, NoiseModel(0.01), seed=42)
    assert histogram(a) == histogram(b)
    c = serial_sample(state, group, 2000, NoiseModel(0.01), seed=43)
    assert histogram(c) != histogram(a)


def test_shot_validation():
    group = group_qwc([PauliString.from_label("ZIIII")])[0]
    with pytest.raises(ValueError, match="positive"):
        serial_sample(prepare_basis_state("00000"), group, 0)
    batch = PackedBatch(((group, 0),), 20)
    with pytest.raises(ValueError, match="one prepared state"):
        sample_batch([], batch, 10)


def test_sampled_expectations_within_binomial_error():
    from pdsq.grouping import expectations_from_group_counts

    rng = np.random.default_rng(8)
    state = random_state(5, rng)
    labels = ["XXIII", "IXXII", "XIXIX"]
    group = group_qwc([PauliString.from_label(s) for s in labels])[0]
    shots = 200_000
    counts = serial_sample(state, group, shots, seed=77)
    values = expectations_from_group_counts(counts, group)
    for member, estimate in values.items():
        exact = exact_expectation(PauliSum.from_string(member), state)
        sigma = np.sqrt(max(1e-12, 1.0 - exact**2) / shots)
        assert abs(estimate - exact) < 5 * sigma + 1e-6


def test_spam_flips_shift_distribution():
    group = group_qwc([PauliString.from_label("ZZZZZ")])[0]
    counts = serial_sample(
        prepare_basis_state("00000"), group, 100_000, NoiseModel(0.05), seed=1
    )
    # each bit flips independently with p=0.05
    p_clean = counts.counts[counts.outcomes == 0].sum() / counts.shots
    assert p_clean == pytest.approx(0.95**5, abs=5e-3)
