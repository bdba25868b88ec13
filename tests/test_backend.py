"""Statevector engine, count tables, and the shot sampler."""

import numpy as np
import pytest

from pdsq.backend import (
    CountTable,
    NoiseModel,
    StateVector,
    apply_basis_changes,
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

from oracles import pauli_sum_to_dense


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
