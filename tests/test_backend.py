"""Statevector engine, count tables, and the shot sampler."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from pdsq import budget
from pdsq.backend import (
    FLIP_BYTES,
    SHOT_BYTES,
    CountTable,
    NoiseModel,
    StateVector,
    _distinct_positions,
    apply_pauli_sum,
    bits_to_index,
    exact_expectation,
    index_to_bits,
    prepare_basis_state,
    sample_batch,
    serial_sample,
)
from pdsq.budget import MemoryBudgetError
from pdsq.grouping import PackedBatch, group_qwc
from pdsq.pauli import PauliString, PauliSum

from helpers import from_labels, random_state, random_sum
from oracles import (
    apply_pauli_sum_reference,
    basis_change_reference,
    dense_string,
    packed_distribution_reference,
    pauli_sum_to_dense,
    rotate_to_eigenbases,
)

# False-alarm rate of each statistical check of the sampler: the probability
# that a correct sampler fails it at a fresh seed.
ALPHA = 1e-5


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


def test_basis_state_is_budgeted_before_its_amplitudes():
    """A 28-qubit state would take 2 GiB of float64 amplitudes: refused
    before any is allocated, naming the bytes and the cap."""
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError) as err:
            prepare_basis_state("0" * 28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "a 28-qubit state: 2147483648 bytes exceed the cap MEMORY_BUDGET = 1073741824 bytes"
    )
    assert peak < 1 << 20


def test_state_validation():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="length"):
        StateVector(2, np.array([1.0, 0.0]))


def test_states_are_real():
    """A complex amplitude is refused at construction; complex input with
    zero imaginary parts, lists and integers become float64 amplitudes."""
    with pytest.raises(ValueError, match="^state has a complex amplitude: states are real$"):
        StateVector(1, np.array([0.6, 0.8j]))
    with pytest.raises(ValueError, match="complex amplitude"):
        StateVector(1, np.array([1.0, 1e-300j]))
    for amps in (np.array([complex(-1.0, -0.0), 0.0]), [-1, 0], np.array([-1.0, 0.0])):
        state = StateVector(1, amps)
        assert state.amplitudes.dtype == np.float64
        assert state.amplitudes.tolist() == [-1.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_state_rejects_non_finite_amplitudes(bad):
    # a NaN norm would pass the tolerance check, which compares with >
    with pytest.raises(ValueError, match="non-finite amplitude"):
        StateVector(1, np.array([bad, 0.0]))


def test_textbook_expectations():
    z = from_labels(1, {"Z": 1.0})
    assert exact_expectation(z, prepare_basis_state("0")) == pytest.approx(1.0)
    x = from_labels(1, {"X": 1.0})
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    assert exact_expectation(x, plus) == pytest.approx(1.0)


def test_expectation_matches_dense_oracle():
    rng = np.random.default_rng(12)
    h = random_sum(rng, 4, 12)
    state = random_state(4, rng)
    dense = pauli_sum_to_dense(h)
    expected = np.real(state.amplitudes.conj() @ dense @ state.amplitudes)
    assert exact_expectation(h, state) == pytest.approx(expected, abs=1e-10)


def _random_real_sum(rng, n_qubits, n_terms, x_free=0):
    """n_terms draws of (x, z, coefficient), those with an odd number of Y
    letters left out: a random real symmetric sum; the first x_free have
    x = 0."""
    x = rng.integers(0, 1 << n_qubits, n_terms)
    x[:x_free] = 0
    z = rng.integers(0, 1 << n_qubits, n_terms)
    even = np.bitwise_count(x & z) % 2 == 0
    c = rng.standard_normal(n_terms)
    return PauliSum(n_qubits, zip(zip(x[even].tolist(), z[even].tolist()), c[even].tolist()))


@pytest.mark.parametrize("n_qubits", range(1, 9))
def test_matvec_matches_the_term_loop_byte_for_byte(n_qubits):
    rng = np.random.default_rng(40 + n_qubits)
    sums = [
        _random_real_sum(rng, n_qubits, 3 * 4**n_qubits // 4, x_free=n_qubits),
        _random_real_sum(rng, n_qubits, 5, x_free=5),  # diagonal only
        -0.7 * PauliSum.identity(n_qubits),
        PauliSum.zero(n_qubits),
    ]
    for h in sums:
        state = random_state(n_qubits, rng)
        got = apply_pauli_sum(h, state)
        assert got.tobytes() == apply_pauli_sum_reference(h, state).tobytes()


def test_lanczos_matvecs_match_the_term_loop(h4_problem, h4_references, monkeypatch):
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
    for s, ctx in h4_problem.sectors.items():
        moments.moments_for_state(h4_problem.hamiltonian, h4_references[s], 10)
        moments.moments_for_state(ctx.tapered_h, ctx.tapered_state, 10)
    assert len(checked) >= 4 * 8 and 8 in checked and min(checked) < 8


def test_matvec_temporaries_stay_bounded():
    """919 terms on 12 qubits (an H6-sized sum): 919 x 4096 elements would
    take 30 MB as one float64 array; blocks of terms keep it to a few."""
    rng = np.random.default_rng(12)
    h = _random_real_sum(rng, 12, 1838)
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
    z = from_labels(2, {"ZI": 1.0})
    with pytest.raises(ValueError, match="dimensions differ"):
        exact_expectation(z, prepare_basis_state("0"))


def rotated_probabilities(amplitudes, group) -> np.ndarray:
    """Outcome probabilities of one amplitude vector, real or complex,
    measured in a group's basis."""
    rot = group.rotation
    return np.abs(rotate_to_eigenbases(np.asarray(amplitudes)[None], [rot.x], [rot.z])[0]) ** 2


def test_basis_change_diagonalizes_x_and_y():
    """On a random complex amplitude vector, as the oracle rotation takes
    any: the rotated Z value is the letter's dense expectation."""
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amps /= np.linalg.norm(amps)
    for letter in ("X", "Y"):
        probs = rotated_probabilities(amps, group_qwc([PauliString.from_label(letter)])[0])
        want = np.vdot(amps, dense_string(letter) @ amps).real
        assert probs[0] - probs[1] == pytest.approx(want, abs=1e-12)


def test_basis_change_matches_the_gate_loop_on_h4_groups(h4_problem):
    """Every tapered H4 group, all of a sector's groups in one stack, on the
    sector's reference state: the same bits as the tensordot gate loop."""
    from pdsq.pipeline import unique_measured_strings

    for ctx in h4_problem.sectors.values():
        groups = group_qwc(unique_measured_strings(ctx.tapered_cache, 19))
        amps = np.tile(ctx.tapered_state.amplitudes, (len(groups), 1))
        got = rotate_to_eigenbases(
            amps, [g.rotation.x for g in groups], [g.rotation.z for g in groups]
        )
        assert got.shape == amps.shape and len(groups) > 60
        for row, group in zip(got, groups):
            want = basis_change_reference(ctx.tapered_state.amplitudes, group.rotation)
            assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_qubits", range(1, 7))
def test_basis_change_matches_the_gate_loop_on_random_states(n_qubits):
    """All 4**n rotations (every mix of I, X, Y and Z) of one random state,
    in one stack, within 1e-15 of the tensordot gate loop."""
    state = random_state(n_qubits, np.random.default_rng(50 + n_qubits))
    codes = np.arange(4**n_qubits)
    x, z = codes & ((1 << n_qubits) - 1), codes >> n_qubits
    got = rotate_to_eigenbases(np.tile(state.amplitudes, (codes.size, 1)), x, z)
    for row, xm, zm in zip(got, x.tolist(), z.tolist()):
        want = basis_change_reference(state.amplitudes, PauliString(n_qubits, xm, zm))
        assert np.max(np.abs(row - want)) <= 1e-15
    assert np.allclose(np.linalg.norm(got, axis=1), 1.0)


def test_basis_change_leaves_its_input_alone():
    amps = random_state(3, np.random.default_rng(1)).amplitudes[None]
    before = amps.copy()
    rotate_to_eigenbases(amps, [0b111], [0b011])
    assert amps.tobytes() == before.tobytes()


def test_count_table_validation():
    with pytest.raises(ValueError, match="malformed"):
        CountTable(2, [4], [1])  # index 4 needs a third bit
    with pytest.raises(ValueError, match="malformed"):
        CountTable(2, [2, 1], [1, 1])  # outcomes must increase
    table = CountTable(2, [0b01, 0b10], [1, 3])  # "10" and "01"
    assert table.shots == 4
    assert (table.counts / table.shots).tolist() == [0.25, 0.75]


def test_count_table_lines_round_trip():
    table = CountTable(3, [0b010, 0b011, 0b100], [2, 1, 1])  # "010" "110" "001"
    assert table.to_lines() == "001 1\n010 2\n110 1"
    again = CountTable.from_lines(table.to_lines())
    assert np.array_equal(again.outcomes, table.outcomes)
    assert np.array_equal(again.counts, table.counts)
    with pytest.raises(ValueError, match="expected"):
        CountTable.from_lines("0101\n")


def test_count_table_rejects_negative_counts():
    with pytest.raises(ValueError, match="negative count -5"):
        CountTable(2, [0b00, 0b10], [10, -5])
    with pytest.raises(ValueError, match="line 2: negative count -5"):
        CountTable.from_lines("00 10\n01 -5\n")
    # a repeated key would hide the negative line in the summed table
    with pytest.raises(ValueError, match="line 2: negative count -5"):
        CountTable.from_lines("00 10\n00 -5\n")


@pytest.mark.parametrize("text, message", [
    ("00 10\n01 x\n", "line 2: non-integer count 'x'"),
    ("00 10\n01 2.5\n", "line 2: non-integer count '2.5'"),
    ("00 10\n0a 1\n", "line 2: malformed bitstring key '0a'"),
    ("00 10\n\n010 1\n", "line 3: malformed bitstring key '010'"),
])
def test_count_table_names_the_line_of_a_malformed_entry(text, message):
    with pytest.raises(ValueError) as excinfo:
        CountTable.from_lines(text)
    assert str(excinfo.value) == message


def test_noise_model_validation():
    NoiseModel(0.0)
    NoiseModel(0.499)
    with pytest.raises(ValueError, match="0.5"):
        NoiseModel(0.5)
    with pytest.raises(ValueError, match="0.5"):
        NoiseModel(-0.1)


def test_noiseless_z_measurement_is_deterministic():
    group = group_qwc([PauliString.from_label("ZZZZZ")])[0]
    counts = serial_sample("00000", group, 100, NoiseModel(0.0), 3)
    assert (counts.outcomes.tolist(), counts.counts.tolist()) == ([0], [100])


def test_all_zero_state_batch_sampling():
    group = group_qwc([PauliString.from_label("ZIIII")])[0]
    batch = PackedBatch(((group, 0), (group, 5), (group, 10), (group, 15)), 20)
    counts = sample_batch("00000", batch, 50, NoiseModel(0.0), 5)
    assert (counts.outcomes.tolist(), counts.counts.tolist()) == ([0], [50])
    assert counts.n_bits == 20


def test_seeded_runs_bit_identical():
    group = group_qwc([PauliString.from_label("XYZIX")])[0]
    def histogram(table):
        return table.outcomes.tolist(), table.counts.tolist()

    a = serial_sample("10110", group, 2000, NoiseModel(0.01), 42)
    b = serial_sample("10110", group, 2000, NoiseModel(0.01), 42)
    assert histogram(a) == histogram(b)
    c = serial_sample("10110", group, 2000, NoiseModel(0.01), 43)
    assert histogram(c) != histogram(a)


@pytest.mark.parametrize("bits", ["01x10", "0121", "1 0"])
def test_sampler_refuses_a_character_that_is_not_a_bit(bits):
    """The sampler's state is the basis state its bitstring names, so both
    entry points refuse any character but 0 and 1, naming it."""
    group = group_qwc([PauliString.from_label("XZIIY"[: len(bits)])])[0]
    bad = next(c for c in bits if c not in "01")
    with pytest.raises(ValueError, match=f"invalid bit '{bad}'"):
        serial_sample(bits, group, 10, NoiseModel(0.0), 1)
    batch = PackedBatch(((group, 0), (group, len(bits))), 2 * len(bits))
    with pytest.raises(ValueError, match=f"invalid bit '{bad}'"):
        sample_batch(bits, batch, 10, NoiseModel(0.0), 1)


def test_slot_width_mismatch_names_both_widths():
    group = group_qwc([PauliString.from_label("XZIIY")])[0]
    with pytest.raises(ValueError, match="3-qubit state in a 5-qubit slot"):
        serial_sample("000", group, 10, NoiseModel(0.0), 1)
    batch = PackedBatch(((group, 0), (group, 5)), 20)
    with pytest.raises(ValueError, match="3-qubit state in a 5-qubit slot"):
        sample_batch("000", batch, 10, NoiseModel(0.0), 1)
    # every slot of an execution holds a copy of the one state
    narrow = group_qwc([PauliString.from_label("XZY")])[0]
    mixed = PackedBatch(((group, 0), (narrow, 5)), 20)
    with pytest.raises(ValueError, match="5-qubit state in a 3-qubit slot"):
        sample_batch("00000", mixed, 10, NoiseModel(0.0), 1)
    with pytest.raises(ValueError, match="at least one slot"):
        sample_batch("000", PackedBatch((), 20), 10, NoiseModel(0.0), 1)


def test_shot_validation():
    group = group_qwc([PauliString.from_label("ZIIII")])[0]
    with pytest.raises(ValueError, match="positive"):
        serial_sample("00000", group, 0, NoiseModel(0.0), 1)
    batch = PackedBatch(((group, 0),), 20)
    with pytest.raises(ValueError, match="positive"):
        sample_batch("00000", batch, 0, NoiseModel(0.0), 1)


def test_sampled_expectations_within_binomial_error():
    from pdsq.grouping import expectations_from_group_counts

    state = prepare_basis_state("10110")
    labels = ["XXIII", "IXXII", "XIXIX", "IIIZI", "IIIZX"]
    group = group_qwc([PauliString.from_label(s) for s in labels])[0]
    assert len(group.members) == len(labels)
    shots = 200_000
    counts = serial_sample("10110", group, shots, NoiseModel(0.0), 77)
    values = expectations_from_group_counts(counts, group)
    for member, estimate in values.items():
        exact = exact_expectation(PauliSum.from_string(member), state)
        sigma = np.sqrt(max(1e-12, 1.0 - exact**2) / shots)
        assert abs(estimate - exact) < 5 * sigma + 1e-6


def test_spam_flips_shift_distribution():
    group = group_qwc([PauliString.from_label("ZZZZZ")])[0]
    counts = serial_sample("00000", group, 100_000, NoiseModel(0.05), seed=1)
    # each bit flips independently with p=0.05
    p_clean = counts.counts[counts.outcomes == 0].sum() / counts.shots
    assert p_clean == pytest.approx(0.95**5, abs=5e-3)


def _chi_square_pvalue(observed, expected) -> float:
    """Pearson's goodness of fit, tail cells merged so that each expects >= 5."""
    observed, expected = np.asarray(observed, float), np.asarray(expected, float)
    order = np.argsort(expected)
    merged = np.searchsorted(np.cumsum(expected[order]), 5.0, side="right") + 1
    o = np.r_[observed[order][:merged].sum(), observed[order][merged:]]
    e = np.r_[expected[order][:merged].sum(), expected[order][merged:]]
    if e.size < 2:
        return 1.0
    return float(stats.chi2.sf(np.sum((o - e) ** 2 / e), e.size - 1))


@pytest.mark.parametrize("p", [1e-3, 0.3])
def test_bit_flips_match_the_matrix_product(p):
    """Readout flips have the law of the reference flip model: a (shots, bits)
    matrix of independent Bernoulli(p) flags, whose product with the bit
    values gives each shot's XOR mask.  On an execution measured in Z, whose
    clean outcome is fixed, over 20,000 shots: the total flip count is
    Binomial(shots * 20, p), each bit's count is Binomial(shots, p), and the
    number of bits a shot flips is Binomial(20, p), several per shot included."""
    group = group_qwc([PauliString.from_label("ZZZZZ")])[0]
    batch = PackedBatch(tuple((group, offset) for offset in (0, 5, 10, 15)), 20)
    clean = bits_to_index("10110" * 4)
    shots = 20_000
    for seed in (1, 2, 3):
        counts = sample_batch("10110", batch, shots, NoiseModel(p), seed)
        masks = counts.outcomes ^ clean
        per_bit = np.array([counts.counts[masks >> k & 1 == 1].sum() for k in range(20)])
        total = int(per_bit.sum())
        assert stats.binomtest(total, shots * 20, p).pvalue > ALPHA
        assert _chi_square_pvalue(per_bit, np.full(20, shots * p)) > ALPHA
        flips = [bin(mask).count("1") for mask in masks.tolist()]
        per_shot = np.bincount(flips, weights=counts.counts, minlength=21)
        assert _chi_square_pvalue(per_shot, shots * stats.binom.pmf(np.arange(21), 20, p)) > ALPHA


@pytest.mark.parametrize("size, count", [(1, 1), (50, 0), (50, 49), (50, 50), (10**6, 3000)])
def test_flip_positions_are_distinct(size, count):
    """No (shot, bit) position is drawn twice, so none flips back."""
    positions = _distinct_positions(np.random.default_rng(size + count), size, count)
    assert positions.size == count and positions.dtype == np.int64
    assert np.all(np.diff(positions) > 0)
    assert count == 0 or 0 <= positions[0] <= positions[-1] < size


def test_flip_positions_are_a_uniform_subset():
    """All 15 two-element subsets of 6 positions, 6000 draws: a chi-square
    test at the false-alarm rate ALPHA."""
    rng = np.random.default_rng(4)
    draws = [tuple(_distinct_positions(rng, 6, 2).tolist()) for _ in range(6000)]
    subsets, seen = np.unique(np.array(draws), axis=0, return_counts=True)
    assert len(subsets) == 15
    assert _chi_square_pvalue(seen, np.full(15, 400.0)) > ALPHA


@pytest.mark.parametrize("register", [5, 20])
def test_sample_sector_matches_the_gate_loop_sampler(h4_problem, register):
    """Every execution of both tapered H4 sectors, one group (register 5) or
    four (register 20) to an execution, at the pipeline's batches and seeds,
    against the gate loop's dense product distribution over the whole joint
    outcome: every outcome lies in its support, and Pearson's chi-square
    over the support, at 8 shots per outcome, passes at the false-alarm
    rate ALPHA per execution (under 2e-3 for the 188 executions at 5)."""
    from pdsq.pipeline import sample_sector

    checked = 0
    for si, ctx in enumerate(h4_problem.sectors.values()):
        draws = sample_sector(ctx, 19, 1, 3, si, NoiseModel(0.0), register)
        for bi, (batch, _) in enumerate(draws):
            support, probs = packed_distribution_reference(ctx.tapered_state, batch)
            shots = 8 * support.size
            counts = sample_batch(ctx.tapered_bits, batch, shots, NoiseModel(0.0), [3, si, bi])
            assert counts.n_bits == register and counts.shots == shots
            cells = np.searchsorted(support, counts.outcomes)
            assert np.array_equal(support[np.minimum(cells, support.size - 1)], counts.outcomes)
            observed = np.bincount(cells, weights=counts.counts, minlength=support.size)
            assert _chi_square_pvalue(observed, shots * probs) > ALPHA
            checked += len(batch.slots)
    assert checked == 122 + 66


def test_sampler_memory_is_checked_before_allocating(monkeypatch):
    """Shots whose outcome arrays, or readout flips whose positions, would
    take more than MEMORY_BUDGET bytes are refused before those arrays
    exist; within budget the traced peak stays under the bytes checked."""
    group = group_qwc([PauliString.from_label("XXXXX")])[0]
    batch = PackedBatch(tuple((group, offset) for offset in (0, 5, 10, 15)), 20)
    bits = "10110"
    shots = budget.MEMORY_BUDGET // SHOT_BYTES + 1
    message = f"sampling {shots} shots: {shots * SHOT_BYTES} bytes exceed the cap"
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError, match=message):
            sample_batch(bits, batch, shots, NoiseModel(0.0), 1)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # 10,000 shots fit a 1 MB cap; their ~60,000 flips at p = 0.3 do not
    with monkeypatch.context() as m:
        m.setattr(budget, "MEMORY_BUDGET", 1 << 20)
        with pytest.raises(MemoryBudgetError, match="10000 shots with [0-9]+ readout flips"):
            sample_batch(bits, batch, 10_000, NoiseModel(0.3), 1)
    shots = 50_000
    for p in (0.0, 1e-3, 0.3):
        noise = NoiseModel(p)
        sample_batch(bits, batch, 100, noise, 2)  # allocator warm
        tracemalloc.start()
        try:
            sample_batch(bits, batch, shots, noise, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= shots * SHOT_BYTES + 1.1 * p * shots * 20 * FLIP_BYTES
