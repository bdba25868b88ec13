"""Readout bit-flip mitigation: exact inverses, clipping, support effects."""

import tracemalloc

import numpy as np
import pytest

from pdsq.backend import CountTable, NoiseModel
from pdsq.budget import MEMORY_BUDGET, MemoryBudgetError
from pdsq.mitigation import mitigate

from oracles import flip_channel, mitigate_by_sorted_halves, restricted_inverse


def mitigate_table(counts, p):
    return mitigate(counts.outcomes, counts.counts, counts.n_bits, NoiseModel(p))


def mitigate_dense(probs, p):
    """Mitigation over the full support of a dense distribution."""
    return mitigate(np.arange(probs.size), probs, probs.size.bit_length() - 1, NoiseModel(p))


def test_config_validation():
    NoiseModel(0.0)
    NoiseModel(0.4999)
    with pytest.raises(ValueError, match="0.5"):
        NoiseModel(0.5)
    with pytest.raises(ValueError, match="0.5"):
        NoiseModel(-0.01)
    with pytest.raises(ValueError, match=r"p=0\.5 must .*; p=0\.5 is singular"):
        NoiseModel(0.5)
    for p in (-0.01, 0.7, float("nan")):
        with pytest.raises(ValueError, match=r"must lie in \[0, 0\.5\)$"):
            NoiseModel(p)


def test_p_zero_is_identity():
    counts = CountTable(3, [0b010, 0b111], [3, 1])  # "010" and "111"
    probs = mitigate_table(counts, 0.0)
    assert probs.tolist() == [0.75, 0.25]


def test_two_bit_analytic_round_trip():
    p = 0.1
    # outcomes 0..3 are "00", "10", "01", "11" (qubit 0 leftmost)
    ideal = np.array([0.6, 0.05, 0.1, 0.25])
    # analytic forward channel: convolve with flip probabilities
    noisy = flip_channel(ideal, p)
    assert noisy.sum() == pytest.approx(1.0, abs=1e-12)
    mitigated = mitigate_dense(noisy, p)
    for key, want in enumerate(ideal):
        assert mitigated[key] == pytest.approx(want, abs=1e-12)


def test_full_support_round_trip_ten_bits():
    rng = np.random.default_rng(6)
    p = 1e-3
    ideal = rng.dirichlet(np.ones(1 << 10))
    noisy = flip_channel(ideal, p)
    mitigated = mitigate_dense(noisy, p)
    for key, want in enumerate(ideal):
        assert mitigated[key] == pytest.approx(want, abs=1e-10)


def test_output_is_a_distribution_after_clipping():
    # partial support forces clipping: mitigation on truncated counts
    # "0000", "1000", "0100" and "0011"
    counts = CountTable(4, [0b0000, 0b0001, 0b0010, 0b1100], [9000, 60, 55, 1])
    values = mitigate_table(counts, 0.02)
    assert np.all(values >= 0.0)
    assert values.sum() == pytest.approx(1.0, abs=1e-12)
    assert values.shape == counts.outcomes.shape  # observed support only


def test_empty_histogram_errors():
    with pytest.raises(ValueError, match="empty"):
        mitigate([], [], 2, NoiseModel(0.1))
    counts = CountTable(2, [], [])
    with pytest.raises(ValueError, match="empty histogram"):
        mitigate_table(counts, 0.1)


def test_outcomes_must_be_increasing_register_indices():
    noise = NoiseModel(0.1)
    with pytest.raises(ValueError, match="increasing"):
        mitigate([1, 4], [1, 1], 2, noise)  # 4 needs a third bit
    with pytest.raises(ValueError, match="increasing"):
        mitigate([2, 1], [1, 1], 2, noise)


def test_expectation_improves_toward_full_support():
    """Diagonal-observable error shrinks as the mitigation support grows."""
    rng = np.random.default_rng(13)
    p = 0.05
    ideal = rng.dirichlet(np.ones(8) * 0.5)
    noisy = flip_channel(ideal, p)

    def parity_expectation(outcomes, probs):
        signs = np.where(np.bitwise_count(outcomes) & 1, -1.0, 1.0)
        return float(probs @ signs) / probs.sum()

    everything = np.arange(8)
    target = parity_expectation(everything, ideal)
    noisy_err = abs(parity_expectation(everything, noisy) - target)
    order = np.argsort(-noisy, kind="stable")
    errors = []
    for support_size in (4, 6, 8):
        restricted = np.sort(order[:support_size])
        mitigated = mitigate(restricted, noisy[restricted], 3, NoiseModel(p))
        errors.append(abs(parity_expectation(restricted, mitigated) - target))
    assert errors[-1] < 1e-12  # full support: exact inverse
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[1] < noisy_err


def test_forward_channel_validation():
    with pytest.raises(ValueError, match="empty"):
        flip_channel([], 0.1)


@pytest.mark.parametrize("p", [1e-3, 0.05, 0.3])
def test_two_products_match_the_pair_sum(p):
    """Single-outcome, full-support (up to 10 bits) and random supports of
    every width 1-20 agree with the O(|B|^2) pair sum to 1e-12."""
    rng = np.random.default_rng(int(p * 1e4))
    for n_bits in range(1, 21):
        supports = [rng.integers(0, 1 << n_bits, 1)]
        if n_bits <= 10:
            supports.append(np.arange(1 << n_bits))
        for size in (2, 40, 600):
            supports.append(rng.integers(0, 1 << n_bits, size))
        for support in supports:
            outcomes = np.unique(support)
            weights = rng.integers(1, 100, outcomes.size)
            got = mitigate(outcomes, weights, n_bits, NoiseModel(p))
            want = restricted_inverse(outcomes, weights, n_bits, p)
            assert np.max(np.abs(got - want)) <= 1e-12, (n_bits, outcomes.size)


def test_wide_register_within_the_kernel_limit():
    rng = np.random.default_rng(30)
    outcomes = np.unique(rng.integers(0, 1 << 30, 1500))
    weights = rng.integers(1, 10, outcomes.size)
    got = mitigate(outcomes, weights, 30, NoiseModel(0.01))
    want = restricted_inverse(outcomes, weights, 30, 0.01)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_twenty_bit_register_needs_at_most_three_kernels():
    """Every 10-bit half observed: the kernels are 1024 x 1024, and no more
    than three float64 arrays of that size are alive at once."""
    rng = np.random.default_rng(20)
    diagonal = (np.arange(1024) << 10) | rng.permutation(1024)
    outcomes = np.unique(np.concatenate([diagonal, rng.integers(0, 1 << 20, 7000)]))
    weights = rng.integers(1, 5, outcomes.size)
    tracemalloc.start()
    try:
        mitigate(outcomes, weights, 20, NoiseModel(1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # plus a few vectors of one entry per outcome
    assert peak <= 3 * 1024 * 1024 * 8 + 64 * outcomes.size


def test_too_many_distinct_halves_fail_before_allocation():
    """Some 7980 distinct 20-bit halves: three U x U float64 kernels would
    take 24 U^2 > 2^30 bytes, so mitigate refuses before allocating them."""
    rng = np.random.default_rng(40)
    outcomes = np.unique(rng.integers(0, 1 << 40, 8000))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError, match="cap MEMORY_BUDGET") as err:
            mitigate(outcomes, np.ones(outcomes.size), 40, NoiseModel(0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    u_hi, u_lo = np.unique(outcomes >> 20).size, np.unique(outcomes & (1 << 20) - 1).size
    u = max(u_hi, u_lo)
    assert 24 * u**2 > MEMORY_BUDGET
    assert str(err.value) == (
        f"mitigating {u_hi} x {u_lo} outcome halves: {24 * u**2} bytes exceed the cap "
        f"MEMORY_BUDGET = {MEMORY_BUDGET} bytes"
    )
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "n_bits, n_draws, table",
    [
        (20, 8000, True), (20, 300, False), (9, 400, True), (9, 10, False),
        (13, 2000, True), (1, 2, True), (1, 1, True), (2, 1, False), (40, 500, False),
    ],
    ids=[
        "20-bit-table", "20-bit-sort", "odd-table", "odd-sort", "13-bit",
        "1-bit", "1-bit-one", "2-bit-one", "40-bit",
    ],
)
def test_halves_without_a_sort_keep_the_bytes_of_sorted_halves(n_bits, n_draws, table):
    """Halves numbered by pauli._distinct, the low ones by a presence table
    (|B| >= 2^low) or a sort (|B| < 2^low), give the bytes that np.unique
    on both halves gives, with counts and with float weights."""
    rng = np.random.default_rng(n_bits * n_draws)
    outcomes = np.unique(rng.integers(0, 1 << n_bits, n_draws))
    assert (outcomes.size >= 1 << n_bits // 2) == table  # which way the low halves go
    for weights in (rng.integers(1, 100, outcomes.size), rng.dirichlet(np.ones(outcomes.size))):
        for p in (1e-3, 0.2):
            got = mitigate(outcomes, weights, n_bits, NoiseModel(p))
            want = mitigate_by_sorted_halves(outcomes, weights, n_bits, p)
            assert got.tobytes() == want.tobytes()
