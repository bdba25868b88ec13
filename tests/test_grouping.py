"""QWC grouping, rotation bases, batch packing, and count reconstruction."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsq.backend import CountTable, NoiseModel, exact_expectation
from pdsq.grouping import (
    PackedBatch,
    QwcGroup,
    expectations_from_counts,
    expectations_from_group_counts,
    group_qwc,
    pack_batches,
    slot_expectations,
)
from pdsq.mitigation import mitigate
from pdsq.pauli import PauliString, PauliSum

from helpers import qubit_wise_commutes
from oracles import (
    dense_string,
    group_qwc_reference,
    mitigate_by_sorted_halves,
    slot_expectations_by_parity_matrix,
)
from test_backend import rotated_probabilities


def strings(*labels):
    return [PauliString.from_label(s) for s in labels]


def test_compatible_strings_share_a_group():
    groups = group_qwc(strings("XI", "IX", "XX"))
    assert len(groups) == 1
    assert groups[0].rotation.label == "XX"
    assert len(groups[0].members) == 3


def test_commuting_but_not_qwc_strings_split():
    groups = group_qwc(strings("XX", "ZZ"))
    assert len(groups) == 2


def test_grouping_is_a_partition():
    rng = np.random.default_rng(9)
    pool = list({
        "".join(rng.choice(list("IXYZ"), size=4)): None for _ in range(60)
    })
    pool = [s for s in pool if s != "IIII"]
    groups = group_qwc(strings(*pool))
    regrouped = [m.label for g in groups for m in g.members]
    assert sorted(regrouped) == sorted(pool)
    for g in groups:
        for a in g.members:
            for b in g.members:
                assert qubit_wise_commutes(a, b)
            # members never conflict with the group rotation
            assert qubit_wise_commutes(a, g.rotation)


def assert_same_groups(got, want):
    """Same groups in the same order, holding the very same member objects
    in the same order, with the same rotations."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g.members) == len(w.members)
        assert all(a is b for a, b in zip(g.members, w.members))
        assert g.rotation == w.rotation


def test_grouping_matches_the_first_fit_oracle(h4_problem):
    """The full H4 ledger at K = 10 (4223 strings, 441 groups) and both
    tapered ledgers group exactly as per-string first-fit does."""
    from pdsq.pipeline import unique_measured_strings

    caches = [h4_problem.cache] + [
        h4_problem.sectors[sector].tapered_cache for sector in ("singlet", "triplet")
    ]
    for cache in caches:
        ledger = unique_measured_strings(cache, 19)
        groups = group_qwc(ledger)
        assert_same_groups(groups, group_qwc_reference(ledger))
        if cache is h4_problem.cache:
            assert (len(ledger), len(groups)) == (4223, 441)


def _drawn_strings(n_qubits: int, active: list[int], letters: list[list[str]]) -> list:
    out = []
    for assignment in letters:
        label = ["I"] * n_qubits
        for q, letter in zip(active, assignment):
            label[q] = letter
        if set(label) != {"I"}:
            out.append(PauliString.from_label("".join(label)))
    return out


@st.composite
def sparse_string_sets(draw):
    """Strings whose letters sit on a few qubits, always including the top
    one (bit 63 of the masks on 64 qubits), so that groups merge and clash."""
    n = draw(st.sampled_from([1, 5, 33, 64]))
    others = draw(st.sets(st.integers(0, n - 1), max_size=min(n - 1, 5)))
    active = sorted(others | {n - 1})
    letters = st.lists(st.sampled_from("IXYZ"), min_size=len(active), max_size=len(active))
    return _drawn_strings(n, active, draw(st.lists(letters, min_size=1, max_size=40)))


@st.composite
def pairwise_clashing_sets(draw):
    """Distinct strings with one common support: no two are QWC."""
    n = draw(st.sampled_from([1, 5, 33, 64]))
    others = draw(st.sets(st.integers(0, n - 1), max_size=min(n - 1, 4)))
    active = sorted(others | {n - 1})
    letters = st.lists(st.sampled_from("XYZ"), min_size=len(active), max_size=len(active))
    drawn = draw(st.lists(letters, min_size=1, max_size=30, unique_by=tuple))
    return _drawn_strings(n, active, drawn)


@st.composite
def dense_string_sets(draw):
    """Strings with letters on up to 3 of all n qubits: most pairs commute
    qubit-wise, so that a group's rotation extends many times before it is
    fixed (letters drawn on every qubit almost never commute)."""
    n = draw(st.sampled_from([5, 8, 12]))
    string = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"), min_size=1, max_size=3)
    drawn = draw(st.lists(string, min_size=1, max_size=200))
    return _drawn_strings(n, list(range(n)), [[d.get(q, "I") for q in range(n)] for d in drawn])


@given(st.one_of(sparse_string_sets(), pairwise_clashing_sets(), dense_string_sets()))
@settings(max_examples=300, deadline=None)
def test_grouping_matches_the_first_fit_oracle_on_drawn_sets(pool):
    assert_same_groups(group_qwc(pool), group_qwc_reference(pool))


def test_more_than_64_qubits_rejected():
    with pytest.raises(ValueError, match="64"):
        group_qwc([PauliString.from_label("X" * 65)])


def test_identity_rejected():
    with pytest.raises(ValueError, match="identity"):
        group_qwc(strings("II", "XI"))


def test_mixed_widths_rejected():
    with pytest.raises(ValueError, match="one qubit count"):
        group_qwc([PauliString.from_label("X"), PauliString.from_label("XX")])


def test_grouping_deterministic():
    pool = strings("XX", "ZZ", "XI", "IZ", "YY", "YI")
    a = group_qwc(pool)
    b = group_qwc(list(reversed(pool)))
    assert [g.rotation.label for g in a] == [g.rotation.label for g in b]


def test_rotation_masks_read_eigenstates_with_certainty():
    """Product eigenstates of X, Y and Z letters, the +1 state of a letter
    where the outcome bit is 0 and the -1 state where it is 1, rotated by
    their own group's masks, read that outcome with probability 1."""
    s = 1 / np.sqrt(2)
    eigenstates = {"X": ([s, s], [s, -s]), "Y": ([s, 1j * s], [s, -1j * s]), "Z": ([1, 0], [0, 1])}
    for n in (1, 3):
        for letters in itertools.product("XYZ", repeat=n):
            group = group_qwc(strings("".join(letters)))[0]
            for outcome in range(1 << n):
                amps = np.ones(1)
                for k in reversed(range(n)):  # qubit 0 is the fastest index bit
                    amps = np.kron(amps, eigenstates[letters[k]][outcome >> k & 1])
                probs = rotated_probabilities(amps, group)
                assert probs[outcome] == pytest.approx(1.0, abs=1e-15)


def test_pack_batches_counts():
    groups = group_qwc(strings(*[f"{'I' * k}X{'I' * (4 - k)}" for k in range(5)]))
    # 5 single-string groups? no: all of those are QWC-compatible -> 1 group
    assert len(groups) == 1
    many = [QwcGroup((s,), s) for s in strings("XIIII", "ZIIII", "YIIII", "IXIII", "IZIII")]
    batches = pack_batches(many, 5, 20)
    assert len(batches) == 2
    assert [off for _, off in batches[0].slots] == [0, 5, 10, 15]
    assert len(batches[1].slots) == 1


def test_pack_batches_width_mismatch():
    g = QwcGroup(tuple(strings("XX")), PauliString.from_label("XX"))
    with pytest.raises(ValueError, match="slot width"):
        pack_batches([g], 5, 20)


@pytest.mark.parametrize("slot_width", [0, -5, 21])
def test_pack_batches_rejects_slot_width_outside_the_register(slot_width):
    g = QwcGroup(tuple(strings("XXXXX")), PauliString.from_label("XXXXX"))
    with pytest.raises(ValueError, match=f"slot width {slot_width} .*register width 20"):
        pack_batches([g], slot_width=slot_width, register=20)


@pytest.mark.parametrize(
    "offsets, message",
    [
        ((0, 2), r"slot 1 \(qubits 2..6\) overlaps an earlier slot"),
        ((18,), r"slot 0 \(qubits 18..22\) does not fit a 20-qubit register"),
        ((5, -1), r"slot 1 \(qubits -1..3\) does not fit"),
    ],
    ids=["overlap", "past-the-register", "negative-offset"],
)
def test_packed_batch_rejects_slots_off_the_register(offsets, message):
    """Overlapping slots would OR their outcomes together and a slot past the
    register would sample bits it does not have; both are refused up front."""
    g = group_qwc(strings("XZIIY"))[0]
    with pytest.raises(ValueError, match=message):
        PackedBatch(tuple((g, offset) for offset in offsets), 20)
    assert PackedBatch(((g, 0), (g, 15)), 20).slots[1] == (g, 15)


@given(st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_batch_count_is_ceil(n_groups):
    gs = [
        QwcGroup((PauliString.from_label("XIIII"),), PauliString.from_label("XIIII"))
        for _ in range(n_groups)
    ]
    assert len(pack_batches(gs, 5, 20)) == -(-n_groups // 4)


def test_single_shot_all_zeros_gives_plus_one_for_z_members():
    group = group_qwc(strings("ZZIII", "IZZII", "ZIIII"))[0]
    counts = CountTable(20, [0], [1])
    batch = PackedBatch(((group, 0),), 20)
    values = expectations_from_counts(counts, batch)
    assert all(v == pytest.approx(1.0) for v in values.values())


def test_marginal_of_product_histogram_is_exact():
    from pdsq.grouping import expectations_from_group_weights, expectations_from_weights

    rng = np.random.default_rng(4)
    # two known 5-bit distributions; their joint is the outer product, with
    # slot 0 in the low five bits of the joint index
    d0 = rng.dirichlet(np.ones(32))
    d1 = rng.dirichlet(np.ones(32))
    joint = np.outer(d1, d0).ravel()  # index i1 * 32 + i0
    group0 = group_qwc(strings("ZZIII"))[0]
    group1 = group_qwc(strings("IZIZI"))[0]
    batch = PackedBatch(((group0, 0), (group1, 5)), 10)
    values = expectations_from_weights(np.arange(1 << 10), joint, batch)

    expected0 = expectations_from_group_weights(np.arange(32), d0, group0)
    expected1 = expectations_from_group_weights(np.arange(32), d1, group1)
    for member, want in {**expected0, **expected1}.items():
        assert values[member] == pytest.approx(want, abs=1e-12)


def test_empty_histogram_errors():
    group = group_qwc(strings("ZIIII"))[0]
    counts = CountTable(5, [], [])
    with pytest.raises(ValueError, match="empty histogram"):
        expectations_from_group_counts(counts, group)


def test_exact_reconstruction_matches_direct_expectation():
    """Rotate, read the exact outcome distribution, fold parities: must equal
    the dense expectation for every member (oracle check), on complex
    amplitudes, so that members with Y letters read nonzero values."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        labels = set()
        while len(labels) < 6:
            lab = "".join(rng.choice(list("IXYZ"), size=3))
            if lab != "III":
                labels.add(lab)
        groups = group_qwc(strings(*labels))
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        for group in groups:
            probs = rotated_probabilities(amps, group)
            from pdsq.grouping import expectations_from_group_weights

            values = expectations_from_group_weights(np.arange(8), probs, group)
            for member, estimate in values.items():
                direct = np.vdot(amps, dense_string(member.label) @ amps).real
                assert estimate == pytest.approx(direct, abs=1e-10)


def test_every_h4_group_reconstructs_exactly(h4_problem):
    """Infinite-shot reconstruction through rotation + marginals equals the
    direct statevector expectation for every tapered measurement group."""
    from pdsq.grouping import expectations_from_group_weights
    from pdsq.pipeline import unique_measured_strings

    for sector in ("singlet", "triplet"):
        ctx = h4_problem.sectors[sector]
        state = ctx.tapered_state
        groups = group_qwc(unique_measured_strings(ctx.tapered_cache, 19))
        for group in groups:
            values = expectations_from_group_weights(
                np.arange(32), rotated_probabilities(state.amplitudes, group), group
            )
            for member, estimate in values.items():
                direct = exact_expectation(PauliSum.from_string(member), state)
                assert abs(estimate - direct) < 1e-10


def test_h4_group_counts_within_bands(h4_problem):
    from pdsq.pipeline import measurement_ladder

    ladder_s = measurement_ladder(h4_problem, "singlet", 10)
    ladder_t = measurement_ladder(h4_problem, "triplet", 10)
    assert ladder_s.qwc <= 441 * 1.10
    assert ladder_s.tapered_qwc <= 122 * 1.10
    assert ladder_t.tapered_qwc <= 66 * 1.10
    assert ladder_s.batches == -(-ladder_s.tapered_qwc // 4)
    assert ladder_t.batches == -(-ladder_t.tapered_qwc // 4)


def _random_group(rng, n_qubits: int, n_strings: int) -> QwcGroup:
    """One QWC group of random strings sharing a random rotation."""
    rotation = [rng.choice(list("XYZ")) for _ in range(n_qubits)]
    labels = {
        "".join(r if rng.random() < 0.5 else "I" for r in rotation) for _ in range(n_strings)
    } - {"I" * n_qubits}
    return QwcGroup(tuple(strings(*sorted(labels))), PauliString.from_label("".join(rotation)))


def _sum_error_bound(weights) -> float:
    """Twice the float64 bound on any order of summing len(weights) terms,
    gamma_B * sum |w| (Higham, Accuracy and Stability, Sec. 4.2), over the
    total, plus the division's rounding: the most two ways of computing
    the same weighted parity mean can differ by."""
    u = np.finfo(float).eps / 2
    gamma = weights.size * u / (1 - weights.size * u)
    return 2 * (gamma * np.abs(weights).sum() / abs(weights.sum()) + u)


@pytest.mark.parametrize(
    "slot_width, register, n_draws, table",
    [
        (5, 20, 8000, True), (5, 20, 20, False), (5, 5, 1000, True), (5, 5, 9, False),
        (3, 9, 200, True), (1, 1, 50, True), (1, 1, 1, False),
    ],
    ids=["packed", "packed-few", "serial-full", "serial-few", "3-bit", "1-bit", "1-bit-one"],
)
def test_marginals_match_the_parity_matrix_oracle(slot_width, register, n_draws, table):
    """Per-slot marginals give the parity matrix's estimates: exactly for
    integer counts, whose sums are exact in any order, and within the
    float64 summation bound for float weights; with 2^n bins when there are
    at least 2^n outcomes and over the distinct values when there are fewer."""
    rng = np.random.default_rng(slot_width * register + n_draws)
    slots = tuple(
        (_random_group(rng, slot_width, 12), offset)
        for offset in range(0, register - slot_width + 1, slot_width)
    )
    outcomes = np.unique(rng.integers(0, 1 << register, n_draws))
    assert (outcomes.size >= 1 << slot_width) == table  # which way the bins are found
    counts = rng.integers(1, 50, outcomes.size)
    got = slot_expectations(outcomes, counts, slots)
    assert got == slot_expectations_by_parity_matrix(outcomes, counts, slots)
    weights = rng.dirichlet(np.ones(outcomes.size))
    got = slot_expectations(outcomes, weights, slots)
    want = slot_expectations_by_parity_matrix(outcomes, weights, slots)
    assert got.keys() == want.keys()
    assert max(abs(got[s] - want[s]) for s in want) <= _sum_error_bound(weights)


def test_wide_slot_takes_its_marginal_over_the_observed_values():
    """A 40-qubit slot in a 44-bit register bins its 600 distinct values,
    never 2^40 bins: the peak traced allocation stays under 1 MiB."""
    rng = np.random.default_rng(40)
    slots = ((_random_group(rng, 40, 30), 4),)
    outcomes = np.unique(rng.integers(0, 1 << 44, 600))
    weights = rng.dirichlet(np.ones(outcomes.size))
    tracemalloc.start()
    try:
        got = slot_expectations(outcomes, weights, slots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    want = slot_expectations_by_parity_matrix(outcomes, weights, slots)
    assert max(abs(got[s] - want[s]) for s in want) <= _sum_error_bound(weights)


def test_h4_sampled_estimates_match_the_parity_matrix_oracle(h4_problem):
    """All executions of both H4 sectors at seed 1 with readout noise: raw
    counts give the oracle's estimates exactly, and mitigated weights
    (mitigate's bytes unchanged) within the summation bound."""
    from pdsq.pipeline import SECTORS, sample_sector

    noise = NoiseModel(1e-3)
    executions = 0
    for index, sector in enumerate(SECTORS):
        ctx = h4_problem.sectors[sector]
        for batch, counts in sample_sector(ctx, 19, 8192, 1, index, noise, 20):
            executions += 1
            raw = slot_expectations(counts.outcomes, counts.counts, batch.slots)
            assert raw == slot_expectations_by_parity_matrix(
                counts.outcomes, counts.counts, batch.slots
            )
            weights = mitigate(counts.outcomes, counts.counts, counts.n_bits, noise)
            assert weights.tobytes() == mitigate_by_sorted_halves(
                counts.outcomes, counts.counts, counts.n_bits, noise.spam_flip_probability
            ).tobytes()
            got = slot_expectations(counts.outcomes, weights, batch.slots)
            want = slot_expectations_by_parity_matrix(counts.outcomes, weights, batch.slots)
            assert max(abs(got[s] - want[s]) for s in want) <= _sum_error_bound(weights)
    assert executions == 48
