"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 6 is asserted exactly as stated; the companion test directly below
it pins the agreement of the moment vectors and of the lowest roots.
"""

import numpy as np
import pytest

from pdsq.backend import NoiseModel, exact_expectation, serial_sample
from pdsq.exact import exact_spectrum
from pdsq.grouping import (
    expectations_from_group_counts,
    expectations_from_group_weights,
    group_qwc,
)
from pdsq.mitigation import mitigate
from pdsq.moments import moments_for_state, unique_string_count
from pdsq.pauli import PauliSum
from pdsq.pds import build_system, pds_from_values, polynomial_roots, transition_energies
from pdsq.pipeline import (
    RunConfig,
    estimate_expectations_parallel,
    measurement_ladder,
    moments_from_estimates,
    run_pipeline,
    unique_measured_strings,
)

from helpers import random_state, random_sum
from oracles import flip_channel
from test_backend import rotated_probabilities


def criterion(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def sector_tables(h4, h4_references):
    return {s: moments_for_state(h4, state, 10) for s, state in h4_references.items()}


def test_criterion_1_exact_spectrum(h4):
    spec_s = exact_spectrum(h4, (4, 0.0))
    spec_t = exact_spectrum(h4, (4, 1.0))
    ok = abs(spec_s.ground - (-1.897781)) < 2e-4 and abs(
        spec_t.ground - (-1.881876)
    ) < 2e-4
    criterion(
        1, ok,
        f"exact S0 = {spec_s.ground:.6f} (ref -1.897781 +- 2e-4), "
        f"T0 = {spec_t.ground:.6f} (ref -1.881876 +- 2e-4)",
    )


def test_criterion_2_noiseless_pds10(sector_tables):
    res_s = polynomial_roots(build_system(sector_tables["singlet"], 10).X)
    res_t = polynomial_roots(build_system(sector_tables["triplet"], 10).X)
    tr = transition_energies(res_s, res_t)
    checks = {
        "S0": abs(res_s.roots[0] - (-1.897780)) < 2e-4,
        "S1": abs(res_s.roots[1] - (-1.856543)) < 2e-3,
        "T0": abs(res_t.roots[0] - (-1.881876)) < 2e-4,
        "S0->S1": abs(tr.s0_s1_ev - 1.122) < 0.01,
        "S0->T0": abs(tr.s0_t0_ev - 0.433) < 0.005,
        "ratio": 1.0 < tr.fission_ratio < 1.5,
    }
    criterion(
        2, all(checks.values()),
        f"PDS(10): S0 = {res_s.roots[0]:.6f}, S1 = {res_s.roots[1]:.6f}, "
        f"T0 = {res_t.roots[0]:.6f}, S0->S1 = {tr.s0_s1_ev:.4f} eV, "
        f"S0->T0 = {tr.s0_t0_ev:.4f} eV, ratio = {tr.fission_ratio:.3f} "
        f"(failed: {[k for k, v in checks.items() if not v]})",
    )


def test_criterion_3_cost_plateau(h4_problem):
    counts = unique_string_count(h4_problem.cache, 19)
    per_k = [counts[2 * k - 2] for k in range(3, 11)]  # K -> powers <= 2K-1
    ok = len(set(per_k)) == 1 and per_k[0] == 4223
    criterion(
        3, ok,
        f"unique strings for K = 3..10: {sorted(set(per_k))} (expected exactly 4223)",
    )


def test_criterion_4_measurement_ladder(h4_problem):
    l_s = measurement_ladder(h4_problem, "singlet", 10)
    l_t = measurement_ladder(h4_problem, "triplet", 10)
    checks = {
        "tapered singlet within 5% of 527": abs(l_s.tapered - 527) <= 0.05 * 527,
        "tapered triplet within 5% of 379": abs(l_t.tapered - 379) <= 0.05 * 379,
        "full qwc within +10% of 441": l_s.qwc <= 441 * 1.10,
        "tapered qwc singlet within +10% of 122": l_s.tapered_qwc <= 122 * 1.10,
        "tapered qwc triplet within +10% of 66": l_t.tapered_qwc <= 66 * 1.10,
        "batches singlet = ceil": l_s.batches == -(-l_s.tapered_qwc // 4),
        "batches triplet = ceil": l_t.batches == -(-l_t.tapered_qwc // 4),
    }
    if l_s.tapered_qwc == 122:
        checks["batches singlet = 31"] = l_s.batches == 31
    if l_t.tapered_qwc == 66:
        checks["batches triplet = 17"] = l_t.batches == 17
    criterion(
        4, all(checks.values()),
        f"ladder singlet {l_s} / triplet {l_t} "
        f"(failed: {[k for k, v in checks.items() if not v]})",
    )


def test_criterion_5_bound_property():
    rng = np.random.default_rng(2024)
    violations = 0
    n_states = 0
    for _ in range(50):
        h = random_sum(rng, 3, 8)
        if h.n_terms == 0:
            continue
        ground = np.linalg.eigvalsh(h.to_matrix())[0]
        for _ in range(4):
            state = random_state(3, rng)
            mean = exact_expectation(h, state)
            n_states += 1
            for K in (1, 2, 3, 4):
                table = moments_for_state(h, state, K)
                res = polynomial_roots(build_system(table, K).X)
                if not (ground - 1e-8 <= res.roots[0] <= mean + 1e-8):
                    violations += 1
    criterion(
        5, violations == 0 and n_states == 200,
        f"bound property held on {n_states} random states x K in 1..4 "
        f"({violations} violations)",
    )


def _tapered_pds(h4_problem, sector):
    ctx = h4_problem.sectors[sector]
    table = moments_for_state(ctx.tapered_h, ctx.tapered_state, 10)
    return table, polynomial_roots(build_system(table, 10).X)


def test_criterion_6_tapering_equivalence_strict(h4_problem, sector_tables):
    """As stated: every PDS(10) root equal to 1e-8 between the 8-qubit and
    tapered 5-qubit pipelines.  The two pipelines' moment vectors agree only
    to ~1e-14 relative, and the moment-to-root map would amplify that to
    ~1e-3 on the weakly determined middle roots; the roots are met to
    ~1e-15 because exact mode takes them from the Lanczos recurrence behind
    the moments, which tapering leaves unchanged.  The companion test below
    pins the moments and the lowest roots."""
    worst = 0.0
    details = []
    for sector in ("singlet", "triplet"):
        full = polynomial_roots(build_system(sector_tables[sector], 10).X)
        _, tapered = _tapered_pds(h4_problem, sector)
        diffs = np.abs(full.roots - tapered.roots)
        worst = max(worst, float(diffs.max()))
        details.append(f"{sector} max |diff| = {diffs.max():.2e}")
    criterion(
        6, worst <= 1e-8,
        "strict per-root equality to 1e-8: " + ", ".join(details)
        + " -- roots from the Lanczos recurrence; the companion test below"
        " pins the moments and the lowest roots",
    )


def test_criterion_6_companion_achieved_equivalence(h4_problem, sector_tables):
    """What the double-precision pipelines do deliver, pinned: moment vectors
    at the float64 limit and sector ground roots to sub-microhartree."""
    checks = {}
    for sector in ("singlet", "triplet"):
        table, tapered = _tapered_pds(h4_problem, sector)
        full_vals = sector_tables[sector].values
        rel = np.max(np.abs(table.values - full_vals) / np.maximum(1.0, np.abs(full_vals)))
        full = polynomial_roots(build_system(sector_tables[sector], 10).X)
        checks[f"{sector} moments"] = rel < 1e-12
        checks[f"{sector} ground root"] = abs(full.roots[0] - tapered.roots[0]) < 1e-5
        checks[f"{sector} second root"] = abs(full.roots[1] - tapered.roots[1]) < 1e-4
    ok = all(checks.values())
    detail = (
        "achieved equivalence: moments <= 1e-12 rel, ground roots <= 1e-5, "
        "second roots <= 1e-4"
        if ok
        else "achieved equivalence failed: "
        + ", ".join(k for k, v in checks.items() if not v)
    )
    criterion(6, ok, detail)


def test_criterion_7_sampling_behavior(h4_problem):
    ctx = h4_problem.sectors["singlet"]
    strings = unique_measured_strings(ctx.tapered_cache, 19)
    groups = group_qwc(strings)

    # serial-mode sampled PDS(10) at 1e5 shots per group
    estimates = {}
    for gi, group in enumerate(groups):
        counts = serial_sample(
            ctx.tapered_bits, group, 100_000, NoiseModel(0.0), [1234, 0, gi]
        )
        estimates.update(expectations_from_group_counts(counts, group))
    values = moments_from_estimates(ctx.tapered_cache, estimates, 10)
    sampled = pds_from_values(values, 10)
    noiseless_table = moments_for_state(ctx.tapered_h, ctx.tapered_state, 10)
    noiseless = polynomial_roots(build_system(noiseless_table, 10).X)
    s0_err = abs(sampled.roots[0] - noiseless.roots[0])

    # error-vs-shots scaling on a fixed group
    group = max(groups, key=lambda g: len(g.members))
    exact_vals = {
        m: exact_expectation(PauliSum.from_string(m), ctx.tapered_state)
        for m in group.members
    }
    shot_levels = (1_000, 10_000, 100_000, 1_000_000)
    mean_errors = []
    for shots in shot_levels:
        errs = []
        for seed in range(24):
            counts = serial_sample(
                ctx.tapered_bits, group, shots, NoiseModel(0.0), [777, shots, seed]
            )
            est = expectations_from_group_counts(counts, group)
            errs.append(
                np.sqrt(np.mean([(est[m] - exact_vals[m]) ** 2 for m in group.members]))
            )
        mean_errors.append(np.mean(errs))
    slope = np.polyfit(np.log10(shot_levels), np.log10(mean_errors), 1)[0]

    ok = s0_err < 5e-4 and -0.6 <= slope <= -0.4
    criterion(
        7, ok,
        f"serial 1e5-shot S0 error = {s0_err:.2e} (tol 5e-4); "
        f"log-log error slope = {slope:.3f} (want -0.5 +- 0.1)",
    )


def test_criterion_8_mitigation(h4_problem):
    # (a) forward channel + mitigation on full support is the identity
    rng = np.random.default_rng(5)
    ideal = rng.dirichlet(np.ones(1 << 10))
    noisy = flip_channel(ideal, 1e-3)
    recovered = mitigate(np.arange(1 << 10), noisy, 10, NoiseModel(1e-3))
    round_trip = np.max(np.abs(recovered - ideal))

    # (b) analytic full-support recovery at the energy level: channel then
    # mitigate on the infinite-shot distributions reproduces the clean PDS
    p = 1e-3
    recovery_errors = []
    for sector in ("singlet", "triplet"):
        ctx = h4_problem.sectors[sector]
        strings = unique_measured_strings(ctx.tapered_cache, 19)
        groups = group_qwc(strings)
        clean, corrected = {}, {}
        for group in groups:
            probs = rotated_probabilities(ctx.tapered_state.amplitudes, group)
            support = np.flatnonzero(probs > 1e-12)
            clean.update(expectations_from_group_weights(support, probs[support], group))
            noisy = flip_channel(np.where(probs > 1e-12, probs, 0.0), p)
            observed = np.flatnonzero(noisy > 0.0)
            fixed = mitigate(
                observed, noisy[observed], ctx.tapered_h.n_qubits, NoiseModel(p)
            )
            corrected.update(expectations_from_group_weights(observed, fixed, group))
        res_clean = pds_from_values(
            moments_from_estimates(ctx.tapered_cache, clean, 10), 10
        )
        res_mit = pds_from_values(
            moments_from_estimates(ctx.tapered_cache, corrected, 10), 10
        )
        roots = (0, 1) if sector == "singlet" else (0,)
        for r in roots:
            recovery_errors.append(abs(res_mit.roots[r] - res_clean.roots[r]))

    # (c) end-to-end in the packed 20-qubit sampled regime, where the sparse
    # observed support keeps the restricted inverse nearly diagonal: same
    # seeds, mitigation toggled, correction must stay below 1e-4 hartree
    mitigation_shifts = []
    for sector_index, sector in enumerate(("singlet", "triplet")):
        ctx = h4_problem.sectors[sector]
        results = {}
        for flag in (False, True):
            est = estimate_expectations_parallel(
                ctx, 19, 8192, 77, sector_index, spam_p=p, apply_mitigation=flag
            )
            values = moments_from_estimates(ctx.tapered_cache, est, 10)
            results[flag] = pds_from_values(values, 10)
        roots = (0, 1) if sector == "singlet" else (0,)
        for r in roots:
            mitigation_shifts.append(
                abs(results[True].roots[r] - results[False].roots[r])
            )

    ok = (
        round_trip < 1e-10
        and max(recovery_errors) < 1e-4
        and max(mitigation_shifts) < 1e-4
    )
    criterion(
        8, ok,
        f"round-trip max deviation = {round_trip:.2e} (tol 1e-10); "
        f"analytic channel+mitigate recovery errors "
        f"{[f'{s:.1e}' for s in recovery_errors]} < 1e-4; sampled 20-qubit "
        f"mitigated-vs-unmitigated shifts {[f'{s:.1e}' for s in mitigation_shifts]} < 1e-4",
    )


def test_criterion_9_hardware_values_documented(h4_problem, tmp_path):
    cfg = RunConfig(
        spacings=(2.0, 2.0, 2.0), mode="exact", output_dir=tmp_path / "report"
    )
    report = run_pipeline(cfg, problem=h4_problem)
    summary = (tmp_path / "report" / "summary.txt").read_text()
    ok = (
        "reference points only" in summary
        and "-1.898401" in summary
        and "not reproducible" in summary
    )
    criterion(
        9, ok,
        "hardware-run energies are emitted as documentation with an explicit "
        "'reference points only / not reproducible' note",
    )
