"""Pipeline orchestration: config validation, determinism, report bundle."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdsq import chem, fcidump
from pdsq.backend import bits_to_index, prepare_basis_state
from pdsq.moments import moments_for_state, unique_string_count
from pdsq.pds import build_system, polynomial_roots
from pdsq.pipeline import (
    PipelineError,
    RunConfig,
    build_problem,
    exact_tables,
    measurement_ladder,
    run_pipeline,
)


def h2_config(tmp_path, **overrides):
    base = dict(
        spacings=(0.7414,),
        k_max=3,
        shots=512,
        seed=3,
        output_dir=tmp_path / "out",
    )
    base.update(overrides)
    return RunConfig(**base)


def test_exactly_one_source_required(tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig(spacings=(1.0,), fcidump_path="x.fcidump", output_dir=tmp_path)
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig(output_dir=tmp_path)


def test_config_validation(tmp_path):
    # an empty list once built a lone H atom and failed later, in the SCF
    with pytest.raises(ValueError, match="^empty spacing list: an H chain needs at least one"):
        h2_config(tmp_path, spacings=())
    with pytest.raises(ValueError, match="k_max"):
        h2_config(tmp_path, k_max=0)
    with pytest.raises(ValueError, match="mode"):
        h2_config(tmp_path, mode="fast")
    with pytest.raises(ValueError, match="shots"):
        h2_config(tmp_path, mode="serial", shots=0)
    with pytest.raises(ValueError, match="spam_p"):
        h2_config(tmp_path, spam_p=0.7)


def test_validation_precedes_computation(tmp_path):
    # a config validates itself, so no invalid one reaches run_pipeline
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig(spacings=(2.0,), geometry_path="also.xyz", output_dir=tmp_path)


def test_pipeline_error_names_stage(tmp_path, monkeypatch):
    """A computation failure while building the problem is wrapped, naming
    the stage; a missing FCIDUMP is an input error and passes unwrapped."""
    from pdsq import pipeline

    cfg = h2_config(tmp_path, fcidump_path=str(tmp_path / "missing.fcidump"),
                    spacings=None)
    with pytest.raises(FileNotFoundError, match="missing.fcidump"):
        run_pipeline(cfg)

    def no_convergence(cfg):
        raise RuntimeError("RHF did not converge")

    monkeypatch.setattr(pipeline, "build_problem", no_convergence)
    with pytest.raises(PipelineError, match="stage 'hamiltonian' failed"):
        run_pipeline(cfg)


def test_h2_exact_run_bundle(tmp_path):
    cfg = h2_config(tmp_path)
    report = run_pipeline(cfg)
    out = Path(cfg.output_dir)
    for name in (
        "measurement_counts.csv",
        "energy_vs_order.csv",
        "energies.csv",
        "summary.txt",
    ):
        assert (out / name).exists()
    # H2 exact ground state in the minimal basis
    assert report.energies["singlet"].result.roots[0] == pytest.approx(
        report.exact_reference["S0"], abs=1e-6
    )
    summary = (out / "summary.txt").read_text()
    assert "reference points only" in summary


@pytest.mark.parametrize("mode", ["exact", "serial"])
def test_one_exact_table_per_sector(tmp_path, monkeypatch, mode):
    """Exact-mode energies and energy_vs_order.csv share one exact moment
    table per sector, each of its tapered operator and state.  H2's two
    tapered states are both |0>, so a table is keyed on the pair."""
    from pdsq import pipeline

    pairs = []

    def counted(h, state, K, **kwargs):
        pairs.append((h.to_text(), state.amplitudes.tobytes()))
        return original(h, state, K, **kwargs)

    original = pipeline.moments_for_state
    monkeypatch.setattr(pipeline, "moments_for_state", counted)
    run_pipeline(h2_config(tmp_path, mode=mode))
    assert len(pairs) == 2 and len(set(pairs)) == 2


@pytest.mark.parametrize(
    "spacings, k", [((0.7414,), 3), ((2.0, 2.0, 2.0), 10), ((1.0, 1.5, 1.0), 10)]
)
def test_exact_tables_on_the_tapered_pair_match_the_full_space(spacings, k):
    """Each exact table is the Lanczos run of the sector's tapered operator
    and state, and matches that of the full H on the 2^n-amplitude reference
    determinant: the same recurrence order, the moments to 1e-13 relative
    and the PDS roots to 1e-12 Eh."""
    problem = build_problem(RunConfig(spacings=spacings))
    tables = exact_tables(problem, k)
    for sector, ctx in problem.sectors.items():
        got = tables[sector]
        tapered = moments_for_state(ctx.tapered_h, ctx.tapered_state, k)
        assert got.values.tobytes() == tapered.values.tobytes()
        full = moments_for_state(
            problem.hamiltonian, prepare_basis_state(ctx.determinant.bits), k
        )
        assert got.recurrence.order == full.recurrence.order
        np.testing.assert_allclose(got.values, full.values, rtol=1e-13, atol=0)
        roots = [polynomial_roots(build_system(t, k).X).roots for t in (got, full)]
        np.testing.assert_allclose(*roots, rtol=0, atol=1e-12)


def test_only_the_exact_moments_build_a_state(monkeypatch):
    """Each sector keeps its tapered reference as its bits: build_problem and
    the sampler build no StateVector, and reading tapered_state builds the
    basis state those bits name."""
    from pdsq import pipeline
    from pdsq.backend import NoiseModel

    def refuse(bits):
        raise AssertionError("a StateVector was built")

    with monkeypatch.context() as patched:
        patched.setattr(pipeline, "prepare_basis_state", refuse)
        problem = build_problem(RunConfig(spacings=(2.0, 2.0, 2.0)))
        for si, ctx in enumerate(problem.sectors.values()):
            for register in (ctx.tapered_h.n_qubits, 20):
                draws = pipeline.sample_sector(ctx, 5, 64, 3, si, NoiseModel(1e-3), register)
                assert all(counts.shots == 64 for _, counts in draws)
    for ctx in problem.sectors.values():
        assert len(ctx.tapered_bits) == ctx.tapered_h.n_qubits
        (b,) = np.flatnonzero(ctx.tapered_state.amplitudes).tolist()
        assert b == bits_to_index(ctx.tapered_bits)


def test_seeded_serial_run_is_bit_identical(tmp_path):
    cfg_a = h2_config(tmp_path, mode="serial", output_dir=tmp_path / "a")
    cfg_b = h2_config(tmp_path, mode="serial", output_dir=tmp_path / "b")
    run_pipeline(cfg_a)
    run_pipeline(cfg_b)
    for name in ("measurement_counts.csv", "energies.csv", "energy_vs_order.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_parallel_mode_runs(tmp_path):
    cfg = h2_config(tmp_path, mode="parallel", shots=1024)
    report = run_pipeline(cfg)
    exact_s0 = report.exact_reference["S0"]
    assert report.energies["singlet"].result.roots[0] == pytest.approx(
        exact_s0, abs=5e-2
    )


def test_fcidump_source(tmp_path, h2_system):
    # export in the orthonormal RHF basis, then run everything off the file
    from pdsq.chem import mo_integrals

    mo = mo_integrals(h2_system["integrals"], h2_system["scf"])
    path = tmp_path / "h2.fcidump"
    fcidump.fcidump_write(mo, path)
    cfg = h2_config(tmp_path, spacings=None, fcidump_path=str(path))
    report = run_pipeline(cfg)
    assert report.energies["singlet"].result.roots[0] == pytest.approx(
        report.exact_reference["S0"], abs=1e-6
    )


def test_ladder_is_rederivable(tmp_path):
    cfg = h2_config(tmp_path)
    problem = build_problem(cfg)
    report = run_pipeline(cfg, problem=problem)
    for sector in ("singlet", "triplet"):
        again = measurement_ladder(problem, sector, cfg.k_max)
        assert again == report.ladders[sector]


@pytest.mark.xfail(
    strict=True,
    raises=PipelineError,
    reason="ROADMAP item 2: sampled H2 PDS(10) reads a complex root 1 (|Im| 0.527) "
    "and stage 'transitions' fails",
)
@pytest.mark.parametrize("mode, spam_p", [("serial", 0.0), ("parallel", 1e-3)])
def test_h2_sampled_run_returns(tmp_path, mode, spam_p):
    """Item 2's H2 gate: a sampled H2 run at the default K = 10 returns a
    report (with its roots, or saying which it could not resolve) instead
    of failing."""
    run_pipeline(RunConfig(
        spacings=(0.7414,), seed=11, mode=mode, spam_p=spam_p, output_dir=tmp_path
    ))


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="one CPU: OpenBLAS runs one thread either way"
)
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 8: mitigation's two dgemm products round differently at 2 "
    "OpenBLAS threads, which moves the mitigated energies in energies.csv",
)
def test_sampled_bundle_does_not_depend_on_the_blas_thread_count(tmp_path):
    """Item 8's gate: a small H4 parallel + SPAM run (1024 shots, seed 3)
    writes the same bundle bytes at 1 and at 2 OpenBLAS threads, each run
    in a child process; a child that fails raises CalledProcessError, not
    the expected AssertionError."""
    src = str(Path(__file__).parents[1] / "src")
    bundles = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run(
            [sys.executable, "-m", "pdsq.cli", "run", "--spacings", "2,2,2", "--mode", "parallel",
             "--spam-p", "1e-3", "--shots", "1024", "--seed", "3", "--output-dir", str(out)],
            capture_output=True, check=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        )
        bundles.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert bundles[0] == bundles[1]


def test_spam_noise_with_mitigation_runs(tmp_path):
    cfg = h2_config(tmp_path, mode="serial", spam_p=1e-3, shots=2048)
    report = run_pipeline(cfg)
    assert report.energies["singlet"].result.roots[0] == pytest.approx(
        report.exact_reference["S0"], abs=5e-2
    )


def test_h4_serial_8192_shot_ground_energy(h4_problem):
    """Device-realistic shot budget: the sampled singlet ground bound stays
    within statistical tolerance of the noiseless -1.89778."""
    from pdsq.pds import pds_from_values
    from pdsq.pipeline import (
        estimate_expectations_parallel, moments_from_estimates, register_width,
    )

    ctx = h4_problem.sectors["singlet"]
    estimates = estimate_expectations_parallel(
        ctx, 19, 8192, 19, 0, spam_p=0.0, apply_mitigation=True,
        register=register_width(ctx, "serial"),
    )
    values = moments_from_estimates(ctx.tapered_cache, estimates, 10)
    result = pds_from_values(values, 10)
    assert result.roots[0] == pytest.approx(-1.897768, abs=1e-3)


def test_sampled_path_builds_no_bitstrings(h4_problem, monkeypatch):
    """Sampler to estimate stays on integer outcome arrays: no outcome
    bitstring is built or parsed on the serial or the packed, mitigated
    path; the only bitstring read is the sector's tapered reference."""
    import sys

    from pdsq.pipeline import estimate_expectations_parallel, register_width

    ctx = h4_problem.sectors["singlet"]

    def refuse(*args):
        raise AssertionError("bitstring conversion on the sampled path")

    def reference_only(bits):
        # the sampler reads its basis state once per execution as its bits
        if bits != ctx.tapered_bits:
            refuse()
        return bits_to_index(bits)

    for name, module in list(sys.modules.items()):
        if name == "pdsq" or name.startswith("pdsq."):
            for attr, stub in (("index_to_bits", refuse), ("bits_to_index", reference_only)):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, stub)
    parallel = estimate_expectations_parallel(
        ctx, 19, 256, 5, 0, spam_p=1e-3, apply_mitigation=True
    )
    serial = estimate_expectations_parallel(
        ctx, 19, 256, 5, 0, spam_p=0.0, apply_mitigation=True,
        register=register_width(ctx, "serial"),
    )
    assert parallel.keys() == serial.keys()


@pytest.mark.parametrize("sector_index, sector", enumerate(("singlet", "triplet")))
@pytest.mark.parametrize("seed", [3, 77, 20261022])
@pytest.mark.parametrize(
    "spam_p, apply_mitigation", [(0.0, True), (1e-3, True), (1e-2, False)]
)
def test_serial_mode_is_packing_one_group_per_register(
    h4_problem, sector_index, sector, seed, spam_p, apply_mitigation
):
    """The one estimator on a register as wide as a group gives the group by
    group loop's estimates: the same strings in the same order, the same
    float bits."""
    import numpy as np

    from oracles import serial_estimates_reference
    from pdsq.pipeline import estimate_expectations_parallel, register_width

    ctx = h4_problem.sectors[sector]
    got = estimate_expectations_parallel(
        ctx, 19, 1024, seed, sector_index, spam_p=spam_p,
        apply_mitigation=apply_mitigation, register=register_width(ctx, "serial"),
    )
    want = serial_estimates_reference(
        ctx, 19, 1024, seed, sector_index, spam_p, apply_mitigation
    )
    assert list(got) == list(want)
    assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()


LAW_SEEDS = (1, 2, 3, 4)
LAW_ALPHA = 1e-3


def _law_pvalue(ctx, estimate_p: float, law_p: float) -> float:
    """Bonferroni p-value of the raw singlet estimates, drawn at flip rate
    estimate_p and pooled over LAW_SEEDS, against sampled_estimate_law at
    law_p.  A string's estimate is the mean of `shots` independent +-1
    readings, so its count of -1 readings over all seeds is exactly
    Binomial(shots * seeds, (1 - mean) / 2), whose variance is the law's;
    each string gets that binomial's two-sided exact test."""
    from scipy import stats

    from oracles import sampled_estimate_law
    from pdsq.pipeline import estimate_expectations_parallel

    shots = 8192
    strings, mean, _ = sampled_estimate_law(ctx, shots, law_p)
    minus = np.zeros(len(strings))
    for seed in LAW_SEEDS:
        estimates = estimate_expectations_parallel(
            ctx, 19, shots, seed, 0, spam_p=estimate_p, apply_mitigation=False
        )
        minus += shots * (1 - np.array([estimates[s] for s in strings])) / 2
    assert np.abs(minus - np.round(minus)).max() < 1e-6
    trials = shots * len(LAW_SEEDS)
    pvalues = [
        stats.binomtest(int(k), trials, q).pvalue
        for k, q in zip(np.round(minus), np.clip((1 - mean) / 2, 0.0, 1.0))
    ]
    return min(1.0, len(strings) * min(pvalues))


@pytest.mark.parametrize("p", [1e-3, 0.05])
def test_raw_singlet_estimates_follow_the_closed_form_law(h4_problem, p):
    """Every raw singlet estimate of a parallel run, over four fixed seeds,
    against the closed-form law of oracles.sampled_estimate_law: the exact
    binomial test of each of the 527 strings at level LAW_ALPHA / 527
    (Bonferroni), so a correct sampler fails at fresh seeds with
    probability at most LAW_ALPHA = 1e-3 per p."""
    assert _law_pvalue(h4_problem.sectors["singlet"], p, p) > LAW_ALPHA


def test_a_ten_percent_flip_rate_error_breaks_the_law(h4_problem):
    """The law test has power: estimates drawn at 1.1 p fail it at p.  At
    p = 0.05 over four seeds of 8192 shots, that error moves the mean of
    the weight-5 Z string by 7.2 sigma (law sigma, 32768 readings), above
    the 4.8-sigma two-sided Bonferroni threshold; at p = 1e-3 it moves no
    mean by more than 1.3 sigma, too little to see."""
    from oracles import sampled_estimate_law

    ctx = h4_problem.sectors["singlet"]
    p, readings = 0.05, 8192 * len(LAW_SEEDS)
    for rate, margin in ((p, 7.2), (1e-3, 1.3)):
        _, mean, cov = sampled_estimate_law(ctx, readings, rate)
        _, wrong, _ = sampled_estimate_law(ctx, readings, 1.1 * rate)
        var = np.diag(cov)
        shift = np.abs(wrong - mean)[var > 0] / np.sqrt(var[var > 0])
        assert shift.max() == pytest.approx(margin, abs=0.05)
    assert _law_pvalue(ctx, 1.1 * p, p) < LAW_ALPHA


def test_estimate_law_matches_the_dense_distribution(h4_problem):
    """The closed-form mean and covariance of oracles.sampled_estimate_law
    equal those of each group's exact outcome distribution: the tapered
    reference rotated gate by gate, squared and pushed through the flip
    channel, with every member read as a parity of the outcome bits."""
    from oracles import basis_change_reference, flip_channel, sampled_estimate_law

    shots = 100
    for ctx in h4_problem.sectors.values():
        for p in (0.0, 1e-3, 0.05):
            strings, mean, cov = sampled_estimate_law(ctx, shots, p)
            column = {s: i for i, s in enumerate(strings)}
            want_mean, want_cov = np.zeros_like(mean), np.zeros_like(cov)
            outcomes = np.arange(1 << ctx.tapered_h.n_qubits)
            for group in ctx.tapered_cache.ledger(19).groups:
                amps = basis_change_reference(ctx.tapered_state.amplitudes, group.rotation)
                probs = flip_channel(np.abs(amps) ** 2, p)
                supports = np.array([m.support for m in group.members])
                readings = 1.0 - 2.0 * (np.bitwise_count(outcomes[:, None] & supports) & 1)
                cols = [column[m] for m in group.members]
                first = want_mean[cols] = probs @ readings
                second = readings.T @ (probs[:, None] * readings)
                want_cov[np.ix_(cols, cols)] = (second - np.outer(first, first)) / shots
            assert np.allclose(mean, want_mean, rtol=0.0, atol=1e-12)
            assert np.allclose(cov, want_cov, rtol=0.0, atol=1e-12 / shots)


MOMENT_SHOTS = 1024
MOMENT_REPLICATES = 100


def _moment_law_pvalues(ctx, p: float) -> tuple[float, float, float]:
    """Bonferroni p-values of MOMENT_REPLICATES raw parallel runs of a
    sector (seeds 0, 1, ..., MOMENT_SHOTS shots at flip rate p) against
    oracles.sampled_estimate_law, for three things a run makes:

    - the mean of each sampled moment <H^n>, n = 1..19, against C mean,
      where row n of C holds H^n's coefficients: a z-test with the law's
      variance (C cov C^T)_nn / replicates;
    - the spread of each moment: a two-sided chi-square test of its sample
      variance against (C cov C^T)_nn, on replicates - 1 degrees of freedom;
    - the covariance of estimates in different slots of one execution, which
      the law sets to 0: the exact t-test of zero correlation for every such
      pair of strings with an X or Y letter, whose estimates are means of
      fair +-1 readings and so close to normal.

    Each is a two-sided test made Bonferroni over its powers or pairs, so
    a correct program fails one at fresh seeds with probability about its
    level; the moments are assumed normal over replicates (each sums
    hundreds of estimates)."""
    from scipy import stats

    from oracles import sampled_estimate_law
    from pdsq.grouping import pack_batches
    from pdsq.pipeline import (
        DEVICE_REGISTER, estimate_expectations_parallel, moments_from_estimates,
    )

    cache, reps = ctx.tapered_cache, MOMENT_REPLICATES
    strings, mean, cov = sampled_estimate_law(ctx, MOMENT_SHOTS, p)
    column = {s: i + 1 for i, s in enumerate(strings)}  # 0: the identity
    c = np.zeros((20, len(strings) + 1))
    for n in range(20):
        for string, coeff in cache.power(n).terms():
            c[n, 0 if string.is_identity else column[string]] += coeff
    estimates, moments = [], []
    for seed in range(reps):
        got = estimate_expectations_parallel(
            ctx, 19, MOMENT_SHOTS, seed, 0, spam_p=p, apply_mitigation=False
        )
        estimates.append([got[s] for s in strings])
        moments.append(moments_from_estimates(cache, got, 10)[1:])
    estimates, moments = np.array(estimates), np.array(moments)
    want = (c[:, 0] + c[:, 1:] @ mean)[1:]
    var = np.diag(c[1:, 1:] @ cov @ c[1:, 1:].T)
    z = (moments.mean(axis=0) - want) / np.sqrt(var / reps)
    chi2 = (reps - 1) * moments.var(axis=0, ddof=1) / var
    spread = np.minimum(stats.chi2.sf(chi2, reps - 1), stats.chi2.cdf(chi2, reps - 1))

    pairs = []
    batches = pack_batches(cache.ledger(19).groups, ctx.tapered_h.n_qubits, DEVICE_REGISTER)
    for batch in batches:
        slots = [[column[m] - 1 for m in group.members if m.x] for group, _ in batch.slots]
        for i, first in enumerate(slots):
            pairs += [(a, b) for later in slots[i + 1:] for a in first for b in later]
    a, b = np.array(pairs).T
    centred = estimates - estimates.mean(axis=0)
    r = (centred[:, a] * centred[:, b]).mean(axis=0) / (centred[:, a].std(0) * centred[:, b].std(0))
    t = r * np.sqrt((reps - 2) / (1 - r**2))
    return tuple(
        min(1.0, 2 * len(tails) * tails.min())
        for tails in (stats.norm.sf(np.abs(z)), spread, stats.t.sf(np.abs(t), reps - 2))
    )


@pytest.mark.parametrize("p", [1e-3, 0.05])
def test_raw_sampled_moments_follow_the_closed_form_law(h4_problem, p):
    """Sampler, estimator and moment assembly together give raw singlet
    moments with the law's mean C mean and spread C cov C^T, and estimates
    in different slots of one execution that do not covary: each of the
    three tests of _moment_law_pvalues at level LAW_ALPHA, so a correct
    program fails this at fresh seeds with probability about 3e-3 per p."""
    assert min(_moment_law_pvalues(h4_problem.sectors["singlet"], p)) > LAW_ALPHA


def test_slots_that_share_uniform_bits_break_the_law(h4_problem, monkeypatch):
    """The covariance test has power: a sampler whose every slot copies
    the uniform bits of the slot before it (so all read those of the first)
    keeps each slot's outcomes exact, and with them every estimate's and
    moment's mean, but makes two strings with X or Y on the same slot
    qubits read the same uniform bits: their estimates correlate near 1,
    and the cross-slot test fails far below LAW_ALPHA."""
    from pdsq import pipeline
    from pdsq.backend import CountTable

    def shared_bits(bits, batch, shots, noise, seed):
        rng = np.random.default_rng(seed)
        b = bits_to_index(bits)
        uniform = rng.integers(0, 1 << len(bits), shots)
        joint = np.zeros(shots, dtype=np.int64)
        for group, offset in batch.slots:
            x = group.rotation.x
            joint |= ((uniform & x) | (b & ~x)) << offset
        width = batch.register_width
        flips = rng.random((shots, width)) < noise.spam_flip_probability
        return CountTable.from_indices(joint ^ (flips @ (1 << np.arange(width))), width)

    monkeypatch.setattr(pipeline, "sample_batch", shared_bits)
    means, _, cross = _moment_law_pvalues(h4_problem.sectors["singlet"], 1e-3)
    assert means > LAW_ALPHA
    assert cross < 1e-50


@pytest.mark.parametrize("seed", [3, 77, 20261022])
@pytest.mark.parametrize("mode", ["parallel", "serial"])
def test_flip_masks_match_the_matrix_product(h4_problem, seed, mode):
    """Every execution of both sectors reads the reference state's bit on
    each register bit that no slot's rotation puts in X or Y, unless a
    readout flip hit it.  Without noise none differs; at p = 1e-3 the
    differing bits number Binomial(shots * fixed bits, p), the law of the
    reference flip model, a (shots, bits) matrix of Bernoulli(p) flags times
    the bit values (two-sided, false-alarm rate 1e-5)."""
    import numpy as np
    from scipy import stats

    from pdsq.backend import NoiseModel
    from pdsq.pipeline import SECTORS, register_width, sample_sector

    shots = 1024
    for sector_index, sector in enumerate(SECTORS):
        ctx = h4_problem.sectors[sector]
        b = bits_to_index(ctx.tapered_bits)
        register = register_width(ctx, mode)
        for p in (0.0, 1e-3):
            flipped = trials = 0
            draws = sample_sector(ctx, 19, shots, seed, sector_index, NoiseModel(p), register)
            for batch, counts in draws:
                fixed, want = (1 << register) - 1, 0
                for group, offset in batch.slots:
                    fixed &= ~(group.rotation.x << offset)
                    want |= (b & ~group.rotation.x) << offset
                wrong = ((counts.outcomes ^ want) & fixed).tolist()
                flipped += int(np.dot([bin(w).count("1") for w in wrong], counts.counts))
                trials += shots * bin(fixed).count("1")
            if p == 0.0:
                assert flipped == 0
            else:
                assert stats.binomtest(flipped, trials, p).pvalue > 1e-5


def test_moments_match_the_term_loop(h4_problem):
    """The vectorized assembly adds each power's terms in the loop's order,
    so the moments are bit-identical; a string without an estimate is a
    KeyError, as a dict lookup would give."""
    import numpy as np

    from oracles import moments_by_term_loop
    from pdsq.pipeline import moments_from_estimates, unique_measured_strings

    rng = np.random.default_rng(11)
    for sector in ("singlet", "triplet"):
        cache = h4_problem.sectors[sector].tapered_cache
        strings = unique_measured_strings(cache, 19)
        estimates = dict(zip(strings, rng.uniform(-1.0, 1.0, len(strings))))
        got = moments_from_estimates(cache, estimates, 10)
        assert np.array_equal(got, moments_by_term_loop(cache, estimates, 10))
    del estimates[strings[-1]]
    with pytest.raises(KeyError):
        moments_from_estimates(cache, estimates, 10)


def test_moments_ignore_extra_estimates_and_keep_the_identity(h4_problem):
    """Estimates of the identity, of strings outside the ledger, of its
    width or wider, and of ledger masks at another width change no moment,
    and <H^0> stays 1.0.  A wider key never stands in for a missing ledger
    string: the lookup raises KeyError naming it."""
    import numpy as np

    from pdsq.pauli import PauliString
    from pdsq.pipeline import moments_from_estimates, unique_measured_strings

    cache = h4_problem.sectors["singlet"].tapered_cache
    n = cache.h.n_qubits
    strings = unique_measured_strings(cache, 19)
    estimates = dict(zip(strings, np.random.default_rng(5).uniform(-1.0, 1.0, len(strings))))
    want = moments_from_estimates(cache, estimates, 10)
    outside = next(
        s for s in (PauliString(n, x, z) for z in range(1 << n) for x in range(1 << n))
        if s not in estimates and not s.is_identity
    )
    extra = {
        PauliString.identity(n): 0.25,
        outside: 0.5,
        PauliString(n + 3, 1 << n + 2, 0): -0.5,
        PauliString(64, (1 << 64) - 1, 1 << 63): 0.75,
    }
    # the same masks at another width: a different string, ignored
    later = PauliString(n + 1, strings[0].x, strings[0].z)
    got = moments_from_estimates(cache, {**extra, **estimates, later: 9.0}, 10)
    assert got[0] == 1.0
    assert np.array_equal(got, want)
    del estimates[strings[0]]
    with pytest.raises(KeyError) as missing:
        moments_from_estimates(cache, {**estimates, later: 9.0}, 10)
    assert missing.value.args == (strings[0],)


@pytest.mark.parametrize("mode", ["exact", "parallel"])
def test_each_ledger_numbers_its_terms_once_at_its_build(tmp_path, monkeypatch, mode):
    """A run builds three ledgers over H^1..H^19, the full H4's and each
    sector's tapered one, and each numbers its terms once, at its build,
    keeping that numbering as its column map: assembling moments from
    estimates, in a sampled run or again and again after one, numbers
    nothing."""
    from pdsq import moments
    from pdsq.pipeline import moments_from_estimates, unique_measured_strings

    numbered = []
    number = moments._number_strings

    def counted(n, x, z):
        numbered.append(x.size)
        return number(n, x, z)

    monkeypatch.setattr(moments, "_number_strings", counted)
    cfg = RunConfig(spacings=(2.0, 2.0, 2.0), mode=mode, output_dir=tmp_path)
    problem = build_problem(cfg)
    run_pipeline(cfg, problem)
    caches = [problem.cache, *(ctx.tapered_cache for ctx in problem.sectors.values())]
    assert numbered == [cache.ledger(19).columns.size for cache in caches]
    full = problem.cache.ledger(19)
    assert len(full.strings) == 4223 and full.groups
    cache = caches[1]
    estimates = dict.fromkeys(unique_measured_strings(cache, 19), 0.5)
    got = [moments_from_estimates(cache, estimates, 10) for _ in range(3)]
    assert len(numbered) == 3
    assert all(np.array_equal(g, got[0]) for g in got)


@pytest.mark.parametrize("spacings", [(2.0, 2.0, 2.0), (1.0, 1.5, 1.0), (1.0, 2.0, 3.0)])
def test_ledgers_hold_real_symmetric_strings_only(spacings):
    """Every string of the full and both tapered H4 ledgers over H^1..H^19
    has an even number of Y letters: the odd ones are round-off of exact
    zeros, dropped by each power relative to its largest term."""
    problem = build_problem(RunConfig(spacings=spacings))
    for cache in (problem.cache, *(ctx.tapered_cache for ctx in problem.sectors.values())):
        assert not any((s.x & s.z).bit_count() & 1 for s in cache.ledger(19).strings)


@pytest.mark.parametrize("ulps", [-2, -1, 3])
def test_ledgers_do_not_move_with_the_last_bits_of_the_integrals(ulps, monkeypatch):
    """Each two-electron integral moved by a few ulp (np.nextafter, which
    keeps the 8-fold symmetry) moves the Hamiltonian's coefficients but not
    its ledgers: 4223 strings for H, 527 and 379 for the tapered singlet
    and triplet."""
    compute = chem.compute_integrals

    def nudged(geometry):
        ints = compute(geometry)
        eri = ints.two_body
        for _ in range(abs(ulps)):
            eri = np.nextafter(eri, np.copysign(np.inf, ulps))
        return dataclasses.replace(ints, two_body=eri)

    exact = build_problem(RunConfig(spacings=(2.0, 2.0, 2.0))).hamiltonian
    monkeypatch.setattr(chem, "compute_integrals", nudged)
    problem = build_problem(RunConfig(spacings=(2.0, 2.0, 2.0)))
    assert problem.hamiltonian.mask_arrays()[2].tobytes() != exact.mask_arrays()[2].tobytes()
    counts = [
        unique_string_count(cache, 19)[-1]
        for cache in (problem.cache, *(ctx.tapered_cache for ctx in problem.sectors.values()))
    ]
    assert counts == [4223, 527, 379]
