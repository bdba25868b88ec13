"""Pipeline orchestration: config validation, determinism, report bundle."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from pdsq import chem, fcidump
from pdsq.moments import unique_string_count
from pdsq.pipeline import (
    PipelineError,
    RunConfig,
    build_problem,
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
    table per sector."""
    from pdsq import pipeline

    states = []

    def counted(h, state, K, **kwargs):
        states.append(state.amplitudes.tobytes())
        return original(h, state, K, **kwargs)

    original = pipeline.moments_for_state
    monkeypatch.setattr(pipeline, "moments_for_state", counted)
    run_pipeline(h2_config(tmp_path, mode=mode))
    assert len(states) == 2 and len(set(states)) == 2


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
    """Sampler to estimate stays on integer outcome arrays: no bitstring is
    built or parsed on the serial or the packed, mitigated path."""
    import sys

    from pdsq.pipeline import estimate_expectations_parallel, register_width

    def refuse(*args):
        raise AssertionError("bitstring conversion on the sampled path")

    for name, module in list(sys.modules.items()):
        if name == "pdsq" or name.startswith("pdsq."):
            for attr in ("index_to_bits", "bits_to_index"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    ctx = h4_problem.sectors["singlet"]
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

    from pdsq.pipeline import SECTORS, register_width, sample_sector

    shots = 1024
    for sector_index, sector in enumerate(SECTORS):
        ctx = h4_problem.sectors[sector]
        (b,) = np.flatnonzero(ctx.tapered_state.amplitudes).tolist()
        register = register_width(ctx, mode)
        for p in (0.0, 1e-3):
            flipped = trials = 0
            for batch, counts in sample_sector(ctx, 19, shots, seed, sector_index, p, register):
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


def test_only_a_ledger_with_assembled_moments_holds_a_column_map(tmp_path, monkeypatch):
    """An exact run assembles no moments from estimates, so the full H4
    ledger holds no column map after it; a tapered ledger numbers its
    terms for the map on its first assembly only."""
    from pdsq import moments
    from pdsq.pipeline import moments_from_estimates, unique_measured_strings

    cfg = RunConfig(spacings=(2.0, 2.0, 2.0), output_dir=tmp_path)
    problem = build_problem(cfg)
    run_pipeline(cfg, problem)
    full = problem.cache.ledger(19)
    assert len(full.strings) == 4223 and full.groups
    assert "columns" not in vars(full)
    cache = problem.sectors["singlet"].tapered_cache
    estimates = dict.fromkeys(unique_measured_strings(cache, 19), 0.5)
    numbered = []
    number = moments._number_terms

    def counted(powers):
        numbered.append(len(powers))
        return number(powers)

    monkeypatch.setattr(moments, "_number_terms", counted)
    got = [moments_from_estimates(cache, estimates, 10) for _ in range(3)]
    assert numbered == [20]
    assert all(np.array_equal(g, got[0]) for g in got)
    assert "columns" not in vars(problem.cache.ledger(19))


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
