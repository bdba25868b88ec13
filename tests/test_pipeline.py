"""Pipeline orchestration: config validation, determinism, report bundle."""

from pathlib import Path

import pytest

from pdsq import fcidump
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
        RunConfig(
            spacings=(1.0,), fcidump_path="x.fcidump", output_dir=tmp_path
        ).validate()
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig(output_dir=tmp_path).validate()


def test_config_validation(tmp_path):
    with pytest.raises(ValueError, match="k_max"):
        h2_config(tmp_path, k_max=0).validate()
    with pytest.raises(ValueError, match="mode"):
        h2_config(tmp_path, mode="fast").validate()
    with pytest.raises(ValueError, match="shots"):
        h2_config(tmp_path, mode="serial", shots=0).validate()
    with pytest.raises(ValueError, match="spam_p"):
        h2_config(tmp_path, spam_p=0.7).validate()


def test_validation_precedes_computation(tmp_path):
    bad = RunConfig(
        spacings=(2.0,), geometry_path="also.xyz", output_dir=tmp_path
    )
    with pytest.raises(ValueError, match="exactly one"):
        run_pipeline(bad)


def test_pipeline_error_names_stage(tmp_path):
    cfg = h2_config(tmp_path, fcidump_path=str(tmp_path / "missing.fcidump"),
                    spacings=None)
    with pytest.raises(PipelineError, match="hamiltonian"):
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
        ctx, 19, 8192, 19, 0, register=register_width(ctx, "serial")
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
    parallel = estimate_expectations_parallel(ctx, 19, 256, 5, 0, spam_p=1e-3)
    serial = estimate_expectations_parallel(
        ctx, 19, 256, 5, 0, register=register_width(ctx, "serial")
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
