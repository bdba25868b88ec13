"""CLI subcommands, config-file handling, and exit codes."""

import pytest

from pdsq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_integrals_subcommand(capsys, tmp_path):
    dump = tmp_path / "h2.fcidump"
    code, out, _ = run_cli(
        capsys, "integrals", "--spacings", "0.7414",
        "--write-fcidump", str(dump),
    )
    assert code == 0
    assert "RHF energy" in out
    assert dump.exists()
    # the exported file is a faithful Hamiltonian source in its own right
    code, out2, _ = run_cli(capsys, "integrals", "--fcidump", str(dump))
    assert code == 0
    rhf = [l for l in out.splitlines() if "RHF energy" in l][0].split()[2]
    rhf2 = [l for l in out2.splitlines() if "RHF energy" in l][0].split()[2]
    assert float(rhf) == pytest.approx(float(rhf2), abs=1e-8)


def test_hamiltonian_subcommand(capsys, tmp_path):
    path = tmp_path / "h.txt"
    code, out, _ = run_cli(
        capsys, "hamiltonian", "--spacings", "0.7414", "--out", str(path)
    )
    assert code == 0
    from pdsq.pauli import parse_sum

    parsed = parse_sum(path.read_text())
    assert parsed.n_qubits == 4
    assert parsed.is_hermitian()


def test_taper_and_plan_subcommands(capsys):
    code, out, _ = run_cli(capsys, "taper", "--spacings", "0.7414", "--k-max", "3")
    assert code == 0
    assert "generator" in out and "tapered" in out
    code, out, _ = run_cli(capsys, "plan", "--spacings", "0.7414", "--k-max", "3")
    assert code == 0
    assert "tapering+qwc+parallelization" in out


def test_moments_subcommand_csv(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--spacings", "0.7414", "--k-max", "2",
        "--sector", "singlet",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "power,cumulative_unique,moment_value"
    assert len(lines) == 4  # powers 1..2K-1


def test_pds_and_exact_subcommands(capsys, tmp_path):
    csv_path = tmp_path / "k.csv"
    code, out, _ = run_cli(
        capsys, "pds", "--spacings", "0.7414", "--k-max", "3",
        "--csv", str(csv_path),
    )
    assert code == 0
    assert "fission ratio" in out
    # the H2 triplet determinant is an eigenstate: one root, and the header says so
    assert "[triplet] PDS(3) roots (Krylov space exhausted at order 1)" in out
    assert csv_path.read_text().startswith("K,S0,S1,T0")
    code, out, _ = run_cli(capsys, "exact", "--spacings", "0.7414")
    assert code == 0
    assert "S0->T0" in out


def test_simulate_and_mitigate_subcommands(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "simulate", "--spacings", "0.7414", "--k-max", "2",
        "--mode", "serial", "--shots", "256", "--seed", "5",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    files = sorted(tmp_path.glob("counts_*.txt"))
    assert files
    mitigated = tmp_path / "probs.txt"
    code, out, _ = run_cli(
        capsys, "mitigate", str(files[0]), "--p", "0.001", "--out", str(mitigated)
    )
    assert code == 0
    total = sum(float(line.split()[1]) for line in mitigated.read_text().splitlines())
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_simulate_writes_the_counts_of_every_execution(capsys, tmp_path, h4_problem, mode):
    """One histogram file per execution, named by sector, mode and index,
    holding the counts of the group-by-group loop (serial) or of the
    20-qubit packing (parallel) with the same seeds."""
    from oracles import packed_draws_reference, serial_draws_reference
    from pdsq.backend import NoiseModel

    code, _, _ = run_cli(
        capsys, "simulate", "--spacings", "2,2,2", "--k-max", "3", "--mode", mode,
        "--shots", "128", "--seed", "11", "--spam-p", "0.01",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    draws = serial_draws_reference if mode == "serial" else packed_draws_reference
    want = {}
    for si, sector in enumerate(("singlet", "triplet")):
        ctx = h4_problem.sectors[sector]
        for i, (_, counts) in enumerate(draws(ctx, 5, 128, 11, si, NoiseModel(0.01))):
            want[f"counts_{sector}_{mode}_{i:03d}.txt"] = counts.to_lines() + "\n"
    got = {path.name: path.read_text() for path in tmp_path.glob("counts_*.txt")}
    assert got == want


def test_mitigate_rejects_negative_counts(capsys, tmp_path):
    histogram = tmp_path / "counts.txt"
    histogram.write_text("00 10\n01 -5\n")
    code, out, err = run_cli(capsys, "mitigate", str(histogram), "--p", "0.01")
    assert code == 1
    assert "negative count" in err and out == ""


def test_simulate_requires_sampling_mode(capsys):
    code, _, err = run_cli(capsys, "simulate", "--spacings", "0.7414")
    assert code == 1
    assert "serial or parallel" in err


def test_run_with_config_file_and_flag_override(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "spacings = 0.7414\n"
        "k_max = 2\n"
        "mode = exact\n"
        f"output_dir = {tmp_path / 'from-config'}\n"
    )
    code, out, _ = run_cli(
        capsys, "run", "--config", str(config),
        "--output-dir", str(tmp_path / "flag-wins"),
    )
    assert code == 0
    assert (tmp_path / "flag-wins" / "summary.txt").exists()
    assert not (tmp_path / "from-config").exists()


def test_conflicting_sources_exit_code_1(capsys, tmp_path):
    geo = tmp_path / "g.xyz"
    geo.write_text("H 0 0 0\nH 0 0 0.7\n")
    code, _, err = run_cli(
        capsys, "run", "--spacings", "0.7414", "--geometry", str(geo)
    )
    assert code == 1
    assert "exactly one" in err


def test_unknown_config_key_exit_code_1(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("volume = 11\n")
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 1
    assert "unknown key" in err


def test_geometry_file_source(capsys, tmp_path):
    geo = tmp_path / "h2.xyz"
    geo.write_text("H 0 0 0\nH 0 0 0.7414\n")
    code, out, _ = run_cli(capsys, "integrals", "--geometry", str(geo))
    assert code == 0
    assert "orbitals: 2" in out


def test_output_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PDSQ_OUTPUT_DIR", str(tmp_path / "env-out"))
    code, _, _ = run_cli(
        capsys, "run", "--spacings", "0.7414", "--k-max", "2"
    )
    assert code == 0
    assert (tmp_path / "env-out" / "summary.txt").exists()


def test_computation_failure_exit_code_2(capsys, tmp_path):
    # moments of an impossible Hamiltonian source: FCIDUMP with garbled body
    bad = tmp_path / "bad.fcidump"
    bad.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\nxyz 1 1 1 1\n")
    code, _, err = run_cli(capsys, "run", "--fcidump", str(bad))
    assert code == 2
    assert "hamiltonian" in err


def test_over_budget_ladder_exit_code_2(capsys):
    # H6: H^3 would take 49,910 x 919 string pairs, some 3 GB
    code, _, err = run_cli(capsys, "plan", "--spacings", "2,2,2,2,2", "--k-max", "2")
    assert code == 2
    assert "H^3 = H^2 * H needs 45867290 string products" in err
    assert "MAX_PRODUCT_PAIRS" in err


def test_negative_seed_exit_code_1_before_any_computation(capsys, tmp_path, monkeypatch):
    from pdsq import pipeline

    def no_build(cfg):
        raise AssertionError("the problem was built")

    monkeypatch.setattr(pipeline, "build_problem", no_build)
    out_dir = tmp_path / "bundle"
    code, _, err = run_cli(
        capsys, "run", "--spacings", "2,2,2", "--mode", "serial", "--seed", "-1",
        "--output-dir", str(out_dir),
    )
    assert code == 1
    assert "seed must be a non-negative integer" in err
    assert not out_dir.exists()
