"""CLI subcommands, config-file handling, and exit codes."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pdsq.cli import main

from helpers import parse_sum


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
    parsed = parse_sum(path.read_text())
    assert parsed.n_qubits == 4
    assert parsed.mask_arrays()[2].dtype == np.float64


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


@pytest.mark.parametrize("levels", ["0", "-3"])
def test_exact_levels_below_1_exit_code_1(capsys, levels):
    # unchecked, --levels -3 printed all levels but the last three, 0 none
    code, out, err = run_cli(capsys, "exact", "--spacings", "0.7414", "--levels", levels)
    assert code == 1 and out == ""
    assert f"--levels must be at least 1, got {levels}" in err


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


def test_mitigate_names_the_line_of_a_non_integer_count(capsys, tmp_path):
    """int()'s own message once reached the user without the line."""
    histogram = tmp_path / "counts.txt"
    histogram.write_text("00 10\n01 x\n")
    code, out, err = run_cli(capsys, "mitigate", str(histogram), "--p", "0.01")
    assert (code, out, err) == (1, "", "error: line 2: non-integer count 'x'\n")


@pytest.mark.parametrize("width", [63, 64])
def test_mitigate_reads_up_to_63_bits(capsys, tmp_path, width):
    """Outcomes are int64 basis-state indices: a 64-bit histogram is refused
    by name (exit 1), not by an overflow in the conversion (exit 2)."""
    histogram = tmp_path / "counts.txt"
    histogram.write_text(f"{'0' * width} 3\n{'1' * width} 1\n")
    code, out, err = run_cli(capsys, "mitigate", str(histogram), "--p", "0.01")
    if width == 63:
        assert code == 0 and err == ""
        assert [line.split()[0] for line in out.splitlines()] == ["0" * 63, "1" * 63]
    else:
        assert code == 1 and out == ""
        assert "a 64-bit histogram exceeds the 63 bits" in err


def test_mitigate_names_a_negative_p(capsys, tmp_path):
    histogram = tmp_path / "counts.txt"
    histogram.write_text("00 10\n01 5\n")
    code, out, err = run_cli(capsys, "mitigate", str(histogram), "--p", "-0.1")
    assert code == 1 and out == ""
    assert "p=-0.1 must lie in [0, 0.5)" in err and "singular" not in err


def test_only_run_takes_no_mitigation(capsys, tmp_path):
    """simulate writes raw histograms, so it has no mitigation to turn off."""
    code = main(["simulate", "--spacings", "0.7414", "--mode", "serial",
                 "--output-dir", str(tmp_path), "--no-mitigation"])
    assert code == 1
    assert "unrecognized arguments: --no-mitigation" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, flag", [
    (["mitigate", "counts.txt", "--p", "abc"], "--p"),
    (["exact", "--spacings", "0.7414", "--levels", "x"], "--levels"),
    (["run", "--spacings", "0.7414", "--mode", "bogus"], "--mode"),
    (["moments", "--spacings", "0.7414", "--sector", "quartet"], "--sector"),
])
def test_bad_flag_argument_exits_1_naming_the_flag(capsys, argv, flag):
    """argparse's usage errors exit 1, as every bad input does; exit 2 is
    for computation failures."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: argument {flag}: invalid ")


SOURCE = ("--config", "--spacings", "--geometry", "--fcidump")
SAMPLING = ("--shots", "--seed", "--spam-p", "--output-dir")

# the options each subcommand reads (the subcommand's own first)
READS = {
    "integrals": ("--write-fcidump", *SOURCE),
    "hamiltonian": ("--out", *SOURCE),
    "exact": ("--levels", *SOURCE),
    "taper": ("--k-max", *SOURCE),
    "plan": ("--k-max", *SOURCE),
    "moments": ("--sector", "--k-max", *SOURCE),
    "pds": ("--csv", "--k-max", *SOURCE),
    "simulate": ("--mode", *SAMPLING, "--k-max", *SOURCE),
    "run": ("--no-mitigation", "--mode", *SAMPLING, "--k-max", *SOURCE),
    "mitigate": ("--p", "--out"),
}

# flags the source flags' subcommands once took and never read
UNREAD = [
    (command, flag)
    for commands, flags in (
        (("integrals", "hamiltonian", "exact"), ("--k-max", *SAMPLING)),
        (("taper", "plan", "moments", "pds"), SAMPLING),
    )
    for command in commands for flag in flags
]


@pytest.mark.parametrize("command, flag", UNREAD)
def test_a_flag_the_subcommand_does_not_read_exits_1(
    capsys, tmp_path, monkeypatch, command, flag
):
    monkeypatch.chdir(tmp_path)
    value = "out" if flag == "--output-dir" else "3"
    code, out, err = run_cli(capsys, command, "--spacings", "0.7414", flag, value)
    assert code == 1 and out == ""
    assert err.startswith(f"error: unrecognized arguments: {flag} {value}\n")
    assert not any(tmp_path.iterdir())


# the arguments of the flags that argparse parses itself, and what it makes
# of them; every other flag keeps its one argument's text
PARSED = {"--levels": (["2"], 2), "--p": (["0.2"], 0.2), "--sector": (["triplet"], "triplet"),
          "--mode": (["serial"], "serial"), "--no-mitigation": ([], True)}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in READS.items() for f in flags])
def test_each_flag_a_subcommand_reads_parses(command, flag):
    from pdsq.cli import make_parser

    given = ["counts.txt", "--p", "0.1"] if command == "mitigate" else []
    values, want = PARSED.get(flag, (["7"], "7"))
    args = make_parser().parse_args([command, *given, flag, *values])
    assert getattr(args, flag[2:].replace("-", "_")) == want


@pytest.mark.parametrize("source", ["spacings", "geometry", "fcidump"])
def test_a_config_with_every_key_runs_exact(capsys, tmp_path, monkeypatch, source):
    """The config file takes all ten keys on every subcommand: `pdsq exact`
    ignores the sampling keys and writes nothing to their output_dir.  A
    config names one source, so the three cases carry the ten keys between
    them, each with the other seven."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h2.xyz").write_text("H 0 0 0\nH 0 0 0.7414\n")
    export = run_cli(capsys, "integrals", "--spacings", "0.7414", "--write-fcidump", "h2.fcidump")
    assert export[0] == 0
    value = {"spacings": "0.7414", "geometry": "h2.xyz", "fcidump": "h2.fcidump"}[source]
    config = tmp_path / "every.cfg"
    config.write_text(
        f"{source} = {value}\nk_max = 3\nshots = 64\nseed = 5\nspam_p = 0.01\n"
        "mode = parallel\noutput_dir = bundle\nmitigation = off\n"
    )
    code, out, err = run_cli(capsys, "exact", "--config", str(config))
    assert code == 0, err
    assert out == run_cli(capsys, "exact", f"--{source}", value)[1]
    assert not (tmp_path / "bundle").exists()


# the config keys a subcommand's flags read: each flag is named as its key,
# and --no-mitigation reads mitigation
def _keys_read(flags):
    keys = {flag[2:].replace("-", "_") for flag in flags if flag.startswith("--")}
    return keys | ({"mitigation"} if "no_mitigation" in keys else set())


CONFIGURED = [command for command, flags in READS.items() if "--config" in flags]

# a value of each key that a subcommand reading it refuses, and its error
REFUSED = {
    "spacings": ("abc", "error: invalid spacing list: 'abc'\n"),
    "k_max": ("abc", "error: k_max must be a valid int, got 'abc'\n"),
    "shots": ("x", "error: shots must be a valid int, got 'x'\n"),
    "seed": ("-1", "error: seed must be a non-negative integer, got -1\n"),
    "spam_p": ("0.7", "error: spam_p must lie in [0, 0.5)\n"),
    "mode": ("bogus", "error: mode must be one of ('exact', 'serial', 'parallel')\n"),
    "mitigation": ("maybe", "error: mitigation must be 'on' or 'off', got 'maybe'\n"),
}

# flags that let a subcommand run to its output on H2
RUNNABLE = {"simulate": ("--mode", "serial", "--shots", "16", "--k-max", "2",
                         "--output-dir", "sim")}


@pytest.mark.parametrize("command", CONFIGURED)
def test_a_config_key_the_subcommand_does_not_read_is_not_parsed(
    capsys, tmp_path, monkeypatch, command
):
    """A file key the subcommand does not read, even with a value its readers
    refuse, changes nothing: the exit code and output match the flags'
    alone, and an unread output_dir is never made."""
    monkeypatch.chdir(tmp_path)
    reads = _keys_read(READS[command])
    unread = {key: value for key, (value, _) in REFUSED.items() if key not in reads}
    if "output_dir" not in reads:
        unread["output_dir"] = "unread-dir"
    config = tmp_path / "unread.cfg"
    config.write_text("spacings = 0.7414\n" + "".join(f"{k} = {v}\n" for k, v in unread.items()))
    extra = RUNNABLE.get(command, ())
    from_file = run_cli(capsys, command, "--config", str(config), *extra)
    alone = run_cli(capsys, command, "--spacings", "0.7414", *extra)
    assert from_file == alone
    assert alone[0] == 0, alone[2]
    assert not (tmp_path / "unread-dir").exists()


@pytest.mark.parametrize("command, key", [
    (command, key) for command in CONFIGURED
    for key in sorted(_keys_read(READS[command]) & REFUSED.keys())
])
def test_a_refused_value_of_a_key_the_subcommand_reads_exits_1(capsys, tmp_path, command, key):
    value, error = REFUSED[key]
    config = tmp_path / "bad.cfg"
    source = "" if key == "spacings" else "spacings = 0.7414\n"
    config.write_text(f"{source}{key} = {value}\n")
    assert run_cli(capsys, command, "--config", str(config)) == (1, "", error)


@pytest.mark.parametrize("command", CONFIGURED)
def test_an_unknown_config_key_exits_1_on_every_subcommand(capsys, tmp_path, command):
    config = tmp_path / "bad.cfg"
    config.write_text("spacings = 0.7414\nvolume = 11\n")
    code, out, err = run_cli(capsys, command, "--config", str(config))
    assert (code, out) == (1, "")
    assert err == f"error: {config}:2: unknown key 'volume'\n"


def test_readme_config_keys_are_the_schema_and_each_has_a_reader():
    """README's key list is cli.CONFIG_KEYS, in order, and every key is read
    by some subcommand, so the command table, the schema and the docs cannot
    drift apart."""
    from pdsq.cli import COMMANDS, CONFIG_KEYS, keys_read

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"The config\s+keys are (.*?)\(exactly", readme, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(CONFIG_KEYS)
    assert {key for command in COMMANDS for key in keys_read(command)} == set(CONFIG_KEYS)


def test_every_readme_command_line_parses():
    """Each `pdsq ...` line of README's command-line block parses, so the
    documented flags and the parser cannot drift apart."""
    import shlex

    from pdsq.cli import make_parser

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```")[1]
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("pdsq ")]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            make_parser().parse_args(argv)
        except Exception as exc:
            pytest.fail(f"README line {line.strip()!r} does not parse: {exc}")


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


@pytest.mark.parametrize("switch, label", [("on", "mitigated"), ("off", "raw")])
def test_config_mitigation_on_and_off(capsys, tmp_path, switch, label):
    config = tmp_path / "run.cfg"
    config.write_text(
        "spacings = 0.7414\nk_max = 2\nmode = serial\nshots = 256\nspam_p = 0.01\n"
        f"mitigation = {switch}\noutput_dir = {tmp_path}\n"
    )
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 0, err
    row = (tmp_path / "energies.csv").read_text().splitlines()[1]
    assert row.startswith(f"serial (256 shots) p=0.01 {label},")


def test_config_mitigation_takes_only_on_or_off(capsys, tmp_path):
    """'false' once switched mitigation on, as did anything but 'off'."""
    config = tmp_path / "run.cfg"
    config.write_text(f"spacings = 0.7414\nmitigation = false\noutput_dir = {tmp_path}\n")
    code, out, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 1 and out == ""
    assert err == "error: mitigation must be 'on' or 'off', got 'false'\n"
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key, flag, value, kind", [
    ("k_max", "--k-max", "abc", "int"),
    ("shots", "--shots", "1e3", "int"),
    ("seed", "--seed", "1.5", "int"),
    ("spam_p", "--spam-p", "x", "float"),
])
def test_bad_flag_value_names_its_key(capsys, key, flag, value, kind):
    """A flag value is parsed as its config key is, so it exits 1 with the
    key's name, not 2 from argparse."""
    command = "plan" if key == "k_max" else "run"  # plan takes no sampling flag
    code, out, err = run_cli(capsys, command, "--spacings", "2,2,2", flag, value)
    assert code == 1 and out == ""
    assert err == f"error: {key} must be a valid {kind}, got {value!r}\n"


def test_bad_config_value_names_its_key(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("spacings = 2,2,2\nk_max = abc\n")
    code, out, err = run_cli(capsys, "plan", "--config", str(config))
    assert code == 1 and out == ""
    assert err == "error: k_max must be a valid int, got 'abc'\n"


@pytest.mark.parametrize("source", ["flag", "file"])
def test_empty_spacing_list_exit_code_1(capsys, tmp_path, source):
    """An empty list once built a lone H atom and failed in the SCF."""
    if source == "flag":
        argv = ["plan", "--spacings", ""]
    else:
        config = tmp_path / "run.cfg"
        config.write_text("spacings =\n")
        argv = ["plan", "--config", str(config)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: empty spacing list: an H chain needs at least one spacing\n"


def test_geometry_file_source(capsys, tmp_path):
    geo = tmp_path / "h2.xyz"
    geo.write_text("H 0 0 0\nH 0 0 0.7414\n")
    code, out, _ = run_cli(capsys, "integrals", "--geometry", str(geo))
    assert code == 0
    assert "orbitals: 2" in out


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_geometry_exit_code_1(capsys, tmp_path, value):
    geo = tmp_path / "bad.xyz"
    geo.write_text(f"H 0 0 0\nH 0 0 {value}\n")
    code, _, err = run_cli(capsys, "integrals", "--geometry", str(geo))
    assert code == 1
    assert "line 2: non-finite coordinate" in err


def test_output_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PDSQ_OUTPUT_DIR", str(tmp_path / "env-out"))
    code, _, _ = run_cli(
        capsys, "run", "--spacings", "0.7414", "--k-max", "2"
    )
    assert code == 0
    assert (tmp_path / "env-out" / "summary.txt").exists()


def test_computation_failure_exit_code_2(capsys, tmp_path):
    # H8: the plan's ladder step H^2 = H * H is over the dense budget
    code, _, err = run_cli(
        capsys, "run", "--spacings", "2,2,2,2,2,2,2", "--k-max", "2",
        "--output-dir", str(tmp_path / "bundle"),
    )
    assert code == 2
    assert "stage 'plan' failed: a product on 16 qubits needs 6 dense" in err


@pytest.mark.parametrize("flag", ["--fcidump", "--spacings"])
def test_input_errors_exit_code_1_through_run(capsys, tmp_path, flag):
    """A garbled FCIDUMP and an odd electron count fail `run` as they fail
    `integrals` and `hamiltonian`: exit 1, the same message, no stage named."""
    bad = tmp_path / "bad.fcidump"
    bad.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\nxyz 1 1 1 1\n")
    value = str(bad) if flag == "--fcidump" else "1,1"
    results = {
        run_cli(capsys, *argv, flag, value)
        for argv in (["integrals"], ["hamiltonian"], ["run", "--output-dir", str(tmp_path)])
    }
    assert len(results) == 1
    code, _, err = results.pop()
    assert code == 1 and "stage" not in err


@pytest.mark.parametrize("header, field", [
    ("NORB=0,NELEC=2", "NORB"), ("NORB=-2,NELEC=2", "NORB"), ("NORB=2,NELEC=-2", "NELEC"),
])
def test_fcidump_header_counts_exit_code_1_through_run(capsys, tmp_path, header, field):
    bad = tmp_path / "bad.fcidump"
    bad.write_text(f"&FCI {header},MS2=0,\n&END\n1.0 0 0 0 0\n")
    code, _, err = run_cli(capsys, "run", "--fcidump", str(bad), "--output-dir", str(tmp_path))
    assert code == 1 and "stage" not in err
    assert f"line 1: {field} must be" in err


def test_non_finite_fcidump_value_exit_code_1(capsys, tmp_path):
    # unchecked, a NaN integral would run SCF to its iteration cap and exit 2
    bad = tmp_path / "nan.fcidump"
    dump = tmp_path / "h2.fcidump"
    assert run_cli(capsys, "integrals", "--spacings", "0.7414", "--write-fcidump", str(dump))[0] == 0
    lines = dump.read_text().splitlines()
    record = next(i for i, line in enumerate(lines) if line.split()[1:] == ["2", "1", "2", "1"])
    lines[record] = " ".join(["nan", *lines[record].split()[1:]])
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "hamiltonian", "--fcidump", str(bad))
    assert code == 1
    assert f"line {record + 1}: non-finite value 'nan'" in err


@pytest.mark.parametrize("spacings", ["2,2,2", "1.0,1.5,1.0"])
def test_plan_counts_do_not_depend_on_round_off(capsys, spacings):
    """At both geometries the singlet row reads 4223/441/527/122/31 and the
    triplet row 4223/441/379/66/17: no string that is round-off of an exact
    zero reaches a ledger."""
    code, out, _ = run_cli(capsys, "plan", "--spacings", spacings)
    assert code == 0
    assert out.splitlines() == [
        "strategy                          singlet  triplet",
        "original                             4223     4223",
        "qwc                                   441      441",
        "tapering                              527      379",
        "tapering+qwc                          122       66",
        "tapering+qwc+parallelization           31       17",
    ]


def test_over_budget_ladder_exit_code_2(capsys):
    # H8 (16 qubits): H^2 would take six dense 65536 x 65536 arrays, 206 GB
    code, out, err = run_cli(capsys, "plan", "--spacings", "2,2,2,2,2,2,2", "--k-max", "2")
    assert code == 2 and out == ""
    assert err == (
        "computation failed: a product on 16 qubits needs 6 dense 65536 x 65536 arrays: "
        "206158430208 bytes exceed the cap MEMORY_BUDGET = 1073741824 bytes\n"
    )


def test_h10_exact_exits_2_before_allocating_its_block():
    """H10 (20 qubits): the 63504-state singlet block, with eigvalsh's copy,
    would take 65 GB, so `pdsq exact` refuses it before allocating, naming
    the bytes and the cap.  It runs in a child process under a 3 GB
    address-space limit, so that a regression fails fast instead of
    swapping the host."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))\n"
        "from pdsq.cli import main\n"
        "sys.exit(main(['exact', '--spacings', '2,2,2,2,2,2,2,2,2']))\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "computation failed: a dense 63504 x 63504 block on 20 qubits: 64525144320 "
        "bytes exceed the cap MEMORY_BUDGET = 1073741824 bytes\n"
    )


def test_simulate_refuses_over_budget_shots_before_allocating(tmp_path):
    """2e8 shots of a 20-qubit execution would need 9.6 GB of outcome arrays,
    so `pdsq simulate` exits 2 naming the bytes and the cap, in a child
    process under a 3 GB address-space limit in which NumPy's own
    allocation of the outcomes would fail instead."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))\n"
        "from pdsq.cli import main\n"
        "sys.exit(main(['simulate', '--spacings', '2,2,2', '--mode', 'parallel',\n"
        "               '--shots', '200000000', '--k-max', '2', '--output-dir', sys.argv[1]]))\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert list(tmp_path.iterdir()) == []
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "computation failed: sampling 200000000 shots: 9600000000 bytes exceed the cap "
        "MEMORY_BUDGET = 1073741824 bytes\n"
    )


def _write_sparse_chain(path, n):
    """An n-orbital FCIDUMP with hopping and on-site terms only, so that its
    Hamiltonian stays small however many qubits it spans, and an even
    electron count, so that RHF runs on it."""
    from pdsq import chem, fcidump

    one = np.diag(-1.0 + 0.1 * np.arange(n)) - 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
    two = np.zeros((n,) * 4)
    two[(np.arange(n),) * 4] = 0.8
    fcidump.fcidump_write(chem.IntegralSet(n, 0.0, one, two, np.eye(n), n - n % 2), path)


def test_fourteen_orbital_fcidump_exits_2_at_its_first_ladder_product(tmp_path):
    """14 orbitals: the problem holds no state (each sector keeps its
    26-qubit tapered reference as its bits), so `pdsq plan` stops at its
    first power-ladder product, on the full 28 qubits, before allocating,
    naming the bytes and the cap.  It runs in a child process under a 3 GB
    address-space limit; the integrals are a sparse chain (hopping and
    on-site terms), so all else is small."""
    path = tmp_path / "chain14.fcidump"
    _write_sparse_chain(path, 14)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))\n"
        "from pdsq.cli import main\n"
        "sys.exit(main(['plan', '--fcidump', sys.argv[1]]))\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "computation failed: a product on 28 qubits needs 6 dense "
        "268435456 x 268435456 arrays: 3458764513820540928 bytes exceed the cap "
        "MEMORY_BUDGET = 1073741824 bytes\n"
    )


def test_sixteen_orbital_fcidump_runs_the_commands_that_read_no_state(tmp_path):
    """16 orbitals (32 qubits): `pdsq integrals` and `pdsq hamiltonian` read
    no reference state, so they run, in a child process under a 3 GB
    address-space limit; a 30-qubit tapered state (8 GiB) would be over the
    budget, and building it up front made both exit 2."""
    path, out = tmp_path / "chain16.fcidump", tmp_path / "h16.txt"
    _write_sparse_chain(path, 16)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))\n"
        "from pdsq.cli import main\n"
        "codes = [main(['integrals', '--fcidump', sys.argv[1]]),\n"
        "         main(['hamiltonian', '--fcidump', sys.argv[1], '--out', sys.argv[2]])]\n"
        "sys.exit(max(codes))\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path), str(out)], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "orbitals: 16  electrons: 16" in proc.stdout
    assert f"wrote {out} (" in proc.stdout and "32 qubits)" in proc.stdout
    assert parse_sum(out.read_text()).n_qubits == 32


@pytest.mark.parametrize("n", [16, 33])
def test_integrals_builds_no_hamiltonian(capsys, tmp_path, monkeypatch, n):
    """`pdsq integrals` reads the integrals and the RHF result only: with
    jordan_wigner refusing, it still runs, on 32 qubits and on 66, more
    than a PauliSum holds."""
    from pdsq import jw

    def refuse(tables):
        raise AssertionError("integrals built a Hamiltonian")

    monkeypatch.setattr(jw, "jordan_wigner", refuse)
    path = tmp_path / f"chain{n}.fcidump"
    _write_sparse_chain(path, n)
    code, out, err = run_cli(capsys, "integrals", "--fcidump", str(path))
    assert (code, err) == (0, "")
    assert out.startswith(f"orbitals: {n}  electrons: {n - n % 2}\n")


def test_more_than_64_spin_orbitals_are_refused_before_their_tables(capsys, tmp_path):
    """33 orbitals: `pdsq hamiltonian` exits 1 naming the 64-qubit limit of
    a PauliSum before the (2n)^4 spin-orbital tables (152 MB) exist."""
    path = tmp_path / "chain33.fcidump"
    _write_sparse_chain(path, 33)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "hamiltonian", "--fcidump", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (1, "", "error: PauliSum supports at most 64 qubits\n")
    assert peak < 64 << 20


def test_jordan_wigner_merges_each_table_entry_in_its_own_row(tmp_path):
    """Like strings meet only within one table entry's products, so
    jordan_wigner merges them there and never sorts every product of every
    entry together: on the 10-orbital chain (20 qubits) its tracemalloc peak
    stays under 80 MiB, where that sort took 96 MiB."""
    from pdsq import chem, fcidump, jw

    path = tmp_path / "chain10.fcidump"
    _write_sparse_chain(path, 10)
    ints = fcidump.fcidump_read(path)
    tables = chem.second_quantized_hamiltonian(ints, chem.hartree_fock(ints))
    tracemalloc.start()
    try:
        h = jw.jordan_wigner(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(h) == 10201
    assert peak < 80 << 20


def test_an_idle_orbital_tapers_with_z_generators_only(capsys, tmp_path):
    """The qubits of an orbital that no record couples commute with X as
    well as Z; X-type generators were once returned for them, sector_of
    refused them (`generator XIII is not purely Z`), and each command exited 1."""
    dump = tmp_path / "idle.fcidump"
    dump.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 0.25 1 1 0 0\n")
    for command in ("integrals", "hamiltonian", "exact"):
        code, out, err = run_cli(capsys, command, "--fcidump", str(dump))
        assert code == 0, f"{command}: {err}"
    assert out.splitlines()[:2] == [
        "(N=2, Sz=0) lowest levels: 0.000000000 0.250000000 0.250000000 0.500000000",
        "(N=2, Sz=1) lowest levels: 0.250000000",
    ]


def test_h8_exact_admits_its_singlet_block(capsys, monkeypatch):
    """H8 (16 qubits): the 4900-state float64 singlet block and eigvalsh's
    copy fit the budget at 384238400 bytes.  The admitted check is recorded
    and the command stopped there, before its eigvalsh."""
    from pdsq import budget, pauli

    class Admitted(Exception):
        pass

    seen = []

    def record(step, nbytes):
        budget.check_memory(step, nbytes)
        seen.append((step, nbytes))
        raise Admitted

    monkeypatch.setattr(pauli, "check_memory", record)
    code, out, _ = run_cli(capsys, "exact", "--spacings", "2,2,2,2,2,2,2")
    assert code == 2 and out == ""
    assert seen == [("a dense 4900 x 4900 block on 16 qubits", 384238400)]
    assert 384238400 <= budget.MEMORY_BUDGET == 1 << 30


@pytest.mark.parametrize("argv", [
    ["integrals", "--geometry", "{missing}"],
    ["run", "--fcidump", "{missing}", "--output-dir", "{bundle}"],
    ["mitigate", "{missing}", "--p", "0.01"],
    ["plan", "--config", "{missing}"],
])
def test_missing_input_file_exit_code_1(capsys, tmp_path, argv):
    """A missing input file is an input error: exit 1, naming the path, and
    no stage named."""
    missing, bundle = tmp_path / "missing.txt", tmp_path / "bundle"
    code, out, err = run_cli(capsys, *(a.format(missing=missing, bundle=bundle) for a in argv))
    assert code == 1 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not bundle.exists()


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


def test_run_needs_two_singlet_roots(capsys, tmp_path, monkeypatch):
    """The report's S1 is the second singlet root, so `run --k-max 1` stops
    before any computation; `moments` and `plan` need no S1 and still run."""
    from pdsq import pipeline

    def no_build(cfg):
        raise AssertionError("the problem was built")

    with monkeypatch.context() as patched:
        patched.setattr(pipeline, "build_problem", no_build)
        out_dir = tmp_path / "bundle"
        code, out, err = run_cli(
            capsys, "run", "--spacings", "0.7414", "--k-max", "1",
            "--output-dir", str(out_dir),
        )
    assert code == 1 and out == ""
    assert "run needs k_max >= 2" in err
    assert not out_dir.exists()
    for command in ("moments", "plan"):
        assert run_cli(capsys, command, "--spacings", "0.7414", "--k-max", "1")[0] == 0


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """The sweep's four FCIDUMPs: H2 at 0.7414 A in its RHF orbitals; an
    idle orbital (both sectors taper 4 -> 0 qubits); one orbital, which has
    no triplet reference; and 3 orbitals with a 2-electron filling, drawn
    from seed 3 (one-body symmetric, two-body a sum of symmetric outer
    products, so it has the 8-fold symmetry)."""
    from pdsq import chem, fcidump

    directory = tmp_path_factory.mktemp("sweep")
    ints = chem.compute_integrals(chem.build_h_chain([0.7414]))
    fcidump.fcidump_write(chem.mo_integrals(ints, chem.hartree_fock(ints)), directory / "h2")
    (directory / "idle").write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 0.25 1 1 0 0\n")
    (directory / "one").write_text(
        "&FCI NORB=1,NELEC=2,MS2=0,\n&END\n 0.5 1 1 1 1\n -1.25 1 1 0 0\n"
    )
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    one_body = -np.diag([1.5, 1.0, 0.5]) + 0.1 * (a + a.T)
    factors = 0.2 * rng.normal(size=(4, 3, 3))
    factors += factors.transpose(0, 2, 1)
    two_body = np.einsum("pij,pkl->ijkl", factors, factors) + 0.3 * np.einsum(
        "ij,kl->ijkl", np.eye(3), np.eye(3)
    )
    fcidump.fcidump_write(
        chem.IntegralSet(3, 0.5, one_body, two_body, np.eye(3), 2), directory / "rand3"
    )
    return directory


# each subcommand that reads a Hamiltonian source, with the flags it needs
# beyond the source (mitigate reads a histogram, not a source)
SWEEP_COMMANDS = {
    "integrals": (), "hamiltonian": (), "taper": (), "plan": (), "moments": (), "pds": (),
    "exact": (), "simulate": ("--mode", "parallel", "--shots", "256"),
    "run": ("--mode", "parallel", "--spam-p", "1e-3", "--seed", "11"),
}
_ITEM_2 = "ROADMAP item 2: sampled PDS(10) reads a complex root and stage 'transitions' fails"
_ITEM_20 = "ROADMAP item 20: pack_batches refuses a 0-qubit tapered sector (slot width 0)"
# (file, subcommand) -> (expected exit code, strict-xfail reason or None);
# every other pair exits 0
SWEEP_EXPECTED = {
    ("h2", "run"): (0, _ITEM_2),
    ("idle", "plan"): (0, _ITEM_20),
    ("idle", "pds"): (1, None),  # one singlet root: no S0->S1 gap
    ("idle", "simulate"): (0, _ITEM_20),
    ("idle", "run"): (0, _ITEM_20),
    # integrals and hamiltonian build no sector, so only they run
    **{("one", c): (1, None) for c in SWEEP_COMMANDS if c not in ("integrals", "hamiltonian")},
    ("rand3", "run"): (0, _ITEM_2),
}


def _sweep_cases():
    for name in ("h2", "idle", "one", "rand3"):
        for command in SWEEP_COMMANDS:
            code, reason = SWEEP_EXPECTED.get((name, command), (0, None))
            marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)]
            yield pytest.param(
                name, command, code, marks=marks if reason else (), id=f"{name}-{command}"
            )


@pytest.mark.parametrize("name, command, code", _sweep_cases())
def test_every_subcommand_on_small_fcidumps_exits_as_expected(
    capsys, tmp_path, sweep_inputs, name, command, code
):
    """ROADMAP item 20's sweep: each subcommand on each small input exits
    with its expected code, and a failure says why in one line.  On the
    one-orbital file (no triplet reference) only integrals and hamiltonian,
    which build no sector, exit 0; taper and the rest exit 1."""
    got, _, err = run_cli(
        capsys, command, "--fcidump", str(sweep_inputs / name), *SWEEP_COMMANDS[command],
        *(("--output-dir", str(tmp_path)) if command in ("simulate", "run") else ()),
    )
    assert got == code, err
    assert got == 0 or len(err.splitlines()) == 1, err
