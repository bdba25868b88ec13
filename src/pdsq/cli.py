"""Command-line interface: one subcommand per pipeline stage plus `run`.

Configuration is a flat key=value text file; a subcommand takes a flag for
each key it reads (COMMANDS), flags win, and it drops the file's other keys
unparsed.  Exit codes: 0 success, 1 usage or validation error or missing
input file, 2 computation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import fcidump, mitigation
from .backend import CountTable, NoiseModel, index_to_bits
from .exact import exact_transitions
from .moments import moments_for_state, unique_string_count
from .pds import build_system, polynomial_roots, transition_energies
from .pipeline import (
    LADDER_ROWS,
    MODES,
    SECTORS,
    RunConfig,
    build_problem,
    build_scf,
    energy_vs_order,
    exact_spectra,
    exact_tables,
    measurement_ladder,
    qubit_hamiltonian,
    register_width,
    run_pipeline,
    sample_sector,
)

ENV_OUTPUT_DIR = "PDSQ_OUTPUT_DIR"


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliError, so main exits 1 on it as on any bad input."""

    def error(self, message):
        raise CliError(f"{message}\n{self.format_usage().rstrip()}")


def _parse_spacings(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise CliError(f"invalid spacing list: {text!r}") from None


def _parse_mitigation(text: str) -> bool:
    if text not in ("on", "off"):
        raise CliError(f"mitigation must be 'on' or 'off', got {text!r}")
    return text == "on"


# config key -> (RunConfig field, parser of its text, from a flag or a file
# alike); an unset key leaves the field at RunConfig's default
CONFIG_KEYS = {
    "spacings": ("spacings", _parse_spacings),
    "geometry": ("geometry_path", str),
    "fcidump": ("fcidump_path", str),
    "k_max": ("k_max", int),
    "shots": ("shots", int),
    "seed": ("seed", int),
    "spam_p": ("spam_p", float),
    "mode": ("mode", str),
    "output_dir": ("output_dir", Path),
    "mitigation": ("apply_mitigation", _parse_mitigation),
}


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def keys_read(command: str) -> list[str]:
    """The config keys a subcommand reads: those its flags are named as
    (--k-max reads k_max; --no-mitigation, mitigation)."""
    names = {f.lstrip("-").replace("-", "_").removeprefix("no_") for f in COMMANDS[command][2]}
    return [key for key in CONFIG_KEYS if key in names]


def build_run_config(args) -> RunConfig:
    """RunConfig from the keys args.command reads: flag, else file, else (for
    output_dir) PDSQ_OUTPUT_DIR; every other key is dropped unparsed."""
    raw = _parse_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:  # each flag but --no-mitigation is named as its key
        flag = getattr(args, key, None)
        if flag is not None:
            raw[key] = flag
    if getattr(args, "no_mitigation", False):
        raw["mitigation"] = "off"
    if ENV_OUTPUT_DIR in os.environ:
        raw.setdefault("output_dir", os.environ[ENV_OUTPUT_DIR])
    values = {}
    for key in keys_read(args.command):
        if key not in raw:
            continue
        field, parse = CONFIG_KEYS[key]
        try:
            values[field] = parse(raw[key])
        except CliError:
            raise
        except ValueError:
            raise CliError(f"{key} must be a valid {parse.__name__}, got {raw[key]!r}") from None
    return RunConfig(**values)


def cmd_integrals(args) -> int:
    ints, scf = build_scf(build_run_config(args))
    print(f"orbitals: {ints.n_orbitals}  electrons: {ints.n_electrons}")
    print(f"core energy: {ints.core_energy:.10f} hartree")
    print(f"RHF energy: {scf.scf_energy:.10f} hartree ({scf.n_iterations} iterations)")
    print("orbital energies:", " ".join(f"{e:.6f}" for e in scf.orbital_energies))
    if args.write_fcidump:
        # exported in the RHF orbital basis: FCIDUMP assumes orthonormality
        from .chem import mo_integrals

        fcidump.fcidump_write(mo_integrals(ints, scf), args.write_fcidump)
        print(f"wrote {args.write_fcidump}")
    return 0


def cmd_hamiltonian(args) -> int:
    h = qubit_hamiltonian(*build_scf(build_run_config(args)))
    text = h.to_text()
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out} ({h.n_terms} terms, {h.n_qubits} qubits)")
    else:
        print(text)
    return 0


def cmd_taper(args) -> int:
    cfg = build_run_config(args)
    problem = build_problem(cfg)
    max_power = 2 * cfg.k_max - 1
    full_unique = unique_string_count(problem.cache, max_power)[-1]
    print(f"original: {problem.hamiltonian.n_qubits} qubits, "
          f"{problem.hamiltonian.n_terms} terms, {full_unique} unique strings "
          f"(powers <= {max_power})")
    for sector in SECTORS:
        ctx = problem.sectors[sector]
        td = ctx.tapering
        print(f"[{sector}]")
        for g, q, s in zip(td.generators, td.paulix_partners, td.sector_signs):
            print(f"  generator {g.label}  partner qubit {q}  sign {s:+d}")
        print(f"  removed qubits: {list(td.paulix_partners)} -> {td.n_remaining} remain")
        tapered_unique = unique_string_count(ctx.tapered_cache, max_power)[-1]
        print(f"  tapered: {ctx.tapered_h.n_terms} terms, "
              f"{tapered_unique} unique strings")
        print(f"  tapered reference state: |{ctx.tapered_bits}>")
    return 0


def cmd_plan(args) -> int:
    cfg = build_run_config(args)
    problem = build_problem(cfg)
    ladders = {s: measurement_ladder(problem, s, cfg.k_max) for s in SECTORS}
    print(f"{'strategy':<32} {'singlet':>8} {'triplet':>8}")
    for label, attr in LADDER_ROWS:
        s = getattr(ladders["singlet"], attr)
        t = getattr(ladders["triplet"], attr)
        print(f"{label:<32} {s:>8} {t:>8}")
    return 0


def cmd_moments(args) -> int:
    cfg = build_run_config(args)
    problem = build_problem(cfg)
    ctx = problem.sectors[args.sector]
    table = moments_for_state(ctx.tapered_h, ctx.tapered_state, cfg.k_max)
    counts = unique_string_count(problem.cache, 2 * cfg.k_max - 1)
    print("power,cumulative_unique,moment_value")
    for n in range(1, 2 * cfg.k_max):
        print(f"{n},{counts[n - 1]},{table.values[n]:.12e}")
    return 0


def cmd_pds(args) -> int:
    cfg = build_run_config(args)
    problem = build_problem(cfg)
    results = {}
    tables = exact_tables(problem, cfg.k_max)
    for sector in SECTORS:
        results[sector] = polynomial_roots(build_system(tables[sector], cfg.k_max).X)
        resolved = len(results[sector].roots)
        exhausted = (
            f" (Krylov space exhausted at order {resolved})"
            if resolved < cfg.k_max else ""
        )
        print(f"[{sector}] PDS({cfg.k_max}) roots{exhausted} (hartree):")
        for i, r in enumerate(results[sector].roots):
            print(f"  {i}: {r:+.9f}")
    tr = transition_energies(results["singlet"], results["triplet"])
    print(f"S0->S1 = {tr.s0_s1_ev:.4f} eV   S0->T0 = {tr.s0_t0_ev:.4f} eV   "
          f"fission ratio = {tr.fission_ratio:.4f}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("K,S0,S1,T0\n")
            rows = energy_vs_order(tables["singlet"], tables["triplet"], cfg.k_max)
            for k, s0, s1, t0 in rows:
                fh.write(f"{k},{s0:.9f},{s1:.9f},{t0:.9f}\n")
        print(f"wrote {args.csv}")
    return 0


def cmd_exact(args) -> int:
    if args.levels < 1:
        raise CliError(f"--levels must be at least 1, got {args.levels}")
    problem = build_problem(build_run_config(args))
    spectra = exact_spectra(problem)
    for ctx, spec in zip(problem.sectors.values(), spectra):
        print(f"(N={problem.integrals.n_electrons}, Sz={ctx.determinant.s_z:g}) lowest levels:",
              " ".join(f"{e:.9f}" for e in spec.eigenvalues[: args.levels]))
    s0_s1, s0_t0 = exact_transitions(*spectra)
    print(f"S0->S1 = {s0_s1:.4f} eV   S0->T0 = {s0_t0:.4f} eV")
    return 0


def cmd_simulate(args) -> int:
    cfg = build_run_config(args)
    if cfg.mode == "exact":
        raise CliError("simulate needs --mode serial or parallel")
    problem = build_problem(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for si, sector in enumerate(SECTORS):
        ctx = problem.sectors[sector]
        draws = sample_sector(
            ctx, 2 * cfg.k_max - 1, cfg.shots, cfg.seed, si, NoiseModel(cfg.spam_p),
            register_width(ctx, cfg.mode),
        )
        for i, (_, counts) in enumerate(draws):
            path = out / f"counts_{sector}_{cfg.mode}_{i:03d}.txt"
            path.write_text(counts.to_lines() + "\n")
            written.append(path)
    print(f"wrote {len(written)} histogram files to {out}")
    return 0


def cmd_mitigate(args) -> int:
    counts = CountTable.from_lines(Path(args.input).read_text())
    probs = mitigation.mitigate(counts.outcomes, counts.counts, counts.n_bits, NoiseModel(args.p))
    lines = "\n".join(sorted(
        f"{index_to_bits(o, counts.n_bits)} {v:.12e}"
        for o, v in zip(counts.outcomes.tolist(), probs)
    ))
    if args.out:
        Path(args.out).write_text(lines + "\n")
        print(f"wrote {args.out}")
    else:
        print(lines)
    return 0


def cmd_run(args) -> int:
    cfg = build_run_config(args)
    report = run_pipeline(cfg)
    e_s = report.energies["singlet"].result
    e_t = report.energies["triplet"].result
    tr = report.transitions
    print(f"S0 = {e_s.roots[0]:.6f}  S1 = {e_s.roots[1]:.6f}  "
          f"T0 = {e_t.roots[0]:.6f} hartree")
    print(f"S0->S1 = {tr.s0_s1_ev:.3f} eV  S0->T0 = {tr.s0_t0_ev:.3f} eV  "
          f"fission ratio = {tr.fission_ratio:.3f}")
    for path in report.files:
        print(f"wrote {path}")
    return 0


# add_argument keywords of every flag; a flag that sets a config key is the key, dashed
FLAGS = {
    "--config": dict(help="flat key=value configuration file"),
    "--spacings": dict(help="H-chain spacings in Angstrom, e.g. '2,2,2'"),
    "--geometry": dict(help="XYZ-like geometry file (element x y z per line)"),
    "--fcidump": dict(help="FCIDUMP integral file"),
    "--k-max": {}, "--shots": {}, "--seed": {}, "--spam-p": {}, "--output-dir": {},
    "--mode": dict(choices=MODES),
    "--no-mitigation": dict(action="store_true"),
    "--write-fcidump": dict(help="also export integrals here"),
    "--out": dict(help="write the output to this file, not stdout"),
    "--sector": dict(choices=SECTORS, default="singlet"),
    "--csv": dict(help="write per-K energies to this CSV"),
    "--levels": dict(type=int, default=6),
    "input": dict(help="histogram file (bitstring count per line)"),
    "--p": dict(type=float, required=True, help="flip probability"),
}
SOURCE = ("--config", "--spacings", "--geometry", "--fcidump")
SAMPLING = ("--k-max", "--shots", "--seed", "--spam-p", "--output-dir", "--mode")

# subcommand -> (function, help, the flags it reads)
COMMANDS = {
    "integrals": (cmd_integrals, "integral engine and RHF summary", (*SOURCE, "--write-fcidump")),
    "hamiltonian": (cmd_hamiltonian, "qubit Hamiltonian as text", (*SOURCE, "--out")),
    "taper": (cmd_taper, "symmetry generators and tapered operators", (*SOURCE, "--k-max")),
    "plan": (cmd_plan, "measurement-reduction table per sector", (*SOURCE, "--k-max")),
    "moments": (cmd_moments, "per-power unique counts and moment values (CSV)",
                (*SOURCE, "--k-max", "--sector")),
    "pds": (cmd_pds, "PDS roots, bounds, transitions", (*SOURCE, "--k-max", "--csv")),
    "exact": (cmd_exact, "exact sector spectra by diagonalization", (*SOURCE, "--levels")),
    "simulate": (cmd_simulate, "sampled histograms for every group/batch", (*SOURCE, *SAMPLING)),
    "mitigate": (cmd_mitigate, "invert readout noise on a histogram file",
                 ("input", "--p", "--out")),
    "run": (cmd_run, "full pipeline report bundle", (*SOURCE, *SAMPLING, "--no-mitigation")),
}


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdsq",
        description="Moment-expansion (PDS) energy bounds for hydrogen-chain "
        "singlet fission, with measurement planning and a sampled simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.fn(args)
    except (CliError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # computation failures
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
