"""Command-line interface: one subcommand per pipeline stage plus `run`.

Configuration is a flat key=value text file; every key can be overridden by
a command-line flag, and flags win.  Exit codes: 0 success, 1 validation
error or missing input file, 2 computation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import fcidump, mitigation, taper
from .backend import CountTable, index_to_bits
from .exact import exact_spectrum, exact_transitions
from .moments import moments_for_state, unique_string_count
from .pds import build_system, polynomial_roots, transition_energies
from .pipeline import (
    LADDER_ROWS,
    MODES,
    SECTORS,
    RunConfig,
    build_problem,
    energy_vs_order,
    exact_tables,
    measurement_ladder,
    register_width,
    run_pipeline,
    sample_sector,
)

ENV_OUTPUT_DIR = "PDSQ_OUTPUT_DIR"


class CliError(ValueError):
    pass


def _parse_spacings(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise CliError(f"invalid spacing list: {text!r}") from None


# config key -> (RunConfig field, parser of its text); an unset key leaves
# the field at RunConfig's default
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
    "mitigation": ("apply_mitigation", lambda text: text != "off"),
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


def build_run_config(args) -> RunConfig:
    raw = _parse_config_file(args.config) if args.config else {}
    if args.spacings is not None:
        raw["spacings"] = args.spacings
    if args.geometry is not None:
        raw["geometry"] = args.geometry
    if getattr(args, "fcidump", None) is not None:
        raw["fcidump"] = args.fcidump
    for key in ("k_max", "shots", "seed", "spam_p", "mode", "output_dir"):
        flag = getattr(args, key, None)
        if flag is not None:
            raw[key] = str(flag)
    if getattr(args, "no_mitigation", False):
        raw["mitigation"] = "off"
    if ENV_OUTPUT_DIR in os.environ:
        raw.setdefault("output_dir", os.environ[ENV_OUTPUT_DIR])
    return RunConfig(**{
        field: parse(raw[key]) for key, (field, parse) in CONFIG_KEYS.items() if key in raw
    })


def _add_source_flags(sub):
    sub.add_argument("--config", help="flat key=value configuration file")
    sub.add_argument("--spacings", help="H-chain spacings in Angstrom, e.g. '2,2,2'")
    sub.add_argument("--geometry", help="XYZ-like geometry file (element x y z per line)")
    sub.add_argument("--fcidump", help="FCIDUMP integral file")
    sub.add_argument("--k-max", dest="k_max", type=int)
    sub.add_argument("--shots", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--spam-p", dest="spam_p", type=float)
    sub.add_argument("--output-dir", dest="output_dir")


def cmd_integrals(args) -> int:
    cfg = build_run_config(args)
    problem = build_problem(cfg)
    ints = problem.integrals
    print(f"orbitals: {ints.n_orbitals}  electrons: {ints.n_electrons}")
    print(f"core energy: {ints.core_energy:.10f} hartree")
    print(f"RHF energy: {problem.scf.scf_energy:.10f} hartree "
          f"({problem.scf.n_iterations} iterations)")
    print("orbital energies:", " ".join(f"{e:.6f}" for e in problem.scf.orbital_energies))
    if args.write_fcidump:
        # exported in the RHF orbital basis: FCIDUMP assumes orthonormality
        from .chem import mo_integrals

        fcidump.fcidump_write(mo_integrals(ints, problem.scf), args.write_fcidump)
        print(f"wrote {args.write_fcidump}")
    return 0


def cmd_hamiltonian(args) -> int:
    cfg = build_run_config(args)
    problem = build_problem(cfg)
    text = problem.hamiltonian.to_text()
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out} ({problem.hamiltonian.n_terms} terms, "
              f"{problem.hamiltonian.n_qubits} qubits)")
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
        print(f"  tapered reference state: |{taper.taper_state(ctx.determinant, td)}>")
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
    table = moments_for_state(problem.hamiltonian, ctx.state, cfg.k_max)
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
        for i, (r, im) in enumerate(
            zip(results[sector].roots, results[sector].imag_parts)
        ):
            note = "" if im == 0 else f"   (unresolved pair, |Im| = {im:.2e})"
            print(f"  {i}: {r:+.9f}{note}")
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
    cfg = build_run_config(args)
    problem = build_problem(cfg)
    n_e = problem.integrals.n_electrons
    spec_s = exact_spectrum(problem.hamiltonian, (n_e, 0.0))
    spec_t = exact_spectrum(problem.hamiltonian, (n_e, 1.0))
    print(f"(N={n_e}, Sz=0) lowest levels:",
          " ".join(f"{e:.9f}" for e in spec_s.eigenvalues[: args.levels]))
    print(f"(N={n_e}, Sz=1) lowest levels:",
          " ".join(f"{e:.9f}" for e in spec_t.eigenvalues[: args.levels]))
    s0_s1, s0_t0 = exact_transitions(spec_s, spec_t)
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
            ctx, 2 * cfg.k_max - 1, cfg.shots, cfg.seed, si, cfg.spam_p,
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
    probs = mitigation.mitigate(
        counts.outcomes, counts.counts, counts.n_bits, mitigation.MitigationConfig(args.p)
    )
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


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdsq",
        description="Moment-expansion (PDS) energy bounds for hydrogen-chain "
        "singlet fission, with measurement planning and a sampled simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "integrals": (cmd_integrals, "integral engine and RHF summary"),
        "hamiltonian": (cmd_hamiltonian, "qubit Hamiltonian as text"),
        "taper": (cmd_taper, "symmetry generators and tapered operators"),
        "plan": (cmd_plan, "measurement-reduction table per sector"),
        "moments": (cmd_moments, "per-power unique counts and moment values (CSV)"),
        "pds": (cmd_pds, "PDS roots, bounds, transitions"),
        "exact": (cmd_exact, "exact sector spectra by diagonalization"),
        "simulate": (cmd_simulate, "sampled histograms for every group/batch"),
        "mitigate": (cmd_mitigate, "invert readout noise on a histogram file"),
        "run": (cmd_run, "full pipeline report bundle"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        if name == "mitigate":
            p.add_argument("input", help="histogram file (bitstring count per line)")
            p.add_argument("--p", type=float, required=True, help="flip probability")
            p.add_argument("--out", help="output probability file")
        else:
            _add_source_flags(p)
            if name in ("simulate", "run"):
                p.add_argument("--mode", choices=MODES)
            if name == "run":
                p.add_argument("--no-mitigation", action="store_true")
            if name == "integrals":
                p.add_argument("--write-fcidump", help="also export integrals here")
            if name == "hamiltonian":
                p.add_argument("--out", help="write the Pauli sum to this file")
            if name == "moments":
                p.add_argument("--sector", choices=SECTORS, default="singlet")
            if name == "pds":
                p.add_argument("--csv", help="write per-K energies to this CSV")
            if name == "exact":
                p.add_argument("--levels", type=int, default=6)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # computation failures
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
