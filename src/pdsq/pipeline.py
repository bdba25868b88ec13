"""End-to-end orchestration: Hamiltonian build, measurement planning,
moment estimation (exact or sampled), PDS energies, and report files.

Both moment paths read each sector's tapered H and state; the full H serves
only the plan's first two rows, the Fig. 3 counts and the exact spectra.
Every report value is re-derivable from the subcommands with one config.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import chem, fcidump, grouping, jw, mitigation, taper
from .backend import CountTable, NoiseModel, StateVector, prepare_basis_state, sample_batch
# serial_sample is not called here, but the benchmark's tracer
# (benchmarks/tracer.py) rebinds it in this module, so the name stays.
from .backend import serial_sample  # noqa: F401
from .exact import SpectrumResult, exact_spectrum, exact_transitions
from .moments import MomentTable, PowerCache, moments_for_state, unique_string_count
from .pauli import PauliString, PauliSum
from .pds import (
    PdsResult,
    TransitionSummary,
    build_system,
    pds_from_values,
    polynomial_roots,
    transition_energies,
)

MODES = ("exact", "serial", "parallel")
SECTORS = ("singlet", "triplet")
DEVICE_REGISTER = 20  # qubits per execution on the device in parallel mode

# Energies measured on a 20-qubit trapped-ion device running this
# workflow (hartree): reference points only -- device noise and finite
# sampling make them irreproducible in simulation, and nothing in this
# package asserts them.
HARDWARE_REFERENCE = {"S0": -1.898401, "S1": -1.864233, "T0": -1.881865}


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class RunConfig:
    spacings: tuple[float, ...] | None = None
    geometry_path: str | None = None
    fcidump_path: str | None = None
    k_max: int = 10
    shots: int = 8192
    seed: int = 7
    spam_p: float = 0.0
    mode: str = "exact"
    output_dir: Path = Path("pdsq-out")
    apply_mitigation: bool = True

    def __post_init__(self):
        sources = [
            s for s in (self.spacings, self.geometry_path, self.fcidump_path)
            if s is not None
        ]
        if len(sources) != 1:
            raise ValueError("exactly one Hamiltonian source must be configured")
        if self.spacings is not None and not self.spacings:
            raise ValueError("empty spacing list: an H chain needs at least one spacing")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode != "exact" and self.shots < 1:
            raise ValueError("sampling modes need shots >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0.0 <= self.spam_p < 0.5:
            raise ValueError("spam_p must lie in [0, 0.5)")


@dataclass
class SectorContext:
    """A sector's tapering, tapered H and tapered reference determinant as
    its bits (qubit 0 leftmost); tapered_state builds its amplitudes when read."""

    determinant: chem.ReferenceDeterminant
    tapering: taper.TaperingData
    tapered_bits: str
    tapered_cache: PowerCache

    @property
    def tapered_h(self) -> PauliSum:
        return self.tapered_cache.h

    @property
    def tapered_state(self) -> StateVector:
        return prepare_basis_state(self.tapered_bits)


@dataclass
class Problem:
    """Everything derived from the Hamiltonian source, sector by sector."""

    integrals: chem.IntegralSet
    scf: chem.ScfResult
    cache: PowerCache
    sectors: dict[str, SectorContext]

    @property
    def hamiltonian(self) -> PauliSum:
        return self.cache.h


def build_scf(cfg: RunConfig) -> tuple[chem.IntegralSet, chem.ScfResult]:
    """The integrals and RHF result of cfg's source."""
    if cfg.spacings is not None:
        ints = chem.compute_integrals(chem.build_h_chain(list(cfg.spacings)))
    elif cfg.geometry_path is not None:
        geometry = chem.Geometry.from_xyz_lines(Path(cfg.geometry_path).read_text())
        ints = chem.compute_integrals(geometry)
    else:
        ints = fcidump.fcidump_read(cfg.fcidump_path)
    return ints, chem.hartree_fock(ints)


def qubit_hamiltonian(ints: chem.IntegralSet, scf: chem.ScfResult) -> PauliSum:
    """The Jordan-Wigner Hamiltonian of ints in the RHF orbitals of scf.
    More than 64 spin orbitals are refused before their tables exist."""
    if 2 * ints.n_orbitals > 64:
        raise ValueError("PauliSum supports at most 64 qubits")
    return jw.jordan_wigner(chem.second_quantized_hamiltonian(ints, scf))


def build_problem(cfg: RunConfig) -> Problem:
    ints, scf = build_scf(cfg)
    h = qubit_hamiltonian(ints, scf)
    sectors: dict[str, SectorContext] = {}
    for sector in SECTORS:
        det = chem.reference_determinant(sector, ints.n_electrons, 2 * ints.n_orbitals)
        td = taper.tapering_for_determinant(h, det)
        sectors[sector] = SectorContext(
            determinant=det,
            tapering=td,
            tapered_bits=taper.taper_state(det, td),
            tapered_cache=PowerCache(taper.taper_operator(h, td)),
        )
    return Problem(ints, scf, PowerCache(h), sectors)


# -- measurement planning ----------------------------------------------------


def unique_measured_strings(cache: PowerCache, max_power: int) -> list[PauliString]:
    """Distinct non-identity strings across H^1..H^max_power, canonical order:
    the cache's kept ledger (PowerCache.ledger), a fresh list on every call."""
    return list(cache.ledger(max_power).strings)


@dataclass(frozen=True)
class MeasurementLadder:
    """Table of circuit counts for one sector under each reduction step."""

    original: int
    qwc: int
    tapered: int
    tapered_qwc: int
    batches: int


# (measurement_counts.csv and `pdsq plan` row label, MeasurementLadder field)
LADDER_ROWS = (
    ("original", "original"),
    ("qwc", "qwc"),
    ("tapering", "tapered"),
    ("tapering+qwc", "tapered_qwc"),
    ("tapering+qwc+parallelization", "batches"),
)


def measurement_ladder(problem: Problem, sector: str, k_max: int) -> MeasurementLadder:
    max_power = 2 * k_max - 1
    ctx = problem.sectors[sector]
    full_strings = unique_measured_strings(problem.cache, max_power)
    tapered_strings = unique_measured_strings(ctx.tapered_cache, max_power)
    full_groups = problem.cache.ledger(max_power).groups
    tapered_groups = ctx.tapered_cache.ledger(max_power).groups
    batches = grouping.pack_batches(tapered_groups, ctx.tapered_h.n_qubits, DEVICE_REGISTER)
    return MeasurementLadder(
        original=len(full_strings),
        qwc=len(full_groups),
        tapered=len(tapered_strings),
        tapered_qwc=len(tapered_groups),
        batches=len(batches),
    )


# -- sampled moment estimation -------------------------------------------------


def register_width(ctx: SectorContext, mode: str) -> int:
    """Qubits per execution: the tapered width in serial mode, so each
    execution measures one QWC group, else the device's register."""
    return ctx.tapered_h.n_qubits if mode == "serial" else DEVICE_REGISTER


def sample_sector(
    ctx: SectorContext,
    max_power: int,
    shots: int,
    seed: int,
    sector_index: int,
    noise: NoiseModel,
    register: int,
) -> Iterator[tuple[grouping.PackedBatch, CountTable]]:
    """Each execution of a sector's measurement plan with its counts: the
    QWC groups of the tapered ledger packed register // n to an execution
    (n the tapered width), batch bi drawn with seed [seed, sector_index, bi]."""
    # unused, but benchmarks/test_bench.py pins this call's count per op
    unique_measured_strings(ctx.tapered_cache, max_power)
    groups = ctx.tapered_cache.ledger(max_power).groups
    batches = grouping.pack_batches(groups, ctx.tapered_h.n_qubits, register)
    for bi, batch in enumerate(batches):
        yield batch, sample_batch(
            ctx.tapered_bits, batch, shots, noise, seed=[seed, sector_index, bi]
        )


def estimate_expectations_parallel(
    ctx: SectorContext,
    max_power: int,
    shots: int,
    seed: int,
    sector_index: int,
    spam_p: float,
    apply_mitigation: bool,
    register: int = DEVICE_REGISTER,
) -> dict[PauliString, float]:
    """Estimate every unique tapered string from sample_sector's executions,
    each mitigated when asked and p > 0 (raw weights stay integer counts);
    register = the tapered width puts one group in each execution, which is
    serial sampling."""
    noise = NoiseModel(spam_p)
    estimates: dict[PauliString, float] = {}
    for batch, counts in sample_sector(
        ctx, max_power, shots, seed, sector_index, noise, register
    ):
        weights = counts.counts
        if spam_p > 0.0 and apply_mitigation:
            weights = mitigation.mitigate(counts.outcomes, weights, counts.n_bits, noise)
        estimates.update(grouping.slot_expectations(counts.outcomes, weights, batch.slots))
    return estimates


def moments_from_estimates(
    cache: PowerCache, estimates: dict[PauliString, float], k: int
) -> np.ndarray:
    """Assemble <H^n> for n = 0..2k-1 from per-string measured expectations:
    each power's real coefficients times its strings' estimates, looked up
    in the ledger's order and gathered through its column map.  The
    identity's expectation is 1; other extra estimates are ignored, and a
    ledger string without one raises KeyError naming it."""
    ledger = cache.ledger(2 * k - 1)
    values = np.r_[1.0, [estimates[s] for s in ledger.strings]][ledger.columns]
    coeffs = [p.mask_arrays()[2] for p in ledger.powers]
    ends = np.cumsum([c.size for c in coeffs])
    # Summed term by term in canonical order (add.accumulate), as a loop over
    # the terms adds them: the sampled PDS solve turns 1e-15 relative changes
    # of the moments into root shifts of up to ~1e-6 Eh.
    return np.array([
        np.cumsum(np.r_[0.0, c * v])[-1]
        for c, v in zip(coeffs, np.split(values, ends[:-1]))
    ])


# -- energies ------------------------------------------------------------------


@dataclass(frozen=True)
class SectorEnergies:
    result: PdsResult


def exact_tables(problem: Problem, k_max: int) -> dict[str, MomentTable]:
    """Each sector's exact moment table of order k_max, from its tapered H
    and state: exact-mode energies and the Fig. 3 rows both read these."""
    return {
        s: moments_for_state(ctx.tapered_h, ctx.tapered_state, k_max)
        for s, ctx in problem.sectors.items()
    }


def sector_energies(
    problem: Problem, cfg: RunConfig, sector: str, exact_table: MomentTable
) -> SectorEnergies:
    """PDS(k_max) energies of one sector: in exact mode the roots of
    exact_table, otherwise from moments of sampled string estimates."""
    ctx = problem.sectors[sector]
    k = cfg.k_max
    sector_index = SECTORS.index(sector)
    if cfg.mode == "exact":
        system = build_system(exact_table, k)
        return SectorEnergies(polynomial_roots(system.X))
    estimates = estimate_expectations_parallel(
        ctx, 2 * k - 1, cfg.shots, cfg.seed, sector_index, cfg.spam_p,
        cfg.apply_mitigation, register_width(ctx, cfg.mode),
    )
    values = moments_from_estimates(ctx.tapered_cache, estimates, k)
    return SectorEnergies(pds_from_values(values, k))


# -- report bundle ---------------------------------------------------------------


@dataclass
class RunReport:
    config: RunConfig
    ladders: dict[str, MeasurementLadder]
    energies: dict[str, SectorEnergies]
    transitions: TransitionSummary
    exact_reference: dict[str, float]
    files: list[Path] = field(default_factory=list)


def energy_vs_order(
    table_s: MomentTable, table_t: MomentTable, k_max: int
) -> list[tuple[int, float, float, float]]:
    """(K, S0, S1, T0) for K = 1..k_max from the singlet and triplet tables;
    S1 is NaN while the singlet sector has a single root."""
    rows = []
    for k in range(1, k_max + 1):
        res_s = polynomial_roots(build_system(table_s, k).X)
        res_t = polynomial_roots(build_system(table_t, k).X)
        s1 = res_s.roots[1] if len(res_s.roots) > 1 else float("nan")
        rows.append((k, res_s.roots[0], s1, res_t.roots[0]))
    return rows


def _fig3_rows(
    problem: Problem, tables: dict[str, MomentTable], k_max: int
) -> list[tuple]:
    counts = unique_string_count(problem.cache, 2 * k_max - 1)
    rows = energy_vs_order(tables["singlet"], tables["triplet"], k_max)
    return [(k, counts[2 * k - 2], *e) for k, *e in rows]


def run_pipeline(cfg: RunConfig, problem: Problem | None = None) -> RunReport:
    """Produce the full report bundle; raises PipelineError naming the
    failing stage on any module error.  The exception is build_problem's
    input errors, a ValueError (a bad geometry, FCIDUMP or electron count)
    or a FileNotFoundError (a missing geometry or FCIDUMP file), which pass
    unwrapped as they do from every other subcommand.  A prebuilt problem
    may be passed to reuse cached power ladders."""
    if cfg.k_max < 2:
        raise ValueError("run needs k_max >= 2: the report's S1 is the second singlet root")

    def stage(name, fn, passes=()):
        try:
            return fn()
        except passes:
            raise
        except Exception as exc:
            raise PipelineError(name, exc) from exc

    if problem is None:
        problem = stage(
            "hamiltonian", lambda: build_problem(cfg), passes=(ValueError, FileNotFoundError)
        )
    ladders = stage(
        "plan",
        lambda: {s: measurement_ladder(problem, s, cfg.k_max) for s in SECTORS},
    )
    tables = stage("pds", lambda: exact_tables(problem, cfg.k_max))
    energies = stage(
        "pds", lambda: {s: sector_energies(problem, cfg, s, tables[s]) for s in SECTORS}
    )
    transitions = stage(
        "transitions",
        lambda: transition_energies(
            energies["singlet"].result, energies["triplet"].result
        ),
    )
    exact_ref = stage("exact", lambda: _exact_reference(problem))
    report = RunReport(cfg, ladders, energies, transitions, exact_ref)
    stage("report", lambda: _write_reports(report, problem, tables))
    return report


def exact_spectra(problem: Problem) -> tuple[SpectrumResult, SpectrumResult]:
    """The full H's spectrum in each sector's (N, Sz): N the electron count,
    Sz that of the sector's reference determinant (singlet 0, triplet 1)."""
    n_e = problem.integrals.n_electrons
    return tuple(exact_spectrum(problem.hamiltonian, (n_e, ctx.determinant.s_z))
                 for ctx in problem.sectors.values())


def _exact_reference(problem: Problem) -> dict[str, float]:
    spec_s, spec_t = exact_spectra(problem)
    s0_s1, s0_t0 = exact_transitions(spec_s, spec_t)
    return {
        "S0": spec_s.ground,
        "T0": spec_t.ground,
        "s0_s1_ev": s0_s1,
        "s0_t0_ev": s0_t0,
    }


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_reports(
    report: RunReport, problem: Problem, tables: dict[str, MomentTable]
) -> None:
    cfg = report.config
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    e_s = report.energies["singlet"].result
    e_t = report.energies["triplet"].result
    label = cfg.mode
    if cfg.mode != "exact":
        label += f" ({cfg.shots} shots)"
        if cfg.spam_p > 0:
            label += f" p={cfg.spam_p:g}"
            label += " mitigated" if cfg.apply_mitigation else " raw"
    report.files += [
        _write_csv(out / "measurement_counts.csv", ["strategy", *SECTORS], (
            [strategy, *(getattr(report.ladders[s], attr) for s in SECTORS)]
            for strategy, attr in LADDER_ROWS
        )),
        _write_csv(out / "energy_vs_order.csv", ["K", "unique_strings", "S0", "S1", "T0"], (
            [row[0], row[1]] + [f"{v:.9f}" for v in row[2:]]
            for row in _fig3_rows(problem, tables, cfg.k_max)
        )),
        _write_csv(out / "energies.csv", ["mode", "S0", "S1", "T0"], [
            [label, f"{e_s.roots[0]:.9f}", f"{e_s.roots[1]:.9f}", f"{e_t.roots[0]:.9f}"]
        ]),
    ]
    tr = report.transitions
    lines = [
        f"mode: {cfg.mode}  K={cfg.k_max}  seed={cfg.seed}",
        f"S0 = {e_s.roots[0]:.6f}  S1 = {e_s.roots[1]:.6f}  T0 = {e_t.roots[0]:.6f}  (hartree)",
        f"S0->S1 = {tr.s0_s1_ev:.3f} eV   S0->T0 = {tr.s0_t0_ev:.3f} eV   "
        f"fission ratio = {tr.fission_ratio:.3f}",
        f"exact reference: S0 = {report.exact_reference['S0']:.6f}, "
        f"T0 = {report.exact_reference['T0']:.6f}, "
        f"S0->S1 = {report.exact_reference['s0_s1_ev']:.3f} eV, "
        f"S0->T0 = {report.exact_reference['s0_t0_ev']:.3f} eV",
        "",
        "Trapped-ion hardware reference energies of linear H4 at 2 Angstrom "
        "(20-qubit device): "
        f"S0 = {HARDWARE_REFERENCE['S0']}, S1 = {HARDWARE_REFERENCE['S1']}, "
        f"T0 = {HARDWARE_REFERENCE['T0']} hartree.",
        "These are reference points only: they fold in device noise and finite",
        "sampling on hardware and are not reproducible by this simulator.",
    ]
    path = out / "summary.txt"
    path.write_text("\n".join(lines) + "\n")
    report.files.append(path)
