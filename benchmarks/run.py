"""End-to-end and per-layer benchmark of `pdsq run` on linear H4.

Usage, from the repository root:

    python3 benchmarks/run.py --workload h4-exact --seed 1 --seconds 45 --trace 0

One op is what every `pdsq run` pays: `build_problem` on a fresh config
(timed as set-up), then `run_pipeline` on that fresh Problem (timed as run),
writing the report bundle into a temporary directory.  On the `-moments`
workload the timed run is the measurement half of `run_pipeline` only: the
sampled, mitigated string estimates and the moments assembled from them for
both sectors, checked string by string against the exact state.  The load
is a closed loop with one client in this one process; BLAS is pinned to one
thread.
Op i uses pipeline seed `--seed + i`.  Every op passes a correctness gate
or counts as failed.  `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer ones from spans recorded around pdsq's public functions.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Before NumPy loads: the workload process must start no worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"

COMMON = dict(spacings=(2.0, 2.0, 2.0), k_max=10, shots=8192)
WORKLOADS = {
    "h4-exact": dict(mode="exact"),
    "h4-serial": dict(mode="serial"),
    "h4-parallel-spam": dict(mode="parallel", spam_p=1e-3),
    "h4-parallel-spam-moments": dict(mode="parallel", spam_p=1e-3),
}
# Workloads whose op stops at the sampled moments, before the PDS solve
MOMENTS_ONLY = {"h4-parallel-spam-moments"}
SETUPS_PER_OP = 4  # extra build_problem samples: set-up is short and noisy
MIN_OPS = 3

# Acceptance criterion 2 (noiseless PDS(10)): (target, half-width)
EXACT_BANDS = {
    "S0": (-1.897780, 2e-4),
    "S1": (-1.856543, 2e-3),
    "T0": (-1.881876, 2e-4),
    "s0_s1_ev": (1.122, 0.01),
    "s0_t0_ev": (0.433, 0.005),
}
# Sampled modes: allowed |E - E_exact| in hartree
SAMPLED_TOL = {"S0": 1e-3, "S1": 20e-3, "T0": 1e-3}
# Allowed |estimate - exact| of one measured string, in standard deviations
# of a +-1 outcome averaged over the shots (1 / sqrt(shots) at most)
ESTIMATE_SIGMAS = 8.0
# Acceptance criterion 4: tapered ledger sizes (singlet, triplet), +-5%
TAPERED_LEDGER = {"singlet": 527, "triplet": 379}


def _load_pdsq():
    """Import pdsq from this checkout's src/, refusing any other copy."""
    if not (SRC / "pdsq" / "__init__.py").is_file():
        raise SystemExit(f"error: no pdsq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdsq

    if Path(pdsq.__file__).resolve().parent != (SRC / "pdsq").resolve():
        raise SystemExit(f"error: imported pdsq from {pdsq.__file__}, not {SRC}")


def make_config(workload: str, seed: int, output_dir: Path):
    from pdsq.pipeline import RunConfig

    return RunConfig(**COMMON, **WORKLOADS[workload], seed=seed, output_dir=output_dir)


def exact_reference(problem) -> dict[str, float]:
    """S0/S1/T0 by dense diagonalisation of the problem's Hamiltonian."""
    from pdsq.exact import exact_spectrum, lowest_spin_singlet_excitation

    n_e = problem.integrals.n_electrons
    singlet = exact_spectrum(problem.hamiltonian, (n_e, 0.0))
    triplet = exact_spectrum(problem.hamiltonian, (n_e, 1.0))
    return {
        "S0": singlet.ground,
        "S1": lowest_spin_singlet_excitation(singlet, triplet),
        "T0": triplet.ground,
    }


@dataclass
class SectorMoments:
    """Exact per-string expectations and moments of one tapered sector."""

    expectations: dict  # PauliString -> <state|P|state>
    values: object  # np.ndarray of <H^n>, n = 0..2K-1
    coeff_norms: list[float]  # sum of |coefficient| over H^n's strings


def moments_reference(problem) -> dict[str, SectorMoments]:
    """Exact tapered-sector expectations that sampled estimates must match."""
    from pdsq import pipeline
    from pdsq.backend import exact_expectation
    from pdsq.pauli import PauliSum

    k = COMMON["k_max"]
    ref = {}
    for sector in pipeline.SECTORS:
        ctx = problem.sectors[sector]
        strings = pipeline.unique_measured_strings(ctx.tapered_cache, 2 * k - 1)
        exact = {
            s: exact_expectation(PauliSum.from_string(s), ctx.tapered_state)
            for s in strings
        }
        norms = [
            sum(abs(c) for s, c in ctx.tapered_cache.power(n).terms() if not s.is_identity)
            for n in range(2 * k)
        ]
        values = pipeline.moments_from_estimates(ctx.tapered_cache, exact, k)
        ref[sector] = SectorMoments(exact, values, norms)
    return ref


def sampled_moments(problem, cfg) -> dict[str, tuple[dict, object]]:
    """The measurement half of run_pipeline: per sector, the sampled string
    estimates and the moments assembled from them, as sector_energies makes
    them before its PDS solve."""
    from pdsq import pipeline

    out = {}
    for index, sector in enumerate(pipeline.SECTORS):
        ctx = problem.sectors[sector]
        estimates = pipeline.estimate_expectations_parallel(
            ctx, 2 * cfg.k_max - 1, cfg.shots, cfg.seed, index,
            spam_p=cfg.spam_p, apply_mitigation=cfg.apply_mitigation,
        )
        values = pipeline.moments_from_estimates(ctx.tapered_cache, estimates, cfg.k_max)
        out[sector] = (estimates, values)
    return out


def gate_moments(result: dict, reference: dict[str, SectorMoments]) -> tuple[list[str], float]:
    """Reasons the sampled moments are wrong, and the largest string deviation."""
    tol = ESTIMATE_SIGMAS / COMMON["shots"] ** 0.5
    problems, worst = [], 0.0
    for sector, ref in reference.items():
        estimates, values = result[sector]
        n_ref = TAPERED_LEDGER[sector]
        if abs(len(estimates) - n_ref) > 0.05 * n_ref:
            problems.append(f"{sector}: {len(estimates)} strings, not {n_ref} +- 5%")
        if set(estimates) != set(ref.expectations):
            problems.append(f"{sector}: estimated strings differ from the tapered ledger")
            continue
        dev = max(abs(estimates[s] - e) for s, e in ref.expectations.items())
        worst = max(worst, dev)
        if not dev <= tol:
            problems.append(f"{sector}: a string estimate is {dev:.4f} from exact (> {tol:.4f})")
        if values[0] != 1.0:
            problems.append(f"{sector}: <H^0> = {values[0]!r}, not 1")
        # each moment is a linear sum of the estimates, so its error is
        # bounded by the coefficients' norm times the largest string error
        for n, (got, want, norm) in enumerate(zip(values, ref.values, ref.coeff_norms)):
            if not abs(got - want) <= norm * dev * (1 + 1e-9) + 1e-9 * abs(want):
                problems.append(f"{sector}: <H^{n}> = {got!r} beyond the estimates' bound")
                break
    return problems, worst


def make_reference(workload: str, problem):
    """What the workload's ops are checked against; computed once, untimed."""
    if workload in MOMENTS_ONLY:
        return moments_reference(problem)
    return exact_reference(problem)


def reported_energies(report) -> dict[str, float]:
    singlet = report.energies["singlet"].result.roots
    triplet = report.energies["triplet"].result.roots
    return {"S0": float(singlet[0]), "S1": float(singlet[1]), "T0": float(triplet[0])}


def gate(workload: str, report, reference: dict[str, float]) -> list[str]:
    """Reasons the op's outputs are wrong; empty when they pass."""
    problems = []
    for sector in ("singlet", "triplet"):
        lad = report.ladders[sector]
        if lad.original != 4223:
            problems.append(f"{sector} ledger {lad.original} != 4223")
        if lad.batches != -(-lad.tapered_qwc // 4):
            problems.append(f"{sector} batches {lad.batches} != ceil(groups / 4)")
    l_s, l_t = report.ladders["singlet"], report.ladders["triplet"]
    if abs(l_s.tapered - 527) > 0.05 * 527 or abs(l_t.tapered - 379) > 0.05 * 379:
        problems.append(f"tapered ledgers {l_s.tapered}/{l_t.tapered} outside 5% bands")
    if l_s.qwc > 441 * 1.10:
        problems.append(f"full QWC groups {l_s.qwc} above 441 + 10%")
    if l_s.tapered_qwc > 122 * 1.10 or l_t.tapered_qwc > 66 * 1.10:
        problems.append(f"tapered QWC {l_s.tapered_qwc}/{l_t.tapered_qwc} above +10%")

    energies = reported_energies(report)
    if WORKLOADS[workload]["mode"] == "exact":
        values = dict(energies)
        values["s0_s1_ev"] = report.transitions.s0_s1_ev
        values["s0_t0_ev"] = report.transitions.s0_t0_ev
        for name, (target, width) in EXACT_BANDS.items():
            if not abs(values[name] - target) < width:
                problems.append(f"{name} = {values[name]:.6f} outside {target} +- {width}")
        if not 1.0 < report.transitions.fission_ratio < 1.5:
            problems.append(f"fission ratio {report.transitions.fission_ratio:.3f}")
    else:
        for name, tol in SAMPLED_TOL.items():
            if not abs(energies[name] - reference[name]) <= tol:
                problems.append(
                    f"{name} = {energies[name]:.6f} more than {tol * 1e3:g} mEh "
                    f"from exact {reference[name]:.6f}"
                )
    if len(report.files) != 4 or not all(Path(f).stat().st_size for f in report.files):
        problems.append("report bundle incomplete")
    return problems


@dataclass
class Op:
    setup_s: float = float("nan")
    run_s: float = float("nan")
    outputs: object = None  # what a traced op must reproduce bit for bit
    error_mEh: float = float("nan")
    estimate_dev: float = float("nan")
    failure: str | None = None

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s


def run_op(workload: str, seed: int, reference, workdir: Path) -> Op:
    """Build and run one fresh problem; outputs go to a directory removed after
    the gate."""
    from pdsq import pipeline

    op = Op()
    out = Path(tempfile.mkdtemp(prefix=f"op{seed}-", dir=workdir))
    cfg = make_config(workload, seed, out)
    try:
        t0 = time.perf_counter()
        problem = pipeline.build_problem(cfg)
        t1 = time.perf_counter()
        if workload in MOMENTS_ONLY:
            result = sampled_moments(problem, cfg)
        else:
            report = pipeline.run_pipeline(cfg, problem)
        t2 = time.perf_counter()
        op.setup_s, op.run_s = t1 - t0, t2 - t1
        if workload in MOMENTS_ONLY:
            op.outputs = {s: tuple(values) for s, (_, values) in result.items()}
            problems, op.estimate_dev = gate_moments(result, reference)
        else:
            energies = op.outputs = reported_energies(report)
            op.error_mEh = 1e3 * max(abs(energies[k] - reference[k]) for k in reference)
            problems = gate(workload, report, reference)
        if problems:
            op.failure = "; ".join(problems)
    except Exception:  # a raising op is a failed op, never an aborted run
        op.failure = traceback.format_exc()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if op.failure:
        print(f"op seed {seed} FAILED: {op.failure}", file=sys.stderr)
    return op


def timed_setup(workload: str, seed: int) -> float:
    from pdsq import pipeline

    cfg = make_config(workload, seed, OUT)
    t0 = time.perf_counter()
    pipeline.build_problem(cfg)
    return time.perf_counter() - t0


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that NumPy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "config": {**COMMON, **WORKLOADS[workload]},
        "op": "sampled_moments" if workload in MOMENTS_ONLY else "run_pipeline",
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, then run ops for `seconds`; return the result object."""
    from tracer import Tracer, layer_metrics

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        # untimed: reference spectrum and one warm-up op for import and
        # first-call costs; it repeats op 0's seed, so it is not counted
        from pdsq import pipeline

        reference = make_reference(
            workload, pipeline.build_problem(make_config(workload, seed, workdir))
        )
        run_op(workload, seed, reference, workdir)
        ops: list[Op] = []
        setups: list[float] = []
        tracer = Tracer()
        paired: list[tuple[Op, Op]] = []
        deadline = time.perf_counter() + seconds
        i = 0
        while i < MIN_OPS or time.perf_counter() < deadline:
            if not trace:
                op = run_op(workload, seed + i, reference, workdir)
                ops.append(op)
                setups.append(op.setup_s)
                setups += [timed_setup(workload, seed + i) for _ in range(SETUPS_PER_OP)]
            else:
                # same seed twice, alternating which side runs first
                plain = run_op(workload, seed + i, reference, workdir) if i % 2 == 0 else None
                with tracer.installed(op=i):
                    traced = run_op(workload, seed + i, reference, workdir)
                if plain is None:
                    plain = run_op(workload, seed + i, reference, workdir)
                if plain.failure is None and traced.outputs != plain.outputs:
                    traced.failure = f"traced outputs {traced.outputs} != {plain.outputs}"
                    print(f"op seed {seed + i} FAILED: {traced.failure}", file=sys.stderr)
                ops += [plain, traced]
                paired.append((plain, traced))
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(op.failure is not None for op in ops)
    summary = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "energy_err_mEh": _median(op.error_mEh for op in ops),
        "estimate_dev": max(
            (op.estimate_dev for op in ops if op.estimate_dev == op.estimate_dev),
            default=float("nan"),
        ),
    }
    if not trace:
        summary["metrics"] = {
            "run_s": _metric(_median(op.run_s for op in ops), "s"),
            "setup_s": _metric(_median(setups), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
        summary["spread"] = {
            "run_s": _quartiles([op.run_s for op in ops]),
            "setup_s": _quartiles(setups),
        }
        return summary

    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    per_op = [layer_metrics(tracer.spans, i, COMMON["k_max"]) for i in range(len(paired))]
    metrics = {k: _median(m[k] for m in per_op) for k in per_op[0]}
    metrics["trace.overhead_frac"] = (
        _median(t.wall_s for _, t in paired) / _median(p.wall_s for p, _ in paired) - 1.0
    )
    summary["metrics"] = {k: _metric(v, _unit(k)) for k, v in sorted(metrics.items())}
    summary["spans"] = str(spans_path.relative_to(ROOT))
    return summary


def _median(values) -> float:
    values = [v for v in values if v == v]  # drop NaN from failed ops
    return statistics.median(values) if values else float("nan")


def _quartiles(values: list[float]) -> str:
    values = [v for v in values if v == v]
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} p25={q1:.6g} p50={q2:.6g} p75={q3:.6g} max={max(values):.6g}"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_imag"):
        return "Eh"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _load_pdsq()

    env = environment(args.workload, args.seed, bool(args.trace))
    print("env " + json.dumps(env))
    summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = summary["metrics"]
    if any(m["value"] != m["value"] for m in metrics.values()):
        print("error: every op failed; no metrics", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    if summary["energy_err_mEh"] == summary["energy_err_mEh"]:
        print(f"{'energy_err_mEh':36s} {summary['energy_err_mEh']:.6g} mEh "
              f"(median over {summary['attempted']} ops)")
    if summary["estimate_dev"] == summary["estimate_dev"]:
        print(f"{'max_estimate_dev':36s} {summary['estimate_dev']:.6g} "
              f"(largest |estimate - exact| of one string over "
              f"{summary['attempted']} ops)")
    print(f"{'fail_frac':36s} {summary['failed'] / summary['attempted']:.6g} "
          f"({summary['failed']}/{summary['attempted']} ops)")
    for name, text in summary.get("spread", {}).items():
        print(f"{name + ' samples':36s} {text}")
    if "spans" in summary:
        print(f"{'spans':36s} {summary['spans']}")
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
