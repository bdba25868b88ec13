"""Byte identity of pdsq's outputs across two source trees.

    python3 tools/identity.py [--src DIR] [--cases PATTERN ...] OUT.json
    python3 tools/identity.py --compare A.json B.json
    python3 tools/identity.py --pairs N [--workload W] [--seconds S] [--parent REV]

The first form runs every case of CASES (or those whose name matches one of
the fnmatch PATTERNs) as `python -m pdsq.cli ...` on the package under DIR
(default: this checkout's src), each in a fresh working directory, and
writes one JSON: the BLAS library and thread count the runs saw, and a
sha256 per artifact: each case's exit code, stdout, stderr and every file it
wrote.  Paths are relative to the working directory, so the bytes do not
depend on where it is.  BLAS runs on one thread: sampled outputs depend on
the thread count (ROADMAP item 8), and pinning it makes two machines
comparable.  No hashes are checked in as goldens.

The second form lists the artifacts whose hashes differ, or that only one
side has, and exits 1 if there are any.  To check a change against its
parent, run the first form on a `git archive` of the parent and on the
working tree, then compare.

The third form times a change against its parent: it runs the unchanged
benchmarks/run.py (`--seed 1 --trace 0`) N times on a `git archive` of REV
(default HEAD~1) and N times on the working tree, one run at a time, the
first side alternating pair by pair.  For each end-to-end metric of
BENCHMARK.json it prints both sides' medians, the parent's quartiles and in
how many pairs the change read lower, then each side's failed and attempted
ops.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
THREADS = "1"
TIMEOUT_S = 1800


def _sparse_chain(norb: int) -> str:
    """FCIDUMP text of a chain of norb orbitals with hopping and on-site
    terms only, and an even electron count, so that its Hamiltonian stays
    small however many qubits it spans."""
    records = [(0.8, i, i, i, i) for i in range(1, norb + 1)]
    records += [(-1.0 + 0.1 * i, i + 1, i + 1, 0, 0) for i in range(norb)]
    records += [(-0.5, i + 1, i, 0, 0) for i in range(1, norb)] + [(0.0, 0, 0, 0, 0)]
    lines = [f"&FCI NORB={norb},NELEC={norb - norb % 2},MS2=0,", "&END"]
    lines += ["{: .16e} {:4d} {:4d} {:4d} {:4d}".format(*r) for r in records]
    return "\n".join(lines) + "\n"


# input file name -> text, written into a case's working directory when its
# arguments name it; an idle orbital, one that no record couples, makes both
# sectors taper 4 -> 0 qubits
INPUTS = {
    "idle.fcidump": "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 0.25 1 1 0 0\n",
    **{f"chain{n}.fcidump": _sparse_chain(n) for n in (16, 17, 33)},
}


def _cases() -> dict[str, tuple[str, ...]]:
    """Case name -> pdsq arguments."""
    cases = {}
    for mol, spacings in (("h2", "0.7414"), ("h4", "2,2,2")):
        source = ("--spacings", spacings)
        cases[f"{mol}-run-exact"] = ("run", *source, "--output-dir", "out")
        for mode in ("serial", "parallel"):
            for p in ("0", "1e-3"):
                for mitigation, flag in (("mitigated", ()), ("raw", ("--no-mitigation",))):
                    cases[f"{mol}-run-{mode}-p{p}-{mitigation}"] = (
                        "run", *source, "--mode", mode, "--spam-p", p, *flag,
                        "--output-dir", "out",
                    )
            cases[f"{mol}-simulate-{mode}"] = (
                "simulate", *source, "--mode", mode, "--spam-p", "1e-3", "--output-dir", "out",
            )
        cases[f"{mol}-pds"] = ("pds", *source, "--csv", "pds.csv")
        for command in ("plan", "taper", "moments", "exact", "hamiltonian"):
            cases[f"{mol}-{command}"] = (command, *source)
        cases[f"{mol}-integrals"] = ("integrals", *source, "--write-fcidump", f"{mol}.fcidump")
    # an asymmetric H4 chain: 8,319 full-ledger strings in 841 groups
    h4asym = ("--spacings", "1.0,1.5,2.0")
    for command in ("plan", "hamiltonian"):
        cases[f"h4asym-{command}"] = (command, *h4asym)
    cases["h4asym-run-exact"] = ("run", *h4asym, "--output-dir", "out")
    cases["h4asym-run-parallel-p1e-3-mitigated"] = (
        "run", *h4asym, "--mode", "parallel", "--spam-p", "1e-3", "--output-dir", "out",
    )
    h6 = ("--spacings", "2,2,2,2,2")
    for command in ("taper", "plan"):
        cases[f"h6-{command}"] = (command, *h6, "--k-max", "2")
    for command in ("exact", "hamiltonian"):
        cases[f"h6-{command}"] = (command, *h6)
    for command in ("taper", "exact", "pds"):
        cases[f"idle-{command}"] = (command, "--fcidump", "idle.fcidump")
    # 32 and 34 qubits: string codes of 64 bits, and too wide for them; 66
    # qubits, more than a PauliSum holds
    for norb, commands in ((16, ("hamiltonian",)), (17, ("hamiltonian",)),
                           (33, ("integrals", "hamiltonian"))):
        for command in commands:
            cases[f"chain{norb}-{command}"] = (command, "--fcidump", f"chain{norb}.fcidump")
    return cases


CASES = _cases()


def _env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PDSQ_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


# the BLAS NumPy was built against, and the thread count of the OpenBLAS it
# loaded, where /proc/self/maps names one
_PROBE = """
import ctypes, json, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
try:
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
except OSError:
    paths = []
for path in paths:
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        if threads is None and hasattr(lib, symbol):
            threads = int(getattr(lib, symbol)())
print(json.dumps({"library": blas.get("name"), "version": blas.get("version"),
                  "threads": threads, "numpy": numpy.__version__}))
"""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, args: tuple[str, ...], env: dict[str, str]) -> dict[str, str]:
    """The case's artifacts, each named `name/...`, as sha256 hex digests."""
    with tempfile.TemporaryDirectory(prefix="pdsq-identity-") as tmp:
        work = Path(tmp)
        inputs = {file for file in INPUTS if file in args}
        for file in inputs:
            (work / file).write_text(INPUTS[file])
        proc = subprocess.run(
            [sys.executable, "-m", "pdsq.cli", *args], cwd=work, env=env,
            capture_output=True, timeout=TIMEOUT_S,
        )
        artifacts = {
            f"{name}/exit": _sha256(str(proc.returncode).encode()),
            f"{name}/stdout": _sha256(proc.stdout),
            f"{name}/stderr": _sha256(proc.stderr),
        }
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            rel = path.relative_to(work).as_posix()
            if rel not in inputs:
                artifacts[f"{name}/{rel}"] = _sha256(path.read_bytes())
    return artifacts


def record(src: Path, patterns: list[str]) -> dict:
    env = _env(src)
    names = [n for n in CASES if not patterns or any(fnmatch.fnmatch(n, p) for p in patterns)]
    if not names:
        raise SystemExit(f"no case matches {patterns}")
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    artifacts = {}
    for name in names:
        print(f"{name}: pdsq {' '.join(CASES[name])}", file=sys.stderr)
        artifacts.update(run_case(name, CASES[name], env))
    return {"blas": json.loads(probe.stdout), "cases": names, "artifacts": artifacts}


def compare(a: dict, b: dict) -> list[str]:
    """Names of the artifacts whose hashes differ or that one side lacks."""
    x, y = a["artifacts"], b["artifacts"]
    return sorted(n for n in x.keys() | y.keys() if x.get(n) != y.get(n))


def bench_run(tree: Path, workload: str, seconds: float) -> dict:
    """The result object that benchmarks/run.py of `tree` prints last."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode:
        raise SystemExit(f"benchmarks/run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def pairs(n: int, workload: str, seconds: float, parent: str) -> list[str]:
    """Lines summarising n alternating benchmark pairs, parent against the
    working tree."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", parent],
        capture_output=True, check=True,
    ).stdout
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pdsq-parent-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": Path(tmp), "change": ROOT}
        for i in range(n):
            for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
                runs[side].append(bench_run(trees[side], workload, seconds))
                print(f"pair {i + 1} {side}: " + " ".join(
                    f"{m} {runs[side][-1]['metrics'][m]['value']:.6g}" for m in metrics
                ), file=sys.stderr)
    lines = []
    for m in metrics:
        a, b = ([r["metrics"][m]["value"] for r in runs[side]] for side in ("parent", "change"))
        q1, q3 = _quartiles(a)
        lower = sum(y < x for x, y in zip(a, b))
        lines.append(f"{m}: parent median {statistics.median(a):.6g}, change median "
                     f"{statistics.median(b):.6g}, parent quartiles {q1:.6g}-{q3:.6g}, "
                     f"change lower in {lower}/{n} pairs")
    for side, results in runs.items():
        lines.append(f"{side} failed ops: {sum(r['failed'] for r in results)}/"
                     f"{sum(r['attempted'] for r in results)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding the pdsq package")
    parser.add_argument("--cases", nargs="+", default=[], metavar="PATTERN",
                        help="run only the cases matching one of these fnmatch patterns")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--pairs", type=int, metavar="N",
                        help="time N benchmark pairs, parent against the working tree")
    parser.add_argument("--workload", default="h4-exact")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--parent", default="HEAD~1", metavar="REV")
    parser.add_argument("out", nargs="?", type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs is not None:
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        for line in pairs(args.pairs, args.workload, args.seconds, args.parent):
            print(line)
        return 0
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        if a["blas"] != b["blas"]:
            print(f"note: BLAS differs: {a['blas']} vs {b['blas']}")
        differ = compare(a, b)
        for name in differ:
            print(name)
        print(f"{len(differ)} of {len(a['artifacts'].keys() | b['artifacts'].keys())} "
              "artifacts differ")
        return 1 if differ else 0
    if args.out is None:
        parser.error("give OUT.json, or --compare A B")
    result = record(args.src.resolve(), args.cases)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}: {len(result['artifacts'])} artifacts of "
          f"{len(result['cases'])} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
