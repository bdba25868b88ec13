"""Checks of the benchmark itself: run with `python3 -m pytest benchmarks`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracer

run._load_pdsq()

from pdsq import backend, chem, moments, pds, pipeline  # noqa: E402
from pdsq.pipeline import MeasurementLadder  # noqa: E402
from pdsq.units import EV_PER_HARTREE  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reference():
    cfg = run.make_config("h4-exact", 1, run.OUT)
    return run.exact_reference(pipeline.build_problem(cfg))


@pytest.fixture(scope="module")
def moments_ref():
    cfg = run.make_config("h4-parallel-spam-moments", 1, run.OUT)
    return run.moments_reference(pipeline.build_problem(cfg))


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def op_pair(request, reference, moments_ref, tmp_path_factory):
    """One untraced and one traced op of a workload, both with seed 1."""
    if request.param in run.MOMENTS_ONLY:
        reference = moments_ref
    workdir = tmp_path_factory.mktemp(request.param)
    plain = run.run_op(request.param, 1, reference, workdir)
    t = tracer.Tracer()
    with t.installed(op=0):
        traced = run.run_op(request.param, 1, reference, workdir)
    return request.param, plain, traced, tracer.layer_metrics(t.spans, 0, 10)


def test_tracing_does_not_change_results(op_pair):
    _, plain, traced, _ = op_pair
    assert plain.failure is None and traced.failure is None
    assert plain.outputs is not None
    assert traced.outputs == plain.outputs  # bit-identical energies or moments


def test_traced_counts_match_the_pipeline(op_pair):
    workload, _, _, m = op_pair
    sampled = workload != "h4-exact"
    full_run = workload not in run.MOMENTS_ONLY
    if full_run:
        assert m["pipeline.ledger_calls"] == (6 if sampled else 4)
        assert m["pauli.multiply_sums_calls"] == 54  # 3 ladders x 18 products
        assert m["pds.retained_rank_singlet"] > 0 and m["pds.retained_rank_triplet"] > 0
    else:  # the two tapered ladders, ledgers and groupings only
        assert m["pipeline.ledger_calls"] == 2 and m["grouping.group_qwc_calls"] == 2
        assert m["pauli.multiply_sums_calls"] == 36
        assert m["pds.solve_calls"] == 0 and m["backend.apply_pauli_sum_calls"] == 0
    assert (m["mitigation.mitigate_calls"] > 0) == ("spam" in workload)
    assert (m["backend.sample_calls"] > 0) == sampled
    names = set(m) | {"trace.overhead_frac"}
    per_layer = {x["name"]: x["unit"] for x in BENCHMARK["per_layer"]}
    assert per_layer == {name: run._unit(name) for name in names}


def test_tracer_rebinds_every_import_site_once_and_restores():
    sites = {
        pipeline: ["sample_batch", "serial_sample", "moments_for_state",
                   "unique_string_count", "build_system", "polynomial_roots",
                   "pds_from_values", "exact_spectrum"],
        moments: ["multiply_sums", "exact_expectation"],
        pds: ["build_system", "polynomial_roots"],
        backend: ["apply_pauli_sum", "sample_batch"],
        chem: ["compute_integrals", "hartree_fock"],
    }
    originals = {(m, n): getattr(m, n) for m, names in sites.items() for n in names}
    with tracer.Tracer().installed(op=0):
        for (module, name), original in originals.items():
            wrapped = getattr(module, name)
            assert wrapped.traced_original is original, (module.__name__, name)
        # pipeline.chem is pdsq.chem: its functions are wrapped exactly once
        assert pipeline.chem.compute_integrals.traced_original is originals[
            chem, "compute_integrals"
        ]
        # no pdsq module still names a traced original, except set-up's
        # own products, which stay inside the jw and taper spans
        untraced = set()
        for name, module in list(sys.modules.items()):
            if name == "pdsq" or name.startswith("pdsq."):
                for spec in tracer.TRACED:
                    value = getattr(module, spec.function, None)
                    if value is not None and not hasattr(value, "traced_original"):
                        untraced.add((name, spec.function))
        assert untraced <= {
            ("pdsq", "multiply_sums"), ("pdsq.pauli", "multiply_sums"),
            ("pdsq.jw", "multiply_sums"), ("pdsq.taper", "multiply_sums"),
        }
    for (module, name), original in originals.items():
        assert getattr(module, name) is original


def test_self_time_subtracts_direct_children():
    spans = [
        tracer.Span("outer", 0, None, 0.0, 10.0),
        tracer.Span("child", 0, 0, 1.0, 4.0),
        tracer.Span("grandchild", 0, 1, 2.0, 3.0),
        tracer.Span("child", 0, 0, 5.0, 6.0),
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _fake_report(tmp_path, s0, s1, t0, ledger=4223):
    files = []
    for i in range(4):
        path = tmp_path / f"f{i}"
        path.write_text("x")
        files.append(path)
    return SimpleNamespace(
        ladders={
            "singlet": MeasurementLadder(ledger, 441, 527, 122, 31),
            "triplet": MeasurementLadder(ledger, 441, 382, 66, 17),
        },
        energies={
            "singlet": SimpleNamespace(result=SimpleNamespace(roots=[s0, s1])),
            "triplet": SimpleNamespace(result=SimpleNamespace(roots=[t0])),
        },
        transitions=SimpleNamespace(
            s0_s1_ev=(s1 - s0) * EV_PER_HARTREE,
            s0_t0_ev=(t0 - s0) * EV_PER_HARTREE,
            fission_ratio=(s1 - s0) / (2 * (t0 - s0)),
        ),
        files=files,
    )


def test_gate_bands(tmp_path):
    ref = {"S0": -1.8977807, "S1": -1.8565841, "T0": -1.8818757}
    good = _fake_report(tmp_path, -1.8977801, -1.8565466, -1.8818750)
    assert run.gate("h4-exact", good, ref) == []
    assert run.gate("h4-serial", good, ref) == []
    assert run.gate("h4-exact", _fake_report(tmp_path, *ref.values(), ledger=4224), ref)
    noisy = _fake_report(tmp_path, -1.8977807, -1.8565841 + 0.021, -1.8818757)
    assert run.gate("h4-serial", noisy, ref)
    assert run.gate("h4-exact", noisy, ref)


def test_moments_gate(moments_ref):
    def result(shift=0.0, moment_shift=0.0):
        out = {}
        for sector, ref in moments_ref.items():
            estimates = {s: e + shift for s, e in ref.expectations.items()}
            values = ref.values.copy()
            values[3] += moment_shift
            out[sector] = (estimates, values)
        return out

    problems, dev = run.gate_moments(result(), moments_ref)
    assert problems == [] and dev == 0.0
    tol = run.ESTIMATE_SIGMAS / run.COMMON["shots"] ** 0.5
    assert run.gate_moments(result(shift=0.9 * tol), moments_ref)[0] == []
    assert run.gate_moments(result(shift=1.1 * tol), moments_ref)[0]
    assert run.gate_moments(result(moment_shift=1e-3), moments_ref)[0]
    missing = result()
    missing["triplet"][0].popitem()
    assert run.gate_moments(missing, moments_ref)[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "h4-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
