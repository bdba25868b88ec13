"""What the benchmark in benchmarks/ needs from pdsq, checked in the default
test run so that a refactor breaking it fails here too.

The benchmark's tracer wraps functions by (module, name) and rebinds every
pdsq module attribute that names them; it is read here, never changed.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from unittest.mock import MagicMock

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load_benchmark(name, monkeypatch):
    """benchmarks/<name>.py as a module, registered for the test only."""
    path = ROOT / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    tracer = _load_benchmark("tracer", monkeypatch)
    missing = [
        spec.span_name for spec in tracer.TRACED
        if not callable(getattr(importlib.import_module(spec.module), spec.function, None))
    ]
    assert missing == []


def test_tracer_reads_arguments_by_their_parameter_names(monkeypatch):
    """The tracer binds each traced call to the function's signature and
    reads the arguments by name, e.g. `apply_pauli_sum(h, state)` and
    `multiply_sums(a, b)`: a renamed parameter would fail every traced op."""
    tracer = _load_benchmark("tracer", monkeypatch)

    class Arguments(dict):
        def __missing__(self, name):
            self[name] = MagicMock()
            return self[name]

    read, unknown = {}, {}
    for spec in tracer.TRACED:
        if spec.info is None:
            continue
        arguments = Arguments()
        spec.info(arguments, MagicMock())
        fn = getattr(importlib.import_module(spec.module), spec.function)
        read[spec.span_name] = set(arguments)
        unknown[spec.span_name] = set(arguments) - set(inspect.signature(fn).parameters)
    assert read["backend.apply_pauli_sum"] == {"h", "state"}
    assert read["pauli.multiply_sums"] == {"a", "b"}
    assert not any(unknown.values()), unknown


def test_pipeline_names_the_samplers():
    """The tracer times sampling where the pipeline calls it, through the
    names the pipeline imports from the backend."""
    from pdsq import backend, pipeline

    assert pipeline.sample_batch is backend.sample_batch
    assert pipeline.serial_sample is backend.serial_sample


def test_benchmark_pipeline_calls_bind_to_the_signatures():
    """benchmarks/run.py calls these pipeline functions with these arguments;
    a changed signature fails here, not only under `pytest benchmarks`."""
    from pdsq import pipeline

    ctx, cache, estimates = object(), object(), {}
    inspect.signature(pipeline.estimate_expectations_parallel).bind(
        ctx, 19, 8192, 7, 0, spam_p=1e-3, apply_mitigation=True
    )
    inspect.signature(pipeline.moments_from_estimates).bind(cache, estimates, 10)
    inspect.signature(pipeline.unique_measured_strings).bind(cache, 19)


def test_power_ladder_multiplies_once_per_step(h4, monkeypatch):
    """The benchmark pins `pauli.multiply_sums_calls` (54 per exact op: three
    ladders of 18 products), counted where pdsq.moments calls it."""
    from pdsq import moments

    calls = []

    def counted(a, b, *args, **kwargs):
        calls.append((a.n_terms, b.n_terms))
        return original(a, b, *args, **kwargs)

    original = moments.multiply_sums
    monkeypatch.setattr(moments, "multiply_sums", counted)
    moments.PowerCache(h4).power(19)
    assert len(calls) == 18


@pytest.mark.parametrize("mode, calls", [("exact", 4), ("parallel", 6)])
def test_run_reads_the_ledger_twice_per_sector_and_once_more_to_sample(
    mode, calls, monkeypatch, tmp_path
):
    """The benchmark pins `pipeline.ledger_calls` (4 per exact run, 6 per
    sampled one: the full and tapered ledgers of each sector's plan, then
    each sector's tapered ledger again to sample), counted where
    pdsq.pipeline calls `unique_measured_strings`."""
    from pdsq import pipeline

    calls_seen = []

    def counted(cache, max_power):
        calls_seen.append(max_power)
        return original(cache, max_power)

    original = pipeline.unique_measured_strings
    monkeypatch.setattr(pipeline, "unique_measured_strings", counted)
    pipeline.run_pipeline(pipeline.RunConfig(
        spacings=(0.7414,), k_max=3, shots=256, mode=mode, output_dir=tmp_path
    ))
    assert calls_seen == [5] * calls


@pytest.mark.parametrize("mode", ["exact", "parallel"])
def test_run_groups_each_ledger_once(mode, monkeypatch, tmp_path):
    """The benchmark counts `grouping.group_qwc_calls`: a run groups the
    full ledger once, for both sectors' plans, and each tapered ledger once,
    for its plan and its sampling alike, where pdsq.pipeline calls
    `grouping.group_qwc`."""
    from pdsq import grouping, pipeline

    grouped = []

    def counted(strings):
        grouped.append(len(strings))
        return original(strings)

    original = grouping.group_qwc
    monkeypatch.setattr(grouping, "group_qwc", counted)
    report = pipeline.run_pipeline(pipeline.RunConfig(
        spacings=(0.7414,), k_max=3, shots=256, mode=mode, output_dir=tmp_path
    ))
    lad = report.ladders
    assert grouped == [lad["singlet"].original, lad["singlet"].tapered, lad["triplet"].tapered]


def test_kept_strings_and_groups_cannot_be_changed_by_a_caller(tmp_path):
    """A caller that changes the string list it got does not change what
    the cache keeps for the next caller, and the kept groups are a tuple,
    read back as the same object."""
    from pdsq import pipeline

    problem = pipeline.build_problem(pipeline.RunConfig(spacings=(0.7414,), output_dir=tmp_path))
    cache = problem.cache
    strings = pipeline.unique_measured_strings(cache, 3)
    want = list(strings)
    groups = cache.ledger(3).groups
    strings.clear()
    assert pipeline.unique_measured_strings(cache, 3) == want
    assert isinstance(groups, tuple) and cache.ledger(3).groups is groups
    with pytest.raises(dataclasses.FrozenInstanceError):
        cache.ledger(3).strings = ()
    assert want and groups  # H2's ledger is not empty


def test_tracer_reads_the_strings_the_ladder_groups(monkeypatch, tmp_path):
    """`--trace 1` keys each `group_qwc` span on the hash of the string
    sequence `measurement_ladder` passes and counts the groups returned.
    The problem is built here: a problem's caches keep their groups, so
    a ladder of a used problem may group nothing."""
    from pdsq.pipeline import (
        RunConfig, build_problem, measurement_ladder, unique_measured_strings,
    )

    h4_problem = build_problem(RunConfig(spacings=(2.0, 2.0, 2.0), output_dir=tmp_path))
    tracer = _load_benchmark("tracer", monkeypatch)
    recorder = tracer.Tracer()
    with recorder.installed(0):
        ladder = measurement_ladder(h4_problem, "singlet", 10)
    infos = [span.info for span in recorder.spans if span.name == "grouping.group_qwc"]
    caches = (h4_problem.cache, h4_problem.sectors["singlet"].tapered_cache)
    assert infos == [
        {"key": hash(tuple(unique_measured_strings(cache, 19))), "groups": groups}
        for cache, groups in zip(caches, (ladder.qwc, ladder.tapered_qwc))
    ]


def test_set_up_layers_cover_jordan_wigner_and_tapering(monkeypatch, tmp_path):
    """One `build_problem` reaches `jordan_wigner` once and each tapering
    entry point once per sector, through the module attributes the tracer
    rebinds; every private helper of jw and taper runs inside one of those
    spans, so `jw.jordan_wigner_s` and `taper.taper_s` time it rather than
    `pipeline.setup_self_s`."""
    from pdsq import jw, pipeline, taper

    tracer = _load_benchmark("tracer", monkeypatch)
    recorder = tracer.Tracer()
    helper_spans = []

    def enclosed(name, fn):
        def wrapper(*args, **kwargs):
            top = recorder.spans[recorder._stack[-1]].name if recorder._stack else None
            helper_spans.append((name, top))
            return fn(*args, **kwargs)
        return wrapper

    for module in (jw, taper):
        for name, fn in list(vars(module).items()):
            if name.startswith("_") and inspect.isfunction(fn):
                monkeypatch.setattr(module, name, enclosed(f"{module.__name__}.{name}", fn))

    cfg = pipeline.RunConfig(spacings=(2.0, 2.0, 2.0), output_dir=tmp_path)
    with recorder.installed(0):
        pipeline.build_problem(cfg)
    calls = Counter(span.name for span in recorder.spans)
    assert [calls[name] for name in (
        "jw.jordan_wigner", "taper.tapering_for_determinant",
        "taper.taper_operator", "taper.taper_state",
    )] == [1, 2, 2, 2]
    assert {name for name, _ in helper_spans} >= {
        "pdsq.jw._string_products", "pdsq.jw._sum_in_order", "pdsq.taper._gf2_basis",
        "pdsq.taper._check_generators", "pdsq.taper._compact", "pdsq.taper._sum_in_order",
    }
    # each helper ran inside a traced span of its own module (jw or taper)
    assert all(
        top is not None and name.startswith(f"pdsq.{top.split('.')[0]}.")
        for name, top in helper_spans
    ), helper_spans


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_op_of_each_benchmark_workload_passes_its_gate(workload, monkeypatch, tmp_path):
    """One untraced op of each workload in BENCHMARK.json, at seed 1,
    passes the benchmark's own gate against its reference: a change to what
    benchmarks/run.py reads (`ctx.tapered_state`, `report.ladders`, the
    estimates dict) fails here, not only under `pytest benchmarks`."""
    from pdsq import pipeline

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets them at import; restored after
    run = _load_benchmark("run", monkeypatch)
    problem = pipeline.build_problem(run.make_config(workload, 1, tmp_path))
    op = run.run_op(workload, 1, run.make_reference(workload, problem), tmp_path)
    assert op.failure is None
