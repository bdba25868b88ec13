"""What the benchmark in benchmarks/ needs from pdsq, checked in the default
test run so that a refactor breaking it fails here too.

The benchmark's tracer wraps functions by (module, name) and rebinds every
pdsq module attribute that names them; it is read here, never changed.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from unittest.mock import MagicMock

TRACER_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    missing = [
        spec.span_name for spec in tracer.TRACED
        if not callable(getattr(importlib.import_module(spec.module), spec.function, None))
    ]
    assert missing == []


def test_tracer_reads_arguments_by_their_parameter_names(monkeypatch):
    """The tracer binds each traced call to the function's signature and
    reads the arguments by name, e.g. `apply_pauli_sum(h, state)` and
    `multiply_sums(a, b)`: a renamed parameter would fail every traced op."""
    tracer = _load_tracer(monkeypatch)

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


def test_tracer_reads_the_strings_the_ladder_groups(h4_problem, monkeypatch):
    """`--trace 1` keys each `group_qwc` span on the hash of the string
    sequence `measurement_ladder` passes and counts the groups returned."""
    from pdsq.pipeline import measurement_ladder, unique_measured_strings

    tracer = _load_tracer(monkeypatch)
    recorder = tracer.Tracer()
    with recorder.installed(0):
        ladder = measurement_ladder(h4_problem, "singlet", 10)
    infos = [span.info for span in recorder.spans if span.name == "grouping.group_qwc"]
    caches = (h4_problem.cache, h4_problem.sectors["singlet"].tapered_cache)
    assert infos == [
        {"key": hash(tuple(unique_measured_strings(cache, 19))), "groups": groups}
        for cache, groups in zip(caches, (ladder.qwc, ladder.tapered_qwc))
    ]
