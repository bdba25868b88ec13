"""Outside-in tracing of pdsq: wraps public functions and records spans.

Each traced function object is wrapped once, and every module attribute
that names it is rebound to the wrapper for as long as the tracer is
installed.  This matters because `pipeline`, `moments` and `pds` import
names directly (`from .backend import sample_batch`), so patching only the
defining module would miss their calls.  Spans (name, start, end, parent,
op) are kept in memory; self time is derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    op: int
    parent: int | None  # index of the enclosing span in Tracer.spans
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)  # counts and keys from the call


@dataclass(frozen=True)
class Traced:
    """One function to wrap.  `info` maps (bound arguments, result) to the
    span's counts; `sites` limits rebinding to the named modules (None: every
    pdsq module that names the function)."""

    module: str
    function: str
    info: Callable[[dict, object], dict] | None = None
    sites: tuple[str, ...] | None = None

    @property
    def span_name(self) -> str:
        return f"{self.module.removeprefix('pdsq.')}.{self.function}"


def _states_key(a: dict, r) -> dict:
    return {"key": (a["state"].amplitudes.tobytes(), a["K"])}


TRACED = (
    Traced("pdsq.pipeline", "build_problem"),
    Traced("pdsq.pipeline", "run_pipeline"),
    Traced("pdsq.pipeline", "sector_energies", lambda a, r: {"sector": a["sector"]}),
    Traced("pdsq.chem", "compute_integrals"),
    Traced("pdsq.chem", "hartree_fock", lambda a, r: {"iterations": r.n_iterations}),
    Traced("pdsq.jw", "jordan_wigner", lambda a, r: {"terms": r.n_terms}),
    Traced("pdsq.taper", "tapering_for_determinant"),
    Traced("pdsq.taper", "taper_operator"),
    Traced("pdsq.taper", "taper_state"),
    # Only the power ladder's products: jw and taper multiply small sums
    # during set-up, and those stay inside their own spans.
    Traced(
        "pdsq.pauli", "multiply_sums",
        lambda a, r: {
            "string_products": a["a"].n_terms * a["b"].n_terms,
            "terms_out": r.n_terms,
        },
        sites=("pdsq.moments",),
    ),
    Traced("pdsq.moments", "moments_for_state", _states_key),
    Traced("pdsq.moments", "unique_string_count"),
    Traced("pdsq.backend", "exact_expectation"),
    Traced(
        "pdsq.backend", "apply_pauli_sum",
        lambda a, r: {"amplitude_updates": a["h"].n_terms * a["state"].amplitudes.size},
    ),
    Traced(
        "pdsq.pipeline", "unique_measured_strings",
        lambda a, r: {"key": (id(a["cache"]), a["max_power"]), "strings": len(r)},
    ),
    Traced(
        "pdsq.grouping", "group_qwc",
        lambda a, r: {"key": hash(tuple(a["strings"])), "groups": len(r)},
    ),
    Traced("pdsq.grouping", "pack_batches", lambda a, r: {"batches": len(r)}),
    Traced("pdsq.backend", "serial_sample", lambda a, r: {"shots": a["shots"]}),
    Traced("pdsq.backend", "sample_batch", lambda a, r: {"shots": a["shots"]}),
    Traced(
        "pdsq.mitigation", "mitigate",
        lambda a, r: {"support": len(r), "pairs": len(r) ** 2},
    ),
    Traced("pdsq.grouping", "expectations_from_counts"),
    Traced("pdsq.grouping", "expectations_from_weights"),
    Traced("pdsq.grouping", "expectations_from_group_counts"),
    Traced("pdsq.grouping", "expectations_from_group_weights"),
    Traced("pdsq.pipeline", "moments_from_estimates"),
    Traced("pdsq.pds", "build_system", lambda a, r: {"K": a["K"], "rank": r.rank}),
    Traced(
        "pdsq.pds", "polynomial_roots",
        lambda a, r: {"discarded_imaginary": r.discarded_imaginary},
    ),
    Traced("pdsq.pds", "pds_from_values"),
    Traced("pdsq.exact", "exact_spectrum"),
)

# Per-layer groups of spans.  A layer's self time sums its spans' self
# times; its calls count spans not nested inside another span of the layer.
LAYERS = {
    "backend.apply_pauli_sum": ("backend.apply_pauli_sum",),
    "moments.exact_moments": ("moments.moments_for_state", "backend.exact_expectation"),
    "moments.string_count": ("moments.unique_string_count",),
    "pauli.multiply_sums": ("pauli.multiply_sums",),
    "pipeline.ledger": ("pipeline.unique_measured_strings",),
    "grouping.group_qwc": ("grouping.group_qwc",),
    "mitigation.mitigate": ("mitigation.mitigate",),
    "backend.sample": ("backend.sample_batch", "backend.serial_sample"),
    "grouping.expectations": (
        "grouping.expectations_from_counts",
        "grouping.expectations_from_weights",
        "grouping.expectations_from_group_counts",
        "grouping.expectations_from_group_weights",
    ),
    "pipeline.moment_assembly": ("pipeline.moments_from_estimates",),
    "pds.solve": ("pds.build_system", "pds.polynomial_roots", "pds.pds_from_values"),
    "chem.integrals": ("chem.compute_integrals",),
    "chem.rhf": ("chem.hartree_fock",),
    "jw.jordan_wigner": ("jw.jordan_wigner",),
    "taper.taper": (
        "taper.tapering_for_determinant", "taper.taper_operator", "taper.taper_state",
    ),
    "exact.spectrum": ("exact.exact_spectrum",),
    # orchestration code in pipeline.py that no other span covers
    "pipeline.setup_self": ("pipeline.build_problem",),
    "pipeline.self": ("pipeline.run_pipeline", "pipeline.sector_energies"),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, spec: Traced, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        name = spec.span_name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._op, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if spec.info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = spec.info(bound.arguments, result)
            return result

        wrapper.traced_original = fn
        return wrapper

    @contextmanager
    def installed(self, op: int):
        """Trace op number `op` while the block runs; restore on exit."""
        self._op = op
        rebound: list[tuple[object, str, Callable]] = []
        try:
            for spec in TRACED:
                original = getattr(importlib.import_module(spec.module), spec.function)
                if hasattr(original, "traced_original"):
                    raise RuntimeError(f"{spec.span_name} is already traced")
                wrapper = self._wrap(spec, original)
                for module in _sites(spec, original):
                    rebound.append((module, spec.function, original))
                    setattr(module, spec.function, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(rebound):
                setattr(module, attr, original)
            self._op = -1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                row = asdict(span)
                row["info"] = {k: v for k, v in span.info.items() if k != "key"}
                fh.write(json.dumps(row) + "\n")


def _sites(spec: Traced, original: Callable) -> list:
    """Modules whose attribute `spec.function` is the original object."""
    names = spec.sites or sorted(
        n for n in sys.modules if n == "pdsq" or n.startswith("pdsq.")
    )
    return [
        sys.modules[n] for n in names
        if n in sys.modules
        and getattr(sys.modules[n], spec.function, None) is original
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The workload is single-threaded, so children never overlap.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], op: int, k_max: int) -> dict[str, float]:
    """Per-layer metrics of op number `op`."""
    own = self_times(spans)
    layer_of = {name: layer for layer, names in LAYERS.items() for name in names}
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    totals: dict[tuple[str, str], float] = defaultdict(float)
    keys: dict[str, set] = defaultdict(set)
    mine = [i for i, s in enumerate(spans) if s.op == op]
    for i in mine:
        s = spans[i]
        layer = layer_of.get(s.name)
        if layer is None:
            continue
        self_s[layer] += own[i]
        if s.parent is None or layer_of.get(spans[s.parent].name) != layer:
            calls[layer] += 1
        for k, v in s.info.items():
            if k == "key":
                keys[layer].add(v)
            elif isinstance(v, (int, float)):
                totals[layer, k] += v

    def useful(layer: str) -> float:
        return len(keys[layer]) / calls[layer] if calls[layer] else 0.0

    m = {f"{layer}_s": self_s[layer] for layer in LAYERS}
    for layer in (
        "backend.apply_pauli_sum", "moments.exact_moments", "pauli.multiply_sums",
        "pipeline.ledger", "grouping.group_qwc", "mitigation.mitigate",
        "backend.sample", "grouping.expectations", "pds.solve",
    ):
        m[f"{layer}_calls"] = calls[layer]
    for layer in ("moments.exact_moments", "pipeline.ledger", "grouping.group_qwc"):
        m[f"{layer}_useful_ratio"] = useful(layer)
    m["backend.amplitude_updates"] = totals["backend.apply_pauli_sum", "amplitude_updates"]
    m["pauli.string_products"] = totals["pauli.multiply_sums", "string_products"]
    m["pauli.terms_out"] = totals["pauli.multiply_sums", "terms_out"]
    m["pipeline.ledger_strings"] = totals["pipeline.ledger", "strings"]
    m["grouping.groups"] = totals["grouping.group_qwc", "groups"]
    m["grouping.batches"] = sum(
        spans[i].info["batches"] for i in mine if spans[i].name == "grouping.pack_batches"
    )
    m["mitigation.support_outcomes"] = totals["mitigation.mitigate", "support"]
    m["mitigation.pair_evaluations"] = totals["mitigation.mitigate", "pairs"]
    m["backend.shots_drawn"] = totals["backend.sample", "shots"]
    m["chem.rhf_iterations"] = totals["chem.rhf", "iterations"]
    m["jw.terms"] = totals["jw.jordan_wigner", "terms"]
    # Solver diagnostics of the solves behind the reported energies
    ranks = {"singlet": 0, "triplet": 0}
    m["pds.max_discarded_imag"] = 0.0
    for s in (spans[i] for i in mine):
        sector = _sector_of(spans, s)
        if sector is None:
            continue
        if s.name == "pds.build_system" and s.info.get("K") == k_max:
            ranks[sector] = s.info["rank"]
        elif s.name == "pds.polynomial_roots" and s.info:
            m["pds.max_discarded_imag"] = max(
                m["pds.max_discarded_imag"], s.info["discarded_imaginary"]
            )
    for sector, rank in ranks.items():
        m[f"pds.retained_rank_{sector}"] = rank
    return m


def _sector_of(spans: list[Span], span: Span) -> str | None:
    """Sector of the enclosing pipeline.sector_energies span, if any."""
    parent = span.parent
    while parent is not None and spans[parent].name != "pipeline.sector_energies":
        parent = spans[parent].parent
    return None if parent is None else spans[parent].info.get("sector")
