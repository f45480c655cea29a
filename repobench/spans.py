"""In-memory spans around calls into the program's public entry points.

:func:`install` replaces each wrapped function with a timing wrapper —
in the defining module *and* in every loaded ``repro`` module (or
module-level dict, such as the exhibit registry) that bound it by name —
and returns a :class:`Recorder`.  Nothing inside ``src/`` is edited: the
wrappers live only in the process that installed them.

A span is ``(name, tag, start, end, parent, trace)``; spans of one pass or
request share a trace id.  A layer's self time is its span's duration minus
the union of its children's intervals (:func:`self_times`), and
:func:`layer_metrics` folds one trace's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import uuid
from pathlib import Path

from common import median

#: Wrapped functions: (module, attribute, span name).
FUNCTIONS = [
    ("repro.experiments.table1", "run_table1", "experiments.table1"),
    ("repro.experiments.fig6", "run_fig6", "experiments.fig6"),
    ("repro.experiments.fig7", "run_fig7", "experiments.fig7"),
    ("repro.experiments.fig8_10", "run_breakdown_figure",
     "experiments.fig8_10"),
    ("repro.experiments.fig11", "run_fig11", "experiments.fig11"),
    ("repro.experiments.fig12", "run_fig12", "experiments.fig12"),
    ("repro.experiments.extensions", "run_ext_dma", "experiments.ext_dma"),
    ("repro.experiments.extensions", "run_ext_design_scale",
     "experiments.ext_scale"),
    ("repro.experiments.extensions", "run_ext_muls", "experiments.ext_muls"),
    ("repro.experiments.extensions", "run_ext_superlinear",
     "experiments.ext_superlinear"),
    ("repro.experiments.faults_exhibit", "run_ext_faults",
     "experiments.ext_faults"),
    ("repro.exec.jobs", "execute_job", "exec.execute_job"),
    ("repro.timing_model.models", "predict_matmul", "timing_model.predict"),
    ("repro.m68k.assembler", "assemble", "m68k.assemble"),
    ("repro.faults.campaign", "single_fault_sweep", "faults.single_sweep"),
    ("repro.faults.campaign", "double_fault_sweep", "faults.double_sweep"),
    ("repro.programs.loader", "build_matmul", "programs.build_matmul"),
    ("repro.programs.loader", "run_matmul", "programs.run_matmul"),
]
#: Wrapped methods: (module, class, method, span name).
METHODS = [
    ("repro.exec.engine", "ExecutionEngine", "run", "exec.engine_run"),
] + [
    ("repro.machine.pasm", "PASMMachine", meth, "machine.run")
    for meth in ("run_serial", "run_simd", "run_simd_assembly", "run_mimd",
                 "run_smimd", "run_staged_smimd")
]


class Recorder:
    """Spans kept in memory; one stack, since wrapped calls nest serially."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.machines: list = []  #: (span index, machine) for counters
        self._stack: list[int] = []
        self.trace: str | None = None
        self._patches: list[tuple[object, str, object, bool]] = []

    def new_trace(self) -> str:
        self.trace = uuid.uuid4().hex[:16]
        return self.trace

    def begin(self, name: str, tag: str | None = None) -> int:
        idx = len(self.spans)
        self.spans.append({
            "name": name, "tag": tag, "start": time.perf_counter(),
            "end": None, "parent": self._stack[-1] if self._stack else None,
            "trace": self.trace,
        })
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, *,
            tag: str | None = None) -> None:
        """A root span, with its own trace id, recorded after the fact
        (concurrent client requests)."""
        self.spans.append({"name": name, "tag": tag, "start": start,
                           "end": end, "parent": None,
                           "trace": uuid.uuid4().hex[:16]})

    def wrap(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = None
            if name == "exec.execute_job":
                spec = args[0] if args else kwargs["spec"]
                tag = f"{spec.program}/{spec.engine}"
            idx = recorder.begin(name, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(idx)
            if name == "machine.run":
                span = recorder.spans[idx]
                span["tag"] = result.mode.value
                span["instructions"] = int(result.instructions)
                span["cycles"] = float(result.cycles)
                recorder.machines.append((idx, args[0]))
            return result

        wrapper.__wrapped_by_repobench__ = fn
        return wrapper

    # ------------------------------------------------------------------
    def collect_counters(self) -> None:
        """Read ``repro.perf.machine_counters`` off every machine run so far
        (after the pass, so counter reads are outside every span)."""
        from repro.perf import machine_counters

        for idx, machine in self.machines:
            self.spans[idx]["counters"] = machine_counters(machine)
        self.machines.clear()

    def take(self) -> list[dict]:
        self.collect_counters()
        spans, self.spans = self.spans, []
        return spans

    def uninstall(self) -> None:
        for owner, attr, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


def _rebind(recorder: Recorder, original, wrapper) -> None:
    """Point every by-name binding of ``original`` in loaded ``repro``
    modules (attributes and module-level dict values) at ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                recorder._patches.append((module, attr, value, False))
                setattr(module, attr, wrapper)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if item is original:
                        recorder._patches.append((value, key, item, True))
                        value[key] = wrapper


def install(extra_modules: tuple[str, ...] = ()) -> Recorder:
    """Import the wrapped layers and patch every binding of their entry
    points.  ``extra_modules`` are imported first so that their by-name
    imports exist to be patched (e.g. the CLI module of a workload)."""
    for name in extra_modules:
        importlib.import_module(name)
    recorder = Recorder()
    for modname, attr, span_name in FUNCTIONS:
        module = importlib.import_module(modname)
        original = getattr(module, attr)
        _rebind(recorder, original, recorder.wrap(original, span_name))
    for modname, clsname, meth, span_name in METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        original = cls.__dict__[meth]
        recorder._patches.append((cls, meth, original, False))
        setattr(cls, meth, recorder.wrap(original, span_name))
    return recorder


def unpatched_bindings() -> list[str]:
    """Loaded ``repro`` bindings still pointing at an unwrapped target."""
    originals = {}
    for modname, attr, _ in FUNCTIONS:
        fn = getattr(importlib.import_module(modname), attr)
        originals[id(getattr(fn, "__wrapped_by_repobench__", fn))] = \
            f"{modname}.{attr}"
    left = []
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            if id(value) in originals:
                left.append(f"{modname}.{attr} -> {originals[id(value)]}")
    return left


# ---------------------------------------------------------------------------
# Analysis
def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the parent), so overlapping children are not counted twice."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((hi - lo) - covered)
    return out


def self_sum_error(spans: list[dict]) -> float:
    """|sum of self times − root durations| of one trace (0 when nested)."""
    roots = [s for s in spans if s["parent"] is None]
    root_total = sum(s["end"] - s["start"] for s in roots)
    return abs(sum(self_times(spans)) - root_total)


#: Per-layer metric names and units that :func:`layer_metrics` produces.
LAYER_UNITS = {
    "experiments.self_s": "s",
    "exec.jobs": "count",
    "exec.execute_s": "s",
    "exec.matmul_macro_s": "s",
    "exec.matmul_micro_s": "s",
    "exec.faultsweep_s": "s",
    "exec.mips_s": "s",
    "exec.job_p50_ms": "ms",
    "timing_model.predict_calls": "count",
    "timing_model.predict_s": "s",
    "timing_model.predict_p50_ms": "ms",
    "m68k.assemble_calls": "count",
    "m68k.assemble_s": "s",
    "faults.single_sweep_s": "s",
    "faults.double_sweep_s": "s",
    "programs.build_s": "s",
    "programs.load_s": "s",
    "machine.runs": "count",
    "machine.run_s": "s",
    "machine.serial_s": "s",
    "machine.simd_s": "s",
    "machine.mimd_s": "s",
    "machine.smimd_s": "s",
    "machine.instructions": "count",
    "machine.sim_cycles": "count",
    "sim.events_scheduled": "count",
    "sim.events_processed": "count",
    "sim.peak_heap": "count",
    "sim.local_charges": "count",
    "sim.sync_flushes": "count",
    "sim.host_ns_per_event": "ns",
    "fetch_unit.lockstep_releases": "count",
    "fetch_unit.lockstep_carriers": "count",
    "fetch_unit.vectorized_instructions": "count",
    "fetch_unit.scalar_fallbacks": "count",
    "fetch_unit.fallback_ratio": "1",
}

#: Metrics that are exact counts: a deterministic simulator repeats them.
EXACT = ("exec.jobs", "timing_model.predict_calls", "m68k.assemble_calls",
         "machine.runs", "machine.instructions", "machine.sim_cycles",
         "sim.events_scheduled", "sim.events_processed", "sim.peak_heap",
         "sim.local_charges", "sim.sync_flushes",
         "fetch_unit.lockstep_releases", "fetch_unit.lockstep_carriers",
         "fetch_unit.vectorized_instructions", "fetch_unit.scalar_fallbacks")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Fold one pass's spans into the per-layer metrics (0 where unreached)."""
    selfs = self_times(spans)
    out = dict.fromkeys(LAYER_UNITS, 0.0)

    def dur(s):
        return s["end"] - s["start"]

    jobs, predicts = [], []
    counters: dict[str, int] = {}
    for span, self_s in zip(spans, selfs):
        name = span["name"]
        if name.startswith("experiments."):
            out["experiments.self_s"] += self_s
        elif name == "exec.execute_job":
            jobs.append(dur(span))
            bucket = {"matmul/macro": "exec.matmul_macro_s",
                      "matmul/micro": "exec.matmul_micro_s",
                      "faultsweep/micro": "exec.faultsweep_s",
                      "mips/micro": "exec.mips_s"}.get(span["tag"])
            if bucket:
                out[bucket] += dur(span)
        elif name == "timing_model.predict":
            predicts.append(dur(span))
        elif name == "m68k.assemble":
            out["m68k.assemble_calls"] += 1
            out["m68k.assemble_s"] += dur(span)
        elif name == "faults.single_sweep":
            out["faults.single_sweep_s"] += dur(span)
        elif name == "faults.double_sweep":
            out["faults.double_sweep_s"] += dur(span)
        elif name == "programs.build_matmul":
            out["programs.build_s"] += dur(span)
        elif name == "programs.run_matmul":
            out["programs.load_s"] += self_s
        elif name == "machine.run":
            out["machine.runs"] += 1
            out["machine.run_s"] += dur(span)
            out[f"machine.{span['tag']}_s"] += dur(span)
            out["machine.instructions"] += span["instructions"]
            out["machine.sim_cycles"] += span["cycles"]
            for key, value in span.get("counters", {}).items():
                if key == "peak_heap":
                    counters[key] = max(counters.get(key, 0), value)
                elif not isinstance(value, bool):
                    counters[key] = counters.get(key, 0) + value
    out["exec.jobs"] = len(jobs)
    out["exec.execute_s"] = sum(jobs)
    out["exec.job_p50_ms"] = median(jobs) * 1e3 if jobs else 0.0
    out["timing_model.predict_calls"] = len(predicts)
    out["timing_model.predict_s"] = sum(predicts)
    out["timing_model.predict_p50_ms"] = \
        median(predicts) * 1e3 if predicts else 0.0
    for key in ("events_scheduled", "events_processed", "peak_heap",
                "local_charges", "sync_flushes"):
        out[f"sim.{key}"] = counters.get(key, 0)
    for key in ("lockstep_releases", "lockstep_carriers",
                "vectorized_instructions", "scalar_fallbacks"):
        out[f"fetch_unit.{key}"] = counters.get(key, 0)
    if out["sim.events_processed"]:
        out["sim.host_ns_per_event"] = \
            out["machine.run_s"] / out["sim.events_processed"] * 1e9
    attempted = (out["fetch_unit.vectorized_instructions"]
                 + out["fetch_unit.scalar_fallbacks"])
    if attempted:
        out["fetch_unit.fallback_ratio"] = \
            out["fetch_unit.scalar_fallbacks"] / attempted
    return out


def fold_passes(per_pass: list[dict[str, float]]) -> tuple[dict, list[str]]:
    """Median of each metric over passes, plus the exact counts that did
    not repeat from pass to pass (a determinism failure)."""
    folded = {k: median([p[k] for p in per_pass]) for k in LAYER_UNITS}
    drift = [k for k in EXACT if len({p[k] for p in per_pass}) > 1]
    return folded, drift


def write_spans(path: Path, spans: list[dict]) -> None:
    path.write_text(json.dumps(
        [{k: v for k, v in s.items() if k != "counters"} for s in spans]))
