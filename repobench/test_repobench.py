"""Tests of the benchmark itself: its gates trip, its span wrappers fire only
where their layer is reached, and its self-time arithmetic is right.

Run from the repository root: ``python3 -m pytest repobench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.apply_program_env()

import gates  # noqa: E402
import pass_workloads  # noqa: E402
import run  # noqa: E402
import serve_mix  # noqa: E402
import spans  # noqa: E402


# ---------------------------------------------------------------------------
# Correctness gates
def test_exhibit_gate_trips_on_one_byte(tmp_path):
    shutil.copy(common.GOLDEN_DIR / "table1.json", tmp_path / "table1.json")
    assert gates.exhibit_files(tmp_path, common.GOLDEN_DIR, ["table1"]) == []
    data = bytearray((tmp_path / "table1.json").read_bytes())
    data[len(data) // 2] ^= 0x01
    (tmp_path / "table1.json").write_bytes(bytes(data))
    assert gates.exhibit_files(tmp_path, common.GOLDEN_DIR, ["table1"])
    assert gates.exhibit_files(tmp_path, common.GOLDEN_DIR, ["fig7"])


def test_pass_to_pass_gate_trips_on_one_byte(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for d in (first, second):
        d.mkdir()
        (d / "fig7.txt").write_text("cycles 116989\n")
    assert gates.same_outputs(second, first) == []
    (second / "fig7.txt").write_text("cycles 116988\n")
    assert gates.same_outputs(second, first)


def test_failed_counts_a_bad_exhibit_once(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for d in (first, second):
        d.mkdir()
        for suffix in ("json", "txt", "csv"):
            shutil.copy(common.GOLDEN_DIR / f"fig7.{suffix}", d)
    for suffix in ("json", "txt", "csv"):
        path = second / f"fig7.{suffix}"
        path.write_bytes(path.read_bytes() + b" ")
    problems = (gates.exhibit_files(second, common.GOLDEN_DIR, ["fig7"])
                + gates.same_outputs(second, first))
    assert len(problems) == 4
    assert {pass_workloads._exhibit(p) for p in problems} == {"fig7"}


def _runs(simd_cycles=116_989.0, ok=True):
    return [{"spec": "SERIAL/p1", "cycles": 362_528.0, "instructions": 7,
             "ok": True},
            {"spec": "SIMD/p4", "cycles": simd_cycles, "instructions": 9,
             "ok": ok}]


def test_micro_gate_trips_on_one_cycle():
    assert gates.micro_runs([_runs(), _runs()], golden=True) == []
    assert gates.micro_runs([_runs(), _runs(116_990.0)], golden=False)
    assert gates.micro_runs([_runs(116_990.0)] * 2, golden=True)
    assert gates.micro_runs([_runs(116_990.0)] * 2, golden=False) == []
    assert gates.micro_runs([_runs(ok=False)], golden=False)


def test_served_payload_gate_trips_on_one_cycle():
    from repro.exec import execute_job, matmul_spec

    spec = matmul_spec("simd", 16, 4, engine="macro", seed=5)
    payload = json.loads(json.dumps(execute_job(spec)))
    key = "k"
    assert gates.served_payloads({key: [payload, payload]},
                                 {key: payload}) == []
    wrong = json.loads(json.dumps(payload))
    wrong["cycles"] += 1
    assert gates.served_payloads({key: [payload, wrong]}, {key: payload})


# ---------------------------------------------------------------------------
# Self time
def _span(start, end, parent):
    return {"name": "x", "tag": None, "start": start, "end": end,
            "parent": parent, "trace": "t"}


def test_self_time_subtracts_the_union_of_overlapping_children():
    tree = [_span(0, 10, None),   # children cover [1,6] and [8,10]
            _span(1, 4, 0), _span(3, 6, 0), _span(8, 12, 0),
            _span(2, 3, 1)]
    assert spans.self_times(tree) == [3, 2, 3, 4, 1]


def test_nested_self_times_sum_to_the_root():
    tree = [_span(0.0, 9.5, None), _span(0.5, 4.0, 0), _span(1.0, 2.0, 1),
            _span(5.0, 9.0, 0)]
    assert spans.self_sum_error(tree) < 1e-12


# ---------------------------------------------------------------------------
# Span wrappers
def test_wrappers_bind_everywhere_and_fire_only_where_reached():
    recorder = spans.install(("repro.experiments.runner",
                              "repro.tools.runner"))
    try:
        assert spans.unpatched_bindings() == []
        from repro.exec import execute_job, matmul_spec
        from repro.faults.campaign import single_fault_sweep
        from repro.machine import ExecutionMode, PASMMachine, PrototypeConfig
        from repro.programs import build_matmul, generate_matrices
        from repro.programs.loader import run_matmul

        config = PrototypeConfig.calibrated()
        a, b = generate_matrices(4)
        bundle = build_matmul(ExecutionMode.SIMD, 4, 4,
                              device_symbols=config.device_symbols())
        run_matmul(PASMMachine(config, partition_size=4), bundle, a, b)
        micro = spans.layer_metrics(recorder.take())
        for name in ("machine.runs", "machine.simd_s", "machine.instructions",
                     "programs.build_s", "m68k.assemble_calls",
                     "sim.events_processed", "fetch_unit.lockstep_releases"):
            assert micro[name] > 0, name
        for name in ("timing_model.predict_calls", "exec.jobs",
                     "faults.single_sweep_s", "machine.mimd_s",
                     "experiments.self_s"):
            assert micro[name] == 0, name

        execute_job(matmul_spec("simd", 16, 4, engine="macro"))
        macro = spans.layer_metrics(recorder.take())
        assert macro["exec.jobs"] == 1
        assert macro["exec.matmul_macro_s"] > 0
        assert macro["timing_model.predict_calls"] == 1
        assert macro["m68k.assemble_calls"] > 0
        assert macro["machine.runs"] == 0

        single_fault_sweep(4)
        faults = spans.layer_metrics(recorder.take())
        assert faults["faults.single_sweep_s"] > 0
        assert faults["exec.jobs"] == 0
    finally:
        recorder.uninstall()
    from repro.m68k import assembler
    from repro.programs import loader
    assert not hasattr(assembler.assemble, "__wrapped_by_repobench__")
    assert not hasattr(loader.run_matmul, "__wrapped_by_repobench__")


# ---------------------------------------------------------------------------
# Inputs and BENCHMARK.json
def test_serve_schedule_is_a_function_of_the_seed():
    a, b = serve_mix.make_schedule(3, 25), serve_mix.make_schedule(3, 25)
    assert a == b and a != serve_mix.make_schedule(4, 25)
    assert len(a) == 1000
    classes = [c for _, c, _ in a]
    assert classes.count("micro") == round(serve_mix.MICRO_SHARE * 1000)
    assert classes.count("repeat") == round(serve_mix.REPEAT_SHARE * 1000)
    seeds = [s["seed"] for _, c, s in a if c != "repeat"]
    assert len(seeds) == len(set(seeds))  # every cold/micro spec is new
    due_of = {json.dumps(s, sort_keys=True): t for t, c, s in a if c == "cold"}
    for t, c, s in a:
        if c == "repeat":
            key = json.dumps(s, sort_keys=True)
            assert key not in due_of or t - due_of[key] >= \
                serve_mix.REPEAT_AGE_S


def test_benchmark_json_names_what_run_emits():
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.BENCH_DIR, tmp_path / "repobench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "micro-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
