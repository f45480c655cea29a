"""Correctness gates.  Each returns a list of human-readable failures
(empty = pass); the workloads fail the run on any entry."""

from __future__ import annotations

import json
from pathlib import Path

#: Exhibits whose output does not depend on the data seed, so they are held
#: to the committed goldens on every seed (all exhibits are, on seed 0):
#: table1 times fixed instruction blocks, ext-muls is analytic, and ext-scale
#: builds its own study on the default seed.  (ext-superlinear rounds
#: seed-dependent efficiencies, so it matches on some seeds only.)
SEED_INVARIANT = ("table1", "ext-muls", "ext-scale")

#: ``benchmarks/perf_smoke.py``'s golden cycles: 16x16 matmul, calibrated
#: prototype, golden data seed.
GOLDEN_CYCLES = {"SERIAL/p1": 362_528.0, "SIMD/p4": 116_989.0,
                 "MIMD/p4": 290_407.0}


def exhibit_files(out_dir: Path, golden_dir: Path, names) -> list[str]:
    """Byte-compare ``<name>.json`` in ``out_dir`` against ``golden_dir``."""
    bad = []
    for name in names:
        got, want = out_dir / f"{name}.json", golden_dir / f"{name}.json"
        if not got.is_file():
            bad.append(f"{name}: not produced")
        elif got.read_bytes() != want.read_bytes():
            bad.append(f"{name}: differs from {want}")
    return bad


def same_outputs(out_dir: Path, ref_dir: Path) -> list[str]:
    """Every file of a pass must equal the first pass's, byte for byte."""
    ref = {p.name for p in ref_dir.glob("*.*") if p.name != "spans.json"}
    got = {p.name for p in out_dir.glob("*.*") if p.name != "spans.json"}
    bad = [f"{name}: missing or extra" for name in sorted(ref ^ got)]
    bad += [f"{name}: differs from the first pass"
            for name in sorted(ref & got)
            if (out_dir / name).read_bytes() != (ref_dir / name).read_bytes()]
    return bad


def micro_runs(passes: list[list[dict]], *, golden: bool) -> list[str]:
    """Products must verify; per-spec cycles and instructions must repeat
    exactly across passes, and equal the golden cycles on the golden seed."""
    bad, first = [], {}
    for k, runs in enumerate(passes):
        for run in runs:
            spec = run["spec"]
            if not run["ok"]:
                bad.append(f"pass {k} {spec}: wrong product")
            sig = (run["cycles"], run["instructions"])
            if first.setdefault(spec, sig) != sig:
                bad.append(f"pass {k} {spec}: {sig} != first pass "
                           f"{first[spec]}")
    if golden:
        for spec, cycles in GOLDEN_CYCLES.items():
            if spec in first and first[spec][0] != cycles:
                bad.append(f"{spec}: {first[spec][0]} cycles, golden {cycles}")
    return bad


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def served_payloads(served: dict[str, list], inproc: dict[str, object]) -> \
        list[str]:
    """Every payload served for a spec must equal its in-process result."""
    bad = []
    for key, payloads in served.items():
        want = canonical(inproc[key])
        for payload in payloads:
            if canonical(payload) != want:
                bad.append(f"spec {key[:80]}: served payload differs "
                           "from in-process execute_job")
                break
    return bad
