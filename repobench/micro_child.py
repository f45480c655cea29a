"""micro-sweep passes in this fresh interpreter.

Usage: ``micro_child.py RESULT_JSON DATA_SEED SECONDS TRACE``.  One untimed
warm pass (part of set-up), then timed passes while one more fits in
SECONDS (at least one).  A pass is six n=16 matmuls on the micro engine
with the machine's default tiers, each built, loaded, run and checked
through the program's public functions.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

#: (mode, partition size): SERIAL, SIMD at three widths, MIMD, S/MIMD.
SPECS = (("SERIAL", 1), ("SIMD", 4), ("SIMD", 8), ("SIMD", 16),
         ("MIMD", 4), ("SMIMD", 4))
N = 16


def main() -> None:
    result_path, seed, seconds, trace = sys.argv[1:5]
    seconds, trace = float(seconds), trace == "1"
    import numpy as np

    from repro.machine import ExecutionMode, PASMMachine, PrototypeConfig
    from repro.programs import (build_matmul, expected_product,
                                generate_matrices)
    from repro.programs.loader import run_matmul

    recorder = None
    if trace:
        import spans
        recorder = spans.install()
        build_matmul = sys.modules["repro.programs"].build_matmul
        run_matmul = sys.modules["repro.programs.loader"].run_matmul

    config = PrototypeConfig.calibrated()
    a, b = generate_matrices(N, seed=int(seed))
    expected = expected_product(a, b)

    def one_pass() -> list[dict]:
        runs = []
        for name, p in SPECS:
            bundle = build_matmul(ExecutionMode[name], N, p,
                                  device_symbols=config.device_symbols())
            run = run_matmul(PASMMachine(config, partition_size=p),
                             bundle, a, b)
            runs.append({"spec": f"{name}/p{p}",
                         "cycles": float(run.result.cycles),
                         "instructions": int(run.result.instructions),
                         "ok": bool(np.array_equal(run.product, expected))})
        return runs

    warm = one_pass()
    if recorder is not None:
        recorder.take()
    ready = time.monotonic()
    passes, recorded_all = [], []
    # Start a pass only if it should end within the budget.
    while not passes or \
            time.monotonic() - ready + passes[-1]["wall"] <= seconds:
        if recorder is not None:
            recorder.new_trace()
            root = recorder.begin("pass")
        t0 = time.perf_counter()
        runs = one_pass()
        wall = time.perf_counter() - t0
        entry = {"wall": wall, "runs": runs}
        if recorder is not None:
            recorder.end(root)
            recorded = recorder.take()
            entry["layers"] = spans.layer_metrics(recorded)
            entry["self_sum_error"] = spans.self_sum_error(recorded)
            recorded_all += recorded
        passes.append(entry)
        if len(passes) == 1:
            # Peak RSS after the same work in every run: later passes (how
            # many depends on host speed) would otherwise move it.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        out = Path(result_path).with_suffix("")
        out.mkdir()
        spans.write_spans(out / "spans.json", recorded_all)
    with open(result_path, "w") as fh:
        json.dump({"ready": ready, "warm": warm, "passes": passes,
                   "rss_mb": rss_mb}, fh)


if __name__ == "__main__":
    main()
