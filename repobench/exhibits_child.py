"""One exhibits-cold pass: ``pasm-experiments --no-cache --jobs 1`` in this
fresh interpreter, reporting when its first job was dispatched.

Usage: ``exhibits_child.py RESULT_JSON SEED OUT_DIR TRACE STOP_AT_DISPATCH``.
The pass runs the CLI's own ``main``; the only addition is a timestamp at
the first ``ExecutionEngine.run`` call (and, when TRACE is 1, the span
wrappers of :mod:`spans`).  Timestamps are ``time.monotonic`` so that the
parent, which knows when it spawned us, can subtract.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def main() -> None:
    result_path, seed, out_dir, trace, stop = sys.argv[1:6]
    trace, stop = trace == "1", stop == "1"
    from repro.exec.engine import ExecutionEngine
    from repro.experiments import runner

    marks: dict[str, float] = {}
    original_run = ExecutionEngine.run

    def write_result(extra: dict) -> None:
        with open(result_path, "w") as fh:
            json.dump({"marks": marks, **extra}, fh)

    def first_dispatch(self, specs):
        if "dispatch" not in marks:
            marks["dispatch"] = time.monotonic()
            if stop:
                write_result({})
                os._exit(0)
        return original_run(self, specs)

    recorder = None
    if trace:
        import spans
        recorder = spans.install(("repro.experiments.runner",))
        original_run = ExecutionEngine.run  # the span wrapper
    ExecutionEngine.run = first_dispatch
    argv = ["--no-cache", "--jobs", "1", "--seed", seed, "--out", out_dir]
    if recorder is not None:
        recorder.new_trace()
        root = recorder.begin("pass")
    status = runner.main(argv)
    if recorder is not None:
        recorder.end(root)
    marks["end"] = time.monotonic()
    extra = {"status": status}
    if recorder is not None:
        recorded = recorder.take()
        extra["layers"] = spans.layer_metrics(recorded)
        extra["self_sum_error"] = spans.self_sum_error(recorded)
        extra["spans"] = len(recorded)
        spans.write_spans(Path(out_dir) / "spans.json", recorded)
    write_result(extra)


if __name__ == "__main__":
    main()
