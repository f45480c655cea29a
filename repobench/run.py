"""The repository benchmark: one command per workload.

    python3 repobench/run.py --workload exhibits-cold --seed 0 \
        --seconds 25 --trace 0

Prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from in-memory spans around the program's public entry
points) with ``--trace 1``.  Exits non-zero if any correctness gate fails.
See README.md for the workloads, metrics and their measured spread.
"""

from __future__ import annotations

import argparse
import compileall
import shutil
import sys

import common
import pass_workloads
import serve_mix
import spans

WORKLOADS = ("exhibits-cold", "micro-sweep", "serve-mix")

#: End-to-end metrics, reported by every workload.
END_TO_END = {"setup_s": "s", "p50_ms": "ms", "rss_mb": "MiB"}


def per_layer_units() -> dict[str, str]:
    units = {f"traced.{name}": unit for name, unit in END_TO_END.items()}
    units.update(spans.LAYER_UNITS)
    units["machine.sim_instr_per_s"] = "1/s"
    units.update(serve_mix.LAYER_UNITS)
    return units


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    fn = {"exhibits-cold": pass_workloads.exhibits_cold,
          "micro-sweep": pass_workloads.micro_sweep,
          "serve-mix": serve_mix.serve_mix}[name]
    children = common.Children()
    work = common.fresh_workdir(name)
    try:
        result = fn(children, seed, seconds, trace, work)
        if trace:  # keep the last traced run's spans
            kept = common.WORK_ROOT / f"spans-{name}"
            shutil.rmtree(kept, ignore_errors=True)
            kept.mkdir()
            for path in work.rglob("spans.json"):
                shutil.copy(path, kept / f"{path.parent.name}.json")
        return result
    finally:
        children.reap()
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.check_checkout()
    common.apply_program_env()
    common.install_signal_exit()
    common.become_subreaper()
    compileall.compile_dir(str(common.SRC), quiet=1)

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for line in result["bad"]:
        print(f"GATE FAILED: {line}", file=sys.stderr)
    correct = not result["bad"]
    if args.trace:
        units = per_layer_units()
        values = dict.fromkeys(units, 0.0)
        values.update(result["layers"])
        for name in END_TO_END:
            values[f"traced.{name}"] = result[name]
        metrics = {name: (values[name], unit) for name, unit in units.items()}
    else:
        metrics = {name: (result[name], unit)
                   for name, unit in END_TO_END.items()}
    common.emit(correct, result["attempted"], result["failed"], metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
