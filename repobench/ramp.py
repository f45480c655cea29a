"""Saturation ramp for serve-mix: its request mix at rising rates against
one ``pasm-serve --jobs 1``, one window per rate.

    python3 repobench/ramp.py --seconds 10 --rates 40,60,80,100,120,140

The set-up is serve-mix's: a fresh store, the server tree on one CPU and
the generator on another, 2 keep-alive connections, requests timed from
their due time.  Each window uses its own seed, so its first-time specs are
new to the server.  One line per rate: throughput, latency p50/p90, failed
requests, server-tree CPU per request, and that CPU's utilisation (CPU
seconds over window seconds).  The single worker saturates where the
utilisation nears 1 and p50 leaves its low-rate level.  Not part of a
benchmark run: it measures the rate serve-mix is set below.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import shutil
import time

import common
import serve_mix
from common import median, percentile, tree_cpu_s


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rates", default="40,60,80,100,120,140")
    args = parser.parse_args()
    common.check_checkout()
    common.apply_program_env()
    common.install_signal_exit()
    common.become_subreaper()
    connections = min(serve_mix.CONNECTIONS, len(os.sched_getaffinity(0)))
    server_cpus, gen_cpus = common.cpu_split()
    if gen_cpus:
        os.sched_setaffinity(0, gen_cpus)
    children = common.Children()
    work = common.fresh_workdir("ramp")
    try:
        server = serve_mix.Server(children, work, "ramp", server_cpus)
        print("rate/s  sent  done/s  p50_ms  p90_ms  failed  cpu_ms/req  util")
        for seed, rate in enumerate(float(r) for r in args.rates.split(",")):
            asyncio.run(server.ready(serve_mix.warmup_specs(seed)))
            schedule = serve_mix.make_schedule(seed, args.seconds, rate)
            cpu0, t0 = tree_cpu_s(server.proc.pid), time.monotonic()
            records = asyncio.run(serve_mix.open_loop(
                server.port, schedule, connections, None))
            wall = time.monotonic() - t0
            cpu = tree_cpu_s(server.proc.pid) - cpu0
            latency = [r["latency"] * 1e3 for r in records]
            ok = sum(r["ok"] for r in records)
            print(f"{rate:6.0f} {len(records):5d} {ok / wall:7.1f} "
                  f"{median(latency):7.1f} {percentile(latency, 90):7.1f} "
                  f"{len(records) - ok:7d} {cpu * 1e3 / len(records):11.2f} "
                  f"{cpu / wall:5.2f}", flush=True)
        server.stop()
    finally:
        children.reap()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
