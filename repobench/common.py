"""Shared plumbing: checkout layout, run hygiene, child processes, statistics.

Every program process the benchmark starts goes through :meth:`Children.spawn`,
which puts it in its own process group, kills it if the benchmark itself dies,
and registers it so that :meth:`Children.reap` can kill and
wait for the whole tree (spawn-pool workers included) on any exit path.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "results"
WORK_ROOT = BENCH_DIR / ".work"

#: ``repro.utils.rng.DEFAULT_SEED``: the data seed the committed goldens
#: (``results/*.json``, the golden cycles of ``benchmarks/perf_smoke.py``)
#: were produced with.  ``--seed n`` maps to data seed ``GOLDEN_SEED + n``,
#: so ``--seed 0`` is the golden seed.
GOLDEN_SEED = 19880815

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def data_seed(seed: int) -> int:
    return GOLDEN_SEED + seed


def check_checkout() -> None:
    """Refuse to run outside a checkout that holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file() \
            or not GOLDEN_DIR.is_dir():
        raise SystemExit(
            f"repobench: no program sources under {SRC} (or no goldens under "
            f"{GOLDEN_DIR}); run from the root of a full checkout")


def program_env() -> dict[str, str]:
    """The environment every program process runs in.

    ``REPRO_*`` overrides are stripped so the program's defaults are what
    is measured, the hash seed is pinned, and the sources come from the
    checkout rather than from any installed copy.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{BENCH_DIR}"
    env.pop("PYTHONOPTIMIZE", None)  # the program's asserts stay in
    return env


def apply_program_env() -> None:
    """Give this process the same view of the program as its children."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def fresh_workdir(workload: str) -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path


def become_subreaper() -> None:
    """Orphaned grandchildren (pool workers) re-parent to us, so we can
    wait for them in :meth:`Children.reap`."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1)
    except (OSError, AttributeError):
        pass


def _die_with_parent(cpus: set[int] | None):
    def setup() -> None:
        try:
            ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        except (OSError, AttributeError):
            pass
        if cpus:
            os.sched_setaffinity(0, cpus)
    return setup


class Children:
    """Every process group the benchmark started, for guaranteed reaping."""

    def __init__(self) -> None:
        self.groups: list[int] = []

    def spawn(self, argv: list[str], *, cpus: set[int] | None = None,
              **kwargs) -> subprocess.Popen:
        kwargs.setdefault("env", program_env())
        kwargs.setdefault("cwd", ROOT)
        proc = subprocess.Popen(argv, start_new_session=True,
                                preexec_fn=_die_with_parent(cpus), **kwargs)
        self.groups.append(proc.pid)
        return proc

    def reap(self, timeout: float = 10.0) -> None:
        """SIGKILL every group we started, then wait for every descendant."""
        for pgid in self.groups:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                time.sleep(0.02)
        self.groups.clear()


def install_signal_exit() -> None:
    """Turn SIGTERM/SIGINT/SIGHUP into SystemExit so ``finally`` reaps."""
    def handler(signum, _frame):
        raise SystemExit(128 + signum)
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, handler)


def wait_child(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc``; return ``(returncode, peak RSS in MiB)``."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            raise TimeoutError(f"{proc.args!r} did not finish in {timeout}s")
        time.sleep(0.01)


def tree_pids(pid: int) -> list[int]:
    """``pid`` and all its live descendants (via /proc)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        cur = todo.pop()
        out.append(cur)
        todo.extend(parents.get(cur, ()))
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident set (VmHWM) over ``pid``'s process tree."""
    total_kb = 0
    for p in tree_pids(pid):
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def tree_cpu_s(pid: int) -> float:
    """User+system CPU seconds consumed so far by ``pid``'s process tree."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for p in tree_pids(pid):
        try:
            with open(f"/proc/{p}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / tick


def cpu_split() -> tuple[set[int] | None, set[int] | None]:
    """(program CPUs, load-generator CPUs): disjoint when we have >= 2."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[-1]}


# ---------------------------------------------------------------------------
# Statistics
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def supported_percentile(values, q: float, *, beyond: int = 10) -> float:
    """``q``-th percentile, or an error if fewer than ``beyond`` samples lie
    above it (a percentile the sample cannot support is not reported)."""
    n = len(values)
    if n * (1 - q / 100.0) < beyond:
        raise ValueError(f"p{q:g} needs {math.ceil(beyond / (1 - q / 100))} "
                         f"samples, have {n}")
    return percentile(values, q)


def emit(correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]]) -> None:
    doc = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc), flush=True)
