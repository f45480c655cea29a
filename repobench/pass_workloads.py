"""The two pass-based workloads: exhibits-cold and micro-sweep.

Both run the program in fresh child interpreters and time whole passes; a
run reports the median over its passes (and over its set-ups), never a
single sample.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import gates
import spans
from common import (BENCH_DIR, GOLDEN_DIR, Children, data_seed, median,
                    wait_child)

CHILD_TIMEOUT_S = 170.0


def _layer_result(per_pass: list[dict], errors: list[float]) -> \
        tuple[dict, list[str]]:
    layers, drift = spans.fold_passes(per_pass)
    bad = [f"exact count {k} differs between passes" for k in drift]
    if max(errors) > 1e-6:
        bad.append(f"self times do not sum to the root span "
                   f"(off by {max(errors):.3g}s)")
    return layers, bad


def _exhibit(problem: str) -> str:
    """The exhibit a gate problem (``"fig7.txt: ..."``) is about."""
    return problem.split(":", 1)[0].split(".", 1)[0]


# ---------------------------------------------------------------------------
def exhibits_cold(children: Children, seed: int, seconds: float,
                  trace: bool, work) -> dict:
    """Regenerate every exhibit, serially and uncached, one fresh
    ``pasm-experiments`` process per pass, while one more pass fits in
    ``seconds`` (at least two passes).  Set-up is sampled once more by a
    process that exits at its first job dispatch."""
    all_names = [p.stem for p in sorted(GOLDEN_DIR.glob("*.json"))]
    golden_names = all_names if seed == 0 else list(gates.SEED_INVARIANT)
    exhibits = len(all_names)

    def one(tag: str, stop: bool) -> tuple[dict, float, float, int]:
        out = work / tag
        result = work / f"{tag}.json"
        t_spawn = time.monotonic()
        proc = children.spawn(
            [sys.executable, str(BENCH_DIR / "exhibits_child.py"),
             str(result), str(data_seed(seed)), str(out),
             "1" if trace else "0", "1" if stop else "0"],
            stdout=subprocess.DEVNULL)
        rc, rss = wait_child(proc, CHILD_TIMEOUT_S)
        doc = json.loads(result.read_text()) if result.is_file() else {}
        setup = doc.get("marks", {}).get("dispatch", t_spawn) - t_spawn
        return doc, setup, rss, rc

    _, setup0, _, rc0 = one("setup", stop=True)
    setups, walls, rss_all, bad, per_pass, errors = [setup0], [], [], [], \
        [], []
    if rc0 != 0:
        bad.append(f"set-up process exited {rc0}")
    failed = 0
    start = time.monotonic()
    k = 0
    while k < 2 or time.monotonic() - start + (walls[-1] if walls else 0) \
            <= seconds:
        doc, setup, rss, rc = one(f"pass{k}", stop=False)
        out = work / f"pass{k}"
        if rc != 0 or doc.get("status") != 0:
            bad.append(f"pass {k}: exited {rc}")
            failed += exhibits
            k += 1
            continue
        setups.append(setup)
        walls.append(doc["marks"]["end"] - doc["marks"]["dispatch"])
        rss_all.append(rss)
        problems = gates.exhibit_files(out, GOLDEN_DIR, golden_names)
        if k:
            problems += gates.same_outputs(out, work / "pass0")
        failed += min(exhibits, len({_exhibit(p) for p in problems}))
        bad += [f"pass {k}: {p}" for p in problems]
        if trace:
            per_pass.append(doc["layers"])
            errors.append(doc["self_sum_error"])
        k += 1
    result = {
        "bad": bad,
        "attempted": k * exhibits,
        "failed": failed,
        "setup_s": median(setups),
        "p50_ms": median(walls) * 1e3 if walls else float("nan"),
        "rss_mb": median(rss_all) if rss_all else float("nan"),
        "layers": {},
    }
    if trace and per_pass:
        result["layers"], more = _layer_result(per_pass, errors)
        bad += more
    return result


# ---------------------------------------------------------------------------
CHILDREN = 3


def micro_sweep(children: Children, seed: int, seconds: float,
                trace: bool, work) -> dict:
    """Six n=16 micro-engine matmuls per pass, in ``CHILDREN`` fresh
    interpreters that each set up (imports + one untimed warm pass) and
    then time passes in a third of ``seconds``."""
    setups, walls, rss_all, all_passes, per_pass, errors = [], [], [], [], \
        [], []
    bad, failed, attempted, rates = [], 0, 0, []
    for c in range(CHILDREN):
        result = work / f"micro{c}.json"
        t_spawn = time.monotonic()
        proc = children.spawn(
            [sys.executable, str(BENCH_DIR / "micro_child.py"), str(result),
             str(data_seed(seed)), str(seconds / CHILDREN),
             "1" if trace else "0"],
            stdout=subprocess.DEVNULL)
        rc, _ = wait_child(proc, CHILD_TIMEOUT_S)
        if rc != 0 or not result.is_file():
            bad.append(f"micro child {c} exited {rc}")
            continue
        doc = json.loads(result.read_text())
        setups.append(doc["ready"] - t_spawn)
        rss_all.append(doc["rss_mb"])
        all_passes.append(doc["warm"])
        for entry in doc["passes"]:
            walls.append(entry["wall"])
            all_passes.append(entry["runs"])
            attempted += len(entry["runs"])
            failed += sum(not r["ok"] for r in entry["runs"])
            rates.append(sum(r["instructions"] for r in entry["runs"])
                         / entry["wall"])
            if trace:
                per_pass.append(entry["layers"])
                errors.append(entry["self_sum_error"])
    bad += gates.micro_runs(all_passes, golden=seed == 0)
    result = {
        "bad": bad,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "setup_s": median(setups) if setups else float("nan"),
        "p50_ms": median(walls) * 1e3 if walls else float("nan"),
        "rss_mb": median(rss_all) if rss_all else float("nan"),
        "layers": {},
    }
    if trace and per_pass:
        result["layers"], more = _layer_result(per_pass, errors)
        result["layers"]["machine.sim_instr_per_s"] = median(rates)
        bad += more
    return result
