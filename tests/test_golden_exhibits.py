"""Golden-exhibit regression suite.

Regenerates every committed exhibit — Table 1, Figures 6–12 and the five
extensions, including the design-scale projection (n=2048, p up to 1024)
— and asserts row-for-row equality against the JSON files under
``results/``.  Any change to the simulator, the timing model, or the data
generator that moves a single published number fails here first.

The exhibits are regenerated through a pooled, cached execution engine,
so this suite also locks in the engine-equivalence contract: pooled
output must be bit-identical to the serial path that produced the
committed files.
"""

import json
from pathlib import Path

import pytest

from repro.core import DecouplingStudy
from repro.exec import ExecutionEngine, ResultCache
from repro.experiments.runner import EXPERIMENTS

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: The committed exhibits this suite guards: all of them (a cold
#: regeneration of the full set takes a few seconds).
GOLDEN = tuple(EXPERIMENTS)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("golden-cache"),
                        version="golden")
    return DecouplingStudy(exec_engine=ExecutionEngine(jobs=2, cache=cache))


@pytest.fixture(scope="module")
def committed():
    return {
        name: json.loads((RESULTS_DIR / f"{name}.json").read_text())
        for name in GOLDEN
    }


@pytest.mark.parametrize("name", GOLDEN)
def test_exhibit_matches_committed_rows(name, study, committed):
    fresh = json.loads(EXPERIMENTS[name](study).to_json())
    golden = committed[name]
    assert fresh["headers"] == golden["headers"], f"{name}: headers drifted"
    assert len(fresh["rows"]) == len(golden["rows"]), (
        f"{name}: {len(fresh['rows'])} rows regenerated, "
        f"{len(golden['rows'])} committed"
    )
    for i, (got, want) in enumerate(zip(fresh["rows"], golden["rows"])):
        assert got == want, (
            f"{name} row {i} drifted:\n  regenerated: {got}\n"
            f"  committed:   {want}"
        )
    # Row equality is the headline; the full document (title, notes,
    # series) must match too so no metadata drifts silently.
    assert fresh == golden, f"{name}: non-row fields drifted"


def test_committed_files_exist():
    missing = [n for n in GOLDEN if not (RESULTS_DIR / f"{n}.json").exists()]
    assert not missing, f"golden files missing from results/: {missing}"


def test_ext_faults_identical_across_job_counts(committed):
    """The fault campaign schedules sweeps and degraded runs through the
    pool; its rows must be bit-identical at any ``--jobs`` setting (and
    equal to the committed serial-run golden)."""
    rows = {}
    for jobs in (1, 4):
        study = DecouplingStudy(exec_engine=ExecutionEngine(jobs=jobs))
        result = json.loads(EXPERIMENTS["ext-faults"](study).to_json())
        rows[jobs] = result["rows"]
    assert rows[1] == rows[4]
    assert rows[1] == committed["ext-faults"]["rows"]
