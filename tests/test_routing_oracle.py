"""Differential test of the routing layer against a per-stage reference.

:func:`repro.network.routing.route` answers "which failed elements block
this candidate path" from a cached per-N candidate-path table.  The
reference router below walks every stage of every candidate on every
call, building and testing the :class:`Fault` it would trip — the
straightforward reading of the Extra-Stage Cube's bypass rule.  Both
must agree on every outcome: the same :class:`Path`, or the same
:class:`NetworkFaultError` (faults, candidates and message).

Coverage: no faults, every single fault and every double fault of
:func:`iter_single_faults` at N=4 and N=8, and a seeded sample of one- to
three-fault sets at N=16.  The single faults and the N=16 sample also
draw on the final-stage output links (the destination wires), which
:func:`iter_single_faults` leaves out.
"""

import random
from itertools import combinations

import pytest

from repro.errors import NetworkFaultError
from repro.faults import blocked_pairs, iter_single_faults
from repro.network import ExtraStageCubeTopology, Fault, FaultKind, route
from repro.network.routing import Path


def _reference_lines(topo, source, dest, exchange_extra):
    lines = [source]
    current = source
    for stage in range(topo.n_stages):
        bit = topo.stage_bit(stage)
        if stage == 0:
            if exchange_extra:
                current ^= 1 << bit
        else:
            mask = 1 << bit
            current = (current & ~mask) | (dest & mask)
        lines.append(current)
    return lines


def _reference_blocked(topo, path_lines, faults):
    if not faults:
        return False
    for stage in range(topo.n_stages):
        in_line = path_lines[stage]
        out_line = path_lines[stage + 1]
        box_stage, box_line = topo.box_of(stage, in_line)
        box_matters = in_line != out_line if topo.is_bypassable(stage) else True
        if box_matters and Fault(FaultKind.BOX, box_stage, box_line) in faults:
            return True
        if Fault(FaultKind.LINK, stage, out_line) in faults:
            return True
    return False


def reference_route(topo, source, dest, *, faults=frozenset(),
                    extra_stage_enabled=False, prefer_exchange=False):
    """Per-stage walk: rebuild each candidate and test each element."""
    faults = frozenset(faults)
    options = [False] if not extra_stage_enabled else (
        [True, False] if prefer_exchange else [False, True]
    )
    rejected = []
    for exchange in options:
        lines = _reference_lines(topo, source, dest, exchange)
        if not _reference_blocked(topo, lines, faults):
            return Path(source, dest, tuple(lines), exchange)
        rejected.append(tuple(lines))
    ordered = tuple(sorted(faults,
                           key=lambda f: (f.kind.value, f.stage, f.line)))
    fault_names = ", ".join(
        f"{f.kind.value}@stage{f.stage}/line{f.line}" for f in ordered
    ) or "none"
    candidate_names = "; ".join(
        "->".join(str(line) for line in lines) for lines in rejected
    )
    raise NetworkFaultError(
        f"no fault-free path {source}->{dest} "
        f"(extra stage {'enabled' if extra_stage_enabled else 'bypassed'}): "
        f"active faults [{fault_names}]; "
        f"rejected candidate path(s) [{candidate_names}]",
        faults=ordered,
        candidates=tuple(rejected),
    )


def _outcome(router, topo, source, dest, **kwargs):
    try:
        return router(topo, source, dest, **kwargs)
    except NetworkFaultError as exc:
        return ("raised", exc.faults, exc.candidates, str(exc))


def fault_universe(topo):
    """Every single fault plus the final-stage output links."""
    last = topo.n_stages - 1
    return list(iter_single_faults(topo)) + [
        Fault(FaultKind.LINK, last, line) for line in range(topo.n_terminals)
    ]


def assert_agrees(topo, faults):
    """route() and blocked_pairs() match the reference for every pair.

    With the extra stage bypassed there is one candidate, so the
    reference's answer (``prefer_exchange`` unused) is checked against
    route() under both ``prefer_exchange`` values.
    """
    faults = frozenset(faults)
    n = topo.n_terminals
    for extra in (False, True):
        raised = set()
        for source in range(n):
            for dest in range(n):
                want = None
                for prefer in (False, True):
                    kwargs = dict(faults=faults, extra_stage_enabled=extra,
                                  prefer_exchange=prefer)
                    if extra or want is None:
                        want = _outcome(reference_route, topo, source, dest,
                                        **kwargs)
                    got = _outcome(route, topo, source, dest, **kwargs)
                    assert got == want, (n, sorted(faults, key=str), source,
                                         dest, extra, prefer)
                    if isinstance(want, tuple):
                        raised.add((source, dest))
        assert blocked_pairs(topo, faults, extra_stage_enabled=extra) == \
            sorted(raised), (n, sorted(faults, key=str), extra)


@pytest.mark.parametrize("n", (4, 8))
def test_route_matches_reference_without_faults(n):
    assert_agrees(ExtraStageCubeTopology(n), ())


@pytest.mark.parametrize("n", (4, 8))
def test_route_matches_reference_under_every_single_fault(n):
    topo = ExtraStageCubeTopology(n)
    for fault in fault_universe(topo):
        assert_agrees(topo, {fault})


@pytest.mark.parametrize("n", (4, 8))
def test_route_matches_reference_under_every_double_fault(n):
    topo = ExtraStageCubeTopology(n)
    for pair in combinations(iter_single_faults(topo), 2):
        assert_agrees(topo, pair)


def test_route_matches_reference_on_seeded_sample_at_16():
    topo = ExtraStageCubeTopology(16)
    universe = fault_universe(topo)
    rng = random.Random(16)
    assert_agrees(topo, ())
    for _ in range(40):
        assert_agrees(topo, rng.sample(universe, rng.randint(1, 3)))

