"""Destination-tag routing with fault avoidance.

A path is the sequence of lines occupied between stages.  Routing through
the Generalized Cube part is forced: after the stage controlling bit ``i``,
the current line's bit ``i`` must equal the destination's.  The only
freedom is the extra stage (when enabled): passing it *straight* or in
*exchange* yields two paths whose intermediate links differ in bit 0 —
that choice is what provides fault tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import NetworkFaultError
from repro.network.topology import ExtraStageCubeTopology, Fault, FaultKind


@dataclass(frozen=True)
class Path:
    """One source→destination circuit through the network.

    ``lines[j]`` is the line occupied *after* traversal stage ``j - 1``
    (``lines[0]`` is the source terminal, ``lines[-1]`` the destination).
    """

    source: int
    dest: int
    lines: tuple[int, ...]
    extra_exchanged: bool

    def output_links(self):
        """Iterate ``(stage, output_line)`` resource claims of the path."""
        for stage, line in enumerate(self.lines[1:]):
            yield (stage, line)

    def boxes(self, topo: ExtraStageCubeTopology):
        """Iterate canonical box ids the path passes through."""
        for stage in range(topo.n_stages):
            yield topo.box_of(stage, self.lines[stage])


#: Entries in the candidate-path table: both candidates of every
#: (source, dest) pair fit for N <= 64 (2·64² = 8192).
CANDIDATE_TABLE_SIZE = 8192


@lru_cache(maxsize=CANDIDATE_TABLE_SIZE)
def candidate_path(
    n_terminals: int, source: int, dest: int, exchange: bool,
) -> tuple[tuple[int, ...], frozenset[Fault]]:
    """One candidate path and the failed elements that would block it.

    Returns ``(lines, blockers)``: the lines the path occupies (see
    :attr:`Path.lines`) and every :class:`Fault` whose presence makes
    the path unusable.  The topology is fully determined by
    ``n_terminals``, so the answer is cached per ``(n_terminals, source,
    dest, exchange)``; ``maxsize`` covers both candidates of every pair
    at N <= 64.

    Box faults in the bypassable stages (the extra stage and the final
    cube_0 stage — see
    :meth:`~repro.network.topology.ExtraStageCubeTopology.is_bypassable`)
    block only *exchanged* traversals: a straight traversal rides the
    bypass multiplexer around the box.  That per-box bypass is what makes
    the ESC single-fault tolerant even for output-stage box failures —
    one of the two extra-stage settings always reaches the final stage
    with bit 0 already correct, needing no exchange there.  Box faults in
    the middle stages block every traversal, and link faults always block
    (they are physical wires).
    """
    topo = ExtraStageCubeTopology(n_terminals)
    lines = [source]
    blockers = []
    for stage in range(topo.n_stages):
        in_line = lines[-1]
        mask = 1 << topo.stage_bit(stage)
        if stage == 0:
            out_line = in_line ^ mask if exchange else in_line
        else:
            out_line = (in_line & ~mask) | (dest & mask)
        lines.append(out_line)
        if in_line != out_line or not topo.is_bypassable(stage):
            blockers.append(Fault(FaultKind.BOX, *topo.box_of(stage, in_line)))
        blockers.append(Fault(FaultKind.LINK, stage, out_line))
    return tuple(lines), frozenset(blockers)


def route(
    topo: ExtraStageCubeTopology,
    source: int,
    dest: int,
    *,
    faults: frozenset[Fault] | set[Fault] = frozenset(),
    extra_stage_enabled: bool = False,
    prefer_exchange: bool = False,
) -> Path:
    """Compute a fault-free path from ``source`` to ``dest``.

    With the extra stage bypassed there is exactly one candidate path (the
    Generalized Cube's unique route).  With it enabled, both the straight
    and exchanged variants are tried — ``prefer_exchange`` flips the order,
    which the circuit allocator uses to resolve conflicts.

    Raises :class:`~repro.errors.NetworkFaultError` when every candidate
    touches a faulty element.
    """
    n = topo.n_terminals
    if not (0 <= source < n and 0 <= dest < n):
        raise ValueError(f"terminal out of range: {source}->{dest} (N={n})")
    faults = frozenset(faults)
    options = [False] if not extra_stage_enabled else (
        [True, False] if prefer_exchange else [False, True]
    )
    rejected: list[tuple[int, ...]] = []
    for exchange in options:
        lines, blockers = candidate_path(n, source, dest, exchange)
        if blockers.isdisjoint(faults):
            return Path(source, dest, lines, exchange)
        rejected.append(lines)
    fault_names = ", ".join(
        f"{f.kind.value}@stage{f.stage}/line{f.line}"
        for f in sorted(faults, key=lambda f: (f.kind.value, f.stage, f.line))
    ) or "none"
    candidate_names = "; ".join(
        "->".join(str(line) for line in lines) for lines in rejected
    )
    raise NetworkFaultError(
        f"no fault-free path {source}->{dest} "
        f"(extra stage {'enabled' if extra_stage_enabled else 'bypassed'}): "
        f"active faults [{fault_names}]; "
        f"rejected candidate path(s) [{candidate_names}]",
        faults=tuple(sorted(faults,
                            key=lambda f: (f.kind.value, f.stage, f.line))),
        candidates=tuple(rejected),
    )
