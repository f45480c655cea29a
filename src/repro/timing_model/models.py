"""Closed-form/vectorized execution-time predictions for all four modes.

Every prediction mirrors the *structure of the generated programs* (see
:mod:`repro.programs`): the same fragments, the same loop counts, the same
multiplier schedule.  The only non-trivial modelling choices, validated
against the micro engine by the cross-engine tests, are:

* **per-step max coupling** for the asynchronous modes: the S/MIMD barrier
  (and MIMD's blocking ring transfers) re-align PEs every rotation step,
  so the data-dependent multiply skew costs ``Σ_j max_i`` rather than the
  uncoupled ``max_i Σ_j`` of the paper's Equation (2) — the difference is
  small because per-step skew is bounded;
* **per-instruction max coupling** for SIMD (the paper's Equation (1)),
  applied within each MC group, with cross-group alignment at the transfer
  phases;
* **bottleneck overlap** for SIMD control flow: each phase takes the
  slower of the PE execution time and the MC issue + Fetch Unit transfer
  time; when PEs dominate (the usual case), MC control flow vanishes from
  the critical path — the paper's superlinearity mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from repro.m68k.addressing import absl, areg, dreg, imm
from repro.m68k.assembler import assemble
from repro.m68k.instructions import Instruction, Size
from repro.m68k.timing import CYCLE_SECONDS, instruction_timing
from repro.machine.config import PrototypeConfig
from repro.machine.modes import ExecutionMode
from repro.machine.partition import Partition
from repro.mc import MCCostModel
from repro.programs.common import (
    inner_body_source,
    layout_symbols,
    reset_tables_source,
    rotate_source,
    setup_v_source,
)
from repro.programs.data import MatmulLayout
from repro.timing_model.fragments import (
    CostEnv,
    FragmentCost,
    instruction_cost,
    loop_overhead,
)
from repro.timing_model.mulstats import (
    async_mult_extra_cycles,
    group_max_ones,
    ones16,
    schedule_ones,
)
from repro.timing_model.pipeline import comm_pipeline


@dataclass
class ModelResult:
    """Macro-engine prediction for one configuration."""

    mode: ExecutionMode
    n: int
    p: int
    added_multiplies: int
    cycles: float
    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.cycles * CYCLE_SECONDS


# ---------------------------------------------------------------------------
# Compiled fragments.  A fragment's source text is assembled once per
# (layout, device symbols) and costed once per (layout, config, env); both
# results are served from bounded caches afterwards.  Fragments that
# reference no layout symbol are keyed with layout None, so every problem
# shape shares them.  Cached costs are immutable, so no prediction can
# corrupt another's.

#: Bound of each cache: a few dozen machine shapes' worth.
_CACHE_SIZE = 512


@lru_cache(maxsize=_CACHE_SIZE)
def _assembled(source: str, layout: MatmulLayout | None,
               device_symbols: tuple[tuple[str, int], ...]
               ) -> tuple[Instruction, ...]:
    symbols = layout_symbols(layout) if layout is not None else {}
    symbols.update(device_symbols)
    return tuple(assemble(source, predefined=symbols).instruction_list())


def _instructions(source: str, layout: MatmulLayout | None,
                  config: PrototypeConfig) -> tuple[Instruction, ...]:
    return _assembled(source, layout,
                      tuple(sorted(config.device_symbols().items())))


@lru_cache(maxsize=_CACHE_SIZE)
def _cost(source: str, layout: MatmulLayout | None,
          config: PrototypeConfig, env: CostEnv) -> FragmentCost:
    """The cost of one fragment (``layout`` None if it uses no layout
    symbol)."""
    return FragmentCost.of(_instructions(source, layout, config), env, config)


@lru_cache(maxsize=_CACHE_SIZE)
def _body_parts(config: PrototypeConfig, env: CostEnv
                ) -> tuple[str, tuple[float, ...], tuple[int, ...]]:
    """(category, cycles, words) per instruction of the k-loop body with
    one added multiply, which sits just before the closing ADD."""
    instrs = _instructions(inner_body_source(1), None, config)
    (category,) = {i.timecat for i in instrs}
    return (category,
            tuple(instruction_cost(i, env, config)[0] for i in instrs),
            tuple(i.encoded_words() for i in instrs))


def _body(config: PrototypeConfig, env: CostEnv, m: int) -> FragmentCost:
    """The k-loop body with ``m`` added multiplies, without assembling it.

    Sums left to right, exactly as :func:`static_cost` walks the assembled
    body: ``m × added`` would differ from the running sum in the last bit,
    and the exhibits store raw cycle floats.
    """
    category, instr_cycles, instr_words = _body_parts(config, env)
    *head, added, tail = instr_cycles
    cycles = 0.0
    for c in head:
        cycles += c
    for _ in range(m):
        cycles += added
    cycles += tail
    words = sum(instr_words) + (m - 1) * instr_words[-2]
    return FragmentCost(cycles, MappingProxyType({category: cycles}), words)


class _Pieces:
    """Compiled fragment costs for one (config, layout, m, env)."""

    def __init__(self, config, layout, m, env):
        self.body = _body(config, env, m)
        self.setup_v = _cost(setup_v_source(), None, config, env)
        self.reset = _cost(reset_tables_source(), layout, config, env)
        self.rotate = _cost(rotate_source(layout), layout, config, env)
        self.clear_unit = _cost(
            "        .timecat other\n        CLR.W (A1)+", None, config, env
        )
        self.lea_c = _cost(
            "        .timecat other\n        LEA CBASE,A1", layout, config, env
        )
        self.halt = _cost("        .timecat control\n        HALT",
                          None, config, env)


# ---------------------------------------------------------------------------
def predict_serial(
    config: PrototypeConfig, n: int, m: int, b: np.ndarray
) -> ModelResult:
    layout = MatmulLayout(n, 1)
    env = CostEnv.for_mode(config, simd_stream=False)
    pieces = _Pieces(config, layout, m, env)
    total = {"mult": 0.0, "comm": 0.0, "control": 0.0, "other": 0.0, "sync": 0.0}

    def add(cost, scale=1.0):
        for cat, cyc in cost.by_category.items():
            total[cat] += cyc * scale

    words = n * n
    add(pieces.lea_c)
    add(loop_overhead(words, env, config, "other"))
    add(pieces.clear_unit, words)

    # preamble: LEA BBASE,A2 / LEA CBASE,A5
    add(_cost("        .timecat control\n        LEA BBASE,A2\n"
              "        LEA CBASE,A5", layout, config, env))
    add(loop_overhead(n, env, config))  # c loop
    # per c: LEA ABASE,A0 (control) + r-loop overhead + ADDA
    add(_cost("        .timecat control\n        LEA ABASE,A0",
              layout, config, env), n)
    adda = Instruction("ADDA", Size.WORD, (imm(layout.col_bytes), areg(5)),
                       timecat="control")
    adda_c, _ = instruction_cost(adda, env, config)
    total["control"] += n * adda_c
    add(loop_overhead(n, env, config), n)  # r loops
    # per (c, r): multiplier load + C column reset (mult category)
    add(_cost("        .timecat mult\n        MOVE.W (A2)+,D1\n"
              "        MOVEA.L A5,A1", layout, config, env), n * n)
    add(loop_overhead(n, env, config), n * n)  # k loops
    add(pieces.body, n * n * n)  # fixed body (MULU at base 38)
    # data-dependent multiply time: every B element drives n·(1+m) muls
    total["mult"] += float(
        n * (1 + m) * 2.0 * ones16(b).sum(dtype=np.int64)
    )
    add(pieces.halt)

    cycles = sum(total.values())
    return ModelResult(ExecutionMode.SERIAL, n, 1, m, cycles,
                       {k: v for k, v in total.items() if v})


# ---------------------------------------------------------------------------
def _async_common(config, layout, m, env, *, polling: bool):
    """Fixed per-PE cost pieces shared by MIMD and S/MIMD."""
    n, cols = layout.n, layout.cols
    pieces = _Pieces(config, layout, m, env)
    total = {"mult": 0.0, "comm": 0.0, "control": 0.0, "other": 0.0, "sync": 0.0}

    def add(cost, scale=1.0):
        for cat, cyc in cost.by_category.items():
            total[cat] += cyc * scale

    words = n * cols
    add(pieces.lea_c)
    add(loop_overhead(words, env, config, "other"))
    add(pieces.clear_unit, words)
    add(loop_overhead(n, env, config))  # j loop
    add(pieces.reset, n)
    add(loop_overhead(cols, env, config), n)  # v loops
    add(pieces.setup_v, n * cols)
    add(loop_overhead(n, env, config), n * cols)  # k loops
    add(pieces.body, n * cols * n)
    add(pieces.rotate, n)
    phase = comm_pipeline(config, env, polling=polling, n_elements=n)
    total["comm"] += n * phase.cycles
    add(pieces.halt)
    return total, phase


def _barrier_cost(config: PrototypeConfig) -> float:
    """MOVE.W SIMDSPACE,D5: stream from RAM, data word from the queue."""
    instr = Instruction(
        "MOVE", Size.WORD, (absl(config.simd_space_base), dreg(5))
    )
    t = instruction_timing(instr)
    return (
        t.cycles
        + config.ws_main * t.stream_words
        + config.ws_queue * t.data_reads
        + config.refresh.average_stall_per_access
    )


def predict_async(
    config: PrototypeConfig,
    n: int,
    p: int,
    m: int,
    b: np.ndarray,
    *,
    barrier: bool,
) -> ModelResult:
    """MIMD (``barrier=False``) or S/MIMD (``barrier=True``) prediction."""
    layout = MatmulLayout(n, p)
    env = CostEnv.for_mode(config, simd_stream=False)
    total, _ = _async_common(config, layout, m, env, polling=not barrier)

    # Data-dependent multiply time with per-step coupling: each PE pays its
    # own multiply time (mean over PEs for the breakdown); the slowest PE
    # per rotation step sets the pace (skew charged to sync/comm).
    # (p, n_steps); the popcounts are summed in integers, so exactly.
    var_step = async_mult_extra_cycles(schedule_ones(b, p))
    per_step = n * (1 + m) * var_step
    own_mean = float(per_step.mean(axis=0).sum())
    coupled = float(per_step.max(axis=0).sum())
    skew_wait = coupled - own_mean  # mean wait at the per-step sync point
    total["mult"] += own_mean
    if barrier:
        total["sync"] += n * _barrier_cost(config) + skew_wait
    else:
        total["comm"] += skew_wait

    cycles = sum(total.values())
    mode = ExecutionMode.SMIMD if barrier else ExecutionMode.MIMD
    return ModelResult(mode, n, p, m, cycles,
                       {k: v for k, v in total.items() if v})


# ---------------------------------------------------------------------------
def predict_simd(
    config: PrototypeConfig, n: int, p: int, m: int, b: np.ndarray
) -> ModelResult:
    layout = MatmulLayout(n, p)
    cols = layout.cols
    env = CostEnv.for_mode(config, simd_stream=True)
    pieces = _Pieces(config, layout, m, env)
    mc = MCCostModel(config)
    total = {"mult": 0.0, "comm": 0.0, "control": 0.0, "other": 0.0, "sync": 0.0}

    def add(cost, scale=1.0):
        for cat, cyc in cost.by_category.items():
            total[cat] += cyc * scale

    # MC issue cost of one EnqueueBlock inside a loop iteration.
    issue = mc.device_write
    loop_iter = mc.loop_back

    def mc_loop(count: int, per_iter: float) -> float:
        if count == 0:
            return mc.loop_setup
        return (
            mc.loop_setup + count * per_iter
            + (count - 1) * mc.loop_back + mc.loop_exit
        )

    cpw = config.controller_cycles_per_word

    def unit(pe_cost: float, words: int) -> float:
        """Sustained repeating unit: slowest of PE / MC issue / controller."""
        return max(pe_cost, issue + loop_iter, cpw * words)

    # ---- clear phase ----
    words_c = n * cols
    pe_clear = unit(pieces.clear_unit.cycles, 1)
    total["other"] += pieces.lea_c.cycles + words_c * pe_clear
    # ---- compute phases ----
    # Per (j, v) pass: setup_v + n bodies.  PE-side fixed costs:
    body_fixed = pieces.body.cycles  # includes (1+m) MULUs at base 38
    body_words = pieces.body.words
    setup_words = pieces.setup_v.words
    # Variable multiply time: per-instruction max within each MC group.
    part = Partition(config, p)
    group = part.pes_per_mc_used  # PEs per Fetch Unit
    # compute phase per (group, j): Σ_v [setup_v + n·(body_fixed + (1+m)·max)]
    # The column sum is taken in integers (exact); the float result equals
    # the per-column float sum while a phase stays below 2**53 cycles.
    gsum = group_max_ones(schedule_ones(b, p), group)  # (groups, n_steps)
    pass_var = n * (1 + m) * (2.0 * gsum)
    pe_pass_fixed = (
        max(pieces.setup_v.cycles, issue + loop_iter, cpw * setup_words)
        + n * max(body_fixed, issue + loop_iter, cpw * body_words)
    )
    # MC cost per (j): reset + v-loop of (setup issue + body loop)
    mc_phase_j = issue + mc_loop(cols, issue + mc_loop(n, issue))
    pe_phase_gj = (
        pieces.reset.cycles + cols * pe_pass_fixed + pass_var
    )  # (groups, n)
    phase_j = np.maximum(pe_phase_gj.max(axis=0), mc_phase_j)  # (n,)
    # The whole compute phase (reset, setup_v, bodies) is tagged ``mult``
    # in the program source, matching the micro engine's attribution.
    total["mult"] += float(phase_j.sum())

    # ---- transfer phases ----
    # In SIMD the transfer loop runs on the MC, so the PE-side phase is the
    # element pipeline without any DBRA/counter machinery.
    phase = comm_pipeline(config, env, polling=False, n_elements=n,
                          pe_loop=False)
    rotate_unit = max(pieces.rotate.cycles, issue)
    mc_comm_j = issue + mc_loop(n, issue)
    pe_comm_j = phase.cycles
    comm_j = max(pe_comm_j, mc_comm_j)
    total["other"] += n * rotate_unit
    total["comm"] += n * comm_j

    # ---- startup + finish ----
    startup = mc.device_write + cpw * 2  # first block reaches the queue
    total["control"] += startup + pieces.halt.cycles

    cycles = sum(total.values())
    return ModelResult(ExecutionMode.SIMD, n, p, m, cycles,
                       {k: v for k, v in total.items() if v})


# ---------------------------------------------------------------------------
def predict_matmul(
    mode: ExecutionMode,
    config: PrototypeConfig,
    n: int,
    p: int,
    *,
    added_multiplies: int = 0,
    b: np.ndarray,
) -> ModelResult:
    """Predict the execution time of one (mode, n, p, m) configuration."""
    if mode is ExecutionMode.SERIAL:
        return predict_serial(config, n, added_multiplies, b)
    if mode is ExecutionMode.SIMD:
        return predict_simd(config, n, p, added_multiplies, b)
    return predict_async(
        config, n, p, added_multiplies, b,
        barrier=mode is ExecutionMode.SMIMD,
    )
