"""Static cost analysis of assembled program fragments.

Walks the *same instruction lists* the micro engine executes and sums
their manual timings under a mode's wait-state environment, splitting by
timing category and pulling the data-dependent multiplies out as counts
(their variable ``2·ones`` cycles are added by the models from the
multiplier schedule; their fixed 38 cycles are counted here).

Device accesses (network registers) are recognized by operand address so
that DRAM refresh and main-memory wait states are charged only to real
memory traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from repro.m68k.addressing import Mode, dreg, imm
from repro.m68k.instructions import BRANCHES, DBCC, Instruction
from repro.m68k.timing import instruction_timing
from repro.machine.config import PrototypeConfig


@dataclass(frozen=True)
class CostEnv:
    """Wait-state environment for one execution mode.

    ``ws_stream`` applies to instruction-stream accesses (queue in SIMD,
    main RAM otherwise); ``ws_data`` to operand RAM accesses; ``ws_device``
    to network/timer registers.  ``refresh_per_call`` is the average DRAM
    refresh stall per *bus call* (the micro engine checks refresh once per
    call), applied to RAM calls only; ``stream_is_ram`` says whether
    instruction fetches see DRAM refresh (False in SIMD mode).
    """

    ws_stream: float
    ws_data: float
    ws_device: float
    ws_status: float
    refresh_per_call: float
    stream_is_ram: bool

    @classmethod
    def for_mode(cls, config: PrototypeConfig, simd_stream: bool) -> "CostEnv":
        return cls(
            ws_stream=config.ws_queue if simd_stream else config.ws_main,
            ws_data=config.ws_main,
            ws_device=config.ws_device,
            ws_status=config.ws_status,
            refresh_per_call=config.refresh.average_stall_per_access,
            stream_is_ram=not simd_stream,
        )


@dataclass
class StaticCost:
    """Aggregated fixed cost of a fragment (one execution)."""

    cycles: float = 0.0
    by_category: dict[str, float] = field(default_factory=dict)
    var_multiplies: int = 0  #: count of data-dependent MULU/MULS executions
    var_category: str = "mult"

    def add(self, cycles: float, category: str) -> None:
        self.cycles += cycles
        self.by_category[category] = self.by_category.get(category, 0.0) + cycles

    def scaled(self, times: float) -> "StaticCost":
        out = StaticCost(
            cycles=self.cycles * times,
            by_category={k: v * times for k, v in self.by_category.items()},
            var_multiplies=int(self.var_multiplies * times),
            var_category=self.var_category,
        )
        return out

    def __iadd__(self, other: "StaticCost") -> "StaticCost":
        self.cycles += other.cycles
        for k, v in other.by_category.items():
            self.by_category[k] = self.by_category.get(k, 0.0) + v
        self.var_multiplies += other.var_multiplies
        return self

    def copy(self) -> "StaticCost":
        return self.scaled(1.0)


@dataclass(frozen=True)
class FragmentCost:
    """Immutable fixed cost of one assembled fragment.

    The macro model caches these per machine shape, so nothing a caller
    holds can write back into the cache: the dataclass is frozen and
    ``by_category`` is a read-only view.
    """

    cycles: float
    by_category: Mapping[str, float]
    words: int  #: encoded instruction-stream words (SIMD broadcast size)

    @classmethod
    def of(cls, instrs: list[Instruction], env: "CostEnv",
           config: PrototypeConfig) -> "FragmentCost":
        cost = static_cost(instrs, env, config)
        return cls(cost.cycles, MappingProxyType(cost.by_category),
                   sum(i.encoded_words() for i in instrs))


def _device_class(op, config: PrototypeConfig) -> str | None:
    """Classify an absolute operand: None (RAM), "status", or "device"."""
    if op.mode in (Mode.ABS_L, Mode.ABS_W) and isinstance(op.value, int):
        addr = op.value
        if 0 <= addr < config.ram_size:
            return None
        if addr == config.net_status_addr:
            return "status"
        return "device"
    return None


def instruction_cost(
    instr: Instruction,
    env: CostEnv,
    config: PrototypeConfig,
    *,
    branch_taken: bool | None = None,
    dbcc_expired: bool = False,
) -> tuple[float, bool]:
    """Fixed cycles of one instruction execution; True if data-dep MULU.

    Data-dependent multiplies are charged their 38-cycle base (the
    ``2·ones`` part is the models' job).  Shifts take their count from the
    immediate operand (the programs only use immediate-count shifts).
    """
    m = instr.mnemonic
    is_var_mul = m in ("MULU", "MULS")
    kw = {}
    if is_var_mul:
        kw["src_value"] = 0  # base 38 cycles
    if m in BRANCHES or m in DBCC:
        kw["branch_taken"] = branch_taken
        kw["dbcc_expired"] = dbcc_expired
    t = instruction_timing(instr, **kw)

    # Split data accesses between RAM and device by operand address.
    device_data = 0
    status_data = 0
    for op in instr.operands:
        klass = _device_class(op, config)
        if klass == "device":
            device_data += 1
        elif klass == "status":
            status_data += 1
    data_accesses = t.data_reads + t.data_writes
    status_accesses = min(status_data, data_accesses)
    device_accesses = min(device_data, data_accesses - status_accesses)
    ram_accesses = data_accesses - device_accesses - status_accesses

    cycles = (
        t.cycles
        + env.ws_stream * t.stream_words
        + env.ws_data * ram_accesses
        + env.ws_device * device_accesses
        + env.ws_status * status_accesses
    )
    # Refresh: one opportunity per bus call touching RAM.
    calls = 0
    if t.stream_words and env.stream_is_ram:
        calls += 1
    if ram_accesses:
        calls += 1  # read and/or write calls; approximation: dominated by 1
        if t.data_reads and t.data_writes and device_accesses == 0:
            calls += 1
    cycles += env.refresh_per_call * calls
    return cycles, is_var_mul


def static_cost(
    instrs: list[Instruction], env: CostEnv, config: PrototypeConfig
) -> StaticCost:
    """Fixed cost of executing a straight-line fragment once."""
    out = StaticCost()
    for instr in instrs:
        if instr.mnemonic in BRANCHES or instr.mnemonic in DBCC:
            raise ValueError(
                f"static_cost is for straight-line fragments; got {instr} — "
                "model loops with loop_overhead()"
            )
        cycles, is_var = instruction_cost(instr, env, config)
        out.add(cycles, instr.timecat)
        if is_var:
            out.var_multiplies += 1
    return out


def loop_overhead(
    count: int, env: CostEnv, config: PrototypeConfig, category: str = "control"
) -> StaticCost:
    """PE-side DBRA loop cost: counter init + (count−1) taken + 1 expired."""
    out = StaticCost()
    if count <= 0:
        return out
    init_c, taken_c, exp_c = _loop_costs(env, config, category)
    out.add(init_c + (count - 1) * taken_c + exp_c, category)
    return out


@lru_cache(maxsize=64)
def _loop_costs(
    env: CostEnv, config: PrototypeConfig, category: str
) -> tuple[float, float, float]:
    """(counter init, DBRA taken, DBRA expired) cycles of one DBRA loop."""
    init = Instruction("MOVE", None, (imm(0), dreg(0)), timecat=category)
    init_c, _ = instruction_cost(init, env, config)
    dbra = Instruction("DBRA", None, (dreg(0),), target=0, timecat=category)
    taken_c, _ = instruction_cost(dbra, env, config, branch_taken=True)
    exp_c, _ = instruction_cost(
        dbra, env, config, branch_taken=False, dbcc_expired=True
    )
    return init_c, taken_c, exp_c
