"""Unit tests for the macro timing model components."""

import dataclasses
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.m68k.assembler import assemble
from repro.machine import ExecutionMode, PrototypeConfig
from repro.programs.common import inner_body_source, rotate_source
from repro.programs.data import MatmulLayout, generate_matrices, multiplier_schedule
from repro.timing_model import (
    CostEnv,
    comm_pipeline,
    expected_max_ones,
    expected_ones,
    ones_of_schedule,
    predict_matmul,
    static_cost,
)
from repro.timing_model import models, mulstats
from repro.timing_model.fragments import FragmentCost, loop_overhead
from repro.timing_model.mulstats import (
    async_mult_extra_cycles,
    group_max_ones,
    max_ones_gap,
    ones16,
    ones_cdf,
    schedule_ones,
    simd_mult_extra_cycles,
)

CFG = PrototypeConfig()
ENV_MIMD = CostEnv.for_mode(CFG, simd_stream=False)
ENV_SIMD = CostEnv.for_mode(CFG, simd_stream=True)


class TestMulStats:
    def test_expected_ones(self):
        assert expected_ones(16) == 8.0
        assert expected_ones(6) == 3.0

    def test_expected_max_degenerate(self):
        assert expected_max_ones(16, 1) == pytest.approx(8.0)

    def test_expected_max_increases_with_p(self):
        vals = [expected_max_ones(16, p) for p in (1, 2, 4, 8, 16)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_expected_max_bounded_by_bits(self):
        assert expected_max_ones(8, 1000) <= 8.0

    @given(st.integers(2, 16), st.integers(1, 16))
    @settings(max_examples=30)
    def test_expected_max_matches_monte_carlo(self, bits, p):
        exact = expected_max_ones(bits, p)
        rng = np.random.default_rng(42)
        samples = rng.binomial(bits, 0.5, size=(20_000, p)).max(axis=1)
        assert exact == pytest.approx(samples.mean(), abs=0.05)

    def test_expected_max_bit_equal_to_scipy_formula(self):
        """The integer CDF changes no E[max] the model has ever produced."""
        def scipy_expected_max(bits, p):
            k = np.arange(bits + 1)
            cdf = stats.binom.cdf(k, bits, 0.5)
            cdf_prev = np.concatenate([[0.0], cdf[:-1]])
            return float(np.sum(k * (cdf**p - cdf_prev**p)))

        for bits in range(1, 17):
            for p in [*range(1, 65), 128, 256, 512, 1024, 2048]:
                assert expected_max_ones(bits, p) == \
                    scipy_expected_max(bits, p), (bits, p)

    def test_ones_cdf_within_ulps_of_scipy(self):
        """scipy's binom.cdf is not correctly rounded: with scipy 1.17 it
        is 1 ULP off at 15 bits and 2 ULP off at 30, equal elsewhere."""
        def ulps(x, y):
            return np.abs(x.view(np.int64) - y.view(np.int64))

        for bits in range(1, 33):
            ref = stats.binom.cdf(np.arange(bits + 1), bits, 0.5)
            limit = 1 if bits <= 16 else 2
            assert ulps(ones_cdf(bits), ref).max() <= limit, bits

    def test_gap_positive(self):
        assert max_ones_gap(16, 4) > 0
        assert max_ones_gap(16, 1) == pytest.approx(0.0)

    def test_schedule_aggregations(self):
        _, b = generate_matrices(8, b_bits=16)
        sched = ones_of_schedule(multiplier_schedule(b, 4))
        assert sched.shape == (4, 8, 2)
        simd = simd_mult_extra_cycles(sched)
        per_pe = async_mult_extra_cycles(sched)
        assert per_pe.shape == (4, 8)
        # SIMD max-coupling always costs at least any single PE's time.
        assert simd >= per_pe.sum(axis=1).max() / 1  # sum of per-step sums
        assert simd >= float(per_pe.mean(axis=0).sum())


@st.composite
def _schedule_cases(draw):
    """(b, p, group): n a multiple of p, group | p, b_max up to 2**16."""
    log_p = draw(st.integers(0, 5))
    p = 1 << log_p
    n = p * draw(st.integers(1, 6))
    group = 1 << draw(st.integers(0, log_p))
    b_max = draw(st.integers(2, 1 << 16))
    seed = draw(st.integers(0, 2**31))
    _, b = generate_matrices(n, seed=seed, b_max=b_max)
    return b, p, group


class TestSchedulePopcount:
    """The one-popcount reductions the macro model uses, against the
    schedule-then-popcount reference."""

    @given(_schedule_cases())
    @settings(max_examples=60, deadline=None)
    def test_reductions_match_schedule_popcount(self, case):
        b, p, group = case
        n = b.shape[0]
        cols = n // p
        ref = ones_of_schedule(multiplier_schedule(b, p))  # (p, n, cols)
        # The schedule itself, by direct indexing: [i, j, v] = B[(c+j)%n, c]
        c = np.arange(p)[:, None, None] * cols + np.arange(cols)
        j = np.arange(n)[None, :, None]
        assert np.array_equal(multiplier_schedule(b, p), b[(c + j) % n, c])
        native = mulstats._bitwise_count
        for bitwise_count in (native, None):  # numpy >= 2 / numpy 1.x path
            with mock.patch.object(mulstats, "_bitwise_count", bitwise_count):
                ones = schedule_ones(b, p)
                assert ones.dtype == np.uint8
                assert np.array_equal(ones, ref)
                assert np.array_equal(async_mult_extra_cycles(ones),
                                      async_mult_extra_cycles(ref))
                assert np.array_equal(
                    group_max_ones(ones, group),
                    ref.reshape(-1, group, n, cols).max(axis=1).sum(axis=2),
                )
                assert ones16(b).sum() == ones_of_schedule(b).sum()

    def test_table_path_covers_every_16_bit_value(self):
        values = np.arange(1 << 16)
        with mock.patch.object(mulstats, "_bitwise_count", None):
            table = ones16(values)
        assert np.array_equal(table, ones_of_schedule(values))

    def test_schedule_is_a_read_only_view(self):
        _, b = generate_matrices(16)
        sched = multiplier_schedule(b, 4)
        assert not sched.flags.writeable
        with pytest.raises(ValueError):
            sched[0, 0, 0] = 1


class TestMultiplierSchedule:
    def test_matches_direct_indexing(self):
        n, p = 8, 4
        _, b = generate_matrices(n, b_bits=16)
        sched = multiplier_schedule(b, p)
        cols = n // p
        for i in range(p):
            for j in range(n):
                for v in range(cols):
                    vp = i * cols + v
                    assert sched[i, j, v] == b[(vp + j) % n, vp]

    def test_each_b_element_used_exactly_n_over_p_times_per_pe(self):
        n, p = 16, 4
        _, b = generate_matrices(n, b_bits=16)
        sched = multiplier_schedule(b, p)
        # Every column's elements all appear exactly once across steps.
        for i in range(p):
            for v in range(n // p):
                vp = i * (n // p) + v
                assert sorted(sched[i, :, v]) == sorted(b[:, vp])


class TestStaticCost:
    def test_simple_block(self):
        instrs = assemble(
            "        .timecat mult\n        MOVE.W D0,D1\n        ADD.W D1,D2"
        ).instruction_list()
        cost = static_cost(instrs, ENV_MIMD, CFG)
        # 2 instructions, 4+4 cycles + 2 stream ws + 2 refresh calls
        expected = 8 + 2 * CFG.ws_main + 2 * CFG.refresh.average_stall_per_access
        assert cost.cycles == pytest.approx(expected)
        assert cost.by_category == {"mult": pytest.approx(expected)}

    def test_var_multiply_counted(self):
        instrs = assemble("        MULU D1,D0\n        MULU D1,D5").instruction_list()
        cost = static_cost(instrs, ENV_MIMD, CFG)
        assert cost.var_multiplies == 2
        # charged at the 38-cycle base
        assert cost.cycles >= 76

    def test_simd_stream_cheaper(self):
        instrs = assemble("        MOVE.W D0,D1").instruction_list()
        mimd = static_cost(instrs, ENV_MIMD, CFG).cycles
        simd = static_cost(instrs, ENV_SIMD, CFG).cycles
        # one stream word: saves ws_main - ws_queue plus the refresh call
        saving = (CFG.ws_main - CFG.ws_queue) + CFG.refresh.average_stall_per_access
        assert mimd - simd == pytest.approx(saving)

    def test_device_access_classified(self):
        instrs = assemble(
            "        MOVE.B D0,NETTX", predefined=CFG.device_symbols()
        ).instruction_list()
        cost = static_cost(instrs, ENV_MIMD, CFG)
        # write goes to the device (ws_device), not RAM
        base = 16 + 3 * CFG.ws_main + CFG.ws_device
        assert cost.cycles == pytest.approx(
            base + CFG.refresh.average_stall_per_access
        )

    def test_status_access_uses_status_wait_states(self):
        instrs = assemble(
            "        MOVE.W NETSTAT,D5", predefined=CFG.device_symbols()
        ).instruction_list()
        cost = static_cost(instrs, ENV_MIMD, CFG)
        assert cost.cycles > CFG.ws_status  # dominated by the poll port

    def test_rejects_control_flow(self):
        instrs = assemble("x:  BRA x").instruction_list()
        with pytest.raises(ValueError, match="straight-line"):
            static_cost(instrs, ENV_MIMD, CFG)

    def test_scaled(self):
        instrs = assemble("        MULU D1,D0").instruction_list()
        cost = static_cost(instrs, ENV_MIMD, CFG)
        double = cost.scaled(2)
        assert double.cycles == pytest.approx(2 * cost.cycles)
        assert double.var_multiplies == 2


class TestLoopOverhead:
    def test_zero_iterations_free(self):
        assert loop_overhead(0, ENV_MIMD, CFG).cycles == 0

    def test_counts(self):
        one = loop_overhead(1, ENV_MIMD, CFG).cycles
        ten = loop_overhead(10, ENV_MIMD, CFG).cycles
        # 9 extra taken-DBRAs
        dbra_taken = 10 + 2 * CFG.ws_main + CFG.refresh.average_stall_per_access
        assert ten - one == pytest.approx(9 * dbra_taken)

    def test_category(self):
        cost = loop_overhead(5, ENV_MIMD, CFG, category="comm")
        assert list(cost.by_category) == ["comm"]


class TestCommPipeline:
    def test_monotone_in_elements(self):
        a = comm_pipeline(CFG, ENV_MIMD, polling=False, n_elements=4)
        b = comm_pipeline(CFG, ENV_MIMD, polling=False, n_elements=8)
        assert b.cycles > a.cycles

    def test_polling_costs_more(self):
        plain = comm_pipeline(CFG, ENV_MIMD, polling=False, n_elements=16)
        polled = comm_pipeline(CFG, ENV_MIMD, polling=True, n_elements=16)
        assert polled.cycles > plain.cycles
        assert polled.per_element_steady > plain.per_element_steady

    def test_latency_bound_when_slow_network(self):
        slow = CFG.with_overrides(net_byte_latency=500)
        phase = comm_pipeline(
            slow, CostEnv.for_mode(slow, False), polling=False, n_elements=16
        )
        # two bytes per element through a 1-byte/500-cycle mover
        assert phase.per_element_steady >= 1000

    def test_code_bound_when_fast_network(self):
        fast = CFG.with_overrides(net_byte_latency=1)
        phase = comm_pipeline(
            fast, CostEnv.for_mode(fast, False), polling=False, n_elements=16
        )
        assert phase.per_element_steady < 250

    def test_simd_variant_cheaper_than_pe_loop(self):
        with_loop = comm_pipeline(CFG, ENV_SIMD, polling=False, n_elements=16)
        no_loop = comm_pipeline(
            CFG, ENV_SIMD, polling=False, n_elements=16, pe_loop=False
        )
        assert no_loop.cycles < with_loop.cycles


class TestCompiledModel:
    """The macro model compiles each fragment once and prices B in one
    popcount; its cycles must stay bit-identical to the assemble-per-job
    model it replaced."""

    #: Exact cycles of the assemble-per-job model at m = 10**4 (n=64, p=4;
    #: serial n=16, p=1) — raw floats, as the exhibits store them.
    PINNED = {
        ExecutionMode.SIMD: (64, 4, 31993871176.55201),
        ExecutionMode.SMIMD: (64, 4, 31253868585.834763),
        ExecutionMode.MIMD: (64, 4, 31256276210.53876),
        ExecutionMode.SERIAL: (16, 1, 1920050056.3676724),
    }

    def _predict(self, mode, config=CFG, m=10**4):
        n, p, _ = self.PINNED[mode]
        _, b = generate_matrices(n)
        return predict_matmul(mode, config, n, p, added_multiplies=m, b=b)

    @pytest.mark.parametrize("mode", list(PINNED))
    def test_pinned_cycles_at_ten_thousand_added_multiplies(self, mode):
        assert self._predict(mode).cycles == self.PINNED[mode][2]

    @pytest.mark.parametrize("mode", list(PINNED))
    def test_million_added_multiplies_cost_no_assembly(self, mode):
        start = time.perf_counter()
        result = self._predict(mode, m=10**6)
        assert time.perf_counter() - start < 1.0
        assert result.cycles > self.PINNED[mode][2]

    def test_degraded_config_does_not_leak_into_clean_predictions(self):
        slow = CFG.with_overrides(net_byte_latency=500)  # comm-bound
        for mode in (ExecutionMode.SIMD, ExecutionMode.SMIMD,
                     ExecutionMode.MIMD):
            degraded = self._predict(mode, config=slow).cycles
            assert degraded > self.PINNED[mode][2]
            assert self._predict(mode).cycles == self.PINNED[mode][2]

    @pytest.mark.parametrize("env", [ENV_MIMD, ENV_SIMD])
    @pytest.mark.parametrize("m", [0, 1, 14, 100])
    def test_body_matches_assembled_body(self, env, m):
        instrs = assemble(inner_body_source(m)).instruction_list()
        assert models._body(CFG, env, m) == FragmentCost.of(instrs, env, CFG)

    def test_cached_costs_are_immutable(self):
        layout = MatmulLayout(16, 4)
        source = rotate_source(layout)
        cost = models._cost(source, layout, CFG, ENV_MIMD)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cost.cycles = 0.0
        with pytest.raises(TypeError):
            cost.by_category["other"] = 0.0
        assert models._cost(source, layout, CFG, ENV_MIMD) is cost
