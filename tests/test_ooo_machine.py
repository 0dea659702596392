"""Tests for the out-of-order machine: hand-checked schedules plus a
differential test against a cycle-stepped reference scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.ooo.machine import (
    MachineConfig,
    OutOfOrderMachine,
    _RunningKthSmallest,
    run_window_sweep,
)
from repro.workloads.instruction_trace import NO_DEP, InstructionTrace


def _trace(deps1, deps2, lats):
    return InstructionTrace(
        dep1=np.array(deps1, dtype=np.int64),
        dep2=np.array(deps2, dtype=np.int64),
        latency=np.array(lats, dtype=np.int16),
    )


def _chain(n, lat=1):
    deps = [NO_DEP] + list(range(n - 1))
    return _trace(deps, [NO_DEP] * n, [lat] * n)


def _independent(n, lat=1):
    return _trace([NO_DEP] * n, [NO_DEP] * n, [lat] * n)


class TestHandCheckedSchedules:
    def test_serial_chain_ipc_one(self):
        result = OutOfOrderMachine(MachineConfig(window=16)).run(_chain(32))
        # each op issues one cycle after its producer
        assert list(result.issue_times) == list(range(32))
        assert result.ipc == pytest.approx(32 / 33)

    def test_serial_chain_latency_scales(self):
        result = OutOfOrderMachine(MachineConfig(window=16)).run(_chain(10, lat=3))
        assert list(result.issue_times) == [0, 3, 6, 9, 12, 15, 18, 21, 24, 27]

    def test_independent_ops_fill_issue_width(self):
        result = OutOfOrderMachine(MachineConfig(window=64)).run(_independent(32))
        issues = list(result.issue_times)
        # dispatch bandwidth 8/cycle paces the stream: 8 per cycle
        for i, t in enumerate(issues):
            assert t == i // 8

    def test_long_latency_producer_blocks_consumers(self):
        # op0: lat 5; ops 1-3 depend on it; window 2 forces dispatch stalls
        trace = _trace(
            [NO_DEP, 0, 0, 0],
            [NO_DEP] * 4,
            [5, 1, 1, 1],
        )
        result = OutOfOrderMachine(MachineConfig(window=2)).run(trace)
        # op3 cannot even dispatch until op1's slot frees (cycle 6)
        assert list(result.issue_times) == [0, 5, 5, 6]

    def test_window_one_serialises(self):
        result = OutOfOrderMachine(MachineConfig(window=1)).run(_independent(8))
        issues = list(result.issue_times)
        assert issues == sorted(issues)
        assert len(set(issues)) == 8  # one at a time

    def test_second_dependence_respected(self):
        trace = _trace(
            [NO_DEP, NO_DEP, 0],
            [NO_DEP, NO_DEP, 1],
            [1, 4, 1],
        )
        result = OutOfOrderMachine(MachineConfig(window=8)).run(trace)
        # op2 waits for op1 (lat 4) even though op0 finished earlier
        assert result.issue_times[2] == 4


class TestWindowScaling:
    def test_wider_window_never_slower(self):
        rng = np.random.default_rng(7)
        n = 2000
        dep1 = np.maximum(np.arange(n) - rng.integers(1, 30, n), -1)
        dep1[rng.random(n) < 0.2] = NO_DEP
        trace = _trace(dep1, [NO_DEP] * n, rng.integers(1, 5, n).tolist())
        results = run_window_sweep(trace, (16, 32, 64, 128))
        ipcs = [results[w].ipc for w in (16, 32, 64, 128)]
        assert all(b >= a - 1e-9 for a, b in zip(ipcs, ipcs[1:]))

    def test_ipc_bounded_by_issue_width(self):
        result = OutOfOrderMachine(MachineConfig(window=128)).run(_independent(4096))
        assert result.ipc <= 8.0 + 1e-9

    def test_deep_iterations_need_window(self, simple_ilp_profile):
        from repro.workloads.instruction_trace import generate_instruction_trace
        from repro.workloads.profiles import IlpProfile

        deep = IlpProfile(
            block_size=32, depth=16, recurrence_ops=0,
            long_latency_fraction=0.5, long_latency_cycles=6,
        )
        trace = generate_instruction_trace(deep, 4000, 3)
        results = run_window_sweep(trace, (16, 128))
        assert results[128].ipc > 1.5 * results[16].ipc


class TestRecurrenceBound:
    def test_recurrence_caps_ipc(self):
        from repro.workloads.instruction_trace import generate_instruction_trace
        from repro.workloads.profiles import IlpProfile

        prof = IlpProfile(
            block_size=12, depth=3, recurrence_ops=2, recurrence_latency=3,
            long_latency_fraction=0.0, long_latency_cycles=1,
        )
        trace = generate_instruction_trace(prof, 6000, 5)
        result = OutOfOrderMachine(MachineConfig(window=128)).run(trace)
        # bound = 12 / (2*3) = 2.0, plus slack for the non-chain body
        assert result.ipc <= prof.recurrence_ipc_bound * 1.3


class TestMachineConfig:
    def test_rejects_zero_window(self):
        with pytest.raises(SimulationError):
            MachineConfig(window=0)

    def test_rejects_zero_widths(self):
        with pytest.raises(SimulationError):
            MachineConfig(window=16, issue_width=0)

    def test_tpi_uses_cycle_time(self):
        result = OutOfOrderMachine(MachineConfig(window=16)).run(_independent(64))
        assert result.tpi_ns(0.5) == pytest.approx(0.5 / result.ipc)


class TestRunningKthSmallest:
    def test_tracks_order_statistics(self):
        tracker = _RunningKthSmallest()
        values = [5, 1, 9, 3, 7, 2]
        seen = []
        for i, v in enumerate(values):
            tracker.add(v)
            seen.append(v)
            tracker.advance()
            assert tracker.kth() == sorted(seen)[i]

    def test_advance_past_population_rejected(self):
        tracker = _RunningKthSmallest()
        with pytest.raises(SimulationError):
            tracker.advance()

    def test_read_before_advance_rejected(self):
        tracker = _RunningKthSmallest()
        tracker.add(1)
        with pytest.raises(SimulationError):
            tracker.kth()


class _FixedLatencyMemory:
    """Memory-system stub: the load at address ``a`` takes ``latencies[a]``."""

    def __init__(self, latencies):
        self.latencies = latencies

    def load_latency_cycles(self, address):
        return self.latencies[address]


def _reference_schedule(dep1, dep2, latency, window, issue_width, dispatch_width):
    """Cycle-stepped oldest-first oracle: each cycle dispatches in order
    into free queue entries, then wakes up and selects the oldest ready
    entries.  An entry frees the cycle after its occupant issues."""
    n = len(latency)
    issue = [None] * n
    queue = []  # dispatched, not yet issued, oldest first
    next_up = cycle = 0
    while next_up < n or queue:
        for _ in range(dispatch_width):
            if next_up == n or len(queue) == window:
                break
            queue.append(next_up)
            next_up += 1
        ready = [
            i for i in queue
            if all(
                p == NO_DEP or (issue[p] is not None and issue[p] + latency[p] <= cycle)
                for p in (dep1[i], dep2[i])
            )
        ]
        for i in ready[:issue_width]:
            issue[i] = cycle
            queue.remove(i)
        cycle += 1
    return issue, max(t + lat for t, lat in zip(issue, latency)) + 1


@st.composite
def _traces(draw):
    """A random dataflow trace; some instructions are loads whose
    latency the memory-system stub overrides."""
    n = draw(st.integers(min_value=1, max_value=80))
    deps = [
        [draw(st.integers(min_value=-1, max_value=i - 1)) for i in range(n)]
        for _ in range(2)
    ]
    latency = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    loads = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    memory = draw(st.lists(st.integers(1, 120), min_size=n, max_size=n))
    trace = InstructionTrace(
        dep1=np.array([NO_DEP if d < 0 else d for d in deps[0]], dtype=np.int64),
        dep2=np.array([NO_DEP if d < 0 else d for d in deps[1]], dtype=np.int64),
        latency=np.array(latency, dtype=np.int16),
        load_address=np.array(
            [i if load else NO_DEP for i, load in enumerate(loads)], dtype=np.int64
        ),
    )
    effective = [memory[i] if load else latency[i] for i, load in enumerate(loads)]
    return trace, memory, effective


class TestReferenceScheduler:
    @settings(max_examples=300, deadline=None)
    @given(
        case=_traces(),
        window=st.integers(1, 40),
        issue_width=st.integers(1, 8),
        dispatch_width=st.integers(1, 8),
    )
    def test_machine_matches_cycle_stepped_oracle(
        self, case, window, issue_width, dispatch_width
    ):
        trace, memory, effective = case
        config = MachineConfig(
            window=window, issue_width=issue_width, dispatch_width=dispatch_width
        )
        result = OutOfOrderMachine(config).run(
            trace, memory_system=_FixedLatencyMemory(memory)
        )
        issue, cycles = _reference_schedule(
            trace.dep1.tolist(), trace.dep2.tolist(), effective,
            window, issue_width, dispatch_width,
        )
        assert result.issue_times.tolist() == issue
        assert result.cycles == cycles

    def test_drain_uses_the_memory_system_latency(self):
        # A lone load the memory system charges 100 cycles completes at
        # cycle 100, not at the trace's nominal 2-cycle latency.
        trace = InstructionTrace(
            dep1=np.array([NO_DEP], dtype=np.int64),
            dep2=np.array([NO_DEP], dtype=np.int64),
            latency=np.array([2], dtype=np.int16),
            load_address=np.array([0], dtype=np.int64),
        )
        result = OutOfOrderMachine(MachineConfig(window=16)).run(
            trace, memory_system=_FixedLatencyMemory([100])
        )
        assert result.cycles == 101
