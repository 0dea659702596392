"""Tests for the adaptive TLB extension, including a differential test
of the page-stack fast path against a direct two-level TLB."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.tlb.adaptive import AdaptiveTlb
from repro.tlb.simulator import PAGE_BYTES, PageStackEngine, TlbDepthHistogram, WALK_DEPTH
from repro.tlb.timing import TLB_INCREMENT, TLB_TOTAL_ENTRIES, TlbTimingModel
from repro.tlb.tpi import TlbTpiModel
from repro.tlb.workloads import FOOTPRINT_SCALE, generate_page_trace, tlb_profile_for
from repro.workloads.suite import get_profile


def _pages(page_numbers):
    return np.array([p * PAGE_BYTES for p in page_numbers], dtype=np.uint64)


class TestPageStackEngine:
    def test_first_touch_walks(self):
        eng = PageStackEngine(8)
        assert eng.process(_pages([5]))[0] == WALK_DEPTH

    def test_reuse_depth(self):
        eng = PageStackEngine(8)
        depths = eng.process(_pages([1, 2, 3, 1]))
        assert depths[3] == 2

    def test_same_page_offsets(self):
        eng = PageStackEngine(8)
        addrs = np.array([0, PAGE_BYTES - 1], dtype=np.uint64)
        assert eng.process(addrs)[1] == 0

    def test_capacity_bound(self):
        eng = PageStackEngine(4)
        seq = list(range(6)) + [0]
        depths = eng.process(_pages(seq))
        assert depths[-1] == WALK_DEPTH  # page 0 fell off a 4-entry stack

    def test_reset(self):
        eng = PageStackEngine(4)
        eng.process(_pages([1]))
        eng.reset()
        assert eng.process(_pages([1]))[0] == WALK_DEPTH

    def test_rejects_zero_depth(self):
        with pytest.raises(SimulationError):
            PageStackEngine(0)


class TestHistogram:
    def _hist(self, seq, total=8):
        eng = PageStackEngine(total)
        return TlbDepthHistogram.from_depths(total, eng.process(_pages(seq)))

    def test_partition(self):
        hist = self._hist([1, 2, 3, 1, 2, 3, 9, 9])
        for fast in (2, 4, 8):
            assert (
                hist.fast_hits(fast) + hist.backup_hits(fast) + hist.walk_count()
                == hist.n_accesses
            )

    def test_fast_hits_monotone(self):
        hist = self._hist(list(range(6)) * 4)
        hits = [hist.fast_hits(f) for f in range(1, 9)]
        assert hits == sorted(hits)


class _TwoLevelTlb:
    """Direct reference: a fast section and a backup section, each an
    LRU list, holding disjoint pages.  A backup hit or a walk installs
    the page as fast MRU; the fast LRU victim moves to backup MRU and the
    backup LRU victim is dropped."""

    def __init__(self, fast_entries, total_entries):
        self.fast_entries = fast_entries
        self.backup_entries = total_entries - fast_entries
        self.fast = []  # MRU first
        self.backup = []

    def access(self, page):
        if page in self.fast:
            self.fast.remove(page)
            self.fast.insert(0, page)
            return "fast"
        if page in self.backup:
            self.backup.remove(page)
            outcome = "backup"
        else:
            outcome = "walk"
        self.fast.insert(0, page)
        if len(self.fast) > self.fast_entries:
            self.backup.insert(0, self.fast.pop())
            if len(self.backup) > self.backup_entries:
                self.backup.pop()
        return outcome


def _direct_counts(page_numbers, fast_entries, total_entries):
    tlb = _TwoLevelTlb(fast_entries, total_entries)
    outcomes = [tlb.access(p) for p in page_numbers]
    return tuple(outcomes.count(k) for k in ("fast", "backup", "walk"))


def _stack_counts(hist, fast_entries):
    return (
        hist.fast_hits(fast_entries),
        hist.backup_hits(fast_entries),
        hist.walk_count(),
    )


class TestEquivalenceWithDirectTlb:
    """One page-stack pass must match the direct two-level TLB's fast
    hits, backup hits and walks at every boundary position."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        total=st.integers(min_value=1, max_value=24),
    )
    def test_counts_agree(self, data, total):
        n_pages = data.draw(st.integers(min_value=1, max_value=3 * total + 2))
        seq = data.draw(
            st.lists(st.integers(min_value=0, max_value=n_pages), min_size=1,
                     max_size=300)
        )
        hist = TlbDepthHistogram.from_depths(
            total, PageStackEngine(total).process(_pages(seq))
        )
        for fast in range(1, total + 1):
            assert _stack_counts(hist, fast) == _direct_counts(seq, fast, total)

    def test_counts_agree_paper_tlb(self):
        rng = np.random.default_rng(11)
        seq = rng.integers(0, 3 * TLB_TOTAL_ENTRIES, size=3000).tolist()
        hist = TlbDepthHistogram.from_depths(
            TLB_TOTAL_ENTRIES,
            PageStackEngine(TLB_TOTAL_ENTRIES).process(_pages(seq)),
        )
        for fast in TlbTimingModel().boundaries():
            assert _stack_counts(hist, fast) == _direct_counts(
                seq, fast, TLB_TOTAL_ENTRIES
            )


class TestTiming:
    def test_boundaries(self):
        t = TlbTimingModel()
        assert t.boundaries() == tuple(range(16, 129, 16))

    def test_lookup_monotone(self):
        t = TlbTimingModel()
        delays = [t.lookup_time_ns(f) for f in t.boundaries()]
        assert delays == sorted(delays)

    def test_rejects_bad_boundary(self):
        with pytest.raises(ConfigurationError):
            TlbTimingModel().lookup_time_ns(10)

    def test_rejects_non_integral_capacity(self):
        with pytest.raises(ConfigurationError):
            TlbTimingModel(total_entries=100)

    def test_backup_costs_extra_cycles(self):
        assert TlbTimingModel().backup_extra_cycles() >= 1


class TestTpiModel:
    def test_backup_design_keeps_all_entries_useful(self):
        """The Section 4.2 point: entries outside the fast section are
        backups, not waste — a small fast section still hits (slower)
        instead of walking."""
        eng = PageStackEngine(TLB_TOTAL_ENTRIES)
        seq = list(range(64)) * 8
        hist = TlbDepthHistogram.from_depths(
            TLB_TOTAL_ENTRIES, eng.process(_pages(seq))
        )
        model = TlbTpiModel()
        small = model.evaluate(hist, 0.4, 16)
        assert small.fast_hit_ratio < 1.0
        assert hist.backup_hits(16) > 0
        assert hist.walk_count() <= 64  # only compulsory walks

    def test_rejects_bad_ls_fraction(self):
        hist = TlbDepthHistogram(TLB_TOTAL_ENTRIES, np.zeros(128, dtype=np.int64), 1)
        with pytest.raises(WorkloadError):
            TlbTpiModel().evaluate(hist, 0.0, 16)

    def test_sweep_and_best(self):
        profile = tlb_profile_for(get_profile("radar"))
        trace = generate_page_trace(profile, 12_000)
        eng = PageStackEngine(TLB_TOTAL_ENTRIES)
        hist = TlbDepthHistogram.from_depths(TLB_TOTAL_ENTRIES, eng.process(trace))
        model = TlbTpiModel()
        sweep = model.sweep_breakdowns(hist, profile.load_store_fraction)
        best = model.best_boundary(hist, profile.load_store_fraction)
        assert best.tpi_ns == min(b.tpi_ns for b in sweep.values())


class TestWorkloads:
    def test_scale_applied(self):
        profile = tlb_profile_for(get_profile("perl"))
        base = get_profile("perl").memory
        assert profile.memory.components[0].size_kb == pytest.approx(
            base.components[0].size_kb * FOOTPRINT_SCALE
        )

    def test_go_rejected(self):
        with pytest.raises(WorkloadError):
            tlb_profile_for(get_profile("go"))

    def test_trace_deterministic(self):
        profile = tlb_profile_for(get_profile("gcc"))
        a = generate_page_trace(profile, 5000)
        b = generate_page_trace(profile, 5000)
        assert np.array_equal(a, b)


class TestAdaptiveTlb:
    def test_cas_interface(self):
        cas = AdaptiveTlb()
        assert cas.configuration == TLB_TOTAL_ENTRIES
        assert cas.fastest_configuration() == TLB_INCREMENT
        cost = cas.reconfigure(32)
        assert cost.cleanup_cycles == 0  # translations stay resident
        assert cost.requires_clock_switch
        assert cas.configuration == 32

    def test_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            AdaptiveTlb().reconfigure(20)

    def test_delay_matches_timing(self):
        cas = AdaptiveTlb()
        for f in cas.configurations():
            assert cas.delay_ns(f) == pytest.approx(cas.timing.lookup_time_ns(f))
