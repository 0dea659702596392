"""Tests for the degraded-hardware robustness layer."""

import json
import math

import numpy as np
import pytest

from repro.cache.adaptive import AdaptiveCacheHierarchy
from repro.core.clock import DynamicClock
from repro.core.controller import GuardrailConfig, OnlineController, run_online
from repro.core.manager import ConfigurationManager
from repro.core.monitor import IntervalSample, PerformanceMonitor
from repro.core.multiprogram import ProcessSpec, run_multiprogrammed
from repro.errors import (
    ConfigurationError,
    DegradedHardwareError,
    SensorError,
    SimulationError,
)
from repro.obs.metrics import metrics
from repro.ooo.intervals import IntervalSeries
from repro.robust import (
    HardwareFaultModel,
    NoisySensor,
    SensorNoiseConfig,
    ThrashDetector,
    TpiWatchdog,
    UnitFault,
)


def _fired(name):
    """A counter's total over every label set."""
    return sum(metrics().counter(name).collect().values())


def _series(tpis_by_window, interval=1000):
    cycle = {16: 0.435, 32: 0.5, 64: 0.626}
    return {
        w: IntervalSeries(w, cycle[w], interval, np.array(t, dtype=float))
        for w, t in tpis_by_window.items()
    }


class TestUnitFault:
    def test_unit_zero_rejected(self):
        with pytest.raises(DegradedHardwareError):
            UnitFault("dcache", 0)

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            UnitFault("dcache", 1, at_interval=-1)


class TestHardwareFaultModel:
    def test_duplicate_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            HardwareFaultModel(
                faults=(UnitFault("dcache", 1), UnitFault("dcache", 1))
            )

    def test_seeded_is_deterministic(self):
        a = HardwareFaultModel.seeded(3, {"dcache": 8, "tlb": 8}, 0.5)
        b = HardwareFaultModel.seeded(3, {"dcache": 8, "tlb": 8}, 0.5)
        assert a.faults == b.faults
        assert a.faults  # 0.5 of 7 non-minimal units rounds to >= 1

    def test_growing_fraction_only_adds_faults(self):
        small = HardwareFaultModel.seeded(3, {"dcache": 8}, 0.25)
        large = HardwareFaultModel.seeded(3, {"dcache": 8}, 0.75)
        small_units = {f.unit for f in small.faults}
        large_units = {f.unit for f in large.faults}
        assert small_units <= large_units

    def test_never_draws_unit_zero(self):
        model = HardwareFaultModel.seeded(3, {"dcache": 8}, 1.0)
        assert all(f.unit >= 1 for f in model.faults)
        assert len(model.faults) == 7

    def test_apply_masks_structure(self):
        cache = AdaptiveCacheHierarchy()
        n = len(tuple(cache.configurations()))
        model = HardwareFaultModel.seeded(3, {"dcache": n}, 0.5)
        applied = model.apply(cache)
        assert applied
        assert cache.is_degraded
        assert len(tuple(cache.configurations())) < n

    def test_mid_run_faults_apply_at_their_interval(self):
        cache = AdaptiveCacheHierarchy()
        model = HardwareFaultModel(
            faults=(UnitFault("dcache", 3, at_interval=2),)
        )
        assert model.apply(cache) == ()
        assert not cache.is_degraded
        assert model.mid_run_intervals("dcache") == (2,)
        assert model.apply_due(cache, 2)
        assert cache.failed_units == frozenset({3})


class TestNoisySensor:
    def test_rejects_garbage_input(self):
        sensor = NoisySensor(SensorNoiseConfig())
        for bad in (float("nan"), float("inf"), -1.0, 0.0):
            with pytest.raises(SensorError):
                sensor.read(0, bad)

    def test_clean_sensor_is_identity(self):
        sensor = NoisySensor(SensorNoiseConfig())
        assert sensor.read(0, 0.5) == 0.5

    def test_noise_is_bounded_and_deterministic(self):
        cfg = SensorNoiseConfig(noise_fraction=0.1)
        a = [NoisySensor(cfg, seed=5).read(i, 1.0) for i in range(50)]
        b = [NoisySensor(cfg, seed=5).read(i, 1.0) for i in range(50)]
        assert a == b
        assert all(0.9 <= v <= 1.1 for v in a)
        assert any(v != 1.0 for v in a)

    def test_full_dropout_delivers_nothing(self):
        sensor = NoisySensor(SensorNoiseConfig(dropout_rate=1.0))
        before = _fired("repro_robust_sensor_dropouts_total")
        assert sensor.read(0, 1.0) is None
        assert _fired("repro_robust_sensor_dropouts_total") == before + 1

    def test_stuck_counter_replays_value(self):
        sensor = NoisySensor(
            SensorNoiseConfig(stuck_rate=1.0, stuck_duration=3), seed=2
        )
        first = sensor.read(0, 1.0)
        assert sensor.read(1, 99.0) == first
        assert sensor.read(2, 42.0) == first

    def test_read_required_survives_dropouts(self):
        sensor = NoisySensor(SensorNoiseConfig(dropout_rate=1.0))
        assert sensor.read_required(0, 0.7) == 0.7  # falls back to truth

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SensorNoiseConfig(noise_fraction=1.5)
        with pytest.raises(ConfigurationError):
            SensorNoiseConfig(dropout_rate=-0.1)
        with pytest.raises(ConfigurationError):
            SensorNoiseConfig(stuck_duration=0)


class TestInputValidationBugfix:
    """NaN/negative TPI used to pass `<= 0` guards and poison stats."""

    def test_interval_sample_rejects_nan(self):
        with pytest.raises(SensorError):
            IntervalSample(0, 16, float("nan"), 1000)
        with pytest.raises(SensorError):
            IntervalSample(0, 16, float("inf"), 1000)
        # SensorError is a SimulationError: old callers keep working
        with pytest.raises(SimulationError):
            IntervalSample(0, 16, float("nan"), 1000)

    def test_monitor_record_rejects_poison(self):
        monitor = PerformanceMonitor()
        sample = IntervalSample(0, 16, 0.5, 1000)
        object.__setattr__(sample, "tpi_ns", float("nan"))
        with pytest.raises(SensorError):
            monitor.record(sample)
        assert monitor.total_instructions == 0  # nothing recorded

    def test_controller_observe_rejects_nan_before_mutating(self):
        ctrl = OnlineController((16, 64))
        ctrl.observe(16, 0.5, 1000)
        with pytest.raises(SensorError):
            ctrl.observe(16, float("nan"), 1000)
        with pytest.raises(SensorError):
            ctrl.observe(16, -0.5, 1000)
        # the estimate is untouched by the rejected observations
        assert ctrl._estimate[16] == 0.5
        assert ctrl.monitor.total_instructions == 1000


class TestControllerMasking:
    def test_mask_removes_configuration(self):
        ctrl = OnlineController((16, 32, 64))
        ctrl.observe(64, 0.1, 1000)
        ctrl.mask_configuration(64)
        assert ctrl.configurations == (16, 32)
        assert 64 not in ctrl._estimate

    def test_mask_unknown_rejected(self):
        ctrl = OnlineController((16, 64))
        with pytest.raises(ConfigurationError):
            ctrl.mask_configuration(32)

    def test_cannot_mask_last_configuration(self):
        ctrl = OnlineController((16, 64))
        ctrl.mask_configuration(64)
        with pytest.raises(DegradedHardwareError):
            ctrl.mask_configuration(16)

    def test_single_config_controller_stays_home(self):
        ctrl = OnlineController((16, 64))
        ctrl.mask_configuration(64)
        for i in range(30):
            ctrl.observe(16, 0.5, 1000)
            nxt, probe = ctrl.choose(16)
            assert (nxt, probe) == (16, False)


class TestThrashGuardrail:
    def test_lock_fires_and_cools_down(self):
        det = ThrashDetector(GuardrailConfig(thrash_threshold=2, cooldown=5))
        before = _fired("repro_robust_thrash_locks_total")
        det.record_switch(0)
        assert not det.locked(0)
        det.record_switch(1)
        assert det.locked(1) and det.locked(6)
        assert not det.locked(7)
        assert det.n_locks == 1
        assert _fired("repro_robust_thrash_locks_total") == before + 1

    def test_slow_switching_never_locks(self):
        det = ThrashDetector(
            GuardrailConfig(thrash_window=4, thrash_threshold=2, cooldown=5)
        )
        for i in range(0, 100, 10):  # far apart: window keeps draining
            det.record_switch(i)
        assert det.n_locks == 0

    def test_controller_with_guardrails_switches_less_under_noise(self):
        from repro.core.controller import ControllerConfig

        rng = np.random.default_rng(0)
        n = 400
        # identical configs + heavy noise: every fresh sample can flip
        # the ranking, and with no hysteresis the ranking flip commits
        noisy = {
            16: 0.50 * (1 + 0.3 * rng.uniform(-1, 1, n)),
            64: 0.50 * (1 + 0.3 * rng.uniform(-1, 1, n)),
        }
        series = _series({w: list(t) for w, t in noisy.items()})
        twitchy = ControllerConfig(
            ewma_alpha=1.0, switch_margin=0.0, probe_period=4,
            staleness_limit=8,
        )
        plain = run_online(
            series, OnlineController((16, 64), config=twitchy), 16
        )
        guarded_ctrl = OnlineController(
            (16, 64), config=twitchy,
            guardrails=GuardrailConfig(thrash_threshold=2, cooldown=24),
        )
        guarded = run_online(series, guarded_ctrl, 16)
        assert guarded_ctrl.thrash_locks > 0
        assert guarded.n_switches < plain.n_switches


class TestTpiWatchdog:
    def test_regression_detected_beyond_tolerance(self):
        dog = TpiWatchdog(tolerance=0.1)
        verdict = dog.check("p", "s", 4, 1.0, 1.2, reachable=(1, 2, 4))
        assert verdict.regression

    def test_within_tolerance_is_not_a_regression(self):
        dog = TpiWatchdog(tolerance=0.1)
        assert not dog.check("p", "s", 4, 1.0, 1.05, (1, 2, 4)).regression

    def test_fallback_needs_a_strictly_better_safe_config(self):
        dog = TpiWatchdog(tolerance=0.1)
        # first regression: no alternative known yet -> hold
        assert dog.check("p", "s", 4, 1.0, 2.0, (1, 2, 4)).fallback is None
        dog.record("p", "s", 2, 1.5)
        verdict = dog.check("p", "s", 4, 1.0, 2.0, (1, 2, 4))
        assert verdict.fallback == 2

    def test_fallback_never_proposes_masked_config(self):
        dog = TpiWatchdog(tolerance=0.1)
        dog.record("p", "s", 4, 0.5)  # best... but about to be masked
        dog.record("p", "s", 2, 1.5)
        verdict = dog.check("p", "s", 1, 1.0, 2.0, reachable=(1, 2))
        assert verdict.fallback == 2

    def test_rejects_poison_measurements(self):
        dog = TpiWatchdog()
        with pytest.raises(SensorError):
            dog.record("p", "s", 4, float("nan"))


class TestManagerWatchdog:
    def _manager(self):
        cache = AdaptiveCacheHierarchy()
        clock = DynamicClock(adaptive_structures=(cache,))
        return cache, ConfigurationManager(
            clock=clock, structures=(cache,), watchdog=TpiWatchdog(tolerance=0.1)
        )

    def test_fallback_applies_best_known_safe_config(self):
        cache, manager = self._manager()
        manager.watchdog.record("p", "dcache", 1, 0.6)
        # selection predicted 0.5 at boundary 4; reality is 1.0
        manager.select_for_process(
            "p", "dcache", lambda k: 0.5 if k == 4 else 0.9
        )
        manager.apply("dcache", 4)
        verdict = manager.report_achieved("p", "dcache", 1.0)
        assert verdict.regression and verdict.fallback == 1
        assert manager.saved_configuration("p", "dcache") == 1
        assert cache.configuration == 1

    def test_no_regression_no_movement(self):
        cache, manager = self._manager()
        manager.select_for_process(
            "p", "dcache", lambda k: 0.5 if k == 4 else 0.9
        )
        manager.apply("dcache", 4)
        verdict = manager.report_achieved("p", "dcache", 0.52)
        assert not verdict.regression
        assert manager.saved_configuration("p", "dcache") == 4

    def test_report_without_decision_rejected(self):
        _, manager = self._manager()
        with pytest.raises(ConfigurationError):
            manager.report_achieved("ghost", "dcache", 0.5)

    def test_ensure_valid_remaps_masked_registers(self):
        cache, manager = self._manager()
        manager.select_for_process(
            "p", "dcache", lambda k: 0.0 if k == 8 else 1.0
        )
        assert manager.saved_configuration("p", "dcache") == 8
        cache.fail_unit(2)  # boundaries >= position 2 now masked
        remapped = manager.ensure_valid("p")
        assert "dcache" in remapped
        new = manager.saved_configuration("p", "dcache")
        assert new in tuple(cache.configurations())

    def test_selection_skips_masked_configs(self):
        cache, manager = self._manager()
        cache.fail_unit(2)
        evaluated = []
        manager.select_for_process(
            "p", "dcache", lambda k: evaluated.append(k) or 1.0
        )
        assert set(evaluated) == set(cache.configurations())


class TestRunOnlineRobust:
    def test_sensor_noise_changes_observations_not_truth(self):
        series = _series({16: [0.5] * 40, 64: [0.8] * 40})
        clean = run_online(series, OnlineController((16, 64)), 16)
        noisy = run_online(
            series, OnlineController((16, 64)), 16,
            sensor=NoisySensor(SensorNoiseConfig(noise_fraction=0.05), seed=1),
        )
        # the machine's spent time is computed from the true series
        assert noisy.instructions == clean.instructions
        assert noisy.total_time_ns > 0

    def test_dropped_samples_are_skipped_not_fatal(self):
        series = _series({16: [0.5] * 20, 64: [0.8] * 20})
        outcome = run_online(
            series, OnlineController((16, 64)), 16,
            sensor=NoisySensor(SensorNoiseConfig(dropout_rate=1.0)),
        )
        assert outcome.instructions == 20 * 1000

    def test_mid_run_fault_evacuates_dead_config(self):
        # 64 is better; the controller will settle there, then it dies
        series = _series({16: [0.8] * 60, 64: [0.5] * 60})
        ctrl = OnlineController((16, 64))
        outcome = run_online(
            series, ctrl, 64, fault_schedule={30: (64,)}
        )
        assert ctrl.configurations == (16,)
        assert all(c == 16 for c in outcome.chosen[30:])

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        from repro.obs.trace import Tracer

        series = _series({16: [0.5, 0.9] * 30, 64: [0.7, 0.6] * 30})

        def one_run(path):
            with Tracer(path):
                run_online(
                    series,
                    OnlineController(
                        (16, 64), guardrails=GuardrailConfig()
                    ),
                    16,
                    sensor=NoisySensor(
                        SensorNoiseConfig(
                            noise_fraction=0.1, dropout_rate=0.05
                        ),
                        seed=9,
                    ),
                    fault_schedule={20: (64,)},
                )

        def normalized(path):
            out = []
            for line in path.read_text().splitlines():
                record = json.loads(line)
                for key in ("ts", "dur_s", "trace_id"):
                    record.pop(key, None)
                out.append(json.dumps(record, sort_keys=True))
            return "\n".join(out)

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        one_run(a)
        one_run(b)
        assert normalized(a) == normalized(b)
        assert "robust.config_masked" in a.read_text()


class TestMultiprogramFaults:
    def test_reset_faults_degrade_chosen_boundaries(self):
        cache = AdaptiveCacheHierarchy()
        n = len(tuple(cache.configurations()))
        model = HardwareFaultModel(
            faults=tuple(UnitFault("dcache", u) for u in range(2, n))
        )
        result = run_multiprogrammed(
            (ProcessSpec("compress", 4), ProcessSpec("swim", 1)),
            timeslice_refs=1000,
            total_refs_per_process=3000,
            fault_model=model,
        )
        assert result.total_time_ns > 0
        assert result.n_context_switches > 0

    def test_mid_run_fault_remaps_registers(self):
        model = HardwareFaultModel(
            faults=(UnitFault("dcache", 2, at_interval=1),)
        )
        result = run_multiprogrammed(
            (ProcessSpec("compress", 4), ProcessSpec("swim", 3)),
            timeslice_refs=1000,
            total_refs_per_process=3000,
            fault_model=model,
        )
        assert result.total_time_ns > 0


class TestDegradationStudy:
    def test_fault_free_grid_cell_is_lossless(self):
        from repro.experiments.degradation_study import degradation_study

        study = degradation_study(
            fail_fractions=(0.0,), noise_fractions=(0.0,),
            n_rounds=3, n_refs=1500, warmup_refs=500,
            n_instructions=600, n_branches=600,
        )
        assert len(study.cells) == 4
        for cell in study.cells:
            assert cell.retained == pytest.approx(1.0)
            assert cell.n_regressions == 0
            assert cell.n_reachable == cell.n_designed

    def test_degraded_cells_complete_and_recover(self):
        from repro.experiments.degradation_study import degradation_study

        guardrails = (
            "repro_robust_faults_injected_total",
            "repro_robust_watchdog_regressions_total",
            "repro_robust_watchdog_fallbacks_total",
        )
        before = {name: _fired(name) for name in guardrails}
        kwargs = dict(
            fail_fractions=(0.25,), noise_fractions=(0.10,),
            n_rounds=6, n_refs=1500, warmup_refs=500,
            n_instructions=600, n_branches=600,
        )
        study = degradation_study(**kwargs)
        assert len(study.cells) == 4
        assert study.total_unrecovered() == 0
        for cell in study.cells:
            assert cell.n_reachable < cell.n_designed
            assert 0.0 < cell.retained <= 1.0
            assert math.isfinite(cell.final_tpi_ns)
        for name in guardrails:
            assert _fired(name) > before[name], name
        # Same seed, same study: fault draws and sensor noise are pure.
        assert degradation_study(**kwargs).cells == study.cells
