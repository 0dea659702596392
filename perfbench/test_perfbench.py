"""Tests of the benchmark's own logic (no server, no figure passes).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import islice

import numpy as np
import pytest

from common import SRC, canonical, digest, median, nearest_rank, settled
from run import output_problems
from service_mix import COLD_SIZING, HOT_SET, N_TENANTS, scrape, traffic
from spans import self_times, summarize
from speed import REFERENCE_PROBE_S, SENSITIVITY, SpeedSampler

# The scrape test parses /metrics text with the program's own parser.
sys.path.insert(0, str(SRC))

N = 4000


def _take(seed: int, n: int = N):
    return list(islice(traffic(seed), n))


# -- traffic generator --------------------------------------------------------


def test_traffic_is_deterministic_in_its_seed():
    assert [p.fields for p in _take(7)] == [p.fields for p in _take(7)]
    assert [p.fields for p in _take(7, 200)] != [p.fields for p in _take(8, 200)]


def test_hot_share_is_three_quarters():
    hot = sum(p.hot is not None for p in _take(3))
    assert abs(hot / N - 0.75) < 0.03


def test_hot_requests_repeat_the_hot_set():
    for p in _take(3):
        if p.hot is not None:
            fields = {k: v for k, v in p.fields.items() if k != "tenant"}
            assert fields == HOT_SET[p.hot]


def test_cold_requests_are_unique_and_spread_over_structures():
    cold = [p for p in _take(5) if p.hot is None]
    identities = {tuple(sorted((k, v) for k, v in p.fields.items() if k != "tenant"))
                  for p in cold}
    assert len(identities) == len(cold)
    shares = Counter(p.fields["structure"] for p in cold)
    assert set(shares) == set(COLD_SIZING)
    for structure in COLD_SIZING:
        assert abs(shares[structure] / len(cold) - 0.25) < 0.05


def test_tenants_spread_keeps_every_tenant_far_below_its_quota():
    # 4 admissions/s per tenant at ~190 rps needs well over 48 tenants.
    tenants = Counter(p.fields["tenant"] for p in _take(11))
    assert len(tenants) > N_TENANTS * 0.9
    assert max(tenants.values()) / N < 0.02


# -- nearest-rank percentiles -------------------------------------------------


def test_nearest_rank_single_value():
    assert nearest_rank([4.0], 50) == 4.0
    assert nearest_rank([4.0], 99) == 4.0


def test_nearest_rank_picks_sample_elements():
    values = [5.0, 1.0, 3.0, 2.0]
    assert median(values) == 2.0  # ceil(0.5 * 4) = 2nd smallest, no interpolation
    assert nearest_rank(values, 75) == 3.0
    assert nearest_rank(values, 100) == 5.0
    assert nearest_rank(values, 1) == 1.0


def test_nearest_rank_p99_needs_a_hundred_samples_to_leave_the_max():
    values = [float(i) for i in range(1, 101)]
    assert nearest_rank(values, 99) == 99.0
    assert nearest_rank(values[:99], 99) == 99.0  # the max of 99 samples


def test_nearest_rank_orders_infinite_failures_last():
    assert nearest_rank([1.0, math.inf, 2.0], 50) == 2.0
    assert nearest_rank([1.0, math.inf, 2.0], 99) == math.inf


@pytest.mark.parametrize("pct", [0, -1, 100.5])
def test_nearest_rank_rejects_out_of_range(pct):
    with pytest.raises(ValueError):
        nearest_rank([1.0], pct)


def test_nearest_rank_rejects_empty():
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_settled_needs_samples_and_a_steady_median():
    assert not settled([1.0, 1.0, 1.0, 1.0])
    assert settled([1.0, 1.0, 1.0, 1.0, 1.0])
    assert not settled([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])


# -- host-speed normalisation -------------------------------------------------


def _sampler(tmp_path, text: str) -> SpeedSampler:
    out = tmp_path / "speed.txt"
    out.write_text(text)
    return SpeedSampler(out)


def _slowdown(mean_probe_ms: float) -> float:
    return (mean_probe_ms * 1e-3 / REFERENCE_PROBE_S) ** SENSITIVITY


def _probes_every_tenth(tmp_path) -> SpeedSampler:
    # One probe per 0.1 s: 1 ms for the first second, 2 ms after.
    return _sampler(tmp_path, "".join(
        f"{t / 10!r} {(1e-3 if t < 10 else 2e-3)!r}\n" for t in range(30)
    ))


def test_slowdown_averages_the_window_and_one_probe_either_side(tmp_path):
    sampler = _probes_every_tenth(tmp_path)
    # 0.0 .. 0.9 at 1 ms, plus the neighbour at 1.0 s (2 ms).
    assert sampler.slowdown(0.0, 0.9) == pytest.approx(_slowdown(12 / 11))
    assert sampler.slowdown(1.2, 2.5) == pytest.approx(_slowdown(2))


def test_slowdown_widens_a_short_window(tmp_path):
    sampler = _probes_every_tenth(tmp_path)
    # Widened to 0.455 .. 1.455: probes 0.5 .. 1.4, plus 0.4 and 1.5.
    assert sampler.slowdown(0.95, 0.96) == pytest.approx(_slowdown(1.5))


def test_sampler_skips_a_line_still_being_written(tmp_path):
    sampler = _sampler(tmp_path, "1.0 0.002\n1.1 0.00")
    assert sampler.overall() == pytest.approx(_slowdown(2))


# -- figure-data digests -------------------------------------------------------


@dataclass(frozen=True)
class _Series:
    window: int
    tpi_ns: np.ndarray


def _figure():
    return {"integer": {64: 1.25, 128: 1.5},
            "series": _Series(64, np.array([0.5, 0.75, 1.0]))}


def test_digest_is_stable_for_equal_data():
    assert digest(_figure()) == digest(_figure())
    assert canonical(_figure())["series"]["tpi_ns"] == [0.5, 0.75, 1.0]


def test_digest_rejects_a_one_ulp_perturbation():
    scalar = _figure()
    scalar["integer"][64] = math.nextafter(1.25, math.inf)
    array = _figure()
    array["series"].tpi_ns[1] = np.nextafter(0.75, 1.0)
    assert digest(scalar) != digest(_figure())
    assert digest(array) != digest(_figure())


def test_output_check_fails_a_perturbed_figure_and_a_warm_miss():
    reference = {"10": digest(_figure())}
    perturbed = _figure()
    perturbed["integer"][128] = math.nextafter(1.5, 0.0)
    ok = {"digests": {"10": digest(_figure())}, "stats": {"cache_misses": 0}}
    bad = {"digests": {"10": digest(perturbed)}, "stats": {"cache_misses": 0}}
    missed = {"digests": {"10": digest(_figure())}, "stats": {"cache_misses": 2}}
    assert output_problems(ok, reference, warm=True) == []
    assert output_problems(bad, reference, warm=False)
    assert output_problems(missed, reference, warm=False) == []
    assert output_problems(missed, reference, warm=True)


# -- spans ----------------------------------------------------------------------


def _span(name, start, end, parent=-1, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "counts": counts}


def test_self_time_subtracts_children():
    spans = [
        _span("engine.map", 0.0, 10.0),
        _span("workloads.generate", 1.0, 3.0, 0, items=100),
        _span("workloads.generate", 1.5, 2.5, 1, items=100),  # nested generator
        _span("ooo.run", 4.0, 9.0, 0, instructions=100, cycles=50),
    ]
    assert self_times(spans) == [3.0, 1.0, 1.0, 5.0]
    out = summarize(spans)
    assert out["workloads.gen_s"] == 2.0
    assert out["workloads.items"] == 100  # the outermost generator only
    assert out["ooo.instructions"] == 100
    assert out["trace.attributed_s"] == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [_span("engine.map", 0.0, 10.0), _span("ooo.run", 1.0, 5.0, 0),
             _span("ooo.run", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == 4.0


# -- /metrics scrape --------------------------------------------------------------


def test_scrape_interpolates_histogram_quantiles():
    text = "\n".join([
        "# TYPE repro_service_queue_wait_seconds histogram",
        'repro_service_queue_wait_seconds_bucket{le="0.01"} 0',
        'repro_service_queue_wait_seconds_bucket{le="0.1"} 10',
        'repro_service_queue_wait_seconds_bucket{le="+Inf"} 10',
        "repro_service_queue_wait_seconds_sum 0.5",
        "repro_service_queue_wait_seconds_count 10",
        "# TYPE repro_service_requests_total counter",
        'repro_service_requests_total{tenant="a"} 3',
        'repro_service_requests_total{tenant="b"} 1',
        "# TYPE repro_service_warm_hits_total counter",
        "repro_service_warm_hits_total 3",
        "",
    ])
    out = scrape(text)
    assert out["service.queue_wait_p50_s"] == pytest.approx(0.055)
    assert out["service.warm_hit_ratio"] == 0.75
    assert out["service.batches"] == 0.0
