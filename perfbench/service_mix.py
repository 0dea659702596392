"""The service-mix workload: closed-loop clients against ``repro serve``.

The server runs as ``repro serve --port 0 --jobs 1 --cache-dir <empty>``
with every other flag at its default.  Two closed-loop clients share one
generator process: each sends its next request only after its previous
reply, as CLI and client callers do.  Two connections keep the server
busy while each client handles its reply.

The traffic is drawn from ``--seed``:

* ~3/4 of requests repeat a fixed hot set of :data:`HOT_SET`, issued
  once before timing starts, so they are answered from the warm store;
* ~1/4 are cold requests, each with a sizing no other request in the
  run uses, spread evenly over ``dcache``/``iqueue``/``tlb``/``bpred``;
* requests are spread over :data:`N_TENANTS` tenants, so the default
  per-tenant quota (4 admissions/s) binds only far above the measured
  rate.

Every hot answer, and a seeded sample of cold answers, is compared with
an in-process :func:`repro.api.run_query` answer.

The generator, the server and the speed sampler share one CPU, so every
client-side latency, boot time and rate is reported in reference
seconds (see ``speed.py``): each one divided by the host's slowdown
over its own window.  Server-side span times are as measured.
"""

from __future__ import annotations

import math
import random
import re
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import spans
from common import BENCH_DIR, ROOT, child_env, digest, median, nearest_rank, stop_process
from speed import SpeedSampler

#: Share of requests drawn from the hot set.
HOT_SHARE = 0.75
#: Tenants requests are spread over.
N_TENANTS = 256
#: Closed-loop clients.
N_CLIENTS = 2
#: Requests a run completes at least, so ten samples lie beyond p99.
MIN_REQUESTS = 1000
#: Longest a run keeps going past ``--seconds`` to reach MIN_REQUESTS.
OVERRUN_CAP_S = 60.0
#: Untimed load before timing starts.  The first seconds after a boot
#: run slower (hot-request p50 ~1.5x), a cost a long-lived service pays once.
WARMUP_S = 8.0
#: Server boots per run whose spawn-to-healthy times give ``setup_s``.
BOOTS = 7
#: Cold answers re-derived in-process and compared.
COLD_SAMPLE = 48

#: The hot set: moderate sizings, distinct from every cold sizing.
HOT_SET: tuple[dict, ...] = (
    {"structure": "dcache", "workload": "compress", "n_refs": 20000, "warmup_refs": 5000},
    {"structure": "dcache", "workload": "swim", "n_refs": 20000, "warmup_refs": 5000},
    {"structure": "iqueue", "workload": "gcc", "n_instructions": 4000},
    {"structure": "iqueue", "workload": "turb3d", "n_instructions": 4000},
    {"structure": "tlb", "workload": "li", "n_refs": 20000, "warmup_refs": 5000},
    {"structure": "tlb", "workload": "applu", "n_refs": 20000, "warmup_refs": 5000},
    {"structure": "bpred", "workload": "perl", "n_branches": 4000},
    {"structure": "bpred", "workload": "vortex", "predictor": "bimodal",
     "n_branches": 4000},
)

#: Cold sizings: (field, lowest, highest) per structure, all below the hot set's.
COLD_SIZING = {
    "dcache": ("n_refs", 2000, 8000),
    "iqueue": ("n_instructions", 500, 2500),
    "tlb": ("n_refs", 2000, 8000),
    "bpred": ("n_branches", 500, 2500),
}

#: Workloads with a memory profile, so every structure accepts them.
WORKLOAD_NAMES = (
    "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex", "airshed",
    "stereo", "radar", "appcg", "tomcatv", "swim", "su2cor", "hydro2d", "mgrid",
    "applu", "turb3d", "apsi", "fpppp", "wave5",
)


@dataclass(frozen=True)
class Planned:
    """One request of the traffic sequence."""

    index: int
    hot: int | None  # index into HOT_SET, or None for a cold request
    fields: dict


def traffic(seed: int) -> Iterator[Planned]:
    """The endless, seed-determined request sequence."""
    rng = random.Random(seed)
    used: set[tuple] = set()
    index = 0
    while True:
        tenant = f"tenant-{rng.randrange(N_TENANTS):03d}"
        if rng.random() < HOT_SHARE:
            hot = rng.randrange(len(HOT_SET))
            fields = dict(HOT_SET[hot])
        else:
            hot = None
            fields = _cold_fields(rng, used)
        fields["tenant"] = tenant
        yield Planned(index, hot, fields)
        index += 1


def _cold_fields(rng: random.Random, used: set[tuple]) -> dict:
    while True:
        structure = rng.choice(tuple(COLD_SIZING))
        name, lo, hi = COLD_SIZING[structure]
        size = rng.randrange(lo, hi)
        fields = {"structure": structure, "workload": rng.choice(WORKLOAD_NAMES),
                  name: size}
        if structure in ("dcache", "tlb"):
            fields["warmup_refs"] = size // 4
        if structure == "bpred":
            fields["predictor"] = rng.choice(("gshare", "bimodal"))
        identity = tuple(sorted(fields.items()))
        if identity not in used:
            used.add(identity)
            return fields


# ---------------------------------------------------------------------------
# server lifecycle
# ---------------------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess, optionally with spans recorded."""

    def __init__(self, work: Path, name: str, spans_out: Path | None = None) -> None:
        self.cache_dir = work / f"{name}-cache"
        self.log = work / f"{name}.out"
        self.spans_out = spans_out
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self, timeout_s: float = 60.0) -> tuple[float, float]:
        """Spawn, wait for a healthy ``/healthz``; returns both monotonic times."""
        from repro.service.client import ServiceClient

        args = ["serve", "--port", "0", "--jobs", "1", "--cache-dir", str(self.cache_dir)]
        if self.spans_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                   str(self.spans_out), *args]
        spawned = time.monotonic()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
            )
        deadline = spawned + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode}: "
                                   f"{self.log.read_text()[-2000:]}")
            if not self.url:
                match = re.search(r"serving on (http://\S+)", self.log.read_text())
                if match:
                    self.url = match.group(1)
            if self.url:
                try:
                    if ServiceClient(self.url, timeout_s=5).healthz():
                        return spawned, time.monotonic()
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"server not healthy after {timeout_s:g}s")

    def peak_rss_mb(self) -> float:
        """The server's high-water RSS (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        if self.proc is not None:
            code = stop_process(self.proc)
            if code != 0:
                raise RuntimeError(f"server exited {code} on SIGTERM")


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    planned: Planned
    start: float  # time.monotonic() when the request was sent
    end: float  # ... and when its reply was in
    answer: Any  # the OptimizationResult, or None on failure
    error: str | None
    timed: bool  # False during the warm-up: checked, but not timed
    latency_s: float = 0.0  # set by drive(), in reference seconds


def _answer_digest(result) -> str:
    return digest({"best": result.best, "sweep": list(result.sweep)})


def drive(url: str, requests: Iterator[Planned], seconds: float, min_requests: int,
          sampler: SpeedSampler) -> tuple[list[Outcome], float]:
    """Closed-loop clients: a warm-up, then ``seconds`` of timed load.

    The timed interval lasts until ``min_requests`` timed requests are
    done too.  Returns every outcome and the timed interval's length,
    both in reference seconds.
    """
    from repro.api import OptimizationRequest
    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    outcomes: list[Outcome] = []
    stop = threading.Event()
    timed_from = time.monotonic() + WARMUP_S

    def client_loop() -> None:
        client = ServiceClient(url, timeout_s=60)
        while not stop.is_set():
            with lock:
                planned = next(requests)
            request = OptimizationRequest(**planned.fields)
            start = time.monotonic()
            answer = error = None
            try:
                answer = client.optimize(request, max_retries=0)
            except (ReproError, OSError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            outcomes.append(Outcome(planned, start, time.monotonic(), answer, error,
                                    start >= timed_from))

    threads = [threading.Thread(target=client_loop, daemon=True) for _ in range(N_CLIENTS)]
    for t in threads:
        t.start()
    cap = timed_from + seconds + OVERRUN_CAP_S
    while time.monotonic() < cap and (
        time.monotonic() - timed_from < seconds
        or sum(o.timed for o in outcomes) < min_requests
    ):
        time.sleep(0.05)
    stop.set()
    for t in threads:
        t.join(timeout=90)
        if t.is_alive():
            raise RuntimeError("a load client did not finish its last request")
    timed_to = time.monotonic()
    for o in outcomes:
        o.latency_s = (o.end - o.start) / sampler.slowdown(o.start, o.end)
    return outcomes, (timed_to - timed_from) / sampler.slowdown(timed_from, timed_to)


def prime(url: str) -> None:
    """Issue the hot set once, untimed, so it sits in the warm store."""
    from repro.api import OptimizationRequest
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout_s=60)
    for i, fields in enumerate(HOT_SET):
        client.optimize(OptimizationRequest(**fields, tenant=f"primer-{i}"))


def reference_answer(fields: dict) -> str:
    """The in-process answer to one request."""
    from repro.api import OptimizationRequest, run_query

    return _answer_digest(run_query(OptimizationRequest(**fields)))


def check(outcomes: list[Outcome], hot_answers: list[str], seed: int) -> int:
    """Failed requests plus answers that differ from the in-process ones."""
    failed = 0
    cold = []
    for o in outcomes:
        if o.error is not None:
            print(f"[service-mix] request {o.planned.index} failed: {o.error}",
                  file=sys.stderr)
            failed += 1
        elif o.planned.hot is not None:
            failed += _answer_digest(o.answer) != hot_answers[o.planned.hot]
        else:
            cold.append(o)
    sample = random.Random(seed).sample(cold, min(COLD_SAMPLE, len(cold)))
    for o in sample:
        fields = {k: v for k, v in o.planned.fields.items() if k != "tenant"}
        failed += _answer_digest(o.answer) != reference_answer(fields)
    return failed


def latencies(outcomes: list[Outcome], load_s: float, hot: bool | None = None
              ) -> list[float]:
    """Timed client latencies; a failed request counts as the whole interval."""
    return [
        o.latency_s if o.error is None else load_s
        for o in outcomes
        if o.timed and (hot is None or (o.planned.hot is not None) == hot)
    ]


# ---------------------------------------------------------------------------
# /metrics
# ---------------------------------------------------------------------------


def scrape(text: str) -> dict[str, float]:
    """The service.* per-layer metrics from one ``/metrics`` document."""
    from repro.obs.promtext import parse_prometheus

    families = parse_prometheus(text)

    def total(name: str, sample: str | None = None, **match: str) -> float:
        family = families.get(name)
        if family is None:
            return 0.0
        want = sample or name
        return sum(
            value for (s, labels), value in family.samples.items()
            if s == want and all((k, v) in labels for k, v in match.items())
        )

    def quantile(name: str, q: float, **match: str) -> float:
        # Linear interpolation inside the bucket, as Prometheus'
        # histogram_quantile does; the server's buckets are decade-wide.
        family = families.get(name)
        if family is None:
            return 0.0
        cumulative: dict[float, float] = defaultdict(float)
        for (s, labels), value in family.samples.items():
            label_map = dict(labels)
            if s == name + "_bucket" and all(label_map.get(k) == v for k, v in match.items()):
                cumulative[float(label_map["le"])] += value
        rank = q * cumulative.get(math.inf, 0.0)
        lower, below = 0.0, 0.0
        for le in sorted(cumulative):
            if rank and cumulative[le] >= rank:
                if math.isinf(le):
                    return lower
                return lower + (le - lower) * (rank - below) / (cumulative[le] - below)
            lower, below = le, cumulative[le]
        return 0.0

    admitted = total("repro_service_requests_total")
    batches = total("repro_service_batches_total")
    return {
        "service.warm_hit_ratio": (
            total("repro_service_warm_hits_total") / admitted if admitted else 0.0
        ),
        "service.singleflight_merged": total("repro_service_singleflight_merged_total"),
        "service.batches": batches,
        "service.batch_cells_mean": (
            total("repro_service_batch_cells", "repro_service_batch_cells_sum") / batches
            if batches else 0.0
        ),
        "service.queue_wait_p50_s": quantile("repro_service_queue_wait_seconds", 0.50),
        "service.queue_wait_p99_s": quantile("repro_service_queue_wait_seconds", 0.99),
        "service.server_request_p50_s": quantile(
            "repro_service_request_seconds", 0.50, method="POST"
        ),
        "service.cells_computed": total("repro_engine_cache_misses_total"),
        "service.rejections": (
            total("repro_service_quota_rejections_total")
            + total("repro_service_overload_rejections_total")
        ),
    }


# ---------------------------------------------------------------------------
# the two runs
# ---------------------------------------------------------------------------


def run(seed: int, seconds: float, traced: bool, sampler: SpeedSampler, work: Path
        ) -> tuple[int, int, dict[str, float]]:
    """One run; returns (attempted, failed, metrics)."""
    hot_answers = [reference_answer(fields) for fields in HOT_SET]
    if traced:
        return _per_layer(seed, seconds, work, hot_answers, sampler)
    return _end_to_end(seed, seconds, work, hot_answers, sampler)


def _boot(server: Server, sampler: SpeedSampler) -> float:
    """Start ``server``; the spawn-to-healthy time in reference seconds."""
    spawned, healthy = server.start()
    return (healthy - spawned) / sampler.slowdown(spawned, healthy)


def _end_to_end(seed, seconds, work, hot_answers, sampler):
    boots = []
    for i in range(BOOTS - 1):
        server = Server(work, f"boot{i}")
        try:
            boots.append(_boot(server, sampler))
        finally:
            server.stop()
    server = Server(work, "load")
    try:
        boots.append(_boot(server, sampler))
        prime(server.url)
        outcomes, load_s = drive(server.url, traffic(seed), seconds, MIN_REQUESTS,
                                 sampler)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    failed = check(outcomes, hot_answers, seed)
    everything = latencies(outcomes, load_s)
    timed = [o for o in outcomes if o.timed]
    print(f"[service-mix] {len(timed)} timed requests in {load_s:.1f} reference s "
          f"after {len(outcomes) - len(timed)} warm-up requests; "
          f"{sum(o.planned.hot is not None for o in timed)} hot; "
          f"setup samples {[round(b, 3) for b in boots]}; "
          f"host slowdown {sampler.overall():.2f}x")
    metrics = {
        "setup_s": median(boots),
        "cold_s": median(latencies(outcomes, load_s, hot=False)),
        "warm_s": median(latencies(outcomes, load_s, hot=True)),
        "peak_rss_mb": rss,
        "throughput_rps": sum(o.error is None for o in timed) / load_s,
        "latency_p50_s": nearest_rank(everything, 50),
        "latency_p99_s": nearest_rank(everything, 99),
    }
    return len(outcomes), failed, metrics


def _per_layer(seed, seconds, work, hot_answers, sampler):
    from repro.service.client import ServiceClient

    # Untraced baseline for the tracing overhead: same traffic, half as long.
    server = Server(work, "baseline")
    try:
        server.start()
        prime(server.url)
        baseline, base_s = drive(server.url, traffic(seed), seconds / 2, 0, sampler)
    finally:
        server.stop()

    recorder = spans.Recorder()
    spans.install(recorder, spans.CLIENT)
    spans_out = work / "server.spans.json"
    server = Server(work, "traced", spans_out)
    try:
        server.start()
        prime(server.url)
        outcomes, load_s = drive(server.url, traffic(seed), seconds, 0, sampler)
        scraped = scrape(ServiceClient(server.url, timeout_s=60).metrics_text())
    finally:
        server.stop()
    failed = check(baseline + outcomes, hot_answers, seed)

    server_spans, _ = spans.load(spans_out)
    metrics = spans.summarize(server_spans)
    client_s = sum(s["end"] - s["start"] for s in recorder.spans if "end" in s)
    traced_latencies = latencies(outcomes, load_s)
    base_latencies = latencies(baseline, base_s)
    mean_traced = sum(traced_latencies) / len(traced_latencies)
    mean_base = sum(base_latencies) / len(base_latencies)
    metrics.update(scraped)
    metrics.update({
        "loadgen.hot_p50_s": median(latencies(outcomes, load_s, hot=True)),
        "loadgen.cold_p50_s": median(latencies(outcomes, load_s, hot=False)),
        "loadgen.cold_p99_s": nearest_rank(latencies(outcomes, load_s, hot=False), 99),
        "trace.wall_s": client_s,
        "trace.unattributed_s": client_s - metrics["trace.attributed_s"],
        "trace.overhead_pct": 100.0 * (mean_traced / mean_base - 1.0),
    })
    print(f"[service-mix] traced: {len(traced_latencies)} timed requests in "
          f"{load_s:.1f}s; baseline: {len(base_latencies)}")
    return len(baseline) + len(outcomes), failed, metrics
