"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {fig-queue,fig-cache,service-mix} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps the program's public entry
points and reports per-layer self times and counts.  Human-readable
lines go first; the last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 perfbench/run.py --write-reference`` recomputes the figure
digests in ``reference_digests.json`` (serial, no cache) — run it only
when a change is meant to alter figure data.

See ``perfbench/README.md`` for the workloads, the metrics and what is
deliberately not measured.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import service_mix
import spans
from common import (
    BENCH_DIR,
    REFERENCE_FILE,
    ROOT,
    SRC,
    child_env,
    load_reference,
    median,
    nearest_rank,
    new_work_dir,
    pin_to_one_cpu,
    require_program,
    settled,
)
from speed import SpeedSampler

FIG_WORKLOADS = ("fig-queue", "fig-cache")
WORKLOADS = FIG_WORKLOADS + ("service-mix",)

#: Pool size of the traced run's pooled pass.  The timed passes run
#: serially (``jobs=1``): see :func:`fig_end_to_end`.
JOBS = 2
#: Warm passes after each cold pass.
WARM_PER_COLD = 8
#: Extra seconds a run may spend on warm passes until their median settles.
SETTLE_BUDGET_S = 10.0
#: A single pass that takes longer than this is a failure.
PASS_TIMEOUT_S = 150.0


def output_problems(report: dict, reference: dict[str, str], warm: bool) -> list[str]:
    """Why a pass's output is wrong: digest mismatches, warm-pass misses."""
    problems = [
        f"figure {fig} digest differs from the reference"
        for fig, want in reference.items()
        if report["digests"].get(fig) != want
    ]
    if warm and report["stats"]["cache_misses"] != 0:
        problems.append(f"warm pass computed {report['stats']['cache_misses']} cells")
    return problems


class FigRun:
    """Spawns figure passes and checks each one's output."""

    def __init__(self, workload: str, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.reference = load_reference()[workload]
        self.attempted = 0
        self.failed = 0
        self._n = 0
        self._headline_printed = False

    def cache_dir(self) -> Path:
        self._n += 1
        return self.work / f"cache{self._n}"

    def run_pass(
        self, cache_dir: Path | None, *, warm: bool = False, jobs: int = 1,
        instrument: str = "none",
    ) -> dict | None:
        """One pass in a fresh interpreter; ``None`` if it failed."""
        self.attempted += 1
        self._n += 1
        out = self.work / f"pass{self._n}.json"
        cmd = [
            sys.executable, str(BENCH_DIR / "figpass.py"), self.workload,
            "--jobs", str(jobs), "--instrument", instrument, "--out", str(out),
        ]
        if cache_dir is not None:
            cmd += ["--cache-dir", str(cache_dir)]
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(spawned_at)],
                env=child_env(), cwd=ROOT, timeout=PASS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"[{self.workload}] pass timed out", file=sys.stderr)
            self.failed += 1
            return None
        if proc.returncode != 0:
            print(f"[{self.workload}] pass exited {proc.returncode}", file=sys.stderr)
            self.failed += 1
            return None
        report = json.loads(out.read_text())
        problems = output_problems(report, self.reference, warm)
        for problem in problems:
            print(f"[{self.workload}] {problem}", file=sys.stderr)
        if problems:
            self.failed += 1
            return None
        if not self._headline_printed:
            self._headline_printed = True
            print(f"[{self.workload}] headline: "
                  f"{json.dumps(report['headline'], sort_keys=True)}")
        if instrument != "none":
            report["spans_file"] = str(out.with_suffix(".spans.json"))
        return report


def in_reference_seconds(report: dict, sampler: SpeedSampler) -> dict:
    """Add a pass's set-up and call times in reference seconds."""
    calls_ref = {
        f: t / sampler.slowdown(*report["windows"][f]) for f, t in report["calls"].items()
    }
    report["setup_ref_s"] = report["setup_s"] / sampler.slowdown(*report["setup_window"])
    report["calls_ref"] = calls_ref
    report["wall_ref_s"] = sum(calls_ref.values())
    report["slowdown"] = sampler.slowdown(report["setup_window"][0],
                                          max(w[1] for w in report["windows"].values()))
    return report


def fig_end_to_end(workload: str, seconds: float, work: Path, sampler: SpeedSampler
                   ) -> tuple[FigRun, dict]:
    """Cold-then-warm cycles until ``seconds`` pass; metrics over the run.

    Every time is in reference seconds (``speed.py``).  The passes run
    serially, on the one CPU the run is pinned to, because the host's
    vCPUs drift in speed independently: a pooled pass spreads over two
    of them, and no probe can say how fast both ran.  The traced run
    still times a pooled pass (``engine.pooled_cold_s``).
    """
    runner = FigRun(workload, work)
    colds: list[dict] = []
    warms: list[dict] = []
    start = time.monotonic()
    while not colds or time.monotonic() - start < seconds:
        if not colds and runner.failed >= 3:
            raise SystemExit(f"{workload}: three cold passes failed")
        cache = runner.cache_dir()
        cold = runner.run_pass(cache)
        if cold is None:
            continue
        colds.append(in_reference_seconds(cold, sampler))
        for _ in range(WARM_PER_COLD):
            warm = runner.run_pass(cache, warm=True)
            if warm is not None:
                warms.append(in_reference_seconds(warm, sampler))
    settle_until = time.monotonic() + SETTLE_BUDGET_S
    while time.monotonic() < settle_until and not (
        settled([w["wall_ref_s"] for w in warms])
        and settled([p["setup_ref_s"] for p in colds + warms])
    ):
        warm = runner.run_pass(cache, warm=True)
        if warm is not None:
            warms.append(in_reference_seconds(warm, sampler))
    if not warms:
        raise SystemExit(f"{workload}: no pass completed its output check")

    passes = colds + warms
    # A run makes too few calls for sample percentiles over them, and half
    # of fig-cache's calls are ~10 ms reads of cells an earlier figure
    # stored: a median over calls sits on one of those and jumps by a
    # fifth between runs.  So p50 is the mean call of a cold pass, and
    # p99 the slowest figure's lower-quartile call (its fastest of up to
    # four cold passes).
    n_figures = len(colds[0]["calls"])
    slowest = max(
        nearest_rank([c["calls_ref"][f] for c in colds], 25) for f in colds[0]["calls"]
    )
    cold_total = sum(c["wall_ref_s"] for c in colds)
    metrics = {
        "setup_s": median([p["setup_ref_s"] for p in passes]),
        "cold_s": median([c["wall_ref_s"] for c in colds]),
        # The lower quartile: a warm pass is short enough that a slow spell
        # of the host the probe does not fully see can cover most of a run's.
        "warm_s": nearest_rank([w["wall_ref_s"] for w in warms], 25),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "throughput_rps": n_figures * len(colds) / cold_total,
        "latency_p50_s": median([c["wall_ref_s"] / n_figures for c in colds]),
        "latency_p99_s": slowest,
    }
    print(f"[{workload}] {len(colds)} cold and {len(warms)} warm passes; "
          f"as measured: cold {median([c['wall_s'] for c in colds]):.3f}s, "
          f"warm {median([w['wall_s'] for w in warms]):.4f}s, "
          f"setup {median([p['setup_s'] for p in passes]):.3f}s; "
          f"host slowdown {median([p['slowdown'] for p in passes]):.2f}x")
    return runner, metrics


def fig_per_layer(workload: str, work: Path, sampler: SpeedSampler
                  ) -> tuple[FigRun, dict]:
    """Pooled, serial and traced-serial cold passes; per-layer metrics.

    Kernel time inside ``jobs=2`` pool workers runs in parallel with the
    parent and cannot add up to the pass's wall time, so the spans come
    from a traced ``jobs=1`` pass, and the pool's own figures from a
    pooled pass with only the executor wrapped.
    """
    runner = FigRun(workload, work)
    pooled = runner.run_pass(runner.cache_dir(), jobs=JOBS, instrument="engine")
    serial = runner.run_pass(runner.cache_dir())
    traced = runner.run_pass(runner.cache_dir(), instrument="full")
    if pooled is None or serial is None or traced is None:
        raise SystemExit(f"{workload}: a traced-run pass failed its output check")
    in_reference_seconds(serial, sampler)
    in_reference_seconds(traced, sampler)

    pool_spans, pool_counters = spans.load(pooled["spans_file"])
    pool_s = sum(s["end"] - s["start"] for s in pool_spans)
    busy_s = pooled["stats"]["busy_s"]
    traced_spans, _ = spans.load(traced["spans_file"])
    metrics = spans.summarize(traced_spans)
    metrics.update({
        "engine.pool_s": pool_s,
        "engine.busy_s": busy_s,
        "engine.pool_utilization": busy_s / (JOBS * pool_s) if pool_s > 0 else 0.0,
        "engine.pool_spawns": pool_counters.get("pool_spawns", 0),
        "engine.retries": sum(s.get("counts", {}).get("retries", 0) for s in pool_spans),
        "engine.serial_cold_s": serial["wall_s"],
        "engine.pooled_cold_s": pooled["wall_s"],
        "trace.wall_s": traced["wall_s"],
        "trace.unattributed_s": traced["wall_s"] - metrics["trace.attributed_s"],
        "trace.overhead_pct": 100.0 * (traced["wall_ref_s"] / serial["wall_ref_s"] - 1.0),
    })
    return runner, metrics


def write_reference() -> None:
    """Recompute every figure digest serially, without a cache."""
    work = new_work_dir("reference-")
    try:
        reference = {}
        for workload in FIG_WORKLOADS:
            out = work / f"{workload}.json"
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "figpass.py"), workload,
                 "--jobs", "1", "--out", str(out),
                 "--spawned-at", repr(time.monotonic())],
                env=child_env(), cwd=ROOT, check=True, timeout=PASS_TIMEOUT_S,
            )
            reference[workload] = json.loads(out.read_text())["digests"]
        REFERENCE_FILE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE_FILE}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    require_program()
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    work = new_work_dir(f"{args.workload}-")
    # The run and everything it spawns share one CPU with the speed
    # sampler, except in a figure workload's traced run, whose pooled
    # pass needs every CPU: there only the serial passes pin themselves.
    if args.workload == "service-mix" or not args.trace:
        pin_to_one_cpu()
    sampler = SpeedSampler(work / "speed.txt")
    try:
        sampler.start()
        if args.workload == "service-mix":
            attempted, failed, metrics = service_mix.run(
                args.seed, args.seconds, bool(args.trace), sampler, work
            )
        else:
            if args.trace:
                runner, metrics = fig_per_layer(args.workload, work, sampler)
            else:
                runner, metrics = fig_end_to_end(args.workload, args.seconds, work,
                                                 sampler)
            attempted, failed = runner.attempted, runner.failed
    finally:
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)

    metrics["success_rate"] = 1.0 - failed / attempted
    print(f"[{args.workload}] error_rate {failed / attempted:.6f} "
          f"({failed} of {attempted} failed)")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {}
    for metric in declared["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        # A layer the workload does not exercise reports 0.
        value = float(metrics.get(name, 0.0) if args.trace else metrics[name])
        result[name] = {"value": value, "unit": unit}
        print(f"[{args.workload}] {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
