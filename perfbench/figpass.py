"""One figure pass in a fresh interpreter: the unit the fig-* workloads time.

Usage (run.py builds this command line)::

    python3 perfbench/figpass.py WORKLOAD [--cache-dir DIR] --jobs N \\
        --instrument {none,engine,full} --spawned-at T --out REPORT.json

Each pass runs in its own interpreter because the program keeps
per-process memos (``engine.cells._HISTOGRAM_MEMO`` and
``_TLB_HISTOGRAM_MEMO``, ``interval_study._SERIES_CACHE``,
``queue_study._SWEEP_CACHE``): a second pass in the same interpreter
would be partly warm whatever the on-disk cache holds, and a "warm"
pass would skip the interpreter start-up a user pays for every
``repro figure N``.

The report holds the set-up time (``--spawned-at`` is the parent's
``time.monotonic()`` just before it spawned this process; the
monotonic clock is system-wide on Linux), each harness call's wall
time, each figure's data digest, the engine's counters, the paper
headline numbers and the process's peak RSS, and the monotonic window
of the set-up and of each call, which run.py needs to put the times in
reference seconds (see ``speed.py``).  A serial pass pins itself to the
speed sampler's CPU; a pooled one keeps every CPU.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from common import SRC, digest, median, pin_to_one_cpu
from spans import ENGINE, FULL, Recorder, count_pool_spawns, install

import repro
from repro.engine.engine import ExperimentEngine
from repro.experiments import (
    cache_study,
    extended_structures,
    interval_study,
    queue_study,
    wire_delay,
)

#: The harness calls of each figure workload, with the arguments
#: ``repro figure N`` (and ``repro extension tlb|bpred``) pass.
HARNESSES = {
    "fig-queue": (
        ("10", lambda e: queue_study.figure10(engine=e)),
        ("11", lambda e: queue_study.figure11(engine=e)),
        ("12", lambda e: interval_study.figure12(intervals_per_phase=30, engine=e)),
        ("13a", lambda e: interval_study.figure13(True, engine=e)),
        ("13b", lambda e: interval_study.figure13(False, engine=e)),
    ),
    "fig-cache": (
        ("1a", lambda e: wire_delay.figure1(subarray_kb=2)),
        ("1b", lambda e: wire_delay.figure1(subarray_kb=4)),
        ("2", lambda e: wire_delay.figure2()),
        ("7", lambda e: cache_study.figure7(engine=e)),
        ("8", lambda e: cache_study.figure8_9(engine=e)),
        ("9", lambda e: cache_study.figure8_9(engine=e)),
        ("tlb", lambda e: extended_structures.tlb_study(engine=e)),
        ("bpred", lambda e: extended_structures.branch_study(engine=e)),
    ),
}


def headline(results: dict) -> dict[str, float]:
    """The paper's headline numbers, read off the checked figure data."""
    out: dict[str, float] = {}
    if "9" in results:
        out["fig9_avg_tpi_reduction_pct"] = results["9"].tpi.average_reduction_percent()
    if "11" in results:
        out["fig11_conventional_entries"] = results["11"].conventional_size
        out["fig11_avg_tpi_reduction_pct"] = (
            results["11"].tpi.average_reduction_percent()
        )
    if "13a" in results:
        runs = [length for _, length in results["13a"].stability_runs()]
        out["fig13a_median_run_length"] = median(runs)
    if "13b" in results:
        out["fig13b_flips"] = len(results["13b"].stability_runs()) - 1
    return out


def run_pass(args: argparse.Namespace) -> dict:
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    recorder = Recorder()
    if args.instrument == "full":
        install(recorder, FULL)
    elif args.instrument == "engine":
        install(recorder, ENGINE)
        count_pool_spawns(recorder)
    engine = ExperimentEngine(jobs=args.jobs, cache_dir=args.cache_dir)
    ready = time.monotonic()
    setup_s = ready - args.spawned_at

    calls: dict[str, float] = {}
    windows: dict[str, tuple[float, float]] = {}
    digests: dict[str, str] = {}
    results: dict = {}
    for figure, harness in HARNESSES[args.workload]:
        start = time.monotonic()
        result = harness(engine)
        end = time.monotonic()
        calls[figure] = end - start
        windows[figure] = (start, end)
        digests[figure] = digest(result)
        results[figure] = result
    if args.instrument != "none":
        recorder.dump(Path(args.out).with_suffix(".spans.json"))
    return {
        "setup_s": setup_s,
        "setup_window": (args.spawned_at, ready),
        "calls": calls,
        "windows": windows,
        "wall_s": sum(calls.values()),
        "digests": digests,
        "headline": headline(results),
        "stats": asdict(engine.stats),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(HARNESSES))
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: no cache)")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--instrument", choices=("none", "engine", "full"),
                        default="none")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.jobs == 1:
        pin_to_one_cpu()  # onto the speed sampler's CPU
    report = run_pass(args)
    Path(args.out).write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
