"""Host-speed normalisation for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts:
the same code takes up to ~1.6x longer for seconds to minutes at a time,
depending on what the host's other tenants run, and the guest sees next
to no steal time for it.  Each vCPU drifts on its own, so a probe on one
says nothing about another.  Raw wall times then measure the neighbours
as much as the program: ten runs of the same code spread by half their
median.

So every timed process is pinned to one CPU, the same for all of them,
and a sampler process there (``python3 perfbench/speed.py OUT``) times
a fixed probe every :data:`PERIOD_S` on its own thread CPU clock and
appends each reading to ``OUT``.  The CPU clock leaves out the time the
sampler waits for the CPU, so the load the program puts on the CPU does
not count.  The probe is the benchmark's own code, so no
change to the program can move it.

The probes' mean CPU time over a window, against
:data:`REFERENCE_PROBE_S`, says how much slower than the reference the
CPU ran there.  The program slows down more than the probe does: a
log-log fit over 3 s windows of the OOO, stack-distance and query
kernels against the probe gives slopes of 1.6-1.75 on the 2-vCPU host,
so the host's slowdown for the program is the probe's raised to
:data:`SENSITIVITY`.  A wall time divided by it is in *reference
seconds*: what the timing would read with the host at reference speed.
The probe runs a wide mix of interpreter code (parsing, compiling,
regexes, fractions, statistics, heaps, JSON), because contention from a
sibling hyperthread hurts code with a large footprint more than a tight
loop.
"""

from __future__ import annotations

import ast
import bisect
import colorsys
import difflib
import fractions
import heapq
import json
import random
import re
import statistics
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from common import pin_to_one_cpu

#: Seconds between two probes.  Each probe takes the CPU from the program
#: for ~1.5 ms, so a call of 10 ms catches one probe about once in seven.
PERIOD_S = 0.1
#: Shortest window a slowdown is averaged over: a short call's own window
#: holds one probe or none, and one probe reads within ~20%.
MIN_WINDOW_S = 1.0
#: The probe's CPU time with the host at reference speed: the fast state
#: of the 2-vCPU Xeon (KVM guest) the benchmark was sized on.
REFERENCE_PROBE_S = 1.2e-3
#: How much more the program slows down than the probe, as an exponent.
SENSITIVITY = 1.6

_WORDS = ("alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi "
          "omicron pi rho sigma tau upsilon phi chi psi omega").split()
_TEXT = " ".join(_WORDS * 3)
_TEXT_REVERSED = " ".join(reversed(_WORDS * 3))
_SOURCE = "def f(a, b=2, *c):\n    return [x * b for x in range(a) if x % 3] + list(c)\n"


def probe() -> float:
    """About 1.2 ms of fixed interpreter work over much of the standard library."""
    rng = random.Random(7)
    nums = [rng.random() for _ in range(200)]
    total = statistics.fmean(nums) + statistics.median(nums) + statistics.pstdev(nums)
    total += float(sum(fractions.Fraction(i, i + 1) for i in range(1, 20)))
    namespace: dict = {}
    exec(compile(ast.parse(_SOURCE), "<probe>", "exec"), namespace)
    total += len(namespace["f"](30, 3, 1, 2))
    total += difflib.SequenceMatcher(None, _TEXT[:200], _TEXT_REVERSED[:200]).ratio()
    total += len(textwrap.wrap(_TEXT, 30))
    total += len(re.findall(r"\b[a-m]\w+", _TEXT))
    heap = list(nums)
    heapq.heapify(heap)
    total += sum(heapq.heappop(heap) for _ in range(50))
    total += bisect.bisect(sorted(nums), 0.5)
    total += sum(colorsys.rgb_to_hsv(x, 0.5, 0.25)[0] for x in nums[:50])
    total += len(json.dumps({w: i for i, w in enumerate(_WORDS)}))
    return total


class SpeedSampler:
    """Runs the sampler process and reads its probes back."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self._proc: subprocess.Popen | None = None
        self._times: list[float] = []
        self._cpu: list[float] = []
        self._read = 0

    def start(self) -> "SpeedSampler":
        """Spawn the sampler and wait for its first probe."""
        self.out.write_text("")
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.out)],
            stdin=subprocess.PIPE,
        )
        deadline = time.monotonic() + 60
        while not self._refresh():
            if self._proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the speed sampler did not start")
            time.sleep(0.01)
        return self

    def stop(self) -> None:
        """Close the sampler's stdin and wait for it to exit."""
        if self._proc is None:
            return
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._refresh()

    def _refresh(self) -> bool:
        with open(self.out) as f:
            f.seek(self._read)
            chunk = f.read()
        complete = chunk[: chunk.rfind("\n") + 1]
        self._read += len(complete)
        for line in complete.splitlines():
            at, cpu = line.split()
            self._times.append(float(at))
            self._cpu.append(float(cpu))
        return bool(self._times)

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than the reference the CPU ran in ``[t0, t1]``.

        Averages the probes that ended in the window, widened about its
        middle to :data:`MIN_WINDOW_S`, plus the nearest one on each side.
        ``t0`` and ``t1`` are ``time.monotonic()`` readings, which are
        system-wide on Linux.
        """
        widen = max(MIN_WINDOW_S - (t1 - t0), 0.0) / 2
        t0, t1 = t0 - widen, t1 + widen
        self._refresh()
        lo = max(bisect.bisect_left(self._times, t0) - 1, 0)
        hi = bisect.bisect_right(self._times, t1) + 1
        window = self._cpu[lo:hi]
        return (sum(window) / len(window) / REFERENCE_PROBE_S) ** SENSITIVITY

    def overall(self) -> float:
        """The mean slowdown over every probe so far."""
        return self.slowdown(-float("inf"), float("inf"))


def _sample_until_stdin_closes(out: Path) -> None:
    import threading

    pin_to_one_cpu()
    closed = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), closed.set()), daemon=True).start()
    with open(out, "a") as f:
        while not closed.is_set():
            start = time.thread_time()
            probe()
            cpu = time.thread_time() - start
            f.write(f"{time.monotonic()!r} {cpu!r}\n")
            f.flush()
            closed.wait(PERIOD_S)


if __name__ == "__main__":
    _sample_until_stdin_closes(Path(sys.argv[1]))
