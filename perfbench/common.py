"""Helpers shared by run.py, its pass runner and its tests.

Everything here is stdlib, so run.py can import it before it knows
whether the checkout's ``src/repro`` is usable.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Sequence

#: Directory holding the benchmark's own files.
BENCH_DIR = Path(__file__).resolve().parent
#: Root of the checkout under test (the benchmark sits one level down).
ROOT = BENCH_DIR.parent
#: The program's sources; every child interpreter imports ``repro`` from here.
SRC = ROOT / "src"
#: Scratch space for cache dirs, span files and pass reports.
WORK_DIR = ROOT / ".perfbench_work"
#: Per-figure digests of the seed code's figure data.
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"


def require_program() -> None:
    """Exit non-zero, printing no result, when the checkout lacks ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH_DIR), env.get("PYTHONPATH", "")) if p
    )
    # Fixed str hashing: set and dict layouts repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_to_one_cpu() -> None:
    """Pin this process (and the children it spawns) to its lowest allowed CPU.

    Every process that calls this lands on the same CPU, which is what
    the speed sampler (``speed.py``) needs: it probes the CPU it runs on.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def new_work_dir(prefix: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR))


def stop_process(proc: subprocess.Popen, timeout_s: float = 15.0) -> int:
    """SIGTERM, wait; SIGKILL if it will not go.  Returns the exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout_s)
    return proc.returncode


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with >= pct% at or below.

    ``pct`` is in (0, 100].  Values may include ``math.inf`` (a failed
    request counts as missing every latency limit).
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (an element of the sample, never interpolated)."""
    return nearest_rank(values, 50)


def settled(values: Sequence[float], min_samples: int = 5, tol: float = 0.1) -> bool:
    """Whether the median of a growing sample has stopped moving.

    True once there are ``min_samples`` values and the median of all of
    them is within ``tol`` (a share) of the median without the last two.
    """
    if len(values) < min_samples:
        return False
    before, now = median(values[:-2]), median(values)
    return abs(now - before) <= tol * before


# ---------------------------------------------------------------------------
# figure-data digests
# ---------------------------------------------------------------------------


def canonical(obj: Any) -> Any:
    """Plain-JSON form of a harness result (dataclasses, dicts, numpy)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if type(obj).__module__ == "numpy":
        return canonical(obj.tolist())  # ndarray or numpy scalar
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__}")


def digest(obj: Any) -> str:
    """SHA-256 of a result's canonical JSON.

    Floats serialise as their shortest round-trip repr, so a one-ulp
    change in any value changes the digest.
    """
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict[str, dict[str, str]]:
    """``{workload: {figure: digest}}`` kept with the benchmark."""
    return json.loads(REFERENCE_FILE.read_text())
