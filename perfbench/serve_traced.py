"""``repro serve`` with the benchmark's spans installed.

    python3 perfbench/serve_traced.py SPANS_OUT serve [serve flags...]

Wraps the same public entry points as a traced figure pass, runs the
CLI, and writes the spans to ``SPANS_OUT`` when the server exits after
SIGTERM.
"""

from __future__ import annotations

import atexit
import sys

from spans import FULL, Recorder, install

import repro.cli


def main(argv: list[str]) -> int:
    recorder = Recorder()
    install(recorder, FULL)
    atexit.register(recorder.dump, argv[0])
    return repro.cli.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
