"""Render a trace file human-readable: what did the stack decide, and why?

:func:`summarize_trace` digests a span/event stream into the report the
``repro obs summarize`` subcommand prints:

* **reconfigurations** — how many fired, per structure, and the top
  triggers (probe, controller switch, context switch, process-level
  selection...);
* **interval TPI timeline** — the per-interval TPI the monitoring
  hardware observed, in order;
* **candidate evaluations** — how many configurations were scored;
* **engine runs** — one line per ``engine.map`` span: cells, cache hits
  and misses, elapsed and busy time, jobs and worker utilization;
* **hottest evaluators** — wall time per engine cell kind and per
  structure ``run()``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.schema import read_records, validate_trace

#: Most intervals shown individually in the timeline before eliding.
TIMELINE_LIMIT: int = 24


def _fmt(value: Any, spec: str = "") -> str:
    if isinstance(value, (int, float)):
        return format(value, spec)
    return "?"


def _utilization(attrs: Mapping[str, Any]) -> float | None:
    """``busy / (elapsed * jobs)`` of one engine run, if computable."""
    busy, elapsed, jobs = (attrs.get(k) for k in ("busy_s", "elapsed_s", "jobs"))
    if not all(isinstance(v, (int, float)) for v in (busy, elapsed, jobs)):
        return None
    return busy / (elapsed * jobs) if elapsed > 0 else 0.0


def summarize_engine_runs(spans: Iterable[Mapping[str, Any]]) -> str:
    """Digest of the ``engine.map`` spans in ``spans``, one line per run.

    Tolerates spans missing attributes — a run that raised before its
    counters were set renders with ``?`` placeholders instead of raising.
    """
    lines = []
    for s in spans:
        if s.get("name") != "engine.map":
            continue
        attrs = s.get("attrs", {})
        lines.append(
            f"run {attrs.get('run_id', '?')}: {_fmt(attrs.get('n_cells'))} cells "
            f"({_fmt(attrs.get('cache_hits'))} cached, "
            f"{_fmt(attrs.get('cache_misses'))} computed) "
            f"in {_fmt(attrs.get('elapsed_s'), '.3f')}s "
            f"on {_fmt(attrs.get('jobs'))} job(s), "
            f"busy {_fmt(attrs.get('busy_s'), '.3f')}s, "
            f"utilization {_fmt(_utilization(attrs), '.0%')}"
        )
    if not lines:
        return "no completed runs"
    return "\n".join(lines)


def _timeline(intervals: Sequence[Mapping[str, Any]]) -> list[str]:
    lines = [f"interval TPI timeline ({len(intervals)} interval(s)):"]
    tpis = [
        s["attrs"]["tpi_ns"]
        for s in intervals
        if isinstance(s["attrs"].get("tpi_ns"), (int, float))
    ]
    shown = intervals[:TIMELINE_LIMIT]
    for i, s in enumerate(shown):
        attrs = s["attrs"]
        label = attrs.get("app", attrs.get("index", i))
        cfg = attrs.get("configuration", "?")
        lines.append(
            f"  [{label}] config={cfg} tpi={_fmt(attrs.get('tpi_ns'), '.4f')} ns"
        )
    if len(intervals) > len(shown):
        lines.append(f"  ... {len(intervals) - len(shown)} more interval(s)")
    if tpis:
        lines.append(
            f"  mean {sum(tpis) / len(tpis):.4f} ns, "
            f"min {min(tpis):.4f} ns, max {max(tpis):.4f} ns"
        )
    return lines


def _shard_count(records: Sequence[Mapping[str, Any]]) -> int:
    """Distinct worker-shard id prefixes (``w<hex>-``) in the records."""
    prefixes = {
        r["id"].partition("-")[0]
        for r in records
        if isinstance(r.get("id"), str) and r["id"].startswith("w") and "-" in r["id"]
    }
    return len(prefixes)


def summarize_trace(records: Sequence[Mapping[str, Any]]) -> str:
    """Human-readable report over validated trace records.

    A file holding one trace renders as a single report.  A stitched or
    multi-request file (several trace ids, worker span shards merged in)
    gets a per-trace breakdown: one section per trace id, in order of
    first appearance, each noting how many worker shards contributed.
    """
    validate_trace(records)
    spans = [r for r in records if r["record"] == "span"]
    events = [r for r in records if r["record"] == "event"]
    by_trace: dict[str, list[Mapping[str, Any]]] = {}
    for r in records:
        by_trace.setdefault(r["trace_id"], []).append(r)
    header = (
        f"trace summary: {len(spans)} span(s), {len(events)} event(s), "
        f"{len(by_trace)} trace(s)"
    )
    if len(by_trace) <= 1:
        return "\n".join([header] + _trace_body(spans, events))
    out = [header]
    for tid, recs in by_trace.items():
        t_spans = [r for r in recs if r["record"] == "span"]
        t_events = [r for r in recs if r["record"] == "event"]
        shards = _shard_count(recs)
        title = (
            f"--- trace {tid}: {len(t_spans)} span(s), "
            f"{len(t_events)} event(s)"
        )
        if shards:
            title += f", {shards} worker shard(s)"
        out.append("")
        out.append(title)
        out.extend(_trace_body(t_spans, t_events))
    return "\n".join(out)


def _trace_body(
    spans: Sequence[Mapping[str, Any]], events: Sequence[Mapping[str, Any]]
) -> list[str]:
    """The per-trace report sections (everything below the header)."""
    out: list[str] = []

    # -- reconfigurations -------------------------------------------------
    reconfigures = [s for s in spans if s["level"] == "reconfigure"]
    out.append("")
    out.append(f"reconfigurations: {len(reconfigures)} total")
    by_structure: dict[str, int] = {}
    by_trigger: dict[str, int] = {}
    for s in reconfigures:
        by_structure[str(s["attrs"].get("structure", "?"))] = (
            by_structure.get(str(s["attrs"].get("structure", "?")), 0) + 1
        )
        by_trigger[str(s["attrs"].get("trigger", "?"))] = (
            by_trigger.get(str(s["attrs"].get("trigger", "?")), 0) + 1
        )
    if by_structure:
        out.append(
            "  by structure: "
            + ", ".join(f"{k}={v}" for k, v in sorted(by_structure.items()))
        )
    if by_trigger:
        out.append("  top triggers:")
        for trigger, count in sorted(
            by_trigger.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            out.append(f"    {trigger}: {count}")

    # -- interval timeline ------------------------------------------------
    intervals = [s for s in spans if s["level"] == "interval"]
    out.append("")
    if intervals:
        out.extend(_timeline(intervals))
    else:
        out.append("interval TPI timeline: no interval spans recorded")

    # -- candidate evaluations -------------------------------------------
    candidates = [s for s in spans if s["level"] == "candidate"]
    if candidates:
        per_structure: dict[str, int] = {}
        for s in candidates:
            name = str(s["attrs"].get("structure", "?"))
            per_structure[name] = per_structure.get(name, 0) + 1
        out.append("")
        out.append(
            f"candidate evaluations: {len(candidates)} "
            + "("
            + ", ".join(f"{k}={v}" for k, v in sorted(per_structure.items()))
            + ")"
        )

    # -- engine runs ------------------------------------------------------
    runs = [s for s in spans if s["name"] == "engine.map"]
    if runs:
        out.append("")
        out.append(f"engine runs: {len(runs)}")
        out.extend(f"  {line}" for line in summarize_engine_runs(runs).splitlines())

    # -- hottest evaluators ----------------------------------------------
    hot: dict[str, list[float]] = {}
    for e in events:
        if e["name"] != "engine.cell":
            continue
        kind = str(e["attrs"].get("kind", "?"))
        wall = e["attrs"].get("wall_s")
        entry = hot.setdefault(f"cell:{kind}", [0.0, 0.0])
        entry[0] += 1
        entry[1] += wall if isinstance(wall, (int, float)) else 0.0
    for s in spans:
        if s["level"] != "structure":
            continue
        key = f"structure:{s['attrs'].get('structure', '?')}"
        entry = hot.setdefault(key, [0.0, 0.0])
        entry[0] += 1
        entry[1] += s["dur_s"]
    if hot:
        out.append("")
        out.append("hottest evaluators:")
        for key, (count, total) in sorted(
            hot.items(), key=lambda kv: -kv[1][1]
        )[:10]:
            out.append(f"  {key}: {total:.4f}s over {int(count)} run(s)")

    return out


def summarize_path(path: str | Path) -> str:
    """Summarize a trace JSONL file."""
    records = read_records(path)
    if not records:
        return "empty trace"
    return summarize_trace(records)
