"""Text rendering for host-performance digests (CLI output)."""

from __future__ import annotations

from typing import Dict, Mapping, Optional


def format_rate(value: float) -> str:
    """Compact rate: ``1.23M``, ``456k``, ``789``."""
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.0f}k"
    return f"{value:.0f}"


def format_phase_report(
    phases: Mapping[str, Mapping[str, float]], indent: str = "  "
) -> str:
    """Render a :meth:`PhaseTimer.report` digest, widest phase first."""
    if not phases:
        return f"{indent}(no phases recorded)"
    total = sum(float(row.get("s", 0.0)) for row in phases.values()) or 1.0
    lines = []
    for name, row in sorted(
        phases.items(), key=lambda item: -float(item[1].get("s", 0.0))
    ):
        seconds = float(row.get("s", 0.0))
        count = int(row.get("count", 0))
        lines.append(
            f"{indent}{name:<20} {seconds:9.3f}s {100 * seconds / total:5.1f}% "
            f"({count:,} enters)"
        )
    return "\n".join(lines)


def format_host_report(
    aggregate: Mapping[str, float],
    phases: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Render the sweep-level host-throughput summary.

    ``aggregate`` is the output of :func:`repro.metrics.throughput.
    aggregate_host`; ``phases`` an optional merged phase digest.
    """
    lines = ["# host performance"]
    jobs = int(aggregate.get("jobs", 0))
    lines.append(
        f"  jobs={jobs} simulated_instructions={int(aggregate.get('instructions', 0)):,} "
        f"accesses={int(aggregate.get('accesses', 0)):,}"
    )
    lines.append(
        f"  throughput: {format_rate(aggregate.get('instructions_per_s', 0.0))} instr/s, "
        f"{format_rate(aggregate.get('accesses_per_s', 0.0))} accesses/s "
        f"(busy {aggregate.get('busy_s', 0.0):.1f}s)"
    )
    if "stripped_frac" in aggregate:
        lines.append(
            f"  l1 filter: {100 * aggregate['stripped_frac']:.1f}% of records "
            f"stripped (filter build {aggregate.get('l1_filter_s', 0.0):.2f}s)"
        )
    if "utilisation" in aggregate:
        lines.append(f"  pool utilisation: {100 * aggregate['utilisation']:.0f}%")
    if phases:
        lines.append("  phases (exclusive wall time):")
        lines.append(format_phase_report(phases, indent="    "))
    return "\n".join(lines)
