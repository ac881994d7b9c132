"""Phase-level EXPLAIN: a finished trace rendered as an operator report.

:func:`explain_report` digests one :class:`~repro.obs.trace.Trace` into the
JSON shape the CLI (``repro explain``) and the HTTP service (``?explain=1``)
both serve: the nested span tree, a per-phase duration rollup (parse /
plan / chase / reduce / enumerate), the per-answer delay distribution from
the enumeration span, and — when the caller passes the prepared plan — a
plan summary (verdicts, fingerprints, null depth).  The plan summary is
duck-typed off :class:`repro.engine.plan.PreparedQuery`'s attributes, not
imported, so this module stays importable from every layer.

:func:`format_span_tree` turns the report into the indented text tree the
CLI prints.
"""

from __future__ import annotations

from typing import Any

from repro.obs.trace import Trace

__all__ = ["explain_report", "format_span_tree"]

#: The canonical pipeline phases, in execution order; the rollup reports
#: them in this order, other span names follow alphabetically.
PHASES = ("parse", "plan", "chase", "revalidate", "reduce", "enumerate", "answers")


def _walk(nodes: list[dict[str, Any]]):
    for node in nodes:
        yield node
        yield from _walk(node.get("children", []))


def plan_summary(prepared: Any) -> dict[str, Any]:
    """The EXPLAIN view of a prepared plan (duck-typed, attribute by attribute)."""
    summary: dict[str, Any] = {}
    omq = getattr(prepared, "omq", None)
    if omq is not None:
        summary["query"] = getattr(omq, "name", None)
        summary["arity"] = getattr(omq, "arity", None)
    for attribute in (
        "is_acyclic",
        "is_weakly_acyclic",
        "is_free_connex_acyclic",
        "supports_enumeration",
        "null_depth",
        "strict",
        "ontology_fingerprint",
        "query_fingerprint",
    ):
        value = getattr(prepared, attribute, None)
        if value is not None:
            summary[attribute] = value
    decomposition = getattr(prepared, "decomposition", None)
    if decomposition is not None:
        bags = getattr(decomposition, "bags", None)
        if bags is not None:
            summary["decomposition_bags"] = len(bags)
    return summary


def explain_report(
    trace: Trace,
    prepared: Any | None = None,
    answers: int | None = None,
) -> dict[str, Any]:
    """Digest ``trace`` (and optionally its plan) into the EXPLAIN shape.

    ``phases`` aggregates span durations by name — a phase that ran more
    than once (several queries in one trace, chase + revalidate rounds)
    reports its call count alongside the total.  ``delay`` is the
    per-answer distribution recorded by
    :func:`repro.obs.trace.traced_answers` on the (first) enumeration span.
    """
    tree = trace.span_tree()
    rollup: dict[str, dict[str, Any]] = {}
    delay: dict[str, Any] | None = None
    total_answers = 0
    for node in _walk(tree):
        name = node["name"]
        phase = rollup.setdefault(name, {"calls": 0, "total_ms": 0.0, "errors": 0})
        phase["calls"] += 1
        phase["total_ms"] = round(phase["total_ms"] + node["duration_ms"], 6)
        if node["status"] == "error":
            phase["errors"] += 1
        attributes = node.get("attributes", {})
        if name == "enumerate":
            total_answers += attributes.get("answers", 0)
            if delay is None and "delay" in attributes:
                delay = attributes["delay"]
    ordered = {name: rollup[name] for name in PHASES if name in rollup}
    ordered.update(
        {name: phase for name, phase in sorted(rollup.items()) if name not in ordered}
    )
    report: dict[str, Any] = {
        "trace_id": trace.trace_id,
        "name": trace.name,
        "duration_ms": round(trace.duration_ms, 6),
        "phases": ordered,
        "spans": tree,
        "events": trace.to_dict()["events"],
    }
    if trace.spans_dropped:
        report["spans_dropped"] = trace.spans_dropped
    if answers is None and total_answers:
        answers = total_answers
    if answers is not None:
        report["answers"] = answers
    if delay is not None:
        report["delay"] = delay
    if prepared is not None:
        report["plan"] = plan_summary(prepared)
    return report


def _format_node(node: dict[str, Any], depth: int, lines: list[str]) -> None:
    indent = "  " * depth
    marker = {"ok": "", "cancelled": " [cancelled]", "error": " [ERROR]"}.get(
        node["status"], f" [{node['status']}]"
    )
    detail = ""
    attributes = node.get("attributes", {})
    notable = {
        key: value
        for key, value in attributes.items()
        if key != "delay" and not isinstance(value, (dict, list))
    }
    if notable:
        detail = "  " + " ".join(
            f"{key}={value}" for key, value in sorted(notable.items())
        )
    lines.append(
        f"{indent}{node['name']:<12} {node['duration_ms']:>10.3f} ms{marker}{detail}"
    )
    if "delay" in attributes:
        delay = attributes["delay"]
        if delay.get("count"):
            lines.append(
                f"{indent}  per-answer delay: "
                f"min={delay['min_ms']:.4f} p50={delay['p50_ms']:.4f} "
                f"p99={delay['p99_ms']:.4f} max={delay['max_ms']:.4f} ms "
                f"({delay['count']} answers)"
            )
    for child in node.get("children", []):
        _format_node(child, depth + 1, lines)


def format_span_tree(report: dict[str, Any]) -> str:
    """The EXPLAIN report as an indented text tree (the CLI output)."""
    lines = [f"trace {report['trace_id']}  {report['duration_ms']:.3f} ms"]
    plan = report.get("plan")
    if plan:
        verdicts = ", ".join(
            f"{key.removeprefix('is_')}={plan[key]}"
            for key in ("is_acyclic", "is_free_connex_acyclic")
            if key in plan
        )
        name = plan.get("query", "?")
        lines.append(f"plan  {name}  {verdicts}  null_depth={plan.get('null_depth')}")
    for node in report.get("spans", []):
        _format_node(node, 0, lines)
    for event in report.get("events", []):
        detail = " ".join(
            f"{key}={value}"
            for key, value in sorted(event.items())
            if key not in ("name", "at_ms")
        )
        lines.append(f"event {event['name']} @{event['at_ms']:.3f} ms  {detail}".rstrip())
    return "\n".join(lines)
