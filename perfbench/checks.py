"""Response checks, run on stored bodies after the timed phase.

Each check returns a failure reason or ``None``.  Wall-clock fields are
stripped before answers are compared, so every repeat of a key must equal the
key's first answer byte for byte, and sampled keys must equal the in-process
``RePaGerService.query`` payload on the same corpus.
"""

from __future__ import annotations

import json
from typing import Any

#: Fields that legitimately differ between two answers to the same key.
_VOLATILE_SERVING = ("served_in_seconds", "request_id", "cached")


def strip_volatile(doc: dict[str, Any]) -> dict[str, Any]:
    """Drop ``stats.elapsed_seconds`` and the per-response serving fields."""
    doc = dict(doc)
    payload = dict(doc.get("payload") or {})
    stats = dict(payload.get("stats") or {})
    stats.pop("elapsed_seconds", None)
    payload["stats"] = stats
    doc["payload"] = payload
    if isinstance(doc.get("serving"), dict):
        doc["serving"] = {
            k: v for k, v in doc["serving"].items() if k not in _VOLATILE_SERVING
        }
    return doc


def canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def check_response(status: int, body: bytes, query: dict[str, Any]) -> tuple[str | None, dict | None]:
    """Status, schema, exclusion and cutoff checks; returns ``(failure, doc)``."""
    if status != 200:
        return f"HTTP {status}: {body[:200]!r}", None
    try:
        doc = json.loads(body)
    except ValueError:
        return "response is not JSON", None
    payload = doc.get("payload") if isinstance(doc, dict) else None
    if not isinstance(payload, dict) or not isinstance(doc.get("serving"), dict):
        return "response lacks payload/serving objects", None
    for field, kind in (("query", str), ("navigation", list), ("nodes", list),
                        ("edges", list), ("stats", dict)):
        if not isinstance(payload.get(field), kind):
            return f"payload.{field} is not a {kind.__name__}", None
    if payload["query"] != query["query"]:
        return "payload echoes another query", None
    if not payload["navigation"] or not payload["nodes"]:
        return "empty reading path", None
    excluded = set(query.get("exclude_ids") or ())
    cutoff = query.get("year_cutoff")
    for record in (*payload["navigation"], *payload["nodes"]):
        if not isinstance(record, dict) or not isinstance(record.get("paper_id"), str):
            return "paper record without a paper_id", None
        if record["paper_id"] in excluded:
            return f"excluded paper {record['paper_id']} in the path", None
        year = record.get("year")
        if not isinstance(year, int):
            return f"paper {record['paper_id']} has no year", None
        if cutoff is not None and year > cutoff:
            return f"paper {record['paper_id']} ({year}) is newer than cutoff {cutoff}", None
    for edge in payload["edges"]:
        if edge.get("source") in excluded or edge.get("target") in excluded:
            return "edge touches an excluded paper", None
    return None, doc
