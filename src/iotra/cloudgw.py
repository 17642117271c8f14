"""Cloud-edge gateway: the ingress security boundary.

Authenticates senders against the node registry, decodes and
validates every payload against its sender's class in one pass,
deduplicates per (node, channel, seq) so at-least-once transport becomes
exactly-once at the stores, routes admitted readings to their
destinations by the rules ``route_rules`` parses, and audit-logs every
decision.

The audit log is one JSON line per decision, flushed as it is written
and never fsynced. A process crash therefore tears at most the last
line (readers skip a final line with no newline); a host crash may also
lose lines the OS had not yet written back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from . import infomodel
from .msgbus import TopicFilter
from .reading import Reading

DESTINATIONS = {"streams", "tsdb", "twin"}

_AUDIT_ENCODER = json.JSONEncoder(separators=(",", ":"))


@dataclass(slots=True)
class IngressDecision:
    verdict: str  # admit | reject
    reason: str  # ok | auth_failed | not_active | quarantined | schema_invalid | duplicate
    readings: list[Reading] = field(default_factory=list)

    @property
    def admitted(self) -> bool:
        return self.verdict == "admit"


class DedupState:
    """Per-channel high watermark plus a sparse set of seen seqs above it.

    A channel gets a set only when a seq arrives out of order; fresh
    seqs above the watermark park there until the watermark catches up.
    """

    def __init__(self):
        self._watermark: dict[tuple[str, str], int] = {}
        self._above: dict[tuple[str, str], set[int]] = {}

    def check(self, node_id: str, channel: str, seq: int) -> bool:
        """True if this seq is fresh; records it either way."""
        if seq < 1:
            raise ValueError("seq must be >= 1")
        key = (node_id, channel)
        wm = self._watermark.get(key, 0)
        above = self._above.get(key, ())
        if seq <= wm or seq in above:
            return False
        if seq > wm + 1:  # out of order: park it
            self._above.setdefault(key, set()).add(seq)
            return True
        wm = seq
        while wm + 1 in above:
            wm += 1
            above.discard(wm)
        self._watermark[key] = wm
        return True


@dataclass(slots=True)
class RouteRule:
    """Selector over topic/class/tag, routing to a destination subset.
    A malformed topic filter raises msgbus.BadFilter at construction."""

    destinations: frozenset[str]
    topic: str | None = None  # topic filter, msgbus wildcard syntax
    class_name: str | None = None
    tag: tuple[str, str] | None = None  # (key, value)
    _filter: TopicFilter | None = field(default=None, init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        unknown = self.destinations - DESTINATIONS
        if unknown:
            raise ValueError(f"unknown destinations: {sorted(unknown)}")
        if self.topic is not None:
            self._filter = TopicFilter(self.topic)

    def matches(self, topic: str, class_name: str | None, tags: dict[str, str]) -> bool:
        if self._filter is not None and not self._filter.matches(topic):
            return False
        if self.class_name is not None and self.class_name != class_name:
            return False
        if self.tag is not None and tags.get(self.tag[0]) != self.tag[1]:
            return False
        return True


def route_rules(docs: list[dict]) -> list[RouteRule]:
    """Rules from their JSON form, a list of
    ``{"selector": {"topic", "class", "tag": "k=v"}, "destinations": [...]}``;
    a tag that is not a ``k=v`` string raises ValueError."""
    rules = []
    for doc in docs:
        sel = doc.get("selector", {})
        tag = None
        if "tag" in sel:
            raw = sel["tag"]
            if not isinstance(raw, str) or "=" not in raw or raw.startswith("="):
                raise ValueError(f"route tag must be a 'k=v' string: {raw!r}")
            k, _, v = raw.partition("=")
            tag = (k, v)
        rules.append(
            RouteRule(
                destinations=frozenset(doc["destinations"]),
                topic=sel.get("topic"),
                class_name=sel.get("class"),
                tag=tag,
            )
        )
    return rules


def route(topic: str, class_name: str | None, tags: dict[str, str],
          rules: list[RouteRule]) -> frozenset[str]:
    """Union of destinations over matching rules; {tsdb} by default."""
    dests: set[str] = set()
    for rule in rules:
        if rule.matches(topic, class_name, tags):
            dests |= rule.destinations
    return frozenset(dests) if dests else frozenset({"tsdb"})


class CloudGateway:
    """Gating point between edge traffic and the trusted cloud side."""

    def __init__(
        self,
        model: infomodel.ModelRegistry,
        registry,  # controlplane.Registry duck type
        clock=None,
        audit_path: Path | None = None,
        route_rules: list[RouteRule] | None = None,
    ):
        self.model = model
        self.registry = registry
        self.clock = clock
        self.dedup_state = DedupState()
        self.route_rules = list(route_rules or [])
        self.audit_entries = 0
        self._audit_fh: IO[str] | None = None
        if audit_path is not None:
            audit_path.parent.mkdir(parents=True, exist_ok=True)
            self._audit_fh = open(audit_path, "a", encoding="utf-8")

    # -- admission -------------------------------------------------------

    def admit(self, node_id: str, topic: str, payload: str) -> IngressDecision:
        """Admission decision for one inbound frame; always audited."""
        decision = self._decide(node_id, topic, payload)
        self._audit(node_id, topic, decision)
        return decision

    def _decide(self, node_id: str, topic: str, payload: str) -> IngressDecision:
        state = self.registry.lifecycle_of(node_id)
        if state is None:
            return IngressDecision("reject", "auth_failed")
        if state == "quarantined":
            return IngressDecision("reject", "quarantined")
        if state != "active":
            return IngressDecision("reject", "not_active")

        plan = self.model.report_plan(self.registry.class_of(node_id))
        try:
            # one pass parses and validates against the sender's class
            sender, readings = infomodel.decode_report(payload, plan)
        except (infomodel.ModelError, ValueError):
            # ValueError: a bad DateTime (BadTimestamp) or channel name
            return IngressDecision("reject", "schema_invalid")
        if sender != node_id:
            return IngressDecision("reject", "schema_invalid")

        fresh: list[Reading] = []
        for r in readings:
            if r.seq is None:
                fresh.append(r)  # unsequenced payloads bypass dedup
            elif self.dedup_state.check(node_id, r.channel.sensor_name, r.seq):
                fresh.append(r)
        if not fresh:
            return IngressDecision("reject", "duplicate")
        return IngressDecision("admit", "ok", fresh)

    def route(self, topic: str, node_id: str, tags: dict[str, str]) -> frozenset[str]:
        return route(topic, self.registry.class_of(node_id), tags, self.route_rules)

    # -- audit -----------------------------------------------------------

    def _audit(self, node_id: str, topic: str, decision: IngressDecision) -> None:
        self.audit_entries += 1
        if self._audit_fh is not None:
            entry = {
                "ts": self.clock.now() if self.clock else 0.0,
                "node": node_id,
                "topic": topic,
                "verdict": decision.verdict,
                "reason": decision.reason,
            }
            self._audit_fh.write(_AUDIT_ENCODER.encode(entry) + "\n")
            self._audit_fh.flush()

    def close(self) -> None:
        if self._audit_fh is not None:
            self._audit_fh.close()
            self._audit_fh = None
