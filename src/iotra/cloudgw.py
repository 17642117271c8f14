"""Cloud-edge gateway: the ingress security boundary.

Authenticates senders against the node registry, decodes and
validates every payload against its sender's class in one pass,
deduplicates per (node, channel, seq) so at-least-once transport becomes
exactly-once at the stores, routes admitted readings to their
destinations by the rules ``route_rules`` parses, and audit-logs every
decision.

The audit log is one compact JSON line per decision, written with one
unbuffered write before ``admit`` returns and never fsynced. A process
crash therefore tears at most the last line (readers skip a final line
with no newline); a host crash may also lose lines the OS had not yet
written back.

What repeats from frame to frame is resolved once: the escaped text of
an audit line's node, topic, verdict and reason, and per (topic, class)
the route plan, which is the union of the destinations of the rules
that match without a tag and the tag rules left to test per reading.
Both memos are keyed by outside input (topics under ``data/<node>/#``),
so each holds at most ``reading.TEXT_MEMO_SIZE`` entries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import IO

from . import infomodel
from .msgbus import TopicFilter
from .reading import TEXT_MEMO_SIZE, Reading, remember

DESTINATIONS = {"streams", "tsdb", "twin"}
DEFAULT_DESTINATIONS = frozenset({"tsdb"})  # where a reading no rule matches goes

_AUDIT_ENCODER = json.JSONEncoder(separators=(",", ":"))


@lru_cache(maxsize=TEXT_MEMO_SIZE)
def _audit_tail(node_id: str, topic: str, verdict: str, reason: str) -> bytes:
    """An audit line after its ``ts`` value, newline included."""
    return b"," + _AUDIT_ENCODER.encode(
        {"node": node_id, "topic": topic, "verdict": verdict, "reason": reason}
    )[1:].encode() + b"\n"


def audit_line(ts, node_id: str, topic: str, verdict: str, reason: str) -> bytes:
    """``_AUDIT_ENCODER.encode(entry) + "\\n"`` of an audit entry, as bytes."""
    # the encoder writes a finite float as its repr; anything else goes through it
    ts_text = repr(ts) if type(ts) is float and math.isfinite(ts) else _AUDIT_ENCODER.encode(ts)
    return b'{"ts":' + ts_text.encode() + _audit_tail(node_id, topic, verdict, reason)


def write_line(fh: IO[bytes], line: bytes) -> None:
    """Write ``line`` to an unbuffered file: one write(2), and more only
    after a short write."""
    done = fh.write(line)
    while done < len(line):
        done += fh.write(line[done:])


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

    def matches(self, topic: str, class_name: str | None) -> bool:
        """Whether the topic filter and class selector match; the tag is
        tested per reading (``CloudGateway.route``)."""
        if self._filter is not None and not self._filter.matches(topic):
            return False
        return self.class_name is None or self.class_name == class_name


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
        # (topic, class) -> (destinations, ((tag, destinations), ...))
        self._route_plans: dict[tuple[str, str | None], tuple] = {}
        self.audit_entries = 0
        self._audit_fh: IO[bytes] | None = None
        if audit_path is not None:
            audit_path.parent.mkdir(parents=True, exist_ok=True)
            self._audit_fh = open(audit_path, "ab", buffering=0)

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
        """Union of destinations over the rules matching this reading;
        {tsdb} when none does."""
        key = (topic, self.registry.class_of(node_id))
        plan = self._route_plans.get(key)
        if plan is None:
            plan = self._route_plan(*key)
        dests, tag_rules = plan
        if tag_rules:
            matched = set(dests)
            for (k, v), extra in tag_rules:
                if tags.get(k) == v:
                    matched |= extra
            dests = frozenset(matched)
        return dests or DEFAULT_DESTINATIONS

    def _route_plan(self, topic: str, class_name: str | None) -> tuple:
        """The rules matching ``topic`` and ``class_name``, resolved into
        the destinations they give every reading and the tag rules to
        test per reading, memoised."""
        dests: set[str] = set()
        tag_rules = []
        for rule in self.route_rules:
            if not rule.matches(topic, class_name):
                continue
            if rule.tag is None:
                dests |= rule.destinations
            else:
                tag_rules.append((rule.tag, rule.destinations))
        return remember(self._route_plans, (topic, class_name),
                        (frozenset(dests), tuple(tag_rules)))

    # -- audit -----------------------------------------------------------

    def _audit(self, node_id: str, topic: str, decision: IngressDecision) -> None:
        self.audit_entries += 1
        if self._audit_fh is not None:
            ts = self.clock.now() if self.clock else 0.0
            write_line(self._audit_fh,
                       audit_line(ts, node_id, topic, decision.verdict, decision.reason))

    def close(self) -> None:
        if self._audit_fh is not None:
            self._audit_fh.close()
            self._audit_fh = None
