"""Edge gateway data plane.

Calibrates raw sensor samples into readings, evaluates debounced
event/alert rules, runs disconnected-capable local control, and
store-and-forwards encoded reports uplink.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .reading import COMPARATORS, ChannelKey, Reading, is_token
from . import infomodel, msgbus


class EdgeError(Exception):
    pass


class NonFiniteRaw(EdgeError):
    pass


class UnknownChannel(EdgeError):
    pass


class UnknownChannelInCondition(EdgeError):
    pass


class ConnectionLost(EdgeError):
    """Raised by an uplink session when the link drops mid-publish."""


# -- acquisition ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChannelConfig:
    sensor_name: str
    class_name: str
    sample_period_ms: int = 1000
    scale: float = 1.0
    offset: float = 0.0
    unit: str = ""

    def __post_init__(self):
        if not is_token(self.sensor_name):
            raise EdgeError(f"sensor name {self.sensor_name!r} is not a lowercase token")
        if self.sample_period_ms < 10:
            raise EdgeError("sample_period_ms must be >= 10")
        if self.scale == 0:
            raise EdgeError("calibration scale must be nonzero")


@dataclass(slots=True)
class ChannelState:
    config: ChannelConfig
    seq: int = 0


def acquire_sample(
    state: ChannelState,
    node_id: str,
    raw: float,
    now: float,
    tags: dict[str, str] | None = None,
) -> Reading:
    """Calibrate one raw sample into a Reading and advance the channel
    sequence counter. The gateway stamps the time."""
    if not math.isfinite(raw):
        raise NonFiniteRaw(f"raw sample is not finite: {raw!r}")
    state.seq += 1
    cfg = state.config
    return Reading(
        channel=ChannelKey(node_id, cfg.sensor_name),
        value=cfg.scale * raw + cfg.offset,
        unit=cfg.unit,
        ts=now,
        seq=state.seq,
        tags=dict(tags or {}),
    )


# -- event / alert rules -------------------------------------------------


@dataclass(frozen=True, slots=True)
class EdgeRule:
    rule_id: str
    channel: str  # "sensor" or "node/sensor" selector
    op: str
    threshold: float
    debounce_count: int = 1
    severity: str = "event"  # event | alert

    def __post_init__(self):
        if self.op not in COMPARATORS:
            raise EdgeError(f"unknown comparison {self.op!r}")
        if self.debounce_count < 1:
            raise EdgeError("debounce_count must be >= 1")
        if self.severity not in ("event", "alert"):
            raise EdgeError(f"bad severity {self.severity!r}")

    def selects(self, channel: ChannelKey) -> bool:
        return self.channel in (channel.sensor_name, str(channel))


@dataclass(slots=True)
class Event:
    rule_id: str
    severity: str
    reading: Reading


class RuleEngine:
    """Debounced threshold rules: a rule fires after its predicate held
    for debounce_count consecutive readings, then its counter resets."""

    def __init__(self, rules: Iterable[EdgeRule] = ()):
        self.rules = list(rules)
        self._counters: dict[str, int] = {}

    def reset(self) -> None:
        self._counters.clear()

    def evaluate(self, reading: Reading) -> list[Event]:
        events: list[Event] = []
        value = reading.value
        for rule in self.rules:
            if not rule.selects(reading.channel):
                continue
            if isinstance(value, (int, float)) and COMPARATORS[rule.op](value, rule.threshold):
                n = self._counters.get(rule.rule_id, 0) + 1
                if n >= rule.debounce_count:
                    events.append(Event(rule.rule_id, rule.severity, reading))
                    n = 0
                self._counters[rule.rule_id] = n
            else:
                self._counters[rule.rule_id] = 0
        return events


# -- local control -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Condition:
    terms: tuple[tuple[str, str, float], ...]  # (channel, op, threshold)
    combine: str = "all"  # all | any

    def __post_init__(self):
        for _, op, _ in self.terms:
            if op not in COMPARATORS:
                raise EdgeError(f"unknown comparison {op!r}")
        if self.combine not in ("all", "any"):
            raise EdgeError(f"bad combine {self.combine!r}")

    def evaluate(self, snapshot: dict[str, float]) -> bool:
        results = []
        for channel, op, threshold in self.terms:
            if channel not in snapshot:
                raise UnknownChannelInCondition(channel)
            results.append(COMPARATORS[op](snapshot[channel], threshold))
        return all(results) if self.combine == "all" else any(results)


@dataclass(frozen=True, slots=True)
class ControlRule:
    rule_id: str
    condition: Condition
    actuator: str  # e.g. "fan"
    prop: str  # e.g. "power"
    value: object  # value to set


@dataclass(slots=True)
class Actuation:
    rule_id: str
    actuator: str
    prop: str
    value: object


def run_local_control(
    rules: Iterable[ControlRule], latest: dict[str, float]
) -> list[Actuation]:
    """Pure function of (rules, latest snapshot); never consults the
    uplink, so behavior is identical while disconnected."""
    out = []
    for rule in sorted(rules, key=lambda r: r.rule_id):
        if rule.condition.evaluate(latest):
            out.append(Actuation(rule.rule_id, rule.actuator, rule.prop, rule.value))
    return out


# -- uplink store-and-forward --------------------------------------------


@dataclass(slots=True)
class QueuedFrame:
    topic: str
    payload: str
    qos: int = 1


class UplinkQueue:
    """FIFO of encoded report frames awaiting publish.

    Store-and-forward is lossless, so the queue drops nothing: it holds
    every frame the node acquires while its link is down, and its depth
    is bounded only by the outage's length times the node's frame rate.
    """

    def __init__(self):
        self.pending: deque[QueuedFrame] = deque()

    def __len__(self) -> int:
        return len(self.pending)

    def enqueue(self, frame: QueuedFrame) -> None:
        self.pending.append(frame)


def flush_uplink(queue: UplinkQueue, session) -> int:
    """Publish queued frames FIFO until the queue empties or the link
    drops. Disconnection is a state, not an error: unsent frames stay
    queued in order."""
    if session is None or not getattr(session, "connected", False):
        return 0
    published = 0
    while queue.pending:
        frame = queue.pending[0]
        try:
            session.publish(frame.topic, frame.payload, qos=frame.qos)
        except (ConnectionLost, msgbus.NotConnected):
            break  # link dropped mid-flush; keep the remainder queued
        queue.pending.popleft()
        published += 1
    return published


# -- whole-gateway assembly ----------------------------------------------


@dataclass(slots=True)
class NodeConfig:
    node_id: str
    class_name: str
    channels: tuple[ChannelConfig, ...] = ()
    edge_rules: tuple[EdgeRule, ...] = ()
    control_rules: tuple[ControlRule, ...] = ()
    tags: dict[str, str] = field(default_factory=dict)


class EdgeNode:
    """One gateway instance: sampling, rules, local control, store-and-forward.

    Transport-agnostic: the harness attaches a broker session (anything
    with ``connected`` and ``publish``). All state mutations happen on
    the caller's thread; one logical executor per gateway.
    """

    def __init__(self, config: NodeConfig):
        self.config = config
        self.channels: dict[str, ChannelState] = {
            c.sensor_name: ChannelState(c) for c in config.channels
        }
        for rule in config.control_rules:
            for channel, _, _ in rule.condition.terms:
                if channel not in self.channels:
                    raise UnknownChannelInCondition(channel)
        self.rules = RuleEngine(config.edge_rules)
        self.uplink = UplinkQueue()
        self.session = None
        self.desired_state: dict[str, infomodel.TypedScalar] = {}
        self._latest: dict[str, float] = {}
        self._next_sample: dict[str, float] = {}

    # -- sampling --------------------------------------------------------

    def due_channels(self, now: float) -> list[str]:
        due = []
        for name, state in self.channels.items():
            nxt = self._next_sample.get(name, 0.0)
            if now + 1e-9 >= nxt:
                due.append(name)
        return due

    def ingest_raw(self, sensor_name: str, raw: float, now: float) -> Reading:
        """Acquire one raw sample: calibrate, rule-check, queue."""
        state = self.channels.get(sensor_name)
        if state is None:
            raise UnknownChannel(sensor_name)
        reading = acquire_sample(state, self.config.node_id, raw, now, self.config.tags)
        period = state.config.sample_period_ms / 1000.0
        # schedule from the previous slot, not from now, so the sample
        # cadence does not drift with tick jitter or float error
        prev = self._next_sample.get(sensor_name)
        base = prev if prev is not None and prev <= now + 1e-9 else now
        self._next_sample[sensor_name] = base + period
        self._latest[sensor_name] = float(reading.value)
        self._enqueue_report(reading)
        for event in self.rules.evaluate(reading):
            self._enqueue_event(event)
        return reading

    def _enqueue_report(self, reading: Reading) -> None:
        payload = infomodel.encode_report(self.config.node_id, [reading])
        topic = f"data/{self.config.node_id}/{reading.channel.sensor_name}"
        self.uplink.enqueue(QueuedFrame(topic, payload, qos=1))

    def _enqueue_event(self, event: Event) -> None:
        payload = infomodel.encode_report(self.config.node_id, [event.reading])
        topic = f"alerts/{self.config.node_id}"
        self.uplink.enqueue(QueuedFrame(topic, payload, qos=1))

    # -- local control ---------------------------------------------------

    def control_step(self) -> list[Actuation]:
        return run_local_control(self.config.control_rules, dict(self._latest))

    def apply_desired(self, desired: dict[str, infomodel.TypedScalar]) -> None:
        """Apply a desired-state command from the twin service."""
        self.desired_state.update(desired)
        self.rules.reset()  # config change resets debounce state

    def local_state_doc(self) -> dict[str, infomodel.TypedScalar]:
        """The reported document: the class properties this node received
        as desired state. Local-control actuations are not reported; an
        ``actuator.prop`` key is never a class property."""
        return dict(self.desired_state)

    # -- uplink ----------------------------------------------------------

    def flush(self) -> int:
        return flush_uplink(self.uplink, self.session)
