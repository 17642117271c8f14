"""Edge gateway data plane.

``EdgeNode`` is one gateway: it calibrates raw sensor samples into
readings, evaluates debounced event/alert rules, runs disconnected-capable
local control, and store-and-forwards encoded reports uplink.
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
    """A channel's one record: its config, the seq of its last sample, the
    slot its next sample is due (None: due now) and its latest calibrated
    value (None: never sampled)."""
    config: ChannelConfig
    seq: int = 0
    next_sample: float | None = None
    latest: float | None = None


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


# -- uplink store-and-forward --------------------------------------------


@dataclass(slots=True)
class QueuedFrame:
    topic: str
    payload: str
    qos: int = 1


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
    the caller's thread; one logical executor per gateway. ``uplink``, the
    FIFO of frames awaiting publish, drops nothing: its depth is bounded
    only by an outage's length times the node's frame rate.
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
        self.uplink: deque[QueuedFrame] = deque()
        self.session = None
        self.desired_state: dict[str, infomodel.TypedScalar] = {}

    # -- sampling --------------------------------------------------------

    def due_channels(self, now: float) -> list[str]:
        return [name for name, state in self.channels.items()
                if state.next_sample is None or now + 1e-9 >= state.next_sample]

    def ingest_raw(self, sensor_name: str, raw: float, now: float) -> Reading:
        """Acquire one raw sample at ``now``: calibrate it, stamp it with the
        time and the channel's next seq, queue its report, then check the
        event rules and queue each event they fire."""
        state = self.channels.get(sensor_name)
        if state is None:
            raise UnknownChannel(sensor_name)
        if not math.isfinite(raw):
            raise NonFiniteRaw(f"raw sample is not finite: {raw!r}")
        cfg, node_id = state.config, self.config.node_id
        state.seq += 1
        reading = Reading(channel=ChannelKey(node_id, sensor_name),
                          value=cfg.scale * raw + cfg.offset, unit=cfg.unit, ts=now,
                          seq=state.seq, tags=dict(self.config.tags))
        # schedule from the previous slot, not from now, so the sample
        # cadence does not drift with tick jitter or float error
        prev = state.next_sample
        base = prev if prev is not None and prev <= now + 1e-9 else now
        state.next_sample = base + cfg.sample_period_ms / 1000.0
        state.latest = float(reading.value)
        self.uplink.append(QueuedFrame(f"data/{node_id}/{sensor_name}",
                                       infomodel.encode_report(node_id, [reading])))
        for event in self.rules.evaluate(reading):
            self.uplink.append(QueuedFrame(f"alerts/{node_id}",
                                           infomodel.encode_report(node_id, [event.reading])))
        return reading

    # -- local control ---------------------------------------------------

    def control_step(self) -> list[Actuation]:
        """The actuations the control rules call for on each channel's latest
        value, in rule-id order: a pure function of the rules and that
        snapshot, so it decides the same while disconnected."""
        latest = {name: s.latest for name, s in self.channels.items() if s.latest is not None}
        return [Actuation(rule.rule_id, rule.actuator, rule.prop, rule.value)
                for rule in sorted(self.config.control_rules, key=lambda r: r.rule_id)
                if rule.condition.evaluate(latest)]

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
        """Publish queued frames FIFO until the uplink empties or the link
        drops; the number published. Disconnection is a state, not an
        error: unsent frames stay queued in order."""
        session, uplink = self.session, self.uplink
        if session is None or not session.connected:
            return 0
        published = 0
        while uplink:
            frame = uplink[0]
            try:
                session.publish(frame.topic, frame.payload, qos=frame.qos)
            except msgbus.NotConnected:
                break  # link dropped mid-flush; keep the remainder queued
            uplink.popleft()
            published += 1
        return published
