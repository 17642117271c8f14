"""Scenario runner: a deterministic simulated fleet end to end.

Boots the broker, the control plane and the cloud platform
(``iotra.platform``), plus N edge gateways, then drives everything from a
virtual clock in fixed ticks. Faults (uplink outages, floods, duplicate
replay) are injected on schedule; ground-truth generation ledgers stay
untouched by faults so loss accounting is exact. A duplicate comes from
the broker: ``duplicate_replay`` loses acks, and the broker redelivers.
A node ticks as attach (connect, apply commands), sample, control, flood
and send (flush); the settle after the last tick only attaches and sends,
with every link up, so an outage ends by the run's end and its backlog drains.
The result is a machine-readable RunReport that is identical across
runs of the same scenario and seed. A node's twin connectivity changes
only when its session does: a new session marks it connected; an outage,
a refused reconnect or a quarantine that ends one marks it disconnected.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .. import cloudgw, controlplane, edge, infomodel, msgbus, platform
from .. import streams as streams_mod, twins as twins_mod
from ..infomodel import TypedScalar
from ..reading import ChannelKey, Reading
from ..timeutil import VirtualClock
from .waveforms import BadSpec, WaveformSpec, gen_waveform

class BadScenario(Exception):
    pass


class BootFailure(Exception):
    pass


# -- scenario specification ----------------------------------------------


# Frames per second a flood may publish: 250 times criterion 07's 400. A
# node publishes its flood frames of a tick in one loop, so an unbounded
# rate could run one tick for minutes and exhaust memory.
MAX_FLOOD_RATE = 100_000

# The parameter each fault kind reads: its name, default, conversion and range.
FAULT_PARAMS = {"uplink_outage": (), "flood": ("rate", 1000, int, 0, MAX_FLOOD_RATE),
                "duplicate_replay": ("probability", 0.2, float, 0, 1)}
# The keys each action kind reads.
ACTION_KEYS = {"set_desired": frozenset({"kind", "at", "node", "set"}),
               "remediate": frozenset({"kind", "at", "incident"})}
SPEC_KEYS = frozenset({"duration_s", "tick_s", "seed", "nodes", "pipeline",
                       "route_rules", "faults", "actions", "assertions"})
NODE_GROUP_KEYS = frozenset({"count", "name_prefix", "class_name", "channels",
                             "edge_rules", "control_rules", "tags"})
FAULT_KEYS = frozenset({"kind", "nodes", "start", "end", "params"})
_REQUIRED = object()


@dataclass(frozen=True, slots=True)
class NodeGroup:
    """``len(waveforms)`` nodes commissioned alike. They share the edge
    records; an unseeded waveform is seeded by its node, so each has its own."""
    name_prefix: str
    class_name: str
    channels: tuple[edge.ChannelConfig, ...]
    edge_rules: tuple[edge.EdgeRule, ...]
    control_rules: tuple[edge.ControlRule, ...]
    tags: tuple[tuple[str, str], ...]
    waveforms: tuple[tuple[WaveformSpec, ...], ...]


@dataclass(frozen=True, slots=True)
class Fault:
    kind: str  # a key of FAULT_PARAMS
    nodes: tuple[int, ...]  # indexes into the fleet, in commissioning order
    start: float
    end: float
    level: float | None  # a flood's rate, a replay's probability, None for an outage


@dataclass(frozen=True, slots=True)
class Action:
    kind: str  # a key of ACTION_KEYS
    at: float
    target: str  # the node of a set_desired, the incident of a remediate
    changes: tuple[tuple[str, TypedScalar], ...] = ()


@dataclass(frozen=True, slots=True)
class Assertion:
    check: str  # a key of ASSERTIONS
    nodes: tuple[str, ...] = ()  # the nodes it checks; () for its default
    exclude: frozenset[str] = frozenset()  # nodes whose channels it skips
    seconds: float = 5.0  # flush_within's limit


class _Section:
    """One JSON object of a scenario document. A key outside ``keys``, or
    a value that is missing, of the wrong type or out of range, raises
    BadScenario naming ``what``."""

    def __init__(self, doc, what: str, keys: frozenset | None = None):
        if not isinstance(doc, dict):
            raise BadScenario(f"{what} must be an object, got {doc!r}")
        self.doc, self.what = doc, what
        if keys is not None:
            self.only(keys)

    def only(self, keys) -> None:
        unknown = sorted(set(self.doc) - set(keys))
        if unknown:
            raise BadScenario(f"unknown {self.what} key(s): {', '.join(unknown)}")

    def bad(self, key: str, value, want: str) -> BadScenario:
        return BadScenario(f"{self.what}: bad {key} {value!r} (want {want})")

    def get(self, key: str, default=_REQUIRED, want: type = object):
        if key not in self.doc:
            if default is _REQUIRED:
                raise BadScenario(f"{self.what} needs {key}")
            return default
        if not isinstance(self.doc[key], want):
            raise self.bad(key, self.doc[key], f"a JSON {want.__name__}")
        return self.doc[key]

    def number(self, key: str, default=_REQUIRED, convert=float,
               low: float = -math.inf, high: float = math.inf):
        """A finite number in low..high, as ``convert`` reads it ("500" too)."""
        value = self.get(key, default)
        try:
            out = convert(value)
            if math.isfinite(out) and low <= out <= high:
                return out
        except (TypeError, ValueError, OverflowError):
            pass
        raise self.bad(key, value, f"a finite number in {low}..{high}")

    def section(self, key: str, default=_REQUIRED, keys: frozenset | None = None):
        return _Section(self.get(key, default), f"{self.what} {key}", keys)

    def record(self, cls, extra_keys: tuple = (), **given):
        """``cls`` with each field not ``given`` read by its annotation (a
        string under ``from __future__ import annotations``: ``int``,
        ``float``, ``str`` or any other for any value), or left to its
        default. A key that is neither a field nor in ``extra_keys`` is
        refused."""
        self.only([f.name for f in fields(cls)] + list(extra_keys))
        for f in fields(cls):
            if f.name in given or (f.name not in self.doc and f.default is not MISSING):
                continue
            if f.type in ("int", "float"):
                given[f.name] = self.number(f.name, convert=int if f.type == "int" else float)
            else:
                given[f.name] = self.get(f.name, want=str if f.type == "str" else object)
        try:
            return cls(**given)
        except (edge.EdgeError, BadSpec) as exc:
            raise BadScenario(f"{self.what}: {exc}") from None


def _kind(doc, kinds, noun: str) -> str:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise BadScenario(f"unknown {noun} kind {kind!r} in {doc!r}")
    return kind


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """A scenario as the typed records ``World`` runs, built only by
    ``from_dict``. Node ids are those an empty registry gives the fleet."""
    duration_s: float
    tick_s: float
    seed: int
    nodes: tuple[NodeGroup, ...]
    fleet: Mapping[str, str]  # node id -> class name, in commissioning order
    pipeline: dict | None  # built into a streams.Pipeline by each World
    twin_sinks: tuple[tuple[str, str, str], ...]  # (sink id, node id, property)
    route_rules: tuple[cloudgw.RouteRule, ...]
    faults: tuple[Fault, ...]
    actions: tuple[Action, ...]
    assertions: tuple[Assertion, ...]

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioSpec":
        """The one reader of a scenario document. Every error it can hold
        that needs no information model raises BadScenario here: an
        unknown key or kind, a value of the wrong type or out of range, a
        fault window outside the run, or a node outside the fleet. ``doc``
        is not changed."""
        top = _Section(doc, "scenario", SPEC_KEYS)
        duration, seed = top.number("duration_s", low=0), top.number("seed", 1, int)
        tick = top.number("tick_s", 0.1, low=0.001)  # the clock's resolution
        groups, fleet = [], {}
        for i, group in enumerate(top.get("nodes", [], list), 1):
            groups.append(_node_group(_Section(group, f"node group {i}", NODE_GROUP_KEYS),
                                      seed, len(fleet)))
            for _ in groups[-1].waveforms:
                fleet[controlplane.nth_node_id(len(fleet) + 1)] = groups[-1].class_name
        pipeline, twin_sinks = _pipeline(top.get("pipeline", None), fleet)
        try:  # the gateway's own parser reads the rules
            route_rules = tuple(cloudgw.route_rules(top.get("route_rules", [], list)))
        except (ValueError, KeyError, TypeError, AttributeError, msgbus.BusError) as exc:
            raise BadScenario(f"bad route rule: {exc!r}") from None
        return cls(
            duration_s=duration, tick_s=tick, seed=seed, nodes=tuple(groups),
            fleet=MappingProxyType(fleet), pipeline=pipeline, twin_sinks=twin_sinks,
            # desk-scale default: telemetry feeds both lambda paths
            route_rules=route_rules or (cloudgw.RouteRule(
                destinations=frozenset({"tsdb", "streams"}), topic="data/#"),),
            faults=tuple(_fault(_Section(f, f"fault {i}", FAULT_KEYS), duration, list(fleet))
                         for i, f in enumerate(top.get("faults", [], list), 1)),
            actions=tuple(_action(a, f"action {i}", fleet)
                          for i, a in enumerate(top.get("actions", [], list), 1)),
            assertions=tuple(_assertion(a, fleet) for a in top.get(
                "assertions", ["lossless", "seq_gap_free"], list)),
        )


def _node_group(sec: _Section, seed: int, first: int) -> NodeGroup:
    """A node group whose first node is fleet index ``first``."""
    class_name = sec.get("class_name", "multi_sensor", str)
    channels, waves = [], []
    for i, doc in enumerate(sec.get("channels", [], list), 1):
        ch = _Section(doc, f"{sec.what} channel {i}")
        channels.append(ch.record(edge.ChannelConfig, ("waveform",),
                                  class_name=ch.get("class_name", class_name, str)))
        wave = ch.section("waveform", {"kind": "constant", "base": 0.0})
        waves.append((wave.record(WaveformSpec), "seed" in wave.doc))
    sensors = [c.sensor_name for c in channels]
    if len(set(sensors)) < len(sensors):
        raise BadScenario(f"{sec.what}: a sensor name repeats in {sensors}")
    tags = sec.section("tags", {})
    for k in tags.doc:
        tags.get(k, want=str)
    rules = sec.get("edge_rules", [], list)
    controls = sec.get("control_rules", [], list)
    return NodeGroup(
        name_prefix=sec.get("name_prefix", "node", str), class_name=class_name,
        channels=tuple(channels),
        edge_rules=tuple(_Section(r, f"{sec.what} edge rule {i}").record(edge.EdgeRule)
                         for i, r in enumerate(rules, 1)),
        control_rules=tuple(_control_rule(_Section(r, f"{sec.what} control rule {i}"), sensors)
                            for i, r in enumerate(controls, 1)),
        tags=tuple(tags.doc.items()),
        waveforms=tuple(tuple(
            w if seeded else replace(w, seed=seed * 1000 + (first + n) * 16 + i)
            for i, (w, seeded) in enumerate(waves))
            for n in range(sec.number("count", 1, int, low=0))),
    )


def _control_rule(sec: _Section, sensors: list[str]) -> edge.ControlRule:
    cond = sec.section("condition")
    terms = []
    for term in cond.get("terms", want=list):
        if not (isinstance(term, list) and len(term) == 3 and term[0] in sensors
                and isinstance(term[1], str)):
            raise cond.bad("term", term, f"[channel, op, threshold] on one of {sensors}")
        terms.append((*term[:2], _Section({"threshold": term[2]}, cond.what).number("threshold")))
    return sec.record(edge.ControlRule, condition=cond.record(edge.Condition,
                                                              terms=tuple(terms)))


def _pipeline(doc, fleet: Mapping[str, str]) -> tuple[dict | None, tuple]:
    """The pipeline document, copied, and its twin_desired sinks; the
    streams module's own parser reads it."""
    if not doc:
        return None, ()
    try:
        sinks = streams_mod.Pipeline(doc).sinks
    except (streams_mod.StreamError, msgbus.BusError, ValueError, KeyError, TypeError,
            AttributeError) as exc:
        raise BadScenario(f"bad pipeline: {exc!r}") from None
    twin_sinks = tuple((sink_id, *target) for sink_id, (dest, target) in sinks.items()
                       if dest == "twin_desired")
    for sink_id, node_id, prop in twin_sinks:
        if not (isinstance(node_id, str) and node_id in fleet and isinstance(prop, str)):
            raise BadScenario(f"sink {sink_id}: node {node_id!r} is not in the fleet "
                              f"or prop {prop!r} is not a name")
    return copy.deepcopy(doc), twin_sinks


def _fault(sec: _Section, duration: float, fleet: list[str]) -> Fault:
    kind = _kind(sec.doc, FAULT_PARAMS, "fault")
    start, end = sec.number("start", 0.0), sec.number("end", duration)
    if not 0 <= start <= end <= duration:
        raise BadScenario(f"{sec.what}: window {start}..{end} s is not inside the "
                          f"scenario's 0..{duration} s")
    chosen = sec.get("nodes", "all")
    chosen = range(1, len(fleet) + 1) if chosen == "all" else sec.get("nodes", want=list)
    for n in chosen:
        if isinstance(n, int) and not 1 <= n <= len(fleet):
            raise BadScenario(f"fault node index {n} outside the fleet of {len(fleet)}")
        if not isinstance(n, int) and n not in fleet:
            raise BadScenario(f"{sec.what}: node {n!r} is not in the fleet")
    param = FAULT_PARAMS[kind]
    params = sec.section("params", {}, frozenset(param[:1]))
    return Fault(kind, tuple(n - 1 if isinstance(n, int) else fleet.index(n) for n in chosen),
                 start, end, params.number(*param) if param else None)


def _action(doc, what: str, fleet: Mapping[str, str]) -> Action:
    kind = _kind(doc, ACTION_KEYS, "action")
    sec = _Section(doc, what, ACTION_KEYS[kind])
    at = sec.number("at", 0.0)
    if kind == "remediate":
        return Action(kind, at, sec.get("incident", want=str))
    node, changes = sec.get("node", want=str), sec.section("set")
    if node not in fleet or not changes.doc:
        raise BadScenario(f"{what}: node {node!r} is not in the fleet or it sets nothing")
    try:
        parsed = tuple((k, infomodel.parse_scalar(v)) for k, v in changes.doc.items())
    except infomodel.ModelError as exc:
        raise BadScenario(f"{changes.what}: {exc}") from None
    return Action(kind, at, node, parsed)


def _assertion(doc, fleet: Mapping[str, str]) -> Assertion:
    name = doc.get("check") if isinstance(doc, dict) else doc
    if not isinstance(name, str) or name not in ASSERTIONS:
        raise BadScenario(f"unknown assertion {doc!r}")
    sec = _Section(doc if isinstance(doc, dict) else {}, f"assertion {name}",
                   ASSERTIONS[name][1] | {"check"})
    nodes = ((sec.get("node", want=str),) if name == "incident_opened"
             else tuple(sec.get("nodes", [], list)))
    exclude = sec.get("exclude", [], list)
    for node in (*nodes, *exclude):
        if not (isinstance(node, str) and node in fleet):
            raise sec.bad("node", node, "a node of the fleet")
    return Assertion(name, nodes, frozenset(exclude), sec.number("seconds", 5.0, low=0))


@dataclass(slots=True)
class RunReport:
    generated: dict[str, int] = field(default_factory=dict)
    stored: dict[str, int] = field(default_factory=dict)
    rejected: dict[str, int] = field(default_factory=dict)
    duplicates_injected: int = 0  # acks a duplicate_replay fault lost
    incidents: list[dict] = field(default_factory=list)
    convergence: dict[str, bool] = field(default_factory=dict)
    flush_complete: dict[str, float] = field(default_factory=dict)
    emissions: list[dict] = field(default_factory=list)
    alerts: int = 0
    assertions: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def to_dict(self) -> dict:
        """Every field, a mapping in key order, and ``ok``."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**{k: dict(sorted(v.items())) if isinstance(v, dict) else v
                   for k, v in doc.items()}, "ok": self.ok}


# -- simulated gateway ---------------------------------------------------


class SimNode:
    """One edge gateway plus its waveform-driven sensors."""

    def __init__(self, world: "World", entry, group: NodeGroup,
                 waveforms: tuple[WaveformSpec, ...]):
        self.world = world
        self.node_id = entry.node_id
        self.credential = entry.credential
        self.waveforms = {c.sensor_name: w for c, w in zip(group.channels, waveforms)}
        self.edge = edge.EdgeNode(edge.NodeConfig(
            node_id=self.node_id, class_name=entry.class_name, channels=group.channels,
            edge_rules=group.edge_rules, control_rules=group.control_rules,
            tags=dict(group.tags)))
        self.link_up = True
        self.flooding_rate = 0
        self.flood_seq = 0

    def go_offline(self) -> None:
        self.link_up = False
        self.drop_session()

    def drop_session(self) -> None:
        """End the node's session, if it has one, and mark its twin
        disconnected."""
        s = self.edge.session
        if s is None:
            return
        if s.connected:
            self.world.broker.disconnect(s)
        self.edge.session = None
        self.world.twins.mark_connectivity(self.node_id, False)

    def tick(self, t: float) -> None:
        connected = self.attach(t)
        for sensor in self.edge.due_channels(t):
            raw = gen_waveform(self.waveforms[sensor], t)
            reading = self.edge.ingest_raw(sensor, raw, t)
            key = str(reading.channel)
            self.world.generated[key] = self.world.generated.get(key, 0) + 1
        # nothing consumes the actuations yet; a node without control
        # rules has none to compute
        if self.edge.config.control_rules:
            self.edge.control_step()
        if self.flooding_rate and connected:
            self._flood(t)
        self.send(t)

    def attach(self, t: float) -> bool:
        """Connect if the link is up, then apply each desired-state command
        (the node's only subscription) and queue the twin report that acks
        it; any other frame is acked and skipped. False without a session."""
        if not self.link_up:
            return False
        s = self.edge.session
        if s is None or not s.connected:
            try:
                s = self.world.broker.connect(self.node_id, self.credential)
            except msgbus.AuthFailed:
                self.drop_session()
                return False
            s.subscribe(twins_mod.desired_topic(self.node_id))
            self.edge.session = s
            self.world.twins.mark_connectivity(self.node_id, True)
        for frame in s.drain():
            try:
                desired, version = twins_mod.decode_desired_command(frame.payload)
            except twins_mod.SchemaInvalid:
                pass  # not a command: acked below and skipped
            else:
                self.edge.apply_desired(desired)
                payload = twins_mod.encode_reported(self.edge.local_state_doc(), version, t)
                self.edge.uplink.append(
                    edge.QueuedFrame(twins_mod.reported_topic(self.node_id), payload))
            if frame.qos >= 1:
                s.ack(frame.msg_id)
        return True

    def send(self, t: float) -> int:
        """Flush the uplink, noting when a flush empties it."""
        published = self.edge.flush()
        if published and not self.edge.uplink:
            self.world.note_flush_complete(self.node_id, t)
        return published

    def _flood(self, now: float) -> None:
        per_tick = max(1, int(self.flooding_rate * self.world.spec.tick_s))
        session = self.edge.session
        for _ in range(per_tick):
            self.flood_seq += 1
            r = Reading(
                channel=ChannelKey(self.node_id, "flood"),
                value=float(self.flood_seq),
                ts=now,
                seq=self.flood_seq,
            )
            payload = infomodel.encode_report(self.node_id, [r])
            try:
                session.publish(f"data/{self.node_id}/flood", payload, qos=0)
            except msgbus.NotConnected:
                break


# -- the world -----------------------------------------------------------


class LossyAckBroker(msgbus.Broker):
    """The broker under ``duplicate_replay``: it loses the ack of a frame from a
    node in ``replay`` (sender id before ``#``) at that node's probability."""

    def __init__(self, rng: random.Random, clock, authenticator):
        super().__init__(clock, authenticator)
        self.rng, self.lost_acks, self.replay = rng, 0, {}  # replay: node id -> probability

    def ack(self, session: msgbus.Session, msg_id: msgbus.MsgId) -> bool:
        p = self.replay.get(msg_id.sender.partition("#")[0])
        if p is not None and self.rng.random() < p:  # one draw per ack
            self.lost_acks += 1
            return False  # the frame stays pending: the broker redelivers it
        return super().ack(session, msg_id)


class World:
    def __init__(self, spec: ScenarioSpec, data_dir: Path,
                 registry: controlplane.Registry | None = None):
        self.spec = spec
        self.clock = VirtualClock(0.0)
        self.rng = random.Random(spec.seed)
        self.model = platform.load_model(data_dir)
        self._check_against_model()
        self.registry = registry or controlplane.Registry(clock=self.clock)
        if self.registry.entries():
            raise BootFailure("a scenario commissions its fleet into an empty registry")
        self.registry.clock = self.clock
        self.broker = LossyAckBroker(self.rng, self.clock, self.registry.authenticate)
        p = self.platform = platform.Platform(
            data_dir, self.model, self.registry, self.broker, self.clock, spec.route_rules,
            spec.pipeline, on_quarantine=lambda node_id: self.node_by_id(node_id).drop_session())
        # the platform's own objects, under the names the benchmark reaches
        self.tsdb, self.gateway, self.twins = p.tsdb, p.gateway, p.twins
        self.pipeline, self.monitor = p.pipeline, p.monitor
        self.nodes: list[SimNode] = []
        self._nodes_by_id: dict[str, SimNode] = {}
        self._pending_actions = list(spec.actions)
        self.generated: dict[str, int] = {}  # channel -> readings; seqs are 1..n
        self.report = RunReport()
        self._faulted = sorted({i for f in spec.faults for i in f.nodes})
        self._active_faults: list[Fault] = []
        self._outage_pending_since: dict[str, float] = {}
        try:
            self._boot_nodes()
        except Exception:
            # a failed commission must not leak the files opened above
            self.close()
            raise

    # -- wiring ----------------------------------------------------------

    def _check_against_model(self) -> None:
        """What the scenario asks of the model, checked before any node is
        commissioned: its classes exist, each set_desired action is a
        change the twin accepts, and each twin_desired sink names a
        writable numeric property."""
        spec = self.spec
        if not spec.fleet:
            raise BootFailure("scenario defines no nodes")
        for class_name in dict.fromkeys(spec.fleet.values()):
            if not self.model.has_class(class_name):
                raise BadScenario(f"unknown class {class_name!r}")
        props = lambda node_id: self.model.effective_properties(spec.fleet[node_id])
        for a in spec.actions:
            if a.kind == "set_desired":
                try:
                    twins_mod.check_desired(props(a.target), dict(a.changes))
                except twins_mod.TwinError as exc:
                    raise BadScenario(f"set_desired on {a.target} at {a.at} s: "
                                      f"{type(exc).__name__}: {exc}") from None
        for sink_id, node_id, prop_name in spec.twin_sinks:
            prop = props(node_id).get(prop_name)
            if prop is None or not prop.writable or prop.datatype not in ("number", "integer"):
                raise BadScenario(f"sink {sink_id}: {prop_name} is not a writable "
                                  f"numeric property of {spec.fleet[node_id]}")

    def _boot_nodes(self) -> None:
        for group in self.spec.nodes:
            for waveforms in group.waveforms:
                entry = self.registry.commission(
                    name=group.name_prefix, class_name=group.class_name, model=self.model)
                self.registry.transition(entry.node_id, "active")
                self.twins.register_node(entry.node_id, entry.class_name)
                node = SimNode(self, entry, group, waveforms)
                self.nodes.append(node)
                self._nodes_by_id[node.node_id] = node

    def close(self) -> None:
        """Close what the platform opened. Safe to call more than once."""
        self.platform.close()

    def node_by_id(self, node_id: str) -> SimNode:
        return self._nodes_by_id[node_id]

    def note_flush_complete(self, node_id: str, now: float) -> None:
        since = self._outage_pending_since.pop(node_id, None)
        if since is not None:
            self.report.flush_complete[node_id] = now - since

    # -- main loop -------------------------------------------------------

    def run(self) -> RunReport:
        ticks = int(round(self.spec.duration_s / self.spec.tick_s))
        per_second = max(1, int(round(1.0 / self.spec.tick_s)))
        for i in range(ticks):
            t = self.clock.now()
            self._apply_faults(t)
            self._apply_actions(t)
            for node in self.nodes:
                node.tick(t)
            self.platform.step(t)
            if i % per_second == per_second - 1:
                self.platform.tick(t)
            self.broker.redeliver_pending(t)
            self.clock.advance(self.spec.tick_s)
        self._settle()
        return self._finalize()

    def _settle(self) -> None:
        """Bring every link up (an outage ends by the run's end), then tick on
        without new samples until no frame moves and none is unacked: at
        most ``MAX_DELIVERIES`` ack timeouts, each rounded up to whole ticks."""
        for node in self.nodes:
            node.link_up = True
        per_timeout = math.ceil(msgbus.ACK_TIMEOUT_S / self.spec.tick_s) + 1  # clock rounding
        for _ in range(msgbus.MAX_DELIVERIES * per_timeout + 1):
            t = self.clock.now()
            sent = sum(node.send(t) for node in self.nodes if node.attach(t))
            handled = self.platform.step(t)
            self.broker.redeliver_pending(t)
            self.clock.advance(self.spec.tick_s)
            if sent == 0 and handled == 0 and not self.platform.session.pending:
                break

    def _apply_faults(self, t: float) -> None:
        """Each faulted node's state at ``t``, from every fault active on
        it: its link is down while any outage covers it, it floods at the
        largest active rate and loses acks at the largest active
        probability. The state changes only when the active set does."""
        active = [f for f in self.spec.faults if f.start <= t < f.end]
        if active == self._active_faults:
            return
        self._active_faults = active
        down: dict[int, float] = {}  # node index -> latest end of its active outages
        rate: dict[int, int] = {}
        replay: dict[str, float] = {}
        for f in active:
            for i in f.nodes:
                if f.kind == "uplink_outage":
                    down[i] = max(down.get(i, f.end), f.end)
                elif f.kind == "flood":
                    rate[i] = max(rate.get(i, 0), f.level)
                else:
                    node_id = self.nodes[i].node_id
                    replay[node_id] = max(replay.get(node_id, 0.0), f.level)
        self.broker.replay = replay
        for i in self._faulted:
            node = self.nodes[i]
            node.flooding_rate = rate.get(i, 0)
            end = down.get(i)
            if end is not None:
                if node.link_up:
                    node.go_offline()
                since = self._outage_pending_since
                since[node.node_id] = max(since.get(node.node_id, end), end)
            elif not node.link_up:
                node.link_up = True

    def _apply_actions(self, t: float) -> None:
        pending = []
        for action in self._pending_actions:
            if t + 1e-9 < action.at:
                pending.append(action)
            elif action.kind == "set_desired":
                self.twins.set_desired(action.target, dict(action.changes))
            else:
                self.monitor.remediate(action.target)
        self._pending_actions = pending

    # -- wrap-up ---------------------------------------------------------

    def _finalize(self) -> RunReport:
        p = self.platform
        p.finish(self.clock.now())
        rep = self.report
        rep.generated.update(self.generated)
        rep.rejected.update(p.rejected)
        rep.emissions.extend(p.emissions)
        rep.incidents.extend(p.incidents)
        rep.duplicates_injected, rep.alerts = self.broker.lost_acks, p.alerts
        for channel in self.tsdb.channels():
            rep.stored[str(channel)] = self.tsdb.count(channel)
        for node in self.nodes:
            rep.convergence[node.node_id] = self.twins.converged(node.node_id)
        rep.incidents.extend({"ts": i.opened_ts, "event": "incident", "id": i.incident_id,
                              "node": i.node_id, "kind": i.kind, "state": i.state}
                             for i in self.registry.incidents.values())
        self._run_assertions()
        return rep

    def _run_assertions(self) -> None:
        for a in self.spec.assertions:
            passed, detail = ASSERTIONS[a.check][0](self, a)
            self.report.assertions.append(
                {"check": a.check, "passed": passed, "detail": detail}
            )

    def _channels(self, a: Assertion) -> list[tuple[str, int]]:
        """Generated channels and their counts, less those of excluded nodes."""
        return [(ch, n) for ch, n in self.generated.items() if ch.split("/")[0] not in a.exclude]

    def _stored_seqs(self, ch: str) -> list[int]:
        if ch not in self.report.stored:  # the gateway rejected every reading
            return []
        stored = self.tsdb.query_range(ChannelKey.parse(ch), float("-inf"), float("inf"))
        return sorted(r.seq for r in stored)

    def _lossless(self, a: Assertion) -> tuple[bool, str]:
        bad = [ch for ch, n in self._channels(a) if self.report.stored.get(ch, 0) != n]
        return (not bad, f"channels with loss/extra: {bad[:5]}")

    def _seq_gap_free(self, a: Assertion) -> tuple[bool, str]:
        bad = []
        for ch, _ in self._channels(a):
            seqs = self._stored_seqs(ch)
            if seqs != list(range(1, len(seqs) + 1)):
                bad.append(ch)
        return (not bad, f"channels with gaps: {bad[:5]}")

    def _exact_multiset(self, a: Assertion) -> tuple[bool, str]:
        bad = [ch for ch, n in self._channels(a)
               if self._stored_seqs(ch) != list(range(1, n + 1))]
        return (not bad, f"channels off ledger: {bad[:5]}")

    def _all_converged(self, a: Assertion) -> tuple[bool, str]:
        bad = [n for n in a.nodes or self.spec.fleet if not self.twins.converged(n)]
        return (not bad, f"unconverged: {bad}")

    def _twins_match_store(self, a: Assertion) -> tuple[bool, str]:
        """Each channel's twin key holds the stored reading with the greatest
        (ts, seq) of those the gateway routed to the twin as well: the
        last-writer-wins rule of ``apply_report``."""
        bad = []
        for ch in self.generated:
            if ch not in self.report.stored:
                continue
            key = ChannelKey.parse(ch)
            topic = f"data/{key.node_id}/{key.sensor_name}"
            routed = [r for r in self.tsdb.query_range(key, -math.inf, math.inf)
                      if "twin" in self.gateway.route(topic, key.node_id, r.tags)]
            if routed:
                last = max(routed, key=lambda r: (r.ts, r.seq))
                twin = self.twins.get_twin(key.node_id)
                if (twin.reported.get(key.sensor_name), twin.report_ts.get(key.sensor_name)) != (
                        infomodel.scalar_of(last.value), last.ts):
                    bad.append(ch)
        return (not bad, f"twins off the store: {bad[:5]}")

    def _incident_opened(self, a: Assertion) -> tuple[bool, str]:
        opened = {i.get("node") for i in self.report.incidents
                  if i["event"] == "incident_opened"}
        missing = [n for n in a.nodes if n not in opened]
        return (not missing, f"no incident for {', '.join(missing)}" if missing else "")

    def _flush_within(self, a: Assertion) -> tuple[bool, str]:
        """By default every node that had an outage or flushed a backlog."""
        flushed = self.report.flush_complete
        outage = [self.nodes[i].node_id for f in self.spec.faults
                  if f.kind == "uplink_outage" for i in f.nodes]
        bad = [n for n in a.nodes or dict.fromkeys([*flushed, *outage])
               if flushed.get(n, math.inf) > a.seconds]
        return (not bad, f"slow flush: {bad}")


# The assertions a scenario may name: each one's check and the params it reads.
ASSERTIONS = {
    "lossless": (World._lossless, frozenset({"exclude"})),
    "seq_gap_free": (World._seq_gap_free, frozenset({"exclude"})),
    "exact_multiset": (World._exact_multiset, frozenset({"exclude"})),
    "all_converged": (World._all_converged, frozenset({"nodes"})),
    "twins_match_store": (World._twins_match_store, frozenset()),
    "incident_opened": (World._incident_opened, frozenset({"node"})),
    "flush_within": (World._flush_within, frozenset({"seconds", "nodes"})),
}


def run_scenario(spec: ScenarioSpec, data_dir: Path) -> RunReport:
    world = World(spec, Path(data_dir))
    try:
        return world.run()
    finally:
        world.close()
