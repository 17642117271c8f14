"""Scenario runner: a deterministic simulated fleet end to end.

Boots the broker, control plane, cloud gateway, twins, streams, and
time-series store, plus N edge gateways, then drives everything from a
virtual clock in fixed ticks. Faults (uplink outages, floods, duplicate
replay) are injected on schedule; ground-truth generation ledgers stay
untouched by faults so loss accounting is exact. The result is a
machine-readable RunReport that is identical across runs of the same
scenario and seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .. import cloudgw, controlplane, edge, infomodel, msgbus, streams as streams_mod
from .. import tsdb as tsdb_mod, twins as twins_mod
from ..infomodel import TypedScalar
from ..reading import ChannelKey, Reading
from ..timeutil import VirtualClock
from .waveforms import WaveformSpec, gen_waveform

SETTLE_TICKS = 100


class BadScenario(Exception):
    pass


class BootFailure(Exception):
    pass


def build_default_model() -> infomodel.ModelRegistry:
    """Fleet vocabulary used when a scenario brings no model directory."""
    model = infomodel.ModelRegistry()
    num = lambda name, unit="", writable=False: infomodel.PropertyDef(
        name, "number", unit=unit, writable=writable
    )
    model.register_class(
        infomodel.ObjectClass(
            "sensor_node",
            properties=[
                infomodel.PropertyDef("unit", "string"),
                infomodel.PropertyDef("zone", "string"),
                infomodel.PropertyDef("site", "string"),
            ],
        )
    )
    model.register_class(
        infomodel.ObjectClass(
            "temperature_sensor",
            parent="sensor_node",
            properties=[num("temp", "°F")],
        )
    )
    model.register_class(
        infomodel.ObjectClass(
            "multi_sensor",
            parent="sensor_node",
            properties=[
                num("temp", "°F"),
                num("humidity", "%"),
                num("pressure", "hPa"),
                num("power", "W"),
                num("setpoint", "°F", writable=True),
                infomodel.PropertyDef("fan_power", "boolean", writable=True),
                infomodel.PropertyDef("firmware", "string", writable=True),
            ],
            interactions=[
                infomodel.InteractionDef("set_setpoint", "write", "setpoint"),
                infomodel.InteractionDef("overtemp", "event"),
            ],
        )
    )
    return model


# -- scenario specification ----------------------------------------------


@dataclass(slots=True)
class Fault:
    kind: str  # uplink_outage | flood | duplicate_replay
    nodes: list[str]
    start: float
    end: float
    params: dict = field(default_factory=dict)


SPEC_KEYS = frozenset({"duration_s", "tick_s", "seed", "nodes", "pipeline",
                       "route_rules", "faults", "actions", "assertions",
                       "model_dir"})
NODE_GROUP_KEYS = frozenset({"count", "name_prefix", "class_name", "channels",
                             "edge_rules", "control_rules", "tags"})


def _check_keys(doc: dict, known: frozenset, what: str) -> None:
    unknown = sorted(set(doc) - known)
    if unknown:
        raise BadScenario(f"unknown {what} key(s): {', '.join(unknown)}")


@dataclass(slots=True)
class ScenarioSpec:
    duration_s: float
    tick_s: float = 0.1
    seed: int = 1
    nodes: list[dict] = field(default_factory=list)
    pipeline: dict | None = None
    route_rules: list[dict] = field(default_factory=list)
    faults: list[dict] = field(default_factory=list)
    actions: list[dict] = field(default_factory=list)
    assertions: list = field(default_factory=lambda: ["lossless", "seq_gap_free"])
    model_dir: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioSpec":
        """Spec from its JSON form; an unknown top-level or node-group
        key raises BadScenario, so a misspelt key never runs defaults."""
        if "duration_s" not in doc:
            raise BadScenario("scenario needs duration_s")
        _check_keys(doc, SPEC_KEYS, "scenario")
        spec = cls(duration_s=float(doc["duration_s"]))
        for key in SPEC_KEYS - {"duration_s"}:
            if key in doc:
                setattr(spec, key, doc[key])
        for group in spec.nodes:
            _check_keys(group, NODE_GROUP_KEYS, "node group")
        for f in spec.faults:
            if not (0 <= f.get("start", 0) <= f.get("end", 0) <= spec.duration_s):
                raise BadScenario(f"fault window outside scenario duration: {f}")
        return spec

    @classmethod
    def from_file(cls, path: Path) -> "ScenarioSpec":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(slots=True)
class RunReport:
    generated: dict[str, int] = field(default_factory=dict)
    stored: dict[str, int] = field(default_factory=dict)
    rejected: dict[str, int] = field(default_factory=dict)
    duplicates_injected: int = 0
    duplicates_rejected: int = 0
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
        return {
            "generated": dict(sorted(self.generated.items())),
            "stored": dict(sorted(self.stored.items())),
            "rejected": dict(sorted(self.rejected.items())),
            "duplicates_injected": self.duplicates_injected,
            "duplicates_rejected": self.duplicates_rejected,
            "incidents": self.incidents,
            "convergence": dict(sorted(self.convergence.items())),
            "flush_complete": dict(sorted(self.flush_complete.items())),
            "emissions": self.emissions,
            "alerts": self.alerts,
            "assertions": self.assertions,
            "ok": self.ok,
        }


# -- simulated gateway ---------------------------------------------------


class SimNode:
    """One edge gateway plus its waveform-driven sensors."""

    def __init__(self, world: "World", entry, node_cfg: dict):
        self.world = world
        self.node_id = entry.node_id
        self.credential = entry.credential
        channels = []
        self.waveforms: dict[str, WaveformSpec] = {}
        for i, ch in enumerate(node_cfg.get("channels", [])):
            channels.append(
                edge.ChannelConfig(
                    sensor_name=ch["sensor_name"],
                    class_name=ch.get("class_name", entry.class_name),
                    sample_period_ms=int(ch.get("sample_period_ms", 1000)),
                    scale=float(ch.get("scale", 1.0)),
                    offset=float(ch.get("offset", 0.0)),
                    unit=ch.get("unit", ""),
                )
            )
            wf = dict(ch.get("waveform", {"kind": "constant", "base": 0.0}))
            wf.setdefault("seed", world.spec.seed * 1000 + len(world.nodes) * 16 + i)
            self.waveforms[ch["sensor_name"]] = WaveformSpec.from_dict(wf)
        rules = [edge.EdgeRule(**r) for r in node_cfg.get("edge_rules", [])]
        ctl = [
            edge.ControlRule(
                rule_id=r["rule_id"],
                condition=edge.Condition(
                    terms=[tuple(t) for t in r["condition"]["terms"]],
                    combine=r["condition"].get("combine", "all"),
                ),
                actuator=r["actuator"],
                prop=r["prop"],
                value=r["value"],
            )
            for r in node_cfg.get("control_rules", [])
        ]
        self.edge = edge.EdgeNode(
            edge.NodeConfig(
                node_id=self.node_id,
                class_name=entry.class_name,
                channels=channels,
                edge_rules=rules,
                control_rules=ctl,
                tags=dict(node_cfg.get("tags", {})),
            )
        )
        self.link_up = True
        self.flooding_rate = 0
        self.flood_seq = 0

    def ensure_connected(self) -> bool:
        if not self.link_up:
            return False
        s = self.edge.session
        if s is not None and s.connected:
            return True
        try:
            s = self.world.broker.connect(self.node_id, self.credential)
        except msgbus.AuthFailed:
            self.edge.session = None
            return False
        s.subscribe(twins_mod.desired_topic(self.node_id))
        s.subscribe(controlplane.update_topic(self.node_id))
        self.edge.session = s
        return True

    def go_offline(self) -> None:
        self.link_up = False
        if self.edge.session is not None and self.edge.session.connected:
            self.world.broker.disconnect(self.edge.session)
        self.edge.session = None

    def tick(self, now: float, t: float) -> None:
        connected = self.ensure_connected()
        if connected:
            self._drain_commands(now)
        for sensor in self.edge.due_channels(now):
            raw = gen_waveform(self.waveforms[sensor], t)
            reading = self.edge.ingest_raw(sensor, raw, now)
            ledger = self.world.generated.setdefault(str(reading.channel), [])
            ledger.append(reading.seq)
        self.edge.control_step()
        if self.flooding_rate and connected:
            self._flood(now)
        published = self.edge.flush()
        if published and not self.edge.uplink.pending:
            self.world.note_flush_complete(self.node_id, now)

    def _drain_commands(self, now: float) -> None:
        session = self.edge.session
        for frame in session.drain():
            if frame.topic == twins_mod.desired_topic(self.node_id):
                desired, version = twins_mod.decode_desired_command(frame.payload)
                self.edge.apply_desired(desired)
                doc = {k: v.encode() for k, v in self.edge.local_state_doc().items()}
                payload = json.dumps(
                    {"doc": doc, "ack_version": version, "ts": now},
                    separators=(",", ":"), ensure_ascii=False,
                )
                self.edge.uplink.enqueue(
                    edge.QueuedFrame(twins_mod.reported_topic(self.node_id), payload)
                )
            elif frame.topic == controlplane.update_topic(self.node_id):
                cmd = json.loads(frame.payload)
                payload = json.dumps({"version": cmd["version"]}, separators=(",", ":"))
                self.edge.uplink.enqueue(
                    edge.QueuedFrame(f"mgmt/{self.node_id}/status", payload)
                )
            if frame.qos >= 1:
                session.ack(frame.msg_id)

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


class World:
    def __init__(self, spec: ScenarioSpec, data_dir: Path,
                 registry: controlplane.Registry | None = None):
        self.spec = spec
        self.clock = VirtualClock(0.0)
        self.rng = random.Random(spec.seed)
        self.model = build_default_model()
        if spec.model_dir:
            self.model.load_model_dir(Path(spec.model_dir))
        self.registry = registry or controlplane.Registry(clock=self.clock)
        self.registry.clock = self.clock
        self.broker = msgbus.Broker(
            clock=self.clock, authenticator=self.registry.authenticate
        )
        self.registry.on_quarantine = self._on_quarantine
        self.tsdb = tsdb_mod.Store(Path(data_dir) / "tsdb")
        self.gateway = cloudgw.CloudGateway(
            self.model,
            self.registry,
            clock=self.clock,
            audit_path=Path(data_dir) / "audit.jsonl",
            route_rules=self._route_rules(),
        )
        self.cloud_session = self.broker.connect_service("cloud")
        for f in ("data/#", "alerts/#", "twin/+/reported", "mgmt/+/status"):
            self.cloud_session.subscribe(f)
        self.twins = twins_mod.TwinService(self.model, publish=self._publish_cloud)
        self.mgmt = controlplane.ManagementService(
            self.registry, publish=self._publish_cloud
        )
        self.monitor = controlplane.Monitor(self.registry)
        self.pipeline = (
            streams_mod.Pipeline(spec.pipeline) if spec.pipeline else None
        )
        self.notify_log = Path(data_dir) / "notifications.jsonl"
        self.nodes: list[SimNode] = []
        self._nodes_by_id: dict[str, SimNode] = {}
        self._actions_done: set[int] = set()  # indexes into spec.actions
        self.generated: dict[str, list[int]] = {}
        self.report = RunReport()
        self._bucket_counts: dict[str, int] = {}
        self._dup_fault: Fault | None = None
        self._outage_pending_since: dict[str, float] = {}
        try:
            self._boot_nodes()
            self.faults = self._resolve_faults()
        except Exception:
            # a bad node or fault entry must not leak the files opened above
            self.tsdb.close()
            self.gateway.close()
            raise

    # -- wiring ----------------------------------------------------------

    def _publish_cloud(self, topic: str, payload: str, qos: int = 1,
                       retain: bool = False):
        return self.cloud_session.publish(topic, payload, qos=qos, retain=retain)

    def _route_rules(self) -> list[cloudgw.RouteRule]:
        rules = cloudgw.route_rules(self.spec.route_rules)
        if not rules:
            # desk-scale default: telemetry feeds both lambda paths
            rules.append(
                cloudgw.RouteRule(destinations=frozenset({"tsdb", "streams"}),
                                  topic="data/#")
            )
        return rules

    def _boot_nodes(self) -> None:
        for group in self.spec.nodes:
            count = int(group.get("count", 1))
            for _ in range(count):
                entry = self.registry.commission(
                    name=group.get("name_prefix", "node"),
                    class_name=group.get("class_name", "multi_sensor"),
                    model=self.model,
                )
                self.registry.transition(entry.node_id, "active")
                self.twins.register_node(entry.node_id, entry.class_name)
                node = SimNode(self, entry, group)
                self.nodes.append(node)
                self._nodes_by_id[node.node_id] = node
        if not self.nodes:
            raise BootFailure("scenario defines no nodes")

    def _resolve_faults(self) -> list[Fault]:
        by_index = {i + 1: n.node_id for i, n in enumerate(self.nodes)}
        out = []
        for f in self.spec.faults:
            sel = f.get("nodes", "all")
            if sel == "all":
                nodes = [n.node_id for n in self.nodes]
            else:
                nodes = [by_index[s] if isinstance(s, int) else s for s in sel]
            out.append(
                Fault(
                    kind=f["kind"],
                    nodes=nodes,
                    start=float(f.get("start", 0.0)),
                    end=float(f.get("end", self.spec.duration_s)),
                    params=dict(f.get("params", {})),
                )
            )
        return out

    def node_by_id(self, node_id: str) -> SimNode:
        node = self._nodes_by_id.get(node_id)
        if node is None:
            raise BadScenario(f"unknown node {node_id}")
        return node

    def _on_quarantine(self, node_id: str) -> None:
        self.broker.drop_node(node_id)
        self.report.incidents.append(
            {"ts": self.clock.now(), "event": "quarantined", "node": node_id}
        )

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
                node.tick(t, t)
            self._cloud_step(t)
            if i % per_second == per_second - 1:
                self._monitor_step(t)
            self.broker.redeliver_pending(t)
            self.clock.advance(self.spec.tick_s)
        self._settle()
        return self._finalize()

    def _settle(self) -> None:
        """Let in-flight frames drain without generating new samples."""
        for _ in range(SETTLE_TICKS):
            t = self.clock.now()
            active = 0
            for node in self.nodes:
                if node.ensure_connected():
                    node._drain_commands(t)
                    active += node.edge.flush()
            before = len(self.cloud_session.inbox)
            self._cloud_step(t)
            self.broker.redeliver_pending(t)
            self.clock.advance(self.spec.tick_s)
            if active == 0 and before == 0:
                break

    def _apply_faults(self, t: float) -> None:
        self._dup_fault = None
        for fault in self.faults:
            active = fault.start <= t < fault.end
            if fault.kind == "uplink_outage":
                for node_id in fault.nodes:
                    node = self.node_by_id(node_id)
                    if active and node.link_up:
                        node.go_offline()
                        self._outage_pending_since.setdefault(node_id, fault.end)
                    elif not active and not node.link_up and t >= fault.end:
                        node.link_up = True
            elif fault.kind == "flood":
                rate = int(fault.params.get("rate", 1000))
                for node_id in fault.nodes:
                    self.node_by_id(node_id).flooding_rate = rate if active else 0
            elif fault.kind == "duplicate_replay" and active:
                self._dup_fault = fault

    def _apply_actions(self, t: float) -> None:
        for i, action in enumerate(self.spec.actions):
            if i in self._actions_done:
                continue
            if t + 1e-9 < float(action.get("at", 0.0)):
                continue
            self._actions_done.add(i)
            kind = action["kind"]
            if kind == "set_desired":
                patch = twins_mod.DesiredPatch(
                    set={k: infomodel.parse_scalar(v) for k, v in action["set"].items()}
                )
                self.twins.set_desired(action["node"], patch)
            elif kind == "push_update":
                self.mgmt.push_update(
                    action["node"], action["version"], action.get("digest", "")
                )
            elif kind == "remediate":
                self.monitor.remediate(action["incident"])
            else:
                raise BadScenario(f"unknown action kind {kind!r}")

    # -- cloud side ------------------------------------------------------

    def _cloud_step(self, t: float) -> None:
        frames = self.cloud_session.drain()
        dup = self._dup_fault
        for frame in frames:
            self._handle_frame(frame, t)
            if dup is not None and self.rng.random() < float(
                dup.params.get("probability", 0.2)
            ):
                self.report.duplicates_injected += 1
                self._handle_frame(frame, t, injected_duplicate=True)
            if frame.qos >= 1:
                self.cloud_session.ack(frame.msg_id)

    def _handle_frame(self, frame: msgbus.Frame, t: float,
                      injected_duplicate: bool = False) -> None:
        parts = frame.topic.split("/")
        if len(parts) < 2:
            return
        kind, node_id = parts[0], parts[1]
        self._bucket_counts[node_id] = self._bucket_counts.get(node_id, 0) + 1
        if kind == "data":
            decision = self.gateway.admit(node_id, frame.topic, frame.payload)
            if not decision.admitted:
                key = decision.reason
                self.report.rejected[key] = self.report.rejected.get(key, 0) + 1
                if decision.reason == "duplicate" and injected_duplicate:
                    self.report.duplicates_rejected += 1
                return
            for reading in decision.readings:
                dests = self.gateway.route(frame.topic, node_id, reading.tags)
                if "tsdb" in dests:
                    self.tsdb.append(reading)
                if "streams" in dests and self.pipeline is not None:
                    for em in self.pipeline.process(reading):
                        self._handle_emission(em)
                if "twin" in dests:
                    self.twins.apply_report(
                        node_id,
                        {reading.channel.sensor_name: TypedScalar.number(
                            float(reading.value))},
                        ts=reading.ts,
                    )
        elif kind == "alerts":
            if self.registry.lifecycle_of(node_id) == "active":
                self.report.alerts += 1
        elif kind == "twin" and len(parts) == 3 and parts[2] == "reported":
            if self.registry.lifecycle_of(node_id) != "active":
                return
            obj = json.loads(frame.payload)
            doc = {k: infomodel.parse_scalar(v) for k, v in obj["doc"].items()}
            self.twins.apply_report(
                node_id, doc, ack_version=int(obj.get("ack_version", 0)),
                ts=float(obj.get("ts", t)),
            )
        elif kind == "mgmt" and len(parts) == 3 and parts[2] == "status":
            if self.registry.lifecycle_of(node_id) == "active":
                self.mgmt.apply_status_report(node_id, json.loads(frame.payload)["version"])

    def _handle_emission(self, em: streams_mod.Emission) -> None:
        record = {
            "sink": em.sink_id,
            "dest": em.dest,
            "ts": em.item.ts,
            "value": em.item.value,
            "channel": em.item.channel,
            "meta": {k: v for k, v in em.item.meta.items() if k != "tags"},
        }
        self.report.emissions.append(record)
        if em.dest == "topic":
            self._publish_cloud(em.params.get("topic", "derived/out"),
                                json.dumps(record, separators=(",", ":")), qos=0)
        elif em.dest == "notify":
            with open(self.notify_log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        elif em.dest == "tsdb":
            ch = ChannelKey.parse(em.params.get("channel", "derived/stream"))
            self.tsdb.append(Reading(channel=ch, value=em.item.value, ts=em.item.ts))
        elif em.dest == "twin_desired":
            patch = twins_mod.DesiredPatch(
                set={em.params["prop"]: TypedScalar.number(em.item.value)}
            )
            self.twins.set_desired(em.params["node"], patch)

    def _monitor_step(self, t: float) -> None:
        for entry in self.registry.entries():
            if entry.lifecycle == "decommissioned":
                continue
            count = self._bucket_counts.get(entry.node_id, 0)
            verdict = self.monitor.observe(entry.node_id, count, t)
            if verdict == "incident_opened":
                self.report.incidents.append(
                    {"ts": t, "event": "incident_opened", "node": entry.node_id}
                )
        self._bucket_counts.clear()

    # -- wrap-up ---------------------------------------------------------

    def _finalize(self) -> RunReport:
        if self.pipeline is not None:
            for em in self.pipeline.window_flush(self.clock.now()):
                self._handle_emission(em)
        self.tsdb.flush()
        rep = self.report
        for channel, seqs in self.generated.items():
            rep.generated[channel] = len(seqs)
        for channel in self.tsdb.channels():
            rep.stored[str(channel)] = self.tsdb.count(channel)
        for node in self.nodes:
            rep.convergence[node.node_id] = self.twins.converged(node.node_id)
        for incident in self.monitor.incidents.values():
            rep.incidents.append(
                {
                    "ts": incident.opened_ts,
                    "event": "incident",
                    "id": incident.incident_id,
                    "node": incident.node_id,
                    "kind": incident.kind,
                    "state": incident.state,
                }
            )
        self._run_assertions()
        return rep

    def _run_assertions(self) -> None:
        for a in self.spec.assertions:
            if isinstance(a, str):
                name, params = a, {}
            else:
                name, params = a["check"], {k: v for k, v in a.items() if k != "check"}
            passed, detail = self._check(name, params)
            self.report.assertions.append(
                {"check": name, "passed": passed, "detail": detail}
            )

    def _check(self, name: str, params: dict) -> tuple[bool, str]:
        exclude = set(params.get("exclude", ()))

        def channels():
            for ch, seqs in self.generated.items():
                if ch.split("/")[0] not in exclude:
                    yield ch, seqs

        if name == "lossless":
            bad = [
                ch for ch, seqs in channels()
                if self.report.stored.get(ch, 0) != len(seqs)
            ]
            return (not bad, f"channels with loss/extra: {bad[:5]}")
        if name == "seq_gap_free":
            bad = []
            for ch, _ in channels():
                stored = self.tsdb.query_range(
                    ChannelKey.parse(ch), float("-inf"), float("inf")
                )
                seqs = sorted(r.seq for r in stored)
                if seqs != list(range(1, len(seqs) + 1)):
                    bad.append(ch)
            return (not bad, f"channels with gaps: {bad[:5]}")
        if name == "exact_multiset":
            bad = []
            for ch, gen_seqs in channels():
                stored = self.tsdb.query_range(
                    ChannelKey.parse(ch), float("-inf"), float("inf")
                )
                if sorted(r.seq for r in stored) != sorted(gen_seqs):
                    bad.append(ch)
            return (not bad, f"channels off ledger: {bad[:5]}")
        if name == "all_converged":
            nodes = params.get("nodes") or [n.node_id for n in self.nodes]
            bad = [n for n in nodes if not self.twins.converged(n)]
            return (not bad, f"unconverged: {bad}")
        if name == "incident_opened":
            node = params["node"]
            hit = any(
                i.get("node") == node and i["event"] == "incident_opened"
                for i in self.report.incidents
            )
            return (hit, f"no incident for {node}" if not hit else "")
        if name == "flush_within":
            limit = float(params.get("seconds", 5.0))
            nodes = params.get("nodes") or list(self.report.flush_complete)
            bad = [
                n for n in nodes
                if self.report.flush_complete.get(n, float("inf")) > limit
            ]
            return (not bad, f"slow flush: {bad}")
        raise BadScenario(f"unknown assertion {name!r}")


def run_scenario(spec: ScenarioSpec, data_dir: Path,
                 registry: controlplane.Registry | None = None) -> RunReport:
    world = World(spec, Path(data_dir), registry=registry)
    try:
        return world.run()
    finally:
        world.tsdb.close()
        world.gateway.close()
