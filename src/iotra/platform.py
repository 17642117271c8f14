"""Cloud platform: the ingest path behind the broker.

``Platform`` opens, in a data directory, the cloud gateway and its audit
log ``audit.jsonl``, the time-series store ``tsdb/``, the twin service,
the stream pipeline, the flood monitor, and a broker session that takes
telemetry, alerts and twin reports. ``step`` handles and acks each frame
the session holds, ``tick`` closes the monitor's one-second bucket,
``finish`` ends a run, and ``close`` closes what the platform opened. A
quarantine ends the node's broker sessions. The platform keeps what a
run reports: rejections, alerts, emissions, and quarantines and opened
incidents in the order they happen.

Telemetry arrives at least once: the broker redelivers a QoS 1 frame whose
ack it did not get, and the gateway's dedup rejects the copy as
``duplicate``, so the stores hold each reading once.

Every destination takes the reading the gateway admitted, with no
conversion of its own: the store its value, the pipeline the reading (a
value that is not a number reaches no source), and the twin
``infomodel.scalar_of`` of its value, which ``apply_report`` checks per
key by the rule the gateway applied. A ``twin_desired`` emission whose
value the twin refuses, such as an average beyond the property's
``max``, is counted in ``rejected`` as ``desired_refused``; its emission
record is kept.

A ``notify`` sink appends one compact JSON line per emission to
``notifications.jsonl`` with one unbuffered write, as the gateway writes
its audit log; the file is opened on the first such emission and closed
by ``finish`` or ``close``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from . import cloudgw, controlplane, infomodel, msgbus, streams, tsdb, twins
from .reading import Reading

_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"))


def build_default_model() -> infomodel.ModelRegistry:
    """The fleet vocabulary every data directory's model starts from."""
    model, prop = infomodel.ModelRegistry(), infomodel.PropertyDef
    num = lambda name, unit, writable=False: prop(name, "number", unit=unit, writable=writable)
    model.register_class(infomodel.ObjectClass("sensor_node", properties=[
        prop("unit", "string"), prop("zone", "string"), prop("site", "string"),
        prop("firmware", "string", writable=True)]))
    model.register_class(infomodel.ObjectClass(
        "temperature_sensor", parent="sensor_node", properties=[num("temp", "°F")]))
    model.register_class(infomodel.ObjectClass(
        "multi_sensor", parent="sensor_node",
        properties=[num("temp", "°F"), num("humidity", "%"), num("pressure", "hPa"),
                    num("power", "W"), num("setpoint", "°F", writable=True),
                    prop("fan_power", "boolean", writable=True)],
        interactions=[infomodel.InteractionDef("set_setpoint", "write", "setpoint"),
                      infomodel.InteractionDef("overtemp", "event")]))
    return model


def load_model(data_dir: Path) -> infomodel.ModelRegistry:
    """The default vocabulary plus the classes of ``<data_dir>/model/``."""
    model = build_default_model()
    model_dir = Path(data_dir) / "model"
    if model_dir.is_dir():
        model.load_model_dir(model_dir)
    return model


class Platform:
    def __init__(self, data_dir: Path, model: infomodel.ModelRegistry,
                 registry: controlplane.Registry, broker: msgbus.Broker, clock,
                 route_rules=(), pipeline: dict | None = None,
                 on_quarantine: Callable[[str], None] | None = None):
        self.registry, self.broker, self.clock = registry, broker, clock
        self.on_quarantine = on_quarantine  # called once the broker has dropped the node
        registry.on_quarantine = self._on_quarantine
        self.tsdb = tsdb.Store(Path(data_dir) / "tsdb")
        self.gateway = cloudgw.CloudGateway(model, registry, clock=clock, route_rules=route_rules,
                                            audit_path=Path(data_dir) / "audit.jsonl")
        self.session = broker.connect_service("cloud")
        for f in ("data/#", "alerts/#", "twin/+/reported"):
            self.session.subscribe(f)
        self.twins = twins.TwinService(model, publish=self.session.publish)
        self.monitor = controlplane.Monitor(registry)
        self.pipeline = streams.Pipeline(pipeline) if pipeline else None
        self.notify_log = Path(data_dir) / "notifications.jsonl"
        self._notify_fh = None  # opened on the first notify emission
        self._bucket_counts: dict[str, int] = {}
        self.rejected: dict[str, int] = {}  # reason -> frames
        self.alerts = 0
        self.emissions: list[dict] = []
        self.incidents: list[dict] = []  # quarantines and opened incidents, in order

    def close(self) -> None:
        """Close every file and the broker session. Safe to call again."""
        self._close_notify_log()
        self.tsdb.close()
        self.gateway.close()
        self.broker.disconnect(self.session)

    def _close_notify_log(self) -> None:
        if self._notify_fh is not None:
            self._notify_fh.close()
            self._notify_fh = None

    def _on_quarantine(self, node_id: str) -> None:
        self.broker.drop_node(node_id)
        if self.on_quarantine is not None:
            self.on_quarantine(node_id)
        self.incidents.append({"ts": self.clock.now(), "event": "quarantined", "node": node_id})

    def step(self, t: float) -> int:
        """Handle and ack every frame the cloud session holds, once per
        delivery; returns how many."""
        frames = self.session.drain()
        for frame in frames:
            self._handle_frame(frame, t)
            if frame.qos >= 1:
                self.session.ack(frame.msg_id)
        return len(frames)

    def _handle_frame(self, frame: msgbus.Frame, t: float) -> None:
        parts = frame.topic.split("/")
        if len(parts) < 2:
            return
        kind, node_id = parts[0], parts[1]
        self._bucket_counts[node_id] = self._bucket_counts.get(node_id, 0) + 1
        if kind == "data":
            decision = self.gateway.admit(node_id, frame.topic, frame.payload)
            if not decision.admitted:
                self.rejected[decision.reason] = self.rejected.get(decision.reason, 0) + 1
                return
            for reading in decision.readings:
                dests = self.gateway.route(frame.topic, node_id, reading.tags)
                if "tsdb" in dests:
                    self.tsdb.append(reading)
                if "streams" in dests and self.pipeline is not None:
                    for em in self.pipeline.process(reading):
                        self._handle_emission(em)
                if "twin" in dests:
                    value = infomodel.scalar_of(reading.value)
                    self.twins.apply_report(node_id, {reading.channel.sensor_name: value},
                                            ts=reading.ts)
        elif kind == "alerts":
            if self.registry.lifecycle_of(node_id) == "active":
                self.alerts += 1
        elif kind == "twin" and len(parts) == 3 and parts[2] == "reported":
            if self.registry.lifecycle_of(node_id) != "active":
                return
            try:
                twin = self.twins.apply_reported(node_id, frame.payload, t)
            except twins.TwinError:
                # a report that does not decode, or that the twin rejects
                self.rejected["schema_invalid"] = self.rejected.get("schema_invalid", 0) + 1
                return
            # the registry keeps the firmware version the node reports
            firmware = twin.reported.get("firmware")
            if firmware and firmware.text != self.registry.get(node_id).firmware_version:
                self.registry.set_firmware(node_id, firmware.text)

    def _handle_emission(self, em: streams.Emission) -> None:
        record = {"sink": em.sink_id, "dest": em.dest, "ts": em.item.ts,
                  "value": em.item.value, "channel": em.item.channel, "meta": dict(em.item.meta)}
        self.emissions.append(record)
        if em.dest == "topic":
            self.session.publish(em.target, _RECORD_ENCODER.encode(record), qos=0)
        elif em.dest == "notify":
            if self._notify_fh is None:
                self._notify_fh = open(self.notify_log, "ab", buffering=0)
            cloudgw.write_line(self._notify_fh,
                               (_RECORD_ENCODER.encode(record) + "\n").encode())
        elif em.dest == "tsdb":
            self.tsdb.append(Reading(channel=em.target, value=em.item.value, ts=em.item.ts))
        elif em.dest == "twin_desired":
            node_id, prop = em.target
            try:
                self.twins.set_desired(node_id, {prop: infomodel.scalar_of(em.item.value)})
            except twins.TwinError:  # a value the property does not admit
                self.rejected["desired_refused"] = self.rejected.get("desired_refused", 0) + 1

    def tick(self, t: float) -> None:
        """Close the one-second traffic bucket that ends at ``t``: the
        monitor judges each node's frame count in it, and the next bucket
        starts empty."""
        for entry in self.registry.entries():
            if entry.lifecycle == "decommissioned":
                continue
            count = self._bucket_counts.get(entry.node_id, 0)
            if self.monitor.observe(entry.node_id, count, t) == "incident_opened":
                self.incidents.append({"ts": t, "event": "incident_opened", "node": entry.node_id})
        self._bucket_counts.clear()

    def finish(self, now: float) -> None:
        """End a run at ``now``: emit the pipeline's open windows, write
        out the store's buffers and close the notification log."""
        if self.pipeline is not None:
            for em in self.pipeline.window_flush(now):
                self._handle_emission(em)
        self.tsdb.flush()
        self._close_notify_log()
