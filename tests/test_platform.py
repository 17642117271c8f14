"""The cloud platform alone: a broker, a registry and a model, with frames
published from a device session and no simulated fleet."""

import json
import math

import pytest

from iotra import controlplane, infomodel, msgbus, twins
from iotra.cloudgw import RouteRule
from iotra.infomodel import TypedScalar
from iotra.platform import Platform, build_default_model, load_model
from iotra.reading import ChannelKey, Reading
from iotra.timeutil import VirtualClock

TEMP = ChannelKey("n-000001", "temp")


def open_cloud(data_dir, model, route_rules, pipeline=None, class_name="multi_sensor",
               on_quarantine=None):
    """A platform over ``data_dir`` with one active node of ``class_name``,
    and that node's device session."""
    clock = VirtualClock()
    registry = controlplane.Registry(clock=clock)
    broker = msgbus.Broker(clock=clock, authenticator=registry.authenticate)
    platform = Platform(data_dir, model, registry, broker, clock, route_rules=route_rules,
                        pipeline=pipeline, on_quarantine=on_quarantine)
    entry = registry.commission("desk", class_name, model=model)
    registry.transition(entry.node_id, "active")
    platform.twins.register_node(entry.node_id, entry.class_name)
    return platform, broker.connect(entry.node_id, entry.credential)


@pytest.fixture
def cloud(tmp_path):
    """A platform with one active multi_sensor node, that node's device
    session, and the node ids the quarantine hook was called with."""
    dropped = []
    platform, device = open_cloud(
        tmp_path, build_default_model(),
        [RouteRule(frozenset({"tsdb", "twin"}), topic="data/#")], on_quarantine=dropped.append)
    try:
        yield platform, device, dropped
    finally:
        platform.close()


def publish(device, *seqs, value=70.0):
    for seq in seqs:
        reading = Reading(TEMP, value, "°F", float(seq), seq)
        device.publish("data/n-000001/temp", infomodel.encode_report("n-000001", [reading]),
                       qos=1)


def stored_seqs(platform):
    return [r.seq for r in platform.tsdb.query_range(TEMP, -math.inf, math.inf)]


def test_published_frames_are_stored_and_acked(cloud):
    platform, device, _ = cloud
    publish(device, 1, 2, 3)
    assert platform.step(0.0) == 3
    assert stored_seqs(platform) == [1, 2, 3]
    assert platform.broker.redeliver_pending(100.0) == 0  # every frame was acked
    assert platform.step(0.1) == 0
    # the twin rule: the last reading is the twin's reported temp
    assert platform.twins.get_twin("n-000001").reported["temp"] == TypedScalar("n", "70")


def test_a_duplicate_is_rejected_and_a_replay_is_counted(cloud):
    platform, device, _ = cloud
    broker = platform.broker
    publish(device, 1, 2)
    publish(device, 2)
    assert platform.step(0.0) == 3
    assert stored_seqs(platform) == [1, 2]
    assert platform.rejected == {"duplicate": 1}
    # the broker never gets the ack of seq 3, so it delivers the frame again
    lost = []
    broker.ack = lambda session, msg_id: lost.append(msg_id) or False
    publish(device, 3)
    assert platform.step(0.0) == 1
    del broker.ack
    assert [msg_id.sender.partition("#")[0] for msg_id in lost] == ["n-000001"]
    assert broker.redeliver_pending(msgbus.ACK_TIMEOUT_S / 2) == 0
    assert broker.redeliver_pending(msgbus.ACK_TIMEOUT_S) == 1
    assert platform.step(msgbus.ACK_TIMEOUT_S) == 1
    assert stored_seqs(platform) == [1, 2, 3]
    assert platform.rejected == {"duplicate": 2}
    assert broker.redeliver_pending(100.0) == 0  # the copy was acked
    assert not broker.dead_letter


def test_a_reported_message_updates_the_twin_and_the_registry(cloud):
    platform, device, _ = cloud
    doc = {"firmware": TypedScalar("s", "2.0")}
    device.publish(twins.reported_topic("n-000001"), twins.encode_reported(doc, 0, 5.0), qos=1)
    device.publish(twins.reported_topic("n-000001"), "not json", qos=1)
    assert platform.step(5.0) == 2
    twin = platform.twins.get_twin("n-000001")
    assert twin.reported["firmware"] == TypedScalar("s", "2.0") and twin.last_seen == 5.0
    assert platform.registry.get("n-000001").firmware_version == "2.0"
    assert platform.rejected == {"schema_invalid": 1}


def test_a_quarantine_stops_ingest(cloud):
    platform, device, dropped = cloud
    seqs = iter(range(1, 100))
    publish(device, next(seqs))
    platform.step(0.0)
    platform.tick(0.0)  # the first bucket is the baseline
    for t in (1.0, 2.0, 3.0):  # three buckets of 20 frames, over the floor of 10
        platform.clock.advance(1.0)
        publish(device, *(next(seqs) for _ in range(20)))
        platform.step(t)
        if t == 3.0:
            publish(device, 99)  # held by the cloud session when the node is quarantined
        platform.tick(t)
    assert platform.incidents == [
        {"ts": 3.0, "event": "quarantined", "node": "n-000001"},
        {"ts": 3.0, "event": "incident_opened", "node": "n-000001"}]
    assert dropped == ["n-000001"] and not device.connected
    with pytest.raises(msgbus.NotConnected):
        publish(device, 100)
    with pytest.raises(msgbus.AuthFailed):
        platform.broker.connect("n-000001", platform.registry.get("n-000001").credential)
    assert platform.step(4.0) == 1
    assert platform.rejected == {"quarantined": 1}
    assert stored_seqs(platform) == list(range(1, 62))


def test_finish_flushes_and_close_ends_the_session(cloud, tmp_path):
    platform, device, _ = cloud
    publish(device, 1)
    platform.step(0.0)
    platform.finish(1.0)
    platform.close()
    platform.close()
    assert not platform.session.connected
    reopened = Platform(tmp_path, build_default_model(), platform.registry,
                        platform.broker, platform.clock)
    try:
        assert stored_seqs(reopened) == [1]
    finally:
        reopened.close()


def test_a_data_directory_model_extends_the_default(tmp_path):
    assert not load_model(tmp_path).has_class("probe")
    (tmp_path / "model").mkdir()
    (tmp_path / "model" / "probe.json").write_text(json.dumps(
        {"name": "probe", "parent": "sensor_node",
         "properties": [{"name": "temp", "datatype": "number"}]}))
    model = load_model(tmp_path)
    assert model.has_class("probe") and model.has_class("multi_sensor")


def test_a_wrapper_set_on_a_service_after_construction_sees_every_call(tmp_path):
    # the benchmark shadows these methods per instance once the platform
    # is built, so the platform must look each one up when it calls it
    pipeline = {"nodes": [{"node_id": "temps", "kind": "source", "params": {"selector": "*/temp"}},
                          {"node_id": "out", "kind": "sink", "params": {"dest": "notify"}}],
                "edges": [["temps", "out"]]}
    platform, device = open_cloud(
        tmp_path, build_default_model(),
        [RouteRule(frozenset({"tsdb", "streams", "twin"}), topic="data/#")], pipeline)
    calls = []
    for owner, name in ((platform.gateway, "admit"), (platform.gateway, "route"),
                        (platform.tsdb, "append"), (platform.pipeline, "process"),
                        (platform.twins, "apply_report"), (platform.monitor, "observe")):
        def wrapper(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        setattr(owner, name, wrapper)
    try:
        publish(device, 1)
        platform.step(0.0)
        platform.tick(0.0)
    finally:
        platform.close()
    assert calls == ["admit", "route", "append", "process", "apply_report", "observe"]


# A workspace class with a timestamp property, and a setpoint bounded
# below the 95 °F that the tests below average into it.
PROBE = {"name": "probe", "parent": "multi_sensor",
         "properties": [{"name": "calibrated", "datatype": "timestamp"},
                        {"name": "setpoint", "datatype": "number", "unit": "°F",
                         "writable": True, "max": 80}]}

# One admitted frame of each value kind: property, wire value, the
# reading's value, and the number a stream takes it as (None: not a
# number, so no source matches).
CALIBRATED = "t:2020-07-15T14:50:07Z"
VALUE_KINDS = (("temp", "n:71.5", 71.5, 71.5), ("fan_power", "b:true", True, 1.0),
               ("firmware", "s:abc", "abc", None), ("zone", "s:3.1", "3.1", None),
               ("calibrated", CALIBRATED, infomodel.parse_scalar(CALIBRATED), None))


def open_probe_cloud(data_dir, route_rules, pipeline):
    (data_dir / "model").mkdir()
    (data_dir / "model" / "probe.json").write_text(json.dumps(PROBE), encoding="utf-8")
    return open_cloud(data_dir, load_model(data_dir), route_rules, pipeline, class_name="probe")


@pytest.mark.parametrize("dests", [
    ("tsdb",), ("streams",), ("twin",), ("tsdb", "streams"), ("tsdb", "twin"),
    ("streams", "twin"), ("tsdb", "streams", "twin")], ids="+".join)
def test_every_admitted_value_kind_reaches_every_route(tmp_path, dests):
    every = {"nodes": [{"node_id": "all", "kind": "source", "params": {"selector": "#"}},
                       {"node_id": "out", "kind": "sink", "params": {"dest": "notify"}}],
             "edges": [["all", "out"]]}
    platform, device = open_probe_cloud(
        tmp_path, [RouteRule(frozenset(dests), topic="data/#")], every)
    try:
        for seq, (prop, wire, _, _) in enumerate(VALUE_KINDS, 1):
            device.publish(f"data/n-000001/{prop}", json.dumps(
                {"id": "n-000001", prop: wire, "DateTime": "t:1970-01-01T00:00:10Z",
                 "seq": seq}), qos=1)
        assert platform.step(0.0) == len(VALUE_KINDS)
        assert platform.broker.redeliver_pending(100.0) == 0  # every frame was acked
        stored = {key.sensor_name: [r.value for r in platform.tsdb.query_range(key, 0, 20)]
                  for key in platform.tsdb.channels()}
        assert stored == ({prop: [value] for prop, _, value, _ in VALUE_KINDS}
                          if "tsdb" in dests else {})
        twin = platform.twins.get_twin("n-000001")
        for prop, wire, _, _ in VALUE_KINDS:
            want = infomodel.parse_scalar(wire) if "twin" in dests else None
            assert twin.reported.get(prop) == want
            assert twin.report_ts.get(prop) == (10.0 if "twin" in dests else None)
        streamed = {e["channel"]: e["value"] for e in platform.emissions}
        assert streamed == ({f"n-000001/{prop}": number for prop, _, _, number in VALUE_KINDS
                             if number is not None} if "streams" in dests else {})
    finally:
        platform.close()


def test_a_desired_value_the_twin_refuses_is_counted_not_raised(tmp_path):
    # a 1 s average of a 95 °F temp, sent as the desired setpoint that
    # the probe class bounds at 80
    control = {
        "nodes": [{"node_id": "temps", "kind": "source", "params": {"selector": "*/temp"}},
                  {"node_id": "avg1", "kind": "window",
                   "params": {"size_ms": 1000, "slide_ms": 1000, "agg": "avg"}},
                  {"node_id": "hold", "kind": "sink",
                   "params": {"dest": "twin_desired", "node": "n-000001", "prop": "setpoint"}}],
        "edges": [["temps", "avg1"], ["avg1", "hold"]]}
    platform, device = open_probe_cloud(
        tmp_path, [RouteRule(frozenset({"tsdb", "streams"}), topic="data/#")], control)
    try:
        for seq in range(1, 6):
            reading = Reading(TEMP, 95.0, "°F", seq * 0.5, seq)
            device.publish("data/n-000001/temp",
                           infomodel.encode_report("n-000001", [reading]), qos=1)
        assert platform.step(0.0) == 5
        assert platform.broker.redeliver_pending(100.0) == 0
        assert stored_seqs(platform) == [1, 2, 3, 4, 5]
        assert [(e["sink"], e["value"]) for e in platform.emissions] == [("hold", 95.0)]
        assert platform.rejected == {"desired_refused": 1}
        assert platform.twins.get_twin("n-000001").desired == {}
    finally:
        platform.close()
