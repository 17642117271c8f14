import json

import pytest

from iotra import edge, infomodel, twins
from iotra.harness.scenario import ScenarioSpec, World
from iotra.platform import build_default_model
from iotra.infomodel import TypedScalar
from iotra.twins import (
    NotWritable,
    SchemaInvalid,
    TwinService,
    UnknownNode,
    decode_desired_command,
    encode_reported,
    desired_topic,
    reported_topic,
)


def make_model():
    model = infomodel.ModelRegistry()
    model.register_class(infomodel.ObjectClass(
        name="thermostat",
        properties=[
            infomodel.PropertyDef("temp", "number", unit="°F"),
            infomodel.PropertyDef("setpoint", "number", unit="°F", writable=True),
            infomodel.PropertyDef("fan_power", "string", writable=True),
        ],
    ))
    return model


class PublishSpy:
    def __init__(self):
        self.calls = []

    def __call__(self, topic, payload, qos=0, retain=False):
        self.calls.append((topic, payload, qos, retain))


def make_service():
    spy = PublishSpy()
    svc = TwinService(make_model(), publish=spy)
    svc.register_node("n-000001", "thermostat")
    return svc, spy


def n(x):
    return infomodel.scalar_of(x)


# -- registration / reads ------------------------------------------------


def test_register_and_get():
    svc, _ = make_service()
    twin = svc.get_twin("n-000001")
    assert twin.class_name == "thermostat"
    assert (twin.desired_version, twin.ack_version) == (0, 0)


def test_unknown_node():
    svc, _ = make_service()
    with pytest.raises(UnknownNode):
        svc.get_twin("ghost")


def test_get_twin_returns_snapshot():
    svc, _ = make_service()
    snap = svc.get_twin("n-000001")
    snap.reported["temp"] = n(99)
    assert "temp" not in svc.get_twin("n-000001").reported


# -- reported side -------------------------------------------------------


def test_apply_report_merges():
    svc, _ = make_service()
    svc.apply_report("n-000001", {"temp": n(77.6)}, ts=10.0)
    svc.apply_report("n-000001", {"setpoint": n(72)}, ts=11.0)
    twin = svc.get_twin("n-000001")
    assert twin.reported == {"temp": n(77.6), "setpoint": n(72)}
    assert twin.last_seen == 11.0


def test_stale_report_does_not_overwrite_newer_key():
    svc, _ = make_service()
    svc.apply_report("n-000001", {"temp": n(80)}, ts=20.0)
    svc.apply_report("n-000001", {"temp": n(70), "setpoint": n(72)}, ts=5.0)
    twin = svc.get_twin("n-000001")
    # per-key last-writer-wins: stale temp dropped, fresh setpoint kept
    assert twin.reported["temp"] == n(80)
    assert twin.reported["setpoint"] == n(72)


def test_report_with_unknown_key_rejected():
    svc, _ = make_service()
    with pytest.raises(SchemaInvalid):
        svc.apply_report("n-000001", {"ghost": n(1)}, ts=1.0)


def test_a_reported_message_applies_as_its_document():
    doc = {"temp": n(77.6), "setpoint": n(72), "fan_power": TypedScalar("s", "é on")}
    direct, _ = make_service()
    direct.apply_report("n-000001", doc, ack_version=3, ts=4.5)
    wire, _ = make_service()
    payload = encode_reported(doc, 3, 4.5)
    assert payload == ('{"doc":{"temp":"n:77.6","setpoint":"n:72","fan_power":"s:é on"},'
                       '"ack_version":3,"ts":4.5}')
    wire.apply_reported("n-000001", payload, now=9.0)
    assert wire.get_twin("n-000001") == direct.get_twin("n-000001")


def test_a_reported_message_with_no_ts_is_dated_on_arrival():
    svc, _ = make_service()
    twin = svc.apply_reported("n-000001", '{"doc": {"temp": "n:70"}}', now=6.0)
    assert (twin.last_seen, twin.report_ts, twin.ack_version) == (6.0, {"temp": 6.0}, 0)


def test_apply_reported_goes_through_apply_report():
    # a wrapper on the instance attribute sees every reported message
    svc, _ = make_service()
    calls = []
    apply_report = svc.apply_report
    svc.apply_report = lambda *a, **kw: calls.append(a) or apply_report(*a, **kw)
    svc.apply_reported("n-000001", encode_reported({"temp": n(70)}, 0, 1.0), now=2.0)
    assert calls == [("n-000001", {"temp": n(70)})]


# Reported messages that do not decode.
MALFORMED_REPORTS = {
    "not_json": "not json",
    "json_list": '[{"doc": {"temp": "n:1"}}]',
    "no_doc": '{"ack_version": 1, "ts": 1.0}',
    "doc_not_an_object": '{"doc": "n:1"}',
    "bad_scalar_prefix": '{"doc": {"setpoint": "q:1"}}',
    "bad_t_body": '{"doc": {"setpoint": "t:yesterday"}}',
    "scalar_not_text": '{"doc": {"fan_power": ["s", ":"]}}',
    "ack_version_not_an_int": '{"doc": {}, "ack_version": "one"}',
    "ack_version_overflows": '{"doc": {}, "ack_version": 1e400}',
    "ts_infinite": '{"doc": {"setpoint": "n:68"}, "ts": 1e999}',
    "ts_nan": '{"doc": {"setpoint": "n:68"}, "ts": NaN}',
}


@pytest.mark.parametrize("payload", MALFORMED_REPORTS.values(), ids=MALFORMED_REPORTS.keys())
def test_a_reported_message_that_does_not_decode_raises_schema_invalid(payload):
    svc, _ = make_service()
    with pytest.raises(SchemaInvalid):
        svc.apply_reported("n-000001", payload, now=1.0)
    assert svc.get_twin("n-000001") == make_service()[0].get_twin("n-000001")


def test_a_run_counts_each_undecodable_reported_message_as_schema_invalid(tmp_path):
    spec = ScenarioSpec.from_dict({
        "duration_s": 2.0,
        "nodes": [{"count": 1, "class_name": "multi_sensor", "channels": [
            {"sensor_name": "temp", "sample_period_ms": 500,
             "waveform": {"kind": "constant", "base": 70}}]}],
    })
    world = World(spec, tmp_path)
    try:
        uplink = world.node_by_id("n-000001").edge.uplink
        for payload in MALFORMED_REPORTS.values():
            uplink.append(edge.QueuedFrame(reported_topic("n-000001"), payload))
        report = world.run()
    finally:
        world.close()
    assert report.ok, report.assertions
    assert report.rejected == {"schema_invalid": len(MALFORMED_REPORTS)}


def test_report_with_type_mismatch_rejected():
    svc, _ = make_service()
    with pytest.raises(SchemaInvalid):
        svc.apply_report("n-000001", {"temp": TypedScalar("s", "hot")}, ts=1.0)


# -- desired side --------------------------------------------------------


def test_set_desired_bumps_version_and_publishes_retained():
    svc, spy = make_service()
    v = svc.set_desired("n-000001", {"setpoint": n(72)})
    assert v == 1
    topic, payload, qos, retain = spy.calls[-1]
    assert topic == desired_topic("n-000001") == "twin/n-000001/desired"
    assert (qos, retain) == (1, True)
    desired, version = decode_desired_command(payload)
    assert desired == {"setpoint": n(72)}
    assert version == 1


def test_second_patch_carries_full_desired_doc():
    svc, spy = make_service()
    svc.set_desired("n-000001", {"setpoint": n(72)})
    svc.set_desired("n-000001", {"fan_power": TypedScalar("s", "on")})
    desired, version = decode_desired_command(spy.calls[-1][1])
    # the single retained command always holds the complete desired state
    assert desired == {"setpoint": n(72), "fan_power": TypedScalar("s", "on")}
    assert version == 2


def test_set_desired_rejects_non_writable():
    svc, _ = make_service()
    with pytest.raises(NotWritable):
        svc.set_desired("n-000001", {"temp": n(70)})
    with pytest.raises(NotWritable):
        svc.set_desired("n-000001", {"ghost": n(70)})


def test_set_desired_rejects_a_value_of_the_wrong_datatype():
    # firmware is a string: "n:2" used to be sent, echoed in every later
    # device report and rejected with it, so no later change converged
    svc = TwinService(build_default_model(), publish=(spy := PublishSpy()))
    svc.register_node("n-000001", "multi_sensor")
    with pytest.raises(SchemaInvalid, match="firmware"):
        svc.set_desired("n-000001", {"firmware": n(2)})
    twin = svc.get_twin("n-000001")
    assert (twin.desired, twin.desired_version, spy.calls) == ({}, 0, [])
    assert svc.set_desired("n-000001", {"setpoint": n(68)}) == 1
    desired, version = decode_desired_command(spy.calls[-1][1])
    svc.apply_report("n-000001", desired, ack_version=version, ts=3.0)
    assert svc.converged("n-000001")


def test_set_desired_checks_every_key_before_changing_anything():
    svc, spy = make_service()
    with pytest.raises(SchemaInvalid, match="setpoint"):
        svc.set_desired(
            "n-000001",
            {"fan_power": TypedScalar("s", "on"), "setpoint": TypedScalar("s", "hot")})
    twin = svc.get_twin("n-000001")
    assert (twin.desired, twin.desired_version, spy.calls) == ({}, 0, [])


def test_empty_patch_rejected():
    svc, spy = make_service()
    with pytest.raises(twins.TwinError, match="empty desired patch"):
        svc.set_desired("n-000001", {})
    assert (svc.get_twin("n-000001").desired_version, spy.calls) == (0, [])


def test_desired_command_is_compact_json():
    svc, spy = make_service()
    svc.set_desired("n-000001", {"fan_power": TypedScalar("s", "é on"), "setpoint": n(72)})
    assert spy.calls[-1][1] == (
        '{"desired":{"fan_power":"s:é on","setpoint":"n:72"},"desired_version":1}')


@pytest.mark.parametrize("payload", [
    '{"setpoint": "n:72"}',
    '{"desired": {"setpoint": "n:72"}}',
    '{"desired": {"setpoint": "n:72"}, "desired_version": "one"}',
    '{"desired": ["n:72"], "desired_version": 1}',
    '{"sink": "out", "dest": "topic", "value": 71.0}',
    '{"desired": {"setpoint": "n:72"}, "desired_version": 1e400}',
], ids=["no_desired", "no_version", "string_version", "list_desired", "stream_record",
        "version_overflows"])
def test_a_desired_command_that_does_not_decode_raises_schema_invalid(payload):
    with pytest.raises(SchemaInvalid):
        decode_desired_command(payload)


# -- convergence ---------------------------------------------------------


def test_convergence_requires_ack_and_reported_superset():
    svc, _ = make_service()
    assert svc.converged("n-000001") is True  # trivially, nothing desired
    svc.set_desired("n-000001", {"setpoint": n(72)})
    assert svc.converged("n-000001") is False
    # ack version alone is not enough
    svc.apply_report("n-000001", {"temp": n(77)}, ack_version=1, ts=1.0)
    assert svc.converged("n-000001") is False
    # reported value alone without matching ack is not enough either
    svc.set_desired("n-000001", {"setpoint": n(68)})
    svc.apply_report("n-000001", {"setpoint": n(68)}, ack_version=1, ts=2.0)
    assert svc.converged("n-000001") is False
    svc.apply_report("n-000001", {"setpoint": n(68)}, ack_version=2, ts=3.0)
    assert svc.converged("n-000001") is True


def test_ack_version_never_regresses():
    svc, _ = make_service()
    svc.set_desired("n-000001", {"setpoint": n(72)})
    svc.apply_report("n-000001", {"setpoint": n(72)}, ack_version=1, ts=1.0)
    svc.apply_report("n-000001", {"temp": n(70)}, ack_version=0, ts=2.0)
    assert svc.get_twin("n-000001").ack_version == 1


# -- persistence ---------------------------------------------------------


def test_dump_load_round_trip():
    svc, _ = make_service()
    svc.set_desired("n-000001", {"setpoint": n(72)})
    svc.apply_report("n-000001", {"temp": n(77.6), "setpoint": n(72)},
                     ack_version=1, ts=9.0)
    svc.mark_connectivity("n-000001", True)
    doc = json.loads(json.dumps(svc.dump()))
    other = TwinService(make_model())
    other.load(doc)
    assert other.get_twin("n-000001") == svc.get_twin("n-000001")
    assert other.converged("n-000001") is True


def test_topic_helpers():
    assert reported_topic("n-7") == "twin/n-7/reported"
    assert desired_topic("n-7") == "twin/n-7/desired"
