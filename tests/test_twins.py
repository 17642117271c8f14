import json

import pytest

from iotra import infomodel, twins
from iotra.harness.scenario import build_default_model
from iotra.infomodel import TypedScalar
from iotra.twins import (
    DesiredPatch,
    NotWritable,
    SchemaInvalid,
    TwinService,
    UnknownNode,
    decode_desired_command,
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
    return TypedScalar.number(x)


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


def test_report_with_type_mismatch_rejected():
    svc, _ = make_service()
    with pytest.raises(SchemaInvalid):
        svc.apply_report("n-000001", {"temp": TypedScalar.string("hot")}, ts=1.0)


# -- desired side --------------------------------------------------------


def test_set_desired_bumps_version_and_publishes_retained():
    svc, spy = make_service()
    v = svc.set_desired("n-000001", DesiredPatch({"setpoint": n(72)}))
    assert v == 1
    topic, payload, qos, retain = spy.calls[-1]
    assert topic == desired_topic("n-000001") == "twin/n-000001/desired"
    assert (qos, retain) == (1, True)
    desired, version = decode_desired_command(payload)
    assert desired == {"setpoint": n(72)}
    assert version == 1


def test_second_patch_carries_full_desired_doc():
    svc, spy = make_service()
    svc.set_desired("n-000001", DesiredPatch({"setpoint": n(72)}))
    svc.set_desired("n-000001", DesiredPatch({"fan_power": TypedScalar.string("on")}))
    desired, version = decode_desired_command(spy.calls[-1][1])
    # the single retained command always holds the complete desired state
    assert desired == {"setpoint": n(72), "fan_power": TypedScalar.string("on")}
    assert version == 2


def test_set_desired_rejects_non_writable():
    svc, _ = make_service()
    with pytest.raises(NotWritable):
        svc.set_desired("n-000001", DesiredPatch({"temp": n(70)}))
    with pytest.raises(NotWritable):
        svc.set_desired("n-000001", DesiredPatch({"ghost": n(70)}))


def test_set_desired_rejects_a_value_of_the_wrong_datatype():
    # firmware is a string: "n:2" used to be sent, echoed in every later
    # device report and rejected with it, so no later change converged
    svc = TwinService(build_default_model(), publish=(spy := PublishSpy()))
    svc.register_node("n-000001", "multi_sensor")
    with pytest.raises(SchemaInvalid, match="firmware"):
        svc.set_desired("n-000001", DesiredPatch({"firmware": n(2)}))
    twin = svc.get_twin("n-000001")
    assert (twin.desired, twin.desired_version, spy.calls) == ({}, 0, [])
    assert svc.set_desired("n-000001", DesiredPatch({"setpoint": n(68)})) == 1
    desired, version = decode_desired_command(spy.calls[-1][1])
    svc.apply_report("n-000001", desired, ack_version=version, ts=3.0)
    assert svc.converged("n-000001")


def test_set_desired_checks_every_key_before_changing_anything():
    svc, spy = make_service()
    with pytest.raises(SchemaInvalid, match="setpoint"):
        svc.set_desired("n-000001", DesiredPatch(
            {"fan_power": TypedScalar.string("on"), "setpoint": TypedScalar.string("hot")}))
    twin = svc.get_twin("n-000001")
    assert (twin.desired, twin.desired_version, spy.calls) == ({}, 0, [])


def test_empty_patch_rejected():
    with pytest.raises(twins.TwinError):
        DesiredPatch({})


# -- convergence ---------------------------------------------------------


def test_convergence_requires_ack_and_reported_superset():
    svc, _ = make_service()
    assert svc.converged("n-000001") is True  # trivially, nothing desired
    svc.set_desired("n-000001", DesiredPatch({"setpoint": n(72)}))
    assert svc.converged("n-000001") is False
    # ack version alone is not enough
    svc.apply_report("n-000001", {"temp": n(77)}, ack_version=1, ts=1.0)
    assert svc.converged("n-000001") is False
    # reported value alone without matching ack is not enough either
    svc.set_desired("n-000001", DesiredPatch({"setpoint": n(68)}))
    svc.apply_report("n-000001", {"setpoint": n(68)}, ack_version=1, ts=2.0)
    assert svc.converged("n-000001") is False
    svc.apply_report("n-000001", {"setpoint": n(68)}, ack_version=2, ts=3.0)
    assert svc.converged("n-000001") is True


def test_ack_version_never_regresses():
    svc, _ = make_service()
    svc.set_desired("n-000001", DesiredPatch({"setpoint": n(72)}))
    svc.apply_report("n-000001", {"setpoint": n(72)}, ack_version=1, ts=1.0)
    svc.apply_report("n-000001", {"temp": n(70)}, ack_version=0, ts=2.0)
    assert svc.get_twin("n-000001").ack_version == 1


# -- persistence ---------------------------------------------------------


def test_dump_load_round_trip():
    svc, _ = make_service()
    svc.set_desired("n-000001", DesiredPatch({"setpoint": n(72)}))
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
