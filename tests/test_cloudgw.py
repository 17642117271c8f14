import json
import random

import pytest

from iotra import cloudgw, infomodel
from iotra.cloudgw import CloudGateway, DedupState, RouteRule, route, route_rules
from iotra.msgbus import BadFilter
from iotra.reading import ChannelKey, Reading
from iotra.timeutil import VirtualClock


class FakeRegistry:
    def __init__(self):
        self.states = {}
        self.classes = {}
        self.creds = {}

    def lifecycle_of(self, node_id):
        return self.states.get(node_id)

    def class_of(self, node_id):
        return self.classes.get(node_id)

    def authenticate(self, node_id, credential):
        return (self.states.get(node_id) == "active"
                and self.creds.get(node_id) == credential)


def make_model():
    model = infomodel.ModelRegistry()
    model.register_class(infomodel.ObjectClass(
        name="sensor_node",
        properties=[
            infomodel.PropertyDef("temp", "number", unit="°F",
                                  min=-100, max=300),
            infomodel.PropertyDef("unit", "string"),
        ],
    ))
    return model


def make_gateway(tmp_path=None, **kw):
    registry = FakeRegistry()
    registry.states["n-000001"] = "active"
    registry.classes["n-000001"] = "sensor_node"
    audit = tmp_path / "audit.jsonl" if tmp_path else None
    gw = CloudGateway(make_model(), registry, clock=VirtualClock(),
                      audit_path=audit, **kw)
    return gw, registry


def report(node="n-000001", sensor="temp", value=77.6, seq=1, ts=100.0):
    r = Reading(channel=ChannelKey(node, sensor), value=value, unit="°F",
                ts=ts, seq=seq)
    return infomodel.encode_report(node, [r])


# -- dedup state ---------------------------------------------------------


def test_dedup_in_order():
    d = DedupState()
    assert [d.check("n", "t", s) for s in (1, 2, 3, 2, 3, 4)] == [
        True, True, True, False, False, True
    ]


def test_dedup_out_of_order_fresh_is_admitted():
    d = DedupState()
    assert d.check("n", "t", 5) is True
    assert d.check("n", "t", 5) is False
    assert d.check("n", "t", 2) is True
    assert d.check("n", "t", 1) is True
    assert d.check("n", "t", 1) is False


def test_dedup_channels_independent():
    d = DedupState()
    assert d.check("n", "a", 1) is True
    assert d.check("n", "b", 1) is True
    assert d.check("m", "a", 1) is True


def test_dedup_watermark_compacts_above_set():
    d = DedupState()
    for s in (3, 1, 2):
        d.check("n", "t", s)
    assert d._watermark[("n", "t")] == 3
    assert d._above[("n", "t")] == set()


def test_dedup_matches_set_oracle_on_random_streams():
    rng = random.Random(9)
    d = DedupState()
    seen = set()
    for _ in range(5000):
        seq = rng.randrange(1, 400)
        assert d.check("n", "t", seq) == (seq not in seen)
        seen.add(seq)


def test_dedup_rejects_non_positive_seq():
    with pytest.raises(ValueError):
        DedupState().check("n", "t", 0)


# -- admission -----------------------------------------------------------


def test_admit_fresh_report(tmp_path):
    gw, _ = make_gateway(tmp_path)
    decision = gw.admit("n-000001", "data/n-000001/temp", report())
    assert decision.admitted and decision.reason == "ok"
    assert decision.readings[0].value == 77.6
    gw.close()


def test_reject_unknown_node(tmp_path):
    gw, _ = make_gateway(tmp_path)
    decision = gw.admit("ghost", "data/ghost/temp", report(node="ghost"))
    assert (decision.verdict, decision.reason) == ("reject", "auth_failed")
    gw.close()


def test_reject_quarantined_and_not_active(tmp_path):
    gw, registry = make_gateway(tmp_path)
    registry.states["n-000001"] = "quarantined"
    assert gw.admit("n-000001", "t/x", report()).reason == "quarantined"
    registry.states["n-000001"] = "commissioned"
    assert gw.admit("n-000001", "t/x", report()).reason == "not_active"
    gw.close()


def test_reject_sender_mismatch(tmp_path):
    gw, registry = make_gateway(tmp_path)
    registry.states["n-000002"] = "active"
    registry.classes["n-000002"] = "sensor_node"
    decision = gw.admit("n-000002", "data/n-000002/temp", report(node="n-000001"))
    assert decision.reason == "schema_invalid"
    gw.close()


def test_reject_malformed_payload(tmp_path):
    gw, _ = make_gateway(tmp_path)
    assert gw.admit("n-000001", "t/x", "not json").reason == "schema_invalid"
    gw.close()


def report_line(**fields):
    obj = {"id": "n-000001", "temp": "n:77.6", "unit": "°F",
           "DateTime": "t:2020-07-15T14:50:07Z", "seq": 1}
    obj.update(fields)
    return json.dumps({k: v for k, v in obj.items() if v is not None},
                      ensure_ascii=False)


@pytest.mark.parametrize("payload", [
    report_line(unit="q:F"),  # unknown scalar prefix on the unit
    report_line(DateTime="t:yesterday"),
    report_line(temp=None, Temp="n:1"),  # not a sensor-name token
], ids=["unit_prefix", "bad_datetime", "bad_sensor_name"])
def test_undecodable_frame_is_rejected_audited_and_next_admitted(tmp_path, payload):
    gw, _ = make_gateway(tmp_path)
    decision = gw.admit("n-000001", "data/n-000001/temp", payload)
    assert (decision.verdict, decision.reason) == ("reject", "schema_invalid")
    assert gw.admit("n-000001", "data/n-000001/temp", report(seq=1)).admitted
    gw.close()
    lines = [json.loads(l) for l in
             (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert [e["reason"] for e in lines] == ["schema_invalid", "ok"]


def test_strict_validation_rejects_out_of_range(tmp_path):
    gw, _ = make_gateway(tmp_path)
    decision = gw.admit("n-000001", "t/x", report(value=900.0))
    assert decision.reason == "schema_invalid"
    gw.close()


def test_duplicate_rejected_exactly_once_semantics(tmp_path):
    gw, _ = make_gateway(tmp_path)
    payload = report(seq=1)
    assert gw.admit("n-000001", "t/x", payload).admitted
    assert gw.admit("n-000001", "t/x", payload).reason == "duplicate"
    gw.close()


def test_mixed_batch_admits_only_fresh(tmp_path):
    gw, _ = make_gateway(tmp_path)
    r1 = Reading(channel=ChannelKey("n-000001", "temp"), value=1.0, unit="°F",
                 ts=1.0, seq=1)
    r2 = Reading(channel=ChannelKey("n-000001", "temp"), value=2.0, unit="°F",
                 ts=2.0, seq=2)
    gw.admit("n-000001", "t/x", infomodel.encode_report("n-000001", [r1]))
    both = infomodel.encode_report("n-000001", [r1, r2])
    decision = gw.admit("n-000001", "t/x", both)
    assert decision.admitted
    assert [r.seq for r in decision.readings] == [2]
    gw.close()


def test_audit_log_records_every_decision(tmp_path):
    gw, _ = make_gateway(tmp_path)
    gw.admit("n-000001", "t/x", report(seq=1))
    gw.admit("n-000001", "t/x", report(seq=1))
    gw.admit("ghost", "t/x", "junk")
    gw.close()
    lines = [json.loads(l) for l in
             (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert gw.audit_entries == 3
    assert [e["reason"] for e in lines] == ["ok", "duplicate", "auth_failed"]
    assert all(set(e) == {"ts", "node", "topic", "verdict", "reason"}
               for e in lines)


# -- routing -------------------------------------------------------------


def test_default_route_is_tsdb():
    assert route("data/n-1/temp", "sensor_node", {}, []) == frozenset({"tsdb"})


def test_route_union_of_matching_rules():
    rules = [
        RouteRule(frozenset({"tsdb"}), topic="data/#"),
        RouteRule(frozenset({"streams"}), topic="data/+/temp"),
        RouteRule(frozenset({"twin"}), topic="twin/#"),
    ]
    assert route("data/n-1/temp", None, {}, rules) == frozenset({"tsdb", "streams"})
    assert route("data/n-1/hum", None, {}, rules) == frozenset({"tsdb"})


def test_route_by_class_and_tag():
    rules = [
        RouteRule(frozenset({"streams"}), class_name="sensor_node"),
        RouteRule(frozenset({"twin"}), tag=("zone", "Z3")),
    ]
    assert route("t/x", "sensor_node", {"zone": "Z3"}, rules) == frozenset(
        {"streams", "twin"})
    assert route("t/x", "other", {"zone": "Z1"}, rules) == frozenset({"tsdb"})


@pytest.mark.parametrize("bad", ["", "data/#/x", "da+ta/x", "data/n#"])
def test_route_rule_rejects_bad_filter_at_construction(bad):
    with pytest.raises(BadFilter):
        RouteRule(frozenset({"tsdb"}), topic=bad)


def test_route_rule_rejects_unknown_destination():
    with pytest.raises(ValueError):
        RouteRule(frozenset({"mailbox"}))


def test_route_rules():
    rules = route_rules([
        {"selector": {"topic": "data/#"}, "destinations": ["tsdb", "streams"]},
        {"selector": {"class": "sensor_node", "tag": "zone=Z3"},
         "destinations": ["twin"]},
    ])
    assert rules[0].destinations == frozenset({"tsdb", "streams"})
    assert rules[0].tag is None
    assert (rules[1].class_name, rules[1].tag) == ("sensor_node", ("zone", "Z3"))


@pytest.mark.parametrize("tag", [{"zone": "Z3"}, "zone", "=Z3", ["zone", "Z3"]])
def test_route_rules_reject_a_tag_that_is_not_k_eq_v(tag):
    with pytest.raises(ValueError):
        route_rules([{"selector": {"tag": tag}, "destinations": ["twin"]}])
