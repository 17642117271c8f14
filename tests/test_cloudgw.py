import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from iotra import cloudgw, infomodel
from iotra.cloudgw import DESTINATIONS, CloudGateway, DedupState, RouteRule, route_rules
from iotra.msgbus import BadFilter, TopicFilter
from iotra.reading import TEXT_MEMO_SIZE, ChannelKey, Reading
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


@pytest.fixture
def make_gateway(tmp_path):
    """Builds gateways that audit to ``tmp_path/audit.jsonl`` and closes
    each at teardown, so a failed assertion leaks no audit handle into
    the next test."""
    built = []

    def build(**kw):
        registry = FakeRegistry()
        registry.states["n-000001"] = "active"
        registry.classes["n-000001"] = "sensor_node"
        gw = CloudGateway(make_model(), registry, clock=VirtualClock(),
                          audit_path=tmp_path / "audit.jsonl", **kw)
        built.append(gw)
        return gw, registry

    yield build
    for gw in built:
        gw.close()


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


def test_admit_fresh_report(make_gateway):
    gw, _ = make_gateway()
    decision = gw.admit("n-000001", "data/n-000001/temp", report())
    assert decision.admitted and decision.reason == "ok"
    assert decision.readings[0].value == 77.6


def test_reject_unknown_node(make_gateway):
    gw, _ = make_gateway()
    decision = gw.admit("ghost", "data/ghost/temp", report(node="ghost"))
    assert (decision.verdict, decision.reason) == ("reject", "auth_failed")


def test_reject_quarantined_and_not_active(make_gateway):
    gw, registry = make_gateway()
    registry.states["n-000001"] = "quarantined"
    assert gw.admit("n-000001", "t/x", report()).reason == "quarantined"
    registry.states["n-000001"] = "commissioned"
    assert gw.admit("n-000001", "t/x", report()).reason == "not_active"


def test_reject_sender_mismatch(make_gateway):
    gw, registry = make_gateway()
    registry.states["n-000002"] = "active"
    registry.classes["n-000002"] = "sensor_node"
    decision = gw.admit("n-000002", "data/n-000002/temp", report(node="n-000001"))
    assert decision.reason == "schema_invalid"


def test_reject_malformed_payload(make_gateway):
    gw, _ = make_gateway()
    assert gw.admit("n-000001", "t/x", "not json").reason == "schema_invalid"


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
    report_line(seq=True),  # would be deduped as seq 1
    report_line(seq=False),  # these three would raise out of DedupState.check
    report_line(seq=0),
    report_line(seq=-3),
], ids=["unit_prefix", "bad_datetime", "bad_sensor_name", "seq_true", "seq_false",
        "seq_zero", "seq_negative"])
def test_undecodable_frame_is_rejected_audited_and_next_admitted(make_gateway, tmp_path,
                                                                 payload):
    gw, _ = make_gateway()
    decision = gw.admit("n-000001", "data/n-000001/temp", payload)
    assert (decision.verdict, decision.reason) == ("reject", "schema_invalid")
    assert gw.admit("n-000001", "data/n-000001/temp", report(seq=1)).admitted
    gw.close()
    lines = [json.loads(l) for l in
             (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert [e["reason"] for e in lines] == ["schema_invalid", "ok"]


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"])
def test_a_line_separator_in_a_unit_or_tag_leaves_the_frame_whole(sep):
    # the encoder writes these raw (it escapes control characters), and
    # str.splitlines() would split there; only "\n" separates report lines
    registry = FakeRegistry()
    registry.states["n-000001"] = "active"
    registry.classes["n-000001"] = "probe"
    gw = CloudGateway(oracle_model(), registry)
    r = Reading(channel=ChannelKey("n-000001", "temp"), value=70.5, unit=f"°{sep}F",
                ts=100.0, seq=1, tags={"zone": f"a{sep}b"})
    decision = gw.admit("n-000001", "data/n-000001/temp",
                        infomodel.encode_report("n-000001", [r]))
    assert (decision.verdict, decision.reason) == ("admit", "ok")
    assert decision.readings == [r]


def test_strict_validation_rejects_out_of_range(make_gateway):
    gw, _ = make_gateway()
    decision = gw.admit("n-000001", "t/x", report(value=900.0))
    assert decision.reason == "schema_invalid"


def test_duplicate_rejected_exactly_once_semantics(make_gateway):
    gw, _ = make_gateway()
    payload = report(seq=1)
    assert gw.admit("n-000001", "t/x", payload).admitted
    assert gw.admit("n-000001", "t/x", payload).reason == "duplicate"


def test_mixed_batch_admits_only_fresh(make_gateway):
    gw, _ = make_gateway()
    r1 = Reading(channel=ChannelKey("n-000001", "temp"), value=1.0, unit="°F",
                 ts=1.0, seq=1)
    r2 = Reading(channel=ChannelKey("n-000001", "temp"), value=2.0, unit="°F",
                 ts=2.0, seq=2)
    gw.admit("n-000001", "t/x", infomodel.encode_report("n-000001", [r1]))
    both = infomodel.encode_report("n-000001", [r1, r2])
    decision = gw.admit("n-000001", "t/x", both)
    assert decision.admitted
    assert [r.seq for r in decision.readings] == [2]


def test_audit_log_records_every_decision(make_gateway, tmp_path):
    gw, _ = make_gateway()
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


# -- admission against decode, payload_to_scalars and validate_payload ----


def oracle_model():
    model = infomodel.ModelRegistry()
    model.register_class(infomodel.ObjectClass("probe", properties=[
        infomodel.PropertyDef("temp", "number", min=-100, max=300),
        infomodel.PropertyDef("count", "integer"),
        infomodel.PropertyDef("mode", "enum", enum_values=("auto", "off")),
        infomodel.PropertyDef("label", "string"),
        infomodel.PropertyDef("fan", "boolean"),
        infomodel.PropertyDef("unit", "string"),
        infomodel.PropertyDef("zone", "string", required=True),
        infomodel.PropertyDef("site", "string"),
    ]))
    return model


def oracle_decide(model, dedup, node_id, payload):
    """CloudGateway._decide for an active probe, as a plain decode, then
    payload_to_scalars and validate_payload of every line."""
    try:
        sender, readings = infomodel.decode_report(payload)
        lines = [line for line in payload.split("\n") if line.strip()]
        if sender != node_id or not all(
                _seq_ok(json.loads(line).get("seq"))
                and model.validate_payload("probe", infomodel.payload_to_scalars(line)).ok
                for line in lines):
            return ("reject", "schema_invalid", [])
    except (infomodel.ModelError, ValueError):
        return ("reject", "schema_invalid", [])
    fresh = [r for r in readings
             if r.seq is None or dedup.check(node_id, r.channel.sensor_name, r.seq)]
    return ("admit", "ok", fresh) if fresh else ("reject", "duplicate", [])


def _seq_ok(seq):
    return seq is None or (isinstance(seq, int) and not isinstance(seq, bool) and seq >= 1)


_oracle_values = {
    "temp": st.floats(min_value=-200, max_value=400),
    "count": st.one_of(st.integers(-5, 5).map(float), st.floats(-5, 5)),
    "mode": st.sampled_from(["auto", "off", "turbo"]),
    "label": st.text(max_size=4),
    "fan": st.booleans(),
}


@st.composite
def oracle_reading(draw, node="n-000001"):
    sensor = draw(st.sampled_from(sorted(_oracle_values)))
    tags = {"zone": draw(st.sampled_from(["a", "b"]))}
    if draw(st.booleans()):
        tags["site"] = draw(st.sampled_from(["hq", "lab"]))
    return Reading(channel=ChannelKey(node, sensor), value=draw(_oracle_values[sensor]),
                   unit=draw(st.sampled_from(["°F", "", "%"])),
                   ts=draw(st.integers(0, 10**6)) / 10.0,
                   seq=draw(st.one_of(st.integers(1, 6), st.none())), tags=tags)


def _swap(key, value):
    return lambda obj: {**obj, key: value}


# each maps one report object to a broken (or, for utc, legacy) one
MUTATIONS = {
    "id_prefix": _swap("id", "x:n-000001"),
    "id_number": _swap("id", "n:abc"),
    "unit_prefix": _swap("unit", "q:F"),
    "unit_number": _swap("unit", "n:5"),
    "unknown_key": _swap("bogus", "s:x"),
    "out_of_range": _swap("temp", "n:900"),
    "not_integer": _swap("count", "n:2.5"),
    "enum_miss": _swap("mode", "s:turbo"),
    "missing_required": lambda obj: {k: v for k, v in obj.items() if k != "zone"},
    "float_seq": _swap("seq", 1.5),
    "zero_seq": _swap("seq", 0),
    "negative_seq": _swap("seq", -3),
    "true_seq": _swap("seq", True),
    "false_seq": _swap("seq", False),
    "utc": lambda obj: {**obj, "DateTime": f"{obj.get('DateTime')} UTC"},
    "mixed_ids": _swap("id", "n-000002"),
    "tag_type": _swap("site", "n:1"),
    "no_datetime": lambda obj: {k: v for k, v in obj.items() if k != "DateTime"},
}


@st.composite
def oracle_payloads(draw):
    rs = draw(st.lists(oracle_reading(), min_size=1, max_size=3))
    objs = [json.loads(line) for line in infomodel.encode_report("n-000001", rs).split("\n")]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(objs) - 1))
        objs[i] = MUTATIONS[draw(st.sampled_from(sorted(MUTATIONS)))](objs[i])
    return "\n".join(json.dumps(o, ensure_ascii=False, separators=(",", ":"))
                     for o in objs)


def _sub(pattern, new):
    """Replace pattern's first match in a frame."""
    return lambda line: re.sub(pattern, new, line, count=1)


# near misses of a frame of a learned shape: each keeps most of its text
NEAR_MISSES = {
    "value_escape": _sub(r'"n:(\d)', r'"n:\\u003\1'),
    "id_escape": _sub(r'"id":"n', r'"id":"\\u006e'),
    "space_after_colon": _sub(r'"unit":', '"unit": '),
    "trailing_space": lambda line: line + " ",
    "trailing_newline": lambda line: line + "\n",
    "extra_key": lambda line: line[:-1] + ',"site":"s:x"}',
    "unknown_key": lambda line: line[:-1] + ',"bogus":"s:x"}',
    "duplicate_value": lambda line: line[:-1] + ',"temp":"n:5"}',
    "duplicate_seq": lambda line: line[:-1] + ',"seq":9}',
    "utc": _sub(r'Z"', 'Z UTC"'),
    "seq_zero": _sub(r'"seq":\d+', '"seq":0'),
    "seq_leading_zero": _sub(r'"seq":(\d+)', r'"seq":0\1'),
    "seq_true": _sub(r'"seq":\d+', '"seq":true'),
    "seq_float": _sub(r'"seq":(\d+)', r'"seq":\1.0'),
    "seq_exponent": _sub(r'"seq":(\d+)', r'"seq":\1e0'),
    "value_out_of_range": _sub(r'"n:[^"]*"', '"n:900"'),
    "value_overflow": _sub(r'"n:[^"]*"', '"n:-1e999"'),
    "value_nan": _sub(r'"n:[^"]*"', '"n:nan"'),
    "value_negative_zero": _sub(r'"n:[^"]*"', '"n:-0"'),
    "value_long": _sub(r'"n:([^"]*)"', r'"n:\g<1>000"'),
    "value_plus": _sub(r'"n:', '"n:+'),
    "value_underscore": _sub(r'"n:([^"]*)"', r'"n:1_\1"'),
    "value_string": _sub(r'"n:', '"s:'),
    "no_such_date": _sub(r'"t:[^"]*"', '"t:2021-02-30T10:00:00Z"'),
    "hour_25": _sub(r'"t:[^"]*"', '"t:2020-07-15T25:00:00Z"'),
    "year_zero": _sub(r'"t:[^"]*"', '"t:0000-01-01T00:00:00Z"'),
    "long_fraction": _sub(r'"t:([^"]*)Z"', r'"t:\1.5Z"'),
    "offset": _sub(r'Z"', '+00:00"'),
    "newline_in_time": _sub(r'Z"', 'Z\n"'),  # a raw newline is not JSON
    "escaped_newline_in_time": _sub(r'Z"', r'Z\\n"'),  # parse_ts took "...Z\n"
    "arabic_indic_digit": _sub(r'[0-9]Z"', '\u0667Z"'),  # and "\d" took it
}


@st.composite
def near_miss(draw, line):
    """line, a near miss of it, or line with one character flipped."""
    how = draw(st.sampled_from([None, "flip", *sorted(NEAR_MISSES)]))
    if how is None:
        return line
    if how == "flip":
        i = draw(st.integers(0, len(line) - 1))
        flipped = chr(ord(line[i]) ^ draw(st.sampled_from([1, 2, 4, 8, 16, 32])))
        return line[:i] + flipped + line[i + 1:]
    return NEAR_MISSES[how](line)


@st.composite
def shape_runs(draw):
    """Single-reading payloads of a few frame shapes. The first of each
    run is clean, so the gateway can learn its shape; the rest are frames
    of that shape or near misses of them."""
    payloads = []
    for _ in range(draw(st.integers(1, 3))):
        base = draw(oracle_reading())
        sensor = draw(st.sampled_from(["temp", "count"]))
        ts = draw(st.integers(0, 10**6)) / 10.0
        for i in range(draw(st.integers(2, 8))):
            r = Reading(ChannelKey("n-000001", sensor), float(draw(_oracle_values[sensor])),
                        base.unit, ts + i * draw(st.sampled_from([0.2, 1.0])), i + 1,
                        base.tags)
            line = infomodel.encode_report("n-000001", [r])
            payloads.append(line if i == 0 else draw(near_miss(line)))
    return payloads


def decode_outcome(payload, plan):
    """What decode_report does with payload: its result, or its exception
    class. The repr tells -0.0 from 0.0 and compares nan."""
    try:
        return repr(infomodel.decode_report(payload, plan))
    except Exception as exc:  # the class is the outcome
        return type(exc)


@settings(max_examples=300)
@given(st.one_of(st.lists(oracle_payloads(), min_size=1, max_size=6), shape_runs()))
def test_admit_matches_decode_then_validate(payloads):
    registry = FakeRegistry()
    registry.states["n-000001"] = "active"
    registry.classes["n-000001"] = "probe"
    gw = CloudGateway(oracle_model(), registry)
    plan = gw.model.report_plan("probe")
    model, dedup = oracle_model(), DedupState()
    for payload in payloads:
        # a copy of the plan that has learned no shape takes the full decode
        assert decode_outcome(payload, plan) == decode_outcome(
            payload, infomodel.ReportPlan(*plan))
        want = oracle_decide(model, dedup, "n-000001", payload)
        got = gw.admit("n-000001", "data/n-000001/temp", payload)
        # as reprs, so that a nan value compares
        assert repr((got.verdict, got.reason, got.readings)) == repr(want)


@pytest.mark.parametrize("value, admitted", [
    (math.nan, False), (math.inf, False), (300.0, True)])
def test_a_nan_value_under_a_bound_is_schema_invalid(value, admitted):
    registry = FakeRegistry()
    registry.states["n-000001"] = "active"
    registry.classes["n-000001"] = "probe"
    gw = CloudGateway(oracle_model(), registry)
    # the first frame teaches the gateway its shape; the second takes the
    # learned-shape path, and the same text under a fresh gateway the full decode
    frames = [infomodel.encode_report("n-000001", [Reading(
        ChannelKey("n-000001", "temp"), v, "", 1.0 + seq, seq, {"zone": "a"})])
        for seq, v in enumerate((20.0, value), start=1)]
    assert gw.admit("n-000001", "data/n-000001/temp", frames[0]).admitted
    fresh = CloudGateway(oracle_model(), registry)
    for gateway in (gw, fresh):
        got = gateway.admit("n-000001", "data/n-000001/temp", frames[1])
        assert (got.verdict, got.reason) == (("admit", "ok") if admitted
                                            else ("reject", "schema_invalid"))


def test_a_non_string_tag_is_schema_invalid():
    registry = FakeRegistry()
    registry.states["n-000001"] = "active"
    registry.classes["n-000001"] = "probe"
    gw = CloudGateway(oracle_model(), registry)
    line = ('{"id":"n-000001","temp":"n:71.5","unit":"°F",'
            '"DateTime":"t:2020-07-15T14:50:07Z","seq":%d,"zone":%s}')
    assert gw.admit("n-000001", "data/n-000001/temp", line % (1, '"s:a"')).admitted
    for seq, raw in enumerate(('["s:a"]', "null", "true", '{"s":"a"}'), start=2):
        got = gw.admit("n-000001", "data/n-000001/temp", line % (seq, raw))
        assert (got.verdict, got.reason) == ("reject", "schema_invalid")


# -- routing -------------------------------------------------------------


def route_oracle(topic, class_name, tags, rules):
    """Union of destinations over the rules that match, tested rule by
    rule; {tsdb} when none does."""
    dests = set()
    for rule in rules:
        if ((rule.topic is None or TopicFilter(rule.topic).matches(topic))
                and rule.class_name in (None, class_name)
                and (rule.tag is None or tags.get(rule.tag[0]) == rule.tag[1])):
            dests |= rule.destinations
    return frozenset(dests) if dests else frozenset({"tsdb"})


def routing_gateway(rules, classes=()):
    registry = FakeRegistry()
    registry.classes.update(classes)
    return CloudGateway(make_model(), registry, route_rules=rules)


def test_default_route_is_tsdb():
    gw = routing_gateway([], {"n-1": "sensor_node"})
    assert gw.route("data/n-1/temp", "n-1", {}) == frozenset({"tsdb"})


def test_route_union_of_matching_rules():
    rules = [
        RouteRule(frozenset({"tsdb"}), topic="data/#"),
        RouteRule(frozenset({"streams"}), topic="data/+/temp"),
        RouteRule(frozenset({"twin"}), topic="twin/#"),
    ]
    gw = routing_gateway(rules)
    assert gw.route("data/n-1/temp", "n-1", {}) == frozenset({"tsdb", "streams"})
    assert gw.route("data/n-1/hum", "n-1", {}) == frozenset({"tsdb"})


def test_route_by_class_and_tag():
    rules = [
        RouteRule(frozenset({"streams"}), class_name="sensor_node"),
        RouteRule(frozenset({"twin"}), tag=("zone", "Z3")),
    ]
    gw = routing_gateway(rules, {"n-1": "sensor_node", "n-2": "other"})
    assert gw.route("t/x", "n-1", {"zone": "Z3"}) == frozenset({"streams", "twin"})
    # the same (topic, class) plan tests the tag again for each reading
    assert gw.route("t/x", "n-1", {"zone": "Z1"}) == frozenset({"streams"})
    assert gw.route("t/x", "n-2", {"zone": "Z1"}) == frozenset({"tsdb"})
    assert gw.route("t/x", "n-2", {"zone": "Z3"}) == frozenset({"twin"})


_route_rules = st.lists(st.builds(
    RouteRule,
    destinations=st.frozensets(st.sampled_from(sorted(DESTINATIONS))),
    topic=st.one_of(st.none(), st.sampled_from(
        ["#", "+", "data/#", "data/+/temp", "+/n-1/#", "data/n-2/hum", "twin/+"])),
    class_name=st.sampled_from([None, "probe", "meter"]),
    tag=st.one_of(st.none(), st.tuples(st.sampled_from(["zone", "site"]),
                                       st.sampled_from(["a", "b"]))),
), max_size=6)
_route_queries = st.lists(st.tuples(
    st.lists(st.sampled_from(["data", "twin", "n-1", "n-2", "temp", "hum"]),
             min_size=1, max_size=4).map("/".join),
    st.sampled_from(["n-1", "n-2", "n-3"]),
    st.dictionaries(st.sampled_from(["zone", "site"]), st.sampled_from(["a", "b", "c"])),
), min_size=1, max_size=20)


@settings(max_examples=300)
@given(_route_rules, _route_queries)
def test_route_matches_the_rule_by_rule_oracle(rules, queries):
    classes = {"n-1": "probe", "n-2": "meter"}  # n-3 has no class
    gw = routing_gateway(rules, classes)
    for topic, node, tags in queries:
        want = route_oracle(topic, classes.get(node), tags, rules)
        assert gw.route(topic, node, tags) == want


def test_memos_stay_within_their_bound(make_gateway, tmp_path):
    rules = [RouteRule(frozenset({"streams"}), topic="data/+/t1"),
             RouteRule(frozenset({"tsdb"}), topic="data/#"),
             RouteRule(frozenset({"twin"}), topic="data/n-1/#", tag=("zone", "a"))]
    gw, registry = make_gateway(route_rules=rules)
    registry.classes["n-1"] = "probe"
    topics = [f"data/n-1/t{i}" for i in range(2 * TEXT_MEMO_SIZE)]
    for topic in topics + topics[:10]:  # the first ten were evicted
        tags = {"zone": "a" if len(topic) % 2 else "b"}
        assert gw.route(topic, "n-1", tags) == route_oracle(topic, "probe", tags, rules)
        assert len(gw._route_plans) <= TEXT_MEMO_SIZE
        gw.admit("n-1", topic, "junk")  # n-1 is not active: auth_failed
    gw.close()
    assert cloudgw._audit_tail.cache_info().currsize <= TEXT_MEMO_SIZE
    assert (tmp_path / "audit.jsonl").read_bytes() == b"".join(
        encoder_audit_line(0.0, "n-1", topic, "reject", "auth_failed")
        for topic in topics + topics[:10])


# -- audit line bytes ----------------------------------------------------

_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encoder_audit_line(ts, node, topic, verdict, reason):
    """An audit line as one JSON encode of the whole entry."""
    entry = {"ts": ts, "node": node, "topic": topic, "verdict": verdict, "reason": reason}
    return (_ENCODER.encode(entry) + "\n").encode("utf-8")


_any_text = st.text(st.characters(exclude_categories=()), max_size=8)


@settings(max_examples=300)
@given(st.one_of(st.floats(), st.integers(-2**70, 2**70)), _any_text, _any_text,
       st.sampled_from(["admit", "reject"]),
       st.sampled_from(["ok", "auth_failed", "schema_invalid", "duplicate"]))
def test_audit_line_is_the_encoders_line(ts, node, topic, verdict, reason):
    assert cloudgw.audit_line(ts, node, topic, verdict, reason) == encoder_audit_line(
        ts, node, topic, verdict, reason)


class ListClock:
    def __init__(self, times):
        self.times = list(times)

    def now(self):
        return self.times.pop(0)


def test_audit_file_holds_the_encoders_lines(tmp_path):
    registry = FakeRegistry()
    registry.states["nœud-é"] = "active"
    registry.classes["nœud-é"] = "sensor_node"
    times = [100.25, 7, -0.0, 1e22]
    gw = CloudGateway(make_model(), registry, clock=ListClock(times),
                      audit_path=tmp_path / "audit.jsonl")
    frames = [("nœud-é", "données/nœud-é/temp", "junk"),
              ("ghost", "data/ghost/°F", "junk"),
              ("n-000001", "data/n-000001/temp", report()),
              ("nœud-é", "données/nœud-é/temp", "junk")]
    want = b""
    try:
        for ts, (node, topic, payload) in zip(times, frames):
            d = gw.admit(node, topic, payload)
            want += encoder_audit_line(ts, node, topic, d.verdict, d.reason)
    finally:
        gw.close()
    assert (tmp_path / "audit.jsonl").read_bytes() == want


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
