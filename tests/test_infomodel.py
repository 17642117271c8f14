import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from iotra import infomodel
from iotra.infomodel import (
    DuplicateClass,
    InteractionDef,
    LinkDef,
    ModelRegistry,
    ObjectClass,
    PropertyDef,
    PropertyConflict,
    TaxonomyCycle,
    TypedScalar,
    UnknownClass,
    UnknownParent,
    UnknownPrefix,
    UnknownRelation,
    decode_report,
    encode_report,
    parse_scalar,
    payload_to_scalars,
)
from iotra.reading import TEXT_MEMO_SIZE, ChannelKey, Reading

REFERENCE_PAYLOAD = (
    '{ "id": "150a3c6e-bef0e", "temp": "n:77.6", "unit": "°F",'
    ' "DateTime": "t:2020-07-15T14:50:07Z UTC" }'
)


@pytest.fixture
def registry():
    reg = ModelRegistry()
    reg.register_class(
        ObjectClass(
            "temperature_sensor",
            properties=[
                PropertyDef("temp", "number", unit="°F", required=True),
                PropertyDef("unit", "string", required=True),
            ],
        )
    )
    return reg


# -- class registration --------------------------------------------------


def test_register_temperature_sensor_flattened_count(registry):
    assert len(registry.effective_properties("temperature_sensor")) == 2


def test_effective_properties_cached_and_read_only(registry):
    props = registry.effective_properties("temperature_sensor")
    assert registry.effective_properties("temperature_sensor") is props
    with pytest.raises(TypeError):
        props["humidity"] = PropertyDef("humidity", "number")
    registry.register_class(ObjectClass(
        "probe", parent="temperature_sensor",
        properties=[PropertyDef("depth", "number")]))
    assert set(registry.effective_properties("probe")) == {"temp", "unit", "depth"}
    assert set(props) == {"temp", "unit"}


def test_self_parent_is_a_cycle():
    reg = ModelRegistry()
    with pytest.raises(TaxonomyCycle):
        reg.register_class(ObjectClass("loopy", parent="loopy"))


def test_smart_thermostat_composition(registry):
    name = registry.register_class(
        ObjectClass(
            "smart_thermostat",
            properties=[PropertyDef("setpoint", "number", writable=True)],
            links=[LinkDef("composed_of", "temperature_sensor")],
        )
    )
    assert name == "smart_thermostat"
    assert len(registry.get_class(name).links) == 1


def test_duplicate_class_rejected(registry):
    with pytest.raises(DuplicateClass):
        registry.register_class(ObjectClass("temperature_sensor"))


def test_unknown_parent_rejected():
    reg = ModelRegistry()
    with pytest.raises(UnknownParent):
        reg.register_class(ObjectClass("orphan", parent="ghost"))


def test_child_cannot_redefine_datatype(registry):
    with pytest.raises(PropertyConflict):
        registry.register_class(
            ObjectClass(
                "weird_sensor",
                parent="temperature_sensor",
                properties=[PropertyDef("temp", "string")],
            )
        )


def test_bounds_only_on_numeric():
    with pytest.raises(infomodel.ModelError):
        PropertyDef("label", "string", min=0)


def test_min_le_max_enforced():
    with pytest.raises(infomodel.ModelError):
        PropertyDef("temp", "number", min=10, max=5)


def test_enum_needs_values():
    with pytest.raises(infomodel.ModelError):
        PropertyDef("mode", "enum")


def test_write_interaction_must_target_writable():
    with pytest.raises(infomodel.ModelError):
        ObjectClass(
            "bad",
            properties=[PropertyDef("temp", "number")],
            interactions=[InteractionDef("set_temp", "write", "temp")],
        )


def test_class_link_with_unknown_relation_rejected():
    reg = ModelRegistry()
    with pytest.raises(UnknownRelation):
        reg.register_class(ObjectClass("thing", links=[LinkDef("owns", "zone")]))
    assert not reg.has_class("thing")


def test_taxonomy_flattening_matches_chain_walk_oracle():
    reg = ModelRegistry()
    rng = random.Random(42)
    classes = {}
    for i in range(12):
        parent = rng.choice([None] + list(classes)) if classes else None
        props = [
            PropertyDef(f"p{rng.randrange(6)}", "number") for _ in range(rng.randrange(3))
        ]
        uniq = {p.name: p for p in props}
        cls = ObjectClass(f"c{i}", parent=parent, properties=list(uniq.values()))
        try:
            reg.register_class(cls)
        except PropertyConflict:
            continue
        classes[cls.name] = cls
    for name, cls in classes.items():
        # independent oracle: walk the parent chain root-first
        chain = []
        cur = name
        while cur is not None:
            chain.append(classes[cur])
            cur = classes[cur].parent
        expected = {}
        for c in reversed(chain):
            for p in c.properties:
                expected[p.name] = p.datatype
        got = {k: v.datatype for k, v in reg.effective_properties(name).items()}
        assert got == expected


# -- payload validation --------------------------------------------------


def test_reference_payload_validates_ok(registry):
    scalars = payload_to_scalars(REFERENCE_PAYLOAD)
    assert registry.validate_payload("temperature_sensor", scalars).ok


def test_type_mismatch_and_missing_required(registry):
    report = registry.validate_payload(
        "temperature_sensor", {"temp": TypedScalar("s", "hot")}
    )
    kinds = {(v.kind, v.key) for v in report.violations}
    assert ("type_mismatch", "temp") in kinds
    assert ("missing_required", "unit") in kinds


def test_out_of_range():
    reg = ModelRegistry()
    reg.register_class(
        ObjectClass("bounded", properties=[PropertyDef("temp", "number", max=150)])
    )
    report = reg.validate_payload("bounded", {"temp": TypedScalar("n", "250.0")})
    assert [v.kind for v in report.violations] == ["out_of_range"]


@pytest.mark.parametrize("bounds, kinds", [
    ({}, []),
    ({"min": 0}, ["out_of_range"]),
    ({"max": 150}, ["out_of_range"]),
    ({"min": 0, "max": 150}, ["out_of_range", "out_of_range"]),
])
def test_nan_is_out_of_range_under_any_bound(bounds, kinds):
    # nan < min and nan > max are both false, so nan used to pass a bound
    prop = PropertyDef("temp", "number", **bounds)
    assert [v.kind for v in infomodel.check_value(prop, TypedScalar("n", "nan"))] == kinds
    inf_kinds = ["out_of_range"] if "max" in bounds else []
    assert [v.kind for v in infomodel.check_value(prop, TypedScalar("n", "inf"))] == inf_kinds


def test_unknown_key_is_violation(registry):
    report = registry.validate_payload(
        "temperature_sensor",
        {"temp": TypedScalar("n", "1"), "unit": TypedScalar("s", "°F"),
         "bogus": TypedScalar("s", "x")},
    )
    assert any(v.kind == "unknown_key" and v.key == "bogus" for v in report.violations)


def test_reserved_keys_are_not_violations(registry):
    scalars = {
        "id": TypedScalar("s", "abc"),
        "seq": TypedScalar("n", "4"),
        "DateTime": TypedScalar("t", "2020-07-15T14:50:07Z"),
        "temp": TypedScalar("n", "77.6"),
        "unit": TypedScalar("s", "°F"),
    }
    assert registry.validate_payload("temperature_sensor", scalars).ok


def test_validate_unknown_class(registry):
    with pytest.raises(UnknownClass):
        registry.validate_payload("ghost", {})


def test_integer_datatype_rejects_fractional():
    reg = ModelRegistry()
    reg.register_class(
        ObjectClass("counter", properties=[PropertyDef("count", "integer")])
    )
    assert reg.validate_payload("counter", {"count": TypedScalar("n", "3")}).ok
    bad = reg.validate_payload("counter", {"count": TypedScalar("n", "3.5")})
    assert not bad.ok


# -- report codec --------------------------------------------------------


def test_encode_matches_appendix_shape():
    r = Reading(
        channel=ChannelKey("150a3c6e-bef0e", "temp"),
        value=77.6,
        unit="°F",
        ts=1594824607.0,
    )
    text = encode_report("150a3c6e-bef0e", [r])
    assert text == (
        '{"id":"150a3c6e-bef0e","temp":"n:77.6","unit":"°F",'
        '"DateTime":"t:2020-07-15T14:50:07Z"}'
    )


def test_decode_reference_string_with_utc_suffix():
    node, readings = decode_report(REFERENCE_PAYLOAD)
    assert node == "150a3c6e-bef0e"
    (r,) = readings
    assert r.value == 77.6
    assert r.unit == "°F"
    assert r.ts == 1594824607.0


def test_empty_reading_list_encodes_empty():
    assert encode_report("n-1", []) == ""


def test_tags_encode_as_string_scalars():
    r = Reading(
        channel=ChannelKey("n-1", "temp"), value=77.6, unit="°F",
        ts=1594824607.0, seq=3, tags={"zone": "Z3"},
    )
    text = encode_report("n-1", [r])
    assert '"zone":"s:Z3"' in text
    node, [back] = decode_report(text)
    assert back == r


def test_unknown_prefix_rejected():
    with pytest.raises(UnknownPrefix):
        decode_report('{"id":"n-1","temp":"x:5","DateTime":"t:2020-07-15T14:50:07Z"}')


def test_malformed_text_rejected():
    with pytest.raises(infomodel.MalformedText):
        decode_report("not json at all")
    with pytest.raises(infomodel.MalformedText):
        decode_report('{"temp":"n:1"}')  # no id


def test_bad_timestamp_rejected():
    from iotra.timeutil import BadTimestamp

    with pytest.raises(BadTimestamp):
        decode_report('{"id":"n-1","temp":"n:1","DateTime":"t:yesterday"}')


_tag_keys = st.sampled_from(["zone", "site", "asset", "floor", "wing"])
_sensors = st.sampled_from(["temp", "humidity", "pressure", "power", "flow"])
_texts = st.text(
    st.characters(blacklist_categories=("Cs", "Cc")), max_size=10
)


@st.composite
def readings(draw, node_id="n-000007"):
    value = draw(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.booleans(),
            _texts,
        )
    )
    tags = draw(st.dictionaries(_tag_keys, _texts, max_size=3))
    sensor = draw(_sensors)
    return Reading(
        channel=ChannelKey(node_id, sensor),
        value=value,
        unit=draw(st.sampled_from(["", "°F", "kWh", "%"])),
        ts=draw(st.integers(min_value=0, max_value=4_000_000_000_000)) / 1000.0,
        seq=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=10**9))),
        tags=tags,
    )


@settings(max_examples=200)
@given(st.lists(readings(), max_size=5))
def test_round_trip_property(rs):
    text = encode_report("n-000007", rs)
    if not rs:
        assert text == ""
        return
    node, back = decode_report(text)
    assert node == "n-000007"
    assert back == rs


def plan_registry():
    """A class whose properties cover every key readings() can put in a
    report, with bounds that some generated values break."""
    reg = ModelRegistry()
    reg.register_class(ObjectClass("probe", properties=[
        PropertyDef("temp", "number", min=-1e6, max=1e6),
        PropertyDef("humidity", "integer"),
        PropertyDef("pressure", "string"),
        PropertyDef("power", "boolean"),
        PropertyDef("flow", "enum", enum_values=("", "a")),
        PropertyDef("unit", "string", required=True),
        *(PropertyDef(k, "string") for k in ("zone", "site", "asset", "floor")),
    ]))
    return reg


@settings(max_examples=200)
@given(st.lists(readings(), min_size=1, max_size=5))
def test_decode_with_a_plan_is_decode_then_validate(rs):
    reg = plan_registry()
    text = encode_report("n-000007", rs)
    node, back = decode_report(text)
    ok = all(reg.validate_payload("probe", payload_to_scalars(line)).ok
             for line in text.split("\n"))
    if ok:
        assert decode_report(text, reg.report_plan("probe")) == (node, back)
    else:
        with pytest.raises(infomodel.ModelError):
            decode_report(text, reg.report_plan("probe"))


def test_report_plan_is_cached_per_class():
    reg = plan_registry()
    plan = reg.report_plan("probe")
    assert reg.report_plan("probe") is plan
    assert plan == (reg.effective_properties("probe"), ("unit",))
    with pytest.raises(UnknownClass):
        reg.report_plan("ghost")


@pytest.mark.parametrize("with_plan", [False, True])
def test_each_decode_gets_its_own_tags(with_plan):
    plan = plan_registry().report_plan("probe") if with_plan else None
    r = Reading(channel=ChannelKey("n-1", "temp"), value=77.6, unit="°F",
                ts=1594824607.0, seq=1, tags={"zone": "a"})
    payload = encode_report("n-1", [r])
    first = decode_report(payload, plan)[1][0]
    first.tags["zone"] = "b"
    first.tags["site"] = "hq"
    second = decode_report(payload, plan)[1][0]
    assert second == r
    assert second.tags is not first.tags


def test_decode_takes_crlf_line_ends():
    rs = [Reading(channel=ChannelKey("n-1", "temp"), value=float(i), unit="°F",
                  ts=1594824607.0 + i, seq=i + 1, tags={"zone": "a"}) for i in range(2)]
    text = encode_report("n-1", rs)
    assert decode_report(text.replace("\n", "\r\n") + "\r\n") == ("n-1", rs)


def test_decode_with_a_plan_parses_the_unit():
    plan = plan_registry().report_plan("probe")
    line = '{"id":"n-1","temp":"n:1","unit":"q:F","DateTime":"t:2020-07-15T14:50:07Z"}'
    assert decode_report(line)[1][0].unit == "q:F"
    with pytest.raises(UnknownPrefix):
        decode_report(line, plan)
    with pytest.raises(infomodel.ModelError, match="type_mismatch: unit"):
        decode_report(line.replace("q:F", "n:5"), plan)


# -- non-string values and the number grammar ------------------------------


_FRAME = ('{"id":"n-1","temp":"n:71.5","unit":"°F",'
          '"DateTime":"t:2020-07-15T14:50:07Z","seq":4,"zone":"s:a"}')


@pytest.mark.parametrize("key,raw", [
    ("id", 5), ("unit", None), ("unit", 5), ("unit", ["°F"]),
    ("temp", 71.5), ("temp", None), ("temp", ["n:1"]), ("temp", {"n": 1}),
    ("zone", None), ("zone", True), ("zone", ["s:a"]), ("zone", 1),
    ("DateTime", 1594824607),
])
def test_a_non_string_value_is_malformed_text(key, raw):
    obj = json.loads(_FRAME)
    obj[key] = raw
    line = json.dumps(obj)
    plan = plan_registry().report_plan("probe")
    for decode in (lambda: decode_report(line), lambda: decode_report(line, plan),
                   lambda: payload_to_scalars(line)):
        with pytest.raises(infomodel.MalformedText):
            decode()


# texts that float() reads but that are not JSON numbers
@pytest.mark.parametrize("body", ["1_000", " 5 ", "5 ", "infinity", "Infinity", "+5",
                                  "NaN", "-nan", ".5", "5.", "01", "1E5 ", "\u0665"])
def test_number_text_follows_one_grammar(body):
    float(body)
    with pytest.raises(infomodel.MalformedText):
        parse_scalar(f"n:{body}")


@pytest.mark.parametrize("body", ["0", "-0", "71.5", "1e5", "1E+5", "-1.5e-07", "nan",
                                  "inf", "-inf"])
def test_number_grammar_takes_json_numbers_and_non_finite_names(body):
    assert parse_scalar(f"n:{body}") == TypedScalar("n", body)


@settings(max_examples=300)
@given(st.one_of(st.floats(), st.integers(-10**20, 10**20),
                 st.sampled_from([5e-324, 2.2e-308, 1e15, 1e15 + 1, -1e15, 1e16, 1.5e300])))
def test_every_number_text_parses(value):
    text = infomodel.number_text(value)
    assert parse_scalar(f"n:{text}") == TypedScalar("n", text)
    back = float(text)
    assert back == float(value) or (math.isnan(back) and math.isnan(value))


# -- frames of a learned shape ---------------------------------------------


def probe_frames(n, sensor="temp", node="n-1", tags=(("zone", "a"),)):
    return [encode_report(node, [Reading(ChannelKey(node, sensor), 20.0 + i * 0.37, "°F",
                                         1594824607.0 + i * 0.2, i + 1, dict(tags))])
            for i in range(n)]


def test_a_learned_shape_decodes_without_json_loads(monkeypatch):
    plan = plan_registry().report_plan("probe")
    frames = probe_frames(1001)
    # a copy of the plan that has learned nothing takes the full decode
    want = [decode_report(f, infomodel.ReportPlan(*plan)) for f in frames]
    decode_report(frames[0], plan)  # learns the shape
    calls = []
    loads = infomodel.json.loads
    monkeypatch.setattr(infomodel.json, "loads",
                        lambda *a, **kw: calls.append(a) or loads(*a, **kw))
    got = [decode_report(f, plan) for f in frames[1:]]
    assert len(calls) == 0
    assert got == want[1:]
    _, (first,) = decode_report(frames[1], plan)
    assert decode_report(frames[2], plan)[1][0].tags is first.tags  # one dict per shape


def test_a_shape_serves_only_the_plan_it_was_learned_under():
    reg = plan_registry()
    reg.register_class(ObjectClass("capped", properties=[
        PropertyDef("temp", "number", max=50), PropertyDef("unit", "string"),
        PropertyDef("zone", "string")]))
    loose, capped = reg.report_plan("probe"), reg.report_plan("capped")
    hot = probe_frames(200)[-1]  # temp above 90
    decode_report(hot, loose)
    decode_report(hot, loose)
    assert loose.shapes and not capped.shapes
    with pytest.raises(infomodel.ModelError, match="out_of_range: temp"):
        decode_report(hot, capped)
    other = plan_registry().report_plan("probe")  # another registry
    assert not other.shapes
    assert decode_report(hot, other) == decode_report(hot, loose)


def test_a_shape_is_learned_only_from_its_templates_own_text():
    reg = ModelRegistry()
    reg.register_class(ObjectClass("bare", properties=[PropertyDef("temp", "number")]))
    plan = reg.report_plan("bare")
    # no unit key: the decoded unit is "", which the template writes as a key
    # this class does not have
    line = '{"id":"n-1","temp":"n:5","DateTime":"t:2020-07-15T14:50:07Z","seq":1}'
    assert decode_report(line, plan) == decode_report(line)
    assert not plan.shapes
    templated = encode_report("n-1", decode_report(line)[1])
    for _ in range(2):
        with pytest.raises(infomodel.ModelError, match="unknown_key: unit"):
            decode_report(templated, plan)


def test_the_shape_memo_stays_within_its_bound():
    plan = plan_registry().report_plan("probe")
    heads = 2 * TEXT_MEMO_SIZE
    for i in range(heads):
        decode_report(probe_frames(1, node=f"n-{i}")[0], plan)
        assert len(plan.shapes) <= TEXT_MEMO_SIZE
    # the newest shapes are kept, the oldest went first
    assert f'"id":"n-{heads - 1}"' in next(reversed(plan.shapes))
    assert f'"id":"n-{heads - TEXT_MEMO_SIZE}"' in next(iter(plan.shapes))


def test_validation_soundness_of_encoder_output(registry):
    r = Reading(
        channel=ChannelKey("n-1", "temp"), value=77.6, unit="°F", ts=1594824607.0,
        seq=1,
    )
    for line in encode_report("n-1", [r]).splitlines():
        assert registry.validate_payload("temperature_sensor",
                                         payload_to_scalars(line)).ok


# -- model files ---------------------------------------------------------


def test_load_model_dir(tmp_path):
    (tmp_path / "01-base.json").write_text(
        json.dumps({"name": "base", "properties": [
            {"name": "unit", "datatype": "string"}]})
    )
    (tmp_path / "02-temp.json").write_text(
        json.dumps({
            "name": "temp_sensor",
            "parent": "base",
            "properties": [{"name": "temp", "datatype": "number", "unit": "°F"}],
            "interactions": [{"name": "overtemp", "kind": "event"}],
            "links": [{"relation": "part_of", "target": "zone"}],
        })
    )
    reg = ModelRegistry()
    assert reg.load_model_dir(tmp_path) == ["base", "temp_sensor"]
    assert set(reg.effective_properties("temp_sensor")) == {"unit", "temp"}


def test_parse_scalar_bare_string_has_no_prefix():
    assert parse_scalar("°F") == TypedScalar("s", "°F")
    assert parse_scalar("n:1.5") == TypedScalar("n", "1.5")
    with pytest.raises(UnknownPrefix):
        parse_scalar("x:5")


@pytest.mark.parametrize("wire", ["n:71.5", "n:-3", "n:0", "n:nan", "n:-inf", "b:true",
                                  "b:false", "s:abc", "s:3.1", "s:", "bare",
                                  "t:2020-07-15T14:50:07Z"])
def test_scalar_of_a_decoded_value_is_its_wire_scalar(wire):
    line = json.dumps({"id": "n-000007", "temp": wire, "DateTime": "t:2020-07-15T14:50:07Z"})
    (reading,) = decode_report(line)[1]
    assert infomodel.scalar_of(reading.value) == parse_scalar(wire)


# -- encoder against the one-dict-per-reading encoder ---------------------

_ORACLE_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def oracle_encode_report(node_id, readings):
    """encode_report as it was before frame templates: one dict per
    reading, JSON-encoded whole. Frozen here as the reference."""
    lines = []
    for r in readings:
        if r.channel.node_id != node_id:
            raise ValueError(f"reading on {r.channel} does not belong to node {node_id}")
        obj = {"id": node_id}
        value = r.value
        if isinstance(value, TypedScalar):
            text = value.encode()
        elif isinstance(value, bool):
            text = "b:true" if value else "b:false"
        elif isinstance(value, (int, float)):
            text = f"n:{infomodel.number_text(value)}"
        else:
            text = f"s:{value}"
        obj[r.channel.sensor_name] = text
        obj["unit"] = r.unit
        obj["DateTime"] = f"t:{infomodel.format_ts(r.ts)}"
        if r.seq is not None:
            obj["seq"] = r.seq
        for k in sorted(r.tags):
            obj[k] = f"s:{r.tags[k]}"
        lines.append(_ORACLE_ENCODER.encode(obj))
    return "\n".join(lines)


_odd_texts = st.one_of(
    st.sampled_from(["", "°F", "%", "a", "\u0000", "\x1f\x7f", "\U0001f321", "q\"\\", "n:1"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
_codec_sensors = ("temp", "flow")
# every key a tag may collide with, beside ordinary tag keys
_codec_tag_keys = st.sampled_from(["zone", "site", "id", "unit", "DateTime", "seq",
                                   *_codec_sensors])


@st.composite
def codec_readings(draw):
    value = draw(st.one_of(
        st.floats(width=64),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e15, 72.5]),
        st.booleans(),
        st.integers(min_value=-2**64, max_value=2**64),
        _odd_texts,
    ))
    tags = draw(st.dictionaries(
        _codec_tag_keys,
        st.one_of(_odd_texts, st.sampled_from([1, 1.0, True])),
        max_size=3))
    seq = draw(st.one_of(st.none(), st.sampled_from([0, 1, 2**63, True]),
                         st.integers(min_value=0, max_value=2**64)))
    return Reading(
        channel=ChannelKey("n-000007", draw(st.sampled_from(_codec_sensors))),
        value=value,
        unit=draw(st.one_of(_odd_texts, st.sampled_from([1, 1.0, True]))),
        ts=draw(st.integers(min_value=-62_135_596_800_000,
                            max_value=253_402_300_799_999)) / 1000.0,
        seq=seq,
        tags=tags,
    )


@settings(max_examples=300)
@given(st.lists(codec_readings(), min_size=1, max_size=6))
def test_encode_report_matches_the_oracle(rs):
    # the same readings with their tags inserted in reverse order, and
    # with each tag value moved to the next key
    flipped = [Reading(r.channel, r.value, r.unit, r.ts, r.seq,
                       dict(reversed(r.tags.items()))) for r in rs]
    rotated = [Reading(r.channel, r.value, r.unit, r.ts, r.seq,
                       dict(zip(r.tags, [*r.tags.values()][1:] + [*r.tags.values()][:1])))
               for r in rs]
    for batch in (rs, flipped, rotated, rs + flipped + rotated):
        assert encode_report("n-000007", batch) == oracle_encode_report("n-000007", batch)
    for r in rs:
        assert encode_report("n-000007", [r]) == oracle_encode_report("n-000007", [r])


def test_encode_report_matches_the_oracle_on_unhashable_tags():
    r = Reading(ChannelKey("n-1", "temp"), 1.5, "°F", 1.0, 1, {"zone": ["a"]})
    assert encode_report("n-1", [r]) == oracle_encode_report("n-1", [r])
