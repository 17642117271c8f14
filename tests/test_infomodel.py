import json
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
    ThingInstance,
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
from iotra.reading import ChannelKey, Reading

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


@settings(max_examples=100)
@given(st.lists(readings(), min_size=1, max_size=5))
def test_decode_scalars_are_payload_to_scalars(rs):
    text = encode_report("n-000007", rs)
    node, back, scalars = decode_report(text, with_scalars=True)
    assert (node, back) == decode_report(text)
    assert scalars == [payload_to_scalars(line) for line in text.splitlines()]


@pytest.mark.parametrize("with_scalars", [False, True])
def test_each_decode_gets_its_own_tags(with_scalars):
    r = Reading(channel=ChannelKey("n-1", "temp"), value=77.6, unit="°F",
                ts=1594824607.0, seq=1, tags={"zone": "a"})
    payload = encode_report("n-1", [r])
    first = decode_report(payload, with_scalars=with_scalars)[1][0]
    first.tags["zone"] = "b"
    first.tags["site"] = "hq"
    second = decode_report(payload, with_scalars=with_scalars)[1][0]
    assert second == r
    assert second.tags is not first.tags


def test_decode_with_scalars_parses_the_unit():
    line = '{"id":"n-1","temp":"n:1","unit":"q:F","DateTime":"t:2020-07-15T14:50:07Z"}'
    assert decode_report(line)[1][0].unit == "q:F"
    with pytest.raises(UnknownPrefix):
        decode_report(line, with_scalars=True)


def test_validation_soundness_of_encoder_output(registry):
    r = Reading(
        channel=ChannelKey("n-1", "temp"), value=77.6, unit="°F", ts=1594824607.0,
        seq=1,
    )
    for line in encode_report("n-1", [r]).splitlines():
        assert registry.validate_payload("temperature_sensor",
                                         payload_to_scalars(line)).ok


# -- instances and links -------------------------------------------------


def make_linked_registry():
    reg = ModelRegistry()
    reg.register_class(ObjectClass("thing"))
    reg.register_instance(
        ThingInstance("zone-z3", "thing",
                      links=[LinkDef("regulated_by", "ahu-2")])
    )
    reg.register_instance(
        ThingInstance("ts-101", "thing", tags={"zone": "Z3"},
                      links=[LinkDef("part_of", "zone-z3")])
    )
    reg.register_instance(ThingInstance("ahu-2", "thing"))
    return reg


def test_hvac_transitive_resolution():
    reg = make_linked_registry()
    assert reg.resolve_links("ts-101", "regulated_by", transitive=True) == []
    # one part_of hop reaches the zone; the zone's regulated_by edge is a
    # different relation, so closure over regulated_by from the zone:
    assert reg.resolve_links("zone-z3", "regulated_by") == ["ahu-2"]
    assert reg.resolve_links("ts-101", "part_of", transitive=True) == ["zone-z3"]


def test_no_links_resolves_empty():
    reg = make_linked_registry()
    assert reg.resolve_links("ahu-2", "part_of") == []


def test_diamond_closure():
    reg = ModelRegistry()
    reg.register_class(ObjectClass("thing"))
    edges = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}
    for iid, targets in edges.items():
        reg.register_instance(
            ThingInstance(iid, "thing",
                          links=[LinkDef("part_of", t) for t in targets])
        )
    assert reg.resolve_links("a", "part_of", transitive=True) == ["b", "c", "d"]


def test_unknown_instance_and_relation():
    reg = make_linked_registry()
    with pytest.raises(infomodel.UnknownInstance):
        reg.resolve_links("ghost", "part_of")
    with pytest.raises(UnknownRelation):
        reg.resolve_links("ts-101", "not_registered")


def test_link_closure_matches_bfs_oracle():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(2, 20)
        ids = [f"i{k}" for k in range(n)]
        adj = {i: sorted(rng.sample(ids, rng.randrange(0, min(4, n)))) for i in ids}
        reg = ModelRegistry()
        reg.register_class(ObjectClass("thing"))
        for iid in ids:
            reg.register_instance(
                ThingInstance(iid, "thing",
                              links=[LinkDef("contains", t) for t in adj[iid]])
            )
        start = rng.choice(ids)
        # independent BFS oracle
        seen, frontier = set(), list(adj[start])
        while frontier:
            cur = frontier.pop()
            if cur in seen:
                continue
            seen.add(cur)
            frontier.extend(adj[cur])
        assert reg.resolve_links(start, "contains", transitive=True) == sorted(seen)


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
