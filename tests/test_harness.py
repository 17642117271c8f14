import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from iotra import controlplane, edge, tsdb, twins
from iotra.harness import cli, scenario, waveforms
from iotra.harness.scenario import ScenarioSpec, run_scenario
from iotra.streams import Emission, Item
from iotra.harness.waveforms import BadSpec, WaveformSpec, gen_waveform
from iotra.infomodel import parse_scalar
from iotra.platform import Platform
from iotra.reading import ChannelKey, Reading


# -- waveforms -----------------------------------------------------------


def test_constant_ramp_step():
    assert gen_waveform(WaveformSpec("constant", base=70.0), 5.0) == 70.0
    assert gen_waveform(WaveformSpec("ramp", base=10.0, slope=2.0), 3.0) == 16.0
    step = WaveformSpec("step", base=1.0, step_ts=5.0, step_level=9.0)
    assert gen_waveform(step, 4.9) == 1.0
    assert gen_waveform(step, 5.0) == 9.0


def test_sine_matches_math_oracle():
    spec = WaveformSpec("sine", base=70.0, amplitude=5.0, period_s=60.0)
    for t in (0.0, 15.0, 30.0, 7.3):
        expect = 70.0 + 5.0 * math.sin(2 * math.pi * t / 60.0)
        assert gen_waveform(spec, t) == pytest.approx(expect, abs=0)


def test_random_walk_is_deterministic_and_order_independent():
    spec = WaveformSpec("random_walk", base=0.0, walk_sigma=0.5, seed=42)
    forward = [gen_waveform(spec, t / 10) for t in range(50)]
    backward = [gen_waveform(spec, t / 10) for t in reversed(range(50))]
    assert forward == list(reversed(backward))
    again = [gen_waveform(WaveformSpec("random_walk", walk_sigma=0.5, seed=42),
                          t / 10) for t in range(50)]
    assert forward == again
    other = [gen_waveform(WaveformSpec("random_walk", walk_sigma=0.5, seed=43),
                          t / 10) for t in range(50)]
    assert forward != other


def test_bad_specs():
    with pytest.raises(BadSpec):
        WaveformSpec("square")
    with pytest.raises(BadSpec):
        WaveformSpec("sine", period_s=0)
    with pytest.raises(BadSpec):
        gen_waveform(WaveformSpec("constant"), -1.0)


# -- scenario spec -------------------------------------------------------


def test_spec_needs_duration():
    with pytest.raises(scenario.BadScenario):
        ScenarioSpec.from_dict({})


def test_spec_rejects_fault_outside_duration():
    with pytest.raises(scenario.BadScenario):
        ScenarioSpec.from_dict({
            "duration_s": 10,
            "faults": [{"kind": "flood", "start": 5, "end": 20}],
        })


@pytest.mark.parametrize("index", [0, 3, -1])
def test_spec_rejects_a_fault_node_index_outside_the_fleet(index):
    doc = {"duration_s": 10,
           "nodes": [{"count": 1, "channels": []}, {"channels": []}],
           "faults": [{"kind": "flood", "nodes": [1, index], "start": 1, "end": 5}]}
    with pytest.raises(scenario.BadScenario, match=f"index {index}"):
        ScenarioSpec.from_dict(doc)
    doc["faults"][0]["nodes"] = [1, 2, "n-000002"]
    assert ScenarioSpec.from_dict(doc).faults[0].nodes == (0, 1, 1)  # fleet indexes


def test_spec_default_assertions():
    spec = ScenarioSpec.from_dict({"duration_s": 1})
    assert spec.assertions == (scenario.Assertion("lossless"),
                               scenario.Assertion("seq_gap_free"))


@pytest.mark.parametrize("doc, key", [
    ({"duration_s": 1, "asertions": ["exact_multiset"]}, "asertions"),
    ({"duration_s": 1, "nodes": [{"count": 1, "chanels": []}]}, "chanels"),
    ({"duration_s": 1, "nodes": [{"buffer_capacity": 64}]}, "buffer_capacity"),
    ({"duration_s": 1, "faults": [{"kind": "uplink_outgae", "start": 0, "end": 1}]},
     "uplink_outgae"),
    ({"duration_s": 1, "actions": [{"kind": "set_desierd", "at": 0, "node": "n-000001",
                                    "set": {"setpoint": "n:68"}}]}, "set_desierd"),
    ({"duration_s": 1, "actions": [{"kind": "push_update", "at": 0, "node": "n-000001",
                                    "version": "2.0"}]}, "push_update"),
], ids=["top_level", "node_group", "retired_node_key", "fault_kind", "action_kind",
        "retired_action_kind"])
def test_spec_rejects_unknown_keys(doc, key):
    with pytest.raises(scenario.BadScenario, match=key):
        ScenarioSpec.from_dict(doc)


@pytest.mark.parametrize("doc, message", [
    ({"duration_s": 1, "assertions": ["losless"]}, "losless"),
    ({"duration_s": 1, "assertions": [{"seconds": 3}]}, "seconds"),
    ({"duration_s": 1, "assertions": [{"check": "flush_witin"}]}, "flush_witin"),
    ({"duration_s": 1, "faults": [{"kind": "flood", "start": 0, "end": 1,
                                   "params": {"rate": "fast"}}]}, "rate"),
    # JSON 1e400 loads as float inf, which int() cannot convert
    (json.loads('{"duration_s": 1, "faults": [{"kind": "flood", "start": 0, "end": 1, '
                '"params": {"rate": 1e400}}]}'), "rate"),
    ({"duration_s": 1, "faults": [{"kind": "duplicate_replay", "start": 0, "end": 1,
                                   "params": {"probability": "x"}}]}, "probability"),
], ids=["assertion_name", "assertion_without_check", "assertion_check", "flood_rate",
        "flood_rate_overflows", "replay_probability"])
def test_spec_rejects_what_the_run_would_fail_on(doc, message):
    with pytest.raises(scenario.BadScenario, match=message):
        ScenarioSpec.from_dict(doc)


def test_spec_bounds_a_flood_rate():
    def flood(rate):
        return {"duration_s": 1, "faults": [{"kind": "flood", "start": 0, "end": 1,
                                             "params": {"rate": rate}}]}

    assert ScenarioSpec.from_dict(flood(scenario.MAX_FLOOD_RATE)).faults[0].level == 100_000
    for rate in (scenario.MAX_FLOOD_RATE + 1, 2.1e17):
        with pytest.raises(scenario.BadScenario, match="rate"):
            ScenarioSpec.from_dict(flood(rate))


def test_spec_converts_fault_params_once():
    doc = {"duration_s": 5, "faults": [
        {"kind": "flood", "start": 0, "end": 1, "params": {"rate": "500"}},
        {"kind": "duplicate_replay", "start": 0, "end": 1},
        {"kind": "uplink_outage", "start": 0, "end": 1}]}
    spec = ScenarioSpec.from_dict(doc)
    assert [f.level for f in spec.faults] == [500, 0.2, None]
    assert doc["faults"][0]["params"] == {"rate": "500"}  # the caller's doc is left as it was


# A small scenario that uses every section and kind a clean 1 s run can
# hold. A remediate action is left out: an incident id the run never opens
# is a run-time error by design (see SPEC_PROBES below).
SMALL_DOC = {
    "duration_s": 1.0, "tick_s": 0.1, "seed": 2,
    "nodes": [{
        "count": 2, "name_prefix": "p", "class_name": "multi_sensor", "tags": {"zone": "a"},
        "channels": [
            {"sensor_name": "temp", "sample_period_ms": 200, "scale": 1.0, "offset": 0.0,
             "unit": "°F", "class_name": "multi_sensor",
             "waveform": {"kind": "sine", "base": 70, "amplitude": 2, "period_s": 10,
                          "seed": 3}},
            {"sensor_name": "power", "waveform": {"kind": "ramp", "base": 100, "slope": 1}},
        ],
        "edge_rules": [{"rule_id": "hot", "channel": "temp", "op": ">", "threshold": 69,
                        "debounce_count": 2, "severity": "alert"}],
        "control_rules": [{"rule_id": "fan", "actuator": "fan", "prop": "power", "value": True,
                           "condition": {"terms": [["temp", ">", 80]], "combine": "all"}}],
    }],
    "route_rules": [{"selector": {"topic": "data/#", "class": "multi_sensor", "tag": "zone=a"},
                     "destinations": ["tsdb", "streams", "twin"]}],
    "pipeline": {"nodes": [
        {"node_id": "src", "kind": "source", "params": {"selector": "*/temp"}},
        {"node_id": "hot", "kind": "filter", "params": {"op": ">", "threshold": 60}},
        {"node_id": "out", "kind": "sink", "params": {"dest": "notify"}},
        {"node_id": "tw", "kind": "sink",
         "params": {"dest": "twin_desired", "node": "n-000001", "prop": "setpoint"}},
    ], "edges": [["src", "hot"], ["hot", "out"], ["src", "tw"]]},
    "faults": [
        {"kind": "uplink_outage", "nodes": [1], "start": 0.2, "end": 0.5},
        {"kind": "flood", "nodes": ["n-000002"], "start": 0.1, "end": 0.3,
         "params": {"rate": 50}},
        {"kind": "duplicate_replay", "nodes": "all", "start": 0, "end": 1,
         "params": {"probability": 0.3}},
    ],
    "actions": [{"kind": "set_desired", "at": 0.3, "node": "n-000002",
                 "set": {"setpoint": "n:68", "firmware": "s:2.0"}}],
    "assertions": ["lossless", {"check": "all_converged", "nodes": ["n-000002"]},
                   {"check": "flush_within", "seconds": 5, "nodes": ["n-000001"]},
                   {"check": "incident_opened", "node": "n-000002"},
                   {"check": "exact_multiset", "exclude": ["n-000002"]}],
}


def json_paths(doc, path=()):
    """The path of every value in ``doc``, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, path + (key,))


_mutation_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.text(max_size=4),
    st.sampled_from([0.0, 0.5, -1.5, 2.5, math.inf, -math.inf, math.nan]),
    st.sampled_from(["all", "n-000001", "n-000009", "temp", "Temp", ">", "~", "n:68", "s:x",
                     "sine", "flood", "notify", "twin_desired", "data/#", "#", "zone=a"]))
_mutation_value = st.recursive(
    _mutation_scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


def test_the_small_doc_runs_clean(tmp_path):
    report = run_scenario(ScenarioSpec.from_dict(SMALL_DOC), tmp_path)
    assert report.emissions and report.duplicates_injected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(json_paths(SMALL_DOC))), _mutation_value)
def test_a_mutated_scenario_is_rejected_up_front_or_runs(path, value):
    doc = json.loads(json.dumps(SMALL_DOC))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        spec = ScenarioSpec.from_dict(doc)
    except scenario.BadScenario:
        return
    with tempfile.TemporaryDirectory() as data:
        registry = controlplane.Registry()
        try:
            world = scenario.World(spec, Path(data), registry=registry)
        except (scenario.BadScenario, scenario.BootFailure):
            # what needs the model is checked before any node is commissioned
            assert registry.entries() == []
            return
        try:
            # a longer or finer run would only repeat the same ticks
            if spec.duration_s <= 1 and spec.tick_s >= 0.05:
                world.run()
        finally:
            world.close()


# -- scenario runs -------------------------------------------------------


def nominal_spec(duration=5.0, **extra):
    doc = {
        "duration_s": duration,
        "tick_s": 0.1,
        "seed": 7,
        "nodes": [{
            "count": 2,
            "name_prefix": "desk",
            "class_name": "multi_sensor",
            "channels": [
                {"sensor_name": "temp", "sample_period_ms": 500, "unit": "°F",
                 "waveform": {"kind": "sine", "base": 72, "amplitude": 4,
                              "period_s": 30}},
                {"sensor_name": "humidity", "sample_period_ms": 1000, "unit": "%",
                 "waveform": {"kind": "constant", "base": 40}},
            ],
        }],
        "assertions": ["lossless", "seq_gap_free", "exact_multiset"],
    }
    doc.update(extra)
    return ScenarioSpec.from_dict(doc)


def test_control_rule_on_a_missing_channel_fails_at_construction():
    group = {"channels": [{"sensor_name": "temp"}], "control_rules": [{
        "rule_id": "fan_on", "actuator": "fan", "prop": "power", "value": True,
        "condition": {"terms": [["tmep", ">", 78.0]]},
    }]}
    with pytest.raises(scenario.BadScenario, match="tmep"):
        nominal_spec(nodes=[group])


TWIN_SINK_PIPELINE = {"nodes": [
    {"node_id": "src", "kind": "source", "params": {"selector": "*/temp"}},
    {"node_id": "out", "kind": "sink",
     "params": {"dest": "twin_desired", "node": "n-000001", "prop": "setpoint"}},
], "edges": [["src", "out"]]}


@pytest.mark.parametrize("sink, message", [
    ({"node": "n-000009"}, "n-000009"),
    ({"prop": "humidity"}, "humidity"),
    ({"prop": "fan_power"}, "fan_power"),
    ({"prop": "nonesuch"}, "nonesuch"),
], ids=["node_outside_fleet", "read_only_prop", "non_numeric_prop", "unknown_prop"])
def test_twin_desired_sink_is_checked_against_the_fleet_at_construction(
        tmp_path, sink, message):
    pipeline = json.loads(json.dumps(TWIN_SINK_PIPELINE))
    pipeline["nodes"][1]["params"].update(sink)
    # a node outside the fleet fails in from_dict, a property needs the model
    with pytest.raises(scenario.BadScenario, match=message):
        scenario.World(nominal_spec(pipeline=pipeline), tmp_path)
    assert not (tmp_path / "audit.jsonl").exists()


def test_a_fault_node_name_outside_the_fleet_fails_at_construction():
    with pytest.raises(scenario.BadScenario, match="n-000009"):
        nominal_spec(faults=[{"kind": "uplink_outage", "nodes": ["n-000009"],
                              "start": 1, "end": 2}])


def test_a_device_skips_a_desired_command_it_cannot_decode(tmp_path):
    # a topic sink publishing on a node's desired topic used to kill the
    # run with KeyError: 'desired'
    spec = ScenarioSpec.from_dict({
        "duration_s": 5.0,
        "seed": 3,
        "nodes": [{"count": 1, "class_name": "multi_sensor", "channels": [
            {"sensor_name": "temp", "sample_period_ms": 500, "unit": "°F",
             "waveform": {"kind": "constant", "base": 71}}]}],
        "pipeline": {"nodes": [
            {"node_id": "src", "kind": "source", "params": {"selector": "*/temp"}},
            {"node_id": "out", "kind": "sink",
             "params": {"dest": "topic", "topic": "twin/n-000001/desired"}},
        ], "edges": [["src", "out"]]},
        "actions": [{"kind": "set_desired", "at": 2.0, "node": "n-000001",
                     "set": {"setpoint": "n:68"}}],
        "assertions": ["lossless", {"check": "all_converged"}],
    })
    report = run_scenario(spec, tmp_path)
    assert report.ok, report.assertions
    assert report.emissions and all(e["dest"] == "topic" for e in report.emissions)


def test_twin_desired_sink_on_a_booted_node_runs(tmp_path):
    report = run_scenario(nominal_spec(duration=4.0, pipeline=TWIN_SINK_PIPELINE),
                          tmp_path)
    assert report.ok, report.assertions
    assert report.emissions and all(e["dest"] == "twin_desired" for e in report.emissions)


def test_nominal_run_is_lossless(tmp_path):
    report = run_scenario(nominal_spec(), tmp_path)
    assert report.ok, report.assertions
    assert sum(report.generated.values()) > 0
    assert report.generated == report.stored
    assert report.rejected == {}


def test_same_seed_same_report(tmp_path):
    a = run_scenario(nominal_spec(), tmp_path / "a").to_dict()
    b = run_scenario(nominal_spec(), tmp_path / "b").to_dict()
    assert a == b


def test_outage_store_and_forward(tmp_path):
    spec = nominal_spec(
        duration=12.0,
        faults=[{"kind": "uplink_outage", "nodes": [1], "start": 2, "end": 6}],
        assertions=["lossless", "seq_gap_free", "exact_multiset",
                    {"check": "flush_within", "seconds": 5.0}],
    )
    report = run_scenario(spec, tmp_path)
    assert report.ok, report.assertions
    assert report.flush_complete  # the outage node caught up after reconnect


def run_world(spec, data_dir):
    """A run's report and the frames its broker dead-lettered."""
    world = scenario.World(spec, data_dir)
    try:
        return world.run(), world.broker.dead_letter
    finally:
        world.close()


def lost_acks_add_up(report, dead_letters) -> bool:
    """In a run whose nodes publish only data, each lost ack leaves its
    frame pending: the broker delivers it again, and the gateway rejects
    the copy as a duplicate, or it is dead-lettered."""
    return report.duplicates_injected == report.rejected.get("duplicate", 0) + len(dead_letters)


def test_duplicate_replay_rejected(tmp_path):
    spec = nominal_spec(
        duration=10.0,
        faults=[{"kind": "duplicate_replay", "nodes": "all", "start": 0,
                 "end": 10, "params": {"probability": 0.3}}],
    )
    report, dead = run_world(spec, tmp_path)
    assert report.ok, report.assertions
    assert report.duplicates_injected > 0
    assert lost_acks_add_up(report, dead)


def test_duplicate_replay_repeats_only_the_frames_of_its_nodes(tmp_path):
    spec = nominal_spec(
        duration=10.0,
        faults=[{"kind": "duplicate_replay", "nodes": [1], "start": 0,
                 "end": 10, "params": {"probability": 0.5}}],
    )
    report, dead = run_world(spec, tmp_path)
    assert report.ok, report.assertions
    assert report.duplicates_injected > 0
    assert lost_acks_add_up(report, dead)
    audit = [json.loads(line) for line in (tmp_path / "audit.jsonl").read_text().splitlines()]
    replayed = {e["node"] for e in audit if e["reason"] == "duplicate"}
    assert replayed == {"n-000001"}
    assert {frame.msg_id.sender.partition("#")[0] for _, frame in dead} <= {"n-000001"}


@pytest.mark.parametrize("tick_s, start", [(0.1, 2.0), (0.1, 6.0), (0.05, 6.0)])
def test_every_ack_lost_for_a_window_dead_letters_frames_and_stores_each_once(tmp_path, tick_s,
                                                                             start):
    # a frame delivered MAX_DELIVERIES times without an ack is dead-lettered,
    # yet its first delivery was stored; a window that lasts to the end of
    # the run leaves the settling to wait for the last dead letter
    spec = nominal_spec(
        duration=16.0, tick_s=tick_s,
        faults=[{"kind": "duplicate_replay", "nodes": [1], "start": start, "end": start + 10,
                 "params": {"probability": 1.0}}],
    )
    report, dead = run_world(spec, tmp_path)
    assert report.ok, report.assertions
    assert dead and lost_acks_add_up(report, dead)
    assert {frame.msg_id.sender.partition("#")[0] for _, frame in dead} == {"n-000001"}
    assert not report.incidents


def one_channel_doc(duration, faults, nodes=1):
    return {
        "duration_s": duration, "seed": 5,
        "nodes": [{"count": nodes, "class_name": "multi_sensor", "channels": [
            {"sensor_name": "temp", "sample_period_ms": 500,
             "waveform": {"kind": "constant", "base": 70}}]}],
        "faults": faults,
        "assertions": ["lossless", "seq_gap_free"],
    }


@pytest.mark.parametrize("order", ["wide_first", "narrow_first"])
def test_overlapping_outages_keep_a_node_down_until_the_last_ends(tmp_path, monkeypatch,
                                                                  order):
    # listed wide then narrow, the node used to reconnect on every tick
    # from 5.0 to 9.9 s and flush_complete read -0.1 s
    outages = [{"kind": "uplink_outage", "nodes": [1], "start": 0, "end": 10},
               {"kind": "uplink_outage", "nodes": [1], "start": 2, "end": 5}]
    if order == "narrow_first":
        outages.reverse()
    world = scenario.World(ScenarioSpec.from_dict(one_channel_doc(14.0, outages)), tmp_path)
    connects = []
    mark = twins.TwinService.mark_connectivity

    def record(svc, node, connected):
        if connected:
            connects.append(world.clock.now())
        mark(svc, node, connected)

    monkeypatch.setattr(twins.TwinService, "mark_connectivity", record)
    try:
        report = world.run()
    finally:
        world.close()
    assert report.ok, report.assertions
    assert connects == [10.0]
    assert 0 <= report.flush_complete["n-000001"] < 1


@pytest.mark.parametrize("end", [10.0, None, 9.9])
def test_an_outage_that_lasts_to_the_end_of_the_run_drains_in_settle(tmp_path, end):
    # with end 10.0 or omitted, the node used to stay down through the
    # settle: it stored 10 of 20 readings and flush_within passed unchecked
    outage = {"kind": "uplink_outage", "nodes": [1], "start": 5}
    if end is not None:
        outage["end"] = end
    doc = one_channel_doc(10.0, [outage], nodes=2)
    doc["assertions"].append({"check": "flush_within", "seconds": 1.0})
    report = run_scenario(ScenarioSpec.from_dict(doc), tmp_path)
    assert report.ok, report.assertions
    assert report.stored == report.generated == {"n-000001/temp": 20, "n-000002/temp": 20}
    assert list(report.flush_complete) == ["n-000001"]
    assert 0 <= report.flush_complete["n-000001"] < 1


def test_a_wrapper_set_on_an_edge_after_construction_sees_every_call(tmp_path):
    # the benchmark shadows ingest_raw and flush per node once the world
    # is built, and reads the backlog as len(uplink): the harness must look
    # each one up when it calls it, in the main loop and in the settle
    doc = one_channel_doc(10.0, [
        {"kind": "uplink_outage", "nodes": [1], "start": 5},
        {"kind": "duplicate_replay", "nodes": "all", "params": {"probability": 0.3}}], nodes=2)
    world = scenario.World(ScenarioSpec.from_dict(doc), tmp_path)
    ingests, flushes, backlog = [], {n.node_id: [] for n in world.nodes}, []
    for node in world.nodes:
        def ingest(*args, _fn=node.edge.ingest_raw, _node=node):
            reading = _fn(*args)
            ingests.append(reading)
            backlog.append((_node.node_id, len(_node.edge.uplink)))
            return reading

        def flush(_fn=node.edge.flush, _node=node):
            published = _fn()
            flushes[_node.node_id].append((world.clock.now(), published))
            return published

        node.edge.ingest_raw, node.edge.flush = ingest, flush
    try:
        report = world.run()
        ticks = round(world.clock.now() / world.spec.tick_s)
    finally:
        world.close()
    assert report.ok, report.assertions
    assert len(ingests) == sum(report.generated.values()) == 40
    assert report.duplicates_injected > 0 and ticks > 100  # the settle ran
    assert all(len(calls) == ticks for calls in flushes.values())
    assert sum(n for _, n in flushes["n-000001"]) == 20
    assert (10.0, 10) in flushes["n-000001"]  # the backlog, sent in the settle
    assert max(depth for node_id, depth in backlog if node_id == "n-000001") == 10


def test_flush_within_checks_an_outage_node_that_never_flushed(tmp_path):
    # a node quarantined by its flood cannot reconnect after its outage;
    # flush_within used to check only the nodes that did flush
    doc = one_channel_doc(10.0, [
        {"kind": "flood", "nodes": [1], "start": 1, "end": 5, "params": {"rate": 400}},
        {"kind": "uplink_outage", "nodes": [1], "start": 6, "end": 8}], nodes=2)
    doc["assertions"] = [{"check": "incident_opened", "node": "n-000001"},
                         {"check": "flush_within", "seconds": 5.0}]
    report = run_scenario(ScenarioSpec.from_dict(doc), tmp_path)
    assert report.flush_complete == {}
    assert [(a["check"], a["passed"], a["detail"]) for a in report.assertions] == [
        ("incident_opened", True, ""), ("flush_within", False, "slow flush: ['n-000001']")]


def test_overlapping_floods_flood_at_the_largest_active_rate(tmp_path):
    # the narrow flood used to reset the rate to 0 outside its own window
    floods = [{"kind": "flood", "nodes": [1], "start": 0, "end": 10, "params": {"rate": 100}},
              {"kind": "flood", "nodes": [1], "start": 2, "end": 5, "params": {"rate": 50}}]
    world = scenario.World(ScenarioSpec.from_dict(one_channel_doc(12.0, floods)), tmp_path)
    try:
        node = world.node_by_id("n-000001")
        rates = []
        for t in (1.0, 3.0, 6.0, 9.0, 11.0):
            world._apply_faults(t)
            rates.append(node.flooding_rate)
    finally:
        world.close()
    assert rates == [100, 100, 100, 100, 0]


def test_duplicate_replay_faults_on_different_nodes_replay_both(tmp_path):
    # the second fault used to replace the first: only node 2 was replayed
    replays = [{"kind": "duplicate_replay", "nodes": [i], "start": 0, "end": 6,
                "params": {"probability": 0.5}} for i in (1, 2)]
    report, dead = run_world(ScenarioSpec.from_dict(one_channel_doc(6.0, replays, nodes=2)),
                             tmp_path)
    assert report.ok, report.assertions
    assert report.duplicates_injected > 0 and lost_acks_add_up(report, dead)
    audit = [json.loads(line) for line in (tmp_path / "audit.jsonl").read_text().splitlines()]
    assert {e["node"] for e in audit if e["reason"] == "duplicate"} == {"n-000001", "n-000002"}


def test_flood_opens_incident_and_quarantines(tmp_path):
    spec = nominal_spec(
        duration=10.0,
        faults=[{"kind": "flood", "nodes": [1], "start": 4, "end": 10,
                 "params": {"rate": 500}}],
        assertions=[{"check": "incident_opened", "node": "n-000001"},
                    {"check": "lossless", "exclude": ["n-000001"]}],
    )
    report = run_scenario(spec, tmp_path)
    assert report.ok, report.assertions
    opened = [i for i in report.incidents if i["event"] == "incident_opened"]
    assert opened and opened[0]["node"] == "n-000001"
    quarantined = [i for i in report.incidents if i["event"] == "quarantined"]
    assert quarantined


def outage_and_flood_doc():
    """n-000002 loses its uplink for a while and comes back; n-000001
    floods until it is quarantined."""
    return {
        "duration_s": 12.0, "tick_s": 0.1, "seed": 7,
        "nodes": [{"count": 2, "class_name": "multi_sensor", "channels": [
            {"sensor_name": "temp", "sample_period_ms": 500,
             "waveform": {"kind": "constant", "base": 71}},
        ]}],
        "faults": [{"kind": "uplink_outage", "nodes": [2], "start": 2, "end": 5},
                   {"kind": "flood", "nodes": [1], "start": 6, "end": 12,
                    "params": {"rate": 500}}],
        "assertions": [{"check": "lossless", "exclude": ["n-000001"]}],
    }


def test_twin_connectivity_changes_only_when_a_session_does(tmp_path, monkeypatch):
    world = scenario.World(ScenarioSpec.from_dict(outage_and_flood_doc()), tmp_path)
    calls = []
    mark = twins.TwinService.mark_connectivity

    def record(svc, node, connected):
        calls.append((node, connected, world.clock.now()))
        mark(svc, node, connected)

    monkeypatch.setattr(twins.TwinService, "mark_connectivity", record)
    try:
        report = world.run()
    finally:
        world.close()
    assert report.ok, report.assertions
    quarantined = [i["ts"] for i in report.incidents if i["event"] == "quarantined"]
    assert len(quarantined) == 1
    # the outage and the quarantine mark their tick, not the next reconnect attempt
    assert [c[1:] for c in calls if c[0] == "n-000001"] == [(True, 0.0),
                                                            (False, quarantined[0])]
    assert [c[1:] for c in calls if c[0] == "n-000002"] == [(True, 0.0), (False, 2.0),
                                                            (True, 5.0)]


def test_get_twin_says_whether_the_node_is_connected(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(outage_and_flood_doc()))
    assert run_cli(tmp_path, "run", str(scenario_path)) == 0
    capsys.readouterr()
    connectivity = {}
    for node in ("n-000001", "n-000002"):
        assert run_cli(tmp_path, "get-twin", node) == 0
        connectivity[node] = json.loads(capsys.readouterr().out)["connectivity"]
    assert connectivity == {"n-000001": "disconnected", "n-000002": "connected"}


def test_set_desired_converges(tmp_path):
    spec = nominal_spec(
        duration=6.0,
        actions=[{"kind": "set_desired", "at": 2.0, "node": "n-000001",
                  "set": {"setpoint": "n:68"}}],
        assertions=["lossless", {"check": "all_converged"}],
    )
    report = run_scenario(spec, tmp_path)
    assert report.ok, report.assertions
    assert report.convergence["n-000001"] is True


FIRMWARE_SCENARIO = {
    "duration_s": 8.0,
    "seed": 4,
    "nodes": [
        {"count": 1, "class_name": "temperature_sensor", "channels": [
            {"sensor_name": "temp", "sample_period_ms": 500, "unit": "°F",
             "waveform": {"kind": "constant", "base": 70}}]},
        {"count": 1, "class_name": "multi_sensor", "channels": [
            {"sensor_name": "temp", "sample_period_ms": 500, "unit": "°F",
             "waveform": {"kind": "constant", "base": 71}}]},
    ],
    "faults": [{"kind": "uplink_outage", "nodes": "all", "start": 1, "end": 4}],
    # the setpoint report repeats firmware 2.0, which must not add an event
    "actions": [
        {"kind": "set_desired", "at": 2.0, "node": "n-000001",
         "set": {"firmware": "s:2.0"}},
        {"kind": "set_desired", "at": 2.0, "node": "n-000002",
         "set": {"firmware": "s:2.0"}},
        {"kind": "set_desired", "at": 5.0, "node": "n-000002",
         "set": {"setpoint": "n:68"}},
    ],
    "assertions": ["lossless", "seq_gap_free", {"check": "all_converged"}],
}


def test_firmware_push_rides_the_twin_to_the_registry(tmp_path):
    log = tmp_path / "registry.jsonl"
    registry = controlplane.Registry(log_path=log)
    world = scenario.World(ScenarioSpec.from_dict(FIRMWARE_SCENARIO), tmp_path,
                           registry=registry)
    try:
        report = world.run()
    finally:
        world.close()
    assert report.ok, report.assertions
    assert report.rejected == {}
    nodes = ["n-000001", "n-000002"]
    assert [registry.get(n).firmware_version for n in nodes] == ["2.0", "2.0"]
    events = [json.loads(line) for line in log.read_text().splitlines()]
    firmware = [(e["node_id"], e["version"]) for e in events if e["event"] == "firmware"]
    assert sorted(firmware) == [("n-000001", "2.0"), ("n-000002", "2.0")]
    replayed = controlplane.Registry(log_path=log)
    assert [replayed.get(n).firmware_version for n in nodes] == ["2.0", "2.0"]


def test_a_desired_value_of_the_wrong_datatype_stops_the_run(tmp_path):
    # firmware "n:2" used to be sent; the device echoed it in every later
    # report, each was rejected as schema_invalid and the setpoint at 3 s
    # never converged. Now the run does not start: nothing is commissioned.
    spec = ScenarioSpec.from_dict({
        "duration_s": 6.0,
        "seed": 4,
        "nodes": [{"count": 1, "class_name": "multi_sensor", "channels": [
            {"sensor_name": "temp", "sample_period_ms": 500, "unit": "°F",
             "waveform": {"kind": "constant", "base": 71}}]}],
        "actions": [
            {"kind": "set_desired", "at": 1.0, "node": "n-000001", "set": {"firmware": "n:2"}},
            {"kind": "set_desired", "at": 3.0, "node": "n-000001", "set": {"setpoint": "n:68"}},
        ],
        "assertions": [{"check": "all_converged"}],
    })
    registry = controlplane.Registry(log_path=tmp_path / "registry.jsonl")
    with pytest.raises(scenario.BadScenario, match="SchemaInvalid: type_mismatch: firmware"):
        scenario.World(spec, tmp_path, registry=registry)
    assert registry.entries() == [] and not (tmp_path / "registry.jsonl").exists()


def test_running_a_spec_twice_gives_the_same_report(tmp_path):
    spec = nominal_spec(
        duration=6.0,
        actions=[{"kind": "set_desired", "at": 2.0, "node": "n-000001",
                  "set": {"setpoint": "n:68"}}],
        assertions=["lossless", {"check": "all_converged"}],
    )
    reports, versions = [], []
    for run in ("a", "b"):
        world = scenario.World(spec, tmp_path / run)
        try:
            reports.append(world.run().to_dict())
        finally:
            world.close()
        versions.append(world.twins.get_twin("n-000001").desired_version)
    assert reports[0] == reports[1]
    assert versions == [1, 1]


def test_control_rule_and_desired_state_in_one_run(tmp_path):
    # the device used to report its local-control key "fan.power" with
    # the desired properties, and the twin rejected that report
    spec = ScenarioSpec.from_dict({
        "duration_s": 4.0,
        "seed": 5,
        "nodes": [{"count": 1, "class_name": "multi_sensor", "channels": [
            {"sensor_name": "temp", "sample_period_ms": 500, "unit": "°F",
             "waveform": {"kind": "constant", "base": 90}},
        ], "control_rules": [{
            "rule_id": "fan_on", "actuator": "fan", "prop": "power", "value": True,
            "condition": {"terms": [["temp", ">", 80.0]]},
        }]}],
        "actions": [{"kind": "set_desired", "at": 1.0, "node": "n-000001",
                     "set": {"setpoint": "n:68"}}],
        "assertions": ["lossless", {"check": "all_converged"}],
    })
    report = run_scenario(spec, tmp_path)
    assert report.ok, report.assertions
    assert report.rejected == {}


def test_bad_twin_report_is_counted_and_the_run_goes_on(tmp_path):
    spec = nominal_spec(duration=3.0)
    world = scenario.World(spec, tmp_path)
    try:
        node = world.node_by_id("n-000001")
        for payload in ("not json", "[]", '{"doc": {"bogus": "n:1"}}',
                        '{"doc": {"setpoint": "q:1"}}', '{"doc": {"setpoint": "s:x"}}'):
            node.edge.uplink.append(
                edge.QueuedFrame(twins.reported_topic("n-000001"), payload))
        report = world.run()
    finally:
        world.close()
    assert report.ok, report.assertions
    assert report.rejected == {"schema_invalid": 5}


def test_pipeline_emissions_in_report(tmp_path):
    spec = nominal_spec(
        duration=6.0,
        pipeline={"nodes": [
            {"node_id": "src", "kind": "source", "params": {"selector": "*/temp"}},
            {"node_id": "w", "kind": "window",
             "params": {"size_ms": 2000, "slide_ms": 2000, "agg": "avg"}},
            {"node_id": "out", "kind": "sink", "params": {"dest": "notify"}},
        ], "edges": [["src", "w"], ["w", "out"]]},
    )
    report = run_scenario(spec, tmp_path)
    assert report.ok, report.assertions
    assert report.emissions
    assert all(e["dest"] == "notify" for e in report.emissions)
    assert (tmp_path / "notifications.jsonl").exists()


def faults_spec():
    """Two nodes, an outage on one, duplicate replay, and a pipeline whose
    notify sinks both emit during the run and flush at its end."""
    return nominal_spec(
        duration=8.0,
        pipeline={"nodes": [
            {"node_id": "src", "kind": "source", "params": {"selector": "*/temp"}},
            {"node_id": "hot", "kind": "filter", "params": {"op": ">", "threshold": 73}},
            {"node_id": "alerte-é", "kind": "sink", "params": {"dest": "notify"}},
            {"node_id": "w", "kind": "window",
             "params": {"size_ms": 2000, "slide_ms": 1000, "agg": "avg"}},
            {"node_id": "out", "kind": "sink", "params": {"dest": "notify"}},
        ], "edges": [["src", "hot"], ["hot", "alerte-é"], ["src", "w"], ["w", "out"]]},
        faults=[{"kind": "uplink_outage", "nodes": [2], "start": 2.0, "end": 4.0},
                {"kind": "duplicate_replay", "start": 0.0, "end": 8.0,
                 "params": {"probability": 0.3}}],
    )


def test_output_lines_are_canonical_and_runs_repeat_byte_for_byte(tmp_path):
    reports, files = [], []
    for run in ("a", "b"):
        report = run_scenario(faults_spec(), tmp_path / run)
        assert report.ok, report.assertions
        reports.append(json.dumps(report.to_dict(), sort_keys=True))
        files.append({str(p.relative_to(tmp_path / run)): p.read_bytes()
                      for p in sorted((tmp_path / run).rglob("*")) if p.is_file()})
    assert reports[0] == reports[1]
    assert files[0] == files[1]
    for name in ("audit.jsonl", "notifications.jsonl"):
        lines = files[0][name].decode().split("\n")
        assert len(lines) > 1 and lines[-1] == ""
        for line in lines[:-1]:
            assert line == json.dumps(json.loads(line), separators=(",", ":"))
    sinks = {json.loads(line)["sink"]
             for line in files[0]["notifications.jsonl"].decode().splitlines()}
    assert sinks == {"alerte-é", "out"}


def files_open_under(root: Path) -> list[str]:
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.is_dir():
        pytest.skip("needs /proc/self/fd to list this process's open files")
    targets = []
    for fd in os.listdir(fd_dir):
        try:
            targets.append(os.readlink(fd_dir / fd))
        except OSError:  # the descriptor listdir itself held
            continue
    return [t for t in targets if t.startswith(str(root))]


def test_a_run_leaves_no_file_open(tmp_path):
    run_scenario(faults_spec(), tmp_path / "a")
    # the benchmark's way: run, then close only the store and the gateway
    world = scenario.World(faults_spec(), tmp_path / "b")
    world.run()
    world.tsdb.close()
    world.gateway.close()
    assert (tmp_path / "b" / "notifications.jsonl").exists()
    assert files_open_under(tmp_path) == []


def test_a_run_that_raises_mid_run_leaves_no_file_open(tmp_path, monkeypatch):
    tick = Platform.tick

    def failing_tick(cloud, t):
        if cloud._notify_fh is not None:  # once every file is open
            raise RuntimeError("monitor failed")
        tick(cloud, t)

    monkeypatch.setattr(Platform, "tick", failing_tick)
    with pytest.raises(RuntimeError, match="monitor failed"):
        run_scenario(faults_spec(), tmp_path)
    assert (tmp_path / "notifications.jsonl").exists()
    assert files_open_under(tmp_path) == []


_any_text = st.text(st.characters(exclude_categories=()), max_size=6)
_json_value = st.one_of(st.none(), st.integers(), st.floats(), _any_text)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_any_text, st.one_of(st.floats(), st.integers()), st.floats(),
                          _any_text, _any_text, st.dictionaries(_any_text, _json_value)),
                min_size=1, max_size=4))
def test_notify_lines_are_the_encoders_lines(emissions):
    want = b""
    with tempfile.TemporaryDirectory() as data:
        world = scenario.World(nominal_spec(), Path(data))
        try:
            for sink, ts, value, channel, unit, meta in emissions:
                item = Item(ts, value, channel, unit, meta)
                world.platform._handle_emission(Emission(sink, "notify", None, item))
                record = {"sink": sink, "dest": "notify", "ts": ts, "value": value,
                          "channel": channel, "meta": meta}
                want += (json.dumps(record, separators=(",", ":")) + "\n").encode()
        finally:
            world.close()
        assert (Path(data) / "notifications.jsonl").read_bytes() == want


# -- CLI -----------------------------------------------------------------


def run_cli(tmp_path, *argv, capsys=None):
    return cli.main(["--data-dir", str(tmp_path / "ws"), "--json", *argv])


def test_cli_commission_activate_list(tmp_path, capsys):
    assert run_cli(tmp_path, "commission", "--name", "desk-a",
                   "--class", "multi_sensor") == 0
    out = json.loads(capsys.readouterr().out)
    node = out["node_id"]
    assert node == "n-000001" and out["lifecycle"] == "commissioned"

    assert run_cli(tmp_path, "activate", node) == 0
    capsys.readouterr()
    assert run_cli(tmp_path, "list-nodes") == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["lifecycle"] == "active"


def test_cli_commission_unknown_class_fails(tmp_path, capsys):
    assert run_cli(tmp_path, "commission", "--name", "x",
                   "--class", "hoverboard") == 1
    assert "error" in capsys.readouterr().err


def test_cli_twin_round_trip(tmp_path, capsys):
    run_cli(tmp_path, "commission", "--name", "a", "--class", "multi_sensor")
    capsys.readouterr()
    assert run_cli(tmp_path, "set-desired", "n-000001", "setpoint=n:68") == 0
    capsys.readouterr()
    assert run_cli(tmp_path, "get-twin", "n-000001") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["desired"] == {"setpoint": "n:68"}
    assert doc["desired_version"] == 1
    assert doc["converged"] is False


def test_cli_twin_save_cut_short_keeps_the_old_snapshot(tmp_path, capsys, monkeypatch):
    run_cli(tmp_path, "commission", "--name", "a", "--class", "multi_sensor")
    assert run_cli(tmp_path, "set-desired", "n-000001", "setpoint=n:68") == 0
    capsys.readouterr()
    ws = tmp_path / "ws"
    before = (ws / "twins.json").read_bytes()

    def write_half(self, text, encoding=None):
        with open(self, "w", encoding=encoding) as fh:
            fh.write(text[: len(text) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", write_half)
    with pytest.raises(OSError):
        run_cli(tmp_path, "set-desired", "n-000001", "setpoint=n:70")
    monkeypatch.undo()
    assert sorted(p.name for p in ws.iterdir() if p.name.startswith("twins")) == ["twins.json"]
    assert (ws / "twins.json").read_bytes() == before
    assert run_cli(tmp_path, "get-twin", "n-000001") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["desired"] == {"setpoint": "n:68"} and doc["desired_version"] == 1


def test_cli_set_desired_bad_pair(tmp_path, capsys):
    run_cli(tmp_path, "commission", "--name", "a", "--class", "multi_sensor")
    capsys.readouterr()
    assert run_cli(tmp_path, "set-desired", "n-000001", "setpoint") == 1


def test_cli_usage_error_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--data-dir", str(tmp_path / "ws")])
    assert exc.value.code == 2


def test_cli_run_and_query(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({
        "duration_s": 4.0,
        "tick_s": 0.1,
        "seed": 3,
        "nodes": [{"count": 1, "class_name": "multi_sensor", "channels": [
            {"sensor_name": "temp", "sample_period_ms": 500, "unit": "°F",
             "waveform": {"kind": "constant", "base": 71}},
        ]}],
    }))
    report_path = tmp_path / "report.json"
    assert run_cli(tmp_path, "run", str(scenario_path),
                   "--report", str(report_path)) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["ok"] is True

    assert run_cli(tmp_path, "query", "n-000001/temp", "0", "1000") == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == report["stored"]["n-000001/temp"]
    assert all(r["value"] == 71.0 for r in rows)

    assert run_cli(tmp_path, "query", "n-000001/temp", "0", "1000",
                   "--downsample", "2s", "avg") == 0
    buckets = json.loads(capsys.readouterr().out)
    assert buckets and all(b["value"] == pytest.approx(71.0) for b in buckets)



def typed_workspace(tmp_path):
    """A workspace whose store holds a float and then a ``t:`` reading."""
    store = tsdb.Store(tmp_path / "ws" / "tsdb")
    key = ChannelKey("n-000001", "calibrated")
    store.append(Reading(key, 1.5, "", 1.0, 1, {}))
    store.append(Reading(key, parse_scalar("t:2020-07-15T14:50:07Z"), "", 2.0, 2, {}))
    store.close()
    return str(key)


def test_cli_query_prints_a_typed_value_as_its_wire_text(tmp_path, capsys):
    key = typed_workspace(tmp_path)
    assert run_cli(tmp_path, "query", key, "0", "10") == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["value"] for r in rows] == [1.5, "t:2020-07-15T14:50:07Z"]
    assert cli.main(["--data-dir", str(tmp_path / "ws"), "query", key, "0", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[-1] for line in lines] == ["1.5 ", "t:2020-07-15T14:50:07Z "]


def test_cli_downsample_over_a_typed_value_is_an_error(tmp_path, capsys):
    key = typed_workspace(tmp_path)
    assert run_cli(tmp_path, "query", key, "0", "10", "--downsample", "10s", "avg") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "t:2020-07-15T14:50:07Z" in err
    assert run_cli(tmp_path, "query", key, "0", "2", "--downsample", "10s", "avg") == 0
    assert json.loads(capsys.readouterr().out) == [{"bucket_start": 0.0, "value": 1.5}]


def test_cli_inject_appends_fault(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"duration_s": 5, "nodes": [{"count": 1}]}))
    fault = json.dumps({"kind": "flood", "nodes": [1], "start": 1, "end": 4})
    assert run_cli(tmp_path, "inject", "--scenario", str(scenario_path),
                   fault) == 0
    doc = json.loads(scenario_path.read_text())
    assert doc["faults"] == [json.loads(fault)]


def test_cli_tail_filters_audit(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({
        "duration_s": 2.0,
        "nodes": [{"count": 1, "class_name": "multi_sensor", "channels": [
            {"sensor_name": "temp", "sample_period_ms": 1000,
             "waveform": {"kind": "constant", "base": 70}},
        ]}],
    }))
    run_cli(tmp_path, "run", str(scenario_path))
    capsys.readouterr()
    assert run_cli(tmp_path, "tail", "admit") == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows and all(r["verdict"] == "admit" for r in rows)


TAIL_LOGS = {
    "audit.jsonl": [{"ts": 1.0, "node": "n-000001", "verdict": "admit"},
                    {"ts": 3.0, "node": "n-000002", "verdict": "reject"}],
    "notifications.jsonl": [{"ts": 2.0, "sink": "out", "unit": "°F"},
                            {"ts": 4.0, "sink": "out", "unit": "°C"}],
}


@pytest.mark.parametrize("torn", sorted(TAIL_LOGS))
def test_cli_tail_skips_a_torn_last_line(tmp_path, capsys, torn):
    ws = tmp_path / "ws"
    ws.mkdir()
    blobs = {name: b"".join(json.dumps(r, ensure_ascii=False).encode() + b"\n"
                            for r in rows)
             for name, rows in TAIL_LOGS.items()}
    for name, blob in blobs.items():
        (ws / name).write_bytes(blob)
    blob = blobs[torn]
    last = blob.rindex(b"\n", 0, len(blob) - 1) + 1
    for cut in range(last, len(blob) + 1):  # every byte of the last line
        (ws / torn).write_bytes(blob[:cut])
        assert run_cli(tmp_path, "tail", "") == 0
        complete = [r for name, rows in TAIL_LOGS.items()
                    for r in (rows if name != torn or cut == len(blob) else rows[:-1])]
        assert json.loads(capsys.readouterr().out) == sorted(complete, key=lambda r: r["ts"])
    # a bad line that ends in a newline is not a torn tail
    (ws / torn).write_bytes(blob[:last] + b'{"ts": 9\n' + blob[last:])
    assert run_cli(tmp_path, "tail", "") == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("fault", [
    {"kind": "meteor", "start": 50, "end": 99},
    {"kind": "flood", "nodes": [1], "start": 1, "end": 99},
    {"kind": "flood", "nodes": [2], "start": 1, "end": 4},
    {"start": 1, "end": 4},
    5,
])
def test_cli_inject_refuses_a_fault_that_run_would_reject(tmp_path, capsys, fault):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"duration_s": 5, "nodes": [{"count": 1}]}))
    before = scenario_path.read_bytes()
    assert run_cli(tmp_path, "inject", "--scenario", str(scenario_path),
                   json.dumps(fault)) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert scenario_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "ws"]


@pytest.mark.parametrize("text", ["[1]", '{"duration_s": 5, "faults": {}}'])
def test_cli_inject_refuses_a_file_that_is_not_a_scenario(tmp_path, capsys, text):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(text)
    assert run_cli(tmp_path, "inject", "--scenario", str(scenario_path),
                   json.dumps({"kind": "flood"})) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert scenario_path.read_text() == text


@pytest.mark.parametrize("doc, message", [
    ({"duration_s": 5, "nodes": []}, "no nodes"),
    ({"duration_s": 5, "nodes": [{"count": 1}], "faults": [{"kind": "meteor"}]},
     "unknown fault kind"),
    ({"duration_s": 5, "nodes": [{"count": 1}], "assertions": [{"seconds": 3}]},
     "unknown assertion"),
])
def test_cli_run_reports_a_bad_scenario_without_a_traceback(tmp_path, capsys, doc,
                                                            message):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc))
    assert run_cli(tmp_path, "run", str(scenario_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    # nothing was commissioned, so the next run in this workspace may start
    assert not (tmp_path / "ws" / "registry.jsonl").exists()


@pytest.mark.parametrize("command", ["run", "inject"])
@pytest.mark.parametrize("name", ["missing.json", "."])
def test_cli_reports_a_scenario_file_it_cannot_read(tmp_path, capsys, command, name):
    path = tmp_path / name
    argv = (["run", str(path)] if command == "run"
            else ["inject", "--scenario", str(path), json.dumps({"kind": "flood"})])
    assert run_cli(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read scenario {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "ws" / "registry.jsonl").exists()


def probe_doc(**section):
    """A one-node, 2 s scenario that runs clean, with ``section`` merged in;
    a ``channel`` entry is merged into its one channel."""
    doc = {"duration_s": 2.0, "seed": 3,
           "nodes": [{"count": 1, "class_name": "multi_sensor", "channels": [
               {"sensor_name": "temp", "sample_period_ms": 500,
                "waveform": {"kind": "constant", "base": 71}}]}]}
    doc["nodes"][0]["channels"][0].update(section.pop("channel", {}))
    doc["nodes"][0].update(section.pop("group", {}))
    doc.update(section)
    return doc


def set_desired(node="n-000001", **changes):
    return {"actions": [{"kind": "set_desired", "at": 1, "node": node,
                         "set": changes or {"setpoint": "n:68"}}]}


# Every scenario error is reported before the first node is commissioned.
# A remediate action naming an incident the run never opens stays a
# run-time error: only the run knows which incident ids it opens.
SPEC_PROBES = {
    # a fault's end defaults to duration_s, so this window is 3..2 s
    "fault_without_end": (probe_doc(faults=[{"kind": "uplink_outage", "nodes": [1],
                                             "start": 3}]), "not inside"),
    "string_start": (probe_doc(faults=[{"kind": "flood", "start": "soon", "end": 1}]),
                     "start"),
    "list_kind": (probe_doc(faults=[{"kind": ["flood"], "start": 0, "end": 1}]), "kind"),
    "bare_incident_opened": (probe_doc(assertions=["incident_opened"]), "node"),
    "flush_within_seconds": (probe_doc(assertions=[{"check": "flush_within",
                                                    "seconds": "x"}]), "seconds"),
    "sample_period": (probe_doc(channel={"sample_period_ms": 5}), "sample_period_ms"),
    "sensor_name": (probe_doc(channel={"sensor_name": "Temp"}), "Temp"),
    "action_at": (probe_doc(actions=[{"kind": "set_desired", "at": "x", "node": "n-000001",
                                      "set": {"setpoint": "n:68"}}]), "at"),
    "set_desired_node": (probe_doc(**set_desired(node="n-000009")), "n-000009"),
    "set_desired_read_only": (probe_doc(**set_desired(temp="n:1")), "temp"),
    "edge_rule_op": (probe_doc(group={"edge_rules": [{"rule_id": "hot", "channel": "temp",
                                                      "op": "~", "threshold": 80}]}), "~"),
    # one tick of this flood would publish 2.1e16 frames
    "flood_rate": (probe_doc(faults=[{"kind": "flood", "start": 0, "end": 1,
                                      "params": {"rate": 2.1e17}}]), "rate"),
}


@pytest.mark.parametrize("probe", sorted(SPEC_PROBES))
def test_cli_run_rejects_a_bad_scenario_before_commissioning(tmp_path, capsys, probe):
    doc, message = SPEC_PROBES[probe]
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(doc))
    good.write_text(json.dumps(probe_doc()))
    assert run_cli(tmp_path, "run", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert "Traceback" not in err
    log = tmp_path / "ws" / "registry.jsonl"
    assert not log.exists() or log.read_text() == ""
    assert run_cli(tmp_path, "run", str(good)) == 0
    assert "n-000001" in log.read_text()


def test_a_channel_with_nothing_stored_fails_its_checks_not_the_run(tmp_path):
    # the class defines no "fog", so the gateway rejects every reading of
    # it; the seq checks used to raise tsdb.UnknownChannel after the run
    doc = probe_doc(channel={"sensor_name": "fog"}, assertions=["seq_gap_free", "exact_multiset"])
    report = run_scenario(ScenarioSpec.from_dict(doc), tmp_path)
    assert report.stored == {} and report.rejected == {"schema_invalid": 4}
    assert [a["passed"] for a in report.assertions] == [True, False]


FLOOD_SCENARIO = {
    "duration_s": 10.0,
    "seed": 7,
    "nodes": [{"count": 2, "class_name": "multi_sensor", "channels": [
        {"sensor_name": "temp", "sample_period_ms": 500, "unit": "°F",
         "waveform": {"kind": "constant", "base": 71}},
    ]}],
    "faults": [{"kind": "flood", "nodes": [1], "start": 4, "end": 10,
                "params": {"rate": 500}}],
    "assertions": [{"check": "incident_opened", "node": "n-000001"},
                   {"check": "lossless", "exclude": ["n-000001"]}],
}


def test_cli_walkthrough(tmp_path, capsys):
    """The README's CLI section, step by step, in one workspace."""
    def step(*argv):
        code = run_cli(tmp_path, *argv)
        out = capsys.readouterr()
        return code, json.loads(out.out) if code == 0 else out.err

    def lifecycles():
        code, rows = step("list-nodes")
        assert code == 0
        return {r["node_id"]: r["lifecycle"] for r in rows}

    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(FLOOD_SCENARIO))
    code, report = step("run", str(scenario_path))
    assert code == 0, report["assertions"]
    # the run used the workspace registry: its nodes and incident persist
    assert lifecycles() == {"n-000001": "quarantined", "n-000002": "active"}

    assert step("remediate", "inc-0001") == (
        0, {"incident": "inc-0001", "node": "n-000001", "state": "closed"})
    assert lifecycles()["n-000001"] == "active"
    code, err = step("remediate", "inc-0001")
    assert code == 1 and "already closed" in err
    code, err = step("run", str(scenario_path))
    assert code == 1 and "empty --data-dir" in err

    code, out = step("commission", "--name", "desk-a", "--class", "multi_sensor")
    assert code == 0 and out["node_id"] == "n-000003"
    assert step("activate", "n-000003")[0] == 0
    assert lifecycles() == {"n-000001": "active", "n-000002": "active",
                            "n-000003": "active"}

    code, rows = step("query", "n-000002/temp", "0", "1000")
    assert code == 0 and len(rows) == report["stored"]["n-000002/temp"] > 0
    code, rows = step("tail", "inc-0001")
    assert code == 0
    # the operator's remediate carries wall time, after the run's virtual time
    assert [r["event"] for r in rows] == [
        "incident_opened", "incident_mitigated", "incident_closed"]

    # a crash in the middle of the last append ("activate n-000003")
    log = tmp_path / "ws" / "registry.jsonl"
    data = log.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    log.write_bytes(data[: last + (len(data) - last) // 2])
    assert lifecycles() == {"n-000001": "active", "n-000002": "active",
                            "n-000003": "commissioned"}
    assert step("commission", "--name", "desk-b", "--class", "multi_sensor")[0] == 0
    replayed = controlplane.Registry(log_path=log)
    assert [e.node_id for e in replayed.entries()] == [
        "n-000001", "n-000002", "n-000003", "n-000004"]
    assert log.read_bytes().endswith(b"\n")
    # a bad line before the last one is an error, not a silent loss
    log.write_bytes(b"{oops\n" + log.read_bytes())
    code, err = step("list-nodes")
    assert code == 1 and "registry.jsonl:1: bad event" in err


def test_cli_run_refuses_a_workspace_with_stored_readings(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(FLOOD_SCENARIO))
    assert run_cli(tmp_path, "run", str(scenario_path)) == 0
    (tmp_path / "ws" / "registry.jsonl").unlink()
    capsys.readouterr()
    assert run_cli(tmp_path, "run", str(scenario_path)) == 1
    assert "empty --data-dir" in capsys.readouterr().err


PROBE_CLASS = {"name": "probe", "properties": [{"name": "temp", "datatype": "number"},
                                              {"name": "unit", "datatype": "string"}]}


def write_probe_model(model_dir: Path) -> Path:
    model_dir.mkdir(parents=True)
    (model_dir / "probe.json").write_text(json.dumps(PROBE_CLASS))
    return model_dir


def test_cli_run_uses_the_workspace_model(tmp_path, capsys):
    # the workspace model defines probe: commission took it, and run did not
    write_probe_model(tmp_path / "ws" / "model")
    scenario_path = tmp_path / "probe.json"
    scenario_path.write_text(json.dumps(probe_doc(group={"class_name": "probe"})))
    assert run_cli(tmp_path, "run", str(scenario_path)) == 0
    assert json.loads(capsys.readouterr().out)["stored"] == {"n-000001/temp": 4}
    assert run_cli(tmp_path, "get-twin", "n-000001") == 0
    assert json.loads(capsys.readouterr().out)["class_name"] == "probe"
    assert run_cli(tmp_path, "commission", "--name", "p", "--class", "probe") == 0


def test_cli_run_refuses_a_scenario_model_dir(tmp_path, capsys):
    # a class the workspace cannot load would leave a twins.json that no
    # later command reads
    doc = probe_doc(group={"class_name": "probe"},
                    model_dir=str(write_probe_model(tmp_path / "elsewhere")))
    scenario_path = tmp_path / "probe.json"
    scenario_path.write_text(json.dumps(doc))
    assert run_cli(tmp_path, "run", str(scenario_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "model_dir" in err
    assert run_cli(tmp_path, "list-nodes") == 0
    assert json.loads(capsys.readouterr().out) == []
    assert not (tmp_path / "ws" / "twins.json").exists()
    assert run_cli(tmp_path, "commission", "--name", "m", "--class", "multi_sensor") == 0


def test_cli_firmware_push_and_the_run_twin_state(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(FIRMWARE_SCENARIO))
    assert run_cli(tmp_path, "run", str(scenario_path)) == 0
    capsys.readouterr()

    assert cli.main(["--data-dir", str(tmp_path / "ws"), "list-nodes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all("fw=2.0" in line for line in lines)

    for node in ("n-000001", "n-000002"):
        assert run_cli(tmp_path, "get-twin", node) == 0
        twin = json.loads(capsys.readouterr().out)
        assert twin["reported"]["firmware"] == "s:2.0"
        assert twin["converged"] is True
        assert twin["desired_version"] == (1 if node == "n-000001" else 2)

    assert run_cli(tmp_path, "tail", "firmware") == 0
    rows = json.loads(capsys.readouterr().out)
    log = (tmp_path / "ws" / "registry.jsonl").read_text().splitlines()
    assert rows == [json.loads(line) for line in log if '"firmware"' in line]
    assert sorted(r["node_id"] for r in rows) == ["n-000001", "n-000002"]

    # an operator push after the run is a desired-state change like any other
    assert run_cli(tmp_path, "set-desired", "n-000001", "firmware=s:2.1") == 0
    capsys.readouterr()
    assert run_cli(tmp_path, "get-twin", "n-000001") == 0
    twin = json.loads(capsys.readouterr().out)
    assert twin["desired"] == {"firmware": "s:2.1"}
    assert twin["desired_version"] == 2 and twin["converged"] is False
