import json
import math

import pytest

from iotra import controlplane, edge, twins
from iotra.harness import cli, scenario, waveforms
from iotra.harness.scenario import ScenarioSpec, run_scenario
from iotra.harness.waveforms import BadSpec, WaveformSpec, gen_waveform


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


def test_spec_default_assertions():
    spec = ScenarioSpec.from_dict({"duration_s": 1})
    assert spec.assertions == ["lossless", "seq_gap_free"]


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


def test_control_rule_on_a_missing_channel_fails_at_construction(tmp_path):
    spec = nominal_spec()
    spec.nodes[0]["control_rules"] = [{
        "rule_id": "fan_on", "actuator": "fan", "prop": "power", "value": True,
        "condition": {"terms": [["tmep", ">", 78.0]]},
    }]
    with pytest.raises(edge.UnknownChannelInCondition, match="tmep"):
        scenario.World(spec, tmp_path)


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


def test_duplicate_replay_rejected(tmp_path):
    spec = nominal_spec(
        duration=10.0,
        faults=[{"kind": "duplicate_replay", "nodes": "all", "start": 0,
                 "end": 10, "params": {"probability": 0.3}}],
    )
    report = run_scenario(spec, tmp_path)
    assert report.ok, report.assertions
    assert report.duplicates_injected > 0
    assert report.duplicates_rejected == report.duplicates_injected


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
        world.tsdb.close()
        world.gateway.close()
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
    # never converged
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
    world = scenario.World(spec, tmp_path)
    try:
        with pytest.raises(twins.SchemaInvalid, match="firmware"):
            world.run()
    finally:
        world.tsdb.close()
        world.gateway.close()
    twin = world.twins.get_twin("n-000001")
    assert (twin.desired, twin.desired_version) == ({}, 0)
    assert "twin/n-000001/desired" not in world.broker.retained


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
            world.tsdb.close()
            world.gateway.close()
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
            node.edge.uplink.enqueue(
                edge.QueuedFrame(twins.reported_topic("n-000001"), payload))
        report = world.run()
    finally:
        world.tsdb.close()
        world.gateway.close()
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


def test_cli_inject_appends_fault(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"duration_s": 5, "nodes": []}))
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
