"""End-to-end acceptance checks, one test per criterion.

Each test drives the full system (broker, gateway, stores, twins,
monitor) through the scenario harness or the relevant subsystem directly
and verifies the stated guarantee at its stated tolerance.
"""

import json
import random
import struct
import time

import pytest

from iotra import controlplane, edge, infomodel, msgbus, tsdb as tsdb_mod
from iotra.harness.scenario import ScenarioSpec, World, run_scenario
from iotra.reading import ChannelKey, Reading
from iotra.timeutil import parse_ts

SENSORS = (
    ("temp", "°F", 72.0),
    ("humidity", "%", 40.0),
    ("pressure", "hPa", 1013.0),
    ("power", "W", 120.0),
)


def fleet_spec(count, duration, period_ms, sensors=SENSORS, **extra):
    doc = {
        "duration_s": float(duration),
        "tick_s": 0.1,
        "seed": 11,
        "nodes": [{
            "count": count,
            "name_prefix": "desk",
            "class_name": "multi_sensor",
            "channels": [
                {"sensor_name": s, "sample_period_ms": period_ms, "unit": u,
                 "waveform": {"kind": "sine", "base": b, "amplitude": 2.0,
                              "period_s": 30.0}}
                for s, u, b in sensors
            ],
        }],
        "assertions": ["lossless", "seq_gap_free"],
    }
    doc.update(extra)
    return ScenarioSpec.from_dict(doc)


def reopen_store(data_dir):
    return tsdb_mod.Store(data_dir / "tsdb")


def test_criterion_01_fleet_throughput(tmp_path):
    # 50 nodes x 4 channels x 10 Hz x 60 s virtual: every reading stored,
    # no gaps, in far less than real time
    spec = fleet_spec(count=50, duration=60.0, period_ms=100)
    t0 = time.monotonic()
    report = run_scenario(spec, tmp_path)
    elapsed = time.monotonic() - t0
    assert report.ok, report.assertions
    assert sum(report.generated.values()) == 120_000
    assert sum(report.stored.values()) == 120_000
    assert len(report.stored) == 200  # 50 nodes x 4 channels
    assert elapsed < 120.0


def test_criterion_02_outage_store_and_forward(tmp_path):
    # a 10 s uplink outage on 10 of 12 nodes loses nothing, keeps
    # per-channel order, and drains within 5 s of reconnect
    spec = fleet_spec(
        count=12, duration=30.0, period_ms=500,
        sensors=SENSORS[:2],
        faults=[{"kind": "uplink_outage", "nodes": list(range(1, 11)),
                 "start": 8.0, "end": 18.0}],
        assertions=["lossless", "seq_gap_free", "exact_multiset",
                    {"check": "flush_within", "seconds": 5.0}],
    )
    report = run_scenario(spec, tmp_path)
    assert report.ok, report.assertions
    assert len(report.flush_complete) == 10
    assert all(lag <= 5.0 for lag in report.flush_complete.values())
    store = reopen_store(tmp_path)
    try:
        for channel in store.channels():
            rows = store.query_range(channel, float("-inf"), float("inf"))
            seqs = [r.seq for r in rows]
            assert seqs == sorted(seqs)  # arrival order == sequence order
    finally:
        store.close()


def test_criterion_03_duplicate_storm(tmp_path):
    # with 20% of the cloud's acks lost, the broker redelivers about a
    # quarter of the frames, and the stores still hold the exact generated
    # multiset: every lost ack gives a duplicate verdict or a dead letter
    spec = fleet_spec(
        count=8, duration=30.0, period_ms=500, sensors=SENSORS[:2],
        faults=[{"kind": "duplicate_replay", "nodes": "all", "start": 0.0,
                 "end": 30.0, "params": {"probability": 0.2}}],
        assertions=["lossless", "seq_gap_free", "exact_multiset"],
    )
    world = World(spec, tmp_path)
    try:
        report = world.run()
        dead_letters = len(world.broker.dead_letter)
    finally:
        world.close()
    assert report.ok, report.assertions
    assert report.duplicates_injected > 100
    assert report.duplicates_injected == report.rejected["duplicate"] + dead_letters


def test_criterion_04_desired_state_convergence_after_outage(tmp_path):
    # desired state set while the device is unreachable converges after
    # reconnect, and the twin's reported state matches device ground truth
    spec = fleet_spec(
        count=2, duration=25.0, period_ms=500, sensors=SENSORS[:2],
        faults=[{"kind": "uplink_outage", "nodes": [1], "start": 5.0,
                 "end": 15.0}],
        actions=[{"kind": "set_desired", "at": 8.0, "node": "n-000001",
                  "set": {"setpoint": "n:68", "fan_power": "b:true"}}],
        assertions=["lossless", {"check": "all_converged"}],
    )
    world = World(spec, tmp_path)
    try:
        report = world.run()
        assert report.ok, report.assertions
        assert world.twins.converged("n-000001")
        twin = world.twins.get_twin("n-000001")
        device = world.node_by_id("n-000001").edge.local_state_doc()
        for key in ("setpoint", "fan_power"):
            assert twin.reported[key] == device[key]
        assert twin.ack_version == twin.desired_version == 1
    finally:
        world.close()


def test_criterion_05_stream_vs_batch_agreement(tmp_path):
    # 10-minute trace: streaming 10 s window averages equal the batch
    # downsample over the stored data within 1e-9
    spec = fleet_spec(
        count=1, duration=600.0, period_ms=1000, sensors=SENSORS[:1],
        pipeline={"nodes": [
            {"node_id": "src", "kind": "source", "params": {"selector": "*/temp"}},
            {"node_id": "w", "kind": "window",
             "params": {"size_ms": 10_000, "slide_ms": 10_000, "agg": "avg"}},
            {"node_id": "out", "kind": "sink", "params": {"dest": "notify"}},
        ], "edges": [["src", "w"], ["w", "out"]]},
    )
    report = run_scenario(spec, tmp_path)
    assert report.ok, report.assertions
    streamed = {e["meta"]["bucket_start"]: e["value"] for e in report.emissions}
    store = reopen_store(tmp_path)
    try:
        batch = dict(store.downsample(
            ChannelKey("n-000001", "temp"), 0.0, 1e12, 10.0, "avg"))
    finally:
        store.close()
    assert streamed.keys() == batch.keys()
    assert len(streamed) == 60
    for bucket, value in batch.items():
        assert streamed[bucket] == pytest.approx(value, abs=1e-9)


def test_criterion_06_payload_codec():
    # the reference report payload, legacy trailer included, decodes to
    # its documented meaning
    payload = ('{ "id": "150a3c6e-bef0e", "temp": "n:77.6", "unit": "°F", '
               '"DateTime": "t:2020-07-15T14:50:07Z UTC" }')
    sender, (reading,) = infomodel.decode_report(payload)
    assert sender == "150a3c6e-bef0e"
    assert reading.value == 77.6
    assert reading.unit == "°F"
    assert reading.ts == parse_ts("2020-07-15T14:50:07Z")

    # 10,000 fuzzed readings survive encode -> decode -> encode bit-exact
    rng = random.Random(61)
    sensors = ("temp", "humidity", "pressure", "flow_rate", "valve_open")
    tag_keys = ("zone", "site", "rack")
    for i in range(10_000):
        kind = rng.random()
        if kind < 0.7:
            value = rng.uniform(-1e6, 1e6)
            if rng.random() < 0.3:
                value = float(rng.randrange(-10_000, 10_000))
        elif kind < 0.85:
            value = rng.choice(["ok", "degraded", "A/B", "", "°F µ"])
        else:
            value = rng.random() < 0.5
        original = Reading(
            channel=ChannelKey(f"n-{rng.randrange(1, 10**6):06d}",
                               rng.choice(sensors)),
            value=value,
            unit=rng.choice(["°F", "%", "hPa", ""]),
            ts=rng.randrange(0, 4_000_000_000_000) / 1000.0,  # ms-aligned
            seq=rng.randrange(1, 10**6) if rng.random() < 0.8 else None,
            tags={k: f"v{rng.randrange(100)}"
                  for k in rng.sample(tag_keys, rng.randrange(0, 3))},
        )
        encoded = infomodel.encode_report(original.channel.node_id, [original])
        sender, (decoded,) = infomodel.decode_report(encoded)
        assert sender == original.channel.node_id
        assert decoded == original, (i, encoded)
        assert infomodel.encode_report(sender, [decoded]) == encoded


def test_criterion_07_flood_containment(tmp_path):
    # a node publishing ~100x its normal rate is detected within three
    # monitor buckets, quarantined, cut off at broker and gateway, with
    # zero effect on other nodes
    flood_start = 10.0
    spec = fleet_spec(
        count=4, duration=30.0, period_ms=500, sensors=SENSORS[:2],
        faults=[{"kind": "flood", "nodes": [1], "start": flood_start,
                 "end": 30.0, "params": {"rate": 400}}],  # ~100x of 4 msg/s
        assertions=[{"check": "incident_opened", "node": "n-000001"},
                    {"check": "lossless", "exclude": ["n-000001"]},
                    {"check": "seq_gap_free", "exclude": ["n-000001"]}],
    )
    world = World(spec, tmp_path)
    try:
        report = world.run()
        assert report.ok, report.assertions
        opened = [i for i in report.incidents if i["event"] == "incident_opened"]
        assert [i["node"] for i in opened] == ["n-000001"]
        assert opened[0]["ts"] <= flood_start + 3.0  # three 1 s buckets
        assert world.registry.lifecycle_of("n-000001") == "quarantined"
        # broker refuses the quarantined node's credential outright
        cred = world.registry.get("n-000001").credential
        with pytest.raises(msgbus.AuthFailed):
            world.broker.connect("n-000001", cred)
        # the gateway rejects anything that still arrives under its name
        decision = world.gateway.admit(
            "n-000001", "data/n-000001/temp",
            infomodel.encode_report("n-000001", [Reading(
                channel=ChannelKey("n-000001", "temp"), value=70.0,
                unit="°F", ts=31.0, seq=999_999)]))
        assert decision.reason == "quarantined"
        # no flood data reached the store, and nobody else was touched
        assert "n-000001/flood" not in report.stored
        assert all(i.get("node") == "n-000001" for i in report.incidents)
    finally:
        world.close()


def test_criterion_08_disconnected_control_matches_oracle():
    # local control is a pure function of local state: a severed uplink
    # changes nothing about actuation decisions
    def build_node():
        return edge.EdgeNode(edge.NodeConfig(
            node_id="n-000001",
            class_name="multi_sensor",
            channels=[edge.ChannelConfig("temp", "multi_sensor",
                                         sample_period_ms=100, unit="°F")],
            control_rules=[
                edge.ControlRule("fan_on", edge.Condition([("temp", ">", 78.0)]),
                                 "fan", "power", "on"),
                edge.ControlRule("fan_off", edge.Condition([("temp", "<=", 74.0)]),
                                 "fan", "power", "off"),
            ],
        ))

    class DummySession:
        connected = True

        def publish(self, topic, payload, qos=0):
            pass

    rng = random.Random(71)
    raws = [rng.uniform(65.0, 90.0) for _ in range(500)]
    online, offline = build_node(), build_node()
    online.session = DummySession()
    offline.session = None  # severed uplink
    decisions_online, decisions_offline, oracle = [], [], []
    for i, raw in enumerate(raws):
        now = i * 0.1
        online.ingest_raw("temp", raw, now)
        offline.ingest_raw("temp", raw, now)
        decisions_online.append([a.rule_id for a in online.control_step()])
        decisions_offline.append([a.rule_id for a in offline.control_step()])
        fired = []
        if raw > 78.0:
            fired.append("fan_on")
        if raw <= 74.0:
            fired.append("fan_off")
        oracle.append(sorted(fired))
    assert decisions_offline == decisions_online == oracle

    # 1,000 random debounce rule/sequence pairs agree with a direct
    # replay of the debounce contract
    ops = {"<": float.__lt__, "<=": float.__le__, ">": float.__gt__,
           ">=": float.__ge__, "==": float.__eq__}
    for trial in range(1000):
        op = rng.choice(list(ops))
        threshold = float(rng.randrange(-8, 9))
        debounce = rng.randrange(1, 6)
        values = [float(rng.randrange(-10, 11))
                  for _ in range(rng.randrange(0, 60))]
        engine = edge.RuleEngine([edge.EdgeRule(
            "r", "temp", op, threshold, debounce_count=debounce)])
        fired = []
        for j, v in enumerate(values):
            r = Reading(channel=ChannelKey("n-000001", "temp"), value=v,
                        ts=float(j), seq=j + 1)
            fired.extend(j for _ in engine.evaluate(r))
        expected, run = [], 0
        for j, v in enumerate(values):
            if ops[op](v, threshold):
                run += 1
                if run >= debounce:
                    expected.append(j)
                    run = 0
            else:
                run = 0
        assert fired == expected, (trial, op, threshold, debounce, values)


def test_criterion_09_truncation_durability(tmp_path):
    # 50 random truncations of the active segment: sealed segments stay
    # intact and at most the single torn record is lost
    rng = random.Random(83)
    channel = ChannelKey("n-000001", "temp")
    for trial in range(50):
        root = tmp_path / f"trial-{trial}"
        store = tsdb_mod.Store(root)
        total = tsdb_mod.SEGMENT_CAPACITY + rng.randrange(3, 30)
        for i in range(total):
            store.append(Reading(channel=channel, value=float(i), unit="°F",
                                 ts=float(i), seq=i + 1))
        store.close()
        active_log = root / "n-000001" / "temp" / "seg-1.log"
        data = active_log.read_bytes()
        cut = rng.randrange(0, len(data) + 1)
        active_log.write_bytes(data[:cut])

        reopened = tsdb_mod.Store(root)
        try:
            rows = reopened.query_range(channel, float("-inf"), float("inf"))
        finally:
            reopened.close()
        # sealed segment fully intact
        seqs = [r.seq for r in rows]
        assert seqs[: tsdb_mod.SEGMENT_CAPACITY] == list(
            range(1, tsdb_mod.SEGMENT_CAPACITY + 1))
        # of the records with any bytes on disk, at most one (the torn
        # tail) is missing after recovery
        whole, off = 0, 0
        while off + 4 <= cut:
            (length,) = struct.unpack(">I", data[off:off + 4])
            if off + 4 + length > cut:
                break
            whole += 1
            off += 4 + length
        recovered_tail = len(rows) - tsdb_mod.SEGMENT_CAPACITY
        assert recovered_tail == whole
        assert (cut > off) == (off < cut)  # any partial bytes -> 1 torn record
        assert seqs == list(range(1, len(rows) + 1))  # no mid-file holes


def test_criterion_10_randomized_authentication():
    # 1,000 randomized attempts: only active nodes presenting their own
    # current credential get a broker session
    rng = random.Random(97)
    registry = controlplane.Registry(secret=b"acceptance-secret", key_epoch=3)
    broker = msgbus.Broker(authenticator=registry.authenticate)
    entries = []
    for i in range(25):
        entry = registry.commission(f"node-{i}", "multi_sensor")
        if rng.random() < 0.8:
            registry.transition(entry.node_id, "active")
            roll = rng.random()
            if roll < 0.25:
                registry.transition(entry.node_id, "quarantined")
            elif roll < 0.4:
                registry.transition(entry.node_id, "decommissioned")
        entries.append(entry)
    credentials = {e.node_id: controlplane.make_credential(
        b"acceptance-secret", e.node_id, 3) for e in entries}

    accepted = 0
    for _ in range(1000):
        target = rng.choice(entries)
        roll = rng.random()
        if roll < 0.5:
            presented = credentials[target.node_id]
        elif roll < 0.75:
            presented = credentials[rng.choice(entries).node_id]
        else:
            presented = "".join(rng.choices("0123456789abcdef", k=64))
        should_pass = (target.lifecycle == "active"
                       and presented == credentials[target.node_id])
        try:
            session = broker.connect(target.node_id, presented)
        except msgbus.AuthFailed:
            assert not should_pass, target.node_id
        else:
            assert should_pass, target.node_id
            accepted += 1
            broker.disconnect(session)
    assert accepted > 100  # the positive path was actually exercised
