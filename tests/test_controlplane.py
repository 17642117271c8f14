import dataclasses
import hashlib
import hmac
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from iotra.controlplane import (
    ALLOWED_TRANSITIONS,
    LIFECYCLES,
    ControlPlaneError,
    IllegalTransition,
    Incident,
    Monitor,
    NodeNotQuarantined,
    Registry,
    UnknownIncident,
    UnknownNode,
    make_credential,
)

SECRET = b"test-secret"


def make_registry(**kw):
    return Registry(secret=SECRET, key_epoch=1, **kw)


def commissioned(registry=None):
    registry = registry or make_registry()
    entry = registry.commission("desk-1", "sensor_node")
    return registry, entry


# -- credentials ---------------------------------------------------------


def test_credential_is_keyed_hash_of_identity_and_epoch():
    # independent recomputation straight from the hmac stdlib
    expected = hmac.new(SECRET, b"n-000001|1", hashlib.sha256).hexdigest()
    assert make_credential(SECRET, "n-000001", 1) == expected


def test_credential_varies_by_node_epoch_secret():
    base = make_credential(SECRET, "n-000001", 1)
    assert make_credential(SECRET, "n-000002", 1) != base
    assert make_credential(SECRET, "n-000001", 2) != base
    assert make_credential(b"other", "n-000001", 1) != base


# -- commissioning -------------------------------------------------------


def test_commission_assigns_sequential_ids():
    registry = make_registry()
    a = registry.commission("one", "sensor_node")
    b = registry.commission("two", "sensor_node")
    assert (a.node_id, b.node_id) == ("n-000001", "n-000002")
    assert a.lifecycle == "commissioned"
    assert a.credential == make_credential(SECRET, "n-000001", 1)


def test_commission_validates_class_against_model():
    class FakeModel:
        def has_class(self, name):
            return name == "known"

    registry = make_registry()
    registry.commission("ok", "known", model=FakeModel())
    from iotra import controlplane
    with pytest.raises(controlplane.UnknownClass):
        registry.commission("bad", "unknown", model=FakeModel())


# -- lifecycle -----------------------------------------------------------


def test_happy_path_transitions():
    registry, entry = commissioned()
    registry.transition(entry.node_id, "active")
    registry.transition(entry.node_id, "quarantined")
    registry.transition(entry.node_id, "active")
    registry.transition(entry.node_id, "decommissioned")
    assert entry.lifecycle == "decommissioned"
    assert entry.credential == ""  # wiped at the terminal state


def test_all_illegal_transitions_rejected():
    for src in sorted(LIFECYCLES):
        for dst in sorted(LIFECYCLES):
            registry, entry = commissioned()
            entry.lifecycle = src
            if (src, dst) in ALLOWED_TRANSITIONS:
                registry.transition(entry.node_id, dst)
            else:
                with pytest.raises(IllegalTransition):
                    registry.transition(entry.node_id, dst)


def test_decommissioned_is_terminal():
    registry, entry = commissioned()
    registry.transition(entry.node_id, "active")
    registry.transition(entry.node_id, "decommissioned")
    for dst in sorted(LIFECYCLES):
        with pytest.raises(IllegalTransition):
            registry.transition(entry.node_id, dst)


def test_unknown_node():
    with pytest.raises(UnknownNode):
        make_registry().transition("ghost", "active")


# -- authentication ------------------------------------------------------


def test_authenticate_only_active_with_own_credential():
    registry, entry = commissioned()
    cred = entry.credential
    assert registry.authenticate(entry.node_id, cred) is False  # commissioned
    registry.transition(entry.node_id, "active")
    assert registry.authenticate(entry.node_id, cred) is True
    flipped = cred[:-1] + ("0" if cred[-1] != "0" else "1")
    assert registry.authenticate(entry.node_id, flipped) is False
    registry.transition(entry.node_id, "quarantined")
    assert registry.authenticate(entry.node_id, cred) is False


def test_authenticate_after_decommission_fails_even_with_old_credential():
    registry, entry = commissioned()
    cred = entry.credential
    registry.transition(entry.node_id, "active")
    registry.transition(entry.node_id, "decommissioned")
    assert registry.authenticate(entry.node_id, cred) is False


def test_randomized_auth_only_active_own_credential_passes():
    rng = random.Random(23)
    registry = make_registry()
    entries = [registry.commission(f"node-{i}", "sensor_node") for i in range(20)]
    for e in entries:
        registry.transition(e.node_id, "active")
        state = rng.choice(["active", "quarantined", "decommissioned"])
        if state != "active":
            registry.transition(e.node_id, state)
    for _ in range(500):
        target = rng.choice(entries)
        presented = rng.choice(entries).credential or "x"
        if rng.random() < 0.2:
            presented = "".join(rng.choices("0123456789abcdef", k=64))
        ok = registry.authenticate(target.node_id, presented)
        expected = (target.lifecycle == "active"
                    and presented == make_credential(SECRET, target.node_id, 1))
        assert ok == expected


# -- event log persistence -----------------------------------------------


def test_registry_log_replay(tmp_path):
    path = tmp_path / "registry.jsonl"
    registry = make_registry(log_path=path)
    a = registry.commission("one", "sensor_node")
    b = registry.commission("two", "other_node")
    registry.transition(a.node_id, "active")
    registry.set_firmware(a.node_id, "2.1")
    registry.transition(b.node_id, "active")
    registry.transition(b.node_id, "decommissioned")

    replayed = make_registry(log_path=path)
    ra, rb = replayed.get(a.node_id), replayed.get(b.node_id)
    assert ra.lifecycle == "active" and ra.firmware_version == "2.1"
    assert ra.credential == a.credential
    assert rb.lifecycle == "decommissioned" and rb.credential == ""
    # id counter resumes past replayed nodes
    assert replayed.commission("three", "sensor_node").node_id == "n-000003"


def state_of(registry):
    """Everything a registry holds, as plain data."""
    return (
        [dataclasses.asdict(e) for e in registry.entries()],
        {iid: dataclasses.asdict(i) for iid, i in registry.incidents.items()},
        dict(registry.unclosed),
    )


_ops = st.lists(st.one_of(
    st.tuples(st.just("commission"), st.sampled_from(["sensor_node", "multi_sensor"])),
    st.tuples(st.just("transition"), st.integers(0, 4), st.sampled_from(sorted(LIFECYCLES))),
    st.tuples(st.just("firmware"), st.integers(0, 4), st.sampled_from(["1.1", "2.0"])),
    st.tuples(st.just("incident"), st.integers(0, 4), st.sampled_from(["manual", "auth_probe"])),
    st.tuples(st.just("remediate"), st.integers(1, 5)),
), max_size=40)


@settings(max_examples=150, deadline=None)
@given(_ops)
def test_replayed_registry_equals_live_registry(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "registry.jsonl"
        live = make_registry(log_path=path)
        for now, op in enumerate(ops):
            nodes = [e.node_id for e in live.entries()]
            try:
                if op[0] == "commission":
                    live.commission(f"node-{now}", op[1])
                elif op[0] == "remediate":
                    live.remediate(f"inc-{op[1]:04d}")
                elif nodes:
                    node = nodes[op[1] % len(nodes)]
                    if op[0] == "transition":
                        live.transition(node, op[2])
                    elif op[0] == "firmware":
                        live.set_firmware(node, op[2])
                    else:
                        live.open_incident(node, op[2], now=float(now))
            except ControlPlaneError:
                pass  # a refused change records nothing
        replayed = make_registry(log_path=path)
        assert state_of(replayed) == state_of(live)
        # both counters resume past the replayed ids
        assert (replayed.commission("next", "sensor_node").node_id
                == f"n-{len(live.entries()) + 1:06d}")
        node = replayed.entries()[0].node_id
        assert (replayed.open_incident(node, "manual", now=0.0).incident_id
                == f"inc-{len(live.incidents) + 1:04d}")
        assert state_of(make_registry(log_path=path)) == state_of(replayed)


def test_registry_log_torn_at_any_byte_of_its_last_line(tmp_path):
    path = tmp_path / "registry.jsonl"
    registry = make_registry(log_path=path)
    a = registry.commission("one", "sensor_node")
    registry.transition(a.node_id, "active")
    registry.open_incident(a.node_id, "manual", now=1.0)
    b = registry.commission("two", "sensor_node")
    before = state_of(registry)
    start = path.stat().st_size
    registry.open_incident(b.node_id, "manual", now=2.0)  # one event: the last line
    data = path.read_bytes()
    assert data[start:].count(b"\n") == 1
    for cut in range(start, len(data)):
        path.write_bytes(data[:cut])
        reopened = make_registry(log_path=path)
        assert state_of(reopened) == before
        assert path.read_bytes() == data[:start]  # truncated to the last full line
        reopened.commission("three", "sensor_node")
        assert state_of(make_registry(log_path=path)) == state_of(reopened)


@pytest.mark.parametrize("bad", [b'{"event":"commissioned","node_id"',
                                 b'{"event":"renamed","node_id":"n-000001"}'])
@pytest.mark.parametrize("last", [False, True])
def test_registry_log_corrupt_complete_line_raises(tmp_path, last, bad):
    path = tmp_path / "registry.jsonl"
    registry = make_registry(log_path=path)
    registry.commission("one", "sensor_node")
    lines = path.read_bytes().splitlines(keepends=True)
    lines.insert(len(lines) if last else 0, bad + b"\n")
    path.write_bytes(b"".join(lines))
    with pytest.raises(ControlPlaneError, match=r"registry\.jsonl:\d+: bad event"):
        make_registry(log_path=path)


def test_incidents_live_in_the_registry_log(tmp_path):
    path = tmp_path / "registry.jsonl"
    registry, entry = active_node(make_registry(log_path=path))
    incident = registry.open_incident(entry.node_id, "manual", now=2.0)
    assert (incident.incident_id, incident.state) == ("inc-0001", "mitigated")
    registry.remediate("inc-0001")
    events = [json.loads(line)["event"] for line in path.read_text().splitlines()]
    assert events == ["commissioned", "transition", "incident_opened", "transition",
                      "incident_mitigated", "transition", "incident_closed"]
    reopened = make_registry(log_path=path)
    assert reopened.incidents["inc-0001"].state == "closed"
    with pytest.raises(UnknownIncident):
        reopened.remediate("inc-0001")  # already closed


def test_incident_on_a_node_that_is_not_active_stays_open():
    registry, entry = commissioned()
    incident = registry.open_incident(entry.node_id, "manual", now=1.0)
    assert incident.state == "open"
    assert registry.lifecycle_of(entry.node_id) == "commissioned"
    with pytest.raises(UnknownNode):
        registry.open_incident("ghost", "manual", now=1.0)


# -- anomaly monitor -----------------------------------------------------


def active_node(registry=None):
    registry, entry = commissioned(registry)
    registry.transition(entry.node_id, "active")
    return registry, entry


def test_floor_shields_quiet_baselines():
    registry, entry = active_node()
    monitor = Monitor(registry)
    # ewma ~1, but counts <= floor stay normal
    for count in (1, 2, 1, 9, 10):
        assert monitor.observe(entry.node_id, count, now=0.0) == "normal"


def test_ewma_warm_start_seeds_from_first_bucket():
    registry, entry = active_node()
    monitor = Monitor(registry)
    monitor.observe(entry.node_id, 40.0, now=0.0)
    assert monitor.states[entry.node_id].ewma == 40.0
    monitor.observe(entry.node_id, 50.0, now=1.0)
    assert monitor.states[entry.node_id].ewma == pytest.approx(
        40.0 + 0.2 * (50.0 - 40.0))


def test_baseline_excludes_anomalous_buckets():
    registry, entry = active_node()
    monitor = Monitor(registry)
    monitor.observe(entry.node_id, 4.0, now=0.0)
    monitor.observe(entry.node_id, 400.0, now=1.0)  # anomalous: not learned
    assert monitor.states[entry.node_id].ewma == 4.0


def test_three_consecutive_anomalous_buckets_open_incident_and_quarantine():
    registry, entry = active_node()
    monitor = Monitor(registry)
    monitor.observe(entry.node_id, 4.0, now=0.0)
    assert monitor.observe(entry.node_id, 400.0, now=1.0) == "anomalous"
    assert monitor.observe(entry.node_id, 400.0, now=2.0) == "anomalous"
    assert monitor.observe(entry.node_id, 400.0, now=3.0) == "incident_opened"
    assert registry.lifecycle_of(entry.node_id) == "quarantined"
    (incident,) = registry.incidents.values()
    assert incident.kind == "traffic_flood"
    assert incident.state == "mitigated"
    assert incident.opened_ts == 3.0


def test_anomalous_run_interrupted_by_normal_resets():
    registry, entry = active_node()
    monitor = Monitor(registry)
    monitor.observe(entry.node_id, 4.0, now=0.0)
    for now, count in ((1, 400), (2, 400), (3, 4), (4, 400), (5, 400)):
        monitor.observe(entry.node_id, count, now=float(now))
    assert registry.incidents == {}


def test_only_one_open_incident_per_node():
    registry, entry = active_node()
    monitor = Monitor(registry)
    monitor.observe(entry.node_id, 2.0, now=0.0)
    for now in range(1, 9):
        monitor.observe(entry.node_id, 500.0, now=float(now))
    assert len(registry.incidents) == 1


def test_monitor_matches_scripted_ewma_oracle():
    rng = random.Random(31)
    registry, entry = active_node()
    monitor = Monitor(registry)
    ewma, seeded, run = 0.0, False, 0
    incident_open = False
    for now in range(200):
        count = float(rng.choice([0, 1, 2, 3, 5, 8, 40, 90, 300]))
        verdict = monitor.observe(entry.node_id, count, now=float(now))
        if not seeded:
            ewma, seeded = count, True
            assert verdict == "normal"
            continue
        threshold = max(10.0, 5.0 * ewma)
        if count > threshold:
            run += 1
            if run >= 3 and not incident_open:
                incident_open = True
                expected = "incident_opened"
            else:
                expected = "anomalous"
        else:
            run = 0
            if seeded:
                ewma += 0.2 * (count - ewma)
            else:
                ewma, seeded = count, True
            expected = "normal"
        assert verdict == expected
        assert monitor.states[entry.node_id].ewma == pytest.approx(ewma)


# -- incidents and remediation -------------------------------------------


def flooded_monitor():
    registry, entry = active_node()
    monitor = Monitor(registry)
    monitor.observe(entry.node_id, 2.0, now=0.0)
    for now in (1, 2, 3):
        monitor.observe(entry.node_id, 999.0, now=float(now))
    (iid,) = registry.incidents
    return registry, entry, monitor, iid


def test_remediate_reactivates_and_resets_baseline():
    registry, entry, monitor, iid = flooded_monitor()
    incident = monitor.remediate(iid)
    assert incident.state == "closed"
    assert registry.lifecycle_of(entry.node_id) == "active"
    assert entry.node_id not in monitor.states  # baseline restarts
    cred = entry.credential
    assert registry.authenticate(entry.node_id, cred) is True


def test_remediate_errors():
    registry, entry, monitor, iid = flooded_monitor()
    with pytest.raises(UnknownIncident):
        monitor.remediate("inc-9999")
    registry.transition(entry.node_id, "active")
    with pytest.raises(NodeNotQuarantined):
        monitor.remediate(iid)
    registry.transition(entry.node_id, "quarantined")
    monitor.remediate(iid)
    with pytest.raises(UnknownIncident):
        monitor.remediate(iid)  # already closed


def test_manual_incident_quarantines_active_node():
    registry, entry = active_node()
    monitor = Monitor(registry)
    incident = registry.open_incident(entry.node_id, "manual", now=5.0)
    assert incident.kind == "manual"
    assert registry.lifecycle_of(entry.node_id) == "quarantined"


def test_quarantine_hook_fires():
    registry, entry = active_node()
    dropped = []
    registry.on_quarantine = dropped.append
    registry.transition(entry.node_id, "quarantined")
    assert dropped == [entry.node_id]


def test_new_incident_only_once_the_open_one_closes():
    registry, entry, monitor, iid = flooded_monitor()
    monitor.remediate(iid)
    manual = registry.open_incident(entry.node_id, "manual", now=4.0)
    monitor.observe(entry.node_id, 2.0, now=5.0)
    verdicts = [monitor.observe(entry.node_id, 999.0, now=float(now)) for now in (6, 7, 8)]
    assert verdicts == ["anomalous"] * 3  # the manual incident is still open
    monitor.remediate(manual.incident_id)
    monitor.observe(entry.node_id, 2.0, now=9.0)
    verdicts = [monitor.observe(entry.node_id, 999.0, now=float(now)) for now in (10, 11, 12)]
    assert verdicts == ["anomalous", "anomalous", "incident_opened"]
    assert len(registry.incidents) == 3
