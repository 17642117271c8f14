import random

import pytest

from iotra import edge, msgbus
from iotra.edge import (
    Actuation,
    ChannelConfig,
    Condition,
    ControlRule,
    EdgeNode,
    EdgeRule,
    NodeConfig,
    NonFiniteRaw,
    QueuedFrame,
    RuleEngine,
    UnknownChannelInCondition,
)
from iotra.reading import ChannelKey, Reading


def make_node(scale=1.0, offset=0.0, sensors=("temp",), control_rules=(), tags=None):
    return EdgeNode(NodeConfig(
        "n-1", "temperature_sensor",
        channels=tuple(ChannelConfig(s, "temperature_sensor", scale=scale, offset=offset,
                                     unit="°F") for s in sensors),
        control_rules=tuple(control_rules), tags=dict(tags or {})))


# -- acquisition ---------------------------------------------------------


def test_identity_calibration():
    r = make_node().ingest_raw("temp", 512, now=10.0)
    assert r.value == 512.0
    assert r.ts == 10.0
    assert r.seq == 1


def test_affine_calibration():
    # oracle: 0.1 * 1176 - 40 = 77.6
    r = make_node(scale=0.1, offset=-40).ingest_raw("temp", 1176, now=1.0)
    assert r.value == pytest.approx(0.1 * 1176 - 40)


def test_seq_increments():
    node = make_node()
    a = node.ingest_raw("temp", 1, now=1.0)
    b = node.ingest_raw("temp", 2, now=2.0)
    assert (a.seq, b.seq) == (1, 2)


def test_non_finite_raw_rejected():
    node = make_node()
    with pytest.raises(NonFiniteRaw):
        node.ingest_raw("temp", float("nan"), now=1.0)
    assert node.channels["temp"].seq == 0 and not node.uplink


def test_config_invariants():
    with pytest.raises(edge.EdgeError):
        ChannelConfig("temp", "c", sample_period_ms=5)
    with pytest.raises(edge.EdgeError):
        ChannelConfig("temp", "c", scale=0.0)


def test_tags_inherited_from_node():
    r = make_node(tags={"zone": "Z3"}).ingest_raw("temp", 1, now=1.0)
    assert r.tags == {"zone": "Z3"}


# -- event rules ---------------------------------------------------------


def reading_for(value, sensor="temp", node="n-1", seq=1):
    return Reading(channel=ChannelKey(node, sensor), value=value, ts=1.0, seq=seq)


def test_single_sample_threshold():
    engine = RuleEngine([EdgeRule("r1", "temp", ">", 80, debounce_count=1,
                                  severity="alert")])
    events = engine.evaluate(reading_for(81.0))
    assert len(events) == 1
    assert events[0].severity == "alert"


def test_debounce_fires_once_at_fifth_reading():
    engine = RuleEngine([EdgeRule("r1", "temp", ">", 80, debounce_count=3)])
    fired = [len(engine.evaluate(reading_for(v))) for v in (81, 79, 81, 81, 81)]
    assert fired == [0, 0, 0, 0, 1]


def test_unselected_channel_yields_nothing():
    engine = RuleEngine([EdgeRule("r1", "temp", ">", 80)])
    assert engine.evaluate(reading_for(99.0, sensor="humidity")) == []


def debounce_oracle(values, op, threshold, debounce):
    """Direct replay of the debounce contract, independent of RuleEngine."""
    ops = {"<": float.__lt__, "<=": float.__le__, ">": float.__gt__,
           ">=": float.__ge__, "==": float.__eq__}
    count, fires = 0, 0
    for v in values:
        if ops[op](float(v), float(threshold)):
            count += 1
            if count >= debounce:
                fires += 1
                count = 0
        else:
            count = 0
    return fires


def test_debounce_matches_replay_oracle_on_random_sequences():
    rng = random.Random(11)
    for _ in range(300):
        op = rng.choice(["<", "<=", ">", ">=", "=="])
        threshold = rng.randrange(-5, 6)
        debounce = rng.randrange(1, 5)
        values = [float(rng.randrange(-6, 7)) for _ in range(rng.randrange(0, 40))]
        engine = RuleEngine([EdgeRule("r", "temp", op, threshold,
                                      debounce_count=debounce)])
        fired = sum(len(engine.evaluate(reading_for(v))) for v in values)
        assert fired == debounce_oracle(values, op, threshold, debounce)


# -- local control -------------------------------------------------------


def controlled(rules, sensors=("temp",), **latest):
    """A node with ``rules`` whose channels in ``latest`` hold those values."""
    node = make_node(sensors=sensors, control_rules=rules)
    for sensor, value in latest.items():
        node.ingest_raw(sensor, value, now=1.0)
    return node


def test_control_rule_fires_on_snapshot():
    rule = ControlRule("c1", Condition([("temp", ">", 78)]), "fan", "power", "on")
    assert controlled([rule], temp=81.0).control_step() == [
        Actuation("c1", "fan", "power", "on")
    ]


def test_empty_rules():
    assert controlled([], temp=81.0).control_step() == []


def test_control_is_pure_in_snapshot():
    # identical snapshots give identical outputs, connected or not
    rule = ControlRule("c1", Condition([("temp", ">", 78)]), "fan", "power", "on")
    online, offline = controlled([rule], temp=81.0), controlled([rule], temp=81.0)
    online.session = FakeSession()
    assert online.control_step() == offline.control_step() == offline.control_step()


def test_unknown_channel_in_condition():
    # a rule on a channel that has no sample yet cannot be decided
    rule = ControlRule("c1", Condition([("ghost", ">", 1)]), "fan", "power", "on")
    node = controlled([rule], sensors=("temp", "ghost"), temp=81.0)
    with pytest.raises(UnknownChannelInCondition):
        node.control_step()


def test_unknown_channel_in_condition_rejected_when_the_node_is_built():
    rule = ControlRule("c1", Condition([("tmep", ">", 1)]), "fan", "power", "on")
    config = edge.NodeConfig(
        "n-1", "multi_sensor",
        channels=[ChannelConfig("temp", "multi_sensor", unit="°F")],
        control_rules=[rule])
    with pytest.raises(UnknownChannelInCondition, match="tmep"):
        edge.EdgeNode(config)


def test_a_sample_for_a_channel_the_node_lacks_is_refused():
    node = edge.EdgeNode(edge.NodeConfig(
        "n-1", "multi_sensor",
        channels=[ChannelConfig("temp", "multi_sensor", unit="°F")]))
    with pytest.raises(edge.UnknownChannel, match="tmep"):
        node.ingest_raw("tmep", 1.0, 0.0)
    assert not node.uplink


def test_results_ordered_by_rule_id():
    rules = [
        ControlRule("z", Condition([("t", ">", 0)]), "a", "p", 1),
        ControlRule("a", Condition([("t", ">", 0)]), "b", "p", 2),
    ]
    node = controlled(rules, sensors=("t",), t=1.0)
    assert [a.rule_id for a in node.control_step()] == ["a", "z"]


def test_condition_combinators():
    both = Condition([("t", ">", 0), ("u", ">", 0)], combine="all")
    either = Condition([("t", ">", 0), ("u", ">", 0)], combine="any")
    snap = {"t": 1.0, "u": -1.0}
    assert not both.evaluate(snap)
    assert either.evaluate(snap)


@pytest.mark.parametrize("terms, combine", [
    ([("temp", "~", 1.0)], "all"),
    ([("temp", ">", 1.0)], "al"),
])
def test_bad_condition_rejected_at_construction(terms, combine):
    with pytest.raises(edge.EdgeError):
        Condition(terms, combine=combine)


# -- uplink queue --------------------------------------------------------


class FakeSession:
    def __init__(self, connected=True, fail_after=None):
        self.connected = connected
        self.fail_after = fail_after
        self.published = []

    def publish(self, topic, payload, qos=0):
        if self.fail_after is not None and len(self.published) >= self.fail_after:
            self.connected = False
            raise msgbus.NotConnected()
        self.published.append((topic, payload))


def queued(n, session):
    node = make_node()
    node.uplink.extend(QueuedFrame("data/n-1/temp", f"p{i}") for i in range(n))
    node.session = session
    return node


def test_flush_all_when_connected():
    node = queued(3, FakeSession())
    assert node.flush() == 3
    assert len(node.uplink) == 0


def test_flush_zero_when_disconnected():
    node = queued(3, FakeSession(connected=False))
    assert node.flush() == 0
    assert len(node.uplink) == 3


def test_disconnect_mid_flush_retains_remainder_in_order():
    s = FakeSession(fail_after=2)
    node = queued(5, s)
    assert node.flush() == 2
    assert [f.payload for f in node.uplink] == ["p2", "p3", "p4"]
    assert [p for _, p in s.published] == ["p0", "p1"]
