import random

import pytest
from hypothesis import given, strategies as st

from iotra import edge
from iotra.edge import (
    Actuation,
    BadChecksum,
    BadLength,
    ChannelConfig,
    ChannelState,
    Condition,
    ControlRule,
    EdgeRule,
    NonFiniteRaw,
    QueuedFrame,
    RingBuffer,
    RuleEngine,
    UnknownChannelInCondition,
    UnknownFunction,
    UplinkQueue,
    acquire_sample,
    build_frame,
    flush_uplink,
    run_local_control,
    translate_frame,
)
from iotra.reading import ChannelKey, Reading


def make_state(scale=1.0, offset=0.0, period=1000):
    return ChannelState(
        ChannelConfig("temp", "temperature_sensor", sample_period_ms=period,
                      scale=scale, offset=offset, unit="°F")
    )


# -- acquisition ---------------------------------------------------------


def test_identity_calibration():
    r = acquire_sample(make_state(), "n-1", 512, now=10.0)
    assert r.value == 512.0
    assert r.ts == 10.0
    assert r.seq == 1


def test_affine_calibration():
    # oracle: 0.1 * 1176 - 40 = 77.6
    r = acquire_sample(make_state(scale=0.1, offset=-40), "n-1", 1176, now=1.0)
    assert r.value == pytest.approx(0.1 * 1176 - 40)


def test_seq_increments():
    state = make_state()
    a = acquire_sample(state, "n-1", 1, now=1.0)
    b = acquire_sample(state, "n-1", 2, now=2.0)
    assert (a.seq, b.seq) == (1, 2)


def test_non_finite_raw_rejected():
    with pytest.raises(NonFiniteRaw):
        acquire_sample(make_state(), "n-1", float("nan"), now=1.0)


def test_config_invariants():
    with pytest.raises(edge.EdgeError):
        ChannelConfig("temp", "c", sample_period_ms=5)
    with pytest.raises(edge.EdgeError):
        ChannelConfig("temp", "c", scale=0.0)


def test_tags_inherited_from_node():
    r = acquire_sample(make_state(), "n-1", 1, now=1.0, tags={"zone": "Z3"})
    assert r.tags == {"zone": "Z3"}


# -- legacy frame translation --------------------------------------------


def xor_of(body):
    x = 0
    for b in body:
        x ^= b
    return x


def test_translate_example_frame():
    body = bytes([0x01, 0x03, 0x00, 0x0A, 0x03, 0x08])
    frame = body + bytes([xor_of(body)])
    addr, register, value = translate_frame(frame)
    assert (addr, register) == (1, 10)
    assert value == pytest.approx(77.6)  # 0x0308 = 776 -> 77.6


def test_bad_length():
    with pytest.raises(BadLength):
        translate_frame(bytes(6))


def test_bad_checksum():
    body = bytes([0x01, 0x03, 0x00, 0x0A, 0x03, 0x08])
    frame = body + bytes([xor_of(body) ^ 0xFF])
    with pytest.raises(BadChecksum):
        translate_frame(frame)


def test_unknown_function():
    body = bytes([0x01, 0x07, 0x00, 0x0A, 0x03, 0x08])
    with pytest.raises(UnknownFunction):
        translate_frame(body + bytes([xor_of(body)]))


def test_negative_values_are_twos_complement():
    frame = build_frame(5, 0x03, 7, -12.5)
    assert translate_frame(frame) == (5, 7, -12.5)


@given(
    st.integers(min_value=1, max_value=247),
    st.sampled_from([0x03, 0x06]),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=-32768, max_value=32767),
)
def test_build_translate_round_trip(addr, func, register, raw):
    frame = build_frame(addr, func, register, raw / 10.0)
    assert translate_frame(frame) == (addr, register, raw / 10.0)


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


def test_control_rule_fires_on_snapshot():
    rule = ControlRule("c1", Condition([("temp", ">", 78)]), "fan", "power", "on")
    assert run_local_control([rule], {"temp": 81.0}) == [
        Actuation("c1", "fan", "power", "on")
    ]


def test_empty_rules():
    assert run_local_control([], {"temp": 81.0}) == []


def test_control_is_pure_in_snapshot():
    # identical inputs give identical outputs regardless of any uplink state
    rule = ControlRule("c1", Condition([("temp", ">", 78)]), "fan", "power", "on")
    a = run_local_control([rule], {"temp": 81.0})
    b = run_local_control([rule], {"temp": 81.0})
    assert a == b


def test_unknown_channel_in_condition():
    rule = ControlRule("c1", Condition([("ghost", ">", 1)]), "fan", "power", "on")
    with pytest.raises(UnknownChannelInCondition):
        run_local_control([rule], {"temp": 81.0})


def test_unknown_channel_in_condition_rejected_when_the_node_is_built():
    rule = ControlRule("c1", Condition([("tmep", ">", 1)]), "fan", "power", "on")
    config = edge.NodeConfig(
        "n-1", "multi_sensor",
        channels=[ChannelConfig("temp", "multi_sensor", unit="°F")],
        control_rules=[rule])
    with pytest.raises(UnknownChannelInCondition, match="tmep"):
        edge.EdgeNode(config)


def test_results_ordered_by_rule_id():
    rules = [
        ControlRule("z", Condition([("t", ">", 0)]), "a", "p", 1),
        ControlRule("a", Condition([("t", ">", 0)]), "b", "p", 2),
    ]
    assert [a.rule_id for a in run_local_control(rules, {"t": 1.0})] == ["a", "z"]


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


# -- ring buffer ---------------------------------------------------------


def ch(node="n-1", sensor="temp"):
    return ChannelKey(node, sensor)


def test_query_half_open_interval():
    buf = RingBuffer(capacity=16)
    for t in range(1, 11):
        buf.append(Reading(channel=ch(), value=t, ts=float(t), seq=t))
    assert [r.ts for r in buf.query(ch(), 3, 7)] == [3.0, 4.0, 5.0, 6.0]


def test_capacity_eviction():
    buf = RingBuffer(capacity=4)
    for t in range(1, 11):
        buf.append(Reading(channel=ch(), value=t, ts=float(t), seq=t))
    assert [r.seq for r in buf.query(ch(), 0, 100)] == [7, 8, 9, 10]


def test_unknown_channel_query():
    with pytest.raises(edge.UnknownChannel):
        RingBuffer().query(ch(), 0, 1)


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=50), max_size=60),
)
def test_ring_buffer_matches_list_oracle(capacity, ts_list):
    buf = RingBuffer(capacity=capacity)
    oracle: list[Reading] = []
    for i, t in enumerate(ts_list):
        r = Reading(channel=ch(), value=i, ts=float(t), seq=i + 1)
        buf.append(r)
        oracle.append(r)
        oracle = oracle[-capacity:]
        assert buf.contents(ch()) == oracle
        lo, hi = 10, 35
        assert buf.query(ch(), lo, hi) == [x for x in oracle if lo <= x.ts < hi]


# -- uplink queue --------------------------------------------------------


class FakeSession:
    def __init__(self, connected=True, fail_after=None):
        self.connected = connected
        self.fail_after = fail_after
        self.published = []

    def publish(self, topic, payload, qos=0):
        if self.fail_after is not None and len(self.published) >= self.fail_after:
            self.connected = False
            raise edge.ConnectionLost()
        self.published.append((topic, payload))


def queued(n):
    q = UplinkQueue()
    for i in range(n):
        q.enqueue(QueuedFrame("data/n-1/temp", f"p{i}"))
    return q


def test_flush_all_when_connected():
    q = queued(3)
    s = FakeSession()
    assert flush_uplink(q, s) == 3
    assert len(q.pending) == 0


def test_flush_zero_when_disconnected():
    q = queued(3)
    assert flush_uplink(q, FakeSession(connected=False)) == 0
    assert len(q.pending) == 3


def test_disconnect_mid_flush_retains_remainder_in_order():
    q = queued(5)
    s = FakeSession(fail_after=2)
    assert flush_uplink(q, s) == 2
    assert [f.payload for f in q.pending] == ["p2", "p3", "p4"]
    assert [p for _, p in s.published] == ["p0", "p1"]


def test_bounded_queue_drops_oldest():
    q = UplinkQueue(capacity=2)
    for i in range(4):
        q.enqueue(QueuedFrame("t", f"p{i}"))
    assert [f.payload for f in q.pending] == ["p2", "p3"]
    assert q.dropped == 2
