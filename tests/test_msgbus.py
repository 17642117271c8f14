import random

import pytest
from hypothesis import given, settings, strategies as st

from iotra import msgbus
from iotra.msgbus import (
    ACK_TIMEOUT_S,
    MAX_DELIVERIES,
    AuthFailed,
    BadFilter,
    BadTopic,
    Broker,
    Frame,
    MsgId,
    NotAuthorized,
    NotConnected,
    decode_wire_frame,
    encode_wire_frame,
    match_topic,
    validate_filter,
    validate_topic,
)
from iotra.timeutil import VirtualClock


# -- topic matching ------------------------------------------------------


@pytest.mark.parametrize(
    "flt,topic,expected",
    [
        ("data/n-1/temp", "data/n-1/temp", True),
        ("data/n-1/temp", "data/n-1/hum", False),
        ("data/+/temp", "data/n-9/temp", True),
        ("data/+/temp", "data/n-9/a/temp", False),
        ("data/#", "data/n-1/temp", True),
        ("data/#", "data", False),
        ("data/#", "data/x", True),
        ("#", "anything/at/all", True),
        ("+", "one", True),
        ("+", "one/two", False),
        ("data/+/+", "data/n-1/temp", True),
        ("data/n-1", "data/n-1/temp", False),
    ],
)
def test_match_topic_table(flt, topic, expected):
    assert match_topic(flt, topic) is expected


@pytest.mark.parametrize("bad", ["", "data/#/x", "da#ta/x", "da+ta/x", "#extra"])
def test_bad_filters(bad):
    with pytest.raises(BadFilter):
        validate_filter(bad)


@pytest.mark.parametrize("bad", ["", "data//x", "data/+/x", "data/#"])
def test_bad_publish_topics(bad):
    with pytest.raises(BadTopic):
        validate_topic(bad)


def match_oracle(flt, topic):
    """Recursive segment matcher, written independently of match_topic."""
    def rec(fs, ts):
        if not fs:
            return not ts
        if fs[0] == "#":
            return len(ts) >= 1
        if not ts:
            return False
        if fs[0] in ("+", ts[0]):
            return rec(fs[1:], ts[1:])
        return False
    return rec(flt.split("/"), topic.split("/"))


@given(
    st.lists(st.sampled_from(["a", "b", "+", "#"]), min_size=1, max_size=4),
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4),
)
def test_match_topic_agrees_with_oracle(fsegs, tsegs):
    if "#" in fsegs[:-1]:
        fsegs = [s for s in fsegs[:-1] if s != "#"] + fsegs[-1:]
    if not fsegs:
        fsegs = ["a"]
    flt, topic = "/".join(fsegs), "/".join(tsegs)
    assert match_topic(flt, topic) == match_oracle(flt, topic)


_filters = st.lists(st.sampled_from(["a", "b", "+", "#"]), min_size=1, max_size=4).map(
    lambda segs: "/".join([s for s in segs[:-1] if s != "#"] + segs[-1:]))
_topics = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4).map("/".join)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), st.integers(0, 3), _filters),
        st.tuples(st.just("disconnect"), st.integers(0, 3)),
        st.tuples(st.just("drop_node"), st.integers(0, 1)),
        st.tuples(st.just("publish"), _topics),
    ),
    max_size=40,
)


class RecordingBroker(Broker):
    """Logs the session of every delivery, in delivery order."""

    def __init__(self):
        super().__init__(clock=VirtualClock())
        self.deliveries = []

    def _deliver(self, session, frame):
        self.deliveries.append(session)
        super()._deliver(session, frame)


def test_delivery_follows_subscription_order():
    broker = RecordingBroker()
    a, b, c = (broker.connect_service(n) for n in "abc")
    c.subscribe("x/#")
    a.subscribe("+/y")
    b.subscribe("x/y")
    c.subscribe("x/+")
    broker.connect_service("pub").publish("x/y", "p")
    assert broker.deliveries == [c, a, b]


@settings(max_examples=300)
@given(_ops)
def test_trie_routing_matches_linear_scan(ops):
    broker = RecordingBroker()
    pub = broker.connect_service("pub")
    # four session slots on two nodes; a closed slot reconnects at once
    slots = [broker.connect_service(f"node{k % 2}") for k in range(4)]
    subs = []  # (session, filter) in subscription order: the reference
    for op in ops:
        if op[0] == "subscribe":
            _, k, flt = op
            slots[k].subscribe(flt)
            if (slots[k], flt) not in subs:
                subs.append((slots[k], flt))
            continue
        if op[0] in ("disconnect", "drop_node"):
            if op[0] == "disconnect":
                closed = [op[1]]
                broker.disconnect(slots[op[1]])
            else:
                closed = [k for k in range(4) if k % 2 == op[1]]
                assert broker.drop_node(f"node{op[1]}") == len(closed)
            gone = {slots[k] for k in closed}
            subs = [(s, f) for s, f in subs if s not in gone]
            for k in closed:
                slots[k] = broker.connect_service(f"node{k % 2}")
            continue
        topic = op[1]
        expected = []
        for session, flt in subs:
            if match_topic(flt, topic) and session not in expected:
                expected.append(session)
        broker.deliveries.clear()
        pub.publish(topic, "p")
        assert broker.deliveries == expected
    for session in slots:
        broker.disconnect(session)
    assert not broker._root.children  # emptied trie nodes are pruned


# -- wire format ---------------------------------------------------------


def test_wire_round_trip():
    frame = Frame(kind="PUB", topic="data/n-1/temp", msg_id=MsgId("n-1#1", 7),
                  qos=1, retain=True, ts=12.5, payload='{"temp":"n:77.6"}')
    buf = encode_wire_frame(frame) + b"trailing"
    decoded, rest = decode_wire_frame(buf)
    assert decoded == frame
    assert rest == b"trailing"


def test_wire_length_prefix_is_big_endian_of_body():
    frame = Frame(kind="ACK", topic="t", msg_id=MsgId("s", 1))
    buf = encode_wire_frame(frame)
    assert int.from_bytes(buf[:4], "big") == len(buf) - 4


def test_wire_truncated_body_rejected():
    buf = encode_wire_frame(Frame(kind="PUB", topic="t", msg_id=MsgId("s", 1)))
    with pytest.raises(msgbus.BusError):
        decode_wire_frame(buf[:-1])


def test_wire_unknown_kind_rejected():
    import json, struct
    body = json.dumps({"kind": "NOPE"}).encode()
    with pytest.raises(msgbus.BusError):
        decode_wire_frame(struct.pack(">I", len(body)) + body)


# -- broker basics -------------------------------------------------------


def make_broker(**kw):
    return Broker(clock=VirtualClock(), **kw)


def test_qos0_fan_out():
    broker = make_broker()
    a = broker.connect_service("svc-a")
    b = broker.connect_service("svc-b")
    a.subscribe("data/#")
    b.subscribe("data/n-1/+")
    pub = broker.connect_service("pub")
    pub.publish("data/n-1/temp", "x")
    assert [f.payload for f in a.drain()] == ["x"]
    assert [f.payload for f in b.drain()] == ["x"]
    assert a.pending == {} and b.pending == {}


def test_overlapping_filters_deliver_once():
    broker = make_broker()
    s = broker.connect_service("svc")
    s.subscribe("data/#")
    s.subscribe("data/n-1/temp")
    broker.connect_service("pub").publish("data/n-1/temp", "x")
    assert len(s.drain()) == 1


def test_duplicate_subscribe_is_idempotent():
    broker = make_broker()
    s = broker.connect_service("svc")
    assert s.subscribe("data/#") == s.subscribe("data/#")


def test_publish_while_disconnected():
    broker = make_broker()
    s = broker.connect_service("svc")
    broker.disconnect(s)
    with pytest.raises(NotConnected):
        s.publish("data/n-1/x", "p")


def test_authenticator_gate():
    broker = make_broker(authenticator=lambda n, c: c == "good")
    broker.connect("n-1", "good")
    with pytest.raises(AuthFailed):
        broker.connect("n-1", "bad")


def test_node_acl():
    broker = make_broker(authenticator=lambda n, c: True)
    s = broker.connect("n-000001", "x")
    for topic in ("data/n-000001/temp", "twin/n-000001/reported",
                  "mgmt/n-000001/status", "alerts/n-000001"):
        s.publish(topic, "p")
    for topic in ("data/n-000002/temp", "twin/n-000001/desired",
                  "mgmt/n-000001/update", "cfg/x"):
        with pytest.raises(NotAuthorized):
            s.publish(topic, "p")


def test_service_sessions_bypass_acl():
    broker = make_broker(authenticator=lambda n, c: True)
    svc = broker.connect_service("twins")
    svc.publish("twin/n-000001/desired", "p")  # no ACL for services


def test_per_publisher_order_preserved():
    broker = make_broker()
    sub = broker.connect_service("sub")
    sub.subscribe("data/#")
    pub = broker.connect_service("pub")
    for i in range(20):
        pub.publish("data/n-1/temp", f"p{i}")
    assert [f.payload for f in sub.drain()] == [f"p{i}" for i in range(20)]


# -- qos 1, redelivery, dead-letter --------------------------------------


def test_qos1_pending_until_ack():
    broker = make_broker()
    sub = broker.connect_service("sub")
    sub.subscribe("data/#")
    broker.connect_service("pub").publish("data/n-1/t", "p", qos=1)
    (frame,) = sub.drain()
    assert frame.msg_id in sub.pending
    assert sub.ack(frame.msg_id) is True
    assert sub.pending == {}
    assert sub.ack(frame.msg_id) is False  # idempotent


def test_redelivery_after_ack_timeout():
    clock = VirtualClock()
    broker = Broker(clock=clock)
    sub = broker.connect_service("sub")
    sub.subscribe("data/#")
    broker.connect_service("pub").publish("data/n-1/t", "p", qos=1)
    sub.drain()
    clock.advance(ACK_TIMEOUT_S - 0.1)
    assert broker.redeliver_pending() == 0
    clock.advance(0.1)
    assert broker.redeliver_pending() == 1
    (dup,) = sub.drain()
    assert dup.payload == "p"  # duplicate of the same frame


def test_dead_letter_after_delivery_budget():
    clock = VirtualClock()
    broker = Broker(clock=clock)
    sub = broker.connect_service("sub")
    sub.subscribe("data/#")
    broker.connect_service("pub").publish("data/n-1/t", "p", qos=1)
    total = len(sub.drain())
    # initial delivery counts toward the budget; never ack
    for _ in range(MAX_DELIVERIES + 2):
        clock.advance(ACK_TIMEOUT_S)
        broker.redeliver_pending()
        total += len(sub.drain())
    assert total == MAX_DELIVERIES
    assert len(broker.dead_letter) == 1
    assert sub.pending == {}


def test_at_least_once_under_random_ack_loss():
    # every qos-1 frame is eventually acked or dead-lettered, and the
    # subscriber sees each at least once
    rng = random.Random(5)
    clock = VirtualClock()
    broker = Broker(clock=clock)
    sub = broker.connect_service("sub")
    sub.subscribe("data/#")
    pub = broker.connect_service("pub")
    sent = [f"p{i}" for i in range(30)]
    for p in sent:
        pub.publish("data/n-1/t", p, qos=1)
    seen = {}
    for _ in range(40):
        for frame in sub.drain():
            seen[frame.payload] = seen.get(frame.payload, 0) + 1
            if rng.random() < 0.6:
                sub.ack(frame.msg_id)
        clock.advance(ACK_TIMEOUT_S)
        broker.redeliver_pending()
    dead = {f.payload for _, f in broker.dead_letter}
    assert set(seen) == set(sent)
    assert sub.pending == {}
    for p in sent:
        assert seen[p] >= 1
        if p not in dead:
            assert seen[p] <= MAX_DELIVERIES


# -- retained messages ---------------------------------------------------


def test_retained_latest_wins():
    clock = VirtualClock()
    broker = Broker(clock=clock)
    pub = broker.connect_service("pub")
    pub.publish("twin/n-1/desired", "v1", qos=1, retain=True)
    clock.advance(1)
    pub.publish("twin/n-1/desired", "v2", qos=1, retain=True)
    late = broker.connect_service("late")
    late.subscribe("twin/n-1/desired")
    assert [f.payload for f in late.drain()] == ["v2"]


def test_retained_delivered_oldest_first():
    clock = VirtualClock()
    broker = Broker(clock=clock)
    pub = broker.connect_service("pub")
    pub.publish("twin/n-2/desired", "b", retain=True)
    clock.advance(1)
    pub.publish("twin/n-1/desired", "a", retain=True)
    late = broker.connect_service("late")
    late.subscribe("twin/+/desired")
    assert [f.payload for f in late.drain()] == ["b", "a"]


def test_drop_node_severs_sessions():
    broker = make_broker(authenticator=lambda n, c: True)
    s = broker.connect("n-000001", "x")
    assert broker.drop_node("n-000001") == 1
    assert not s.connected
    with pytest.raises(NotConnected):
        s.publish("data/n-000001/t", "p")
