"""Minimal MQTT-inspired pub/sub broker.

Topics with ``+``/``#`` wildcards, QoS 0/1 with acks, redelivery and a
dead-letter queue, retained messages, and per-subscriber pending queues.
The broker runs in-process: clients attach through Session objects and
frames are passed as Python objects, never serialized.

QoS 1 follows MQTT 3.1.1 sections 4.3.2 and 4.4: an unacked frame is sent
again every ``ACK_TIMEOUT_S`` and dead-lettered after ``MAX_DELIVERIES``
deliveries. A dead letter at QoS 1 means "unacknowledged", not "lost":
each delivery reached the subscriber, which may have stored the first.

Wildcards follow MQTT 3.1.1 (OASIS 2014) section 4.7 with one
deliberate difference: a trailing ``#`` matches one or more segments, so
``data/#`` matches ``data/x`` but not ``data`` (MQTT lets ``sport/#``
match ``sport``). ``+`` matches exactly one segment.

Filters are validated and split once, when a TopicFilter is built.
The broker keeps subscriptions in a trie keyed by filter segment, with
``+`` and ``#`` as ordinary children. A publish splits its topic once,
checks it and the node ACL on those segments, and walks the trie: at
each level it follows the literal segment, ``+`` and ``#``, so the cost
is O(topic depth + matching subscriptions), independent of how many
subscriptions do not match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

ACK_TIMEOUT_S = 2.0
MAX_DELIVERIES = 5


class BusError(Exception):
    pass


class BadFilter(BusError):
    pass


class BadTopic(BusError):
    pass


class NotConnected(BusError):
    pass


class AuthFailed(BusError):
    pass


class NotAuthorized(BusError):
    """Publisher violated its topic ACL."""


@dataclass(frozen=True, slots=True)
class MsgId:
    sender: str
    seq: int


@dataclass(slots=True)
class Frame:
    topic: str
    msg_id: MsgId
    qos: int = 0
    ts: float = 0.0
    payload: str = ""


def validate_filter(topic_filter: str) -> None:
    if not topic_filter:
        raise BadFilter("empty filter")
    segs = topic_filter.split("/")
    for i, seg in enumerate(segs):
        if seg == "#" and i != len(segs) - 1:
            raise BadFilter(f"'#' must be the final segment: {topic_filter!r}")
        if "#" in seg and seg != "#":
            raise BadFilter(f"'#' must stand alone in a segment: {topic_filter!r}")
        if "+" in seg and seg != "+":
            raise BadFilter(f"'+' must stand alone in a segment: {topic_filter!r}")


def validate_topic(topic: str) -> list[str]:
    """The topic's segments; raises BadTopic."""
    segs = topic.split("/")
    if "" in segs or "+" in segs or "#" in segs:
        raise BadTopic(f"bad publish topic: {topic!r}")
    return segs


def _match_segments(fsegs, tsegs) -> bool:
    for i, fseg in enumerate(fsegs):
        if fseg == "#":
            return len(tsegs) >= i + 1
        if i >= len(tsegs):
            return False
        if fseg != "+" and fseg != tsegs[i]:
            return False
    return len(tsegs) == len(fsegs)


class TopicFilter:
    """A topic filter, validated and split once; raises BadFilter."""

    __slots__ = ("segments",)

    def __init__(self, text: str):
        validate_filter(text)
        self.segments = tuple(text.split("/"))

    def matches(self, topic: str) -> bool:
        return _match_segments(self.segments, topic.split("/"))


# -- broker --------------------------------------------------------------


@dataclass(slots=True)
class PendingEntry:
    frame: Frame
    delivery_count: int
    last_sent_ts: float


@dataclass(slots=True)
class Subscription:
    sub_id: int
    session: "Session"
    topic_filter: TopicFilter


class _TrieNode:
    """One filter segment. ``subs`` holds the subscriptions whose filter
    ends here, keyed by sub_id."""

    __slots__ = ("children", "subs")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.subs: dict[int, Subscription] = {}


def _collect(node: _TrieNode, tsegs: list[str], i: int, out: list[Subscription]) -> None:
    """Append the subscriptions under ``node`` that match ``tsegs[i:]``."""
    if i == len(tsegs):
        out.extend(node.subs.values())
        return
    children = node.children
    rest = children.get("#")
    if rest is not None:  # at least one segment remains
        out.extend(rest.subs.values())
    child = children.get(tsegs[i])
    if child is not None:
        _collect(child, tsegs, i + 1, out)
    child = children.get("+")
    if child is not None:
        _collect(child, tsegs, i + 1, out)


def _acl_allows(node_id: str, tsegs: list[str]) -> bool:
    """A node may publish only to ``data/<node>/#``, ``twin/<node>/reported``
    and ``alerts/<node>``. Commands reach a node only as its twin's
    retained desired state, so its one reply topic is the twin report."""
    if len(tsegs) < 2 or tsegs[1] != node_id:
        return False
    head = tsegs[0]
    if head == "data":
        return len(tsegs) >= 3
    if head == "alerts":
        return len(tsegs) == 2
    return head == "twin" and len(tsegs) == 3 and tsegs[2] == "reported"


class Session:
    """One client attachment: inbox of delivered frames plus per-session
    pending (unacked qos-1) bookkeeping held by the broker."""

    def __init__(self, broker: "Broker", session_id: str, node_id: str, privileged: bool):
        self.broker = broker
        self.session_id = session_id
        self.node_id = node_id
        self.privileged = privileged
        self.connected = True
        self.inbox: list[Frame] = []
        self.pending: dict[MsgId, PendingEntry] = {}
        self.subscriptions: dict[str, Subscription] = {}  # by filter text
        self._pub_seq = 0

    def next_msg_id(self) -> MsgId:
        self._pub_seq += 1
        return MsgId(self.session_id, self._pub_seq)

    def publish(self, topic: str, payload: str, qos: int = 0, retain: bool = False) -> MsgId:
        return self.broker.publish(self, topic, payload, qos=qos, retain=retain)

    def subscribe(self, topic_filter: str) -> int:
        return self.broker.subscribe(self, topic_filter)

    def ack(self, msg_id: MsgId) -> bool:
        return self.broker.ack(self, msg_id)

    def drain(self) -> list[Frame]:
        out, self.inbox = self.inbox, []
        return out


class Broker:
    """In-process broker. All queue mutations run on the caller's thread;
    the scenario runner serializes component steps, which realizes the
    per-subscription serialization the contract asks for."""

    def __init__(self, clock=None, authenticator: Callable[[str, str], bool] | None = None):
        self.clock = clock
        self.authenticator = authenticator
        self.sessions: dict[str, Session] = {}
        self.retained: dict[str, Frame] = {}
        self.dead_letter: list[tuple[str, Frame]] = []  # (session_id, frame)
        self._root = _TrieNode()
        self._sub_counter = 0
        self._session_counter = 0

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    # -- connection lifecycle -------------------------------------------

    def connect(self, node_id: str, credential: str) -> Session:
        """Node attachment; refused unless the authenticator passes."""
        if self.authenticator is not None and not self.authenticator(node_id, credential):
            raise AuthFailed(node_id)
        return self._new_session(node_id, privileged=False)

    def connect_service(self, service_id: str) -> Session:
        """Attachment for trusted cloud-side services (no ACL)."""
        return self._new_session(service_id, privileged=True)

    def _new_session(self, node_id: str, privileged: bool) -> Session:
        self._session_counter += 1
        sid = f"{node_id}#{self._session_counter}"
        session = Session(self, sid, node_id, privileged)
        self.sessions[sid] = session
        return session

    def disconnect(self, session: Session) -> None:
        session.connected = False
        self.sessions.pop(session.session_id, None)
        for sub in session.subscriptions.values():
            self._unlink(sub)
        session.subscriptions.clear()

    def drop_node(self, node_id: str) -> int:
        """Force-close every live session of a node (quarantine path)."""
        victims = [s for s in self.sessions.values() if s.node_id == node_id]
        for s in victims:
            self.disconnect(s)
        return len(victims)

    # -- pub/sub ---------------------------------------------------------

    def publish(
        self, session: Session, topic: str, payload: str, qos: int = 0, retain: bool = False
    ) -> MsgId:
        if not session.connected:
            raise NotConnected(session.session_id)
        tsegs = validate_topic(topic)
        if not session.privileged and not _acl_allows(session.node_id, tsegs):
            raise NotAuthorized(f"{session.node_id} may not publish to {topic}")
        frame = Frame(
            topic=topic,
            msg_id=session.next_msg_id(),
            qos=qos,
            ts=self._now(),
            payload=payload,
        )
        if retain:
            self.retained[topic] = frame
        subs: list[Subscription] = []
        _collect(self._root, tsegs, 0, subs)
        # once per session, in the order of its earliest matching filter
        subs.sort(key=lambda sub: sub.sub_id)
        delivered: set[Session] = set()
        for sub in subs:
            if sub.session not in delivered:
                delivered.add(sub.session)
                self._deliver(sub.session, frame)
        return frame.msg_id

    def _deliver(self, session: Session, frame: Frame) -> None:
        session.inbox.append(frame)
        if frame.qos >= 1:
            session.pending[frame.msg_id] = PendingEntry(frame, 1, self._now())

    def subscribe(self, session: Session, topic_filter: str) -> int:
        if not session.connected:
            raise NotConnected(session.session_id)
        flt = TopicFilter(topic_filter)
        sub = session.subscriptions.get(topic_filter)
        if sub is not None:
            return sub.sub_id  # set semantics: one copy per frame
        self._sub_counter += 1
        sub = Subscription(self._sub_counter, session, flt)
        session.subscriptions[topic_filter] = sub
        node = self._root
        for seg in flt.segments:
            child = node.children.get(seg)
            if child is None:
                child = node.children[seg] = _TrieNode()
            node = child
        node.subs[sub.sub_id] = sub
        # late joiner gets retained frames, oldest stored topic first
        matches = [f for f in self.retained.values() if flt.matches(f.topic)]
        for frame in sorted(matches, key=lambda f: (f.ts, f.topic)):
            self._deliver(session, frame)
        return sub.sub_id

    def _unlink(self, sub: Subscription) -> None:
        """Remove a subscription from the trie and prune emptied nodes."""
        segs = sub.topic_filter.segments
        path = [self._root]
        for seg in segs:
            path.append(path[-1].children[seg])
        del path[-1].subs[sub.sub_id]
        for depth in range(len(segs), 0, -1):
            if path[depth].subs or path[depth].children:
                break
            del path[depth - 1].children[segs[depth - 1]]

    def ack(self, session: Session, msg_id: MsgId) -> bool:
        return session.pending.pop(msg_id, None) is not None

    def redeliver_pending(self, now: float | None = None) -> int:
        """Resend overdue qos-1 frames; frames that already used their
        delivery budget move to the dead-letter queue."""
        if now is None:
            now = self._now()
        redelivered = 0
        for session in list(self.sessions.values()):
            for msg_id, entry in list(session.pending.items()):
                if now - entry.last_sent_ts < ACK_TIMEOUT_S:
                    continue
                if entry.delivery_count >= MAX_DELIVERIES:
                    session.pending.pop(msg_id)
                    self.dead_letter.append((session.session_id, entry.frame))
                    continue
                entry.delivery_count += 1
                entry.last_sent_ts = now
                session.inbox.append(entry.frame)
                redelivered += 1
        return redelivered
