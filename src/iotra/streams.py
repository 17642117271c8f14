"""Real-time path: DAG pipeline over in-flight readings.

Pipelines are declared as JSON {nodes[], edges[]} and validated up
front (acyclic, sources have no inputs, sinks no outputs, everything
reachable from a source, params well formed). Each node is compiled once
into an operator from one item to one item or None, and each sink into its
target: a topic, ``ChannelKey``, (node, prop) pair or None. Items move one at a
time, so any node may have several inputs; ``merge`` only tags each item
with ``merged_from``. Windows run on event time with a watermark
trailing the newest timestamp by a fixed allowed lateness; readings
older than any window they could still join are dropped and counted.
A window that holds no reading emits nothing, ``count`` included, as
``tsdb.downsample`` omits an empty bucket; a gap costs one step.

Streams carry numbers, a bool as 1.0 or 0.0: a reading whose value is a
string or a ``t:`` timestamp matches no source and moves no watermark.

The sources whose selector matches a channel are looked up once per
channel and memoised. Channel names come from outside the program, so
the memo holds at most ``reading.TEXT_MEMO_SIZE`` of them.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .msgbus import BadTopic, TopicFilter, validate_topic
from .reading import COMPARATORS, ChannelKey, Reading, remember
from .tsdb import AGGREGATES

NODE_KINDS = {"source", "filter", "map", "window", "merge", "sink"}
SINK_DESTS = {"topic", "tsdb", "twin_desired", "notify"}
DEFAULT_TOPIC = "derived/out"  # where a topic sink with no topic publishes
DEFAULT_CHANNEL = "derived/stream"  # where a tsdb sink with no channel stores
SinkTarget = str | ChannelKey | tuple[str, str] | None

ALLOWED_LATENESS_S = 1.0


class StreamError(Exception):
    pass


class BadPipeline(StreamError):
    pass


class UnknownKind(StreamError):
    pass


@dataclass(slots=True)
class Item:
    """One value flowing through the pipeline."""

    ts: float
    value: float
    channel: str  # "node/sensor"
    unit: str = ""
    meta: dict = field(default_factory=dict)


@dataclass(slots=True)
class Emission:
    sink_id: str
    dest: str
    target: SinkTarget
    item: Item


class _WindowState:
    def __init__(self, size_ms: int, slide_ms: int, agg: str):
        try:
            self.fn = AGGREGATES[agg]
        except (KeyError, TypeError):
            raise BadPipeline(f"unknown window aggregate {agg!r}") from None
        if size_ms <= 0 or slide_ms <= 0:
            raise BadPipeline(f"window needs size_ms, slide_ms > 0: {size_ms}, {slide_ms}")
        self.size = size_ms / 1000.0
        self.slide = slide_ms / 1000.0
        self.agg = agg
        self.entries: deque[tuple[float, float]] = deque()
        self.next_boundary: float | None = None
        self.late = 0

    def add(self, item: Item) -> bool:
        """Buffer an entry; False (and counted) if it can no longer join
        any unemitted window."""
        if self.next_boundary is None:
            base = (item.ts // self.slide) * self.slide
            self.next_boundary = base + self.slide
        if item.ts < self.next_boundary - self.size:
            self.late += 1
            return False
        self.entries.append((item.ts, item.value))
        return True

    def flush(self, watermark: float, channel: str) -> list[Item]:
        """An item for each window that closes by ``watermark`` and holds an
        entry; an empty window, of any aggregate, emits nothing. Past an
        empty window the boundary moves straight to the first one on the
        grid whose window can hold the oldest entry still to come, or past
        the watermark, so a gap costs one step however long it is."""
        out: list[Item] = []
        if self.next_boundary is None:
            return out
        while self.next_boundary <= watermark:
            b = self.next_boundary
            vals = [v for ts, v in self.entries if b - self.size <= ts < b]
            if vals:
                out.append(
                    Item(
                        ts=b,
                        value=self.fn(vals),
                        channel=channel,
                        meta={"bucket_start": b - self.size, "agg": self.agg,
                              "count": len(vals)},
                    )
                )
                self.next_boundary = b + self.slide
            else:  # every entry is older than this window or not older than b
                oldest = min((ts for ts, _ in self.entries if ts >= b), default=watermark)
                self.next_boundary = self._boundary_after(b, min(oldest, watermark))
            lo = self.next_boundary - self.size
            while self.entries and self.entries[0][0] < lo:
                self.entries.popleft()
        return out

    def _boundary_after(self, b: float, ts: float) -> float:
        """The first boundary ``b + k * slide`` (k >= 1) later than ``ts`` >= b."""
        k = max(1, int((ts - b) // self.slide))  # at most the answer
        while b + k * self.slide <= ts:
            k += 1
        return b + k * self.slide


def _selector_filter(selector: str) -> TopicFilter:
    """Channel selector (``*`` is one segment) as a topic filter; raises
    msgbus.BadFilter."""
    return TopicFilter(selector.replace("*", "+"))


class Pipeline:
    """Validated DAG engine. Readings are processed serially; per-channel
    input order must be preserved by the caller."""

    def __init__(self, spec: dict):
        kinds: dict[str, str] = {}
        self._ops: dict[str, Callable[[Item], Item | None]] = {}
        self.sinks: dict[str, tuple[str, SinkTarget]] = {}  # sink id -> (dest, target)
        self._sources: list[tuple[str, TopicFilter]] = []
        self._source_plans: dict[str, tuple[str, ...]] = {}  # channel -> source ids
        self._windows: dict[str, _WindowState] = {}
        for nd in spec.get("nodes", []):
            kind = nd.get("kind")
            if kind not in NODE_KINDS:
                raise UnknownKind(str(kind))
            nid = nd["node_id"]
            if nid in kinds:
                raise BadPipeline(f"duplicate node id {nid}")
            kinds[nid] = kind
            params = nd.get("params", {})
            if kind == "sink":
                self.sinks[nid] = _parse_sink(nid, params)
            else:
                self._ops[nid] = self._operator(nid, kind, params)
        self._children: dict[str, list[str]] = {nid: [] for nid in kinds}
        indeg = dict.fromkeys(kinds, 0)
        for a, b in spec.get("edges", []):
            if a not in kinds or b not in kinds:
                raise BadPipeline(f"edge references unknown node: {a} -> {b}")
            self._children[a].append(b)
            indeg[b] += 1
        for nid, kind in kinds.items():
            if kind == "source" and indeg[nid]:
                raise BadPipeline(f"source {nid} has inputs")
            if kind == "sink" and self._children[nid]:
                raise BadPipeline(f"sink {nid} has outputs")
            if kind != "source" and not indeg[nid]:
                raise BadPipeline(f"{nid} is unreachable from any source")
        self._order = _topo_order(self._children, indeg)
        self.watermark = float("-inf")

    def _operator(self, nid: str, kind: str, params: dict) -> Callable[[Item], Item | None]:
        """Node ``nid`` compiled to what it does with one item: the item
        it passes on, or None. Raises BadPipeline on bad params."""
        if kind == "source":
            self._sources.append((nid, _selector_filter(params.get("selector", "#"))))
            return lambda item: item
        if kind == "merge":
            return lambda item: Item(item.ts, item.value, item.channel, item.unit,
                                     {**item.meta, "merged_from": item.channel})
        if kind == "window":
            state = self._windows[nid] = _WindowState(
                int(params["size_ms"]), int(params["slide_ms"]), params["agg"])

            def buffer(item: Item) -> None:
                state.add(item)  # not its bool: a window emits on watermark steps

            return buffer
        if kind == "filter":
            op = params.get("op", ">")
            if op not in COMPARATORS:
                raise BadPipeline(f"filter {nid}: unknown op {op!r}")
            cmp, threshold = COMPARATORS[op], _number(nid, params, "threshold")
            return lambda item: item if cmp(item.value, threshold) else None
        preset = params.get("transform")
        if preset == "f_to_c":
            scale, offset, unit = 5.0 / 9.0, -160.0 / 9.0, params.get("to_unit", "°C")
        elif preset == "c_to_f":
            scale, offset, unit = 9.0 / 5.0, 32.0, params.get("to_unit", "°F")
        elif preset is not None:
            raise BadPipeline(f"map {nid}: unknown transform {preset!r}")
        else:
            scale = _number(nid, params, "scale", 1.0)
            offset = _number(nid, params, "offset", 0.0)
            unit = params.get("to_unit", "")
        return lambda item: Item(item.ts, item.value * scale + offset, item.channel,
                                 unit or item.unit, dict(item.meta))

    def process(self, reading: Reading) -> list[Emission]:
        """Inject a reading at every matching source and propagate it in
        topological order; one whose value is not a number matches none."""
        if not isinstance(reading.value, (int, float)):  # a str or a t: scalar
            return []
        item = Item(reading.ts, float(reading.value), str(reading.channel),
                    reading.unit, {"seq": reading.seq})
        sources = self._source_plans.get(item.channel)
        if sources is None:
            sources = self._source_plan(item.channel)
        emissions = self._propagate({nid: [item] for nid in sources}) if sources else []
        if item.ts > self.watermark + ALLOWED_LATENESS_S:
            self.watermark = item.ts - ALLOWED_LATENESS_S
            emissions.extend(self._flush_windows(self.watermark))
        return emissions

    def _source_plan(self, channel: str) -> tuple[str, ...]:
        """Ids of the sources whose selector matches ``channel``, memoised."""
        return remember(self._source_plans, channel,
                        tuple(nid for nid, flt in self._sources if flt.matches(channel)))

    def _propagate(self, staged: dict[str, list[Item]]) -> list[Emission]:
        """Visit nodes in topological order; each applies its operator to
        every item that reached it, by whatever edge."""
        emissions: list[Emission] = []
        for nid in self._order:
            items = staged.pop(nid, None)
            if not items:
                continue
            op = self._ops.get(nid)
            if op is None:
                dest, target = self.sinks[nid]
                emissions.extend(Emission(nid, dest, target, item) for item in items)
                continue
            children = self._children[nid]
            for item in items:
                out = op(item)
                if out is not None:
                    for child in children:
                        staged.setdefault(child, []).append(out)
        return emissions

    def _flush_windows(self, watermark: float) -> list[Emission]:
        staged: dict[str, list[Item]] = {}
        for nid, state in self._windows.items():
            outs = state.flush(watermark, channel=nid)
            for child in self._children[nid]:
                staged.setdefault(child, []).extend(outs)
        return self._propagate(staged)

    def window_flush(self, now: float) -> list[Emission]:
        """Force window emissions due at watermark ``now`` (end of trace
        or timer-driven flush)."""
        if now > self.watermark:
            self.watermark = now
        return self._flush_windows(self.watermark)

    @property
    def late_count(self) -> int:
        return sum(w.late for w in self._windows.values())


def _topo_order(children: dict[str, list[str]], indeg: dict[str, int]) -> list[str]:
    """Kahn's order, smallest ready id first; consumes ``indeg``."""
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in children[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    if len(order) != len(indeg):
        raise BadPipeline("pipeline graph has a cycle")
    return order


def _parse_sink(nid: str, params: dict) -> tuple[str, SinkTarget]:
    """A sink's dest and target; BadPipeline if its emissions could not be delivered."""
    dest = params.get("dest")
    if dest not in SINK_DESTS:
        raise BadPipeline(f"sink {nid} needs a dest in {sorted(SINK_DESTS)}")
    if dest == "twin_desired" and not (params.get("node") and params.get("prop")):
        raise BadPipeline(f"sink {nid}: twin_desired needs a node and a prop")
    try:
        if dest == "topic":
            topic = params.get("topic", DEFAULT_TOPIC)
            validate_topic(topic)
            return dest, topic
        if dest == "tsdb":
            return dest, ChannelKey.parse(params.get("channel", DEFAULT_CHANNEL))
    except (BadTopic, ValueError, AttributeError) as exc:
        raise BadPipeline(f"sink {nid}: {exc}") from None
    return dest, (params["node"], params["prop"]) if dest == "twin_desired" else None


def _number(nid: str, params: dict, key: str, default: float | None = None) -> float:
    raw = params.get(key, default)
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise BadPipeline(f"{nid}: {key} must be a number, got {raw!r}") from None
