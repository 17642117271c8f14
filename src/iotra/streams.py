"""Real-time path: DAG pipeline over in-flight readings plus a bounded
time-indexed replay store.

Pipelines are declared as JSON {nodes[], edges[]} and validated up
front (acyclic, sources have no inputs, sinks no outputs, everything
reachable from a source). Windows run on event time with a watermark
trailing the newest timestamp by a fixed allowed lateness; readings
older than any window they could still join are dropped and counted.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .msgbus import TopicFilter
from .reading import COMPARATORS, Reading
from .tsdb import AGGREGATES, aggregate

NODE_KINDS = {"source", "filter", "map", "window", "merge", "sink"}
SINK_DESTS = {"topic", "tsdb", "twin_desired", "notify"}

ALLOWED_LATENESS_S = 1.0
REPLAY_MAX_ENTRIES = 100_000
REPLAY_MAX_SPAN_S = 60.0


class StreamError(Exception):
    pass


class BadPipeline(StreamError):
    pass


class ArityMismatch(StreamError):
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
    params: dict
    item: Item


@dataclass(slots=True)
class _Node:
    node_id: str
    kind: str
    params: dict
    compiled: tuple = ()  # see _compile


class _WindowState:
    def __init__(self, size_ms: int, slide_ms: int, agg: str):
        if agg not in AGGREGATES:
            raise BadPipeline(f"unknown window aggregate {agg!r}")
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
                        value=aggregate(self.agg, vals),
                        channel=channel,
                        meta={"bucket_start": b - self.size, "agg": self.agg,
                              "count": len(vals)},
                    )
                )
            elif self.agg == "count":
                out.append(
                    Item(ts=b, value=0.0, channel=channel,
                         meta={"bucket_start": b - self.size, "agg": "count",
                               "count": 0})
                )
            self.next_boundary = b + self.slide
            lo = self.next_boundary - self.size
            while self.entries and self.entries[0][0] < lo:
                self.entries.popleft()
        return out


def _selector_filter(selector: str) -> TopicFilter:
    """Channel selector (``*`` is one segment) as a topic filter; raises
    msgbus.BadFilter."""
    return TopicFilter(selector.replace("*", "+"))


class Pipeline:
    """Validated DAG engine. Readings are processed serially; per-channel
    input order must be preserved by the caller."""

    def __init__(self, spec: dict):
        self.nodes: dict[str, _Node] = {}
        self.edges: list[tuple[str, str]] = []
        self._build(spec)
        self._sources = [
            (nid, _selector_filter(n.params.get("selector", "#")))
            for nid, n in self.nodes.items()
            if n.kind == "source"
        ]
        self._order = self._topo_order()
        self._downstream: dict[str, list[str]] = {}
        for a, b in self.edges:
            self._downstream.setdefault(a, []).append(b)
        self._windows: dict[str, _WindowState] = {
            n.node_id: _WindowState(
                int(n.params["size_ms"]), int(n.params["slide_ms"]), n.params["agg"]
            )
            for n in self.nodes.values()
            if n.kind == "window"
        }
        self.watermark = float("-inf")

    # -- validation ------------------------------------------------------

    def _build(self, spec: dict) -> None:
        for nd in spec.get("nodes", []):
            kind = nd.get("kind")
            if kind not in NODE_KINDS:
                raise UnknownKind(str(kind))
            nid = nd["node_id"]
            if nid in self.nodes:
                raise BadPipeline(f"duplicate node id {nid}")
            params = nd.get("params", {})
            if kind == "sink" and params.get("dest") not in SINK_DESTS:
                raise BadPipeline(f"sink {nid} needs a dest in {sorted(SINK_DESTS)}")
            self.nodes[nid] = _Node(nid, kind, params, _compile(nid, kind, params))
        for a, b in spec.get("edges", []):
            if a not in self.nodes or b not in self.nodes:
                raise BadPipeline(f"edge references unknown node: {a} -> {b}")
            self.edges.append((a, b))
        indeg = {n: 0 for n in self.nodes}
        outdeg = {n: 0 for n in self.nodes}
        for a, b in self.edges:
            outdeg[a] += 1
            indeg[b] += 1
        for n, node in self.nodes.items():
            if node.kind == "source" and indeg[n] != 0:
                raise BadPipeline(f"source {n} has inputs")
            if node.kind == "sink" and outdeg[n] != 0:
                raise BadPipeline(f"sink {n} has outputs")
            if node.kind != "source" and indeg[n] == 0:
                raise BadPipeline(f"{n} is unreachable from any source")

    def _topo_order(self) -> list[str]:
        indeg = {n: 0 for n in self.nodes}
        for _, b in self.edges:
            indeg[b] += 1
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order = []
        adj: dict[str, list[str]] = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
        while ready:
            n = ready.pop(0)
            order.append(n)
            for m in adj.get(n, []):
                indeg[m] -= 1
                if indeg[m] == 0:
                    ready.append(m)
            ready.sort()
        if len(order) != len(self.nodes):
            raise BadPipeline("pipeline graph has a cycle")
        return order

    # -- evaluation ------------------------------------------------------

    def eval_node(self, node_id: str, inputs: list[Item]) -> list[Item]:
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownKind(node_id)
        if node.kind != "merge" and len(inputs) > 1:
            raise ArityMismatch(f"{node.kind} node takes one input")
        if node.kind == "filter":
            item = inputs[0]
            cmp, threshold = node.compiled
            return [item] if cmp(item.value, threshold) else []
        if node.kind == "map":
            item = inputs[0]
            scale, offset, unit = node.compiled
            return [
                Item(
                    ts=item.ts,
                    value=item.value * scale + offset,
                    channel=item.channel,
                    unit=unit or item.unit,
                    meta=dict(item.meta),
                )
            ]
        if node.kind == "merge":
            out = []
            for item in inputs:
                merged = Item(item.ts, item.value, item.channel, item.unit,
                              dict(item.meta))
                merged.meta.setdefault("merged_from", item.channel)
                out.append(merged)
            return out
        if node.kind == "window":
            # windows buffer on add and emit on watermark advance
            state = self._windows[node_id]
            state.add(inputs[0])
            return []
        if node.kind in ("source", "sink"):
            return list(inputs)
        raise UnknownKind(node.kind)

    def process(self, reading: Reading) -> list[Emission]:
        """Inject a reading at every matching source and propagate it in
        topological order."""
        item = Item(
            ts=reading.ts,
            value=float(reading.value),
            channel=str(reading.channel),
            unit=reading.unit,
            meta={"seq": reading.seq},
        )
        staged = {nid: [item] for nid, flt in self._sources if flt.matches(item.channel)}
        emissions = self._propagate(staged)
        if item.ts > self.watermark + ALLOWED_LATENESS_S:
            self.watermark = item.ts - ALLOWED_LATENESS_S
            emissions.extend(self._flush_windows(self.watermark))
        return emissions

    def _propagate(self, staged: dict[str, list[Item]]) -> list[Emission]:
        emissions: list[Emission] = []
        for nid in self._order:
            inputs = staged.pop(nid, None)
            if not inputs:
                continue
            node = self.nodes[nid]
            if node.kind == "sink":
                for item in inputs:
                    emissions.append(
                        Emission(nid, node.params["dest"], dict(node.params), item)
                    )
                continue
            outputs = self.eval_node(nid, inputs)
            for child in self._downstream.get(nid, []):
                staged.setdefault(child, []).extend(outputs)
        return emissions

    def _flush_windows(self, watermark: float) -> list[Emission]:
        staged: dict[str, list[Item]] = {}
        for nid, state in self._windows.items():
            outs = state.flush(watermark, channel=nid)
            if outs:
                for child in self._downstream.get(nid, []):
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


def load_pipeline(path: Path) -> Pipeline:
    return Pipeline(json.loads(Path(path).read_text(encoding="utf-8")))


def _compile(nid: str, kind: str, params: dict) -> tuple:
    """What a filter node (comparator, threshold) or a map node (scale,
    offset, unit) evaluates with, checked once; raises BadPipeline."""
    if kind == "filter":
        op = params.get("op", ">")
        if op not in COMPARATORS:
            raise BadPipeline(f"filter {nid}: unknown op {op!r}")
        return COMPARATORS[op], _number(nid, params, "threshold")
    if kind != "map":
        return ()
    preset = params.get("transform")
    if preset == "f_to_c":
        return 5.0 / 9.0, -160.0 / 9.0, params.get("to_unit", "°C")
    if preset == "c_to_f":
        return 9.0 / 5.0, 32.0, params.get("to_unit", "°F")
    if preset is not None:
        raise BadPipeline(f"map {nid}: unknown transform {preset!r}")
    return (_number(nid, params, "scale", 1.0), _number(nid, params, "offset", 0.0),
            params.get("to_unit", ""))


def _number(nid: str, params: dict, key: str, default: float | None = None) -> float:
    raw = params.get(key, default)
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise BadPipeline(f"{nid}: {key} must be a number, got {raw!r}") from None


class ReplayStore:
    """Bounded ring of recent readings/events with time-range replay.

    Capacity is whichever binds first: entry count or time span.
    """

    def __init__(
        self,
        max_entries: int = REPLAY_MAX_ENTRIES,
        max_span_s: float = REPLAY_MAX_SPAN_S,
    ):
        self.max_entries = max_entries
        self.max_span_s = max_span_s
        self._entries: deque[tuple[float, str, str, float, dict]] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, ts: float, kind: str, channel: str, value: float,
            meta: dict | None = None) -> None:
        self._entries.append((ts, kind, channel, value, meta or {}))
        while len(self._entries) > self.max_entries:
            self._entries.popleft()
        newest = self._entries[-1][0]
        while self._entries and newest - self._entries[0][0] > self.max_span_s:
            self._entries.popleft()

    def replay(
        self, from_ts: float, to_ts: float, selector: str | None = None
    ) -> list[tuple[float, str, str, float, dict]]:
        """Retained entries in [from_ts, to_ts) matching the channel
        selector, in time order."""
        if from_ts > to_ts:
            raise StreamError("from_ts must be <= to_ts")
        flt = None if selector is None else _selector_filter(selector)
        out = [
            e
            for e in self._entries
            if from_ts <= e[0] < to_ts and (flt is None or flt.matches(e[2]))
        ]
        out.sort(key=lambda e: e[0])
        return out
