"""Outside-in instrumentation of iotra for the benchmark.

Nothing under ``src/`` is changed. The benchmark replaces public
functions from outside: an instance attribute shadows a bound method
(``world.broker.publish``), or a module attribute replaces a module
function (``iotra.infomodel.decode_report``). Callers inside iotra look
these names up at call time, so they reach the wrapper.

Two instruments live here:

- ``Stamps``: the untraced run's only hooks. Two clock reads per
  reading, one when ``EdgeNode.ingest_raw`` returns and one when the
  reading reaches ``Store.append``, plus the exactly-once ledger that
  the correctness gate uses.
- ``Tracer``: spans (name, start, end, parent span, request id) kept in
  memory and written out when the run ends. A request id is the
  reading's ``(node, channel, seq)``.

Only this process is measured; nothing system-wide is traced.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path

perf_ns = time.perf_counter_ns

# The modules under src/iotra/, in data-path order.
LAYERS = ("infomodel", "edge", "msgbus", "cloudgw", "twins", "streams", "tsdb",
          "controlplane", "harness")

TSDB_QUERIES = ("tsdb.query_range", "tsdb.downsample", "tsdb.find_channels")


def reading_rid(reading):
    ch = reading.channel
    return (ch.node_id, ch.sensor_name, reading.seq)


def _restore(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


class Stamps:
    """Acquisition and store stamps for one untraced repetition."""

    def __init__(self):
        self.acquired: dict = {}
        self.latencies_s: list[float] = []
        self.extra: list = []  # stored twice, or stored but never generated
        self._patches: list = []

    def install(self, world) -> None:
        acquired = self.acquired
        pc = time.perf_counter
        for node in world.nodes:
            ingest = node.edge.ingest_raw

            def stamped_ingest(sensor, raw, now, _ingest=ingest):
                reading = _ingest(sensor, raw, now)
                acquired[(reading.channel, reading.seq)] = pc()
                return reading

            self._patches.append((node.edge, "ingest_raw", ingest))
            node.edge.ingest_raw = stamped_ingest

        append = world.tsdb.append
        latencies, extra = self.latencies_s, self.extra

        def stamped_append(reading):
            if reading.seq is not None:  # stream sinks store unsequenced rows
                t = pc()
                key = (reading.channel, reading.seq)
                t0 = acquired.pop(key, None)
                if t0 is None:
                    extra.append(key)
                elif reading.ts > 0.0:
                    # readings of the first tick wait for their channel's
                    # file to be created: a one-time cost per channel
                    latencies.append(t - t0)
            return append(reading)

        self._patches.append((world.tsdb, "append", append))
        world.tsdb.append = stamped_append

    def uninstall(self) -> None:
        _restore(self._patches)

    @property
    def lost(self) -> list:
        """Readings generated but never stored, as (ChannelKey, seq)."""
        return list(self.acquired)


class Tracer:
    """Span recorder. Each span is [name, start_ns, end_ns, parent, rid]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.payload_rid: dict[str, tuple] = {}
        self.uplink_depth_max = 0
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str, rid_args=None, rid_result=None,
             on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``rid_args(args)`` or ``rid_result(result)`` gives the request id;
        without either the span inherits its parent's. ``on_result`` sees
        every result, for counts taken at the same boundary.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if rid_args is not None:
                rid = rid_args(args)
            else:
                rid = spans[parent][4] if parent >= 0 else None
            span = [name, 0, 0, parent, rid]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_ns()
                stack.pop()
            if rid_result is not None:
                span[4] = rid_result(result)
            if on_result is not None:
                on_result(args, result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def root(self, name: str, fn, *args):
        """Run ``fn`` inside a top-level span; returns (result, wall_s)."""
        span = [name, 0, 0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_ns()
        try:
            result = fn(*args)
        finally:
            span[2] = perf_ns()
            self._stack.pop()
        return result, (span[2] - span[1]) / 1e9

    def uninstall(self) -> None:
        _restore(self._patches)

    # -- wiring ----------------------------------------------------------

    def instrument_world(self, world, infomodel_mod) -> None:
        """Wrap every layer boundary a scenario run crosses."""
        payload_rid = self.payload_rid

        def remember_payload(args, payload):
            payload_rid[payload] = reading_rid(args[1][0])

        self.wrap(infomodel_mod, "encode_report", "infomodel.encode",
                  rid_args=lambda a: reading_rid(a[1][0]), on_result=remember_payload)
        self.wrap(infomodel_mod, "decode_report", "infomodel.decode",
                  rid_args=lambda a: payload_rid.get(a[0]))
        self.wrap(infomodel_mod, "payload_to_scalars", "infomodel.validate")
        self.wrap(world.model, "validate_payload", "infomodel.validate")
        for node in world.nodes:
            self.wrap(node.edge, "ingest_raw", "edge.ingest", rid_result=reading_rid)
            self.wrap(node.edge, "flush", "edge.flush")

        def sample_uplinks(args, result):
            self.counts["msgbus.redelivered"] += result
            depth = max(len(n.edge.uplink) for n in world.nodes)
            if depth > self.uplink_depth_max:
                self.uplink_depth_max = depth

        self.wrap(world.broker, "publish", "msgbus.publish",
                  rid_args=lambda a: payload_rid.get(a[2]))
        self.wrap(world.broker, "redeliver_pending", "msgbus.redeliver",
                  on_result=sample_uplinks)
        # the broker captured the bound method at construction
        self.wrap(world.broker, "authenticator", "controlplane.authenticate")

        def count_admit(args, decision):
            if args[1].startswith("data/"):
                self.counts["cloudgw.attempted"] += 1
                self.counts["cloudgw.admitted"] += decision.admitted

        self.wrap(world.gateway, "admit", "cloudgw.admit",
                  rid_args=lambda a: payload_rid.get(a[2]), on_result=count_admit)
        self.wrap(world.gateway, "route", "cloudgw.route")
        self.wrap(world.twins, "apply_report", "twins.apply_report")
        if world.pipeline is not None:
            self.wrap(world.pipeline, "process", "streams.process",
                      rid_args=lambda a: reading_rid(a[0]))
        self.wrap(world.monitor, "observe", "controlplane.observe")
        self.instrument_store(world.tsdb)

    def instrument_store(self, store) -> None:
        self.wrap(store, "append", "tsdb.append", rid_args=lambda a: reading_rid(a[0]))

        def count_rows(args, result):
            # downsample calls query_range; count only the outer query
            parent = self._stack[-1] if self._stack else -1
            if parent < 0 or not self.spans[parent][0].startswith("tsdb."):
                self.counts["tsdb.queries"] += 1
                self.counts["tsdb.rows"] += len(result)

        for name in TSDB_QUERIES:
            attr = name.split(".")[1]
            self.wrap(store, attr, name, on_result=count_rows)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """(self ns, calls) per span name. Self time is the span's
        duration minus the time its direct children cover."""
        spans = self.spans
        child = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for i, s in enumerate(spans):
            self_ns[s[0]] += s[2] - s[1] - child[i]
            calls[s[0]] += 1
        return self_ns, calls

    def wait_ms_p50(self, from_name: str, from_end: bool, to_name: str) -> float:
        """Median wait between two boundaries of the same reading: the end
        (or start) of its first ``from_name`` span to the start of its
        first ``to_name`` span."""
        first_from: dict = {}
        first_to: dict = {}
        for s in self.spans:
            rid = s[4]
            if rid is None:
                continue
            if s[0] == from_name and rid not in first_from:
                first_from[rid] = s[2] if from_end else s[1]
            elif s[0] == to_name and rid not in first_to:
                first_to[rid] = s[1]
        waits = [(first_to[r] - t) / 1e6 for r, t in first_from.items() if r in first_to]
        return statistics.median(waits) if waits else 0.0

    def write(self, fh, run: int) -> None:
        """Write the spans as tab-separated rows, one per span."""
        for i, (name, start, end, parent, rid) in enumerate(self.spans):
            node, channel, seq = rid if rid is not None else ("", "", "")
            fh.write(f"{run}\t{i}\t{name}\t{start}\t{end}\t{parent}\t{node}\t{channel}\t{seq}\n")


def write_spans(path: Path, tracers: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run\tindex\tname\tstart_ns\tend_ns\tparent\tnode\tchannel\tseq\n")
        for run, tracer in enumerate(tracers):
            tracer.write(fh, run)
