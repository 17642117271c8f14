"""Workload inputs, generated from the seed alone.

The scenario workloads hand iotra a ``ScenarioSpec`` document; the
history workload writes its fixture through ``Store.append`` and then
issues a seeded stream of operations. Everything here is a pure
function of (workload, seed, size): the same seed gives the same inputs.
See README.md for why each workload exists.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field

SENSORS = (
    ("temp", "°F", 72.0),
    ("humidity", "%", 40.0),
    ("pressure", "hPa", 1013.0),
    ("power", "W", 120.0),
)

# Work per repetition. "full" is what the benchmark measures; "tiny"
# exercises every path in a second or two for the benchmark's own test.
SIZES = {
    "full": {
        "fleet-50": {"nodes": 50, "period_ms": 100, "duration_s": 3.0},
        "fleet-400": {"nodes": 400, "period_ms": 800, "duration_s": 1.6},
        "faults-pipeline": {"nodes": 12, "period_ms": 200, "duration_s": 30.0},
        "history-read": {"nodes": 20, "min_rows": 2200, "max_rows": 2800,
                         "queries_per_run_s": 1000, "traced_queries": 3000},
    },
    "tiny": {
        "fleet-50": {"nodes": 5, "period_ms": 100, "duration_s": 1.0},
        "fleet-400": {"nodes": 16, "period_ms": 800, "duration_s": 1.6},
        "faults-pipeline": {"nodes": 4, "period_ms": 200, "duration_s": 30.0},
        "history-read": {"nodes": 2, "min_rows": 1100, "max_rows": 1400,
                         "queries_per_run_s": 1000, "traced_queries": 200},
    },
}

SCENARIOS = ("fleet-50", "fleet-400", "faults-pipeline")
WORKLOADS = SCENARIOS + ("history-read",)

# Where these numbers come from is set out in README.md ("Sources of the
# input mix"). Channel popularity is YCSB's Zipfian: the k-th most
# popular channel is drawn with weight k ** -ZIPF_CONSTANT, with YCSB's
# default constant.
ZIPF_CONSTANT = 0.99
# YCSB's read-mostly workloads (B, D, E) give 95% of operations to one
# kind; here 95% of queries read a recent window, the rest are heavier.
RECENT_SHARE = 0.95
# A recent window holds the channel's last k readings, k uniform in
# 1..100: YCSB workload E's scan lengths.
SCAN_LENGTHS = (1, 100)
# The repository README's example: iotra query ... 0 600 --downsample 10s avg
DOWNSAMPLE_SPAN_S = 600.0
DOWNSAMPLE_BUCKET_S = 10.0


def popularity_weights(n: int) -> list[float]:
    return list(itertools.accumulate((k + 1) ** -ZIPF_CONSTANT for k in range(n)))


def _channels(rng: random.Random, period_ms: int) -> list[dict]:
    return [
        {"sensor_name": name, "sample_period_ms": period_ms, "unit": unit,
         "waveform": {"kind": "sine", "base": round(base * rng.uniform(0.95, 1.05), 3),
                      "amplitude": round(rng.uniform(1.0, 4.0), 3),
                      "period_s": round(rng.uniform(20.0, 40.0), 3)}}
        for name, unit, base in SENSORS
    ]


def scenario_doc(workload: str, seed: int, size: str = "full") -> dict:
    """The ScenarioSpec document for one scenario workload and seed."""
    cfg = SIZES[size][workload]
    rng = random.Random(f"{workload}:{seed}")
    doc = {
        "duration_s": cfg["duration_s"],
        "tick_s": 0.1,
        "seed": seed,
        "assertions": ["lossless", "seq_gap_free"],
    }
    if workload != "faults-pipeline":
        doc["nodes"] = [{"count": cfg["nodes"], "name_prefix": "desk",
                         "class_name": "multi_sensor",
                         "channels": _channels(rng, cfg["period_ms"])}]
        return doc

    n = cfg["nodes"]
    half = n // 2
    duration = cfg["duration_s"]
    doc["nodes"] = [
        {"count": half, "name_prefix": "zone-a", "class_name": "multi_sensor",
         "tags": {"zone": "a"}, "channels": _channels(rng, cfg["period_ms"])},
        {"count": n - half, "name_prefix": "zone-b", "class_name": "multi_sensor",
         "tags": {"zone": "b"}, "channels": _channels(rng, cfg["period_ms"])},
    ]
    power_base = doc["nodes"][0]["channels"][3]["waveform"]["base"]
    # The fault schedule is the same for every seed, so that seeds differ
    # in signals and replays but not in how much work the faults cause:
    # 5 of 12 nodes from both zones, offline from 30% to 60% of the run.
    out = max(1, round(n * 5 / 12))
    outage_nodes = list(range(1, (out + 1) // 2 + 1)) + list(
        range(half + 1, half + 1 + out // 2))
    start, end = round(0.3 * duration, 1), round(0.6 * duration, 1)
    doc["route_rules"] = [
        {"selector": {"topic": "data/#"}, "destinations": ["tsdb", "streams"]},
        {"selector": {"topic": "data/#", "tag": "zone=a"}, "destinations": ["twin"]},
    ]
    doc["pipeline"] = {
        "nodes": [
            {"node_id": "temps", "kind": "source", "params": {"selector": "*/temp"}},
            {"node_id": "to_c", "kind": "map", "params": {"transform": "f_to_c"}},
            {"node_id": "avg5", "kind": "window",
             "params": {"size_ms": 5000, "slide_ms": 1000, "agg": "avg"}},
            {"node_id": "store_avg", "kind": "sink",
             "params": {"dest": "tsdb", "channel": "derived/temp_avg_c"}},
            {"node_id": "powers", "kind": "source", "params": {"selector": "*/power"}},
            {"node_id": "high", "kind": "filter",
             "params": {"op": ">", "threshold": power_base}},
            {"node_id": "alert", "kind": "sink", "params": {"dest": "notify"}},
        ],
        "edges": [["temps", "to_c"], ["to_c", "avg5"], ["avg5", "store_avg"],
                  ["powers", "high"], ["high", "alert"]],
    }
    doc["faults"] = [
        {"kind": "uplink_outage", "nodes": outage_nodes, "start": start, "end": end},
        {"kind": "duplicate_replay", "nodes": "all", "start": 0.0, "end": duration,
         "params": {"probability": 0.2}},
    ]
    doc["actions"] = [
        {"kind": "set_desired", "at": round(start + 0.25 * (end - start), 1),
         "node": f"n-{outage_nodes[0]:06d}", "set": {"setpoint": "n:68"}},
        {"kind": "set_desired", "at": round(start + 0.5 * (end - start), 1),
         "node": f"n-{outage_nodes[-1]:06d}",
         "set": {"fan_power": "b:true", "setpoint": "n:70"}},
    ]
    doc["assertions"] = ["exact_multiset", {"check": "all_converged"},
                         {"check": "flush_within", "seconds": 5.0}]
    return doc


# -- query references --------------------------------------------------------


def expected_downsample(pairs, t1: float, interval: float, agg: str) -> list:
    """Reference for ``Store.downsample`` from (ts, value) pairs in order."""
    buckets: dict[int, list[float]] = {}
    for ts, v in pairs:
        buckets.setdefault(int((ts - t1) // interval), []).append(float(v))
    fn = {"avg": lambda v: sum(v) / len(v), "min": min, "max": max}[agg]
    return [(t1 + k * interval, fn(buckets[k])) for k in sorted(buckets)]


def same_buckets(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        a[0] == b[0] and math.isclose(a[1], b[1], rel_tol=1e-9, abs_tol=1e-9)
        for a, b in zip(got, want)
    )


# -- history-read ------------------------------------------------------------

HISTORY_T0 = 1_600_000_000.0  # 2020-09-13, whole seconds: exact floats
# YCSB workload A's 50% reads, 50% updates: one append per query
APPENDS_PER_QUERY = 1
ZONES = ("z0", "z1", "z2", "z3")
SITES = ("s0", "s1")


@dataclass(slots=True)
class RefChannel:
    """The values the fixture generated for one channel, in ts order."""

    unit: str
    tags: dict
    base: float
    ts: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def next_value(self, rng: random.Random) -> float:
        k = len(self.ts)
        return round(self.base + 3.0 * math.sin(k / 90.0) + rng.gauss(0.0, 0.5), 3)


class History:
    """Fixture plan, reference values and the seeded operation stream."""

    def __init__(self, seed: int, size: str = "full"):
        from iotra.reading import ChannelKey

        cfg = SIZES[size]["history-read"]
        self.cfg = cfg
        self.seed = seed
        self.rng = random.Random(f"history-read:{seed}")
        self.ref: dict = {}
        for node in range(1, cfg["nodes"] + 1):
            tags = {"zone": self.rng.choice(ZONES), "site": self.rng.choice(SITES)}
            for name, unit, base in SENSORS:
                key = ChannelKey(f"n-{node:06d}", name)
                self.ref[key] = RefChannel(unit, tags, base * self.rng.uniform(0.9, 1.1))
        self.channels = sorted(self.ref, key=str)
        ranked = list(self.channels)
        self.rng.shuffle(ranked)
        self.ranked = ranked
        self.cum = popularity_weights(len(ranked))
        self.restart_queries()

    def restart_queries(self) -> None:
        """Start the query stream over; appended values continue."""
        self.ops = random.Random(f"history-read-ops:{self.seed}")

    def reading(self, key):
        """The channel's next reading; also recorded in the reference."""
        from iotra.reading import Reading

        ref = self.ref[key]
        value = ref.next_value(self.rng)
        ts = HISTORY_T0 + len(ref.ts)
        ref.ts.append(ts)
        ref.values.append(value)
        return Reading(channel=key, value=value, unit=ref.unit, ts=ts,
                       seq=len(ref.ts), tags=ref.tags)

    def fixture(self):
        """Every fixture reading, channel by channel."""
        for key in self.channels:
            for _ in range(self.rng.randint(self.cfg["min_rows"], self.cfg["max_rows"])):
                yield self.reading(key)

    @property
    def row_count(self) -> int:
        return sum(len(r.ts) for r in self.ref.values())

    def next_op(self) -> tuple[list, tuple]:
        """(channels to append to, one query) for the next iteration."""
        rng = self.ops
        appends = rng.choices(self.ranked, cum_weights=self.cum, k=APPENDS_PER_QUERY)
        key = rng.choices(self.ranked, cum_weights=self.cum)[0]
        ref = self.ref[key]
        r = rng.random()
        end = ref.ts[-1] + 1.0
        if r < RECENT_SHARE:
            k = rng.randint(*SCAN_LENGTHS)
            return appends, ("query_range", key, ref.ts[-k], end)
        # the rest split evenly over the three heavier kinds
        heavy = int((r - RECENT_SHARE) / (1.0 - RECENT_SHARE) * 3)
        if heavy == 0:
            return appends, ("downsample", key, end - DOWNSAMPLE_SPAN_S, end,
                             DOWNSAMPLE_BUCKET_S, "avg")
        if heavy == 1:
            return appends, ("query_range", key, -math.inf, math.inf)
        return appends, ("find_channels", {"zone": rng.choice(ZONES)})

    def check(self, op: tuple, result) -> bool:
        """Whether a query result matches the reference values."""
        kind = op[0]
        if kind == "find_channels":
            want = [k for k in self.channels
                    if all(self.ref[k].tags.get(t) == v for t, v in op[1].items())]
            return list(result) == want
        ref = self.ref[op[1]]
        lo = bisect.bisect_left(ref.ts, op[2])
        hi = bisect.bisect_left(ref.ts, op[3])
        if kind == "query_range":
            return [(r.ts, r.value, r.seq) for r in result] == list(
                zip(ref.ts[lo:hi], ref.values[lo:hi], range(lo + 1, hi + 1)))
        want = expected_downsample(zip(ref.ts[lo:hi], ref.values[lo:hi]),
                                   op[2], op[4], op[5])
        return same_buckets(result, want)
