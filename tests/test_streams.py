import math
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from iotra.infomodel import parse_scalar
from iotra.msgbus import BadFilter, TopicFilter
from iotra.reading import COMPARATORS, TEXT_MEMO_SIZE, ChannelKey, Reading
from iotra.streams import (
    ALLOWED_LATENESS_S,
    BadPipeline,
    Emission,
    Item,
    Pipeline,
    UnknownKind,
)


def reading(ts, value, node="n-000001", sensor="temp", seq=None):
    return Reading(channel=ChannelKey(node, sensor), value=float(value),
                   unit="°F", ts=float(ts), seq=seq)


def linear_spec(middle=None):
    nodes = [
        {"node_id": "src", "kind": "source", "params": {"selector": "*/temp"}},
        {"node_id": "out", "kind": "sink", "params": {"dest": "topic",
                                                      "topic": "derived/t"}},
    ]
    edges = []
    if middle:
        nodes.insert(1, middle)
        edges = [["src", middle["node_id"]], [middle["node_id"], "out"]]
    else:
        edges = [["src", "out"]]
    return {"nodes": nodes, "edges": edges}


# -- validation ----------------------------------------------------------


def test_unknown_kind_rejected():
    with pytest.raises(UnknownKind):
        Pipeline({"nodes": [{"node_id": "x", "kind": "teleport"}], "edges": []})


def test_duplicate_node_id_rejected():
    with pytest.raises(BadPipeline):
        Pipeline({"nodes": [
            {"node_id": "x", "kind": "source"},
            {"node_id": "x", "kind": "source"},
        ], "edges": []})


@pytest.mark.parametrize("bad", ["*/te#mp", "#/temp", "n+/temp"])
def test_bad_source_selector_rejected_at_construction(bad):
    spec = linear_spec()
    spec["nodes"][0]["params"]["selector"] = bad
    with pytest.raises(BadFilter):
        Pipeline(spec)


def test_edge_to_unknown_node_rejected():
    with pytest.raises(BadPipeline):
        Pipeline({"nodes": [{"node_id": "s", "kind": "source"}],
                  "edges": [["s", "ghost"]]})


def test_source_with_inputs_rejected():
    with pytest.raises(BadPipeline):
        Pipeline({"nodes": [
            {"node_id": "a", "kind": "source"},
            {"node_id": "b", "kind": "source"},
        ], "edges": [["a", "b"]]})


def test_sink_with_outputs_rejected():
    with pytest.raises(BadPipeline):
        Pipeline({"nodes": [
            {"node_id": "a", "kind": "source"},
            {"node_id": "k", "kind": "sink", "params": {"dest": "topic"}},
            {"node_id": "b", "kind": "sink", "params": {"dest": "topic"}},
        ], "edges": [["a", "k"], ["k", "b"]]})


def test_unreachable_node_rejected():
    with pytest.raises(BadPipeline):
        Pipeline({"nodes": [
            {"node_id": "a", "kind": "source"},
            {"node_id": "f", "kind": "filter", "params": {"threshold": 0}},
        ], "edges": []})


def test_cycle_rejected():
    with pytest.raises(BadPipeline):
        Pipeline({"nodes": [
            {"node_id": "a", "kind": "source"},
            {"node_id": "f", "kind": "filter", "params": {"threshold": 0}},
            {"node_id": "g", "kind": "filter", "params": {"threshold": 0}},
        ], "edges": [["a", "f"], ["f", "g"], ["g", "f"]]})


def test_sink_needs_known_dest():
    with pytest.raises(BadPipeline):
        Pipeline(linear_spec({"node_id": "k", "kind": "sink",
                              "params": {"dest": "mailbox"}}))


# -- node evaluation -----------------------------------------------------


def test_filter_threshold():
    p = Pipeline(linear_spec({"node_id": "f", "kind": "filter",
                              "params": {"op": ">", "threshold": 80}}))
    (em,) = p.process(reading(0.0, 81))
    assert em.item == Item(0.0, 81.0, "n-000001/temp", "°F", {"seq": None})
    assert p.process(reading(0.0, 80)) == []


def test_map_affine():
    p = Pipeline(linear_spec({"node_id": "m", "kind": "map",
                              "params": {"scale": 2.0, "offset": 1.0}}))
    (em,) = p.process(reading(0.0, 10))
    assert em.item.value == 21.0


def test_map_f_to_c_preset():
    p = Pipeline(linear_spec({"node_id": "m", "kind": "map",
                              "params": {"transform": "f_to_c"}}))
    (em,) = p.process(reading(0.0, 77.6))
    assert em.item.value == pytest.approx((77.6 - 32) * 5 / 9)
    assert em.item.unit == "°C"


def test_map_c_to_f_inverts_f_to_c():
    spec = {"nodes": [
        {"node_id": "s", "kind": "source"},
        {"node_id": "m1", "kind": "map", "params": {"transform": "f_to_c"}},
        {"node_id": "m2", "kind": "map", "params": {"transform": "c_to_f"}},
        {"node_id": "k", "kind": "sink", "params": {"dest": "notify"}},
    ], "edges": [["s", "m1"], ["m1", "m2"], ["m2", "k"]]}
    p = Pipeline(spec)
    (em,) = p.process(reading(0.0, 77.6))
    assert em.item.value == pytest.approx(77.6)


@pytest.mark.parametrize("middle", [
    {"node_id": "f", "kind": "filter", "params": {"op": "~", "threshold": 1}},
    {"node_id": "f", "kind": "filter", "params": {"op": ">"}},
    {"node_id": "f", "kind": "filter", "params": {"threshold": "high"}},
    {"node_id": "m", "kind": "map", "params": {"transform": "k_to_x"}},
    {"node_id": "m", "kind": "map", "params": {"scale": "two"}},
    {"node_id": "w", "kind": "window",
     "params": {"size_ms": 1000, "slide_ms": 0, "agg": "avg"}},
    {"node_id": "w", "kind": "window",
     "params": {"size_ms": -1000, "slide_ms": 1000, "agg": "avg"}},
    # a sink replaces the "out" sink
    {"node_id": "out", "kind": "sink", "params": {"dest": "tsdb", "channel": "stream"}},
    {"node_id": "out", "kind": "sink", "params": {"dest": "tsdb", "channel": "d/b+d"}},
    {"node_id": "out", "kind": "sink", "params": {"dest": "topic", "topic": "derived/+"}},
    {"node_id": "out", "kind": "sink", "params": {"dest": "topic", "topic": "a//b"}},
    {"node_id": "out", "kind": "sink", "params": {"dest": "topic", "topic": 5}},
    {"node_id": "out", "kind": "sink", "params": {"dest": "twin_desired",
                                                  "prop": "setpoint"}},
    {"node_id": "out", "kind": "sink", "params": {"dest": "twin_desired",
                                                  "node": "n-000001"}},
])
def test_bad_node_params_rejected_at_construction(middle):
    # not when the first matching reading arrives, in the middle of a run
    if middle["kind"] == "sink":
        spec = linear_spec()
        spec["nodes"][-1] = middle
    else:
        spec = linear_spec(middle)
    with pytest.raises(BadPipeline):
        Pipeline(spec)


GOOD_SINKS = [  # params and the target they parse into
    ({"dest": "tsdb"}, ChannelKey("derived", "stream")),
    ({"dest": "tsdb", "channel": "derived/temp_avg"}, ChannelKey("derived", "temp_avg")),
    ({"dest": "topic"}, "derived/out"),
    ({"dest": "topic", "topic": "derived/t"}, "derived/t"),
    ({"dest": "twin_desired", "node": "n-000001", "prop": "setpoint"},
     ("n-000001", "setpoint")),
    ({"dest": "notify"}, None),
]


@pytest.mark.parametrize("params, target", GOOD_SINKS,
                         ids=[f"params{i}" for i in range(len(GOOD_SINKS))])
def test_good_sink_params_accepted(params, target):
    spec = linear_spec()
    spec["nodes"][-1]["params"] = params
    (em,) = Pipeline(spec).process(reading(0.0, 1.0))
    assert (em.sink_id, em.dest, em.target) == ("out", params["dest"], target)


def test_a_sink_target_is_parsed_when_the_pipeline_is_built(monkeypatch):
    spec = linear_spec()
    spec["nodes"][-1]["params"] = {"dest": "tsdb", "channel": "derived/temp_avg"}
    p = Pipeline(spec)
    monkeypatch.setattr(ChannelKey, "parse", None)  # a parse per emission would fail
    first, second = (em for t in (0.0, 1.0) for em in p.process(reading(t, 1.0)))
    assert first.target is second.target
    assert first.target == ChannelKey("derived", "temp_avg")


def test_a_reading_matching_two_sources_passes_the_filter_once_per_source():
    p = Pipeline({"nodes": [
        {"node_id": "a", "kind": "source", "params": {"selector": "*/temp"}},
        {"node_id": "b", "kind": "source", "params": {"selector": "n-000001/*"}},
        {"node_id": "f", "kind": "filter", "params": {"threshold": 0}},
        {"node_id": "out", "kind": "sink", "params": {"dest": "notify"}},
    ], "edges": [["a", "f"], ["b", "f"], ["f", "out"]]})
    assert [e.item.value for e in p.process(reading(1.0, 5.0))] == [5.0, 5.0]
    assert [e.item.value for e in p.process(reading(2.0, 6.0, node="n-000002"))] == [6.0]
    assert p.process(reading(3.0, -1.0)) == []


def test_merge_tags_the_channel_each_item_came_from():
    p = Pipeline({"nodes": [
        {"node_id": "a", "kind": "source", "params": {"selector": "*/temp"}},
        {"node_id": "b", "kind": "source", "params": {"selector": "*/hum"}},
        {"node_id": "m", "kind": "merge"},
        {"node_id": "out", "kind": "sink", "params": {"dest": "notify"}},
    ], "edges": [["a", "m"], ["b", "m"], ["m", "out"]]})
    (em,) = p.process(reading(1.0, 5.0, sensor="hum", seq=7))
    assert list(em.item.meta.items()) == [("seq", 7), ("merged_from", "n-000001/hum")]
    assert em.item.channel == "n-000001/hum"


def test_sinks_emit_in_topological_order():
    # smallest ready node id first, whatever the order of the edges
    p = Pipeline({"nodes": [
        {"node_id": "s", "kind": "source"},
        {"node_id": "z", "kind": "sink", "params": {"dest": "notify"}},
        {"node_id": "k", "kind": "sink", "params": {"dest": "notify"}},
        {"node_id": "b", "kind": "sink", "params": {"dest": "notify"}},
    ], "edges": [["s", "z"], ["s", "k"], ["s", "b"]]})
    assert [e.sink_id for e in p.process(reading(1.0, 5.0))] == ["b", "k", "z"]


def test_end_to_end_emission():
    p = Pipeline(linear_spec({"node_id": "f", "kind": "filter",
                              "params": {"op": ">", "threshold": 80}}))
    assert p.process(reading(1.0, 75.0)) == []
    (em,) = p.process(reading(2.0, 85.0))
    assert isinstance(em, Emission)
    assert em.dest == "topic" and em.item.value == 85.0


def test_only_a_number_reaches_a_source():
    p = Pipeline(linear_spec())
    for value in ("abc", "71", parse_scalar("t:1970-01-01T00:00:05Z")):
        r = Reading(ChannelKey("n-000001", "temp"), value, "", 30.0, 1)
        assert p.process(r) == []
    assert p.watermark == float("-inf")
    (em,) = p.process(Reading(ChannelKey("n-000001", "temp"), True, "", 1.0, 2))
    assert type(em.item.value) is float and em.item.value == 1.0


def test_source_selector_filters_channels():
    p = Pipeline(linear_spec())
    assert len(p.process(reading(1.0, 70.0, sensor="temp"))) == 1
    assert p.process(reading(2.0, 70.0, sensor="humidity")) == []


_selectors = st.sampled_from(["#", "*/*", "*/temp", "*/hum", "n-000001/*",
                               "n-000002/#", "n-000003/hum", "*"])
_channels = st.tuples(st.sampled_from(["n-000001", "n-000002", "n-000003"]),
                      st.sampled_from(["temp", "hum", "power"]))


@settings(max_examples=200)
@given(st.lists(_selectors, min_size=1, max_size=5), st.lists(_channels, max_size=30))
def test_sources_reached_match_every_selector(selectors, channels):
    # source s<i> feeds sink k<i> alone, so the sinks emitted name the sources reached
    nodes = [{"node_id": f"s{i}", "kind": "source", "params": {"selector": sel}}
             for i, sel in enumerate(selectors)]
    nodes += [{"node_id": f"k{i}", "kind": "sink", "params": {"dest": "notify"}}
              for i in range(len(selectors))]
    p = Pipeline({"nodes": nodes,
                  "edges": [[f"s{i}", f"k{i}"] for i in range(len(selectors))]})
    for t, (node, sensor) in enumerate(channels):
        got = {e.sink_id for e in p.process(reading(t, 1.0, node=node, sensor=sensor))}
        assert got == {f"k{i}" for i, sel in enumerate(selectors)
                       if TopicFilter(sel.replace("*", "+")).matches(f"{node}/{sensor}")}


def test_source_plans_stay_within_their_bound():
    p = Pipeline(linear_spec())
    sensors = ["temp"] + [f"s{i}" for i in range(2 * TEXT_MEMO_SIZE)]
    for t, sensor in enumerate(sensors + ["temp"]):  # temp's plan was evicted
        got = p.process(reading(t, 70.0, sensor=sensor))
        assert len(got) == (sensor == "temp")
        assert len(p._source_plans) <= TEXT_MEMO_SIZE


# -- windows and watermarks ----------------------------------------------


def window_spec(size_ms=10_000, slide_ms=10_000, agg="avg"):
    return {"nodes": [
        {"node_id": "src", "kind": "source", "params": {"selector": "*/temp"}},
        {"node_id": "w", "kind": "window",
         "params": {"size_ms": size_ms, "slide_ms": slide_ms, "agg": agg}},
        {"node_id": "out", "kind": "sink", "params": {"dest": "notify"}},
    ], "edges": [["src", "w"], ["w", "out"]]}


def test_tumbling_window_avg():
    p = Pipeline(window_spec())
    ems = []
    for ts, v in ((1, 10), (4, 20), (11, 30)):
        ems.extend(p.process(reading(ts, v)))
    ems.extend(p.window_flush(20.0))
    assert [(e.item.ts, e.item.value) for e in ems] == [(10.0, 15.0), (20.0, 30.0)]
    assert ems[0].item.meta["bucket_start"] == 0.0


def test_window_emission_waits_for_watermark():
    p = Pipeline(window_spec())
    assert p.process(reading(1.0, 10.0)) == []
    # watermark trails by allowed lateness; boundary 10 needs wm >= 10
    assert p.process(reading(10.5, 20.0)) == []
    ems = p.process(reading(11.5, 30.0))  # wm = 10.5 >= boundary 10
    assert [(e.item.ts, e.item.value) for e in ems] == [(10.0, 10.0)]


def test_late_reading_dropped_and_counted():
    p = Pipeline(window_spec())
    p.process(reading(25.0, 1.0))  # boundaries advance past early windows
    p.window_flush(30.0)
    assert p.late_count == 0
    assert p.process(reading(3.0, 99.0)) == []  # older than any open window
    assert p.late_count == 1
    ems = p.window_flush(40.0)
    assert all(e.item.value != 99.0 for e in ems)


def test_an_empty_window_emits_nothing_for_any_aggregate():
    # as tsdb.downsample omits an empty bucket; count used to emit 0.0
    for agg, value in (("avg", 5.0), ("count", 1.0)):
        p = Pipeline(window_spec(agg=agg))
        p.process(reading(1.0, 5.0))
        ems = p.window_flush(35.0)
        assert [(e.item.ts, e.item.value) for e in ems] == [(10.0, value)]


def test_sliding_window_overlap():
    p = Pipeline(window_spec(size_ms=20_000, slide_ms=10_000, agg="count"))
    ems = []
    for ts in (1, 5, 12):
        ems.extend(p.process(reading(ts, 1.0)))
    ems.extend(p.window_flush(30.0))
    # boundaries 10,20,30 with 20 s windows: [-10,10)=2, [0,20)=3, [10,30)=1
    assert [(e.item.ts, e.item.value) for e in ems] == [
        (10.0, 2.0), (20.0, 3.0), (30.0, 1.0)
    ]


def test_windows_closing_in_one_step_each_reach_the_map():
    # readings at 0 and 0.5 s, then one at 10 s, close five 5 s windows
    # sliding by 1 s in one watermark step
    spec = window_spec(size_ms=5_000, slide_ms=1_000)
    spec["nodes"].insert(2, {"node_id": "m", "kind": "map", "params": {"scale": 2.0}})
    spec["edges"] = [["src", "w"], ["w", "m"], ["m", "out"]]
    p = Pipeline(spec)
    assert p.process(reading(0.0, 1.0)) == []
    assert p.process(reading(0.5, 3.0)) == []
    ems = p.process(reading(10.0, 9.0))
    assert [(e.item.ts, e.item.value) for e in ems] == [
        (1.0, 4.0), (2.0, 4.0), (3.0, 4.0), (4.0, 4.0), (5.0, 4.0)
    ]


def sparse_window_oracle(samples, size, slide, t_end, agg):
    """(b, aggregate) for each window [b - size, b) that holds a sample, on
    the grid of boundaries the first sample fixes, up to ``t_end``. The
    windows are found from the samples, so a gap between them costs nothing."""
    first = (samples[0][0] // slide) * slide + slide
    bounds = set()
    for ts, _ in samples:
        k = max(0, math.floor((ts - first) / slide) + 1)  # the first boundary after ts
        while first + k * slide - size <= ts:
            bounds.add(first + k * slide)
            k += 1
    out = []
    for b in sorted(b for b in bounds if b <= t_end):
        vals = [v for ts, v in samples if b - size <= ts < b]
        out.append((b, sum(vals) / len(vals) if agg == "avg" else float(len(vals))))
    return out


def raise_timeout(signum, frame):
    raise TimeoutError("the pipeline did not return within its time limit")


@pytest.mark.parametrize("agg", ["avg", "count"])
def test_a_reading_far_ahead_of_the_watermark_returns_promptly(agg):
    # a 5 s/1 s window fed a reading at 1 s and then one at 1e9 s used to
    # step through every empty window between them, and count emitted each
    samples = [(1.0, 2.0), (1.5, 4.0), (1e9, 6.0), (1e9 + 2, 8.0)]
    p = Pipeline(window_spec(size_ms=5_000, slide_ms=1_000, agg=agg))
    got = []
    previous = signal.signal(signal.SIGALRM, raise_timeout)
    signal.alarm(5)
    try:
        for ts, v in samples:
            got += p.process(reading(ts, v))
        got += p.window_flush(1e9 + 10)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [(e.item.ts, e.item.value) for e in got] == sparse_window_oracle(
        samples, 5.0, 1.0, 1e9 + 10, agg)
    assert got[0].item.ts == 2.0 and got[-1].item.ts == 1e9 + 7


def window_oracle(samples, size, slide, t_end):
    """Average per window [b-size, b) for boundaries b = slide, 2*slide, ..."""
    out = []
    b = slide
    while b <= t_end:
        vals = [v for ts, v in samples if b - size <= ts < b]
        if vals:
            out.append((b, sum(vals) / len(vals)))
        b += slide
    return out


def test_window_avg_matches_oracle_on_random_trace():
    rng = random.Random(17)
    p = Pipeline(window_spec(size_ms=5_000, slide_ms=5_000))
    samples = []
    t = 0.0
    for i in range(400):
        t += rng.uniform(0.05, 0.4)
        v = rng.uniform(-10, 10)
        samples.append((t, v))
    got = []
    for ts, v in samples:
        got.extend(p.process(reading(ts, v)))
    got.extend(p.window_flush(t + 10))
    expect = window_oracle(samples, 5.0, 5.0, t + 10)
    assert len(got) == len(expect)
    for e, (b, avg) in zip(got, expect):
        assert e.item.ts == b
        assert e.item.value == pytest.approx(avg, abs=1e-9)


# -- composed pipelines --------------------------------------------------

OPS = st.one_of(
    st.tuples(st.just("filter"), st.fixed_dictionaries({
        "op": st.sampled_from(sorted(COMPARATORS)), "threshold": st.integers(-20, 20)})),
    st.tuples(st.just("map"), st.fixed_dictionaries({
        "scale": st.sampled_from([-2.0, 0.5, 1.0, 3.0]), "offset": st.integers(-5, 5)})),
)


def run_ops(ops, value):
    """A value through filter and map nodes in turn; None once filtered out."""
    for kind, params in ops:
        if kind == "filter" and not COMPARATORS[params["op"]](value, params["threshold"]):
            return None
        if kind == "map":
            value = value * params["scale"] + params["offset"]
    return value


def chain_oracle(readings, pre, size, slide, agg, post, t_end):
    """(ts, value) out of source -> pre -> window -> post -> sink, taking one
    item at a time: each copy of a reading through ``pre``, then the
    windows [b - size, b) from the first boundary after the first item
    the window buffered, each aggregate through ``post``."""
    entries = [(ts, v) for ts, value, copies in readings for _ in range(copies)
               if (v := run_ops(pre, value)) is not None]
    out = []
    if not entries:
        return out
    b = (entries[0][0] // slide) * slide + slide
    while b <= t_end:
        vals = [v for ts, v in entries if b - size <= ts < b]
        if vals:
            value = sum(vals) / len(vals) if agg == "avg" else float(len(vals))
            if (value := run_ops(post, value)) is not None:
                out.append((b, value))
        b += slide
    return out


def chain_spec(sources, ops):
    nodes = [{"node_id": sid, "kind": "source", "params": {"selector": sel}}
             for sid, sel in sources]
    ids = [f"x{i}" for i in range(len(ops))]
    nodes += [{"node_id": nid, "kind": kind, "params": params}
              for nid, (kind, params) in zip(ids, ops)]
    nodes.append({"node_id": "out", "kind": "sink", "params": {"dest": "notify"}})
    edges = [[sid, ids[0]] for sid, _ in sources] + list(zip(ids, ids[1:] + ["out"]))
    return {"nodes": nodes, "edges": edges}


@settings(max_examples=300, deadline=None)
@given(
    pre=st.lists(OPS, max_size=2),
    post=st.lists(OPS, max_size=2),
    size_ms=st.integers(1, 20).map(lambda k: k * 250),
    slide_ms=st.integers(1, 20).map(lambda k: k * 250),
    agg=st.sampled_from(["avg", "count"]),
    fan_in=st.booleans(),
    samples=st.lists(st.tuples(st.integers(0, 30_000), st.integers(-30, 30),
                               st.booleans()), min_size=1, max_size=40),
)
def test_composed_chain_matches_item_by_item_oracle(pre, post, size_ms, slide_ms,
                                                    agg, fan_in, samples):
    # with fan_in, a reading of n-000001 matches both sources, so it
    # reaches the first node after them twice
    sources = [("a", "*/temp")] + ([("b", "n-000001/*")] if fan_in else [])
    window = ("window", {"size_ms": size_ms, "slide_ms": slide_ms, "agg": agg})
    p = Pipeline(chain_spec(sources, pre + [window] + post))
    got, readings = [], []
    for ms, value, first_node in sorted(samples):
        got += p.process(reading(ms / 1000, value, node="n-000001" if first_node
                                 else "n-000002"))
        readings.append((ms / 1000, float(value), 2 if fan_in and first_node else 1))
    got += p.window_flush(45.0)
    assert all(e.sink_id == "out" for e in got)
    assert [(e.item.ts, e.item.value) for e in got] == chain_oracle(
        readings, pre, size_ms / 1000, slide_ms / 1000, agg, post, 45.0)
