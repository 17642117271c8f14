import random

import pytest

from iotra import streams
from iotra.msgbus import BadFilter
from iotra.reading import ChannelKey, Reading
from iotra.streams import (
    ALLOWED_LATENESS_S,
    ArityMismatch,
    BadPipeline,
    Emission,
    Item,
    Pipeline,
    ReplayStore,
    UnknownKind,
    load_pipeline,
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


def test_load_pipeline_file(tmp_path):
    import json
    path = tmp_path / "p.json"
    path.write_text(json.dumps(linear_spec()))
    assert isinstance(load_pipeline(path), Pipeline)


# -- node evaluation -----------------------------------------------------


def item(ts=0.0, value=0.0, channel="n-000001/temp", unit="°F"):
    return Item(ts=ts, value=value, channel=channel, unit=unit)


def test_filter_threshold():
    p = Pipeline(linear_spec({"node_id": "f", "kind": "filter",
                              "params": {"op": ">", "threshold": 80}}))
    assert p.eval_node("f", [item(value=81)]) == [item(value=81)]
    assert p.eval_node("f", [item(value=80)]) == []


def test_map_affine():
    p = Pipeline(linear_spec({"node_id": "m", "kind": "map",
                              "params": {"scale": 2.0, "offset": 1.0}}))
    (out,) = p.eval_node("m", [item(value=10)])
    assert out.value == 21.0


def test_map_f_to_c_preset():
    p = Pipeline(linear_spec({"node_id": "m", "kind": "map",
                              "params": {"transform": "f_to_c"}}))
    (out,) = p.eval_node("m", [item(value=77.6)])
    assert out.value == pytest.approx((77.6 - 32) * 5 / 9)
    assert out.unit == "°C"


def test_map_c_to_f_inverts_f_to_c():
    spec = {"nodes": [
        {"node_id": "s", "kind": "source"},
        {"node_id": "m1", "kind": "map", "params": {"transform": "f_to_c"}},
        {"node_id": "m2", "kind": "map", "params": {"transform": "c_to_f"}},
        {"node_id": "k", "kind": "sink", "params": {"dest": "notify"}},
    ], "edges": [["s", "m1"], ["m1", "m2"], ["m2", "k"]]}
    p = Pipeline(spec)
    (mid,) = p.eval_node("m1", [item(value=77.6)])
    (back,) = p.eval_node("m2", [mid])
    assert back.value == pytest.approx(77.6)


def test_single_input_arity_enforced():
    p = Pipeline(linear_spec({"node_id": "f", "kind": "filter",
                              "params": {"threshold": 0}}))
    with pytest.raises(ArityMismatch):
        p.eval_node("f", [item(), item()])


def test_end_to_end_emission():
    p = Pipeline(linear_spec({"node_id": "f", "kind": "filter",
                              "params": {"op": ">", "threshold": 80}}))
    assert p.process(reading(1.0, 75.0)) == []
    (em,) = p.process(reading(2.0, 85.0))
    assert isinstance(em, Emission)
    assert em.dest == "topic" and em.item.value == 85.0


def test_source_selector_filters_channels():
    p = Pipeline(linear_spec())
    assert len(p.process(reading(1.0, 70.0, sensor="temp"))) == 1
    assert p.process(reading(2.0, 70.0, sensor="humidity")) == []


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
    p.process(reading(3.0, 99.0))  # older than any open window
    assert p.late_count == 1
    ems = p.window_flush(40.0)
    assert all(e.item.value != 99.0 for e in ems)


def test_empty_window_emits_nothing_except_count_zero():
    avg = Pipeline(window_spec(agg="avg"))
    avg.process(reading(1.0, 5.0))
    ems = avg.window_flush(35.0)
    assert [e.item.ts for e in ems] == [10.0]  # gaps emit nothing

    cnt = Pipeline(window_spec(agg="count"))
    cnt.process(reading(1.0, 5.0))
    ems = cnt.window_flush(35.0)
    assert [(e.item.ts, e.item.value) for e in ems] == [
        (10.0, 1.0), (20.0, 0.0), (30.0, 0.0)
    ]


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


# -- replay store --------------------------------------------------------


def test_replay_time_range_and_selector():
    rs = ReplayStore()
    for t in range(10):
        rs.add(float(t), "reading", "n-1/temp" if t % 2 else "n-1/hum", t)
    rows = rs.replay(2, 8)
    assert [r[0] for r in rows] == [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    rows = rs.replay(0, 10, selector="*/temp")
    assert all(r[2] == "n-1/temp" for r in rows)
    assert len(rows) == 5


def test_replay_entry_bound():
    rs = ReplayStore(max_entries=5, max_span_s=1e9)
    for t in range(10):
        rs.add(float(t), "reading", "c/x", t)
    assert len(rs) == 5
    assert [r[0] for r in rs.replay(0, 100)] == [5.0, 6.0, 7.0, 8.0, 9.0]


def test_replay_span_bound():
    rs = ReplayStore(max_entries=10_000, max_span_s=3.0)
    for t in range(10):
        rs.add(float(t), "reading", "c/x", t)
    assert [r[0] for r in rs.replay(0, 100)] == [6.0, 7.0, 8.0, 9.0]


def test_replay_bad_range():
    with pytest.raises(streams.StreamError):
        ReplayStore().replay(5, 1)


def test_pipeline_feeds_replay_store():
    p = Pipeline(linear_spec())
    p.process(reading(1.0, 70.0))
    p.process(reading(2.0, 71.0))
    rows = p.replay_store.replay(0, 10)
    assert [(r[0], r[3]) for r in rows] == [(1.0, 70.0), (2.0, 71.0)]
