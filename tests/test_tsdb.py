import contextlib
import gc
import json
import math
import random
import re
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from iotra import tsdb
from iotra.infomodel import TypedScalar, parse_scalar
from iotra.reading import ChannelKey, Reading
from iotra.timeutil import format_ts
from iotra.tsdb import (
    SEGMENT_CAPACITY,
    BadInterval,
    Store,
    UnknownChannel,
    _decode_log,
    _encode_record,
)


def ch(node="n-000001", sensor="temp"):
    return ChannelKey(node, sensor)


def reading(ts, value=None, seq=None, tags=None, channel=None):
    return Reading(
        channel=channel or ch(),
        value=value if value is not None else ts,
        unit="°F",
        ts=float(ts),
        seq=seq,
        tags=tags or {},
    )


def fill(store, n, start=0, channel=None, tags=None):
    for i in range(n):
        store.append(reading(start + i, seq=i + 1, channel=channel, tags=tags))


# -- record format -------------------------------------------------------


def test_record_layout():
    data = _encode_record(reading(1.5, value=77.6, seq=3))
    (length,) = struct.unpack(">I", data[:4])
    body = data[4:]
    assert length == len(body)
    assert body.endswith(b"\n")
    obj = json.loads(body)
    assert obj == {"ts": 1.5, "seq": 3, "v": 77.6, "unit": "°F", "tags": {}}


def test_short_record_layout():
    prev = reading(1.0, value=2.5, seq=3, tags={"zone": "Z3"})
    data = _encode_record(reading(1.5, value=77.6, seq=4, tags={"zone": "Z3"}), prev)
    assert data == struct.pack(">Idqd", 24, 1.5, 4, 77.6)
    readings, ts, values, tables, clean = _decode_log(ch(), _encode_record(prev) + data)
    assert [exact(r) for r in readings] == [
        exact(prev), exact(reading(1.5, value=77.6, seq=4, tags={"zone": "Z3"}))]
    assert (ts, values, tables, clean) == (
        [1.0, 1.5], [2.5, 77.6], [{"zone": "Z3"}], len(_encode_record(prev)) + 28)
    assert readings[1].tags is readings[0].tags and readings[1].unit is readings[0].unit


@pytest.mark.parametrize("change, kind", [
    ({}, "short"),
    ({"tags": {"zone": "Z3"}}, "short"),  # equal, not the same dict
    ({"seq": -2**63}, "short"),
    ({"seq": 2**63 - 1}, "short"),
    ({"value": math.nan}, "short"),
    ({"unit": "°C"}, "full"),
    ({"tags": {"zone": "Z4"}}, "full"),
    ({"tags": {}}, "full"),
    ({"value": 77}, "full"),
    ({"value": True}, "full"),
    ({"value": "77.6"}, "full"),
    ({"seq": None}, "full"),
    ({"seq": 2**63}, "full"),
    ({"seq": -2**63 - 1}, "full"),
    ({"seq": True}, "full"),
])
def test_record_kind(change, kind):
    tags = {"zone": "Z3"}
    prev = Reading(ch(), 2.5, "°F", 1.0, 3, tags)
    fields = {"channel": ch(), "value": 77.6, "unit": "°F", "ts": 1.5, "seq": 4, "tags": tags}
    r = Reading(**{**fields, **change})
    data = _encode_record(r, prev)
    assert (len(data) == 28) == (kind == "short")
    readings, ts, values, _, clean = _decode_log(ch(), _encode_record(prev) + data)
    assert clean == len(_encode_record(prev)) + len(data)
    assert [exact(x) for x in readings] == [exact(prev), exact(r)]
    assert ts == [prev.ts, r.ts]
    assert all(v is x.value for v, x in zip(values, readings, strict=True))


def test_read_records_stops_at_torn_tail():
    good = _encode_record(reading(1)) + _encode_record(reading(2))
    torn = _encode_record(reading(3))[:-5]
    readings, ts, values, _, clean = _decode_log(ch(), good + torn)
    assert readings == [reading(1), reading(2)]
    assert ts == values == [1.0, 2.0]
    assert clean == len(good)


@pytest.mark.parametrize("body", [b"{x\n", b"1,2\n"])
def test_read_records_stops_at_corrupt_record(body):
    first = _encode_record(reading(1))
    data = first + struct.pack(">I", len(body)) + body + _encode_record(reading(2))
    readings, _, values, _, clean = _decode_log(ch(), data)
    assert readings == [reading(1)]
    assert values == [1.0]
    assert clean == len(first)


def test_read_records_drops_the_short_records_after_a_corrupt_one():
    first, second = reading(1, value=1.5, seq=1), reading(2, value=2.5, seq=2)
    good = _encode_record(first) + _encode_record(second, first)
    bad = struct.pack(">I", 4) + b"{x\n\n"
    data = good + bad + _encode_record(reading(3, value=3.5, seq=3), second)
    readings, ts, values, _, clean = _decode_log(ch(), data)
    assert (readings, ts, values, clean) == ([first, second], [1.0, 2.0], [1.5, 2.5], len(good))


def test_read_records_stops_at_a_short_record_with_no_full_record_before_it():
    first, second = reading(1, value=1.5, seq=1), reading(2, value=2.5, seq=2)
    short = _encode_record(second, first)
    assert _decode_log(ch(), short + _encode_record(first) + short) == ([], [], [], [], 0)


def test_read_records_decodes_short_runs_between_full_records():
    a, b = {"zone": "a"}, {"zone": "b"}
    rows = [Reading(ch(), i + 0.5, "°F", float(i), i, a if i < 3 or i > 5 else b)
            for i in range(9)]
    data = b"".join(_encode_record(r, prev) for prev, r in zip([None] + rows, rows))
    readings, ts, values, tables, clean = _decode_log(ch(), data)
    assert [exact(r) for r in readings] == [exact(r) for r in rows]
    assert (ts, tables, clean) == ([r.ts for r in rows], [a, b, a], len(data))
    assert all(v is r.value for v, r in zip(values, readings, strict=True))
    # each run shares the unit and tags of the full record that starts it
    starts = [0] * 3 + [3] * 3 + [6] * 3
    assert all(r.unit is readings[i].unit and r.tags is readings[i].tags
               for r, i in zip(readings, starts))


# -- append / segments ---------------------------------------------------


def test_append_and_count(tmp_path):
    store = Store(tmp_path)
    fill(store, 10)
    assert store.count(ch()) == 10
    assert store.channels() == [ch()]
    store.close()


def block_header(data):
    (length,) = struct.unpack(">I", data[:4])
    return json.loads(data[4:4 + length])


def test_segment_rolls_and_seals_at_capacity(tmp_path):
    store = Store(tmp_path)
    fill(store, SEGMENT_CAPACITY + 5)
    seg_dir = tmp_path / "n-000001" / "temp"
    assert (seg_dir / "seg-0.blk").exists()
    assert not (seg_dir / "seg-0.log").exists()
    assert (seg_dir / "seg-1.log").exists()
    assert not (seg_dir / "seg-1.blk").exists()
    header = block_header((seg_dir / "seg-0.blk").read_bytes())
    assert {k: header[k] for k in ("min_ts", "max_ts", "count")} == {
        "min_ts": 0.0, "max_ts": float(SEGMENT_CAPACITY - 1), "count": SEGMENT_CAPACITY}
    store.close()


@pytest.mark.parametrize("name", ["seg-old.log", "seg-1.log.orig", "seg-.blk", "seg-01.log",
                                  "seg-1", "seg-٣.log", "seg-0.tmp"])
def test_a_stray_segment_name_refuses_the_open_and_names_the_file(tmp_path, name):
    # it used to fail every open with "invalid literal for int()"; skipping
    # it silently could drop the readings it holds
    store = Store(tmp_path)
    fill(store, 3)
    store.close()
    stray = tmp_path / "n-000001" / "temp" / name
    stray.touch()
    with pytest.raises(tsdb.TsdbError, match=re.escape(str(stray))):
        Store(tmp_path)
    stray.unlink()
    assert Store(tmp_path).count(ch()) == 3


def test_sealing_leaves_no_temp_file(tmp_path):
    store = Store(tmp_path)
    fill(store, 2 * SEGMENT_CAPACITY + 5)
    seg_dir = tmp_path / "n-000001" / "temp"
    assert sorted(p.name for p in seg_dir.iterdir()) == [
        "seg-0.blk", "seg-1.blk", "seg-2.log"]
    store.close()


def test_reopen_resumes_same_contents(tmp_path):
    store = Store(tmp_path)
    fill(store, SEGMENT_CAPACITY + 5)
    expected = store.query_range(ch(), 0, 10_000)
    store.close()
    reopened = Store(tmp_path)
    assert reopened.query_range(ch(), 0, 10_000) == expected
    # appends continue in the unsealed tail segment
    reopened.append(reading(9999, seq=SEGMENT_CAPACITY + 6))
    assert reopened.count(ch()) == SEGMENT_CAPACITY + 6
    reopened.close()


# -- queries -------------------------------------------------------------


def test_query_half_open_sorted(tmp_path):
    store = Store(tmp_path)
    for t in (5, 1, 3, 2, 4):
        store.append(reading(t, seq=t))
    assert [r.ts for r in store.query_range(ch(), 2, 5)] == [2.0, 3.0, 4.0]
    store.close()


def test_query_unknown_channel(tmp_path):
    with pytest.raises(UnknownChannel):
        Store(tmp_path).query_range(ch(), 0, 1)


def test_query_matches_list_oracle(tmp_path):
    rng = random.Random(3)
    store = Store(tmp_path)
    rows = []
    for i in range(500):
        r = reading(rng.uniform(0, 100), seq=i + 1)
        store.append(r)
        rows.append(r)
    for _ in range(20):
        t1 = rng.uniform(0, 100)
        t2 = t1 + rng.uniform(0, 50)
        oracle = sorted((r for r in rows if t1 <= r.ts < t2),
                        key=lambda r: (r.ts, r.seq))
        assert store.query_range(ch(), t1, t2) == oracle
    store.close()


def test_in_order_multi_segment_query_does_not_sort(tmp_path, monkeypatch):
    monkeypatch.setattr(tsdb, "SEGMENT_CAPACITY", 10)
    store = Store(tmp_path)
    fill(store, 45)  # four sealed segments and an active one
    store.close()
    calls = []
    sort_key = tsdb._sort_key
    monkeypatch.setattr(tsdb, "_sort_key", lambda r: calls.append(r) or sort_key(r))
    for opened in (store, Store(tmp_path)):
        calls.clear()
        rows = opened.query_range(ch(), 3, 42)
        assert [r.ts for r in rows] == [float(t) for t in range(3, 42)]
        # one run per channel: no comparison at segment boundaries, no sort
        assert calls == []


def test_a_recent_window_query_costs_the_same_at_3_and_300_segments(tmp_path, monkeypatch):
    monkeypatch.setattr(tsdb, "SEGMENT_CAPACITY", 10)
    calls = []
    for name in ("bisect_left", "bisect_right", "_sort_key"):
        fn = getattr(tsdb, name)
        monkeypatch.setattr(tsdb, name, lambda *args, _fn=fn, _name=name, **kw:
                            calls.append(_name) or _fn(*args, **kw))
    counts = []
    for segments in (3, 300):
        root = tmp_path / str(segments)
        store = Store(root)
        n = segments * 10 - 5  # the last segment is active
        fill(store, n)
        store.close()
        for opened in (store, Store(root)):
            calls.clear()
            rows = opened.query_range(ch(), n - 8, n)
            assert [r.ts for r in rows] == [float(t) for t in range(n - 8, n)]
            counts.append(len(calls))
            opened.close()
    assert counts == [2] * 4



def test_a_nan_timestamp_is_stored_and_counted_but_in_no_range(tmp_path, monkeypatch):
    monkeypatch.setattr(tsdb, "SEGMENT_CAPACITY", 4)
    lone = ch("n-000002", "temp")
    stamps = (math.nan, 1.0, math.nan, 2.0, 3.0, 4.0, math.nan, 5.0, 6.0, math.nan)
    store = Store(tmp_path)
    # in two sealed blocks and the active log: first, between and last
    for i, ts in enumerate(stamps):
        store.append(reading(ts, value=float(i), seq=i + 1))
    store.append(reading(math.nan, value=1.0, seq=1, channel=lone))  # a channel of one
    store.flush()
    for opened in (store, Store(tmp_path)):
        assert opened.channels() == [ch(), lone]
        assert (opened.count(ch()), opened.count(lone)) == (10, 1)
        assert [r.ts for r in opened.query_range(ch(), -math.inf, math.inf)] == [
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert opened.query_range(lone, -math.inf, math.inf) == []
        assert opened.query_range(ch(), math.nan, 5.0) == []
        assert opened.query_range(ch(), 0.0, math.nan) == []
        assert opened.downsample(ch(), 0.0, 10.0, 2.0, "count") == [
            (0.0, 1.0), (2.0, 2.0), (4.0, 2.0), (6.0, 1.0)]
        assert opened.downsample(lone, 0.0, math.inf, 1.0, "count") == []
        opened.close()


# -- reference model -----------------------------------------------------

PROP_CAPACITY = 4
PROP_TAGS = ({}, {"zone": "a"}, {"zone": "b"}, {"zone": "a", "site": "x"})
PROP_UNITS = ("°F", "°F", "%")
PROP_CHANNELS = (ch(), ch("n-000002", "temp"))


def ref_key(r):
    return (r.ts, r.seq if r.seq is not None else 0)


class RefStore:
    """Readings per channel, in append order, chunked into segments."""

    def __init__(self):
        self.chunks = {}  # channel -> list of lists
        self.known = set()  # channels the open store knows

    def append(self, r):
        chunks = self.chunks.setdefault(r.channel, [])
        if not chunks or len(chunks[-1]) == PROP_CAPACITY:
            chunks.append([])
        chunks[-1].append(r)
        self.known.add(r.channel)

    def rows(self, key):
        return [r for chunk in self.chunks.get(key, []) for r in chunk]

    def reopen(self):
        self.known = {k for k in self.known if self.rows(k)}

    def query_range(self, key, t1, t2):
        return sorted((r for r in self.rows(key) if t1 <= r.ts < t2), key=ref_key)

    def downsample(self, key, t1, t2, interval, agg):
        buckets = {}
        for r in self.query_range(key, t1, t2):
            buckets.setdefault(int((r.ts - t1) // interval), []).append(float(r.value))
        fns = {
            "min": min, "max": max, "avg": lambda v: sum(v) / len(v),
            "count": lambda v: float(len(v)), "first": lambda v: v[0],
            "last": lambda v: v[-1],
        }
        return [(t1 + k * interval, fns[agg](v)) for k, v in sorted(buckets.items())]

    def find_channels(self, query):
        return sorted(
            (k for k in self.known
             if all(any(r.tags.get(t) == v for r in self.rows(k)) for t, v in query.items())),
            key=str)


def short_record(prev, r):
    """Whether r follows prev in a log as a short record."""
    return (prev is not None and type(r.value) is float and type(r.seq) is int
            and -2**63 <= r.seq < 2**63 and r.unit == prev.unit and r.tags == prev.tags)


def record_lengths(data):
    """The body length of each record in a log's bytes."""
    lengths, off = [], 0
    while off < len(data):
        (length,) = struct.unpack_from(">I", data, off)
        lengths.append(length)
        off += 4 + length
    return lengths


def check_against_reference(store, ref, windows):
    assert store.channels() == sorted(ref.known, key=str)
    store.flush()
    for key in ref.known:  # each active log holds the record kinds the rule gives
        chunks = ref.chunks[key]
        if chunks and len(chunks[-1]) < PROP_CAPACITY:
            chunk = chunks[-1]
            channel = store._channels[key]
            data = (channel.dir / f"seg-{channel.segment}.log").read_bytes()
            assert _decode_log(key, data)[4] == len(data)
            assert [length == 24 for length in record_lengths(data)] == [
                short_record(prev, r) for prev, r in zip([None] + chunk, chunk)]
    for channel in store._channels.values():  # the channel-run invariant
        assert channel.ts == [r.ts for r in channel.rows]
        assert all(v is r.value for v, r in zip(channel.values, channel.rows, strict=True))
        assert channel.rows == sorted(channel.rows, key=ref_key)
        chunks = ref.chunks[channel.key]
        assert channel.entries == (chunks[-1] if len(chunks[-1]) < PROP_CAPACITY else [])
    for key in sorted(ref.known, key=str):
        assert store.count(key) == len(ref.rows(key))
        for t1, t2 in windows + [(-math.inf, math.inf)]:
            assert store.query_range(key, t1, t2) == ref.query_range(key, t1, t2)
        for (t1, t2), interval in zip(windows, (1.0, 2.5, 7.0)):
            for agg in tsdb.AGGREGATES:
                got = store.downsample(key, t1, t2, interval, agg)
                want = ref.downsample(key, t1, t2, interval, agg)
                assert [b for b, _ in got] == [b for b, _ in want]
                assert [v for _, v in got] == pytest.approx([v for _, v in want])
    for query in ({"zone": "a"}, {"zone": "b"}, {"site": "x"}, {"zone": "b", "site": "x"}):
        assert store.find_channels(query) == ref.find_channels(query)


# a block packs seq and value into columns only when every seq is an int
# that fits in 64 bits and every value is a float; the rest go to JSON
PROP_VALUES = {"float": float, "int": int, "bool": lambda i: i % 2 == 1, "str": str}
_appends = st.tuples(
    st.just("append"),
    st.sampled_from(range(len(PROP_CHANNELS))),
    st.sampled_from((1, 0, 2, 1, 0, 1, -3)),  # ts step: ties, sometimes back
    st.one_of(st.none(), st.integers(0, 4), st.integers(0, 4),
              st.integers(2**63, 2**63 + 4)),
    st.sampled_from(range(len(PROP_TAGS))),
    st.sampled_from(("float", "float", "float", "int", "bool", "str")),
    st.sampled_from(PROP_UNITS),
    st.booleans(),  # pass the channel's shared tags dict, not a copy
)
_ops = st.lists(st.one_of(_appends, _appends, _appends, st.just(("reopen",))),
                min_size=8, max_size=60)
_windows = st.lists(
    st.tuples(st.integers(-5, 40), st.integers(0, 20)).map(
        lambda w: (float(w[0]), float(w[0] + w[1]))),
    min_size=3, max_size=3)


@settings(max_examples=150, deadline=None)
@given(_ops, _windows)
def test_store_matches_reference_model(ops, windows):
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        mp.setattr(tsdb, "SEGMENT_CAPACITY", PROP_CAPACITY)
        store, ref = Store(root), RefStore()
        last_ts = [10] * len(PROP_CHANNELS)
        shared = [dict(tags) for tags in PROP_TAGS]
        for i, op in enumerate(ops):
            if op[0] == "reopen":
                store.close()
                store = Store(root)
                ref.reopen()
                continue
            _, c, step, seq, tags, kind, unit, share = op
            last_ts[c] += step
            r = Reading(PROP_CHANNELS[c], PROP_VALUES[kind](i), unit, float(last_ts[c]), seq,
                        shared[tags] if share else dict(PROP_TAGS[tags]))
            store.append(r)
            ref.append(r)
        check_against_reference(store, ref, windows)
        store.close()
        store = Store(root)
        ref.reopen()
        check_against_reference(store, ref, windows)
        store.close()
        store = Store(root)
        ref.reopen()
        check_against_reference(store, ref, windows)
        store.close()


# -- block format --------------------------------------------------------

INT64 = range(-2**63, 2**63)


def exact(r):
    """A reading's fields, with floats compared by repr: NaN equals NaN,
    -0.0 differs from 0.0, and 1 differs from 1.0 and True."""
    return (r.channel, type(r.value), repr(r.value), r.unit, repr(r.ts),
            type(r.seq), r.seq, r.tags)


_block_rows = st.lists(st.tuples(
    st.one_of(st.floats(), st.sampled_from((math.nan, math.inf, -math.inf, -0.0))),
    st.one_of(st.floats(), st.floats(), st.integers(), st.booleans(), st.text(max_size=4),
              st.builds(lambda epoch: TypedScalar("t", format_ts(epoch)),
                        st.integers(0, 2**35))),
    st.one_of(st.none(), st.integers(-5, 5), st.sampled_from((2**63 - 1, -2**63)),
              st.integers(), st.integers(min_value=2**63)),
    st.sampled_from(("°F", "%", "")),
    st.sampled_from(range(len(PROP_TAGS))),
), min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(_block_rows)
def test_block_codec_round_trips(rows):
    entries = [Reading(ch(), value, unit, ts, seq, dict(PROP_TAGS[tags]))
               for ts, value, seq, unit, tags in rows]
    data = tsdb._encode_block(entries)
    tables = block_header(data)["tags"]
    readings, ts, values, decoded_tables = tsdb._decode_block(ch(), data)
    assert [exact(r) for r in readings] == [exact(r) for r in entries]
    assert [repr(t) for t in ts] == [repr(r.ts) for r in readings]
    assert all(v is r.value for v, r in zip(values, readings, strict=True))
    # one dict per distinct tags dict, shared by its readings
    distinct = [dict(t) for i, t in enumerate(PROP_TAGS) if i in {row[4] for row in rows}]
    assert sorted(decoded_tables, key=repr) == sorted(distinct, key=repr) == sorted(tables, key=repr)
    assert len({id(r.tags) for r in readings}) == len(decoded_tables)
    assert len({id(r.unit) for r in readings}) == len({row[3] for row in rows})
    header = block_header(data)
    # the summary leaves NaN out; a block of NaN stamps alone keeps the infinities
    stamps = [row[0] for row in rows if not math.isnan(row[0])]
    assert (header["count"], repr(header["min_ts"]), repr(header["max_ts"])) == (
        len(rows), repr(min(stamps, default=math.inf)), repr(max(stamps, default=-math.inf)))
    packed_seq = all(type(r.seq) is int and r.seq in INT64 for r in readings)
    packed_value = all(type(r.value) is float for r in readings)
    assert ("seq" in header, "value" in header) == (not packed_seq, not packed_value)


def test_a_timestamp_value_is_stored_as_its_typed_scalar(tmp_path, monkeypatch):
    monkeypatch.setattr(tsdb, "SEGMENT_CAPACITY", 2)
    value = parse_scalar("t:2020-07-15T14:50:07Z")
    store = Store(tmp_path)
    try:
        for i in range(3):  # two sealed in a block, the third in the active log
            store.append(reading(i, value=value, seq=i + 1))
    finally:
        store.close()
    store = Store(tmp_path)
    try:
        assert [r.value for r in store.query_range(ch(), -math.inf, math.inf)] == [value] * 3
    finally:
        store.close()


def test_block_columns_are_packed(tmp_path):
    n = SEGMENT_CAPACITY
    store = Store(tmp_path)
    for i in range(n + 1):
        store.append(reading(i, value=i / 4, seq=i + 1, tags={"zone": "Z3"}))
    store.close()
    data = (tmp_path / "n-000001" / "temp" / "seg-0.blk").read_bytes()
    header = block_header(data)
    assert header == {"count": n, "min_ts": 0.0, "max_ts": n - 1.0,
                      "units": ["°F"], "tags": [{"zone": "Z3"}]}
    # ts, seq and value at 8 bytes a reading each; no unit or tag column
    columns = struct.unpack_from(f"<{n}d{n}q{n}d", data, len(data) - 24 * n)
    assert len(data) == 4 + struct.unpack(">I", data[:4])[0] + 24 * n
    assert columns == (*map(float, range(n)), *range(1, n + 1), *(i / 4 for i in range(n)))


# -- downsample ----------------------------------------------------------


def test_downsample_avg_example(tmp_path):
    store = Store(tmp_path)
    for t, v in ((0, 10), (5, 20), (10, 30), (15, 50)):
        store.append(reading(t, value=float(v), seq=t + 1))
    assert store.downsample(ch(), 0, 20, 10, "avg") == [(0.0, 15.0), (10.0, 40.0)]
    store.close()


def test_downsample_empty_buckets_omitted(tmp_path):
    store = Store(tmp_path)
    store.append(reading(0, value=1.0, seq=1))
    store.append(reading(25, value=2.0, seq=2))
    for agg in ("avg", "count"):
        rows = store.downsample(ch(), 0, 30, 10, agg)
        assert [b for b, _ in rows] == [0.0, 20.0]  # bucket 10 omitted
    store.close()


def test_downsample_all_aggregates_match_oracle(tmp_path):
    rng = random.Random(7)
    store = Store(tmp_path)
    rows = []
    for i in range(300):
        r = reading(rng.uniform(0, 60), value=rng.uniform(-5, 5), seq=i + 1)
        store.append(r)
        rows.append(r)
    t1, t2, interval = 5.0, 55.0, 7.0
    window = sorted((r for r in rows if t1 <= r.ts < t2),
                    key=lambda r: (r.ts, r.seq))
    buckets = {}
    for r in window:
        buckets.setdefault(int((r.ts - t1) // interval), []).append(float(r.value))
    oracles = {
        "min": min, "max": max, "avg": lambda v: sum(v) / len(v),
        "count": lambda v: float(len(v)), "first": lambda v: v[0],
        "last": lambda v: v[-1],
    }
    for agg, fn in oracles.items():
        expect = [(t1 + k * interval, fn(vs)) for k, vs in sorted(buckets.items())]
        got = store.downsample(ch(), t1, t2, interval, agg)
        assert [b for b, _ in got] == [b for b, _ in expect]
        for (_, g), (_, e) in zip(got, expect):
            assert g == pytest.approx(e, abs=1e-12)
    store.close()


def test_downsample_rejects_bad_interval(tmp_path):
    store = Store(tmp_path)
    store.append(reading(0, seq=1))
    with pytest.raises(BadInterval):
        store.downsample(ch(), 0, 10, 0, "avg")
    with pytest.raises(BadInterval):
        store.downsample(ch(), 0, 10, 5, "median")
    # an unbounded start has no bucket grid, whether or not the range has
    # rows; the bucket loop used to fail with "cannot convert float NaN"
    for t2 in (100.0, -math.inf):
        with pytest.raises(BadInterval, match="unbounded start"):
            store.downsample(ch(), -math.inf, t2, 10, "avg")
    store.close()


# Store.downsample as it was before it bucketed from columns: one step per
# row of the sorted range, with the checks query_range made. The
# differential test below holds the column path to it.
ORACLE_AGGREGATES = {
    "min": min, "max": max, "avg": lambda v: sum(v) / len(v),
    "count": lambda v: float(len(v)), "first": lambda v: v[0], "last": lambda v: v[-1],
}


def downsample_oracle(rows, t1, t2, interval, agg):
    """Buckets of the readings rows of one channel, None for a channel the
    store does not hold."""
    if interval <= 0:
        raise BadInterval(str(interval))
    if agg not in ORACLE_AGGREGATES:
        raise BadInterval(f"unknown aggregate {agg!r}")
    if t1 == -math.inf:
        raise BadInterval("unbounded start")
    if t1 > t2:
        raise tsdb.TsdbError("t1 must be <= t2")
    if not rows:
        raise UnknownChannel()
    rows = sorted((r for r in rows if t1 <= r.ts < t2), key=ref_key)
    for r in rows:  # every value in the range converts before any bucket is made
        try:
            float(r.value)
        except (TypeError, ValueError):
            raise tsdb.TsdbError(r.value) from None
    out, bucket, vals = [], None, []
    for r in rows:
        k = int((r.ts - t1) // interval)
        if k != bucket:
            if vals:
                out.append((t1 + bucket * interval, ORACLE_AGGREGATES[agg](vals)))
            bucket, vals = k, []
        vals.append(float(r.value))
    if vals:
        out.append((t1 + bucket * interval, ORACLE_AGGREGATES[agg](vals)))
    return out


def outcome(fn, *args):
    """fn's result, or the class of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


# Timestamps, bounds and intervals are multiples of one unit, so that
# bucket edges computed in floating point fall on and beside rows.
DS_UNITS = (0.1, 0.3, 1 / 3, 1e-3, 1.0)
_ds_appends = st.lists(st.tuples(
    st.sampled_from((1, 1, 1, 0, 2, 5, -3)),  # ts step: ties, sometimes back
    st.one_of(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50),
              st.integers(-5, 5), st.booleans(), st.sampled_from(("1.5", "-2"))),
    st.sampled_from((False,) * 7 + (True,)),  # reopen the store first
), min_size=8, max_size=50)
_ds_queries = st.lists(st.tuples(
    st.integers(-4, 45).map(lambda i: -math.inf if i == -4 else i),  # start
    st.integers(-2, 60).map(lambda i: math.inf if i == 60 else i),  # span; < 0 inverts
    st.sampled_from((1, 1, 2, 2, 3, 7, 10, 0.3, 1 / 3, 0.5, 0, -1, math.nan)),  # interval
    st.sampled_from((*ORACLE_AGGREGATES, "median")),
), min_size=3, max_size=6)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DS_UNITS), _ds_appends, st.one_of(st.none(), st.integers(0, 49)),
       _ds_queries)
def test_downsample_matches_the_per_row_oracle(unit, appends, unparsable, queries):
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        mp.setattr(tsdb, "SEGMENT_CAPACITY", 7)
        store, rows, step = Store(root), [], 0
        try:
            for i, (delta, value, reopen) in enumerate(appends):
                if reopen:
                    store.close()
                    store = Store(root)
                step += delta
                value = "x" if i == unparsable else value  # float() refuses it
                rows.append(Reading(ch(), value, "°F", step * unit, i + 1, {}))
                store.append(rows[-1])
            for reopen in (False, True):
                if reopen:
                    store.close()
                    store = Store(root)
                for start, span, scale, agg in queries:
                    t1, t2, interval = start * unit, (start + span) * unit, scale * unit
                    assert outcome(store.downsample, ch(), t1, t2, interval, agg) == outcome(
                        downsample_oracle, rows, t1, t2, interval, agg)
                assert outcome(store.downsample, ch(sensor="humidity"), 0, 1, 1, "avg") \
                    is UnknownChannel
        finally:
            store.close()


def test_downsample_buckets_rows_on_float_edges_as_the_oracle_does(tmp_path, monkeypatch):
    # every window start and interval a few units wide: the bisected edge
    # of a bucket lands both before and after rows whose own k says it
    # should not
    monkeypatch.setattr(tsdb, "SEGMENT_CAPACITY", 30)
    with contextlib.closing(Store(tmp_path)) as store:
        for u, unit in enumerate(DS_UNITS[:4]):
            rows = [Reading(ch(sensor=f"s{u}"), float(i), "", i * unit, i + 1, {})
                    for i in range(100)]
            for r in rows:
                store.append(r)
            for start in range(-3, 50):
                for scale in (1, 2, 3, 7):
                    args = (start * unit, math.inf, scale * unit, "last")
                    assert store.downsample(rows[0].channel, *args) == downsample_oracle(
                        rows, *args)


# -- tag index -----------------------------------------------------------


def test_find_channels_conjunctive(tmp_path):
    store = Store(tmp_path)
    a, b = ch(sensor="temp"), ch("n-000002", "temp")
    fill(store, 3, channel=a, tags={"zone": "Z3", "site": "hq"})
    fill(store, 3, channel=b, tags={"zone": "Z3", "site": "lab"})
    assert store.find_channels({"zone": "Z3"}) == [a, b]
    assert store.find_channels({"zone": "Z3", "site": "hq"}) == [a]
    assert store.find_channels({"zone": "Z9"}) == []
    with pytest.raises(tsdb.TsdbError):
        store.find_channels({})
    store.close()


def test_tag_index_sees_a_reused_tags_dict_change(tmp_path):
    store = Store(tmp_path)
    tags = {"zone": "Z3"}
    store.append(reading(1, seq=1, tags=tags))
    tags["zone"] = "Z4"
    store.append(reading(2, seq=2, tags=tags))
    assert store.find_channels({"zone": "Z4"}) == [ch()]
    store.close()


def test_tag_index_survives_reopen(tmp_path):
    store = Store(tmp_path)
    fill(store, 3, tags={"zone": "Z3"})
    store.close()
    assert Store(tmp_path).find_channels({"zone": "Z3"}) == [ch()]


# -- durability ----------------------------------------------------------


def test_torn_tail_truncated_on_reopen(tmp_path):
    store = Store(tmp_path)
    fill(store, 10)
    store.close()
    log = tmp_path / "n-000001" / "temp" / "seg-0.log"
    data = log.read_bytes()
    log.write_bytes(data[:-3])  # tear the last record
    reopened = Store(tmp_path)
    assert reopened.count(ch()) == 9
    # the file itself was repaired, and appends continue cleanly
    reopened.append(reading(100, seq=11))
    reopened.close()
    assert Store(tmp_path).count(ch()) == 10


def test_random_truncation_loses_at_most_one_record(tmp_path):
    rng = random.Random(41)
    for trial in range(10):
        root = tmp_path / f"t{trial}"
        store = Store(root)
        n = rng.randrange(5, 40)
        fill(store, n)
        store.close()
        log = root / "n-000001" / "temp" / "seg-0.log"
        data = log.read_bytes()
        cut = rng.randrange(0, len(data) + 1)
        log.write_bytes(data[:cut])
        reopened = Store(root)
        count = reopened.count(ch()) if reopened.channels() else 0
        # whole records up to the cut survive; at most one boundary record
        # is lost relative to the bytes that remain
        whole = 0
        off = 0
        while off + 4 <= cut:
            (length,) = struct.unpack(">I", data[off:off + 4])
            if off + 4 + length > cut:
                break
            whole += 1
            off += 4 + length
        assert count == whole


def sealed_store(root, extra=0):
    """A store whose seg-0 is sealed, plus extra readings in seg-1.log;
    returns the channel's directory, every reading, and the log that
    seg-0.blk replaced."""
    rows = [reading(i, value=i + 0.5, seq=i + 1) for i in range(SEGMENT_CAPACITY + extra)]
    store = Store(root)
    for r in rows:
        store.append(r)
    store.close()
    log = b"".join(_encode_record(r) for r in rows[:SEGMENT_CAPACITY])
    return root / "n-000001" / "temp", rows, log


def files(seg_dir):
    return sorted(p.name for p in seg_dir.iterdir())


@pytest.mark.parametrize("tmp_len", [0, 50, None])
def test_seal_cut_before_the_rename_leaves_the_log_active(tmp_path, tmp_len):
    seg_dir, rows, log = sealed_store(tmp_path)
    blk = seg_dir / "seg-0.blk"
    (seg_dir / "seg-0.blk.tmp").write_bytes(blk.read_bytes()[:tmp_len])
    blk.unlink()
    (seg_dir / "seg-0.log").write_bytes(log)
    store = Store(tmp_path)
    assert files(seg_dir) == ["seg-0.log"]
    assert store.query_range(ch(), -math.inf, math.inf) == rows
    last = reading(SEGMENT_CAPACITY, value=0.5, seq=SEGMENT_CAPACITY + 1)
    assert store.append(last) == (0, SEGMENT_CAPACITY)  # the full log seals now
    store.close()
    assert files(seg_dir) == ["seg-0.blk"]
    reopened = Store(tmp_path)
    assert reopened.query_range(ch(), -math.inf, math.inf) == rows + [last]
    reopened.close()


def test_seal_cut_before_the_unlink_keeps_the_block(tmp_path):
    seg_dir, rows, log = sealed_store(tmp_path, extra=5)
    (seg_dir / "seg-0.log").write_bytes(log)
    store = Store(tmp_path)
    assert files(seg_dir) == ["seg-0.blk", "seg-1.log"]
    assert store.query_range(ch(), -math.inf, math.inf) == rows  # each once
    store.close()



def test_an_open_decides_from_the_listing(tmp_path, monkeypatch):
    monkeypatch.setattr(tsdb, "SEGMENT_CAPACITY", 4)
    channels = (ch(), ch(sensor="humidity"))
    store = Store(tmp_path)
    for c in channels:
        fill(store, 14, channel=c)  # three blocks and an active log each
    store.close()
    seg_dir = tmp_path / "n-000001" / "temp"
    (seg_dir / "seg-1.log").write_bytes((seg_dir / "seg-3.log").read_bytes())  # a seal cut short
    calls = []
    for name in ("exists", "unlink"):
        method = getattr(Path, name)
        monkeypatch.setattr(Path, name, lambda self, *args, _method=method, _name=name, **kw:
                            calls.append((_name, self.name)) or _method(self, *args, **kw))
    reopened = Store(tmp_path)
    # no stat per segment, and an unlink only for the log beside its block
    assert calls == [("unlink", "seg-1.log")]
    assert [reopened.count(c) for c in channels] == [14, 14]
    reopened.close()
    assert files(seg_dir) == ["seg-0.blk", "seg-1.blk", "seg-2.blk", "seg-3.log"]


def test_a_cut_block_fails_the_open_and_names_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(tsdb, "SEGMENT_CAPACITY", 4)
    store = Store(tmp_path)
    # seg-0 packs every column, with two units and two tags dicts;
    # seg-1 keeps seq and value in its JSON header
    for i, (value, unit, seq) in enumerate([
        (1.5, "°F", 1), (2.5, "%", 2), (3.5, "°F", 3), (4.5, "%", 4),
        (5, "°F", None), (True, "°F", 2**64), ("x", "°F", 7), (8.5, "°F", 8),
    ]):
        store.append(Reading(ch(), value, unit, float(i), seq, {"zone": "ab"[i % 2]}))
    store.close()
    seg_dir = tmp_path / "n-000001" / "temp"
    for name in ("seg-0.blk", "seg-1.blk"):
        blk = seg_dir / name
        data = blk.read_bytes()
        for cut in range(len(data)):
            blk.write_bytes(data[:cut])
            with pytest.raises(tsdb.TsdbError, match=re.escape(str(blk))):
                Store(tmp_path)
        blk.write_bytes(data)
    assert files(seg_dir) == ["seg-0.blk", "seg-1.blk"]
    reopened = Store(tmp_path)
    assert reopened.count(ch()) == 8
    reopened.close()


@contextlib.contextmanager
def json_loads_results(monkeypatch):
    """Collects what each json.loads call inside the block returns."""
    results = []
    loads = json.loads

    def recording(*args, **kwargs):
        results.append(loads(*args, **kwargs))
        return results[-1]

    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", recording)
        yield results


def test_an_open_decodes_json_only_for_active_logs(tmp_path, monkeypatch):
    monkeypatch.setattr(tsdb, "SEGMENT_CAPACITY", 10)
    channels = [ch(sensor=name) for name in ("temp", "humidity", "power")]
    store = Store(tmp_path)
    for c in channels:
        for i in range(25):  # two sealed blocks and an active log each
            store.append(reading(i, value=i + 0.5, seq=i + 1, channel=c, tags={"zone": "a"}))
    store.close()
    with json_loads_results(monkeypatch) as decoded:
        reopened = Store(tmp_path)
    # one JSON record per active log, and per block only its header
    assert [len(d) for d in decoded if type(d) is list] == [1, 1, 1]
    assert [sorted(d) for d in decoded if type(d) is dict] == [
        ["count", "max_ts", "min_ts", "tags", "units"]] * 6
    for c in channels:
        # two blocks and a short run: the readings of each share one tags dict
        for t1, n in ((0, 10), (10, 10), (20, 5)):
            rows = reopened.query_range(c, t1, t1 + 10)
            assert len(rows) == n and all(r.tags is rows[0].tags for r in rows)
            assert rows == [reading(i, value=i + 0.5, seq=i + 1, channel=c, tags={"zone": "a"})
                            for i in range(t1, t1 + n)]
    assert reopened.find_channels({"zone": "a"}) == sorted(channels, key=str)
    reopened.close()


@pytest.mark.parametrize("case", ["enabled", "disabled", "cut-block"])
def test_an_open_restores_the_collector_state(tmp_path, monkeypatch, case):
    monkeypatch.setattr(tsdb, "SEGMENT_CAPACITY", 4)
    store = Store(tmp_path)
    fill(store, 6)  # a block and an active log
    store.close()
    if case == "cut-block":
        blk = tmp_path / "n-000001" / "temp" / "seg-0.blk"
        blk.write_bytes(blk.read_bytes()[:-1])
    during = []  # whether the collector ran while the open decoded a block
    decode_block = tsdb._decode_block

    def watching(*args):
        during.append(gc.isenabled())
        return decode_block(*args)

    monkeypatch.setattr(tsdb, "_decode_block", watching)
    was_enabled = gc.isenabled()
    try:
        (gc.disable if case == "disabled" else gc.enable)()
        if case == "cut-block":
            with pytest.raises(tsdb.TsdbError):
                Store(tmp_path)
        else:
            Store(tmp_path).close()
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]
    assert after == (case != "disabled")


def test_an_open_leaves_no_cyclic_garbage(tmp_path, monkeypatch):
    monkeypatch.setattr(tsdb, "SEGMENT_CAPACITY", 10)
    store = Store(tmp_path)
    for c in (ch(), ch(sensor="humidity")):
        for i in range(27):  # two blocks, then runs of short records between full ones
            store.append(reading(i, value=i + 0.5, seq=i + 1, channel=c,
                                 tags={"zone": "ab"[i // 4 % 2]}))
    store.close()
    log = tmp_path / "n-000001" / "temp" / "seg-2.log"
    log.write_bytes(log.read_bytes()[:-3])  # a torn tail
    gc.collect()
    reopened = Store(tmp_path)
    assert gc.collect() == 0
    assert [reopened.count(c) for c in reopened.channels()] == [27, 26]
    reopened.close()


def log_rows():
    """Readings whose log ends in a short record (the first list) and in a
    full one (the second): unit and tags change, a value is an int."""
    a, b = {"zone": "a"}, {"zone": "b"}
    ends_short = [Reading(ch(), 1.5, "°F", 1.0, 1, a), Reading(ch(), 2.5, "°F", 2.0, 2, a),
                  Reading(ch(), 3.5, "%", 3.0, 3, a), Reading(ch(), 4.5, "%", 4.0, 4, b),
                  Reading(ch(), 5.5, "%", 5.0, 5, b)]
    ends_full = [Reading(ch(), 1.5, "°F", 1.0, 1, a), Reading(ch(), 2.5, "°F", 2.0, 2, a),
                 Reading(ch(), 3, "°F", 3.0, 3, a)]
    return ends_short, ends_full


def write_log(root, rows):
    """Append rows to a new store at root; returns the log's bytes and the
    offset after each record."""
    store = Store(root)
    for r in rows:
        store.append(r)
    store.close()
    data = (root / "n-000001" / "temp" / "seg-0.log").read_bytes()
    ends, prev = [], None
    for r in rows:
        ends.append((ends[-1] if ends else 0) + len(_encode_record(r, prev)))
        prev = r
    assert ends[-1] == len(data)
    return data, ends


@pytest.mark.parametrize("which", [0, 1], ids=["ends-short", "ends-full"])
def test_a_log_cut_at_every_byte_keeps_its_complete_records(tmp_path, which):
    rows = log_rows()[which]
    data, ends = write_log(tmp_path / "whole", rows)
    shorts = [end - start == 28 for start, end in zip([0] + ends, ends)]
    assert shorts == ([False, True, False, False, True], [False, True, False])[which]
    after = Reading(ch(), 9.5, rows[-1].unit, 9.0, 9, dict(rows[-1].tags))
    for cut in range(len(data) + 1):
        root = tmp_path / f"cut-{cut}"
        log = root / "n-000001" / "temp" / "seg-0.log"
        log.parent.mkdir(parents=True)
        log.write_bytes(data[:cut])
        kept = sum(end <= cut for end in ends)
        clean = ends[kept - 1] if kept else 0
        store = Store(root)
        assert store.count(ch()) == kept
        assert log.stat().st_size == clean  # the cut record is truncated
        if kept:
            assert store.query_range(ch(), -math.inf, math.inf) == rows[:kept]
        store.append(after)
        store.close()
        prev = rows[kept - 1] if kept else None
        assert log.read_bytes() == data[:clean] + _encode_record(after, prev)
        reopened = Store(root)
        assert reopened.query_range(ch(), -math.inf, math.inf) == rows[:kept] + [after]
        reopened.close()


def test_a_log_that_starts_with_a_short_record_opens_with_no_rows_from_it(tmp_path):
    rows = log_rows()[0]
    data, ends = write_log(tmp_path / "whole", rows)
    # the short record alone, and followed by full records and a short one
    for end in (ends[1], ends[-1]):
        root = tmp_path / f"to-{end}"
        log = root / "n-000001" / "temp" / "seg-0.log"
        log.parent.mkdir(parents=True)
        log.write_bytes(data[ends[0]:end])
        store = Store(root)
        assert store.channels() == []
        assert log.stat().st_size == 0
        store.close()


def test_a_log_of_full_records_opens_and_appends_short_ones(tmp_path, monkeypatch):
    # as written before short records existed: every record is JSON
    rows = [reading(i, value=i + 0.5, seq=i + 1, tags={"zone": "a"}) for i in range(5)]
    log = tmp_path / "n-000001" / "temp" / "seg-0.log"
    log.parent.mkdir(parents=True)
    old = b"".join(map(_encode_record, rows))
    log.write_bytes(old)
    with json_loads_results(monkeypatch) as decoded:
        store = Store(tmp_path)
    assert [len(d) for d in decoded] == [5]  # every record in one json.loads
    opened = store.query_range(ch(), -math.inf, math.inf)
    assert opened == rows
    assert all(r.tags is opened[0].tags for r in opened)  # equal tags, one dict
    more = [reading(i, value=i + 0.5, seq=i + 1, tags={"zone": "a"}) for i in range(5, 8)]
    for r in more:
        store.append(r)
    store.close()
    assert log.read_bytes() == old + b"".join(struct.pack(">Idqd", 24, r.ts, r.seq, r.value)
                                              for r in more)
    reopened = Store(tmp_path)
    assert reopened.query_range(ch(), -math.inf, math.inf) == rows + more
    reopened.close()


def test_a_flushed_store_is_seen_whole_by_a_second_open(tmp_path):
    store = Store(tmp_path)
    rows = [reading(i, value=i + 0.5, seq=i + 1, channel=c, tags={"zone": "a"})
            for i in range(SEGMENT_CAPACITY + 300) for c in (ch(), ch(sensor="humidity"))]
    for r in rows:
        store.append(r)
    store.flush()
    other = Store(tmp_path)  # the first store is still open
    try:
        for c in (ch(), ch(sensor="humidity")):
            assert other.query_range(c, -math.inf, math.inf) == [r for r in rows if r.channel == c]
    finally:
        other.close()
        store.close()
