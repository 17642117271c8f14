import json
import math
import random
import struct
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from iotra import tsdb
from iotra.reading import ChannelKey, Reading
from iotra.tsdb import (
    SEGMENT_CAPACITY,
    BadInterval,
    RetentionPolicy,
    Store,
    UnknownChannel,
    _encode_record,
    _read_records,
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


def test_read_records_stops_at_torn_tail():
    good = _encode_record(reading(1)) + _encode_record(reading(2))
    torn = _encode_record(reading(3))[:-5]
    records, clean = _read_records(good + torn)
    assert len(records) == 2
    assert clean == len(good)


@pytest.mark.parametrize("body", [b"{x\n", b"1,2\n"])
def test_read_records_stops_at_corrupt_record(body):
    first = _encode_record(reading(1))
    data = first + struct.pack(">I", len(body)) + body + _encode_record(reading(2))
    records, clean = _read_records(data)
    assert records == [json.loads(first[4:])]
    assert clean == len(first)


# -- append / segments ---------------------------------------------------


def test_append_and_count(tmp_path):
    store = Store(tmp_path)
    fill(store, 10)
    assert store.count(ch()) == 10
    assert store.channels() == [ch()]


def test_segment_rolls_and_seals_at_capacity(tmp_path):
    store = Store(tmp_path)
    fill(store, SEGMENT_CAPACITY + 5)
    seg_dir = tmp_path / "n-000001" / "temp"
    assert (seg_dir / "seg-0.log").exists()
    assert (seg_dir / "seg-0.idx").exists()
    assert (seg_dir / "seg-1.log").exists()
    assert not (seg_dir / "seg-1.idx").exists()
    footer = json.loads((seg_dir / "seg-0.idx").read_text())
    assert footer == {"min_ts": 0.0, "max_ts": float(SEGMENT_CAPACITY - 1),
                      "count": SEGMENT_CAPACITY}


def test_sealing_leaves_no_temp_file(tmp_path):
    store = Store(tmp_path)
    fill(store, 2 * SEGMENT_CAPACITY + 5)
    seg_dir = tmp_path / "n-000001" / "temp"
    assert sorted(p.name for p in seg_dir.iterdir()) == [
        "seg-0.idx", "seg-0.log", "seg-1.idx", "seg-1.log", "seg-2.log"]


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


# -- queries -------------------------------------------------------------


def test_query_half_open_sorted(tmp_path):
    store = Store(tmp_path)
    for t in (5, 1, 3, 2, 4):
        store.append(reading(t, seq=t))
    assert [r.ts for r in store.query_range(ch(), 2, 5)] == [2.0, 3.0, 4.0]


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
        # one comparison at each of the four segment boundaries, no sort
        assert len(calls) == 8


# -- reference model -----------------------------------------------------

PROP_CAPACITY = 3
PROP_TAGS = ({}, {"zone": "a"}, {"zone": "b"}, {"zone": "a", "site": "x"})
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

    def retention(self, cutoff):
        for key, chunks in self.chunks.items():
            self.chunks[key] = [
                c for c in chunks
                if not (len(c) == PROP_CAPACITY and max(r.ts for r in c) < cutoff)
            ]

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


def check_against_reference(store, ref, windows):
    assert store.channels() == sorted(ref.known, key=str)
    for channel in store._channels.values():  # the ordered-segment invariant
        for seg in channel.segments:
            assert seg.ts == [r.ts for r in seg.entries]
            if seg.ordered:
                assert seg.entries == sorted(seg.entries, key=ref_key)
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


_appends = st.tuples(
    st.just("append"),
    st.sampled_from(range(len(PROP_CHANNELS))),
    st.sampled_from((1, 0, 2, 1, 0, 1, -3)),  # ts step: ties, sometimes back
    st.one_of(st.none(), st.integers(0, 4)),
    st.sampled_from(range(len(PROP_TAGS))),
)
_ops = st.lists(st.one_of(_appends, _appends, _appends, st.just(("reopen",))),
                min_size=8, max_size=60)
_windows = st.lists(
    st.tuples(st.integers(-5, 40), st.integers(0, 20)).map(
        lambda w: (float(w[0]), float(w[0] + w[1]))),
    min_size=3, max_size=3)


@settings(max_examples=150, deadline=None)
@given(_ops, _windows, st.integers(0, 40))
def test_store_matches_reference_model(ops, windows, cutoff):
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        mp.setattr(tsdb, "SEGMENT_CAPACITY", PROP_CAPACITY)
        store, ref = Store(root), RefStore()
        last_ts = [10] * len(PROP_CHANNELS)
        for i, op in enumerate(ops):
            if op[0] == "reopen":
                store.close()
                store = Store(root)
                ref.reopen()
                continue
            _, c, step, seq, tags = op
            last_ts[c] += step
            r = reading(last_ts[c], value=float(i), seq=seq,
                        tags=dict(PROP_TAGS[tags]), channel=PROP_CHANNELS[c])
            store.append(r)
            ref.append(r)
        check_against_reference(store, ref, windows)
        store.close()
        store = Store(root)
        ref.reopen()
        check_against_reference(store, ref, windows)
        store.apply_retention(now=float(cutoff), policy=RetentionPolicy(max_age=1.0))
        ref.retention(cutoff - 1.0)
        check_against_reference(store, ref, windows)
        store.close()
        store = Store(root)
        ref.reopen()
        check_against_reference(store, ref, windows)
        store.close()


# -- downsample ----------------------------------------------------------


def test_downsample_avg_example(tmp_path):
    store = Store(tmp_path)
    for t, v in ((0, 10), (5, 20), (10, 30), (15, 50)):
        store.append(reading(t, value=float(v), seq=t + 1))
    assert store.downsample(ch(), 0, 20, 10, "avg") == [(0.0, 15.0), (10.0, 40.0)]


def test_downsample_empty_buckets_omitted(tmp_path):
    store = Store(tmp_path)
    store.append(reading(0, value=1.0, seq=1))
    store.append(reading(25, value=2.0, seq=2))
    for agg in ("avg", "count"):
        rows = store.downsample(ch(), 0, 30, 10, agg)
        assert [b for b, _ in rows] == [0.0, 20.0]  # bucket 10 omitted


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


def test_downsample_rejects_bad_interval(tmp_path):
    store = Store(tmp_path)
    store.append(reading(0, seq=1))
    with pytest.raises(BadInterval):
        store.downsample(ch(), 0, 10, 0, "avg")
    with pytest.raises(BadInterval):
        store.downsample(ch(), 0, 10, 5, "median")


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


def test_tag_index_sees_a_reused_tags_dict_change(tmp_path):
    store = Store(tmp_path)
    tags = {"zone": "Z3"}
    store.append(reading(1, seq=1, tags=tags))
    tags["zone"] = "Z4"
    store.append(reading(2, seq=2, tags=tags))
    assert store.find_channels({"zone": "Z4"}) == [ch()]


def test_tag_index_survives_reopen(tmp_path):
    store = Store(tmp_path)
    fill(store, 3, tags={"zone": "Z3"})
    store.close()
    assert Store(tmp_path).find_channels({"zone": "Z3"}) == [ch()]


# -- retention -----------------------------------------------------------


def test_retention_drops_only_old_sealed_segments(tmp_path):
    store = Store(tmp_path)
    fill(store, 2 * SEGMENT_CAPACITY + 5)  # ts 0..2004: two sealed + active
    deleted = store.apply_retention(
        now=3000.0, policy=RetentionPolicy(max_age=3000.0 - SEGMENT_CAPACITY)
    )
    assert deleted == 1  # only seg-0 (max_ts 999) is entirely older
    seg_dir = tmp_path / "n-000001" / "temp"
    assert not (seg_dir / "seg-0.log").exists()
    assert (seg_dir / "seg-1.log").exists()
    assert store.count(ch()) == SEGMENT_CAPACITY + 5
    # active segment is never deleted even when old
    assert store.apply_retention(now=1e9, policy=RetentionPolicy(max_age=1.0)) == 1
    assert (seg_dir / "seg-2.log").exists()


def test_retention_per_channel_policy(tmp_path):
    store = Store(tmp_path)
    other = ch("n-000002", "temp")
    fill(store, SEGMENT_CAPACITY, channel=ch())
    fill(store, SEGMENT_CAPACITY, channel=other)
    deleted = store.apply_retention(
        now=1e9, policy=RetentionPolicy(max_age=1.0, channel=other)
    )
    assert deleted == 1
    assert store.count(ch()) == SEGMENT_CAPACITY
    assert store.count(other) == 0


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
