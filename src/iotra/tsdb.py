"""Append-optimized per-channel time-series store.

On disk: ``<root>/<node>/<sensor>/seg-<n>.log`` holding length-prefixed
JSON-line records; a segment seals at SEGMENT_CAPACITY entries, gaining
an immutable ``seg-<n>.idx`` footer {min_ts, max_ts, count} used to skip
non-overlapping segments at query time. The footer is written to a
temporary file and renamed into place, so a crash leaves either no
footer or a whole one. Records are uncompressed and human-inspectable.
A crash can tear at most the tail record of the active segment;
reopening truncates the torn tail and continues. Nothing calls fsync:
this holds against a process crash, not against power loss.

In memory each segment keeps its readings in append order beside a
parallel ``ts`` list and an ``ordered`` flag. The flag holds while every
append sorts at or after the previous one in (ts, seq) order, which is
how a node's readings arrive; one out-of-order append clears it for that
segment. A query skips segments by their min/max summary, bisects the
``ts`` list of each ordered segment it touches and slices its entries:
O(segments + log n + k) for k rows returned. It sorts only when a
touched segment is unordered or two touched slices overlap at a segment
boundary, and returns the same rows in the same order either way.

Sealed segments stay resident: every open of the store starts cold, and
decoding one sealed 1,000-record segment on first use costs several
milliseconds, far more than a recent-window query, so loading them
lazily would move that cost onto the first heavy read of each channel.
"""

from __future__ import annotations

import json
import os
import struct
from bisect import bisect_left
from dataclasses import dataclass
from operator import le, lt
from pathlib import Path

from .reading import ChannelKey, Reading

SEGMENT_CAPACITY = 1000

AGGREGATES = ("min", "max", "avg", "count", "first", "last")

# json.dumps with keyword arguments builds a new encoder on every call
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
_LENGTH = struct.Struct(">I")


class TsdbError(Exception):
    pass


class UnknownChannel(TsdbError):
    pass


class BadInterval(TsdbError):
    pass


@dataclass(slots=True)
class RetentionPolicy:
    max_age: float  # seconds
    channel: ChannelKey | None = None  # None = global

    def __post_init__(self):
        if self.max_age <= 0:
            raise TsdbError("max_age must be positive")


def _sort_key(r: Reading):
    return (r.ts, r.seq if r.seq is not None else 0)


def aggregate(agg: str, vals: list[float]) -> float:
    """One of AGGREGATES over a non-empty list of values in time order."""
    if agg == "min":
        return min(vals)
    if agg == "max":
        return max(vals)
    if agg == "avg":
        return sum(vals) / len(vals)
    if agg == "count":
        return float(len(vals))
    if agg == "first":
        return vals[0]
    return vals[-1]


def _encode_record(r: Reading) -> bytes:
    body = _ENCODER.encode(
        {"ts": r.ts, "seq": r.seq, "v": r.value, "unit": r.unit, "tags": r.tags}
    ).encode("utf-8") + b"\n"
    return _LENGTH.pack(len(body)) + body


def _read_records(data: bytes) -> tuple[list[dict], int]:
    """Parse length-prefixed records; returns (records, clean_offset).

    Stops at the first torn or corrupt record, so a truncated tail costs
    at most one record. When the records fill the data exactly, one
    json.loads decodes their joined bodies; an error or a count mismatch
    there falls back to decoding one record at a time.
    """
    bodies: list[bytes] = []
    off = 0
    while off + 4 <= len(data):
        (length,) = _LENGTH.unpack_from(data, off)
        end = off + 4 + length
        if end > len(data):
            break
        bodies.append(data[off + 4 : end])
        off = end
    if off == len(data):
        try:
            records = json.loads((b"[" + b",".join(bodies) + b"]").decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            records = None
        if records is not None and len(records) == len(bodies):
            return records, off
    records, off = [], 0
    for body in bodies:
        try:
            records.append(json.loads(body.decode("utf-8")))
        except (json.JSONDecodeError, UnicodeDecodeError):
            break
        off += 4 + len(body)
    return records, off


class _Segment:
    def __init__(self, number: int, path: Path):
        self.number = number
        self.path = path
        self.entries: list[Reading] = []
        self.ts: list[float] = []  # entries[i].ts, for bisecting
        self.ordered = True  # entries nondecreasing in _sort_key order
        self.sealed = False
        self.min_ts = float("inf")
        self.max_ts = float("-inf")

    @property
    def idx_path(self) -> Path:
        return self.path.with_suffix(".idx")

    def add(self, r: Reading) -> None:
        ts = r.ts
        if self.ordered and self.entries:
            last = self.ts[-1]
            # negated so that a NaN timestamp clears the flag too
            if not (ts > last or ts == last and _sort_key(r) >= _sort_key(self.entries[-1])):
                self.ordered = False
        self.entries.append(r)
        self.ts.append(ts)
        if ts < self.min_ts:
            self.min_ts = ts
        if ts > self.max_ts:
            self.max_ts = ts

    def fill(self, readings: list[Reading]) -> None:
        """add() each of readings, in order, to this empty segment."""
        ts = [r.ts for r in readings]
        self.entries, self.ts = readings, ts
        # strictly increasing ts, the common case, settles the order alone
        if not all(map(lt, ts, ts[1:])):
            keys = [_sort_key(r) for r in readings]
            self.ordered = all(map(le, ts, ts[1:])) and all(map(le, keys, keys[1:]))
        self.min_ts = min((self.min_ts, *ts))
        self.max_ts = max((self.max_ts, *ts))

    def rows(self, t1: float, t2: float) -> list[Reading]:
        """Entries with t1 <= ts < t2, in append order."""
        if self.ordered:
            ts = self.ts
            return self.entries[bisect_left(ts, t1) : bisect_left(ts, t2)]
        return [r for r in self.entries if t1 <= r.ts < t2]


class _Channel:
    def __init__(self, key: ChannelKey, root: Path):
        self.key = key
        self.dir = root / key.node_id / key.sensor_name
        self.segments: list[_Segment] = []
        self.active: _Segment | None = None
        self.indexed_tags: dict[str, str] | None = None  # copy, last indexed
        self._fh = None

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class Store:
    """One writer per channel; readers see sealed segments plus the
    in-memory mirror of the active segment."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._channels: dict[ChannelKey, _Channel] = {}
        self._tag_index: dict[tuple[str, str], set[ChannelKey]] = {}
        self._load()

    # -- startup recovery ------------------------------------------------

    def _load(self) -> None:
        for node_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            for sensor_dir in sorted(p for p in node_dir.iterdir() if p.is_dir()):
                try:
                    key = ChannelKey(node_dir.name, sensor_dir.name)
                except ValueError:
                    continue
                self._load_channel(key, sensor_dir)

    def _load_channel(self, key: ChannelKey, sensor_dir: Path) -> None:
        ch = _Channel(key, self.root)
        logs = sorted(
            sensor_dir.glob("seg-*.log"),
            key=lambda p: int(p.stem.split("-")[1]),
        )
        for log in logs:
            seg = _Segment(int(log.stem.split("-")[1]), log)
            data = log.read_bytes()
            records, clean = _read_records(data)
            if clean < len(data):
                # torn tail from a crash mid-append: repair in place
                with open(log, "r+b") as fh:
                    fh.truncate(clean)
            seg.fill([
                Reading(key, rec["v"], rec.get("unit", ""), float(rec["ts"]),
                        rec.get("seq"), rec.get("tags") or {})
                for rec in records
            ])
            if seg.idx_path.exists():
                seg.sealed = True
            ch.segments.append(seg)
        if ch.segments and not ch.segments[-1].sealed:
            ch.active = ch.segments[-1]
        if any(seg.entries for seg in ch.segments):
            self._channels[key] = ch
            self._index_channel(ch)

    # -- writes ----------------------------------------------------------

    def append(self, reading: Reading) -> tuple[int, int]:
        """Append one reading; returns (segment number, offset in segment).

        The store keeps the caller's Reading and its ``tags`` dict (a
        copy would cost every append), so the caller must not change them
        after appending: queries would see it and the disk would not.
        """
        ch = self._channels.get(reading.channel)
        if ch is None:
            ch = _Channel(reading.channel, self.root)
            ch.dir.mkdir(parents=True, exist_ok=True)
            self._channels[reading.channel] = ch
        seg = ch.active
        if seg is None:
            nxt = ch.segments[-1].number + 1 if ch.segments else 0
            seg = ch.active = _Segment(nxt, ch.dir / f"seg-{nxt}.log")
            ch.segments.append(seg)
            ch.close()
        if ch._fh is None:
            ch._fh = open(seg.path, "ab")
        ch._fh.write(_encode_record(reading))
        seg.add(reading)
        self._index_tags(ch, reading.tags)
        position = (seg.number, len(seg.entries) - 1)
        if len(seg.entries) >= SEGMENT_CAPACITY:
            self._seal(ch)
        return position

    def _seal(self, ch: _Channel) -> None:
        seg = ch.active
        assert seg is not None
        ch.close()
        footer = {"min_ts": seg.min_ts, "max_ts": seg.max_ts, "count": len(seg.entries)}
        tmp = seg.idx_path.with_suffix(".idx.tmp")
        tmp.write_text(json.dumps(footer), encoding="utf-8")
        os.replace(tmp, seg.idx_path)
        seg.sealed = True
        ch.active = None

    def _index_tags(self, ch: _Channel, tags: dict[str, str]) -> None:
        # the index is a union over readings; a channel's tags rarely change
        if tags == ch.indexed_tags:
            return
        ch.indexed_tags = dict(tags)
        for k, v in tags.items():
            self._tag_index.setdefault((k, v), set()).add(ch.key)

    def _index_channel(self, ch: _Channel) -> None:
        ch.indexed_tags = None
        for seg in ch.segments:
            for r in seg.entries:
                self._index_tags(ch, r.tags)

    def flush(self) -> None:
        for ch in self._channels.values():
            if ch._fh is not None:
                ch._fh.flush()

    def close(self) -> None:
        for ch in self._channels.values():
            ch.close()

    # -- reads -----------------------------------------------------------

    def channels(self) -> list[ChannelKey]:
        return sorted(self._channels, key=str)

    def count(self, channel: ChannelKey) -> int:
        ch = self._channels.get(channel)
        return sum(len(s.entries) for s in ch.segments) if ch else 0

    def query_range(self, channel: ChannelKey, t1: float, t2: float) -> list[Reading]:
        """All readings with t1 <= ts < t2, sorted by (ts, seq); readings
        with equal keys keep their append order."""
        if t1 > t2:
            raise TsdbError("t1 must be <= t2")
        ch = self._channels.get(channel)
        if ch is None:
            raise UnknownChannel(str(channel))
        out: list[Reading] = []
        if not t1 < t2:  # empty interval (or a NaN bound)
            return out
        in_order = True
        for seg in ch.segments:
            if not seg.entries or seg.max_ts < t1 or seg.min_ts >= t2:
                continue  # footer skip
            rows = seg.rows(t1, t2)
            if not rows:
                continue
            if in_order and (
                not seg.ordered or (out and _sort_key(rows[0]) < _sort_key(out[-1]))
            ):
                in_order = False
            out += rows
        if not in_order:
            out.sort(key=_sort_key)
        return out

    def downsample(
        self, channel: ChannelKey, t1: float, t2: float, interval: float, agg: str
    ) -> list[tuple[float, float]]:
        """Bucketed aggregate over [t1, t2): buckets [t1+k*i, t1+(k+1)*i).

        Empty buckets are omitted for every aggregate, count included.
        """
        if interval <= 0:
            raise BadInterval(str(interval))
        if agg not in AGGREGATES:
            raise BadInterval(f"unknown aggregate {agg!r}")
        out: list[tuple[float, float]] = []
        bucket, vals = None, []
        # rows come sorted by ts, so each bucket's rows are contiguous
        for r in self.query_range(channel, t1, t2):
            k = int((r.ts - t1) // interval)
            if k != bucket:
                if vals:
                    out.append((t1 + bucket * interval, aggregate(agg, vals)))
                bucket, vals = k, []
            vals.append(float(r.value))
        if vals:
            out.append((t1 + bucket * interval, aggregate(agg, vals)))
        return out

    def find_channels(self, tag_query: dict[str, str]) -> list[ChannelKey]:
        """Channels whose stored tags satisfy every key=value term."""
        if not tag_query:
            raise TsdbError("tag query needs at least one term")
        result: set[ChannelKey] | None = None
        for k, v in tag_query.items():
            hits = self._tag_index.get((k, v), set())
            result = set(hits) if result is None else result & hits
        return sorted(result or (), key=str)

    # -- retention -------------------------------------------------------

    def apply_retention(self, now: float, policy: RetentionPolicy) -> int:
        """Atomically drop sealed segments entirely older than max_age.
        The active segment is never deleted."""
        cutoff = now - policy.max_age
        deleted = 0
        for key, ch in self._channels.items():
            if policy.channel is not None and policy.channel != key:
                continue
            keep: list[_Segment] = []
            for seg in ch.segments:
                if seg.sealed and seg.entries and seg.max_ts < cutoff:
                    seg.path.unlink(missing_ok=True)
                    seg.idx_path.unlink(missing_ok=True)
                    deleted += 1
                else:
                    keep.append(seg)
            ch.segments = keep
        self._tag_index.clear()
        for ch in self._channels.values():
            self._index_channel(ch)
        return deleted
