"""Append-optimized per-channel time-series store.

On disk, under ``<root>/<node>/<sensor>/``:

- ``seg-<n>.log``, the active segment, one record appended per
  reading. A record is a 4-byte big-endian body length and a body of one
  of two kinds. A *full* record's body is a JSON line of ``ts``,
  ``seq``, ``v``, ``unit`` and ``tags``. A *short* record's body is 24
  bytes, big-endian: ``ts`` as float64, ``seq`` as int64 and ``value``
  as float64; it takes unit and tags from the record before it. A
  reading is written short when the previous record's unit and tags
  equal its own, its value is exactly a float and its seq an int that
  fits in 64 bits; a segment's first record, and every other reading,
  is full. A JSON body of those five keys is always longer than 24
  bytes, so the length tells the kinds apart; a short record with no
  full record before it is corrupt.
- ``seg-<n>.blk``, a sealed segment. When the active segment reaches
  SEGMENT_CAPACITY entries it is written once as a packed-column block:
  a 4-byte big-endian header length, a JSON header, then the columns.
  The header holds ``count``, ``min_ts``, ``max_ts`` (the block summary,
  after Gorilla, Pelkonen et al., PVLDB 2015), the block's distinct
  ``units`` and its distinct ``tags`` dicts. The columns are
  little-endian: ``ts`` as float64; ``seq`` as int64 when every seq is
  an int that fits, else a JSON list ``seq`` in the header (so None and
  big ints round-trip); ``value`` as float64 when every value is exactly
  a float, else a JSON list ``value`` in the header (so int, bool and
  str keep their types); then a uint32 index into ``units`` and one into
  ``tags``, each only when the block has more than one distinct entry.

Short records and blocks are not human-readable; ``iotra query`` is the
inspection tool.

Durability, against a process crash (nothing calls fsync, so not against
power loss or an OS crash):

- An append reaches the file only when the channel's write buffer
  fills (Python 3.11 sizes it to the file system's block, commonly
  4 KiB, which holds about 145 short records), or at ``flush()`` or
  ``close()``; the scenario ``World`` flushes once, when a run ends. A
  process crash loses the readings still buffered and can tear the
  tail record of the active segment; an open truncates the torn tail
  and appends continue after it. Once ``flush()`` returns, a Store
  opened on the same root sees every appended reading.
- Neither short records nor blocks carry a checksum: the length framing
  finds a record cut short, not bytes garbled in place, as power loss
  can leave them. A full record that does not parse is treated as torn.
- Sealing writes ``seg-<n>.blk.tmp``, renames it to ``seg-<n>.blk``
  and then unlinks ``seg-<n>.log``. A crash before the rename leaves the
  whole log, which stays the active segment (an open removes the
  ``.tmp``) and is sealed by the next append. A crash after the rename
  leaves block and log; an open keeps the block and unlinks the log, so
  every reading is stored once.
- A block that is cut short or otherwise unreadable makes the open
  raise TsdbError naming the file; no rows are dropped silently.

An open decodes every block eagerly into the same resident lists the
active segment uses: ``array`` turns each column into a list and
``map`` builds the readings, with no per-record JSON. All readings of
one block share the block's unit string and ``tags`` dict. In an active
log, a run of short records shares the unit string and ``tags`` dict of
the full record that starts it, and consecutive full records with equal
tags share one dict (readings appended in one session share the
caller's dict, see Store.append). The tag index is built from each
block's tags table, not from every reading. An active log's full
records are decoded with one ``json.loads`` over their joined bodies, so
a log written before short records existed (every record full) opens as
fast as it did. Decoding on first touch was measured and not taken: one
1,000-reading block costs about 1.2 ms to read and decode with the
garbage collector running, as in an open, more than four times the
0.28 ms p99 of the benchmark's ``history-read`` queries (2-vCPU host,
Python 3.11). A lazy open would move that cost into the heavy queries
after every reopen, and would need a bounded cache, whose size is one
more knob.

In memory each segment keeps its readings in append order beside a
parallel ``ts`` list and an ``ordered`` flag. The flag holds while every
append sorts at or after the previous one in (ts, seq) order, which is
how a node's readings arrive; one out-of-order append clears it for that
segment. A query skips segments by their min/max summary, bisects the
``ts`` list of each ordered segment it touches and slices its entries:
O(segments + log n + k) for k rows returned. It sorts only when a
touched segment is unordered or two touched slices overlap at a segment
boundary, and returns the same rows in the same order either way.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from array import array
from bisect import bisect_left
from itertools import repeat
from operator import le, lt
from pathlib import Path

from .reading import ChannelKey, Reading

SEGMENT_CAPACITY = 1000

AGGREGATES = ("min", "max", "avg", "count", "first", "last")

# json.dumps with keyword arguments builds a new encoder on every call
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
_LENGTH = struct.Struct(">I")
# a short record: its length prefix (24), ts, seq and value
_SHORT = struct.Struct(">Idqd")
_SHORT_BODY = struct.Struct(">dqd")
_SHORT_LENGTH = _SHORT_BODY.size
_SWAP = sys.byteorder == "big"  # block columns are little-endian


class TsdbError(Exception):
    pass


class UnknownChannel(TsdbError):
    pass


class BadInterval(TsdbError):
    pass


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


def _encode_record(r: Reading, prev: Reading | None = None) -> bytes:
    """r's record in a log whose last record holds prev: short when prev
    has r's unit and tags (identity first, as in _encode_block) and r's
    seq and value pack, else full."""
    seq, value = r.seq, r.value
    if (prev is not None and type(value) is float and type(seq) is int
            and -2**63 <= seq < 2**63
            and (r.unit is prev.unit or r.unit == prev.unit)
            and (r.tags is prev.tags or r.tags == prev.tags)):
        return _SHORT.pack(_SHORT_LENGTH, r.ts, seq, value)
    body = _ENCODER.encode(
        {"ts": r.ts, "seq": seq, "v": value, "unit": r.unit, "tags": r.tags}
    ).encode("utf-8") + b"\n"
    return _LENGTH.pack(len(body)) + body


def _read_records(data: bytes) -> tuple[list, int]:
    """Parse length-prefixed records; returns (records, clean_offset).

    A full record comes back as its JSON dict, a short one as a
    (ts, seq, value) tuple. Stops at the first torn or corrupt record,
    so a truncated tail costs at most one record; a short record with no
    full record before it is corrupt. One json.loads decodes the joined
    bodies of the full records; an error or a count mismatch there falls
    back to decoding one record at a time.
    """
    records: list = []  # a full record's offset holds its place until decoded
    bodies: list[bytes] = []
    off, size = 0, len(data)
    while off + 4 <= size:
        (length,) = _LENGTH.unpack_from(data, off)
        end = off + 4 + length
        if end > size:
            break
        if length != _SHORT_LENGTH:
            records.append(off)
            bodies.append(data[off + 4 : end])
        elif bodies:
            records.append(_SHORT_BODY.unpack_from(data, off + 4))
        else:
            break
        off = end
    try:
        decoded = json.loads((b"[" + b",".join(bodies) + b"]").decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        decoded = None
    if decoded is None or len(decoded) != len(bodies):
        decoded = []
        for body in bodies:
            try:
                decoded.append(json.loads(body.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError):
                index = [i for i, rec in enumerate(records) if type(rec) is int][len(decoded)]
                off = records[index]
                del records[index:]
                break
    if len(decoded) == len(records):  # every record is full
        return decoded, off
    full = iter(decoded)
    return [next(full) if type(rec) is int else rec for rec in records], off


def _log_readings(key: ChannelKey, records: list) -> list[Reading]:
    """The readings of a log's records. Consecutive readings with equal
    tags share one dict, and a run of short records shares the unit
    string and tags dict of the full record that starts it."""
    readings = []
    unit = tags = None
    for rec in records:
        if type(rec) is tuple:
            ts, seq, value = rec
        else:
            ts, seq, value = float(rec["ts"]), rec.get("seq"), rec["v"]
            unit = rec.get("unit", "")
            if (rec_tags := rec.get("tags") or {}) != tags:
                tags = rec_tags
        readings.append(Reading(key, value, unit, ts, seq, tags))
    return readings


def _pack(typecode: str, values) -> bytes:
    column = array(typecode, values)
    if _SWAP:
        column.byteswap()
    return column.tobytes()


def _intern(table: list, item) -> int:
    """Index of item in table, appending it when absent."""
    try:
        return table.index(item)
    except ValueError:
        table.append(item)
        return len(table) - 1


def _encode_block(seg: "_Segment") -> tuple[bytes, list[dict]]:
    """The block file of a full segment, and its distinct tags dicts."""
    units: list[str] = []
    tables: list[dict] = []
    unit_col, tag_col, seqs, values = [], [], [], []
    unit = tags = object()  # matches no reading's
    for r in seg.entries:
        if r.unit is not unit:  # identity first: a session shares one of each
            unit = r.unit
            u = _intern(units, unit)
        if r.tags is not tags:
            tags = r.tags
            t = _intern(tables, tags)
        unit_col.append(u)
        tag_col.append(t)
        seqs.append(r.seq)
        values.append(r.value)
    header = {"count": len(seqs), "min_ts": seg.min_ts, "max_ts": seg.max_ts,
              "units": units, "tags": tables}
    columns = [_pack("d", seg.ts)]
    if set(map(type, seqs)) == {int} and -2**63 <= min(seqs) and max(seqs) < 2**63:
        columns.append(_pack("q", seqs))
    else:
        header["seq"] = seqs
    if set(map(type, values)) == {float}:
        columns.append(_pack("d", values))
    else:
        header["value"] = values
    if len(units) > 1:
        columns.append(_pack("I", unit_col))
    if len(tables) > 1:
        columns.append(_pack("I", tag_col))
    head = _ENCODER.encode(header).encode("utf-8")
    return b"".join([_LENGTH.pack(len(head)), head, *columns]), tables


def _decode_block(key: ChannelKey, data: bytes) -> tuple[list[Reading], list[float], list[dict]]:
    """(readings, their ts, distinct tags dicts) of a block file; raises
    ValueError, and others, on a block that is cut short or corrupt."""
    (length,) = _LENGTH.unpack_from(data)
    off = 4 + length
    if off > len(data):
        raise ValueError("header cut short")
    header = json.loads(data[4:off])
    count = header["count"]

    def column(typecode: str) -> list:
        nonlocal off
        col = array(typecode)
        end = off + count * col.itemsize
        if end > len(data):
            raise ValueError(f"{typecode!r} column cut short")
        col.frombytes(data[off:end])
        if _SWAP:
            col.byteswap()
        off = end
        return col.tolist()

    ts = column("d")
    seqs = header["seq"] if "seq" in header else column("q")
    values = header["value"] if "value" in header else column("d")
    units, tables = header["units"], header["tags"]
    unit_col = (repeat(units[0]) if len(units) == 1
                else map(units.__getitem__, column("I")))
    tag_col = (repeat(tables[0]) if len(tables) == 1
               else map(tables.__getitem__, column("I")))
    if off != len(data):
        raise ValueError(f"{len(data) - off} bytes after the columns")
    if not len(seqs) == len(values) == count:
        raise ValueError("a column's length is not the header's count")
    readings = list(map(Reading, repeat(key), values, unit_col, ts, seqs, tag_col))
    return readings, ts, tables


class _Segment:
    def __init__(self, number: int, path: Path):
        self.number = number
        self.path = path
        self.entries: list[Reading] = []
        self.ts: list[float] = []  # entries[i].ts, for bisecting
        self.ordered = True  # entries nondecreasing in _sort_key order
        self.sealed = False
        self.tables: list[dict] = []  # a sealed segment's distinct tags
        self.min_ts = float("inf")
        self.max_ts = float("-inf")

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

    def fill(self, readings: list[Reading], ts: list[float]) -> None:
        """add() each of readings, whose timestamps are ts, in order, to
        this empty segment."""
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
    """One writer per channel; readers see the resident readings of every
    segment, sealed and active."""

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
        numbers = set()
        for path in sensor_dir.glob("seg-*"):
            stem, _, kind = path.name.partition(".")
            if kind == "blk.tmp":
                path.unlink()  # a seal cut short: its log is still whole
            elif kind in ("log", "blk"):
                numbers.add(int(stem[4:]))
        for number in sorted(numbers):
            log, blk = sensor_dir / f"seg-{number}.log", sensor_dir / f"seg-{number}.blk"
            if blk.exists():
                seg = _Segment(number, blk)
                try:
                    readings, ts, seg.tables = _decode_block(key, blk.read_bytes())
                except (ValueError, LookupError, TypeError, struct.error) as exc:
                    raise TsdbError(f"unreadable block {blk}: {exc}") from None
                seg.fill(readings, ts)
                seg.sealed = True
                log.unlink(missing_ok=True)  # sealed, but not yet unlinked
            else:
                seg = _Segment(number, log)
                data = log.read_bytes()
                records, clean = _read_records(data)
                if clean < len(data):
                    # torn tail from a crash mid-append: repair in place
                    with open(log, "r+b") as fh:
                        fh.truncate(clean)
                readings = _log_readings(key, records)
                seg.fill(readings, [r.ts for r in readings])
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
        after appending: queries would see the change at once, the disk
        perhaps never, as a record or a block written later takes an
        identical dict for unchanged tags.
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
        ch._fh.write(_encode_record(reading, seg.entries[-1] if seg.entries else None))
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
        data, seg.tables = _encode_block(seg)
        blk = seg.path.with_suffix(".blk")
        tmp = blk.with_suffix(".blk.tmp")
        tmp.write_bytes(data)
        os.replace(tmp, blk)
        seg.path.unlink()
        seg.path = blk
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
            for tags in seg.tables if seg.sealed else (r.tags for r in seg.entries):
                self._index_tags(ch, tags)

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
                continue  # min/max summary skip
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
