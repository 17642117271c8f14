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
- In JSON, a value that is a ``TypedScalar`` (the gateway keeps a ``t:``
  value typed) is the object ``{"scalar": <its wire text>}``, read back
  as the same scalar.

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
one block share the block's unit string and ``tags`` dict. An active
log is decoded in runs: a run of short records is unpacked in one pass
(``iter_unpack``) and its readings built by one ``map``, sharing the
unit string and ``tags`` dict of the full record that starts it;
consecutive full records with equal tags share one dict (readings
appended in one session share the caller's dict, see Store.append). The
full records are decoded with one ``json.loads`` over their joined
bodies, so a log written before short records existed (every record
full) opens as fast as it did. The tag index is built from each
segment's distinct tags dicts, not from every reading.

The open runs with the cyclic garbage collector paused, and restores
the caller's setting after it. What an open builds is acyclic (readings,
lists, floats, and unit strings and tags dicts shared between readings),
so a collector pass during it frees nothing, yet each pass traverses the
rows loaded so far: on a 200k-reading store, 292 passes took about a
third of the open. The loaded rows still pass through the collector's
generations afterwards, one pass of each; a long-running process pays
about what the open saved, in the operations that follow it, while a
short-lived one such as ``iotra query`` exits first.

Decoding on first touch was measured and not taken: one 1,000-reading
block costs about 1.2 ms to read and decode with the garbage collector
running, more than four times the 0.28 ms p99 of the benchmark's
``history-read`` queries (2-vCPU host, Python 3.11). A lazy open would
move that cost into the heavy queries after every reopen, and would
need a bounded cache, whose size is one more knob.

In memory each segment keeps its readings (``entries``) in append order
beside two parallel columns, ``ts`` and ``values``, and an ``ordered``
flag. ``values`` holds the very objects the readings hold, so it costs a
list slot, 8 bytes a reading; an open fills both columns from the lists
the decoders build anyway. The flag holds while every append sorts at or
after the previous one in (ts, seq) order, which is how a node's
readings arrive; one out-of-order append clears it for that segment.

A query skips segments by their min/max summary, bisects the ``ts`` list
of each ordered segment it touches and slices its entries:
O(segments + log n + k) for k rows returned. It sorts only when a
touched segment is unordered or two touched slices overlap at a segment
boundary, and returns the same rows in the same order either way.
``downsample`` finds the same slices (Store._spans decides for both) and
takes them from ``ts`` and ``values``, or, where query_range would sort,
from the rows it returns, converting each value with ``float`` once. It
then steps one bucket at a time: the bucket's first row gives its k,
a bisect for the edge t1 + (k+1)*interval finds the next bucket's first
row, and that edge moves past any row that rounding puts on the wrong
side of it, so that every row lands in the bucket int((ts - t1) //
interval) names. Each bucket is one aggregate call over its values in
row order, so a sum adds them in the order a loop over rows would.
"""

from __future__ import annotations

import gc
import json
import os
import re
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import itemgetter, le, lt
from pathlib import Path

from .infomodel import TypedScalar, parse_scalar
from .reading import ChannelKey, Reading

SEGMENT_CAPACITY = 1000

# Each aggregate's function over a non-empty list of values in time order.
AGGREGATES = {
    "min": min,
    "max": max,
    "avg": lambda vals: sum(vals) / len(vals),
    "count": lambda vals: float(len(vals)),
    "first": itemgetter(0),
    "last": itemgetter(-1),
}


def _typed_json(value) -> dict:
    """The JSON of a TypedScalar value (a ``t:`` reading's): its wire text
    under ``scalar``, which _stored_value reads back."""
    if not isinstance(value, TypedScalar):
        raise TypeError(f"a {type(value).__name__} value is not storable")
    return {"scalar": value.encode()}


def _stored_value(v):
    return parse_scalar(v["scalar"]) if type(v) is dict else v


# json.dumps with keyword arguments builds a new encoder on every call
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, default=_typed_json)
_LENGTH = struct.Struct(">I")
# a short record: its length prefix (24), ts, seq and value
_SHORT = struct.Struct(">Idqd")
_SHORT_LENGTH = _SHORT.size - 4
# a run of whole short records (length prefix 24, then 24 bytes), matched
# from a record's start
_SHORT_RUN = re.compile(rb"(?:\x00\x00\x00\x18.{24})*", re.DOTALL)
_SWAP = sys.byteorder == "big"  # block columns are little-endian


class TsdbError(Exception):
    pass


class UnknownChannel(TsdbError):
    pass


class BadInterval(TsdbError):
    pass


def _sort_key(r: Reading):
    return (r.ts, r.seq if r.seq is not None else 0)


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


def _decode_log(key: ChannelKey, data: bytes
                ) -> tuple[list[Reading], list[float], list, list[dict], int]:
    """(readings, their ts, their values, distinct tags dicts, clean
    offset) of an active log's bytes.

    Stops at the first torn or corrupt record, so a truncated tail costs
    at most one record; a short record with no full record before it is
    corrupt. One json.loads decodes the joined bodies of the full
    records; an error or a count mismatch there falls back to decoding
    one record at a time. A full record's length is never 24, so a run of
    short records ends at the first length that is not; each run is
    unpacked in one pass and shares the unit string and tags dict of the
    full record before it. Consecutive full records with equal tags
    share one dict.
    """
    starts: list[int] = []  # each full record's offset
    bodies: list[bytes] = []
    runs: dict[int, tuple[int, int]] = {}  # full records before a run: its span
    off, size = 0, len(data)
    while off + 4 <= size:
        (length,) = _LENGTH.unpack_from(data, off)
        if length == _SHORT_LENGTH:
            end = _SHORT_RUN.match(data, off).end()
            if not bodies or end == off:  # no full record before it, or torn
                break
            runs[len(bodies)] = (off, end)
        else:
            end = off + 4 + length
            if end > size:
                break
            starts.append(off)
            bodies.append(data[off + 4 : end])
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
                off = starts[len(decoded)]
                break
    readings: list[Reading] = []
    ts: list[float] = []
    values: list = []
    tables: list[dict] = []
    tags = None
    for n, rec in enumerate(decoded, 1):
        t, v, unit = float(rec["ts"]), _stored_value(rec["v"]), rec.get("unit", "")
        if (rec_tags := rec.get("tags") or {}) != tags:
            tags = rec_tags
            tables.append(tags)
        readings.append(Reading(key, v, unit, t, rec.get("seq"), tags))
        ts.append(t)
        values.append(v)
        if n in runs:
            start, end = runs[n]
            _, run_ts, seqs, run_values = zip(*_SHORT.iter_unpack(data[start:end]))
            readings += map(Reading, repeat(key), run_values, repeat(unit), run_ts, seqs,
                            repeat(tags))
            ts += run_ts
            values += run_values
    return readings, ts, values, tables, off


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


def _encode_block(seg: "_Segment") -> bytes:
    """The block file of a full segment."""
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
    return b"".join([_LENGTH.pack(len(head)), head, *columns])


def _decode_block(key: ChannelKey,
                  data: bytes) -> tuple[list[Reading], list[float], list, list[dict]]:
    """(readings, their ts, their values, distinct tags dicts) of a block
    file; raises ValueError, and others, on a block that is cut short or
    corrupt."""
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
    values = list(map(_stored_value, header["value"])) if "value" in header else column("d")
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
    return readings, ts, values, tables


class _Segment:
    def __init__(self, number: int, path: Path):
        self.number = number
        self.path = path
        self.entries: list[Reading] = []
        self.ts: list[float] = []  # entries[i].ts, for bisecting
        self.values: list = []  # entries[i].value, for downsampling
        self.ordered = True  # entries nondecreasing in _sort_key order
        self.sealed = False
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
        self.values.append(r.value)
        if ts < self.min_ts:
            self.min_ts = ts
        if ts > self.max_ts:
            self.max_ts = ts

    def fill(self, readings: list[Reading], ts: list[float], values: list) -> None:
        """add() each of readings, whose timestamps are ts and values are
        values, in order, to this empty segment."""
        self.entries, self.ts, self.values = readings, ts, values
        # strictly increasing ts, the common case, settles the order alone
        if not all(map(lt, ts, ts[1:])):
            keys = [_sort_key(r) for r in readings]
            self.ordered = all(map(le, ts, ts[1:])) and all(map(le, keys, keys[1:]))
        self.min_ts = min((self.min_ts, *ts))
        self.max_ts = max((self.max_ts, *ts))


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
        # An open builds only acyclic objects, so a pass of the cyclic
        # collector frees nothing here; paused, it does not traverse the
        # rows loaded so far each time the load allocates enough more.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for node_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
                for sensor_dir in sorted(p for p in node_dir.iterdir() if p.is_dir()):
                    try:
                        key = ChannelKey(node_dir.name, sensor_dir.name)
                    except ValueError:
                        continue
                    self._load_channel(key, sensor_dir)
        finally:
            if collecting:
                gc.enable()

    def _load_channel(self, key: ChannelKey, sensor_dir: Path) -> None:
        ch = _Channel(key, self.root)
        numbers = set()
        tables: list[dict] = []  # each segment's distinct tags dicts
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
                    readings, ts, values, seg_tables = _decode_block(key, blk.read_bytes())
                except (ValueError, LookupError, TypeError, struct.error) as exc:
                    raise TsdbError(f"unreadable block {blk}: {exc}") from None
                seg.sealed = True
                log.unlink(missing_ok=True)  # sealed, but not yet unlinked
            else:
                seg = _Segment(number, log)
                data = log.read_bytes()
                readings, ts, values, seg_tables, clean = _decode_log(key, data)
                if clean < len(data):
                    # torn tail from a crash mid-append: repair in place
                    with open(log, "r+b") as fh:
                        fh.truncate(clean)
            seg.fill(readings, ts, values)
            tables += seg_tables
            ch.segments.append(seg)
        if ch.segments and not ch.segments[-1].sealed:
            ch.active = ch.segments[-1]
        if any(seg.entries for seg in ch.segments):
            self._channels[key] = ch
            for tags in tables:
                self._index_tags(ch, tags)

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
        blk = seg.path.with_suffix(".blk")
        tmp = blk.with_suffix(".blk.tmp")
        tmp.write_bytes(_encode_block(seg))
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

    def _spans(self, channel: ChannelKey, t1: float,
               t2: float) -> tuple[list[tuple[_Segment, int, int]], bool]:
        """The segments that hold the channel's rows with t1 <= ts < t2,
        each as (segment, lo, hi), and whether those rows, taken span by
        span, are already in (ts, seq) order. An ordered segment's rows
        are exactly entries[lo:hi]; an unordered one spans all its
        entries, which the caller filters, and clears the order."""
        if t1 > t2:
            raise TsdbError("t1 must be <= t2")
        ch = self._channels.get(channel)
        if ch is None:
            raise UnknownChannel(str(channel))
        spans: list[tuple[_Segment, int, int]] = []
        in_order = True
        if not t1 < t2:  # empty interval (or a NaN bound)
            return spans, in_order
        last = None  # the last row spanned so far
        for seg in ch.segments:
            if not seg.entries or seg.max_ts < t1 or seg.min_ts >= t2:
                continue  # min/max summary skip
            if not seg.ordered:
                in_order = False
                spans.append((seg, 0, len(seg.entries)))
                continue
            ts = seg.ts
            lo, hi = bisect_left(ts, t1), bisect_left(ts, t2)
            if lo == hi:
                continue
            if in_order and last is not None and _sort_key(seg.entries[lo]) < _sort_key(last):
                in_order = False  # overlaps the span before it
            last = seg.entries[hi - 1]
            spans.append((seg, lo, hi))
        return spans, in_order

    def query_range(self, channel: ChannelKey, t1: float, t2: float) -> list[Reading]:
        """All readings with t1 <= ts < t2, sorted by (ts, seq); readings
        with equal keys keep their append order."""
        spans, in_order = self._spans(channel, t1, t2)
        out: list[Reading] = []
        for seg, lo, hi in spans:
            if seg.ordered:
                out += seg.entries[lo:hi]
            else:
                out += [r for r in seg.entries if t1 <= r.ts < t2]
        if not in_order:
            out.sort(key=_sort_key)
        return out

    def downsample(
        self, channel: ChannelKey, t1: float, t2: float, interval: float, agg: str
    ) -> list[tuple[float, float]]:
        """Bucketed aggregate over [t1, t2): buckets [t1+k*i, t1+(k+1)*i).

        A row's bucket k is int((ts - t1) // interval). Empty buckets are
        omitted for every aggregate, count included.
        """
        if interval <= 0:
            raise BadInterval(str(interval))
        try:
            fn = AGGREGATES[agg]
        except (KeyError, TypeError):
            raise BadInterval(f"unknown aggregate {agg!r}") from None
        spans, in_order = self._spans(channel, t1, t2)
        if in_order:
            ts: list[float] = []
            vals: list[float] = []
            for seg, lo, hi in spans:
                ts += seg.ts[lo:hi]
                vals += map(float, seg.values[lo:hi])
        else:
            rows = self.query_range(channel, t1, t2)
            ts = [r.ts for r in rows]
            vals = [float(r.value) for r in rows]
        out: list[tuple[float, float]] = []
        # ts is sorted, so each bucket's rows are contiguous: bisect for
        # the next bucket's edge, then move it past any row that rounding
        # puts on the wrong side of it, so that every row stays in the
        # bucket its own k names
        lo, n = 0, len(ts)
        while lo < n:
            k = int((ts[lo] - t1) // interval)
            hi = bisect_left(ts, t1 + (k + 1) * interval, lo + 1)
            while hi < n and int((ts[hi] - t1) // interval) == k:
                hi = bisect_right(ts, ts[hi], hi)
            while int((ts[hi - 1] - t1) // interval) != k:
                hi = bisect_left(ts, ts[hi - 1], lo + 1, hi - 1)
            out.append((t1 + k * interval, fn(vals[lo:hi])))
            lo = hi
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
