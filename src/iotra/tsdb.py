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
- So does a ``seg-*`` name the store does not write (``seg-<n>.log``,
  ``.blk`` or ``.blk.tmp``, ``<n>`` decimal without a leading zero): a
  stray ``seg-old.log`` may hold readings, so it is not skipped.

An open decodes every segment eagerly: ``array`` turns each block
column into a list and ``map`` builds the readings, with no per-record
JSON. All readings of one block share the block's unit string and
``tags`` dict. An active
log is decoded in runs: a run of short records is unpacked in one pass
(``iter_unpack``) and its readings built by one ``map``, sharing the
unit string and ``tags`` dict of the full record that starts it;
consecutive full records with equal tags share one dict (readings
appended in one session share the caller's dict, see Store.append). The
full records are decoded with one ``json.loads`` over their joined
bodies, so a log written before short records existed (every record
full) opens as fast as it did. The open lists a channel's directory
once and decides from the listing alone: the highest-numbered segment
takes appends when it is a log, and a log is unlinked only when its
block is listed beside it. The tag index is built from each segment's
distinct tags dicts, not from every reading.

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

In memory the unit is the channel, not the segment (after Gorilla's
per-series in-memory head): each channel keeps one *run* of its readings
(``rows``) beside two parallel columns, ``ts`` and ``values``, in (ts,
seq) order, readings with equal keys in append order. ``values`` holds
the very objects the readings hold, so the run costs three list slots,
24 bytes, a reading. The active segment keeps its own readings in append
order, for sealing and the short-record rule; a sealed segment keeps
none. An append whose ts is later than the run's last, as a node's
readings are, extends the three lists. Any other is placed by a bisect
on (ts, seq), after its equal keys, and inserted, which moves the rows
after it: O(n) for a channel of n readings. An open concatenates each
channel's segments in order and checks once that their timestamps
strictly increase; where they do not, it sorts the run stably, which
gives the order appends would have.

A reading whose ``ts`` is NaN is stored and counted, but no range holds
it: it stays out of the run, kept on disk and in the active segment.

A query bisects ``ts`` for t1 and t2 and slices ``rows``: O(log n + k)
for k rows returned, however many segments the channel has. ``downsample``
slices ``ts`` and ``values`` the same way, converting each value with
``float`` once (a value ``float`` refuses is a TsdbError). It then steps
one bucket at a time: the bucket's first row gives its k, a bisect for
the edge t1 + (k+1)*interval finds the next bucket's first row, and that
edge moves past any row that rounding puts on the wrong side of it, so
that every row lands in the bucket int((ts - t1) // interval) names.
Each bucket is one aggregate call over its values in row order, so a sum
adds them in the order a loop over rows would.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import itemgetter, lt
from pathlib import Path

from .infomodel import TypedScalar, parse_scalar, scalar_of
from .reading import ChannelKey, Reading

SEGMENT_CAPACITY = 1000
_SEGMENT_NAME = re.compile(r"seg-(0|[1-9][0-9]*)\.(log|blk|blk\.tmp)")

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


def _encode_block(rows: list[Reading]) -> bytes:
    """The block file of a full segment's readings, in append order."""
    units: list[str] = []
    tables: list[dict] = []
    unit_col, tag_col, seqs, values = [], [], [], []
    unit = tags = object()  # matches no reading's
    for r in rows:
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
    ts = [r.ts for r in rows]
    # starting from the infinities, a NaN ts never becomes the min or max
    header = {"count": len(seqs), "min_ts": min((float("inf"), *ts)),
              "max_ts": max((float("-inf"), *ts)), "units": units, "tags": tables}
    columns = [_pack("d", ts)]
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


class _Channel:
    def __init__(self, key: ChannelKey, root: Path):
        self.key = key
        self.dir = root / key.node_id / key.sensor_name
        self.rows: list[Reading] = []  # the run, in _sort_key order
        self.ts: list[float] = []  # rows[i].ts, for bisecting
        self.values: list = []  # rows[i].value, for downsampling
        self.unranked = 0  # readings with a NaN ts, held out of the run
        self.segment = 0  # the number of the segment that takes appends
        self.entries: list[Reading] = []  # its readings, in append order
        self.indexed_tags: dict[str, str] | None = None  # copy, last indexed
        self._fh = None

    def add(self, r: Reading) -> None:
        """Put r into the run: appended when its ts is the latest, else
        inserted after its equal keys, O(n)."""
        ts = r.ts
        if ts != ts:
            self.unranked += 1
        elif not self.ts or ts > self.ts[-1]:
            self.rows.append(r)
            self.ts.append(ts)
            self.values.append(r.value)
        else:
            i = bisect_right(self.rows, _sort_key(r), key=_sort_key)
            self.rows.insert(i, r)
            self.ts.insert(i, ts)
            self.values.insert(i, r.value)

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class Store:
    """One writer per channel; readers see every reading, sealed or
    active, in its channel's resident run."""

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
        blocks, logs = set(), set()
        for path in sensor_dir.glob("seg-*"):
            match = _SEGMENT_NAME.fullmatch(path.name)
            if match is None:
                raise TsdbError(f"not a segment name the store writes: {path}")
            number, kind = match.groups()
            if kind == "blk.tmp":
                path.unlink()  # a seal cut short: its log is still whole
            else:
                (logs if kind == "log" else blocks).add(int(number))
        rows, ts, values = ch.rows, ch.ts, ch.values
        tables: list[dict] = []  # each segment's distinct tags dicts
        for number in sorted(blocks | logs):
            log = sensor_dir / f"seg-{number}.log"
            if number in blocks:
                blk = sensor_dir / f"seg-{number}.blk"
                try:
                    readings, seg_ts, seg_values, seg_tables = _decode_block(
                        key, blk.read_bytes())
                except (ValueError, LookupError, TypeError, struct.error) as exc:
                    raise TsdbError(f"unreadable block {blk}: {exc}") from None
                if number in logs:
                    log.unlink()  # sealed, but not yet unlinked
                ch.segment, ch.entries = number + 1, []
            else:
                data = log.read_bytes()
                readings, seg_ts, seg_values, seg_tables, clean = _decode_log(key, data)
                if clean < len(data):
                    # torn tail from a crash mid-append: repair in place
                    with open(log, "r+b") as fh:
                        fh.truncate(clean)
                ch.segment, ch.entries = number, readings
            rows += readings
            ts += seg_ts
            values += seg_values
            tables += seg_tables
        if not rows:
            return
        # strictly increasing ts, the common case, settles the order alone
        if not (ts[0] == ts[0] and all(map(lt, ts, ts[1:]))):
            ch.rows = sorted((r for r in rows if r.ts == r.ts), key=_sort_key)  # stable
            ch.unranked = len(rows) - len(ch.rows)
            ch.ts = [r.ts for r in ch.rows]
            ch.values = [r.value for r in ch.rows]
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
        if ch._fh is None:
            ch._fh = open(ch.dir / f"seg-{ch.segment}.log", "ab")
        entries = ch.entries
        ch._fh.write(_encode_record(reading, entries[-1] if entries else None))
        entries.append(reading)
        ch.add(reading)
        self._index_tags(ch, reading.tags)
        position = (ch.segment, len(entries) - 1)
        if len(entries) >= SEGMENT_CAPACITY:
            self._seal(ch)
        return position

    def _seal(self, ch: _Channel) -> None:
        ch.close()
        log = ch.dir / f"seg-{ch.segment}.log"
        blk = log.with_suffix(".blk")
        tmp = blk.with_suffix(".blk.tmp")
        tmp.write_bytes(_encode_block(ch.entries))
        os.replace(tmp, blk)
        log.unlink()
        ch.segment += 1
        ch.entries = []

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
        return len(ch.rows) + ch.unranked if ch else 0

    def _span(self, channel: ChannelKey, t1: float, t2: float) -> tuple[_Channel, int, int]:
        """The channel and the bounds lo, hi of its run's rows with
        t1 <= ts < t2."""
        if t1 > t2:
            raise TsdbError("t1 must be <= t2")
        ch = self._channels.get(channel)
        if ch is None:
            raise UnknownChannel(str(channel))
        if not t1 < t2:  # empty interval (or a NaN bound)
            return ch, 0, 0
        return ch, bisect_left(ch.ts, t1), bisect_left(ch.ts, t2)

    def query_range(self, channel: ChannelKey, t1: float, t2: float) -> list[Reading]:
        """All readings with t1 <= ts < t2, sorted by (ts, seq); readings
        with equal keys keep their append order."""
        ch, lo, hi = self._span(channel, t1, t2)
        return ch.rows[lo:hi]

    def downsample(
        self, channel: ChannelKey, t1: float, t2: float, interval: float, agg: str
    ) -> list[tuple[float, float]]:
        """Bucketed aggregate over [t1, t2): buckets [t1+k*i, t1+(k+1)*i).

        A row's bucket k is int((ts - t1) // interval). Empty buckets are
        omitted for every aggregate, count included. t1 = -inf gives no
        bucket grid: BadInterval, rows or none. A value that float()
        refuses raises TsdbError.
        """
        if interval <= 0:
            raise BadInterval(str(interval))
        try:
            fn = AGGREGATES[agg]
        except (KeyError, TypeError):
            raise BadInterval(f"unknown aggregate {agg!r}") from None
        if t1 == -math.inf:
            raise BadInterval("unbounded start t1=-inf: buckets need a finite t1")
        ch, lo, hi = self._span(channel, t1, t2)
        ts = ch.ts[lo:hi]
        try:
            vals = list(map(float, ch.values[lo:hi]))
        except (TypeError, ValueError):
            for v in ch.values[lo:hi]:
                try:
                    float(v)
                except (TypeError, ValueError):
                    raise TsdbError(f"cannot downsample {channel}: float() refuses its "
                                    f"value {scalar_of(v).encode()!r}") from None
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
