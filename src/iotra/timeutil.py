"""RFC3339 timestamp text handling and the injectable virtual clock.

All timestamps in the system are UTC. Internally they travel as float
epoch seconds (millisecond granularity); on the wire they are RFC3339
text like ``2020-07-15T14:50:07Z`` or ``2020-07-15T14:50:07.250Z``.

Both directions compute the time of day with integer arithmetic and
take the date part from a per-day memo, the only place that builds a
``datetime`` (so it still rejects Feb 30 and year 0000). Consecutive
readings share a day, so the memo nearly always hits. It is bounded
(``DAY_MEMO_SIZE`` days) because ``parse_ts`` keys it with text that
arrives from outside the program.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone
from functools import lru_cache

_RFC3339_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(\.\d+)?Z$"
)

DAY_MEMO_SIZE = 256
_DAY_S = 86400


class BadTimestamp(ValueError):
    """Text does not parse as an RFC3339 UTC timestamp."""


@lru_cache(maxsize=DAY_MEMO_SIZE)
def _day_epoch(date: str) -> int:
    """Epoch seconds at the start of ``YYYY-MM-DD``; raises BadTimestamp
    for a date that does not exist."""
    try:
        dt = datetime(int(date[:4]), int(date[5:7]), int(date[8:10]),
                      tzinfo=timezone.utc)
    except ValueError as exc:
        raise BadTimestamp(str(exc)) from None
    return int(dt.timestamp())


@lru_cache(maxsize=DAY_MEMO_SIZE)
def _day_text(day: int) -> str:
    """``YYYY-MM-DD`` of the day that starts at ``day * 86400``."""
    return datetime.fromtimestamp(day * _DAY_S, tz=timezone.utc).strftime("%Y-%m-%d")


def parse_ts(text: str) -> float:
    """Parse RFC3339 UTC text into float epoch seconds.

    Only the ``Z`` suffix is accepted; numeric offsets are not. A
    fractional-second part of any length is allowed.
    """
    m = _RFC3339_RE.match(text)
    if not m:
        raise BadTimestamp(f"not an RFC3339 UTC timestamp: {text!r}")
    h, mi, s, frac = m.group(4, 5, 6, 7)
    day = _day_epoch(text[:10])  # the date first, in datetime()'s order
    h, mi, s = int(h), int(mi), int(s)
    if h > 23:
        raise BadTimestamp("hour must be in 0..23")
    if mi > 59:
        raise BadTimestamp("minute must be in 0..59")
    if s > 59:
        raise BadTimestamp("second must be in 0..59")
    epoch = float(day + h * 3600 + mi * 60 + s)
    if frac:
        epoch += float(frac)
    return round(epoch * 1000) / 1000.0


def format_ts(epoch: float) -> str:
    """Render epoch seconds as canonical RFC3339 UTC text.

    Whole seconds get no fractional part; otherwise milliseconds are
    emitted (the system's timestamp granularity).
    """
    secs, rem = divmod(round(epoch * 1000), 1000)
    day, sod = divmod(secs, _DAY_S)
    h, sod = divmod(sod, 3600)
    mi, s = divmod(sod, 60)
    base = f"{_day_text(day)}T{h:02d}:{mi:02d}:{s:02d}"
    if rem:
        return f"{base}.{rem:03d}Z"
    return base + "Z"


class VirtualClock:
    """Deterministic clock advanced explicitly by the scenario runner.

    Components must never read wall time directly; they observe time
    only through an injected clock so replays are bit-identical.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("clock cannot move backwards")
        self._now = round((self._now + dt) * 1000) / 1000.0
        return self._now
