"""RFC3339 timestamp text handling and the injectable virtual clock.

All timestamps in the system are UTC. Internally they travel as float
epoch seconds (millisecond granularity); on the wire they are RFC3339
text like ``2020-07-15T14:50:07Z`` or ``2020-07-15T14:50:07.250Z``.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone

_RFC3339_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(\.\d+)?Z$"
)


class BadTimestamp(ValueError):
    """Text does not parse as an RFC3339 UTC timestamp."""


def parse_ts(text: str) -> float:
    """Parse RFC3339 UTC text into float epoch seconds.

    Only the ``Z`` suffix is accepted; numeric offsets are not. A
    fractional-second part of any length is allowed.
    """
    m = _RFC3339_RE.match(text)
    if not m:
        raise BadTimestamp(f"not an RFC3339 UTC timestamp: {text!r}")
    y, mo, d, h, mi, s = (int(g) for g in m.groups()[:6])
    frac = m.group(7)
    try:
        dt = datetime(y, mo, d, h, mi, s, tzinfo=timezone.utc)
    except ValueError as exc:
        raise BadTimestamp(str(exc)) from None
    epoch = dt.timestamp()
    if frac:
        epoch += float(frac)
    return round(epoch * 1000) / 1000.0


def format_ts(epoch: float) -> str:
    """Render epoch seconds as canonical RFC3339 UTC text.

    Whole seconds get no fractional part; otherwise milliseconds are
    emitted (the system's timestamp granularity).
    """
    ms = round(epoch * 1000)
    secs, rem = divmod(ms, 1000)
    dt = datetime.fromtimestamp(secs, tz=timezone.utc)
    base = dt.strftime("%Y-%m-%dT%H:%M:%S")
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
