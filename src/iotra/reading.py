"""Core data-plane records shared by the edge and cloud sides."""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from dataclasses import dataclass, field

TOKEN_RE = re.compile(r"^[a-z][a-z0-9_]*$")
# Node/instance ids carry counter suffixes (n-000001) or hex forms
# (150a3c6e-bef0e), so they get a wider lexical rule than plain tokens.
ID_RE = re.compile(r"^[a-z0-9][a-z0-9_-]*$")

# Entries a memo keyed by text from outside the program may hold:
# payload text, topics, channel names, units and tags.
TEXT_MEMO_SIZE = 4096


def remember(memo: dict, key, value):
    """``memo[key] = value`` in a memo keyed by outside input, which holds
    at most TEXT_MEMO_SIZE entries: the oldest goes first. Returns value."""
    if len(memo) >= TEXT_MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


# Threshold comparisons shared by edge rules, control conditions and
# stream filters.
COMPARATORS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


def is_token(text: str) -> bool:
    return bool(TOKEN_RE.match(text))


class ChannelKey(namedtuple("ChannelKey", ("node_id", "sensor_name"))):
    """Identity of one data channel: ``node_id/sensor_name``.

    A tuple, so that hashing and equality run in C: every store call
    looks its channel up by a key that is seldom the stored object. A key
    therefore equals, and hashes as, the plain tuple
    ``(node_id, sensor_name)``; a dict should not mix the two kinds.
    """

    __slots__ = ()

    def __new__(cls, node_id: str, sensor_name: str):
        if not ID_RE.match(node_id):
            raise ValueError(f"bad node id: {node_id!r}")
        if not TOKEN_RE.match(sensor_name):
            raise ValueError(f"bad sensor name: {sensor_name!r}")
        return tuple.__new__(cls, (node_id, sensor_name))

    def __str__(self) -> str:
        return f"{self.node_id}/{self.sensor_name}"

    @classmethod
    def parse(cls, text: str) -> "ChannelKey":
        node, sep, sensor = text.partition("/")
        if not sep:
            raise ValueError(f"channel key needs node/sensor: {text!r}")
        return cls(node, sensor)


@dataclass(slots=True)
class Reading:
    """One time-stamped sample on a data channel.

    ``value`` is the engineering value after calibration. ``seq`` is the
    per-channel monotone counter assigned at acquisition; it is None for
    readings decoded from payloads that never carried one.
    """

    channel: ChannelKey
    value: float | str | bool
    unit: str = ""
    ts: float = 0.0
    seq: int | None = None
    tags: dict[str, str] = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, Reading):
            return NotImplemented
        return (
            self.channel == other.channel
            and self.value == other.value
            and type(self.value) is type(other.value)
            and self.unit == other.unit
            and self.ts == other.ts
            and self.seq == other.seq
            and self.tags == other.tags
        )
