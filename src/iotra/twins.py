"""Digital twin service.

Holds a cloud replica per thing: reported state (what the device last
said) and desired state (what operators want), with versioned
convergence. Desired-state commands travel as a single retained qos-1
message per node, so sleeping or disconnected devices pick up the latest
command on reconnect. This is the only command channel to a device:
a firmware push, too, is a desired change of the ``firmware`` property,
acknowledged on the reported topic. Reads never touch the device.
Both twin messages, the command and the device's report, are encoded
and decoded only here; one that does not decode, or a report whose ts is
not a finite number, raises SchemaInvalid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import infomodel
from .infomodel import TypedScalar

_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
_UNDECODABLE = (ValueError, TypeError, KeyError, AttributeError, OverflowError,
                infomodel.ModelError)


class TwinError(Exception):
    pass


class UnknownNode(TwinError):
    pass


class NotWritable(TwinError):
    pass


class SchemaInvalid(TwinError):
    pass


def check_desired(props: Mapping[str, infomodel.PropertyDef],
                  changes: Mapping[str, TypedScalar]) -> None:
    """Raise NotWritable or SchemaInvalid for a change of a class with
    properties ``props`` that ``set_desired`` would refuse."""
    for key, value in changes.items():
        prop = props.get(key)
        if prop is None or not prop.writable:
            raise NotWritable(key)
        # the device echoes the value in its reports, which apply_report
        # checks: a value it would reject must not be sent
        _check_value(prop, key, value)


def _check_value(prop: infomodel.PropertyDef, key: str, value: TypedScalar) -> None:
    """The per-key rule of both sides of a twin: a value ``prop`` refuses is SchemaInvalid."""
    bad = infomodel.check_value(prop, value)
    if bad:
        raise SchemaInvalid(f"{bad[0].kind}: {key} ({bad[0].detail})")


@dataclass(slots=True)
class TwinRecord:
    node_id: str
    class_name: str
    reported: dict[str, TypedScalar] = field(default_factory=dict)
    desired: dict[str, TypedScalar] = field(default_factory=dict)
    desired_version: int = 0
    ack_version: int = 0
    last_seen: float = 0.0
    connectivity: str = "disconnected"
    # per-key timestamp of the report that wrote it (last-writer-wins)
    report_ts: dict[str, float] = field(default_factory=dict)

    def snapshot(self) -> "TwinRecord":
        return TwinRecord(
            node_id=self.node_id,
            class_name=self.class_name,
            reported=dict(self.reported),
            desired=dict(self.desired),
            desired_version=self.desired_version,
            ack_version=self.ack_version,
            last_seen=self.last_seen,
            connectivity=self.connectivity,
            report_ts=dict(self.report_ts),
        )


def desired_topic(node_id: str) -> str:
    return f"twin/{node_id}/desired"


def reported_topic(node_id: str) -> str:
    return f"twin/{node_id}/reported"


class TwinService:
    """All mutations to one TwinRecord are linearized by the caller; the
    service itself keeps no cross-twin state."""

    def __init__(
        self,
        model: infomodel.ModelRegistry,
        publish: Callable[..., object] | None = None,
    ):
        self.model = model
        self.publish = publish  # publish(topic, payload, qos=1, retain=True)
        self._twins: dict[str, TwinRecord] = {}

    def register_node(self, node_id: str, class_name: str) -> TwinRecord:
        self.model.get_class(class_name)
        twin = self._twins.get(node_id)
        if twin is None:
            twin = self._twins[node_id] = TwinRecord(node_id, class_name)
        return twin

    def _twin(self, node_id: str) -> TwinRecord:
        twin = self._twins.get(node_id)
        if twin is None:
            raise UnknownNode(node_id)
        return twin

    # -- reported side ---------------------------------------------------

    def apply_report(
        self,
        node_id: str,
        doc: dict[str, TypedScalar],
        ack_version: int = 0,
        ts: float = 0.0,
    ) -> TwinRecord:
        """Merge a device report. Per-key last-writer-wins by report ts:
        a stale report only fills keys no newer report has written. A key
        the twin's class lacks or refuses is SchemaInvalid and changes nothing."""
        twin = self._twin(node_id)
        props = self.model.effective_properties(twin.class_name)
        for key, value in doc.items():
            prop = props.get(key)
            if prop is None:
                raise SchemaInvalid(f"{key} is not a property of {twin.class_name}")
            _check_value(prop, key, value)
        for key, value in doc.items():
            if ts >= twin.report_ts.get(key, float("-inf")):
                twin.reported[key] = value
                twin.report_ts[key] = ts
        twin.last_seen = max(twin.last_seen, ts)
        twin.ack_version = max(twin.ack_version, ack_version)
        return twin

    def apply_reported(self, node_id: str, payload: str, now: float) -> TwinRecord:
        """``apply_report`` of a reported message; one with no ts is dated
        ``now``. A ts that is not finite is SchemaInvalid: last-writer-wins
        would let an infinite one shadow every later report."""
        try:
            obj = json.loads(payload)
            doc = {k: infomodel.parse_scalar(v) for k, v in obj["doc"].items()}
            ack_version = int(obj.get("ack_version", 0))
            ts = float(obj.get("ts", now))
            if not math.isfinite(ts):
                raise ValueError(f"ts {ts} is not finite")
        except _UNDECODABLE as exc:
            raise SchemaInvalid(f"bad reported message: {exc}") from None
        return self.apply_report(node_id, doc, ack_version=ack_version, ts=ts)

    def mark_connectivity(self, node_id: str, connected: bool) -> None:
        self._twin(node_id).connectivity = "connected" if connected else "disconnected"

    # -- desired side ----------------------------------------------------

    def set_desired(self, node_id: str, changes: dict[str, TypedScalar]) -> int:
        if not changes:
            raise TwinError("empty desired patch")
        twin = self._twin(node_id)
        check_desired(self.model.effective_properties(twin.class_name), changes)
        twin.desired.update(changes)
        twin.desired_version += 1
        if self.publish is not None:
            payload = _ENCODER.encode({"desired": {k: v.encode() for k, v in twin.desired.items()},
                                       "desired_version": twin.desired_version})
            # retained: late/reconnecting nodes get only the latest command
            self.publish(desired_topic(node_id), payload, qos=1, retain=True)
        return twin.desired_version

    # -- reads -----------------------------------------------------------

    def get_twin(self, node_id: str) -> TwinRecord:
        """Snapshot of the replica; never contacts the device."""
        return self._twin(node_id).snapshot()

    def converged(self, node_id: str) -> bool:
        twin = self._twin(node_id)
        if twin.ack_version != twin.desired_version:
            return False
        return all(twin.reported.get(k) == v for k, v in twin.desired.items())

    # -- persistence (CLI workspace) -------------------------------------

    def dump(self) -> dict:
        out = {}
        for node_id, t in self._twins.items():
            out[node_id] = {
                "class_name": t.class_name,
                "reported": {k: v.encode() for k, v in t.reported.items()},
                "desired": {k: v.encode() for k, v in t.desired.items()},
                "desired_version": t.desired_version,
                "ack_version": t.ack_version,
                "last_seen": t.last_seen,
                "connectivity": t.connectivity,
                "report_ts": dict(t.report_ts),
            }
        return out

    def load(self, doc: dict) -> None:
        for node_id, d in doc.items():
            self._twins[node_id] = TwinRecord(
                node_id=node_id,
                class_name=d["class_name"],
                reported={k: infomodel.parse_scalar(v) for k, v in d["reported"].items()},
                desired={k: infomodel.parse_scalar(v) for k, v in d["desired"].items()},
                desired_version=d["desired_version"],
                ack_version=d["ack_version"],
                last_seen=d["last_seen"],
                connectivity=d["connectivity"],
                report_ts={k: float(v) for k, v in d.get("report_ts", {}).items()},
            )


def encode_reported(doc: dict[str, TypedScalar], ack_version: int, ts: float) -> str:
    """A device's reported message: its document, the version it acks, and when."""
    return _ENCODER.encode({"doc": {k: v.encode() for k, v in doc.items()},
                            "ack_version": ack_version, "ts": ts})


def decode_desired_command(payload: str) -> tuple[dict[str, TypedScalar], int]:
    """Decode a twin/<node>/desired command payload on the device side."""
    try:
        obj = json.loads(payload)
        desired = {k: infomodel.parse_scalar(v) for k, v in obj["desired"].items()}
        return desired, int(obj["desired_version"])
    except _UNDECODABLE as exc:
        raise SchemaInvalid(f"bad desired command: {exc}") from None
