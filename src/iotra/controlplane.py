"""Security and management overlay.

Node registry and lifecycle, commissioning with keyed-hash credentials
(standing in for certificates at desk scale), EWMA traffic-anomaly
monitoring, and incident handling with quarantine/remediation. A
firmware push is a twin desired-state change of the ``firmware``
property; the registry keeps the version the node reports back.

``Registry`` is the only store of control-plane state, nodes and
incidents alike. Every change is one event: a public method checks its
preconditions, builds the event and hands it to ``_record``, which
applies it with ``_apply`` and then appends it to the JSON-lines log.
Opening a log replays each line through the same ``_apply``, so live
and replayed state cannot drift apart. A crash mid-append can tear only
the final line: an open drops a final line that has no newline and
truncates the file to its last complete line. Any other line that does
not apply raises ``ControlPlaneError``. Nothing calls fsync, so this
holds against a process crash, not against power loss.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LIFECYCLES = {"created", "commissioned", "active", "quarantined", "decommissioned"}

ALLOWED_TRANSITIONS = {
    ("created", "commissioned"),
    ("commissioned", "active"),
    ("active", "quarantined"),
    ("quarantined", "active"),
    ("active", "decommissioned"),
    ("quarantined", "decommissioned"),
}

# anomaly detector constants
EWMA_ALPHA = 0.2
ANOMALY_FACTOR = 5.0
ANOMALY_FLOOR = 10.0
INCIDENT_BUCKETS = 3


class ControlPlaneError(Exception):
    pass


class UnknownNode(ControlPlaneError):
    pass


class UnknownClass(ControlPlaneError):
    pass


class IllegalTransition(ControlPlaneError):
    pass


class UnknownIncident(ControlPlaneError):
    pass


class NodeNotQuarantined(ControlPlaneError):
    pass


def nth_node_id(n: int) -> str:
    """The id ``Registry.commission`` gives a registry's ``n``-th node."""
    return f"n-{n:06d}"


def make_credential(secret: bytes, node_id: str, key_epoch: int) -> str:
    """Keyed-hash token binding a node identity to the system secret."""
    msg = f"{node_id}|{key_epoch}".encode("utf-8")
    return hmac.new(secret, msg, hashlib.sha256).hexdigest()


@dataclass(slots=True)
class RegistryEntry:
    node_id: str
    name: str
    class_name: str
    credential: str
    lifecycle: str = "commissioned"
    firmware_version: str = "1.0"
    created_ts: float = 0.0


@dataclass(slots=True)
class Incident:
    incident_id: str
    node_id: str
    kind: str  # traffic_flood | auth_probe | manual
    opened_ts: float
    state: str = "open"  # open | mitigated | closed


class Registry:
    """Nodes and incidents, persisted as a replayable JSON-lines event
    log when given a path (see the module docstring)."""

    def __init__(
        self,
        secret: bytes = b"iotra-dev-secret",
        key_epoch: int = 1,
        log_path: Path | None = None,
        clock=None,
    ):
        self.secret = secret
        self.key_epoch = key_epoch
        self.clock = clock
        self._entries: dict[str, RegistryEntry] = {}
        self._counter = 0
        self.incidents: dict[str, Incident] = {}
        self.unclosed: dict[str, int] = {}  # node -> incidents not closed
        self._incident_counter = 0
        self._log_path = Path(log_path) if log_path else None
        self.on_quarantine: Callable[[str], None] | None = None
        if self._log_path is not None and self._log_path.exists():
            self._replay_log()

    def _now(self) -> float:
        return self.clock.now() if self.clock else 0.0

    # -- event log -------------------------------------------------------

    def _apply(self, ev: dict) -> None:
        kind = ev["event"]
        if kind == "commissioned":
            node_id = ev["node_id"]
            self._entries[node_id] = RegistryEntry(
                node_id, ev["name"], ev["class_name"], ev["credential"],
                created_ts=ev["ts"],
            )
            self._counter = max(self._counter, int(node_id.split("-")[1]))
        elif kind == "transition":
            entry = self._entries[ev["node_id"]]
            entry.lifecycle = ev["to"]
            if ev["to"] == "decommissioned":
                entry.credential = ""  # terminal: credential invalidated
        elif kind == "firmware":
            self._entries[ev["node_id"]].firmware_version = ev["version"]
        elif kind == "incident_opened":
            iid, node_id = ev["id"], ev["node_id"]
            self.incidents[iid] = Incident(iid, node_id, ev["kind"], ev["ts"])
            self._incident_counter = max(self._incident_counter,
                                         int(iid.split("-")[1]))
            self.unclosed[node_id] = self.unclosed.get(node_id, 0) + 1
        elif kind == "incident_mitigated":
            self.incidents[ev["id"]].state = "mitigated"
        elif kind == "incident_closed":
            incident = self.incidents[ev["id"]]
            incident.state = "closed"
            self.unclosed[incident.node_id] -= 1
            if not self.unclosed[incident.node_id]:
                del self.unclosed[incident.node_id]
        else:
            raise ControlPlaneError(f"unknown event {kind!r}")

    def _record(self, event: dict) -> None:
        self._apply(event)
        if self._log_path is None:
            return
        self._log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self._log_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(event, separators=(",", ":")) + "\n")

    def _replay_log(self) -> None:
        data = self._log_path.read_bytes()
        clean = data.rfind(b"\n") + 1
        if clean < len(data):
            # torn tail from a crash mid-append: repair in place
            with open(self._log_path, "r+b") as fh:
                fh.truncate(clean)
        for lineno, line in enumerate(data[:clean].splitlines(), 1):
            if not line.strip():
                continue
            try:
                self._apply(json.loads(line))
            except (ControlPlaneError, ValueError, KeyError, TypeError,
                    IndexError) as exc:
                raise ControlPlaneError(
                    f"{self._log_path}:{lineno}: bad event: {exc!r}") from None

    # -- commissioning and lifecycle -------------------------------------

    def commission(self, name: str, class_name: str,
                   model=None) -> RegistryEntry:
        """Admit a new node: assign identity and credential."""
        if model is not None and not model.has_class(class_name):
            raise UnknownClass(class_name)
        node_id = nth_node_id(self._counter + 1)
        self._record({
            "event": "commissioned",
            "node_id": node_id,
            "name": name,
            "class_name": class_name,
            "credential": make_credential(self.secret, node_id, self.key_epoch),
            "ts": self._now(),
        })
        return self._entries[node_id]

    def transition(self, node_id: str, target: str) -> RegistryEntry:
        entry = self.get(node_id)
        if target not in LIFECYCLES:
            raise IllegalTransition(f"unknown lifecycle {target!r}")
        if (entry.lifecycle, target) not in ALLOWED_TRANSITIONS:
            raise IllegalTransition(f"{entry.lifecycle} -> {target}")
        self._record(
            {"event": "transition", "node_id": node_id, "to": target, "ts": self._now()}
        )
        if target == "quarantined" and self.on_quarantine is not None:
            self.on_quarantine(node_id)
        return entry

    def set_firmware(self, node_id: str, version: str) -> None:
        self.get(node_id)
        self._record(
            {"event": "firmware", "node_id": node_id, "version": version,
             "ts": self._now()}
        )

    # -- incidents -------------------------------------------------------

    def open_incident(self, node_id: str, kind: str, now: float) -> Incident:
        """Open an incident on a node; an active node is quarantined and
        the incident mitigated."""
        self.get(node_id)
        iid = f"inc-{self._incident_counter + 1:04d}"
        self._record({"event": "incident_opened", "id": iid, "node_id": node_id,
                      "kind": kind, "ts": now})
        if self.lifecycle_of(node_id) == "active":
            self.transition(node_id, "quarantined")
            self._record({"event": "incident_mitigated", "id": iid, "ts": now})
        return self.incidents[iid]

    def remediate(self, incident_id: str) -> Incident:
        """Operator action: bring a quarantined node back and close the
        incident."""
        incident = self.incidents.get(incident_id)
        if incident is None:
            raise UnknownIncident(incident_id)
        if incident.state == "closed":
            raise UnknownIncident(f"{incident_id} already closed")
        if self.lifecycle_of(incident.node_id) != "quarantined":
            raise NodeNotQuarantined(incident.node_id)
        self.transition(incident.node_id, "active")
        self._record({"event": "incident_closed", "id": incident_id,
                      "ts": self._now()})
        return incident

    # -- queries ---------------------------------------------------------

    def get(self, node_id: str) -> RegistryEntry:
        entry = self._entries.get(node_id)
        if entry is None:
            raise UnknownNode(node_id)
        return entry

    def entries(self) -> list[RegistryEntry]:
        return [self._entries[k] for k in sorted(self._entries)]

    def lifecycle_of(self, node_id: str) -> str | None:
        entry = self._entries.get(node_id)
        return entry.lifecycle if entry else None

    def class_of(self, node_id: str) -> str | None:
        entry = self._entries.get(node_id)
        return entry.class_name if entry else None

    def authenticate(self, node_id: str, credential: str) -> bool:
        """Pass only for active nodes presenting their own token."""
        entry = self._entries.get(node_id)
        if entry is None or entry.lifecycle != "active" or not entry.credential:
            return False
        return hmac.compare_digest(entry.credential, credential)


# -- anomaly monitoring --------------------------------------------------


@dataclass(slots=True)
class NodeMonitorState:
    ewma: float = 0.0
    seeded: bool = False
    consecutive_anomalous: int = 0


class Monitor:
    """Per-node EWMA of per-second message counts. A bucket is anomalous
    when it exceeds max(floor, factor x baseline); the baseline only
    learns from normal buckets. Three anomalous buckets in a row open an
    incident in the registry, which quarantines the node, unless the
    node already has an incident that is not closed."""

    def __init__(self, registry: Registry):
        self.registry = registry
        self.states: dict[str, NodeMonitorState] = {}

    def observe(self, node_id: str, bucket_count: float, now: float) -> str:
        """One call per 1 s bucket per node; returns the verdict."""
        self.registry.get(node_id)
        st = self.states.setdefault(node_id, NodeMonitorState())
        if not st.seeded:
            # warm start: the first bucket defines the baseline instead of
            # being judged against an empty one
            st.ewma = float(bucket_count)
            st.seeded = True
            return "normal"
        threshold = max(ANOMALY_FLOOR, ANOMALY_FACTOR * st.ewma)
        if bucket_count > threshold:
            st.consecutive_anomalous += 1
            if st.consecutive_anomalous >= INCIDENT_BUCKETS:
                if node_id not in self.registry.unclosed:
                    self.registry.open_incident(node_id, "traffic_flood", now)
                    return "incident_opened"
            return "anomalous"
        st.consecutive_anomalous = 0
        st.ewma += EWMA_ALPHA * (bucket_count - st.ewma)
        return "normal"

    def remediate(self, incident_id: str) -> Incident:
        """Close the incident in the registry; the node's baseline starts
        over."""
        incident = self.registry.remediate(incident_id)
        self.states.pop(incident.node_id, None)
        return incident

