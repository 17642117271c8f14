"""Operator CLI over a workspace directory.

The workspace (``--data-dir``, default ``./iotra-data``) holds the
replayable registry event log ``registry.jsonl`` (nodes and incidents),
the time-series store, the twin state snapshot, the audit and
notification logs, and the class files of ``model/`` that extend the
default vocabulary. ``run`` executes a scenario file against the
workspace registry, store and model and saves the run's twins; it
refuses a workspace whose registry already holds nodes or whose store
is not empty, so each run starts from nothing. A workspace has one
model, which every command reads, ``run`` included: a scenario cannot
name its own (``model_dir`` is an unknown key, refused before anything
is commissioned), so the twins a run saves name only classes that later
commands load. The other commands are the central-control-point
operations over the same registry. Registry events carry virtual time
during a run and wall time otherwise, so an operator's events sort
after the run's. The twin snapshot ``twins.json`` and a scenario file
edited by ``inject`` are written whole to ``<name>.tmp`` and renamed
into place, so a crash or a failed write leaves the previous file,
which the next command loads; ``inject`` writes only a scenario that
``run`` accepts. ``tail`` skips a final log line with no newline, which
is what a crash mid-write leaves. Exit codes: 0 ok, 1 operation error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .. import controlplane, infomodel, platform, tsdb as tsdb_mod, twins as twins_mod
from ..reading import ChannelKey
from ..timeutil import BadTimestamp, format_ts, parse_ts
from .scenario import BadScenario, BootFailure, ScenarioSpec, World


class CliError(Exception):
    pass


def _parse_time(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return parse_ts(text)
    except BadTimestamp:
        raise CliError(f"bad time {text!r} (want epoch seconds or RFC3339)") from None


def _read_scenario(path: Path):
    """The JSON document of a scenario file; CliError if it cannot be read."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read scenario {path}: {exc.strerror or exc}") from None
    return json.loads(text)


class WallClock:
    """Wall time, rounded to the millisecond as VirtualClock rounds."""

    def now(self) -> float:
        return round(time.time() * 1000) / 1000.0


class Workspace:
    def __init__(self, root: Path):
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)
        secret = os.environ.get("IOTRA_SECRET", "iotra-dev-secret")
        self.model = platform.load_model(self.root)
        self.registry = controlplane.Registry(
            secret=secret.encode("utf-8"), log_path=self.root / "registry.jsonl",
            clock=WallClock(),
        )
        self._twins: twins_mod.TwinService | None = None

    @property
    def twins(self) -> twins_mod.TwinService:
        if self._twins is None:
            self._twins = twins_mod.TwinService(self.model)
            path = self.root / "twins.json"
            if path.exists():
                self._twins.load(json.loads(path.read_text(encoding="utf-8")))
            for entry in self.registry.entries():
                self._twins.register_node(entry.node_id, entry.class_name)
        return self._twins

    def save_twins(self, twins: twins_mod.TwinService) -> None:
        _replace_file(self.root / "twins.json",
                      json.dumps(twins.dump(), indent=2, ensure_ascii=False))

    def store(self) -> tsdb_mod.Store:
        return tsdb_mod.Store(self.root / "tsdb")


def _replace_file(path: Path, text: str) -> None:
    """Write ``path`` whole through ``<name>.tmp`` and a rename."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _emit(args, obj, text: str) -> None:
    if args.json:
        print(json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=True))
    else:
        print(text)


# -- subcommand handlers -------------------------------------------------


def cmd_commission(args, ws: Workspace) -> int:
    entry = ws.registry.commission(args.name, args.class_name, model=ws.model)
    _emit(
        args,
        {"node_id": entry.node_id, "credential": entry.credential,
         "lifecycle": entry.lifecycle},
        f"{entry.node_id} commissioned (credential {entry.credential[:16]}…)",
    )
    return 0


def cmd_activate(args, ws: Workspace) -> int:
    entry = ws.registry.transition(args.node, "active")
    _emit(args, {"node_id": entry.node_id, "lifecycle": entry.lifecycle},
          f"{entry.node_id} -> active")
    return 0


def cmd_decommission(args, ws: Workspace) -> int:
    entry = ws.registry.transition(args.node, "decommissioned")
    _emit(args, {"node_id": entry.node_id, "lifecycle": entry.lifecycle},
          f"{entry.node_id} -> decommissioned")
    return 0


def cmd_list_nodes(args, ws: Workspace) -> int:
    rows = [
        {
            "node_id": e.node_id,
            "name": e.name,
            "class": e.class_name,
            "lifecycle": e.lifecycle,
            "firmware": e.firmware_version,
        }
        for e in ws.registry.entries()
    ]
    text = "\n".join(
        f"{r['node_id']}  {r['lifecycle']:<14} {r['class']:<18} "
        f"fw={r['firmware']} {r['name']}"
        for r in rows
    ) or "(no nodes)"
    _emit(args, rows, text)
    return 0


def cmd_set_desired(args, ws: Workspace) -> int:
    patch: dict[str, infomodel.TypedScalar] = {}
    for kv in args.pairs:
        key, sep, value = kv.partition("=")
        if not sep:
            raise CliError(f"expected key=value, got {kv!r}")
        patch[key] = infomodel.parse_scalar(value)
    version = ws.twins.set_desired(args.node, patch)
    ws.save_twins(ws.twins)
    _emit(args, {"node_id": args.node, "desired_version": version},
          f"{args.node} desired_version={version}")
    return 0


def cmd_get_twin(args, ws: Workspace) -> int:
    twin = ws.twins.get_twin(args.node)
    doc = {
        "node_id": twin.node_id,
        "class_name": twin.class_name,
        "reported": {k: v.encode() for k, v in twin.reported.items()},
        "desired": {k: v.encode() for k, v in twin.desired.items()},
        "desired_version": twin.desired_version,
        "ack_version": twin.ack_version,
        "last_seen": format_ts(twin.last_seen),
        "connectivity": twin.connectivity,
        "converged": ws.twins.converged(args.node),
    }
    _emit(args, doc, json.dumps(doc, indent=2, ensure_ascii=False))
    return 0


def _parse_interval(text: str) -> float:
    if text.endswith("ms"):
        return float(text[:-2]) / 1000.0
    for suffix, mult in (("s", 1.0), ("m", 60.0), ("h", 3600.0)):
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * mult
    return float(text)


def cmd_query(args, ws: Workspace) -> int:
    store = ws.store()
    try:
        channel = ChannelKey.parse(args.channel)
        t1, t2 = _parse_time(args.t1), _parse_time(args.t2)
        if args.downsample:
            interval = _parse_interval(args.downsample[0])
            agg = args.downsample[1]
            rows = store.downsample(channel, t1, t2, interval, agg)
            doc = [{"bucket_start": b, "value": v} for b, v in rows]
            text = "\n".join(f"{format_ts(b)}  {v}" for b, v in rows)
        else:
            readings = store.query_range(channel, t1, t2)
            # a typed value (a t: reading's) shows as its wire text
            values = [r.value.encode() if isinstance(r.value, infomodel.TypedScalar)
                      else r.value for r in readings]
            doc = [
                {"ts": r.ts, "seq": r.seq, "value": v, "unit": r.unit, "tags": r.tags}
                for r, v in zip(readings, values)
            ]
            text = "\n".join(
                f"{format_ts(r.ts)}  seq={r.seq}  {v} {r.unit}"
                for r, v in zip(readings, values)
            )
        _emit(args, doc, text or "(no data)")
        return 0
    finally:
        store.close()


def cmd_tail(args, ws: Workspace) -> int:
    """Print workspace log lines (audit, notifications and registry
    events) matching a substring filter, newest last."""
    rows = []
    for name in ("audit.jsonl", "notifications.jsonl", "registry.jsonl"):
        path = ws.root / name
        if not path.exists():
            continue
        # [:-1] drops what follows the last newline: b"" or a torn line
        for raw in path.read_bytes().split(b"\n")[:-1]:
            line = raw.decode("utf-8")
            if args.filter in line:
                rows.append(json.loads(line))
    rows.sort(key=lambda r: r.get("ts", 0.0))
    rows = rows[-args.lines :]
    _emit(args, rows, "\n".join(json.dumps(r, ensure_ascii=False) for r in rows)
          or "(no matches)")
    return 0


def cmd_inject(args, ws: Workspace) -> int:
    path = Path(args.scenario)
    doc = _read_scenario(path)
    ScenarioSpec.from_dict(doc)  # an object whose faults, if any, are a list
    fault = json.loads(args.fault)
    doc.setdefault("faults", []).append(fault)
    ScenarioSpec.from_dict(doc)  # which also refuses a fault that is not an object
    _replace_file(path, json.dumps(doc, indent=2))
    _emit(args, {"scenario": str(path), "faults": len(doc["faults"])},
          f"added {fault['kind']} fault to {path}")
    return 0


def cmd_remediate(args, ws: Workspace) -> int:
    incident = ws.registry.remediate(args.incident)
    node = incident.node_id
    _emit(args, {"incident": args.incident, "node": node, "state": incident.state},
          f"{args.incident} closed; {node} -> active")
    return 0


def cmd_run(args, ws: Workspace) -> int:
    spec = ScenarioSpec.from_dict(_read_scenario(Path(args.scenario)))
    tsdb_dir = ws.root / "tsdb"
    if ws.registry.entries() or (tsdb_dir.is_dir() and any(tsdb_dir.iterdir())):
        raise CliError(
            f"workspace {ws.root} already holds nodes or stored readings; "
            "run a scenario in an empty --data-dir")
    world = World(spec, ws.root, registry=ws.registry)
    try:
        report = world.run()
    finally:
        world.close()
    ws.save_twins(world.twins)
    doc = report.to_dict()
    if args.report:
        Path(args.report).write_text(
            json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8"
        )
    summary = "\n".join(
        f"[{'PASS' if a['passed'] else 'FAIL'}] {a['check']}"
        + ("" if a["passed"] else f": {a['detail']}")
        for a in doc["assertions"]
    )
    _emit(args, doc, summary or "(no assertions)")
    return 0 if report.ok else 1


# -- argument plumbing ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="iotra", description=__doc__)
    p.add_argument("--data-dir", default=os.environ.get("IOTRA_DATA", "iotra-data"))
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("commission", help="register a new node")
    sp.add_argument("--name", required=True)
    sp.add_argument("--class", dest="class_name", required=True)
    sp.set_defaults(fn=cmd_commission)

    sp = sub.add_parser("activate", help="commissioned -> active")
    sp.add_argument("node")
    sp.set_defaults(fn=cmd_activate)

    sp = sub.add_parser("decommission", help="retire a node permanently")
    sp.add_argument("node")
    sp.set_defaults(fn=cmd_decommission)

    sp = sub.add_parser("list-nodes", help="show the registry")
    sp.set_defaults(fn=cmd_list_nodes)

    sp = sub.add_parser("set-desired", help="patch a twin's desired state")
    sp.add_argument("node")
    sp.add_argument("pairs", nargs="+", metavar="key=value")
    sp.set_defaults(fn=cmd_set_desired)

    sp = sub.add_parser("get-twin", help="snapshot a twin record")
    sp.add_argument("node")
    sp.set_defaults(fn=cmd_get_twin)

    sp = sub.add_parser("query", help="range-query the time-series store")
    sp.add_argument("channel", help="node/sensor")
    sp.add_argument("t1")
    sp.add_argument("t2")
    sp.add_argument("--downsample", nargs=2, metavar=("INTERVAL", "AGG"))
    sp.set_defaults(fn=cmd_query)

    sp = sub.add_parser("tail", help="filter workspace logs")
    sp.add_argument("filter")
    sp.add_argument("--lines", type=int, default=50)
    sp.set_defaults(fn=cmd_tail)

    sp = sub.add_parser("inject", help="append a fault to a scenario file")
    sp.add_argument("--scenario", required=True)
    sp.add_argument("fault", help="fault JSON object")
    sp.set_defaults(fn=cmd_inject)

    sp = sub.add_parser("remediate", help="close an incident, reactivate the node")
    sp.add_argument("incident")
    sp.set_defaults(fn=cmd_remediate)

    sp = sub.add_parser("run", help="execute a scenario file")
    sp.add_argument("scenario")
    sp.add_argument("--report", help="write the RunReport JSON here")
    sp.set_defaults(fn=cmd_run)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, Workspace(Path(args.data_dir)))
    except (CliError, BadScenario, BootFailure, controlplane.ControlPlaneError,
            twins_mod.TwinError, tsdb_mod.TsdbError, infomodel.ModelError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
