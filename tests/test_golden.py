"""Determinism check: fixed scenarios must keep producing the outputs whose
SHA-256 digests ``golden.json`` holds.

For each run it digests the RunReport (``sort_keys`` JSON), ``audit.jsonl``,
``notifications.jsonl``, the rows a reopened ``Store`` returns, and the
twin snapshot that ``iotra run`` saves as ``twins.json``. The rows digest
is taken over decoded rows, not files, so a change of the store's file
format leaves it alone. The twin snapshot is the only digest that sees
the ``zone=a`` route to the twin service; the ``twins_match_store``
assertion, appended to one of these documents below, checks that route
against the store. A change of behaviour on purpose
regenerates the file, and its author states the old and new digests,
which the regeneration prints as ``run/output old → new`` lines:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

from iotra import tsdb
from iotra.harness.scenario import ASSERTIONS, ScenarioSpec, World
from iotra.infomodel import TypedScalar

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

SENSORS = (("temp", "°F", 72.0), ("humidity", "%", 40.0),
           ("pressure", "hPa", 1013.0), ("power", "W", 120.0))


def channels(name: str, period_ms: int) -> list[dict]:
    rng = random.Random(f"golden:{name}")
    return [{"sensor_name": name, "sample_period_ms": period_ms, "unit": unit,
             "waveform": {"kind": "sine", "base": round(base * rng.uniform(0.95, 1.05), 3),
                          "amplitude": round(rng.uniform(1.0, 4.0), 3),
                          "period_s": round(rng.uniform(20.0, 40.0), 3)}}
            for name, unit, base in SENSORS]


def faults_pipeline(seed: int) -> dict:
    """Four nodes in two zones, an outage on one node of each zone, 20%
    duplicate replay, a window pipeline and two desired-state changes."""
    zone_a, zone_b = channels(f"{seed}-a", 200), channels(f"{seed}-b", 200)
    power_base = zone_a[3]["waveform"]["base"]
    return {
        "duration_s": 30.0, "tick_s": 0.1, "seed": seed,
        "nodes": [
            {"count": 2, "name_prefix": "zone-a", "class_name": "multi_sensor",
             "tags": {"zone": "a"}, "channels": zone_a},
            {"count": 2, "name_prefix": "zone-b", "class_name": "multi_sensor",
             "tags": {"zone": "b"}, "channels": zone_b},
        ],
        "route_rules": [
            {"selector": {"topic": "data/#"}, "destinations": ["tsdb", "streams"]},
            {"selector": {"topic": "data/#", "tag": "zone=a"}, "destinations": ["twin"]},
        ],
        "pipeline": {
            "nodes": [
                {"node_id": "temps", "kind": "source", "params": {"selector": "*/temp"}},
                {"node_id": "to_c", "kind": "map", "params": {"transform": "f_to_c"}},
                {"node_id": "avg5", "kind": "window",
                 "params": {"size_ms": 5000, "slide_ms": 1000, "agg": "avg"}},
                {"node_id": "store_avg", "kind": "sink",
                 "params": {"dest": "tsdb", "channel": "derived/temp_avg_c"}},
                {"node_id": "powers", "kind": "source", "params": {"selector": "*/power"}},
                {"node_id": "high", "kind": "filter",
                 "params": {"op": ">", "threshold": power_base}},
                {"node_id": "alert", "kind": "sink", "params": {"dest": "notify"}},
            ],
            "edges": [["temps", "to_c"], ["to_c", "avg5"], ["avg5", "store_avg"],
                      ["powers", "high"], ["high", "alert"]],
        },
        "faults": [
            {"kind": "uplink_outage", "nodes": [1, 3], "start": 9.0, "end": 18.0},
            {"kind": "duplicate_replay", "nodes": "all", "start": 0.0, "end": 30.0,
             "params": {"probability": 0.2}},
        ],
        "actions": [
            {"kind": "set_desired", "at": 11.2, "node": "n-000001", "set": {"setpoint": "n:68"}},
            {"kind": "set_desired", "at": 13.5, "node": "n-000003",
             "set": {"fan_power": "b:true", "setpoint": "n:70"}},
        ],
        "assertions": ["exact_multiset", {"check": "all_converged"},
                       {"check": "flush_within", "seconds": 5.0}],
    }


def flood() -> dict:
    """A node floods and is quarantined; another gets a desired-state change."""
    return {
        "duration_s": 20.0, "tick_s": 0.1, "seed": 5,
        "nodes": [{"count": 4, "name_prefix": "desk", "class_name": "multi_sensor",
                   "channels": channels("flood", 500)[:2]}],
        "faults": [{"kind": "flood", "nodes": [1], "start": 8.0, "end": 20.0,
                    "params": {"rate": 400}}],
        "actions": [{"kind": "set_desired", "at": 4.0, "node": "n-000002",
                     "set": {"setpoint": "n:66"}}],
        "assertions": [{"check": "incident_opened", "node": "n-000001"},
                       {"check": "lossless", "exclude": ["n-000001"]},
                       {"check": "seq_gap_free", "exclude": ["n-000001"]}],
    }


# each value builds a fresh document: running a spec changes it
RUNS = {
    **{f"faults-pipeline-{seed}": partial(faults_pipeline, seed) for seed in (1, 2, 3)},
    "flood": flood,
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stored_rows(root: Path) -> bytes:
    """Every row a reopened store returns, in channel and query order."""
    store = tsdb.Store(root)
    try:
        rows = [[str(key), r.ts, r.seq, r.value, r.unit, r.tags]
                for key in store.channels()
                for r in store.query_range(key, -math.inf, math.inf)]
    finally:
        store.close()
    return json.dumps(rows, sort_keys=True).encode()


def digests(doc: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp)
        world = World(ScenarioSpec.from_dict(doc), data)
        try:
            report = world.run()
            twins = world.twins.dump()
        finally:
            world.close()
        notifications = data / "notifications.jsonl"
        return {
            "report": sha256(json.dumps(report.to_dict(), sort_keys=True).encode()),
            "audit": sha256((data / "audit.jsonl").read_bytes()),
            "notifications": (sha256(notifications.read_bytes())
                              if notifications.exists() else None),
            "rows": sha256(stored_rows(data / "tsdb")),
            "twins": sha256(json.dumps(twins, sort_keys=True).encode()),
        }


def all_digests() -> dict:
    return {name: digests(make()) for name, make in RUNS.items()}


def changed_digests(old: dict, new: dict) -> list[str]:
    """One ``run/output old → new`` line per digest that differs."""
    return [f"{run}/{output} {old.get(run, {}).get(output)} → {digest}"
            for run, outputs in new.items() for output, digest in outputs.items()
            if old.get(run, {}).get(output) != digest]


def test_outputs_match_the_golden_digests():
    assert all_digests() == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_twins_hold_the_last_stored_reading_of_each_twin_routed_channel():
    doc = faults_pipeline(1)
    doc["assertions"].append("twins_match_store")
    spec = ScenarioSpec.from_dict(doc)
    with tempfile.TemporaryDirectory() as tmp:
        world = World(spec, Path(tmp))
        try:
            report = world.run()
            assert report.assertions[-1] == {"check": "twins_match_store", "passed": True,
                                             "detail": "twins off the store: []"}
            # a report newer than any stored reading of a zone=a channel
            world.twins.apply_report("n-000002", {"power": TypedScalar("n", "0")}, ts=1e9)
            assert ASSERTIONS["twins_match_store"][0](world, spec.assertions[-1]) == (
                False, "twins off the store: ['n-000002/power']")
        finally:
            world.close()


def test_a_regeneration_lists_each_changed_digest():
    old = {"flood": {"audit": "a1", "rows": "r1"}}
    new = {"flood": {"audit": "a1", "rows": "r2"}, "faults-pipeline-1": {"report": "p"}}
    assert changed_digests(old, new) == ["flood/rows r1 → r2",
                                         "faults-pipeline-1/report None → p"]


def test_the_digests_do_not_depend_on_the_hash_seed():
    # str hashes, and so the iteration order of sets of str, follow
    # PYTHONHASHSEED; nothing a run writes may
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(HERE.parent / "src"), str(HERE)))}
    code = "import json, test_golden as g; print(json.dumps(g.all_digests()))"
    outputs = [subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed},
                              capture_output=True, text=True, check=True, timeout=120).stdout
               for seed in ("0", "1")]
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    new = all_digests()
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for line in changed_digests(old, new):
        print(line)
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n", encoding="utf-8")
