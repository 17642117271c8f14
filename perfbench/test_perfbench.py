"""The benchmark's own test: every workload at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

bench.load_iotra()

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("msgbus.publishes_per_reading", "tsdb.bytes_per_reading", "streams.emissions",
          "streams.late_drops", "controlplane.quarantined", "tsdb.rows_per_query")


def tiny(workload, trace, seed=3):
    result, details = bench.run_workload(workload, seed, 0.2, trace, size="tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1
    return result, details


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, details = tiny(workload, False)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["environment"]["python"]
    if workload == "faults-pipeline":
        # quarantine on recovery loses readings: counted, not hidden
        assert result["failed"] > 0
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_counts_repeat(workload):
    first, details = tiny(workload, True)
    second, _ = tiny(workload, True)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared("per_layer")
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload in ("fleet-50", "fleet-400", "faults-pipeline"):
        assert len({r["traced"] for r in details["reps"]}) == 2
        assert first["metrics"]["msgbus.publish_us"]["value"] > 0
    if workload == "faults-pipeline":
        for name in ("controlplane.quarantined", "streams.emissions",
                     "twins.apply_report_calls", "streams.process_us"):
            assert first["metrics"][name]["value"] > 0, name
    if workload == "history-read":
        assert first["metrics"]["tsdb.query_range_us"]["value"] > 0


def test_same_seed_same_inputs():
    from workloads import History, scenario_doc

    assert scenario_doc("faults-pipeline", 5) == scenario_doc("faults-pipeline", 5)
    assert scenario_doc("faults-pipeline", 5) != scenario_doc("faults-pipeline", 6)
    a, b = History(5, "tiny"), History(5, "tiny")
    assert [r.value for r in a.fixture()] == [r.value for r in b.fixture()]
    assert [a.next_op() for _ in range(50)] == [b.next_op() for _ in range(50)]


def test_cli_refuses_unknown_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_quarantine_excuses_only_its_own_node():
    from types import SimpleNamespace

    from iotra.reading import ChannelKey
    from workloads import scenario_doc

    doc = scenario_doc("faults-pipeline", 1)
    outage = {f"n-{i:06d}" for f in doc["faults"] if f["kind"] == "uplink_outage"
              for i in f["nodes"]}
    sick, healthy = sorted(outage)[0], "n-000099"

    def problems(convergence, flush_complete, lost):
        report = SimpleNamespace(
            incidents=[{"event": "quarantined", "node": sick}],
            assertions=[{"check": "exact_multiset", "passed": not lost, "detail": ""},
                        {"check": "all_converged", "passed": all(convergence.values()),
                         "detail": ""},
                        {"check": "flush_within", "passed": True, "detail": ""}],
            convergence=convergence, flush_complete=flush_complete,
            generated={f"{sick}/temp": 3}, stored={f"{sick}/temp": 3 - len(lost)})
        stamps = SimpleNamespace(lost=[(ChannelKey(sick, "temp"), s) for s in lost], extra=[])
        rep = bench.Rep(traced=False, setup_s=0, wall_s=1, user_s=0, sys_s=0, ticks=1,
                        generated=3, stored=3 - len(lost), report_sha256="", counts={},
                        latencies_s=[])
        bench.account(rep, doc, report, stamps)
        return rep.problems

    flushed = {n: 1.0 for n in outage}
    assert problems({sick: False, healthy: True}, flushed, [3]) == []
    assert problems({sick: True, healthy: False}, flushed, [3])
    # an outage node that never flushes fails even when the RunReport passes
    late = {n: 1.0 for n in outage if n != sorted(outage)[1]}
    assert problems({sick: True, healthy: True}, late, [])
