"""iotra benchmark: runs one workload, checks it and prints its metrics.

    python3 perfbench/run.py --workload fleet-50 --seed 1 --seconds 20 --trace 0

Runs one workload in this process, with no extra threads or processes.
``--trace 0`` measures the end-to-end metrics on untraced repetitions;
``--trace 1`` runs untraced and traced repetitions and reports the
per-layer metrics from the traced ones. Every repetition's output is
checked. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it carries the details: environment, per-repetition
wall and CPU time, failure accounting and the RunReport hash. In traced
runs the spans go to ``.perfbench/spans/`` at the root of the checkout.
README.md beside this file explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYERS, Stamps, Tracer, write_spans
from workloads import SCENARIOS, SIZES, WORKLOADS, History, scenario_doc

CHECKOUT = Path(__file__).resolve().parent.parent

pc = time.perf_counter

MIN_REPS = 2  # per mode; runs then repeat while time is left
SETUP_SAMPLES = 50  # scenario World constructions timed before the repetitions
HISTORY_OPENS = 9  # Store opens timed per history-read run, spread over it
MIN_QUERIES = 1000  # so that at least ten query samples lie beyond p99

# Every workload reports every metric. An operation is a reading on its
# way from acquisition to the store in the scenario workloads and a
# query in history-read (README.md, "End-to-end metrics").
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "peak_rss_mb": "MiB",
}

LAYER_METRICS = {
    "infomodel.encode_us": "us",
    "infomodel.decode_us": "us",
    "infomodel.validate_us": "us",
    "edge.ingest_us": "us",
    "edge.flush_us": "us",
    "edge.uplink_depth_max": "count",
    "edge.uplink_wait_ms_p50": "ms",
    "msgbus.publish_us": "us",
    "msgbus.publishes_per_reading": "count",
    "msgbus.inbox_wait_ms_p50": "ms",
    "msgbus.redeliver_us": "us",
    "msgbus.redelivered": "count",
    "msgbus.dead_letters": "count",
    "cloudgw.admit_us": "us",
    "cloudgw.route_us": "us",
    "cloudgw.admit_ratio": "ratio",
    "twins.apply_report_us": "us",
    "twins.apply_report_calls": "count",
    "streams.process_us": "us",
    "streams.emissions": "count",
    "streams.late_drops": "count",
    "tsdb.append_us": "us",
    "tsdb.bytes_per_reading": "bytes",
    "tsdb.query_range_us": "us",
    "tsdb.downsample_us": "us",
    "tsdb.find_channels_us": "us",
    "tsdb.rows_per_query": "count",
    "controlplane.observe_us": "us",
    "controlplane.authenticate_calls": "count",
    "controlplane.quarantined": "count",
    "harness.self_us_per_tick": "us",
}


class SetupError(Exception):
    """The checkout does not hold the program under test."""


def load_iotra():
    src = CHECKOUT / "src"
    if not (src / "iotra" / "__init__.py").is_file():
        raise SetupError(f"no iotra package under {src}")
    sys.path.insert(0, str(src))
    import iotra

    if Path(iotra.__file__).resolve().parent != (src / "iotra").resolve():
        raise SetupError(f"imported iotra from {iotra.__file__}, not from {src}")


def environment() -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "scope": "only this process is measured (wall time, process CPU time, "
                 "ru_maxrss); nothing system-wide is traced",
    }


def p50(values) -> float:
    return statistics.median(values)


def p99(values) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def disk_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- scenario workloads ------------------------------------------------------


@dataclass
class Rep:
    """One repetition of a scenario workload."""

    traced: bool
    setup_s: float
    wall_s: float
    user_s: float
    sys_s: float
    ticks: int
    generated: int
    stored: int
    report_sha256: str
    counts: dict
    latencies_s: list
    failed: int = 0
    problems: list = field(default_factory=list)
    tracer: object = None


def scenario_rep(doc: dict, work: Path, traced: bool) -> Rep:
    from iotra import infomodel
    from iotra.harness.scenario import ScenarioSpec, World

    # a fresh spec per run: running a spec mutates it
    spec = ScenarioSpec.from_dict(copy.deepcopy(doc))
    data = Path(tempfile.mkdtemp(dir=work))
    t0 = pc()
    world = World(spec, data)
    setup_s = pc() - t0
    tracer = Tracer() if traced else None
    stamps = Stamps()
    try:
        try:
            if tracer is not None:
                tracer.instrument_world(world, infomodel)
            stamps.install(world)
            c0 = os.times()
            if tracer is not None:
                report, wall_s = tracer.root("harness.run", world.run)
            else:
                t1 = pc()
                report = world.run()
                wall_s = pc() - t1
            c1 = os.times()
        finally:
            stamps.uninstall()
            if tracer is not None:
                tracer.uninstall()
        rep = Rep(
            traced=traced, setup_s=setup_s, wall_s=wall_s,
            user_s=c1.user - c0.user, sys_s=c1.system - c0.system,
            ticks=int(round(spec.duration_s / spec.tick_s)),
            generated=sum(report.generated.values()),
            stored=sum(report.stored.get(ch, 0) for ch in report.generated),
            report_sha256=hashlib.sha256(
                json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest(),
            counts=scenario_counts(world, report, data),
            latencies_s=stamps.latencies_s, tracer=tracer,
        )
        account(rep, doc, report, stamps)
        return rep
    finally:
        # The directory stays until the run ends: deleting it here made
        # the file system slow down the next run's channel-file creation.
        world.tsdb.close()
        world.gateway.close()


def scenario_counts(world, report, data: Path) -> dict:
    """Behaviour counts of one run; identical for every run of a seed."""
    stored_all = sum(report.stored.values())
    return {
        "msgbus.dead_letters": len(world.broker.dead_letter),
        "streams.emissions": len(report.emissions),
        "streams.late_drops": world.pipeline.late_count if world.pipeline else 0,
        "controlplane.quarantined": sum(
            1 for i in report.incidents if i["event"] == "quarantined"),
        "tsdb.bytes_per_reading": disk_bytes(data / "tsdb") / stored_all,
    }


def account(rep: Rep, doc: dict, report, stamps) -> None:
    """Failure accounting: a generated reading must be stored exactly once.

    Losses are failed operations. They are expected only on quarantined
    nodes (the flood monitor's quarantine-on-recovery defect). A loss on
    any other node, a reading stored twice, or an assertion that fails
    on a node that was not quarantined makes the run incorrect.
    """
    quarantined = {i["node"] for i in report.incidents if i["event"] == "quarantined"}
    lost = stamps.lost
    rep.failed = len(lost) + len(stamps.extra)
    unexplained = [f"{ch}#{seq}" for ch, seq in lost if ch.node_id not in quarantined]
    if unexplained:
        rep.problems.append(f"lost on healthy nodes: {unexplained[:5]}")
    if stamps.extra:
        rep.problems.append(f"stored twice or never generated: {stamps.extra[:5]}")
    for spec, result in zip(doc["assertions"], report.assertions):
        params = {} if isinstance(spec, str) else spec
        nodes = failing_nodes(result["check"], params, doc, report, stamps)
        if nodes - quarantined:
            rep.problems.append(
                f"{result['check']} fails on healthy nodes: {sorted(nodes - quarantined)}")
        elif not result["passed"] and not nodes:
            rep.problems.append(f"{result['check']} failed: {result['detail']}")
    rep.counts["failed.lost"] = len(lost)
    rep.counts["failed.assertions"] = [a["check"] for a in report.assertions if not a["passed"]]


def failing_nodes(check: str, params: dict, doc: dict, report, stamps) -> set:
    """The nodes an assertion fails on, recomputed from the RunReport and
    the reading ledger, so that a quarantine excuses only its own node."""
    if check == "all_converged":
        return {n for n, ok in report.convergence.items() if not ok}
    if check == "flush_within":
        # every node that had an outage must flush in time, not only
        # the nodes the RunReport saw flush
        outage = {f"n-{i:06d}" for f in doc.get("faults", ())
                  if f["kind"] == "uplink_outage" for i in f["nodes"]}
        limit = float(params.get("seconds", 5.0))
        return {n for n in outage | set(report.flush_complete)
                if report.flush_complete.get(n, math.inf) > limit}
    # lossless, seq_gap_free, exact_multiset: the channels off the ledger
    return ({ch.split("/")[0] for ch, n in report.generated.items()
             if report.stored.get(ch, 0) != n}
            | {ch.node_id for ch, _ in stamps.lost + stamps.extra})


def run_reps(doc, work, seconds, trace) -> list[Rep]:
    """Repeat the run while time is left. With tracing, traced and
    untraced runs alternate, so that both see the same machine."""
    modes = (False, True) if trace else (False,)
    reps: list[Rep] = []
    start = pc()
    while True:
        traced = modes[len(reps) % len(modes)]
        reps.append(scenario_rep(doc, work, traced))
        gc.collect()
        elapsed = pc() - start
        if (len(reps) >= MIN_REPS * len(modes) and len(reps) % len(modes) == 0
                and elapsed + elapsed / len(reps) * len(modes) > seconds):
            return reps


def scenario_workload(name: str, seed: int, seconds: float, trace: bool,
                      size: str, work: Path) -> tuple[dict, dict, list]:
    doc = scenario_doc(name, seed, size)
    # Set-up is timed in the fresh process, as a user meets it, and
    # never after a repetition: constructions there took up to 1.6x as
    # long, and a median over both kinds jumped between them.
    setups = [time_world_setup(doc, work) for _ in range(SETUP_SAMPLES)]
    reps = run_reps(doc, work, seconds, trace)

    problems = [p for r in reps for p in r.problems]
    if len({r.report_sha256 for r in reps}) != 1:
        problems.append("RunReport differs between runs of one seed")
    if len({json.dumps(r.counts, sort_keys=True) for r in reps}) != 1:
        problems.append("behaviour counts differ between runs of one seed")

    spans = None
    if trace:
        metrics, spans = scenario_layer_metrics([r for r in reps if r.traced],
                                                [r for r in reps if not r.traced])
    else:
        # one stalled run moves a median over runs less than a pooled tail
        metrics = {
            "setup_s": p50(setups),
            "ops_per_s": p50([r.stored / r.wall_s for r in reps]),
            "latency_ms_p50": p50([p50(r.latencies_s) for r in reps]) * 1e3,
            "latency_ms_p99": p50([p99(r.latencies_s) for r in reps]) * 1e3,
            "peak_rss_mb": rss_mb(),
        }
    details = {
        "report_sha256": reps[0].report_sha256,
        "counts": reps[0].counts,
        "setup_s": setups,
        "reps": [{"traced": r.traced, "setup_s": r.setup_s, "wall_s": r.wall_s,
                  "user_s": r.user_s, "sys_s": r.sys_s, "stored": r.stored, "generated": r.generated,
                  "failed": r.failed, "ingest_ms_p50": p50(r.latencies_s) * 1e3,
                  "ingest_ms_p99": p99(r.latencies_s) * 1e3} for r in reps],
        "attempted": sum(r.generated for r in reps),
        "failed": sum(r.failed for r in reps),
        "problems": problems,
        "span_totals": spans,
    }
    return metrics, details, [r.tracer for r in reps if r.tracer is not None]


def time_world_setup(doc: dict, work: Path) -> float:
    from iotra.harness.scenario import ScenarioSpec, World

    spec = ScenarioSpec.from_dict(copy.deepcopy(doc))
    data = Path(tempfile.mkdtemp(dir=work))
    t0 = pc()
    world = World(spec, data)
    elapsed = pc() - t0
    world.tsdb.close()
    world.gateway.close()
    return elapsed


PER_CALL = ("infomodel.encode", "infomodel.decode", "edge.ingest", "edge.flush",
            "msgbus.publish", "msgbus.redeliver", "cloudgw.admit", "cloudgw.route",
            "twins.apply_report", "streams.process", "tsdb.append", "tsdb.query_range",
            "tsdb.downsample", "tsdb.find_channels", "controlplane.observe")


def layer_metrics(tracers, wall_s: float) -> tuple[dict, dict]:
    """Per-call self times, ratios and shares pooled over traced runs;
    returns (metrics, self time and calls per span name)."""
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for tr in tracers:
        s, c = tr.self_times()
        self_ns.update(s)
        calls.update(c)
        counts.update(tr.counts)
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    for name in PER_CALL:
        if calls[name]:
            m[name + "_us"] = self_ns[name] / calls[name] / 1e3
    admitted = counts["cloudgw.admitted"]
    if admitted:
        m["infomodel.validate_us"] = self_ns["infomodel.validate"] / admitted / 1e3
        m["cloudgw.admit_ratio"] = admitted / counts["cloudgw.attempted"]
    if counts["tsdb.queries"]:
        m["tsdb.rows_per_query"] = counts["tsdb.rows"] / counts["tsdb.queries"]
    m["edge.uplink_depth_max"] = max(tr.uplink_depth_max for tr in tracers)
    m["edge.uplink_wait_ms_p50"] = p50(
        [tr.wait_ms_p50("edge.ingest", True, "msgbus.publish") for tr in tracers])
    m["msgbus.inbox_wait_ms_p50"] = p50(
        [tr.wait_ms_p50("msgbus.publish", False, "cloudgw.admit") for tr in tracers])
    runs = len(tracers)
    m["msgbus.redelivered"] = counts["msgbus.redelivered"] / runs
    m["twins.apply_report_calls"] = calls["twins.apply_report"] / runs
    m["controlplane.authenticate_calls"] = calls["controlplane.authenticate"] / runs
    for layer in LAYERS:
        ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == layer)
        m[layer + ".share"] = ns / 1e9 / wall_s
    return m, {"self_ns": dict(self_ns), "calls": dict(calls)}


def scenario_layer_metrics(traced: list[Rep], untraced: list[Rep]) -> tuple[dict, dict]:
    m, spans = layer_metrics([r.tracer for r in traced], sum(r.wall_s for r in traced))
    m.update((k, v) for k, v in traced[0].counts.items() if k in LAYER_METRICS)
    m["msgbus.publishes_per_reading"] = (
        spans["calls"].get("msgbus.publish", 0) / sum(r.stored for r in traced))
    m["harness.self_us_per_tick"] = (
        spans["self_ns"]["harness.run"] / sum(r.ticks for r in traced) / 1e3)
    m["trace.overhead"] = 1 - (p50([r.stored / r.wall_s for r in traced])
                               / p50([r.stored / r.wall_s for r in untraced]))
    return m, spans


# -- history-read -------------------------------------------------------------


@dataclass
class Loop:
    """Measurements of one client loop over the history store."""

    query_s: list = field(default_factory=list)
    append_s: list = field(default_factory=list)
    bad: int = 0

    @property
    def busy_s(self) -> float:
        return sum(self.query_s) + sum(self.append_s)

    @property
    def queries_per_s(self) -> float:
        """Queries per second of store time, the interleaved appends included."""
        return len(self.query_s) / self.busy_s


def client_loop(store, hist, loop: Loop, n: int) -> None:
    """One closed-loop client for n iterations: each appends, then
    issues one query and waits for it. Only the store calls are timed;
    the op stream and the reference check run between them."""
    for _ in range(n):
        appends, op = hist.next_op()
        for key in appends:
            reading = hist.reading(key)
            t = pc()
            store.append(reading)
            loop.append_s.append(pc() - t)
        t = pc()
        result = getattr(store, op[0])(*op[1:])
        loop.query_s.append(pc() - t)
        loop.bad += not hist.check(op, result)


def open_store(tsdb, root: Path, setups: list):
    gc.collect()
    t = pc()
    store = tsdb.Store(root)
    setups.append(pc() - t)
    return store


def history_workload(seed: int, seconds: float, trace: bool, size: str,
                     work: Path) -> tuple[dict, dict, list]:
    """The number of queries is fixed by the seed, the size and
    ``--seconds``, never by how fast they run, so that every program
    version reads the same data."""
    from iotra import tsdb

    cfg = SIZES[size]["history-read"]
    hist = History(seed, size)
    root = Path(tempfile.mkdtemp(dir=work)) / "tsdb"
    t0 = pc()
    writer = tsdb.Store(root)
    for reading in hist.fixture():
        writer.append(reading)
    writer.close()
    del writer
    fixture_s = pc() - t0
    fixture_rows = hist.row_count

    setups: list[float] = []
    tracers: list = []
    spans = None
    if trace:
        # Three passes of the same queries: untraced, traced, untraced.
        # The untraced passes bracket the traced one, as the channels
        # grow with the appends.
        n = cfg["traced_queries"]
        tracer = Tracer()
        loops = [Loop(), Loop(), Loop()]
        store = open_store(tsdb, root, setups)
        try:
            for i, loop in enumerate(loops):
                hist.restart_queries()
                if i == 1:
                    tracer.instrument_store(store)
                try:
                    client_loop(store, hist, loop, n)
                finally:
                    tracer.uninstall()
                if i == 1:
                    store.flush()
                    bytes_per_reading = disk_bytes(root) / hist.row_count
        finally:
            store.close()
        tracers = [tracer]
        metrics, spans = layer_metrics(tracers, loops[1].busy_s)
        metrics["tsdb.bytes_per_reading"] = bytes_per_reading
        metrics["trace.overhead"] = 1 - (loops[0].busy_s + loops[2].busy_s) / 2 / loops[1].busy_s
    else:
        # The store is reopened between equal parts of the query stream,
        # as every `iotra query` opens it; the opens give setup_s.
        n = max(MIN_QUERIES, round(cfg["queries_per_run_s"] * seconds))
        loop = Loop()
        loops = [loop]
        for i in range(HISTORY_OPENS):
            store = open_store(tsdb, root, setups)
            try:
                client_loop(store, hist, loop,
                            n * (i + 1) // HISTORY_OPENS - n * i // HISTORY_OPENS)
            finally:
                store.close()
            del store
        metrics = {
            "setup_s": p50(setups),
            "ops_per_s": loop.queries_per_s,
            "latency_ms_p50": p50(loop.query_s) * 1e3,
            "latency_ms_p99": p99(loop.query_s) * 1e3,
            "peak_rss_mb": rss_mb(),
        }
    bad = sum(lp.bad for lp in loops)
    details = {
        "fixture_rows": fixture_rows,
        "fixture_s": fixture_s,
        "setup_s": setups,
        "loops": [{"queries": len(lp.query_s), "appends": len(lp.append_s),
                   "busy_s": lp.busy_s, "failed": lp.bad, "queries_per_s": lp.queries_per_s,
                   "append_ms_p50": p50(lp.append_s) * 1e3} for lp in loops],
        "attempted": sum(len(lp.query_s) + len(lp.append_s) for lp in loops),
        "failed": bad,
        "problems": [f"{bad} queries differ from the reference"] if bad else [],
        "span_totals": spans,
    }
    return metrics, details, tracers


# -- entry point ---------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", out_dir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result, details)."""
    base = CHECKOUT / ".perfbench" / "work"
    base.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    c0, t0 = time.process_time(), pc()
    try:
        if name in SCENARIOS:
            values, details, tracers = scenario_workload(name, seed, seconds, trace, size, work)
        else:
            values, details, tracers = history_workload(seed, seconds, trace, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details.update(workload=name, seed=seed, seconds=seconds, trace=trace, size=size,
                   wall_s=pc() - t0, cpu_s=time.process_time() - c0,
                   environment=environment())
    if trace:
        units = {**LAYER_METRICS, **{f"{layer}.share": "ratio" for layer in LAYERS},
                 "trace.overhead": "ratio"}
        if out_dir is not None:
            path = out_dir / f"{name}-seed{seed}.spans.tsv"
            write_spans(path, tracers)
            details["spans_file"] = str(path.relative_to(CHECKOUT))
    else:
        units = END_TO_END
    result = {
        "correct": not details["problems"],
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {k: metric(values[k], unit) for k, unit in units.items()},
    }
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_iotra()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                   out_dir=CHECKOUT / ".perfbench" / "spans")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
