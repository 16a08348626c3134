#!/usr/bin/env python3
"""Smoke check for the observability exporters.

Runs the ardbt CLI on a tiny problem with --trace, --json and --metrics,
then validates the outputs:

* the trace file is Chrome trace-event JSON with one named track per
  simulated rank, the expected event categories, and consistent
  send->wait dependency edges (every consumed seq matches a send);
* the run report carries the ardbt.run_report v2 schema header, the
  timing/totals/metrics sections the plotting scripts rely on, and the
  v2 attribution (critical path partitioning the makespan, per-rank
  breakdowns summing to it, per-phase percentiles ordered) and
  cost_model sections;
* the --metrics snapshot is bit-identical across two runs.

Usage: check_trace.py /path/to/ardbt [P]
"""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path, nranks):
    doc = json.loads(Path(path).read_text())
    events = doc["traceEvents"]
    if doc.get("otherData", {}).get("clock") != "virtual":
        fail("otherData.clock != 'virtual'")

    track_names = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    expected = {r: f"rank {r}" for r in range(nranks)}
    if track_names != expected:
        fail(f"thread_name metadata {track_names} != {expected}")

    tids_with_events = {e["tid"] for e in events if e.get("ph") in ("X", "i")}
    if tids_with_events != set(range(nranks)):
        fail(f"ranks with events {sorted(tids_with_events)} != 0..{nranks - 1}")

    cats = {e.get("cat") for e in events if e.get("ph") in ("X", "i")}
    for needed in ("send", "recv", "wait", "compute", "phase"):
        if needed not in cats:
            fail(f"missing event category '{needed}' (got {sorted(cats)})")

    phases = {e["name"] for e in events if e.get("cat") == "phase"}
    for needed in ("driver.factor", "driver.solve"):
        if needed not in phases:
            fail(f"missing phase span '{needed}' (got {sorted(phases)})")

    for e in events:
        if e.get("ph") == "X" and e["dur"] < 0:
            fail(f"negative duration in event {e}")

    # Dependency edges: every wait/recv that names a message seq must have
    # a matching send on the peer's track with the same seq, addressed
    # back at the consumer's rank.
    sends = {(e["tid"], e["args"]["peer"], e["args"]["seq"])
             for e in events
             if e.get("cat") == "send" and "seq" in e.get("args", {})}
    if not sends:
        fail("no send events carry a seq (dependency edges missing)")
    consumed = 0
    for e in events:
        if e.get("cat") in ("wait", "recv") and "seq" in e.get("args", {}):
            edge = (e["args"]["peer"], e["tid"], e["args"]["seq"])
            if edge not in sends:
                fail(f"unmatched dependency edge {edge} in event {e}")
            consumed += 1
    if consumed == 0:
        fail("no wait/recv events carry a seq (dependency edges missing)")
    print(f"check_trace: trace ok ({len(events)} events, {nranks} tracks, "
          f"{len(phases)} phase names, {len(sends)} send edges, "
          f"{consumed} consumed)")


def check_report(path, nranks):
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != "ardbt.run_report":
        fail(f"report schema {doc.get('schema')!r} != 'ardbt.run_report'")
    if doc.get("version") != 2:
        fail(f"report version {doc.get('version')!r} != 2")
    for section in ("config", "timing", "totals", "ranks", "metrics",
                    "attribution", "cost_model"):
        if section not in doc:
            fail(f"report missing section '{section}'")
    timing = doc["timing"]
    for key in ("factor_vtime_s", "solve_vtime_s", "wall_s"):
        if key not in timing:
            fail(f"report timing missing '{key}'")
    if timing["factor_vtime_s"] <= 0 or timing["solve_vtime_s"] <= 0:
        fail(f"non-positive phase vtimes: {timing}")
    if len(doc["ranks"]) != nranks:
        fail(f"report has {len(doc['ranks'])} ranks, expected {nranks}")
    counters = doc["metrics"].get("counters", {})
    if counters.get("trace.events_recorded", 0) <= 0:
        fail("metrics missing trace.events_recorded > 0")
    check_attribution(doc["attribution"], nranks)
    check_cost_model(doc["cost_model"])
    print(f"check_trace: report ok (tool={doc['tool']}, "
          f"{len(doc['ranks'])} ranks)")


def check_attribution(attr, nranks):
    if attr.get("nranks") != nranks:
        fail(f"attribution nranks {attr.get('nranks')} != {nranks}")
    makespan = attr.get("makespan_s", 0.0)
    if makespan <= 0:
        fail(f"attribution makespan_s {makespan} not positive")
    tol = 1e-9 * max(1.0, makespan)
    ranks = attr.get("ranks", [])
    if len(ranks) != nranks:
        fail(f"attribution has {len(ranks)} rank breakdowns, expected {nranks}")
    for r, rb in enumerate(ranks):
        total = rb["compute_s"] + rb["send_s"] + rb["wait_s"] + rb["idle_s"]
        if any(rb[k] < -tol for k in ("compute_s", "send_s", "wait_s", "idle_s")):
            fail(f"rank {r} breakdown has a negative component: {rb}")
        if not math.isclose(total, makespan, rel_tol=1e-6, abs_tol=tol):
            fail(f"rank {r} breakdown sums to {total}, makespan is {makespan}")
    cp = attr.get("critical_path", {})
    length = cp.get("length_s", 0.0)
    if not (0.0 < length <= makespan * (1.0 + 1e-9)):
        fail(f"critical path length {length} outside (0, makespan={makespan}]")
    parts = (cp.get("compute_s", 0.0) + cp.get("send_s", 0.0) +
             cp.get("comm_s", 0.0) + cp.get("wait_s", 0.0) +
             cp.get("unattributed_s", 0.0))
    if not math.isclose(parts, length, rel_tol=1e-6, abs_tol=tol):
        fail(f"critical path components sum to {parts}, length is {length}")
    if cp.get("hops", 0) < 0:
        fail(f"negative hop count in critical path: {cp}")
    phases = attr.get("phases", {})
    for needed in ("driver.factor", "driver.solve"):
        if needed not in phases:
            fail(f"attribution missing phase '{needed}' (got {sorted(phases)})")
    for name, st in phases.items():
        if not (0.0 <= st["p50_s"] <= st["p99_s"] <= st["max_s"] * (1.0 + 1e-9)):
            fail(f"phase '{name}' percentiles out of order: {st}")
        if st["count"] <= 0 or st["total_s"] < 0:
            fail(f"phase '{name}' has degenerate stats: {st}")


def check_cost_model(cm):
    for key in ("constants", "threshold", "phases"):
        if key not in cm:
            fail(f"cost_model missing '{key}'")
    if not cm["phases"]:
        fail("cost_model judged no phases")
    for verdict in cm["phases"]:
        for key in ("phase", "measured_s", "predicted_s", "ratio", "flagged"):
            if key not in verdict:
                fail(f"cost_model verdict missing '{key}': {verdict}")
        if verdict["predicted_s"] <= 0:
            fail(f"cost_model predicted non-positive time: {verdict}")


def metrics_snapshot(cli, nranks, threads):
    cmd = [cli, "--method", "ard", "--n", "64", "--m", "4", "--p", str(nranks),
           "--r", "4", "--threads", str(threads), "--metrics"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    begin = "--- metrics (deterministic) ---"
    end = "--- end metrics ---"
    out = proc.stdout
    if begin not in out or end not in out:
        fail(f"--metrics output missing sentinels:\n{out}")
    return out.split(begin, 1)[1].split(end, 1)[0]


def check_metrics_determinism(cli, nranks):
    first = metrics_snapshot(cli, nranks, threads=1)
    again = metrics_snapshot(cli, nranks, threads=1)
    if first != again:
        fail("--metrics snapshot differs between two identical runs")
    threaded = metrics_snapshot(cli, nranks, threads=3)
    if first != threaded:
        fail("--metrics snapshot differs between --threads 1 and --threads 3")
    print(f"check_trace: metrics snapshot deterministic "
          f"({len(first.splitlines())} lines, stable across runs and threads)")


def main():
    if len(sys.argv) < 2:
        fail("usage: check_trace.py /path/to/ardbt [P]")
    cli = sys.argv[1]
    nranks = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = str(Path(tmp) / "trace.json")
        report_path = str(Path(tmp) / "report.json")
        # R = 256 puts M*R = 1024 doubles in each solve message: longer on
        # the wire (8 KiB * beta) than the sender's alpha, so ranks wait
        # for the scan and the trace carries wait events.
        cmd = [cli, "--method", "ard", "--n", "64", "--m", "4", "--p", str(nranks),
               "--r", "256", "--trace", trace_path, "--json", report_path]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
        check_trace(trace_path, nranks)
        check_report(report_path, nranks)
    check_metrics_determinism(cli, nranks)
    print("check_trace: PASS")


if __name__ == "__main__":
    main()
