#!/usr/bin/env python3
"""Determinism gate for the intra-rank thread pool and the scan pipeline.

Runs the ardbt CLI twice on the same problem — once with --threads 1 and
once with --threads 3 — and checks the contract that par::Pool promises:

* the saved solution files are byte-identical (static chunking fixes the
  per-element floating-point evaluation order, so the pool size must not
  change a single bit);
* the run reports agree on residual, charged flops, and phase virtual
  times (flop charges stay on the rank thread, so the modeled clock is
  independent of the worker count);
* the v2 attribution and cost_model sections are identical — the
  critical path, per-rank breakdowns, phase percentiles, and oracle
  verdicts are all derived from the virtual clock, so the worker count
  must not perturb a single value.

Then repeats the solution check along the latency-hiding pipeline axis
(docs/PARALLELISM.md): a small --chunk (several pipelined RHS panels)
must keep the solution byte-identical to the one-panel schedule, at both
thread counts — the pipeline reorders the schedule, never the arithmetic
on any one value's dependency chain.

Usage: check_determinism.py /path/to/ardbt
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def fail(msg):
    print(f"check_determinism: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_once(cli, tmp, threads, chunk=0, tag=""):
    x_path = Path(tmp) / f"x{threads}{tag}.bin"
    report_path = Path(tmp) / f"report{threads}{tag}.json"
    cmd = [cli, "--method", "ard", "--kind", "poisson2d", "--n", "96",
           "--m", "6", "--p", "3", "--r", "17", "--threads", str(threads),
           "--save-x", str(x_path), "--json", str(report_path)]
    if chunk:
        cmd += ["--chunk", str(chunk)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return x_path.read_bytes(), json.loads(report_path.read_text())


def main():
    if len(sys.argv) != 2:
        fail("usage: check_determinism.py /path/to/ardbt")
    cli = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        x1, report1 = run_once(cli, tmp, threads=1)
        x3, report3 = run_once(cli, tmp, threads=3)
        pipelined = {
            (threads, chunk): run_once(cli, tmp, threads=threads, chunk=chunk,
                                       tag=f"c{chunk}")[0]
            for threads in (1, 3) for chunk in (5,)
        }

    if x1 != x3:
        fail(f"solutions differ between --threads 1 and --threads 3 "
             f"({len(x1)} vs {len(x3)} bytes)")
    print(f"check_determinism: solutions byte-identical ({len(x1)} bytes)")

    # Pipeline axis: chunked panels must not move a single bit, whatever
    # the worker count.
    for (threads, chunk), xb in sorted(pipelined.items()):
        if xb != x1:
            fail(f"solution differs with --chunk {chunk} "
                 f"--threads {threads} (pipeline broke bit-identity)")
    print("check_determinism: solutions byte-identical with --chunk 5 "
          "at --threads 1 and 3")

    # cpu_seconds / wall_s are measured and vary run to run; everything the
    # virtual-time model produces must be exactly equal.
    deterministic = [
        ("accuracy", "relative_residual"),
        ("totals", "flops_charged"),
        ("totals", "msgs_sent"),
        ("totals", "bytes_sent"),
        ("timing", "factor_vtime_s"),
        ("timing", "solve_vtime_s"),
    ]
    for section, key in deterministic:
        v1 = report1.get(section, {}).get(key)
        v3 = report3.get(section, {}).get(key)
        if v1 is None or v1 != v3:
            fail(f"report {section}.{key} differs: "
                 f"--threads 1 -> {v1!r}, --threads 3 -> {v3!r}")
    if report1.get("config", {}).get("threads") == report3.get("config", {}).get("threads"):
        fail("report config.threads does not record the flag")
    print("check_determinism: residual/flops/vtimes equal across thread counts")

    # The whole attribution and cost-model sections live on the virtual
    # clock: compare them structurally, not key by key.
    for section in ("attribution", "cost_model"):
        s1, s3 = report1.get(section), report3.get(section)
        if s1 is None:
            fail(f"report missing '{section}' section")
        if s1 != s3:
            fail(f"report '{section}' differs between --threads 1 and --threads 3")
    print("check_determinism: attribution/cost_model identical across thread counts")
    print("check_determinism: PASS")


if __name__ == "__main__":
    main()
