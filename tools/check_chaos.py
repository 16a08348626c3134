#!/usr/bin/env python3
"""Chaos gate for the service resilience layer (docs/ROBUSTNESS.md).

Sweeps fault plans x overload shapes x retry/deadline/breaker configs
through `ardbt --serve` and asserts, for every scenario:

* the process exits 0 within a wall-clock timeout (no hang, no crash —
  failures must be contained, not fatal);
* the summary prints the typed-terminal-state ledger and it balances:
  every issued request ends in exactly one of done / failed /
  deadline-exceeded, and every rejection carries exactly one admission
  class (the `accounting : BALANCED` line the CLI computes);
* stdout is byte-identical across a rerun and across --threads 1 / 3 —
  retries, hedges, sheds, breaker trips and cancellations are all
  deterministic functions of the virtual clock;
* scenario-specific signals fired (retries under injected faults, sheds
  under overload, rejections under tight deadlines), so the sweep cannot
  silently degenerate into a fault-free walk.

Usage: check_chaos.py /path/to/ardbt
"""

import re
import subprocess
import sys

TIMEOUT_S = 180  # generous hang detector; each scenario runs ~1 s

BASE = ["--serve", "--n", "32", "--m", "4", "--requests", "192",
        "--clients", "12", "--tenants", "3", "--pool", "2", "--hot", "1"]

# name, extra flags, dict of summary-count lower bounds (key regex -> min).
SCENARIOS = [
    ("clean-baseline", [], {}),
    ("retry-crash", ["--fault", "crash", "--retries", "2"],
     {r"retries (\d+)": 1}),
    ("retry-flip", ["--fault", "flip", "--retries", "2"],
     {r"retries (\d+)": 1}),
    # The explicit delay keeps the hedge armed even on a cold server (no
    # EWMA service estimate yet, so auto-delay would sit the first batch out).
    ("hedged-retry", ["--fault", "crash", "--fault", "flip", "--retries", "2",
                      "--hedge", "--hedge-delay", "2e-4"],
     {r"hedged (\d+)": 1}),
    ("no-retry-contains", ["--fault", "crash"],
     {r"failed (\d+)": 1}),
    ("denied-budget", ["--fault", "crash", "--retries", "2",
                       "--retry-budget", "0", "--max-resubmits", "2"],
     {r"denied (\d+)": 1}),
    ("deadline-pressure", ["--deadline", "3e-3", "--max-resubmits", "3"], {}),
    ("shed-queue", ["--shed-queue", "4", "--think", "1e-5",
                    "--max-resubmits", "2"],
     {r"shed (\d+)": 1}),
    # Closed-loop load self-throttles, so the backlog signal needs the
    # open-loop overload shape to go positive (arrivals ignore completions).
    # The bound is about one batch's modeled service time (~3e-5 s), so
    # most of the flood is shed and the shed share clears the shed-storm
    # watchdog's 10% by a wide margin instead of hinging on the last
    # percent of modeled solve time.
    ("shed-backlog", ["--arrival", "open", "--rate", "5e6",
                      "--shed-backlog", "3e-5"],
     {r"shed (\d+)": 1, r"alerts (\d+)": 1}),
    ("quota-and-shed", ["--quota", "2", "--shed-queue", "8", "--think", "1e-5",
                        "--max-resubmits", "2"], {}),
    ("breaker-under-faults", ["--fault", "crash", "--fault", "crash",
                              "--breaker", "2", "--max-resubmits", "3"], {}),
    ("kitchen-sink", ["--fault", "crash", "--fault", "flip", "--fault", "delay",
                      "--retries", "2", "--hedge", "--deadline", "5e-3",
                      "--shed-queue", "24", "--breaker", "4",
                      "--max-resubmits", "3"], {}),
]


def fail(msg):
    print(f"check_chaos: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def serve(cli, name, flags, threads):
    cmd = [cli] + BASE + flags + ["--threads", str(threads)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: hung for {TIMEOUT_S}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"{name}: exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return proc.stdout


def check_ledger(name, out):
    for line in ("outcomes", "rejections", "resilience", "goodput",
                 "accounting"):
        if f"  {line}" not in out:
            fail(f"{name}: summary missing '{line}' line:\n{out}")
    if "accounting  : BALANCED" not in out:
        fail(f"{name}: terminal-state ledger does not balance:\n{out}")
    # Requests must actually terminate: done + failed + deadline-exceeded
    # + gave-up covers every logical request the closed loop issued.
    m = re.search(r"issued (\d+), rejected (\d+), completed (\d+)", out)
    if not m:
        fail(f"{name}: no requests line:\n{out}")
    issued, _, completed = (int(g) for g in m.groups())
    if issued != completed:
        fail(f"{name}: issued {issued} != completed {completed}")
    if issued == 0:
        fail(f"{name}: nothing was admitted — scenario degenerate:\n{out}")


def check_signals(name, out, signals):
    for pattern, minimum in signals.items():
        m = re.search(pattern, out)
        if not m:
            fail(f"{name}: expected /{pattern}/ in summary:\n{out}")
        if int(m.group(1)) < minimum:
            fail(f"{name}: /{pattern}/ = {m.group(1)} < {minimum} — the "
                 f"scenario did not exercise its fault path:\n{out}")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_chaos.py /path/to/ardbt")
    cli = sys.argv[1]
    for name, flags, signals in SCENARIOS:
        first = serve(cli, name, flags, threads=1)
        check_ledger(name, first)
        check_signals(name, first, signals)
        if first != serve(cli, name, flags, threads=1):
            fail(f"{name}: stdout differs between two identical runs")
        if first != serve(cli, name, flags, threads=3):
            fail(f"{name}: stdout differs between --threads 1 and --threads 3")
        print(f"check_chaos: {name} ok (deterministic, balanced)")
    print(f"check_chaos: PASS ({len(SCENARIOS)} scenarios)")


if __name__ == "__main__":
    main()
