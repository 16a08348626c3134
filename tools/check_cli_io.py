#!/usr/bin/env python3
"""CLI input gate: an unopenable path is a typed error, not an abort, and
a method the CLI does not offer is a usage error.

Runs the ardbt CLI with a --load-sys path that does not exist and with a
--trace path inside a missing directory. Each run must exit 1 (never a
signal, never 134 from std::terminate) and print exactly one
"ardbt: error: [io] ..." line on stderr that names the path.

Then runs `--method transfer-rd`, alone and with --serve: the transfer-
matrix ablation is not a library method (it lives in bench/ablation/),
so both runs must exit 2 with "unknown method" on stderr.

Usage: check_cli_io.py /path/to/ardbt
"""

import subprocess
import sys
import tempfile
from pathlib import Path

SHAPE = ["--n", "16", "--m", "2", "--p", "2", "--r", "1"]
TIMEOUT_S = 60


def fail(msg):
    print(f"check_cli_io: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(cli, flag, path):
    cmd = [cli, *SHAPE, flag, str(path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} hung for {TIMEOUT_S}s")
    if proc.returncode != 1:
        fail(f"{' '.join(cmd)} exited {proc.returncode}, want 1:\n{proc.stderr}")
    errors = [line for line in proc.stderr.splitlines() if line.startswith("ardbt: error:")]
    if len(errors) != 1:
        fail(f"{flag}: want one 'ardbt: error:' line on stderr, got:\n{proc.stderr}")
    if not errors[0].startswith("ardbt: error: [io] ") or str(path) not in errors[0]:
        fail(f"{flag}: error line does not carry [io] and the path: {errors[0]}")
    print(f"check_cli_io: {flag}: {errors[0]}")


def check_unknown_method(cli, extra):
    cmd = [cli, *SHAPE, *extra, "--method", "transfer-rd"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} hung for {TIMEOUT_S}s")
    if proc.returncode != 2 or "unknown method" not in proc.stderr:
        fail(f"{' '.join(cmd)} exited {proc.returncode}, want 2 with 'unknown method':\n"
             f"{proc.stderr}")
    print(f"check_cli_io: {' '.join(extra + ['--method', 'transfer-rd'])}: "
          f"{proc.stderr.strip()}")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_cli_io.py /path/to/ardbt")
    cli = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        missing = Path(tmp) / "missing"
        check(cli, "--load-sys", missing / "sys.ardbt")
        check(cli, "--trace", missing / "run.trace.json")
    check_unknown_method(cli, [])
    check_unknown_method(cli, ["--serve"])
    print("check_cli_io: PASS")


if __name__ == "__main__":
    main()
