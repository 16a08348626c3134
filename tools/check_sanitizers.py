#!/usr/bin/env python3
"""Sanitizer gate for the service/resilience layer and the rank engine.

Configures and builds dedicated build trees with -DARDBT_ASAN=ON
(address + undefined) and -DARDBT_UBSAN=ON (undefined only), builds just
the service-layer test binaries, and runs them. The retry/containment
machinery moves Sessions, Leases and panels across failure paths — the
exact territory where a use-after-invalidate or a dangling Lease would
hide; the sanitizers make those latent instead of lurking. The asan mode
also runs the block-Thomas and ARD update tests, which move a
factorization's borrow of its system to another object and destroy the
first.

The tsan mode (-DARDBT_TSAN=ON) builds and runs the engine and pool test
binaries instead: rank threads and their pools stay parked across engine
runs, so cross-thread state lives longer than one run and a missing
happens-before edge between runs would show up there.

The build trees live under the main build directory (passed as argv) and
are reused across runs, so only the first invocation pays a full
configure + compile. Each tree builds only the test binaries its mode
runs (and the libraries they link), with Ninja when it is installed: the
Makefile generator builds one library target after another, so the
slowest sanitized object of each library (the small-block kernels in
`la`, above all) sat on one long serial chain, while Ninja compiles every
library's objects in one parallel pool.

Usage: check_sanitizers.py <source-dir> <build-dir> <mode>
  mode: asan | ubsan | tsan
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

SERVICE_TARGETS = ["test_service", "test_resilience"]
# Factorizations borrow their system (the A_i blocks are read from it, not
# copied); these tests hand the borrow on and destroy the first system.
BORROW_TARGETS = ["test_thomas", "test_update"]
# tests/CMakeLists.txt links these only up to btds (ARDBT_ENGINE_TESTS).
ENGINE_TARGETS = ["test_mpsim", "test_mpsim_stress", "test_par"]
# mode -> (CMake option, test binaries built and run under it)
MODES = {
    "asan": ("ARDBT_ASAN", SERVICE_TARGETS + BORROW_TARGETS),
    "ubsan": ("ARDBT_UBSAN", SERVICE_TARGETS),
    "tsan": ("ARDBT_TSAN", ENGINE_TARGETS),
}


def fail(msg):
    print(f"check_sanitizers: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, **kw):
    proc = subprocess.run(cmd, capture_output=True, text=True, **kw)
    if proc.returncode != 0:
        fail(f"{' '.join(str(c) for c in cmd)} exited {proc.returncode}:\n"
             f"{proc.stdout[-4000:]}\n{proc.stderr[-4000:]}")
    return proc


def generator_args(tree):
    """-G Ninja when ninja is installed, else CMake's default generator. A
    tree configured earlier with another generator is wiped first (CMake
    refuses to switch generators in place)."""
    generator = "Ninja" if shutil.which("ninja") else None
    cache = tree / "CMakeCache.txt"
    if cache.exists():
        configured = next((line.split("=", 1)[1].strip()
                           for line in cache.read_text().splitlines()
                           if line.startswith("CMAKE_GENERATOR:")), None)
        if generator is not None and configured != generator:
            shutil.rmtree(tree)
    return ["-G", generator] if generator else []


def main():
    if len(sys.argv) != 4 or sys.argv[3] not in MODES:
        fail("usage: check_sanitizers.py <source-dir> <build-dir> asan|ubsan|tsan")
    # The sanitized builds saturate every core for minutes while ctest
    # runs wall-clock tests beside them (perf_gate times a benchmark
    # against itself); yield the CPU to those instead of skewing them.
    os.nice(10)
    source = Path(sys.argv[1]).resolve()
    mode = sys.argv[3]
    option, targets = MODES[mode]
    tree = Path(sys.argv[2]).resolve() / f"sanitize-{mode}"

    run(["cmake", "-B", str(tree), "-S", str(source), *generator_args(tree),
         f"-D{option}=ON", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run(["cmake", "--build", str(tree), "-j", str(os.cpu_count() or 1),
         "--target"] + targets)
    for target in targets:
        binary = tree / "tests" / target
        if not binary.exists():
            fail(f"{binary} not built")
        proc = run([str(binary)])
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        print(f"check_sanitizers: {mode} {target}: {tail}")
    print(f"check_sanitizers: PASS ({mode})")


if __name__ == "__main__":
    main()
