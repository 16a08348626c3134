#!/usr/bin/env python3
"""Hang guard: tests start ranks through the run_ranks helper only.

tests/run_ranks.hpp wraps mpsim::run with a wall-clock receive timeout, so
a deadlocked schedule fails with a typed fault::DeadlineError instead of
hanging the suite until ctest's own timeout. This check fails when any
test source other than the helper and the tests of mpsim::run itself
(test_mpsim.cpp, test_mpsim_stress.cpp) calls mpsim::run directly:
qualified anywhere, or unqualified in a file that opens the mpsim
namespace or imports it.

Usage: check_test_engine.py TESTS_DIR
"""

import pathlib
import re
import sys

EXEMPT = {"run_ranks.hpp", "test_mpsim.cpp", "test_mpsim_stress.cpp"}
SUFFIXES = {".cpp", ".hpp"}
QUALIFIED = re.compile(r"\bmpsim::run\s*\(|using\s+(ardbt::)?mpsim::run\b")
OPENS_MPSIM = re.compile(r"namespace\s+(ardbt::)?mpsim\b|using\s+namespace\s+(ardbt::)?mpsim\b")
UNQUALIFIED = re.compile(r"(?<![\w.>:])run\s*\(")


def main():
    if len(sys.argv) != 2:
        print("usage: check_test_engine.py TESTS_DIR", file=sys.stderr)
        sys.exit(2)
    root = pathlib.Path(sys.argv[1])
    files = sorted(p for p in root.glob("*") if p.is_file() and p.suffix in SUFFIXES)
    if not files:
        print(f"check_test_engine: FAIL: no test sources under {root}", file=sys.stderr)
        sys.exit(1)
    hits = []
    for path in files:
        if path.name in EXEMPT:
            continue
        code = [line.split("//", 1)[0] for line in path.read_text(errors="replace").splitlines()]
        opens_mpsim = any(OPENS_MPSIM.search(line) for line in code)
        for lineno, line in enumerate(code, 1):
            if QUALIFIED.search(line) or (opens_mpsim and UNQUALIFIED.search(line)):
                hits.append(f"{path}:{lineno}: {line.strip()}")
    if hits:
        shown = "\n  ".join(hits)
        print(f"check_test_engine: FAIL: {len(hits)} direct mpsim::run call(s); use "
              f"test::run_ranks (tests/run_ranks.hpp):\n  {shown}", file=sys.stderr)
        sys.exit(1)
    print(f"check_test_engine: {len(files)} files, every engine run goes through run_ranks")


if __name__ == "__main__":
    main()
