#!/usr/bin/env python3
"""Typed-error guard: no raw standard-library throw in the solver code.

Every error the library raises is a typed fault:: exception (src/fault/
status.hpp), so callers can catch one hierarchy and read a stable error
code. The ablation-only solvers (bench/ablation/) raise the same errors,
and their tests assert on them. This check fails when any source file
under the given directories contains `throw std::`, so a raw throw cannot
creep back in.

Usage: check_typed_errors.py DIR [DIR ...]   (src and bench/ablation)
"""

import pathlib
import sys

PATTERN = "throw std::"
SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".inl"}


def main():
    if len(sys.argv) < 2:
        print("usage: check_typed_errors.py DIR [DIR ...]", file=sys.stderr)
        sys.exit(2)
    files = []
    for arg in sys.argv[1:]:
        root = pathlib.Path(arg)
        if not root.is_dir():
            print(f"check_typed_errors: FAIL: {root} is not a directory", file=sys.stderr)
            sys.exit(1)
        found = sorted(p for p in root.rglob("*") if p.is_file() and p.suffix in SUFFIXES)
        if not found:
            print(f"check_typed_errors: FAIL: no sources under {root}", file=sys.stderr)
            sys.exit(1)
        files += found
    hits = []
    for path in files:
        for lineno, line in enumerate(path.read_text(errors="replace").splitlines(), 1):
            if PATTERN in line:
                hits.append(f"{path}:{lineno}: {line.strip()}")
    if hits:
        shown = "\n  ".join(hits)
        print(f"check_typed_errors: FAIL: {len(hits)} raw `{PATTERN}` (use a fault:: error):\n"
              f"  {shown}", file=sys.stderr)
        sys.exit(1)
    print(f"check_typed_errors: {len(files)} files, no `{PATTERN}`")


if __name__ == "__main__":
    main()
