#!/usr/bin/env python3
"""No-FMA codegen guard for the bit-identity contract (docs/KERNELS.md).

The fixed-M small-block kernels and the generic kernels they replace must
round every multiply and every add separately: a fused multiply-add skips
the product's rounding and changes result bits. src/la/CMakeLists.txt
compiles the kernels with -ffp-contract=off; this check disassembles the
built objects and fails on any fused multiply-add instruction, whatever
-march=native happens to enable on the build host.

Usage: check_no_fma.py OBJECT...

Each argument is an object file or a CMake list (';'-separated) of them,
e.g. $<TARGET_OBJECTS:la>. Every object whose name ends in one of the checked
sources is disassembled; each of them must be present. Exits 77 (a ctest
skip) when objdump is not installed.
"""

import re
import shutil
import subprocess
import sys

# The kernel translation unit and its two generic twins.
CHECKED = ("smallblock.cpp", "gemm.cpp", "lu.cpp")
FMA = re.compile(r"^v?fn?m(add|sub)\w*$")


def fail(msg):
    print(f"check_no_fma: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def mnemonic(line):
    """The instruction name of one objdump -d line ('addr:<TAB>insn ops')."""
    fields = line.split("\t", 1)[1].split()
    return fields[0] if fields else ""


def main():
    if len(sys.argv) < 2:
        fail("usage: check_no_fma.py OBJECT...")
    objdump = shutil.which("objdump")
    if objdump is None:
        print("check_no_fma: objdump not found; skipping", file=sys.stderr)
        sys.exit(77)

    objects = [o for arg in sys.argv[1:] for o in arg.split(";") if o]
    for source in CHECKED:
        matches = [o for o in objects if re.search(re.escape(source) + r"\.(o|obj)$", o)]
        if len(matches) != 1:
            fail(f"expected one object for {source}, found {matches}")
        obj = matches[0]
        proc = subprocess.run([objdump, "-d", "--no-show-raw-insn", obj],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"objdump {obj} exited {proc.returncode}:\n{proc.stderr}")
        lines = [ln for ln in proc.stdout.splitlines() if "\t" in ln]
        if not lines:
            fail(f"{obj}: no instructions disassembled")
        hits = [ln.strip() for ln in lines if FMA.match(mnemonic(ln))]
        if hits:
            shown = "\n  ".join(hits[:10])
            fail(f"{obj}: {len(hits)} fused multiply-add instruction(s), e.g.\n  {shown}")
        print(f"check_no_fma: {source}: {len(lines)} instructions, no FMA")


if __name__ == "__main__":
    main()
