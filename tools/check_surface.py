#!/usr/bin/env python3
"""Surface guard: every free function and public static member function
a header declares has a caller, and the library does not reach into the
benches.

A function only tests call still has to be compiled, documented and run
under the sanitizers by every later change. This check fails when a
non-template free function declared at namespace scope in src/**/*.hpp
or bench/ablation/*.hpp (the ablation-only solvers), or a non-template
public static member function of a class defined there, has no reference
in src, tools, bench, examples or perfbench other than its own
declarations and definitions. Overloads (and members of different
classes) share a name and are checked by name. Comments and string
literals are not references.

It also fails when a file under src includes a header under bench: the
ablation solvers build on the library, never the other way round.

Functions kept on purpose for the tests (references the tests compare
against, or helpers that drive the engine tests) are listed in ALLOWED,
each with its reason.

Usage: check_surface.py REPO_ROOT
"""

import pathlib
import re
import sys

CALLER_TREES = ("src", "tools", "bench", "examples", "perfbench")
DECLARATION_ROOTS = ("src", "bench/ablation")
SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
BENCH_INCLUDE = re.compile(r'^\s*#\s*include\s*[<"]bench/', re.M)

# name -> why it stays although only tests call it.
ALLOWED = {
    "inverse": "la: explicit inverse, the dense reference of the LU and conditioning tests",
    "transposed": "la: explicit transpose, the reference of the right-division tests",
    "norm_inf": "la: the norm of the conditioning tests' kappa = |A| |A^-1|",
    "banded_lu_solve": "btds: one-shot exact banded solve, the differential tests' reference",
    "apply_periodic": "core: periodic operator apply, the periodic solver tests' residual",
    "make_conditioned": "btds: problem generator of the fault and differential tests",
    "make_near_singular": "btds: problem generator of the fault and differential tests",
    "load_matrix": "btds: the only reader of the format ardbt --save-x writes",
    "scatter": "btds: distributes a root's system, the distributed tests' input path",
    "scatter_rows": "btds: distributes a root's rows, the distributed tests' input path",
    "gather_rows": "btds: collects rank rows at a root, the distributed tests' output path",
}

NOT_FUNCTIONS = {
    "template", "using", "typedef", "namespace", "class", "struct", "union", "enum",
    "friend", "extern", "static_assert",
}
KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "decltype",
    "static_assert", "noexcept", "void", "int", "double", "char", "bool",
    "auto", "operator", "alignas", "requires",
}

ACCESS = re.compile(r"\b(public|private|protected)\s*:(?!:)")
CLASS_HEAD = re.compile(r"^(?:template\s*<.*>\s*)?(class|struct|union)\b", re.S)

RAW_STRING = re.compile(r'R"([^(\s]*)\((?:.|\n)*?\)\1"')
TOKENS = re.compile(r'//[^\n]*|/\*(?:.|\n)*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'')
IDENT = re.compile(r"[A-Za-z_]\w*")


def strip(text):
    """Drop comments, literals and preprocessor lines; keep line structure."""
    def blank(m):
        s = m.group(0)
        if s.startswith("//") or s.startswith("/*"):
            return "\n" * s.count("\n")
        return '""'
    text = RAW_STRING.sub(lambda m: "\n" * m.group(0).count("\n") + '""', text)
    text = TOKENS.sub(blank, text)
    out = []
    continued = False
    for line in text.split("\n"):
        directive = continued or line.lstrip().startswith("#")
        continued = directive and line.rstrip().endswith("\\")
        out.append("" if directive else line)
    return "\n".join(out)


def function_name(stmt):
    """Name of the function a namespace-scope statement declares, or None."""
    if "(" not in stmt:
        return None
    head = re.sub(r"\[\[.*?\]\]", " ", stmt.split("(", 1)[0])
    words = head.split()
    if not words or words[0] in NOT_FUNCTIONS or "=" in head:
        return None
    m = re.search(r"([A-Za-z_]\w*)\s*$", head)
    if m is None:
        return None
    name = m.group(1)
    if name in KEYWORDS or name.isupper():
        return None
    # A bare call or a declaration with no return type is not a function
    # declaration at namespace scope.
    if len(words) < 2 and "::" not in head:
        return None
    return name


class ClassScope:
    """A class body: its current access, and whether its public members
    are reachable from outside (every enclosing class's too)."""

    def __init__(self, keyword, visible):
        self.access = "private" if keyword == "class" else "public"
        self.visible = visible

    def public(self):
        return self.visible and self.access == "public"


def checked_functions(code):
    """Name of every function declared or defined at namespace scope, and
    of every public static member function declared in a class body."""
    found = []
    scopes = []  # per open brace: "ns", a ClassScope, or None (any other)
    start = 0
    for i, c in enumerate(code):
        if c not in ";{}":
            continue
        at_ns = all(s == "ns" for s in scopes)
        cls = scopes[-1] if scopes and isinstance(scopes[-1], ClassScope) else None
        if cls is not None and not all(s == "ns" or isinstance(s, ClassScope) for s in scopes):
            cls = None  # a class local to a function
        stmt = code[start:i]
        labels = list(ACCESS.finditer(stmt)) if cls is not None else []
        if labels:
            cls.access = labels[-1].group(1)
            stmt = stmt[labels[-1].end():]
        start = i + 1
        if c == "}":
            if scopes:
                scopes.pop()
            continue
        name = None
        if at_ns:
            name = function_name(stmt)
        elif cls is not None and cls.public() and "static" in stmt.split("(", 1)[0].split():
            name = function_name(stmt)
        if c == ";":
            if name is not None:
                found.append(name)
            continue
        words = stmt.split()
        head = CLASS_HEAD.match(stmt.strip())
        if at_ns and ("namespace" in words[:2] or words == ["extern", '""']):
            scopes.append("ns")
        elif head is not None and (at_ns or cls is not None):
            scopes.append(ClassScope(head.group(1), at_ns or cls.public()))
        else:
            if name is not None:
                found.append(name)
            scopes.append(None)
    return found


def main():
    if len(sys.argv) != 2:
        print("usage: check_surface.py REPO_ROOT", file=sys.stderr)
        sys.exit(2)
    root = pathlib.Path(sys.argv[1])
    files = []
    for tree in CALLER_TREES:
        base = root / tree
        if base.is_dir():
            files += sorted(p for p in base.rglob("*") if p.is_file() and p.suffix in SUFFIXES)
    headers = [p for p in files if p.suffix == ".hpp" and
               any(p.is_relative_to(root / r) for r in DECLARATION_ROOTS)]
    if not headers:
        print(f"check_surface: FAIL: no headers under {root / 'src'}", file=sys.stderr)
        sys.exit(1)

    upward = []
    for path in files:
        if path.is_relative_to(root / "src"):
            text = path.read_text(errors="replace")
            for m in BENCH_INCLUDE.finditer(text):
                lineno = text.count("\n", 0, m.start()) + 1
                upward.append(f"{path.relative_to(root)}:{lineno}")
    if upward:
        print(f"check_surface: FAIL: src includes a bench header (the dependency runs one "
              f"way, bench -> src):\n  " + "\n  ".join(upward), file=sys.stderr)
        sys.exit(1)

    declared = {}  # name -> first header declaring it
    own_sites = {}  # name -> count of its declarations and definitions
    uses = {}  # name -> count of every identifier occurrence
    for path in files:
        code = strip(path.read_text(errors="replace"))
        for name in checked_functions(code):
            own_sites[name] = own_sites.get(name, 0) + 1
            if path in headers:
                declared.setdefault(name, path)
        for m in IDENT.finditer(code):
            uses[m.group(0)] = uses.get(m.group(0), 0) + 1

    stale = sorted(name for name in ALLOWED if name not in declared)
    if stale:
        print(f"check_surface: FAIL: allowlisted names no header declares: {', '.join(stale)}",
              file=sys.stderr)
        sys.exit(1)
    dead = []
    for name, header in sorted(declared.items(), key=lambda kv: (str(kv[1]), kv[0])):
        if name in ALLOWED:
            continue
        if uses.get(name, 0) <= own_sites.get(name, 0):
            dead.append(f"{header.relative_to(root)}: {name}")
    if dead:
        shown = "\n  ".join(dead)
        print(f"check_surface: FAIL: {len(dead)} function(s) with no caller in "
              f"{', '.join(CALLER_TREES)}; delete them or give a reason in ALLOWED:\n  {shown}",
              file=sys.stderr)
        sys.exit(1)
    print(f"check_surface: {len(declared)} functions in {len(headers)} headers, "
          f"each with a caller ({len(ALLOWED)} kept for the tests)")


if __name__ == "__main__":
    main()
