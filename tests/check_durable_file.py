#!/usr/bin/env python3
"""Keeps a single copy of the file-durability protocol.

    python3 tests/check_durable_file.py [repo-root]

Every file write that must survive a power loss goes through
src/util/durable_file (DESIGN.md "Durable files"). This check fails when
a code line anywhere else under src/ calls fsync, fdatasync or rename —
a hand-written copy of that protocol. Comments and string literals are
ignored. Exit 0 when clean; 1 with one line per offending call. Uses only
the standard library; registered as a ctest in tests/CMakeLists.txt.
"""

import re
import sys
from pathlib import Path

CALL = re.compile(r"\b(fsync|fdatasync|rename)\s*\(")
SOURCES = (".c", ".cc", ".cpp", ".h", ".hpp")
ALLOWED = Path("src") / "util" / "durable_file.cpp"


def code_only(text):
    """Blanks comments and string/char literals, keeping line breaks."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        two = text[i:i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j < 0 else j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
        else:
            out.append(c)
            i += 1
            continue
        out.append(re.sub(r"[^\n]", " ", text[i:j]))
        i = j
    return "".join(out)


def offending_calls(text):
    """(line number, name) of every fsync/fdatasync/rename call in code."""
    calls = []
    for lineno, line in enumerate(code_only(text).split("\n"), 1):
        calls.extend((lineno, m.group(1)) for m in CALL.finditer(line))
    return calls


def self_test():
    """The scanner must see real calls and skip comments and strings."""
    planted = (
        "int a = ::fdatasync(fd);  // fsync(fd) in a comment\n"
        "/* rename(a, b) */ const char* s = \"rename(\";\n"
        "std::filesystem::rename(p, q, ec);\n"
        "bool fsync = true; sync_dir(d);\n"
    )
    want = [(1, "fdatasync"), (3, "rename")]
    got = offending_calls(planted)
    if got != want:
        sys.exit(f"check_durable_file: self-test failed: {got} != {want}")


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(__file__).resolve().parent.parent
    self_test()
    src = root / "src"
    if not (src / ALLOWED.relative_to("src")).is_file():
        sys.exit(f"check_durable_file: {root / ALLOWED} not found")
    bad = []
    for path in sorted(src.rglob("*")):
        rel = path.relative_to(root)
        if path.suffix not in SOURCES or rel == ALLOWED:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        for lineno, name in offending_calls(text):
            bad.append(f"{rel}:{lineno}: calls {name}(); use "
                       f"util/durable_file instead")
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
