#!/usr/bin/env python3
"""Keeps a single copy of the file-durability protocol and of the archive
frame layout.

    python3 tests/check_durable_file.py [repo-root]

Every file write that must survive a power loss goes through
src/util/durable_file (DESIGN.md "Durable files"). This check fails when
a code line anywhere else under src/ calls fsync, fdatasync or rename —
a hand-written copy of that protocol — or when a code line on the
durable paths (src/tier, src/repl, src/snapshot, src/apps) creates a
directory with mkdir, create_directory or create_directories instead of
durable_file::make_dirs, which also syncs the new entry's parent.

Every archive, cold-base and replica read goes through
durable_file::read_at, so its fault hook reaches reads too: a code line
under src/snapshot, src/repl or src/tier fails when it calls pread,
preadv or read directly.

Likewise src/snapshot/format.{h,cpp} is the one place that builds and
checks archive frames (DESIGN.md section 5). A code line anywhere else
under src/ fails when it names FrameFooter or CodedExtent, or takes
offsetof of ArchiveHeader, FrameHeader, FrameFooter or CodedExtent.

Comments and string literals are ignored. Exit 0 when clean; 1 with one
line per offending site. Uses only the standard library; registered as
a ctest in tests/CMakeLists.txt.
"""

import re
import sys
from pathlib import Path

CALL = re.compile(r"\b(fsync|fdatasync|rename)\s*\(")
MKDIR = re.compile(r"\b(mkdir|create_directory|create_directories)\s*\(")
DURABLE_DIRS = ("tier", "repl", "snapshot", "apps")
# A raw read: not a member (.read, ->read) nor a qualified name (X::read).
READ = re.compile(r"(?<![\w.>:])(?:::)?(pread|preadv|read)\s*\(")
READ_DIRS = ("tier", "repl", "snapshot")
SOURCES = (".c", ".cc", ".cpp", ".h", ".hpp")
ALLOWED = Path("src") / "util" / "durable_file.cpp"
LAYOUT = re.compile(
    r"\boffsetof\s*\(\s*(?:\w+::)*"
    r"(ArchiveHeader|FrameHeader|FrameFooter|CodedExtent)\b"
    r"|\b(FrameFooter|CodedExtent)\b")
LAYOUT_OWNERS = (Path("src") / "snapshot" / "format.h",
                 Path("src") / "snapshot" / "format.cpp")


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


def offending_calls(text, durable_path=False, read_path=False):
    """(line number, name) of every fsync/fdatasync/rename call in code,
    of every directory creation when `durable_path` is set, and of every
    raw file read when `read_path` is set."""
    patterns = (CALL,) + ((MKDIR,) if durable_path else ()) + \
        ((READ,) if read_path else ())
    calls = []
    for lineno, line in enumerate(code_only(text).split("\n"), 1):
        for pattern in patterns:
            calls.extend((lineno, m.group(1)) for m in pattern.finditer(line))
    return sorted(calls)


def layout_sites(text):
    """(line number, what) of every code site that reaches into the
    archive frame layout."""
    sites = []
    for lineno, line in enumerate(code_only(text).split("\n"), 1):
        for m in LAYOUT.finditer(line):
            what = f"offsetof({m.group(1)})" if m.group(1) else m.group(2)
            sites.append((lineno, what))
    return sites


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
    planted_dirs = (
        "if (::mkdir(dir_.c_str(), 0755) != 0) return;\n"
        "fs::create_directories(p, ec);  // mkdir(p) in a comment\n"
        "durable_file::make_dirs(dir_); std::string s = \"mkdir(\";\n"
    )
    want = [(1, "mkdir"), (2, "create_directories")]
    got = offending_calls(planted_dirs, durable_path=True)
    if got != want:
        sys.exit(f"check_durable_file: self-test failed: {got} != {want}")
    if offending_calls(planted_dirs):
        sys.exit("check_durable_file: self-test failed: directory creation "
                 "flagged off the durable paths")
    planted_reads = (
        "std::thread t([] { work(); }); in.read(buf, n); p->read(q);\n"
        "ssize_t n = ::pread(fd, buf, len, off);  // read(fd) in a comment\n"
        "durable_file::read_at(fd, b, n, 0); Reader::read(x); pread_all(f);\n"
    )
    want = [(2, "pread")]
    got = offending_calls(planted_reads, read_path=True)
    if got != want:
        sys.exit(f"check_durable_file: self-test failed: {got} != {want}")
    if offending_calls(planted_reads):
        sys.exit("check_durable_file: self-test failed: a raw read flagged "
                 "off the archive paths")
    planted_layout = (
        "snapshot::FrameHeader fh;  // its CodedExtent, in a comment\n"
        "const char* s = \"FrameFooter\"; crc32(&m, offsetof(Msg, crc));\n"
        "uint32_t c = crc32(&fh, offsetof(snapshot::FrameHeader, crc));\n"
    )
    want = [(3, "offsetof(FrameHeader)")]
    got = layout_sites(planted_layout)
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
        durable_path = rel.parts[1] in DURABLE_DIRS
        read_path = rel.parts[1] in READ_DIRS
        for lineno, name in offending_calls(text, durable_path, read_path):
            bad.append(f"{rel}:{lineno}: calls {name}(); use "
                       f"util/durable_file instead")
        if rel not in LAYOUT_OWNERS:
            for lineno, what in layout_sites(text):
                bad.append(f"{rel}:{lineno}: uses {what}; only "
                           f"snapshot/format knows the frame layout")
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
