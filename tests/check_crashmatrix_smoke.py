#!/usr/bin/env python3
"""Keeps a crash-matrix smoke ctest for every scenario row.

    python3 tests/check_crashmatrix_smoke.py <crpm_crashmatrix> <smoke...>

CI sweeps every row `crpm_crashmatrix --list` prints, while the bounded
`crashmatrix_smoke_<row>` ctests come from the CRPM_CRASHMATRIX_SMOKE list
in tests/CMakeLists.txt, which passes that list here. This check fails
when a listed row has no smoke ctest, or a smoke ctest names no row, so a
new row cannot land without its smoke shard. Exit 0 when the two agree; 1
with one line per mismatch. Uses only the standard library; registered as
a ctest in tests/CMakeLists.txt.
"""

import subprocess
import sys


def mismatches(rows, smoke):
    """One line per row without a smoke ctest and smoke without a row."""
    out = [f"scenario '{r}' has no crashmatrix_smoke_{r} ctest; add it to "
           f"CRPM_CRASHMATRIX_SMOKE in tests/CMakeLists.txt"
           for r in rows if r not in smoke]
    out += [f"crashmatrix_smoke_{s} names no scenario row"
            for s in smoke if s not in rows]
    return out


def self_test():
    if mismatches(["a", "b"], ["b", "a"]):
        sys.exit("check_crashmatrix_smoke: self-test failed: equal sets")
    got = mismatches(["a", "b", "c"], ["a", "d"])
    if len(got) != 3 or "'b'" not in got[0] or "'c'" not in got[1] or \
            "smoke_d" not in got[2]:
        sys.exit(f"check_crashmatrix_smoke: self-test failed: {got}")


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    self_test()
    listed = subprocess.run([sys.argv[1], "--list"], capture_output=True,
                            text=True, check=False)
    rows = listed.stdout.split()
    if listed.returncode != 0 or not rows:
        sys.exit(f"check_crashmatrix_smoke: '{sys.argv[1]} --list' printed "
                 f"no rows (exit {listed.returncode})")
    bad = mismatches(rows, sys.argv[2:])
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
