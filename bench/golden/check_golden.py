#!/usr/bin/env python3
"""Golden-file drift gate for a bench's modeled output.

Usage: check_golden.py BENCH_BINARY GOLDEN_JSON

Runs BENCH_BINARY in a fresh temporary directory, reads the BENCH_<name>
file it writes there (<name> is GOLDEN_JSON's file name) and compares every
field of the golden document, at any depth, with the fresh run: objects key
by key (fields the golden file leaves out, such as the host wall-clock
sim_wall_us, are never compared), arrays element by element and of equal
length, everything else by value. Exits 1 naming the path of the first
field that differs (for example rows[3].cpu_pct), or when the bench itself
fails.
"""

import json
import os
import subprocess
import sys
import tempfile


def first_mismatch(want, got, path):
    """Returns (path, description) of the first difference, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return path, f"got {got!r}, golden an object"
        for key, value in want.items():
            child = f"{path}.{key}" if path else key
            if key not in got:
                return child, "missing from the fresh run"
            found = first_mismatch(value, got[key], child)
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            length = len(got) if isinstance(got, list) else "no"
            return path, f"got {length} elements, golden has {len(want)}"
        for index, (w, g) in enumerate(zip(want, got)):
            found = first_mismatch(w, g, f"{path}[{index}]")
            if found:
                return found
        return None
    if type(got) is not type(want) or got != want:
        return path, f"got {got!r}, golden {want!r}"
    return None


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    binary = os.path.abspath(argv[1])
    golden_path = os.path.abspath(argv[2])
    with open(golden_path) as f:
        golden = json.load(f)
    with tempfile.TemporaryDirectory() as scratch:
        run = subprocess.run([binary], cwd=scratch, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
        if run.returncode != 0:
            print(f"FAIL: {binary} exited {run.returncode}\n{run.stderr}")
            return 1
        with open(os.path.join(scratch, "BENCH_" + os.path.basename(golden_path))) as f:
            fresh = json.load(f)
    found = first_mismatch(golden, fresh, "")
    if found:
        print(f"FAIL: {found[0]}: {found[1]}")
        return 1
    print(f"every field matches {golden_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
