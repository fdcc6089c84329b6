#!/usr/bin/env python3
"""Golden-file drift gate for a bench's modeled output.

Usage: check_golden.py BENCH_BINARY GOLDEN_JSON

Runs BENCH_BINARY in a fresh temporary directory, reads the BENCH_<name>
file it writes there (<name> is GOLDEN_JSON's file name) and compares every
field of every golden row with the fresh run. The golden file leaves out
host wall-clock fields (sim_wall_us), so those are never compared. Exits 1
naming the first row and field that differ, or when the bench itself fails.
"""

import json
import os
import subprocess
import sys
import tempfile


def row_label(index, row):
    names = [str(row[key]) for key in ("test", "driver") if key in row]
    return f"row {index} ({', '.join(names)})"


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    binary = os.path.abspath(argv[1])
    golden_path = os.path.abspath(argv[2])
    with open(golden_path) as f:
        golden = json.load(f)["rows"]
    with tempfile.TemporaryDirectory() as scratch:
        run = subprocess.run([binary], cwd=scratch, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
        if run.returncode != 0:
            print(f"FAIL: {binary} exited {run.returncode}\n{run.stderr}")
            return 1
        with open(os.path.join(scratch, "BENCH_" + os.path.basename(golden_path))) as f:
            fresh = json.load(f)["rows"]
    if len(fresh) != len(golden):
        print(f"FAIL: {len(fresh)} rows, golden has {len(golden)}")
        return 1
    for index, (want, got) in enumerate(zip(golden, fresh)):
        for field, value in want.items():
            if field not in got or got[field] != value:
                print(f"FAIL: {row_label(index, want)} field {field}: "
                      f"got {got.get(field)!r}, golden {value!r}")
                return 1
    print(f"{len(golden)} rows match {golden_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
