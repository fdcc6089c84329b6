#!/usr/bin/env python3
"""Trusted-code coverage report and ratchet.

Usage: trusted_coverage.py

Builds build-cov (under the repo root) as a Debug tree with GCC 12 and its
--coverage instrumentation, runs the three gates that drive the kernel-side
code (ctest, sec_attack_matrix and fuzz_wire 1), then runs gcov on every
trusted .cc file, src/sud/*.cc: safe-PCI's device context, uchan, shared
pool and DMA space, the three proxies, and the wire schema. It prints each
line no gate executed, and then, per file, the unexecuted and executable
line counts. Headers are not counted, and neither are lines gcov marks =====
(reached only by exception unwinding, such as the destructor calls behind a
function's closing brace).

Exits 1 when a file has more unexecuted lines than its budget in BUDGETS.
Like fig5_loc_inventory's line budgets, these are a ratchet: lower one when
a change covers or deletes lines, never raise it. A gate that fails is named
on stderr but does not fail the report: the Release test job gates
correctness, and this one gates what the tests run. The counters are
updated atomically (-fprofile-update=atomic): the gates run threaded
drivers, and racing plain increments can leave a line that ran reading as
unexecuted, or one that did not as run.

The budgets were read with GCC 12's gcov, and another GCC can attribute a
few lines differently, so the build and gcov are pinned to GCC 12. Even so,
gcov at -O0 can attribute a line to the wrong block (a closing `return` can
read as unexecuted while its branch ran). Check a listed line against the
counts of its enclosing branch before writing a test for it or deleting it.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = REPO / "build-cov"
JOBS = str(os.cpu_count() or 1)
COMPILER = "g++-12"
GCOV = "gcov-12"

# Unexecuted-line budgets per trusted file; a file not named here has none.
# Each line left needs a race or a torn-down context, which no deterministic
# gate makes, so a run can read it as executed and the budget is its upper
# bound:
# - safe_pci.cc: OnDeviceInterrupt's !bound_ return, an interrupt racing a
#   teardown.
# - uchan.cc: WaitForUpcalls' early return, an upcall enqueued between
#   WaitBatch's empty-ring check and the driver's idle store.
# - proxy_ethernet.cc: PrepareXmit's TX grant mapping failure; the IOMMU
#   refuses the mapping only once the context is gone.
# - proxy_audio.cc: WriteSamples' Buffer failure after Alloc, a rebind
#   re-carving the pool between the two.
BUDGETS = {
    "safe_pci.cc": 1,
    "uchan.cc": 1,
    "proxy_ethernet.cc": 1,
    "proxy_audio.cc": 1,
}

# The gates, run from the build directory.
GATES = [
    ["ctest", "--output-on-failure", "-j", JOBS],
    ["./sec_attack_matrix"],
    ["./fuzz_wire", "1"],
]


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL, check=False).returncode


def build():
    configure = [
        "cmake", "-B", str(BUILD_DIR), "-S", str(REPO), "-DCMAKE_BUILD_TYPE=Debug",
        f"-DCMAKE_CXX_COMPILER={COMPILER}",
        "-DCMAKE_CXX_FLAGS=--coverage -fprofile-update=atomic",
        "-DCMAKE_EXE_LINKER_FLAGS=--coverage",
    ]
    if run(configure, REPO) != 0:
        sys.exit("configure failed")
    if run(["cmake", "--build", str(BUILD_DIR), "-j", JOBS], REPO) != 0:
        sys.exit("build failed")
    # Counts accumulate across runs: start every report from zero.
    for gcda in BUILD_DIR.rglob("*.gcda"):
        gcda.unlink()


def line_counts(source):
    """Returns {line number: ran} for `source`'s executable lines."""
    gcda = BUILD_DIR / "CMakeFiles" / "sud.dir" / source.parent / (source.name + ".gcda")
    result = subprocess.run([GCOV, "--json-format", "--stdout", str(gcda)], cwd=BUILD_DIR,
                            capture_output=True, text=True, check=True)
    counts = {}
    for document in result.stdout.splitlines():
        if not document.strip():
            continue
        for entry in json.loads(document)["files"]:
            if os.path.realpath(entry["file"]) != str(REPO / source):
                continue
            for line in entry["lines"]:
                # Unexecuted with no unexecuted ordinary block: only exception
                # unwinding reaches the line (gcov's =====).
                if line["count"] > 0 or line["unexecuted_block"]:
                    number = line["line_number"]
                    counts[number] = counts.get(number, False) or line["count"] > 0
    return counts


def main():
    build()
    failed = [" ".join(gate) for gate in GATES if run(gate, BUILD_DIR) != 0]

    rows = []
    for source in sorted(p.relative_to(REPO) for p in (REPO / "src" / "sud").glob("*.cc")):
        counts = line_counts(source)
        text = (REPO / source).read_text().splitlines()
        unexecuted = [number for number in sorted(counts) if not counts[number]]
        for number in unexecuted:
            print(f"{source}:{number}: {text[number - 1].strip()}")
        rows.append((source.name, len(unexecuted), len(counts)))

    print(f"\n{'File':<20} {'unexecuted':>10} {'executable':>10} {'budget':>7}")
    print("-" * 50)
    over = []
    for name, unexecuted, executable in rows:
        budget = BUDGETS.get(name, 0)
        print(f"{name:<20} {unexecuted:>10} {executable:>10} {budget:>7}")
        if unexecuted > budget:
            over.append(f"{name}: {unexecuted} unexecuted lines, over its budget of {budget}")
    print("-" * 50)
    print(f"{'Trusted total':<20} {sum(r[1] for r in rows):>10} {sum(r[2] for r in rows):>10}")

    for gate in failed:
        print(f"note: gate failed, so lines after its failure may read unexecuted: {gate}",
              file=sys.stderr)
    for line in over:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
