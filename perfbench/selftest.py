#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For every workload mclperf knows, runs it once clean and once with
--corrupt-one, which alters exactly one program output after the program
produced it and before the benchmark checks it. The clean run must report
correct; the corrupted run must report incorrect. For the workloads in
BENCHMARK.json the clean run must also have no failed op and the corrupted
run exactly one (serve-mix may see admission refusals, which count as
failed ops without making the outputs incorrect). A traced run is checked
too. Exits 1 on any mismatch.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("launch-storm", "paper-suite", "serve-mix")


def run(workload, trace, corrupt):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt-one")
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    if r.returncode != 0:
        return None
    return json.loads(r.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        gated = {w["name"] for w in json.load(f)["workloads"]}
    bad = 0
    cases = [(w, 0) for w in WORKLOADS] + [("launch-storm", 1)]
    for workload, trace in cases:
        clean = run(workload, trace, False)
        corrupt = run(workload, trace, True)
        exact = workload in gated
        ok_clean = clean is not None and clean["correct"] and (
            not exact or clean["failed"] == 0)
        ok_corrupt = corrupt is not None and not corrupt["correct"] and (
            corrupt["failed"] == 1 if exact else corrupt["failed"] >= 1)
        print("%-13s trace=%d  clean: %s  corrupted output caught: %s" % (
            workload, trace, "ok" if ok_clean else "FAIL",
            "ok" if ok_corrupt else "FAIL"))
        bad += (not ok_clean) + (not ok_corrupt)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
