#!/usr/bin/env python3
"""Build and run the MiniCL benchmark.

    python3 perfbench/run.py --workload launch-storm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
runtime and the `mclperf` program (Release) into .bench_build, or into
$CARGO_TARGET_DIR when that is set; later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is mclperf's
JSON result. `--workload all` runs every workload in BENCHMARK.json in turn.
Full results, stamped with the host meta block, are written to .bench_out/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=3):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    for need in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("runtime sources not found (missing %s); run from a full "
                 "checkout" % need)
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "mclperf", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "mclperf")
    if not os.path.exists(exe):
        fail("build produced no mclperf binary")
    return exe


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_digest():
    """sha256 over the runtime and benchmark sources, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def next_run_index(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "run_count")
    n = 0
    if os.path.exists(path):
        with open(path) as f:
            n = int(f.read().strip() or 0)
    with open(path, "w") as f:
        f.write(str(n + 1))
    return n + 1


def run_one(exe, workload, args, meta_args):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += meta_args
    if args.corrupt_one:
        cmd.append("--corrupt-one")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 4)
    if r.returncode != 0:
        fail("%s exited with code %d" % (workload, r.returncode), 5)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("%s printed no result line" % workload, 6)
    return lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-one", action="store_true",
                   help="test hook: corrupt one output (see selftest.py)")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    # Names outside BENCHMARK.json (serve-mix, see NOTES.md) still run.
    workloads = names if args.workload == "all" else [args.workload]

    exe = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    meta_args = ["--out-dir", out_dir, "--git-sha", git_sha(),
                 "--source-digest", source_digest(),
                 "--run-index", str(next_run_index(out_dir))]
    results = {}
    for w in workloads:
        lines, result = run_one(exe, w, args, meta_args)
        if len(workloads) > 1:
            print("== " + w)
        print("\n".join(lines[:-1]))
        results[w] = result
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w + "." + k: v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))


if __name__ == "__main__":
    main()
