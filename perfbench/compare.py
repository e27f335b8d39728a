#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each argument is a directory of *.result.json files written by run.py (or a
single such file). Results are grouped by workload and trace mode; for each
metric the medians of both sides are printed with the change as a share of
the base median. For end-to-end metrics the bound from BENCHMARK.json is
applied and a change worse than it is flagged.

Results are compared only when they come from the same host and build:
CPU model, CPU count, caches, ISA, compiler and build type must all match.
Otherwise the script refuses, names the fields that differ, and exits 2.
"""
import glob
import json
import os
import statistics
import sys

HOST_FIELDS = ("cpu_model", "nproc", "l1d_bytes", "l2_bytes", "l3_bytes",
               "isa", "compiler", "build_type")


def load(path):
    files = (sorted(glob.glob(os.path.join(path, "*.result.json")))
             if os.path.isdir(path) else [path])
    results = []
    for f in files:
        with open(f) as fh:
            results.append(json.load(fh))
    if not results:
        sys.exit("compare: no results in %s" % path)
    return results


def host_of(results, path):
    hosts = {tuple(r["meta"][k] for k in HOST_FIELDS) for r in results}
    if len(hosts) != 1:
        sys.exit("compare: %s mixes results from %d hosts" % (path, len(hosts)))
    return dict(zip(HOST_FIELDS, hosts.pop()))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hb, hn = host_of(base, sys.argv[1]), host_of(new, sys.argv[2])
    differ = [k for k in HOST_FIELDS if hb[k] != hn[k]]
    if differ:
        print("compare: refusing to compare results from different hosts:")
        for k in differ:
            print("  %s: %r vs %r" % (k, hb[k], hn[k]))
        sys.exit(2)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}

    def group(results):
        out = {}
        for r in results:
            key = (r["workload"], r["trace"])
            for name, m in r["metrics"].items():
                out.setdefault(key, {}).setdefault(name, []).append(m["value"])
        return out

    gb, gn = group(base), group(new)
    worse_than_bound = 0
    for key in sorted(set(gb) & set(gn)):
        print("== %s (trace %d): %d base runs, %d new runs" % (
            key[0], key[1], len(next(iter(gb[key].values()))),
            len(next(iter(gn[key].values())))))
        for name in sorted(set(gb[key]) & set(gn[key])):
            mb = statistics.median(gb[key][name])
            mn = statistics.median(gn[key][name])
            change = (mn - mb) / abs(mb) if mb else float("nan")
            spec_m = e2e.get(name) or layer.get(name) or {}
            flag = ""
            if name in e2e:
                worse = -change if spec_m["better"] == "higher" else change
                if worse > spec_m["bound"]:
                    flag = "  WORSE THAN BOUND %.2f" % spec_m["bound"]
                    worse_than_bound += 1
            print("  %-36s %14.6g -> %14.6g  %+7.1f%%%s" % (
                name, mb, mn, 100.0 * change, flag))
    sys.exit(1 if worse_than_bound else 0)


if __name__ == "__main__":
    main()
