#!/usr/bin/env bash
# Tier-1 gate: the checks every change must pass before merging.
#
#   1. plain Release build + full ctest suite (plus explicit `-L trace`,
#      `-L prof`, `-L verify`, `-L serve`, `-L tune`, `-L obs` and
#      `-L conform` passes for the mcltrace ring/exporter, mclprof
#      registry/profiler, mclverify dataflow/soundness, mclserve
#      admission/fairness, mcltune policy/cache, mclobs
#      context/flight-recorder, and CL-shim conformance suites — the
#      `conform` label runs the two unmodified external-style C hosts from
#      examples/conformance/ plus the error matrix and shim integration
#      tests),
#      then the mclconform coverage report (conformance.json from the
#      cl_surface table) schema- and coverage-checked by plot_results.py
#      (an Implemented CL entry point with no covering test fails tier1),
#      then the mclsan --all static gate (fails on new diagnostics; the
#      KernelFacts JSON it emits is schema-checked by plot_results.py),
#      a fixed-seed 60-second mclcheck differential smoke and a scan
#      rejecting unminimized committed .mclrepro files,
#      and a fixed-seed serve_load closed-loop smoke whose BENCH_serve.json
#      output is schema-checked by plot_results.py (lost/hung tickets fail
#      the harness itself; a malformed trajectory fails the check),
#      plus a fixed-seed serve_load --obs smoke asserting the mclobs
#      critical-path decomposition covers >= 95% of measured latency and
#      that mclstat renders the report and the `.mclobs` snapshot,
#      plus a fixed-seed ablation_tuning smoke whose BENCH_tune.json output
#      is schema-checked (tuned >= paper-default within noise, bounded
#      online convergence),
#      plus the benchmark self-test (perfbench/selftest.py: every mclperf
#      workload must pass clean and catch one deliberately corrupted
#      output);
#   2. ASan+UBSan build (-DMCL_SANITIZE=address,undefined) + full ctest suite;
#   3. TSan build (-DMCL_SANITIZE=thread) running the `threading` + `queue` +
#      `trace` + `prof` + `serve` + `tune` + `subdev` labels — the
#      thread-pool wakeup, event-graph executor, trace-ring, metrics-shard,
#      multi-tenant serve, tuner decide/report/cache, and sub-device
#      sharding tests (concurrent shard launches from multiple host threads
#      over disjoint worker spans). Only those labels: TSan cannot track
#      ucontext fiber stacks, so the fiber suites are excluded via the
#      label selection.
#
# Usage: tools/tier1.sh [jobs]    (jobs defaults to nproc)
set -euo pipefail
cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

echo "== tier1: plain build =="
cmake -B build -S .
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure
ctest --test-dir build --output-on-failure -L trace
ctest --test-dir build --output-on-failure -L prof
ctest --test-dir build --output-on-failure -L verify
ctest --test-dir build --output-on-failure -L serve
ctest --test-dir build --output-on-failure -L tune
ctest --test-dir build --output-on-failure -L obs
ctest --test-dir build --output-on-failure -L conform

echo "== tier1: mclconform CL-surface coverage gate =="
# The report is generated from the cl_surface table compiled into the shim,
# so it cannot drift from the code; the --check pass fails if an Implemented
# entry point names no covering test (or names one that is not a real ctest
# target).
./build/tools/mclconform --json build/conformance.json
tools/plot_results.py --check build/conformance.json

echo "== tier1: mclsan --all static gate + KernelFacts schema check =="
# Exit 1 = a kernel outside the known-positive set gained an error-severity
# diagnostic; the facts file is the auto-tuner's input, so its schema is
# pinned by plot_results.py --check.
./build/tools/mclsan --all --facts build/kernel_facts.json
tools/plot_results.py --check build/kernel_facts.json

echo "== tier1: mclcheck differential smoke (fixed seed, 60 s budget) =="
# Fixed-seed so the gate is reproducible; the clock-seeded long run is the
# nightly `ctest -C nightly -L fuzz` job. Repro files go to the build tree.
./build/tools/mclcheck --cases 2000 --seed 1 --budget-seconds 60 \
  --repro-dir build
# Any repro file that does land in the source tree must be minimized.
find . -path ./build -prune -o -path ./build-asan -prune -o \
  -path ./build-tsan -prune -o -name '*.mclrepro' -print0 |
  while IFS= read -r -d '' repro; do
    tools/plot_results.py --check "$repro"
  done

echo "== tier1: serve_load closed-loop smoke (fixed seed) =="
# The harness exits nonzero on any lost or hung ticket; the emitted
# trajectory document is then schema-checked (monotonic timeline, ordered
# percentiles, per-tenant request conservation). The committed
# BENCH_serve.json perf-trajectory file comes from the full 1M-request run.
./build/bench/serve_load --quick --tenants 8 --seed 1 \
  --json build/BENCH_serve_smoke.json
tools/plot_results.py --check build/BENCH_serve_smoke.json

echo "== tier1: mclobs critical-path smoke (fixed seed) =="
# serve_load --obs records exact per-request critical paths and exits
# nonzero unless every tenant's p99 decomposition covers >= 95% of the
# measured end-to-end latency; the emitted report and `.mclobs` snapshot are
# then schema-checked, and mclstat must render both (triage-tool smoke).
./build/bench/serve_load --quick --tenants 8 --seed 1 --obs \
  --json build/BENCH_serve_obs_smoke.json \
  --obs-dump build/serve_smoke.mclobs
tools/plot_results.py --check build/BENCH_serve_obs_smoke.json
tools/plot_results.py --check build/serve_smoke.mclobs
./build/tools/mclstat build/BENCH_serve_obs_smoke.json > /dev/null
./build/tools/mclstat build/serve_smoke.mclobs > /dev/null

echo "== tier1: mcltune ablation smoke (fixed seed) =="
# Fixed-seed quick run of the tuning ablation: the emitted document is
# schema-checked (tuned arms no worse than paper-default within noise,
# online convergence within the launch budget). The committed
# BENCH_tune.json perf-trajectory file comes from the default-size run.
./build/bench/ablation_tuning --quick --seed 42 \
  --json build/BENCH_tune_smoke.json
tools/plot_results.py --check build/BENCH_tune_smoke.json

echo "== tier1: benchmark output-check self-test =="
# Builds mclperf from this checkout (into .bench_build) and fails if a
# runtime change stops launch-storm, paper-suite or serve-mix from catching
# a corrupted output.
python3 perfbench/selftest.py

echo "== tier1: ASan+UBSan build =="
cmake -B build-asan -S . -DMCL_SANITIZE=address,undefined
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure

echo "== tier1: TSan build (threading + queue + trace + prof + serve + tune + obs + subdev labels) =="
cmake -B build-tsan -S . -DMCL_SANITIZE=thread
cmake --build build-tsan -j "$jobs" --target threading_test queue_async_test trace_test prof_test serve_test tune_test obs_test subdevice_test
ctest --test-dir build-tsan --output-on-failure -L "threading|queue|trace|prof|serve|tune|obs|subdev"

echo "== tier1: all checks passed =="
