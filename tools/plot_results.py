#!/usr/bin/env python3
"""Render bench results (the --json=<path> JSONL output) as quick charts.

Usage:
    for b in build/bench/fig*; do $b --json results.jsonl; done
    tools/plot_results.py results.jsonl            # ASCII bars to stdout
    tools/plot_results.py results.jsonl --png out/ # PNGs via matplotlib
    tools/plot_results.py results.jsonl --check    # validate only; exit 1 on
                                                   # missing/malformed input

--check also understands mcltrace Chrome-trace exports (the --trace=<path>
output): a file whose first non-blank character is "{" is treated as a trace
object and validated structurally — well-formed JSON, a "traceEvents" list,
non-decreasing per-thread timestamps, balanced B/E pairs per (pid, tid), and
non-negative durations on X events. A nonzero otherData.dropped_events only
warns (the trace is truncated, not malformed).

--check likewise understands mclprof profile documents (the --profile=<path>
/ MCL_PROF=<path> output, a single object with an "mclprof" version key):
the perf availability block must be present and typed, every kernel entry's
counters must be non-negative, IPC must sit in sane bounds (0..16), and a
profile claiming hardware=false must not fabricate cycle counts.

--check also understands mclverify KernelFacts documents (the
`mclsan --all --facts <path>` output, a single object with an "mclverify"
version key): every kernel entry's analysis results must be well-typed —
pattern/reuse classes drawn from the closed enum sets, per-array flags
consistent with the access counts, and lint indices within the statement
range. The facts file is the auto-tuner's input contract, so tier-1 pins its
schema here.

--check also understands mclcheck repro files (*.mclrepro, or any file whose
first non-comment line is "mclcheck-repro v1"): the file must be structurally
complete and carry "minimized 1" — committing raw unminimized fuzzer output
is an error; shrink it with tools/mclcheck first.

--check also understands mclobs flight-recorder dumps (`.mclobs` files, a
single object with an "mclobs" version key): the trigger must carry a known
anomaly kind and an integer context id, every recorded event must be fully
typed (ts/ctx/tenant/kind/status/args), related_events must match the
trigger context, and serve_load --obs reports must carry a critical_path
section whose p99 segments cover >= 95% of the measured latency.

--check also understands mclserve load-harness documents (the
bench/serve_load output, a single object with an "mclserve" version key,
committed as BENCH_serve.json): the throughput timeline must carry
monotonically non-decreasing timestamps and completion counts, latency
percentiles must be ordered (p50 <= p99 <= p999, globally and per tenant),
and every tenant's requests must be conserved (submitted == completed +
failed + cancelled + timed_out, with nothing left outstanding).

--check also understands mcltune ablation documents (the
bench/ablation_tuning output, a single object with an "mcltune" version
key, committed as BENCH_tune.json): every workload must carry positive
times for all four arms, the tuned arms must be no worse than the
paper-default baseline within noise tolerance, and online tuning must
converge within the launch budget — matching best-manual within noise —
on at least three workloads. This pins the self-tuner's acceptance
criteria in the tier-1 gate.

--check also understands mclconform conformance reports (the
tools/mclconform --json output, a single object with an "mcl-conformance"
version key): entries must be sorted by unique clXxx name with statuses from
the closed implemented/stubbed/unsupported set, listed tests must be known
ctest targets, the summary counts must match the entries — and every
Implemented entry point must name at least one covering conformance or
matrix test. This is the tier-1 coverage gate for the CL shim: growing
include/CL/cl.h without growing the test surface fails the check.

Results JSONL files may carry {"meta": {...}} provenance lines (written by
the bench --csv/--json header block); they are validated for shape and
skipped by the renderers.

Without matplotlib installed, the ASCII renderer still works — every table
becomes horizontal bars of its first numeric column group.
"""
import argparse
import json
import os
import sys


def load_tables(path):
    tables = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if isinstance(doc, dict) and "meta" in doc:
                continue  # provenance line, not a table
            tables.append(doc)
    return tables


def check_tables(path):
    """Validates a results file; returns a list of error strings (empty = ok).

    Checks existence, JSONL parse, and per-table shape: a "title" string, a
    non-empty "columns" list of strings, and "rows" whose entries are lists
    no wider than the columns.
    """
    errors = []
    if not os.path.exists(path):
        return [f"{path}: no such file"]
    docs = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    docs.append(json.loads(line))
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    tables = []
    for i, doc in enumerate(docs):
        if isinstance(doc, dict) and "meta" in doc:
            if not isinstance(doc["meta"], dict):
                errors.append(f"{path}: line {i}: 'meta' must be an object")
            continue
        tables.append(doc)
    if not tables:
        return errors + [f"{path}: no tables (empty results file)"]
    for i, table in enumerate(tables):
        where = f"{path}: table {i}"
        if not isinstance(table, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        title = table.get("title")
        if not isinstance(title, str) or not title:
            errors.append(f"{where}: missing or empty 'title'")
        else:
            where = f"{path}: table {i} ({title!r})"
        columns = table.get("columns")
        if not isinstance(columns, list) or not columns or not all(
            isinstance(c, str) for c in columns
        ):
            errors.append(f"{where}: 'columns' must be a non-empty list of strings")
            continue
        rows = table.get("rows")
        if not isinstance(rows, list):
            errors.append(f"{where}: 'rows' must be a list")
            continue
        for r, row in enumerate(rows):
            if not isinstance(row, list):
                errors.append(f"{where}: row {r} is not a list")
            elif len(row) > len(columns):
                errors.append(
                    f"{where}: row {r} has {len(row)} cells "
                    f"but only {len(columns)} columns"
                )
    return errors


def is_repro_file(path):
    """mclcheck repro files self-identify with a version header line."""
    if path.endswith(".mclrepro"):
        return True
    try:
        with open(path) as f:
            for line in f:
                stripped = line.strip()
                if stripped:
                    return stripped.startswith("mclcheck-repro v")
    except (OSError, UnicodeDecodeError):
        pass
    return False


def check_repro(path):
    """Validates one mclcheck .mclrepro file; returns error strings.

    A committed repro must be structurally complete (header, geometry, at
    least one array, an end marker) and MINIMIZED ("minimized 1"): raw
    fuzzer output is fine in a bug report, but the repo only carries shrunk
    cases a human can read. Replay semantics are re-checked by
    tools/mclcheck --replay; this pass only gates what gets committed.
    """
    errors = []
    if not os.path.exists(path):
        return [f"{path}: no such file"]
    try:
        with open(path) as f:
            lines = [ln.strip() for ln in f]
    except (OSError, UnicodeDecodeError) as e:
        return [f"{path}: {e}"]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body or not body[0].startswith("mclcheck-repro v1"):
        errors.append(f"{path}: missing 'mclcheck-repro v1' header")
        return errors
    keys = {ln.split()[0] for ln in body}
    for required in ("seed", "minimized", "type", "geometry", "array", "end"):
        if required not in keys:
            errors.append(f"{path}: missing '{required}' line")
    minimized = [ln for ln in body if ln.startswith("minimized")]
    if minimized and minimized[0].split()[1:] != ["1"]:
        errors.append(
            f"{path}: unminimized repro (minimized != 1) — shrink it with "
            "tools/mclcheck before committing"
        )
    if body[-1] != "end":
        errors.append(f"{path}: content after the 'end' marker")
    return errors


def is_trace_file(path):
    """A Chrome-trace export is one JSON object; results files are JSONL whose
    first line is a complete object on its own. Peek at the first non-blank
    character: mcltrace writes the object pretty-printed, so "{" opens it."""
    try:
        with open(path) as f:
            for line in f:
                stripped = line.strip()
                if stripped:
                    return stripped == "{" or (
                        stripped.startswith("{") and "traceEvents" in stripped
                    )
    except OSError:
        pass
    return False


def is_profile_file(path):
    """An mclprof document is one JSON object whose first key is the
    "mclprof" version marker (written by --profile=<path> / MCL_PROF)."""
    try:
        with open(path) as f:
            for line in f:
                stripped = line.strip()
                if stripped:
                    return stripped.startswith("{") and '"mclprof"' in stripped
    except OSError:
        pass
    return False


# Counter fields every kernel entry must carry, all non-negative.
PROFILE_COUNTERS = (
    "launches",
    "groups",
    "items",
    "simd_items",
    "est_bytes",
    "cycles",
    "instructions",
    "cache_references",
    "cache_misses",
    "branches",
    "branch_misses",
)

# An IPC outside (0, 16] means the counter group misread (modern x86 retires
# at most ~8 uops/cycle; 16 leaves slack for SMT aggregation).
PROFILE_MAX_IPC = 16.0


def check_profile(path):
    """Validates an mclprof profile JSON; returns error strings.

    Checks: parseable object, "mclprof" version 1, a typed "perf"
    availability block, kernel entries with non-negative counters, seconds
    >= 0, IPC within sane bounds, SIMD items <= items, and no fabricated
    cycle counts when hardware counters were unavailable.
    """
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    if not isinstance(doc, dict):
        return [f"{path}: profile root is not a JSON object"]
    if doc.get("mclprof") != 1:
        errors.append(f"{path}: 'mclprof' version marker is not 1")
    perf = doc.get("perf")
    if not isinstance(perf, dict):
        errors.append(f"{path}: missing 'perf' availability object")
        perf = {}
    else:
        if not isinstance(perf.get("usable"), bool):
            errors.append(f"{path}: perf.usable must be a boolean")
        if not isinstance(perf.get("paranoid"), int):
            errors.append(f"{path}: perf.paranoid must be an integer")
        if not isinstance(perf.get("detail"), str) or not perf.get("detail"):
            errors.append(
                f"{path}: perf.detail must explain availability "
                f"(degradation is reported, never silent)"
            )
    kernels = doc.get("kernels")
    if not isinstance(kernels, list):
        errors.append(f"{path}: missing 'kernels' list")
        kernels = []
    for i, k in enumerate(kernels):
        where = f"{path}: kernels[{i}]"
        if not isinstance(k, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        name = k.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing kernel 'name'")
        else:
            where = f"{path}: kernel {name!r}"
        for field in PROFILE_COUNTERS:
            v = k.get(field)
            if not isinstance(v, int) or v < 0:
                errors.append(f"{where}: '{field}' must be a non-negative int")
        seconds = k.get("seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            errors.append(f"{where}: 'seconds' must be >= 0")
        ipc = k.get("ipc")
        if not isinstance(ipc, (int, float)) or not (
            0 <= ipc <= PROFILE_MAX_IPC
        ):
            errors.append(
                f"{where}: 'ipc' {ipc!r} outside sane bounds "
                f"[0, {PROFILE_MAX_IPC}]"
            )
        items = k.get("items", 0)
        simd_items = k.get("simd_items", 0)
        if (
            isinstance(items, int)
            and isinstance(simd_items, int)
            and simd_items > items
        ):
            errors.append(f"{where}: simd_items {simd_items} > items {items}")
        hardware = k.get("hardware")
        if not isinstance(hardware, bool):
            errors.append(f"{where}: 'hardware' must be a boolean")
        elif not hardware and k.get("cycles", 0) != 0:
            errors.append(
                f"{where}: hardware=false but cycles nonzero "
                f"(software fallback must not fabricate counts)"
            )
    if not isinstance(doc.get("metrics"), dict):
        errors.append(f"{path}: missing 'metrics' registry object")
    if not errors:
        n_hw = sum(1 for k in kernels if isinstance(k, dict) and k.get("hardware"))
        print(
            f"{path}: ok (profile, {len(kernels)} kernels, "
            f"{n_hw} with hardware counters, perf usable={perf.get('usable')})"
        )
    return errors


def is_serve_file(path):
    """An mclserve load-harness document is one pretty-printed JSON object
    whose "mclserve" version marker sits on the first or second line. Must
    be sniffed before the trace check (same reason as facts files)."""
    try:
        with open(path) as f:
            seen = 0
            for line in f:
                stripped = line.strip()
                if not stripped:
                    continue
                if '"mclserve"' in stripped:
                    return True
                seen += 1
                if seen >= 2:
                    return False
    except OSError:
        pass
    return False


# Per-tenant counter fields every tenant_stats entry must carry.
SERVE_TENANT_COUNTERS = (
    "submitted",
    "completed",
    "failed",
    "rejected",
    "cancelled",
    "timed_out",
    "batched",
    "forwarded",
    "cache_hits",
    "cache_misses",
)


def check_serve(path):
    """Validates a bench/serve_load BENCH_serve.json; returns error strings.

    Checks: parseable object, "mclserve" version 1, positive request and
    tenant counts, a timeline with monotonically non-decreasing timestamps
    and completion counts, ordered latency percentiles (p50 <= p99 <= p999)
    at the top level and per tenant, and per-tenant request conservation
    (submitted == completed + failed + cancelled + timed_out) — a leak here
    means the server lost or hung a ticket.
    """
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    if not isinstance(doc, dict):
        return [f"{path}: serve bench root is not a JSON object"]
    if doc.get("mclserve") != 1:
        errors.append(f"{path}: 'mclserve' version marker is not 1")
    for field in ("requests", "tenants", "completed"):
        v = doc.get(field)
        if not isinstance(v, int) or v < 0:
            errors.append(f"{path}: '{field}' must be a non-negative int")
    if isinstance(doc.get("tenants"), int) and doc["tenants"] < 1:
        errors.append(f"{path}: 'tenants' must be >= 1")
    duration = doc.get("duration_s")
    if not isinstance(duration, (int, float)) or duration <= 0:
        errors.append(f"{path}: 'duration_s' must be > 0")

    def ordered(where, obj, keys):
        values = []
        for k in keys:
            v = obj.get(k)
            if not isinstance(v, int) or v < 0:
                errors.append(f"{where}: '{k}' must be a non-negative int")
                return
            values.append(v)
        if not (values[0] <= values[1] <= values[2]):
            errors.append(
                f"{where}: percentiles out of order "
                f"({keys[0]}={values[0]}, {keys[1]}={values[1]}, "
                f"{keys[2]}={values[2]})"
            )

    latency = doc.get("latency_ns")
    if not isinstance(latency, dict):
        errors.append(f"{path}: missing 'latency_ns' object")
    else:
        ordered(f"{path}: latency_ns", latency, ("p50", "p99", "p999"))

    timeline = doc.get("timeline")
    if not isinstance(timeline, list) or not timeline:
        errors.append(f"{path}: missing or empty 'timeline' list")
        timeline = []
    last_t, last_done = None, None
    for i, point in enumerate(timeline):
        where = f"{path}: timeline[{i}]"
        if not isinstance(point, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        t = point.get("t_s")
        done = point.get("completed")
        if not isinstance(t, (int, float)) or t < 0:
            errors.append(f"{where}: 't_s' must be a non-negative number")
            continue
        if not isinstance(done, int) or done < 0:
            errors.append(f"{where}: 'completed' must be a non-negative int")
            continue
        if last_t is not None and t < last_t:
            errors.append(f"{where}: t_s {t} goes backwards (previous {last_t})")
        if last_done is not None and done < last_done:
            errors.append(
                f"{where}: completed {done} went backwards (previous {last_done})"
            )
        last_t, last_done = t, done

    tenants = doc.get("tenant_stats")
    if not isinstance(tenants, list) or not tenants:
        errors.append(f"{path}: missing or empty 'tenant_stats' list")
        tenants = []
    for i, ts in enumerate(tenants):
        where = f"{path}: tenant_stats[{i}]"
        if not isinstance(ts, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        name = ts.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing tenant 'name'")
        else:
            where = f"{path}: tenant {name!r}"
        bad = False
        for field in SERVE_TENANT_COUNTERS:
            v = ts.get(field)
            if not isinstance(v, int) or v < 0:
                errors.append(f"{where}: '{field}' must be a non-negative int")
                bad = True
        if not bad:
            retired = (
                ts["completed"] + ts["failed"] + ts["cancelled"] + ts["timed_out"]
            )
            if retired != ts["submitted"]:
                errors.append(
                    f"{where}: request leak — submitted {ts['submitted']} but "
                    f"only {retired} retired (lost or hung tickets)"
                )
        ordered(where, ts, ("p50_ns", "p99_ns", "p999_ns"))
        # Admission-wait vs service split (mclobs): recorded separately so
        # queueing delay is visible apart from execution time.
        for prefix in ("admission", "service"):
            lo = ts.get(f"{prefix}_p50_ns")
            hi = ts.get(f"{prefix}_p99_ns")
            if not isinstance(lo, int) or lo < 0 or not isinstance(hi, int) or hi < 0:
                errors.append(
                    f"{where}: '{prefix}_p50_ns'/'{prefix}_p99_ns' must be "
                    "non-negative ints"
                )
            elif lo > hi:
                errors.append(
                    f"{where}: {prefix} percentiles out of order ({lo} > {hi})"
                )

    if not isinstance(doc.get("server"), dict):
        errors.append(f"{path}: missing 'server' stats object")

    # serve_load --obs: exact per-request critical paths. The named segments
    # of the p99 request must cover >= 95% of its measured latency — the
    # decomposition acceptance check, re-verified on the committed artifact.
    paths = doc.get("critical_path")
    if doc.get("obs") == 1 and not isinstance(paths, list):
        errors.append(f"{path}: obs run without a 'critical_path' list")
    if isinstance(paths, list):
        for i, cp in enumerate(paths):
            where = f"{path}: critical_path[{i}]"
            if not isinstance(cp, dict):
                errors.append(f"{where}: not a JSON object")
                continue
            if isinstance(cp.get("name"), str):
                where = f"{path}: critical_path {cp['name']!r}"
            p99 = cp.get("p99_request")
            if not isinstance(p99, dict):
                errors.append(f"{where}: missing 'p99_request' object")
                continue
            segs = []
            bad = False
            for field in ("admission_ns", "dependency_ns", "queue_ns", "exec_ns",
                          "total_ns"):
                v = p99.get(field)
                if not isinstance(v, int) or v < 0:
                    errors.append(f"{where}: '{field}' must be a non-negative int")
                    bad = True
                segs.append(v if isinstance(v, int) else 0)
            if bad:
                continue
            named, total = sum(segs[:4]), segs[4]
            if named > total:
                errors.append(
                    f"{where}: segments sum to {named} > total {total}"
                )
            if total > 0 and named < 0.95 * total:
                errors.append(
                    f"{where}: p99 segments cover only "
                    f"{100.0 * named / total:.1f}% of measured latency (< 95%)"
                )
    if not errors:
        print(
            f"{path}: ok (serve bench, {doc.get('requests')} requests, "
            f"{doc.get('tenants')} tenants, "
            f"{len(timeline)} timeline points)"
        )
    return errors


def is_obs_file(path):
    """An mclobs flight-recorder dump is one JSON object whose "mclobs"
    version marker sits on the first or second line (the writer emits it
    first). Sniffed before the trace check like the other marker formats."""
    try:
        with open(path) as f:
            seen = 0
            for line in f:
                stripped = line.strip()
                if not stripped:
                    continue
                if '"mclobs"' in stripped:
                    return True
                seen += 1
                if seen >= 2:
                    return False
    except OSError:
        pass
    return False


OBS_EVENT_KINDS = frozenset(
    (
        "submit",
        "forward",
        "complete",
        "timeout",
        "cancel",
        "error",
        "quarantine",
        "drop_burst",
        "inject",
        "mark",
    )
)


def check_obs(path):
    """Validates a `.mclobs` flight-recorder dump; returns error strings.

    Checks: parseable object, "mclobs" version 1, a typed trigger (known
    kind, integer ctx/ts), a list of events each carrying ts_ns/ctx/tenant/
    kind/status/args[6], related_events filtered to the trigger context, and
    metrics/sections objects. Event timestamps are stamped before the
    recorder lock, so cross-thread order may wobble slightly — only gross
    (> 100 ms) inversions are flagged as corruption.
    """
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    if not isinstance(doc, dict):
        return [f"{path}: mclobs root is not a JSON object"]
    if doc.get("mclobs") != 1:
        errors.append(f"{path}: 'mclobs' version marker is not 1")

    trigger = doc.get("trigger")
    if not isinstance(trigger, dict):
        errors.append(f"{path}: missing 'trigger' object")
        trigger = {}
    kind = trigger.get("kind")
    if kind not in OBS_EVENT_KINDS:
        errors.append(f"{path}: trigger kind {kind!r} is not a known kind")
    trigger_ctx = trigger.get("ctx")
    if not isinstance(trigger_ctx, int) or trigger_ctx < 0:
        errors.append(f"{path}: trigger 'ctx' must be a non-negative int")
        trigger_ctx = 0
    if not isinstance(trigger.get("ts_ns"), int):
        errors.append(f"{path}: trigger 'ts_ns' must be an int")

    total = doc.get("total_recorded")
    if not isinstance(total, int) or total < 0:
        errors.append(f"{path}: 'total_recorded' must be a non-negative int")

    def check_event(where, ev):
        if not isinstance(ev, dict):
            errors.append(f"{where}: not a JSON object")
            return None
        for field in ("ts_ns", "ctx", "tenant"):
            v = ev.get(field)
            if not isinstance(v, int) or v < 0:
                errors.append(f"{where}: '{field}' must be a non-negative int")
                return None
        if ev.get("kind") not in OBS_EVENT_KINDS:
            errors.append(f"{where}: unknown kind {ev.get('kind')!r}")
        if not isinstance(ev.get("status"), str):
            errors.append(f"{where}: 'status' must be a string")
        args = ev.get("args")
        if not isinstance(args, list) or len(args) != 6 or not all(
            isinstance(a, int) and a >= 0 for a in args
        ):
            errors.append(f"{where}: 'args' must be 6 non-negative ints")
        return ev

    events = doc.get("events")
    if not isinstance(events, list):
        errors.append(f"{path}: missing 'events' list")
        events = []
    high_water = None
    for i, ev in enumerate(events):
        ev = check_event(f"{path}: events[{i}]", ev)
        if ev is None:
            continue
        ts = ev["ts_ns"]
        if high_water is not None and ts + 100_000_000 < high_water:
            errors.append(
                f"{path}: events[{i}]: ts_ns {ts} is >100ms before an "
                f"earlier event ({high_water}) — ring corruption"
            )
        high_water = ts if high_water is None else max(high_water, ts)
    if isinstance(total, int) and total < len(events):
        errors.append(
            f"{path}: total_recorded {total} < {len(events)} events in window"
        )

    related = doc.get("related_events")
    if not isinstance(related, list):
        errors.append(f"{path}: missing 'related_events' list")
        related = []
    for i, ev in enumerate(related):
        ev = check_event(f"{path}: related_events[{i}]", ev)
        if ev is not None and trigger_ctx and ev["ctx"] != trigger_ctx:
            errors.append(
                f"{path}: related_events[{i}]: ctx {ev['ctx']} does not match "
                f"trigger ctx {trigger_ctx}"
            )

    if not isinstance(doc.get("metrics"), dict):
        errors.append(f"{path}: missing 'metrics' object")
    if not isinstance(doc.get("sections"), dict):
        errors.append(f"{path}: missing 'sections' object")

    if not errors:
        print(
            f"{path}: ok (mclobs dump, trigger {kind!r}, "
            f"{len(events)} events in window, {total} recorded)"
        )
    return errors


def is_conform_file(path):
    """An mclconform coverage report is one pretty-printed JSON object whose
    "mcl-conformance" version marker sits on the first or second line. Must
    be sniffed before the trace check (same reason as serve/facts files)."""
    try:
        with open(path) as f:
            seen = 0
            for line in f:
                stripped = line.strip()
                if not stripped:
                    continue
                if '"mcl-conformance"' in stripped:
                    return True
                seen += 1
                if seen >= 2:
                    return False
    except OSError:
        pass
    return False


# Statuses the conformance schema draws from (src/ocl/cl_surface.hpp).
CONFORM_STATUSES = ("implemented", "stubbed", "unsupported")

# The ctest targets allowed to appear as covering tests. Pinned here so a
# typo'd (or renamed-without-updating-the-table) test name in
# src/ocl/cl_surface.cpp fails tier1 instead of silently counting as
# coverage for an entry point nothing actually exercises.
CONFORM_KNOWN_TESTS = (
    "cl_errors_test",
    "cl_shim_test",
    "subdevice_test",
    "conformance_hello_opencl",
    "conformance_parallel_min",
    "trace_test",
    "tune_test",
)


def check_conform(path):
    """Validates a tools/mclconform conformance.json; returns errors.

    Checks: parseable object, "mcl-conformance" version 1, a summary block
    whose counts match the entries list, entries sorted by unique name with
    statuses from the closed set, every listed test drawn from the known
    ctest-target set — and the coverage gate itself: every Implemented entry
    point must name at least one covering conformance or matrix test, and
    Unsupported entries must not claim coverage.
    """
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    if not isinstance(doc, dict):
        return [f"{path}: conformance root is not a JSON object"]
    if doc.get("mcl-conformance") != 1:
        errors.append(f"{path}: 'mcl-conformance' version marker is not 1")

    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        return errors + [f"{path}: 'entries' must be a non-empty list"]

    counts = {s: 0 for s in CONFORM_STATUSES}
    uncovered = []
    names = []
    for i, e in enumerate(entries):
        where = f"{path}: entry {i}"
        if not isinstance(e, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        name = e.get("name")
        if not isinstance(name, str) or not name.startswith("cl"):
            errors.append(f"{where}: 'name' must be a clXxx entry-point name")
            name = ""
        names.append(name)
        status = e.get("status")
        if status not in CONFORM_STATUSES:
            errors.append(f"{where} ({name}): unknown status {status!r}")
            continue
        counts[status] += 1
        tests = e.get("tests")
        if not isinstance(tests, list) or not all(
            isinstance(t, str) for t in tests
        ):
            errors.append(f"{where} ({name}): 'tests' must be a string list")
            continue
        for t in tests:
            if t not in CONFORM_KNOWN_TESTS:
                errors.append(
                    f"{where} ({name}): '{t}' is not a known ctest target"
                )
        if status == "implemented" and not tests:
            uncovered.append(name)
        if status == "unsupported" and tests:
            errors.append(
                f"{where} ({name}): Unsupported entries must not list tests"
            )
        if not isinstance(e.get("note"), str) or not e.get("note"):
            errors.append(f"{where} ({name}): missing doc 'note'")

    if names != sorted(names) or len(set(names)) != len(names):
        errors.append(f"{path}: entries must be sorted by unique name")

    for name in uncovered:
        errors.append(
            f"{path}: {name}: Implemented entry point has no covering "
            f"conformance or matrix test (the tier1 coverage gate)"
        )

    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append(f"{path}: missing 'summary' object")
    else:
        want = {
            "entry_points": len(entries),
            "implemented": counts["implemented"],
            "stubbed": counts["stubbed"],
            "unsupported": counts["unsupported"],
            "uncovered": len(uncovered),
        }
        for key, val in want.items():
            if summary.get(key) != val:
                errors.append(
                    f"{path}: summary.{key} is {summary.get(key)!r}, "
                    f"expected {val}"
                )

    if not errors:
        print(
            f"{path}: ok (CL conformance surface, "
            f"{counts['implemented']} implemented / "
            f"{counts['stubbed']} stubbed / "
            f"{counts['unsupported']} unsupported, all covered)"
        )
    return errors


def is_tune_file(path):
    """An mcltune ablation document is one pretty-printed JSON object whose
    "mcltune" version marker sits on the first or second line. Must be
    sniffed before the trace check (same reason as serve/facts files)."""
    try:
        with open(path) as f:
            seen = 0
            for line in f:
                stripped = line.strip()
                if not stripped:
                    continue
                if '"mcltune"' in stripped:
                    return True
                seen += 1
                if seen >= 2:
                    return False
    except OSError:
        pass
    return False


# Per-workload timing fields every ablation_tuning entry must carry.
TUNE_ARM_FIELDS = (
    "paper_default_ms",
    "best_manual_ms",
    "tuned_seed_ms",
    "tuned_online_ms",
)

# Noise tolerance for "no worse than" assertions: quick-mode smoke runs use
# very short measurement windows, so the band is wider there.
TUNE_TOLERANCE_FULL = 1.25
TUNE_TOLERANCE_QUICK = 1.6
# The cost-model-only arm takes zero measurements; it may miss by more than
# timer noise, but a 2x regression would mean the model is actively harmful.
TUNE_SEED_TOLERANCE = 2.0
# Online tuning must converge and match best-manual on at least this many
# workloads (the ISSUE 8 acceptance criterion).
TUNE_MIN_CONVERGED_WORKLOADS = 3


def check_tune(path):
    """Validates a bench/ablation_tuning BENCH_tune.json; returns errors.

    Checks: parseable object, "mcltune" version 1, provenance meta (host,
    thread count, seed, repeats), non-empty workloads each carrying positive
    times for all four arms, tuned-online no worse than paper-default within
    noise tolerance on EVERY workload (the self-tuner must never regress the
    out-of-the-box configuration), the measurement-free seed arm within its
    looser band, and >= 3 workloads where online tuning both converged
    within the launch budget and matched the best manual configuration
    within noise.
    """
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    if not isinstance(doc, dict):
        return [f"{path}: tune bench root is not a JSON object"]
    if doc.get("mcltune") != 1:
        errors.append(f"{path}: 'mcltune' version marker is not 1")

    meta = doc.get("meta")
    if not isinstance(meta, dict):
        errors.append(f"{path}: missing 'meta' provenance object")
        meta = {}
    else:
        if not isinstance(meta.get("host"), str) or not meta.get("host"):
            errors.append(f"{path}: meta.host must name the machine")
        for field in ("logical_cpus", "threads", "repeats"):
            v = meta.get(field)
            if not isinstance(v, int) or v < 1:
                errors.append(f"{path}: meta.{field} must be a positive int")
        if not isinstance(meta.get("seed"), int):
            errors.append(f"{path}: meta.seed must be an int")
        if not isinstance(meta.get("quick"), bool):
            errors.append(f"{path}: meta.quick must be a boolean")
    quick = meta.get("quick") is True
    tol = TUNE_TOLERANCE_QUICK if quick else TUNE_TOLERANCE_FULL
    repeats = meta.get("repeats") if isinstance(meta.get("repeats"), int) else 50

    workloads = doc.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        errors.append(f"{path}: missing or empty 'workloads' list")
        workloads = []
    n_converged_and_matching = 0
    for i, w in enumerate(workloads):
        where = f"{path}: workloads[{i}]"
        if not isinstance(w, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        name = w.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing workload 'name'")
        else:
            where = f"{path}: workload {name!r}"
        bad = False
        for field in TUNE_ARM_FIELDS:
            v = w.get(field)
            if not isinstance(v, (int, float)) or v <= 0:
                errors.append(f"{where}: '{field}' must be a positive number")
                bad = True
        converged_at = w.get("converged_at")
        if not isinstance(converged_at, int) or converged_at < 0:
            errors.append(f"{where}: 'converged_at' must be a non-negative int")
            bad = True
        if bad:
            continue
        default = w["paper_default_ms"]
        if w["tuned_online_ms"] > default * tol:
            errors.append(
                f"{where}: tuned-online {w['tuned_online_ms']:.4g} ms is worse "
                f"than paper-default {default:.4g} ms beyond the {tol}x noise "
                f"band — the self-tuner regressed the out-of-the-box config"
            )
        if w["tuned_seed_ms"] > default * TUNE_SEED_TOLERANCE:
            errors.append(
                f"{where}: tuned-seed {w['tuned_seed_ms']:.4g} ms is worse "
                f"than paper-default {default:.4g} ms beyond the "
                f"{TUNE_SEED_TOLERANCE}x band — the cost model is harmful"
            )
        if (
            0 < converged_at <= repeats
            and w["tuned_online_ms"] <= w["best_manual_ms"] * tol
        ):
            n_converged_and_matching += 1
    if workloads and n_converged_and_matching < TUNE_MIN_CONVERGED_WORKLOADS:
        errors.append(
            f"{path}: only {n_converged_and_matching} workload(s) converged "
            f"within {repeats} launches AND matched best-manual within the "
            f"{tol}x band (need >= {TUNE_MIN_CONVERGED_WORKLOADS})"
        )
    if not errors:
        print(
            f"{path}: ok (tune bench, {len(workloads)} workloads, "
            f"{n_converged_and_matching} converged+matching, "
            f"tolerance {tol}x{' quick' if quick else ''})"
        )
    return errors


def is_facts_file(path):
    """An mclverify KernelFacts document is one pretty-printed JSON object
    whose "mclverify" version marker sits on the first or second line (the
    opening brace is on its own line). Must be sniffed before the trace
    check, which would otherwise claim any pretty-printed object."""
    try:
        with open(path) as f:
            seen = 0
            for line in f:
                stripped = line.strip()
                if not stripped:
                    continue
                if '"mclverify"' in stripped:
                    return True
                seen += 1
                if seen >= 2:
                    return False
    except OSError:
        pass
    return False


# Closed enum sets the facts schema draws from (src/verify/facts.hpp).
FACTS_PATTERNS = ("none", "broadcast", "unit-stride", "strided", "gather", "scatter")
FACTS_REUSE = ("none", "spatial", "temporal", "both")

# Per-array fields every facts entry must carry, with their types.
FACTS_ARRAY_BOOLS = ("local", "read", "written", "race_free")
FACTS_ARRAY_INTS = ("array", "arg_index", "extent", "elem_bytes", "stride", "accesses")


def check_facts(path):
    """Validates an mclverify KernelFacts JSON; returns error strings.

    Checks: parseable object, "mclverify" version 1, kernel entries with a
    name, a non-negative fixpoint iteration count, boolean stmt_uniform
    lists, lint indices (dead_stores / redundant_barriers) within the
    statement range, and per-array records whose pattern/reuse classes come
    from the closed enum sets and whose flags agree with the access counts
    (an array with accesses must be read or written; pattern "none" exactly
    when the matching direction is absent).
    """
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    if not isinstance(doc, dict):
        return [f"{path}: facts root is not a JSON object"]
    if doc.get("mclverify") != 1:
        errors.append(f"{path}: 'mclverify' version marker is not 1")
    kernels = doc.get("kernels")
    if not isinstance(kernels, list):
        return errors + [f"{path}: missing 'kernels' list"]
    n_arrays = 0
    for i, k in enumerate(kernels):
        where = f"{path}: kernels[{i}]"
        if not isinstance(k, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        name = k.get("kernel")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing 'kernel' name")
        else:
            where = f"{path}: kernel {name!r}"
        iters = k.get("fixpoint_iterations")
        if not isinstance(iters, int) or iters < 0:
            errors.append(f"{where}: 'fixpoint_iterations' must be a non-negative int")
        if not isinstance(k.get("barrier_divergence_possible"), bool):
            errors.append(f"{where}: 'barrier_divergence_possible' must be a boolean")
        uniform = k.get("stmt_uniform")
        if not isinstance(uniform, list) or not all(
            isinstance(u, bool) for u in uniform
        ):
            errors.append(f"{where}: 'stmt_uniform' must be a list of booleans")
            uniform = []
        for field in ("dead_stores", "redundant_barriers"):
            idxs = k.get(field)
            if not isinstance(idxs, list) or not all(
                isinstance(x, int) for x in idxs
            ):
                errors.append(f"{where}: '{field}' must be a list of ints")
                continue
            for x in idxs:
                if x < 0 or x >= len(uniform):
                    errors.append(
                        f"{where}: '{field}' index {x} outside the statement "
                        f"range [0, {len(uniform)})"
                    )
        arrays = k.get("arrays")
        if not isinstance(arrays, list):
            errors.append(f"{where}: missing 'arrays' list")
            continue
        for j, a in enumerate(arrays):
            aw = f"{where}: arrays[{j}]"
            if not isinstance(a, dict):
                errors.append(f"{aw}: not a JSON object")
                continue
            n_arrays += 1
            for field in FACTS_ARRAY_INTS:
                if not isinstance(a.get(field), int):
                    errors.append(f"{aw}: '{field}' must be an int")
            for field in FACTS_ARRAY_BOOLS:
                if not isinstance(a.get(field), bool):
                    errors.append(f"{aw}: '{field}' must be a boolean")
            for field in ("read_pattern", "write_pattern"):
                if a.get(field) not in FACTS_PATTERNS:
                    errors.append(
                        f"{aw}: '{field}' {a.get(field)!r} not in {FACTS_PATTERNS}"
                    )
            if a.get("reuse") not in FACTS_REUSE:
                errors.append(f"{aw}: 'reuse' {a.get('reuse')!r} not in {FACTS_REUSE}")
            if isinstance(a.get("elem_bytes"), int) and a["elem_bytes"] <= 0:
                errors.append(f"{aw}: 'elem_bytes' must be positive")
            if isinstance(a.get("stride"), int) and a["stride"] < 0:
                errors.append(f"{aw}: 'stride' must be the |scale| magnitude (>= 0)")
            if isinstance(a.get("accesses"), int):
                if a["accesses"] < 0:
                    errors.append(f"{aw}: 'accesses' must be >= 0")
                if a["accesses"] > 0 and not (a.get("read") or a.get("written")):
                    errors.append(f"{aw}: accesses recorded but neither read nor written")
            if a.get("read_pattern") == "none" and a.get("read") is True:
                errors.append(f"{aw}: read=true but read_pattern 'none'")
            if a.get("write_pattern") == "none" and a.get("written") is True:
                errors.append(f"{aw}: written=true but write_pattern 'none'")
    if not errors:
        print(f"{path}: ok (facts, {len(kernels)} kernels, {n_arrays} arrays)")
    return errors


def check_trace(path):
    """Validates an mcltrace Chrome-trace JSON; returns error strings.

    Checks: parseable JSON object, a "traceEvents" list, every event an
    object with string "ph", numeric "ts", balanced B/E per (pid, tid),
    non-negative "dur" on X events, and per-thread non-decreasing ts.
    Reports (not fails) a nonzero otherData.dropped_events count.
    """
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    if not isinstance(doc, dict):
        return [f"{path}: trace root is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: missing 'traceEvents' list"]
    open_stacks = {}  # (pid, tid) -> count of unmatched B events
    last_ts = {}  # (pid, tid) -> last seen ts
    n_spans = 0
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            errors.append(f"{where}: missing 'ph' phase")
            continue
        if ph == "M":  # metadata events carry no timestamp
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{where}: ph {ph!r} without numeric 'ts'")
            continue
        key = (ev.get("pid"), ev.get("tid"))
        # mcltrace drains per-thread SPSC rings in order, so within one
        # thread ts must never go backwards (the shared-epoch guarantee).
        if key in last_ts and ts < last_ts[key]:
            errors.append(
                f"{where}: ts {ts} goes backwards on pid/tid {key} "
                f"(previous {last_ts[key]})"
            )
        last_ts[key] = ts
        if ph == "B":
            open_stacks[key] = open_stacks.get(key, 0) + 1
            n_spans += 1
        elif ph == "E":
            if open_stacks.get(key, 0) <= 0:
                errors.append(f"{where}: 'E' with no matching 'B' on {key}")
            else:
                open_stacks[key] -= 1
        elif ph == "X":
            n_spans += 1
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: 'X' with missing or negative 'dur'")
    for key, depth in sorted(open_stacks.items(), key=str):
        if depth > 0:
            errors.append(
                f"{path}: {depth} unmatched 'B' event(s) on pid/tid {key}"
            )
    dropped = (doc.get("otherData") or {}).get("dropped_events", 0)
    if isinstance(dropped, int) and dropped > 0:
        print(
            f"{path}: warning: {dropped} events were dropped on ring "
            f"overflow; the timeline is truncated",
            file=sys.stderr,
        )
    if not errors:
        print(f"{path}: ok (trace, {len(events)} events, {n_spans} spans)")
    return errors


def numeric_columns(table):
    """Indices of columns whose cells are all numbers (or null)."""
    cols = []
    for c in range(len(table["columns"])):
        values = [row[c] for row in table["rows"] if c < len(row)]
        if values and all(isinstance(v, (int, float)) or v is None for v in values):
            cols.append(c)
    return cols


def ascii_render(table, width=48):
    print(f"\n=== {table['title']} ===")
    num_cols = numeric_columns(table)
    if not num_cols or not table["rows"]:
        print("(no numeric series)")
        return
    # Label = concatenation of the non-numeric leading cells.
    label_cols = [c for c in range(len(table["columns"])) if c not in num_cols]
    for c in num_cols:
        name = table["columns"][c]
        values = [(row[c] if row[c] is not None else 0.0) for row in table["rows"]]
        peak = max((abs(v) for v in values), default=0.0)
        if peak == 0.0:
            continue
        print(f"-- {name}")
        for row, v in zip(table["rows"], values):
            label = " ".join(str(row[i]) for i in label_cols if i < len(row))
            bar = "#" * max(1, int(width * abs(v) / peak)) if v else ""
            print(f"  {label[:38]:38} {bar} {v:g}")


def png_render(tables, out_dir):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    os.makedirs(out_dir, exist_ok=True)
    for i, table in enumerate(tables):
        num_cols = numeric_columns(table)
        if not num_cols or not table["rows"]:
            continue
        label_cols = [c for c in range(len(table["columns"])) if c not in num_cols]
        labels = [
            " ".join(str(row[c]) for c in label_cols if c < len(row))
            for row in table["rows"]
        ]
        fig, ax = plt.subplots(figsize=(10, max(3, 0.4 * len(labels))))
        for c in num_cols:
            values = [row[c] if row[c] is not None else 0.0 for row in table["rows"]]
            ax.barh(
                [f"{l} [{table['columns'][c]}]" for l in labels],
                values,
                label=table["columns"][c],
            )
        ax.set_title(table["title"])
        ax.legend(fontsize=7)
        fig.tight_layout()
        name = f"{i:02d}_" + "".join(
            ch if ch.isalnum() else "_" for ch in table["title"][:40]
        )
        fig.savefig(os.path.join(out_dir, name + ".png"), dpi=120)
        plt.close(fig)
        print(f"wrote {name}.png")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("jsonl", help="JSONL file produced with --json")
    parser.add_argument("--png", metavar="DIR", help="write PNGs instead of ASCII")
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the results file and exit (nonzero on problems)",
    )
    args = parser.parse_args()

    if args.check:
        if is_repro_file(args.jsonl):
            errors = check_repro(args.jsonl)
            if not errors:
                print(f"{args.jsonl}: ok (minimized mclcheck repro)")
        elif is_profile_file(args.jsonl):
            errors = check_profile(args.jsonl)
        elif is_serve_file(args.jsonl):
            errors = check_serve(args.jsonl)
        elif is_obs_file(args.jsonl):
            errors = check_obs(args.jsonl)
        elif is_conform_file(args.jsonl):
            errors = check_conform(args.jsonl)
        elif is_tune_file(args.jsonl):
            errors = check_tune(args.jsonl)
        elif is_facts_file(args.jsonl):
            errors = check_facts(args.jsonl)
        elif is_trace_file(args.jsonl):
            errors = check_trace(args.jsonl)
        else:
            errors = check_tables(args.jsonl)
            if not errors:
                print(f"{args.jsonl}: ok ({len(load_tables(args.jsonl))} tables)")
        for err in errors:
            print(err, file=sys.stderr)
        return 1 if errors else 0

    tables = load_tables(args.jsonl)
    if not tables:
        print("no tables found", file=sys.stderr)
        return 1
    if args.png:
        png_render(tables, args.png)
    else:
        for table in tables:
            ascii_render(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
