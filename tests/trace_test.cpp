// mcltrace tests: ring wraparound + drop accounting, concurrent writers
// draining into one session, the zero-events-when-disabled contract, the
// Chrome JSON / metrics exporters, the T1 drop lint, the clTrace*MCL
// extension calls, and the shared-epoch regression (a kernel's
// Running->Complete profiling window must enclose its per-workgroup trace
// spans).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <CL/cl_ext_mcl.h>

#include "ocl/queue.hpp"
#include "san/lint.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace mcl::trace {
namespace {

// Every test owns the global session: start() resets store, rings, and drop
// counts, so earlier tests cannot leak events into later ones.

TEST(TraceRing, WraparoundCountsDropsInsteadOfBlocking) {
  start(/*drain_interval_ms=*/0);  // no drainer: the ring must wrap
  const std::size_t extra = 100;
  for (std::size_t i = 0; i < kRingCapacity + extra; ++i) {
    instant("wrap", "i", i);
  }
  stop();
  const std::vector<TaggedEvent> events = collect();
  EXPECT_EQ(events.size(), kRingCapacity);
  EXPECT_EQ(dropped_events(), extra);
  // The oldest events survive (producers drop at the full ring's edge, they
  // never overwrite), so the ring holds args 0..capacity-1.
  for (const TaggedEvent& te : events) {
    EXPECT_LT(te.event.args[0], kRingCapacity);
  }
}

TEST(TraceRing, FlushBackpressureDrainsEverythingWithoutDrops) {
  // Two consumers cooperate on the session lock: the 1 ms background
  // drainer and explicit flush() calls every kRingCapacity/4 events. The
  // flushes bound ring occupancy deterministically (no drop can occur no
  // matter how slowly the drainer is scheduled — e.g. under TSan), and the
  // concurrent drainer must neither lose nor duplicate events.
  start(/*drain_interval_ms=*/1);
  for (std::size_t i = 0; i < 4 * kRingCapacity; ++i) {
    if (i % (kRingCapacity / 4) == 0) flush();
    instant("flood");
  }
  stop();
  EXPECT_EQ(collect().size(), 4 * kRingCapacity);
  EXPECT_EQ(dropped_events(), 0u);
}

TEST(TraceRing, ConcurrentWritersDrainIntoOneSession) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 4000;  // < kRingCapacity: zero drops
  start(/*drain_interval_ms=*/10);
  // The latch keeps all four threads alive until everyone has emitted, so
  // each holds a distinct ring (rings recycle only on thread exit).
  std::latch emitted(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&emitted, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        instant("worker", "thread,i", t, i);
      }
      emitted.arrive_and_wait();
    });
  }
  for (std::thread& t : threads) t.join();
  stop();
  const std::vector<TaggedEvent> events = collect();
  EXPECT_EQ(dropped_events(), 0u);
  std::map<std::uint32_t, std::size_t> per_tid;
  for (const TaggedEvent& te : events) ++per_tid[te.tid];
  EXPECT_EQ(per_tid.size(), kThreads);
  for (const auto& [tid, count] : per_tid) EXPECT_EQ(count, kPerThread);
}

TEST(TraceSession, DisabledTracingRecordsNothing) {
  ASSERT_FALSE(enabled());
  MCL_TRACE_SCOPE("disabled.scope");
  MCL_TRACE_INSTANT("disabled.instant");
  MCL_TRACE_COUNTER("disabled.counter", 1.0);
  span_begin("disabled.begin");
  span_end("disabled.begin");
  start(/*drain_interval_ms=*/0);
  instant("only.event");
  stop();
  const std::vector<TaggedEvent> events = collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].event.name, "only.event");
  EXPECT_EQ(dropped_events(), 0u);
}

TEST(TraceSession, RestartClearsStoreAndDrops) {
  start(0);
  for (std::size_t i = 0; i < kRingCapacity + 5; ++i) instant("first");
  stop();
  EXPECT_GT(dropped_events(), 0u);
  start(0);
  instant("second");
  stop();
  const std::vector<TaggedEvent> events = collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].event.name, "second");
  EXPECT_EQ(dropped_events(), 0u);
}

TEST(TraceSession, InternReturnsStableDedupedPointers) {
  const std::string dynamic = std::string("ker") + "nel";
  const char* a = intern(dynamic);
  const char* b = intern("kernel");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "kernel");
}

TEST(TraceExport, ChromeJsonCarriesEventsAndDropCount) {
  start(0);
  span_begin("phase", "n", 7);
  instant("mark");
  counter("gauge", 2.5);
  span_end("phase");
  stop();
  const std::string json = chrome_trace_json(collect(), /*dropped=*/3);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":3"), std::string::npos);
  EXPECT_NE(json.find("mcltrace.dropped"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":2.5"), std::string::npos);
}

TEST(TraceExport, MetricsAggregateCompleteAndBeginEndSpans) {
  std::vector<TaggedEvent> events;
  for (std::uint64_t i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.type = EventType::Complete;
    ev.name = "work";
    ev.ts_ns = i * 1000;
    ev.dur_ns = 1'000'000;  // 1 ms each
    events.push_back({1, ev});
  }
  TraceEvent b;
  b.type = EventType::Begin;
  b.name = "outer";
  b.ts_ns = 0;
  events.push_back({2, b});
  TraceEvent e;
  e.type = EventType::End;
  e.name = "outer";
  e.ts_ns = 5'000'000;
  events.push_back({2, e});

  const std::vector<MetricSummary> rows = metrics(events);
  ASSERT_EQ(rows.size(), 2u);
  // Sorted by total: 10 x 1 ms = 10 ms ahead of one 5 ms span.
  EXPECT_EQ(rows[0].name, "work");
  EXPECT_EQ(rows[0].count, 10u);
  EXPECT_DOUBLE_EQ(rows[0].total_ms, 10.0);
  EXPECT_DOUBLE_EQ(rows[0].p50_ms, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].p99_ms, 1.0);
  EXPECT_EQ(rows[1].name, "outer");
  EXPECT_DOUBLE_EQ(rows[1].total_ms, 5.0);
  EXPECT_NE(metrics_text(rows).find("work"), std::string::npos);
}

TEST(TraceLint, T1FiresOnDropsOnly)  {
  EXPECT_TRUE(san::lint_trace(0).clean());
  EXPECT_TRUE(san::lint_trace(0).diagnostics.empty());
  const san::Report report = san::lint_trace(42);
  EXPECT_TRUE(report.has_rule(san::Rule::T1TraceDrop));
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].severity, san::Severity::Warning);
  EXPECT_NE(report.to_string().find("42"), std::string::npos);
}

// NULL names are rejected in the CL error matrix (cl_errors_test).
TEST(TraceClExt, BeginEndCounterRoundTrip) {
  // Off: success, but nothing recorded.
  EXPECT_EQ(clTraceBeginMCL("ext.phase"), CL_SUCCESS);
  start(0);
  EXPECT_EQ(clTraceBeginMCL("ext.phase"), CL_SUCCESS);
  EXPECT_EQ(clTraceCounterMCL("ext.gauge", 1.5), CL_SUCCESS);
  EXPECT_EQ(clTraceEndMCL("ext.phase"), CL_SUCCESS);
  stop();
  const std::vector<TaggedEvent> events = collect();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].event.name, "ext.phase");
  EXPECT_EQ(events[0].event.type, EventType::Begin);
  EXPECT_EQ(events[2].event.type, EventType::End);
}

// The shared-epoch regression (ISSUE 3 satellite): AsyncEvent profiling
// timestamps and trace spans both use core::steady_now_ns, so a kernel's
// Running->Complete window must enclose every workgroup span it produced.
TEST(TraceEpoch, KernelProfilingWindowEnclosesWorkgroupSpans) {
  ocl::CpuDevice dev(ocl::CpuDeviceConfig{.threads = 2});
  ocl::Context ctx(dev);
  constexpr std::size_t n = 1024;
  ocl::Buffer in(ocl::MemFlags::ReadWrite, n * 4);
  ocl::Buffer out(ocl::MemFlags::ReadWrite, n * 4);
  ocl::Kernel kernel = ctx.create_kernel(ocl::Program::builtin(), "square");
  kernel.set_arg(0, in);
  kernel.set_arg(1, out);

  start(/*drain_interval_ms=*/10);
  ocl::AsyncEventPtr ev;
  {
    ocl::CommandQueue queue(ctx);
    ev = queue.enqueue_ndrange_async(kernel, ocl::NDRange{n}, ocl::NDRange{64});
    ev->wait();
  }
  const ocl::ProfilingInfo prof = ev->profiling_ns();
  stop();

  std::size_t wg_spans = 0;
  bool saw_cmd_kernel = false;
  for (const TaggedEvent& te : collect()) {
    const std::string_view name = te.event.name;
    if (name == "wg:square") {
      ++wg_spans;
      EXPECT_GE(te.event.ts_ns, prof.started_ns);
      EXPECT_LE(te.event.ts_ns + te.event.dur_ns, prof.ended_ns);
    } else if (name == "cmd.kernel") {
      saw_cmd_kernel = true;
      EXPECT_EQ(te.event.ts_ns, prof.started_ns);
      EXPECT_EQ(te.event.ts_ns + te.event.dur_ns, prof.ended_ns);
    }
  }
  EXPECT_EQ(wg_spans, n / 64);
  EXPECT_TRUE(saw_cmd_kernel);
  EXPECT_GE(prof.submitted_ns, prof.queued_ns);
  EXPECT_GE(prof.started_ns, prof.submitted_ns);
  EXPECT_GE(prof.ended_ns, prof.started_ns);
}

// Queued/dispatch phases of fast commands often round to zero nanoseconds;
// finalize used to drop those spans entirely, so trace consumers could not
// reconstruct a full per-command lifecycle. Every finalized command must now
// emit exactly one cmd.queued and one cmd.dispatch span (zero-duration spans
// included — Perfetto renders them as instants).
TEST(TraceEpoch, EveryCommandEmitsAllLifecycleSpans) {
  ocl::CpuDevice dev(ocl::CpuDeviceConfig{.threads = 2});
  ocl::Context ctx(dev);
  constexpr std::size_t kCommands = 64;

  start(/*drain_interval_ms=*/10);
  {
    ocl::CommandQueue queue(ctx);
    // Markers are the fastest command: both pre-run phases round to ~0 ns.
    for (std::size_t i = 0; i < kCommands; ++i) {
      (void)queue.enqueue_marker_async();
    }
    queue.finish();
  }
  stop();

  std::size_t queued = 0, dispatch = 0, marker = 0;
  for (const TaggedEvent& te : collect()) {
    const std::string_view name = te.event.name;
    if (name == "cmd.queued") ++queued;
    if (name == "cmd.dispatch") ++dispatch;
    if (name == "cmd.marker") ++marker;
  }
  EXPECT_EQ(marker, kCommands);
  // Span count == command count: nothing dropped on zero-duration rounding.
  EXPECT_EQ(queued, kCommands);
  EXPECT_EQ(dispatch, kCommands);
}

// Every CPU launch path runs one launch body: exactly one launch:<name> span
// per launch and one wg:<name> span per workgroup, except under Checked,
// whose serial whole-launch run has no per-group fan-out.
TEST(TraceLaunch, EveryLaunchPathEmitsOneLaunchSpanAndOneSpanPerGroup) {
  constexpr std::size_t n = 1024, l = 64, groups = n / l;
  const ocl::KernelDef& def = ocl::Program::builtin().lookup("square");
  ocl::Buffer in(ocl::MemFlags::ReadWrite, n * sizeof(float));
  ocl::Buffer out(ocl::MemFlags::ReadWrite, n * sizeof(float));
  ocl::KernelArgs args;
  args.set_buffer(0, in);
  args.set_buffer(1, out);

  ocl::CpuDevice pool_dev(ocl::CpuDeviceConfig{.threads = 2});
  const auto subs = pool_dev.partition_equally(1);
  ocl::CpuDevice order_dev(ocl::CpuDeviceConfig{
      .threads = 1,
      .dispatch_order = [](std::size_t k, std::size_t total) {
        return total - 1 - k;
      }});
  ocl::CpuDevice checked_dev(
      ocl::CpuDeviceConfig{.threads = 1, .executor = ocl::ExecutorKind::Checked});
  const std::vector<int> cpus(groups, 0);
  const ocl::NDRange global{n};
  const ocl::NDRange local{l};

  struct Path {
    const char* name;
    std::function<ocl::LaunchResult()> launch;
    std::size_t wg_spans;
  };
  const Path paths[] = {
      {"pool", [&] { return pool_dev.launch(def, args, global, local); },
       groups},
      {"sub-device", [&] { return subs[0]->launch(def, args, global, local); },
       groups},
      {"pinned",
       [&] { return pool_dev.launch_pinned(def, args, global, local, cpus); },
       groups},
      {"dispatch order", [&] { return order_dev.launch(def, args, global, local); },
       groups},
      {"checked", [&] { return checked_dev.launch(def, args, global, local); },
       0},
  };
  for (const Path& path : paths) {
    SCOPED_TRACE(path.name);
    start(/*drain_interval_ms=*/10);
    (void)path.launch();
    stop();
    std::size_t launch_spans = 0, wg_spans = 0;
    for (const TaggedEvent& te : collect()) {
      const std::string_view name = te.event.name;
      if (name == "launch:square") ++launch_spans;
      if (name == "wg:square") ++wg_spans;
    }
    EXPECT_EQ(launch_spans, 1u);
    EXPECT_EQ(wg_spans, path.wg_spans);
  }
}

}  // namespace
}  // namespace mcl::trace
