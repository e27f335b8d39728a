// mclprof tests: log-bucket math, percentile correctness on known
// distributions, cross-thread shard merging, the zero-overhead-disabled
// contract, hardware-counter availability probing with graceful degradation,
// and end-to-end kernel-profile attribution through the launch path and the
// queue's event DAG. Carries the `prof` ctest label (run with: ctest -L prof);
// tools/tier1.sh runs it in the plain and TSan tiers.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "ocl/queue.hpp"
#include "prof/hw.hpp"
#include "prof/metrics.hpp"
#include "prof/profiler.hpp"
#include "san/lint.hpp"

namespace mcl::prof {
namespace {

// ----- test kernels ------------------------------------------------------------

void square_fn(const ocl::KernelArgs& a, const ocl::WorkItemCtx& c) {
  const std::size_t i = c.global_id(0);
  a.buffer<float>(1)[i] = a.buffer<float>(0)[i] * a.buffer<float>(0)[i];
}
const ocl::KernelRegistrar reg_square{
    {.name = "prof_square", .scalar = &square_fn}};

std::uint64_t counter_value(const Snapshot& snap, const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const HistogramData* find_hist(const Snapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h.data;
  }
  return nullptr;
}

/// Every test leaves the registry disabled so later tests (and the
/// disabled-contract test in particular) start from a known state.
struct MetricsOff {
  ~MetricsOff() { set_enabled(false); }
};

// ----- bucket math -------------------------------------------------------------

TEST(ProfBuckets, IndexMatchesBitWidth) {
  EXPECT_EQ(bucket_index(0), 0u);
  EXPECT_EQ(bucket_index(1), 1u);
  EXPECT_EQ(bucket_index(2), 2u);
  EXPECT_EQ(bucket_index(3), 2u);
  EXPECT_EQ(bucket_index(4), 3u);
  EXPECT_EQ(bucket_index(7), 3u);
  EXPECT_EQ(bucket_index(8), 4u);
  EXPECT_EQ(bucket_index(1023), 10u);
  EXPECT_EQ(bucket_index(1024), 11u);
  EXPECT_EQ(bucket_index(UINT64_MAX), 64u);
}

TEST(ProfBuckets, BoundsRoundTripThroughIndex) {
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    EXPECT_LE(bucket_lower(b), bucket_upper(b)) << "bucket " << b;
    EXPECT_EQ(bucket_index(bucket_lower(b)), b) << "bucket " << b;
    EXPECT_EQ(bucket_index(bucket_upper(b)), b) << "bucket " << b;
  }
  // Buckets tile the uint64 range with no gaps.
  for (std::size_t b = 1; b < kHistogramBuckets; ++b) {
    EXPECT_EQ(bucket_lower(b), bucket_upper(b - 1) + 1) << "bucket " << b;
  }
}

// ----- percentiles on a known distribution -------------------------------------

TEST(ProfHistogram, PercentilesOfUniform1To1000) {
  HistogramData h{};
  for (std::uint64_t v = 1; v <= 1000; ++v) h.buckets[bucket_index(v)]++;
  ASSERT_EQ(h.count(), 1000u);
  // Nearest rank: p50 -> 500th smallest = 500, in bucket 9 (upper 511).
  EXPECT_EQ(h.percentile(50.0), 511u);
  // p99 -> 990th smallest = 990, in bucket 10 (upper 1023).
  EXPECT_EQ(h.percentile(99.0), 1023u);
  EXPECT_EQ(h.percentile(100.0), 1023u);
  EXPECT_EQ(h.max(), 1023u);
}

TEST(ProfHistogram, EmptyAndSingleton) {
  HistogramData empty{};
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.percentile(50.0), 0u);
  EXPECT_EQ(empty.max(), 0u);

  HistogramData one{};
  one.buckets[bucket_index(42)] = 1;
  EXPECT_EQ(one.percentile(0.0), 63u);    // 42 lands in [32, 63]
  EXPECT_EQ(one.percentile(50.0), 63u);
  EXPECT_EQ(one.percentile(100.0), 63u);
}

TEST(ProfHistogram, MergeIsAssociativeAndCommutative) {
  HistogramData a{}, b{}, c{};
  for (std::uint64_t v = 1; v <= 100; ++v) a.buckets[bucket_index(v)]++;
  for (std::uint64_t v = 50; v <= 500; ++v) b.buckets[bucket_index(v * 3)]++;
  for (std::uint64_t v = 0; v <= 10; ++v) c.buckets[bucket_index(v * v)]++;

  HistogramData ab_c = a;   // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  HistogramData bc = b;     // a + (b + c)
  bc.merge(c);
  HistogramData a_bc = a;
  a_bc.merge(bc);
  HistogramData ba = b;     // b + a, then + c
  ba.merge(a);
  ba.merge(c);

  EXPECT_EQ(ab_c.buckets, a_bc.buckets);
  EXPECT_EQ(ab_c.buckets, ba.buckets);
  EXPECT_EQ(ab_c.count(), a.count() + b.count() + c.count());
}

// ----- registry: dedup, shards, disabled contract ------------------------------

TEST(ProfRegistry, RegistrationDedupesByName) {
  MetricsOff off;
  set_enabled(true);
  reset();
  const Counter c1 = counter("prof_test.dedup");
  const Counter c2 = counter("prof_test.dedup");
  ASSERT_TRUE(c1.valid());
  ASSERT_TRUE(c2.valid());
  c1.add(3);
  c2.add(4);
  EXPECT_EQ(counter_value(snapshot(), "prof_test.dedup"), 7u);
}

TEST(ProfRegistry, CrossThreadShardsMergeIntoTotals) {
  MetricsOff off;
  set_enabled(true);
  reset();
  const Counter c = counter("prof_test.mt_counter");
  const Histogram h = histogram("prof_test.mt_hist");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::uint64_t i = 1; i <= kPerThread; ++i) {
        c.add(1);
        h.record(i);
      }
    });
  }
  for (auto& w : workers) w.join();

  const Snapshot snap = snapshot();
  EXPECT_EQ(counter_value(snap, "prof_test.mt_counter"), kThreads * kPerThread);
  const HistogramData* hd = find_hist(snap, "prof_test.mt_hist");
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->count(), kThreads * kPerThread);
  EXPECT_EQ(hd->max(), 1023u);  // 1000 lands in [512, 1023]
}

TEST(ProfRegistry, DisabledSitesRecordNothingAndRegisterNothing) {
  MetricsOff off;
  set_enabled(false);
  // A macro site hit while disabled must not even register the name.
  MCL_PROF_COUNT("prof_test.never_enabled", 1);
  MCL_PROF_HIST("prof_test.never_enabled_hist", 99);
  Snapshot snap = snapshot();
  for (const auto& c : snap.counters) {
    EXPECT_NE(c.name, "prof_test.never_enabled");
  }
  EXPECT_EQ(find_hist(snap, "prof_test.never_enabled_hist"), nullptr);

  // The same site records once enabled (registration happens on the first
  // enabled pass), and stops recording again after disable.
  set_enabled(true);
  reset();
  for (int i = 0; i < 5; ++i) MCL_PROF_COUNT("prof_test.gated", 2);
  set_enabled(false);
  MCL_PROF_COUNT("prof_test.gated", 1000);
  EXPECT_EQ(counter_value(snapshot(), "prof_test.gated"), 10u);
}

TEST(ProfRegistry, GaugeHoldsLastValue) {
  MetricsOff off;
  set_enabled(true);
  const Gauge g = gauge("prof_test.gauge");
  g.set(1.5);
  g.set(-3.25);
  const Snapshot snap = snapshot();
  bool found = false;
  for (const auto& gv : snap.gauges) {
    if (gv.name == "prof_test.gauge") {
      EXPECT_DOUBLE_EQ(gv.value, -3.25);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ProfRegistry, ResetZeroesValuesButKeepsNames) {
  MetricsOff off;
  set_enabled(true);
  const Counter c = counter("prof_test.reset_me");
  c.add(9);
  reset();
  EXPECT_EQ(counter_value(snapshot(), "prof_test.reset_me"), 0u);
  c.add(2);
  EXPECT_EQ(counter_value(snapshot(), "prof_test.reset_me"), 2u);
}

TEST(ProfRegistry, TextAndJsonExportersNameMetrics) {
  MetricsOff off;
  set_enabled(true);
  counter("prof_test.export").add(1);
  const Snapshot snap = snapshot();
  EXPECT_NE(metrics_text(snap).find("prof_test.export"), std::string::npos);
  EXPECT_NE(metrics_json(snap).find("\"prof_test.export\""),
            std::string::npos);
}

// ----- hardware availability ---------------------------------------------------

TEST(ProfHw, AvailabilityIsProbedOnceAndExplained) {
  const PerfAvailability& a = availability();
  EXPECT_FALSE(a.detail.empty());
  // Degradation is reported, never silent: unusable must say why.
  if (!a.usable) {
    EXPECT_EQ(&a, &availability()) << "probe must be cached";
  } else {
    EXPECT_GT(a.events_ok, 0);
  }
}

TEST(ProfHw, SampleSubtractionFloorsAtZero) {
  HwSample after;
  after.cycles = 10;
  after.instructions = 5;
  HwSample before;
  before.cycles = 20;  // counter reset between samples (group reopen)
  before.instructions = 2;
  after -= before;
  EXPECT_EQ(after.cycles, 0u);
  EXPECT_EQ(after.instructions, 3u);
}

// ----- profiler session end-to-end ---------------------------------------------

TEST(ProfSession, KernelLaunchAttributesProfile) {
  start();
  constexpr std::size_t kN = 1024;
  ocl::CpuDevice dev(ocl::CpuDeviceConfig{.threads = 2});
  ocl::Context ctx(dev);
  ocl::CommandQueue q(ctx);
  std::vector<float> in(kN, 2.0f), out(kN, 0.0f);
  ocl::Buffer bin(ocl::MemFlags::ReadOnly | ocl::MemFlags::UseHostPtr,
                  kN * sizeof(float), in.data());
  ocl::Buffer bout(ocl::MemFlags::ReadWrite | ocl::MemFlags::UseHostPtr,
                   kN * sizeof(float), out.data());
  ocl::Kernel k = ctx.create_kernel(ocl::Program::builtin(), "prof_square");
  k.set_arg(0, bin);
  k.set_arg(1, bout);
  (void)q.enqueue_ndrange(k, ocl::NDRange{kN}, ocl::NDRange{64});

  const KernelProfile p = kernel_profile("prof_square");
  EXPECT_EQ(p.launches, 1u);
  EXPECT_EQ(p.groups, kN / 64);
  EXPECT_EQ(p.items, kN);
  EXPECT_FALSE(p.has_simd_form);
  EXPECT_EQ(p.simd_items, 0u);
  EXPECT_GT(p.seconds, 0.0);
  EXPECT_GT(p.est_bytes, 0u);
  EXPECT_GT(p.achieved_gbps(), 0.0);
  // Graceful degradation contract: `hardware` mirrors the probe. With perf
  // access the cycle counts are real; without, they stay zero and the
  // profile is still produced from software timing.
  EXPECT_EQ(p.hardware, availability().usable);
  if (!availability().usable) {
    EXPECT_EQ(p.cycles, 0u);
    EXPECT_DOUBLE_EQ(p.ipc(), 0.0);
  } else {
    EXPECT_GT(p.cycles, 0u);
    EXPECT_GT(p.ipc(), 0.0);
  }
  EXPECT_EQ(out[0], 4.0f) << "profiling must not perturb results";
  stop();
}

TEST(ProfSession, AsyncEventCarriesKernelProfile) {
  start();
  constexpr std::size_t kN = 256;
  ocl::CpuDevice dev(ocl::CpuDeviceConfig{.threads = 2});
  ocl::Context ctx(dev);
  ocl::CommandQueue q(ctx);
  std::vector<float> in(kN, 3.0f), out(kN, 0.0f);
  ocl::Buffer bin(ocl::MemFlags::ReadOnly | ocl::MemFlags::UseHostPtr,
                  kN * sizeof(float), in.data());
  ocl::Buffer bout(ocl::MemFlags::ReadWrite | ocl::MemFlags::UseHostPtr,
                   kN * sizeof(float), out.data());
  ocl::Kernel k = ctx.create_kernel(ocl::Program::builtin(), "prof_square");
  k.set_arg(0, bin);
  k.set_arg(1, bout);
  const ocl::AsyncEventPtr ev =
      q.enqueue_ndrange_async(k, ocl::NDRange{kN}, ocl::NDRange{64});
  ev->wait();

  const KernelProfile p = ev->kernel_profile();
  EXPECT_EQ(p.launches, 1u);
  EXPECT_EQ(p.items, kN);
  EXPECT_GT(p.seconds, 0.0);
  EXPECT_EQ(p.hardware, availability().usable);
  stop();
}

TEST(ProfSession, ProfileJsonIsSelfDescribing) {
  start();
  ocl::CpuDevice dev(ocl::CpuDeviceConfig{.threads = 1});
  ocl::Context ctx(dev);
  ocl::CommandQueue q(ctx);
  std::vector<float> buf(64, 1.0f);
  ocl::Buffer b(ocl::MemFlags::ReadWrite | ocl::MemFlags::UseHostPtr,
                buf.size() * sizeof(float), buf.data());
  ocl::Kernel k = ctx.create_kernel(ocl::Program::builtin(), "prof_square");
  k.set_arg(0, b);
  k.set_arg(1, b);
  (void)q.enqueue_ndrange(k, ocl::NDRange{64}, ocl::NDRange{64});
  const std::string json = profile_json();
  stop();

  EXPECT_NE(json.find("\"mclprof\":1"), std::string::npos);
  EXPECT_NE(json.find("\"perf\":"), std::string::npos);
  EXPECT_NE(json.find("\"usable\":"), std::string::npos);
  EXPECT_NE(json.find("\"prof_square\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
}

// Every CPU launch path runs one launch body and commits exactly one
// profile per launch — the pinned, dispatch-order and Checked paths too.
TEST(ProfSession, EveryLaunchPathCommitsOneProfile) {
  constexpr std::size_t kN = 512, kLocal = 64;
  const ocl::KernelDef& def = ocl::Program::builtin().lookup("prof_square");
  ocl::Buffer in(ocl::MemFlags::ReadWrite, kN * sizeof(float));
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * sizeof(float));
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
  const std::vector<int> cpus(kN / kLocal, 0);
  const ocl::NDRange global{kN};
  const ocl::NDRange local{kLocal};

  const std::pair<const char*, std::function<ocl::LaunchResult()>> paths[] = {
      {"pool", [&] { return pool_dev.launch(def, args, global, local); }},
      {"sub-device", [&] { return subs[0]->launch(def, args, global, local); }},
      {"pinned",
       [&] { return pool_dev.launch_pinned(def, args, global, local, cpus); }},
      {"dispatch order",
       [&] { return order_dev.launch(def, args, global, local); }},
      {"checked", [&] { return checked_dev.launch(def, args, global, local); }},
  };
  for (const auto& [name, launch] : paths) {
    SCOPED_TRACE(name);
    start();
    reset_profiles();
    const ocl::LaunchResult r = launch();
    EXPECT_EQ(r.profile.launches, 1u);
    EXPECT_EQ(r.profile.groups, kN / kLocal);
    EXPECT_EQ(r.profile.items, kN);
    const KernelProfile p = kernel_profile("prof_square");
    EXPECT_EQ(p.launches, 1u);
    EXPECT_EQ(p.groups, kN / kLocal);
    stop();
  }
}

TEST(ProfSession, StartClearsPriorProfilesAndResetClears) {
  start();
  reset_profiles();
  EXPECT_TRUE(kernel_profiles().empty());
  EXPECT_EQ(kernel_profile("prof_square").launches, 0u);
  stop();
}

// ----- P2 lint: profile vs static IR descriptor --------------------------------

TEST(ProfLint, ContradictionWarnsOnlyWhenSimdClaimUnmet) {
  const san::Report warn = san::lint_profile("k", true, 0.0);
  ASSERT_EQ(warn.diagnostics.size(), 1u);
  EXPECT_TRUE(warn.has_rule(san::Rule::P2ProfileContradiction));
  EXPECT_EQ(warn.error_count(), 0u) << "P2 is a warning, not an error";

  EXPECT_TRUE(san::lint_profile("k", true, 0.96).clean());
  EXPECT_TRUE(san::lint_profile("k", false, 0.0).clean());
}

// ----- capacity exhaustion (keep last: fills the process-global registry) ------

TEST(ProfRegistryZZ, CapacityOverflowYieldsNoOpHandles) {
  MetricsOff off;
  set_enabled(true);
  Counter last;
  for (std::size_t i = 0; i < kMaxCounters + 8; ++i) {
    last = counter("prof_test.cap." + std::to_string(i));
  }
  EXPECT_FALSE(last.valid());
  last.add(1);  // must be a safe no-op
}

}  // namespace
}  // namespace mcl::prof
