// mcltune tests: feature extraction, candidate legality (GroupRunner-matched
// pruning), the bounded explore/exploit policy with its regression guard,
// persistent-cache round-trip / version-mismatch / corruption / concurrent
// writers, IR re-registration eviction, warm-cache zero-exploration, the
// launch-path integration (results stay correct while tuning), and the
// CL/cl_ext_mcl.h tuning calls (the `tune` label is in the plain and TSan
// tiers).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <CL/cl.h>
#include <CL/cl_ext_mcl.h>

#include "apps/matrixmul.hpp"
#include "apps/simple.hpp"
#include "ocl/queue.hpp"
#include "simd/vec.hpp"
#include "tune/tune.hpp"
#include "veclegal/kernel_ir.hpp"

namespace mcl::tune {
namespace {

/// Every test leaves the process-global tuner the way it found it: mode off,
/// no entries, zeroed stats.
struct TunerGuard {
  TunerGuard() { clean(); }
  ~TunerGuard() { clean(); }
  static void clean() {
    Tuner& t = Tuner::instance();
    t.set_mode(Mode::Off);
    t.reset();
    t.reset_stats();
  }
};

/// A synthetic scalar-only kernel def: never launched, so the body can be
/// null — decide()/report() only consult name/simd/workgroup/needs_barrier.
ocl::KernelDef synthetic_def(const char* name) {
  ocl::KernelDef def;
  def.name = name;
  return def;
}

/// Drives one entry to convergence with synthetic timings: candidate 0 is
/// fast, everything else is 10x slower (so the regression guard fires).
/// Returns the config string of the fast candidate.
std::string converge_entry(Tuner& t, const ocl::KernelDef& def,
                           const ocl::NDRange& global, std::size_t threads) {
  t.set_mode(Mode::Online);
  std::string fast_config;
  for (int i = 0; i < 200; ++i) {
    if (t.converged(def.name, global, ocl::NDRange{}, threads)) break;
    auto d = t.decide(def, global, ocl::NDRange{}, false, threads);
    if (!d) break;
    if (d->candidate == 0) fast_config = d->config.to_string();
    t.report(*d, d->candidate == 0 ? 0.001 : 0.010);
  }
  EXPECT_TRUE(t.converged(def.name, global, ocl::NDRange{}, threads));
  return fast_config;
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// ----- features ------------------------------------------------------------

TEST(TuneFeatures, SquareIsUnitStrideWithFacts) {
  const ocl::KernelDef& def = ocl::Program::builtin().lookup(apps::kSquareKernel);
  const Features f = features_for(def);
  EXPECT_TRUE(f.have_facts);  // simple.cpp registers square's IR
  EXPECT_FALSE(f.barrier);
  EXPECT_FALSE(f.local_mem);
  EXPECT_FALSE(f.gather_scatter);
  EXPECT_GE(f.unit_stride_fraction, 0.5);
  EXPECT_EQ(f.has_simd_form, def.simd != nullptr);
  EXPECT_GE(f.locality_class, 1);
  EXPECT_LE(f.locality_class, 4);
}

TEST(TuneFeatures, UnregisteredKernelDegradesToDefaults) {
  const Features f = features_for(synthetic_def("tune.test.nofacts"));
  EXPECT_FALSE(f.have_facts);
  EXPECT_EQ(f.locality_class, 1);
}

// ----- candidate legality --------------------------------------------------

TEST(TuneCandidates, LocalsAlwaysDivideGlobal) {
  const ocl::KernelDef& def = ocl::Program::builtin().lookup(apps::kSquareKernel);
  const Features f = features_for(def);
  // 1000 is not divisible by 128/256/512 — only legal divisors may survive.
  const ocl::NDRange global{1000};
  const auto cands = enumerate_candidates(def, f, global, ocl::NDRange{},
                                          /*has_local_args=*/false, 4);
  ASSERT_FALSE(cands.empty());
  for (const TunedConfig& c : cands) {
    if (c.local.is_null()) continue;
    for (std::size_t d = 0; d < global.dims; ++d) {
      EXPECT_EQ(global[d] % c.local[d], 0u) << c.to_string();
    }
    EXPECT_NE(c.executor, ocl::ExecutorKind::Checked) << c.to_string();
  }
}

TEST(TuneCandidates, BarrierKernelOnlyGetsFiber) {
  const ocl::KernelDef& def =
      ocl::Program::builtin().lookup(apps::kMatrixMulFiberKernel);
  ASSERT_TRUE(def.needs_barrier);
  const Features f = features_for(def);
  const auto cands = enumerate_candidates(def, f, ocl::NDRange(64, 64),
                                          ocl::NDRange{},
                                          /*has_local_args=*/false, 4);
  ASSERT_FALSE(cands.empty());
  for (const TunedConfig& c : cands) {
    EXPECT_EQ(c.executor, ocl::ExecutorKind::Fiber) << c.to_string();
    // Fiber stacks are per item: barrier candidates stay <= 256 items/group.
    if (!c.local.is_null()) {
      EXPECT_LE(c.local.total(), 256u) << c.to_string();
    }
  }
}

TEST(TuneCandidates, LocalMemArgsSuppressLocalOverride) {
  const ocl::KernelDef& def =
      ocl::Program::builtin().lookup(apps::kMatrixMulKernel);
  const Features f = features_for(def);
  const auto cands = enumerate_candidates(def, f, ocl::NDRange(64, 64),
                                          ocl::NDRange{},
                                          /*has_local_args=*/true, 4);
  ASSERT_FALSE(cands.empty());
  for (const TunedConfig& c : cands) {
    EXPECT_TRUE(c.local.is_null()) << c.to_string();
    // matrixmul is workgroup-form: the executor knob is not meaningful and
    // candidates must leave it at Auto.
    EXPECT_EQ(c.executor, ocl::ExecutorKind::Auto) << c.to_string();
  }
}

TEST(TuneCandidates, CallerLocalIsNeverOverridden) {
  const ocl::KernelDef& def = ocl::Program::builtin().lookup(apps::kSquareKernel);
  const Features f = features_for(def);
  const auto cands = enumerate_candidates(def, f, ocl::NDRange{4096},
                                          ocl::NDRange{128},
                                          /*has_local_args=*/false, 4);
  ASSERT_FALSE(cands.empty());
  for (const TunedConfig& c : cands) {
    EXPECT_TRUE(c.local.is_null()) << c.to_string();
  }
}

TEST(TuneCandidates, SimdOfferedOnlyWithSimdForm) {
  const ocl::KernelDef& square =
      ocl::Program::builtin().lookup(apps::kSquareKernel);
  const auto square_cands =
      enumerate_candidates(square, features_for(square), ocl::NDRange{4096},
                           ocl::NDRange{}, false, 4);
  const bool offers_simd =
      std::any_of(square_cands.begin(), square_cands.end(),
                  [](const TunedConfig& c) {
                    return c.executor == ocl::ExecutorKind::Simd;
                  });
  EXPECT_EQ(offers_simd, square.simd != nullptr && simd::kNativeFloatWidth > 1);

  const auto scalar_cands = enumerate_candidates(
      synthetic_def("tune.test.scalar"),
      features_for(synthetic_def("tune.test.scalar")), ocl::NDRange{4096},
      ocl::NDRange{}, false, 4);
  for (const TunedConfig& c : scalar_cands) {
    EXPECT_NE(c.executor, ocl::ExecutorKind::Simd) << c.to_string();
  }
}

// ----- online policy -------------------------------------------------------

TEST(TuneOnline, DisabledModeReturnsNoDecision) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  EXPECT_FALSE(enabled());
  EXPECT_FALSE(t.decide(synthetic_def("tune.test.off"), ocl::NDRange{4096},
                        ocl::NDRange{}, false, 4)
                   .has_value());
  EXPECT_EQ(t.stats().decisions, 0u);
}

TEST(TuneOnline, ConvergesQuarantinesAndKeepsFastest) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  const ocl::KernelDef def = synthetic_def("tune.test.converge");
  const ocl::NDRange global{4096};
  const std::string fast = converge_entry(t, def, global, 4);

  const TunerStats s = t.stats();
  EXPECT_GT(s.explore, 0u);
  EXPECT_GE(s.quarantined, 1u);  // the 10x-slower candidates were retired
  EXPECT_EQ(s.converged, 1u);
  // The budget is bounded: at most candidates * trials exploration launches.
  EXPECT_LE(s.explore, 8u * 3u);

  // The incumbent is the fast candidate we fed.
  auto cfg = t.tuned_config(def, global, ocl::NDRange{}, false, 4);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->to_string(), fast);

  // Converged entries never explore again.
  t.reset_stats();
  for (int i = 0; i < 10; ++i) {
    auto d = t.decide(def, global, ocl::NDRange{}, false, 4);
    ASSERT_TRUE(d.has_value());
    EXPECT_FALSE(d->explore);
    EXPECT_EQ(d->config.to_string(), fast);
  }
  EXPECT_EQ(t.stats().explore, 0u);
  EXPECT_EQ(t.stats().exploit, 10u);
}

TEST(TuneOnline, SeedModeNeverExplores) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  t.set_mode(Mode::Seed);
  const ocl::KernelDef def = synthetic_def("tune.test.seed");
  for (int i = 0; i < 5; ++i) {
    auto d = t.decide(def, ocl::NDRange{4096}, ocl::NDRange{}, false, 4);
    ASSERT_TRUE(d.has_value());
    EXPECT_FALSE(d->explore);
  }
  EXPECT_EQ(t.stats().explore, 0u);
  EXPECT_EQ(t.stats().exploit, 5u);
}

TEST(TuneOnline, ReportAfterEvictionIsIgnored) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  t.set_mode(Mode::Online);
  const ocl::KernelDef def = synthetic_def("tune.test.evictrace");
  auto d = t.decide(def, ocl::NDRange{4096}, ocl::NDRange{}, false, 4);
  ASSERT_TRUE(d.has_value());
  t.evict(def.name);
  t.report(*d, 0.001);  // must not crash or resurrect the entry
  EXPECT_EQ(t.entry_count(def.name), 0u);
}

TEST(TuneOnline, StaleGenerationReportIsDropped) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  t.set_mode(Mode::Online);
  const ocl::KernelDef& def =
      ocl::Program::builtin().lookup(apps::kSquareKernel);
  const ocl::NDRange global{4096};
  auto d1 = t.decide(def, global, ocl::NDRange{}, false, 4);
  ASSERT_TRUE(d1.has_value());
  t.report(*d1, 0.001);
  auto d2 = t.decide(def, global, ocl::NDRange{}, false, 4);
  ASSERT_TRUE(d2.has_value());
  ASSERT_NE(d1->candidate, d2->candidate);  // round-robin moved on

  // Re-registration bumps the generation and evicts the entry; the next
  // decide recreates it under the new generation.
  auto& registry = veclegal::KernelIrRegistry::instance();
  const veclegal::KernelIr* ir = registry.find(def.name);
  ASSERT_NE(ir, nullptr);
  registry.add(def.name, *ir);
  auto d3 = t.decide(def, global, ocl::NDRange{}, false, 4);
  ASSERT_TRUE(d3.has_value());

  // d2 belongs to the evicted entry. Its (absurdly fast) timing must not be
  // credited to the recreated candidate list, or a never-measured config
  // becomes the unbeatable incumbent.
  t.report(*d2, 1e-9);
  auto cfg = t.tuned_config(def, global, ocl::NDRange{}, false, 4);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_NE(cfg->to_string(), d2->config.to_string());
}

TEST(TuneOnline, LocalMemArgLaunchesGetTheirOwnEntry) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  const ocl::KernelDef def = synthetic_def("tune.test.localargs");
  const ocl::NDRange global{8192};
  // Converge the no-local-args shape; its candidate list includes
  // local-size overrides.
  converge_entry(t, def, global, 4);
  // The same kernel/shape launched WITH caller-sized local-memory args must
  // hit a separate entry (has_local_args is part of the key) that never
  // overrides the local size — the learned override's group size would
  // invalidate the caller's local byte counts.
  for (int i = 0; i < 30; ++i) {
    auto d = t.decide(def, global, ocl::NDRange{}, /*has_local_args=*/true, 4);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(d->config.local.is_null());
    t.report(*d, 0.001);
  }
  EXPECT_EQ(t.entry_count(def.name), 2u);
}

// ----- persistent cache ----------------------------------------------------

TEST(TuneCache, RoundTripRestoresConvergedEntry) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  const ocl::KernelDef def = synthetic_def("tune.test.roundtrip");
  const ocl::NDRange global{8192};
  converge_entry(t, def, global, 4);
  auto saved = t.tuned_config(def, global, ocl::NDRange{}, false, 4);
  ASSERT_TRUE(saved.has_value());

  const std::string path = temp_path("tune_roundtrip.cache");
  ASSERT_TRUE(t.save_cache(path));

  t.reset();
  EXPECT_EQ(t.entry_count(), 0u);
  EXPECT_EQ(t.load_cache(path), 1u);
  EXPECT_TRUE(t.converged(def.name, global, ocl::NDRange{}, 4));
  auto loaded = t.tuned_config(def, global, ocl::NDRange{}, false, 4);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->to_string(), saved->to_string());
}

TEST(TuneCache, WarmEntryPerformsZeroExploration) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  const ocl::KernelDef def = synthetic_def("tune.test.warm");
  const ocl::NDRange global{8192};
  converge_entry(t, def, global, 4);
  const std::string path = temp_path("tune_warm.cache");
  ASSERT_TRUE(t.save_cache(path));

  t.reset();
  t.reset_stats();
  ASSERT_EQ(t.load_cache(path), 1u);
  t.set_mode(Mode::Online);
  for (int i = 0; i < 20; ++i) {
    auto d = t.decide(def, global, ocl::NDRange{}, false, 4);
    ASSERT_TRUE(d.has_value());
    EXPECT_FALSE(d->explore);
  }
  const TunerStats s = t.stats();
  EXPECT_EQ(s.explore, 0u);  // the warm-cache acceptance criterion
  EXPECT_EQ(s.exploit, 20u);
  EXPECT_EQ(s.cache_hits, 20u);
  EXPECT_EQ(s.cache_rows_loaded, 1u);
}

TEST(TuneCache, VersionMismatchRejectsWholeFile) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  // A well-checksummed file with the wrong version header: the checksum
  // passes, the version check must still reject it. v1 is the retired
  // pre-|aB-key format, so this doubles as the old-file rejection test.
  const std::string payload = "mcltune v1\n";
  std::ostringstream doc;
  doc << payload << "checksum " << std::hex << fnv1a64(payload) << "\n";
  const std::string path = temp_path("tune_version.cache");
  write_file(path, doc.str());
  EXPECT_EQ(t.load_cache(path), 0u);
  EXPECT_EQ(t.entry_count(), 0u);
  EXPECT_GE(t.stats().cache_rows_rejected, 1u);
}

TEST(TuneCache, TruncatedFileFallsBackToColdStart) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  const ocl::KernelDef def = synthetic_def("tune.test.trunc");
  converge_entry(t, def, ocl::NDRange{8192}, 4);
  const std::string path = temp_path("tune_trunc.cache");
  ASSERT_TRUE(t.save_cache(path));
  const std::string full = read_file(path);
  ASSERT_GT(full.size(), 16u);
  write_file(path, full.substr(0, full.size() / 2));

  t.reset();
  EXPECT_EQ(t.load_cache(path), 0u);
  EXPECT_EQ(t.entry_count(), 0u);
}

TEST(TuneCache, CorruptedByteFailsChecksum) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  const ocl::KernelDef def = synthetic_def("tune.test.corrupt");
  converge_entry(t, def, ocl::NDRange{8192}, 4);
  const std::string path = temp_path("tune_corrupt.cache");
  ASSERT_TRUE(t.save_cache(path));
  std::string contents = read_file(path);
  const std::size_t pos = contents.find("row");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] = 'R';  // flip one byte inside the checksummed payload
  write_file(path, contents);

  t.reset();
  t.reset_stats();
  EXPECT_EQ(t.load_cache(path), 0u);
  EXPECT_EQ(t.entry_count(), 0u);
  EXPECT_GE(t.stats().cache_rows_rejected, 1u);
}

TEST(TuneCache, ConcurrentWritersNeverTearTheFile) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  const ocl::KernelDef def = synthetic_def("tune.test.writers");
  converge_entry(t, def, ocl::NDRange{8192}, 4);
  const std::string path = temp_path("tune_writers.cache");

  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 8; ++i) EXPECT_TRUE(t.save_cache(path));
    });
  }
  for (std::thread& w : writers) w.join();

  // Whatever writer won, the published file is one complete document.
  t.reset();
  EXPECT_EQ(t.load_cache(path), 1u);
}

TEST(TuneCache, StaleGenerationRowIsSkipped) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  // Use a kernel with registered IR so re-registration bumps its generation.
  const ocl::KernelDef& def =
      ocl::Program::builtin().lookup(apps::kSquareKernel);
  const ocl::NDRange global{4096};
  converge_entry(t, def, global, 4);
  const std::string path = temp_path("tune_stale.cache");
  ASSERT_TRUE(t.save_cache(path));

  auto& registry = veclegal::KernelIrRegistry::instance();
  const veclegal::KernelIr* ir = registry.find(def.name);
  ASSERT_NE(ir, nullptr);
  registry.add(def.name, *ir);  // generation bump (and tuner eviction)

  t.reset();
  t.reset_stats();
  EXPECT_EQ(t.load_cache(path), 0u);  // row generation no longer current
  EXPECT_GE(t.stats().cache_rows_rejected, 1u);
  EXPECT_EQ(t.entry_count(def.name), 0u);
}

TEST(TuneCache, WarmRowIllegalForThisBuildIsDroppedAtDecide) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  // Hand-craft a structurally valid v2 cache whose row pins the Simd
  // executor for a kernel with no simd form — what a cache written by a
  // SIMD-enabled build (or a hand edit) looks like to this process. The
  // generation guard cannot catch it (0 == 0 for never-registered IR);
  // decide() must drop the row instead of serving a config GroupRunner
  // would reject on every launch.
  const std::string key = "tune.test.illegalwarm|g4096x1x1|lauto|t4|a0";
  std::ostringstream payload;
  payload << "mcltune v2\n"
          << "row " << key << " 0 0 0 0 0 3 16 0 1 1000\n";
  std::ostringstream doc;
  doc << payload.str() << "checksum " << std::hex << fnv1a64(payload.str())
      << "\n";
  const std::string path = temp_path("tune_illegal.cache");
  write_file(path, doc.str());

  ASSERT_EQ(t.load_cache(path), 1u);  // structurally valid: it loads
  t.set_mode(Mode::Online);
  const ocl::KernelDef def = synthetic_def("tune.test.illegalwarm");
  const std::uint64_t rejected_before = t.stats().cache_rows_rejected;
  auto d = t.decide(def, ocl::NDRange{4096}, ocl::NDRange{}, false, 4);
  ASSERT_TRUE(d.has_value());
  EXPECT_NE(d->config.executor, ocl::ExecutorKind::Simd);
  EXPECT_GT(t.stats().cache_rows_rejected, rejected_before);
  // The rebuilt entry is cold: it explores like one.
  EXPECT_FALSE(t.converged(def.name, ocl::NDRange{4096}, ocl::NDRange{}, 4));
}

// ----- IR re-registration eviction ----------------------------------------

TEST(TuneEvict, ReRegistrationDropsTunedEntries) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  const ocl::KernelDef& def =
      ocl::Program::builtin().lookup(apps::kSquareKernel);
  const ocl::NDRange global{2048};
  converge_entry(t, def, global, 4);
  ASSERT_GE(t.entry_count(def.name), 1u);
  const std::uint64_t evictions_before = t.stats().evictions;

  auto& registry = veclegal::KernelIrRegistry::instance();
  const veclegal::KernelIr* ir = registry.find(def.name);
  ASSERT_NE(ir, nullptr);
  registry.add(def.name, *ir);

  // Regression: a stale tuned config must never be served for the new body.
  EXPECT_EQ(t.entry_count(def.name), 0u);
  EXPECT_GT(t.stats().evictions, evictions_before);
  EXPECT_FALSE(t.converged(def.name, global, ocl::NDRange{}, 4));
}

// ----- registry concurrency (exercised under the TSan tier) ----------------

TEST(TuneRegistry, ConcurrentReRegistrationAndLaunchPathReadsAreSafe) {
  TunerGuard guard;
  auto& registry = veclegal::KernelIrRegistry::instance();
  const veclegal::KernelIr* square = registry.find(apps::kSquareKernel);
  ASSERT_NE(square, nullptr);
  const veclegal::KernelIr ir_copy = *square;

  // A writer registers fresh kernel names (map inserts rebalance the tree)
  // while readers walk it the way the tune launch path does (features_for
  // -> find(), names(), generation()); the registry must synchronize the IR
  // map itself, not just the analysis cache beside it.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      registry.add("tune.test.race." + std::to_string(i), ir_copy);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        (void)registry.find(apps::kSquareKernel);
        (void)registry.names();
        (void)registry.generation("tune.test.race.0");
      }
    });
  }
  writer.join();
  for (std::thread& th : readers) th.join();
  EXPECT_NE(registry.find(apps::kSquareKernel), nullptr);
}

// ----- launch-path integration --------------------------------------------

TEST(TuneLaunch, OnlineTuningKeepsResultsCorrect) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  t.set_mode(Mode::Online);

  ocl::CpuDevice dev{ocl::CpuDeviceConfig{.threads = 2}};
  ocl::Context ctx{dev};
  ocl::CommandQueue q{ctx};

  constexpr std::size_t kN = 8192;
  std::vector<float> host(kN);
  for (std::size_t i = 0; i < kN; ++i) host[i] = static_cast<float>(i % 97);
  ocl::Buffer in(ocl::MemFlags::ReadOnly | ocl::MemFlags::CopyHostPtr,
                 kN * sizeof(float), host.data());
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * sizeof(float));

  ocl::Kernel kernel(ocl::Program::builtin().lookup(apps::kSquareKernel));
  kernel.set_arg(0, in);
  kernel.set_arg(1, out);

  const ocl::NDRange global{kN};
  const std::size_t threads = static_cast<std::size_t>(dev.compute_units());
  int converged_at = 0;
  for (int i = 1; i <= 50; ++i) {
    q.enqueue_ndrange(kernel, global);
    if (converged_at == 0 &&
        t.converged(apps::kSquareKernel, global, ocl::NDRange{}, threads)) {
      converged_at = i;
    }
  }
  // The explore/exploit budget converges well within 50 repeat launches.
  EXPECT_GT(converged_at, 0);
  EXPECT_LE(converged_at, 50);
  EXPECT_GT(t.stats().decisions, 0u);

  // Whatever configs were explored, every launch computed the right thing.
  std::vector<float> result(kN, 0.0f);
  q.enqueue_read_buffer(out, 0, kN * sizeof(float), result.data());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_FLOAT_EQ(result[i], host[i] * host[i]) << "at index " << i;
  }
}

TEST(TuneLaunch, ExplicitExecutorConfigBypassesTuner) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  t.set_mode(Mode::Online);

  ocl::CpuDeviceConfig cfg;
  cfg.threads = 2;
  cfg.executor = ocl::ExecutorKind::Loop;  // caller policy: not tunable
  ocl::CpuDevice dev{cfg};
  ocl::Context ctx{dev};
  ocl::CommandQueue q{ctx};

  constexpr std::size_t kN = 1024;
  std::vector<float> host(kN, 2.0f);
  ocl::Buffer in(ocl::MemFlags::ReadOnly | ocl::MemFlags::CopyHostPtr,
                 kN * sizeof(float), host.data());
  ocl::Buffer out(ocl::MemFlags::ReadWrite, kN * sizeof(float));
  ocl::Kernel kernel(ocl::Program::builtin().lookup(apps::kSquareKernel));
  kernel.set_arg(0, in);
  kernel.set_arg(1, out);
  q.enqueue_ndrange(kernel, ocl::NDRange{kN});
  EXPECT_EQ(t.stats().decisions, 0u);
}

// ----- env + CL extension --------------------------------------------------

TEST(TuneMode, EnvParsing) {
  ::setenv("MCL_TUNE", "seed", 1);
  EXPECT_EQ(mode_from_env(), Mode::Seed);
  ::setenv("MCL_TUNE", "online", 1);
  EXPECT_EQ(mode_from_env(), Mode::Online);
  ::setenv("MCL_TUNE", "1", 1);
  EXPECT_EQ(mode_from_env(), Mode::Online);
  ::setenv("MCL_TUNE", "banana", 1);
  EXPECT_EQ(mode_from_env(), Mode::Off);
  ::unsetenv("MCL_TUNE");
  EXPECT_EQ(mode_from_env(), Mode::Off);
}

// Regression: enabled() must resolve MCL_TUNE itself. The env parse used to
// live only in the Tuner constructor, which is reached via instance() — but
// the launch path consults enabled() *before* ever constructing the tuner,
// so `MCL_TUNE=online <binary>` was a silent no-op.
TEST(TuneMode, EnvVarActivatesEnabledWithoutTouchingTheSingleton) {
  TunerGuard guard;
  ::setenv("MCL_TUNE", "online", 1);
  detail::g_mode.store(detail::kModeUnset, std::memory_order_relaxed);
  EXPECT_TRUE(enabled());  // lazy env resolve, no instance() involved
  EXPECT_EQ(Tuner::instance().mode(), Mode::Online);
  ::unsetenv("MCL_TUNE");

  // A mode published before the first query beats the environment default.
  detail::g_mode.store(detail::kModeUnset, std::memory_order_relaxed);
  ::setenv("MCL_TUNE", "online", 1);
  Tuner::instance().set_mode(Mode::Off);
  EXPECT_FALSE(enabled());
  ::unsetenv("MCL_TUNE");
}

TEST(TuneClExt, SetTuningAndQueryConfig) {
  TunerGuard guard;
  EXPECT_EQ(clSetTuningModeMCL(CL_TUNE_SEED_MCL), CL_SUCCESS);
  EXPECT_EQ(Tuner::instance().mode(), Mode::Seed);
  EXPECT_EQ(clSetTuningModeMCL(7), CL_INVALID_VALUE);
  EXPECT_EQ(Tuner::instance().mode(), Mode::Seed);

  cl_platform_id platform = nullptr;
  cl_device_id device = nullptr;
  ASSERT_EQ(clGetPlatformIDs(1, &platform, nullptr), CL_SUCCESS);
  ASSERT_EQ(clGetDeviceIDs(platform, CL_DEVICE_TYPE_CPU, 1, &device, nullptr),
            CL_SUCCESS);
  cl_int err = CL_SUCCESS;
  cl_context ctx = clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  const char* src =
      "__kernel void square(__global const float* in, __global float* out) "
      "{ }";
  cl_program program = clCreateProgramWithSource(ctx, 1, &src, nullptr, &err);
  ASSERT_EQ(err, CL_SUCCESS);
  ASSERT_EQ(clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr),
            CL_SUCCESS);
  cl_kernel kernel = clCreateKernel(program, "square", &err);
  ASSERT_EQ(err, CL_SUCCESS);

  const std::size_t global[1] = {4096};
  cl_tuned_config_mcl cfg{};
  ASSERT_EQ(clGetKernelTunedConfigMCL(kernel, device, 1, global, &cfg),
            CL_SUCCESS);
  EXPECT_GT(cfg.chunk_divisor, 0u);
  EXPECT_GE(cfg.executor, 0);
  EXPECT_LE(cfg.executor, 3);
  if (cfg.work_dim != 0) {
    ASSERT_EQ(cfg.work_dim, 1u);
    EXPECT_EQ(global[0] % cfg.local_size[0], 0u);
  }

  // The query is keyed on the device's compute units, like the launch path.
  cl_uint units = 0;
  ASSERT_EQ(clGetDeviceInfo(device, CL_DEVICE_MAX_COMPUTE_UNITS, sizeof(units),
                            &units, nullptr),
            CL_SUCCESS);
  const std::optional<TunedConfig> want = Tuner::instance().tuned_config(
      ocl::Program::builtin().lookup("square"), ocl::NDRange{global[0]},
      ocl::NDRange{}, false, units);
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(cfg.chunk_divisor, want->chunk_divisor);
  EXPECT_EQ(cfg.work_dim, want->local.dims);
  EXPECT_EQ(cfg.prefer_map == CL_TRUE, want->prefer_map);

  EXPECT_EQ(clSetTuningModeMCL(CL_TUNE_OFF_MCL), CL_SUCCESS);
  EXPECT_EQ(Tuner::instance().mode(), Mode::Off);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  clReleaseContext(ctx);
}

// ----- multi-tenant sharing (mclserve integration) -------------------------

TEST(TuneShare, SameShapeFromTwoClientsSharesOneEntry) {
  TunerGuard guard;
  Tuner& t = Tuner::instance();
  t.set_mode(Mode::Online);
  const ocl::KernelDef def = synthetic_def("tune.test.shared");
  const ocl::NDRange global{4096};

  // Two "tenants" (threads) race decide/report on the same shape. The tuner
  // is process-global, so they must converge onto ONE entry, not two.
  std::vector<std::thread> tenants;
  for (int w = 0; w < 2; ++w) {
    tenants.emplace_back([&] {
      for (int i = 0; i < 60; ++i) {
        auto d = t.decide(def, global, ocl::NDRange{}, false, 4);
        if (!d) break;
        t.report(*d, d->candidate == 0 ? 0.001 : 0.010);
      }
    });
  }
  for (std::thread& w : tenants) w.join();
  EXPECT_EQ(t.entry_count(def.name), 1u);
  EXPECT_TRUE(t.converged(def.name, global, ocl::NDRange{}, 4));
}

}  // namespace
}  // namespace mcl::tune
