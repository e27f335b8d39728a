// mclverify tests: the __int128 interval domain, the collision solver, the
// uniformity fixpoint (and its S4 export into veclegal's SPMD legality),
// access-pattern/reuse classification (cross-checked against cachesim), the
// V1/V2 lint analyses, proof discharge against launch shapes, the
// KernelIrRegistry analysis cache, and the Checked executor's
// proof-carrying replay skip.
#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <vector>

#include "cachesim/cache.hpp"
#include "core/error.hpp"
#include "ocl/buffer.hpp"
#include "ocl/detail/checked_runner.hpp"
#include "ocl/kernel.hpp"
#include "ocl/types.hpp"
#include "san/static_analysis.hpp"
#include "veclegal/analysis.hpp"
#include "veclegal/kernel_ir.hpp"
#include "verify/interval.hpp"
#include "verify/verify.hpp"

namespace mcl {
namespace {

using veclegal::ArrayInfo;
using veclegal::assign_temp;
using veclegal::barrier_stmt;
using veclegal::guarded;
using veclegal::KernelIr;
using veclegal::KernelIrRegistry;
using veclegal::ref;
using veclegal::store;
using verify::Interval;
using verify::KernelFacts;
using verify::LaunchProof;
using verify::Pattern;
using verify::Reuse;
using verify::ShapeClass;
using verify::Uniformity;
using verify::Wide;

/// Scoped env var (restores by unsetting — tests never inherit these).
struct EnvGuard {
  const char* name;
  EnvGuard(const char* n, const char* value) : name(n) {
    ::setenv(n, value, 1);
  }
  ~EnvGuard() { ::unsetenv(name); }
};

// ---- interval domain ---------------------------------------------------------

// __int128 has no gtest printer, so Wide comparisons go through EXPECT_TRUE.
TEST(VerifyInterval, AffineCoversBothScaleSigns) {
  const Interval up = Interval::affine(3, 5, 0, 10);  // 3i+5, i in [0,10)
  EXPECT_TRUE(up.lo == 5);
  EXPECT_TRUE(up.hi == 32);
  const Interval down = Interval::affine(-2, 7, 0, 4);  // -2i+7, i in [0,4)
  EXPECT_TRUE(down.lo == 1);
  EXPECT_TRUE(down.hi == 7);
  const Interval shifted = Interval::affine(1, 0, 100, 8);  // i in [100,108)
  EXPECT_TRUE(shifted.lo == 100);
  EXPECT_TRUE(shifted.hi == 107);
}

TEST(VerifyInterval, WithinIsStrictUpperBound) {
  EXPECT_TRUE((Interval{0, 1023}.within(1024)));
  EXPECT_FALSE((Interval{0, 1024}.within(1024)));
  EXPECT_FALSE((Interval{-1, 5}.within(1024)));
  EXPECT_TRUE(Interval{}.within(0));  // empty interval: vacuously in bounds
}

TEST(VerifyInterval, NoOverflowAtLlongMaxAdjacentExtents) {
  // |scale| * count + offset near LLONG_MAX overflows long long; the Wide
  // domain must stay exact. 1*(i) + (LLONG_MAX-1024) for i in [0, 2048).
  const Interval iv = Interval::affine(1, LLONG_MAX - 1024, 0, 2048);
  EXPECT_TRUE(iv.lo == Wide(LLONG_MAX) - 1024);
  EXPECT_TRUE(iv.hi == Wide(LLONG_MAX) + 1023);  // exact, past long long
  EXPECT_FALSE(iv.within(LLONG_MAX));
  // The in-bounds sibling: i in [0, 1024) ends exactly at LLONG_MAX - 1.
  EXPECT_TRUE(Interval::affine(1, LLONG_MAX - 1024, 0, 1024).within(LLONG_MAX));
  // Huge negative scale: LLONG_MIN magnitude has no UB in wide_abs.
  EXPECT_TRUE(verify::wide_abs(Wide(LLONG_MIN)) == -(Wide(LLONG_MIN)));
  EXPECT_TRUE(verify::wide_gcd(Wide(LLONG_MIN), 3) == 1);
}

TEST(VerifyInterval, JoinAndRendering) {
  const Interval a{0, 3}, b{10, 20};
  const Interval j = a.join(b);
  EXPECT_TRUE(j.lo == 0);
  EXPECT_TRUE(j.hi == 20);
  EXPECT_TRUE(Interval{}.join(b).lo == 10);  // empty is the identity
  EXPECT_EQ((Interval{-5, 7}).to_string(), "[-5, 7]");
  EXPECT_EQ(verify::wide_str(Wide(LLONG_MAX) + 1), "9223372036854775808");
}

// ---- the shape-independent collision solver ---------------------------------

TEST(VerifyMayCollide, CoversScaleCombinations) {
  // n == 1: no distinct partner exists.
  EXPECT_FALSE(verify::may_collide({1, 0}, {1, 1}, 1));
  // Both pinned (scale 0): collide exactly when it is the same element.
  EXPECT_TRUE(verify::may_collide({0, 3}, {0, 3}, 16));
  EXPECT_FALSE(verify::may_collide({0, 3}, {0, 4}, 16));
  // Equal scales: distance must be stride-divisible and inside the range.
  EXPECT_TRUE(verify::may_collide({1, 0}, {1, 5}, 16));
  EXPECT_FALSE(verify::may_collide({1, 0}, {1, 5}, 5));
  EXPECT_FALSE(verify::may_collide({2, 0}, {2, 1}, 1024));  // parity
  // Unknown launch size (n = 0): any nonzero stride-divisible distance.
  EXPECT_TRUE(verify::may_collide({1, 0}, {1, 1 << 30}, 0));
  EXPECT_FALSE(verify::may_collide({1, 0}, {1, 0}, 0));  // distance 0 = self
  // Different scales, small space: exact Diophantine solve.
  EXPECT_TRUE(verify::may_collide({2, 0}, {3, 1}, 16));
  EXPECT_FALSE(verify::may_collide({2, 0}, {4, 1}, 16));  // parity mismatch
  // Negative strides.
  EXPECT_TRUE(verify::may_collide({-1, 15}, {1, 0}, 16));
  EXPECT_FALSE(verify::may_collide({-2, 0}, {-2, 1}, 1024));
}

// ---- uniformity dataflow + S4 export ----------------------------------------

/// t0 = uniform (scale-0 read of a read-only array), t1 = item-dependent
/// (scale-1 read); two guarded stores and a guarded barrier.
KernelIr guarded_ir(int barrier_guard) {
  KernelIr ir;
  ir.body.name = "verify_test_guarded";
  ir.body.trip_count = 64;
  ir.body.stmts.push_back(
      assign_temp(0, {ref(0, 0, 3)}, {}, "t0 = cfg[3]"));
  ir.body.stmts.push_back(assign_temp(1, {ref(0, 1, 0)}, {}, "t1 = cfg[i]"));
  ir.body.stmts.push_back(
      guarded(store(ref(1), {}, "if (t0) out[i] = 0"), 0));
  ir.body.stmts.push_back(
      guarded(store(ref(1), {ref(1)}, "if (t1) out[i] += 1"), 1));
  ir.body.stmts.push_back(
      guarded(barrier_stmt(false, "if (t?) barrier()"), barrier_guard));
  ir.arrays = {
      ArrayInfo{.array = 0, .arg_index = 0, .extent = 64, .read_only = true},
      ArrayInfo{.array = 1, .arg_index = 1, .extent = 64},
  };
  return ir;
}

TEST(VerifyUniformity, GuardTempsClassifiedThroughTheFixpoint) {
  const KernelFacts facts =
      verify::analyze("verify_test_guarded", guarded_ir(0));
  ASSERT_EQ(facts.stmt_uniform.size(), 5u);
  EXPECT_EQ(facts.stmt_uniform[0], Uniformity::Uniform);        // t0 def
  EXPECT_EQ(facts.stmt_uniform[1], Uniformity::Uniform);        // t1 def runs everywhere
  EXPECT_EQ(facts.stmt_uniform[2], Uniformity::Uniform);        // if (t0)
  EXPECT_EQ(facts.stmt_uniform[3], Uniformity::ItemDependent);  // if (t1)
  EXPECT_EQ(facts.stmt_uniform[4], Uniformity::Uniform);        // barrier
  EXPECT_FALSE(facts.barrier_divergence_possible);
  EXPECT_GE(facts.fixpoint_iterations, 1);

  // The same barrier guarded by the item-dependent temp diverges.
  const KernelFacts div = verify::analyze("verify_test_guarded", guarded_ir(1));
  EXPECT_EQ(div.stmt_uniform[4], Uniformity::ItemDependent);
  EXPECT_TRUE(div.barrier_divergence_possible);
}

TEST(VerifyUniformity, ReadOfWrittenArrayIsItemDependent) {
  // Even a scale-0 read is not uniform when another statement writes the
  // array: the read's value depends on which items already stored.
  KernelIr ir;
  ir.body.trip_count = 64;
  ir.body.stmts.push_back(store(ref(0), {}, "a[i] = 1"));
  ir.body.stmts.push_back(assign_temp(0, {ref(0, 0, 0)}, {}, "t0 = a[0]"));
  ir.body.stmts.push_back(guarded(store(ref(1), {}, "if (t0) b[i] = 2"), 0));
  ir.arrays = {ArrayInfo{.array = 0, .arg_index = 0, .extent = 64},
               ArrayInfo{.array = 1, .arg_index = 1, .extent = 64}};
  const KernelFacts facts = verify::analyze("verify_test_written_read", ir);
  EXPECT_EQ(facts.stmt_uniform[2], Uniformity::ItemDependent);
}

TEST(VerifyUniformity, S4ExportMakesUniformGuardedBarriersSpmdLegal) {
  const KernelIr ir = guarded_ir(0);
  const KernelFacts facts = verify::analyze("verify_test_guarded", ir);
  const std::vector<bool> guards = verify::uniform_guards(facts);

  // Without the proof bits the SPMD vectorizer must assume divergence (S4).
  veclegal::AnalysisOptions bare;
  EXPECT_FALSE(
      veclegal::analyze(ir.body, veclegal::Model::Spmd, bare).vectorizable);

  // With them, the uniform-guarded barrier is legal again.
  veclegal::AnalysisOptions with_proof;
  with_proof.uniform_guard = &guards;
  EXPECT_TRUE(veclegal::analyze(ir.body, veclegal::Model::Spmd, with_proof)
                  .vectorizable);

  // An item-dependent guard stays illegal even with the proof bits.
  const KernelIr div_ir = guarded_ir(1);
  const KernelFacts div_facts = verify::analyze("verify_test_guarded", div_ir);
  const std::vector<bool> div_guards = verify::uniform_guards(div_facts);
  veclegal::AnalysisOptions div_opts;
  div_opts.uniform_guard = &div_guards;
  EXPECT_FALSE(veclegal::analyze(div_ir.body, veclegal::Model::Spmd, div_opts)
                   .vectorizable);
}

// ---- access-pattern classification ------------------------------------------

TEST(VerifyPatterns, ClassifiesStrideFamilies) {
  KernelIr ir;
  ir.body.trip_count = 1024;
  // out[i] = a[i] + a[2i] + b[0]; c[3i] = b[0]
  ir.body.stmts.push_back(store(ref(3), {ref(0, 1, 0), ref(0, 2, 0),
                                         ref(1, 0, 0)},
                                "out[i] = a[i] + a[2i] + b[0]"));
  ir.body.stmts.push_back(store(ref(2, 3, 0), {ref(1, 0, 0)}, "c[3i] = b[0]"));
  ir.arrays = {ArrayInfo{.array = 0, .arg_index = 0, .extent = 4096,
                         .read_only = true},
               ArrayInfo{.array = 1, .arg_index = 1, .extent = 8,
                         .read_only = true},
               ArrayInfo{.array = 2, .arg_index = 2, .extent = 4096},
               ArrayInfo{.array = 3, .arg_index = 3, .extent = 1024}};
  const KernelFacts facts = verify::analyze("verify_test_patterns", ir);

  const verify::ArrayFacts* a = facts.array_facts(0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->read_pattern, Pattern::Gather);  // mixed strides 1 and 2
  EXPECT_EQ(a->write_pattern, Pattern::None);
  EXPECT_EQ(a->stride, 1);  // tightest nonzero |scale|

  const verify::ArrayFacts* b = facts.array_facts(1);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->read_pattern, Pattern::Broadcast);
  EXPECT_EQ(b->reuse, Reuse::Temporal);  // same element every item

  const verify::ArrayFacts* c = facts.array_facts(2);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->write_pattern, Pattern::Strided);
  EXPECT_EQ(c->stride, 3);

  const verify::ArrayFacts* out = facts.array_facts(3);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->write_pattern, Pattern::UnitStride);
  EXPECT_EQ(out->reuse, Reuse::Spatial);  // 4-byte elements share lines
  EXPECT_TRUE(out->race_free);
}

TEST(VerifyPatterns, ReuseClassesPredictCachesimMissRates) {
  // The reuse class is a cachesim prediction: run the classified access
  // stream through the L1 model and check the miss rate lands where the
  // class says. 4-byte elements, 64-byte lines (xeon_e5645 L1 geometry).
  const std::size_t n = 4096;
  auto miss_rate = [&](long long scale, long long offset) {
    cachesim::Cache l1(cachesim::CacheConfig{});  // 32 KiB, 64 B lines
    for (std::size_t i = 0; i < n; ++i) {
      l1.access(static_cast<std::uint64_t>(scale * static_cast<long long>(i) +
                                           offset) *
                4);
    }
    return l1.stats().miss_rate();
  };
  auto classify = [&](long long scale) {
    KernelIr ir;
    ir.body.trip_count = static_cast<long long>(n);
    ir.body.stmts.push_back(store(ref(1), {ref(0, scale, 0)}, "read"));
    ir.arrays = {ArrayInfo{.array = 0, .arg_index = 0,
                           .extent = 1 << 20, .read_only = true},
                 ArrayInfo{.array = 1, .arg_index = 1,
                           .extent = static_cast<long long>(n)}};
    const KernelFacts f = verify::analyze("verify_test_reuse", ir);
    return f.array_facts(0)->reuse;
  };

  // Unit stride -> Spatial: ~1 miss per 16-element line.
  EXPECT_EQ(classify(1), Reuse::Spatial);
  EXPECT_LT(miss_rate(1, 0), 0.10);
  // Stride 16 (64 bytes) -> None: a fresh line per access.
  EXPECT_EQ(classify(16), Reuse::None);
  EXPECT_GT(miss_rate(16, 0), 0.90);
  // Scale 0 -> Temporal: one compulsory miss amortized over every access.
  EXPECT_EQ(classify(0), Reuse::Temporal);
  EXPECT_LT(miss_rate(0, 0), 0.01);
}

// ---- V1 dead stores and V2 redundant barriers -------------------------------

TEST(VerifyLint, DeadStoreDetectedButGuardedOverwriteIsNot) {
  auto make = [](bool guard_second) {
    KernelIr ir;
    ir.body.trip_count = 64;
    ir.body.stmts.push_back(assign_temp(0, {ref(1, 1, 0)}, {}, "t0 = b[i]"));
    ir.body.stmts.push_back(store(ref(0), {}, "a[i] = 1"));
    veclegal::Stmt second = store(ref(0), {}, "a[i] = 2");
    if (guard_second) second = guarded(std::move(second), 0);
    ir.body.stmts.push_back(std::move(second));
    ir.arrays = {ArrayInfo{.array = 0, .arg_index = 0, .extent = 64},
                 ArrayInfo{.array = 1, .arg_index = 1, .extent = 64,
                           .read_only = true}};
    return ir;
  };
  // Unconditional identical-subscript overwrite: the first store is dead.
  const KernelFacts dead = verify::analyze("verify_test_dead", make(false));
  EXPECT_EQ(dead.dead_stores, std::vector<int>{1});
  // A guarded overwrite may not execute: the first store must stay alive.
  const KernelFacts live = verify::analyze("verify_test_dead", make(true));
  EXPECT_TRUE(live.dead_stores.empty());
}

TEST(VerifyLint, DeadStoreSurvivesWhenRead) {
  KernelIr ir;
  ir.body.trip_count = 64;
  ir.body.stmts.push_back(store(ref(0), {}, "a[i] = 1"));
  ir.body.stmts.push_back(assign_temp(0, {ref(0)}, {}, "t0 = a[i]"));
  ir.body.stmts.push_back(store(ref(0), {}, "a[i] = 2"));
  ir.arrays = {ArrayInfo{.array = 0, .arg_index = 0, .extent = 64}};
  EXPECT_TRUE(verify::analyze("verify_test_read", ir).dead_stores.empty());
}

TEST(VerifyLint, RedundantBarrierSeparatesNothing) {
  auto make = [](bool communicate) {
    KernelIr ir;
    ir.body.trip_count = 64;
    ir.body.stmts.push_back(store(ref(0), {}, "lm[i] = gid"));
    ir.body.stmts.push_back(barrier_stmt());
    ir.body.stmts.push_back(
        communicate
            ? store(ref(1), {ref(0, 1, 1)}, "out[i] = lm[i+1]")
            : store(ref(1), {ref(0)}, "out[i] = lm[i]"));
    ir.arrays = {ArrayInfo{.array = 0, .arg_index = 2, .extent = 65,
                           .local = true},
                 ArrayInfo{.array = 1, .arg_index = 0, .extent = 64}};
    return ir;
  };
  // Neighbor exchange: the barrier orders real communication — needed.
  EXPECT_TRUE(
      verify::analyze("verify_test_bar", make(true)).redundant_barriers.empty());
  // Same-subscript private use: nothing crosses the barrier — redundant.
  EXPECT_EQ(verify::analyze("verify_test_bar", make(false)).redundant_barriers,
            std::vector<int>{1});
}

// ---- proof discharge ---------------------------------------------------------

KernelIr provable_ir() {
  KernelIr ir;
  ir.body.name = "verify_test_provable";
  ir.body.stmts.push_back(
      store(ref(1), {ref(0, 1, 1)}, "out[i] = a[i+1]"));
  ir.arrays = {ArrayInfo{.array = 0, .arg_index = 0, .read_only = true},
               ArrayInfo{.array = 1, .arg_index = 1}};
  return ir;
}

ShapeClass shape_for(long long n, std::vector<long long> extents,
                     std::vector<bool> writable) {
  ShapeClass s;
  s.global0 = n;
  s.extents = std::move(extents);
  s.writable = std::move(writable);
  return s;
}

TEST(VerifyDischarge, BoundsRaceAndWritableGates) {
  const KernelFacts facts =
      verify::analyze("verify_test_provable", provable_ir());

  // a needs n+1 elements (read a[i+1]); out needs n, writable.
  const LaunchProof ok =
      verify::discharge(facts, shape_for(64, {65, 64}, {false, true}));
  EXPECT_TRUE(ok.all_proven());
  EXPECT_EQ(ok.accesses_covered, 2u);

  // Off-by-one extent: the read reaches index 64 of a 64-element array.
  const LaunchProof oob =
      verify::discharge(facts, shape_for(64, {64, 64}, {false, true}));
  EXPECT_FALSE(oob.array_proven[0]);
  EXPECT_TRUE(oob.array_proven[1]);

  // Written array bound read-only: the proof must refuse out.
  const LaunchProof ro =
      verify::discharge(facts, shape_for(64, {65, 64}, {false, false}));
  EXPECT_FALSE(ro.array_proven[1]);

  // Unresolvable extent (<= 0) is never proven.
  const LaunchProof unres =
      verify::discharge(facts, shape_for(64, {0, 64}, {false, true}));
  EXPECT_FALSE(unres.array_proven[0]);

  // A launch offset shifts the whole obligation.
  ShapeClass off = shape_for(64, {65, 64}, {false, true});
  off.offset0 = 100;
  const LaunchProof shifted = verify::discharge(facts, off);
  EXPECT_FALSE(shifted.array_proven[0]);  // reads reach a[164]
}

TEST(VerifyDischarge, RacyArraysAreNeverProven) {
  KernelIr ir;
  ir.body.stmts.push_back(store(ref(0, 0, 3), {}, "a[3] = 1"));  // all items
  ir.arrays = {ArrayInfo{.array = 0, .arg_index = 0, .extent = 64}};
  const KernelFacts facts = verify::analyze("verify_test_racy", ir);
  ASSERT_FALSE(facts.arrays.empty());
  EXPECT_FALSE(facts.arrays[0].race_free);
  const LaunchProof proof = verify::discharge(facts, shape_for(8, {64}, {true}));
  EXPECT_FALSE(proof.array_proven[0]);  // in bounds, but a write-write race
}

TEST(VerifyDischarge, InjectionHookAcceptsOnePastTheEnd) {
  const KernelFacts facts =
      verify::analyze("verify_test_provable", provable_ir());
  const ShapeClass boundary = shape_for(64, {64, 64}, {false, true});
  EXPECT_FALSE(verify::discharge(facts, boundary).array_proven[0]);
  {
    EnvGuard inject("MCL_CHECK_INJECT", "verify");
    ASSERT_TRUE(verify::inject_unsound());
    // hi == extent now (unsoundly) passes — what the soundness oracle catches.
    EXPECT_TRUE(verify::discharge(facts, boundary).array_proven[0]);
  }
  EXPECT_FALSE(verify::inject_unsound());
}

// ---- registry analysis cache -------------------------------------------------

TEST(VerifyRegistry, FactsMemoizedAndInvalidatedOnReRegistration) {
  auto& reg = KernelIrRegistry::instance();
  const std::string name = "verify_test_cache_kernel";
  reg.add(name, provable_ir());
  const std::uint64_t gen0 = reg.generation(name);

  const auto first = verify::facts_for(name);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(verify::facts_for(name).get(), first.get());  // served from cache

  // Re-registration must drop the cached record and bump the generation.
  reg.add(name, guarded_ir(0));
  EXPECT_EQ(reg.generation(name), gen0 + 1);
  const auto second = verify::facts_for(name);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second.get(), first.get());
  EXPECT_EQ(second->stmt_uniform.size(), 5u);  // the new IR's facts

  EXPECT_EQ(verify::facts_for("verify_test_never_registered"), nullptr);
}

TEST(VerifyRegistry, SanReportsMemoizedPerSolveLimit) {
  auto& reg = KernelIrRegistry::instance();
  const std::string name = "verify_test_cache_report";
  reg.add(name, provable_ir());
  const auto r1 = san::analyze_kernel_cached(name);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(san::analyze_kernel_cached(name).get(), r1.get());
  // A different exact_solve_limit is a different cache entry.
  san::StaticOptions small;
  small.exact_solve_limit = 8;
  EXPECT_NE(san::analyze_kernel_cached(name, small).get(), r1.get());
  // Re-registration invalidates the report too.
  reg.add(name, provable_ir());
  EXPECT_NE(san::analyze_kernel_cached(name).get(), r1.get());
}

// ---- proof-carrying launches through the Checked executor --------------------

struct SquareLaunch {
  ocl::KernelArgs args;
  ocl::Buffer in{ocl::MemFlags::ReadOnly, 256 * sizeof(float)};
  ocl::Buffer out{ocl::MemFlags::ReadWrite, 256 * sizeof(float)};
  SquareLaunch() {
    args.set_buffer(0, in);
    args.set_buffer(1, out);
  }
};

TEST(VerifyProofCarrying, CheckedRunnerSkipsProvenReplay) {
  const ocl::KernelDef& def = ocl::Program::builtin().lookup("square");
  SquareLaunch launch;
  ocl::detail::CheckedRunner runner(def, launch.args, ocl::NDRange(256),
                                    ocl::NDRange());
  runner.run();
  ASSERT_NE(runner.launch_proof(), nullptr);
  EXPECT_TRUE(runner.launch_proof()->all_proven());
  EXPECT_GT(runner.skipped_accesses(), 0u);
  EXPECT_EQ(runner.replayed_accesses(), 0u);  // the full-skip fast path
  EXPECT_TRUE(runner.flagged_arrays().empty());
}

TEST(VerifyProofCarrying, ForcedFullReplayStillExposesTheProof) {
  const ocl::KernelDef& def = ocl::Program::builtin().lookup("square");
  SquareLaunch launch;
  ocl::detail::CheckedRunner runner(def, launch.args, ocl::NDRange(256),
                                    ocl::NDRange());
  runner.set_force_full_replay(true);
  runner.run();
  ASSERT_NE(runner.launch_proof(), nullptr);  // the soundness ground truth
  EXPECT_TRUE(runner.launch_proof()->all_proven());
  EXPECT_EQ(runner.skipped_accesses(), 0u);
  EXPECT_GT(runner.replayed_accesses(), 0u);
}

TEST(VerifyProofCarrying, KillSwitchDisablesProofs) {
  EnvGuard off("MCL_VERIFY", "off");
  ASSERT_FALSE(verify::runtime_enabled());
  const ocl::KernelDef& def = ocl::Program::builtin().lookup("square");
  SquareLaunch launch;
  ocl::detail::CheckedRunner runner(def, launch.args, ocl::NDRange(256),
                                    ocl::NDRange());
  runner.run();
  EXPECT_EQ(runner.launch_proof(), nullptr);
  EXPECT_EQ(runner.skipped_accesses(), 0u);
  EXPECT_GT(runner.replayed_accesses(), 0u);
}

TEST(VerifyProofCarrying, UnprovenLaunchStillReplaysAndFlags) {
  // Bind the out buffer read-only: the proof must refuse the written array
  // and the replay must then catch the W1 write statically.
  const ocl::KernelDef& def = ocl::Program::builtin().lookup("square");
  ocl::KernelArgs args;
  ocl::Buffer in(ocl::MemFlags::ReadOnly, 256 * sizeof(float));
  ocl::Buffer out(ocl::MemFlags::ReadOnly, 256 * sizeof(float));
  args.set_buffer(0, in);
  args.set_buffer(1, out);
  ocl::detail::CheckedRunner runner(def, args, ocl::NDRange(256),
                                    ocl::NDRange());
  EXPECT_THROW(runner.run(), core::Error);
  ASSERT_NE(runner.launch_proof(), nullptr);
  EXPECT_FALSE(runner.launch_proof()->all_proven());
  EXPECT_GT(runner.replayed_accesses(), 0u);   // out's write is replayed
  EXPECT_GT(runner.skipped_accesses(), 0u);    // in's read is still proven
  EXPECT_EQ(runner.flagged_arrays().count(1), 1u);
}

}  // namespace
}  // namespace mcl
