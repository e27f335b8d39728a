// End-to-end pipelines: miniature versions of the paper's experiments wired
// through the public API exactly the way the bench binaries do, asserting
// the qualitative outcomes the paper reports.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <vector>

#include "apps/hostdata.hpp"
#include "apps/mbench.hpp"
#include "apps/simple.hpp"
#include "cachesim/hierarchy.hpp"
#include "core/advisor.hpp"
#include "testseed.hpp"
#include "core/harness.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "ompx/ompx.hpp"
#include "simd/vec.hpp"
#include "veclegal/analysis.hpp"

// Timing-ratio assertions are meaningless under sanitizer instrumentation
// (ASan skews scalar vs SIMD paths differently); skip them there.
#if defined(__SANITIZE_ADDRESS__)
#define MCL_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MCL_UNDER_ASAN 1
#endif
#endif
#ifndef MCL_UNDER_ASAN
#define MCL_UNDER_ASAN 0
#endif

namespace mcl {
namespace {

using apps::FloatVec;
using apps::random_floats;
using ocl::Buffer;
using ocl::CommandQueue;
using ocl::Context;
using ocl::Event;
using ocl::Kernel;
using ocl::MemFlags;
using ocl::NDRange;
using ocl::Program;

/// Interleaved repeated medians for the wall-clock shape tests: the two arms
/// run alternately for kRounds rounds, each round one short measurement per
/// arm (which arm goes first alternates too), and the medians of the
/// per-round times are compared. Host drift or a neighbour's burst then
/// lands on both arms alike instead of skewing one.
struct ArmMedians {
  double a = 0.0;
  double b = 0.0;
};

ArmMedians interleaved_medians(const std::function<double()>& arm_a,
                               const std::function<double()>& arm_b) {
  constexpr int kRounds = 9;
  std::vector<double> a, b;
  for (int r = 0; r < kRounds; ++r) {
    if (r % 2 == 0) {
      a.push_back(arm_a());
      b.push_back(arm_b());
    } else {
      b.push_back(arm_b());
      a.push_back(arm_a());
    }
  }
  return {core::summarize(a).median, core::summarize(b).median};
}

constexpr core::MeasureOptions kRoundOptions{
    .min_time = 0.02, .warmup_iters = 1, .min_iters = 3};

TEST(Integration, WorkitemCoalescingSpeedsUpCpu) {
  // Fig 1 mechanism at test scale: 100x fewer, 100x fatter workitems must
  // not be slower (in practice: substantially faster) than one-item
  // workitems for Square.
  if (MCL_UNDER_ASAN) GTEST_SKIP() << "timing ratio not meaningful under ASan";
  ocl::CpuDevice device;
  Context ctx(device);
  CommandQueue q(ctx);
  const std::size_t n = 1 << 18;
  const FloatVec in = random_floats(n, mcl::test::seed(1));
  Buffer bin(MemFlags::ReadOnly | MemFlags::CopyHostPtr, n * 4,
             const_cast<float*>(in.data()));
  Buffer bout(MemFlags::WriteOnly, n * 4);

  auto time_with = [&](unsigned per_item) {
    Kernel k = ctx.create_kernel(Program::builtin(),
                                 per_item == 1 ? apps::kSquareKernel
                                               : apps::kSquareCoalescedKernel);
    k.set_arg(0, bin);
    k.set_arg(1, bout);
    if (per_item != 1) k.set_arg(2, per_item);
    const core::Measurement m = core::measure_reported(
        [&] {
          return q.enqueue_ndrange(k, NDRange{n / per_item}, NDRange{}).seconds;
        },
        kRoundOptions);
    return m.per_iter_s;
  };
  const ArmMedians t =
      interleaved_medians([&] { return time_with(1); },
                          [&] { return time_with(100); });
  EXPECT_LT(t.b, t.a * 1.05)
      << "coalescing must not hurt; base=" << t.a << " coal=" << t.b;
}

TEST(Integration, GpuSeriesCollapsesUnderCoalescing) {
  // Fig 1 GPU series: same experiment on the simulated GPU inverts.
  ocl::Platform platform;
  Context ctx(platform.gpu());
  CommandQueue q(ctx);
  const std::size_t n = 1 << 20;
  Buffer bin(MemFlags::ReadWrite, n * 4);
  Buffer bout(MemFlags::ReadWrite, n * 4);

  auto sim_time = [&](unsigned per_item) {
    Kernel k = ctx.create_kernel(Program::builtin(),
                                 per_item == 1 ? apps::kSquareKernel
                                               : apps::kSquareCoalescedKernel);
    k.set_arg(0, bin);
    k.set_arg(1, bout);
    if (per_item != 1) k.set_arg(2, per_item);
    const Event ev = q.enqueue_ndrange(k, NDRange{n / per_item}, NDRange{256});
    EXPECT_TRUE(ev.launch.simulated);
    return ev.seconds;
  };
  EXPECT_GT(sim_time(1024), 2.0 * sim_time(1));
}

TEST(Integration, MapBeatsCopyOnCpuDevice) {
  // Fig 7 mechanism: application throughput with map vs. explicit copy.
  ocl::CpuDevice device;
  Context ctx(device);
  CommandQueue q(ctx);
  const std::size_t n = 1 << 22;  // 16 MB buffers make copies visible
  FloatVec host(n, 1.5f);
  Buffer buf(MemFlags::ReadWrite, n * 4);

  const ArmMedians t = interleaved_medians(
      [&] {
        return core::measure(
                   [&] {
                     (void)q.enqueue_write_buffer(buf, 0, n * 4, host.data());
                   },
                   kRoundOptions)
            .per_iter_s;
      },
      [&] {
        return core::measure(
                   [&] {
                     void* p = q.enqueue_map_buffer(buf, ocl::MapFlags::Write,
                                                    0, n * 4);
                     static_cast<float*>(p)[0] = 1.0f;  // touch
                     (void)q.enqueue_unmap(buf, p);
                   },
                   kRoundOptions)
            .per_iter_s;
      });
  EXPECT_LT(t.b * 3.0, t.a)
      << "mapping must be much cheaper than copying 16 MB; copy=" << t.a
      << " map=" << t.b;
}

TEST(Integration, AffinityAlignedBeatsMisaligned) {
  // Fig 9 on the cache simulator: vector-add then dependent vector-multiply
  // distributed over 8 cores; misaligned mapping reads remote data.
  const int cores = 8;
  const std::size_t n = 1 << 16;  // floats
  const std::uint64_t base_b = 0x100000, base_c = 0x200000, base_d = 0x300000;

  auto run_phase2 = [&](cachesim::Machine& m, bool aligned) {
    // Phase 1: c[i] = a[i] + b[i]; core owns contiguous slice.
    const std::size_t slice = n / cores;
    for (int c = 0; c < cores; ++c) {
      for (std::size_t i = c * slice; i < (c + 1) * slice; ++i) {
        m.access(c, base_b + i * 4, 4, false);
        m.access(c, base_c + i * 4, 4, true);
      }
    }
    m.reset_cycles();
    // Phase 2: d[i] = c[i] * b[i]; aligned keeps the slice, misaligned
    // shifts ownership by one core.
    for (int c = 0; c < cores; ++c) {
      const int owner = aligned ? c : (c + 1) % cores;
      for (std::size_t i = owner * slice; i < (owner + 1) * slice; ++i) {
        m.access(c, base_c + i * 4, 4, false);
        m.access(c, base_d + i * 4, 4, true);
      }
    }
    return m.makespan_cycles();
  };
  cachesim::Machine aligned(cachesim::MachineConfig::xeon_e5645(cores));
  cachesim::Machine misaligned(cachesim::MachineConfig::xeon_e5645(cores));
  const auto t_aligned = run_phase2(aligned, true);
  const auto t_misaligned = run_phase2(misaligned, false);
  EXPECT_GT(static_cast<double>(t_misaligned),
            1.05 * static_cast<double>(t_aligned));
}

TEST(Integration, VectorizationPolicyPipeline) {
  // Fig 10 mechanism: for MBench2 the loop model must fall back to scalar
  // while the SPMD model vectorizes; both paths still agree numerically with
  // the scalar reference.
  const apps::MBenchInfo& mb = apps::all_mbenches()[1];  // MBench2
  const veclegal::Verdict loop_v = veclegal::analyze(mb.ir, veclegal::Model::Loop);
  const veclegal::Verdict spmd_v = veclegal::analyze(mb.ir, veclegal::Model::Spmd);
  ASSERT_FALSE(loop_v.vectorizable);
  ASSERT_TRUE(spmd_v.vectorizable);

  const std::size_t n = 4096;
  FloatVec a_omp = random_floats(3 * n + 1, mcl::test::seed(7), 0.5f, 1.5f);
  FloatVec a_ocl = a_omp;
  const FloatVec b = random_floats(n, mcl::test::seed(8), 0.5f, 1.5f);
  FloatVec c(2 * n, 0.0f);

  // OpenMP path: runs the loop body the legality verdict allows (scalar).
  ompx::Team team(ompx::TeamOptions{.threads = 2});
  apps::MBenchData d{a_omp.data(), b.data(), c.data(), 1.5f, n};
  const apps::LoopFn body = loop_v.vectorizable ? mb.loop_simd : mb.loop_scalar;
  team.parallel_for_ranges(0, n, [&](std::size_t lo, std::size_t hi) {
    body(d, lo, hi);
  });

  // OpenCL path: SPMD-vectorized kernel.
  ocl::CpuDevice device;
  Context ctx(device);
  CommandQueue q(ctx);
  Buffer ba(MemFlags::ReadWrite | MemFlags::UseHostPtr, a_ocl.size() * 4,
            a_ocl.data());
  Buffer bb(MemFlags::ReadOnly | MemFlags::CopyHostPtr, n * 4,
            const_cast<float*>(b.data()));
  Buffer bc(MemFlags::ReadWrite, 2 * n * 4);
  Kernel k = ctx.create_kernel(Program::builtin(), mb.kernel);
  k.set_arg(0, ba);
  k.set_arg(1, bb);
  k.set_arg(2, bc);
  k.set_arg(3, 1.5f);
  const Event ev = q.enqueue_ndrange(k, NDRange{n}, NDRange{64});
  if (mcl::simd::kNativeFloatWidth > 1) {
    EXPECT_EQ(ev.launch.executor_used, ocl::ExecutorKind::Simd);
  }
  EXPECT_LT(apps::max_rel_diff({a_ocl.data(), n}, {a_omp.data(), n}), 1e-6);
}

TEST(Integration, AdvisorFlagsThePaperAntiPatterns) {
  // A "GPU-style" launch on a CPU: tiny workitems, tiny groups, ILP 1,
  // explicit copies — the advisor must reproduce the paper's checklist.
  advisor::LaunchProfile p;
  p.global_items = 1'000'000;
  p.local_items = 8;
  p.flops_per_item = 1;
  p.bytes_per_item = 12;
  p.ilp_chains = 1;
  p.uses_explicit_copy = true;
  p.device_is_cpu = true;
  p.cpu_logical_cores = 12;
  p.kernels_share_data = true;
  const auto advice = advisor::analyze(p);
  EXPECT_GE(advice.size(), 4u);
}

TEST(Integration, EveryRegisteredKernelAgreesAcrossDevices) {
  // Functional cross-check of the two devices over the elementwise kernels.
  ocl::Platform platform;
  const std::size_t n = 512;
  const FloatVec in = random_floats(n, mcl::test::seed(13), 0.1f, 2.0f);

  for (const char* name : {"square", "vectoradd"}) {
    auto run = [&](ocl::Device& dev) {
      Context ctx(dev);
      CommandQueue q(ctx);
      Buffer b1(MemFlags::ReadOnly | MemFlags::CopyHostPtr, n * 4,
                const_cast<float*>(in.data()));
      Buffer b2(MemFlags::ReadOnly | MemFlags::CopyHostPtr, n * 4,
                const_cast<float*>(in.data()));
      Buffer bout(MemFlags::WriteOnly, n * 4);
      Kernel k = ctx.create_kernel(Program::builtin(), name);
      k.set_arg(0, b1);
      if (std::string(name) == "vectoradd") {
        k.set_arg(1, b2);
        k.set_arg(2, bout);
      } else {
        k.set_arg(1, bout);
      }
      (void)q.enqueue_ndrange(k, NDRange{n}, NDRange{64});
      std::vector<float> out(n);
      (void)q.enqueue_read_buffer(bout, 0, n * 4, out.data());
      return out;
    };
    EXPECT_EQ(run(platform.cpu()), run(platform.gpu())) << name;
  }
}

}  // namespace
}  // namespace mcl
