// Event-graph executor tests: out-of-order independence, cross-queue wait
// edges, error propagation, markers/barriers, profiling timestamps, and
// multi-threaded enqueue/finish stress (run under ASan and TSan tiers).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <CL/cl.h>

#include "ocl/queue.hpp"

namespace mcl::ocl {
namespace {

// ----- test kernels ------------------------------------------------------------

/// Host-controlled gate: spins (bounded) until the test releases it. Runs on
/// a dedicated gate device so it never holds the main device's launch lock.
std::atomic<int> g_gate{0};

void gate_spin(const KernelArgs& a, const WorkItemCtx&) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (g_gate.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  a.buffer<int>(0)[0] = g_gate.load(std::memory_order_acquire);
}
const KernelRegistrar reg_gate{{.name = "qa_gate_spin", .scalar = &gate_spin}};

void double_fn(const KernelArgs& a, const WorkItemCtx& c) {
  const std::size_t i = c.global_id(0);
  a.buffer<float>(1)[i] = 2.0f * a.buffer<float>(0)[i];
}
const KernelRegistrar reg_double{{.name = "qa_double", .scalar = &double_fn}};

/// Writes its output, then throws core::Error(kKernelFault) from workgroup 5
/// (global id 80 with local 16): the kernel's own failure, not a launch
/// validation error. Each group dwells ~200 us so every participant of a
/// pooled launch is busy inside a group when the fault fires.
constexpr core::Status kKernelFault = core::Status::OutOfResources;
void throw_fn(const KernelArgs& a, const WorkItemCtx& c) {
  a.buffer<float>(0)[c.global_id(0)] = 1.0f;
  if (c.local_id(0) == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (c.global_id(0) == 80) throw core::Error(kKernelFault, "workgroup fault");
}
const KernelRegistrar reg_throw{{.name = "qa_throw", .scalar = &throw_fn}};

/// Closes the gate on construction and guarantees it opens again even if a
/// test bails early (queues drain in destructors and must not time out).
struct GateGuard {
  GateGuard() { g_gate.store(0, std::memory_order_release); }
  ~GateGuard() { g_gate.store(1, std::memory_order_release); }
  void release() { g_gate.store(1, std::memory_order_release); }
};

void expect_monotonic(const ProfilingInfo& p) {
  EXPECT_GT(p.queued_ns, 0u);
  EXPECT_LE(p.queued_ns, p.submitted_ns);
  EXPECT_LE(p.submitted_ns, p.started_ns);
  EXPECT_LE(p.started_ns, p.ended_ns);
}

/// A gate-blocked event from a throwaway queue on its own device. The
/// returned event cannot complete until the gate is released.
struct GateFixture {
  CpuDevice dev{CpuDeviceConfig{.threads = 1}};
  Context ctx{dev};
  CommandQueue queue{ctx};
  Buffer out{MemFlags::ReadWrite, sizeof(int)};
  Kernel kernel{ctx.create_kernel(Program::builtin(), "qa_gate_spin")};

  AsyncEventPtr launch() {
    kernel.set_arg(0, out);
    return queue.enqueue_ndrange_async(kernel, NDRange{1}, NDRange{1});
  }
};

// ----- out-of-order independence ------------------------------------------------

TEST(QueueAsync, OutOfOrderIndependentCommandsCompleteEitherOrder) {
  GateFixture gate;
  GateGuard guard;
  const AsyncEventPtr gate_ev = gate.launch();

  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue q(ctx, QueueProperties::OutOfOrder);
  const std::size_t n = 1024;
  Buffer ba(MemFlags::ReadWrite, n * 4);
  Buffer bb(MemFlags::ReadWrite, n * 4);
  std::vector<float> ha(n, 1.0f), hb(n, 2.0f);

  // First-enqueued command is held back by the gate; the second has no
  // dependencies. On an in-order queue b could never finish first.
  const AsyncEventPtr a =
      q.enqueue_write_buffer_async(ba, 0, n * 4, ha.data(), {gate_ev});
  const AsyncEventPtr b = q.enqueue_write_buffer_async(bb, 0, n * 4, hb.data());
  b->wait();
  EXPECT_FALSE(a->complete());
  EXPECT_EQ(a->state(), CommandState::Queued);

  guard.release();
  a->wait();
  EXPECT_EQ(a->state(), CommandState::Complete);
  EXPECT_EQ(ba.as<float>()[0], 1.0f);
  EXPECT_EQ(bb.as<float>()[0], 2.0f);
  // The later-enqueued command finished strictly before the earlier one ran.
  EXPECT_LE(b->profiling_ns().ended_ns, a->profiling_ns().started_ns);
  q.finish();
}

TEST(QueueAsync, OutOfOrderKernelsCompleteInReverseEnqueueOrder) {
  GateFixture gate;
  GateGuard guard;
  const AsyncEventPtr gate_ev = gate.launch();

  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue q(ctx, QueueProperties::OutOfOrder);
  const std::size_t n = 256;
  Buffer in(MemFlags::ReadWrite, n * 4);
  Buffer out1(MemFlags::ReadWrite, n * 4);
  Buffer out2(MemFlags::ReadWrite, n * 4);
  for (std::size_t i = 0; i < n; ++i) in.as<float>()[i] = 3.0f;

  Kernel k1 = ctx.create_kernel(Program::builtin(), "qa_double");
  k1.set_arg(0, in);
  k1.set_arg(1, out1);
  Kernel k2 = ctx.create_kernel(Program::builtin(), "qa_double");
  k2.set_arg(0, in);
  k2.set_arg(1, out2);

  const AsyncEventPtr first =
      q.enqueue_ndrange_async(k1, NDRange{n}, NDRange{64}, {gate_ev});
  const AsyncEventPtr second = q.enqueue_ndrange_async(k2, NDRange{n}, NDRange{64});
  second->wait();
  EXPECT_FALSE(first->complete());
  guard.release();
  first->wait();
  EXPECT_EQ(out1.as<float>()[n - 1], 6.0f);
  EXPECT_EQ(out2.as<float>()[n - 1], 6.0f);
  EXPECT_LE(second->profiling_ns().ended_ns, first->profiling_ns().started_ns);
}

TEST(QueueAsync, InOrderQueueStillChainsImplicitly) {
  GateFixture gate;
  GateGuard guard;
  const AsyncEventPtr gate_ev = gate.launch();

  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);  // default: in-order
  Buffer b(MemFlags::ReadWrite, 64);
  std::vector<char> h1(64, 1), h2(64, 2);

  const AsyncEventPtr a =
      q.enqueue_write_buffer_async(b, 0, 64, h1.data(), {gate_ev});
  const AsyncEventPtr c = q.enqueue_write_buffer_async(b, 0, 64, h2.data());
  // The implicit in-order edge holds c back while a waits on the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(c->complete());
  guard.release();
  c->wait();
  EXPECT_GE(c->profiling_ns().started_ns, a->profiling_ns().ended_ns);
  EXPECT_EQ(b.as<char>()[0], 2);
}

// A blocking call is a node of the same graph: on an in-order queue it
// waits for the gated write enqueued ahead of it, however late the gate
// opens.
TEST(QueueAsync, BlockingCallWaitsForInOrderPredecessor) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);  // default: in-order
  std::vector<float> zeros(16, 0.0f), ones(16, 1.0f), out(16, -7.0f);
  Buffer b(MemFlags::ReadWrite | MemFlags::CopyHostPtr, 64, zeros.data());

  const AsyncEventPtr gate = AsyncEvent::create_user();
  const AsyncEventPtr write =
      q.enqueue_write_buffer_async(b, 0, 64, ones.data(), {gate});
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate->set_user_status(core::Status::Success);
  });
  (void)q.enqueue_read_buffer(b, 0, 64, out.data());
  opener.join();
  EXPECT_EQ(ones, out);
  EXPECT_TRUE(write->complete());
}

// ----- wait lists across queues -------------------------------------------------

TEST(QueueAsync, CrossQueueWaitEdgesHonored) {
  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue producer(ctx, QueueProperties::OutOfOrder);
  CommandQueue consumer(ctx, QueueProperties::OutOfOrder);
  const std::size_t n = 4096;
  Buffer b(MemFlags::ReadWrite, n * 4);
  std::vector<float> src(n, 7.0f), dst(n, 0.0f);

  const AsyncEventPtr w = producer.enqueue_write_buffer_async(b, 0, n * 4, src.data());
  const AsyncEventPtr r =
      consumer.enqueue_read_buffer_async(b, 0, n * 4, dst.data(), {w});
  r->wait();
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(dst[i], 7.0f);
  // The edge is visible in the timestamps: the consumer started only after
  // the producer ended.
  EXPECT_GE(r->profiling_ns().started_ns, w->profiling_ns().ended_ns);
}

// ----- error propagation --------------------------------------------------------

TEST(QueueAsync, ErrorPropagatesThroughExplicitDependents) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx, QueueProperties::OutOfOrder);
  const std::size_t n = 10;
  Buffer b(MemFlags::ReadWrite, n * 4);
  std::vector<float> host(n, 0.0f);
  Kernel k = ctx.create_kernel(Program::builtin(), "qa_double");
  k.set_arg(0, b);
  k.set_arg(1, b);

  // Indivisible local size: the command itself fails at execution.
  const AsyncEventPtr bad = q.enqueue_ndrange_async(k, NDRange{n}, NDRange{3});
  const AsyncEventPtr dep =
      q.enqueue_read_buffer_async(b, 0, n * 4, host.data(), {bad});
  const AsyncEventPtr grand = q.enqueue_marker_async({dep});

  // Dependents must fail, not hang.
  EXPECT_THROW(bad->wait(), core::Error);
  EXPECT_THROW(dep->wait(), core::Error);
  EXPECT_THROW(grand->wait(), core::Error);
  EXPECT_NE(bad->status(), core::Status::Success);
  EXPECT_EQ(dep->status(), bad->status());
  EXPECT_EQ(grand->status(), bad->status());
  EXPECT_EQ(dep->state(), CommandState::Error);
  // Failed commands still report monotonic profiling timestamps.
  expect_monotonic(dep->profiling_ns());

  // The queue survives: later independent commands run normally.
  const AsyncEventPtr ok = q.enqueue_write_buffer_async(b, 0, n * 4, host.data());
  EXPECT_NO_THROW(ok->wait());
  q.finish();
}

// ----- markers and barriers -----------------------------------------------------

TEST(QueueAsync, MarkerWaitsForAllOutstandingCommands) {
  GateFixture gate;
  GateGuard guard;
  const AsyncEventPtr gate_ev = gate.launch();

  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx, QueueProperties::OutOfOrder);
  Buffer b(MemFlags::ReadWrite, 64);
  std::vector<char> h(64, 1);

  const AsyncEventPtr blocked =
      q.enqueue_write_buffer_async(b, 0, 64, h.data(), {gate_ev});
  const AsyncEventPtr free_cmd = q.enqueue_write_buffer_async(b, 0, 64, h.data());
  const AsyncEventPtr marker = q.enqueue_marker_async();
  free_cmd->wait();
  EXPECT_FALSE(marker->complete());  // still gated via `blocked`
  guard.release();
  marker->wait();
  EXPECT_GE(marker->profiling_ns().ended_ns,
            blocked->profiling_ns().ended_ns);
  EXPECT_EQ(marker->type(), CommandType::Marker);
}

TEST(QueueAsync, BarrierFencesSubsequentCommands) {
  GateFixture gate;
  GateGuard guard;
  const AsyncEventPtr gate_ev = gate.launch();

  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx, QueueProperties::OutOfOrder);
  Buffer b(MemFlags::ReadWrite, 64);
  std::vector<char> h1(64, 1), h2(64, 2);

  const AsyncEventPtr blocked =
      q.enqueue_write_buffer_async(b, 0, 64, h1.data(), {gate_ev});
  const AsyncEventPtr barrier = q.enqueue_barrier_async();
  // After the barrier: would be independent on an OutOfOrder queue, but the
  // barrier must order it behind `blocked`.
  const AsyncEventPtr after = q.enqueue_write_buffer_async(b, 0, 64, h2.data());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(barrier->complete());
  EXPECT_FALSE(after->complete());
  guard.release();
  after->wait();
  EXPECT_GE(barrier->profiling_ns().ended_ns, blocked->profiling_ns().ended_ns);
  EXPECT_GE(after->profiling_ns().started_ns, barrier->profiling_ns().ended_ns);
  EXPECT_EQ(b.as<char>()[0], 2);
  EXPECT_EQ(barrier->type(), CommandType::Barrier);
}

// ----- profiling ----------------------------------------------------------------

TEST(QueueAsync, ProfilingMonotonicForEveryCommandType) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  const std::size_t n = 512;
  Buffer b1(MemFlags::ReadWrite, n * 4);
  Buffer b2(MemFlags::ReadWrite, n * 4);
  std::vector<float> host(n, 1.5f);
  Kernel k = ctx.create_kernel(Program::builtin(), "qa_double");
  k.set_arg(0, b1);
  k.set_arg(1, b2);
  const std::uint32_t pattern = 0x2020;

  std::vector<AsyncEventPtr> events;
  events.push_back(q.enqueue_write_buffer_async(b1, 0, n * 4, host.data()));
  events.push_back(q.enqueue_ndrange_async(k, NDRange{n}, NDRange{64}));
  events.push_back(q.enqueue_copy_buffer_async(b2, b1, 0, 0, n * 4));
  events.push_back(q.enqueue_fill_buffer_async(b2, &pattern, 4, 0, n * 4));
  events.push_back(q.enqueue_read_buffer_async(b1, 0, n * 4, host.data()));
  events.push_back(q.enqueue_marker_async());
  events.push_back(q.enqueue_barrier_async());
  q.finish();

  const CommandType expected[] = {
      CommandType::WriteBuffer, CommandType::NDRangeKernel,
      CommandType::CopyBuffer,  CommandType::FillBuffer,
      CommandType::ReadBuffer,  CommandType::Marker,
      CommandType::Barrier,
  };
  std::uint64_t prev_end = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(events[i]->complete());
    EXPECT_EQ(events[i]->type(), expected[i]);
    const ProfilingInfo p = events[i]->profiling_ns();
    expect_monotonic(p);
    // In-order queue: command i started only after command i-1 ended.
    EXPECT_GE(p.started_ns, prev_end);
    prev_end = p.ended_ns;
  }
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(host[i], 3.0f);
}

TEST(QueueAsync, ProfilingUnavailableBeforeCompletion) {
  GateFixture gate;
  GateGuard guard;
  const AsyncEventPtr gate_ev = gate.launch();
  EXPECT_THROW((void)gate_ev->profiling_ns(), core::Error);
  guard.release();
  gate_ev->wait();
  EXPECT_NO_THROW((void)gate_ev->profiling_ns());
}

// ----- enqueue-time validation --------------------------------------------------

TEST(QueueAsync, EnqueueValidationFailsFast) {
  CpuDevice dev;
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 64);
  char tmp[64];
  // Invalid ranges throw at the enqueue call site, not at wait().
  EXPECT_THROW((void)q.enqueue_write_buffer_async(b, 0, 128, tmp), core::Error);
  EXPECT_THROW((void)q.enqueue_read_buffer_async(
                   b, std::size_t{0} - 8, 16, tmp),
               core::Error);
  const std::uint32_t pattern = 0xff;
  EXPECT_THROW((void)q.enqueue_fill_buffer_async(b, &pattern, 4, 2, 8),
               core::Error);
  // Zero-byte transfers are valid no-op commands that still produce events.
  const AsyncEventPtr z = q.enqueue_write_buffer_async(b, 0, 0, tmp);
  z->wait();
  EXPECT_EQ(z->state(), CommandState::Complete);
  expect_monotonic(z->profiling_ns());
  q.finish();
}

// ----- concurrency stress -------------------------------------------------------

TEST(QueueAsync, FinishDrainsUnderConcurrentEnqueue) {
  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue q(ctx, QueueProperties::OutOfOrder);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<Buffer> buffers;
  buffers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    buffers.emplace_back(MemFlags::ReadWrite, 256);
  }
  std::vector<std::vector<AsyncEventPtr>> events(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<char> h(256, static_cast<char>(t + 1));
      for (int i = 0; i < kPerThread; ++i) {
        // On an out-of-order queue overlapping writes need explicit edges;
        // chain this thread's writes so they never run concurrently.
        std::vector<AsyncEventPtr> deps;
        if (!events[t].empty()) deps.push_back(events[t].back());
        events[t].push_back(q.enqueue_write_buffer_async(
            buffers[t], 0, 256, h.data(), std::move(deps)));
      }
      // Host pointer h dies at thread exit: drain before leaving.
      for (const auto& ev : events[t]) ev->wait();
    });
  }
  // finish() racing the enqueuing threads must neither crash nor miss work.
  for (int i = 0; i < 20; ++i) q.finish();
  for (auto& th : threads) th.join();
  q.finish();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(static_cast<int>(events[t].size()), kPerThread);
    for (const auto& ev : events[t]) EXPECT_TRUE(ev->complete());
    EXPECT_EQ(buffers[t].as<char>()[0], static_cast<char>(t + 1));
  }
}

TEST(QueueAsync, StressChainedCommandsFourThreads) {
  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue q(ctx, QueueProperties::OutOfOrder);
  constexpr int kThreads = 4;
  constexpr int kIters = 40;
  constexpr std::size_t kBytes = 1024;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Buffer b1(MemFlags::ReadWrite, kBytes);
      Buffer b2(MemFlags::ReadWrite, kBytes);
      std::vector<char> src(kBytes), dst(kBytes);
      for (int i = 0; i < kIters; ++i) {
        const char tag = static_cast<char>((t * kIters + i) % 127 + 1);
        std::fill(src.begin(), src.end(), tag);
        const AsyncEventPtr w =
            q.enqueue_write_buffer_async(b1, 0, kBytes, src.data());
        const AsyncEventPtr c =
            q.enqueue_copy_buffer_async(b1, b2, 0, 0, kBytes, {w});
        const AsyncEventPtr r =
            q.enqueue_read_buffer_async(b2, 0, kBytes, dst.data(), {c});
        r->wait();
        for (std::size_t j = 0; j < kBytes; ++j) {
          if (dst[j] != tag) {
            failures.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        const ProfilingInfo pw = w->profiling_ns();
        const ProfilingInfo pc = c->profiling_ns();
        const ProfilingInfo pr = r->profiling_ns();
        if (!(pw.ended_ns <= pc.started_ns && pc.ended_ns <= pr.started_ns)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  q.finish();
  EXPECT_EQ(failures.load(), 0);
}

// ----- kernel failures ------------------------------------------------------------
// A kernel that throws from one workgroup must fail its command with the
// kernel's own Status on every CPU launch path — never unwind through the
// pool (SIGSEGV) or out of a pinned thread (std::terminate).

constexpr std::size_t kThrowItems = 256;

/// Enqueues qa_throw on `q` and expects the command to fail with the
/// kernel's Status; the queue stays usable afterwards.
void expect_kernel_fault(Context& ctx, CommandQueue& q) {
  Buffer out(MemFlags::ReadWrite, kThrowItems * sizeof(float));
  Kernel k = ctx.create_kernel(Program::builtin(), "qa_throw");
  k.set_arg(0, out);
  const AsyncEventPtr ev =
      q.enqueue_ndrange_async(k, NDRange{kThrowItems}, NDRange{16});
  EXPECT_THROW(ev->wait(), core::Error);
  EXPECT_EQ(ev->state(), CommandState::Error);
  EXPECT_EQ(ev->status(), kKernelFault);
  // The device is not wedged: its launch lock was released.
  Kernel ok = ctx.create_kernel(Program::builtin(), "qa_double");
  ok.set_arg(0, out);
  ok.set_arg(1, out);
  EXPECT_NO_THROW(q.enqueue_ndrange(ok, NDRange{kThrowItems}, NDRange{16}));
  q.finish();
}

TEST(QueueAsync, ThrowingKernelFailsPoolCommand) {
  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue q(ctx);
  expect_kernel_fault(ctx, q);
}

TEST(QueueAsync, ThrowingKernelFailsSubDeviceCommand) {
  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  const auto subs = dev.partition_equally(1);
  Context ctx(*subs[0]);
  CommandQueue q(ctx);
  expect_kernel_fault(ctx, q);
}

TEST(QueueAsync, ThrowingKernelFailsDispatchOrderCommand) {
  CpuDevice dev(CpuDeviceConfig{
      .threads = 1,
      .dispatch_order = [](std::size_t k, std::size_t total) {
        return total - 1 - k;
      }});
  Context ctx(dev);
  CommandQueue q(ctx);
  expect_kernel_fault(ctx, q);
}

TEST(QueueAsync, ThrowingKernelFailsPinnedCommand) {
  CpuDevice dev(CpuDeviceConfig{.threads = 1});
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer out(MemFlags::ReadWrite, kThrowItems * sizeof(float));
  Kernel k = ctx.create_kernel(Program::builtin(), "qa_throw");
  k.set_arg(0, out);
  // Two CPUs, alternating groups: the faulting group shares its thread with
  // others and the second thread runs concurrently.
  std::vector<int> cpus(kThrowItems / 16);
  for (std::size_t g = 0; g < cpus.size(); ++g) cpus[g] = static_cast<int>(g % 2);
  try {
    (void)q.enqueue_ndrange_pinned(k, NDRange{kThrowItems}, NDRange{16}, cpus);
    ADD_FAILURE() << "pinned launch of a throwing kernel succeeded";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.status(), kKernelFault);
  }
  q.finish();
}

TEST(QueueAsync, ThrowingKernelFailsClEnqueueNDRangeKernelEvent) {
  cl_platform_id platform = nullptr;
  cl_device_id device = nullptr;
  ASSERT_EQ(CL_SUCCESS, clGetPlatformIDs(1, &platform, nullptr));
  ASSERT_EQ(CL_SUCCESS, clGetDeviceIDs(platform, CL_DEVICE_TYPE_CPU, 1,
                                       &device, nullptr));
  cl_int err = CL_SUCCESS;
  cl_context context =
      clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  cl_command_queue queue = clCreateCommandQueue(context, device, 0, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  const char* src = "__kernel void qa_throw(__global float* out) {}\n";
  cl_program program =
      clCreateProgramWithSource(context, 1, &src, nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  ASSERT_EQ(CL_SUCCESS,
            clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr));
  cl_kernel kernel = clCreateKernel(program, "qa_throw", &err);
  ASSERT_EQ(CL_SUCCESS, err);
  cl_mem out = clCreateBuffer(context, CL_MEM_READ_WRITE,
                              kThrowItems * sizeof(float), nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  ASSERT_EQ(CL_SUCCESS, clSetKernelArg(kernel, 0, sizeof(cl_mem), &out));

  const size_t global = kThrowItems;
  const size_t local = 16;
  cl_event ev = nullptr;
  ASSERT_EQ(CL_SUCCESS, clEnqueueNDRangeKernel(queue, kernel, 1, nullptr,
                                               &global, &local, 0, nullptr,
                                               &ev));
  EXPECT_EQ(CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST,
            clWaitForEvents(1, &ev));
  cl_int status = CL_COMPLETE;
  ASSERT_EQ(CL_SUCCESS,
            clGetEventInfo(ev, CL_EVENT_COMMAND_EXECUTION_STATUS,
                           sizeof(status), &status, nullptr));
  EXPECT_LT(status, 0);
  EXPECT_EQ(CL_SUCCESS, clFinish(queue));

  clReleaseEvent(ev);
  clReleaseMemObject(out);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  clReleaseCommandQueue(queue);
  clReleaseContext(context);
}

}  // namespace
}  // namespace mcl::ocl

// ----- randomized wait-list DAG properties --------------------------------------
//
// Property tests over the event-graph executor: arbitrary acyclic wait-list
// topologies spread across out-of-order queues must always drain (no
// deadlock, no lost wakeup), and a failed dependency must surface its
// Status through every transitive dependent instead of hanging or being
// silently dropped. Seeded via MCL_TEST_SEED (printed on failure).

#include <memory>

#include "core/rng.hpp"
#include "testseed.hpp"

namespace mcl::ocl {
namespace {

TEST(QueueDagProperty, RandomTopologiesAlwaysDrain) {
  core::Rng rng(mcl::test::seed(0xDA6));
  for (int round = 0; round < 20; ++round) {
    CpuDevice dev(CpuDeviceConfig{.threads = 2});
    Context ctx(dev);
    const std::size_t nq = 1 + rng.next_below(3);
    std::vector<std::unique_ptr<CommandQueue>> queues;
    for (std::size_t i = 0; i < nq; ++i) {
      queues.push_back(
          std::make_unique<CommandQueue>(ctx, QueueProperties::OutOfOrder));
    }
    const std::size_t n = 64;
    // Each command owns its buffers and host staging area: the wait edges
    // are random, and two unordered commands touching shared memory would be
    // a genuine data race in the command bodies — the property under test is
    // that the graph drains, not that unordered access is safe (it isn't).
    struct CmdMem {
      Buffer in{MemFlags::ReadWrite, 64 * 4};
      Buffer out{MemFlags::ReadWrite, 64 * 4};
      std::vector<float> host = std::vector<float>(64, 1.0f);
    };
    std::vector<std::unique_ptr<CmdMem>> mem;

    std::vector<AsyncEventPtr> events;
    const std::size_t cmds = 8 + rng.next_below(17);
    for (std::size_t i = 0; i < cmds; ++i) {
      // Wait on up to three earlier events — earlier-only edges keep the
      // graph acyclic by construction, but edges freely cross queues.
      std::vector<AsyncEventPtr> waits;
      if (!events.empty()) {
        const std::size_t nw = rng.next_below(4);
        for (std::size_t w = 0; w < nw; ++w) {
          waits.push_back(events[rng.next_below(events.size())]);
        }
      }
      CommandQueue& q = *queues[rng.next_below(nq)];
      mem.push_back(std::make_unique<CmdMem>());
      CmdMem& m = *mem.back();
      switch (rng.next_below(4)) {
        case 0:
          events.push_back(q.enqueue_write_buffer_async(m.in, 0, n * 4,
                                                        m.host.data(), waits));
          break;
        case 1:
          events.push_back(q.enqueue_read_buffer_async(m.out, 0, n * 4,
                                                       m.host.data(), waits));
          break;
        case 2: {
          Kernel k = ctx.create_kernel(Program::builtin(), "qa_double");
          k.set_arg(0, m.in);
          k.set_arg(1, m.out);
          events.push_back(
              q.enqueue_ndrange_async(k, NDRange{n}, NDRange{8}, waits));
          break;
        }
        default:
          events.push_back(q.enqueue_marker_async(waits));
          break;
      }
    }
    for (auto& q : queues) q->finish();
    for (const AsyncEventPtr& e : events) {
      EXPECT_NO_THROW(e->wait()) << "round " << round;
      EXPECT_EQ(e->state(), CommandState::Complete) << "round " << round;
    }
  }
}

TEST(QueueDagProperty, FailedDependencyPropagatesThroughRandomDags) {
  core::Rng rng(mcl::test::seed(0xFA11));
  for (int round = 0; round < 10; ++round) {
    CpuDevice dev(CpuDeviceConfig{.threads = 2});
    Context ctx(dev);
    CommandQueue q(ctx, QueueProperties::OutOfOrder);
    const std::size_t n = 10;
    Buffer b(MemFlags::ReadWrite, n * 4);
    Kernel k = ctx.create_kernel(Program::builtin(), "qa_double");
    k.set_arg(0, b);
    k.set_arg(1, b);

    // As in RandomTopologiesAlwaysDrain: unordered commands must not share
    // memory, so every write gets a private buffer + host source.
    struct CmdMem {
      Buffer buf{MemFlags::ReadWrite, 10 * 4};
      std::vector<float> host = std::vector<float>(10, 0.0f);
    };
    std::vector<std::unique_ptr<CmdMem>> mem;

    std::vector<AsyncEventPtr> events;
    std::vector<bool> tainted;
    // One poisoned root: an indivisible local size that fails at execution.
    events.push_back(q.enqueue_ndrange_async(k, NDRange{n}, NDRange{3}));
    tainted.push_back(true);

    const std::size_t cmds = 6 + rng.next_below(11);
    for (std::size_t i = 0; i < cmds; ++i) {
      std::vector<AsyncEventPtr> waits;
      bool bad = false;
      const std::size_t nw = rng.next_below(3);
      for (std::size_t w = 0; w < nw; ++w) {
        const std::size_t pick = rng.next_below(events.size());
        waits.push_back(events[pick]);
        bad = bad || tainted[pick];
      }
      // Out-of-order queue: only the explicit wait list creates edges, so
      // `bad` exactly predicts whether the failure reaches this command.
      if (rng.next_below(2) == 0) {
        mem.push_back(std::make_unique<CmdMem>());
        CmdMem& m = *mem.back();
        events.push_back(
            q.enqueue_write_buffer_async(m.buf, 0, n * 4, m.host.data(), waits));
      } else {
        events.push_back(q.enqueue_marker_async(waits));
      }
      tainted.push_back(bad);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (tainted[i]) {
        EXPECT_THROW(events[i]->wait(), core::Error)
            << "round " << round << " event " << i;
        EXPECT_NE(events[i]->status(), core::Status::Success);
        EXPECT_EQ(events[i]->state(), CommandState::Error);
      } else {
        EXPECT_NO_THROW(events[i]->wait())
            << "round " << round << " event " << i;
        EXPECT_EQ(events[i]->status(), core::Status::Success);
      }
    }
    q.finish();
  }
}

// ----- zero-byte argument validation ---------------------------------------------

TEST(QueueAsync, ZeroByteTransfersStillValidateRanges) {
  CpuDevice dev(CpuDeviceConfig{.threads = 1});
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer a(MemFlags::ReadWrite, 64);
  Buffer b(MemFlags::ReadWrite, 64);
  std::vector<std::byte> host(64);
  const std::uint32_t pattern = 0;

  // An out-of-bounds offset is an API error regardless of transfer size; the
  // zero-byte fast path used to wave it through.
  EXPECT_THROW(q.enqueue_write_buffer_async(a, 128, 0, host.data()),
               core::Error);
  EXPECT_THROW(q.enqueue_read_buffer_async(a, 128, 0, host.data()),
               core::Error);
  EXPECT_THROW(q.enqueue_copy_buffer_async(a, b, 128, 0, 0), core::Error);
  EXPECT_THROW(q.enqueue_copy_buffer_async(a, b, 0, 128, 0), core::Error);
  EXPECT_THROW(q.enqueue_fill_buffer_async(a, &pattern, 4, 128, 0),
               core::Error);
  EXPECT_THROW(q.enqueue_write_buffer(a, 128, 0, host.data()), core::Error);
  EXPECT_THROW(q.enqueue_read_buffer(a, 128, 0, host.data()), core::Error);
  EXPECT_THROW(q.enqueue_copy_buffer(a, b, 128, 0, 0), core::Error);
  EXPECT_THROW(q.enqueue_fill_buffer(a, &pattern, 4, 128, 0), core::Error);

  // Null pointers fail the same way they do on the non-zero path.
  EXPECT_THROW(q.enqueue_write_buffer_async(a, 0, 0, nullptr), core::Error);
  EXPECT_THROW(q.enqueue_read_buffer_async(a, 0, 0, nullptr), core::Error);
  EXPECT_THROW(q.enqueue_write_buffer(a, 0, 0, nullptr), core::Error);
  EXPECT_THROW(q.enqueue_read_buffer(a, 0, 0, nullptr), core::Error);

  // Valid zero-byte transfers remain successful no-ops.
  q.enqueue_write_buffer_async(a, 64, 0, host.data())->wait();
  q.enqueue_read_buffer_async(a, 64, 0, host.data())->wait();
  q.enqueue_copy_buffer_async(a, b, 64, 64, 0)->wait();
  q.enqueue_fill_buffer_async(a, &pattern, 4, 64, 0)->wait();
  q.finish();
}

// ----- timed wait ----------------------------------------------------------------

TEST(QueueAsync, WaitForTimesOutThenSucceeds) {
  using namespace std::chrono_literals;
  GateFixture gate;
  GateGuard guard;
  const AsyncEventPtr ev = gate.launch();
  // Gate closed: the command cannot finish, so the timed wait must report
  // timeout (and must not cancel anything).
  EXPECT_FALSE(ev->wait_for(5ms));
  EXPECT_FALSE(ev->complete());
  guard.release();
  EXPECT_TRUE(ev->wait_for(5s));
  EXPECT_EQ(ev->state(), CommandState::Complete);
}

TEST(QueueAsync, WaitForRethrowsCommandError) {
  using namespace std::chrono_literals;
  CpuDevice dev(CpuDeviceConfig{.threads = 1});
  Context ctx(dev);
  CommandQueue q(ctx);
  Buffer b(MemFlags::ReadWrite, 40);
  Kernel k = ctx.create_kernel(Program::builtin(), "qa_double");
  k.set_arg(0, b);
  k.set_arg(1, b);
  // Indivisible local size: fails at execution, like the untimed wait tests.
  const AsyncEventPtr ev = q.enqueue_ndrange_async(k, NDRange{10}, NDRange{3});
  EXPECT_THROW((void)ev->wait_for(5s), core::Error);
  EXPECT_EQ(ev->state(), CommandState::Error);
}

// ----- user events ---------------------------------------------------------------

TEST(QueueAsync, UserEventGatesDependentsUntilSet) {
  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue q(ctx, QueueProperties::OutOfOrder);
  Buffer b(MemFlags::ReadWrite, 64);
  std::vector<std::byte> host(64);

  const AsyncEventPtr user = AsyncEvent::create_user();
  EXPECT_FALSE(user->complete());
  const AsyncEventPtr dep =
      q.enqueue_write_buffer_async(b, 0, 64, host.data(), {user});
  EXPECT_FALSE(dep->complete());

  user->set_user_status(core::Status::Success);
  dep->wait();
  EXPECT_EQ(dep->state(), CommandState::Complete);
  q.finish();
}

TEST(QueueAsync, UserEventFailurePropagatesItsStatus) {
  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue q(ctx, QueueProperties::OutOfOrder);
  Buffer b(MemFlags::ReadWrite, 64);
  std::vector<std::byte> host(64);

  const AsyncEventPtr user = AsyncEvent::create_user();
  const AsyncEventPtr dep =
      q.enqueue_write_buffer_async(b, 0, 64, host.data(), {user});
  user->set_user_status(core::Status::Cancelled);
  try {
    dep->wait();
    FAIL() << "expected propagated Cancelled";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.status(), core::Status::Cancelled);
  }
  EXPECT_EQ(dep->state(), CommandState::Error);
  EXPECT_EQ(dep->status(), core::Status::Cancelled);
  q.finish();
}

TEST(QueueAsync, UserEventMisuseThrows) {
  const AsyncEventPtr user = AsyncEvent::create_user();
  user->set_user_status(core::Status::Success);
  EXPECT_THROW(user->set_user_status(core::Status::Success), core::Error);

  CpuDevice dev(CpuDeviceConfig{.threads = 1});
  Context ctx(dev);
  CommandQueue q(ctx);
  const AsyncEventPtr marker = q.enqueue_marker_async();
  marker->wait();
  EXPECT_THROW(marker->set_user_status(core::Status::Success), core::Error);
  q.finish();
}

// ----- transitive finish() -------------------------------------------------------

TEST(QueueAsync, FinishDrainsContinuationReenqueuedWork) {
  GateFixture gate;
  GateGuard guard;
  const AsyncEventPtr gate_ev = gate.launch();

  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue q(ctx, QueueProperties::OutOfOrder);
  Buffer b(MemFlags::ReadWrite, 64);
  std::vector<std::byte> host(64);

  // first is held by the gate; its completion callback enqueues second,
  // whose callback enqueues third — the batching pattern mclserve uses.
  // finish() must drain the whole chain, not just what was outstanding when
  // the drain predicate was first evaluated.
  std::atomic<bool> chain_done{false};
  const AsyncEventPtr first =
      q.enqueue_write_buffer_async(b, 0, 64, host.data(), {gate_ev});
  first->on_complete([&](core::Status) {
    const AsyncEventPtr second =
        q.enqueue_write_buffer_async(b, 0, 64, host.data());
    second->on_complete([&](core::Status) {
      const AsyncEventPtr third = q.enqueue_marker_async();
      third->on_complete([&](core::Status) {
        chain_done.store(true, std::memory_order_release);
      });
    });
  });

  guard.release();
  q.finish();
  EXPECT_TRUE(chain_done.load(std::memory_order_acquire));
}

// Regression (mclobs PR): a timed-out waiter later observing completion must
// not double-run or drop continuations. Several waiters time out while the
// event is gated, callbacks are registered before the timeouts, between
// timeout and completion, and after terminal state — each must run exactly
// once, and finish() must return (callbacks_in_flight_ balanced) even though
// timed waits gave up on the event first. Runs under the TSan tier via the
// `queue` label.
TEST(QueueAsync, TimedOutWaiterThenCompletionRunsCallbacksOnce) {
  using namespace std::chrono_literals;
  CpuDevice dev(CpuDeviceConfig{.threads = 2});
  Context ctx(dev);
  CommandQueue q(ctx, QueueProperties::OutOfOrder);
  Buffer b(MemFlags::ReadWrite, 64);
  std::vector<std::byte> host(64);

  const AsyncEventPtr gate = AsyncEvent::create_user();
  const AsyncEventPtr ev =
      q.enqueue_write_buffer_async(b, 0, 64, host.data(), {gate});

  std::atomic<int> calls{0};
  ev->on_complete([&](core::Status s) {
    EXPECT_EQ(s, core::Status::Success);
    calls.fetch_add(1, std::memory_order_relaxed);
  });

  // Gate closed: every timed wait must report timeout without cancelling the
  // command or firing its callbacks.
  std::vector<std::thread> waiters;
  std::atomic<int> timeouts{0};
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      if (!ev->wait_for(2ms)) timeouts.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& t : waiters) t.join();
  EXPECT_EQ(timeouts.load(), 4);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_FALSE(ev->complete());

  // Register a second callback after the timeouts, then race completion
  // against fresh timed waiters (TSan: callback registration vs finalize).
  ev->on_complete(
      [&](core::Status) { calls.fetch_add(1, std::memory_order_relaxed); });
  std::thread releaser([&] { gate->set_user_status(core::Status::Success); });
  std::vector<std::thread> racers;
  for (int i = 0; i < 4; ++i) {
    racers.emplace_back([&] { (void)ev->wait_for(5s); });
  }
  releaser.join();
  for (auto& t : racers) t.join();
  EXPECT_TRUE(ev->wait_for(5s));
  EXPECT_EQ(ev->state(), CommandState::Complete);

  // Terminal event: late registration runs inline, exactly once.
  ev->on_complete(
      [&](core::Status) { calls.fetch_add(1, std::memory_order_relaxed); });
  // finish() waits for outstanding_ == 0 && callbacks_in_flight_ == 0; a
  // leaked in-flight count would hang here (and the 30s ctest timeout would
  // catch it).
  q.finish();
  EXPECT_EQ(calls.load(), 3);
}

TEST(QueueAsync, OnCompleteRunsInlineOnTerminalEvent) {
  CpuDevice dev(CpuDeviceConfig{.threads = 1});
  Context ctx(dev);
  CommandQueue q(ctx);
  const AsyncEventPtr marker = q.enqueue_marker_async();
  marker->wait();
  bool ran = false;
  marker->on_complete([&](core::Status s) {
    ran = true;
    EXPECT_EQ(s, core::Status::Success);
  });
  EXPECT_TRUE(ran);
  q.finish();
}

}  // namespace
}  // namespace mcl::ocl
