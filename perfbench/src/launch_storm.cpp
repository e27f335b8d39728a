// launch-storm: one host thread on one in-order CL/cl.h queue issues a
// seeded stream of small square/vectoradd NDRanges (64-4096 items, local
// 64) and waits on each launch's event before issuing the next (closed loop,
// one client). Work-item work is tiny, so the cl, queue, device, pool and
// completion layers set the time.
//
// Its layer group replays the same launch sequence at each layer boundary
// (the cl -> queue -> device -> pool ladder), splits the cl launch with the
// public event-profiling timestamps, and measures instrumentation cost by
// replaying the sequence with each subsystem's public switch on and off.
#include <cstring>
#include <functional>

#include "apps/hostdata.hpp"
#include "apps/simple.hpp"
#include "clenv.hpp"
#include "core/rng.hpp"
#include "obs/obs.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "prof/profiler.hpp"
#include "threading/thread_pool.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

namespace ocl = mcl::ocl;

constexpr std::size_t kMaxItems = 4096;
constexpr std::size_t kLocal = 64;
constexpr std::size_t kSequence = 4096;  ///< launches before the stream repeats

struct Launch {
  bool vadd = false;
  std::size_t items = kLocal;
};

const char* const kSource =
    "__kernel void square(__global const float* in, __global float* out) {}\n"
    "__kernel void vectoradd(__global const float* a, __global const float* b,"
    " __global float* c) {}\n";

/// One timed cl.h launch with its event-profiling split.
struct ClSample {
  bool ok = false;     ///< the calls succeeded and the output is right
  bool wrong = false;  ///< the calls succeeded but the output is wrong
  std::uint64_t t0 = 0, t1 = 0, t2 = 0;  ///< call, enqueue return, wait return
  cl_ulong queued = 0, submitted = 0, started = 0, ended = 0;
};

class LaunchStorm final : public Workload {
 public:
  explicit LaunchStorm(const Options& opt) : opt_(opt) {}

  double setup() override {
    env_.reset();
    const std::uint64_t t0 = now_ns();
    a_ = mcl::apps::random_floats(kMaxItems, opt_.seed * 2 + 1, -2.0f, 2.0f);
    b_ = mcl::apps::random_floats(kMaxItems, opt_.seed * 2 + 2, -2.0f, 2.0f);
    out_.assign(kMaxItems, 0.0f);
    mcl::core::Rng rng(opt_.seed ^ 0x6c61756e6368ULL);
    seq_.resize(kSequence);
    for (Launch& l : seq_) {
      l.vadd = rng.next_below(2) == 1;
      l.items = kLocal * (1 + rng.next_below(kMaxItems / kLocal));
    }
    env_ = std::make_unique<ClEnv>(kSource);
    const cl_mem_flags in_flags = CL_MEM_READ_ONLY | CL_MEM_USE_HOST_PTR;
    cl_mem a = env_->buffer(in_flags, kMaxItems * 4, a_.data());
    cl_mem b = env_->buffer(in_flags, kMaxItems * 4, b_.data());
    cl_mem out = env_->buffer(CL_MEM_READ_WRITE | CL_MEM_USE_HOST_PTR,
                              kMaxItems * 4, out_.data());
    sq_ = env_->kernel("square");
    set_arg(sq_, 0, a);
    set_arg(sq_, 1, out);
    vadd_ = env_->kernel("vectoradd");
    set_arg(vadd_, 0, a);
    set_arg(vadd_, 1, b);
    set_arg(vadd_, 2, out);
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    want_sq_.assign(kMaxItems, 0.0f);
    want_add_.assign(kMaxItems, 0.0f);
    mcl::apps::square_reference(a_, want_sq_);
    mcl::apps::vectoradd_reference(a_, b_, want_add_);
    return seconds;
  }

  OpStats run(double seconds, SpanLog* log) override {
    OpStats s;
    for (std::size_t i = 0; i < 1000; ++i) {  // warm-up: checked, not timed
      const ClSample c = cl_launch(seq_[i % kSequence]);
      ++s.attempted;
      s.failed += c.ok ? 0 : 1;
      s.wrong += c.wrong ? 1 : 0;
    }
    const std::uint64_t start = now_ns();
    const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
    s.start_ticks(seconds);
    for (std::uint64_t i = 0; now_ns() < deadline; ++i) {
      const Launch& l = seq_[i % kSequence];
      const ClSample c = cl_launch(l);
      const std::uint64_t t3 = now_ns();
      s.tick(double(t3 - start) * 1e-9);
      ++s.attempted;
      s.wrong += c.wrong ? 1 : 0;
      if (!c.ok) {
        ++s.failed;
      } else {
        s.record(double(c.t2 - start) * 1e-9, double(c.t2 - c.t0) * 1e-3,
                 double(l.items) * (l.vadd ? 12.0 : 8.0));
      }
      if (log != nullptr) {
        const std::int64_t op = log->open("op", i, -1, c.t0);
        log->add("cl.enqueue", i, op, c.t0, c.t1);
        log->add("cl.wait", i, op, c.t1, c.t2);
        log->add("harness", i, op, c.t2, t3);  // release, check
        log->close(op, t3);
      }
    }
    s.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
    s.tick(s.wall_s);
    return s;
  }

  void layers(double seconds, SpanLog* log, Report& r) override {
    ladder(seconds * 0.5, log, r);
    instrumentation(seconds * 0.5, r);
  }

 private:
  /// Poisons the output, runs one launch through cl.h, waits on its event,
  /// reads its profiling timestamps and checks the output.
  ClSample cl_launch(const Launch& l) {
    ClSample c;
    poison(l.items);
    const std::size_t global = l.items;
    const std::size_t local = kLocal;
    cl_event ev = nullptr;
    c.t0 = now_ns();
    const cl_int e1 = clEnqueueNDRangeKernel(env_->queue(), l.vadd ? vadd_ : sq_,
                                             1, nullptr, &global, &local, 0,
                                             nullptr, &ev);
    c.t1 = now_ns();
    const cl_int e2 = e1 == CL_SUCCESS ? clWaitForEvents(1, &ev) : e1;
    c.t2 = now_ns();
    if (e1 == CL_SUCCESS) {
      clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_QUEUED, sizeof(cl_ulong),
                              &c.queued, nullptr);
      clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_SUBMIT, sizeof(cl_ulong),
                              &c.submitted, nullptr);
      clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_START, sizeof(cl_ulong),
                              &c.started, nullptr);
      clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_END, sizeof(cl_ulong),
                              &c.ended, nullptr);
      clReleaseEvent(ev);
    }
    if (e2 == CL_SUCCESS) c.wrong = !check(l);
    c.ok = e2 == CL_SUCCESS && !c.wrong;
    return c;
  }

  void poison(std::size_t items) {
    std::memset(out_.data(), 0xff, items * sizeof(float));  // NaN pattern
  }

  bool check(const Launch& l) {
    if (take_corruption(opt_)) out_[l.items / 2] += 1.0f;
    const auto& want = l.vadd ? want_add_ : want_sq_;
    return std::memcmp(out_.data(), want.data(), l.items * sizeof(float)) == 0;
  }

  /// The cl -> queue -> device -> pool ladder over the launch sequence,
  /// interleaved in blocks so drift hits every rung alike.
  void ladder(double seconds, SpanLog* log, Report& r) {
    // The device the cl.h platform wraps, so every rung runs on one pool.
    ocl::CpuDevice& device = ocl::Platform::default_instance().cpu();
    ocl::Context context(device);
    ocl::CommandQueue queue(context);
    const auto in_flags = ocl::MemFlags::ReadOnly | ocl::MemFlags::UseHostPtr;
    ocl::Buffer a(in_flags, kMaxItems * 4, a_.data());
    ocl::Buffer b(in_flags, kMaxItems * 4, b_.data());
    ocl::Buffer out(ocl::MemFlags::ReadWrite | ocl::MemFlags::UseHostPtr,
                    kMaxItems * 4, out_.data());
    ocl::Kernel sq(ocl::Program::builtin().lookup(mcl::apps::kSquareKernel));
    sq.set_arg(0, a);
    sq.set_arg(1, out);
    ocl::Kernel vadd(ocl::Program::builtin().lookup(mcl::apps::kVectorAddKernel));
    vadd.set_arg(0, a);
    vadd.set_arg(1, b);
    vadd.set_arg(2, out);
    mcl::threading::ThreadPool pool;
    const std::function<void(std::size_t)> noop = [](std::size_t) {};

    Samples cl_ns, queue_ns, device_ns, pool_ns, enqueue_ns, overlap_ns;
    Samples dep_ns, pool_wait_ns, run_ns, complete_ns;
    std::size_t out_of_order = 0;  // profiling stamps outside [call, return]
    Samples cl_self, queue_self, device_self;  // paired, same launch
    OpStats checks;
    const std::uint64_t deadline = deadline_after(seconds);
    // Each launch of the sequence goes down every rung in turn, so the
    // rungs see the same sizes under the same conditions and each layer's
    // self time is a paired difference.
    for (std::uint64_t op = 0; now_ns() < deadline; ++op) {
      const Launch& l = seq_[op % kSequence];
      const ocl::Kernel& k = l.vadd ? vadd : sq;
      std::uint64_t q0 = 0, q1 = 0;
      bool q_ok = false;
      auto queue_rung = [&] {
        poison(l.items);
        q0 = now_ns();
        ocl::AsyncEventPtr ev = queue.enqueue_ndrange_async(
            k, ocl::NDRange{l.items}, ocl::NDRange{kLocal});
        ev->wait();
        q1 = now_ns();
        ev.reset();
        q_ok = check(l);
      };
      // The cl and queue rungs take turns going first, so neither gains
      // from the order (warm pool workers, caches) in the paired difference.
      if (op % 2 == 1) queue_rung();
      const ClSample c = cl_launch(l);
      if (op % 2 == 0) queue_rung();
      checks.attempted += 3;
      if (!c.ok) ++checks.failed;
      if (c.wrong) ++checks.wrong;
      if (!q_ok) {
        ++checks.failed;
        ++checks.wrong;
      }

      poison(l.items);
      const std::uint64_t d0 = now_ns();
      (void)device.launch(k.def(), k.args(), ocl::NDRange{l.items},
                          ocl::NDRange{kLocal});
      const std::uint64_t d1 = now_ns();
      const bool d_ok = check(l);
      if (!d_ok) {
        ++checks.failed;
        ++checks.wrong;
      }

      const std::uint64_t p0 = now_ns();
      (void)pool.parallel_run(l.items / kLocal, noop);
      const std::uint64_t p1 = now_ns();

      if (log != nullptr) {
        const std::int64_t cs = log->add("ladder.cl", op, -1, c.t0, c.t2);
        log->add("cl.enqueue", op, cs, c.t0, c.t1);
        log->add("cl.wait", op, cs, c.t1, c.t2);
        log->add("ladder.queue", op, -1, q0, q1);
        log->add("ladder.device", op, -1, d0, d1);
        log->add("ladder.pool", op, -1, p0, p1);
      }
      if (!(c.ok && q_ok && d_ok)) continue;
      const double cl = double(c.t2 - c.t0), qn = double(q1 - q0);
      const double dn = double(d1 - d0), pn = double(p1 - p0);
      cl_ns.add(cl);
      queue_ns.add(qn);
      device_ns.add(dn);
      pool_ns.add(pn);
      cl_self.add(cl - qn);
      queue_self.add(qn - dn);
      device_self.add(dn - pn);
      enqueue_ns.add(double(c.t1 - c.t0));
      overlap_ns.add(double(c.t1) - double(c.queued));
      dep_ns.add(double(c.submitted) - double(c.queued));
      pool_wait_ns.add(double(c.started) - double(c.submitted));
      run_ns.add(double(c.ended) - double(c.started));
      complete_ns.add(double(c.t2) - double(c.ended));
      if (!(c.t0 <= c.queued && c.queued <= c.submitted &&
            c.submitted <= c.started && c.started <= c.ended &&
            c.ended <= c.t2)) {
        ++out_of_order;
      }
    }
    r.count(checks);
    const double cl = cl_ns.pct(50);
    r.add("cl.launch_ns", cl, "ns");
    r.add("queue.launch_ns", queue_ns.pct(50), "ns");
    r.add("device.launch_ns", device_ns.pct(50), "ns");
    r.add("pool.run_ns", pool_ns.pct(50), "ns");
    r.add("cl.self_ns", cl_self.pct(50), "ns");
    r.add("queue.self_ns", queue_self.pct(50), "ns");
    r.add("device.self_ns", device_self.pct(50), "ns");
    const double enq = enqueue_ns.pct(50), dep = dep_ns.pct(50);
    const double wait = pool_wait_ns.pct(50), run = run_ns.pct(50);
    const double done = complete_ns.pct(50), overlap = overlap_ns.pct(50);
    r.add("cl.enqueue_ns", enq, "ns");
    r.add("queue.dep_ns", dep, "ns");
    r.add("queue.pool_wait_ns", wait, "ns");
    r.add("queue.run_ns", run, "ns");
    r.add("queue.complete_ns", done, "ns");
    // QUEUED is stamped inside clEnqueueNDRangeKernel, so the entry call and
    // the profiled segments overlap by (enqueue return - QUEUED). Per launch
    // enqueue + dep + pool_wait + run + complete - overlap == launch exactly;
    // the residual below is what the p50s leave unexplained.
    r.add("cl.enqueue_overlap_ns", overlap, "ns");
    r.add("cl.split_residual_ns",
          cl - (enq + dep + wait + run + done - overlap), "ns");
    r.note("ladder.samples_per_rung", double(cl_ns.size()), "count");
    r.note("cl.split_out_of_order", double(out_of_order), "count");
  }

  /// Replays the launch sequence through cl.h with mcltrace, mclprof and
  /// mclobs each switched on through its public switch, interleaved in
  /// blocks with runs where all are off; reports on-minus-off p50.
  void instrumentation(double seconds, Report& r) {
    enum Mode { Off, Trace, Prof, Obs, kModes };
    Samples ns[kModes];
    OpStats checks;
    constexpr std::size_t kBlock = 128;
    const std::uint64_t deadline = deadline_after(seconds);
    std::size_t pos = 0;
    for (int m = 0; now_ns() < deadline; m = (m + 1) % kModes) {
      if (m == Trace) mcl::trace::start(10);
      if (m == Prof) mcl::prof::start();
      if (m == Obs) mcl::obs::set_enabled(true);
      for (std::size_t j = 0; j < kBlock; ++j, pos = (pos + 1) % kSequence) {
        const ClSample c = cl_launch(seq_[pos]);
        ++checks.attempted;
        if (c.wrong) ++checks.wrong;
        if (c.ok) ns[m].add(double(c.t2 - c.t0)); else ++checks.failed;
      }
      if (m == Trace) mcl::trace::stop();
      if (m == Prof) mcl::prof::stop();
      if (m == Obs) mcl::obs::set_enabled(false);
    }
    r.count(checks);
    const double off = ns[Off].pct(50);
    r.add("instr.trace_ns_per_op", ns[Trace].pct(50) - off, "ns");
    r.add("instr.prof_ns_per_op", ns[Prof].pct(50) - off, "ns");
    r.add("instr.obs_ns_per_op", ns[Obs].pct(50) - off, "ns");
  }

  Options opt_;
  mcl::apps::FloatVec a_, b_, out_, want_sq_, want_add_;
  std::vector<Launch> seq_;
  std::unique_ptr<ClEnv> env_;
  cl_kernel sq_ = nullptr;
  cl_kernel vadd_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_launch_storm(const Options& opt) {
  return std::make_unique<LaunchStorm>(opt);
}

}  // namespace perf
