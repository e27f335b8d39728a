// paper-suite: one host thread makes a fixed pass through CL/cl.h. Each
// kernel does the paper's Eq. 1 round trip (inputs in, launch, outputs
// out); half the kernels move data by copy (clEnqueueWrite/ReadBuffer),
// half by map/unmap. One op is one pass. The executors (SIMD, workgroup
// function, fibers) and the transfer paths do nearly all the work here;
// launch overhead is a small share of a pass.
//
// Sizes keep every working set cache-resident on the reference host (48 KiB
// L1d and 2 MiB L2 per core, 105 MiB shared L3): the largest kernel touches
// 1.1 MiB, a whole pass 3.3 MiB, so each kernel fits one core's L2, the pass
// fits L3, and no kernel takes more than about a quarter of the pass
// (NOTES.md has the measured shares).
//
// Outputs are poisoned before every pass and checked after it against the
// serial references in src/apps, computed once per input set.
#include <cmath>
#include <cstring>

#include "apps/blackscholes.hpp"
#include "apps/hostdata.hpp"
#include "apps/matrixmul.hpp"
#include "apps/parboil.hpp"
#include "apps/simple.hpp"
#include "clenv.hpp"
#include "ocl/device.hpp"
#include "ocl/queue.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

namespace ocl = mcl::ocl;
using mcl::apps::FloatVec;

const char* const kSource =
    "__kernel void square(__global const float* in, __global float* out) {}\n"
    "__kernel void vectoradd(__global const float* a, __global const float* b,"
    " __global float* c) {}\n"
    "__kernel void matrixmul_naive(__global const float* A, __global const "
    "float* B, __global float* C, uint M, uint N, uint K) {}\n"
    "__kernel void matrixmul(__global const float* A, __global const float* B,"
    " __global float* C, uint M, uint N, uint K, __local float* As, __local "
    "float* Bs, __local float* Cacc) {}\n"
    "__kernel void matrixmul_fiber(__global const float* A, __global const "
    "float* B, __global float* C, uint M, uint N, uint K, __local float* As, "
    "__local float* Bs) {}\n"
    "__kernel void blackscholes(__global const float* S, __global const float* "
    "X, __global const float* T, __global float* call, __global float* put, "
    "float R, float V) {}\n"
    "__kernel void cp_cenergy(__global const float* atoms, __global float* "
    "energy, uint natoms, float gridspacing, float z, uint per_item) {}\n";

// Problem sizes (see the header comment for the cache budget).
constexpr std::size_t kVecN = 96 * 1024;   ///< square / vectoradd items
constexpr std::size_t kNaiveN = 128;       ///< naive matmul M=N=K
constexpr std::size_t kMatN = 96;          ///< tiled matmul M=N=K
constexpr std::size_t kTile = 16;          ///< tiled matmul local size
constexpr std::size_t kFiberN = 16;        ///< fiber matmul M=N=K
constexpr std::size_t kFiberTile = 8;      ///< fiber matmul local size
constexpr std::size_t kBsW = 144, kBsH = 144;  ///< blackscholes options
constexpr std::size_t kCpGrid = 80;        ///< cp_cenergy grid edge
constexpr unsigned kCpAtoms = 64;
constexpr float kCpSpacing = 0.1f, kCpZ = 1.5f;
constexpr float kBsR = 0.02f, kBsV = 0.30f;
constexpr std::size_t kVecLocal = 1024;    ///< the paper's Fig 10 local size

struct Array {
  FloatVec host;  ///< input data, or the host side of a copied output
  FloatVec want;  ///< outputs: the serial reference
  cl_mem mem = nullptr;
  bool output = false;
};

/// One kernel's round trip in the pass.
struct Entry {
  const char* label = nullptr;
  const char* kernel = nullptr;
  bool map = false;           ///< map/unmap instead of write/read
  bool null_local = false;    ///< launch with local = NULL
  std::size_t dims = 1;
  std::size_t global[2] = {1, 1};
  std::size_t local[2] = {1, 1};
  std::vector<Array> arrays;  ///< in kernel-argument order (buffers only)
  double rtol = 0.0, atol = 0.0;
  double flop = 0.0;          ///< computed operations per launch
  double kernel_bytes = 0.0;  ///< computed compulsory bytes per launch
  cl_kernel k = nullptr;
  // Per-pass timings (ns), overwritten every pass. map_call_ns is the
  // share of in_ns + out_ns spent inside map/unmap calls.
  double in_ns = 0, launch_ns = 0, exec_ns = 0, out_ns = 0, map_call_ns = 0;
};

Entry entry(const char* label, const char* kernel, bool map) {
  Entry e;
  e.label = label;
  e.kernel = kernel;
  e.map = map;
  return e;
}

double bytes_of(const Entry& e, bool outputs) {
  double b = 0.0;
  for (const Array& a : e.arrays) {
    if (a.output == outputs) b += double(a.host.size()) * 4.0;
  }
  return b;
}

class PaperSuite final : public Workload {
 public:
  explicit PaperSuite(const Options& opt) : opt_(opt) {}

  double setup() override {
    env_.reset();
    entries_.clear();
    const std::uint64_t t0 = now_ns();
    env_ = std::make_unique<ClEnv>(kSource);
    build_entries();
    const double seconds = double(now_ns() - t0) * 1e-9;
    compute_references();
    return seconds;
  }

  OpStats run(double seconds, SpanLog* log) override {
    OpStats s;
    for (int i = 0; i < 3; ++i) {  // warm-up: checked, not timed
      ++s.attempted;
      if (pass(nullptr, 0) < 0) {
        ++s.failed;
        s.wrong += wrong_ ? 1 : 0;
      }
    }
    const std::uint64_t start = now_ns();
    const std::uint64_t deadline = start + std::uint64_t(seconds * 1e9);
    s.start_ticks(seconds);
    for (std::uint64_t op = 0; now_ns() < deadline; ++op) {
      s.tick(double(now_ns() - start) * 1e-9);
      ++s.attempted;
      const double ns = pass(log, op);
      if (ns < 0) {
        ++s.failed;
        s.wrong += wrong_ ? 1 : 0;
        continue;
      }
      s.record(double(now_ns() - start) * 1e-9, ns * 1e-3, pass_bytes());
    }
    s.wall_s = double(now_ns() - start) * 1e-9;
    s.tick(s.wall_s);
    return s;
  }

  void layers(double seconds, SpanLog* log, Report& r) override {
    transfer_layer(seconds * 0.5, log, r);
    exec_layer(seconds * 0.5, log, r);
  }

 private:
  Entry& add(Entry e) {
    e.k = env_->kernel(e.kernel);
    entries_.push_back(std::move(e));
    return entries_.back();
  }

  /// Seeded inputs for one array, uniform in [lo, hi).
  Array input(std::size_t n, std::uint64_t salt, float lo, float hi) {
    Array a;
    a.host = mcl::apps::random_floats(n, opt_.seed * 64 + salt, lo, hi);
    a.mem = env_->buffer(CL_MEM_READ_ONLY, n * 4);
    return a;
  }
  Array output(std::size_t n) {
    Array a;
    a.host.assign(n, 0.0f);
    a.output = true;
    a.mem = env_->buffer(CL_MEM_WRITE_ONLY, n * 4);
    return a;
  }

  void bind_buffers(Entry& e) {
    for (std::size_t i = 0; i < e.arrays.size(); ++i) {
      set_arg(e.k, static_cast<cl_uint>(i), e.arrays[i].mem);
    }
  }

  Entry vec(const char* label, const char* kernel, bool map, bool null_local,
            std::uint64_t salt) {
    Entry e = entry(label, kernel, map);
    e.null_local = null_local;
    e.global[0] = kVecN;
    e.local[0] = kVecLocal;
    const bool add = std::strcmp(kernel, "vectoradd") == 0;
    e.arrays.push_back(input(kVecN, salt, -2.0f, 2.0f));
    if (add) e.arrays.push_back(input(kVecN, salt + 1, -2.0f, 2.0f));
    e.arrays.push_back(output(kVecN));
    e.flop = double(kVecN);
    e.kernel_bytes = double(kVecN) * (add ? 12.0 : 8.0);
    return e;
  }

  Entry matmul(const char* label, const char* kernel, bool map, std::size_t n,
               std::size_t tile, std::uint64_t salt) {
    Entry e = entry(label, kernel, map);
    e.dims = 2;
    e.global[0] = e.global[1] = n;
    e.local[0] = e.local[1] = tile;
    e.arrays.push_back(input(n * n, salt, -1.0f, 1.0f));
    e.arrays.push_back(input(n * n, salt + 1, -1.0f, 1.0f));
    e.arrays.push_back(output(n * n));
    e.rtol = 1e-3;
    e.atol = 1e-3;
    e.flop = 2.0 * double(n * n * n);
    e.kernel_bytes = 3.0 * double(n * n) * 4.0;
    return e;
  }

  void build_entries() {
    entries_.reserve(8);
    bind_buffers(add(vec("square", "square", false, false, 1)));
    bind_buffers(add(vec("square_null_local", "square", true, true, 3)));
    bind_buffers(add(vec("vectoradd", "vectoradd", true, false, 5)));
    {
      Entry& e = add(matmul("matrixmul_naive", "matrixmul_naive", false,
                            kNaiveN, kTile, 7));
      bind_buffers(e);
      set_matmul_dims(e, kNaiveN);
    }
    {
      Entry& e = add(matmul("matrixmul", "matrixmul", true, kMatN, kTile, 9));
      bind_buffers(e);
      set_matmul_dims(e, kMatN);
      for (cl_uint i = 6; i <= 8; ++i) set_arg_local(e.k, i, kTile * kTile * 4);
    }
    {
      Entry& e = add(matmul("matrixmul_fiber", "matrixmul_fiber", false,
                            kFiberN, kFiberTile, 11));
      bind_buffers(e);
      set_matmul_dims(e, kFiberN);
      for (cl_uint i = 6; i <= 7; ++i) {
        set_arg_local(e.k, i, kFiberTile * kFiberTile * 4);
      }
    }
    {
      Entry e = entry("blackscholes", "blackscholes", true);
      e.dims = 2;
      e.global[0] = kBsW;
      e.global[1] = kBsH;
      e.local[0] = e.local[1] = 16;
      const std::size_t n = kBsW * kBsH;
      e.arrays.push_back(input(n, 13, 5.0f, 30.0f));
      e.arrays.push_back(input(n, 14, 1.0f, 100.0f));
      e.arrays.push_back(input(n, 15, 0.25f, 10.0f));
      e.arrays.push_back(output(n));
      e.arrays.push_back(output(n));
      e.rtol = 1e-3;
      e.atol = 2e-4;
      e.flop = 70.0 * double(n);  // the kernel's own cost descriptor
      e.kernel_bytes = 5.0 * double(n) * 4.0;
      Entry& b = add(std::move(e));
      bind_buffers(b);
      set_arg_value(b.k, 5, kBsR);
      set_arg_value(b.k, 6, kBsV);
    }
    {
      Entry e = entry("cp_cenergy", "cp_cenergy", false);
      e.dims = 2;
      e.global[0] = e.global[1] = kCpGrid;
      e.local[0] = e.local[1] = 16;
      e.arrays.push_back(input(kCpAtoms * 4, 17, 0.5f, 10.0f));
      e.arrays.push_back(output(kCpGrid * kCpGrid));
      e.rtol = 1e-3;
      e.atol = 1e-3;
      e.flop = 10.0 * double(kCpGrid * kCpGrid) * kCpAtoms;
      e.kernel_bytes = double(kCpGrid * kCpGrid) * 4.0 + kCpAtoms * 16.0;
      Entry& c = add(std::move(e));
      bind_buffers(c);
      set_arg_value(c.k, 2, kCpAtoms);
      set_arg_value(c.k, 3, kCpSpacing);
      set_arg_value(c.k, 4, kCpZ);
      set_arg_value(c.k, 5, 1u);
    }
  }

  static void set_matmul_dims(Entry& e, std::size_t n) {
    const unsigned u = static_cast<unsigned>(n);
    for (cl_uint i = 3; i <= 5; ++i) set_arg_value(e.k, i, u);
  }

  void compute_references() {
    namespace apps = mcl::apps;
    for (Entry& e : entries_) {
      auto& a = e.arrays;
      const std::string k = e.kernel;
      if (k == "square") {
        a[1].want.assign(a[1].host.size(), 0.0f);
        apps::square_reference(a[0].host, a[1].want);
      } else if (k == "vectoradd") {
        a[2].want.assign(a[2].host.size(), 0.0f);
        apps::vectoradd_reference(a[0].host, a[1].host, a[2].want);
      } else if (k.rfind("matrixmul", 0) == 0) {
        const std::size_t n = e.global[0];
        a[2].want.assign(n * n, 0.0f);
        apps::matmul_reference(a[0].host, a[1].host, a[2].want, n, n, n);
      } else if (k == "blackscholes") {
        a[3].want.assign(a[3].host.size(), 0.0f);
        a[4].want.assign(a[4].host.size(), 0.0f);
        apps::blackscholes_reference(a[0].host, a[1].host, a[2].host,
                                     a[3].want, a[4].want, kBsR, kBsV);
      } else if (k == "cp_cenergy") {
        a[1].want.assign(a[1].host.size(), 0.0f);
        apps::cp_cenergy_reference(a[0].host, a[1].want, kCpGrid, kCpGrid,
                                   kCpSpacing, kCpZ);
      }
    }
  }

  [[nodiscard]] double pass_bytes() const {
    double b = 0.0;
    for (const Entry& e : entries_) {
      b += e.kernel_bytes + bytes_of(e, false) + (e.map ? 0.0 : bytes_of(e, true));
    }
    return b;
  }

  /// Writes a NaN pattern over every output, on the device side (through a
  /// zero-copy map) and on the host side, so a launch that does not run
  /// cannot pass the check.
  void poison() {
    const cl_command_queue q = env_->queue();
    for (Entry& e : entries_) {
      for (Array& a : e.arrays) {
        if (!a.output) continue;
        const std::size_t bytes = a.host.size() * 4;
        cl_int err = CL_SUCCESS;
        void* p = clEnqueueMapBuffer(q, a.mem, CL_TRUE, CL_MAP_WRITE, 0, bytes,
                                     0, nullptr, nullptr, &err);
        check_cl(err, "clEnqueueMapBuffer(poison)");
        std::memset(p, 0xff, bytes);
        check_cl(clEnqueueUnmapMemObject(q, a.mem, p, 0, nullptr, nullptr),
                 "clEnqueueUnmapMemObject(poison)");
        std::memset(a.host.data(), 0xff, bytes);
      }
    }
    check_cl(clFinish(q), "clFinish");
  }

  bool matches(const Entry& e, const float* got, const FloatVec& want) {
    const std::size_t n = want.size();
    if (e.rtol == 0.0) return std::memcmp(got, want.data(), n * 4) == 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double w = want[i];
      const double d = std::fabs(double(got[i]) - w);
      if (!(d <= e.atol + e.rtol * std::fabs(w))) return false;
    }
    return true;
  }

  /// One pass; returns its timed nanoseconds, or -1 when any call failed or
  /// any output was wrong (then wrong_ says which). Poisoning and checking
  /// are not timed.
  double pass(SpanLog* log, std::uint64_t op) {
    poison();
    const cl_command_queue q = env_->queue();
    bool ok = true;
    wrong_ = false;
    double total = 0.0;
    const std::int64_t root = span_open(log, "op", op, -1, now_ns());
    for (Entry& e : entries_) {
      const std::int64_t es = span_open(log, e.label, op, root, now_ns());
      // Inputs in. Map: the host writes its inputs through the mapped
      // pointer; copy: the runtime copies them in.
      e.map_call_ns = 0;
      std::uint64_t t0 = now_ns();
      for (Array& a : e.arrays) {
        if (a.output) continue;
        const std::size_t bytes = a.host.size() * 4;
        if (e.map) {
          cl_int err = CL_SUCCESS;
          const std::uint64_t m0 = now_ns();
          void* p = clEnqueueMapBuffer(q, a.mem, CL_TRUE, CL_MAP_WRITE, 0,
                                       bytes, 0, nullptr, nullptr, &err);
          const std::uint64_t m1 = now_ns();
          ok &= err == CL_SUCCESS;
          if (err == CL_SUCCESS) {
            std::memcpy(p, a.host.data(), bytes);
            const std::uint64_t m2 = now_ns();
            ok &= clEnqueueUnmapMemObject(q, a.mem, p, 0, nullptr, nullptr) ==
                  CL_SUCCESS;
            e.map_call_ns += double(m1 - m0) + double(now_ns() - m2);
          }
        } else {
          ok &= clEnqueueWriteBuffer(q, a.mem, CL_TRUE, 0, bytes,
                                     a.host.data(), 0, nullptr,
                                     nullptr) == CL_SUCCESS;
        }
      }
      std::uint64_t t1 = now_ns();
      e.in_ns = double(t1 - t0);
      span_add(log, e.map ? "cl.map_in" : "cl.write", op, es, t0, t1);
      // Launch.
      cl_event ev = nullptr;
      const cl_int le = clEnqueueNDRangeKernel(
          q, e.k, static_cast<cl_uint>(e.dims), nullptr, e.global,
          e.null_local ? nullptr : e.local, 0, nullptr, &ev);
      ok &= le == CL_SUCCESS && clWaitForEvents(1, &ev) == CL_SUCCESS;
      const std::uint64_t t2 = now_ns();
      e.launch_ns = double(t2 - t1);
      span_add(log, "cl.launch", op, es, t1, t2);
      if (le == CL_SUCCESS) {
        cl_ulong st = 0, en = 0;
        clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_START, sizeof st, &st,
                                nullptr);
        clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_END, sizeof en, &en,
                                nullptr);
        e.exec_ns = double(en) - double(st);
        clReleaseEvent(ev);
      }
      // Outputs out. Map: the host reads results in place (the check is not
      // timed); copy: read back into host memory.
      double out_ns = 0.0;
      for (Array& a : e.arrays) {
        if (!a.output) continue;
        const std::size_t bytes = a.host.size() * 4;
        const std::uint64_t t3 = now_ns();
        if (e.map) {
          cl_int err = CL_SUCCESS;
          void* p = clEnqueueMapBuffer(q, a.mem, CL_TRUE, CL_MAP_READ, 0, bytes,
                                       0, nullptr, nullptr, &err);
          const std::uint64_t t4 = now_ns();
          ok &= err == CL_SUCCESS;
          if (err != CL_SUCCESS) continue;
          if (take_corruption(opt_)) static_cast<float*>(p)[bytes / 8] += 1.0f;
          if (!matches(e, static_cast<const float*>(p), a.want)) wrong_ = true;
          const std::uint64_t t5 = now_ns();
          ok &= clEnqueueUnmapMemObject(q, a.mem, p, 0, nullptr, nullptr) ==
                CL_SUCCESS;
          const std::uint64_t t6 = now_ns();
          out_ns += double(t4 - t3) + double(t6 - t5);
          e.map_call_ns += double(t4 - t3) + double(t6 - t5);
          span_add(log, "cl.map_out", op, es, t3, t4);
          span_add(log, "check", op, es, t4, t5);
          span_add(log, "cl.unmap", op, es, t5, t6);
        } else {
          ok &= clEnqueueReadBuffer(q, a.mem, CL_TRUE, 0, bytes, a.host.data(),
                                    0, nullptr, nullptr) == CL_SUCCESS;
          const std::uint64_t t4 = now_ns();
          out_ns += double(t4 - t3);
          span_add(log, "cl.read", op, es, t3, t4);
          if (take_corruption(opt_)) a.host[a.host.size() / 2] += 1.0f;
          if (!matches(e, a.host.data(), a.want)) wrong_ = true;
          span_add(log, "check", op, es, t4, now_ns());
        }
      }
      e.out_ns = out_ns;
      span_close(log, es, now_ns());
      total += e.in_ns + e.launch_ns + e.out_ns;
    }
    const std::uint64_t tf = now_ns();
    ok &= clFinish(q) == CL_SUCCESS;
    total += double(now_ns() - tf);
    span_close(log, root, now_ns());
    return ok && !wrong_ ? total : -1.0;
  }

  /// Transfer and paper-ratio layer: timed passes, split per segment.
  void transfer_layer(double seconds, SpanLog* log, Report& r) {
    Samples pass_ns, share, copy_gbps, map_ns, null_ratio, map_over_copy;
    OpStats checks;
    const std::uint64_t deadline = deadline_after(seconds);
    for (std::uint64_t op = 1u << 30; now_ns() < deadline; ++op) {
      ++checks.attempted;
      const double total = pass(log, op);
      if (total < 0) {
        ++checks.failed;
        checks.wrong += wrong_ ? 1 : 0;
        continue;
      }
      double copy_t = 0, copy_b = 0, map_t = 0, map_b = 0, maps = 0;
      double map_calls = 0;
      double sq_exec = 0, null_exec = 0;
      for (const Entry& e : entries_) {
        const double b = bytes_of(e, false) + bytes_of(e, true);
        if (e.map) {
          map_t += e.in_ns + e.out_ns;
          map_b += b;
          map_calls += e.map_call_ns;
          maps += double(e.arrays.size());
        } else {
          copy_t += e.in_ns + e.out_ns;
          copy_b += b;
        }
        if (std::strcmp(e.kernel, "square") == 0) {
          (e.null_local ? null_exec : sq_exec) = e.exec_ns;
        }
      }
      pass_ns.add(total);
      share.add((copy_t + map_t) / total);
      copy_gbps.add(copy_b / copy_t);
      map_ns.add(map_calls / maps);
      map_over_copy.add((map_t / map_b) / (copy_t / copy_b));
      if (sq_exec > 0) null_ratio.add(null_exec / sq_exec);
    }
    r.count(checks);
    r.add("transfer.copy_gbps", copy_gbps.pct(50), "GB/s");
    r.add("transfer.map_ns", map_ns.pct(50), "ns");
    r.add("transfer.share", share.pct(50), "ratio");
    r.add("paper.null_local_ratio", null_ratio.pct(50), "ratio");
    r.add("paper.map_over_copy", map_over_copy.pct(50), "ratio");
    double gbytes = 0, gflop = 0;
    for (const Entry& e : entries_) {
      gbytes += e.kernel_bytes * 1e-9;
      gflop += e.flop * 1e-9;
    }
    r.add("kernel.gbytes", gbytes, "GB");
    r.add("kernel.gflop", gflop, "GFLOP");
    for (const Entry& e : entries_) {
      r.note(std::string("pass.share.") + e.label,
             (e.in_ns + e.launch_ns + e.out_ns) / pass_ns.pct(50), "ratio");
    }
  }

  /// Executor layer: per-item cost of each executor, launched directly on
  /// CpuDevice (Auto picks SIMD, the workgroup function or fibers from the
  /// kernel; a Loop-configured device runs the per-item loop).
  void exec_layer(double seconds, SpanLog* log, Report& r) {
    ocl::CpuDevice autod;
    ocl::CpuDevice loopd(ocl::CpuDeviceConfig{.executor = ocl::ExecutorKind::Loop});
    const auto rw = ocl::MemFlags::ReadWrite;
    FloatVec in = mcl::apps::random_floats(kVecN, opt_.seed * 64 + 40, -2.0f, 2.0f);
    ocl::Buffer bin(rw | ocl::MemFlags::UseHostPtr, kVecN * 4, in.data());
    ocl::Buffer bout(rw, kVecN * 4);
    ocl::Kernel sq(ocl::Program::builtin().lookup(mcl::apps::kSquareKernel));
    sq.set_arg(0, bin);
    sq.set_arg(1, bout);

    struct Mm {
      std::size_t n, k;
      FloatVec a, b, want;
      std::unique_ptr<ocl::Buffer> ba, bb, bc;
      std::unique_ptr<ocl::Kernel> kern;
    };
    auto make_mm = [&](std::size_t n, std::size_t k, std::size_t tile,
                       bool fiber, std::uint64_t salt) {
      auto m = std::make_unique<Mm>();
      m->n = n;
      m->k = k;
      m->a = mcl::apps::random_floats(n * k, opt_.seed * 64 + salt, -1, 1);
      m->b = mcl::apps::random_floats(k * n, opt_.seed * 64 + salt + 1, -1, 1);
      m->ba = std::make_unique<ocl::Buffer>(rw | ocl::MemFlags::UseHostPtr,
                                            n * k * 4, m->a.data());
      m->bb = std::make_unique<ocl::Buffer>(rw | ocl::MemFlags::UseHostPtr,
                                            k * n * 4, m->b.data());
      m->bc = std::make_unique<ocl::Buffer>(rw, n * n * 4);
      m->kern = std::make_unique<ocl::Kernel>(ocl::Program::builtin().lookup(
          fiber ? mcl::apps::kMatrixMulFiberKernel : mcl::apps::kMatrixMulKernel));
      ocl::Kernel& kk = *m->kern;
      kk.set_arg(0, *m->ba);
      kk.set_arg(1, *m->bb);
      kk.set_arg(2, *m->bc);
      kk.set_arg(3, static_cast<unsigned>(n));
      kk.set_arg(4, static_cast<unsigned>(n));
      kk.set_arg(5, static_cast<unsigned>(k));
      for (std::size_t i = 6; i <= (fiber ? 7u : 8u); ++i) {
        kk.set_arg_local(i, tile * tile * 4);
      }
      return m;
    };
    auto wgfn = make_mm(kMatN, kMatN, kTile, false, 41);
    auto fib_short = make_mm(kFiberN, kFiberTile, kFiberTile, true, 43);
    auto fib_long = make_mm(kFiberN, 4 * kFiberTile, kFiberTile, true, 45);

    FloatVec sq_want(kVecN);
    mcl::apps::square_reference(in, sq_want);
    for (Mm* m : {wgfn.get(), fib_short.get(), fib_long.get()}) {
      m->want.assign(m->n * m->n, 0.0f);
      mcl::apps::matmul_reference(m->a, m->b, m->want, m->n, m->n, m->k);
    }
    OpStats checks;
    auto checked = [&](ocl::Buffer& out, const FloatVec& want, bool exact) {
      ++checks.attempted;
      auto* got = static_cast<float*>(out.device_ptr());
      if (take_corruption(opt_)) got[want.size() / 2] += 1.0f;
      bool ok = true;
      if (exact) {
        ok = std::memcmp(got, want.data(), want.size() * 4) == 0;
      } else {
        for (std::size_t i = 0; i < want.size() && ok; ++i) {
          ok = std::fabs(double(got[i]) - want[i]) <= 1e-3 + 1e-3 * std::fabs(want[i]);
        }
      }
      if (!ok) {
        ++checks.failed;
        ++checks.wrong;
      }
      std::memset(got, 0xff, want.size() * 4);  // poison for the next launch
    };

    Samples simd, loop, wg, fib, fib_barrier, imbalance, participants;
    std::uint64_t op = 2u << 30;
    auto timed = [&](ocl::CpuDevice& d, const ocl::Kernel& k,
                     const ocl::NDRange& g, const ocl::NDRange& l,
                     const char* name) {
      const std::uint64_t t0 = now_ns();
      ocl::LaunchResult res = d.launch(k.def(), k.args(), g, l);
      span_add(log, name, op++, -1, t0, now_ns());
      return res;
    };
    const std::uint64_t deadline = deadline_after(seconds);
    while (now_ns() < deadline) {
      const ocl::NDRange g1{kVecN}, l1{kVecLocal};
      const ocl::LaunchResult s = timed(autod, sq, g1, l1, "exec.simd");
      checked(bout, sq_want, true);
      simd.add(s.seconds * 1e9 / double(kVecN));
      imbalance.add(s.schedule.imbalance);
      participants.add(double(s.schedule.participants));
      loop.add(timed(loopd, sq, g1, l1, "exec.loop").seconds * 1e9 / double(kVecN));
      checked(bout, sq_want, true);
      const ocl::NDRange gm(kMatN, kMatN), lm(kTile, kTile);
      wg.add(timed(autod, *wgfn->kern, gm, lm, "exec.wgfn").seconds * 1e9 /
             double(kMatN * kMatN));
      checked(*wgfn->bc, wgfn->want, false);
      const ocl::NDRange gf(kFiberN, kFiberN), lf(kFiberTile, kFiberTile);
      const double items = double(kFiberN * kFiberN);
      const double t_short =
          timed(autod, *fib_short->kern, gf, lf, "exec.fiber").seconds * 1e9 / items;
      checked(*fib_short->bc, fib_short->want, false);
      const double t_long =
          timed(autod, *fib_long->kern, gf, lf, "exec.fiber").seconds * 1e9 / items;
      checked(*fib_long->bc, fib_long->want, false);
      fib.add(t_short);
      // Two barriers per K-tile: K = 4T has 6 more barriers per item than
      // K = T; the slope is the cost of one barrier (plus one tile step).
      fib_barrier.add((t_long - t_short) / 6.0);
    }
    r.count(checks);
    r.add("exec.simd_ns_per_item", simd.pct(50), "ns");
    r.add("exec.loop_ns_per_item", loop.pct(50), "ns");
    r.add("exec.wgfn_ns_per_item", wg.pct(50), "ns");
    r.add("exec.fiber_ns_per_item", fib.pct(50), "ns");
    r.add("exec.fiber_barrier_ns", fib_barrier.pct(50), "ns");
    r.add("pool.imbalance", imbalance.pct(50), "ratio");
    r.add("pool.participants", participants.pct(50), "count");
  }

  Options opt_;
  std::unique_ptr<ClEnv> env_;
  std::vector<Entry> entries_;
  bool wrong_ = false;  ///< the last pass produced a wrong output
};

}  // namespace

std::unique_ptr<Workload> make_paper_suite(const Options& opt) {
  return std::make_unique<PaperSuite>(opt);
}

}  // namespace perf
