// serve-mix: one generator thread drives an open loop of seeded Poisson
// arrivals at a fixed offered rate into a serve::Server with four tenants:
//
//   small-batched   64-item square launches, batch_max_items 4096
//   bulk            4096-item square launches, weight 4
//   transfer-chain  16 KiB write -> square launch -> read, joined by ticket
//                   deps, weight 2
//   generated       mclcheck-generated kernels from the seed, barrier and
//                   local-memory cases included
//
// Every submission goes through a non-blocking path (try_submit, or the
// Reject admission policy for transfers): a refusal counts as failed and is
// never retried. Each request is timed from when it was due to the moment
// its ticket's completion event fires (Ticket::event()->on_complete), so a
// stall also charges the requests queued behind it.
//
// sustained_ops_per_s is the highest rate on a fixed geometric ladder
// (steps of 5%) at which the same mix keeps op_p99_us under kLimitUs, fails
// nothing and ends with a backlog no larger than the limit allows.
#include <sys/prctl.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>

#include "check/case.hpp"
#include "check/generator.hpp"
#include "check/interp.hpp"
#include "check/reference.hpp"
#include "apps/hostdata.hpp"
#include "core/rng.hpp"
#include "ocl/device.hpp"
#include "ocl/queue.hpp"
#include "serve/serve.hpp"
#include "veclegal/kernel_ir.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

namespace ocl = mcl::ocl;
namespace serve = mcl::serve;
namespace check = mcl::check;
using mcl::apps::FloatVec;

enum Tenant { kSmall, kBulk, kChain, kGen, kTenants };
const char* const kTenantNames[kTenants] = {"small-batched", "bulk",
                                            "transfer-chain", "generated"};
/// Share of arrivals per tenant.
constexpr double kMix[kTenants] = {0.4, 0.2, 0.2, 0.2};
constexpr double kWeight[kTenants] = {1.0, 4.0, 2.0, 1.0};
/// Admission depth (requests; a transfer chain is three), as in the
/// program's own serve_load mix, and buffer slots (ops) per tenant: more
/// than it can admit, so an admitted request always finds an idle slot.
constexpr std::size_t kDepth[kTenants] = {128, 32, 96, 64};
constexpr std::size_t kSlots[kTenants] = {256, 64, 64, 128};

constexpr std::size_t kSmallItems = 64;
constexpr std::size_t kBulkItems = 4096;
constexpr std::size_t kChainFloats = 16 * 1024 / 4;
constexpr std::size_t kGenPlain = 4, kGenBarrier = 2;

/// Offered rate of the end-to-end phase (requests/s) and the p99 latency
/// limit of the sustained-rate ladder.
constexpr double kRate = 8000.0;
constexpr double kLimitUs = 2000.0;
/// The ladder: kLadderBase * kLadderStep^k, k in [0, kRungs).
constexpr double kLadderBase = 1000.0;
constexpr double kLadderStep = 1.05;
constexpr int kRungs = 96;

struct Arrival {
  std::uint64_t offset_ns = 0;
  Tenant tenant = kSmall;
  std::uint32_t gen_case = 0;
};

/// Per-request outcome, written by the completion callback.
struct ReqState {
  std::uint64_t due_ns = 0;
  std::uint64_t submit_ns = 0;  ///< generator entered the submit call
  std::uint64_t submitted_ns = 0;  ///< submit call returned
  Tenant tenant = kSmall;
  double bytes = 0.0;
  std::atomic<std::uint64_t> done_ns{0};
  std::atomic<int> result{0};  ///< 0 pending, 1 correct, 2 failed, 3 wrong
};

/// Generated kernels, registered once per process (the runtime's kernel
/// registry is process-wide; Case storage must outlive every launch).
struct GenKernels {
  std::vector<check::Case> cases;
  std::vector<std::string> names;
  std::vector<check::Memory> init, want;
};

const GenKernels& generated_kernels(std::uint64_t seed) {
  static std::mutex mu;
  static std::vector<std::pair<std::uint64_t, std::unique_ptr<GenKernels>>> all;
  const std::lock_guard<std::mutex> lock(mu);
  for (auto& [s, g] : all) {
    if (s == seed) return *g;
  }
  auto g = std::make_unique<GenKernels>();
  std::size_t plain = 0, barrier = 0;
  for (std::uint64_t i = 0; plain + barrier < kGenPlain + kGenBarrier; ++i) {
    check::Case c = check::generate_case(check::case_seed(seed, i));
    const bool b = c.has_barrier() && c.has_local();
    if (b ? barrier >= kGenBarrier : plain >= kGenPlain) continue;
    (b ? barrier : plain) += 1;
    g->cases.push_back(std::move(c));
  }
  for (const check::Case& c : g->cases) {
    ocl::KernelDef def = check::make_kernel_def(c, /*with_simd=*/false);
    def.name = "perf.gen." + std::to_string(c.seed);
    g->names.push_back(def.name);
    mcl::veclegal::KernelIrRegistry::instance().add(def.name,
                                                    check::lower_to_ir(c));
    ocl::Program::builtin().add(std::move(def));
    g->init.push_back(check::initial_memory(c));
    g->want.push_back(check::reference_result(c));
  }
  all.emplace_back(seed, std::move(g));
  return *all.back().second;
}

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate,
                                   double seconds, std::size_t gen_cases) {
  mcl::core::Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;  // exponential gap
    if (t >= seconds) break;
    Arrival a;
    a.offset_ns = static_cast<std::uint64_t>(t * 1e9);
    double u = rng.next_double();
    int k = 0;
    while (k < kTenants - 1 && u >= kMix[k]) u -= kMix[k++];
    a.tenant = static_cast<Tenant>(k);
    a.gen_case = static_cast<std::uint32_t>(rng.next_below(gen_cases));
    out.push_back(a);
  }
  return out;
}

/// Round-robin slot allocator: the generator thread claims, completion
/// callbacks release. Consecutive claims get consecutive slots when idle,
/// which is what lets the server fuse contiguous small launches.
class Slots {
 public:
  explicit Slots(std::size_t n) : busy_(new std::atomic<bool>[n]), n_(n) {
    for (std::size_t i = 0; i < n; ++i) busy_[i].store(false);
  }
  std::optional<std::size_t> claim() {
    for (std::size_t k = 0; k < n_; ++k) {
      const std::size_t i = (next_ + k) % n_;
      if (!busy_[i].load(std::memory_order_acquire)) {
        busy_[i].store(true, std::memory_order_relaxed);
        next_ = i + 1;
        return i;
      }
    }
    return std::nullopt;
  }
  void release(std::size_t i) { busy_[i].store(false, std::memory_order_release); }

 private:
  std::unique_ptr<std::atomic<bool>[]> busy_;
  std::size_t n_;
  std::size_t next_ = 0;
};

struct ChainSlot {
  ocl::Buffer in{ocl::MemFlags::ReadWrite, kChainFloats * 4};
  ocl::Buffer out{ocl::MemFlags::ReadWrite, kChainFloats * 4};
  FloatVec src, dst, want;
};

struct BulkSlot {
  ocl::Buffer in{ocl::MemFlags::ReadWrite, kBulkItems * 4};
  ocl::Buffer out{ocl::MemFlags::ReadWrite, kBulkItems * 4};
  FloatVec want;
};

/// Outcome of one open-loop phase at one offered rate.
struct Phase {
  OpStats ops;
  Samples tenant_us[kTenants];
  Samples late_us, submit_ns;
  std::size_t backlog_max = 0, backlog_end = 0;
};

/// Requests of one phase and how many have finished. Callbacks hold
/// pointers into it, so it lives as long as the server.
struct PhaseState {
  explicit PhaseState(std::size_t n) : reqs(new ReqState[n]) {}
  std::unique_ptr<ReqState[]> reqs;
  std::atomic<std::size_t> finished{0};
};

/// Everything a set-up creates: device, server, sessions and the buffers of
/// every slot. Destroyed in reverse order: the server drains its queues (and
/// runs the last completion callbacks) before the buffers go away.
struct Rig {
  std::vector<std::unique_ptr<PhaseState>> phases;
  ocl::Buffer small_in{ocl::MemFlags::ReadWrite, kSmallItems * kSlots[kSmall] * 4};
  ocl::Buffer small_out{ocl::MemFlags::ReadWrite, kSmallItems * kSlots[kSmall] * 4};
  FloatVec small_want;
  std::vector<std::unique_ptr<BulkSlot>> bulk;
  std::vector<std::unique_ptr<ChainSlot>> chain;
  /// [slot][case][array]; null for local arrays.
  std::vector<std::vector<std::vector<std::unique_ptr<ocl::Buffer>>>> gen;
  std::optional<Slots> slots[kTenants];
  ocl::CpuDevice device;
  ocl::Context context{device};
  std::optional<serve::Server> server;
  serve::Session sessions[kTenants];
};

class ServeMix final : public Workload {
 public:
  explicit ServeMix(const Options& opt) : opt_(opt) {}

  double setup() override {
    rig_.reset();
    const std::uint64_t t0 = now_ns();
    gen_ = &generated_kernels(opt_.seed);
    auto rig = std::make_unique<Rig>();
    std::uint64_t salt = opt_.seed * 1000 + 1;
    auto fill = [&](ocl::Buffer& b, std::size_t n) {
      const FloatVec v = mcl::apps::random_floats(n, salt++, -2.0f, 2.0f);
      std::memcpy(b.device_ptr(), v.data(), n * 4);
      return v;
    };
    const FloatVec small = fill(rig->small_in, kSmallItems * kSlots[kSmall]);
    for (std::size_t i = 0; i < kSlots[kBulk]; ++i) {
      auto s = std::make_unique<BulkSlot>();
      s->want = fill(s->in, kBulkItems);
      rig->bulk.push_back(std::move(s));
    }
    for (std::size_t i = 0; i < kSlots[kChain]; ++i) {
      auto s = std::make_unique<ChainSlot>();
      s->src = mcl::apps::random_floats(kChainFloats, salt++, -2.0f, 2.0f);
      s->dst.assign(kChainFloats, 0.0f);
      rig->chain.push_back(std::move(s));
    }
    rig->gen.resize(kSlots[kGen]);
    for (auto& slot : rig->gen) {
      slot.resize(gen_->cases.size());
      for (std::size_t ci = 0; ci < gen_->cases.size(); ++ci) {
        for (const check::Array& a : gen_->cases[ci].arrays) {
          slot[ci].push_back(a.local ? nullptr
                                     : std::make_unique<ocl::Buffer>(
                                           ocl::MemFlags::ReadWrite,
                                           std::size_t(a.extent) * 4));
        }
      }
    }
    rig->server.emplace(rig->context);
    for (int t = 0; t < kTenants; ++t) {
      serve::TenantConfig cfg;
      cfg.name = kTenantNames[t];
      cfg.weight = kWeight[t];
      cfg.max_queue_depth = kDepth[t];
      cfg.admission = serve::AdmissionPolicy::Reject;
      if (t == kSmall) cfg.batch_max_items = 4096;
      rig->sessions[t] = rig->server->create_session(cfg);
      rig->slots[t].emplace(kSlots[t]);
    }
    const double seconds = double(now_ns() - t0) * 1e-9;
    // References (not part of the program's set-up).
    rig->small_want.assign(small.size(), 0.0f);
    for (std::size_t i = 0; i < small.size(); ++i) rig->small_want[i] = small[i] * small[i];
    for (auto& s : rig->bulk) {
      for (float& v : s->want) v = v * v;
    }
    for (auto& s : rig->chain) {
      s->want.resize(kChainFloats);
      for (std::size_t i = 0; i < kChainFloats; ++i) s->want[i] = s->src[i] * s->src[i];
    }
    rig_ = std::move(rig);
    return seconds;
  }

  OpStats run(double seconds, SpanLog* log) override {
    const Phase warm = phase(kRate, 0.2, opt_.seed * 7919 + 1, nullptr);
    Phase p = phase(kRate, seconds, opt_.seed * 7919 + 2, log);
    // Warm-up requests are checked and counted, not timed.
    p.ops.attempted += warm.ops.attempted;
    p.ops.failed += warm.ops.failed;
    p.ops.wrong += warm.ops.wrong;
    return std::move(p.ops);
  }

  void layers(double seconds, SpanLog* log, Report& r) override {
    const serve::ServerStats before = rig_->server->stats();
    const Phase p = phase(kRate, seconds * 0.4, opt_.seed * 7919 + 3, log);
    const serve::ServerStats after = rig_->server->stats();
    count_wrong_only(p.ops, r);
    r.add("serve.submit_ns", p.submit_ns.pct(50), "ns");
    for (int t = 0; t < kTenants; ++t) {
      const std::string base = std::string("serve.") + kTenantNames[t];
      r.add(base + ".p50_us", p.tenant_us[t].pct(50), "us");
      r.add(base + ".p99_us", p.tenant_us[t].pct(99), "us");
      r.note(base + ".samples", double(p.tenant_us[t].size()), "count");
      r.note(base + ".p99_beyond", double(p.tenant_us[t].beyond(99)), "count");
    }
    double small_sub = 0, rejected = 0, submitted = 0, hits = 0, lookups = 0;
    for (std::size_t t = 0; t < after.tenants.size(); ++t) {
      const serve::SessionStats& a = after.tenants[t];
      const serve::SessionStats& b = before.tenants[t];
      if (t == kSmall) small_sub = double(a.submitted - b.submitted);
      rejected += double(a.rejected - b.rejected);
      submitted += double(a.submitted - b.submitted);
      hits += double(a.cache_hits - b.cache_hits);
      lookups += double(a.cache_hits - b.cache_hits + a.cache_misses - b.cache_misses);
    }
    r.add("serve.fused_frac",
          small_sub > 0 ? double(after.fused_requests - before.fused_requests) / small_sub
                        : 0.0,
          "ratio");
    r.add("serve.reject_frac",
          submitted + rejected > 0 ? rejected / (submitted + rejected) : 0.0,
          "ratio");
    r.add("serve.cache_hit_frac", lookups > 0 ? hits / lookups : 0.0, "ratio");
    r.add("serve.backlog_max", double(p.backlog_max), "count");
    r.add("gen.late_p99_us", p.late_us.pct(99), "us");
    r.add("sustained_ops_per_s", sustained(seconds * 0.6, r), "1/s");
  }

 private:
  /// In the layer group, refusals are measured (serve.reject_frac, the
  /// ladder), so only wrong outputs count against the run.
  static void count_wrong_only(const OpStats& ops, Report& r) {
    OpStats checked;
    checked.attempted = ops.attempted;
    checked.failed = checked.wrong = ops.wrong;
    r.count(checked);
  }

  /// Highest ladder rate that passes, by binary search on the fixed ladder
  /// (assuming a rung passes when every rung below it does).
  double sustained(double seconds, Report& r) {
    int lo = -1, hi = kRungs;
    const int probes = static_cast<int>(std::ceil(std::log2(kRungs + 1.0)));
    for (int i = 0; i < probes && hi - lo > 1; ++i) {
      const int mid = (lo + hi) / 2;
      const double rate = rung(mid);
      const Phase p = phase(rate, seconds / probes * 0.8,
                            opt_.seed * 7919 + 100 + mid, nullptr);
      count_wrong_only(p.ops, r);
      const double p99 = p.ops.latencies().pct(99.0);
      const bool pass =
          p.ops.failed == 0 && p99 <= kLimitUs &&
          double(p.backlog_end) <= std::max(8.0, rate * kLimitUs * 1e-6);
      r.note("ladder.rung" + std::to_string(mid) + (pass ? ".pass" : ".fail"),
             p99, "us");
      (pass ? lo : hi) = mid;
    }
    r.note("ladder.rung", lo, "count");
    return lo >= 0 ? rung(lo) : rung(0) / kLadderStep;
  }

  [[nodiscard]] static double rung(int k) {
    return kLadderBase * std::pow(kLadderStep, k);
  }

  /// Runs one open-loop phase: submits the seeded schedule on time, then
  /// waits (bounded) for every admitted request to finish.
  Phase phase(double rate, double seconds, std::uint64_t sched_seed,
              SpanLog* log) {
    Rig& rig = *rig_;
    const std::vector<Arrival> arrivals =
        make_schedule(sched_seed, rate, seconds, gen_->cases.size());
    const std::size_t n = arrivals.size();
    rig.phases.push_back(std::make_unique<PhaseState>(n));
    ReqState* reqs = rig.phases.back()->reqs.get();
    std::atomic<std::size_t>& finished = rig.phases.back()->finished;
    Phase p;
    p.submit_ns.reserve(n);
    p.late_us.reserve(n);

    prctl(PR_SET_TIMERSLACK, 1UL);  // wake the generator on time
    const std::uint64_t start = now_ns() + 1'000'000;
    p.ops.start_ticks(seconds);
    for (std::size_t i = 0; i < n; ++i) {
      const Arrival& a = arrivals[i];
      ReqState& q = reqs[i];
      p.ops.tick(double(a.offset_ns) * 1e-9);
      q.tenant = a.tenant;
      q.due_ns = start + a.offset_ns;
      for (std::uint64_t t = now_ns(); t < q.due_ns; t = now_ns()) {
        if (q.due_ns - t > 20'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(q.due_ns - t - 10'000));
        }
      }
      q.submit_ns = now_ns();
      const bool admitted = submit(a, q, finished);
      q.submitted_ns = now_ns();
      p.late_us.add(double(q.submit_ns - q.due_ns) * 1e-3);
      p.submit_ns.add(double(q.submitted_ns - q.submit_ns));
      if (!admitted) {
        q.result.store(2, std::memory_order_relaxed);
        finished.fetch_add(1, std::memory_order_relaxed);
      }
      const std::size_t backlog = i + 1 - finished.load(std::memory_order_relaxed);
      p.backlog_max = std::max(p.backlog_max, backlog);
    }
    p.backlog_end = n - finished.load(std::memory_order_relaxed);
    const std::uint64_t end = now_ns();
    // Bounded drain: whatever has not finished by then counts as failed.
    const std::uint64_t drain_deadline = now_ns() + 10'000'000'000ull;
    while (finished.load(std::memory_order_acquire) < n && now_ns() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    p.ops.wall_s = double(end - start) * 1e-9;
    p.ops.tick(p.ops.wall_s);
    for (std::size_t i = 0; i < n; ++i) {
      const ReqState& q = reqs[i];
      ++p.ops.attempted;
      // result first: its release store publishes done_ns.
      const int result = q.result.load(std::memory_order_acquire);
      const std::uint64_t done = q.done_ns.load(std::memory_order_relaxed);
      if (result != 1) {
        ++p.ops.failed;
        p.ops.wrong += result == 3 ? 1 : 0;
      } else {
        const double us = double(done - q.due_ns) * 1e-3;
        p.ops.record(double(done - start) * 1e-9, us, q.bytes);
        p.tenant_us[q.tenant].add(us);
      }
      if (log != nullptr && done != 0) {
        const std::int64_t op = log->add("op", i, -1, q.due_ns, done);
        log->add("gen.late", i, op, q.due_ns, q.submit_ns);
        log->add("serve.submit", i, op, q.submit_ns, q.submitted_ns);
        log->add("serve.wait", i, op, q.submitted_ns, done);
      }
    }
    return p;
  }

  /// Completion: timestamp first, then check the output, then free the slot.
  template <typename Check>
  void on_done(const serve::Ticket& t, ReqState& q, Tenant tenant,
               std::size_t slot, std::atomic<std::size_t>& finished,
               Check check) {
    Slots* slots = &*rig_->slots[tenant];
    const Options* opt = &opt_;
    t.event()->on_complete([opt, &q, slots, slot, &finished,
                            check](mcl::core::Status st) {
      q.done_ns.store(now_ns(), std::memory_order_relaxed);
      int result = 2;
      if (st == mcl::core::Status::Success) {
        result = check(take_corruption(*opt)) ? 1 : 3;
      }
      q.result.store(result, std::memory_order_release);
      slots->release(slot);
      finished.fetch_add(1, std::memory_order_release);
    });
  }

  /// Submits one arrival; false when refused (by admission or for want of
  /// an idle slot).
  bool submit(const Arrival& a, ReqState& q, std::atomic<std::size_t>& finished) {
    Rig& rig = *rig_;
    const std::optional<std::size_t> claimed = rig.slots[a.tenant]->claim();
    if (!claimed) return false;
    const std::size_t slot = *claimed;
    serve::Session& session = rig.sessions[a.tenant];
    serve::LaunchSpec spec;
    spec.kernel = "square";
    switch (a.tenant) {
      case kSmall: {
        float* out = static_cast<float*>(rig.small_out.device_ptr()) + slot * kSmallItems;
        std::memset(out, 0xff, kSmallItems * 4);
        spec.args = {serve::ArgSpec::buf(rig.small_in), serve::ArgSpec::buf(rig.small_out)};
        spec.global = ocl::NDRange{kSmallItems};
        if (slot != 0) spec.offset = ocl::NDRange{slot * kSmallItems};
        std::optional<serve::Ticket> t = session.try_submit(std::move(spec));
        if (!t) break;
        q.bytes = kSmallItems * 8.0;
        const float* want = rig.small_want.data() + slot * kSmallItems;
        on_done(*t, q, kSmall, slot, finished, [out, want](bool corrupt) {
          if (corrupt) out[1] += 1.0f;
          return std::memcmp(out, want, kSmallItems * 4) == 0;
        });
        return true;
      }
      case kBulk: {
        BulkSlot& s = *rig.bulk[slot];
        std::memset(s.out.device_ptr(), 0xff, kBulkItems * 4);
        spec.args = {serve::ArgSpec::buf(s.in), serve::ArgSpec::buf(s.out)};
        spec.global = ocl::NDRange{kBulkItems};
        std::optional<serve::Ticket> t = session.try_submit(std::move(spec));
        if (!t) break;
        q.bytes = kBulkItems * 8.0;
        on_done(*t, q, kBulk, slot, finished, [&s](bool corrupt) {
          float* out = static_cast<float*>(s.out.device_ptr());
          if (corrupt) out[7] += 1.0f;
          return std::memcmp(out, s.want.data(), kBulkItems * 4) == 0;
        });
        return true;
      }
      case kChain: {
        ChainSlot& s = *rig.chain[slot];
        std::memset(s.out.device_ptr(), 0xff, kChainFloats * 4);
        std::memset(s.dst.data(), 0xff, kChainFloats * 4);
        // Write -> launch -> read; a refusal part-way leaves the admitted
        // head running, so the slot is freed when that head finishes.
        std::optional<serve::Ticket> last;
        try {
          serve::Ticket w = session.submit_write(s.in, 0, kChainFloats * 4, s.src.data());
          last = w;
          spec.args = {serve::ArgSpec::buf(s.in), serve::ArgSpec::buf(s.out)};
          spec.global = ocl::NDRange{kChainFloats};
          std::optional<serve::Ticket> l = session.try_submit(std::move(spec), {w});
          if (l) {
            last = *l;
            last = session.submit_read(s.out, 0, kChainFloats * 4, s.dst.data(), {*l});
            q.bytes = kChainFloats * 16.0;
            on_done(*last, q, kChain, slot, finished, [&s](bool corrupt) {
              if (corrupt) s.dst[3] += 1.0f;
              return std::memcmp(s.dst.data(), s.want.data(), kChainFloats * 4) == 0;
            });
            return true;
          }
        } catch (const mcl::core::Error&) {
          // Refused by admission (Reject policy).
        }
        if (!last) break;
        // Refused after the head was admitted: the op has failed; free the
        // slot once the admitted part is done.
        Slots* slots = &*rig.slots[kChain];
        last->event()->on_complete([slots, slot](mcl::core::Status) { slots->release(slot); });
        return false;
      }
      case kGen: {
        const std::size_t ci = a.gen_case;
        const check::Case& c = gen_->cases[ci];
        auto& bufs = rig.gen[slot][ci];
        spec.kernel = gen_->names[ci];
        spec.args.push_back(serve::ArgSpec::scalar_of(&c));
        double bytes = 0.0;
        for (std::size_t ai = 0; ai < c.arrays.size(); ++ai) {
          const check::Array& arr = c.arrays[ai];
          if (arr.local) {
            spec.args.push_back(serve::ArgSpec::local(std::size_t(arr.extent) * 4));
            continue;
          }
          const auto& init = gen_->init[ci].arrays[ai];
          std::memcpy(bufs[ai]->device_ptr(), init.data(), init.size() * 4);
          spec.args.push_back(serve::ArgSpec::buf(*bufs[ai]));
          bytes += double(init.size()) * 4.0;
        }
        spec.global = ocl::NDRange{c.global};
        if (c.has_barrier() || c.has_local()) spec.local = ocl::NDRange{c.local};
        std::optional<serve::Ticket> t = session.try_submit(std::move(spec));
        if (!t) break;
        q.bytes = bytes;
        const check::Memory* want = &gen_->want[ci];
        auto* slot_bufs = &bufs;
        on_done(*t, q, kGen, slot, finished, [want, slot_bufs, &c](bool corrupt) {
          bool ok = true;
          for (std::size_t ai = 0; ai < c.arrays.size(); ++ai) {
            if (c.arrays[ai].local) continue;
            auto* got = static_cast<std::uint32_t*>((*slot_bufs)[ai]->device_ptr());
            if (corrupt && !c.arrays[ai].read_only) {
              got[0] ^= 1u;
              corrupt = false;
            }
            const auto& w = want->arrays[ai];
            ok &= std::memcmp(got, w.data(), w.size() * 4) == 0;
          }
          return ok;
        });
        return true;
      }
      case kTenants:
        break;
    }
    rig.slots[a.tenant]->release(slot);
    return false;
  }

  Options opt_;
  const GenKernels* gen_ = nullptr;
  std::unique_ptr<Rig> rig_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(const Options& opt) {
  return std::make_unique<ServeMix>(opt);
}

}  // namespace perf
