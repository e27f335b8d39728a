#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/sysinfo.hpp"
#include "ocl/detail/checked_runner.hpp"
#include "ocl/detail/group_runner.hpp"
#include "ocl/device.hpp"
#include "prof/profiler.hpp"
#include "simd/vec.hpp"
#include "threading/affinity.hpp"
#include "threading/thread_pool.hpp"
#include "trace/trace.hpp"
#include "tune/tune.hpp"

namespace mcl::ocl {

namespace {

/// Total bytes of all bound buffer arguments — the traffic estimate behind
/// trace args and KernelProfile::achieved_gbps (each byte counted once per
/// launch, so re-reads are invisible; it is a floor, not a measurement).
std::uint64_t total_arg_bytes(const KernelArgs& args) {
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < args.arg_count(); ++i) {
    if (args.is_buffer(i)) bytes += args.buffer_object(i)->size();
  }
  return bytes;
}

/// Fault-injection hook for mclcheck's self-test (see docs/mclcheck.md):
/// MCL_CHECK_INJECT=chunker makes the pooled dispatch drop the last
/// workgroup, an off-by-one the differential fuzzer must catch and
/// minimize. Never set outside that acceptance test.
bool inject_chunker_bug() {
  const char* inject = std::getenv("MCL_CHECK_INJECT");
  return inject != nullptr && std::string_view(inject) == "chunker";
}

prof::LaunchMeta launch_meta(const KernelDef& def, const KernelArgs& args,
                             const detail::GroupRunner& runner,
                             ExecutorKind used, double seconds) {
  prof::LaunchMeta meta;
  meta.groups = runner.total_groups();
  meta.items = static_cast<std::uint64_t>(runner.total_groups()) *
               runner.local().total();
  if (used == ExecutorKind::Simd) {
    // The Simd executor batches full lane groups along dim 0 of each local
    // row and runs the remainder scalar: (local0 - local0 % W) of every row.
    const std::size_t W = static_cast<std::size_t>(simd::kNativeFloatWidth);
    const std::size_t local0 = std::max<std::size_t>(runner.local()[0], 1);
    meta.simd_items = meta.items / local0 * (local0 - local0 % W);
  }
  meta.has_simd_form = def.simd != nullptr && simd::kNativeFloatWidth > 1;
  meta.seconds = seconds;
  meta.est_bytes = total_arg_bytes(args);
  return meta;
}

/// The one group body every dispatcher runs: the launcher's causal context
/// (pool and pinned threads lack it), the wg: span and the hardware-counter
/// scope — each disarms on null/zero — around the group. It never throws
/// (ThreadPool's fn must not; a pinned thread that does terminates): the
/// first error is kept for the launcher, and later groups are skipped.
struct GroupBody {
  const detail::GroupRunner& runner;
  const char* wg_name;      ///< null when tracing is off
  std::uint64_t est_bytes;  ///< buffer bytes split evenly across groups
  prof::LaunchAcc* acc;     ///< null when not profiling
  std::uint64_t ctx;
  std::atomic<bool> failed{false};
  std::exception_ptr error{};

  /// `cpu` tags a pinned launch's wg: span; the others tag the worker.
  void operator()(std::size_t g, int cpu = -1) noexcept {
    if (failed.load(std::memory_order_relaxed)) return;
    trace::ContextScope cscope(ctx);
    trace::ScopedSpan span(
        wg_name, cpu >= 0 ? "group,cpu,est_bytes" : "group,worker,est_bytes",
        g,
        cpu >= 0 ? static_cast<std::uint64_t>(cpu)
                 : (wg_name != nullptr ? trace::current_thread_id() : 0),
        est_bytes);
    prof::GroupScope hw(acc);
    try {
      runner.run_group(g);
    } catch (...) {
      if (!failed.exchange(true, std::memory_order_acq_rel)) {
        error = std::current_exception();
      }
    }
  }
};

}  // namespace

CpuDevice::CpuDevice(CpuDeviceConfig config)
    : config_(config), pool_(config.threads) {}

std::string CpuDevice::name() const {
  const core::HostInfo host = core::probe_host();
  return host.cpu_model.empty() ? "MiniCL CPU" : host.cpu_model;
}

int CpuDevice::compute_units() const {
  return static_cast<int>(pool_.thread_count());
}

LaunchResult CpuDevice::launch(const KernelDef& def, const KernelArgs& args,
                               const NDRange& global, const NDRange& local,
                               const NDRange& offset) {
  return run_launch(def, args, global, local, offset,
                    {{0, pool_.thread_count()}, &launch_mutex_, {}});
}

int CpuDevice::pool_worker_index() const noexcept {
  return pool_.worker_index_here();
}

std::vector<std::shared_ptr<CpuSubDevice>> CpuDevice::partition_equally(
    std::size_t units) {
  const std::size_t total = pool_.thread_count();
  core::check(units > 0 && units <= total, core::Status::InvalidValue,
              "partition_equally: units must be in [1, compute_units]");
  std::vector<std::shared_ptr<CpuSubDevice>> subs;
  subs.reserve(total / units);
  for (std::size_t begin = 0; begin + units <= total; begin += units) {
    subs.push_back(std::make_shared<CpuSubDevice>(
        *this, threading::WorkerSpan{begin, begin + units}, subs.size()));
  }
  return subs;
}

std::vector<std::shared_ptr<CpuSubDevice>> CpuDevice::partition_by_counts(
    std::span<const std::size_t> counts) {
  const std::size_t total = pool_.thread_count();
  core::check(!counts.empty(), core::Status::InvalidValue,
              "partition_by_counts: counts must be non-empty");
  std::size_t sum = 0;
  for (std::size_t c : counts) {
    core::check(c > 0, core::Status::InvalidValue,
                "partition_by_counts: zero-width sub-device");
    sum += c;
  }
  core::check(sum <= total, core::Status::InvalidValue,
              "partition_by_counts: counts exceed compute_units");
  std::vector<std::shared_ptr<CpuSubDevice>> subs;
  subs.reserve(counts.size());
  std::size_t begin = 0;
  for (std::size_t c : counts) {
    subs.push_back(std::make_shared<CpuSubDevice>(
        *this, threading::WorkerSpan{begin, begin + c}, subs.size()));
    begin += c;
  }
  return subs;
}

CpuSubDevice::CpuSubDevice(CpuDevice& parent, threading::WorkerSpan span,
                           std::size_t index)
    : parent_(&parent), span_(span), index_(index) {}

std::string CpuSubDevice::name() const {
  return parent_->name() + " [sub " + std::to_string(index_) + ": workers " +
         std::to_string(span_.begin) + ".." + std::to_string(span_.end) + ")";
}

LaunchResult CpuSubDevice::launch(const KernelDef& def, const KernelArgs& args,
                                  const NDRange& global, const NDRange& local,
                                  const NDRange& offset) {
  return parent_->run_launch(def, args, global, local, offset,
                             {span_, &launch_mutex_, {}});
}

LaunchResult CpuDevice::launch_pinned(const KernelDef& def,
                                      const KernelArgs& args,
                                      const NDRange& global,
                                      const NDRange& local,
                                      std::span<const int> group_to_cpu) {
  return run_launch(def, args, global, local, NDRange{},
                    {{}, &launch_mutex_, group_to_cpu});
}

LaunchResult CpuDevice::run_launch(const KernelDef& def,
                                   const KernelArgs& args,
                                   const NDRange& global, const NDRange& local,
                                   const NDRange& offset,
                                   const Placement& where) {
  const bool pinned = where.group_to_cpu.has_value();
  const std::size_t threads = std::max<std::size_t>(where.span.size(), 1);
  // mcltune hook: only pool launches that leave every knob to the runtime
  // are tunable (an explicit executor config, a dispatch-order override or a
  // CPU map is the caller asserting policy, e.g. the ablation benches' fixed
  // arms). Local size is overridden only when the caller passed NullRange
  // and the kernel binds no local-memory args — their byte counts were sized
  // for the caller's groups. One relaxed load when MCL_TUNE is off.
  ExecutorKind exec_kind = config_.executor;
  NDRange launch_local = local;
  std::size_t chunk_divisor = 16;
  threading::ScheduleStrategy scheduler = config_.scheduler;
  std::optional<tune::Decision> tuned;
  if (tune::enabled() && config_.executor == ExecutorKind::Auto &&
      !config_.dispatch_order && !pinned) {
    tuned = tune::Tuner::instance().decide(def, global, local,
                                           args.total_local_bytes() > 0,
                                           threads);
    if (tuned) {
      exec_kind = tuned->config.executor;
      // The tuner keys entries on has_local_args, so a local override can
      // only come from a no-local-args entry; re-check here anyway — the
      // caller's local byte counts are sized for its own group size, and a
      // resized group indexing past them is memory corruption, not a tuning
      // regression.
      if (local.is_null() && args.total_local_bytes() == 0 &&
          !tuned->config.local.is_null()) {
        launch_local = tuned->config.local;
      }
      chunk_divisor = tuned->config.chunk_divisor;
      scheduler = tuned->config.scheduler;
    }
  }

  // 1. Build the runner. The Checked executor (mclsan dynamic mode) wraps
  // it in a CheckedRunner, whose run() is the serial, instrumented
  // whole-launch execution; it throws SanitizerViolation after the launch
  // completes on any finding.
  std::optional<detail::CheckedRunner> checked;
  std::optional<detail::GroupRunner> plain;
  if (config_.executor == ExecutorKind::Checked) {
    checked.emplace(def, args, global, launch_local, offset);
  } else {
    plain.emplace(def, args, global, launch_local, exec_kind, offset);
  }
  const detail::GroupRunner& runner = checked ? checked->validator() : *plain;
  const std::size_t groups = runner.total_groups();

  // Pinned launches bucket workgroups by target CPU: one thread per CPU.
  std::map<int, std::vector<std::size_t>> by_cpu;
  if (pinned) {
    const std::span<const int> group_to_cpu = *where.group_to_cpu;
    core::check(group_to_cpu.size() == groups, core::Status::InvalidValue,
                "group_to_cpu must name a CPU for every workgroup");
    for (std::size_t g = 0; g < groups; ++g) {
      core::check(group_to_cpu[g] >= 0, core::Status::InvalidValue,
                  "negative CPU id in group_to_cpu");
      by_cpu[group_to_cpu[g]].push_back(g);
    }
  }

  LaunchResult result;
  result.local_used = runner.local();
  result.executor_used = checked ? ExecutorKind::Checked : runner.executor();

  // 2-4. Serialize on the (sub-)device, open the launch span, start timing.
  std::lock_guard launch_lock(*where.launch_mutex);
  trace::ScopedSpan launch_span(
      trace::enabled() ? trace::intern("launch:" + def.name) : nullptr,
      "groups,threads", groups, pinned ? by_cpu.size() : threads);
  prof::LaunchAcc acc;
  prof::LaunchAcc* const accp = prof::profiling() ? &acc : nullptr;
  const core::TimePoint t0 = core::now();

  // 5-6. Run every workgroup through the group body on one dispatcher, wait
  // for every participant, then rethrow the first error here.
  if (checked) {
    // One counter scope around the whole serial run: hw counters still
    // attribute to the kernel without a per-group fan-out.
    prof::GroupScope hw(accp);
    checked->run();
  } else {
    const char* wg_name =
        trace::enabled() ? trace::intern("wg:" + def.name) : nullptr;
    GroupBody body{runner, wg_name,
                   wg_name != nullptr ? total_arg_bytes(args) / groups : 0,
                   accp, trace::current_context()};
    if (config_.dispatch_order) {
      // mclcheck's metamorphic dispatch-order transform: workgroups run
      // serially on this thread in the permuted order. Race-free kernels
      // must be insensitive to it; the pool (and its chunker) is bypassed so
      // the order is exact, not a scheduling hint.
      for (std::size_t k = 0; k < groups; ++k) {
        const std::size_t g = config_.dispatch_order(k, groups);
        core::check(g < groups, core::Status::InvalidValue,
                    "dispatch_order returned an out-of-range workgroup index");
        body(g);
      }
    } else if (pinned) {
      // Joined when this scope ends, also if starting a thread throws.
      std::vector<std::jthread> workers;
      workers.reserve(by_cpu.size());
      for (const auto& [cpu, cpu_groups] : by_cpu) {
        workers.emplace_back([cpu = cpu, &cpu_groups, &body] {
          threading::pin_current_thread(cpu);
          for (const std::size_t g : cpu_groups) body(g, cpu);
        });
      }
    } else {
      // Workgroups are claimed in chunks (as TBB-based runtimes do) so the
      // shared-counter cost amortizes; per-group and per-item costs remain.
      // `threads` is the shard width: sub-device launches size their chunks
      // for the shard, not the whole pool.
      const std::size_t chunk = std::clamp<std::size_t>(
          groups / (threads * chunk_divisor), 1, 64);
      // Real dispatch extent; diverges from `groups` only under the
      // MCL_CHECK_INJECT=chunker fault (drops the last group when there are
      // at least two) so mclcheck's catch-and-minimize path can be exercised.
      std::size_t dispatch_groups = groups;
      if (dispatch_groups > 1 && inject_chunker_bug()) --dispatch_groups;
      result.schedule = pool_.parallel_run_on(
          where.span, dispatch_groups, [&body](std::size_t g) { body(g); },
          chunk, scheduler);
    }
    if (body.error) std::rethrow_exception(body.error);
  }
  result.seconds = core::elapsed_s(t0, core::now());

  // 7. Report to the tuner and commit the profile, once per launch.
  if (tuned) tune::Tuner::instance().report(*tuned, result.seconds);
  if (accp != nullptr) {
    result.profile = prof::commit_launch(
        def.name, acc,
        launch_meta(def, args, runner, result.executor_used, result.seconds));
  }
  return result;
}

}  // namespace mcl::ocl
