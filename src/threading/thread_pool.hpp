// Fixed-size worker pool.
//
// Two entry points:
//  - submit(): generic fire-and-forget tasks (used by the command queue).
//  - parallel_run(): execute `count` index-addressed tasks and wait. This is
//    the path NDRange launches take: one index = one workgroup, workers pop
//    indices from a shared atomic counter (the same workgroup-stealing scheme
//    CPU OpenCL runtimes use), so per-workgroup scheduling cost is real and
//    measurable.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mcl::threading {

/// How parallel_run distributes indices over workers.
enum class ScheduleStrategy {
  /// One shared atomic counter; workers pop chunks from it. Simple, fair,
  /// but every claim contends on one cache line (the default, and what
  /// several CPU OpenCL runtimes shipped).
  CentralCounter,
  /// Per-worker contiguous ranges; an idle worker steals the upper half of
  /// a victim's remaining range (TBB-style). Less contention, better
  /// locality for index-correlated data.
  WorkStealing,
};

/// Per-batch execution statistics (load balance across participants).
struct RunStats {
  std::size_t participants = 0;  ///< threads that executed >= 1 index
  std::size_t max_per_participant = 0;
  /// max / mean over participating threads; 1.0 = perfectly balanced.
  double imbalance = 1.0;
};

/// Half-open range [begin, end) of worker indices — the unit of pool
/// sharding. A sub-device owns one span; spans of sibling sub-devices are
/// disjoint, so their batches never share a worker (and WorkStealing never
/// steals across shards: steal victims are slots of the same batch).
struct WorkerSpan {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] constexpr std::size_t size() const noexcept {
    return end - begin;
  }
  [[nodiscard]] constexpr bool contains(std::size_t i) const noexcept {
    return i >= begin && i < end;
  }
};

class ThreadPool {
 public:
  /// `threads` == 0 selects logical_cpu_count(). Workers are not pinned;
  /// placement by CPU is CpuDevice::launch_pinned's job.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueues a task; runs on some worker eventually.
  void submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, count) across the pool (the calling thread
  /// participates), returning when all indices completed. `chunk` indices
  /// are claimed per counter pop (CentralCounter) or per owner claim
  /// (WorkStealing). Not reentrant: do not call parallel_run from inside fn.
  /// fn must not throw: an exception would unwind the caller while workers
  /// still run fn, so callers catch inside fn (CpuDevice's group body keeps
  /// the first error and rethrows it after the batch). WorkStealing supports
  /// counts < 2^32. Returns load-balance statistics.
  RunStats parallel_run(std::size_t count,
                        const std::function<void(std::size_t)>& fn,
                        std::size_t chunk = 1,
                        ScheduleStrategy strategy = ScheduleStrategy::CentralCounter);

  /// parallel_run restricted to the workers of `span` (plus the calling
  /// thread, which always participates and guarantees completion even if
  /// every spanned worker is busy elsewhere); fn must not throw here either.
  /// Concurrent calls on disjoint spans proceed in parallel with disjoint
  /// worker sets — the sub-device sharding substrate. Concurrent calls on overlapping spans are safe but
  /// contend: a worker helps one batch at a time, and each caller finishes
  /// its own batch regardless.
  RunStats parallel_run_on(WorkerSpan span, std::size_t count,
                           const std::function<void(std::size_t)>& fn,
                           std::size_t chunk = 1,
                           ScheduleStrategy strategy = ScheduleStrategy::CentralCounter);

  /// Index of the calling thread within THIS pool's workers, or -1 when the
  /// caller is not one of this pool's workers (other pools' workers included:
  /// identity is (pool, index), not the bare index). Shard tests use this to
  /// prove a sub-device launch never left its worker span.
  [[nodiscard]] int worker_index_here() const noexcept;

  /// Blocks until all previously submitted tasks have finished.
  void wait_idle();

 private:
  struct Batch {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t count = 0;
    std::size_t chunk = 1;
    const std::function<void(std::size_t)>* fn = nullptr;
    // WorkStealing state: per-slot packed ranges (next:32 | end:32) and a
    // participant-id dispenser. Slots cover only the batch's span workers
    // plus the caller, so steals stay inside the shard by construction.
    ScheduleStrategy strategy = ScheduleStrategy::CentralCounter;
    std::vector<std::atomic<std::uint64_t>> slots;
    std::atomic<std::size_t> participants{0};
    // Per-participant executed-index tallies (sized span workers + 1).
    std::vector<std::atomic<std::size_t>> executed;
    std::atomic<std::size_t> tally_ids{0};
  };

  void worker_loop(std::size_t worker_index);
  static void drain_batch(Batch& batch);
  static void drain_batch_stealing(Batch& batch);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  /// Per-worker active batch slot, read and written under mutex_ (a worker
  /// checks it in its cv wait predicate, so publishing outside the lock
  /// could land between the check and the sleep and lose the wakeup). A
  /// worker drains only its own slot; disjoint spans therefore run
  /// concurrently without sharing any scheduling state.
  std::vector<std::shared_ptr<Batch>> worker_batch_;
  bool stop_ = false;
};

}  // namespace mcl::threading
