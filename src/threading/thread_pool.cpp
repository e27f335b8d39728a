#include "threading/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "prof/metrics.hpp"
#include "threading/affinity.hpp"
#include "trace/trace.hpp"

namespace mcl::threading {

namespace {

// Process-wide count of threads currently executing pool work, sampled into
// the "pool.active" trace counter so worker occupancy is visible on the
// timeline. Only touched while tracing is on.
std::atomic<int> g_active_workers{0};

class OccupancyScope {
 public:
  OccupancyScope() : armed_(trace::enabled()) {
    if (armed_) {
      trace::counter(
          "pool.active",
          static_cast<double>(
              g_active_workers.fetch_add(1, std::memory_order_relaxed) + 1));
    }
  }
  ~OccupancyScope() {
    if (armed_) {
      trace::counter(
          "pool.active",
          static_cast<double>(
              g_active_workers.fetch_sub(1, std::memory_order_relaxed) - 1));
    }
  }
  OccupancyScope(const OccupancyScope&) = delete;
  OccupancyScope& operator=(const OccupancyScope&) = delete;

 private:
  // Snapshot of enabled() at entry so the decrement always balances the
  // increment even if tracing flips mid-scope.
  const bool armed_;
};

// Worker identity of the calling thread: which pool it belongs to (if any)
// and its index there. A bare index is ambiguous — the device pool and the
// queue executor pool both number workers from 0.
thread_local const ThreadPool* tl_worker_pool = nullptr;
thread_local int tl_worker_index = -1;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = static_cast<std::size_t>(logical_cpu_count());
  worker_batch_.resize(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

int ThreadPool::worker_index_here() const noexcept {
  return tl_worker_pool == this ? tl_worker_index : -1;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MCL_PROF_COUNT("pool.tasks", 1);
  {
    std::lock_guard lock(mutex_);
    tasks_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_.notify_one();
}

namespace {

constexpr std::uint64_t pack_range(std::uint64_t next, std::uint64_t end) {
  return (next << 32) | end;
}
constexpr std::uint32_t range_next(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed >> 32);
}
constexpr std::uint32_t range_end(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed & 0xffffffffu);
}

}  // namespace

void ThreadPool::drain_batch_stealing(Batch& batch) {
  const std::size_t nslots = batch.slots.size();
  const std::size_t my_slot =
      batch.participants.fetch_add(1, std::memory_order_relaxed) % nslots;
  const std::size_t my_tally =
      batch.tally_ids.fetch_add(1, std::memory_order_relaxed) %
      batch.executed.size();
  std::size_t executed = 0;

  // Claim `chunk` indices from slot `s` (owner and thief fast-path share the
  // same CAS, so no index is ever double-claimed).
  const auto claim_front = [&](std::size_t s) -> std::pair<std::size_t, std::size_t> {
    std::uint64_t cur = batch.slots[s].load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t n = range_next(cur);
      const std::uint32_t e = range_end(cur);
      if (n >= e) return {0, 0};
      const std::uint32_t take =
          std::min<std::uint32_t>(static_cast<std::uint32_t>(batch.chunk), e - n);
      if (batch.slots[s].compare_exchange_weak(cur, pack_range(n + take, e),
                                               std::memory_order_acq_rel)) {
        return {n, n + take};
      }
    }
  };
  // Steal the upper half of slot `s`'s remaining range into my slot.
  const auto steal_from = [&](std::size_t s) -> bool {
    std::uint64_t cur = batch.slots[s].load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t n = range_next(cur);
      const std::uint32_t e = range_end(cur);
      if (e - n < 2 * batch.chunk) return false;  // not worth splitting
      const std::uint32_t mid = n + (e - n) / 2;
      if (batch.slots[s].compare_exchange_weak(cur, pack_range(n, mid),
                                               std::memory_order_acq_rel)) {
        batch.slots[my_slot].store(pack_range(mid, e),
                                   std::memory_order_release);
        MCL_TRACE_INSTANT("pool.steal", "victim,thief,taken", s, my_slot,
                          e - mid);
        return true;
      }
    }
  };

  for (;;) {
    const auto [b, e] = claim_front(my_slot);
    if (b != e) {
      for (std::size_t i = b; i < e; ++i) (*batch.fn)(i);
      executed += e - b;
      continue;
    }
    // Own slot empty: look for a victim.
    bool stole = false;
    for (std::size_t v = 1; v < nslots && !stole; ++v) {
      stole = steal_from((my_slot + v) % nslots);
    }
    if (!stole) break;
  }
  if (executed > 0) {
    batch.executed[my_tally].fetch_add(executed, std::memory_order_relaxed);
    batch.done.fetch_add(executed, std::memory_order_acq_rel);
  }
}

void ThreadPool::drain_batch(Batch& batch) {
  OccupancyScope occupancy;
  MCL_TRACE_SCOPE("pool.drain");
  if (batch.strategy == ScheduleStrategy::WorkStealing) {
    drain_batch_stealing(batch);
    return;
  }
  std::size_t executed = 0;
  for (;;) {
    const std::size_t begin =
        batch.next.fetch_add(batch.chunk, std::memory_order_relaxed);
    if (begin >= batch.count) break;
    const std::size_t end = std::min(begin + batch.chunk, batch.count);
    for (std::size_t i = begin; i < end; ++i) (*batch.fn)(i);
    batch.done.fetch_add(end - begin, std::memory_order_acq_rel);
    executed += end - begin;
  }
  if (executed > 0) {
    const std::size_t tally =
        batch.tally_ids.fetch_add(1, std::memory_order_relaxed) %
        batch.executed.size();
    batch.executed[tally].fetch_add(executed, std::memory_order_relaxed);
  }
}

RunStats ThreadPool::parallel_run(std::size_t count,
                                  const std::function<void(std::size_t)>& fn,
                                  std::size_t chunk, ScheduleStrategy strategy) {
  return parallel_run_on({0, workers_.size()}, count, fn, chunk, strategy);
}

RunStats ThreadPool::parallel_run_on(WorkerSpan span, std::size_t count,
                                     const std::function<void(std::size_t)>& fn,
                                     std::size_t chunk,
                                     ScheduleStrategy strategy) {
  if (count == 0) return {};
  if (chunk == 0) chunk = 1;
  span.end = std::min(span.end, workers_.size());
  span.begin = std::min(span.begin, span.end);
  MCL_TRACE_SCOPE("pool.batch", "count,chunk,span", count, chunk, span.size());
  MCL_PROF_COUNT("pool.batches", 1);
  MCL_PROF_HIST("pool.batch_groups", count);
  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->chunk = chunk;
  batch->fn = &fn;
  batch->strategy = strategy;
  batch->executed =
      std::vector<std::atomic<std::size_t>>(span.size() + 1);
  if (strategy == ScheduleStrategy::WorkStealing) {
    // count must fit the packed 32-bit ranges.
    if (count >= (1ull << 32)) {
      batch->strategy = ScheduleStrategy::CentralCounter;
    } else {
      const std::size_t nslots = span.size() + 1;  // span workers + caller
      batch->slots = std::vector<std::atomic<std::uint64_t>>(nslots);
      const std::size_t per = count / nslots;
      const std::size_t extra = count % nslots;
      std::size_t begin = 0;
      for (std::size_t s = 0; s < nslots; ++s) {
        const std::size_t len = per + (s < extra ? 1 : 0);
        batch->slots[s].store(pack_range(begin, begin + len),
                              std::memory_order_relaxed);
        begin += len;
      }
    }
  }

  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = span.begin; i < span.end; ++i) worker_batch_[i] = batch;
  }
  cv_.notify_all();
  drain_batch(*batch);  // the calling thread participates

  std::size_t spins = 0;
  while (batch->done.load(std::memory_order_acquire) < count) {
    if (++spins > 64) std::this_thread::yield();
  }
  // No sweep of the slots: every spanned worker was notified and clears its
  // own slot once it wakes; a late worker finds the batch exhausted and its
  // slot's shared_ptr keeps the batch alive until then.

  RunStats stats;
  std::size_t total = 0;
  for (const auto& e : batch->executed) {
    const std::size_t v = e.load(std::memory_order_relaxed);
    if (v == 0) continue;
    ++stats.participants;
    total += v;
    stats.max_per_participant = std::max(stats.max_per_participant, v);
  }
  if (stats.participants > 0) {
    stats.imbalance = static_cast<double>(stats.max_per_participant) *
                      static_cast<double>(stats.participants) /
                      static_cast<double>(total);
  }
  return stats;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  tl_worker_pool = this;
  tl_worker_index = static_cast<int>(worker_index);
  std::shared_ptr<Batch>& slot = worker_batch_[worker_index];
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this, &slot] {
      return stop_ || !tasks_.empty() || slot != nullptr;
    });
    // Help with a batch published to our slot first. The shared_ptr copy
    // keeps the batch alive even if the producer finishes and releases it
    // while we drain; a drain of an already-exhausted batch is a no-op (fn is
    // only dereferenced after a successful index claim).
    if (std::shared_ptr<Batch> b = slot) {
      lock.unlock();
      drain_batch(*b);
      lock.lock();
      if (slot == b) slot = nullptr;  // the slot may already hold a newer one
      continue;
    }
    if (tasks_.empty()) return;  // stop_ with nothing left to run
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    {
      OccupancyScope occupancy;
      MCL_TRACE_SCOPE("pool.task");
      task();
    }
    task = nullptr;  // release the task's captures outside the lock
    lock.lock();
    if (--in_flight_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace mcl::threading
