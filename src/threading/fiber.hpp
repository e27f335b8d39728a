// Cooperative fibers (ucontext) for OpenCL workitem barriers.
//
// A CPU OpenCL runtime must run every workitem of a workgroup "concurrently"
// enough that barrier(CLK_LOCAL_MEM_FENCE) works. MiniCL's fiber executor
// gives each workitem its own stack; calling barrier() switches back to the
// scheduler, which round-robins all workitems of the group, so every fiber
// observes all stores made before the barrier by its group (same-thread
// execution gives sequential consistency for free). This mirrors how early
// CPU runtimes (e.g. AMD Twin Peaks) implemented workgroups.
//
// Stacks are pooled per thread and reused across workgroups.
#pragma once

#include <cstddef>
#include <functional>

namespace mcl::threading {

class FiberScheduler;

/// Handle given to each fiber body; barrier() suspends until every live
/// fiber in the group reaches a barrier (or finishes).
class FiberYield {
 public:
  /// OpenCL barrier semantics: all workitems of the group must execute the
  /// same number of barrier() calls.
  void barrier();

 private:
  friend class FiberScheduler;
  explicit FiberYield(FiberScheduler& sched) : sched_(&sched) {}
  FiberScheduler* sched_;
};

/// Body invoked once per fiber.
using FiberBody = std::function<void(std::size_t index, FiberYield& yield)>;

/// Stack size of every workitem fiber the runtime starts.
inline constexpr std::size_t kFiberStackBytes = 64 * 1024;

/// Runs `count` fibers to completion on the calling thread with barrier
/// support. `stack_bytes` is rounded up to the page size.
void run_fiber_group(std::size_t count, const FiberBody& body,
                     std::size_t stack_bytes = kFiberStackBytes);

/// Releases this thread's cached fiber stacks (mainly for leak-checking in
/// tests; safe to never call).
void release_fiber_stacks() noexcept;

}  // namespace mcl::threading
