#include "threading/fiber.hpp"

#include <ucontext.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define MCL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MCL_ASAN 1
#endif
#endif
#ifdef MCL_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

namespace mcl::threading {

namespace {

// AddressSanitizer must be told about every stack switch: an exception
// thrown on a fiber unpoisons "the current stack", and without these calls
// that is the thread's stack, leaving the fiber's unwound frames poisoned
// (false reports on the next use of that memory). No-ops without ASan.
void asan_start_switch([[maybe_unused]] void** fake_stack_save,
                       [[maybe_unused]] const void* bottom,
                       [[maybe_unused]] std::size_t size) {
#ifdef MCL_ASAN
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}

void asan_finish_switch([[maybe_unused]] void* fake_stack_save,
                        [[maybe_unused]] const void** bottom_old,
                        [[maybe_unused]] std::size_t* size_old) {
#ifdef MCL_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}

/// Per-thread pool of equally-sized fiber stacks.
class StackPool {
 public:
  void* acquire(std::size_t bytes) {
    if (bytes != stack_bytes_) {
      // Size change invalidates the pool (rare: executor reconfiguration).
      free_.clear();
      blocks_.clear();
      stack_bytes_ = bytes;
    }
    if (!free_.empty()) {
      void* s = free_.back();
      free_.pop_back();
      return s;
    }
    blocks_.push_back(std::make_unique<std::byte[]>(bytes));
    return blocks_.back().get();
  }

  void release(void* stack) { free_.push_back(stack); }

  void clear() noexcept {
    free_.clear();
    blocks_.clear();
    stack_bytes_ = 0;
  }

 private:
  std::size_t stack_bytes_ = 0;
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  std::vector<void*> free_;
};

thread_local StackPool t_stack_pool;

}  // namespace

class FiberScheduler {
 public:
  FiberScheduler(std::size_t count, const FiberBody& body, std::size_t stack_bytes)
      : body_(body), fibers_(count) {
    stack_bytes_ = (stack_bytes + 4095) & ~std::size_t{4095};
    for (std::size_t i = 0; i < count; ++i) {
      Fiber& f = fibers_[i];
      f.index = i;
      f.sched = this;
      f.stack = t_stack_pool.acquire(stack_bytes_);
      if (getcontext(&f.ctx) != 0)
        throw std::runtime_error("getcontext failed");
      f.ctx.uc_stack.ss_sp = f.stack;
      f.ctx.uc_stack.ss_size = stack_bytes_;
      f.ctx.uc_link = &main_ctx_;
      // makecontext only forwards ints; split the Fiber* into two words.
      const auto ptr = reinterpret_cast<std::uintptr_t>(&f);
      makecontext(&f.ctx, reinterpret_cast<void (*)()>(&FiberScheduler::trampoline),
                  2, static_cast<unsigned>(ptr & 0xffffffffu),
                  static_cast<unsigned>(ptr >> 32));
    }
  }

  ~FiberScheduler() {
    for (Fiber& f : fibers_) {
      if (f.stack != nullptr) t_stack_pool.release(f.stack);
    }
  }

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  void run() {
    std::size_t live = fibers_.size();
    while (live > 0) {
      // One round: resume every unfinished fiber exactly once. Fibers that
      // hit barrier() suspend; fibers that return are retired. Because every
      // workitem must reach the same barriers (OpenCL rule), one round ==
      // one barrier phase.
      for (Fiber& f : fibers_) {
        if (f.finished) continue;
        current_ = &f;
        void* fake_stack = nullptr;
        asan_start_switch(&fake_stack, f.stack, stack_bytes_);
        swapcontext(&main_ctx_, &f.ctx);
        asan_finish_switch(fake_stack, nullptr, nullptr);
        current_ = nullptr;
        if (f.finished) --live;
        if (f.exception) {
          // Propagate the first failure after retiring remaining fibers'
          // stacks (they are simply abandoned mid-run; their memory is
          // pooled, not leaked).
          std::rethrow_exception(f.exception);
        }
      }
    }
  }

  void yield_current() {
    Fiber* f = current_;
    asan_start_switch(&f->fake_stack, main_bottom_, main_size_);
    swapcontext(&f->ctx, &main_ctx_);
    asan_finish_switch(f->fake_stack, &main_bottom_, &main_size_);
  }

 private:
  struct Fiber {
    ucontext_t ctx{};
    void* stack = nullptr;
    std::size_t index = 0;
    bool finished = false;
    void* fake_stack = nullptr;  ///< ASan's state while switched away
    std::exception_ptr exception;
    FiberScheduler* sched = nullptr;
  };

  static void trampoline(unsigned lo, unsigned hi) {
    const auto ptr = static_cast<std::uintptr_t>(lo) |
                     (static_cast<std::uintptr_t>(hi) << 32);
    Fiber* f = reinterpret_cast<Fiber*>(ptr);
    FiberScheduler& sched = *f->sched;
    asan_finish_switch(nullptr, &sched.main_bottom_, &sched.main_size_);
    FiberYield yield(sched);
    try {
      sched.body_(f->index, yield);
    } catch (...) {
      f->exception = std::current_exception();
    }
    f->finished = true;
    // Returning lets uc_link switch back to the scheduler's main context;
    // this fiber's stack is done, so ASan gets no state to save.
    asan_start_switch(nullptr, sched.main_bottom_, sched.main_size_);
  }

  const FiberBody& body_;
  std::vector<Fiber> fibers_;
  ucontext_t main_ctx_{};
  const void* main_bottom_ = nullptr;  ///< the thread's stack, for ASan
  std::size_t main_size_ = 0;
  Fiber* current_ = nullptr;
  std::size_t stack_bytes_ = 0;

  friend class FiberYield;
  friend void run_fiber_group(std::size_t, const FiberBody&, std::size_t);
};

void FiberYield::barrier() { sched_->yield_current(); }

void run_fiber_group(std::size_t count, const FiberBody& body,
                     std::size_t stack_bytes) {
  if (count == 0) return;
  FiberScheduler sched(count, body, stack_bytes);
  sched.run();
}

void release_fiber_stacks() noexcept { t_stack_pool.clear(); }

}  // namespace mcl::threading
