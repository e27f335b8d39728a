#include "ocl/queue.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/time.hpp"
#include "obs/obs.hpp"
#include "prof/metrics.hpp"
#include "threading/affinity.hpp"
#include "threading/thread_pool.hpp"
#include "trace/trace.hpp"

namespace mcl::ocl {

struct Command {
  CommandType type = CommandType::Marker;
  std::function<Event()> body;
};

namespace {

// Profiling timestamps and trace spans share core::steady_now_ns so both
// land on one exported timeline (the shared-epoch contract in docs/tracing.md).
std::uint64_t now_ns() { return core::steady_now_ns(); }

/// Trace-span name of an event-graph node's Running phase.
const char* command_name(CommandType t) {
  switch (t) {
    case CommandType::NDRangeKernel: return "cmd.kernel";
    case CommandType::ReadBuffer: return "cmd.read";
    case CommandType::WriteBuffer: return "cmd.write";
    case CommandType::CopyBuffer: return "cmd.copy";
    case CommandType::FillBuffer: return "cmd.fill";
    case CommandType::ReadBufferRect: return "cmd.read_rect";
    case CommandType::WriteBufferRect: return "cmd.write_rect";
    case CommandType::MapBuffer: return "cmd.map";
    case CommandType::UnmapBuffer: return "cmd.unmap";
    case CommandType::Marker: return "cmd.marker";
    case CommandType::Barrier: return "cmd.barrier";
    case CommandType::User: return "cmd.user";
  }
  return "cmd.unknown";
}

std::size_t checked_add(std::size_t a, std::size_t b) {
  std::size_t r = 0;
  core::check(!__builtin_add_overflow(a, b, &r), core::Status::InvalidValue,
              "rect arithmetic overflows size_t");
  return r;
}

std::size_t checked_mul(std::size_t a, std::size_t b) {
  std::size_t r = 0;
  core::check(!__builtin_mul_overflow(a, b, &r), core::Status::InvalidValue,
              "rect arithmetic overflows size_t");
  return r;
}

/// Registry counters of the linear transfer and fill bodies.
void note_transfer(std::size_t bytes) {
  MCL_PROF_COUNT("cq.transfers", 1);
  MCL_PROF_HIST("cq.transfer_bytes", bytes);
}

core::Status status_of(const std::exception_ptr& error) noexcept {
  try {
    std::rethrow_exception(error);
  } catch (const core::Error& e) {
    return e.status();
  } catch (...) {
    return core::Status::InternalError;
  }
}

void check_range(const Buffer& buffer, std::size_t offset, std::size_t bytes) {
  // Overflow-safe form: `offset + bytes <= size` wraps for huge offsets and
  // would wave an out-of-bounds range through.
  core::check(bytes <= buffer.size() && offset <= buffer.size() - bytes,
              core::Status::InvalidValue, "transfer range exceeds buffer size");
}

struct ResolvedRect {
  std::size_t row_pitch, slice_pitch;
};

ResolvedRect resolve(const BufferRect& r) {
  const std::size_t row = r.row_pitch != 0 ? r.row_pitch : r.region[0];
  const std::size_t slice =
      r.slice_pitch != 0 ? r.slice_pitch : checked_mul(row, r.region[1]);
  core::check(row >= r.region[0] && slice >= checked_mul(row, r.region[1]),
              core::Status::InvalidValue, "rect pitches smaller than region");
  return {row, slice};
}

/// Byte offset of (row y, slice z) start within a rect's memory. Interior
/// offsets are bounded by rect_end, which is computed with overflow checks,
/// so plain arithmetic is safe here.
std::size_t rect_offset(const BufferRect& r, const ResolvedRect& rr,
                        std::size_t y, std::size_t z) {
  return r.origin[0] + (r.origin[1] + y) * rr.row_pitch +
         (r.origin[2] + z) * rr.slice_pitch;
}

/// One-past-the-end byte offset of the rect, with every addition and
/// multiplication overflow-checked (huge origins/pitches must be rejected,
/// not wrapped into a passing bound check).
std::size_t rect_end(const BufferRect& r, const ResolvedRect& rr) {
  core::check(r.region[0] > 0 && r.region[1] > 0 && r.region[2] > 0,
              core::Status::InvalidValue, "empty rect region");
  const std::size_t last_row =
      checked_mul(checked_add(r.origin[1], r.region[1] - 1), rr.row_pitch);
  const std::size_t last_slice =
      checked_mul(checked_add(r.origin[2], r.region[2] - 1), rr.slice_pitch);
  return checked_add(
      checked_add(checked_add(r.origin[0], last_row), last_slice),
      r.region[0]);
}

}  // namespace

// --- async event ----------------------------------------------------------------

void AsyncEvent::wait() const {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] { return finished_locked(); });
  if (error_) std::rethrow_exception(error_);
}

bool AsyncEvent::wait_for(std::chrono::nanoseconds timeout) const {
  std::unique_lock lock(mutex_);
  if (!cv_.wait_for(lock, timeout, [this] { return finished_locked(); })) {
    return false;
  }
  if (error_) std::rethrow_exception(error_);
  return true;
}

bool AsyncEvent::complete() const {
  std::lock_guard lock(mutex_);
  return finished_locked();
}

Event AsyncEvent::result() const {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] { return finished_locked(); });
  if (error_) std::rethrow_exception(error_);
  return event_;
}

CommandState AsyncEvent::state() const {
  std::lock_guard lock(mutex_);
  return state_;
}

core::Status AsyncEvent::status() const {
  std::lock_guard lock(mutex_);
  return status_;
}

ProfilingInfo AsyncEvent::profiling_ns() const {
  std::lock_guard lock(mutex_);
  core::check(finished_locked(), core::Status::InvalidOperation,
              "profiling info unavailable before the command completes");
  return prof_;
}

prof::KernelProfile AsyncEvent::kernel_profile() const {
  std::lock_guard lock(mutex_);
  core::check(finished_locked(), core::Status::InvalidOperation,
              "kernel profile unavailable before the command completes");
  core::check(type_ == CommandType::NDRangeKernel,
              core::Status::InvalidOperation,
              "kernel profiles exist only for NDRangeKernel commands");
  return event_.launch.profile;
}

bool AsyncEvent::add_continuation(std::function<void(core::Status)> fn) {
  std::lock_guard lock(mutex_);
  if (finished_locked()) return false;
  continuations_.push_back(std::move(fn));
  return true;
}

void AsyncEvent::on_complete(std::function<void(core::Status)> fn) {
  core::check(fn != nullptr, core::Status::InvalidValue,
              "null completion callback");
  // Terminal already: run inline, never touching the queue (this is also the
  // only safe path once the owning queue may be gone).
  if (complete()) {
    fn(status());
    return;
  }
  // Count the callback toward the queue's drain *before* registering it, so
  // finish() can never observe outstanding_ == 0 while a registered callback
  // that might re-enqueue has yet to run.
  CommandQueue* q = queue_;
  if (q != nullptr) q->note_callback_registered();
  // Shared wrapper: the continuation and the lost-race fallback below both
  // need to be able to invoke it.
  auto shared = std::make_shared<std::function<void(core::Status)>>(std::move(fn));
  const bool registered = add_continuation([shared, q](core::Status s) {
    (*shared)(s);
    if (q != nullptr) q->note_callback_done();
  });
  if (!registered) {
    // Completed between the complete() check and registration.
    (*shared)(status());
    if (q != nullptr) q->note_callback_done();
  }
}

AsyncEventPtr AsyncEvent::create_user() {
  auto ev = std::make_shared<AsyncEvent>();
  ev->type_ = CommandType::User;
  ev->user_ = true;
  ev->prof_.queued_ns = now_ns();
  return ev;
}

void AsyncEvent::set_user_status(core::Status status) {
  std::vector<std::function<void(core::Status)>> continuations;
  ProfilingInfo prof;
  {
    std::lock_guard lock(mutex_);
    core::check(user_, core::Status::InvalidOperation,
                "set_user_status on a non-user event");
    core::check(!finished_locked(), core::Status::InvalidOperation,
                "user event status already set");
    const std::uint64_t ns = now_ns();
    prof_.submitted_ns = ns;
    prof_.started_ns = ns;
    prof_.ended_ns = ns;
    if (status == core::Status::Success) {
      state_ = CommandState::Complete;
      event_ = Event{type_, 0.0, {}};
    } else {
      state_ = CommandState::Error;
      status_ = status;
      error_ = std::make_exception_ptr(
          core::Error(status, "user event completed with failure status"));
    }
    prof = prof_;
    continuations = std::move(continuations_);
    continuations_.clear();
  }
  cv_.notify_all();
  if (trace::enabled()) {
    trace::complete_span("cmd.user", prof.queued_ns,
                         prof.ended_ns - prof.queued_ns, "ok",
                         status == core::Status::Success ? 1 : 0);
  }
  for (const auto& continuation : continuations) continuation(status);
}

// --- event-graph executor -------------------------------------------------------

threading::ThreadPool& CommandQueue::executor_pool() {
  // Shared by every queue in the process. Sized above the core count so
  // independent commands still overlap on small hosts; command bodies never
  // block on other events (dependencies resolve via continuations), so any
  // pool size is deadlock-free.
  static threading::ThreadPool pool(std::max<std::size_t>(
      4, static_cast<std::size_t>(threading::logical_cpu_count())));
  return pool;
}

CommandQueue::~CommandQueue() { finish(); }

void CommandQueue::finish() {
  // Transitive drain: outstanding_ alone is not enough — an on_complete
  // callback registered before the drain predicate ran may still be about to
  // enqueue follow-up work (mclserve's batching does exactly this), so wait
  // for pending callbacks too. Each callback is counted before registration
  // and released only after it ran, so re-enqueued work raises outstanding_
  // before its parent's callback count drops.
  std::unique_lock lock(mutex_);
  drained_cv_.wait(
      lock, [this] { return outstanding_ == 0 && callbacks_in_flight_ == 0; });
}

void CommandQueue::note_callback_registered() {
  std::lock_guard lock(mutex_);
  ++callbacks_in_flight_;
}

void CommandQueue::note_callback_done() {
  std::lock_guard lock(mutex_);
  --callbacks_in_flight_;
  drained_cv_.notify_all();
}

AsyncEventPtr CommandQueue::submit(Command command,
                                   std::vector<AsyncEventPtr> wait_list,
                                   Blocking blocking, bool gather_outstanding,
                                   bool install_barrier) {
  auto ev = std::make_shared<AsyncEvent>();
  ev->type_ = command.type;
  ev->queue_ = this;  // written before publication; read-only afterwards
  ev->work_ = std::move(command.body);
  ev->prof_.queued_ns = now_ns();
  // Causal attribution: inherit the enqueuing thread's context (mclserve
  // sets one around forward()), minting a fresh anonymous id for direct
  // enqueues. One relaxed load when observability is off.
  if (obs::enabled()) ev->ctx_ = obs::ensure_context();
  MCL_PROF_COUNT("cq.commands", 1);

  // Edges: explicit wait-list dependencies propagate failure; implicit
  // ordering edges (in-order chain, barriers, marker gathering) only order,
  // so one to an already finished command is skipped.
  struct Edge {
    AsyncEventPtr dep;
    bool propagate_failure;
  };
  std::vector<Edge> edges;
  for (AsyncEventPtr& w : wait_list) {
    if (w) edges.push_back({std::move(w), true});
  }
  {
    std::lock_guard lock(mutex_);
    ++outstanding_;
    if (!out_of_order()) {
      if (last_ && !last_->complete()) edges.push_back({last_, false});
      last_ = ev;
    } else {
      if (gather_outstanding) {
        for (const std::weak_ptr<AsyncEvent>& weak : live_) {
          if (AsyncEventPtr dep = weak.lock();
              dep && dep.get() != ev.get() && !dep->complete()) {
            edges.push_back({std::move(dep), false});
          }
        }
      } else if (barrier_ && !barrier_->complete()) {
        edges.push_back({barrier_, false});
      }
      if (install_barrier) barrier_ = ev;
      live_.push_back(ev);
      if (live_.size() > 128) {
        std::erase_if(live_, [](const std::weak_ptr<AsyncEvent>& weak) {
          const AsyncEventPtr e = weak.lock();
          return !e || e->complete();
        });
      }
    }
  }

  // The +1 sentinel keeps the node from firing while edges are still being
  // attached; released at the end.
  {
    std::lock_guard lock(ev->mutex_);
    ev->blocking_deps_ = edges.size() + 1;
  }
  for (Edge& edge : edges) {
    const bool propagate = edge.propagate_failure;
    const bool registered = edge.dep->add_continuation(
        [this, ev, propagate](core::Status dep_status) {
          resolve_dep(ev, propagate ? dep_status : core::Status::Success);
        });
    if (!registered) {
      resolve_dep(ev, propagate ? edge.dep->status() : core::Status::Success);
    }
  }
  // Releasing the sentinel makes the node ready only if every edge already
  // resolved: the node is ready at submission. Such a node runs right here
  // when the caller is about to wait on it anyway, or when its body is host
  // bookkeeping that a pool hand-off would only slow down. A node that
  // becomes ready later, inside some dependency's completion, always goes
  // to the pool.
  const bool run_inline = blocking == Blocking::Yes ||
                          ev->type_ == CommandType::MapBuffer ||
                          ev->type_ == CommandType::UnmapBuffer;
  resolve_dep(ev, core::Status::Success, run_inline);
  return ev;
}

void CommandQueue::resolve_dep(const AsyncEventPtr& ev,
                               core::Status dep_status, bool run_inline) {
  bool ready = false;
  {
    std::lock_guard lock(ev->mutex_);
    if (dep_status != core::Status::Success &&
        ev->dep_failure_ == core::Status::Success) {
      ev->dep_failure_ = dep_status;
    }
    ready = (--ev->blocking_deps_ == 0);
  }
  if (ready) launch_ready(ev, run_inline);
}

void CommandQueue::launch_ready(const AsyncEventPtr& ev, bool run_inline) {
  core::Status dep_failure = core::Status::Success;
  {
    std::lock_guard lock(ev->mutex_);
    ev->state_ = CommandState::Submitted;
    ev->prof_.submitted_ns = now_ns();
    dep_failure = ev->dep_failure_;
  }
  if (dep_failure != core::Status::Success) {
    // A wait-list dependency failed: propagate its Status without occupying
    // a pool worker — dependents must not hang, they must fail.
    finalize(ev, Event{ev->type_, 0.0, {}},
             std::make_exception_ptr(core::Error(
                 dep_failure, "failed dependency in wait list")),
             dep_failure);
    return;
  }
  if (run_inline) {
    run_command(ev);
  } else {
    executor_pool().submit([this, ev] { run_command(ev); });
  }
}

void CommandQueue::run_command(const AsyncEventPtr& ev) {
  // Pool workers run with the command's context installed so everything the
  // command emits (cq.* spans, wg: workgroup spans, tune.decide instants)
  // carries the same id as its cmd.* lifecycle spans.
  trace::ContextScope cscope(ev->ctx_);
  std::function<Event()> work;
  {
    std::lock_guard lock(ev->mutex_);
    ev->state_ = CommandState::Running;
    ev->prof_.started_ns = now_ns();
    work = std::move(ev->work_);
  }
  Event result{ev->type_, 0.0, {}};
  std::exception_ptr error;
  try {
    result = work();
  } catch (...) {
    error = std::current_exception();
  }
  finalize(ev, std::move(result), error,
           error ? status_of(error) : core::Status::Success);
}

void CommandQueue::finalize(const AsyncEventPtr& ev, Event result,
                            std::exception_ptr error, core::Status status) {
  std::vector<std::function<void(core::Status)>> continuations;
  const core::Status final_status = error ? status : core::Status::Success;
  ProfilingInfo prof;
  {
    std::lock_guard lock(ev->mutex_);
    const std::uint64_t ns = now_ns();
    // Dependency-failure propagation skips Running; keep the timestamps
    // monotonic by stamping the skipped phases with the terminal time.
    if (ev->prof_.started_ns == 0) ev->prof_.started_ns = ns;
    ev->prof_.ended_ns = ns;
    prof = ev->prof_;
    if (error) {
      ev->state_ = CommandState::Error;
      ev->error_ = std::move(error);
      ev->status_ = status;
    } else {
      ev->state_ = CommandState::Complete;
      ev->event_ = std::move(result);
    }
    ev->work_ = nullptr;
    continuations = std::move(ev->continuations_);
    ev->continuations_.clear();
  }
  ev->cv_.notify_all();
  // Flight-recorder trigger: a command failing (own error or wait-list
  // propagation) is an anomaly — except Cancelled, which mclserve already
  // records at the source (timeout/cancel) and which fans out to every
  // dependent during shutdown. No locks are held here, so an inline dump
  // (whose sections take subsystem locks) is safe.
  if (error && final_status != core::Status::Cancelled && obs::enabled()) {
    obs::anomaly(obs::Kind::Error, ev->ctx_, command_name(ev->type_),
                 final_status);
  }
  if (trace::enabled()) {
    trace::ContextScope cscope(ev->ctx_);
    // Re-emit the event-graph node's lifecycle as spans that reuse the
    // profiling timestamps exactly (shared steady_now_ns epoch), so the DAG
    // wait/dispatch/run phases appear on the same timeline as workgroup
    // spans. tests/trace_test.cpp asserts the Running-phase span encloses
    // the kernel's workgroup spans.
    // Emit the queued/dispatch phases unconditionally, zero-duration
    // included: dropping sub-tick phases made fast commands invisible in
    // Perfetto and skewed the per-phase p50 tables. Timestamps are monotonic
    // (same clock, stamped in order), so the subtractions cannot underflow.
    trace::complete_span("cmd.queued", prof.queued_ns,
                         prof.submitted_ns - prof.queued_ns);
    trace::complete_span("cmd.dispatch", prof.submitted_ns,
                         prof.started_ns - prof.submitted_ns);
    trace::complete_span(command_name(ev->type_), prof.started_ns,
                         prof.ended_ns - prof.started_ns, "ok",
                         final_status == core::Status::Success ? 1 : 0);
  }
  for (const auto& continuation : continuations) continuation(final_status);
  command_retired();
}

void CommandQueue::command_retired() {
  // Notify under the lock: finish() may return — and the caller destroy the
  // queue — the instant outstanding_ hits zero, so the condition variable
  // must not be touched after the mutex is released.
  std::lock_guard lock(mutex_);
  --outstanding_;
  drained_cv_.notify_all();
}

// --- commands -------------------------------------------------------------------
//
// Each builder validates and snapshots at enqueue time — invalid calls fail
// fast at the call site, and the body never touches the (possibly
// shorter-lived) Buffer object itself, only its storage, which must outlive
// the event. Validation runs before the zero-byte shortcut so a bad offset or
// null pointer fails the same way it does on the non-zero path. The entry
// point submits the command as one node; the blocking forms (queue.hpp) wait
// for that node's result.

namespace {

Command noop(CommandType type) {
  return {type, [type] { return Event{type, 0.0, {}}; }};
}

Command write_command(const Device& device, Buffer& buffer, std::size_t offset,
                      std::size_t bytes, const void* src) {
  check_range(buffer, offset, bytes);
  core::check(src != nullptr, core::Status::InvalidValue, "null source");
  if (bytes == 0) return noop(CommandType::WriteBuffer);
  auto* dst = static_cast<std::byte*>(buffer.device_ptr()) + offset;
  return {CommandType::WriteBuffer, [&device, dst, bytes, src] {
            MCL_TRACE_SCOPE("cq.write", "bytes", bytes);
            note_transfer(bytes);
            const core::TimePoint t0 = core::now();
            std::memcpy(dst, src, bytes);
            return Event{CommandType::WriteBuffer,
                         core::elapsed_s(t0, core::now()) +
                             device.copy_overhead_seconds(bytes),
                         {}};
          }};
}

Command read_command(const Device& device, const Buffer& buffer,
                     std::size_t offset, std::size_t bytes, void* dst) {
  check_range(buffer, offset, bytes);
  core::check(dst != nullptr, core::Status::InvalidValue, "null destination");
  if (bytes == 0) return noop(CommandType::ReadBuffer);
  const auto* src = static_cast<const std::byte*>(buffer.device_ptr()) + offset;
  return {CommandType::ReadBuffer, [&device, src, bytes, dst] {
            MCL_TRACE_SCOPE("cq.read", "bytes", bytes);
            note_transfer(bytes);
            const core::TimePoint t0 = core::now();
            std::memcpy(dst, src, bytes);
            return Event{CommandType::ReadBuffer,
                         core::elapsed_s(t0, core::now()) +
                             device.copy_overhead_seconds(bytes),
                         {}};
          }};
}

Command copy_command(const Buffer& src, Buffer& dst, std::size_t src_offset,
                     std::size_t dst_offset, std::size_t bytes) {
  check_range(src, src_offset, bytes);
  check_range(dst, dst_offset, bytes);
  if (bytes == 0) return noop(CommandType::CopyBuffer);
  const auto* s = static_cast<const std::byte*>(src.device_ptr()) + src_offset;
  auto* d = static_cast<std::byte*>(dst.device_ptr()) + dst_offset;
  core::check(s + bytes <= d || d + bytes <= s, core::Status::InvalidValue,
              "copy regions overlap");
  return {CommandType::CopyBuffer, [s, d, bytes] {
            MCL_TRACE_SCOPE("cq.copy", "bytes", bytes);
            note_transfer(bytes);
            const core::TimePoint t0 = core::now();
            std::memcpy(d, s, bytes);
            return Event{CommandType::CopyBuffer,
                         core::elapsed_s(t0, core::now()), {}};
          }};
}

Command fill_command(Buffer& buffer, const void* pattern,
                     std::size_t pattern_bytes, std::size_t offset,
                     std::size_t bytes) {
  core::check(pattern != nullptr && pattern_bytes > 0,
              core::Status::InvalidValue, "null/empty fill pattern");
  core::check(bytes % pattern_bytes == 0, core::Status::InvalidValue,
              "fill size must be a multiple of the pattern size");
  core::check(offset % pattern_bytes == 0, core::Status::InvalidValue,
              "fill offset must be a multiple of the pattern size");
  check_range(buffer, offset, bytes);
  if (bytes == 0) return noop(CommandType::FillBuffer);
  auto* d = static_cast<std::byte*>(buffer.device_ptr()) + offset;
  std::vector<std::byte> pattern_copy(
      static_cast<const std::byte*>(pattern),
      static_cast<const std::byte*>(pattern) + pattern_bytes);
  return {CommandType::FillBuffer,
          [d, bytes, pattern_copy = std::move(pattern_copy)] {
            MCL_TRACE_SCOPE("cq.fill", "bytes", bytes);
            note_transfer(bytes);
            const core::TimePoint t0 = core::now();
            for (std::size_t i = 0; i < bytes; i += pattern_copy.size()) {
              std::memcpy(d + i, pattern_copy.data(), pattern_copy.size());
            }
            return Event{CommandType::FillBuffer,
                         core::elapsed_s(t0, core::now()), {}};
          }};
}

void check_rect(const Buffer& buffer, const BufferRect& r) {
  core::check(rect_end(r, resolve(r)) <= buffer.size(),
              core::Status::InvalidValue, "rect exceeds buffer size");
}

/// Strided 3D copy between two rects of equal region.
Command rect_command(CommandType type, const BufferRect& dst_r, std::byte* dst,
                     const BufferRect& src_r, const std::byte* src) {
  core::check(dst_r.region[0] == src_r.region[0] &&
                  dst_r.region[1] == src_r.region[1] &&
                  dst_r.region[2] == src_r.region[2],
              core::Status::InvalidValue, "rect regions differ");
  const ResolvedRect rd = resolve(dst_r);
  const ResolvedRect rs = resolve(src_r);
  (void)rect_end(dst_r, rd);  // overflow audit; the buffer side is also
  (void)rect_end(src_r, rs);  // bounds-checked by check_rect
  return {type, [type, dst_r, dst, rd, src_r, src, rs] {
            MCL_TRACE_SCOPE(
                type == CommandType::ReadBufferRect ? "cq.read_rect"
                                                    : "cq.write_rect",
                "bytes", dst_r.region[0] * dst_r.region[1] * dst_r.region[2]);
            const core::TimePoint t0 = core::now();
            for (std::size_t z = 0; z < dst_r.region[2]; ++z) {
              for (std::size_t y = 0; y < dst_r.region[1]; ++y) {
                std::memcpy(dst + rect_offset(dst_r, rd, y, z),
                            src + rect_offset(src_r, rs, y, z),
                            dst_r.region[0]);
              }
            }
            return Event{type, core::elapsed_s(t0, core::now()), {}};
          }};
}

/// A launch body. The kernel's argument bindings are snapshot so later
/// set_arg calls on the caller's Kernel cannot race the command.
template <typename Launch>
Command kernel_command(const Kernel& kernel, Launch launch) {
  return {CommandType::NDRangeKernel,
          [def = &kernel.def(), args = kernel.args(),
           launch = std::move(launch)] {
            MCL_PROF_COUNT("cq.kernel_launches", 1);
            LaunchResult r = launch(*def, args);
            return Event{CommandType::NDRangeKernel, r.seconds, std::move(r)};
          }};
}

}  // namespace

AsyncEventPtr CommandQueue::enqueue_write_buffer_async(
    Buffer& buffer, std::size_t offset, std::size_t bytes, const void* src,
    std::vector<AsyncEventPtr> wait_list, Blocking blocking) {
  return submit(write_command(*device_, buffer, offset, bytes, src),
                std::move(wait_list), blocking);
}

AsyncEventPtr CommandQueue::enqueue_read_buffer_async(
    const Buffer& buffer, std::size_t offset, std::size_t bytes, void* dst,
    std::vector<AsyncEventPtr> wait_list, Blocking blocking) {
  return submit(read_command(*device_, buffer, offset, bytes, dst),
                std::move(wait_list), blocking);
}

AsyncEventPtr CommandQueue::enqueue_copy_buffer_async(
    const Buffer& src, Buffer& dst, std::size_t src_offset,
    std::size_t dst_offset, std::size_t bytes,
    std::vector<AsyncEventPtr> wait_list, Blocking blocking) {
  return submit(copy_command(src, dst, src_offset, dst_offset, bytes),
                std::move(wait_list), blocking);
}

AsyncEventPtr CommandQueue::enqueue_fill_buffer_async(
    Buffer& buffer, const void* pattern, std::size_t pattern_bytes,
    std::size_t offset, std::size_t bytes,
    std::vector<AsyncEventPtr> wait_list, Blocking blocking) {
  return submit(fill_command(buffer, pattern, pattern_bytes, offset, bytes),
                std::move(wait_list), blocking);
}

AsyncEventPtr CommandQueue::enqueue_write_buffer_rect_async(
    Buffer& buffer, const BufferRect& buffer_rect, const BufferRect& host_rect,
    const void* src, std::vector<AsyncEventPtr> wait_list, Blocking blocking) {
  core::check(src != nullptr, core::Status::InvalidValue, "null source");
  check_rect(buffer, buffer_rect);
  return submit(rect_command(CommandType::WriteBufferRect, buffer_rect,
                             static_cast<std::byte*>(buffer.device_ptr()),
                             host_rect, static_cast<const std::byte*>(src)),
                std::move(wait_list), blocking);
}

AsyncEventPtr CommandQueue::enqueue_read_buffer_rect_async(
    const Buffer& buffer, const BufferRect& buffer_rect,
    const BufferRect& host_rect, void* dst,
    std::vector<AsyncEventPtr> wait_list, Blocking blocking) {
  core::check(dst != nullptr, core::Status::InvalidValue, "null destination");
  check_rect(buffer, buffer_rect);
  return submit(rect_command(CommandType::ReadBufferRect, host_rect,
                             static_cast<std::byte*>(dst), buffer_rect,
                             static_cast<const std::byte*>(buffer.device_ptr())),
                std::move(wait_list), blocking);
}

Mapping CommandQueue::enqueue_map_buffer_async(
    Buffer& buffer, MapFlags flags, std::size_t offset, std::size_t bytes,
    std::vector<AsyncEventPtr> wait_list) {
  (void)flags;  // recorded semantics only; all mappings are coherent here
  check_range(buffer, offset, bytes);
  const core::Seconds overhead = device_->map_overhead_seconds(buffer, bytes);
  Mapping m{static_cast<std::byte*>(buffer.device_ptr()) + offset,
            submit({CommandType::MapBuffer,
                    [overhead] {
                      return Event{CommandType::MapBuffer, overhead, {}};
                    }},
                   std::move(wait_list))};
  buffer.note_mapped();
  return m;
}

AsyncEventPtr CommandQueue::enqueue_unmap_async(
    Buffer& buffer, void* mapped_ptr, std::vector<AsyncEventPtr> wait_list) {
  const auto* base = static_cast<const std::byte*>(buffer.device_ptr());
  const auto* p = static_cast<const std::byte*>(mapped_ptr);
  core::check(p >= base && p < base + buffer.size(), core::Status::MapFailure,
              "unmap pointer does not belong to this buffer");
  core::check(buffer.note_unmapped(), core::Status::MapFailure,
              "buffer is not mapped");
  return submit(noop(CommandType::UnmapBuffer), std::move(wait_list));
}

AsyncEventPtr CommandQueue::enqueue_ndrange_async(
    const Kernel& kernel, const NDRange& global, const NDRange& local,
    std::vector<AsyncEventPtr> wait_list, const NDRange& offset,
    Blocking blocking) {
  return submit(kernel_command(kernel,
                               [this, global, local, offset](
                                   const KernelDef& def,
                                   const KernelArgs& args) {
                                 return device_->launch(def, args, global,
                                                        local, offset);
                               }),
                std::move(wait_list), blocking);
}

Event CommandQueue::enqueue_ndrange_pinned(const Kernel& kernel,
                                           const NDRange& global,
                                           const NDRange& local,
                                           std::span<const int> group_to_cpu) {
  auto* cpu = dynamic_cast<CpuDevice*>(device_);
  core::check(cpu != nullptr, core::Status::InvalidOperation,
              "pinned launches are a CPU-device extension");
  return submit(kernel_command(kernel,
                               [cpu, global, local,
                                cpus = std::vector<int>(group_to_cpu.begin(),
                                                        group_to_cpu.end())](
                                   const KernelDef& def,
                                   const KernelArgs& args) {
                                 return cpu->launch_pinned(def, args, global,
                                                           local, cpus);
                               }),
                {}, Blocking::Yes)
      ->result();
}

AsyncEventPtr CommandQueue::enqueue_marker_async(
    std::vector<AsyncEventPtr> wait_list, Blocking blocking) {
  const bool gather = wait_list.empty();
  return submit(noop(CommandType::Marker), std::move(wait_list), blocking,
                gather, /*install_barrier=*/false);
}

AsyncEventPtr CommandQueue::enqueue_barrier_async(
    std::vector<AsyncEventPtr> wait_list) {
  const bool gather = wait_list.empty();
  return submit(noop(CommandType::Barrier), std::move(wait_list),
                Blocking::No, gather, /*install_barrier=*/true);
}

}  // namespace mcl::ocl
