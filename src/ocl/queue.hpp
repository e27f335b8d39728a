// Context, command queue and events.
//
// Every command is one node of an event graph, blocking or not. The entry
// points validate and snapshot at enqueue; a node's edges are its wait list
// plus, on in-order queues, an implicit edge to the previously enqueued
// command. The blocking calls wait for their node's result: the paper times
// every measurement with blocking calls (Sec. III-D), and the returned Event
// carries the profiled time behind Eq. 1's kernel vs. transfer split.
//
// Ready nodes run on a shared threading::ThreadPool, so independent commands
// of an OutOfOrder queue (and of different queues) execute concurrently —
// the pocl-style DAG scheduler, not a FIFO dispatcher. A node that is ready
// when submitted runs on the submitting thread instead when the caller waits
// on it (Blocking::Yes) or its body is host bookkeeping (map, unmap); a node
// that becomes ready later always goes to the pool. Every AsyncEvent tracks
// OpenCL event state (Queued -> Submitted -> Running -> Complete/Error) and
// the four clGetEventProfilingInfo timestamps.
//
// Transfer semantics on a CPU device — the crux of Fig 7/8:
//  - enqueue_read/write_buffer physically copies between the caller's memory
//    and the buffer's storage (one memcpy), exactly what a CPU OpenCL
//    runtime does for the explicit-copy API;
//  - enqueue_map_buffer returns the canonical pointer, computed at enqueue:
//    no copy, constant cost ("only returning a pointer is needed" —
//    Sec. III-D).
// On the simulated GPU device, events additionally carry modeled PCIe time.
//
// Lifetime contract: ranges are validated and the buffer's storage pointer
// is snapshot at enqueue time (so invalid calls fail fast, at the call
// site). The buffer's storage and the host pointer must both stay valid
// until the command's event completes; destroying either earlier is
// undefined (and is what the ASan tier exists to catch).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/error.hpp"
#include "core/time.hpp"
#include "ocl/buffer.hpp"
#include "ocl/device.hpp"
#include "ocl/kernel.hpp"

namespace mcl::threading {
class ThreadPool;
}  // namespace mcl::threading

namespace mcl::ocl {

enum class CommandType {
  NDRangeKernel,
  ReadBuffer,
  WriteBuffer,
  CopyBuffer,
  FillBuffer,
  ReadBufferRect,
  WriteBufferRect,
  MapBuffer,
  UnmapBuffer,
  Marker,
  Barrier,
  User,  ///< clCreateUserEvent analogue; completed by set_user_status()
};

/// OpenCL command execution status (CL_QUEUED/SUBMITTED/RUNNING/COMPLETE,
/// plus a distinct Error terminal state).
enum class CommandState {
  Queued,     ///< enqueued; waiting on dependencies
  Submitted,  ///< dependencies resolved; handed to the executor pool
  Running,    ///< executing on a pool worker
  Complete,   ///< finished successfully
  Error,      ///< finished with an error (own or propagated from a dependency)
};

/// clGetEventProfilingInfo analogue: steady-clock timestamps in nanoseconds.
/// Monotonic per command: queued <= submitted <= started <= ended.
struct ProfilingInfo {
  std::uint64_t queued_ns = 0;     ///< CL_PROFILING_COMMAND_QUEUED
  std::uint64_t submitted_ns = 0;  ///< CL_PROFILING_COMMAND_SUBMIT
  std::uint64_t started_ns = 0;    ///< CL_PROFILING_COMMAND_START
  std::uint64_t ended_ns = 0;      ///< CL_PROFILING_COMMAND_END
};

/// 3D region descriptor for the rect transfer APIs (all units bytes for
/// dim 0, rows/slices for dims 1/2 — as in clEnqueueReadBufferRect).
struct BufferRect {
  std::size_t origin[3] = {0, 0, 0};   ///< byte offset, row, slice
  std::size_t region[3] = {0, 1, 1};   ///< bytes per row, rows, slices
  std::size_t row_pitch = 0;           ///< 0 = region[0]
  std::size_t slice_pitch = 0;         ///< 0 = row_pitch * region[1]
};

/// Completed-command record (blocking commands return these directly; they
/// carry profiling data).
struct Event {
  CommandType type = CommandType::NDRangeKernel;
  core::Seconds seconds = 0.0;  ///< wall time + any modeled device overhead
  LaunchResult launch;          ///< valid for NDRangeKernel events
};

/// Waitable handle of a command (clEvent analogue) and the node of the
/// queue's event graph. The *_async entry points return it; the blocking
/// ones wait on it. Copies share state (shared_ptr semantics via
/// AsyncEventPtr).
class AsyncEvent;
class CommandQueue;
using AsyncEventPtr = std::shared_ptr<AsyncEvent>;

class AsyncEvent {
 public:
  /// Blocks until the command completed; rethrows any kernel/API error
  /// (including a propagated dependency failure).
  void wait() const;

  /// Timed wait() (the mclserve request-deadline path): returns false if the
  /// command has not reached a terminal state within `timeout` — the command
  /// keeps running; a timeout cancels nothing. On completion behaves exactly
  /// like wait(): returns true, rethrowing any error first.
  [[nodiscard]] bool wait_for(std::chrono::nanoseconds timeout) const;

  /// True once the command reached a terminal state (Complete or Error).
  [[nodiscard]] bool complete() const;

  /// Registers `fn` to run exactly once with the final Status. If the event
  /// is already terminal, fn runs inline in the calling thread; otherwise it
  /// runs on the completing thread, before the command retires from its
  /// queue — so follow-up work enqueued inside fn is always covered by that
  /// queue's finish() (the transitive-drain contract; see finish()).
  /// Must not race the owning queue's destruction (same lifetime rule as
  /// enqueueing).
  void on_complete(std::function<void(core::Status)> fn);

  /// clCreateUserEvent analogue: an event in the Queued state that no queue
  /// owns; it completes only when set_user_status() is called. Usable in any
  /// wait list — mclserve gates and cancels pending requests with these.
  [[nodiscard]] static AsyncEventPtr create_user();

  /// clSetUserEventStatus analogue. Completes a create_user() event exactly
  /// once: Success -> Complete; any other Status -> Error, which propagates
  /// to wait-list dependents the same way a failed command does. Throws
  /// InvalidOperation on non-user events or a second call.
  void set_user_status(core::Status status);

  /// wait() + the completed Event record.
  [[nodiscard]] Event result() const;

  /// Current execution status (Queued -> Submitted -> Running -> terminal).
  [[nodiscard]] CommandState state() const;

  /// Status::Success until the command (or a dependency) failed.
  [[nodiscard]] core::Status status() const;

  [[nodiscard]] CommandType type() const noexcept { return type_; }

  /// The four profiling timestamps. Only available once the command reached
  /// a terminal state; throws Status::InvalidOperation before that
  /// (CL_PROFILING_INFO_NOT_AVAILABLE analogue).
  [[nodiscard]] ProfilingInfo profiling_ns() const;

  /// The mclprof per-launch profile (IPC, cache-miss rate, GB/s) of an
  /// NDRangeKernel command. Same availability contract as profiling_ns():
  /// throws Status::InvalidOperation before the terminal state or for
  /// non-kernel commands. The profile has launches == 0 when no profiling
  /// session was active at launch time.
  [[nodiscard]] prof::KernelProfile kernel_profile() const;

  /// mclobs causal context id of this command (0 when observability was off
  /// at enqueue). Written once in submit_async before the event is
  /// published; safe to read without the event lock.
  [[nodiscard]] std::uint64_t context() const noexcept { return ctx_; }

 private:
  friend class CommandQueue;

  [[nodiscard]] bool finished_locked() const noexcept {
    return state_ == CommandState::Complete || state_ == CommandState::Error;
  }
  /// Registers fn to run (with this event's final status) on completion;
  /// returns false — caller must resolve immediately — when already done.
  bool add_continuation(std::function<void(core::Status)> fn);

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  CommandType type_ = CommandType::Marker;
  bool user_ = false;  ///< created by create_user(); completes via set_user_status
  /// Owning queue (null for user events). Written once at creation, before
  /// the event is published; used only by on_complete() for callback
  /// accounting while the event is live (the queue outlives live events).
  CommandQueue* queue_ = nullptr;
  CommandState state_ = CommandState::Queued;
  Event event_;
  std::exception_ptr error_;
  core::Status status_ = core::Status::Success;
  ProfilingInfo prof_;
  std::uint64_t ctx_ = 0;  ///< mclobs context; written pre-publication
  // Event-graph node state (owned by the queue machinery).
  std::function<Event()> work_;
  std::size_t blocking_deps_ = 0;
  core::Status dep_failure_ = core::Status::Success;
  std::vector<std::function<void(core::Status)>> continuations_;
};

/// Whether the caller waits for a command right after enqueueing it. Only
/// decides where a node that is ready at submission runs (see the header
/// comment); ordering and results are the same either way.
enum class Blocking : bool { No, Yes };

/// A validated command: its type and the body its node runs (queue.cpp).
struct Command;

/// Result of a non-blocking map: the canonical host pointer (valid once
/// `event` completes) and the map command's event.
struct Mapping {
  void* ptr = nullptr;
  AsyncEventPtr event;
};

/// clContext analogue: a device-set binding plus buffer factory. One context
/// may hold several devices (the CPU device, its sub-devices, the simulated
/// GPU); queues bind to one device of the set each, so a single context can
/// drive the same kernel on every device (clCreateContext with multiple
/// cl_device_ids).
class Context {
 public:
  explicit Context(Device& device) : devices_{&device} {}
  explicit Context(std::vector<Device*> devices) : devices_(std::move(devices)) {
    core::check(!devices_.empty(), core::Status::InvalidValue,
                "Context requires at least one device");
    for (Device* d : devices_) {
      core::check(d != nullptr, core::Status::InvalidValue,
                  "Context device list contains a null device");
    }
  }

  /// The context's first device (the default queues bind to when no device
  /// is named; single-device contexts behave exactly as before).
  [[nodiscard]] Device& device() const noexcept { return *devices_.front(); }

  [[nodiscard]] const std::vector<Device*>& devices() const noexcept {
    return devices_;
  }
  [[nodiscard]] bool has_device(const Device& device) const noexcept {
    for (const Device* d : devices_) {
      if (d == &device) return true;
    }
    return false;
  }

  [[nodiscard]] Buffer create_buffer(MemFlags flags, std::size_t bytes,
                                     void* host_ptr = nullptr) const {
    return Buffer(flags, bytes, host_ptr);
  }

  [[nodiscard]] Kernel create_kernel(const Program& program,
                                     const std::string& name) const {
    return Kernel(program.lookup(name));
  }

 private:
  std::vector<Device*> devices_;
};

class CommandQueue {
 public:
  explicit CommandQueue(Context& context,
                        QueueProperties properties = QueueProperties::Default)
      : context_(&context),
        device_(&context.device()),
        properties_(properties) {}

  /// clCreateCommandQueue with an explicit device: `device` must be one of
  /// the context's devices (throws DeviceNotFound — CL_INVALID_DEVICE —
  /// otherwise). Queues on different devices of one context execute
  /// concurrently; queues on sibling CPU sub-devices use disjoint worker
  /// spans of the shared pool.
  CommandQueue(Context& context, Device& device,
               QueueProperties properties = QueueProperties::Default)
      : context_(&context), device_(&device), properties_(properties) {
    core::check(context.has_device(device), core::Status::DeviceNotFound,
                "CommandQueue device is not part of the context");
  }
  ~CommandQueue();

  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;

  [[nodiscard]] Device& device() const noexcept { return *device_; }
  [[nodiscard]] QueueProperties properties() const noexcept {
    return properties_;
  }
  [[nodiscard]] bool out_of_order() const noexcept {
    return has_flag(properties_, QueueProperties::OutOfOrder);
  }

  // Each command comes in two forms over one event-graph node. enqueue_X
  // blocks and returns the completed Event; enqueue_X_async returns the
  // node's event at once. `wait_list` adds explicit dependencies (events of
  // this or any other queue); a failed wait-list event propagates its
  // Status to the command instead of running it. Pass Blocking::Yes when
  // the caller waits on the event right away (cl.h's blocking_* flags). See
  // the header comment for ordering and lifetime rules.

  /// clEnqueueWriteBuffer: host memory -> buffer (one memcpy). bytes == 0 is
  /// a no-op command.
  [[nodiscard]] AsyncEventPtr enqueue_write_buffer_async(
      Buffer& buffer, std::size_t offset, std::size_t bytes, const void* src,
      std::vector<AsyncEventPtr> wait_list = {},
      Blocking blocking = Blocking::No);
  Event enqueue_write_buffer(Buffer& buffer, std::size_t offset,
                             std::size_t bytes, const void* src) {
    return enqueue_write_buffer_async(buffer, offset, bytes, src, {},
                                      Blocking::Yes)->result();
  }

  /// clEnqueueReadBuffer: buffer -> host memory. bytes == 0 is a no-op.
  [[nodiscard]] AsyncEventPtr enqueue_read_buffer_async(
      const Buffer& buffer, std::size_t offset, std::size_t bytes, void* dst,
      std::vector<AsyncEventPtr> wait_list = {},
      Blocking blocking = Blocking::No);
  Event enqueue_read_buffer(const Buffer& buffer, std::size_t offset,
                            std::size_t bytes, void* dst) {
    return enqueue_read_buffer_async(buffer, offset, bytes, dst, {},
                                     Blocking::Yes)->result();
  }

  /// clEnqueueCopyBuffer: device-side buffer-to-buffer copy. Overlapping
  /// src/dst regions (including via sub-buffers) are rejected.
  [[nodiscard]] AsyncEventPtr enqueue_copy_buffer_async(
      const Buffer& src, Buffer& dst, std::size_t src_offset,
      std::size_t dst_offset, std::size_t bytes,
      std::vector<AsyncEventPtr> wait_list = {},
      Blocking blocking = Blocking::No);
  Event enqueue_copy_buffer(const Buffer& src, Buffer& dst,
                            std::size_t src_offset, std::size_t dst_offset,
                            std::size_t bytes) {
    return enqueue_copy_buffer_async(src, dst, src_offset, dst_offset, bytes,
                                     {}, Blocking::Yes)->result();
  }

  /// clEnqueueFillBuffer: tile `pattern` (pattern_bytes long, copied at
  /// enqueue) across [offset, offset+bytes). bytes and offset must both be
  /// multiples of pattern_bytes (OpenCL 1.2 §5.2.2).
  [[nodiscard]] AsyncEventPtr enqueue_fill_buffer_async(
      Buffer& buffer, const void* pattern, std::size_t pattern_bytes,
      std::size_t offset, std::size_t bytes,
      std::vector<AsyncEventPtr> wait_list = {},
      Blocking blocking = Blocking::No);
  Event enqueue_fill_buffer(Buffer& buffer, const void* pattern,
                            std::size_t pattern_bytes, std::size_t offset,
                            std::size_t bytes) {
    return enqueue_fill_buffer_async(buffer, pattern, pattern_bytes, offset,
                                     bytes, {}, Blocking::Yes)->result();
  }

  /// clEnqueueWriteBufferRect: strided 3D host -> buffer copy. `host_rect`
  /// addresses `src`; `buffer_rect` addresses the buffer. The region fields
  /// of both rects must match.
  [[nodiscard]] AsyncEventPtr enqueue_write_buffer_rect_async(
      Buffer& buffer, const BufferRect& buffer_rect, const BufferRect& host_rect,
      const void* src, std::vector<AsyncEventPtr> wait_list = {},
      Blocking blocking = Blocking::No);
  Event enqueue_write_buffer_rect(Buffer& buffer, const BufferRect& buffer_rect,
                                  const BufferRect& host_rect, const void* src) {
    return enqueue_write_buffer_rect_async(buffer, buffer_rect, host_rect, src,
                                           {}, Blocking::Yes)->result();
  }

  /// clEnqueueReadBufferRect: strided 3D buffer -> host copy.
  [[nodiscard]] AsyncEventPtr enqueue_read_buffer_rect_async(
      const Buffer& buffer, const BufferRect& buffer_rect,
      const BufferRect& host_rect, void* dst,
      std::vector<AsyncEventPtr> wait_list = {},
      Blocking blocking = Blocking::No);
  Event enqueue_read_buffer_rect(const Buffer& buffer,
                                 const BufferRect& buffer_rect,
                                 const BufferRect& host_rect, void* dst) {
    return enqueue_read_buffer_rect_async(buffer, buffer_rect, host_rect, dst,
                                          {}, Blocking::Yes)->result();
  }

  /// clEnqueueMapBuffer: the canonical pointer into the buffer, computed
  /// (and the buffer counted as mapped) at enqueue; the host may use it once
  /// the event completes. The blocking form's optional `event` records the
  /// mapping cost.
  [[nodiscard]] Mapping enqueue_map_buffer_async(
      Buffer& buffer, MapFlags flags, std::size_t offset, std::size_t bytes,
      std::vector<AsyncEventPtr> wait_list = {});
  [[nodiscard]] void* enqueue_map_buffer(Buffer& buffer, MapFlags flags,
                                         std::size_t offset, std::size_t bytes,
                                         Event* event = nullptr) {
    Mapping m = enqueue_map_buffer_async(buffer, flags, offset, bytes);
    const Event ev = m.event->result();
    if (event != nullptr) *event = ev;
    return m.ptr;
  }

  /// clEnqueueUnmapMemObject. The pointer is checked and the mapping
  /// released at enqueue.
  [[nodiscard]] AsyncEventPtr enqueue_unmap_async(
      Buffer& buffer, void* mapped_ptr,
      std::vector<AsyncEventPtr> wait_list = {});
  Event enqueue_unmap(Buffer& buffer, void* mapped_ptr) {
    return enqueue_unmap_async(buffer, mapped_ptr)->result();
  }

  /// clEnqueueNDRangeKernel. Pass a default-constructed NDRange as `local`
  /// for the NULL-local-size behavior; `offset` is the global_work_offset
  /// (mclcheck's split-NDRange transform slices one launch into offset
  /// sub-launches chained by wait-list edges). The kernel's argument
  /// bindings are snapshot at enqueue; the buffers they reference must stay
  /// alive until the event completes.
  [[nodiscard]] AsyncEventPtr enqueue_ndrange_async(
      const Kernel& kernel, const NDRange& global,
      const NDRange& local = NDRange{},
      std::vector<AsyncEventPtr> wait_list = {},
      const NDRange& offset = NDRange{}, Blocking blocking = Blocking::No);
  Event enqueue_ndrange(const Kernel& kernel, const NDRange& global,
                        const NDRange& local = NDRange{},
                        const NDRange& offset = NDRange{}) {
    return enqueue_ndrange_async(kernel, global, local, {}, offset,
                                 Blocking::Yes)->result();
  }

  /// MiniCL affinity extension (CPU device only): workgroup g runs on
  /// logical CPU group_to_cpu[g].
  Event enqueue_ndrange_pinned(const Kernel& kernel, const NDRange& global,
                               const NDRange& local,
                               std::span<const int> group_to_cpu);

  /// clEnqueueMarkerWithWaitList: completes when the wait list completes —
  /// or, with an empty wait list, when every command enqueued so far has
  /// (on an in-order queue that is simply the previous command).
  [[nodiscard]] AsyncEventPtr enqueue_marker_async(
      std::vector<AsyncEventPtr> wait_list = {},
      Blocking blocking = Blocking::No);
  /// clEnqueueMarker + clWaitForEvents: returns once every command enqueued
  /// so far has completed.
  Event enqueue_marker() {
    return enqueue_marker_async({}, Blocking::Yes)->result();
  }

  /// clEnqueueBarrierWithWaitList: like the marker, but on an OutOfOrder
  /// queue every subsequently enqueued command also waits for it — the
  /// fence that restores ordering between independent command groups.
  [[nodiscard]] AsyncEventPtr enqueue_barrier_async(
      std::vector<AsyncEventPtr> wait_list = {});

  /// clFinish: blocks until every command enqueued on this queue has reached
  /// a terminal state. The drain is transitive
  /// through on_complete() callbacks: a callback that enqueues follow-up
  /// work on this queue cannot slip past a concurrent finish() — callback
  /// execution is counted alongside outstanding commands, so finish()
  /// returns only once no registered callback can still enqueue.
  void finish();

 private:
  friend class AsyncEvent;  // on_complete callback accounting

  void note_callback_registered();
  void note_callback_done();

  /// The process-wide executor all queues submit ready commands to.
  static threading::ThreadPool& executor_pool();

  /// Adds `command` to the event graph as one node and returns its event.
  AsyncEventPtr submit(Command command, std::vector<AsyncEventPtr> wait_list,
                       Blocking blocking = Blocking::No,
                       bool gather_outstanding = false,
                       bool install_barrier = false);
  void resolve_dep(const AsyncEventPtr& ev, core::Status dep_status,
                   bool run_inline = false);
  void launch_ready(const AsyncEventPtr& ev, bool run_inline);
  void run_command(const AsyncEventPtr& ev);
  void finalize(const AsyncEventPtr& ev, Event result,
                std::exception_ptr error, core::Status status);
  void command_retired();

  Context* context_;
  Device* device_;
  QueueProperties properties_;

  // Event-graph bookkeeping. outstanding_ counts enqueued-but-unfinished
  // commands; finish() waits for it to reach zero.
  std::mutex mutex_;
  std::condition_variable drained_cv_;
  std::size_t outstanding_ = 0;
  std::size_t callbacks_in_flight_ = 0;  ///< on_complete callbacks not yet run
  AsyncEventPtr last_;     ///< in-order implicit dependency chain tail
  AsyncEventPtr barrier_;  ///< latest out-of-order barrier, if any
  std::vector<std::weak_ptr<AsyncEvent>> live_;  ///< for marker/barrier edges
};

}  // namespace mcl::ocl
