// Kernel model.
//
// MiniCL has no OpenCL C frontend; a "program build" registers, per kernel
// name, the artifacts a CPU OpenCL compiler would emit:
//   - scalar:    void(const KernelArgs&, WorkItemCtx&)       [required]
//   - simd:      void(const KernelArgs&, SimdItemCtx&)       [optional]
//     The implicit-vectorization module's output: processes
//     simd::kNativeFloatWidth consecutive dim-0 workitems per call.
//   - workgroup: void(const KernelArgs&, WorkGroupCtx&)      [optional]
//     Workgroup-granularity form for kernels that use local memory with
//     barriers structured as phases (the loop-fission shape CPU OpenCL
//     compilers produce).
//   - gpu_cost:  per-workitem cost descriptor for the GPU timing model.
//
// Scalar kernels that call WorkItemCtx::barrier() must set needs_barrier so
// the CPU device selects the fiber executor.
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "gpusim/gpusim.hpp"
#include "ocl/buffer.hpp"
#include "ocl/image.hpp"
#include "ocl/types.hpp"

namespace mcl::ocl {

/// clSetKernelArg analogue. Slots hold a buffer, a small scalar, or a local
/// memory size request.
class KernelArgs {
 public:
  static constexpr std::size_t kMaxScalarBytes = 32;

  void set_buffer(std::size_t index, Buffer& buffer) {
    slot(index) = Slot{Kind::Buf, &buffer, {}, 0, 0};
  }

  template <typename T>
  void set_scalar(std::size_t index, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= kMaxScalarBytes, "scalar kernel arg too large");
    set_scalar_bytes(index, &value, sizeof(T));
  }

  /// Raw-byte form of set_scalar for callers (clSetKernelArg, mclserve's
  /// descriptor replay) that carry the argument as (pointer, size) with no
  /// static type: the exact arg_size is preserved in the slot.
  void set_scalar_bytes(std::size_t index, const void* bytes,
                        std::size_t size) {
    core::check(bytes != nullptr, core::Status::InvalidKernelArgs,
                "null scalar arg pointer");
    core::check(size > 0 && size <= kMaxScalarBytes,
                core::Status::InvalidKernelArgs, "scalar arg size unsupported");
    Slot& s = slot(index);
    s.kind = Kind::Scalar;
    s.buffer = nullptr;
    std::memcpy(s.scalar.data(), bytes, size);
    s.scalar_bytes = size;
  }

  /// clSetKernelArg(kernel, i, bytes, nullptr): local memory request.
  void set_local(std::size_t index, std::size_t bytes) {
    core::check(bytes > 0, core::Status::InvalidKernelArgs,
                "local memory size must be nonzero");
    slot(index) = Slot{Kind::Local, nullptr, {}, 0, bytes, {}};
  }

  /// Binds a 2D image object (kernels read it via image()).
  void set_image(std::size_t index, Image2D& img) {
    Slot& s = slot(index);
    s = Slot{};
    s.kind = Kind::Image;
    s.image = img.view();
  }

  // --- kernel-side accessors (hot path: asserts only in debug) -------------

  template <typename T>
  [[nodiscard]] T* buffer(std::size_t index) const {
    return static_cast<T*>(slots_[index].buffer->device_ptr());
  }

  template <typename T>
  [[nodiscard]] T scalar(std::size_t index) const {
    T out;
    std::memcpy(&out, slots_[index].scalar.data(), sizeof(T));
    return out;
  }

  [[nodiscard]] std::size_t local_bytes(std::size_t index) const {
    return slots_[index].local_bytes;
  }

  [[nodiscard]] const ImageView& image(std::size_t index) const {
    return slots_[index].image;
  }

  // --- validation-side accessors --------------------------------------------

  [[nodiscard]] std::size_t arg_count() const noexcept { return slots_.size(); }
  [[nodiscard]] bool is_buffer(std::size_t i) const {
    return i < slots_.size() && slots_[i].kind == Kind::Buf;
  }
  [[nodiscard]] bool is_local(std::size_t i) const {
    return i < slots_.size() && slots_[i].kind == Kind::Local;
  }
  [[nodiscard]] bool is_image(std::size_t i) const {
    return i < slots_.size() && slots_[i].kind == Kind::Image;
  }
  [[nodiscard]] bool is_set(std::size_t i) const {
    return i < slots_.size() && slots_[i].kind != Kind::Unset;
  }
  [[nodiscard]] Buffer* buffer_object(std::size_t i) const {
    return i < slots_.size() ? slots_[i].buffer : nullptr;
  }

  /// Total local memory requested across all Local slots.
  [[nodiscard]] std::size_t total_local_bytes() const noexcept {
    std::size_t total = 0;
    for (const Slot& s : slots_) {
      if (s.kind == Kind::Local) total += (s.local_bytes + 63) & ~std::size_t{63};
    }
    return total;
  }

 private:
  enum class Kind { Unset, Buf, Scalar, Local, Image };
  struct Slot {
    Kind kind = Kind::Unset;
    Buffer* buffer = nullptr;
    std::array<std::byte, kMaxScalarBytes> scalar{};
    std::size_t scalar_bytes = 0;
    std::size_t local_bytes = 0;
    ImageView image{};
  };

  Slot& slot(std::size_t index) {
    if (index >= slots_.size()) slots_.resize(index + 1);
    return slots_[index];
  }

  std::vector<Slot> slots_;
};

/// Per-workitem view (get_global_id & friends). Mutated in place by the
/// executors as they walk the NDRange — kernels must not retain it.
class WorkItemCtx {
 public:
  [[nodiscard]] std::size_t global_id(std::size_t dim = 0) const noexcept {
    return global_[dim];
  }
  [[nodiscard]] std::size_t local_id(std::size_t dim = 0) const noexcept {
    return local_[dim];
  }
  [[nodiscard]] std::size_t group_id(std::size_t dim = 0) const noexcept {
    return group_[dim];
  }
  [[nodiscard]] std::size_t global_size(std::size_t dim = 0) const noexcept {
    return global_size_[dim];
  }
  [[nodiscard]] std::size_t local_size(std::size_t dim = 0) const noexcept {
    return local_size_[dim];
  }
  [[nodiscard]] std::size_t num_groups(std::size_t dim = 0) const noexcept {
    // Round up: with a partial final group, truncation would under-report.
    return (global_size_[dim] + local_size_[dim] - 1) / local_size_[dim];
  }

  /// Pointer to the local-memory block requested at arg `index`.
  template <typename T = void>
  [[nodiscard]] T* local_mem(std::size_t index) const noexcept {
    return static_cast<T*>(local_mem_base_[index]);
  }

  /// barrier(CLK_LOCAL_MEM_FENCE) analogue. Legal only under the fiber
  /// executor (kernels using it must register needs_barrier = true).
  void barrier() const;

 private:
  friend struct CtxAccess;
  std::size_t global_[3] = {0, 0, 0};
  std::size_t local_[3] = {0, 0, 0};
  std::size_t group_[3] = {0, 0, 0};
  std::size_t global_size_[3] = {1, 1, 1};
  std::size_t local_size_[3] = {1, 1, 1};
  std::size_t offset_[3] = {0, 0, 0};
  void* const* local_mem_base_ = nullptr;
  std::function<void()>* barrier_fn_ = nullptr;
};

/// SIMD lane-group view: lane L of group g corresponds to workitem global
/// dim-0 id `global_base() + g*width() + L`. The executor batches all full
/// lane groups of one row into a single call (lane_groups() of them) — the
/// shape a compiled workgroup loop has; kernels must iterate:
///
///   for (std::size_t g = 0; g < ctx.lane_groups(); ++g)
///     process lanes at ctx.global_base() + g * W;
///
/// Remainder items (row length % W) fall back to the scalar kernel.
class SimdItemCtx {
 public:
  [[nodiscard]] std::size_t global_base() const noexcept { return global_base_; }
  [[nodiscard]] std::size_t lane_groups() const noexcept { return lane_groups_; }
  [[nodiscard]] std::size_t global_id(std::size_t dim) const noexcept {
    return dim == 0 ? global_base_ : higher_[dim - 1];
  }
  [[nodiscard]] std::size_t global_size(std::size_t dim = 0) const noexcept {
    return global_size_[dim];
  }
  [[nodiscard]] std::size_t local_size(std::size_t dim = 0) const noexcept {
    return local_size_[dim];
  }
  [[nodiscard]] int width() const noexcept { return width_; }

 private:
  friend struct CtxAccess;
  std::size_t global_base_ = 0;
  std::size_t lane_groups_ = 1;
  std::size_t higher_[2] = {0, 0};
  std::size_t global_size_[3] = {1, 1, 1};
  std::size_t local_size_[3] = {1, 1, 1};
  int width_ = 1;
};

/// Workgroup-granularity view for local-memory kernels written as barrier-
/// separated phases: each for_each_item() call plays the role of the code
/// between two barriers.
class WorkGroupCtx {
 public:
  [[nodiscard]] std::size_t group_id(std::size_t dim = 0) const noexcept {
    return group_[dim];
  }
  [[nodiscard]] std::size_t local_size(std::size_t dim = 0) const noexcept {
    return local_size_[dim];
  }
  [[nodiscard]] std::size_t global_size(std::size_t dim = 0) const noexcept {
    return global_size_[dim];
  }
  [[nodiscard]] std::size_t num_groups(std::size_t dim = 0) const noexcept {
    // Round up: with a partial final group, truncation would under-report.
    return (global_size_[dim] + local_size_[dim] - 1) / local_size_[dim];
  }
  template <typename T = void>
  [[nodiscard]] T* local_mem(std::size_t index) const noexcept {
    return static_cast<T*>(local_mem_base_[index]);
  }

  /// Runs `fn(item)` for every workitem of this group (row-major, x fastest).
  /// Successive calls are separated by an implicit workgroup barrier.
  template <typename Fn>
  void for_each_item(Fn&& fn) const {
    WorkItemCtx ctx = make_item_template();
    for (std::size_t z = 0; z < local_size_[2]; ++z) {
      for (std::size_t y = 0; y < local_size_[1]; ++y) {
        for (std::size_t x = 0; x < local_size_[0]; ++x) {
          set_item(ctx, x, y, z);
          fn(static_cast<const WorkItemCtx&>(ctx));
        }
      }
    }
  }

 private:
  friend struct CtxAccess;
  [[nodiscard]] WorkItemCtx make_item_template() const;
  void set_item(WorkItemCtx& ctx, std::size_t x, std::size_t y,
                std::size_t z) const;

  std::size_t group_[3] = {0, 0, 0};
  std::size_t local_size_[3] = {1, 1, 1};
  std::size_t global_size_[3] = {1, 1, 1};
  std::size_t offset_[3] = {0, 0, 0};
  void* const* local_mem_base_ = nullptr;
};

using ScalarKernelFn = void (*)(const KernelArgs&, const WorkItemCtx&);
using SimdKernelFn = void (*)(const KernelArgs&, const SimdItemCtx&);
using WorkGroupKernelFn = void (*)(const KernelArgs&, const WorkGroupCtx&);
/// Maps (args, global, local) -> per-workitem GPU cost for the simulator.
using GpuCostFn = gpusim::KernelCost (*)(const KernelArgs&, const NDRange&,
                                         const NDRange&);

/// Everything registered for one kernel name.
struct KernelDef {
  std::string name;
  ScalarKernelFn scalar = nullptr;
  SimdKernelFn simd = nullptr;
  WorkGroupKernelFn workgroup = nullptr;
  GpuCostFn gpu_cost = nullptr;
  bool needs_barrier = false;  ///< scalar body calls WorkItemCtx::barrier()
};

/// A "built program": a set of kernel definitions.
class Program {
 public:
  Program() = default;

  void add(KernelDef def);
  [[nodiscard]] const KernelDef& lookup(const std::string& name) const;
  [[nodiscard]] bool contains(const std::string& name) const {
    return kernels_.count(name) != 0;
  }
  [[nodiscard]] std::vector<std::string> kernel_names() const;

  /// The process-wide registry all statically registered kernels land in
  /// (apps register via KernelRegistrar at namespace scope).
  [[nodiscard]] static Program& builtin();

 private:
  std::map<std::string, KernelDef> kernels_;
};

/// Static registration helper:
///   const KernelRegistrar reg{KernelDef{...}};
struct KernelRegistrar {
  explicit KernelRegistrar(KernelDef def) { Program::builtin().add(std::move(def)); }
};

/// A kernel instance = definition + argument bindings (clCreateKernel +
/// clSetKernelArg).
class Kernel {
 public:
  explicit Kernel(const KernelDef& def) : def_(&def) {}

  [[nodiscard]] const KernelDef& def() const noexcept { return *def_; }
  [[nodiscard]] KernelArgs& args() noexcept { return args_; }
  [[nodiscard]] const KernelArgs& args() const noexcept { return args_; }

  void set_arg(std::size_t index, Buffer& buffer) {
    core::check(buffer.kernel_readable() || buffer.kernel_writable(),
                core::Status::InvalidKernelArgs, "buffer disallows all access");
    args_.set_buffer(index, buffer);
  }
  void set_arg(std::size_t index, Image2D& image) {
    args_.set_image(index, image);
  }
  template <typename T>
  void set_arg(std::size_t index, const T& scalar) {
    args_.set_scalar(index, scalar);
  }
  void set_arg_bytes(std::size_t index, const void* bytes, std::size_t size) {
    args_.set_scalar_bytes(index, bytes, size);
  }
  void set_arg_local(std::size_t index, std::size_t bytes) {
    args_.set_local(index, bytes);
  }

 private:
  const KernelDef* def_;
  KernelArgs args_;
};

}  // namespace mcl::ocl
