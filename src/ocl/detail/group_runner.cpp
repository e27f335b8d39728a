#include "ocl/detail/group_runner.hpp"

#include <algorithm>
#include <functional>

#include "ocl/detail/ctx_access.hpp"
#include "simd/vec.hpp"
#include "threading/fiber.hpp"

namespace mcl::ocl::detail {

namespace {

/// Thread-local scratch backing workgroup local memory. One workgroup runs
/// entirely on one thread (or one fiber group on one thread), so the arena
/// can be reused across groups without synchronization.
struct LocalArena {
  std::vector<std::byte> bytes;
  std::vector<void*> ptrs;
};
thread_local LocalArena t_arena;

}  // namespace

GroupRunner::GroupRunner(const KernelDef& def, const KernelArgs& args,
                         const NDRange& global, const NDRange& local,
                         ExecutorKind kind, const NDRange& offset)
    : def_(def), args_(args), global_(global), offset_(offset) {
  core::check(offset.is_null() || offset.dims == global.dims,
              core::Status::InvalidGlobalWorkSize,
              "global offset dimensionality differs from global size");
  core::check(!global.is_null() && global.total() > 0,
              core::Status::InvalidGlobalWorkSize,
              "global work size must be nonzero");

  local_ = local.is_null() ? pick_default_local(global) : local;
  core::check(local_.dims == global.dims, core::Status::InvalidWorkGroupSize,
              "local and global dimensionality differ");
  total_groups_ = 1;
  for (std::size_t d = 0; d < global.dims; ++d) {
    core::check(local_[d] > 0, core::Status::InvalidWorkGroupSize,
                "local size must be nonzero");
    core::check(global[d] % local_[d] == 0, core::Status::InvalidWorkGroupSize,
                "global size must be divisible by local size (OpenCL 1.x rule)");
    ngroups_[d] = global[d] / local_[d];
    total_groups_ *= ngroups_[d];
  }

  // Local-memory layout.
  for (std::size_t i = 0; i < args.arg_count(); ++i) {
    core::check(args.is_set(i), core::Status::InvalidKernelArgs,
                "kernel '" + def.name + "': argument " + std::to_string(i) +
                    " was never set");
    if (args.is_local(i)) {
      local_args_.emplace_back(i, local_total_bytes_);
      local_total_bytes_ += (args.local_bytes(i) + 63) & ~std::size_t{63};
      max_local_arg_index_ = std::max(max_local_arg_index_, i);
    }
  }

  core::check(def.scalar != nullptr || def.workgroup != nullptr,
              core::Status::BuildProgramFailure, "kernel lacks any body");
  // Resolve the executor against the kernel's legal set. Workgroup-form
  // kernels ignore the knob; reuse the Loop slot to mean "non-fiber,
  // non-simd". Checked is executed by CheckedRunner, which uses this class
  // only to validate, so it resolves like Auto.
  const std::vector<ExecutorKind> legal = legal_executors(def);
  if (legal.empty()) {
    kind_ = ExecutorKind::Loop;
    return;
  }
  kind_ = kind == ExecutorKind::Auto || kind == ExecutorKind::Checked
              ? legal.front()
              : kind;
  if (std::find(legal.begin(), legal.end(), kind_) != legal.end()) return;
  core::check(kind_ != ExecutorKind::Simd || def.simd != nullptr,
              core::Status::InvalidOperation,
              "kernel '" + def.name + "' has no simd form");
  // A barrier kernel on a barrier-less executor would throw from inside the
  // kernel body; reject the launch up front instead.
  throw core::Error(core::Status::InvalidLaunch,
                    "kernel '" + def.name +
                        "' requires barriers but resolved to a non-fiber "
                        "executor; select Fiber, Checked or Auto");
}

void* const* GroupRunner::prepare_local_mem() const {
  if (local_args_.empty()) return nullptr;
  LocalArena& arena = t_arena;
  if (arena.bytes.size() < local_total_bytes_)
    arena.bytes.resize(local_total_bytes_);
  if (arena.ptrs.size() < max_local_arg_index_ + 1)
    arena.ptrs.assign(max_local_arg_index_ + 1, nullptr);
  for (const auto& [arg_index, offset] : local_args_) {
    arena.ptrs[arg_index] = arena.bytes.data() + offset;
  }
  return arena.ptrs.data();
}

void GroupRunner::run_group(std::size_t linear_group) const {
  const std::size_t g0 = linear_group % ngroups_[0];
  const std::size_t g1 = (linear_group / ngroups_[0]) % ngroups_[1];
  const std::size_t g2 = linear_group / (ngroups_[0] * ngroups_[1]);
  void* const* local_mem = prepare_local_mem();

  if (def_.workgroup != nullptr) {
    run_group_wgfn(g0, g1, g2, local_mem);
    return;
  }
  switch (kind_) {
    case ExecutorKind::Loop: run_group_loop(g0, g1, g2, local_mem); break;
    case ExecutorKind::Simd: run_group_simd(g0, g1, g2, local_mem); break;
    case ExecutorKind::Fiber: run_group_fiber(g0, g1, g2, local_mem); break;
    case ExecutorKind::Auto:
    case ExecutorKind::Checked:
      break;  // both resolved to a concrete kind in the constructor
  }
}

void GroupRunner::run_group_loop(std::size_t g0, std::size_t g1, std::size_t g2,
                                 void* const* local_mem) const {
  WorkItemCtx ctx;
  CtxAccess::set_sizes(ctx, global_, local_, offset_);
  CtxAccess::set_group(ctx, g0, g1, g2);
  CtxAccess::set_local_mem(ctx, local_mem);
  for (std::size_t z = 0; z < local_[2]; ++z) {
    for (std::size_t y = 0; y < local_[1]; ++y) {
      for (std::size_t x = 0; x < local_[0]; ++x) {
        CtxAccess::set_item(ctx, x, y, z);
        def_.scalar(args_, ctx);
      }
    }
  }
}

void GroupRunner::run_group_simd(std::size_t g0, std::size_t g1, std::size_t g2,
                                 void* const* local_mem) const {
  constexpr std::size_t W = static_cast<std::size_t>(simd::kNativeFloatWidth);
  SimdItemCtx vctx;
  CtxAccess::init_simd(vctx, global_, local_, simd::kNativeFloatWidth);
  WorkItemCtx ctx;  // scalar remainder
  CtxAccess::set_sizes(ctx, global_, local_, offset_);
  CtxAccess::set_group(ctx, g0, g1, g2);
  CtxAccess::set_local_mem(ctx, local_mem);

  const std::size_t off0 = offset_.offset_component(0);
  const std::size_t lx = local_[0];
  const std::size_t vec_end = lx - lx % W;
  const std::size_t lane_groups = vec_end / W;
  for (std::size_t z = 0; z < local_[2]; ++z) {
    for (std::size_t y = 0; y < local_[1]; ++y) {
      const std::size_t gy = offset_.offset_component(1) + g1 * local_[1] + y;
      const std::size_t gz = offset_.offset_component(2) + g2 * local_[2] + z;
      if (lane_groups > 0) {
        // One call covers every full lane group of the row — the batching a
        // compiled workgroup loop gets, so per-item dispatch cost stays off
        // the vectorized path.
        CtxAccess::set_simd_pos(vctx, off0 + g0 * lx, lane_groups, gy, gz);
        def_.simd(args_, vctx);
      }
      for (std::size_t x = vec_end; x < lx; ++x) {
        CtxAccess::set_item(ctx, x, y, z);
        def_.scalar(args_, ctx);
      }
    }
  }
}

void GroupRunner::run_group_fiber(std::size_t g0, std::size_t g1,
                                  std::size_t g2,
                                  void* const* local_mem) const {
  const std::size_t items = local_.total();
  threading::run_fiber_group(
      items,
      [&](std::size_t index, threading::FiberYield& yield) {
        std::function<void()> barrier_fn = [&yield] { yield.barrier(); };
        WorkItemCtx ctx;
        CtxAccess::set_sizes(ctx, global_, local_, offset_);
        CtxAccess::set_group(ctx, g0, g1, g2);
        CtxAccess::set_local_mem(ctx, local_mem);
        CtxAccess::set_barrier(ctx, &barrier_fn);
        const std::size_t x = index % local_[0];
        const std::size_t y = (index / local_[0]) % local_[1];
        const std::size_t z = index / (local_[0] * local_[1]);
        CtxAccess::set_item(ctx, x, y, z);
        def_.scalar(args_, ctx);
      });
}

void GroupRunner::run_group_wgfn(std::size_t g0, std::size_t g1, std::size_t g2,
                                 void* const* local_mem) const {
  WorkGroupCtx ctx;
  CtxAccess::init_group(ctx, global_, local_, local_mem, offset_);
  CtxAccess::set_group_id(ctx, g0, g1, g2);
  def_.workgroup(args_, ctx);
}

}  // namespace mcl::ocl::detail
