#include "ocl/kernel.hpp"

#include "ocl/detail/ctx_access.hpp"
#include "simd/vec.hpp"

namespace mcl::ocl {

void WorkItemCtx::barrier() const {
  core::check(barrier_fn_ != nullptr, core::Status::InvalidOperation,
              "barrier() requires the fiber executor (set needs_barrier on the "
              "kernel, or select ExecutorKind::Fiber)");
  (*barrier_fn_)();
}

WorkItemCtx WorkGroupCtx::make_item_template() const {
  WorkItemCtx ctx;
  CtxAccess::set_sizes(
      ctx, NDRange{global_size_[0], global_size_[1], global_size_[2]},
      NDRange{local_size_[0], local_size_[1], local_size_[2]},
      NDRange{offset_[0], offset_[1], offset_[2]});
  CtxAccess::set_group(ctx, group_[0], group_[1], group_[2]);
  CtxAccess::set_local_mem(ctx, local_mem_base_);
  return ctx;
}

void WorkGroupCtx::set_item(WorkItemCtx& ctx, std::size_t x, std::size_t y,
                            std::size_t z) const {
  CtxAccess::set_item(ctx, x, y, z);
}

std::vector<ExecutorKind> legal_executors(const KernelDef& def) {
  if (def.workgroup != nullptr) return {};
  if (def.needs_barrier) return {ExecutorKind::Fiber};
  if (def.simd == nullptr) return {ExecutorKind::Loop, ExecutorKind::Fiber};
  if (simd::kNativeFloatWidth > 1) {
    return {ExecutorKind::Simd, ExecutorKind::Loop, ExecutorKind::Fiber};
  }
  return {ExecutorKind::Loop, ExecutorKind::Simd, ExecutorKind::Fiber};
}

void Program::add(KernelDef def) {
  core::check(!def.name.empty(), core::Status::InvalidKernelName,
              "kernel name must be nonempty");
  core::check(def.scalar != nullptr || def.workgroup != nullptr,
              core::Status::BuildProgramFailure,
              "kernel '" + def.name + "' needs a scalar or workgroup body");
  core::check(def.simd == nullptr || def.scalar != nullptr,
              core::Status::BuildProgramFailure,
              "kernel '" + def.name +
                  "': simd form requires a scalar fallback for remainders");
  core::check(!def.needs_barrier || def.scalar != nullptr,
              core::Status::BuildProgramFailure,
              "kernel '" + def.name + "': needs_barrier applies to scalar form");
  kernels_[def.name] = std::move(def);
}

const KernelDef& Program::lookup(const std::string& name) const {
  auto it = kernels_.find(name);
  core::check(it != kernels_.end(), core::Status::InvalidKernelName,
              "no kernel named '" + name + "'");
  return it->second;
}

std::vector<std::string> Program::kernel_names() const {
  std::vector<std::string> names;
  names.reserve(kernels_.size());
  for (const auto& [name, def] : kernels_) names.push_back(name);
  return names;
}

Program& Program::builtin() {
  static Program program;
  return program;
}

}  // namespace mcl::ocl
