// Internal: per-launch execution state shared by the CPU and simulated-GPU
// devices. Validates the launch once, then executes workgroups by linear
// index with the selected executor.
#pragma once

#include <cstddef>
#include <vector>

#include "ocl/kernel.hpp"
#include "ocl/types.hpp"

namespace mcl::ocl::detail {

class GroupRunner {
 public:
  /// Validates (throws core::Error on invalid launches) and resolves the
  /// NULL local size and the executor against legal_executors(def). `offset` (may be null) shifts
  /// every global id (clEnqueueNDRangeKernel's global_work_offset).
  GroupRunner(const KernelDef& def, const KernelArgs& args,
              const NDRange& global, const NDRange& local, ExecutorKind kind,
              const NDRange& offset = NDRange{});

  [[nodiscard]] std::size_t total_groups() const noexcept { return total_groups_; }
  [[nodiscard]] const NDRange& local() const noexcept { return local_; }
  [[nodiscard]] ExecutorKind executor() const noexcept { return kind_; }

  /// Executes one workgroup. Thread-safe across distinct `linear_group`
  /// values; uses a thread-local arena for local memory.
  void run_group(std::size_t linear_group) const;

 private:
  void run_group_loop(std::size_t g0, std::size_t g1, std::size_t g2,
                      void* const* local_mem) const;
  void run_group_simd(std::size_t g0, std::size_t g1, std::size_t g2,
                      void* const* local_mem) const;
  void run_group_fiber(std::size_t g0, std::size_t g1, std::size_t g2,
                       void* const* local_mem) const;
  void run_group_wgfn(std::size_t g0, std::size_t g1, std::size_t g2,
                      void* const* local_mem) const;

  /// Fills the thread-local local-memory arena; returns pointer table.
  [[nodiscard]] void* const* prepare_local_mem() const;

  const KernelDef& def_;
  const KernelArgs& args_;
  NDRange global_;
  NDRange local_;
  NDRange offset_;
  ExecutorKind kind_;
  std::size_t ngroups_[3] = {1, 1, 1};
  std::size_t total_groups_ = 0;
  // Local-memory layout: arg index -> offset into the arena.
  std::vector<std::pair<std::size_t, std::size_t>> local_args_;
  std::size_t local_total_bytes_ = 0;
  std::size_t max_local_arg_index_ = 0;
};

}  // namespace mcl::ocl::detail
