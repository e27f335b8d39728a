// Shared value types of the MiniCL runtime: memory/map flags, NDRange,
// executor selection.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/error.hpp"

namespace mcl::ocl {

/// clCreateBuffer flags (subset the paper exercises).
enum class MemFlags : std::uint32_t {
  ReadWrite = 1u << 0,      ///< CL_MEM_READ_WRITE (default)
  ReadOnly = 1u << 1,       ///< CL_MEM_READ_ONLY
  WriteOnly = 1u << 2,      ///< CL_MEM_WRITE_ONLY
  AllocHostPtr = 1u << 3,   ///< CL_MEM_ALLOC_HOST_PTR (pinned/host-side)
  UseHostPtr = 1u << 4,     ///< CL_MEM_USE_HOST_PTR
  CopyHostPtr = 1u << 5,    ///< CL_MEM_COPY_HOST_PTR
};

[[nodiscard]] constexpr MemFlags operator|(MemFlags a, MemFlags b) noexcept {
  return static_cast<MemFlags>(static_cast<std::uint32_t>(a) |
                               static_cast<std::uint32_t>(b));
}
[[nodiscard]] constexpr MemFlags operator&(MemFlags a, MemFlags b) noexcept {
  return static_cast<MemFlags>(static_cast<std::uint32_t>(a) &
                               static_cast<std::uint32_t>(b));
}
[[nodiscard]] constexpr MemFlags operator~(MemFlags a) noexcept {
  return static_cast<MemFlags>(~static_cast<std::uint32_t>(a));
}
[[nodiscard]] constexpr bool has_flag(MemFlags flags, MemFlags bit) noexcept {
  return (static_cast<std::uint32_t>(flags) & static_cast<std::uint32_t>(bit)) != 0;
}

/// clEnqueueMapBuffer flags.
enum class MapFlags : std::uint32_t {
  Read = 1u << 0,
  Write = 1u << 1,
  ReadWrite = (1u << 0) | (1u << 1),
};

/// clCreateCommandQueue properties (subset). Default queues are in-order:
/// every command implicitly depends on the previously enqueued one. OutOfOrder queues only honor explicit wait lists, markers and
/// barriers (CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE semantics).
enum class QueueProperties : std::uint32_t {
  Default = 0,
  OutOfOrder = 1u << 0,
};

[[nodiscard]] constexpr QueueProperties operator|(QueueProperties a,
                                                  QueueProperties b) noexcept {
  return static_cast<QueueProperties>(static_cast<std::uint32_t>(a) |
                                      static_cast<std::uint32_t>(b));
}
[[nodiscard]] constexpr bool has_flag(QueueProperties props,
                                      QueueProperties bit) noexcept {
  return (static_cast<std::uint32_t>(props) &
          static_cast<std::uint32_t>(bit)) != 0;
}

enum class DeviceType { Cpu, SimulatedGpu };

/// How the CPU device runs the workitems of one workgroup.
enum class ExecutorKind {
  Auto,     ///< simd when available, fiber when barriers are needed, else loop
  Loop,     ///< plain per-workitem loop; barrier() is an error
  Fiber,    ///< one fiber per workitem; full barrier() support
  Simd,     ///< coalesce kNativeFloatWidth workitems per lane group
  Checked,  ///< mclsan dynamic mode: serial shadow-access executor that
            ///< detects races, read-only-buffer writes, barrier divergence
            ///< and local-memory overflow (see docs/sanitizer.md)
};

/// 1-3 dimensional range (global size, local size, ids).
struct NDRange {
  std::size_t dims = 0;
  std::size_t size[3] = {0, 0, 0};

  constexpr NDRange() = default;  ///< "NullRange": local size left to runtime
  constexpr explicit NDRange(std::size_t x) : dims(1), size{x, 1, 1} {}
  constexpr NDRange(std::size_t x, std::size_t y) : dims(2), size{x, y, 1} {}
  constexpr NDRange(std::size_t x, std::size_t y, std::size_t z)
      : dims(3), size{x, y, z} {}

  [[nodiscard]] constexpr bool is_null() const noexcept { return dims == 0; }
  [[nodiscard]] constexpr std::size_t total() const noexcept {
    return is_null() ? 0 : size[0] * size[1] * size[2];
  }
  [[nodiscard]] constexpr std::size_t operator[](std::size_t d) const noexcept {
    return d < dims ? size[d] : 1;
  }
  /// Component access for offset-like ranges: unused dimensions are 0, not
  /// the implicit 1 that sizes use.
  [[nodiscard]] constexpr std::size_t offset_component(std::size_t d) const noexcept {
    return d < dims ? size[d] : 0;
  }
  [[nodiscard]] constexpr bool operator==(const NDRange& o) const noexcept {
    return dims == o.dims && size[0] == o.size[0] && size[1] == o.size[1] &&
           size[2] == o.size[2];
  }
};

/// The runtime's NULL-local-size policy, shared by device implementations
/// and inspectable by tests/benches: 64 items along x for 1D ranges, 8x8 for
/// 2D, 4x4x4 for 3D, clamped to divide the global size (falling back to the
/// largest divisor <= the target).
[[nodiscard]] NDRange pick_default_local(const NDRange& global) noexcept;

}  // namespace mcl::ocl
