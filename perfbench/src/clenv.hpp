// A CL/cl.h host set-up (platform, context, profiling queue, program) that
// releases everything it created when destroyed. The benchmark drives the
// runtime through this public C surface, the way an OpenCL host program does.
#pragma once

#include <CL/cl.h>

#include <cstddef>
#include <string>
#include <vector>

namespace perf {

/// Throws (set-up failure: the run prints no result) unless err is CL_SUCCESS.
void check_cl(cl_int err, const char* what);

class ClEnv {
 public:
  /// Creates a context and an in-order profiling queue on the first CPU
  /// device and builds `source` (whose __kernel names bind to the runtime's
  /// registered kernels).
  explicit ClEnv(const std::string& source);
  ~ClEnv();
  ClEnv(const ClEnv&) = delete;
  ClEnv& operator=(const ClEnv&) = delete;

  [[nodiscard]] cl_command_queue queue() const noexcept { return queue_; }
  [[nodiscard]] cl_kernel kernel(const char* name);
  [[nodiscard]] cl_mem buffer(cl_mem_flags flags, std::size_t bytes,
                              void* host = nullptr);

 private:
  cl_context context_ = nullptr;
  cl_command_queue queue_ = nullptr;
  cl_program program_ = nullptr;
  std::vector<cl_kernel> kernels_;
  std::vector<cl_mem> mems_;
};

/// clSetKernelArg for a buffer or a by-value scalar.
void set_arg(cl_kernel k, cl_uint index, cl_mem mem);
template <typename T>
void set_arg_value(cl_kernel k, cl_uint index, const T& v) {
  check_cl(clSetKernelArg(k, index, sizeof(T), &v), "clSetKernelArg");
}
/// clSetKernelArg(k, index, bytes, NULL): a local-memory request.
void set_arg_local(cl_kernel k, cl_uint index, std::size_t bytes);

}  // namespace perf
