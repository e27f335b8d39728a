#include "clenv.hpp"

#include <stdexcept>

namespace perf {

void check_cl(cl_int err, const char* what) {
  if (err != CL_SUCCESS) {
    throw std::runtime_error(std::string(what) + " failed: " +
                             std::to_string(err));
  }
}

ClEnv::ClEnv(const std::string& source) {
  cl_platform_id platform = nullptr;
  check_cl(clGetPlatformIDs(1, &platform, nullptr), "clGetPlatformIDs");
  cl_device_id device = nullptr;
  check_cl(clGetDeviceIDs(platform, CL_DEVICE_TYPE_CPU, 1, &device, nullptr),
           "clGetDeviceIDs");
  cl_int err = CL_SUCCESS;
  context_ = clCreateContext(nullptr, 1, &device, nullptr, nullptr, &err);
  check_cl(err, "clCreateContext");
  queue_ = clCreateCommandQueue(context_, device, CL_QUEUE_PROFILING_ENABLE,
                                &err);
  check_cl(err, "clCreateCommandQueue");
  const char* text = source.c_str();
  program_ = clCreateProgramWithSource(context_, 1, &text, nullptr, &err);
  check_cl(err, "clCreateProgramWithSource");
  check_cl(clBuildProgram(program_, 1, &device, nullptr, nullptr, nullptr),
           "clBuildProgram");
}

ClEnv::~ClEnv() {
  if (queue_ != nullptr) clFinish(queue_);
  for (cl_kernel k : kernels_) clReleaseKernel(k);
  for (cl_mem m : mems_) clReleaseMemObject(m);
  if (program_ != nullptr) clReleaseProgram(program_);
  if (queue_ != nullptr) clReleaseCommandQueue(queue_);
  if (context_ != nullptr) clReleaseContext(context_);
}

cl_kernel ClEnv::kernel(const char* name) {
  cl_int err = CL_SUCCESS;
  cl_kernel k = clCreateKernel(program_, name, &err);
  check_cl(err, name);
  kernels_.push_back(k);
  return k;
}

cl_mem ClEnv::buffer(cl_mem_flags flags, std::size_t bytes, void* host) {
  cl_int err = CL_SUCCESS;
  cl_mem m = clCreateBuffer(context_, flags, bytes, host, &err);
  check_cl(err, "clCreateBuffer");
  mems_.push_back(m);
  return m;
}

void set_arg(cl_kernel k, cl_uint index, cl_mem mem) {
  check_cl(clSetKernelArg(k, index, sizeof(cl_mem), &mem), "clSetKernelArg");
}

void set_arg_local(cl_kernel k, cl_uint index, std::size_t bytes) {
  check_cl(clSetKernelArg(k, index, bytes, nullptr), "clSetKernelArg(local)");
}

}  // namespace perf
