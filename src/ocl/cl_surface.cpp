#include "ocl/cl_surface.hpp"

#include <cstring>

namespace mcl::ocl {

namespace {

using S = ClSurfaceStatus;

// Covering-test shorthands. `kMatrix` is the table-driven negative test
// (tests/cl_errors_test.cpp); the conformance programs are unmodified
// external-style C hosts (examples/conformance/); `kShim` is the C++
// integration suite (tests/cl_shim_test.cpp); `kSubdev` the sub-device
// sharding suite (tests/subdevice_test.cpp). The MCL extension rows
// (CL/cl_ext_mcl.h) are also covered by the trace and tune suites.
constexpr const char* kMatrix = "cl_errors_test";
constexpr const char* kHello = "conformance_hello_opencl";
constexpr const char* kMin = "conformance_parallel_min";
constexpr const char* kShim = "cl_shim_test";
constexpr const char* kSubdev = "subdevice_test";

constexpr const char* kMatrixShim = "cl_errors_test,cl_shim_test";
constexpr const char* kCore =
    "cl_errors_test,conformance_hello_opencl,conformance_parallel_min,cl_shim_test";
constexpr const char* kMatrixHello = "cl_errors_test,conformance_hello_opencl";
constexpr const char* kMatrixSubdev = "cl_errors_test,subdevice_test";
constexpr const char* kMatrixTrace = "cl_errors_test,trace_test";
constexpr const char* kMatrixTune = "cl_errors_test,tune_test";

// Sorted by name (asserted by the drift-guard test).
constexpr ClSurfaceEntry kSurface[] = {
    {"clBuildProgram", S::Implemented, kCore,
     "binds __kernel names in the source to registered kernel descriptors; "
     "CL_BUILD_PROGRAM_FAILURE + build log when a name has no registered "
     "implementation"},
    {"clCreateBuffer", S::Implemented, kCore,
     "host-memory buffer; CL_MEM_USE_HOST_PTR wraps the caller's storage"},
    {"clCreateCommandQueue", S::Implemented, kCore,
     "in-order or CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE; profiling always on"},
    {"clCreateContext", S::Implemented, kCore,
     "multi-device contexts supported (CPU + sub-devices + simulated GPU)"},
    {"clCreateContextFromType", S::Implemented, kMatrixShim,
     "CL_DEVICE_TYPE_CPU/GPU/DEFAULT/ALL against the MiniCL platform"},
    {"clCreateImage2D", S::Unsupported, "",
     "no image support in the CL shim (mcl images are C++-API only)"},
    {"clCreateImage3D", S::Unsupported, "", "no image support in the CL shim"},
    {"clCreateKernel", S::Implemented, kCore,
     "resolves against the built program's bound kernel names"},
    {"clCreateKernelsInProgram", S::Implemented, kMatrixShim,
     "one kernel per bound __kernel name, in source order"},
    {"clCreateProgramWithBinary", S::Stubbed, kMatrix,
     "no binary format exists; returns CL_INVALID_BINARY"},
    {"clCreateProgramWithSource", S::Implemented, kCore,
     "stores the concatenated source for clBuildProgram name binding"},
    {"clCreateSampler", S::Unsupported, "", "no sampler support"},
    {"clCreateSubBuffer", S::Implemented, kMatrixShim,
     "CL_BUFFER_CREATE_TYPE_REGION views over the parent's storage"},
    {"clCreateSubDevices", S::Implemented, kMatrixSubdev,
     "CPU pool sharding: CL_DEVICE_PARTITION_EQUALLY / BY_COUNTS (OpenCL 1.2 "
     "entry point provided for device fission)"},
    {"clCreateUserEvent", S::Implemented, kMatrixShim,
     "completes via clSetUserEventStatus; usable in any wait list"},
    {"clEnqueueBarrier", S::Implemented, kMatrixShim,
     "out-of-order fence (implicit on in-order queues)"},
    {"clEnqueueCopyBuffer", S::Implemented, kMatrixShim,
     "device-side copy; overlapping regions rejected"},
    {"clEnqueueMapBuffer", S::Implemented, kMatrixHello,
     "returns the canonical pointer (zero-copy, the paper's Fig 7/8 point)"},
    {"clEnqueueMarker", S::Implemented, kMatrixShim,
     "timestamped no-op event"},
    {"clEnqueueNDRangeKernel", S::Implemented, kCore,
     "up to 3 dims, NULL local supported, global_work_offset supported"},
    {"clEnqueueNativeKernel", S::Stubbed, kMatrix,
     "not supported; returns CL_INVALID_OPERATION"},
    {"clEnqueueReadBuffer", S::Implemented, kCore,
     "blocking and non-blocking; event-graph executor under the hood"},
    {"clEnqueueReadBufferRect", S::Implemented, kMatrixShim,
     "strided 3D buffer -> host copies"},
    {"clEnqueueTask", S::Implemented, kMatrixShim,
     "single work-item clEnqueueNDRangeKernel"},
    {"clEnqueueUnmapMemObject", S::Implemented, kMatrixHello,
     "decrements the map count; no copy"},
    {"clEnqueueWaitForEvents", S::Implemented, kMatrix,
     "in-order wait-list barrier (deprecated 1.1 API kept for compatibility)"},
    {"clEnqueueWriteBuffer", S::Implemented, kCore,
     "blocking and non-blocking host -> buffer copies"},
    {"clEnqueueWriteBufferRect", S::Implemented, kMatrixShim,
     "strided 3D host -> buffer copies"},
    {"clFinish", S::Implemented, kCore,
     "drains the queue's event graph (transitively through callbacks)"},
    {"clFlush", S::Implemented, kMatrixShim,
     "no-op: commands are submitted eagerly at enqueue"},
    {"clGetCommandQueueInfo", S::Implemented, kMatrixShim,
     "context/device/reference-count/properties queries"},
    {"clGetContextInfo", S::Implemented, kMatrixShim,
     "devices, num-devices, reference count"},
    {"clGetDeviceIDs", S::Implemented, kCore,
     "CPU device + simulated-GPU device under one platform"},
    {"clGetDeviceInfo", S::Implemented, kCore,
     "host-relevant subset incl. partition/parent queries for sub-devices"},
    {"clGetEventInfo", S::Implemented, kMatrixShim,
     "execution status, command type, queue/context, reference count"},
    {"clGetEventKernelProfileMCL", S::Implemented, kMatrixShim,
     "MCL extension: per-launch kernel profile of a kernel event launched "
     "under a profiling session"},
    {"clGetEventProfilingInfo", S::Implemented, kCore,
     "QUEUED/SUBMIT/START/END from the shared steady-clock epoch"},
    {"clGetExtensionFunctionAddress", S::Implemented, kMatrix,
     "always NULL: with no ICD loader the MCL extensions are linked "
     "directly"},
    {"clGetImageInfo", S::Unsupported, "", "no image support"},
    {"clGetKernelInfo", S::Implemented, kMatrixShim,
     "function name, reference count, context/program"},
    {"clGetKernelTunedConfigMCL", S::Implemented, kMatrixTune,
     "MCL extension: the tuner's config for a launch shape, keyed on the "
     "device's compute units"},
    {"clGetKernelWorkGroupInfo", S::Implemented, kMatrixShim,
     "work-group size limits and the preferred SIMD multiple per device"},
    {"clGetMemObjectInfo", S::Implemented, kMatrixShim,
     "type/flags/size/map-count/reference-count/context, sub-buffer origin"},
    {"clGetMetricsSnapshotMCL", S::Implemented, kMatrixShim,
     "MCL extension: metrics registry as JSON, size query and truncating "
     "copy"},
    {"clGetPlatformIDs", S::Implemented, kCore, "exactly one platform"},
    {"clGetPlatformInfo", S::Implemented, kMatrixHello,
     "profile/version/name/vendor/extensions strings"},
    {"clGetProgramBuildInfo", S::Implemented, kCore,
     "build status and the kernel-binding build log"},
    {"clGetProgramInfo", S::Implemented, kMatrixShim,
     "context, devices, source, reference count"},
    {"clGetSamplerInfo", S::Unsupported, "", "no sampler support"},
    {"clGetSupportedImageFormats", S::Implemented, kMatrix,
     "reports zero supported formats (no image support)"},
    {"clReleaseCommandQueue", S::Implemented, kCore,
     "finishes the queue at the last release"},
    {"clReleaseContext", S::Implemented, kCore,
     "reference-counted; devices outlive the context"},
    {"clReleaseDevice", S::Implemented, kMatrixSubdev,
     "no-op on root devices; sub-devices are refcounted and stay alive while "
     "queues hold them (OpenCL 1.2 entry point)"},
    {"clReleaseEvent", S::Implemented, kMatrixShim, "reference-counted"},
    {"clReleaseKernel", S::Implemented, kCore, "reference-counted"},
    {"clReleaseMemObject", S::Implemented, kCore, "reference-counted"},
    {"clReleaseProgram", S::Implemented, kCore, "reference-counted"},
    {"clRetainCommandQueue", S::Implemented, kMatrixShim, "reference-counted"},
    {"clRetainContext", S::Implemented, kMatrixShim, "reference-counted"},
    {"clRetainDevice", S::Implemented, kMatrixSubdev,
     "no-op on root devices; counts on sub-devices (OpenCL 1.2 entry point)"},
    {"clRetainEvent", S::Implemented, kMatrixShim, "reference-counted"},
    {"clRetainKernel", S::Implemented, kMatrixShim, "reference-counted"},
    {"clRetainMemObject", S::Implemented, kMatrixShim, "reference-counted"},
    {"clRetainProgram", S::Implemented, kMatrixShim, "reference-counted"},
    {"clSetEventCallback", S::Implemented, kMatrixShim,
     "CL_COMPLETE callbacks via the event's on_complete hook"},
    {"clSetKernelArg", S::Implemented, kCore,
     "buffers (by live-handle detection), scalars, and NULL local-memory "
     "requests"},
    {"clSetTuningModeMCL", S::Implemented, kMatrixTune,
     "MCL extension: process-wide tuning mode (off/seed/online)"},
    {"clSetUserEventStatus", S::Implemented, kMatrixShim,
     "CL_COMPLETE or a negative error, exactly once"},
    {"clTraceBeginMCL", S::Implemented, kMatrixTrace,
     "MCL extension: opens a host-phase trace span"},
    {"clTraceCounterMCL", S::Implemented, kMatrixTrace,
     "MCL extension: samples a named trace counter"},
    {"clTraceEndMCL", S::Implemented, kMatrixTrace,
     "MCL extension: closes the innermost host-phase trace span"},
    {"clUnloadCompiler", S::Implemented, kMatrix,
     "no compiler to unload; returns CL_SUCCESS"},
    {"clWaitForEvents", S::Implemented, kMatrixShim,
     "waits on events from any queue of the context"},
};

}  // namespace

std::span<const ClSurfaceEntry> cl_surface() { return kSurface; }

const ClSurfaceEntry* cl_surface_find(const char* name) {
  if (name == nullptr) return nullptr;
  for (const ClSurfaceEntry& e : kSurface) {
    if (std::strcmp(e.name, name) == 0) return &e;
  }
  return nullptr;
}

const char* to_string(ClSurfaceStatus status) noexcept {
  switch (status) {
    case ClSurfaceStatus::Implemented: return "implemented";
    case ClSurfaceStatus::Stubbed: return "stubbed";
    case ClSurfaceStatus::Unsupported: return "unsupported";
  }
  return "unknown";
}

}  // namespace mcl::ocl
