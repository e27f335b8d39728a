// The CL 1.1 C shim: every entry point declared in include/CL/cl.h and the
// MCL vendor extensions in include/CL/cl_ext_mcl.h, implemented over the C++
// runtime (Platform/Context/CommandQueue/Buffer/Kernel). This is MiniCL's
// only C surface. Handles are heap objects with OpenCL reference-count
// semantics and implicit retain chains (a queue retains its context and
// device, a kernel its program, an event its queue...), so teardown order
// never matters to the host program — exactly the contract real CL programs
// rely on.
//
// Deliberate deviations (documented in docs/cl_shim.md):
//  - clBuildProgram has no OpenCL C compiler behind it: it *binds* the
//    __kernel names found in the source text to registered kernel
//    descriptors (Program::builtin()), failing with CL_BUILD_PROGRAM_FAILURE
//    and a build log naming any kernel that has no registered implementation.
//  - CL_KERNEL_NUM_ARGS reports the currently-bound argument count (the
//    descriptor table does not record arity).
//  - The rect transfer and map commands execute synchronously after their
//    wait list resolves (legal: enqueue may be eager), so their events carry
//    marker timestamps.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <CL/cl.h>
#include <CL/cl_ext_mcl.h>

#include "core/error.hpp"
#include "ocl/buffer.hpp"
#include "ocl/cl_status.hpp"
#include "ocl/device.hpp"
#include "ocl/kernel.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "ocl/types.hpp"
#include "prof/metrics.hpp"
#include "prof/profiler.hpp"
#include "trace/trace.hpp"
#include "tune/tune.hpp"

namespace mocl = mcl::ocl;
namespace mcore = mcl::core;
using mcore::Status;

// --- handle definitions (the struct tags CL/cl.h forward-declares) ----------

struct _cl_platform_id {
  int tag = 0;
};

struct _cl_device_id {
  mocl::Device* device = nullptr;
  std::shared_ptr<mocl::CpuSubDevice> sub;  ///< owning, for sub-devices
  _cl_device_id* parent = nullptr;          ///< non-null iff sub-device
  std::vector<cl_device_partition_property> partition_type;
  std::atomic<int> refs{1};
};

struct _cl_context {
  std::unique_ptr<mocl::Context> context;
  std::vector<_cl_device_id*> devices;  ///< retained
  std::vector<cl_context_properties> props;
  std::atomic<int> refs{1};
};

struct _cl_command_queue {
  std::unique_ptr<mocl::CommandQueue> queue;
  _cl_context* context = nullptr;  ///< retained
  _cl_device_id* device = nullptr;  ///< retained (counts on sub-devices)
  cl_command_queue_properties properties = 0;
  std::atomic<int> refs{1};
};

struct _cl_mem {
  std::unique_ptr<mocl::Buffer> buffer;
  _cl_context* context = nullptr;  ///< retained
  _cl_mem* parent = nullptr;       ///< retained; non-null iff sub-buffer
  std::size_t origin = 0;          ///< sub-buffer offset into the parent
  cl_mem_flags flags = 0;
  void* host_ptr = nullptr;  ///< as passed to clCreateBuffer
  std::atomic<int> refs{1};
};

struct _cl_program {
  _cl_context* context = nullptr;  ///< retained
  std::string source;
  std::string build_options;
  std::string build_log;
  std::vector<std::string> kernel_names;  ///< bound by a successful build
  cl_build_status build_status = CL_BUILD_NONE;
  std::mutex mutex;  ///< guards the build state
  std::atomic<int> refs{1};
};

struct _cl_kernel {
  std::unique_ptr<mocl::Kernel> kernel;
  _cl_program* program = nullptr;  ///< retained
  std::string name;
  /// Parameter count of the __kernel declaration in the program source
  /// (SIZE_MAX when unparseable — arg validation is then skipped).
  std::size_t num_args = SIZE_MAX;
  std::mutex mutex;  ///< guards argument binding vs. enqueue snapshots
  std::atomic<int> refs{1};
};

struct _cl_event {
  mocl::AsyncEventPtr event;
  _cl_command_queue* queue = nullptr;  ///< retained; null for user events
  _cl_context* context = nullptr;      ///< retained
  cl_command_type command_type = CL_COMMAND_MARKER;
  std::atomic<int> refs{1};
};

namespace {

// --- live-handle registries --------------------------------------------------
// Devices: validates cl_device_id arguments (roots + live sub-device
// handles). Mems: lets clSetKernelArg distinguish a cl_mem argument from a
// pointer-sized scalar.

std::mutex& device_registry_mutex() {
  static std::mutex m;
  return m;
}
std::unordered_set<_cl_device_id*>& device_registry() {
  static std::unordered_set<_cl_device_id*> s;
  return s;
}
std::mutex& mem_registry_mutex() {
  static std::mutex m;
  return m;
}
std::unordered_set<_cl_mem*>& mem_registry() {
  static std::unordered_set<_cl_mem*> s;
  return s;
}

cl_platform_id the_platform() {
  static _cl_platform_id platform;
  return &platform;
}

_cl_device_id* make_root_device(mocl::Device* device) {
  auto* handle = new _cl_device_id;
  handle->device = device;
  std::lock_guard<std::mutex> lock(device_registry_mutex());
  device_registry().insert(handle);
  return handle;
}

cl_device_id cpu_root() {
  static _cl_device_id* d =
      make_root_device(&mocl::Platform::default_instance().cpu());
  return d;
}

cl_device_id gpu_root() {
  static _cl_device_id* d =
      make_root_device(&mocl::Platform::default_instance().gpu());
  return d;
}

bool device_live(cl_device_id d) {
  if (d == nullptr) return false;
  std::lock_guard<std::mutex> lock(device_registry_mutex());
  return device_registry().count(d) != 0;
}

bool mem_live(cl_mem m) {
  if (m == nullptr) return false;
  std::lock_guard<std::mutex> lock(mem_registry_mutex());
  return mem_registry().count(m) != 0;
}

// --- reference counting ------------------------------------------------------

void retain_device_handle(cl_device_id d) {
  if (d != nullptr && d->parent != nullptr) {
    d->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

void release_device_handle(cl_device_id d) {
  if (d == nullptr || d->parent == nullptr) return;  // roots are immortal
  if (d->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard<std::mutex> lock(device_registry_mutex());
      device_registry().erase(d);
    }
    delete d;
  }
}

void retain_context_handle(cl_context c) {
  c->refs.fetch_add(1, std::memory_order_relaxed);
}

void release_context_handle(cl_context c) {
  if (c->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    c->context.reset();  // before the devices it references
    for (_cl_device_id* d : c->devices) release_device_handle(d);
    delete c;
  }
}

void retain_queue_handle(cl_command_queue q) {
  q->refs.fetch_add(1, std::memory_order_relaxed);
}

void release_queue_handle(cl_command_queue q) {
  if (q->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    try {
      if (q->queue) q->queue->finish();
    } catch (...) {
      // A failed async command surfaces via its event; the release itself
      // must still tear the queue down.
    }
    q->queue.reset();
    release_context_handle(q->context);
    release_device_handle(q->device);
    delete q;
  }
}

void release_mem_handle(cl_mem m) {
  if (m->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard<std::mutex> lock(mem_registry_mutex());
      mem_registry().erase(m);
    }
    m->buffer.reset();  // a sub-buffer's view dies before the parent storage
    if (m->parent != nullptr) release_mem_handle(m->parent);
    release_context_handle(m->context);
    delete m;
  }
}

void release_program_handle(cl_program p) {
  if (p->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    release_context_handle(p->context);
    delete p;
  }
}

void release_kernel_handle(cl_kernel k) {
  if (k->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    release_program_handle(k->program);
    delete k;
  }
}

void retain_event_handle(cl_event e) {
  e->refs.fetch_add(1, std::memory_order_relaxed);
}

void release_event_handle(cl_event e) {
  if (e->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    e->event.reset();
    if (e->queue != nullptr) release_queue_handle(e->queue);
    if (e->context != nullptr) release_context_handle(e->context);
    delete e;
  }
}

// --- small helpers -----------------------------------------------------------

void set_err(cl_int* errcode_ret, cl_int code) {
  if (errcode_ret != nullptr) *errcode_ret = code;
}

cl_int cl_code(Status s) {
  return static_cast<cl_int>(mocl::status_to_cl_code(s));
}

/// Runs fn, translating runtime exceptions to CL error codes.
template <typename Fn>
cl_int guarded(Fn&& fn) noexcept {
  try {
    return fn();
  } catch (const mcore::Error& e) {
    return cl_code(e.status());
  } catch (const std::bad_alloc&) {
    return CL_OUT_OF_HOST_MEMORY;
  } catch (...) {
    return CL_OUT_OF_RESOURCES;
  }
}

/// clGetXxxInfo return convention: size_ret always reports the full size;
/// a non-null param_value smaller than that is CL_INVALID_VALUE.
cl_int info_bytes(std::size_t param_value_size, void* param_value,
                  std::size_t* param_value_size_ret, const void* src,
                  std::size_t n) {
  if (param_value_size_ret != nullptr) *param_value_size_ret = n;
  if (param_value != nullptr) {
    if (param_value_size < n) return CL_INVALID_VALUE;
    if (n != 0) std::memcpy(param_value, src, n);
  }
  return CL_SUCCESS;
}

template <typename T>
cl_int info_scalar(std::size_t param_value_size, void* param_value,
                   std::size_t* param_value_size_ret, T value) {
  return info_bytes(param_value_size, param_value, param_value_size_ret,
                    &value, sizeof(T));
}

cl_int info_string(std::size_t param_value_size, void* param_value,
                   std::size_t* param_value_size_ret, const char* s) {
  return info_bytes(param_value_size, param_value, param_value_size_ret, s,
                    std::strlen(s) + 1);
}

mocl::NDRange make_range(cl_uint dims, const size_t* v) {
  switch (dims) {
    case 1: return mocl::NDRange(v[0]);
    case 2: return mocl::NDRange(v[0], v[1]);
    default: return mocl::NDRange(v[0], v[1], v[2]);
  }
}

/// Collects and validates an event wait list. (num == 0) must match
/// (list == NULL), and every entry must be a live event.
cl_int gather_wait_list(cl_uint num, const cl_event* list,
                        std::vector<mocl::AsyncEventPtr>* out) {
  if ((num == 0) != (list == nullptr)) return CL_INVALID_EVENT_WAIT_LIST;
  for (cl_uint i = 0; i < num; ++i) {
    if (list[i] == nullptr || !list[i]->event) {
      return CL_INVALID_EVENT_WAIT_LIST;
    }
    out->push_back(list[i]->event);
  }
  return CL_SUCCESS;
}

/// Wraps a runtime event for the caller (when it asked for one), installing
/// the implicit retains that keep the queue and context alive.
void attach_event(cl_event* out, mocl::AsyncEventPtr ev, cl_command_queue q,
                  cl_command_type type) {
  if (out == nullptr) return;
  auto* handle = new _cl_event;
  handle->event = std::move(ev);
  handle->queue = q;
  retain_queue_handle(q);
  handle->context = q->context;
  retain_context_handle(q->context);
  handle->command_type = type;
  *out = handle;
}

/// Synchronously resolves a wait list (for the commands the shim executes
/// eagerly: rect transfers and maps). A failed dependency poisons the
/// command, per clEnqueue* wait-list semantics.
cl_int resolve_wait_list(const std::vector<mocl::AsyncEventPtr>& wait) {
  for (const mocl::AsyncEventPtr& ev : wait) {
    try {
      ev->wait();
    } catch (...) {
      return CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST;
    }
  }
  return CL_SUCCESS;
}

constexpr cl_mem_flags kAccessFlags =
    CL_MEM_READ_WRITE | CL_MEM_WRITE_ONLY | CL_MEM_READ_ONLY;
constexpr cl_mem_flags kHostFlags =
    CL_MEM_USE_HOST_PTR | CL_MEM_ALLOC_HOST_PTR | CL_MEM_COPY_HOST_PTR;

int access_bit_count(cl_mem_flags flags) {
  int n = 0;
  if (flags & CL_MEM_READ_WRITE) ++n;
  if (flags & CL_MEM_WRITE_ONLY) ++n;
  if (flags & CL_MEM_READ_ONLY) ++n;
  return n;
}

/// CL mem-flag bits and mcl::ocl::MemFlags bits differ; translate per bit.
mocl::MemFlags to_mem_flags(cl_mem_flags flags) {
  mocl::MemFlags mf = (flags & CL_MEM_WRITE_ONLY) ? mocl::MemFlags::WriteOnly
                      : (flags & CL_MEM_READ_ONLY)
                          ? mocl::MemFlags::ReadOnly
                          : mocl::MemFlags::ReadWrite;
  if (flags & CL_MEM_ALLOC_HOST_PTR) mf = mf | mocl::MemFlags::AllocHostPtr;
  if (flags & CL_MEM_USE_HOST_PTR) mf = mf | mocl::MemFlags::UseHostPtr;
  if (flags & CL_MEM_COPY_HOST_PTR) mf = mf | mocl::MemFlags::CopyHostPtr;
  return mf;
}

cl_int exec_status_of(const mocl::AsyncEvent& ev) {
  switch (ev.state()) {
    case mocl::CommandState::Queued: return CL_QUEUED;
    case mocl::CommandState::Submitted: return CL_SUBMITTED;
    case mocl::CommandState::Running: return CL_RUNNING;
    case mocl::CommandState::Complete: return CL_COMPLETE;
    case mocl::CommandState::Error: {
      cl_int code = cl_code(ev.status());
      return code != CL_SUCCESS ? code : CL_INVALID_OPERATION;
    }
  }
  return CL_INVALID_OPERATION;
}

/// Extracts the __kernel function names from OpenCL C source text, in
/// source order. This is the "frontend" of the binding build: MiniCL does
/// not compile the bodies, it matches the names against the registered
/// descriptor table.
std::vector<std::string> scan_kernel_names(const std::string& src) {
  auto is_ident = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  };
  std::vector<std::string> names;
  const std::string token = "__kernel";
  for (std::size_t pos = src.find(token); pos != std::string::npos;
       pos = src.find(token, pos + token.size())) {
    // Token boundaries: reject identifiers that merely contain "__kernel".
    if (pos > 0 && is_ident(src[pos - 1])) continue;
    std::size_t after = pos + token.size();
    if (after < src.size() && is_ident(src[after])) continue;
    // The kernel name is the identifier following the "void" return type
    // (qualifiers/attributes between __kernel and void are skipped by the
    // search itself).
    std::size_t v = src.find("void", after);
    if (v == std::string::npos) continue;
    std::size_t p = v + 4;
    while (p < src.size() &&
           (src[p] == ' ' || src[p] == '\t' || src[p] == '\n' ||
            src[p] == '\r')) {
      ++p;
    }
    std::size_t start = p;
    while (p < src.size() && is_ident(src[p])) ++p;
    if (p == start) continue;
    std::string name = src.substr(start, p - start);
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(std::move(name));
    }
  }
  return names;
}

/// Arity of a __kernel function as declared in the source text. The
/// registered native bodies do not declare a parameter count, so the
/// CL-visible signature in the source is the authority for validating
/// clSetKernelArg indices and unset-argument launches. Returns SIZE_MAX
/// when the declaration cannot be parsed (validation is then skipped).
std::size_t count_kernel_params(const std::string& src,
                                const std::string& name) {
  auto is_ident = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  };
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  for (std::size_t pos = src.find(name); pos != std::string::npos;
       pos = src.find(name, pos + name.size())) {
    if (pos > 0 && is_ident(src[pos - 1])) continue;
    std::size_t p = pos + name.size();
    while (p < src.size() && is_space(src[p])) ++p;
    if (p >= src.size() || src[p] != '(') continue;
    int depth = 0;
    std::size_t commas = 0;
    std::string body;
    for (std::size_t q = p; q < src.size(); ++q) {
      const char c = src[q];
      if (c == '(') {
        ++depth;
        if (depth == 1) continue;
      } else if (c == ')') {
        if (--depth == 0) {
          while (!body.empty() && is_space(body.back())) body.pop_back();
          if (body.empty() || body == "void") return 0;
          return commas + 1;
        }
      } else if (c == ',' && depth == 1) {
        ++commas;
      }
      if (depth >= 1 && !(body.empty() && is_space(c))) body.push_back(c);
    }
    return SIZE_MAX;  // unbalanced parens
  }
  return SIZE_MAX;
}

}  // namespace

extern "C" {

/* --- platform / device discovery ------------------------------------------ */

cl_int clGetPlatformIDs(cl_uint num_entries, cl_platform_id* platforms,
                        cl_uint* num_platforms) {
  if ((num_entries == 0 && platforms != nullptr) ||
      (platforms == nullptr && num_platforms == nullptr)) {
    return CL_INVALID_VALUE;
  }
  if (platforms != nullptr) platforms[0] = the_platform();
  if (num_platforms != nullptr) *num_platforms = 1;
  return CL_SUCCESS;
}

cl_int clGetPlatformInfo(cl_platform_id platform, cl_platform_info param_name,
                         size_t param_value_size, void* param_value,
                         size_t* param_value_size_ret) {
  if (platform != the_platform()) return CL_INVALID_PLATFORM;
  switch (param_name) {
    case CL_PLATFORM_PROFILE:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         "FULL_PROFILE");
    case CL_PLATFORM_VERSION:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         "OpenCL 1.1 MiniCL");
    case CL_PLATFORM_NAME:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         mocl::Platform::name());
    case CL_PLATFORM_VENDOR:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         "MiniCL project");
    case CL_PLATFORM_EXTENSIONS:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         "");
    default: return CL_INVALID_VALUE;
  }
}

cl_int clGetDeviceIDs(cl_platform_id platform, cl_device_type device_type,
                      cl_uint num_entries, cl_device_id* devices,
                      cl_uint* num_devices) {
  if (platform != nullptr && platform != the_platform()) {
    return CL_INVALID_PLATFORM;
  }
  constexpr cl_device_type kKnown = CL_DEVICE_TYPE_DEFAULT |
                                    CL_DEVICE_TYPE_CPU | CL_DEVICE_TYPE_GPU |
                                    CL_DEVICE_TYPE_ACCELERATOR;
  if (device_type != CL_DEVICE_TYPE_ALL && (device_type & ~kKnown) != 0) {
    return CL_INVALID_DEVICE_TYPE;
  }
  if (device_type == 0) return CL_INVALID_DEVICE_TYPE;
  if ((devices != nullptr && num_entries == 0) ||
      (devices == nullptr && num_devices == nullptr)) {
    return CL_INVALID_VALUE;
  }
  std::vector<cl_device_id> found;
  const bool all = device_type == CL_DEVICE_TYPE_ALL;
  if (all || (device_type & (CL_DEVICE_TYPE_CPU | CL_DEVICE_TYPE_DEFAULT))) {
    found.push_back(cpu_root());
  }
  if (all || (device_type & CL_DEVICE_TYPE_GPU)) found.push_back(gpu_root());
  if (found.empty()) return CL_DEVICE_NOT_FOUND;
  if (devices != nullptr) {
    for (cl_uint i = 0; i < num_entries && i < found.size(); ++i) {
      devices[i] = found[i];
    }
  }
  if (num_devices != nullptr) {
    *num_devices = static_cast<cl_uint>(found.size());
  }
  return CL_SUCCESS;
}

cl_int clGetDeviceInfo(cl_device_id device, cl_device_info param_name,
                       size_t param_value_size, void* param_value,
                       size_t* param_value_size_ret) {
  if (!device_live(device)) return CL_INVALID_DEVICE;
  const auto s = [&](auto v) {
    return info_scalar(param_value_size, param_value, param_value_size_ret, v);
  };
  switch (param_name) {
    case CL_DEVICE_TYPE:
      return s(static_cast<cl_device_type>(
          device->device->type() == mocl::DeviceType::Cpu ? CL_DEVICE_TYPE_CPU
                                                          : CL_DEVICE_TYPE_GPU));
    case CL_DEVICE_VENDOR_ID: return s(static_cast<cl_uint>(0x4D43));
    case CL_DEVICE_MAX_COMPUTE_UNITS:
      return s(static_cast<cl_uint>(device->device->compute_units()));
    case CL_DEVICE_MAX_WORK_ITEM_DIMENSIONS: return s(static_cast<cl_uint>(3));
    case CL_DEVICE_MAX_WORK_GROUP_SIZE:
      return s(static_cast<size_t>(8192));
    case CL_DEVICE_MAX_WORK_ITEM_SIZES: {
      const size_t sizes[3] = {8192, 8192, 8192};
      return info_bytes(param_value_size, param_value, param_value_size_ret,
                        sizes, sizeof(sizes));
    }
    case CL_DEVICE_MAX_CLOCK_FREQUENCY: return s(static_cast<cl_uint>(2300));
    case CL_DEVICE_ADDRESS_BITS:
      return s(static_cast<cl_uint>(sizeof(void*) * 8));
    case CL_DEVICE_MAX_MEM_ALLOC_SIZE:
      return s(static_cast<cl_ulong>(1) << 30);
    case CL_DEVICE_GLOBAL_MEM_SIZE: return s(static_cast<cl_ulong>(1) << 32);
    case CL_DEVICE_LOCAL_MEM_SIZE: return s(static_cast<cl_ulong>(32768));
    case CL_DEVICE_AVAILABLE: return s(static_cast<cl_bool>(CL_TRUE));
    case CL_DEVICE_COMPILER_AVAILABLE:
      // Honest: there is no OpenCL C compiler; clBuildProgram binds names.
      return s(static_cast<cl_bool>(CL_FALSE));
    case CL_DEVICE_QUEUE_PROPERTIES:
      return s(static_cast<cl_command_queue_properties>(
          CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE | CL_QUEUE_PROFILING_ENABLE));
    case CL_DEVICE_NAME: {
      const std::string name = device->device->name();
      return info_string(param_value_size, param_value, param_value_size_ret,
                         name.c_str());
    }
    case CL_DEVICE_VENDOR:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         "MiniCL project");
    case CL_DRIVER_VERSION:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         "1.0");
    case CL_DEVICE_PROFILE:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         "FULL_PROFILE");
    case CL_DEVICE_VERSION:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         "OpenCL 1.1 MiniCL");
    case CL_DEVICE_EXTENSIONS:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         "");
    case CL_DEVICE_OPENCL_C_VERSION:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         "OpenCL C 1.1 (pre-registered native kernels)");
    case CL_DEVICE_PLATFORM: return s(the_platform());
    case CL_DEVICE_PARENT_DEVICE:
      return s(static_cast<cl_device_id>(device->parent));
    case CL_DEVICE_PARTITION_MAX_SUB_DEVICES:
      return s(static_cast<cl_uint>(
          device == cpu_root() ? device->device->compute_units() : 0));
    case CL_DEVICE_PARTITION_PROPERTIES: {
      if (device != cpu_root()) {
        return info_bytes(param_value_size, param_value, param_value_size_ret,
                          nullptr, 0);
      }
      const cl_device_partition_property props[2] = {
          CL_DEVICE_PARTITION_EQUALLY, CL_DEVICE_PARTITION_BY_COUNTS};
      return info_bytes(param_value_size, param_value, param_value_size_ret,
                        props, sizeof(props));
    }
    case CL_DEVICE_PARTITION_TYPE:
      return info_bytes(
          param_value_size, param_value, param_value_size_ret,
          device->partition_type.data(),
          device->partition_type.size() * sizeof(cl_device_partition_property));
    case CL_DEVICE_REFERENCE_COUNT:
      return s(static_cast<cl_uint>(
          device->refs.load(std::memory_order_relaxed)));
    default: return CL_INVALID_VALUE;
  }
}

cl_int clCreateSubDevices(cl_device_id in_device,
                          const cl_device_partition_property* properties,
                          cl_uint num_devices, cl_device_id* out_devices,
                          cl_uint* num_devices_ret) {
  if (!device_live(in_device)) return CL_INVALID_DEVICE;
  if (in_device != cpu_root()) return CL_INVALID_DEVICE;
  if (properties == nullptr) return CL_INVALID_VALUE;
  auto* cpu = static_cast<mocl::CpuDevice*>(in_device->device);

  std::vector<std::shared_ptr<mocl::CpuSubDevice>> subs;
  std::vector<cl_device_partition_property> recorded;
  if (properties[0] == CL_DEVICE_PARTITION_EQUALLY) {
    const cl_device_partition_property units = properties[1];
    if (units <= 0 || properties[2] != 0) return CL_INVALID_VALUE;
    try {
      subs = cpu->partition_equally(static_cast<std::size_t>(units));
    } catch (const mcore::Error& e) {
      return cl_code(e.status());
    }
    recorded = {CL_DEVICE_PARTITION_EQUALLY, units, 0};
  } else if (properties[0] == CL_DEVICE_PARTITION_BY_COUNTS) {
    std::vector<std::size_t> counts;
    std::size_t i = 1;
    for (; properties[i] != CL_DEVICE_PARTITION_BY_COUNTS_LIST_END; ++i) {
      if (properties[i] < 0) return CL_INVALID_DEVICE_PARTITION_COUNT;
      counts.push_back(static_cast<std::size_t>(properties[i]));
    }
    if (properties[i + 1] != 0) return CL_INVALID_VALUE;
    try {
      subs = cpu->partition_by_counts(counts);
    } catch (const mcore::Error&) {
      // Empty list, zero count, or counts summing past the pool width.
      return CL_INVALID_DEVICE_PARTITION_COUNT;
    }
    recorded.assign(properties, properties + i + 2);
  } else {
    return CL_INVALID_VALUE;
  }

  if (num_devices_ret != nullptr) {
    *num_devices_ret = static_cast<cl_uint>(subs.size());
  }
  if (out_devices != nullptr) {
    if (num_devices < subs.size()) return CL_INVALID_VALUE;
    for (std::size_t k = 0; k < subs.size(); ++k) {
      auto* handle = new _cl_device_id;
      handle->device = subs[k].get();
      handle->sub = subs[k];
      handle->parent = in_device;
      handle->partition_type = recorded;
      {
        std::lock_guard<std::mutex> lock(device_registry_mutex());
        device_registry().insert(handle);
      }
      out_devices[k] = handle;
    }
  }
  return CL_SUCCESS;
}

cl_int clRetainDevice(cl_device_id device) {
  if (!device_live(device)) return CL_INVALID_DEVICE;
  retain_device_handle(device);
  return CL_SUCCESS;
}

cl_int clReleaseDevice(cl_device_id device) {
  if (!device_live(device)) return CL_INVALID_DEVICE;
  release_device_handle(device);
  return CL_SUCCESS;
}

/* --- contexts -------------------------------------------------------------- */

static cl_context create_context_on(std::vector<cl_device_id> handles,
                                    const cl_context_properties* properties,
                                    cl_int* errcode_ret) {
  std::vector<cl_context_properties> stored;
  if (properties != nullptr) {
    for (std::size_t i = 0; properties[i] != 0; i += 2) {
      if (properties[i] != CL_CONTEXT_PLATFORM) {
        set_err(errcode_ret, CL_INVALID_PROPERTY);
        return nullptr;
      }
      if (reinterpret_cast<cl_platform_id>(properties[i + 1]) !=
          the_platform()) {
        set_err(errcode_ret, CL_INVALID_PLATFORM);
        return nullptr;
      }
      stored.push_back(properties[i]);
      stored.push_back(properties[i + 1]);
    }
    stored.push_back(0);
  }
  std::vector<mocl::Device*> devices;
  devices.reserve(handles.size());
  for (cl_device_id h : handles) devices.push_back(h->device);
  try {
    auto* ctx = new _cl_context;
    ctx->context = std::make_unique<mocl::Context>(std::move(devices));
    ctx->devices = std::move(handles);
    ctx->props = std::move(stored);
    for (_cl_device_id* d : ctx->devices) retain_device_handle(d);
    set_err(errcode_ret, CL_SUCCESS);
    return ctx;
  } catch (const mcore::Error& e) {
    set_err(errcode_ret, cl_code(e.status()));
    return nullptr;
  } catch (...) {
    set_err(errcode_ret, CL_OUT_OF_HOST_MEMORY);
    return nullptr;
  }
}

cl_context clCreateContext(const cl_context_properties* properties,
                           cl_uint num_devices, const cl_device_id* devices,
                           void(CL_CALLBACK* pfn_notify)(const char*,
                                                         const void*, size_t,
                                                         void*),
                           void* user_data, cl_int* errcode_ret) {
  if (devices == nullptr || num_devices == 0 ||
      (pfn_notify == nullptr && user_data != nullptr)) {
    set_err(errcode_ret, CL_INVALID_VALUE);
    return nullptr;
  }
  std::vector<cl_device_id> handles;
  for (cl_uint i = 0; i < num_devices; ++i) {
    if (!device_live(devices[i])) {
      set_err(errcode_ret, CL_INVALID_DEVICE);
      return nullptr;
    }
    handles.push_back(devices[i]);
  }
  return create_context_on(std::move(handles), properties, errcode_ret);
}

cl_context clCreateContextFromType(const cl_context_properties* properties,
                                   cl_device_type device_type,
                                   void(CL_CALLBACK* pfn_notify)(const char*,
                                                                 const void*,
                                                                 size_t, void*),
                                   void* user_data, cl_int* errcode_ret) {
  if (pfn_notify == nullptr && user_data != nullptr) {
    set_err(errcode_ret, CL_INVALID_VALUE);
    return nullptr;
  }
  std::vector<cl_device_id> handles;
  switch (device_type) {
    case CL_DEVICE_TYPE_CPU:
    case CL_DEVICE_TYPE_DEFAULT: handles = {cpu_root()}; break;
    case CL_DEVICE_TYPE_GPU: handles = {gpu_root()}; break;
    case CL_DEVICE_TYPE_ALL: handles = {cpu_root(), gpu_root()}; break;
    case CL_DEVICE_TYPE_ACCELERATOR:
      set_err(errcode_ret, CL_DEVICE_NOT_FOUND);
      return nullptr;
    default: set_err(errcode_ret, CL_INVALID_DEVICE_TYPE); return nullptr;
  }
  return create_context_on(std::move(handles), properties, errcode_ret);
}

cl_int clRetainContext(cl_context context) {
  if (context == nullptr) return CL_INVALID_CONTEXT;
  retain_context_handle(context);
  return CL_SUCCESS;
}

cl_int clReleaseContext(cl_context context) {
  if (context == nullptr) return CL_INVALID_CONTEXT;
  release_context_handle(context);
  return CL_SUCCESS;
}

cl_int clGetContextInfo(cl_context context, cl_context_info param_name,
                        size_t param_value_size, void* param_value,
                        size_t* param_value_size_ret) {
  if (context == nullptr) return CL_INVALID_CONTEXT;
  switch (param_name) {
    case CL_CONTEXT_REFERENCE_COUNT:
      return info_scalar(
          param_value_size, param_value, param_value_size_ret,
          static_cast<cl_uint>(context->refs.load(std::memory_order_relaxed)));
    case CL_CONTEXT_NUM_DEVICES:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         static_cast<cl_uint>(context->devices.size()));
    case CL_CONTEXT_DEVICES:
      return info_bytes(param_value_size, param_value, param_value_size_ret,
                        context->devices.data(),
                        context->devices.size() * sizeof(cl_device_id));
    case CL_CONTEXT_PROPERTIES:
      return info_bytes(
          param_value_size, param_value, param_value_size_ret,
          context->props.data(),
          context->props.size() * sizeof(cl_context_properties));
    default: return CL_INVALID_VALUE;
  }
}

/* --- command queues -------------------------------------------------------- */

cl_command_queue clCreateCommandQueue(cl_context context, cl_device_id device,
                                      cl_command_queue_properties properties,
                                      cl_int* errcode_ret) {
  if (context == nullptr) {
    set_err(errcode_ret, CL_INVALID_CONTEXT);
    return nullptr;
  }
  if (!device_live(device)) {
    set_err(errcode_ret, CL_INVALID_DEVICE);
    return nullptr;
  }
  if (!context->context->has_device(*device->device)) {
    set_err(errcode_ret, CL_INVALID_DEVICE);
    return nullptr;
  }
  constexpr cl_command_queue_properties kKnown =
      CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE | CL_QUEUE_PROFILING_ENABLE;
  if ((properties & ~kKnown) != 0) {
    set_err(errcode_ret, CL_INVALID_VALUE);
    return nullptr;
  }
  const mocl::QueueProperties qp =
      (properties & CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE)
          ? mocl::QueueProperties::OutOfOrder
          : mocl::QueueProperties::Default;
  try {
    auto* q = new _cl_command_queue;
    q->queue = std::make_unique<mocl::CommandQueue>(*context->context,
                                                    *device->device, qp);
    q->context = context;
    retain_context_handle(context);
    q->device = device;
    retain_device_handle(device);
    q->properties = properties;
    set_err(errcode_ret, CL_SUCCESS);
    return q;
  } catch (const mcore::Error& e) {
    set_err(errcode_ret, cl_code(e.status()));
    return nullptr;
  } catch (...) {
    set_err(errcode_ret, CL_OUT_OF_HOST_MEMORY);
    return nullptr;
  }
}

cl_int clRetainCommandQueue(cl_command_queue command_queue) {
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  retain_queue_handle(command_queue);
  return CL_SUCCESS;
}

cl_int clReleaseCommandQueue(cl_command_queue command_queue) {
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  release_queue_handle(command_queue);
  return CL_SUCCESS;
}

cl_int clGetCommandQueueInfo(cl_command_queue command_queue,
                             cl_command_queue_info param_name,
                             size_t param_value_size, void* param_value,
                             size_t* param_value_size_ret) {
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  switch (param_name) {
    case CL_QUEUE_CONTEXT:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         command_queue->context);
    case CL_QUEUE_DEVICE:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         command_queue->device);
    case CL_QUEUE_REFERENCE_COUNT:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         static_cast<cl_uint>(command_queue->refs.load(
                             std::memory_order_relaxed)));
    case CL_QUEUE_PROPERTIES:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         command_queue->properties);
    default: return CL_INVALID_VALUE;
  }
}

/* --- memory objects -------------------------------------------------------- */

cl_mem clCreateBuffer(cl_context context, cl_mem_flags flags, size_t size,
                      void* host_ptr, cl_int* errcode_ret) {
  if (context == nullptr) {
    set_err(errcode_ret, CL_INVALID_CONTEXT);
    return nullptr;
  }
  if ((flags & ~(kAccessFlags | kHostFlags)) != 0 ||
      access_bit_count(flags) > 1 ||
      ((flags & CL_MEM_USE_HOST_PTR) &&
       (flags & (CL_MEM_ALLOC_HOST_PTR | CL_MEM_COPY_HOST_PTR)))) {
    set_err(errcode_ret, CL_INVALID_VALUE);
    return nullptr;
  }
  const bool wants_host =
      (flags & (CL_MEM_USE_HOST_PTR | CL_MEM_COPY_HOST_PTR)) != 0;
  if (wants_host != (host_ptr != nullptr)) {
    set_err(errcode_ret, CL_INVALID_HOST_PTR);
    return nullptr;
  }
  if (size == 0) {
    set_err(errcode_ret, CL_INVALID_BUFFER_SIZE);
    return nullptr;
  }
  try {
    auto* m = new _cl_mem;
    m->buffer =
        std::make_unique<mocl::Buffer>(to_mem_flags(flags), size, host_ptr);
    m->context = context;
    retain_context_handle(context);
    m->flags = (flags & kAccessFlags) != 0 ? flags
                                           : (flags | CL_MEM_READ_WRITE);
    m->host_ptr = host_ptr;
    {
      std::lock_guard<std::mutex> lock(mem_registry_mutex());
      mem_registry().insert(m);
    }
    set_err(errcode_ret, CL_SUCCESS);
    return m;
  } catch (const mcore::Error& e) {
    set_err(errcode_ret, cl_code(e.status()));
    return nullptr;
  } catch (...) {
    set_err(errcode_ret, CL_OUT_OF_HOST_MEMORY);
    return nullptr;
  }
}

cl_mem clCreateSubBuffer(cl_mem buffer, cl_mem_flags flags,
                         cl_buffer_create_type buffer_create_type,
                         const void* buffer_create_info, cl_int* errcode_ret) {
  if (!mem_live(buffer) || buffer->parent != nullptr) {
    set_err(errcode_ret, CL_INVALID_MEM_OBJECT);
    return nullptr;
  }
  if (buffer_create_type != CL_BUFFER_CREATE_TYPE_REGION ||
      buffer_create_info == nullptr || (flags & ~kAccessFlags) != 0 ||
      access_bit_count(flags) > 1) {
    set_err(errcode_ret, CL_INVALID_VALUE);
    return nullptr;
  }
  cl_buffer_region region;
  std::memcpy(&region, buffer_create_info, sizeof(region));
  if (region.size == 0) {
    set_err(errcode_ret, CL_INVALID_BUFFER_SIZE);
    return nullptr;
  }
  if (region.origin + region.size > buffer->buffer->size()) {
    set_err(errcode_ret, CL_INVALID_VALUE);
    return nullptr;
  }
  try {
    auto* m = new _cl_mem;
    m->buffer = std::make_unique<mocl::Buffer>(
        buffer->buffer->sub_buffer(region.origin, region.size));
    m->context = buffer->context;
    retain_context_handle(buffer->context);
    m->parent = buffer;
    buffer->refs.fetch_add(1, std::memory_order_relaxed);
    m->origin = region.origin;
    m->flags = flags != 0 ? flags : (buffer->flags & kAccessFlags);
    {
      std::lock_guard<std::mutex> lock(mem_registry_mutex());
      mem_registry().insert(m);
    }
    set_err(errcode_ret, CL_SUCCESS);
    return m;
  } catch (const mcore::Error& e) {
    set_err(errcode_ret, cl_code(e.status()));
    return nullptr;
  } catch (...) {
    set_err(errcode_ret, CL_OUT_OF_HOST_MEMORY);
    return nullptr;
  }
}

cl_int clRetainMemObject(cl_mem memobj) {
  if (!mem_live(memobj)) return CL_INVALID_MEM_OBJECT;
  memobj->refs.fetch_add(1, std::memory_order_relaxed);
  return CL_SUCCESS;
}

cl_int clReleaseMemObject(cl_mem memobj) {
  if (!mem_live(memobj)) return CL_INVALID_MEM_OBJECT;
  release_mem_handle(memobj);
  return CL_SUCCESS;
}

cl_int clGetMemObjectInfo(cl_mem memobj, cl_mem_info param_name,
                          size_t param_value_size, void* param_value,
                          size_t* param_value_size_ret) {
  if (!mem_live(memobj)) return CL_INVALID_MEM_OBJECT;
  const auto s = [&](auto v) {
    return info_scalar(param_value_size, param_value, param_value_size_ret, v);
  };
  switch (param_name) {
    case CL_MEM_TYPE:
      return s(static_cast<cl_mem_object_type>(CL_MEM_OBJECT_BUFFER));
    case CL_MEM_FLAGS: return s(memobj->flags);
    case CL_MEM_SIZE: return s(memobj->buffer->size());
    case CL_MEM_HOST_PTR: return s(memobj->host_ptr);
    case CL_MEM_MAP_COUNT:
      return s(static_cast<cl_uint>(memobj->buffer->map_count()));
    case CL_MEM_REFERENCE_COUNT:
      return s(
          static_cast<cl_uint>(memobj->refs.load(std::memory_order_relaxed)));
    case CL_MEM_CONTEXT: return s(memobj->context);
    case CL_MEM_ASSOCIATED_MEMOBJECT: return s(memobj->parent);
    case CL_MEM_OFFSET: return s(memobj->origin);
    default: return CL_INVALID_VALUE;
  }
}

cl_int clGetSupportedImageFormats(cl_context context, cl_mem_flags flags,
                                  cl_mem_object_type image_type,
                                  cl_uint num_entries,
                                  cl_image_format* image_formats,
                                  cl_uint* num_image_formats) {
  if (context == nullptr) return CL_INVALID_CONTEXT;
  if (image_type != CL_MEM_OBJECT_IMAGE2D &&
      image_type != CL_MEM_OBJECT_IMAGE3D) {
    return CL_INVALID_VALUE;
  }
  (void)flags;
  (void)num_entries;
  (void)image_formats;
  if (num_image_formats != nullptr) *num_image_formats = 0;
  return CL_SUCCESS;
}

/* --- programs --------------------------------------------------------------- */

cl_program clCreateProgramWithSource(cl_context context, cl_uint count,
                                     const char** strings,
                                     const size_t* lengths,
                                     cl_int* errcode_ret) {
  if (context == nullptr) {
    set_err(errcode_ret, CL_INVALID_CONTEXT);
    return nullptr;
  }
  if (count == 0 || strings == nullptr) {
    set_err(errcode_ret, CL_INVALID_VALUE);
    return nullptr;
  }
  std::string source;
  for (cl_uint i = 0; i < count; ++i) {
    if (strings[i] == nullptr) {
      set_err(errcode_ret, CL_INVALID_VALUE);
      return nullptr;
    }
    if (lengths != nullptr && lengths[i] != 0) {
      source.append(strings[i], lengths[i]);
    } else {
      source.append(strings[i]);
    }
  }
  auto* p = new _cl_program;
  p->context = context;
  retain_context_handle(context);
  p->source = std::move(source);
  set_err(errcode_ret, CL_SUCCESS);
  return p;
}

cl_program clCreateProgramWithBinary(cl_context context, cl_uint num_devices,
                                     const cl_device_id* device_list,
                                     const size_t* lengths,
                                     const unsigned char** binaries,
                                     cl_int* binary_status,
                                     cl_int* errcode_ret) {
  // Stub: MiniCL has no program binary format.
  (void)lengths;
  (void)binaries;
  if (context == nullptr) {
    set_err(errcode_ret, CL_INVALID_CONTEXT);
    return nullptr;
  }
  if (binary_status != nullptr && device_list != nullptr) {
    for (cl_uint i = 0; i < num_devices; ++i) {
      binary_status[i] = CL_INVALID_BINARY;
    }
  }
  set_err(errcode_ret, CL_INVALID_BINARY);
  return nullptr;
}

cl_int clRetainProgram(cl_program program) {
  if (program == nullptr) return CL_INVALID_PROGRAM;
  program->refs.fetch_add(1, std::memory_order_relaxed);
  return CL_SUCCESS;
}

cl_int clReleaseProgram(cl_program program) {
  if (program == nullptr) return CL_INVALID_PROGRAM;
  release_program_handle(program);
  return CL_SUCCESS;
}

cl_int clBuildProgram(cl_program program, cl_uint num_devices,
                      const cl_device_id* device_list, const char* options,
                      void(CL_CALLBACK* pfn_notify)(cl_program, void*),
                      void* user_data) {
  if (program == nullptr) return CL_INVALID_PROGRAM;
  if ((num_devices == 0) != (device_list == nullptr) ||
      (pfn_notify == nullptr && user_data != nullptr)) {
    return CL_INVALID_VALUE;
  }
  for (cl_uint i = 0; i < num_devices; ++i) {
    if (!device_live(device_list[i]) ||
        !program->context->context->has_device(*device_list[i]->device)) {
      return CL_INVALID_DEVICE;
    }
  }
  cl_int result = CL_SUCCESS;
  {
    std::lock_guard<std::mutex> lock(program->mutex);
    program->build_options = options != nullptr ? options : "";
    const std::vector<std::string> names = scan_kernel_names(program->source);
    std::vector<std::string> missing;
    for (const std::string& n : names) {
      if (!mocl::Program::builtin().contains(n)) missing.push_back(n);
    }
    if (missing.empty()) {
      program->kernel_names = names;
      program->build_status = CL_BUILD_SUCCESS;
      std::string log = "bound " + std::to_string(names.size()) +
                        " kernel(s) to registered implementations:";
      for (const std::string& n : names) log += " " + n;
      program->build_log = log;
    } else {
      program->kernel_names.clear();
      program->build_status = CL_BUILD_ERROR;
      std::string log =
          "MiniCL binds __kernel names to pre-registered native kernels; no "
          "registered implementation for:";
      for (const std::string& n : missing) log += " " + n;
      log += " (registered: ";
      bool first = true;
      for (const std::string& n : mocl::Program::builtin().kernel_names()) {
        if (!first) log += ", ";
        log += n;
        first = false;
      }
      log += ")";
      program->build_log = log;
      result = CL_BUILD_PROGRAM_FAILURE;
    }
  }
  if (pfn_notify != nullptr) pfn_notify(program, user_data);
  return result;
}

cl_int clUnloadCompiler(void) { return CL_SUCCESS; }

cl_int clGetProgramInfo(cl_program program, cl_program_info param_name,
                        size_t param_value_size, void* param_value,
                        size_t* param_value_size_ret) {
  if (program == nullptr) return CL_INVALID_PROGRAM;
  switch (param_name) {
    case CL_PROGRAM_REFERENCE_COUNT:
      return info_scalar(
          param_value_size, param_value, param_value_size_ret,
          static_cast<cl_uint>(program->refs.load(std::memory_order_relaxed)));
    case CL_PROGRAM_CONTEXT:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         program->context);
    case CL_PROGRAM_NUM_DEVICES:
      return info_scalar(
          param_value_size, param_value, param_value_size_ret,
          static_cast<cl_uint>(program->context->devices.size()));
    case CL_PROGRAM_DEVICES:
      return info_bytes(
          param_value_size, param_value, param_value_size_ret,
          program->context->devices.data(),
          program->context->devices.size() * sizeof(cl_device_id));
    case CL_PROGRAM_SOURCE:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         program->source.c_str());
    case CL_PROGRAM_BINARY_SIZES: {
      // No binary format: every device reports size 0.
      const std::vector<size_t> zeros(program->context->devices.size(), 0);
      return info_bytes(param_value_size, param_value, param_value_size_ret,
                        zeros.data(), zeros.size() * sizeof(size_t));
    }
    case CL_PROGRAM_BINARIES:
      return info_bytes(param_value_size, param_value, param_value_size_ret,
                        nullptr, 0);
    default: return CL_INVALID_VALUE;
  }
}

cl_int clGetProgramBuildInfo(cl_program program, cl_device_id device,
                             cl_program_build_info param_name,
                             size_t param_value_size, void* param_value,
                             size_t* param_value_size_ret) {
  if (program == nullptr) return CL_INVALID_PROGRAM;
  if (!device_live(device) ||
      !program->context->context->has_device(*device->device)) {
    return CL_INVALID_DEVICE;
  }
  std::lock_guard<std::mutex> lock(program->mutex);
  switch (param_name) {
    case CL_PROGRAM_BUILD_STATUS:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         program->build_status);
    case CL_PROGRAM_BUILD_OPTIONS:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         program->build_options.c_str());
    case CL_PROGRAM_BUILD_LOG:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         program->build_log.c_str());
    default: return CL_INVALID_VALUE;
  }
}

/* --- kernels ----------------------------------------------------------------- */

cl_kernel clCreateKernel(cl_program program, const char* kernel_name,
                         cl_int* errcode_ret) {
  if (program == nullptr) {
    set_err(errcode_ret, CL_INVALID_PROGRAM);
    return nullptr;
  }
  if (kernel_name == nullptr) {
    set_err(errcode_ret, CL_INVALID_VALUE);
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(program->mutex);
  if (program->build_status != CL_BUILD_SUCCESS) {
    set_err(errcode_ret, CL_INVALID_PROGRAM_EXECUTABLE);
    return nullptr;
  }
  if (std::find(program->kernel_names.begin(), program->kernel_names.end(),
                kernel_name) == program->kernel_names.end()) {
    set_err(errcode_ret, CL_INVALID_KERNEL_NAME);
    return nullptr;
  }
  auto* k = new _cl_kernel;
  k->kernel = std::make_unique<mocl::Kernel>(
      mocl::Program::builtin().lookup(kernel_name));
  k->program = program;
  program->refs.fetch_add(1, std::memory_order_relaxed);
  k->name = kernel_name;
  k->num_args = count_kernel_params(program->source, k->name);
  set_err(errcode_ret, CL_SUCCESS);
  return k;
}

cl_int clCreateKernelsInProgram(cl_program program, cl_uint num_kernels,
                                cl_kernel* kernels, cl_uint* num_kernels_ret) {
  if (program == nullptr) return CL_INVALID_PROGRAM;
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(program->mutex);
    if (program->build_status != CL_BUILD_SUCCESS) {
      return CL_INVALID_PROGRAM_EXECUTABLE;
    }
    names = program->kernel_names;
  }
  if (num_kernels_ret != nullptr) {
    *num_kernels_ret = static_cast<cl_uint>(names.size());
  }
  if (kernels != nullptr) {
    if (num_kernels < names.size()) return CL_INVALID_VALUE;
    for (std::size_t i = 0; i < names.size(); ++i) {
      cl_int err = CL_SUCCESS;
      kernels[i] = clCreateKernel(program, names[i].c_str(), &err);
      if (err != CL_SUCCESS) return err;
    }
  }
  return CL_SUCCESS;
}

cl_int clRetainKernel(cl_kernel kernel) {
  if (kernel == nullptr) return CL_INVALID_KERNEL;
  kernel->refs.fetch_add(1, std::memory_order_relaxed);
  return CL_SUCCESS;
}

cl_int clReleaseKernel(cl_kernel kernel) {
  if (kernel == nullptr) return CL_INVALID_KERNEL;
  release_kernel_handle(kernel);
  return CL_SUCCESS;
}

cl_int clSetKernelArg(cl_kernel kernel, cl_uint arg_index, size_t arg_size,
                      const void* arg_value) {
  if (kernel == nullptr) return CL_INVALID_KERNEL;
  std::lock_guard<std::mutex> lock(kernel->mutex);
  if (arg_index >= kernel->num_args) return CL_INVALID_ARG_INDEX;
  try {
    if (arg_value == nullptr) {
      // clSetKernelArg(k, i, bytes, NULL): a local-memory request.
      if (arg_size == 0) return CL_INVALID_ARG_SIZE;
      kernel->kernel->set_arg_local(arg_index, arg_size);
      return CL_SUCCESS;
    }
    if (arg_size == sizeof(cl_mem)) {
      // A pointer-sized argument that names a live cl_mem is a buffer
      // binding; anything else is a scalar of the same size.
      cl_mem m;
      std::memcpy(&m, arg_value, sizeof(m));
      if (mem_live(m)) {
        kernel->kernel->set_arg(arg_index, *m->buffer);
        return CL_SUCCESS;
      }
    }
    kernel->kernel->set_arg_bytes(arg_index, arg_value, arg_size);
    return CL_SUCCESS;
  } catch (const mcore::Error& e) {
    // The runtime folds all argument problems into InvalidKernelArgs; at
    // this entry point the spec-mandated code is CL_INVALID_ARG_SIZE
    // (oversized scalars, zero-sized locals).
    return e.status() == Status::InvalidKernelArgs ? CL_INVALID_ARG_SIZE
                                                   : cl_code(e.status());
  } catch (...) {
    return CL_OUT_OF_HOST_MEMORY;
  }
}

cl_int clGetKernelInfo(cl_kernel kernel, cl_kernel_info param_name,
                       size_t param_value_size, void* param_value,
                       size_t* param_value_size_ret) {
  if (kernel == nullptr) return CL_INVALID_KERNEL;
  switch (param_name) {
    case CL_KERNEL_FUNCTION_NAME:
      return info_string(param_value_size, param_value, param_value_size_ret,
                         kernel->name.c_str());
    case CL_KERNEL_NUM_ARGS: {
      // Deviation: the descriptor table records no arity; report the
      // currently-bound argument count.
      std::lock_guard<std::mutex> lock(kernel->mutex);
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         static_cast<cl_uint>(kernel->kernel->args().arg_count()));
    }
    case CL_KERNEL_REFERENCE_COUNT:
      return info_scalar(
          param_value_size, param_value, param_value_size_ret,
          static_cast<cl_uint>(kernel->refs.load(std::memory_order_relaxed)));
    case CL_KERNEL_CONTEXT:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         kernel->program->context);
    case CL_KERNEL_PROGRAM:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         kernel->program);
    default: return CL_INVALID_VALUE;
  }
}

cl_int clGetKernelWorkGroupInfo(cl_kernel kernel, cl_device_id device,
                                cl_kernel_work_group_info param_name,
                                size_t param_value_size, void* param_value,
                                size_t* param_value_size_ret) {
  if (kernel == nullptr) return CL_INVALID_KERNEL;
  if (device == nullptr) {
    if (kernel->program->context->devices.size() != 1) {
      return CL_INVALID_DEVICE;
    }
    device = kernel->program->context->devices.front();
  }
  if (!device_live(device) ||
      !kernel->program->context->context->has_device(*device->device)) {
    return CL_INVALID_DEVICE;
  }
  mocl::KernelWorkGroupInfo wg;
  {
    std::lock_guard<std::mutex> lock(kernel->mutex);
    wg = mocl::kernel_workgroup_info(*kernel->kernel, *device->device);
  }
  switch (param_name) {
    case CL_KERNEL_WORK_GROUP_SIZE:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         wg.max_work_group_size);
    case CL_KERNEL_COMPILE_WORK_GROUP_SIZE: {
      const size_t none[3] = {0, 0, 0};
      return info_bytes(param_value_size, param_value, param_value_size_ret,
                        none, sizeof(none));
    }
    case CL_KERNEL_LOCAL_MEM_SIZE:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         static_cast<cl_ulong>(wg.local_mem_bytes));
    case CL_KERNEL_PREFERRED_WORK_GROUP_SIZE_MULTIPLE:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         wg.preferred_work_group_size_multiple);
    case CL_KERNEL_PRIVATE_MEM_SIZE:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         static_cast<cl_ulong>(0));
    default: return CL_INVALID_VALUE;
  }
}

/* --- events ------------------------------------------------------------------ */

cl_int clWaitForEvents(cl_uint num_events, const cl_event* event_list) {
  if (num_events == 0 || event_list == nullptr) return CL_INVALID_VALUE;
  for (cl_uint i = 0; i < num_events; ++i) {
    if (event_list[i] == nullptr || !event_list[i]->event) {
      return CL_INVALID_EVENT;
    }
  }
  cl_int result = CL_SUCCESS;
  for (cl_uint i = 0; i < num_events; ++i) {
    try {
      event_list[i]->event->wait();
    } catch (...) {
      result = CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST;
    }
  }
  return result;
}

cl_int clGetEventInfo(cl_event event, cl_event_info param_name,
                      size_t param_value_size, void* param_value,
                      size_t* param_value_size_ret) {
  if (event == nullptr || !event->event) return CL_INVALID_EVENT;
  switch (param_name) {
    case CL_EVENT_COMMAND_QUEUE:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         event->queue);
    case CL_EVENT_COMMAND_TYPE:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         event->command_type);
    case CL_EVENT_REFERENCE_COUNT:
      return info_scalar(
          param_value_size, param_value, param_value_size_ret,
          static_cast<cl_uint>(event->refs.load(std::memory_order_relaxed)));
    case CL_EVENT_COMMAND_EXECUTION_STATUS: {
      cl_int status = exec_status_of(*event->event);
      // User events have no queue to progress through: the spec pins their
      // pre-completion status at CL_SUBMITTED.
      if (event->command_type == CL_COMMAND_USER && status == CL_QUEUED) {
        status = CL_SUBMITTED;
      }
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         status);
    }
    case CL_EVENT_CONTEXT:
      return info_scalar(param_value_size, param_value, param_value_size_ret,
                         event->context);
    default: return CL_INVALID_VALUE;
  }
}

cl_event clCreateUserEvent(cl_context context, cl_int* errcode_ret) {
  if (context == nullptr) {
    set_err(errcode_ret, CL_INVALID_CONTEXT);
    return nullptr;
  }
  auto* e = new _cl_event;
  e->event = mocl::AsyncEvent::create_user();
  e->context = context;
  retain_context_handle(context);
  e->command_type = CL_COMMAND_USER;
  set_err(errcode_ret, CL_SUCCESS);
  return e;
}

cl_int clRetainEvent(cl_event event) {
  if (event == nullptr) return CL_INVALID_EVENT;
  retain_event_handle(event);
  return CL_SUCCESS;
}

cl_int clReleaseEvent(cl_event event) {
  if (event == nullptr) return CL_INVALID_EVENT;
  release_event_handle(event);
  return CL_SUCCESS;
}

cl_int clSetUserEventStatus(cl_event event, cl_int execution_status) {
  if (event == nullptr || !event->event) return CL_INVALID_EVENT;
  if (execution_status != CL_COMPLETE && execution_status >= 0) {
    return CL_INVALID_VALUE;
  }
  return guarded([&] {
    event->event->set_user_status(execution_status == CL_COMPLETE
                                      ? Status::Success
                                      : Status::Cancelled);
    return CL_SUCCESS;
  });
}

cl_int clSetEventCallback(cl_event event, cl_int command_exec_callback_type,
                          void(CL_CALLBACK* pfn_notify)(cl_event, cl_int,
                                                        void*),
                          void* user_data) {
  if (event == nullptr || !event->event) return CL_INVALID_EVENT;
  if (pfn_notify == nullptr || command_exec_callback_type != CL_COMPLETE) {
    return CL_INVALID_VALUE;
  }
  retain_event_handle(event);  // the callback keeps the handle alive
  return guarded([&] {
    event->event->on_complete([event, pfn_notify, user_data](Status s) {
      pfn_notify(event,
                 s == Status::Success ? CL_COMPLETE : cl_code(s),
                 user_data);
      release_event_handle(event);
    });
    return CL_SUCCESS;
  });
}

cl_int clGetEventProfilingInfo(cl_event event, cl_profiling_info param_name,
                               size_t param_value_size, void* param_value,
                               size_t* param_value_size_ret) {
  if (event == nullptr || !event->event) return CL_INVALID_EVENT;
  if (event->command_type == CL_COMMAND_USER) {
    return CL_PROFILING_INFO_NOT_AVAILABLE;
  }
  mocl::ProfilingInfo prof;
  try {
    prof = event->event->profiling_ns();
  } catch (const mcore::Error&) {
    return CL_PROFILING_INFO_NOT_AVAILABLE;  // not terminal yet
  }
  cl_ulong value = 0;
  switch (param_name) {
    case CL_PROFILING_COMMAND_QUEUED: value = prof.queued_ns; break;
    case CL_PROFILING_COMMAND_SUBMIT: value = prof.submitted_ns; break;
    case CL_PROFILING_COMMAND_START: value = prof.started_ns; break;
    case CL_PROFILING_COMMAND_END: value = prof.ended_ns; break;
    default: return CL_INVALID_VALUE;
  }
  return info_scalar(param_value_size, param_value, param_value_size_ret,
                     value);
}

/* --- flush / finish ---------------------------------------------------------- */

cl_int clFlush(cl_command_queue command_queue) {
  // Commands are submitted to the executor eagerly at enqueue time.
  return command_queue != nullptr ? CL_SUCCESS : CL_INVALID_COMMAND_QUEUE;
}

cl_int clFinish(cl_command_queue command_queue) {
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  return guarded([&] {
    command_queue->queue->finish();
    return CL_SUCCESS;
  });
}

/* --- enqueued commands -------------------------------------------------------- */

cl_int clEnqueueReadBuffer(cl_command_queue command_queue, cl_mem buffer,
                           cl_bool blocking_read, size_t offset, size_t size,
                           void* ptr, cl_uint num_events_in_wait_list,
                           const cl_event* event_wait_list, cl_event* event) {
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  if (!mem_live(buffer)) return CL_INVALID_MEM_OBJECT;
  if (ptr == nullptr || size == 0) return CL_INVALID_VALUE;
  if (buffer->context != command_queue->context) return CL_INVALID_CONTEXT;
  std::vector<mocl::AsyncEventPtr> wait;
  cl_int err = gather_wait_list(num_events_in_wait_list, event_wait_list,
                                &wait);
  if (err != CL_SUCCESS) return err;
  return guarded([&] {
    mocl::AsyncEventPtr ev = command_queue->queue->enqueue_read_buffer_async(
        *buffer->buffer, offset, size, ptr, std::move(wait));
    if (blocking_read == CL_TRUE) {
      try {
        ev->wait();
      } catch (const mcore::Error& e) {
        return cl_code(e.status());
      }
    }
    attach_event(event, std::move(ev), command_queue, CL_COMMAND_READ_BUFFER);
    return CL_SUCCESS;
  });
}

cl_int clEnqueueWriteBuffer(cl_command_queue command_queue, cl_mem buffer,
                            cl_bool blocking_write, size_t offset, size_t size,
                            const void* ptr, cl_uint num_events_in_wait_list,
                            const cl_event* event_wait_list, cl_event* event) {
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  if (!mem_live(buffer)) return CL_INVALID_MEM_OBJECT;
  if (ptr == nullptr || size == 0) return CL_INVALID_VALUE;
  if (buffer->context != command_queue->context) return CL_INVALID_CONTEXT;
  std::vector<mocl::AsyncEventPtr> wait;
  cl_int err = gather_wait_list(num_events_in_wait_list, event_wait_list,
                                &wait);
  if (err != CL_SUCCESS) return err;
  return guarded([&] {
    mocl::AsyncEventPtr ev = command_queue->queue->enqueue_write_buffer_async(
        *buffer->buffer, offset, size, ptr, std::move(wait));
    if (blocking_write == CL_TRUE) {
      try {
        ev->wait();
      } catch (const mcore::Error& e) {
        return cl_code(e.status());
      }
    }
    attach_event(event, std::move(ev), command_queue, CL_COMMAND_WRITE_BUFFER);
    return CL_SUCCESS;
  });
}

namespace {

/// Shared body of the rect transfers: they resolve their wait list, run
/// synchronously, and hand back a marker event.
cl_int enqueue_rect(cl_command_queue q, cl_mem buffer, bool is_read,
                    const size_t* buffer_origin, const size_t* host_origin,
                    const size_t* region, size_t buffer_row_pitch,
                    size_t buffer_slice_pitch, size_t host_row_pitch,
                    size_t host_slice_pitch, void* ptr,
                    cl_uint num_events_in_wait_list,
                    const cl_event* event_wait_list, cl_event* event) {
  if (q == nullptr) return CL_INVALID_COMMAND_QUEUE;
  if (!mem_live(buffer)) return CL_INVALID_MEM_OBJECT;
  if (ptr == nullptr || buffer_origin == nullptr || host_origin == nullptr ||
      region == nullptr || region[0] == 0 || region[1] == 0 ||
      region[2] == 0) {
    return CL_INVALID_VALUE;
  }
  if (buffer->context != q->context) return CL_INVALID_CONTEXT;
  std::vector<mocl::AsyncEventPtr> wait;
  cl_int err = gather_wait_list(num_events_in_wait_list, event_wait_list,
                                &wait);
  if (err != CL_SUCCESS) return err;
  err = resolve_wait_list(wait);
  if (err != CL_SUCCESS) return err;
  return guarded([&] {
    mocl::BufferRect brect;
    mocl::BufferRect hrect;
    for (int d = 0; d < 3; ++d) {
      brect.origin[d] = buffer_origin[d];
      hrect.origin[d] = host_origin[d];
      brect.region[d] = region[d];
      hrect.region[d] = region[d];
    }
    brect.row_pitch = buffer_row_pitch;
    brect.slice_pitch = buffer_slice_pitch;
    hrect.row_pitch = host_row_pitch;
    hrect.slice_pitch = host_slice_pitch;
    if (is_read) {
      q->queue->enqueue_read_buffer_rect(*buffer->buffer, brect, hrect, ptr);
    } else {
      q->queue->enqueue_write_buffer_rect(*buffer->buffer, brect, hrect, ptr);
    }
    if (event != nullptr) {
      attach_event(event, q->queue->enqueue_marker_async(), q,
                   is_read ? CL_COMMAND_READ_BUFFER_RECT
                           : CL_COMMAND_WRITE_BUFFER_RECT);
    }
    return CL_SUCCESS;
  });
}

}  // namespace

cl_int clEnqueueReadBufferRect(cl_command_queue command_queue, cl_mem buffer,
                               cl_bool blocking_read,
                               const size_t* buffer_origin,
                               const size_t* host_origin, const size_t* region,
                               size_t buffer_row_pitch,
                               size_t buffer_slice_pitch,
                               size_t host_row_pitch, size_t host_slice_pitch,
                               void* ptr, cl_uint num_events_in_wait_list,
                               const cl_event* event_wait_list,
                               cl_event* event) {
  (void)blocking_read;  // executed synchronously either way
  return enqueue_rect(command_queue, buffer, /*is_read=*/true, buffer_origin,
                      host_origin, region, buffer_row_pitch,
                      buffer_slice_pitch, host_row_pitch, host_slice_pitch,
                      ptr, num_events_in_wait_list, event_wait_list, event);
}

cl_int clEnqueueWriteBufferRect(cl_command_queue command_queue, cl_mem buffer,
                                cl_bool blocking_write,
                                const size_t* buffer_origin,
                                const size_t* host_origin,
                                const size_t* region, size_t buffer_row_pitch,
                                size_t buffer_slice_pitch,
                                size_t host_row_pitch, size_t host_slice_pitch,
                                const void* ptr,
                                cl_uint num_events_in_wait_list,
                                const cl_event* event_wait_list,
                                cl_event* event) {
  (void)blocking_write;
  return enqueue_rect(command_queue, buffer, /*is_read=*/false, buffer_origin,
                      host_origin, region, buffer_row_pitch,
                      buffer_slice_pitch, host_row_pitch, host_slice_pitch,
                      const_cast<void*>(ptr), num_events_in_wait_list,
                      event_wait_list, event);
}

cl_int clEnqueueCopyBuffer(cl_command_queue command_queue, cl_mem src_buffer,
                           cl_mem dst_buffer, size_t src_offset,
                           size_t dst_offset, size_t size,
                           cl_uint num_events_in_wait_list,
                           const cl_event* event_wait_list, cl_event* event) {
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  if (!mem_live(src_buffer) || !mem_live(dst_buffer)) {
    return CL_INVALID_MEM_OBJECT;
  }
  if (size == 0) return CL_INVALID_VALUE;
  if (src_buffer->context != command_queue->context ||
      dst_buffer->context != command_queue->context) {
    return CL_INVALID_CONTEXT;
  }
  if (src_offset + size <= src_buffer->buffer->size() &&
      dst_offset + size <= dst_buffer->buffer->size()) {
    const char* s =
        static_cast<const char*>(src_buffer->buffer->device_ptr()) +
        src_offset;
    const char* d =
        static_cast<const char*>(dst_buffer->buffer->device_ptr()) +
        dst_offset;
    if (s < d + size && d < s + size) return CL_MEM_COPY_OVERLAP;
  }
  std::vector<mocl::AsyncEventPtr> wait;
  cl_int err = gather_wait_list(num_events_in_wait_list, event_wait_list,
                                &wait);
  if (err != CL_SUCCESS) return err;
  return guarded([&] {
    mocl::AsyncEventPtr ev = command_queue->queue->enqueue_copy_buffer_async(
        *src_buffer->buffer, *dst_buffer->buffer, src_offset, dst_offset, size,
        std::move(wait));
    attach_event(event, std::move(ev), command_queue, CL_COMMAND_COPY_BUFFER);
    return CL_SUCCESS;
  });
}

void* clEnqueueMapBuffer(cl_command_queue command_queue, cl_mem buffer,
                         cl_bool blocking_map, cl_map_flags map_flags,
                         size_t offset, size_t size,
                         cl_uint num_events_in_wait_list,
                         const cl_event* event_wait_list, cl_event* event,
                         cl_int* errcode_ret) {
  (void)blocking_map;  // the map itself is synchronous
  if (command_queue == nullptr) {
    set_err(errcode_ret, CL_INVALID_COMMAND_QUEUE);
    return nullptr;
  }
  if (!mem_live(buffer)) {
    set_err(errcode_ret, CL_INVALID_MEM_OBJECT);
    return nullptr;
  }
  if (size == 0 || (map_flags & ~(CL_MAP_READ | CL_MAP_WRITE)) != 0) {
    set_err(errcode_ret, CL_INVALID_VALUE);
    return nullptr;
  }
  if (buffer->context != command_queue->context) {
    set_err(errcode_ret, CL_INVALID_CONTEXT);
    return nullptr;
  }
  std::vector<mocl::AsyncEventPtr> wait;
  cl_int err = gather_wait_list(num_events_in_wait_list, event_wait_list,
                                &wait);
  if (err == CL_SUCCESS) err = resolve_wait_list(wait);
  if (err != CL_SUCCESS) {
    set_err(errcode_ret, err);
    return nullptr;
  }
  const mocl::MapFlags mf =
      map_flags == CL_MAP_READ
          ? mocl::MapFlags::Read
          : map_flags == CL_MAP_WRITE ? mocl::MapFlags::Write
                                      : mocl::MapFlags::ReadWrite;
  try {
    void* p = command_queue->queue->enqueue_map_buffer(*buffer->buffer, mf,
                                                       offset, size);
    if (event != nullptr) {
      attach_event(event, command_queue->queue->enqueue_marker_async(),
                   command_queue, CL_COMMAND_MAP_BUFFER);
    }
    set_err(errcode_ret, CL_SUCCESS);
    return p;
  } catch (const mcore::Error& e) {
    set_err(errcode_ret, e.status() == Status::MapFailure
                             ? CL_MAP_FAILURE
                             : cl_code(e.status()));
    return nullptr;
  } catch (...) {
    set_err(errcode_ret, CL_OUT_OF_HOST_MEMORY);
    return nullptr;
  }
}

cl_int clEnqueueUnmapMemObject(cl_command_queue command_queue, cl_mem memobj,
                               void* mapped_ptr,
                               cl_uint num_events_in_wait_list,
                               const cl_event* event_wait_list,
                               cl_event* event) {
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  if (!mem_live(memobj)) return CL_INVALID_MEM_OBJECT;
  if (mapped_ptr == nullptr) return CL_INVALID_VALUE;
  if (memobj->context != command_queue->context) return CL_INVALID_CONTEXT;
  std::vector<mocl::AsyncEventPtr> wait;
  cl_int err = gather_wait_list(num_events_in_wait_list, event_wait_list,
                                &wait);
  if (err == CL_SUCCESS) err = resolve_wait_list(wait);
  if (err != CL_SUCCESS) return err;
  cl_int rc = guarded([&] {
    command_queue->queue->enqueue_unmap(*memobj->buffer, mapped_ptr);
    if (event != nullptr) {
      attach_event(event, command_queue->queue->enqueue_marker_async(),
                   command_queue, CL_COMMAND_UNMAP_MEM_OBJECT);
    }
    return CL_SUCCESS;
  });
  // The runtime reports an unknown mapped_ptr as a map failure; at this
  // entry point the spec-mandated code is CL_INVALID_VALUE.
  return rc == CL_MAP_FAILURE ? CL_INVALID_VALUE : rc;
}

cl_int clEnqueueNDRangeKernel(cl_command_queue command_queue, cl_kernel kernel,
                              cl_uint work_dim,
                              const size_t* global_work_offset,
                              const size_t* global_work_size,
                              const size_t* local_work_size,
                              cl_uint num_events_in_wait_list,
                              const cl_event* event_wait_list,
                              cl_event* event) {
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  if (kernel == nullptr || !kernel->kernel) return CL_INVALID_KERNEL;
  if (kernel->program->context != command_queue->context) {
    return CL_INVALID_CONTEXT;
  }
  if (work_dim < 1 || work_dim > 3) return CL_INVALID_WORK_DIMENSION;
  if (global_work_size == nullptr) return CL_INVALID_GLOBAL_WORK_SIZE;
  for (cl_uint d = 0; d < work_dim; ++d) {
    if (global_work_size[d] == 0) return CL_INVALID_GLOBAL_WORK_SIZE;
  }
  if (local_work_size != nullptr) {
    for (cl_uint d = 0; d < work_dim; ++d) {
      if (local_work_size[d] == 0 ||
          global_work_size[d] % local_work_size[d] != 0) {
        return CL_INVALID_WORK_GROUP_SIZE;
      }
    }
  }
  std::vector<mocl::AsyncEventPtr> wait;
  cl_int err = gather_wait_list(num_events_in_wait_list, event_wait_list,
                                &wait);
  if (err != CL_SUCCESS) return err;
  const mocl::NDRange global = make_range(work_dim, global_work_size);
  const mocl::NDRange local = local_work_size != nullptr
                                  ? make_range(work_dim, local_work_size)
                                  : mocl::NDRange{};
  const mocl::NDRange offset = global_work_offset != nullptr
                                   ? make_range(work_dim, global_work_offset)
                                   : mocl::NDRange{};
  return guarded([&] {
    mocl::AsyncEventPtr ev;
    {
      // The queue snapshots the argument bindings at enqueue; the lock keeps
      // a concurrent clSetKernelArg from racing that snapshot.
      std::lock_guard<std::mutex> lock(kernel->mutex);
      if (kernel->num_args != SIZE_MAX) {
        for (std::size_t i = 0; i < kernel->num_args; ++i) {
          if (!kernel->kernel->args().is_set(i)) {
            return CL_INVALID_KERNEL_ARGS;
          }
        }
      }
      ev = command_queue->queue->enqueue_ndrange_async(
          *kernel->kernel, global, local, std::move(wait), offset);
    }
    attach_event(event, std::move(ev), command_queue,
                 CL_COMMAND_NDRANGE_KERNEL);
    return CL_SUCCESS;
  });
}

cl_int clEnqueueTask(cl_command_queue command_queue, cl_kernel kernel,
                     cl_uint num_events_in_wait_list,
                     const cl_event* event_wait_list, cl_event* event) {
  const size_t one = 1;
  cl_int err = clEnqueueNDRangeKernel(command_queue, kernel, 1, nullptr, &one,
                                      &one, num_events_in_wait_list,
                                      event_wait_list, event);
  if (err == CL_SUCCESS && event != nullptr) {
    (*event)->command_type = CL_COMMAND_TASK;
  }
  return err;
}

cl_int clEnqueueNativeKernel(cl_command_queue command_queue,
                             void(CL_CALLBACK* user_func)(void*), void* args,
                             size_t cb_args, cl_uint num_mem_objects,
                             const cl_mem* mem_list, const void** args_mem_loc,
                             cl_uint num_events_in_wait_list,
                             const cl_event* event_wait_list, cl_event* event) {
  // Stub: native kernels are not supported (CL_EXEC_NATIVE_KERNEL is not in
  // the device's execution capabilities).
  (void)user_func;
  (void)args;
  (void)cb_args;
  (void)num_mem_objects;
  (void)mem_list;
  (void)args_mem_loc;
  (void)num_events_in_wait_list;
  (void)event_wait_list;
  (void)event;
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  return CL_INVALID_OPERATION;
}

cl_int clEnqueueMarker(cl_command_queue command_queue, cl_event* event) {
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  if (event == nullptr) return CL_INVALID_VALUE;
  return guarded([&] {
    attach_event(event, command_queue->queue->enqueue_marker_async(),
                 command_queue, CL_COMMAND_MARKER);
    return CL_SUCCESS;
  });
}

cl_int clEnqueueWaitForEvents(cl_command_queue command_queue,
                              cl_uint num_events, const cl_event* event_list) {
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  if (num_events == 0 || event_list == nullptr) return CL_INVALID_VALUE;
  std::vector<mocl::AsyncEventPtr> wait;
  for (cl_uint i = 0; i < num_events; ++i) {
    if (event_list[i] == nullptr || !event_list[i]->event) {
      return CL_INVALID_EVENT;
    }
    wait.push_back(event_list[i]->event);
  }
  return guarded([&] {
    // A barrier carrying the wait list: later commands (on either queue
    // flavor) cannot start until these events resolve.
    mocl::AsyncEventPtr ev =
        command_queue->queue->enqueue_barrier_async(std::move(wait));
    (void)ev;
    return CL_SUCCESS;
  });
}

cl_int clEnqueueBarrier(cl_command_queue command_queue) {
  if (command_queue == nullptr) return CL_INVALID_COMMAND_QUEUE;
  return guarded([&] {
    mocl::AsyncEventPtr ev = command_queue->queue->enqueue_barrier_async();
    (void)ev;
    return CL_SUCCESS;
  });
}

void* clGetExtensionFunctionAddress(const char* func_name) {
  // The cl_ext_mcl.h entry points are linked directly; with no ICD loader
  // there is nothing to look up.
  (void)func_name;
  return nullptr;
}

/* --- MCL extensions (CL/cl_ext_mcl.h) ---------------------------------------- */

// intern() only when recording: callers may pass transient strings, and the
// disabled path must stay at one relaxed load.
cl_int clTraceBeginMCL(const char* name) {
  if (name == nullptr) return CL_INVALID_VALUE;
  if (mcl::trace::enabled()) mcl::trace::span_begin(mcl::trace::intern(name));
  return CL_SUCCESS;
}

cl_int clTraceEndMCL(const char* name) {
  if (name == nullptr) return CL_INVALID_VALUE;
  if (mcl::trace::enabled()) mcl::trace::span_end(mcl::trace::intern(name));
  return CL_SUCCESS;
}

cl_int clTraceCounterMCL(const char* name, cl_double value) {
  if (name == nullptr) return CL_INVALID_VALUE;
  if (mcl::trace::enabled()) {
    mcl::trace::counter(mcl::trace::intern(name), value);
  }
  return CL_SUCCESS;
}

cl_int clGetEventKernelProfileMCL(cl_event event,
                                  cl_kernel_profile_mcl* profile) {
  if (event == nullptr || !event->event) return CL_INVALID_EVENT;
  if (profile == nullptr) return CL_INVALID_VALUE;
  mcl::prof::KernelProfile p;
  try {
    p = event->event->kernel_profile();  // throws unless a finished kernel
  } catch (const mcore::Error&) {
    return CL_PROFILING_INFO_NOT_AVAILABLE;
  }
  if (p.launches == 0) return CL_PROFILING_INFO_NOT_AVAILABLE;  // no session
  std::memset(profile, 0, sizeof(*profile));
  std::strncpy(profile->kernel, p.name.c_str(), sizeof(profile->kernel) - 1);
  profile->launches = p.launches;
  profile->workgroups = p.groups;
  profile->items = p.items;
  profile->cycles = p.cycles;
  profile->instructions = p.instructions;
  profile->cache_references = p.cache_references;
  profile->cache_misses = p.cache_misses;
  profile->branches = p.branches;
  profile->branch_misses = p.branch_misses;
  profile->seconds = p.seconds;
  profile->ipc = p.ipc();
  profile->cache_miss_rate = p.cache_miss_rate();
  profile->bytes_per_cycle = p.bytes_per_cycle();
  profile->achieved_gbps = p.achieved_gbps();
  profile->hardware = p.hardware ? CL_TRUE : CL_FALSE;
  return CL_SUCCESS;
}

cl_int clGetMetricsSnapshotMCL(size_t buf_size, char* buf, size_t* size_ret) {
  if (buf == nullptr && size_ret == nullptr) return CL_INVALID_VALUE;
  return guarded([&] {
    const std::string json = mcl::prof::metrics_json(mcl::prof::snapshot());
    if (size_ret != nullptr) *size_ret = json.size() + 1;
    if (buf != nullptr && buf_size > 0) {
      const std::size_t n = std::min(buf_size - 1, json.size());
      std::memcpy(buf, json.data(), n);
      buf[n] = '\0';
    }
    return CL_SUCCESS;
  });
}

cl_int clSetTuningModeMCL(cl_int mode) {
  mcl::tune::Mode m;
  switch (mode) {
    case CL_TUNE_OFF_MCL: m = mcl::tune::Mode::Off; break;
    case CL_TUNE_SEED_MCL: m = mcl::tune::Mode::Seed; break;
    case CL_TUNE_ONLINE_MCL: m = mcl::tune::Mode::Online; break;
    default: return CL_INVALID_VALUE;
  }
  mcl::tune::Tuner::instance().set_mode(m);
  return CL_SUCCESS;
}

cl_int clGetKernelTunedConfigMCL(cl_kernel kernel, cl_device_id device,
                                 cl_uint work_dim, const size_t* global_size,
                                 cl_tuned_config_mcl* config) {
  if (kernel == nullptr || !kernel->kernel) return CL_INVALID_KERNEL;
  if (!device_live(device) ||
      !kernel->program->context->context->has_device(*device->device)) {
    return CL_INVALID_DEVICE;
  }
  if (work_dim < 1 || work_dim > 3) return CL_INVALID_WORK_DIMENSION;
  if (global_size == nullptr) return CL_INVALID_GLOBAL_WORK_SIZE;
  for (cl_uint d = 0; d < work_dim; ++d) {
    if (global_size[d] == 0) return CL_INVALID_GLOBAL_WORK_SIZE;
  }
  if (config == nullptr) return CL_INVALID_VALUE;
  return guarded([&] {
    bool has_local_args = false;
    {
      std::lock_guard<std::mutex> lock(kernel->mutex);
      has_local_args = kernel->kernel->args().total_local_bytes() > 0;
    }
    // Keyed like the launch path: NULL local, the kernel's current local
    // args, and the device's compute units (the shard width on a
    // sub-device).
    const std::optional<mcl::tune::TunedConfig> best =
        mcl::tune::Tuner::instance().tuned_config(
            kernel->kernel->def(), make_range(work_dim, global_size),
            mocl::NDRange{}, has_local_args,
            static_cast<std::size_t>(
                std::max(1, device->device->compute_units())));
    if (!best) return CL_INVALID_OPERATION;
    std::memset(config, 0, sizeof(*config));
    config->work_dim = static_cast<cl_uint>(best->local.dims);
    for (std::size_t d = 0; d < 3; ++d) {
      config->local_size[d] = best->local.size[d];
    }
    switch (best->executor) {
      case mocl::ExecutorKind::Loop: config->executor = 1; break;
      case mocl::ExecutorKind::Fiber: config->executor = 2; break;
      case mocl::ExecutorKind::Simd: config->executor = 3; break;
      case mocl::ExecutorKind::Auto:
      case mocl::ExecutorKind::Checked: config->executor = 0; break;
    }
    config->chunk_divisor = static_cast<cl_uint>(best->chunk_divisor);
    config->work_stealing =
        best->scheduler == mcl::threading::ScheduleStrategy::WorkStealing
            ? CL_TRUE
            : CL_FALSE;
    config->prefer_map = best->prefer_map ? CL_TRUE : CL_FALSE;
    return CL_SUCCESS;
  });
}

}  // extern "C"


