// CL shim integration tests (positive paths; the negative matrix lives in
// cl_errors_test.cpp).
//
// The headline test is the PR's acceptance scenario: one cl_context holding
// the CPU root device, two CPU sub-devices and the simulated GPU, executing
// the same kernel on each through clEnqueueNDRangeKernel, with event
// profiling timestamps consistent with the shared steady epoch.
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <CL/cl.h>
#include <CL/cl_ext_mcl.h>

#include "prof/profiler.hpp"

extern "C" int mcl_cl_ext_c_smoke(void);

namespace {

struct Base {
  cl_platform_id platform = nullptr;
  cl_device_id cpu = nullptr;
  cl_device_id gpu = nullptr;

  static Base& get() {
    static Base b = [] {
      Base x;
      EXPECT_EQ(CL_SUCCESS, clGetPlatformIDs(1, &x.platform, nullptr));
      EXPECT_EQ(CL_SUCCESS, clGetDeviceIDs(x.platform, CL_DEVICE_TYPE_CPU, 1,
                                           &x.cpu, nullptr));
      EXPECT_EQ(CL_SUCCESS, clGetDeviceIDs(x.platform, CL_DEVICE_TYPE_GPU, 1,
                                           &x.gpu, nullptr));
      return x;
    }();
    return b;
  }
};

const char* kSquareSrc =
    "__kernel void square(__global const float* in, __global float* out) {\n"
    "  out[get_global_id(0)] = in[get_global_id(0)] * in[get_global_id(0)];\n"
    "}\n";

cl_program build_square(cl_context context) {
  cl_int err = CL_SUCCESS;
  cl_program p =
      clCreateProgramWithSource(context, 1, &kSquareSrc, nullptr, &err);
  EXPECT_EQ(CL_SUCCESS, err);
  EXPECT_EQ(CL_SUCCESS,
            clBuildProgram(p, 0, nullptr, nullptr, nullptr, nullptr));
  return p;
}

// ---------------------------------------------------------------------------
// Acceptance: CPU root + two sub-devices + gpusim under ONE context, the
// same kernel running on each device's queue.

TEST(ClShimMultiDevice, SameKernelOnRootSubDevicesAndGpu) {
  Base& b = Base::get();
  cl_uint units = 0;
  ASSERT_EQ(CL_SUCCESS,
            clGetDeviceInfo(b.cpu, CL_DEVICE_MAX_COMPUTE_UNITS, sizeof(units),
                            &units, nullptr));
  if (units < 4) GTEST_SKIP() << "needs MCL_CPU_THREADS>=4";

  cl_device_partition_property props[] = {CL_DEVICE_PARTITION_EQUALLY,
                                          static_cast<cl_device_partition_property>(units / 2),
                                          0};
  cl_device_id subs[2];
  cl_uint num_subs = 0;
  ASSERT_EQ(CL_SUCCESS, clCreateSubDevices(b.cpu, props, 2, subs, &num_subs));
  ASSERT_GE(num_subs, 2u);

  cl_device_id devices[4] = {b.cpu, subs[0], subs[1], b.gpu};
  cl_int err = CL_SUCCESS;
  cl_context context =
      clCreateContext(nullptr, 4, devices, nullptr, nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);

  // Sub-devices report their parent and partition type through the shim.
  cl_device_id parent = nullptr;
  ASSERT_EQ(CL_SUCCESS,
            clGetDeviceInfo(subs[0], CL_DEVICE_PARENT_DEVICE, sizeof(parent),
                            &parent, nullptr));
  EXPECT_EQ(b.cpu, parent);
  cl_uint sub_units = 0;
  ASSERT_EQ(CL_SUCCESS,
            clGetDeviceInfo(subs[0], CL_DEVICE_MAX_COMPUTE_UNITS,
                            sizeof(sub_units), &sub_units, nullptr));
  EXPECT_EQ(units / 2, sub_units);

  cl_program program = build_square(context);
  cl_kernel kernel = clCreateKernel(program, "square", &err);
  ASSERT_EQ(CL_SUCCESS, err);

  constexpr size_t kN = 4096;
  std::vector<float> in(kN);
  for (size_t i = 0; i < kN; ++i) in[i] = static_cast<float>(i % 128);
  std::vector<float> out(kN);

  cl_mem in_buf =
      clCreateBuffer(context, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR,
                     kN * sizeof(float), in.data(), &err);
  ASSERT_EQ(CL_SUCCESS, err);
  cl_mem out_buf = clCreateBuffer(context, CL_MEM_WRITE_ONLY,
                                  kN * sizeof(float), nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  ASSERT_EQ(CL_SUCCESS, clSetKernelArg(kernel, 0, sizeof(cl_mem), &in_buf));
  ASSERT_EQ(CL_SUCCESS, clSetKernelArg(kernel, 1, sizeof(cl_mem), &out_buf));

  // Sequential launches, one per device: every event must satisfy
  // QUEUED <= SUBMIT <= START <= END within itself, and because launch i+1
  // is enqueued only after launch i finished, the shared steady epoch makes
  // END[i] <= START[i+1] hold ACROSS devices (root, shards, simulated GPU).
  cl_ulong prev_end = 0;
  for (int d = 0; d < 4; ++d) {
    cl_command_queue queue = clCreateCommandQueue(
        context, devices[d], CL_QUEUE_PROFILING_ENABLE, &err);
    ASSERT_EQ(CL_SUCCESS, err) << "device " << d;

    std::memset(out.data(), 0, kN * sizeof(float));
    ASSERT_EQ(CL_SUCCESS,
              clEnqueueWriteBuffer(queue, out_buf, CL_TRUE, 0,
                                   kN * sizeof(float), out.data(), 0, nullptr,
                                   nullptr));
    size_t global = kN;
    cl_event ev;
    ASSERT_EQ(CL_SUCCESS,
              clEnqueueNDRangeKernel(queue, kernel, 1, nullptr, &global,
                                     nullptr, 0, nullptr, &ev))
        << "device " << d;
    ASSERT_EQ(CL_SUCCESS,
              clEnqueueReadBuffer(queue, out_buf, CL_TRUE, 0,
                                  kN * sizeof(float), out.data(), 1, &ev,
                                  nullptr));
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(in[i] * in[i], out[i]) << "device " << d << " item " << i;
    }

    cl_ulong queued = 0, submit = 0, start = 0, end = 0;
    ASSERT_EQ(CL_SUCCESS,
              clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_QUEUED,
                                      sizeof(queued), &queued, nullptr));
    ASSERT_EQ(CL_SUCCESS,
              clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_SUBMIT,
                                      sizeof(submit), &submit, nullptr));
    ASSERT_EQ(CL_SUCCESS,
              clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_START,
                                      sizeof(start), &start, nullptr));
    ASSERT_EQ(CL_SUCCESS,
              clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_END,
                                      sizeof(end), &end, nullptr));
    EXPECT_GT(queued, 0u) << "device " << d;
    EXPECT_LE(queued, submit) << "device " << d;
    EXPECT_LE(submit, start) << "device " << d;
    EXPECT_LE(start, end) << "device " << d;
    EXPECT_LE(prev_end, start)
        << "cross-device epoch violation at device " << d;
    prev_end = end;

    clReleaseEvent(ev);
    ASSERT_EQ(CL_SUCCESS, clReleaseCommandQueue(queue));
  }

  clReleaseMemObject(in_buf);
  clReleaseMemObject(out_buf);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  ASSERT_EQ(CL_SUCCESS, clReleaseContext(context));
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(CL_SUCCESS, clReleaseDevice(subs[i]));
  }
}

// ---------------------------------------------------------------------------
// Smaller positive-path suites.

struct CtxFix {
  cl_context context = nullptr;
  cl_command_queue queue = nullptr;

  static CtxFix create(cl_command_queue_properties props = 0) {
    Base& b = Base::get();
    CtxFix f;
    cl_int err = CL_SUCCESS;
    f.context = clCreateContext(nullptr, 1, &b.cpu, nullptr, nullptr, &err);
    EXPECT_EQ(CL_SUCCESS, err);
    f.queue = clCreateCommandQueue(f.context, b.cpu, props, &err);
    EXPECT_EQ(CL_SUCCESS, err);
    return f;
  }
  void destroy() {
    EXPECT_EQ(CL_SUCCESS, clReleaseCommandQueue(queue));
    EXPECT_EQ(CL_SUCCESS, clReleaseContext(context));
  }
};

TEST(ClShim, ContextFromTypeAllSeesBothDevices) {
  cl_int err = CL_SUCCESS;
  cl_context context = clCreateContextFromType(nullptr, CL_DEVICE_TYPE_ALL,
                                               nullptr, nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  cl_uint n = 0;
  ASSERT_EQ(CL_SUCCESS,
            clGetContextInfo(context, CL_CONTEXT_NUM_DEVICES, sizeof(n), &n,
                             nullptr));
  EXPECT_EQ(2u, n);  // CPU + simulated GPU
  cl_device_id devs[2];
  ASSERT_EQ(CL_SUCCESS, clGetContextInfo(context, CL_CONTEXT_DEVICES,
                                         sizeof(devs), devs, nullptr));
  EXPECT_EQ(CL_SUCCESS, clReleaseContext(context));
}

TEST(ClShim, InfoQueriesRoundTrip) {
  CtxFix f = CtxFix::create();
  Base& b = Base::get();

  // Queue info.
  cl_context qctx = nullptr;
  ASSERT_EQ(CL_SUCCESS,
            clGetCommandQueueInfo(f.queue, CL_QUEUE_CONTEXT, sizeof(qctx),
                                  &qctx, nullptr));
  EXPECT_EQ(f.context, qctx);
  cl_device_id qdev = nullptr;
  ASSERT_EQ(CL_SUCCESS,
            clGetCommandQueueInfo(f.queue, CL_QUEUE_DEVICE, sizeof(qdev),
                                  &qdev, nullptr));
  EXPECT_EQ(b.cpu, qdev);

  // Program / kernel info.
  cl_program program = build_square(f.context);
  size_t src_size = 0;
  ASSERT_EQ(CL_SUCCESS, clGetProgramInfo(program, CL_PROGRAM_SOURCE, 0,
                                         nullptr, &src_size));
  std::string src(src_size, '\0');
  ASSERT_EQ(CL_SUCCESS, clGetProgramInfo(program, CL_PROGRAM_SOURCE, src_size,
                                         src.data(), nullptr));
  EXPECT_NE(std::string::npos, src.find("__kernel void square"));
  cl_build_status status = CL_BUILD_NONE;
  ASSERT_EQ(CL_SUCCESS,
            clGetProgramBuildInfo(program, b.cpu, CL_PROGRAM_BUILD_STATUS,
                                  sizeof(status), &status, nullptr));
  EXPECT_EQ(CL_BUILD_SUCCESS, status);

  cl_int err = CL_SUCCESS;
  cl_kernel kernel = clCreateKernel(program, "square", &err);
  ASSERT_EQ(CL_SUCCESS, err);
  char name[64] = {0};
  ASSERT_EQ(CL_SUCCESS, clGetKernelInfo(kernel, CL_KERNEL_FUNCTION_NAME,
                                        sizeof(name), name, nullptr));
  EXPECT_STREQ("square", name);
  size_t wg = 0;
  ASSERT_EQ(CL_SUCCESS,
            clGetKernelWorkGroupInfo(kernel, b.cpu, CL_KERNEL_WORK_GROUP_SIZE,
                                     sizeof(wg), &wg, nullptr));
  EXPECT_GT(wg, 0u);

  // Mem object info.
  cl_mem buf = clCreateBuffer(f.context, CL_MEM_READ_WRITE, 256, nullptr,
                              &err);
  ASSERT_EQ(CL_SUCCESS, err);
  size_t size = 0;
  ASSERT_EQ(CL_SUCCESS, clGetMemObjectInfo(buf, CL_MEM_SIZE, sizeof(size),
                                           &size, nullptr));
  EXPECT_EQ(256u, size);

  // Retain/release balance on every handle type.
  EXPECT_EQ(CL_SUCCESS, clRetainContext(f.context));
  EXPECT_EQ(CL_SUCCESS, clReleaseContext(f.context));
  EXPECT_EQ(CL_SUCCESS, clRetainCommandQueue(f.queue));
  EXPECT_EQ(CL_SUCCESS, clReleaseCommandQueue(f.queue));
  EXPECT_EQ(CL_SUCCESS, clRetainProgram(program));
  EXPECT_EQ(CL_SUCCESS, clReleaseProgram(program));
  EXPECT_EQ(CL_SUCCESS, clRetainKernel(kernel));
  EXPECT_EQ(CL_SUCCESS, clReleaseKernel(kernel));
  EXPECT_EQ(CL_SUCCESS, clRetainMemObject(buf));
  EXPECT_EQ(CL_SUCCESS, clReleaseMemObject(buf));
  cl_uint refs = 0;
  ASSERT_EQ(CL_SUCCESS,
            clGetMemObjectInfo(buf, CL_MEM_REFERENCE_COUNT, sizeof(refs),
                               &refs, nullptr));
  EXPECT_EQ(1u, refs);

  clReleaseMemObject(buf);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  f.destroy();
}

TEST(ClShim, CreateKernelsInProgramBindsSourceOrder) {
  CtxFix f = CtxFix::create();
  const char* src =
      "__kernel void vectoradd(__global const float* a, __global const "
      "float* b, __global float* c) { }\n"
      "__kernel void square(__global const float* in, __global float* out) "
      "{ }\n";
  cl_int err = CL_SUCCESS;
  cl_program p = clCreateProgramWithSource(f.context, 1, &src, nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  ASSERT_EQ(CL_SUCCESS,
            clBuildProgram(p, 0, nullptr, nullptr, nullptr, nullptr));
  cl_uint n = 0;
  ASSERT_EQ(CL_SUCCESS, clCreateKernelsInProgram(p, 0, nullptr, &n));
  ASSERT_EQ(2u, n);
  cl_kernel kernels[2];
  ASSERT_EQ(CL_SUCCESS, clCreateKernelsInProgram(p, 2, kernels, nullptr));
  char name[64] = {0};
  ASSERT_EQ(CL_SUCCESS, clGetKernelInfo(kernels[0], CL_KERNEL_FUNCTION_NAME,
                                        sizeof(name), name, nullptr));
  EXPECT_STREQ("vectoradd", name);
  ASSERT_EQ(CL_SUCCESS, clGetKernelInfo(kernels[1], CL_KERNEL_FUNCTION_NAME,
                                        sizeof(name), name, nullptr));
  EXPECT_STREQ("square", name);
  clReleaseKernel(kernels[0]);
  clReleaseKernel(kernels[1]);
  clReleaseProgram(p);
  f.destroy();
}

TEST(ClShim, SubBufferSharesParentStorage) {
  CtxFix f = CtxFix::create();
  cl_int err = CL_SUCCESS;
  cl_mem parent = clCreateBuffer(f.context, CL_MEM_READ_WRITE, 1024, nullptr,
                                 &err);
  ASSERT_EQ(CL_SUCCESS, err);
  cl_buffer_region region{256, 128};
  cl_mem sub = clCreateSubBuffer(parent, CL_MEM_READ_WRITE,
                                 CL_BUFFER_CREATE_TYPE_REGION, &region, &err);
  ASSERT_EQ(CL_SUCCESS, err);

  size_t offset = 0;
  ASSERT_EQ(CL_SUCCESS, clGetMemObjectInfo(sub, CL_MEM_OFFSET, sizeof(offset),
                                           &offset, nullptr));
  EXPECT_EQ(256u, offset);
  cl_mem reported_parent = nullptr;
  ASSERT_EQ(CL_SUCCESS,
            clGetMemObjectInfo(sub, CL_MEM_ASSOCIATED_MEMOBJECT,
                               sizeof(reported_parent), &reported_parent,
                               nullptr));
  EXPECT_EQ(parent, reported_parent);

  // A write through the sub-buffer lands at parent offset 256.
  std::vector<unsigned char> bytes(128, 0xAB);
  ASSERT_EQ(CL_SUCCESS,
            clEnqueueWriteBuffer(f.queue, sub, CL_TRUE, 0, 128, bytes.data(),
                                 0, nullptr, nullptr));
  std::vector<unsigned char> readback(128, 0);
  ASSERT_EQ(CL_SUCCESS,
            clEnqueueReadBuffer(f.queue, parent, CL_TRUE, 256, 128,
                                readback.data(), 0, nullptr, nullptr));
  EXPECT_EQ(bytes, readback);

  clReleaseMemObject(sub);
  clReleaseMemObject(parent);
  f.destroy();
}

TEST(ClShim, RectAndCopyTransfers) {
  CtxFix f = CtxFix::create();
  cl_int err = CL_SUCCESS;
  // 8x8 byte grid in a 64-byte buffer.
  cl_mem buf = clCreateBuffer(f.context, CL_MEM_READ_WRITE, 64, nullptr,
                              &err);
  ASSERT_EQ(CL_SUCCESS, err);
  std::vector<unsigned char> zeros(64, 0);
  ASSERT_EQ(CL_SUCCESS,
            clEnqueueWriteBuffer(f.queue, buf, CL_TRUE, 0, 64, zeros.data(),
                                 0, nullptr, nullptr));

  // Write a 4x4 block at (2,2) from a host grid with row pitch 8.
  std::vector<unsigned char> host(64);
  for (size_t i = 0; i < host.size(); ++i) {
    host[i] = static_cast<unsigned char>(i);
  }
  size_t buffer_origin[3] = {2, 2, 0};
  size_t host_origin[3] = {0, 0, 0};
  size_t region[3] = {4, 4, 1};
  ASSERT_EQ(CL_SUCCESS,
            clEnqueueWriteBufferRect(f.queue, buf, CL_TRUE, buffer_origin,
                                     host_origin, region, 8, 0, 8, 0,
                                     host.data(), 0, nullptr, nullptr));

  // Read the same block back through the rect path.
  std::vector<unsigned char> block(64, 0xFF);
  ASSERT_EQ(CL_SUCCESS,
            clEnqueueReadBufferRect(f.queue, buf, CL_TRUE, buffer_origin,
                                    host_origin, region, 8, 0, 8, 0,
                                    block.data(), 0, nullptr, nullptr));
  for (size_t row = 0; row < 4; ++row) {
    for (size_t col = 0; col < 4; ++col) {
      EXPECT_EQ(host[row * 8 + col], block[row * 8 + col])
          << "(" << row << "," << col << ")";
    }
  }

  // Device-side copy into a second buffer, then verify via plain read.
  cl_mem dst = clCreateBuffer(f.context, CL_MEM_READ_WRITE, 64, nullptr,
                              &err);
  ASSERT_EQ(CL_SUCCESS, err);
  ASSERT_EQ(CL_SUCCESS, clEnqueueCopyBuffer(f.queue, buf, dst, 0, 0, 64, 0,
                                            nullptr, nullptr));
  ASSERT_EQ(CL_SUCCESS, clFinish(f.queue));
  std::vector<unsigned char> copied(64, 0);
  ASSERT_EQ(CL_SUCCESS,
            clEnqueueReadBuffer(f.queue, dst, CL_TRUE, 0, 64, copied.data(),
                                0, nullptr, nullptr));
  std::vector<unsigned char> direct(64, 0);
  ASSERT_EQ(CL_SUCCESS,
            clEnqueueReadBuffer(f.queue, buf, CL_TRUE, 0, 64, direct.data(),
                                0, nullptr, nullptr));
  EXPECT_EQ(direct, copied);

  clReleaseMemObject(buf);
  clReleaseMemObject(dst);
  f.destroy();
}

TEST(ClShim, UserEventGatesDownstreamWork) {
  CtxFix f = CtxFix::create(CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE);
  cl_int err = CL_SUCCESS;
  cl_mem buf = clCreateBuffer(f.context, CL_MEM_READ_WRITE, 64, nullptr,
                              &err);
  ASSERT_EQ(CL_SUCCESS, err);

  cl_event gate = clCreateUserEvent(f.context, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  cl_int gate_status = CL_QUEUED;
  ASSERT_EQ(CL_SUCCESS,
            clGetEventInfo(gate, CL_EVENT_COMMAND_EXECUTION_STATUS,
                           sizeof(gate_status), &gate_status, nullptr));
  EXPECT_EQ(CL_SUBMITTED, gate_status);

  std::vector<unsigned char> bytes(64, 0x5A);
  cl_event write_ev;
  ASSERT_EQ(CL_SUCCESS,
            clEnqueueWriteBuffer(f.queue, buf, CL_FALSE, 0, 64, bytes.data(),
                                 1, &gate, &write_ev));

  std::atomic<int> callback_fired{0};
  ASSERT_EQ(CL_SUCCESS,
            clSetEventCallback(
                write_ev, CL_COMPLETE,
                [](cl_event, cl_int, void* user) {
                  static_cast<std::atomic<int>*>(user)->fetch_add(1);
                },
                &callback_fired));

  // Not complete while the gate is open.
  cl_int st = CL_COMPLETE;
  ASSERT_EQ(CL_SUCCESS,
            clGetEventInfo(write_ev, CL_EVENT_COMMAND_EXECUTION_STATUS,
                           sizeof(st), &st, nullptr));
  EXPECT_NE(CL_COMPLETE, st);
  EXPECT_EQ(0, callback_fired.load());

  ASSERT_EQ(CL_SUCCESS, clSetUserEventStatus(gate, CL_COMPLETE));
  ASSERT_EQ(CL_SUCCESS, clWaitForEvents(1, &write_ev));
  ASSERT_EQ(CL_SUCCESS,
            clGetEventInfo(write_ev, CL_EVENT_COMMAND_EXECUTION_STATUS,
                           sizeof(st), &st, nullptr));
  EXPECT_EQ(CL_COMPLETE, st);
  // The spec only orders the callback after the status transition, not
  // before clWaitForEvents returns — it may still be in flight on the
  // dispatch thread, so poll with a deadline instead of asserting at once.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (callback_fired.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(1, callback_fired.load());

  std::vector<unsigned char> readback(64, 0);
  ASSERT_EQ(CL_SUCCESS,
            clEnqueueReadBuffer(f.queue, buf, CL_TRUE, 0, 64, readback.data(),
                                0, nullptr, nullptr));
  EXPECT_EQ(bytes, readback);

  clReleaseEvent(gate);
  clReleaseEvent(write_ev);
  clReleaseMemObject(buf);
  f.destroy();
}

TEST(ClShim, TaskMarkerBarrierFlush) {
  CtxFix f = CtxFix::create();
  cl_program program = build_square(f.context);
  cl_int err = CL_SUCCESS;
  cl_kernel kernel = clCreateKernel(program, "square", &err);
  ASSERT_EQ(CL_SUCCESS, err);

  float in = 7.0f, out = 0.0f;
  cl_mem in_buf =
      clCreateBuffer(f.context, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR,
                     sizeof(float), &in, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  cl_mem out_buf = clCreateBuffer(f.context, CL_MEM_WRITE_ONLY, sizeof(float),
                                  nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  ASSERT_EQ(CL_SUCCESS, clSetKernelArg(kernel, 0, sizeof(cl_mem), &in_buf));
  ASSERT_EQ(CL_SUCCESS, clSetKernelArg(kernel, 1, sizeof(cl_mem), &out_buf));

  cl_event task_ev;
  ASSERT_EQ(CL_SUCCESS, clEnqueueTask(f.queue, kernel, 0, nullptr, &task_ev));
  cl_command_type type = 0;
  ASSERT_EQ(CL_SUCCESS, clGetEventInfo(task_ev, CL_EVENT_COMMAND_TYPE,
                                       sizeof(type), &type, nullptr));
  EXPECT_EQ(static_cast<cl_command_type>(CL_COMMAND_TASK), type);

  cl_event marker_ev;
  ASSERT_EQ(CL_SUCCESS, clEnqueueMarker(f.queue, &marker_ev));
  ASSERT_EQ(CL_SUCCESS, clEnqueueWaitForEvents(f.queue, 1, &task_ev));
  ASSERT_EQ(CL_SUCCESS, clEnqueueBarrier(f.queue));
  ASSERT_EQ(CL_SUCCESS, clFlush(f.queue));
  ASSERT_EQ(CL_SUCCESS, clFinish(f.queue));

  ASSERT_EQ(CL_SUCCESS,
            clEnqueueReadBuffer(f.queue, out_buf, CL_TRUE, 0, sizeof(float),
                                &out, 0, nullptr, nullptr));
  EXPECT_EQ(49.0f, out);

  clReleaseEvent(task_ev);
  clReleaseEvent(marker_ev);
  clReleaseMemObject(in_buf);
  clReleaseMemObject(out_buf);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  f.destroy();
}

TEST(ClShim, ScalarArgBoundByValue) {
  // square_coalesced's third parameter is a 4-byte uint: not pointer-sized,
  // so clSetKernelArg must copy it as a scalar, and each work-item then
  // squares per_item consecutive elements.
  CtxFix f = CtxFix::create();
  const char* src =
      "__kernel void square_coalesced(__global const float* in, "
      "__global float* out, uint per_item) { }";
  cl_int err = CL_SUCCESS;
  cl_program program =
      clCreateProgramWithSource(f.context, 1, &src, nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  ASSERT_EQ(CL_SUCCESS,
            clBuildProgram(program, 0, nullptr, nullptr, nullptr, nullptr));
  cl_kernel kernel = clCreateKernel(program, "square_coalesced", &err);
  ASSERT_EQ(CL_SUCCESS, err);

  constexpr size_t kN = 1000;
  const cl_uint per_item = 10;
  std::vector<float> in(kN, 3.0f), out(kN, 0.0f);
  cl_mem in_buf =
      clCreateBuffer(f.context, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR,
                     kN * sizeof(float), in.data(), &err);
  ASSERT_EQ(CL_SUCCESS, err);
  cl_mem out_buf = clCreateBuffer(f.context, CL_MEM_WRITE_ONLY,
                                  kN * sizeof(float), nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  ASSERT_EQ(CL_SUCCESS, clSetKernelArg(kernel, 0, sizeof(cl_mem), &in_buf));
  ASSERT_EQ(CL_SUCCESS, clSetKernelArg(kernel, 1, sizeof(cl_mem), &out_buf));
  ASSERT_EQ(CL_SUCCESS,
            clSetKernelArg(kernel, 2, sizeof(per_item), &per_item));

  const size_t global = kN / per_item;
  ASSERT_EQ(CL_SUCCESS, clEnqueueNDRangeKernel(f.queue, kernel, 1, nullptr,
                                               &global, nullptr, 0, nullptr,
                                               nullptr));
  ASSERT_EQ(CL_SUCCESS,
            clEnqueueReadBuffer(f.queue, out_buf, CL_TRUE, 0,
                                kN * sizeof(float), out.data(), 0, nullptr,
                                nullptr));
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(9.0f, out[i]) << "item " << i;

  clReleaseMemObject(in_buf);
  clReleaseMemObject(out_buf);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  f.destroy();
}

TEST(ClShim, FailedUpstreamEventFailsDependentRead) {
  CtxFix f = CtxFix::create(CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE);
  cl_int err = CL_SUCCESS;
  cl_mem buf = clCreateBuffer(f.context, CL_MEM_READ_WRITE, 64, nullptr,
                              &err);
  ASSERT_EQ(CL_SUCCESS, err);
  cl_event gate = clCreateUserEvent(f.context, &err);
  ASSERT_EQ(CL_SUCCESS, err);

  std::vector<unsigned char> host(64, 0);
  cl_event read_ev;
  ASSERT_EQ(CL_SUCCESS,
            clEnqueueReadBuffer(f.queue, buf, CL_FALSE, 0, 64, host.data(), 1,
                                &gate, &read_ev));
  ASSERT_EQ(CL_SUCCESS, clSetUserEventStatus(gate, -5));

  // The failure propagates along the wait edge instead of running the read.
  EXPECT_EQ(CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST,
            clWaitForEvents(1, &read_ev));
  cl_int st = CL_COMPLETE;
  ASSERT_EQ(CL_SUCCESS,
            clGetEventInfo(read_ev, CL_EVENT_COMMAND_EXECUTION_STATUS,
                           sizeof(st), &st, nullptr));
  EXPECT_LT(st, 0);
  ASSERT_EQ(CL_SUCCESS, clFinish(f.queue));

  clReleaseEvent(read_ev);
  clReleaseEvent(gate);
  clReleaseMemObject(buf);
  f.destroy();
}

// ---------------------------------------------------------------------------
// MCL extensions (CL/cl_ext_mcl.h). Invalid inputs are in the error matrix.

TEST(ClShimExt, PureCTranslationUnit) {
  mcl::prof::start();
  EXPECT_EQ(0, mcl_cl_ext_c_smoke());
  mcl::prof::stop();
}

TEST(ClShimExt, EventKernelProfile) {
  CtxFix f = CtxFix::create();
  cl_program program = build_square(f.context);
  cl_int err = CL_SUCCESS;
  cl_kernel kernel = clCreateKernel(program, "square", &err);
  ASSERT_EQ(CL_SUCCESS, err);
  constexpr size_t kN = 512;
  cl_mem buf = clCreateBuffer(f.context, CL_MEM_READ_WRITE,
                              kN * sizeof(float), nullptr, &err);
  ASSERT_EQ(CL_SUCCESS, err);
  ASSERT_EQ(CL_SUCCESS, clSetKernelArg(kernel, 0, sizeof(cl_mem), &buf));
  ASSERT_EQ(CL_SUCCESS, clSetKernelArg(kernel, 1, sizeof(cl_mem), &buf));

  const size_t global = kN, local = 64;
  cl_kernel_profile_mcl p;
  cl_event unprofiled;
  ASSERT_EQ(CL_SUCCESS, clEnqueueNDRangeKernel(f.queue, kernel, 1, nullptr,
                                               &global, &local, 0, nullptr,
                                               &unprofiled));
  ASSERT_EQ(CL_SUCCESS, clWaitForEvents(1, &unprofiled));
  EXPECT_EQ(CL_PROFILING_INFO_NOT_AVAILABLE,
            clGetEventKernelProfileMCL(unprofiled, &p))
      << "launched with no profiling session";

  mcl::prof::start();
  cl_event ev;
  ASSERT_EQ(CL_SUCCESS, clEnqueueNDRangeKernel(f.queue, kernel, 1, nullptr,
                                               &global, &local, 0, nullptr,
                                               &ev));
  ASSERT_EQ(CL_SUCCESS, clWaitForEvents(1, &ev));
  ASSERT_EQ(CL_SUCCESS, clGetEventKernelProfileMCL(ev, &p));
  EXPECT_GT(p.seconds, 0.0);
  // Graceful degradation: `hardware` says whether cycles/ipc are real.
  if (p.hardware == CL_FALSE) {
    EXPECT_EQ(0u, p.cycles);
    EXPECT_EQ(0.0, p.ipc);
  } else {
    EXPECT_GT(p.cycles, 0u);
    EXPECT_GT(p.ipc, 0.0);
  }

  // A transfer event is not a kernel: no profile to fetch.
  std::vector<float> host(kN);
  cl_event read_ev;
  ASSERT_EQ(CL_SUCCESS,
            clEnqueueReadBuffer(f.queue, buf, CL_TRUE, 0, kN * sizeof(float),
                                host.data(), 0, nullptr, &read_ev));
  EXPECT_EQ(CL_PROFILING_INFO_NOT_AVAILABLE,
            clGetEventKernelProfileMCL(read_ev, &p));
  mcl::prof::stop();

  clReleaseEvent(unprofiled);
  clReleaseEvent(ev);
  clReleaseEvent(read_ev);
  clReleaseMemObject(buf);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  f.destroy();
}

}  // namespace
