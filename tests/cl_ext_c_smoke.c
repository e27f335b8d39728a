/* Proves CL/cl_ext_mcl.h compiles and links as plain C: one profiled
 * `square` launch through CL/cl.h, then the kernel-profile and
 * metrics-snapshot extensions on its event. Returns 0 on success, else the
 * number of the failed step (asserted by ClShimExt.PureCTranslationUnit).
 * The caller owns the profiling session. */
#include <string.h>

#include <CL/cl.h>
#include <CL/cl_ext_mcl.h>

int mcl_cl_ext_c_smoke(void) {
  static const char* src =
      "__kernel void square(__global const float* in, "
      "__global float* out) { }";
  enum { N = 256 };
  float host[N];
  cl_platform_id platform;
  cl_device_id device;
  cl_int err = CL_SUCCESS;
  int rc = 0;
  for (int i = 0; i < N; ++i) host[i] = (float)i;

  if (clGetPlatformIDs(1, &platform, NULL) != CL_SUCCESS) return 1;
  if (clGetDeviceIDs(platform, CL_DEVICE_TYPE_CPU, 1, &device, NULL) !=
      CL_SUCCESS)
    return 2;
  cl_context ctx = clCreateContext(NULL, 1, &device, NULL, NULL, &err);
  if (err != CL_SUCCESS) return 3;
  cl_command_queue queue = clCreateCommandQueue(ctx, device, 0, &err);
  if (err != CL_SUCCESS) return 4;
  cl_program program = clCreateProgramWithSource(ctx, 1, &src, NULL, &err);
  if (err != CL_SUCCESS) return 5;
  if (clBuildProgram(program, 0, NULL, NULL, NULL, NULL) != CL_SUCCESS)
    return 6;
  cl_kernel kernel = clCreateKernel(program, "square", &err);
  if (err != CL_SUCCESS) return 7;
  cl_mem buf = clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR,
                              sizeof(host), host, &err);
  if (err != CL_SUCCESS) return 8;
  if (clSetKernelArg(kernel, 0, sizeof(cl_mem), &buf) != CL_SUCCESS ||
      clSetKernelArg(kernel, 1, sizeof(cl_mem), &buf) != CL_SUCCESS)
    return 9;

  size_t global = N, local = 64;
  cl_event ev;
  if (clEnqueueNDRangeKernel(queue, kernel, 1, NULL, &global, &local, 0, NULL,
                             &ev) != CL_SUCCESS)
    return 10;
  if (clWaitForEvents(1, &ev) != CL_SUCCESS) return 11;

  cl_kernel_profile_mcl p;
  if (clGetEventKernelProfileMCL(ev, &p) != CL_SUCCESS) rc = 12;
  else if (strcmp(p.kernel, "square") != 0) rc = 13;
  else if (p.launches != 1 || p.items != N || p.workgroups != N / 64) rc = 14;

  size_t size = 0;
  char small[8];
  memset(small, 'x', sizeof(small));
  if (rc == 0 && (clGetMetricsSnapshotMCL(0, NULL, &size) != CL_SUCCESS ||
                  size < 3))
    rc = 15;
  if (rc == 0 && clGetMetricsSnapshotMCL(sizeof(small), small, NULL) !=
                     CL_SUCCESS)
    rc = 16;
  if (rc == 0 && (small[0] != '{' || small[sizeof(small) - 1] != '\0'))
    rc = 17; /* truncating copy, always NUL-terminated */

  clReleaseEvent(ev);
  clReleaseMemObject(buf);
  clReleaseKernel(kernel);
  clReleaseProgram(program);
  clReleaseCommandQueue(queue);
  clReleaseContext(ctx);
  return rc;
}
