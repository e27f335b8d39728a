/* MiniCL vendor extensions to the CL/cl.h host API (suffix MCL).
 *
 * The runtime facilities with no OpenCL equivalent, taking the standard
 * cl_event / cl_kernel / cl_device_id handles: host-phase trace annotation,
 * per-event kernel profiles, the metrics snapshot, and the self-tuner.
 * They are ordinary entry points of the shim (src/ocl/cl_shim.cpp), linked
 * directly like every cl.h symbol. There is no ICD loader, so
 * clGetExtensionFunctionAddress returns NULL for these names and
 * CL_PLATFORM_EXTENSIONS stays empty.
 *
 * The header compiles as both C and C++.
 */
#ifndef MCL_CL_EXT_MCL_H_
#define MCL_CL_EXT_MCL_H_

#include <CL/cl.h>

#ifdef __cplusplus
extern "C" {
#endif

/* --- tracing (see docs/tracing.md) ----------------------------------------- */

/* Annotate host phases on the mcltrace timeline. Recording is runtime-gated
 * (MCL_TRACE=path.json, or a bench binary's --trace); when tracing is off
 * these calls cost one relaxed atomic load. Begin opens a span on the
 * calling thread, End closes the innermost open span, Counter samples a
 * named value. The name is copied and need not outlive the call.
 * CL_INVALID_VALUE when name is NULL. */
CL_API_ENTRY cl_int CL_API_CALL clTraceBeginMCL(const char* name);
CL_API_ENTRY cl_int CL_API_CALL clTraceEndMCL(const char* name);
CL_API_ENTRY cl_int CL_API_CALL clTraceCounterMCL(const char* name,
                                                  cl_double value);

/* --- profiling (see docs/metrics.md) --------------------------------------- */

/* Per-launch profile of a kernel command. When the PMU is unavailable the
 * software-derived fields (seconds, achieved_gbps) are still filled and the
 * counter fields are zero; `hardware` says which case applies. */
typedef struct cl_kernel_profile_mcl {
  char kernel[64]; /* kernel name, truncated, NUL-terminated */
  cl_ulong launches;
  cl_ulong workgroups;
  cl_ulong items;
  cl_ulong cycles;
  cl_ulong instructions;
  cl_ulong cache_references;
  cl_ulong cache_misses;
  cl_ulong branches;
  cl_ulong branch_misses;
  cl_double seconds;
  cl_double ipc;
  cl_double cache_miss_rate;
  cl_double bytes_per_cycle;
  cl_double achieved_gbps;
  cl_bool hardware; /* CL_TRUE when counters came from perf_event_open */
} cl_kernel_profile_mcl;

/* Fills *profile for a completed kernel event. A profiling session must
 * have been active at launch (MCL_PROF=path, or a bench --profile run).
 * CL_INVALID_EVENT for a NULL event, CL_INVALID_VALUE for a NULL profile,
 * CL_PROFILING_INFO_NOT_AVAILABLE when the event is not a completed kernel
 * command or no session was active. */
CL_API_ENTRY cl_int CL_API_CALL clGetEventKernelProfileMCL(
    cl_event event, cl_kernel_profile_mcl* profile);

/* Copies the mclprof metrics registry as a JSON object
 * ({"counters": ..., "gauges": ..., "histograms": ...}) into buf, truncated
 * and always NUL-terminated when buf_size > 0. *size_ret (optional)
 * receives the full size including the NUL; buf may be NULL for a pure size
 * query. CL_INVALID_VALUE when both buf and size_ret are NULL. */
CL_API_ENTRY cl_int CL_API_CALL clGetMetricsSnapshotMCL(size_t buf_size,
                                                        char* buf,
                                                        size_t* size_ret);

/* --- self-tuning (see docs/tune.md) ---------------------------------------- */

/* Tuning modes (clSetTuningModeMCL, or the MCL_TUNE environment variable).
 *   OFF:    launches run exactly as configured (the default).
 *   SEED:   the cost model's top-ranked legal config is applied; no
 *           exploration launches happen.
 *   ONLINE: SEED plus bounded explore/exploit refinement from measured
 *           launch times, with a regression guard. */
#define CL_TUNE_OFF_MCL 0
#define CL_TUNE_SEED_MCL 1
#define CL_TUNE_ONLINE_MCL 2

/* Sets the process-wide tuning mode, overriding MCL_TUNE, for subsequent
 * launches; learned state is kept. CL_INVALID_VALUE for an unknown mode. */
CL_API_ENTRY cl_int CL_API_CALL clSetTuningModeMCL(cl_int mode);

/* The tuner's recommendation for one launch shape. */
typedef struct cl_tuned_config_mcl {
  /* Recommended local size; work_dim == 0 means "no override" (keep the
   * caller's local size or the runtime default). */
  size_t local_size[3];
  cl_uint work_dim;
  cl_int executor;       /* 0 auto, 1 loop, 2 fiber, 3 simd */
  cl_uint chunk_divisor; /* chunk = clamp(groups/(threads*divisor), 1, 64) */
  cl_bool work_stealing; /* CL_TRUE: work-stealing dispatch order */
  cl_bool prefer_map;    /* CL_TRUE: map/unmap beats explicit copies */
} cl_tuned_config_mcl;

/* Fills *config with the best known config for launching `kernel` on
 * `device` over global_size with a NULL local size: the measured incumbent
 * when the tuner has explored this shape, else the cost model's seed
 * ranking. Tuner entries are keyed on the device's compute units, so a
 * sub-device query reads its shard-width entry. A pure query in every
 * tuning mode. Errors follow clEnqueueNDRangeKernel: CL_INVALID_KERNEL,
 * CL_INVALID_DEVICE (NULL, or not in the kernel's context),
 * CL_INVALID_WORK_DIMENSION, CL_INVALID_GLOBAL_WORK_SIZE, and
 * CL_INVALID_VALUE for a NULL config. */
CL_API_ENTRY cl_int CL_API_CALL clGetKernelTunedConfigMCL(
    cl_kernel kernel, cl_device_id device, cl_uint work_dim,
    const size_t* global_size, cl_tuned_config_mcl* config);

#ifdef __cplusplus
}
#endif

#endif /* MCL_CL_EXT_MCL_H_ */
