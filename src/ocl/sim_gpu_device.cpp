#include "ocl/detail/group_runner.hpp"
#include "ocl/device.hpp"

namespace mcl::ocl {

SimGpuDevice::SimGpuDevice(gpusim::GpuSpec spec) : spec_(spec) {}

std::string SimGpuDevice::name() const {
  return "Simulated GeForce GTX 580 (Hong-Kim analytical model)";
}

LaunchResult SimGpuDevice::launch(const KernelDef& def, const KernelArgs& args,
                                  const NDRange& global, const NDRange& local,
                                  const NDRange& offset) {
  // Functional execution on the host (single-threaded, barrier-capable so
  // local-memory kernels stay correct): Auto's pick minus Simd, since lane
  // coalescing is a CPU-compiler concern.
  const std::vector<ExecutorKind> legal = legal_executors(def);
  const ExecutorKind kind = !legal.empty() && legal.front() == ExecutorKind::Simd
                                ? legal[1]
                                : ExecutorKind::Auto;
  detail::GroupRunner runner(def, args, global, local, kind, offset);

  LaunchResult result;
  result.local_used = runner.local();
  result.executor_used = runner.executor();

  const core::TimePoint t0 = core::now();
  for (std::size_t g = 0; g < runner.total_groups(); ++g) runner.run_group(g);
  const core::Seconds measured = core::elapsed_s(t0, core::now());

  if (def.gpu_cost != nullptr) {
    const gpusim::KernelCost cost = def.gpu_cost(args, global, runner.local());
    gpusim::LaunchGeometry geom;
    geom.global_items = global.total();
    geom.local_items = runner.local().total();
    result.sim = gpusim::simulate(spec_, cost, geom);
    result.seconds = result.sim.seconds;
    result.simulated = true;
  } else {
    // No cost model: fall back to (meaningless for comparisons) wall time so
    // correctness tests can still run any kernel on this device.
    result.seconds = measured;
    result.simulated = false;
  }
  return result;
}

}  // namespace mcl::ocl
