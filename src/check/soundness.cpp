#include "check/soundness.hpp"

#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "check/interp.hpp"
#include "check/reference.hpp"
#include "core/error.hpp"
#include "ocl/detail/checked_runner.hpp"
#include "ocl/device.hpp"
#include "ocl/queue.hpp"
#include "veclegal/kernel_ir.hpp"
#include "verify/interval.hpp"
#include "verify/verify.hpp"

namespace mcl::check {

namespace {

/// Registry name the oracle (re)registers under. Distinct from
/// "mclcheck.case" so soundness runs can never leave stale IR behind for the
/// differential fuzzer sharing the process.
constexpr const char* kName = "mclcheck.soundness";

constexpr std::size_t kFailureCap = 16;

/// What one forced-full-replay launch produced: the discharged proof (copied
/// out of the runner) and the ground-truth flagged set.
struct Outcome {
  bool has_proof = false;
  verify::LaunchProof proof;
  std::set<int> flagged;
  std::vector<std::string> findings;
};

void record_failure(SoundnessStats& stats, std::string line) {
  ++stats.violations;
  if (stats.failures.size() < kFailureCap)
    stats.failures.push_back(std::move(line));
}

/// Cross-checks one launch: every array the proof covers must be absent from
/// the dynamic replay's flagged set. Returns false on a violation.
bool check_outcome(const Case& c, const verify::KernelFacts& facts,
                   const Outcome& o, const char* phase,
                   SoundnessStats& stats) {
  if (!o.has_proof) return true;  // no replay/proof (e.g. MCL_VERIFY=off)
  bool ok = true;
  const std::size_t count =
      facts.arrays.size() < o.proof.array_proven.size()
          ? facts.arrays.size()
          : o.proof.array_proven.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (!o.proof.array_proven[i]) continue;
    ++stats.proven_arrays;
    const int id = facts.arrays[i].array;
    if (o.flagged.count(id) != 0) {
      ok = false;
      std::ostringstream msg;
      msg << "seed " << c.seed << " [" << phase << "]: array #" << id
          << " statically proven safe but dynamically flagged";
      for (const std::string& f : o.findings) msg << "\n    " << f;
      record_failure(stats, msg.str());
    }
  }
  if (o.proof.all_proven()) ++stats.fully_proven;
  stats.accesses_covered += o.proof.accesses_covered;
  return ok;
}

}  // namespace

bool run_soundness_case(const Case& c, SoundnessStats& stats) {
  ++stats.cases;
  if (const auto err = validate(c)) {
    throw core::Error(core::Status::InvalidValue,
                      "soundness: invalid case (seed " +
                          std::to_string(c.seed) + "): " + *err);
  }

  // The IR and its proofs cover the active-item space [0, work_items); a
  // guarded case launches more items than that, with the extras masked by the
  // body's id guard, which the gid-indexed IR cannot express. Reshape the
  // launch to exactly the active space — legal because guarded cases are
  // barrier- and local-free by construction (see generator.cpp), so neither
  // group geometry nor epoch structure can change the program.
  Case sc = c;
  if (static_cast<long long>(sc.global) != sc.work_items) {
    sc.global = static_cast<std::size_t>(sc.work_items);
    sc.local = 1;
  }

  const veclegal::KernelIr ir = lower_to_ir(sc);
  auto& reg = veclegal::KernelIrRegistry::instance();
  // Re-registering per case is deliberate: it exercises the registry's
  // analysis-cache invalidation on every single program the fuzzer makes.
  reg.add(kName, ir);

  ocl::KernelDef def = make_kernel_def(sc, /*with_simd=*/false);
  def.name = kName;

  // One device for the whole fuzzing run (thread pools are expensive); the
  // checking itself happens in the CheckedRunner driven directly below, so
  // the device only provides transfer plumbing.
  static ocl::CpuDevice device{ocl::CpuDeviceConfig{}};
  ocl::Context ctx(device);
  std::vector<ocl::Buffer> buffers;
  buffers.reserve(sc.arrays.size());
  for (const Array& a : sc.arrays) {
    // Local arrays get a 4-byte placeholder so indices line up; bind_args
    // issues set_arg_local for those slots instead of binding the buffer.
    const std::size_t bytes =
        a.local ? sizeof(std::uint32_t)
                : static_cast<std::size_t>(a.extent) * sizeof(std::uint32_t);
    buffers.push_back(ctx.create_buffer(
        a.read_only ? ocl::MemFlags::ReadOnly : ocl::MemFlags::ReadWrite,
        bytes));
  }
  ocl::CommandQueue q(ctx);
  const Memory init = initial_memory(sc);
  for (std::size_t i = 0; i < sc.arrays.size(); ++i) {
    if (sc.arrays[i].local) continue;
    q.enqueue_write_buffer(buffers[i], 0,
                           init.arrays[i].size() * sizeof(std::uint32_t),
                           init.arrays[i].data());
  }

  ocl::Kernel kernel(def);
  std::vector<ocl::Buffer*> ptrs;
  for (ocl::Buffer& b : buffers) ptrs.push_back(&b);
  bind_args(kernel, sc, ptrs);

  // The kernel and args are shape-invariant across the two runs; only the
  // registered IR changes between them, and the runner re-reads it (and
  // re-discharges the proof) on every run().
  const auto drive = [&]() {
    ocl::detail::CheckedRunner runner(def, kernel.args(),
                                      ocl::NDRange(sc.global),
                                      ocl::NDRange(sc.local));
    runner.set_force_full_replay(true);
    try {
      runner.run();
    } catch (const core::Error&) {
      // Findings (the ground truth) stay recorded on the runner; a throwing
      // run is exactly what the boundary variant expects.
    }
    ++stats.launches;
    Outcome o;
    o.flagged = runner.flagged_arrays();
    o.findings = runner.findings();
    if (runner.launch_proof() != nullptr) {
      o.has_proof = true;
      o.proof = *runner.launch_proof();
    }
    return o;
  };

  const auto facts = verify::facts_for(kName);
  const Outcome base = drive();
  bool ok = facts != nullptr && check_outcome(sc, *facts, base, "base", stats);
  if (facts == nullptr) ok = true;  // registry lookup raced/disabled: nothing to check

  // ---- boundary variant ----------------------------------------------------
  // Shrink ONE proven array's DECLARED extent to exactly the highest index
  // the launch reaches, so the dynamic replay must flag B1 on it while an
  // honest discharge must now refuse the proof (the obligation is hi <
  // extent, and hi == extent after the shrink). Only the declared metadata
  // changes — the real buffer keeps its full size, so the interpreter never
  // actually runs out of bounds. Under MCL_CHECK_INJECT=verify the discharge
  // is deliberately lax (hi <= extent) and MUST produce a violation here.
  if (facts != nullptr && base.has_proof) {
    int victim = -1;
    verify::Wide victim_hi = 0;
    for (std::size_t i = 0;
         i < facts->arrays.size() && i < base.proof.array_proven.size(); ++i) {
      const verify::ArrayFacts& af = facts->arrays[i];
      if (!base.proof.array_proven[i] || af.accesses.empty() || af.local)
        continue;
      verify::Wide hi = 0;
      for (const verify::AccessFacts& a : af.accesses) {
        const verify::Interval iv = verify::Interval::affine(
            a.scale, a.offset, 0, static_cast<verify::Wide>(sc.global));
        if (iv.hi > hi) hi = iv.hi;
      }
      // hi >= 1 keeps the shrunk extent positive (discharge refuses extent
      // <= 0 outright, injected or not, which would mask the fault hook).
      if (hi >= 1) {
        victim = af.array;
        victim_hi = hi;
        break;
      }
    }
    if (victim >= 0) {
      ++stats.boundary_checks;
      veclegal::KernelIr shrunk = ir;
      for (veclegal::ArrayInfo& info : shrunk.arrays) {
        if (info.array == victim)
          info.extent = static_cast<long long>(victim_hi);
      }
      reg.add(kName, shrunk);
      const auto facts2 = verify::facts_for(kName);
      const Outcome variant = drive();
      if (variant.flagged.count(victim) == 0) {
        // The oracle's own ground truth failed to fire: index hi == extent
        // is reached by construction, so a missing B1 means the replay (not
        // the proof) is broken. Loud failure either way.
        ok = false;
        record_failure(stats,
                       "seed " + std::to_string(c.seed) +
                           " [boundary]: shrunk array #" +
                           std::to_string(victim) +
                           " was not flagged by full replay (oracle broken)");
      }
      if (facts2 != nullptr &&
          !check_outcome(sc, *facts2, variant, "boundary", stats)) {
        ok = false;
      }
    }
  }

  return ok;
}

}  // namespace mcl::check
