// The three benchmark workloads. Each owns its inputs (made from the seed),
// its program-facing set-up, its timed phase and the per-layer group it is
// the home of (see NOTES.md for the layer -> metric -> workload table).
#pragma once

#include <memory>
#include <string>

#include "common.hpp"

namespace perf {

class Workload {
 public:
  virtual ~Workload() = default;

  /// One program-facing set-up (platform, context, program, buffers,
  /// server); returns its seconds, which start at the call and leave out
  /// the benchmark's own reference outputs computed afterwards. The timed
  /// phases use the last set-up.
  virtual double setup() = 0;

  /// The timed phase. `log` is null in untraced runs.
  virtual OpStats run(double seconds, SpanLog* log) = 0;

  /// Measures this workload's per-layer group into `r` within `seconds`.
  virtual void layers(double seconds, SpanLog* log, Report& r) = 0;
};

std::unique_ptr<Workload> make_launch_storm(const Options& opt);
std::unique_ptr<Workload> make_paper_suite(const Options& opt);
std::unique_ptr<Workload> make_serve_mix(const Options& opt);

/// Shared by all workloads: the one-shot corruption hook of --corrupt-one.
/// Returns true exactly once per process when the option is set.
[[nodiscard]] bool take_corruption(const Options& opt);

}  // namespace perf
