// Shared pieces of mclperf, the MiniCL benchmark: options, exact percentiles,
// the metric report, the in-memory span log of traced runs, and the host
// meta block every result is stamped with.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perf {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: corrupt exactly one program output after it is produced and
  /// before it is checked, to prove the checks catch it (selftest.py).
  bool corrupt_one = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  long run_index = 0;
};

/// Absolute steady-clock nanoseconds; the same epoch the runtime uses for
/// event-profiling timestamps, so the two can be subtracted.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Exact order statistics over raw per-op samples (no bucketing).
class Samples {
 public:
  void add(double v) { v_.push_back(v); sorted_ = false; }
  void reserve(std::size_t n) { v_.reserve(n); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  /// Nearest-rank percentile: the smallest sample with at least p% of the
  /// samples at or below it. 0 when empty.
  [[nodiscard]] double pct(double p) const;
  /// Samples strictly after the nearest-rank position of pct(p).
  [[nodiscard]] std::size_t beyond(double p) const;

 private:
  void sort() const;
  [[nodiscard]] std::size_t rank(double p) const;
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

/// CPU time the hypervisor gave to other guests ("steal") and all CPU
/// time, in clock ticks since boot, from /proc/stat; zeros when unreadable.
struct CpuTicks {
  double steal = 0, total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Outcome of a timed phase of one workload.
class OpStats {
 public:
  /// One successful op: when it completed (seconds into the phase), its
  /// latency and the bytes it moved (computed from array sizes).
  struct Op {
    float t_s, us, bytes;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed, refused, timed out or wrong
  std::uint64_t wrong = 0;   ///< of the failed: ran, but wrong output
  double wall_s = 0.0;       ///< duration of the timed phase

  void record(double t_s, double us, double bytes) {
    if (n_ % kChunk == 0) chunks_.push_back(std::make_unique<Op[]>(kChunk));
    chunks_.back()[n_ % kChunk] = {float(t_s), float(us), float(bytes)};
    ++n_;
  }
  /// Successful ops recorded.
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] const Op& op(std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }
  /// Memory the op store holds. It grows in fixed chunks, never by
  /// reallocation, so this is all it adds to the peak resident set.
  [[nodiscard]] std::size_t store_bytes() const noexcept {
    return chunks_.size() * kChunk * sizeof(Op);
  }
  /// The successful ops' latencies (us).
  [[nodiscard]] Samples latencies() const;

  /// Samples the host's CPU ticks every twentieth of a phase of `seconds`;
  /// call at the phase start (t_s = 0) and then as it runs.
  void start_ticks(double seconds) {
    tick_every_ = seconds / 20.0;
    next_tick_ = 0.0;
    tick(0.0);
  }
  void tick(double t_s) {
    if (t_s < next_tick_) return;
    ticks_.push_back({t_s, cpu_ticks()});
    next_tick_ = t_s + tick_every_;
  }
  /// Steal share of the host's CPU time within [t0, t1), from the samples
  /// around it; 0 without samples.
  [[nodiscard]] double steal_frac(double t0, double t1) const;

 private:
  struct Tick {
    double t_s;
    CpuTicks cpu;
  };
  std::vector<Tick> ticks_;
  double tick_every_ = 0.0, next_tick_ = 0.0;

  static constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::vector<std::unique_ptr<Op[]>> chunks_;
  std::size_t n_ = 0;
};

/// Steal share by which a window may exceed the least-stolen one and still
/// be kept (see Windowed).
constexpr double kStealTolerance = 0.01;

/// End-to-end figures of a phase, each the median over equal time windows
/// of the phase (gbytes_per_s: of each window's median per-op data rate).
/// There are as many windows (at most 10) as keep 1000 ops in each, so
/// every window's p99 has at least ten samples beyond it. The median is
/// taken over every window whose steal share (CPU time the hypervisor gave
/// to other guests) is within kStealTolerance of the least-stolen window's,
/// and over at least three tenths of the windows: a window whose CPUs were
/// given to other guests measures the host, not the program. On a quiet
/// host that keeps every window, so the figures span the whole phase.
/// Windows are chosen by steal alone, never by the measured values.
struct Windowed {
  double ops_per_s = 0, p50_us = 0, p99_us = 0, gbytes_per_s = 0;
  std::size_t windows = 0, kept = 0;
  std::size_t min_beyond = 0;  ///< fewest samples beyond p99 in a window
  double kept_steal = 0, dropped_steal = 0;  ///< mean steal share
};
[[nodiscard]] Windowed windowed(const OpStats& s);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `metrics` is what the last stdout line
/// carries; `notes` are extra name=value facts for the result file.
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, value, unit});
  }
  void count(const OpStats& s) {
    attempted += s.attempted;
    failed += s.failed;
    wrong += s.wrong;
  }
};

/// One traced layer call: name, interval, parent span and op id.
struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the log, -1 for a root
  std::uint64_t op = 0;
};

/// In-memory span log of a traced run; written out once, at exit.
class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  /// Opens a span and returns its index (children name it as parent).
  std::int64_t open(const char* name, std::uint64_t op, std::int64_t parent,
                    std::uint64_t start_ns) {
    spans_.push_back({name, start_ns, start_ns, parent, op});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t idx, std::uint64_t end_ns) {
    spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
  }
  /// Records an already finished span.
  std::int64_t add(const char* name, std::uint64_t op, std::int64_t parent,
                   std::uint64_t start_ns, std::uint64_t end_ns) {
    spans_.push_back({name, start_ns, end_ns, parent, op});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;  ///< total minus the time its children cover
  };
  /// Per-name totals; self time is each span minus its direct children.
  [[nodiscard]] std::vector<SelfTime> self_times() const;
  /// Writes one JSON object per span (name, start, end, parent, op).
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Pointer-or-null helpers so call sites stay one line when untraced.
inline std::int64_t span_open(SpanLog* log, const char* name, std::uint64_t op,
                              std::int64_t parent, std::uint64_t start_ns) {
  return log != nullptr ? log->open(name, op, parent, start_ns) : -1;
}
inline void span_close(SpanLog* log, std::int64_t idx, std::uint64_t end_ns) {
  if (log != nullptr && idx >= 0) log->close(idx, end_ns);
}
inline void span_add(SpanLog* log, const char* name, std::uint64_t op,
                     std::int64_t parent, std::uint64_t start_ns,
                     std::uint64_t end_ns) {
  if (log != nullptr) log->add(name, op, parent, start_ns, end_ns);
}

/// Host and build description stamped on every result.
struct Meta {
  std::string cpu_model;
  int nproc = 0;
  std::size_t l1d_bytes = 0, l2_bytes = 0, l3_bytes = 0;
  std::string isa;
  std::string compiler;
  std::string build_type;
  std::string git_sha;
  std::string source_digest;
  std::uint64_t seed = 0;
  long run_index = 0;
};

[[nodiscard]] Meta make_meta(const Options& opt);
[[nodiscard]] std::string meta_json(const Meta& m);

/// Peak resident set of this process image in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// The end-to-end metrics every workload reports, from its timed phase.
void add_end_to_end(Report& r, const OpStats& s, double setup_s);

[[nodiscard]] inline std::uint64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

}  // namespace perf
