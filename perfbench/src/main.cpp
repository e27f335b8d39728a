// mclperf — the MiniCL benchmark.
//
//   mclperf --workload launch-storm|paper-suite|serve-mix --seed N
//           --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//           [--source-digest HEX] [--run-index N] [--corrupt-one]
//   mclperf --setup-probe --workload W --seed N
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics and write the span log. Before
// its timed phase an untraced run times kSetupProbes cold set-ups, each in
// a fresh child process started with --setup-probe: setup_s is their
// median time from spawning the child to its set-up being done, so it
// covers process start and what a process creates only once (the
// platform's device and thread pool, the cl.h root device, the builtin
// program registry). Every metric is printed as "name value unit" first;
// the last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}. The full result
// with the host meta block goes to DIR/<workload>-s<seed>-t<trace>.result.json
// and, for traced runs, the span log to DIR/<workload>-s<seed>-t1.spans.jsonl.
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perf;

constexpr int kSetupProbes = 15;  ///< cold set-ups per run; setup_s is their median

/// One-shot corruption hook shared by all workloads (see Options); taken
/// from completion callbacks too, hence atomic.
std::atomic<bool> g_corruption_taken{false};

std::unique_ptr<Workload> make(const std::string& name, const Options& opt) {
  if (name == "launch-storm") return make_launch_storm(opt);
  if (name == "paper-suite") return make_paper_suite(opt);
  if (name == "serve-mix") return make_serve_mix(opt);
  return nullptr;
}

/// Per-layer run: the workload's own timed phase untraced and traced (the
/// p50 difference is the tracing overhead), then every layer group, so the
/// per-layer list is complete whichever workload is named.
void traced_run(const Options& opt, Workload& w, Report& r, SpanLog& log) {
  const double s = opt.seconds;
  // Untraced and traced rounds alternate so drift on the host hits both.
  Samples plain, traced;
  for (int round = 0; round < 4; ++round) {
    const bool on = round % 2 == 1;
    const OpStats o = w.run(s * (on ? 0.05 : 0.10), on ? &log : nullptr);
    r.count(o);
    for (std::size_t i = 0; i < o.count(); ++i) {
      (on ? traced : plain).add(o.op(i).us);
    }
  }
  r.add("op_p99_us", plain.pct(99), "us");
  r.note("op_p99_us.samples", static_cast<double>(plain.size()), "count");
  r.note("op_p99_us.beyond", static_cast<double>(plain.beyond(99)), "count");
  r.add("trace.overhead_us", traced.pct(50) - plain.pct(50), "us");
  r.note("trace.op_p50_us_untraced", plain.pct(50), "us");
  r.note("trace.op_p50_us_traced", traced.pct(50), "us");
  const struct {
    const char* name;
    double share;
  } groups[] = {{"launch-storm", 0.25}, {"paper-suite", 0.20},
                {"serve-mix", 0.25}};
  for (const auto& g : groups) {
    if (g.name == opt.workload) {
      w.layers(s * g.share, &log, r);
    } else {
      std::unique_ptr<Workload> other = make(g.name, opt);
      (void)other->setup();
      other->layers(s * g.share, &log, r);
    }
  }
  r.note("trace.spans", static_cast<double>(log.spans().size()), "count");
}

/// Seconds from spawning `mclperf --setup-probe` for this workload to the
/// child's set-up being done (the child prints its steady clock then; the
/// clock is system-wide). Waits until the child has exited.
double cold_setup_s(const Options& opt) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const std::string seed = std::to_string(opt.seed);
  const char* argv[] = {"mclperf", "--setup-probe", "--workload",
                        opt.workload.c_str(), "--seed", seed.c_str(), nullptr};
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  pid_t pid = 0;
  const std::uint64_t t0 = now_ns();
  const int rc = ::posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                               const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  std::string out;
  char buf[256];
  for (ssize_t n; rc == 0 && (n = ::read(fds[0], buf, sizeof buf)) != 0;) {
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
    else if (errno != EINTR) break;
  }
  ::close(fds[0]);
  int status = 0;
  const bool ok = rc == 0 && ::waitpid(pid, &status, 0) == pid &&
                  WIFEXITED(status) && WEXITSTATUS(status) == 0;
  unsigned long long done = 0;
  if (!ok || std::sscanf(out.c_str(), "setup_done %llu", &done) != 1 ||
      done < t0) {
    throw std::runtime_error("set-up probe failed");
  }
  return static_cast<double>(done - t0) * 1e-9;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

int run(const Options& opt) {
  std::unique_ptr<Workload> w = make(opt.workload, opt);
  if (!w) {
    std::fprintf(stderr, "mclperf: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const Meta meta = make_meta(opt);
  Report r;
  SpanLog log;
  if (opt.trace) log.reserve(std::size_t{1} << 21);
  Samples setups;
  if (!opt.trace) {
    for (int i = 0; i < kSetupProbes; ++i) setups.add(cold_setup_s(opt));
  }
  // This process's own set-up is cold too, but timed from its first
  // set-up call rather than from process start.
  r.note("setup_s.in_process", w->setup(), "s");
  const CpuTicks t0 = cpu_ticks();
  if (!opt.trace) {
    add_end_to_end(r, w->run(opt.seconds, nullptr), setups.pct(50));
    r.note("setup_s.probes", static_cast<double>(setups.size()), "count");
    r.note("setup_s.min", setups.pct(0), "s");
    r.note("setup_s.max", setups.pct(100), "s");
  } else {
    traced_run(opt, *w, r, log);
  }
  // Share of the host's CPU time taken by other guests while measuring: a
  // high value explains a slow run (it is not a property of the program).
  const CpuTicks t1 = cpu_ticks();
  r.note("host.steal_frac",
         t1.total > t0.total ? (t1.steal - t0.steal) / (t1.total - t0.total) : 0.0,
         "ratio");
  // Correct means no output was wrong and, on the workloads the benchmark
  // gates, no op failed: no op fails there at this commit. serve-mix's
  // admission refusals are its documented defect (NOTES.md) and show in
  // `failed` and fail_frac only.
  const bool correct = r.wrong == 0 && r.attempted > 0 &&
                       (r.failed == 0 || opt.workload == "serve-mix");
  r.note("wrong_outputs", static_cast<double>(r.wrong), "count");

  std::printf("meta %s\n", meta_json(meta).c_str());
  for (const Metric& m : r.metrics) {
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.notes) {
    std::printf("note   %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (opt.trace) {
    for (const SpanLog::SelfTime& t : log.self_times()) {
      std::printf("span   %-24s count %9zu  mean %12.1f ns  self %12.1f ns\n",
                  t.name.c_str(), t.count, t.total_ns / double(t.count),
                  t.self_ns / double(t.count));
    }
  }

  ::mkdir(opt.out_dir.c_str(), 0755);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-s" +
                           std::to_string(opt.seed) + "-t" +
                           (opt.trace ? "1" : "0");
  if (opt.trace) {
    if (!log.write_jsonl(stem + ".spans.jsonl")) {
      std::fprintf(stderr, "mclperf: cannot write %s.spans.jsonl\n",
                   stem.c_str());
    }
  }
  if (std::FILE* f = std::fopen((stem + ".result.json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"trace\": %d, \"meta\": %s,\n"
                 " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n"
                 " \"metrics\": %s,\n \"notes\": %s}\n",
                 opt.workload.c_str(), opt.trace ? 1 : 0,
                 meta_json(meta).c_str(), correct ? "true" : "false",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed),
                 metrics_json(r.metrics).c_str(), metrics_json(r.notes).c_str());
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(r.metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

namespace perf {
bool take_corruption(const Options& opt) {
  return opt.corrupt_one && !g_corruption_taken.exchange(true);
}
}  // namespace perf

/// `--setup-probe`: one cold set-up in this fresh process, then its end on
/// the steady clock for the parent (see cold_setup_s).
int setup_probe(const Options& opt) {
  std::unique_ptr<Workload> w = make(opt.workload, opt);
  if (!w) return 2;
  // setup() returns the seconds of its program-facing part, which starts
  // right away; the references it computes after that are not counted.
  const std::uint64_t t0 = now_ns();
  const double seconds = w->setup();
  std::printf("setup_done %llu\n",
              static_cast<unsigned long long>(t0 + std::uint64_t(seconds * 1e9)));
  std::fflush(stdout);
  return 0;
}

int main(int argc, char** argv) {
  Options opt;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mclperf: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (arg == "--out-dir") opt.out_dir = value();
      else if (arg == "--git-sha") opt.git_sha = value();
      else if (arg == "--source-digest") opt.source_digest = value();
      else if (arg == "--run-index") opt.run_index = std::stol(value());
      else if (arg == "--corrupt-one") opt.corrupt_one = true;
      else if (arg == "--setup-probe") probe = true;
      else {
        std::fprintf(stderr, "mclperf: unknown flag %s\n", arg.c_str());
        return 2;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "mclperf: bad value for %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "mclperf: --seconds must be > 0\n");
    return 2;
  }
  try {
    return probe ? setup_probe(opt) : run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mclperf: %s\n", e.what());
    return 1;
  }
}
