#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "core/sysinfo.hpp"

namespace perf {

void Samples::sort() const {
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
}

std::size_t Samples::rank(double p) const {
  const double n = static_cast<double>(v_.size());
  const double r = std::ceil(p / 100.0 * n);
  const std::size_t idx = r < 1.0 ? 0 : static_cast<std::size_t>(r) - 1;
  return std::min(idx, v_.size() - 1);
}

double Samples::pct(double p) const {
  if (v_.empty()) return 0.0;
  sort();
  return v_[rank(p)];
}

std::size_t Samples::beyond(double p) const {
  if (v_.empty()) return 0;
  sort();
  return v_.size() - 1 - rank(p);
}

std::vector<SpanLog::SelfTime> SpanLog::self_times() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      // Only the part of the child inside its parent's interval counts.
      const std::uint64_t b = std::max(s.start_ns, p.start_ns);
      const std::uint64_t e = std::min(s.end_ns, p.end_ns);
      if (e > b) child_ns[static_cast<std::size_t>(s.parent)] += double(e - b);
    }
  }
  std::vector<SelfTime> out;
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = index.try_emplace(s.name, out.size());
    if (fresh) out.push_back({s.name, 0, 0.0, 0.0});
    SelfTime& t = out[it->second];
    const double dur = s.end_ns > s.start_ns ? double(s.end_ns - s.start_ns) : 0.0;
    ++t.count;
    t.total_ns += dur;
    t.self_ns += std::max(0.0, dur - child_ns[i]);
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"op\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0;
}

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

Meta make_meta(const Options& opt) {
  const mcl::core::HostInfo h = mcl::core::probe_host();
  Meta m;
  m.cpu_model = h.cpu_model;
  m.nproc = h.logical_cpus;
  m.l1d_bytes = h.l1d_bytes;
  m.l2_bytes = h.l2_bytes;
  m.l3_bytes = h.l3_bytes;
  m.isa = h.simd_isa;
  m.compiler = MCLPERF_COMPILER;
  m.build_type = MCLPERF_BUILD_TYPE;
  m.git_sha = opt.git_sha;
  m.source_digest = opt.source_digest;
  m.seed = opt.seed;
  m.run_index = opt.run_index;
  return m;
}

std::string meta_json(const Meta& m) {
  char buf[256];
  std::string s = "{\"cpu_model\":" + json_str(m.cpu_model);
  std::snprintf(buf, sizeof buf,
                ",\"nproc\":%d,\"l1d_bytes\":%zu,\"l2_bytes\":%zu,"
                "\"l3_bytes\":%zu",
                m.nproc, m.l1d_bytes, m.l2_bytes, m.l3_bytes);
  s += buf;
  s += ",\"isa\":" + json_str(m.isa);
  s += ",\"compiler\":" + json_str(m.compiler);
  s += ",\"build_type\":" + json_str(m.build_type);
  s += ",\"git_sha\":" + json_str(m.git_sha);
  s += ",\"source_digest\":" + json_str(m.source_digest);
  std::snprintf(buf, sizeof buf, ",\"seed\":%llu,\"run_index\":%ld}",
                static_cast<unsigned long long>(m.seed), m.run_index);
  return s + buf;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's (e.g. Python's)
  // resident set when that was larger.
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    double v[8] = {};
    if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (double x : v) t.total += x;
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

double OpStats::steal_frac(double t0, double t1) const {
  // The last sample at or before t0 and the first at or after t1 (or the
  // nearest ones there are).
  const Tick* a = nullptr;
  const Tick* b = nullptr;
  for (const Tick& t : ticks_) {
    if (t.t_s <= t0 || a == nullptr) a = &t;
    if (b == nullptr && t.t_s >= t1) b = &t;
  }
  if (b == nullptr && !ticks_.empty()) b = &ticks_.back();
  if (a == nullptr || b == nullptr || b->cpu.total <= a->cpu.total) return 0.0;
  return (b->cpu.steal - a->cpu.steal) / (b->cpu.total - a->cpu.total);
}

Samples OpStats::latencies() const {
  Samples out;
  out.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) out.add(op(i).us);
  return out;
}

Windowed windowed(const OpStats& s) {
  Windowed w;
  const std::size_t n = s.count();
  w.windows = std::clamp<std::size_t>(n / 1000, 1, 10);
  const double len = s.wall_s / static_cast<double>(w.windows);
  std::vector<Samples> lat(w.windows), rate_gbps(w.windows);
  for (std::size_t i = 0; i < n; ++i) {
    const OpStats::Op& op = s.op(i);
    const std::size_t k = std::min(
        w.windows - 1, static_cast<std::size_t>(std::max(0.0, op.t_s / len)));
    lat[k].add(op.us);
    rate_gbps[k].add(op.us > 0 ? op.bytes / op.us * 1e-3 : 0.0);
  }
  // Least-stolen first (stable on ties); see Windowed for which are kept.
  std::vector<std::size_t> order(w.windows);
  std::vector<double> steal(w.windows);
  for (std::size_t k = 0; k < w.windows; ++k) {
    order[k] = k;
    steal[k] = s.steal_frac(double(k) * len, double(k + 1) * len);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return steal[x] < steal[y]; });
  w.kept = (w.windows * 3 + 9) / 10;
  while (w.kept < w.windows &&
         steal[order[w.kept]] <= steal[order[0]] + kStealTolerance) {
    ++w.kept;
  }
  Samples rate, p50, p99, gbps;
  w.min_beyond = n;
  for (std::size_t j = 0; j < w.windows; ++j) {
    const std::size_t k = order[j];
    w.min_beyond = std::min(w.min_beyond, lat[k].beyond(99.0));
    if (j >= w.kept) {
      w.dropped_steal += steal[k] / double(w.windows - w.kept);
      continue;
    }
    w.kept_steal += steal[k] / double(w.kept);
    rate.add(static_cast<double>(lat[k].size()) / len);
    p50.add(lat[k].pct(50.0));
    p99.add(lat[k].pct(99.0));
    gbps.add(rate_gbps[k].pct(50.0));
  }
  w.ops_per_s = rate.pct(50.0);
  w.p50_us = p50.pct(50.0);
  w.p99_us = p99.pct(50.0);
  w.gbytes_per_s = gbps.pct(50.0);
  return w;
}

void add_end_to_end(Report& r, const OpStats& s, double setup_s) {
  // Read before anything below allocates: the peak resident set without
  // the benchmark's own per-op store, whose size depends on the op count.
  const double rss_mb =
      peak_rss_mb() - static_cast<double>(s.store_bytes()) / (1 << 20);
  const Windowed w = windowed(s);
  const Samples lat = s.latencies();
  const double attempted = static_cast<double>(s.attempted);
  const double ok = static_cast<double>(s.attempted - s.failed);
  r.add("setup_s", setup_s, "s");
  r.add("ops_per_s", w.ops_per_s, "1/s");
  r.add("op_p50_us", w.p50_us, "us");
  // Reported as the share that succeeded so the gated value is never 0.
  r.add("ok_frac", s.attempted > 0 ? ok / attempted : 0.0, "ratio");
  r.add("peak_rss_mb", rss_mb, "MiB");
  r.add("gbytes_per_s", w.gbytes_per_s, "GB/s");
  r.note("fail_frac", s.attempted > 0 ? 1.0 - ok / attempted : 1.0, "ratio");
  r.note("op_samples", static_cast<double>(s.count()), "count");
  r.note("windows", static_cast<double>(w.windows), "count");
  r.note("windows_kept", static_cast<double>(w.kept), "count");
  r.note("steal_frac_kept_windows", w.kept_steal, "ratio");
  r.note("steal_frac_dropped_windows", w.dropped_steal, "ratio");
  // The tail is printed with its sample counts but not gated here: at this
  // commit it does not repeat within any allowed bound on paper-suite (see
  // NOTES.md); traced runs report it as the per-layer op_p99_us.
  r.note("op_p99_us_windowed", w.p99_us, "us");
  r.note("op_p99_beyond_per_window_min", static_cast<double>(w.min_beyond),
         "count");
  r.note("op_p50_us_whole_run", lat.pct(50.0), "us");
  r.note("op_p99_us_whole_run", lat.pct(99.0), "us");
  r.count(s);
}

}  // namespace perf
