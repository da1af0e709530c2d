#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace perfbench {

using baton::workload::AppliedOp;
using baton::workload::OpType;

uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double LoadAvg1() {
  double l[1];
  return getloadavg(l, 1) == 1 ? l[0] : -1;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double Quantile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) +
         frac * (static_cast<double>(v[hi]) - static_cast<double>(v[lo]));
}

namespace {

/// Samples spread evenly over [lo, lo + width).
struct Group {
  double lo;
  double width;
  uint64_t count;
};

double GroupedQuantile(const std::vector<Group>& groups, uint64_t total,
                       double q) {
  if (total == 0) return 0;
  double target = q * static_cast<double>(total);
  double cum = 0;
  for (const Group& g : groups) {
    double c = static_cast<double>(g.count);
    if (g.count > 0 && cum + c >= target) {
      return g.lo + g.width * (target - cum) / c;
    }
    cum += c;
  }
  return groups.empty() ? 0 : groups.back().lo + groups.back().width;
}

}  // namespace

double TickQuantile(std::vector<uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  std::vector<Group> groups;
  for (size_t i = 0; i < v.size();) {
    size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;
    groups.push_back({static_cast<double>(v[i]) - 0.5, 1.0, j - i});
    i = j;
  }
  return GroupedQuantile(groups, v.size(), q);
}

double TickQuantile(const baton::obs::LogHistogram& h, double q) {
  using baton::obs::LogHistogram;
  std::vector<Group> groups;
  for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
    uint64_t lo = LogHistogram::BucketLow(i);
    uint64_t width =
        i < static_cast<int>(LogHistogram::kExactLimit) ? 1 : lo;
    groups.push_back({static_cast<double>(lo) - 0.5,
                      static_cast<double>(width), h.bucket_count(i)});
  }
  return GroupedQuantile(groups, h.count(), q);
}

void Window::Account(OpType t, const AppliedOp& a) {
  ++attempted;
  switch (a.disposition) {
    case AppliedOp::Disposition::kSkipped:
      ++skipped;
      return;
    case AppliedOp::Disposition::kUnsupported:
      ++unsupported;
      return;
    case AppliedOp::Disposition::kExecuted:
      break;
  }
  const baton::overlay::OpStats& st = a.stats;
  ++executed;
  if (!st.ok()) ++failed;
  messages += st.messages;
  hops += static_cast<uint64_t>(std::max(st.hops, 0));
  retries += static_cast<uint64_t>(std::max(st.retries, 0));
  if (st.gave_up) ++gave_up;
  if (t == OpType::kExact || t == OpType::kRange) ++reads;
  if (t == OpType::kJoin || t == OpType::kLeave || t == OpType::kFail) {
    ++member_ops;
  }
  if (record_latency) latency.push_back(st.latency_ticks);
}

void Window::Account(const baton::workload::ReplayResult& r) {
  for (int i = 0; i < baton::workload::kNumOpTypes; ++i) {
    const baton::workload::OpAggregate& agg = r.per_op[static_cast<size_t>(i)];
    auto t = static_cast<OpType>(i);
    attempted += agg.count + agg.skipped + agg.unsupported;
    executed += agg.count;
    failed += agg.count - agg.ok;
    unsupported += agg.unsupported;
    skipped += agg.skipped;
    messages += agg.messages;
    hops += agg.hops;
    retries += agg.retries;
    gave_up += agg.gave_up;
    if (t == OpType::kExact || t == OpType::kRange) reads += agg.count;
    if (t == OpType::kJoin || t == OpType::kLeave || t == OpType::kFail) {
      member_ops += agg.count;
    }
  }
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer(bool on) : on_(on), epoch_ns_(WallNs()) {}

uint16_t Tracer::Name(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  auto id = static_cast<uint16_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

uint32_t Tracer::Open(uint16_t name, int backend) {
  Span s;
  s.start_ns = WallNs() - epoch_ns_;
  s.parent = stack_.empty() ? kNoParent : stack_.back();
  s.name = name;
  s.backend = static_cast<int8_t>(backend);
  auto idx = static_cast<uint32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(idx);
  return idx;
}

void Tracer::Close(uint32_t idx) {
  spans_[idx].end_ns = WallNs() - epoch_ns_;
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

void Tracer::Leaf(uint16_t name, int backend, uint32_t op_id,
                  uint64_t start_ns, uint64_t end_ns) {
  Span s;
  s.start_ns = start_ns - epoch_ns_;
  s.end_ns = end_ns - epoch_ns_;
  s.parent = stack_.empty() ? kNoParent : stack_.back();
  s.op_id = op_id;
  s.name = name;
  s.backend = static_cast<int8_t>(backend);
  spans_.push_back(s);
}

double Tracer::TotalSeconds(const std::string& name, int backend) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return 0;
  uint64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == it->second && (backend < 0 || s.backend == backend)) {
      ns += s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(ns) / 1e9;
}

std::vector<uint64_t> Tracer::Durations(const std::string& name,
                                        int backend) const {
  std::vector<uint64_t> out;
  auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name == it->second && s.backend == backend) {
      out.push_back(s.end_ns - s.start_ns);
    }
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path,
                             size_t max_op_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<size_t> written(kNumBackends + 1, 0);
  size_t op_spans = 0, written_ops = 0;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op_id != kNoOp) {
      ++op_spans;
      size_t& n = written[static_cast<size_t>(s.backend + 1)];
      if (n >= max_op_spans) continue;
      ++n;
      ++written_ops;
    }
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"backend\": \"%s\", \"span\": %zu, \"parent\": %lld, "
                 "\"op\": %lld}}",
                 first ? "" : ",\n", names_[s.name].c_str(), s.backend + 1,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 s.backend >= 0 ? kBackends[s.backend] : "-", i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 s.op_id == kNoOp ? -1LL : static_cast<long long>(s.op_id));
    first = false;
  }
  std::fprintf(f,
               "\n], \"metadata\": {\"spans_recorded\": %zu, "
               "\"op_spans_recorded\": %zu, \"op_spans_written\": %zu}}\n",
               spans_.size(), op_spans, written_ops);
  return std::fclose(f) == 0;
}

// ---- Scheduler -------------------------------------------------------------

void RunInterleaved(std::vector<Lane>* lanes, Tracer* tracer) {
  std::vector<size_t> done(lanes->size(), 0);
  uint16_t unit_name = tracer->Name("unit");
  for (;;) {
    // Smallest completed fraction done/units, compared exactly.
    size_t pick = lanes->size();
    for (size_t i = 0; i < lanes->size(); ++i) {
      const Lane& l = (*lanes)[i];
      if (done[i] >= l.units) continue;
      if (pick == lanes->size() ||
          done[i] * (*lanes)[pick].units < done[pick] * l.units) {
        pick = i;
      }
    }
    if (pick == lanes->size()) return;
    Lane& lane = (*lanes)[pick];
    Window* w = lane.window;
    double load = LoadAvg1();
    if (w->load_lo < 0 || load < w->load_lo) w->load_lo = load;
    if (load > w->load_hi) w->load_hi = load;
    uint32_t span = tracer->on() ? tracer->Open(unit_name, lane.backend) : 0;
    uint64_t c0 = ThreadCpuNs();
    uint64_t t0 = WallNs();
    lane.run(done[pick]);
    uint64_t t1 = WallNs();
    uint64_t c1 = ThreadCpuNs();
    if (tracer->on()) tracer->Close(span);
    w->wall_s += static_cast<double>(t1 - t0) / 1e9;
    w->cpu_s += static_cast<double>(c1 - c0) / 1e9;
    ++w->units;
    ++done[pick];
  }
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
