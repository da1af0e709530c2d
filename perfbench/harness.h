// Measurement harness of the repository benchmark: clocks, per-backend
// timed windows, the interleaving scheduler, failure accounting and the
// in-memory span recorder of the traced run. See perfbench/README.md for
// what each workload measures and why.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/log_histogram.h"
#include "workload/replay.h"

namespace perfbench {

/// The four registered backends, in metric-name order.
inline const char* const kBackends[] = {"baton", "chord", "d3tree",
                                        "multiway"};
inline constexpr int kNumBackends = 4;

/// Monotonic wall clock, nanoseconds.
uint64_t WallNs();
/// CPU time consumed by the calling thread, nanoseconds.
uint64_t ThreadCpuNs();
/// The 1-minute load average (-1 when unavailable).
double LoadAvg1();
/// Peak resident set of this process, MiB.
double PeakRssMb();

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double Median(std::vector<double> v);
/// Linear-interpolated quantile of samples (the R-7 / numpy default
/// rule); 0 when empty.
double Quantile(std::vector<uint64_t> v, double q);

/// Quantile of integer tick counts with each integer v read as spread
/// evenly over [v - 0.5, v + 0.5) (histogram buckets over their range),
/// interpolated inside the group that holds the quantile. Simulated
/// latencies tie heavily, so a plain order statistic reads the same
/// integer for most seeds; this one also moves with the share of samples
/// at or below it. 0 when empty.
double TickQuantile(std::vector<uint64_t> v, double q);
double TickQuantile(const baton::obs::LogHistogram& h, double q);

/// One backend's timed window within one run, accumulated over every unit
/// the scheduler gave it, plus the op outcomes those units produced.
struct Window {
  // ---- Timing and steadiness evidence --------------------------------------
  double wall_s = 0;      // sum of unit wall times
  double cpu_s = 0;       // sum of unit thread-CPU times
  uint64_t units = 0;
  double load_lo = -1;    // lowest / highest 1-minute load average seen
  double load_hi = -1;    // at a unit start

  // ---- Failure accounting ---------------------------------------------------
  uint64_t attempted = 0;    // trace ops handed to the overlay layer
  uint64_t failed = 0;       // executed but not OK (gave_up included)
  uint64_t unsupported = 0;  // capability gates (chord range/fail, ...)
  uint64_t skipped = 0;      // ReplayOptions::min_members guards

  // ---- Deterministic costs --------------------------------------------------
  uint64_t executed = 0;
  uint64_t messages = 0;  // sum of OpStats::messages
  uint64_t hops = 0;
  uint64_t retries = 0;
  uint64_t reads = 0;     // executed exact + range searches
  uint64_t gave_up = 0;
  uint64_t member_ops = 0;  // executed join + leave + fail
  /// Simulated ticks per executed op (only filled with a sim attached).
  std::vector<uint64_t> latency;
  bool record_latency = false;

  /// Folds one ApplyOp outcome of trace op type `t` into the window.
  void Account(baton::workload::OpType t,
               const baton::workload::AppliedOp& a);
  /// Folds an engine run's per-op aggregates into the window.
  void Account(const baton::workload::ReplayResult& r);

  double OpsPerS() const {
    return wall_s > 0 ? static_cast<double>(attempted) / wall_s : 0;
  }
  double MsgsPerOp() const {
    return executed > 0 ? static_cast<double>(messages) /
                              static_cast<double>(executed)
                        : 0;
  }
};

/// In-memory span recorder of the traced run. A span brackets one call the
/// benchmark makes into a layer: name, start, end, enclosing span and the
/// trace op id. Nothing is written until WriteChromeJson at exit, so the
/// recorder never does I/O inside a timed window. Disabled recorders cost
/// one branch per call site.
class Tracer {
 public:
  static constexpr uint32_t kNoParent = 0xffffffffu;
  static constexpr uint32_t kNoOp = 0xffffffffu;

  struct Span {
    uint64_t start_ns = 0;  // since the recorder was created
    uint64_t end_ns = 0;
    uint32_t parent = kNoParent;
    uint32_t op_id = kNoOp;
    uint16_t name = 0;
    int8_t backend = -1;
  };

  explicit Tracer(bool on);
  bool on() const { return on_; }

  /// Interns a span name.
  uint16_t Name(const std::string& name);
  /// Opens a span nested in the innermost open one; returns its index.
  uint32_t Open(uint16_t name, int backend);
  void Close(uint32_t idx);
  /// Records an already-measured leaf span inside the innermost open span
  /// (the per-op fast path: one vector append, no stack traffic).
  void Leaf(uint16_t name, int backend, uint32_t op_id, uint64_t start_ns,
            uint64_t end_ns);
  void Reserve(size_t spans) { spans_.reserve(spans_.size() + spans); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of durations of spans named `name` (optionally one backend).
  double TotalSeconds(const std::string& name, int backend = -1) const;
  /// Durations (ns) of spans named `name` for `backend`.
  std::vector<uint64_t> Durations(const std::string& name,
                                  int backend) const;

  /// Writes a Chrome trace-event JSON file (open in Perfetto): every span
  /// except op spans (those with an op id) beyond the first `max_op_spans`
  /// of each backend; the metadata gives how many were recorded and
  /// written. Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path, size_t max_op_spans) const;

 private:
  bool on_;
  uint64_t epoch_ns_;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
  std::vector<std::string> names_;
  std::map<std::string, uint16_t> ids_;
};

/// RAII span; a no-op when the recorder is off.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name, int backend = -1)
      : t_(t), idx_(t->on() ? t->Open(t->Name(name), backend) : 0) {}
  ~Scope() {
    if (t_->on()) t_->Close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  uint32_t idx_;
};

/// One backend's sequence of timed units. A unit is a fixed slice of the
/// backend's work (so every deterministic counter repeats exactly for a
/// seed); its wall and thread-CPU times land in `window`.
struct Lane {
  int backend = 0;
  size_t units = 0;
  std::function<void(size_t unit)> run;
  Window* window = nullptr;
};

/// Runs every lane's units, interleaved by progress: the next unit always
/// goes to the lane with the smallest completed fraction (ties to the
/// lower backend index). The order depends only on the unit counts, and a
/// slow stretch of a shared machine is spread over all backends instead of
/// landing on whichever happened to be running. With tracing on, each unit
/// is a span named "unit".
void RunInterleaved(std::vector<Lane>* lanes, Tracer* tracer);

/// Key-ordered JSON number map: metric name -> (value, unit).
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Formats a double with all 17 significant digits (JSON-safe: non-finite
/// values print as 0).
std::string Num(double v);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
