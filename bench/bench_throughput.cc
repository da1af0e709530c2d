// Serving throughput vs offered load, per backend: the saturation-knee
// bench the serving engine (serve::Engine) exists for.
//
// Per (backend, N, seed, key distribution) the bench:
//  1. builds the overlay (uniform preload, like the query benches) and
//     records a pure exact-search trace drawn from the distribution;
//  2. calibrates capacity with a CLOSED-LOOP engine run on the uniform
//     trace: if the bottleneck node serviced M messages (M * service_ticks
//     busy ticks) while completing C ops, the sustainable rate is
//     lambda* = C / (M * service_ticks) ops/tick -- the rate at which the
//     busiest node's utilization reaches 1;
//  3. sweeps OPEN-LOOP arrival rates f * lambda* for every --load fraction
//     f (default 0.5,0.8,0.95,1.1,1.3, straddling the knee). Crucially the
//     absolute rates come from the UNIFORM calibration for every
//     distribution, so "zipf at load 0.95" offers the same ops/tick as
//     "uniform at load 0.95" -- any extra queueing is pure request skew.
//
// Below the knee achieved throughput tracks offered load and sojourn time
// stays near the no-contention floor; past it throughput pins at capacity
// while p99/p99.9 sojourn (and peak queue depth) diverge -- open-loop
// arrivals keep coming while queues at hot nodes grow without bound (bound
// them with --max-queue to see drop accounting instead; --timeout-ticks
// counts client-side give-ups).
//
// Columns (cross-seed merged; one row per load point and distribution,
// plus a load="closed" calibration row): offered/kt and achieved/kt are
// ops per kilotick; lat_* are sojourn-time quantiles (rank-interpolated,
// obs::LogHistogram::QuantileInterp); done/drop/timeout count ops; peak_q
// is the deepest node backlog any seed saw.
//
//   ./bench_throughput --sizes=200 --seeds=1
//   ./bench_throughput --overlay=baton,chord --load=0.5,1.0,2.0
//       --key-dist=uniform,zipf:0.9 --arrivals=fixed --service-ticks=4
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_common/experiment.h"
#include "serve/engine.h"

namespace baton {
namespace bench {
namespace {

/// One engine run's outputs, mergeable across seeds.
struct RunOutcome {
  double offered_rate = 0;  // ops/tick offered (0 for closed loop)
  double steady_rate = 0;   // achieved ops/tick, middle-80% window
  uint64_t completed = 0;
  uint64_t dropped = 0;
  uint64_t timed_out = 0;
  uint64_t peak_queue = 0;
  obs::LogHistogram sojourn;

  void Merge(const RunOutcome& o) {
    // Rates are summed here and divided by the seed count at print time
    // (seeds are independent runs of the same offered load).
    offered_rate += o.offered_rate;
    steady_rate += o.steady_rate;
    completed += o.completed;
    dropped += o.dropped;
    timed_out += o.timed_out;
    if (o.peak_queue > peak_queue) peak_queue = o.peak_queue;
    sojourn.Merge(o.sojourn);
  }
};

/// Achieved throughput as the completion rate over the middle 80% of
/// completions. completed/makespan would fold the ramp-up and the final
/// ops' drain tail into the denominator, under-reporting sub-saturation
/// throughput badly on short traces; the inner window tracks offered load
/// below the knee and pins at capacity above it.
double SteadyRate(const serve::EngineResult& res) {
  const std::vector<sim::Time>& t = res.completions;
  double fallback = res.makespan == 0
                        ? 0.0
                        : static_cast<double>(res.completed) /
                              static_cast<double>(res.makespan);
  if (t.size() < 20) return fallback;
  size_t lo = t.size() / 10;
  size_t hi = t.size() - t.size() / 10 - 1;
  if (t[hi] <= t[lo]) return fallback;  // degenerate burst
  return static_cast<double>(hi - lo) / static_cast<double>(t[hi] - t[lo]);
}

/// Per-(backend, N, seed) task result: one closed-loop calibration row plus
/// one open-loop row per (distribution, load fraction).
struct SeedResult {
  std::vector<RunOutcome> closed;        // [dist]
  std::vector<std::vector<RunOutcome>> open;  // [dist][load]
};

RunOutcome Outcome(const serve::EngineResult& res, double offered) {
  RunOutcome out;
  out.offered_rate = offered;
  out.steady_rate = SteadyRate(res);
  out.completed = res.completed;
  out.dropped = res.dropped;
  out.timed_out = res.timed_out;
  out.peak_queue = res.peak_queue_depth;
  out.sojourn = res.sojourn;
  return out;
}

SeedResult RunSeed(const std::string& name, size_t n, int s,
                   const Options& opt,
                   const std::vector<KeyDistSpec>& dists) {
  uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
  Instance inst = BuildLoaded(name, n, seed, opt);

  // One pure exact-search trace per distribution; queries mutate nothing,
  // so every engine run replays against the identical overlay state, and a
  // fresh equal-seeded op rng per run keeps origin picks identical too --
  // load points differ ONLY in arrival timing.
  std::vector<workload::Trace> traces(dists.size());
  for (size_t d = 0; d < dists.size(); ++d) {
    std::unique_ptr<workload::KeyGenerator> gen =
        MakeKeyGenerator(dists[d], 1, kDomainHi);
    Rng krng(Mix64(seed ^ 0x7a3e));  // same stream per dist: ranks differ
    traces[d].reserve(static_cast<size_t>(opt.queries));
    for (int q = 0; q < opt.queries; ++q) {
      traces[d].push_back({workload::OpType::kExact, gen->Next(&krng), 0});
    }
  }

  serve::EngineConfig ecfg;
  ecfg.service_ticks = opt.service_ticks;
  ecfg.hop_latency = 1;
  ecfg.max_queue = opt.max_queue;
  ecfg.timeout_ticks = opt.timeout_ticks;
  // --stragglers=K:F marks K members (picked deterministically per seed) as
  // F-times-slower servers; the knee then tracks the slowest hot node, not
  // the fleet average.
  if (opt.stragglers > 0) {
    std::vector<net::PeerId> picks = inst.members;
    Rng srng(Mix64(seed ^ 0x57a6));
    srng.Shuffle(&picks);
    size_t k = std::min(opt.stragglers, picks.size());
    uint64_t slow = static_cast<uint64_t>(
        static_cast<double>(opt.service_ticks) * opt.straggler_factor);
    if (slow <= opt.service_ticks) slow = opt.service_ticks + 1;
    for (size_t i = 0; i < k; ++i) {
      ecfg.node_service_overrides.emplace_back(picks[i], slow);
    }
  }
  serve::Engine engine(inst.overlay.get(), &inst.members, ecfg);

  SeedResult out;
  out.closed.resize(dists.size());
  out.open.assign(dists.size(),
                  std::vector<RunOutcome>(opt.loads.size()));

  // Closed-loop calibration runs (also the differential baseline rows).
  std::vector<serve::EngineResult> closed(dists.size());
  for (size_t d = 0; d < dists.size(); ++d) {
    Rng op_rng(Mix64(seed ^ 0x5e7e));
    closed[d] = engine.RunClosedLoop(traces[d], &op_rng);
    out.closed[d] = Outcome(closed[d], 0.0);
  }

  // Capacity from the UNIFORM closed-loop run (dists[0] is pinned to
  // uniform by Run below): the bottleneck node saturates when it is busy
  // every tick.
  const serve::EngineResult& cal = closed[0];
  double capacity =
      cal.max_node_served > 0
          ? static_cast<double>(cal.completed) /
                (static_cast<double>(cal.max_node_served) *
                 static_cast<double>(opt.service_ticks))
          : 1.0 / static_cast<double>(opt.service_ticks);

  for (size_t d = 0; d < dists.size(); ++d) {
    for (size_t l = 0; l < opt.loads.size(); ++l) {
      double rate = opt.loads[l] * capacity;
      uint64_t aseed = Mix64(seed ^ (0xa881 + (d << 8) + l));
      std::unique_ptr<serve::Arrivals> arrivals;
      if (opt.arrivals == "fixed") {
        arrivals = std::make_unique<serve::FixedArrivals>(rate);
      } else {
        arrivals = std::make_unique<serve::PoissonArrivals>(rate, aseed);
      }
      Rng op_rng(Mix64(seed ^ 0x5e7e));  // same op stream as calibration
      serve::EngineResult res = engine.Run(traces[d], arrivals.get(),
                                           &op_rng);
      out.open[d][l] = Outcome(res, rate);
    }
  }
  return out;
}

void Run(const Options& opt) {
  // Distribution series: uniform is always first (it calibrates capacity);
  // default adds zipf:0.9 so skew sensitivity shows up out of the box.
  std::vector<KeyDistSpec> dists;
  if (opt.key_dists.empty()) {
    dists.push_back({});  // uniform
    KeyDistSpec zipf;
    zipf.kind = KeyDistSpec::Kind::kZipf;
    zipf.theta = 0.9;
    dists.push_back(zipf);
  } else {
    dists.push_back({});  // calibration anchor
    for (const KeyDistSpec& d : opt.key_dists) {
      if (d.kind != KeyDistSpec::Kind::kUniform) dists.push_back(d);
    }
  }

  const std::vector<std::string> overlays = SelectedOverlays(opt);
  std::vector<SeedTask> tasks = SizeMajorTasks(opt, overlays);
  std::vector<SeedResult> results =
      RunTasks<SeedResult>(tasks, opt.threads, [&](const SeedTask& t) {
        return RunSeed(t.overlay, t.n, t.seed, opt, dists);
      });

  TablePrinter table({"N", "overlay", "dist", "load", "offered/kt",
                      "achieved/kt", "done", "drop", "timeout", "peak_q",
                      "lat_p50", "lat_p99", "lat_p999"});
  auto quant = [](const obs::LogHistogram& h, double q) {
    return TablePrinter::Int(static_cast<int64_t>(h.QuantileInterp(q)));
  };
  auto add_row = [&](size_t n, const std::string& name,
                     const std::string& dist, const std::string& load,
                     const RunOutcome& m, int seeds) {
    table.AddRow(
        {TablePrinter::Int(static_cast<int64_t>(n)), name, dist, load,
         m.offered_rate == 0
             ? "n/a"
             : TablePrinter::Num(1000.0 * m.offered_rate /
                                 static_cast<double>(seeds)),
         TablePrinter::Num(1000.0 * m.steady_rate /
                           static_cast<double>(seeds)),
         TablePrinter::Int(static_cast<int64_t>(m.completed)),
         TablePrinter::Int(static_cast<int64_t>(m.dropped)),
         TablePrinter::Int(static_cast<int64_t>(m.timed_out)),
         TablePrinter::Int(static_cast<int64_t>(m.peak_queue)),
         quant(m.sojourn, 0.50), quant(m.sojourn, 0.99),
         quant(m.sojourn, 0.999)});
  };

  size_t idx = 0;
  for (size_t n : opt.sizes) {
    for (const std::string& name : overlays) {
      std::vector<RunOutcome> closed(dists.size());
      std::vector<std::vector<RunOutcome>> open(
          dists.size(), std::vector<RunOutcome>(opt.loads.size()));
      for (int s = 0; s < opt.seeds; ++s) {
        const SeedResult& r = results[idx++];
        for (size_t d = 0; d < dists.size(); ++d) {
          closed[d].Merge(r.closed[d]);
          for (size_t l = 0; l < opt.loads.size(); ++l) {
            open[d][l].Merge(r.open[d][l]);
          }
        }
      }
      for (size_t d = 0; d < dists.size(); ++d) {
        std::string dist = dists[d].Label();
        add_row(n, name, dist, "closed", closed[d], opt.seeds);
        for (size_t l = 0; l < opt.loads.size(); ++l) {
          char load[32];
          std::snprintf(load, sizeof load, "%.2f", opt.loads[l]);
          add_row(n, name, dist, load, open[d][l], opt.seeds);
        }
      }
    }
  }
  Emit("Serving throughput vs offered load (open loop)", table, opt);
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) {
  baton::bench::Run(baton::bench::ParseOptions(
      argc, argv,
      baton::bench::kOverlayFlags | baton::bench::kKeyDistFlags |
          baton::bench::kServeFlags));
  return 0;
}
