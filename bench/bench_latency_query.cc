// Simulated query latency vs network size, per backend -- the time-based
// comparison the paper could not make (it measured message counts only,
// which "cannot distinguish a sequential 10-hop search from a 10-way
// parallel fan-out").
//
// Per backend and size the bench builds the overlay, attaches the sim/
// event kernel, and measures exact searches plus 0.1%-selectivity range
// queries. Columns:
//   exact_hops / exact_lat   routing hops and critical-path ticks per exact
//                            search (equal under --latency=const:1: exact
//                            routing is purely sequential)
//   range_msgs / range_lat   messages and critical-path ticks per range
//                            query; BATON's scan disseminates through
//                            routing-table delegations, so its latency
//                            grows like O(log N + log X), not O(log N + X)
//   range_par                range_msgs / range_lat: effective parallelism
//                            of the range scan (1.0 = fully sequential)
//
// The latency model defaults to const:1 so ticks read as "sequential hop
// equivalents"; pass --latency=uniform:LO,HI for jittered links. Every
// (backend, N, seed) run is an independent task (own Instance, network and
// sim kernel), so --threads=N runs them on a worker pool; per-query samples
// are aggregated in task order afterwards, keeping the output
// byte-identical to a sequential run.
//
// hops_p50/p99 and lat_p50/p99 report the exact-search tails from
// log-bucket histograms merged across seeds; --trace=PATH / --metrics=PATH
// additionally record per-task causal traces and metrics snapshots.
//
// --key-dist=zipf:THETA skews which keys the exact searches ask for (the
// first --key-dist entry; preloaded data stays uniform, so this isolates
// request skew). Default uniform reproduces the original output exactly.
//
//   ./bench_latency_query --sizes=200 --seeds=1
//   ./bench_latency_query --overlay=baton,d3tree --latency=uniform:5,20
#include <string>
#include <vector>

#include "bench_common/experiment.h"
#include "util/stats.h"

namespace baton {
namespace bench {
namespace {

/// Per-query samples from one (backend, N, seed) task.
struct SeedSample {
  std::vector<double> exact_hops, exact_lat;
  std::vector<double> range_msgs, range_lat, range_par;
  bool range_supported = true;
  /// Same exact-search samples as distributions, for the tail columns.
  obs::LogHistogram hops_hist, lat_hist;
  /// Kept alive past the Instance for --trace/--metrics serialization.
  std::unique_ptr<obs::Observer> observer;
};

SeedSample RunSeed(const std::string& name, size_t n, int s,
                   const Options& opt) {
  SeedSample out;
  const Key width = kDomainHi / 1000;  // 0.1% selectivity, as in Fig 8(e)
  uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
  // Request-key distribution: uniform unless --key-dist says otherwise
  // (the stored data stays uniform either way).
  KeyDistSpec qdist = opt.key_dists.empty() ? KeyDistSpec{} : opt.key_dists[0];
  std::unique_ptr<workload::KeyGenerator> query_keys =
      MakeKeyGenerator(qdist, 1, kDomainHi);
  Instance inst = BuildLoaded(name, n, seed, opt);

  Rng rng(Mix64(seed ^ 0x1a7e));
  for (int q = 0; q < opt.queries; ++q) {
    // Key before origin, spelled out: argument evaluation order is
    // unspecified, and the table must not depend on the compiler's choice.
    Key k = query_keys->Next(&rng);
    auto st = inst.overlay->ExactSearch(inst.RandomMember(&rng), k);
    BATON_CHECK(st.ok()) << st.status.ToString();
    out.exact_hops.push_back(static_cast<double>(st.hops));
    out.exact_lat.push_back(static_cast<double>(st.latency_ticks));
    out.hops_hist.Add(st.hops > 0 ? static_cast<uint64_t>(st.hops) : 0);
    out.lat_hist.Add(st.latency_ticks);
  }
  if (!inst.overlay->Supports(overlay::kRangeSearch)) {
    out.range_supported = false;
    out.observer = std::move(inst.observer);
    return out;
  }
  for (int q = 0; q < opt.queries; ++q) {
    Key lo = rng.UniformInt(1, kDomainHi - width - 1);
    auto st =
        inst.overlay->RangeSearch(inst.RandomMember(&rng), lo, lo + width);
    BATON_CHECK(st.ok()) << st.status.ToString();
    out.range_msgs.push_back(static_cast<double>(st.messages));
    out.range_lat.push_back(static_cast<double>(st.latency_ticks));
    if (st.latency_ticks > 0) {
      out.range_par.push_back(static_cast<double>(st.messages) /
                              static_cast<double>(st.latency_ticks));
    }
  }
  out.observer = std::move(inst.observer);
  return out;
}

void Run(const Options& opt) {
  const std::vector<std::string> overlays = SelectedOverlays(opt);
  std::vector<SeedTask> tasks = SizeMajorTasks(opt, overlays);
  std::vector<SeedSample> results =
      RunTasks<SeedSample>(tasks, opt.threads, [&](const SeedTask& t) {
        return RunSeed(t.overlay, t.n, t.seed, opt);
      });

  TablePrinter table({"N", "overlay", "exact_hops", "hops_p50", "hops_p99",
                      "exact_lat", "lat_p50", "lat_p99", "range_msgs",
                      "range_lat", "range_par"});
  size_t idx = 0;
  for (size_t n : opt.sizes) {
    for (const std::string& name : overlays) {
      struct {
        RunningStat exact_hops, exact_lat, range_msgs, range_lat, range_par;
        obs::LogHistogram hops_hist, lat_hist;
        bool range_supported = true;
      } st;
      for (int s = 0; s < opt.seeds; ++s) {
        const SeedSample& r = results[idx++];
        for (double v : r.exact_hops) st.exact_hops.Add(v);
        for (double v : r.exact_lat) st.exact_lat.Add(v);
        st.hops_hist.Merge(r.hops_hist);
        st.lat_hist.Merge(r.lat_hist);
        if (!r.range_supported) st.range_supported = false;
        for (double v : r.range_msgs) st.range_msgs.Add(v);
        for (double v : r.range_lat) st.range_lat.Add(v);
        for (double v : r.range_par) st.range_par.Add(v);
      }
      auto p = [](const obs::LogHistogram& h, double q) {
        return TablePrinter::Int(static_cast<int64_t>(h.Quantile(q)));
      };
      table.AddRow({TablePrinter::Int(static_cast<int64_t>(n)), name,
                    TablePrinter::Num(st.exact_hops.mean()),
                    p(st.hops_hist, 0.50), p(st.hops_hist, 0.99),
                    TablePrinter::Num(st.exact_lat.mean()),
                    p(st.lat_hist, 0.50), p(st.lat_hist, 0.99),
                    st.range_supported ? TablePrinter::Num(st.range_msgs.mean())
                                       : "n/a",
                    st.range_supported ? TablePrinter::Num(st.range_lat.mean())
                                       : "n/a",
                    st.range_supported ? TablePrinter::Num(st.range_par.mean())
                                       : "n/a"});
    }
  }
  Emit("Query latency vs network size (ticks, critical path)", table, opt);
  std::vector<const obs::Observer*> observers;
  observers.reserve(results.size());
  for (const SeedSample& r : results) observers.push_back(r.observer.get());
  WriteObsArtifacts(opt, tasks, observers);
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) {
  baton::bench::Options opt = baton::bench::ParseOptions(
      argc, argv,
      baton::bench::kOverlayFlags | baton::bench::kLatencyFlags |
          baton::bench::kKeyDistFlags | baton::bench::kObsFlags);
  if (!opt.latency.enabled()) {
    // A latency bench without a latency model would print zeros; default to
    // one tick per hop so ticks read as sequential-hop equivalents.
    opt.latency.kind = baton::bench::LatencySpec::Kind::kConst;
    opt.latency.lo = opt.latency.hi = 1;
  }
  baton::bench::Run(opt);
  return 0;
}
