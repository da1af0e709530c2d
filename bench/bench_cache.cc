// Hot-path caching wins and costs, per backend: the bench src/cache/
// exists for (ROADMAP item 3).
//
// Per (backend, N, seed) the bench builds and preloads the overlay once,
// then replays identical exact-search traces (same keys, same origin rng
// stream) in three modes per key distribution: uncached (cache detached --
// the byte-identical baseline), cold (fresh cache attached: pays the
// fast-table refresh bill, learns routes) and warm (the same trace again
// over the now-populated cache). Zipf skew concentrates queries on a few
// owners, so warm hops/op collapses toward 1 as theta grows while the
// uniform row bounds the win at a given capacity. Every cached answer is
// checked against the uncached answer -- the cache may never change
// results, only the path taken to them.
//
// Three more tables probe the design's edges: a capacity sweep (hit rate
// vs route-cache size at zipf:0.9), a churn sweep (a cached and an
// identically-seeded uncached twin replay the same interleaved
// join/leave/query sequence; hit rate vs the stale-probe repair rate as
// invalidation and verify-on-hit clean up behind churn) and a fault
// composition cell (drops on query-category messages hit kCacheProbe too:
// a cached jump into a lossy link retries under the fault::Policy
// exactly like a protocol walk, so ok% holds while retries absorb the
// loss).
//
// Everything is deterministic: same flags and --seed reproduce every table
// byte-for-byte. The JSON mirror defaults to BENCH_cache.json (this
// bench's primary artifact); --json=PATH overrides it.
//
//   ./bench_cache --sizes=200 --seeds=1
//   ./bench_cache --overlay=baton,chord --cache=512,3
//       --key-dist=uniform,zipf:0.9 --latency=const:1
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common/experiment.h"
#include "cache/cache.h"
#include "fault/fault.h"
#include "workload/replay.h"

namespace baton {
namespace bench {
namespace {

/// Route-cache capacities swept by the capacity table (zipf:0.9).
const size_t kCapacities[] = {16, 64, 256, 1024};

/// Churn cadences swept by the churn table: one join+leave pair every
/// `rate` queries.
const int kChurnRates[] = {16, 4};

/// One trace replay's outcomes, mergeable across seeds: the per-op
/// aggregate plus the manager's deltas over the replay.
struct PassOutcome {
  workload::OpAggregate agg;
  uint64_t misses = 0;     // manager delta: consults with no entry
  uint64_t evictions = 0;  // manager delta: capacity + stale evictions

  void Merge(const PassOutcome& o) {
    agg.Merge(o.agg);
    misses += o.misses;
    evictions += o.evictions;
  }
};

/// Per-op answers of a replay, for the differential checks: the cache must
/// never change which peer answers or whether the key is found.
using Answers = std::vector<std::pair<net::PeerId, bool>>;

/// One (distribution cell) = the three passes over the same trace.
struct DistOutcome {
  PassOutcome uncached;
  PassOutcome cold;
  PassOutcome warm;

  void Merge(const DistOutcome& o) {
    uncached.Merge(o.uncached);
    cold.Merge(o.cold);
    warm.Merge(o.warm);
  }
};

struct SeedResult {
  std::vector<DistOutcome> dists;        // [key-dist]
  std::vector<PassOutcome> capacities;   // [capacity], warm pass only
  std::vector<PassOutcome> churn;        // [churn rate], cached twin
  PassOutcome fault_uncached;            // drops attached, cache detached
  PassOutcome fault_warm;                // drops attached, warm cache
};

/// The distributions table 1 sweeps: --key-dist wins when given, otherwise
/// uniform plus a theta ladder showing the skew monotonicity.
std::vector<KeyDistSpec> DistLadder(const Options& opt) {
  if (!opt.key_dists.empty()) return opt.key_dists;
  std::vector<KeyDistSpec> out(5);
  out[0].kind = KeyDistSpec::Kind::kUniform;
  for (size_t i = 1; i < out.size(); ++i) {
    out[i].kind = KeyDistSpec::Kind::kZipf;
  }
  out[1].theta = 0.5;
  out[2].theta = 0.7;
  out[3].theta = 0.9;
  out[4].theta = 0.99;
  return out;
}

/// One exact-search trace: `queries` keys from `spec`, seeded off the task
/// seed so every cell of a task replays the identical keys.
workload::Trace MakeTrace(const KeyDistSpec& spec, int queries,
                          uint64_t seed) {
  std::unique_ptr<workload::KeyGenerator> gen =
      MakeKeyGenerator(spec, 1, kDomainHi);
  Rng krng(Mix64(seed ^ 0x7a3e));
  workload::Trace trace;
  trace.reserve(static_cast<size_t>(queries));
  for (int q = 0; q < queries; ++q) {
    trace.push_back({workload::OpType::kExact, gen->Next(&krng), 0});
  }
  return trace;
}

/// Replays `trace` from origins drawn with a fresh rng stream (identical
/// across passes); `mgr` non-null snapshots its stats around the pass.
/// Fills `*answers` when non-null, checks against `*expect` when non-null.
/// `origin_pool` > 0 restricts origins to the first that-many members --
/// the capacity sweep uses it to put real pressure on small route caches.
PassOutcome Pass(Instance* inst, const workload::Trace& trace, uint64_t seed,
                 const cache::Manager* mgr, Answers* answers,
                 const Answers* expect, size_t origin_pool = 0) {
  PassOutcome out;
  cache::Stats before;
  if (mgr != nullptr) before = mgr->stats();
  std::vector<net::PeerId> origins = inst->members;
  if (origin_pool > 0 && origin_pool < origins.size()) {
    origins.resize(origin_pool);
  }
  Rng org(Mix64(seed ^ 0x0b51));
  for (size_t q = 0; q < trace.size(); ++q) {
    const overlay::OpStats st =
        workload::ApplyOp(*inst->overlay, trace[q], &org, &origins, {}).stats;
    out.agg.Accumulate(st);
    if (answers != nullptr) answers->emplace_back(st.peer, st.found);
    if (expect != nullptr) {
      BATON_CHECK(st.peer == (*expect)[q].first &&
                  st.found == (*expect)[q].second)
          << inst->overlay->name() << " cached answer diverged at op " << q
          << ": peer " << st.peer << " vs " << (*expect)[q].first;
    }
  }
  if (mgr != nullptr) {
    const cache::Stats& after = mgr->stats();
    out.misses = after.misses - before.misses;
    out.evictions = after.evictions - before.evictions;
  }
  return out;
}

SeedResult RunSeed(const std::string& name, size_t n, int s,
                   const Options& opt) {
  uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
  Instance inst = BuildLoaded(name, n, seed, opt);
  overlay::Overlay* ov = inst.overlay.get();
  cache::Config ccfg;
  ccfg.capacity = opt.cache_capacity;
  ccfg.root_levels = opt.cache_levels;

  SeedResult out;

  // ---- Table 1: hop reduction vs key skew --------------------------------
  const std::vector<KeyDistSpec> dists = DistLadder(opt);
  for (const KeyDistSpec& spec : dists) {
    workload::Trace trace = MakeTrace(spec, opt.queries, seed);
    DistOutcome cell;
    Answers reference;
    ov->AttachCache(nullptr);
    cell.uncached = Pass(&inst, trace, seed, nullptr, &reference, nullptr);
    cache::Manager mgr(ccfg);
    ov->AttachCache(&mgr);
    cell.cold = Pass(&inst, trace, seed, &mgr, nullptr, &reference);
    cell.warm = Pass(&inst, trace, seed, &mgr, nullptr, &reference);
    ov->AttachCache(nullptr);
    out.dists.push_back(cell);
  }

  // ---- Table 2: warm hit rate vs capacity (zipf:0.9) ---------------------
  KeyDistSpec hot;
  hot.kind = KeyDistSpec::Kind::kZipf;
  hot.theta = 0.9;
  const workload::Trace hot_trace = MakeTrace(hot, opt.queries, seed);
  {
    // A few origins issue every query, so distinct-owner demand per origin
    // exceeds the small capacities and the LRU bound actually bites.
    const size_t kPool = 8;
    for (size_t cap : kCapacities) {
      cache::Config c = ccfg;
      c.capacity = cap;
      cache::Manager mgr(c);
      ov->AttachCache(&mgr);
      Pass(&inst, hot_trace, seed, &mgr, nullptr, nullptr, kPool);  // populate
      out.capacities.push_back(
          Pass(&inst, hot_trace, seed, &mgr, nullptr, nullptr, kPool));
      ov->AttachCache(nullptr);
    }
  }

  // ---- Table 4 state: drops over a warm cache ----------------------------
  // (Runs before the churn table so it sees the pristine membership; the
  // churn cells below build their own instances.)
  {
    fault::Policy pol;
    pol.max_retries = 3;
    pol.timeout_ticks = opt.timeout_ticks;
    pol.backoff_ticks = 4;
    fault::LinkFaults lf;
    lf.drop = 0.05;
    auto run_faulted = [&](const cache::Manager* mgr) {
      fault::PlanConfig pcfg;
      pcfg.seed = Mix64(seed ^ 0xfa11);
      fault::Plan plan(pcfg);
      plan.SetCategoryFaults(net::MsgCategory::kQuery, lf);
      ov->SetResilience(pol);
      ov->AttachFaults(&plan);
      PassOutcome p = Pass(&inst, hot_trace, seed, mgr, nullptr, nullptr);
      ov->AttachFaults(nullptr);
      ov->SetResilience(fault::Policy{});
      return p;
    };
    out.fault_uncached = run_faulted(nullptr);
    cache::Manager mgr(ccfg);
    ov->AttachCache(&mgr);
    Pass(&inst, hot_trace, seed, &mgr, nullptr, nullptr);  // warm it first
    out.fault_warm = run_faulted(&mgr);
    ov->AttachCache(nullptr);
  }

  // ---- Table 3: churn (cached twin vs uncached twin) ---------------------
  // Both twins are built from the same seed and replay the same decision
  // stream, so they stay in lockstep; only the cache differs, and its
  // answers are checked op-by-op against the uncached twin's.
  for (int rate : kChurnRates) {
    Instance plain = BuildLoaded(name, n, seed, opt);
    Instance cached = BuildLoaded(name, n, seed, opt);
    cache::Manager mgr(ccfg);
    cached.overlay->AttachCache(&mgr);
    // One warm pass before churn starts, so the sweep measures how churn
    // degrades an established cache rather than cold-start misses.
    Pass(&cached, hot_trace, seed, &mgr, nullptr, nullptr);

    PassOutcome cell;
    cache::Stats before = mgr.stats();
    Rng churn_rng(Mix64(seed ^ 0xc4a7));
    Rng org(Mix64(seed ^ 0x0b51));
    for (size_t q = 0; q < hot_trace.size(); ++q) {
      if (rate > 0 && q % static_cast<size_t>(rate) == 0) {
        size_t contact = churn_rng.NextBelow(plain.members.size());
        auto j1 = plain.overlay->Join(plain.members[contact]);
        auto j2 = cached.overlay->Join(cached.members[contact]);
        BATON_CHECK(j1.ok() && j2.ok() && j1.peer == j2.peer)
            << name << " churn twins diverged on join";
        plain.members.push_back(j1.peer);
        cached.members.push_back(j2.peer);
        size_t victim = churn_rng.NextBelow(plain.members.size());
        auto l1 = plain.overlay->Leave(plain.members[victim]);
        auto l2 = cached.overlay->Leave(cached.members[victim]);
        BATON_CHECK(l1.ok() && l2.ok())
            << name << " churn twins diverged on leave";
        plain.members.erase(plain.members.begin() +
                            static_cast<long>(victim));
        cached.members.erase(cached.members.begin() +
                             static_cast<long>(victim));
      }
      net::PeerId from = plain.RandomMember(&org);
      const Key key = hot_trace[q].key;
      overlay::OpStats ref = plain.overlay->ExactSearch(from, key);
      overlay::OpStats st = cached.overlay->ExactSearch(from, key);
      BATON_CHECK(st.peer == ref.peer && st.found == ref.found)
          << name << " cached answer diverged under churn at op " << q;
      cell.agg.Accumulate(st);
    }
    const cache::Stats& after = mgr.stats();
    cell.misses = after.misses - before.misses;
    cell.evictions = after.evictions - before.evictions;
    out.churn.push_back(cell);
  }
  return out;
}

std::string Pct(uint64_t num, uint64_t den) {
  if (den == 0) return "n/a";
  return TablePrinter::Num(100.0 * static_cast<double>(num) /
                           static_cast<double>(den));
}

/// `v` per executed op of the pass.
std::string PerOp(uint64_t v, const PassOutcome& p) {
  if (p.agg.count == 0) return "n/a";
  return TablePrinter::Num(static_cast<double>(v) /
                           static_cast<double>(p.agg.count));
}

/// Hit rate: verified hits over all route-cache consults.
std::string HitRate(const PassOutcome& p) {
  const workload::OpAggregate& a = p.agg;
  return Pct(a.cache_hits, a.cache_hits + p.misses + a.cache_stale);
}

void Run(const Options& opt) {
  const std::vector<std::string> overlays = SelectedOverlays(opt);
  const std::vector<KeyDistSpec> dists = DistLadder(opt);
  std::vector<SeedTask> tasks = SizeMajorTasks(opt, overlays);
  std::vector<SeedResult> results =
      RunTasks<SeedResult>(tasks, opt.threads, [&](const SeedTask& t) {
        return RunSeed(t.overlay, t.n, t.seed, opt);
      });

  TablePrinter skew({"N", "overlay", "dist", "hops_uc", "hops_cold",
                     "hops_warm", "warm_uc_pct", "hit_pct", "saved/op",
                     "msg_uc", "msg_warm", "lat_uc", "lat_warm"});
  TablePrinter caps({"N", "overlay", "capacity", "hops_warm", "hit_pct",
                     "evict/op", "msg_warm"});
  TablePrinter churn({"N", "overlay", "churn", "ok_pct", "hops/op",
                      "hit_pct", "stale/op", "evict/op", "msg/op"});
  TablePrinter faulted({"N", "overlay", "mode", "ok_pct", "gave_up",
                        "retr/op", "dropped", "msg/op", "hit_pct"});

  size_t idx = 0;
  for (size_t n : opt.sizes) {
    for (const std::string& name : overlays) {
      SeedResult merged;
      merged.dists.resize(dists.size());
      merged.capacities.resize(std::size(kCapacities));
      merged.churn.resize(std::size(kChurnRates));
      for (int s = 0; s < opt.seeds; ++s) {
        const SeedResult& r = results[idx++];
        for (size_t d = 0; d < dists.size(); ++d) {
          merged.dists[d].Merge(r.dists[d]);
        }
        for (size_t c = 0; c < merged.capacities.size(); ++c) {
          merged.capacities[c].Merge(r.capacities[c]);
        }
        for (size_t c = 0; c < merged.churn.size(); ++c) {
          merged.churn[c].Merge(r.churn[c]);
        }
        merged.fault_uncached.Merge(r.fault_uncached);
        merged.fault_warm.Merge(r.fault_warm);
      }

      for (size_t d = 0; d < dists.size(); ++d) {
        const PassOutcome& uc = merged.dists[d].uncached;
        const PassOutcome& cold = merged.dists[d].cold;
        const PassOutcome& warm = merged.dists[d].warm;
        skew.AddRow({TablePrinter::Int(static_cast<int64_t>(n)), name,
                     dists[d].Label(), PerOp(uc.agg.hops, uc),
                     PerOp(cold.agg.hops, cold), PerOp(warm.agg.hops, warm),
                     Pct(warm.agg.hops, uc.agg.hops), HitRate(warm),
                     PerOp(warm.agg.hops_saved, warm),
                     PerOp(uc.agg.messages, uc),
                     PerOp(warm.agg.messages, warm),
                     PerOp(uc.agg.latency, uc),
                     PerOp(warm.agg.latency, warm)});
      }
      for (size_t c = 0; c < merged.capacities.size(); ++c) {
        const PassOutcome& p = merged.capacities[c];
        caps.AddRow({TablePrinter::Int(static_cast<int64_t>(n)), name,
                     TablePrinter::Int(static_cast<int64_t>(kCapacities[c])),
                     PerOp(p.agg.hops, p), HitRate(p),
                     PerOp(p.evictions, p), PerOp(p.agg.messages, p)});
      }
      for (size_t c = 0; c < merged.churn.size(); ++c) {
        const PassOutcome& p = merged.churn[c];
        char cadence[32];
        std::snprintf(cadence, sizeof cadence, "1/%d", kChurnRates[c]);
        churn.AddRow({TablePrinter::Int(static_cast<int64_t>(n)), name,
                      cadence, Pct(p.agg.ok, p.agg.count),
                      PerOp(p.agg.hops, p), HitRate(p),
                      PerOp(p.agg.cache_stale, p), PerOp(p.evictions, p),
                      PerOp(p.agg.messages, p)});
      }
      auto fault_row = [&](const char* mode, const PassOutcome& p) {
        faulted.AddRow(
            {TablePrinter::Int(static_cast<int64_t>(n)), name, mode,
             Pct(p.agg.ok, p.agg.count),
             TablePrinter::Int(static_cast<int64_t>(p.agg.gave_up)),
             PerOp(p.agg.retries, p),
             TablePrinter::Int(static_cast<int64_t>(p.agg.dropped_msgs)),
             PerOp(p.agg.messages, p), HitRate(p)});
      };
      fault_row("uncached", merged.fault_uncached);
      fault_row("warm", merged.fault_warm);
    }
  }
  Emit("Exact-search hop reduction vs key skew (uncached / cold / warm)",
       skew, opt);
  Emit("Warm hit rate vs route-cache capacity (zipf:0.9)", caps, opt);
  Emit("Hit rate vs staleness repair under churn (zipf:0.9, warm cache)",
       churn, opt);
  Emit("Cached lookups under message loss (drop 0.05, retry budget 3)",
       faulted, opt);
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) {
  baton::bench::Options opt = baton::bench::ParseOptions(
      argc, argv,
      baton::bench::kOverlayFlags | baton::bench::kLatencyFlags |
          baton::bench::kKeyDistFlags | baton::bench::kCacheFlags);
  // The cache is this bench's subject: default it on at the documented
  // sizing (--cache=SIZE[,k] still overrides, SIZE > 0 required here).
  if (!opt.cache_enabled()) opt.cache_capacity = 256;
  // This bench's JSON table is its primary artifact: default the mirror on.
  if (opt.json_path.empty()) {
    opt.json_path = "BENCH_cache.json";
    baton::bench::SetJsonMirror(opt.json_path);
  }
  baton::bench::Run(opt);
  return 0;
}
