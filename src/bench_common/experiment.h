// Shared bench harness: one overlay-generic Instance builder/loader (any
// registered backend, via overlay::Make), per-bench option parsing and table
// output. bench_paper reproduces the panels of the paper's Figure 8 with it;
// the query benches (compare_overlays, latency_query, throughput, faults,
// cache) start each (backend, N, seed) task from BuildLoaded's preloaded,
// latency-attached instance.
//
// Default scale (N up to 8000, 100 keys/node, 2 seeds) keeps every binary
// fast; pass --paper_scale for the paper's setup (N = 1000..10000, 1000
// keys/node, 10 seeds). --overlay=name[,name...] restricts multi-backend
// benches to a subset of the registered backends.
#ifndef BATON_BENCH_COMMON_EXPERIMENT_H_
#define BATON_BENCH_COMMON_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baton/baton.h"
#include "cache/cache.h"
#include "obs/observer.h"
#include "overlay/registry.h"
#include "sim/latency.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "workload/workload.h"

namespace baton {
namespace bench {

/// Upper bound of the key domain [1, kDomainHi) every bench stores and
/// queries.
inline constexpr Key kDomainHi = 1000000000;

/// Link-latency model selected with --latency=const:N|uniform:LO,HI. With
/// Kind::kNone no sim kernel is attached at all: OpStats::latency_ticks
/// stays 0 and every bench table is byte-identical to a build without sim
/// support.
struct LatencySpec {
  enum class Kind { kNone, kConst, kUniform };
  Kind kind = Kind::kNone;
  sim::Time lo = 0;
  sim::Time hi = 0;

  bool enabled() const { return kind != Kind::kNone; }
};

/// Request-key distribution selected with --key-dist=uniform|zipf:THETA.
/// Uniform is the paper's setup; zipf:THETA concentrates queries on the
/// popular low end of the key space (util::ZipfGenerator), the access skew
/// that turns a range-partitioned overlay's key owners into hot spots.
struct KeyDistSpec {
  enum class Kind { kUniform, kZipf };
  Kind kind = Kind::kUniform;
  double theta = 0.0;  // Zipf exponent; unused for kUniform

  /// Table/column label: "uniform" or "zipf:<theta>".
  std::string Label() const;
};

/// Builds the request-key generator `spec` describes over [lo, hi).
std::unique_ptr<workload::KeyGenerator> MakeKeyGenerator(
    const KeyDistSpec& spec, Key lo, Key hi);

struct Options {
  std::vector<size_t> sizes = {1000, 2000, 4000, 8000};
  size_t keys_per_node = 100;
  int queries = 1000;
  int seeds = 2;
  uint64_t base_seed = 20260608;
  bool csv = false;
  /// Worker threads for per-(backend, N, seed) task execution in the
  /// multi-backend benches (--threads=N; 0 = hardware concurrency).
  /// Defaults to 1: results are deterministic regardless (tasks only write
  /// their own slot and aggregation is sequential), but concurrent tasks
  /// share the machine, so leave wall-clock *timing* benches sequential
  /// unless throughput matters more than timing fidelity.
  int threads = 1;
  /// Backends selected with --overlay=...; empty means "all registered".
  std::vector<std::string> overlays;
  /// Link latency model from --latency=...; Kind::kNone leaves the sim
  /// kernel detached.
  LatencySpec latency;
  /// --json=PATH: mirror every Emit'd table into PATH as a JSON array of
  /// row objects (see SetJsonMirror). Empty = no mirror.
  std::string json_path;
  /// --trace=PATH: record a causal op/message trace per bench task and
  /// write one merged Chrome trace-event JSON file (open in Perfetto).
  /// Only benches that honour kObsFlags accept it. Empty = tracing off.
  std::string trace_path;
  /// --metrics=PATH: write one obs::Registry JSON snapshot per bench task
  /// (an array of {overlay, N, seed, metrics} objects). Empty = off.
  std::string metrics_path;

  /// Request-key distributions from --key-dist=...; empty means the bench's
  /// default (uniform). Benches that honour this run one series per entry.
  std::vector<KeyDistSpec> key_dists;

  // ---- Serving-engine flags (bench_throughput) ---------------------------
  /// --load=f1,f2,...: offered-load sweep points, as fractions of each
  /// (backend, N, seed)'s calibrated closed-loop capacity. The default
  /// straddles the saturation knee from either side.
  std::vector<double> loads = {0.5, 0.8, 0.95, 1.1, 1.3};
  /// --arrivals=poisson|fixed: the open-loop arrival process.
  std::string arrivals = "poisson";
  /// --service-ticks=N: per-message node service time (serve::NodeModel).
  uint64_t service_ticks = 1;
  /// --max-queue=N: per-node queue bound; arrivals past it drop the owning
  /// op (0 = unbounded queues).
  uint64_t max_queue = 0;
  /// --timeout-ticks=N: sojourns past this count as timed out (client gave
  /// up; the op still completes and is measured). 0 = no deadline.
  uint64_t timeout_ticks = 0;
  /// --stragglers=K:FACTOR: the first K members (deterministically chosen
  /// per seed) service messages FACTOR times slower than --service-ticks --
  /// the heterogeneous-fleet / tail-at-scale knob of the serving benches.
  /// K = 0 (the default) keeps the fleet homogeneous.
  size_t stragglers = 0;
  double straggler_factor = 8.0;

  // ---- Fault-injection flags (bench_faults) ------------------------------
  /// --drop=p1,p2,...: per-message drop probabilities to sweep (each value
  /// becomes one fault::Plan column group).
  std::vector<double> drop_rates = {0.01, 0.05, 0.10};
  /// --dup=p: per-message duplicate probability applied in every faulted
  /// cell (0 disables duplication).
  double dup_rate = 0.0;
  /// --retries=r1,r2,...: resilience retry budgets to sweep
  /// (fault::Policy::max_retries per cell).
  std::vector<int> retry_budgets = {0, 1, 3};

  // ---- Hot-path cache flags (bench_cache) --------------------------------
  /// --cache=SIZE[,k]: per-node route-cache capacity and replicated
  /// fast-table levels for cache-aware benches (see src/cache/cache.h).
  /// SIZE 0 leaves the cache detached (the byte-identical default); k
  /// defaults to 2 and 0 disables only the fast-table.
  size_t cache_capacity = 0;
  int cache_levels = 2;

  /// Observability is wanted when either artifact path is set.
  bool obs_enabled() const {
    return !trace_path.empty() || !metrics_path.empty();
  }

  bool cache_enabled() const { return cache_capacity > 0; }
};

/// Schema version stamped into every JSON row/snapshot the bench harness
/// writes (the "schema" field), so BENCH trajectory artifacts stay
/// self-describing across PRs. Bump when a JSON shape changes:
///   1  PR 4's bare row objects (no schema field)
///   2  adds the schema field itself, obs artifacts, percentile columns
inline constexpr int kBenchJsonSchema = 2;

/// Flag groups a bench honours (bits for ParseOptions). The core flags
/// (--sizes, --seeds, --keys, --queries, --seed, --paper_scale, --csv,
/// --json, --help) are always accepted.
enum FlagGroup : unsigned {
  kCoreFlags = 0,
  kOverlayFlags = 1u << 0,  // --overlay, --threads, --list-overlays
  kLatencyFlags = 1u << 1,  // --latency
  kKeyDistFlags = 1u << 2,  // --key-dist
  kObsFlags = 1u << 3,      // --trace, --metrics
  kServeFlags = 1u << 4,    // --load, --arrivals, --service-ticks,
                            // --max-queue, --stragglers, --timeout-ticks
  kFaultFlags = 1u << 5,    // --drop, --dup, --retries, --timeout-ticks
  kCacheFlags = 1u << 6,    // --cache, --timeout-ticks
};

/// Parses the flags of the given FlagGroup bits. A flag outside them, like
/// an unknown flag, prints the usage and exits 2: a bench never silently
/// ignores a flag. --help prints only the honoured flags plus
/// `extra_usage` (the bench's own pre-stripped flags) and exits 0;
/// --list-overlays prints overlay::RegisteredNames() one per line and exits
/// 0. Usage and the --overlay rejection message list the registered
/// backends from the registry, so new backends appear without touching
/// this file. Numeric flags are parsed strictly: a value that is not
/// entirely a base-10 number in the flag's valid range (e.g. --threads=-2,
/// --seeds=2x) prints a diagnostic plus the usage and exits 2 instead of
/// silently truncating or wrapping.
Options ParseOptions(int argc, char** argv, unsigned groups,
                     const char* extra_usage = "");

/// Prints `msg` plus the usage of the last ParseOptions call to stderr and
/// exits 2: for a flag value the bench cannot honour (e.g. a count its
/// tables divide by, given as 0).
[[noreturn]] void RejectFlag(const std::string& msg);

/// Runs fn(i) for every i in [0, count) on up to `threads` worker threads
/// (1 = inline sequential execution, 0 = hardware concurrency). Tasks are
/// handed out in index order through an atomic cursor. Each task must touch
/// only its own result slot; emit tables/JSON only after the call returns
/// (the seed-parallel bench pattern: build per-task results concurrently,
/// then aggregate sequentially in task order so output is byte-identical to
/// a sequential run).
void ParallelFor(size_t count, int threads,
                 const std::function<void(size_t)>& fn);

/// One (overlay, N, seed) unit of bench work; built by the task builders
/// below and executed through RunTasks.
struct SeedTask {
  std::string overlay;
  size_t n = 0;
  int seed = 0;
};

/// Tasks in sizes-major order (opt.sizes × overlays × opt.seeds) -- the row
/// nesting of the per-size comparison tables (bench_compare_overlays,
/// bench_latency_query).
std::vector<SeedTask> SizeMajorTasks(const Options& opt,
                                     const std::vector<std::string>& overlays);
/// Tasks in backend-major order (overlays × opt.sizes × opt.seeds) -- the
/// row nesting of bench_wallclock.
std::vector<SeedTask> BackendMajorTasks(
    const Options& opt, const std::vector<std::string>& overlays);

/// Runs fn(task) for every task on `threads` workers (via ParallelFor) and
/// returns the results aligned with `tasks`. This pins the ordering
/// contract in one place: a bench aggregates by replaying the same loop
/// nest its task builder used (or by iterating `tasks` directly), so its
/// output is byte-identical to a sequential run regardless of thread count.
template <typename Result, typename Fn>
std::vector<Result> RunTasks(const std::vector<SeedTask>& tasks, int threads,
                             Fn&& fn) {
  std::vector<Result> results(tasks.size());
  ParallelFor(tasks.size(), threads,
              [&](size_t i) { results[i] = fn(tasks[i]); });
  return results;
}

/// Routes every subsequent Emit into a JSON mirror at `path` (in addition
/// to stdout): the file holds one JSON array whose elements are row objects
/// {"table": <title>, "<header>": <cell>, ...}; numeric-looking cells are
/// emitted as JSON numbers. The file is created immediately (so a bad path
/// fails fast, before any bench work runs) and the array is closed at
/// process exit. Called by ParseOptions for --json=PATH; benches with a
/// canonical output file (bench_wallclock) call it directly with their
/// default path.
void SetJsonMirror(const std::string& path);

/// The backends a multi-backend bench should run: opt.overlays when given,
/// otherwise every registered backend.
std::vector<std::string> SelectedOverlays(const Options& opt);

/// BalancedOverlayConfig's BATON configuration plus replication at factor r
/// (0 = off): each node's keys mirrored on r holders, restored on failure.
/// The durability bench sweeps r.
BatonConfig ReplicatedConfig(int r);

/// overlay::Config for the standard setup of the Fig. 8 benches: BATON with
/// load balancing on at an adaptive threshold (overloaded = 2.2x the current
/// network-average load, so uniform workloads trip it only on outliers);
/// other backends use their defaults. Section IV-D's machinery is what keeps
/// node loads -- and thus ranges -- matched to the data distribution.
overlay::Config BalancedOverlayConfig();

/// A built overlay of any backend plus the member list benches sample
/// operation origins from (join order; erased on departure).
struct Instance {
  std::unique_ptr<overlay::Overlay> overlay;
  std::vector<net::PeerId> members;

  /// Sim kernel driving OpStats::latency_ticks; set by AttachLatency (null
  /// until then, and the overlay runs untimed).
  std::unique_ptr<sim::EventQueue> queue;
  std::unique_ptr<sim::LatencyModel> latency;

  /// Observability collector; set by AttachObserver (null until then, and
  /// the overlay runs unobserved -- the zero-overhead default).
  std::unique_ptr<obs::Observer> observer;

  /// Hot-path cache manager; set by AttachCache (null until then, and the
  /// overlay routes every lookup through the full protocol walk).
  std::unique_ptr<cache::Manager> cache;

  net::Network* net() { return overlay->network(); }

  /// A uniformly random member: the origin or contact of one operation.
  net::PeerId RandomMember(Rng* rng) const {
    return members[rng->NextBelow(members.size())];
  }
};

/// Attaches a sim/ event kernel built from `spec` to the instance (no-op
/// for Kind::kNone): subsequent operations fill OpStats::latency_ticks.
/// The sampling rng is seeded from `seed` independently of every protocol
/// rng, so message counts and protocol decisions are unaffected.
void AttachLatency(Instance* inst, const LatencySpec& spec, uint64_t seed);

/// Attaches an obs::Observer owned by the instance (metrics always;
/// a causal trace too when `tracing`). Subsequent operations open spans and
/// feed the registry. The attachment mirrors AttachLatency: per instance,
/// opt-in, and a no-op for benches that never call it.
void AttachObserver(Instance* inst, bool tracing);

/// Attaches a cache::Manager owned by the instance (capacity 0 detaches
/// instead). Subsequent exact searches consult/learn routes and membership
/// changes invalidate them. Same contract as the other attachments: per
/// instance, opt-in, and a no-op for benches that never call it.
void AttachCache(Instance* inst, const cache::Config& cfg);

/// Writes the observability artifacts opt.trace_path / opt.metrics_path
/// request, from per-task observers aligned with `tasks` (null entries --
/// tasks that ran unobserved -- are skipped). The trace file holds one
/// Chrome trace "process" per task, labelled "<overlay> N=<n> seed=<s>";
/// the metrics file holds a JSON array of per-task registry snapshots.
/// Prints a one-line note per file written.
void WriteObsArtifacts(const Options& opt, const std::vector<SeedTask>& tasks,
                       const std::vector<const obs::Observer*>& observers);

/// Builds an overlay of n `name`-backend nodes joined via random contacts.
/// When `preload` is non-null, keys_per_node * n keys are loaded before
/// growth (the paper inserts its data "in batches" as the network forms):
/// order-preserving backends (Capability::kOrderedGrowth) then split ranges
/// at the content median on every join, so node ranges stay proportional to
/// the data distribution -- the property the load figures depend on.
Instance BuildOverlay(const std::string& name, size_t n, uint64_t seed,
                      const overlay::Config& cfg = {},
                      size_t keys_per_node = 0,
                      workload::KeyGenerator* preload = nullptr);

/// Inserts keys_per_node * size() additional keys from random origins.
void LoadOverlay(Instance* inst, size_t keys_per_node,
                 workload::KeyGenerator* gen, Rng* rng);

/// The loaded network the query benches measure on: n `name`-backend nodes
/// under BalancedOverlayConfig holding opt.keys_per_node uniform keys per
/// node from [1, kDomainHi). Order-preserving backends preload while they
/// grow (BuildOverlay); the rest are built data-less and then loaded from a
/// dedicated rng, so every backend's later rng streams start identically.
/// Then attaches opt.latency (AttachLatency) and, when opt.obs_enabled(),
/// an observer (tracing when opt.trace_path is set): the timed and observed
/// window covers the measured ops, not construction.
Instance BuildLoaded(const std::string& name, size_t n, uint64_t seed,
                     const Options& opt);

/// Joins a random contact then removes a random member, `ops` times, on any
/// backend; each phase's message cost -- `join_cost(before, after)` /
/// `leave_cost(before, after)` over the counter snapshots bracketing it --
/// is accumulated into the corresponding stat. The churn loop of the
/// join/leave figure benches (Fig 8(a), 8(b)).
template <typename JoinCost, typename LeaveCost>
void JoinLeaveChurn(Instance* inst, Rng* rng, int ops, JoinCost&& join_cost,
                    LeaveCost&& leave_cost, RunningStat* join_stat,
                    RunningStat* leave_stat) {
  for (int i = 0; i < ops; ++i) {
    auto before = inst->net()->Snapshot();
    auto joined = inst->overlay->Join(inst->RandomMember(rng));
    BATON_CHECK(joined.ok()) << joined.status.ToString();
    inst->members.push_back(joined.peer);
    auto mid = inst->net()->Snapshot();
    join_stat->Add(static_cast<double>(join_cost(before, mid)));

    size_t idx = rng->NextBelow(inst->members.size());
    auto left = inst->overlay->Leave(inst->members[idx]);
    BATON_CHECK(left.ok()) << left.status.ToString();
    inst->members.erase(inst->members.begin() + static_cast<long>(idx));
    auto after = inst->net()->Snapshot();
    leave_stat->Add(static_cast<double>(leave_cost(mid, after)));
  }
}

/// Messages in the maintenance category (routing-table/link updates).
uint64_t MaintenanceDelta(const net::CounterSnapshot& before,
                          const net::CounterSnapshot& after);

/// Sum of per-type deltas over every type in `category` (derived from
/// net::CategoryOf, so new message types are picked up automatically).
uint64_t CategoryDelta(const net::CounterSnapshot& before,
                       const net::CounterSnapshot& after,
                       net::MsgCategory category);

/// Prints a titled table (text or CSV per opt.csv) and, when opt.json_path
/// is set (--json=PATH, or a bench default installed via SetJsonMirror),
/// mirrors its rows into the JSON file.
void Emit(const std::string& title, const TablePrinter& table,
          const Options& opt);

}  // namespace bench
}  // namespace baton

#endif  // BATON_BENCH_COMMON_EXPERIMENT_H_
