// The repository benchmark: three workloads over the four registered
// backends, one process, one thread.
//
//   perfbench --workload ingest|lookup_zipf|churn_mix --seed S --seconds T
//             --trace 0|1 [--n N] [--corrupt] [--out-dir DIR]
//
// Every workload builds its inputs from --seed, sets up (several times,
// reporting the median set-up time), runs a fixed amount of timed work per
// backend -- sized so the timed windows add up to about --seconds on a
// 4-core x86 host at the default N -- checks the answers, and prints one
// JSON result line last. With --trace 1 it records spans around every call
// it makes into a layer and reports the per-layer metrics instead.
// perfbench/README.md explains the workloads, metrics and steadiness
// design.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include <sys/wait.h>
#include <unistd.h>
#include <string>
#include <vector>

#include "bench_common/experiment.h"
#include "cache/cache.h"
#include "fault/fault.h"
#include "harness.h"
#include "overlay/baton_overlay.h"
#include "serve/engine.h"
#include "workload/replay.h"

namespace perfbench {
namespace {

using baton::Key;
using baton::Mix64;
using baton::Rng;
using baton::bench::Instance;
using baton::net::PeerId;
using baton::workload::ApplyOp;
using baton::workload::Op;
using baton::workload::OpType;

constexpr Key kDomainHi = 1000000000;
/// --seconds value the work sizes below are calibrated for; other values
/// scale the repeatable parts of the work proportionally.
constexpr double kReferenceSeconds = 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  size_t n = 8000;
  bool corrupt = false;  // self-test: corrupt one answer before the gate
  std::string out_dir = ".bench_build/out";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest|lookup_zipf|churn_mix --seed S --seconds T "
               "--trace 0|1 [--n N] [--corrupt] [--out-dir DIR]\n",
               msg);
  std::exit(2);
}

uint64_t ParseUint(const char* flag, const char* v) {
  char* end = nullptr;
  unsigned long long x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || v[0] == '-') {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return x;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string f = argv[i];
    if (f == "--corrupt") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + f).c_str());
    const char* v = argv[++i];
    if (f == "--workload") {
      a.workload = v;
    } else if (f == "--seed") {
      a.seed = ParseUint("--seed", v);
    } else if (f == "--seconds") {
      a.seconds = static_cast<int>(ParseUint("--seconds", v));
    } else if (f == "--trace") {
      uint64_t t = ParseUint("--trace", v);
      if (t > 1) Usage("--trace takes 0 or 1");
      a.trace = t == 1;
    } else if (f == "--n") {
      a.n = ParseUint("--n", v);
    } else if (f == "--out-dir") {
      a.out_dir = v;
    } else {
      Usage(("unknown flag " + f).c_str());
    }
  }
  if (a.workload != "ingest" && a.workload != "lookup_zipf" &&
      a.workload != "churn_mix") {
    Usage("unknown --workload");
  }
  if (a.seconds < 1) Usage("--seconds must be at least 1");
  if (a.n < 16) Usage("--n must be at least 16");
  return a;
}

/// Scales a work count by --seconds (never below 1).
size_t Scaled(const Args& a, double base) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(base * a.seconds /
                                         kReferenceSeconds)));
}

/// Replays a fixed key vector, so every backend loads the identical key
/// set whatever rng draws BuildOverlay makes.
class VectorKeys : public baton::workload::KeyGenerator {
 public:
  explicit VectorKeys(const std::vector<Key>* keys) : keys_(keys) {}
  Key Next(Rng*) override { return (*keys_)[next_++ % keys_->size()]; }

 private:
  const std::vector<Key>* keys_;
  size_t next_ = 0;
};

std::vector<Key> UniformKeys(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Key> keys(count);
  for (Key& k : keys) k = static_cast<Key>(rng.UniformInt(1, kDomainHi - 1));
  return keys;
}

/// State of one backend within a run.
struct Backend {
  int idx = 0;
  std::string name;
  /// The measured instances: one per ingest pass or instance set.
  std::vector<Instance> inst;
  std::vector<Rng> op_rng;  // per instance
  // lookup_zipf and churn_mix, one entry per instance set:
  std::vector<uint64_t> build_seed;
  std::vector<std::unique_ptr<baton::fault::Plan>> plan;
  std::vector<std::unique_ptr<baton::serve::Engine>> engine;
  std::vector<double> capacity;  // calibrated ops/tick (lookup_zipf)
  uint64_t join_starvations = 0;  // build seeds that hit the join defect

  /// Traced lookup_zipf only: an identically seeded twin the same trace is
  /// replayed on op by op, to split Engine::Run time into overlay and
  /// serve self time.
  Instance twin;

  Window w;
  std::vector<baton::net::CounterSnapshot> net_before;  // per instance
  std::vector<baton::cache::Stats> cache_before;         // per instance

  // lookup_zipf serve outcomes.
  baton::obs::LogHistogram sojourn;
  baton::obs::LogHistogram queue_wait;
  uint64_t peak_queue = 0;
  std::vector<size_t> answer_set;                    // per engine run:
  std::vector<std::vector<bool>> exact_found;        // its instance set
  std::vector<std::vector<uint64_t>> range_matches;  // and answers
  /// Exact answers, summed over engine runs, that differ from key
  /// membership only because the backend routes on a hash of the key
  /// (chord's 32-bit identifiers).
  uint64_t collision_answers = 0;

  // ingest: simulated latency of untimed probe inserts.
  Window probe;

  baton::overlay::Overlay& ov(size_t i = 0) { return *inst[i].overlay; }
};

struct Run {
  Args args;
  Tracer tracer;
  std::array<Backend, kNumBackends> be;
  std::vector<double> setup_s;
  std::vector<std::string> errors;
  std::array<uint16_t, baton::workload::kNumOpTypes> op_span{};

  explicit Run(const Args& a) : args(a), tracer(a.trace) {
    const char* ops[] = {"insert", "delete", "exact", "range",
                         "join",   "leave",  "fail",  "fail_region"};
    for (int i = 0; i < baton::workload::kNumOpTypes; ++i) {
      op_span[static_cast<size_t>(i)] =
          tracer.Name(std::string("overlay.") + ops[i]);
    }
    for (int b = 0; b < kNumBackends; ++b) {
      be[b].idx = b;
      be[b].name = kBackends[b];
      BATON_CHECK(baton::overlay::IsRegistered(be[b].name))
          << "backend " << be[b].name << " is not registered";
    }
  }

  void Fail(const std::string& why) { errors.push_back(why); }
};

/// Executes one trace op on `inst` through workload::ApplyOp and accounts
/// it; with tracing on, the call is recorded as a leaf span.
void Apply(Run* run, int backend, Instance* inst, Rng* rng, const Op& op,
           uint32_t op_id, Window* w) {
  if (!run->tracer.on()) {
    w->Account(op.type,
               ApplyOp(*inst->overlay, op, rng, &inst->members, {}));
    return;
  }
  uint64_t t0 = WallNs();
  baton::workload::AppliedOp a =
      ApplyOp(*inst->overlay, op, rng, &inst->members, {});
  uint64_t t1 = WallNs();
  run->tracer.Leaf(run->op_span[static_cast<size_t>(op.type)], backend,
                   op_id, t0, t1);
  w->Account(op.type, a);
}

/// Builds one instance holding exactly `keys` (keys_per_node per node):
/// order-preserving backends load while growing, the others after.
Instance BuildLoaded(const std::string& name, size_t n, uint64_t seed,
                     const baton::overlay::Config& cfg,
                     const std::vector<Key>& keys) {
  size_t kpn = keys.size() / n;
  VectorKeys gen(&keys);
  if (baton::overlay::Make(name, cfg)->Supports(
          baton::overlay::kOrderedGrowth)) {
    return baton::bench::BuildOverlay(name, n, seed, cfg, kpn, &gen);
  }
  Instance inst = baton::bench::BuildOverlay(name, n, seed, cfg);
  Rng rng(Mix64(seed ^ 0x10ad));
  baton::bench::LoadOverlay(&inst, kpn, &gen, &rng);
  return inst;
}

/// Known defect: on about 4% of seeds the preloaded BATON build aborts with
/// "join routing did not terminate" (the join-walk starvation ROADMAP
/// lists; raising max_hops_factor from 16 to 64 does not help). So that
/// every seed runs, each candidate join seed -- `base`, then
/// Mix64(base + k) -- is first built in a forked child; the first that
/// completes is used. Every starved seed is counted (detail line,
/// setup.join_starvations.baton) and named on stderr, so the defect stays
/// visible.
uint64_t ProbeBuildSeed(Backend* b, size_t n, uint64_t base,
                        const baton::overlay::Config& cfg,
                        const std::vector<Key>& keys) {
  for (uint64_t k = 0; k < 16; ++k) {
    uint64_t seed = k == 0 ? base : Mix64(base + k);
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = fork();
    BATON_CHECK_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      Instance probe = BuildLoaded(b->name, n, seed, cfg, keys);
      _exit(0);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return seed;
    ++b->join_starvations;
    std::fprintf(stderr,
                 "perfbench: known defect: %s preloaded build with join seed "
                 "%llu did not complete; trying the next join seed\n",
                 b->name.c_str(), static_cast<unsigned long long>(seed));
  }
  BATON_CHECK(false) << "no join seed completes the " << b->name << " build";
  return base;
}

void CheckAll(Run* run) {
  for (Backend& b : run->be) {
    for (Instance& in : b.inst) in.overlay->CheckInvariants();
  }
}

void SnapshotBefore(Run* run) {
  for (Backend& b : run->be) {
    b.net_before.clear();
    b.cache_before.clear();
    for (Instance& in : b.inst) {
      b.net_before.push_back(in.net()->Snapshot());
      b.cache_before.push_back(in.cache ? in.cache->stats()
                                        : baton::cache::Stats{});
    }
  }
}

/// Times one set-up rep.
template <typename Fn>
void TimedSetup(Run* run, Fn&& setup) {
  uint64_t t0 = WallNs();
  setup();
  run->setup_s.push_back(static_cast<double>(WallNs() - t0) / 1e9);
}

/// Runs `setup` `reps` times (once when tracing) on emptied backends; the
/// last rep's state is kept.
template <typename Fn>
void RepeatSetup(Run* run, int reps, Fn&& setup) {
  if (run->tracer.on()) reps = 1;
  for (int r = 0; r < reps; ++r) {
    for (Backend& b : run->be) {
      b.inst.clear();
      b.op_rng.clear();
    }
    TimedSetup(run, setup);
  }
}

// ---- ingest ------------------------------------------------------------------
// Data-less builds, then a timed load of 100 uniform keys per node with no
// sim/obs/fault/cache attached: the write path with every hook detached.
// Backends whose load takes well under a second repeat it on fresh builds
// (passes), so every backend's window is seconds long.

constexpr size_t kIngestKeysPerNode = 100;
constexpr size_t kIngestUnitsPerPass = 20;
constexpr int kIngestSetupReps = 3;
/// Passes per backend at the reference --seconds (baton, chord, d3tree,
/// multiway): baton ~2.5 s and multiway ~9 s per pass, chord and d3tree
/// under 1 s, so every window is 3 s or more.
constexpr double kIngestPasses[kNumBackends] = {2, 6, 4, 1};
constexpr size_t kIngestProbeInserts = 2000;

void Ingest(Run* run) {
  const Args& a = run->args;
  std::vector<Key> keys;
  std::array<size_t, kNumBackends> passes{};
  for (int b = 0; b < kNumBackends; ++b) {
    passes[b] = a.trace ? 1 : Scaled(a, kIngestPasses[b]);
  }
  baton::overlay::Config cfg;
  cfg.baton.max_hops_factor = 64;
  RepeatSetup(run, kIngestSetupReps, [&]() {
    {
      Scope s(&run->tracer, "workload.gen");
      keys = UniformKeys(kIngestKeysPerNode * a.n, Mix64(a.seed ^ 0x1e57));
    }
    for (Backend& b : run->be) {
      Scope s(&run->tracer, "setup.build", b.idx);
      for (size_t p = 0; p < passes[b.idx]; ++p) {
        uint64_t seed = Mix64(a.seed * 131 + p);
        b.inst.push_back(baton::bench::BuildOverlay(b.name, a.n, seed, cfg));
        b.op_rng.emplace_back(Mix64(seed ^ 0x3a11c10c));
      }
    }
  });
  CheckAll(run);
  SnapshotBefore(run);
  if (a.trace) run->tracer.Reserve(keys.size() * kNumBackends + 4096);

  std::vector<Lane> lanes;
  for (Backend& b : run->be) {
    Backend* bp = &b;
    lanes.push_back(
        {b.idx, passes[b.idx] * kIngestUnitsPerPass,
         [run, bp, &keys](size_t u) {
           size_t p = u / kIngestUnitsPerPass;
           size_t s = u % kIngestUnitsPerPass;
           size_t lo = keys.size() * s / kIngestUnitsPerPass;
           size_t hi = keys.size() * (s + 1) / kIngestUnitsPerPass;
           for (size_t i = lo; i < hi; ++i) {
             Apply(run, bp->idx, &bp->inst[p], &bp->op_rng[p],
                   Op{OpType::kInsert, keys[i], 0}, static_cast<uint32_t>(i),
                   &bp->w);
           }
         },
         &b.w});
  }
  RunInterleaved(&lanes, &run->tracer);

  CheckAll(run);
  uint64_t expect = keys.size() + (a.corrupt ? 1 : 0);
  for (Backend& b : run->be) {
    for (size_t p = 0; p < b.inst.size(); ++p) {
      uint64_t got = b.ov(p).total_keys();
      if (got != expect) {
        run->Fail(b.name + " pass " + std::to_string(p) + " holds " +
                  std::to_string(got) + " keys, expected " +
                  std::to_string(expect));
      }
    }
  }

  // Untimed probe: the write path's simulated latency, measured after the
  // timed window on the first pass's instance with uniform:1,10 links.
  baton::bench::LatencySpec spec;
  spec.kind = baton::bench::LatencySpec::Kind::kUniform;
  spec.lo = 1;
  spec.hi = 10;
  std::vector<Key> probe = UniformKeys(kIngestProbeInserts,
                                       Mix64(a.seed ^ 0x9e0b));
  for (Backend& b : run->be) {
    baton::bench::AttachLatency(&b.inst[0], spec, a.seed);
    b.probe.record_latency = true;
    for (Key k : probe) {
      b.probe.Account(OpType::kInsert,
                      ApplyOp(b.ov(), Op{OpType::kInsert, k, 0},
                              &b.op_rng[0], &b.inst[0].members, {}));
    }
    if (b.probe.failed > 0) run->Fail(b.name + " probe inserts failed");
  }
}

// ---- shared by lookup_zipf and churn_mix -----------------------------------
// Both run kLoadedSets independently seeded instance sets: each set has its
// own key set, builds, traces and fault plan, on all four backends. Each
// set's set-up is one set-up rep, and the timed units cycle through the
// sets, so every backend's figures average over three builds. With one
// build, figures followed the build: d3tree's churn rate tracks how many
// routes its warm cache holds (64k to 138k across seeds) and ranged 2x.

constexpr size_t kPreloadKeysPerNode = 20;
constexpr size_t kLoadedSets = 3;

/// Seed of instance set `set`.
uint64_t SetSeed(const Args& a, size_t set) {
  return Mix64(a.seed * 1000003 + set);
}

/// The figure benches' preloaded configuration, BATON optionally
/// replicated `replication` times.
baton::overlay::Config PreloadConfig(int replication) {
  baton::overlay::Config cfg = baton::bench::BalancedOverlayConfig();
  if (replication > 0) cfg.baton = baton::bench::ReplicatedConfig(replication);
  return cfg;
}

/// The key set every backend of one instance set holds.
std::vector<Key> PreloadKeys(size_t n, uint64_t seed) {
  return UniformKeys(kPreloadKeysPerNode * n, Mix64(seed ^ 0x1e57));
}

/// Appends each backend's build seed for the set seeded `seed` (BATON's is
/// probed, see ProbeBuildSeed). Runs before the timed set-up.
void ChooseBuildSeeds(Run* run, uint64_t seed,
                      const baton::overlay::Config& cfg) {
  std::vector<Key> keys = PreloadKeys(run->args.n, seed);
  for (Backend& b : run->be) {
    uint64_t s = Mix64(seed ^ 0xb0b);
    if (b.name == "baton") s = ProbeBuildSeed(&b, run->args.n, s, cfg, keys);
    b.build_seed.push_back(s);
  }
}

/// A zipf:0.9 stream over the stored keys (rank 1 = smallest key, so the
/// popular mass sits at the low end of the key space); a quarter of the
/// exact lookups ask for the key's successor value, which is almost never
/// stored, so the found bits carry information.
class ZipfStored {
 public:
  explicit ZipfStored(const std::vector<Key>* sorted)
      : sorted_(sorted), zipf_(sorted->size(), 0.9) {}
  Key Exact(Rng* rng) const {
    Key k = Pick(rng);
    return rng->NextBelow(4) == 0 ? k + 1 : k;
  }
  Key Pick(Rng* rng) const { return (*sorted_)[zipf_.Sample(rng) - 1]; }

 private:
  const std::vector<Key>* sorted_;
  baton::ZipfGenerator zipf_;
};

/// Warms `inst`'s route cache with exact lookups (untimed, unaccounted).
void Warm(Run* run, int backend, Instance* inst, const std::vector<Op>& warm,
          uint64_t seed, const char* span) {
  Scope s(&run->tracer, span, backend);
  Window scratch;
  Rng rng(Mix64(seed ^ 0x3a3a));
  for (const Op& op : warm) {
    scratch.Account(op.type,
                    ApplyOp(*inst->overlay, op, &rng, &inst->members, {}));
  }
  BATON_CHECK_EQ(scratch.failed, 0u)
      << kBackends[backend] << " warm-up lookups failed";
}

baton::cache::Config RouteCacheConfig() {
  baton::cache::Config c;
  c.capacity = 256;
  c.root_levels = 2;
  return c;
}

// ---- lookup_zipf --------------------------------------------------------------
// Preloaded balanced build with a warm route cache; the timed phase is an
// open-loop serve::Engine run at 0.8x the calibrated capacity over a zipf
// trace of 95% exact and 5% range searches. Read and serve path only.

constexpr size_t kLookupTraceOps = 60000;
/// Engine runs per backend and set at the reference --seconds (baton,
/// chord, d3tree, multiway): ~0.15 s per run for the first three, ~1.1 s
/// for multiway, so each backend's window is 3.5 to 4.5 s over the sets.
constexpr double kLookupRounds[kNumBackends] = {9, 9, 9, 1};
constexpr size_t kLookupWarmOps = 50000;
constexpr size_t kLookupCalibrationOps = 20000;
constexpr double kLookupLoad = 0.8;

/// Inputs of one lookup_zipf instance set.
struct LookupInputs {
  uint64_t seed = 0;
  std::vector<Key> keys, sorted;
  std::vector<Op> trace, warm;
  std::vector<std::vector<Op>> calibration;  // uniform, zipf
};

LookupInputs MakeLookupInputs(Run* run, uint64_t seed) {
  Scope s(&run->tracer, "workload.gen");
  LookupInputs in;
  in.seed = seed;
  in.keys = PreloadKeys(run->args.n, seed);
  in.sorted = in.keys;
  std::sort(in.sorted.begin(), in.sorted.end());
  ZipfStored zipf(&in.sorted);
  Rng rng(Mix64(seed ^ 0x7a3e));
  Key width = kDomainHi / run->args.n;  // about one node's range
  auto zipf_mix = [&](size_t count, std::vector<Op>* out) {
    for (size_t i = 0; i < count; ++i) {
      if (rng.NextBelow(20) == 0) {
        Key lo = zipf.Pick(&rng);
        out->push_back({OpType::kRange, lo, lo + width});
      } else {
        out->push_back({OpType::kExact, zipf.Exact(&rng), 0});
      }
    }
  };
  zipf_mix(kLookupTraceOps, &in.trace);
  for (size_t i = 0; i < kLookupWarmOps; ++i) {
    in.warm.push_back({OpType::kExact, zipf.Exact(&rng), 0});
  }
  in.calibration.resize(2);
  baton::workload::UniformKeys uni(1, kDomainHi);
  for (size_t i = 0; i < kLookupCalibrationOps; ++i) {
    in.calibration[0].push_back({OpType::kExact, uni.Next(&rng), 0});
  }
  zipf_mix(kLookupCalibrationOps, &in.calibration[1]);
  return in;
}

baton::serve::EngineConfig LookupEngineConfig() {
  baton::serve::EngineConfig c;
  c.replay.record_answers = true;
  return c;
}

/// Builds, caches, warms and calibrates one lookup_zipf instance in place;
/// returns the calibrated capacity: ops per tick at which the busiest node
/// is busy every tick, measured closed loop on a uniform trace as
/// bench_throughput does, and on a zipf trace; the lower of the two. At
/// 0.8x the uniform capacity alone multiway's hot nodes are overloaded, its
/// queues grow for the whole run, and its p99 varied tenfold across seeds;
/// below both capacities p99 is a steady-state figure. Twin set-up spans
/// are named twin.* so setup.* covers the measured instances.
double SetupLookup(Run* run, int backend, Instance* inst, uint64_t build_seed,
                   const LookupInputs& in, bool twin) {
  const char* warm_span = twin ? "twin.warm" : "setup.warm";
  {
    Scope s(&run->tracer, twin ? "twin.build" : "setup.build", backend);
    *inst = BuildLoaded(kBackends[backend], run->args.n, build_seed,
                        PreloadConfig(0), in.keys);
  }
  baton::bench::AttachCache(inst, RouteCacheConfig());
  Warm(run, backend, inst, in.warm, in.seed, warm_span);
  Scope s(&run->tracer, warm_span, backend);
  baton::serve::Engine engine(inst->overlay.get(), &inst->members,
                              LookupEngineConfig());
  double capacity = 0;
  for (const std::vector<Op>& trace : in.calibration) {
    Rng rng(Mix64(in.seed ^ 0x5e7e));
    baton::serve::EngineResult cal = engine.RunClosedLoop(trace, &rng);
    BATON_CHECK_GT(cal.max_node_served, 0u);
    double c = static_cast<double>(cal.completed) /
               static_cast<double>(cal.max_node_served);
    capacity = capacity == 0 ? c : std::min(capacity, c);
  }
  return capacity;
}

void LookupZipf(Run* run) {
  const Args& a = run->args;
  size_t sets = a.trace ? 1 : kLoadedSets;
  std::vector<LookupInputs> in;
  for (size_t s = 0; s < sets; ++s) {
    ChooseBuildSeeds(run, SetSeed(a, s), PreloadConfig(0));
  }
  for (Backend& b : run->be) b.inst.reserve(sets);
  for (size_t s = 0; s < sets; ++s) {
    TimedSetup(run, [&]() {
      in.push_back(MakeLookupInputs(run, SetSeed(a, s)));
      for (Backend& b : run->be) {
        b.inst.emplace_back();
        b.capacity.push_back(SetupLookup(run, b.idx, &b.inst[s],
                                         b.build_seed[s], in[s], false));
      }
    });
  }
  for (Backend& b : run->be) {
    for (Instance& inst : b.inst) {
      b.engine.push_back(std::make_unique<baton::serve::Engine>(
          inst.overlay.get(), &inst.members, LookupEngineConfig()));
    }
  }
  // Traced run (one set): an identically seeded twin per backend for the
  // serve self-time split.
  if (a.trace) {
    for (Backend& b : run->be) {
      double cap = SetupLookup(run, b.idx, &b.twin, b.build_seed[0], in[0],
                               /*twin=*/true);
      BATON_CHECK_EQ(cap, b.capacity[0]) << "twin diverged from " << b.name;
    }
  }
  CheckAll(run);
  SnapshotBefore(run);

  std::vector<Lane> lanes;
  for (Backend& b : run->be) {
    Backend* bp = &b;
    size_t units = sets * Scaled(a, kLookupRounds[b.idx]);
    if (a.trace) run->tracer.Reserve(units * kLookupTraceOps);
    lanes.push_back(
        {b.idx, units,
         [run, bp, sets, &in](size_t u) {
           size_t s = u % sets;
           uint64_t r = u / sets;
           baton::serve::PoissonArrivals arrivals(
               kLookupLoad * bp->capacity[s], Mix64(in[s].seed ^ (0xa881 + r)));
           Rng op_rng(Mix64(in[s].seed ^ 0x5e7e));
           baton::serve::EngineResult res;
           {
             Scope span(&run->tracer, "serve.run", bp->idx);
             res = bp->engine[s]->Run(in[s].trace, &arrivals, &op_rng);
           }
           bp->w.Account(res.replay);
           bp->sojourn.Merge(res.sojourn);
           bp->queue_wait.Merge(res.queue_wait);
           bp->peak_queue = std::max(bp->peak_queue, res.peak_queue_depth);
           bp->answer_set.push_back(s);
           bp->exact_found.push_back(std::move(res.replay.exact_found));
           bp->range_matches.push_back(std::move(res.replay.range_matches));
         },
         &b.w});
  }
  RunInterleaved(&lanes, &run->tracer);

  // Twin replay (traced run only, outside the lanes): the same trace op by
  // op through ApplyOp, once per engine run.
  if (a.trace) {
    for (Backend& b : run->be) {
      Window scratch;
      for (size_t r = 0; r < b.exact_found.size(); ++r) {
        Scope s(&run->tracer, "serve.twin_replay", b.idx);
        Rng rng(Mix64(in[0].seed ^ 0x5e7e));
        for (size_t i = 0; i < in[0].trace.size(); ++i) {
          Apply(run, b.idx, &b.twin, &rng, in[0].trace[i],
                static_cast<uint32_t>(i), &scratch);
        }
      }
    }
  }

  CheckAll(run);
  if (a.corrupt) {
    run->be[1].exact_found[0][0] = !run->be[1].exact_found[0][0];
  }
  // Gate: an exact answer must equal membership of the query's routing
  // coordinate among the stored keys' coordinates, a range answer the
  // number of stored keys in range. Tree backends route on the key itself,
  // so their answers are key-exact and therefore agree with each other.
  // Chord routes on a 32-bit hash of the key: a query for an absent key
  // whose hash collides with a stored key's reads as found. Such answers
  // pass the gate but are counted and reported.
  for (Backend& b : run->be) {
    bool ranges = b.ov().Supports(baton::overlay::kRangeSearch);
    for (size_t s = 0; s < sets; ++s) {
      const std::vector<Key>& sorted = in[s].sorted;
      std::vector<uint64_t> coords;
      coords.reserve(sorted.size());
      for (Key k : sorted) coords.push_back(b.ov(s).RouteCoordOf(k));
      std::sort(coords.begin(), coords.end());
      std::vector<bool> want_found;
      std::vector<uint64_t> want_matches;
      uint64_t collisions = 0;
      for (const Op& op : in[s].trace) {
        if (op.type == OpType::kExact) {
          bool found = std::binary_search(coords.begin(), coords.end(),
                                          b.ov(s).RouteCoordOf(op.key));
          want_found.push_back(found);
          if (found != std::binary_search(sorted.begin(), sorted.end(),
                                          op.key)) {
            ++collisions;
          }
        } else if (ranges) {
          want_matches.push_back(static_cast<uint64_t>(
              std::lower_bound(sorted.begin(), sorted.end(), op.key_hi) -
              std::lower_bound(sorted.begin(), sorted.end(), op.key)));
        }
      }
      for (size_t u = 0; u < b.answer_set.size(); ++u) {
        if (b.answer_set[u] != s) continue;
        b.collision_answers += collisions;
        if (b.exact_found[u] != want_found ||
            b.range_matches[u] != want_matches) {
          run->Fail(b.name + " answered wrongly in engine run " +
                    std::to_string(u));
        }
      }
    }
  }
}

// ---- churn_mix ----------------------------------------------------------------
// The preloaded build (BATON replicated twice) with a warm route cache, sim
// latency and a query-message drop plan with retries; the timed phase is a
// closed-loop replay of a uniform-key churn trace.

constexpr double kChurnOpsPerSet = 3000;
constexpr size_t kChurnUnitsPerSet = 6;
constexpr size_t kChurnWarmOps = 200000;
/// Loss rate on query-category messages and the read retry budget. A
/// range read can send ~100 query messages per attempt, so at 0.5% loss it
/// loses one ~40% of the time; 10 retries make a give-up (0.4^11 for the
/// longest reads) rare enough that no operation fails in a run.
constexpr double kChurnQueryDrop = 0.005;
constexpr int kChurnRetries = 10;

/// Inputs of one churn_mix instance set.
struct ChurnInputs {
  uint64_t seed = 0;
  std::vector<Key> keys;
  std::vector<Op> warm, trace;
};

ChurnInputs MakeChurnInputs(Run* run, uint64_t seed) {
  Scope s(&run->tracer, "workload.gen");
  ChurnInputs in;
  in.seed = seed;
  in.keys = PreloadKeys(run->args.n, seed);
  std::vector<Key> sorted = in.keys;
  std::sort(sorted.begin(), sorted.end());
  ZipfStored zipf(&sorted);
  Rng rng(Mix64(seed ^ 0xc4a7));
  for (size_t i = 0; i < kChurnWarmOps; ++i) {
    in.warm.push_back({OpType::kExact, zipf.Exact(&rng), 0});
  }
  size_t ops = Scaled(run->args, kChurnOpsPerSet);
  baton::workload::UniformKeys uni(1, kDomainHi);
  baton::workload::ChurnMix mix;
  mix.joins = ops * 10 / 100;
  mix.leaves = ops * 10 / 100;
  mix.failures = ops * 2 / 100;
  mix.inserts = ops * 30 / 100;
  mix.ranges = ops * 4 / 100;
  mix.exacts = ops - mix.joins - mix.leaves - mix.failures - mix.inserts -
               mix.ranges;
  mix.range_width = kDomainHi / run->args.n;
  in.trace = baton::workload::MakeChurnTrace(&rng, &uni, mix);
  return in;
}

void ChurnMix(Run* run) {
  const Args& a = run->args;
  size_t sets = a.trace ? 1 : kLoadedSets;
  baton::overlay::Config cfg = PreloadConfig(2);
  std::vector<ChurnInputs> in;
  for (size_t s = 0; s < sets; ++s) ChooseBuildSeeds(run, SetSeed(a, s), cfg);
  for (Backend& b : run->be) b.inst.reserve(sets);
  for (size_t s = 0; s < sets; ++s) {
    TimedSetup(run, [&]() {
      in.push_back(MakeChurnInputs(run, SetSeed(a, s)));
      for (Backend& b : run->be) {
        b.op_rng.emplace_back(Mix64(in[s].seed ^ 0x0c0c));
        {
          Scope span(&run->tracer, "setup.build", b.idx);
          b.inst.push_back(
              BuildLoaded(b.name, a.n, b.build_seed[s], cfg, in[s].keys));
        }
        Instance* inst = &b.inst[s];
        baton::bench::AttachCache(inst, RouteCacheConfig());
        Warm(run, b.idx, inst, in[s].warm, in[s].seed, "setup.warm");
        baton::bench::LatencySpec spec;
        spec.kind = baton::bench::LatencySpec::Kind::kUniform;
        spec.lo = 1;
        spec.hi = 10;
        baton::bench::AttachLatency(inst, spec, in[s].seed);
        baton::fault::PlanConfig pcfg;
        pcfg.seed = Mix64(in[s].seed ^ 0xfa17);
        b.plan.push_back(std::make_unique<baton::fault::Plan>(pcfg));
        baton::fault::LinkFaults drop;
        drop.drop = kChurnQueryDrop;
        b.plan[s]->SetCategoryFaults(baton::net::MsgCategory::kQuery, drop);
        baton::fault::Policy pol;
        pol.max_retries = kChurnRetries;
        pol.reroute = true;
        inst->overlay->SetResilience(pol);
        inst->overlay->AttachFaults(b.plan[s].get());
      }
    });
  }
  CheckAll(run);
  SnapshotBefore(run);
  if (a.trace) run->tracer.Reserve(in[0].trace.size() * kNumBackends + 4096);

  std::vector<Lane> lanes;
  for (Backend& b : run->be) {
    Backend* bp = &b;
    b.w.record_latency = true;
    lanes.push_back(
        {b.idx, sets * kChurnUnitsPerSet,
         [run, bp, sets, &in](size_t u) {
           size_t s = u % sets;
           size_t k = u / sets;
           const std::vector<Op>& trace = in[s].trace;
           size_t lo = trace.size() * k / kChurnUnitsPerSet;
           size_t hi = trace.size() * (k + 1) / kChurnUnitsPerSet;
           for (size_t i = lo; i < hi; ++i) {
             Apply(run, bp->idx, &bp->inst[s], &bp->op_rng[s], trace[i],
                   static_cast<uint32_t>(i), &bp->w);
           }
         },
         &b.w});
  }
  RunInterleaved(&lanes, &run->tracer);

  CheckAll(run);
  for (Backend& b : run->be) {
    for (size_t s = 0; s < sets; ++s) {
      std::vector<PeerId> have = b.ov(s).Members();
      std::vector<PeerId> want = b.inst[s].members;
      if (a.corrupt && b.idx == 0 && s == 0) want.pop_back();
      std::sort(have.begin(), have.end());
      std::sort(want.begin(), want.end());
      if (have != want) {
        run->Fail(b.name + " membership diverged from the replayed trace");
      }
    }
  }
}

// ---- metrics -------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Counter delta over the timed window, summed over a backend's instances.
uint64_t NetDelta(Backend& b, const std::function<uint64_t(
                                  const baton::net::CounterSnapshot&,
                                  const baton::net::CounterSnapshot&)>& fn) {
  uint64_t sum = 0;
  for (size_t i = 0; i < b.inst.size(); ++i) {
    sum += fn(b.net_before[i], b.inst[i].net()->Snapshot());
  }
  return sum;
}

/// Simulated latency quantile: serve sojourn on lookup_zipf, critical-path
/// ticks of the probe inserts on ingest and of every op on churn_mix.
double SimQuantile(const Run& run, const Backend& b, double q) {
  if (run.args.workload == "lookup_zipf") return TickQuantile(b.sojourn, q);
  const Window& w = run.args.workload == "ingest" ? b.probe : b.w;
  return TickQuantile(w.latency, q);
}

Metrics EndToEnd(Run* run) {
  Metrics m;
  m["setup_s"] = {Median(run->setup_s), "s"};
  for (Backend& b : run->be) {
    m["ops_per_s." + b.name] = {b.w.OpsPerS(), "ops/s"};
    m["msgs_per_op." + b.name] = {b.w.MsgsPerOp(), "msgs/op"};
    m["sim_p99_ticks." + b.name] = {SimQuantile(*run, b, 0.99), "ticks"};
  }
  m["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  return m;
}

Metrics PerLayer(Run* run) {
  Metrics m;
  const Tracer& t = run->tracer;
  const char* ops[] = {"insert", "exact", "range", "join", "leave", "fail"};
  for (Backend& b : run->be) {
    const std::string& n = b.name;
    const Window& w = b.w;
    for (const char* op : ops) {
      // Ops behind a capability gate the backend lacks never execute.
      if ((std::strcmp(op, "fail") == 0 &&
           !b.ov().Supports(baton::overlay::kFailRecovery)) ||
          (std::strcmp(op, "range") == 0 &&
           !b.ov().Supports(baton::overlay::kRangeSearch))) {
        continue;
      }
      std::vector<uint64_t> d = t.Durations(std::string("overlay.") + op,
                                            b.idx);
      std::string base = std::string("overlay.") + op;
      m[base + ".us_p50." + n] = {Quantile(d, 0.5) / 1e3, "us"};
      m[base + ".us_p99." + n] = {Quantile(d, 0.99) / 1e3, "us"};
    }
    // Every ApplyOp call is an overlay span, capability-gated ones included.
    double op_spans = 0;
    for (const Tracer::Span& s : t.spans()) {
      if (s.backend == b.idx && s.op_id != Tracer::kNoOp &&
          std::find(run->op_span.begin(), run->op_span.end(), s.name) !=
              run->op_span.end()) {
        ++op_spans;
      }
    }
    m["overlay.spans." + n] = {op_spans, "count"};
    m["route.hops_per_op." + n] = {
        Ratio(static_cast<double>(w.hops), static_cast<double>(w.executed)),
        "hops/op"};
    uint64_t maint = NetDelta(b, [](const auto& x, const auto& y) {
      return baton::bench::MaintenanceDelta(x, y);
    });
    m["restructure.maint_msgs_per_op." + n] = {
        Ratio(static_cast<double>(maint), static_cast<double>(w.executed)),
        "msgs/op"};
    uint64_t total = NetDelta(b, [](const auto& x, const auto& y) {
      return baton::net::Network::Delta(x, y);
    });
    m["net.msgs_per_s." + n] = {Ratio(static_cast<double>(total), w.wall_s),
                                "msgs/s"};

    // Cache counters over the timed window, summed over the instances.
    double hits = 0, consults = 0, stale = 0, inval = 0, entries = 0;
    for (size_t i = 0; i < b.inst.size(); ++i) {
      if (!b.inst[i].cache) continue;
      const baton::cache::Stats& s = b.inst[i].cache->stats();
      const baton::cache::Stats& s0 = b.cache_before[i];
      hits += static_cast<double>(s.hits - s0.hits);
      stale += static_cast<double>(s.stale - s0.stale);
      consults += static_cast<double>((s.hits - s0.hits) +
                                      (s.misses - s0.misses) +
                                      (s.stale - s0.stale));
      inval += static_cast<double>(s.invalidations - s0.invalidations);
      entries += static_cast<double>(b.inst[i].cache->TotalEntries());
    }
    double hit = Ratio(hits, consults);
    stale = Ratio(stale, consults);
    entries /= static_cast<double>(b.inst.size());
    inval = Ratio(inval, static_cast<double>(w.member_ops));
    m["cache.hit_rate." + n] = {hit, "ratio"};
    m["cache.stale_rate." + n] = {stale, "ratio"};
    m["cache.entries." + n] = {entries, "entries"};
    m["cache.invalidations_per_member_op." + n] = {inval, "inval/op"};

    double run_s = t.TotalSeconds("serve.run", b.idx);
    double twin_s = t.TotalSeconds("serve.twin_replay", b.idx);
    m["serve.run_s." + n] = {run_s, "s"};
    m["serve.self_s." + n] = {run_s > 0 ? run_s - twin_s : 0, "s"};
    m["serve.queue_wait_p99_ticks." + n] = {TickQuantile(b.queue_wait, 0.99),
                                            "ticks"};
    m["serve.peak_queue." + n] = {static_cast<double>(b.peak_queue), "msgs"};

    m["fault.retries_per_op." + n] = {
        Ratio(static_cast<double>(w.retries), static_cast<double>(w.reads)),
        "retries/op"};
    m["fault.gave_up_frac." + n] = {
        Ratio(static_cast<double>(w.gave_up), static_cast<double>(w.reads)),
        "ratio"};
    m["sim.p50_ticks." + n] = {SimQuantile(*run, b, 0.5), "ticks"};
    m["setup.build_s." + n] = {t.TotalSeconds("setup.build", b.idx), "s"};
    m["setup.warm_s." + n] = {t.TotalSeconds("setup.warm", b.idx), "s"};
    m["traced.ops_per_s." + n] = {w.OpsPerS(), "ops/s"};
  }

  // BATON storage skew (KeyBag sizes) on the first instance.
  const baton::BatonNetwork& bn = baton::overlay::BatonBackend(run->be[0].ov());
  std::vector<double> sizes;
  for (PeerId p : bn.Members()) {
    sizes.push_back(static_cast<double>(bn.node(p).data.size()));
  }
  double kmax = sizes.empty() ? 0 : *std::max_element(sizes.begin(),
                                                      sizes.end());
  m["storage.keys_max.baton"] = {kmax, "keys"};
  m["storage.max_over_median.baton"] = {Ratio(kmax, Median(sizes)), "ratio"};

  Backend& bt = run->be[0];
  uint64_t replica = NetDelta(bt, [](const auto& x, const auto& y) {
    return baton::bench::CategoryDelta(x, y,
                                       baton::net::MsgCategory::kReplication);
  });
  m["replication.msgs_per_op.baton"] = {
      Ratio(static_cast<double>(replica), static_cast<double>(bt.w.executed)),
      "msgs/op"};
  m["workload.gen_s"] = {t.TotalSeconds("workload.gen"), "s"};
  m["setup.join_starvations.baton"] = {
      static_cast<double>(bt.join_starvations), "count"};
  return m;
}

// ---- output ----------------------------------------------------------------------

void PrintMetrics(std::FILE* f, const Metrics& m) {
  std::fprintf(f, "{");
  bool first = true;
  for (const auto& [name, v] : m) {
    std::fprintf(f, "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                 first ? "" : ", ", name.c_str(), Num(v.value).c_str(),
                 v.unit.c_str());
    first = false;
  }
  std::fprintf(f, "}");
}

/// One JSON line of steadiness evidence and failure accounting, printed
/// before the result line.
void PrintDetail(const Run& run) {
  std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"n\": %zu, \"trace\": %d, \"setup_s\": [",
              run.args.workload.c_str(),
              static_cast<unsigned long long>(run.args.seed), run.args.n,
              run.args.trace ? 1 : 0);
  for (size_t i = 0; i < run.setup_s.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", Num(run.setup_s[i]).c_str());
  }
  std::printf("], \"backends\": {");
  for (const Backend& b : run.be) {
    const Window& w = b.w;
    std::printf(
        "%s\"%s\": {\"ops\": %llu, \"failed\": %llu, \"unsupported\": %llu, "
        "\"skipped\": %llu, \"window_s\": %s, \"units\": %llu, "
        "\"cpu_over_wall\": %s, \"loadavg_lo\": %s, \"loadavg_hi\": %s, "
        "\"join_starvations\": %llu, \"hash_collision_answers\": %llu}",
        b.idx ? ", " : "", b.name.c_str(),
        static_cast<unsigned long long>(w.attempted),
        static_cast<unsigned long long>(w.failed),
        static_cast<unsigned long long>(w.unsupported),
        static_cast<unsigned long long>(w.skipped), Num(w.wall_s).c_str(),
        static_cast<unsigned long long>(w.units),
        Num(Ratio(w.cpu_s, w.wall_s)).c_str(), Num(w.load_lo).c_str(),
        Num(w.load_hi).c_str(),
        static_cast<unsigned long long>(b.join_starvations),
        static_cast<unsigned long long>(b.collision_answers));
  }
  std::printf("}, \"errors\": [");
  for (size_t i = 0; i < run.errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", run.errors[i].c_str());
  }
  std::printf("]}}\n");
}

/// Op spans written per backend to the traced run's span file (all are
/// kept in memory and used for the metrics).
constexpr size_t kWrittenOpSpans = 2000;

int Main(int argc, char** argv) {
  Run run(ParseArgs(argc, argv));
  if (run.args.workload == "ingest") {
    Ingest(&run);
  } else if (run.args.workload == "lookup_zipf") {
    LookupZipf(&run);
  } else {
    ChurnMix(&run);
  }
  uint64_t attempted = 0, failed = 0;
  for (const Backend& b : run.be) {
    attempted += b.w.attempted;
    failed += b.w.failed;
  }
  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
                 e.c_str());
  }
  if (run.args.trace) {
    std::string path = run.args.out_dir + "/spans-" + run.args.workload +
                       "-seed" + std::to_string(run.args.seed) + ".json";
    if (!run.tracer.WriteChromeJson(path, kWrittenOpSpans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n",
                 run.tracer.spans().size(), path.c_str());
  }
  Metrics m = run.args.trace ? PerLayer(&run) : EndToEnd(&run);
  PrintDetail(run);
  bool correct = run.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  PrintMetrics(stdout, m);
  std::printf("}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
