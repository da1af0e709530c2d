// workload::Replay: drive ANY overlay backend through a recorded operation
// trace and aggregate per-operation OpStats. This is the overlay-generic
// driver the comparison benches and the cross-backend differential tests
// are built on: one trace, N backends, comparable numbers.
//
// Replay draws exactly one rng value per trace op (origin / contact /
// victim selection), before any capability check, so two backends replaying
// the same trace with equal-seeded rngs see identical random streams even
// when one of them skips unsupported ops. That is what makes answer sets
// directly comparable across backends.
#ifndef BATON_WORKLOAD_REPLAY_H_
#define BATON_WORKLOAD_REPLAY_H_

#include <array>
#include <cstdint>
#include <vector>

#include "net/network.h"
#include "obs/log_histogram.h"
#include "overlay/overlay.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace baton {
namespace workload {

struct ReplayOptions {
  /// Leaves/failures are skipped while the overlay has at most this many
  /// members (a trace must not shrink the overlay away underneath itself).
  size_t min_members = 4;
  /// Run RecoverAllFailures after every kFail (single-failure traces); the
  /// recovery messages are charged to the kFail aggregate.
  bool recover_failures = true;
  /// Record per-query answers (found bits, range match counts) for
  /// cross-backend differential comparison.
  bool record_answers = false;
};

/// Per-OpType aggregate of the OpStats the overlay reported.
struct OpAggregate {
  uint64_t count = 0;        // ops executed (excluding skipped/unsupported)
  uint64_t ok = 0;           // ops that returned OK
  uint64_t found = 0;        // searches that found stored keys
  uint64_t skipped = 0;      // guarded by min_members
  uint64_t unsupported = 0;  // backend lacks the capability
  uint64_t messages = 0;     // total OpStats::messages
  uint64_t hops = 0;         // total OpStats::hops (negative hops clamp to 0)
  uint64_t latency = 0;      // total OpStats::latency_ticks

  // Resilience outcomes (all zero without a fault plan attached).
  uint64_t retries = 0;       // total OpStats::retries
  uint64_t timeouts = 0;      // total OpStats::timeouts
  uint64_t gave_up = 0;       // ops that exhausted the retry budget
  uint64_t degraded = 0;      // ops that completed by absorbing faults
  uint64_t dropped_msgs = 0;  // total messages lost across ops

  // Route-cache outcomes (all zero without a cache manager attached).
  uint64_t cache_hits = 0;   // total OpStats::cache_hits (verified jumps)
  uint64_t cache_stale = 0;  // total OpStats::cache_stale (refuted probes)
  uint64_t hops_saved = 0;   // total OpStats::hops_saved

  /// Full distributions behind the totals (one sample per executed op), so
  /// replays report tail behaviour -- p50/p90/p99 -- not just means.
  /// Log-bucketed and mergeable across seeds/tasks; empty for an OpType the
  /// trace never executed (quantiles then read 0, like the means).
  obs::LogHistogram hops_hist;
  obs::LogHistogram messages_hist;
  obs::LogHistogram latency_hist;

  /// Folds one executed op's stats into the aggregate (counts, totals and
  /// histograms; negative hops sentinels clamp to 0). Callers that track
  /// trace-wide totals (Replay, the serving engine) add messages/latency to
  /// those themselves.
  void Accumulate(const overlay::OpStats& st);

  /// Combines another aggregate into this one (cross-seed bench rollups).
  void Merge(const OpAggregate& other);

  double MeanMessages() const {
    return count == 0 ? 0.0
                      : static_cast<double>(messages) /
                            static_cast<double>(count);
  }
  double MeanHops() const {
    return count == 0 ? 0.0
                      : static_cast<double>(hops) / static_cast<double>(count);
  }
  /// Mean simulated critical-path ticks per op (0 unless the overlay had a
  /// latency model attached during the replay).
  ///
  /// All Mean*/quantile accessors are total functions: a zero-op aggregate
  /// (e.g. an OpType that was entirely capability-filtered) reads as 0
  /// everywhere, never as a division by zero.
  double MeanLatency() const {
    return count == 0
               ? 0.0
               : static_cast<double>(latency) / static_cast<double>(count);
  }
};

struct ReplayResult {
  std::array<OpAggregate, kNumOpTypes> per_op{};
  uint64_t total_messages = 0;  // sum of OpStats::messages over the trace
  uint64_t total_latency = 0;   // sum of OpStats::latency_ticks

  /// With ReplayOptions::record_answers: one entry per kExact op (was the
  /// key stored?) and per kRange op (stored keys in the range), in trace
  /// order. Two backends holding the same key set must produce identical
  /// vectors -- the differential-test contract.
  std::vector<bool> exact_found;
  std::vector<uint64_t> range_matches;

  const OpAggregate& of(OpType t) const {
    return per_op[static_cast<size_t>(t)];
  }
};

/// Outcome of driving one trace op through an overlay via ApplyOp.
struct AppliedOp {
  /// What happened to the op, mirroring the OpAggregate bookkeeping:
  /// kExecuted ops carry `stats`; kSkipped ops were guarded by
  /// ReplayOptions::min_members; kUnsupported ops hit a capability gate.
  enum class Disposition : uint8_t { kExecuted, kSkipped, kUnsupported };
  Disposition disposition = Disposition::kExecuted;
  overlay::OpStats stats;

  bool executed() const { return disposition == Disposition::kExecuted; }
};

/// Executes ONE trace op against `ov` with Replay's exact semantics: one
/// rng draw before any capability/guard check (cross-backend stream
/// alignment), min_members guards on kLeave/kFail, RecoverAllFailures
/// folded into kFail when opts.recover_failures, and `members` maintained
/// across membership changes. Replay is a loop over this function; the
/// serving engine admits ops through it one event at a time -- sharing the
/// implementation is what makes the engine's closed-loop mode match Replay
/// aggregates exactly, by construction.
AppliedOp ApplyOp(overlay::Overlay& ov, const Op& op, Rng* rng,
                  std::vector<net::PeerId>* members,
                  const ReplayOptions& opts);

/// Replays `trace` against `ov`, picking op origins/contacts/victims from
/// `members` via `rng` and maintaining `members` across membership changes
/// (joiners appended, leavers/victims erased) -- the same bookkeeping every
/// hand-wired bench loop used to carry.
ReplayResult Replay(overlay::Overlay& ov, const Trace& trace, Rng* rng,
                    std::vector<net::PeerId>* members,
                    const ReplayOptions& opts = {});

}  // namespace workload
}  // namespace baton

#endif  // BATON_WORKLOAD_REPLAY_H_
