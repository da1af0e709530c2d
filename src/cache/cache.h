// Hot-path caching for overlay lookups (ROADMAP item 3).
//
// The paper charges O(log N) passing messages for *every* exact query, even
// when a Zipf workload hammers a handful of hot keys. Two cooperating,
// backend-neutral layers cut that cost without touching any protocol code:
//
//  * Per-node route cache -- a bounded LRU map of (routing-range -> owning
//    peer) entries learned from completed lookups. The query origin consults
//    its own cache and, on a hit, jumps straight at the remembered owner:
//    one kCacheProbe message, answered iff the owner still owns the key.
//    A stale hit (churn moved the range) wastes exactly that probe, evicts
//    the entry and falls back to the normal protocol walk -- correctness
//    never depends on cache freshness.
//  * Replicated root fast-table -- the top k tree levels (Chord: a 2^k-arc
//    finger prefix of the ring) mirrored at every node and refreshed lazily
//    when a membership change bumps the table version. A cold lookup jumps
//    to the deepest fast-table region containing the key, cutting the first
//    ~k hops off the protocol walk.
//
// Everything lives in routing-coordinate space (uint64): tree backends use
// the key itself, Chord uses HashKey(key), so one Manager serves all four
// backends. Intervals are half-open [lo, hi) with two ring conventions:
// hi == 0 (and lo != 0) means "up to the end of the space", lo == hi == 0
// means "everything" -- which lets a wrapped Chord interval be learned as
// two plain entries and keeps lookups a single binary search.
//
// The Manager owns the whole policy: probe, owner verification, stale
// eviction, fast-table refresh and jump, learning, and the invalidation
// rule for membership changes. It attaches per overlay::Overlay instance
// (AttachCache), same lifecycle as the sim/obs/fault attachments: opt-in,
// non-owning, nullptr detaches, and a detached overlay pays one null check
// with byte-identical output. The overlay's measured wrapper calls
// Consult/Complete around each exact search and BeforeMembership/
// AfterMembership around each membership operation; a backend only answers
// the two Backend questions below and makes no cache calls of its own.
// All state is deterministic: no clocks, no randomness -- the same
// operation sequence always produces the same hit/evict sequence.
#ifndef BATON_CACHE_CACHE_H_
#define BATON_CACHE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/network.h"
#include "util/flat_map.h"

namespace baton {
namespace cache {

/// Sizing knobs, set once at construction (bench flag: --cache=SIZE[,k]).
struct Config {
  /// Route-cache entries retained per origin node (LRU beyond this).
  size_t capacity = 256;
  /// Tree levels replicated in the fast-table; 0 disables the fast-table
  /// (the route cache still works).
  int root_levels = 2;
};

/// One learned (routing-range -> owner) fact, plus the hop cost of the
/// lookup that learned it (to report hops_saved on later hits).
struct RouteEntry {
  uint64_t lo = 0;
  uint64_t hi = 0;
  net::PeerId owner = net::kNullPeer;
  int cost = 0;        // hops of the lookup this entry was learned from
  uint64_t stamp = 0;  // per-node LRU recency tick
};

/// One replicated fast-table region: the deepest entry containing a
/// routing coordinate is the jump target for a cold lookup.
struct FastEntry {
  uint64_t lo = 0;
  uint64_t hi = 0;
  net::PeerId peer = net::kNullPeer;
  int depth = 0;
};

/// Monotonic lifetime counters, mirrored into the obs `cache.*` namespace
/// by the measured wrapper (per-op deltas, see kStatMetrics).
struct Stats {
  uint64_t hits = 0;           // verified route-cache hits
  uint64_t misses = 0;         // consults that found no entry
  uint64_t stale = 0;          // hits refuted by the owner (probe wasted)
  uint64_t evictions = 0;      // capacity + staleness evictions
  uint64_t invalidations = 0;  // entries dropped by invalidation hooks
  uint64_t fast_hits = 0;      // cold lookups that took a fast-table jump
  uint64_t refreshes = 0;      // per-node lazy fast-table refreshes
};

/// The obs::Registry counter each Stats field is published as.
struct StatMetric {
  const char* name;
  uint64_t Stats::*field;
};
inline constexpr StatMetric kStatMetrics[] = {
    {"cache.hit", &Stats::hits},
    {"cache.miss", &Stats::misses},
    {"cache.stale", &Stats::stale},
    {"cache.evict", &Stats::evictions},
    {"cache.invalidate", &Stats::invalidations},
    {"cache.fast_hit", &Stats::fast_hits},
    {"cache.refresh", &Stats::refreshes},
};
/// Lifetime hit rate in percent: 100 * hits / (hits + misses + stale).
inline constexpr char kMetricHitRatePct[] = "cache.hit_rate_pct";

/// Wrap-aware containment for half-open [lo, hi) routing intervals:
/// lo == hi covers the whole space, hi < lo wraps past the end of it.
/// Used to check a learned or hinted interval against a coordinate.
inline bool RangeContains(uint64_t lo, uint64_t hi, uint64_t c) {
  if (lo == hi) return true;
  if (lo < hi) return c >= lo && c < hi;
  return c >= lo || c < hi;
}

/// The per-backend facts the Manager needs from the overlay it serves.
/// overlay::Overlay implements this interface; a backend overrides these
/// two and nothing else (the defaults give a backend that never hits).
class Backend {
 public:
  /// Current ownership interval of `peer` in routing-coordinate space,
  /// half-open [lo, hi) with RangeContains conventions (Chord wraps).
  /// Returns false when the peer is not a live member. This is both the
  /// fact the route cache learns and the owner-side verification of a hit.
  virtual bool RouteHint(net::PeerId, uint64_t*, uint64_t*) const {
    return false;
  }
  /// Snapshot of the top `levels` tree levels (Chord: a 2^levels-arc finger
  /// prefix of the ring) as fast-table regions. Deeper entries win lookups.
  virtual void CollectFastTable(int, std::vector<FastEntry>*) const {}

 protected:
  ~Backend() = default;
};

/// The cache's plan for one exact lookup (Manager::Consult).
struct Route {
  net::PeerId from = net::kNullPeer;   // query origin
  uint64_t rk = 0;                     // routing coordinate of the key
  net::PeerId start = net::kNullPeer;  // peer the protocol search runs from
  int jump = 0;        // hops the cache adds: 1 after a probe jump, else 0
  bool hit = false;    // `start` is the verified owner (route-cache hit)
  bool stale = false;  // a route-cache hit was refuted (its probe wasted)
  int cost = 0;        // hit only: hops of the lookup the entry came from
};

/// A departing peer's interval, read before the leave/fail that moves it.
struct Departure {
  net::PeerId peer = net::kNullPeer;
  bool hinted = false;
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// The caching state for one overlay instance: every member's route cache
/// plus the shared fast-table snapshot and its version clock.
class Manager {
 public:
  explicit Manager(const Config& cfg = Config());

  const Stats& stats() const { return stats_; }

  // ---- Exact lookups -------------------------------------------------------
  /// Picks where the exact lookup of `rk` from `from` starts, billing its
  /// messages on `net`. Route cache first: on a hit, one kCacheProbe jumps
  /// straight at the remembered owner, who answers iff it still owns rk. A
  /// refuted hit has already paid the probe (honest accounting), evicts
  /// the entry and falls through. Then the fast-table: a stale mirror is
  /// refreshed lazily (kCacheRefresh from each live fast-table node), and
  /// the deepest region containing rk is a one-probe jump. Otherwise the
  /// search starts at `from`.
  Route Consult(const Backend& b, net::Network* net, net::PeerId from,
                uint64_t rk);
  /// Closes the lookup `r` once the search answered at `owner` (kNullPeer
  /// on failure) after `hops` hops, jump included: a hit returns the hops
  /// it saved; any other answer is learned at the origin.
  int Complete(const Backend& b, const Route& r, net::PeerId owner, int hops);

  // ---- Membership changes --------------------------------------------------
  /// Reads the interval `leaver` holds before a leave/fail hands it on
  /// (kNullPeer: a join or repair, nothing departs).
  Departure BeforeMembership(const Backend& b, net::PeerId leaver) const;
  /// After a successful membership op: drops the departed peer's interval
  /// and every route at it, or the routes covering `joiner`'s interval
  /// (split off an existing member); then outdates the fast-table, which
  /// every node's mirror refreshes lazily on its next cold lookup.
  void AfterMembership(const Backend& b, const Departure& d,
                       net::PeerId joiner);

  // ---- Per-node route cache ----------------------------------------------
  /// Consults `node`'s cache for the entry covering `rk`. Returns the entry
  /// slot (>= 0) and fills `*out`, or -1 on miss. A found entry's recency
  /// is bumped; hit/miss/stale accounting is Consult's.
  int Lookup(net::PeerId node, uint64_t rk, RouteEntry* out);
  /// Records that `owner` answered for the interval [lo, hi) after a lookup
  /// of `cost` hops. Wrapped intervals are split; overlapped older entries
  /// are dropped; the LRU entry is evicted at capacity.
  void Learn(net::PeerId node, uint64_t lo, uint64_t hi, net::PeerId owner,
             int cost);
  /// Drops every entry (any node's cache) pointing at `owner`.
  void InvalidatePeer(net::PeerId owner);
  /// Drops every entry intersecting [lo, hi).
  void InvalidateRange(uint64_t lo, uint64_t hi);

  /// Total live route-cache entries across all nodes (tests/benches).
  size_t TotalEntries() const { return total_entries_; }
  /// Live route-cache entries for one node (capacity-bound tests).
  size_t EntriesFor(net::PeerId node) const;

 private:
  struct NodeCache {
    std::vector<RouteEntry> entries;  // sorted by lo, non-overlapping
    uint64_t tick = 0;                // LRU clock, bumped per touch
    uint64_t refreshed_version = 0;   // fast-table version last mirrored
  };

  /// [lo, hi) contains `rk`, given rk >= lo (the sorted-search invariant);
  /// honours the hi == 0 "end of space" convention.
  static bool SlotContains(const RouteEntry& e, uint64_t rk) {
    return e.hi == 0 || rk < e.hi;
  }
  void InsertEntry(NodeCache* nc, uint64_t lo, uint64_t hi,
                   net::PeerId owner, int cost);
  /// Pulls a current fast-table mirror to `node` if its copy is out of
  /// date, rebuilding the shared snapshot first when it is.
  void RefreshFastTable(const Backend& b, net::Network* net,
                        net::PeerId node);
  /// Deepest fast-table entry containing `rk`, or nullptr.
  const FastEntry* FastLookup(uint64_t rk) const;

  Config cfg_;
  Stats stats_;
  util::FlatMap64<NodeCache> nodes_;  // keyed by origin PeerId
  size_t total_entries_ = 0;

  std::vector<FastEntry> fast_;
  uint64_t version_ = 1;  // starts dirty: first consult pulls a snapshot
  uint64_t snapshot_version_ = 0;
};

}  // namespace cache
}  // namespace baton

#endif  // BATON_CACHE_CACHE_H_
