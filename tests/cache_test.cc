// Tests for the hot-path caching subsystem (src/cache/): Manager interval
// semantics (wrap-aware containment, wrapped-interval splitting, the LRU
// capacity bound, invalidation), and the overlay-level contract on every
// registered backend -- cached answers identical to uncached ones, exact
// message accounting, stale routes repaired after leave/fail churn,
// deterministic hit sequences, and byte-identical behaviour once detached.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "obs/observer.h"
#include "overlay/baton_overlay.h"
#include "overlay/chord_overlay.h"
#include "overlay/registry.h"
#include "util/rng.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace baton {
namespace {

using overlay::Capability;
using overlay::Config;
using overlay::Make;
using overlay::OpStats;
using overlay::Overlay;

constexpr Key kDomainHi = 1000000000;

// ---- Manager unit tests ----------------------------------------------------

TEST(CacheRange, ContainsConventions) {
  // Plain half-open interval.
  EXPECT_TRUE(cache::RangeContains(10, 20, 10));
  EXPECT_TRUE(cache::RangeContains(10, 20, 19));
  EXPECT_FALSE(cache::RangeContains(10, 20, 20));
  EXPECT_FALSE(cache::RangeContains(10, 20, 9));
  // lo == hi covers everything.
  EXPECT_TRUE(cache::RangeContains(7, 7, 0));
  EXPECT_TRUE(cache::RangeContains(7, 7, ~0ull));
  // hi < lo wraps past the end of the space.
  EXPECT_TRUE(cache::RangeContains(100, 5, 100));
  EXPECT_TRUE(cache::RangeContains(100, 5, 4));
  EXPECT_FALSE(cache::RangeContains(100, 5, 50));
}

TEST(CacheManager, LearnLookupAndWrapSplit) {
  cache::Manager m;
  cache::RouteEntry e;
  EXPECT_EQ(m.Lookup(1, 500, &e), -1);  // cold cache misses

  m.Learn(/*node=*/1, /*lo=*/100, /*hi=*/200, /*owner=*/42, /*cost=*/5);
  ASSERT_GE(m.Lookup(1, 150, &e), 0);
  EXPECT_EQ(e.owner, 42u);
  EXPECT_EQ(e.cost, 5);
  EXPECT_EQ(m.Lookup(1, 200, &e), -1);  // half-open: hi excluded
  EXPECT_EQ(m.Lookup(2, 150, &e), -1);  // per-node caches are private

  // A wrapped (ring) interval is stored as two plain entries.
  m.Learn(1, 900, 50, 7, 3);
  ASSERT_GE(m.Lookup(1, 950, &e), 0);
  EXPECT_EQ(e.owner, 7u);
  ASSERT_GE(m.Lookup(1, 10, &e), 0);
  EXPECT_EQ(e.owner, 7u);
  EXPECT_EQ(m.Lookup(1, 500, &e), -1);

  // Relearning an overlapping interval supersedes the old owner.
  m.Learn(1, 120, 260, 99, 2);
  ASSERT_GE(m.Lookup(1, 150, &e), 0);
  EXPECT_EQ(e.owner, 99u);
}

TEST(CacheManager, CapacityBoundAndLru) {
  cache::Config cfg;
  cfg.capacity = 4;
  cache::Manager m(cfg);
  for (uint64_t i = 0; i < 32; ++i) {
    m.Learn(1, i * 100, i * 100 + 50, /*owner=*/i + 2, /*cost=*/2);
    EXPECT_LE(m.EntriesFor(1), cfg.capacity);
  }
  EXPECT_EQ(m.EntriesFor(1), cfg.capacity);
  EXPECT_GT(m.stats().evictions, 0u);
  // The most recently learned entry survived; the oldest did not.
  cache::RouteEntry e;
  EXPECT_GE(m.Lookup(1, 3120, &e), 0);
  EXPECT_EQ(m.Lookup(1, 20, &e), -1);
}

TEST(CacheManager, InvalidatePeerAndRange) {
  cache::Manager m;
  m.Learn(1, 100, 200, 42, 2);
  m.Learn(1, 300, 400, 43, 2);
  m.Learn(2, 100, 200, 42, 2);
  m.InvalidatePeer(42);  // every node's entries for that owner drop
  cache::RouteEntry e;
  EXPECT_EQ(m.Lookup(1, 150, &e), -1);
  EXPECT_EQ(m.Lookup(2, 150, &e), -1);
  ASSERT_GE(m.Lookup(1, 350, &e), 0);
  m.InvalidateRange(350, 360);  // any intersection kills the entry
  EXPECT_EQ(m.Lookup(1, 350, &e), -1);
  EXPECT_GT(m.stats().invalidations, 0u);
}

// ---- Overlay-level contract, on every registered backend -------------------

struct Built {
  std::unique_ptr<Overlay> ov;
  std::vector<net::PeerId> members;
};

Built Grow(const std::string& name, size_t n, uint64_t seed) {
  Config cfg;
  cfg.seed = seed;
  Built b;
  b.ov = Make(name, cfg);
  BATON_CHECK(b.ov != nullptr) << "unknown backend " << name;
  Rng rng(Mix64(seed));
  b.members.push_back(b.ov->Bootstrap());
  while (b.members.size() < n) {
    auto st = b.ov->Join(b.members[rng.NextBelow(b.members.size())]);
    BATON_CHECK(st.ok()) << st.status.ToString();
    b.members.push_back(st.peer);
  }
  return b;
}

std::vector<Key> SomeKeys(uint64_t seed, int count) {
  workload::UniformKeys gen(1, kDomainHi);
  Rng rng(Mix64(seed ^ 0x7a3e));
  std::vector<Key> keys;
  for (int i = 0; i < count; ++i) keys.push_back(gen.Next(&rng));
  return keys;
}

/// Replays `keys` with a fresh origin stream; returns (peer, found) pairs.
std::vector<std::pair<net::PeerId, bool>> Answers(Built* b,
                                                  const std::vector<Key>& keys,
                                                  uint64_t seed) {
  std::vector<std::pair<net::PeerId, bool>> out;
  Rng org(Mix64(seed ^ 0x0b51));
  for (Key k : keys) {
    net::PeerId from = b->members[org.NextBelow(b->members.size())];
    OpStats st = b->ov->ExactSearch(from, k);
    EXPECT_TRUE(st.ok()) << st.status.ToString();
    out.emplace_back(st.peer, st.found);
  }
  return out;
}

// Cached answers (cold and warm) must equal uncached answers, and the warm
// pass must actually hit.
TEST(CacheOverlay, AnswerSetsIdenticalOnAllBackends) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    auto b = Grow(name, 96, 17);
    std::vector<Key> keys = SomeKeys(17, 120);
    Rng ins(Mix64(17 ^ 0xdead));
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(b.ov->Insert(b.members[ins.NextBelow(b.members.size())],
                               keys[static_cast<size_t>(i)])
                      .ok());
    }
    auto reference = Answers(&b, keys, 17);
    cache::Manager mgr;
    b.ov->AttachCache(&mgr);
    auto cold = Answers(&b, keys, 17);
    auto warm = Answers(&b, keys, 17);
    b.ov->AttachCache(nullptr);
    EXPECT_EQ(cold, reference);
    EXPECT_EQ(warm, reference);
    EXPECT_GT(mgr.stats().hits, 0u) << "warm pass never hit the cache";
  }
}

// OpStats::messages must equal the raw counter delta with the cache
// attached too -- probes and refreshes are billed, not smuggled.
TEST(CacheOverlay, MessagesMatchRawCounterDelta) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    auto b = Grow(name, 48, 23);
    cache::Manager mgr;
    b.ov->AttachCache(&mgr);
    std::vector<Key> keys = SomeKeys(23, 80);
    Rng org(Mix64(23 ^ 0x0b51));
    for (Key k : keys) {
      net::PeerId from = b.members[org.NextBelow(b.members.size())];
      auto before = b.ov->network()->Snapshot();
      OpStats st = b.ov->ExactSearch(from, k);
      uint64_t raw =
          net::Network::Delta(before, b.ov->network()->Snapshot());
      EXPECT_TRUE(st.ok());
      EXPECT_EQ(st.messages, raw);
    }
    EXPECT_GT(mgr.stats().hits + mgr.stats().misses, 0u);
    b.ov->AttachCache(nullptr);
  }
}

// Stale routes are repaired: learned owners that leave (or fail, where
// supported) never produce wrong answers, only evictions and relearns.
TEST(CacheOverlay, StaleRoutesRepairedAfterLeaveAndFail) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    auto b = Grow(name, 64, 29);
    cache::Manager mgr;
    b.ov->AttachCache(&mgr);
    std::vector<Key> keys = SomeKeys(29, 40);
    Answers(&b, keys, 29);  // learn routes
    // Churn: leave a handful of members (the leave hooks invalidate), with
    // the occasional fail/recover where the backend supports it.
    Rng rng(Mix64(29 ^ 0xc4a7));
    for (int i = 0; i < 8; ++i) {
      size_t idx = rng.NextBelow(b.members.size());
      ASSERT_TRUE(b.ov->Leave(b.members[idx]).ok());
      // A departure request can be fulfilled by a replacement (BATON moves
      // a leaf into an internal slot), so the peer that actually left may
      // not be the one we picked: re-read ground truth instead of erasing.
      b.members = b.ov->Members();
      ASSERT_FALSE(b.members.empty());
    }
    if (b.ov->Supports(Capability::kFailRecovery)) {
      size_t idx = rng.NextBelow(b.members.size());
      ASSERT_TRUE(b.ov->Fail(b.members[idx]).ok());
      ASSERT_TRUE(b.ov->RecoverAllFailures().ok());
      b.members = b.ov->Members();
    }
    // Replay against a never-cached twin at the same membership state: the
    // possibly-stale cache must still produce identical answers.
    auto cached = Answers(&b, keys, 31);
    b.ov->AttachCache(nullptr);
    auto plain = Answers(&b, keys, 31);
    EXPECT_EQ(cached, plain);
    EXPECT_GT(mgr.stats().invalidations + mgr.stats().stale, 0u)
        << "churn should have invalidated or refuted something";
    b.ov->CheckInvariants();
  }
}

// Same seed, same build, same trace => byte-identical hit sequence.
TEST(CacheOverlay, DeterministicHitSequence) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    std::vector<Key> keys = SomeKeys(37, 60);
    auto run = [&]() {
      auto b = Grow(name, 48, 37);
      cache::Manager mgr;
      b.ov->AttachCache(&mgr);
      std::vector<int> hits;
      Rng org(Mix64(37 ^ 0x0b51));
      for (Key k : keys) {
        net::PeerId from = b.members[org.NextBelow(b.members.size())];
        OpStats st = b.ov->ExactSearch(from, k);
        hits.push_back(st.cache_hits);
      }
      return hits;
    };
    EXPECT_EQ(run(), run());
  }
}

// Attach-then-detach must behave exactly like never-attached: one null
// check, identical hops and message bills.
TEST(CacheOverlay, DetachedIsByteIdentical) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    std::vector<Key> keys = SomeKeys(41, 50);
    auto trace = [&](bool attach_first) {
      auto b = Grow(name, 48, 41);
      if (attach_first) {
        cache::Manager mgr;
        b.ov->AttachCache(&mgr);
        Answers(&b, keys, 41);  // populate, then detach
        b.ov->AttachCache(nullptr);
      }
      std::vector<std::pair<int, uint64_t>> out;
      Rng org(Mix64(41 ^ 0x0b51));
      for (Key k : keys) {
        net::PeerId from = b.members[org.NextBelow(b.members.size())];
        OpStats st = b.ov->ExactSearch(from, k);
        out.emplace_back(st.hops, st.messages);
        EXPECT_EQ(st.cache_hits, 0);
      }
      return out;
    };
    EXPECT_EQ(trace(false), trace(true));
  }
}

// The measured wrapper mirrors every cache::Stats movement into the
// observer's cache.* counters as per-op deltas, so over a run the counters
// equal the Manager's lifetime stats exactly. Cache work done outside an
// operation's measured span -- say, a membership invalidation run after the
// span closed -- would be missing from the counters.
TEST(CacheOverlay, PublishedMetricsMatchManagerStats) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    Config cfg;
    cfg.seed = 43;
    std::unique_ptr<Overlay> ov = Make(name, cfg);
    ASSERT_NE(ov, nullptr);
    cache::Config cc;
    cc.capacity = 8;  // small enough that learning evicts
    cache::Manager mgr(cc);
    obs::Observer obs;
    ov->AttachCache(&mgr);
    ov->AttachObserver(&obs);
    std::vector<net::PeerId> members = {ov->Bootstrap()};
    const std::vector<Key> keys = SomeKeys(43, 40);
    Rng rng(Mix64(43 ^ 0x5eed));
    const auto pick = [&] { return members[rng.NextBelow(members.size())]; };
    const auto lookups = [&](int n) {
      for (int i = 0; i < n; ++i) {
        OpStats st = ov->ExactSearch(pick(), keys[rng.NextBelow(keys.size())]);
        EXPECT_TRUE(st.ok()) << st.status.ToString();
      }
    };
    const auto join = [&] {
      OpStats st = ov->Join(pick());
      ASSERT_TRUE(st.ok()) << st.status.ToString();
      members = ov->Members();
    };
    for (int i = 0; i < 47; ++i) join();
    lookups(300);
    for (int round = 0; round < 6; ++round) {
      ASSERT_TRUE(ov->Leave(pick()).ok());
      members = ov->Members();
      join();
      lookups(50);
      if (ov->Supports(Capability::kFailRecovery)) {
        ASSERT_TRUE(ov->Fail(pick()).ok());
        ASSERT_TRUE(ov->RecoverAllFailures().ok());
        members = ov->Members();
        lookups(50);
      }
    }
    ov->AttachObserver(nullptr);
    ov->AttachCache(nullptr);

    const cache::Stats& s = mgr.stats();
    const obs::Registry& reg = obs.metrics();
    EXPECT_EQ(reg.CounterValue("cache.hit"), s.hits);
    EXPECT_EQ(reg.CounterValue("cache.miss"), s.misses);
    EXPECT_EQ(reg.CounterValue("cache.stale"), s.stale);
    EXPECT_EQ(reg.CounterValue("cache.evict"), s.evictions);
    EXPECT_EQ(reg.CounterValue("cache.invalidate"), s.invalidations);
    EXPECT_EQ(reg.CounterValue("cache.fast_hit"), s.fast_hits);
    EXPECT_EQ(reg.CounterValue("cache.refresh"), s.refreshes);
    const uint64_t consults = s.hits + s.misses + s.stale;
    ASSERT_GT(consults, 0u);
    EXPECT_EQ(reg.GaugeValue("cache.hit_rate_pct"),
              static_cast<int64_t>(100 * s.hits / consults));
    // Every path the run drives must have moved its counter.
    EXPECT_GT(s.hits, 0u);
    EXPECT_GT(s.misses, 0u);
    EXPECT_GT(s.evictions, 0u);
    EXPECT_GT(s.invalidations, 0u);
    EXPECT_GT(s.fast_hits, 0u);
    EXPECT_GT(s.refreshes, 0u);

    // workload::OpAggregate sums the same per-op cache outcomes: over a
    // Replay of exact searches, hits/stale match the manager's delta and
    // hops_saved matches the per-op OpStats sum of an identical run over a
    // copy of the cache state (queries change no membership). A wrong
    // route to keys[0] planted at every member makes some probes stale.
    const net::PeerId owner = ov->ExactSearch(members[0], keys[0]).peer;
    const net::PeerId wrong = members[0] == owner ? members[1] : members[0];
    const uint64_t rc = ov->RouteCoordOf(keys[0]);
    for (net::PeerId m : members) mgr.Learn(m, rc, rc + 1, wrong, 1);
    workload::Trace trace;
    for (int i = 0; i < 400; ++i) {
      trace.push_back({workload::OpType::kExact,
                       keys[static_cast<size_t>(i) % keys.size()], 0});
    }
    cache::Manager twin = mgr;
    ov->AttachCache(&twin);
    Rng twin_rng(Mix64(43 ^ 0x0b51));
    uint64_t saved = 0;
    for (const workload::Op& op : trace) {
      OpStats st = workload::ApplyOp(*ov, op, &twin_rng, &members, {}).stats;
      saved += static_cast<uint64_t>(st.hops_saved);
    }
    ov->AttachCache(&mgr);
    const cache::Stats before = mgr.stats();
    Rng replay_rng(Mix64(43 ^ 0x0b51));
    const workload::OpAggregate cached =
        workload::Replay(*ov, trace, &replay_rng, &members)
            .of(workload::OpType::kExact);
    EXPECT_EQ(cached.cache_hits, mgr.stats().hits - before.hits);
    EXPECT_EQ(cached.cache_stale, mgr.stats().stale - before.stale);
    EXPECT_EQ(cached.hops_saved, saved);
    EXPECT_GT(cached.cache_hits, 0u);
    EXPECT_GT(cached.cache_stale, 0u);
    EXPECT_GT(cached.hops_saved, 0u);

    ov->AttachCache(nullptr);
    const workload::OpAggregate plain =
        workload::Replay(*ov, trace, &replay_rng, &members)
            .of(workload::OpType::kExact);
    EXPECT_EQ(plain.cache_hits, 0u);
    EXPECT_EQ(plain.cache_stale, 0u);
    EXPECT_EQ(plain.hops_saved, 0u);
  }
}

}  // namespace
}  // namespace baton
