#include "cache/cache.h"

#include <algorithm>

namespace baton {
namespace cache {

namespace {

/// Wrap-aware interval intersection under the same [lo, hi) conventions as
/// RangeContains: two intervals meet iff either contains the other's start.
bool Intersects(uint64_t alo, uint64_t ahi, uint64_t blo, uint64_t bhi) {
  return RangeContains(alo, ahi, blo) || RangeContains(blo, bhi, alo);
}

}  // namespace

Manager::Manager(const Config& cfg) : cfg_(cfg) {
  if (cfg_.root_levels < 0) cfg_.root_levels = 0;
  if (cfg_.root_levels > 16) cfg_.root_levels = 16;
}

Route Manager::Consult(const Backend& b, net::Network* net, net::PeerId from,
                       uint64_t rk) {
  Route r;
  r.from = from;
  r.rk = rk;
  r.start = from;
  RouteEntry hint;
  const int slot = Lookup(from, rk, &hint);
  if (slot >= 0 && hint.owner != from) {
    net->Count(from, hint.owner, net::MsgType::kCacheProbe);
    uint64_t lo = 0;
    uint64_t hi = 0;
    if (net->IsAlive(hint.owner) && b.RouteHint(hint.owner, &lo, &hi) &&
        RangeContains(lo, hi, rk)) {
      ++stats_.hits;
      r.start = hint.owner;
      r.jump = 1;
      r.hit = true;
      r.cost = hint.cost;
      return r;
    }
    NodeCache* nc = nodes_.Find(from);
    nc->entries.erase(nc->entries.begin() + slot);
    --total_entries_;
    ++stats_.stale;
    ++stats_.evictions;
    r.stale = true;
  } else if (slot < 0) {
    ++stats_.misses;
  }
  if (cfg_.root_levels == 0) return r;  // fast-table disabled
  RefreshFastTable(b, net, from);
  const FastEntry* fe = FastLookup(rk);
  if (fe != nullptr && fe->peer != from && net->IsAlive(fe->peer)) {
    net->Count(from, fe->peer, net::MsgType::kCacheProbe);
    r.start = fe->peer;
    r.jump = 1;
    ++stats_.fast_hits;
  }
  return r;
}

int Manager::Complete(const Backend& b, const Route& r, net::PeerId owner,
                      int hops) {
  if (r.hit) return r.cost > hops ? r.cost - hops : 0;
  // Learn the completed route at the origin: the owner's current interval
  // is the fact a later lookup can jump on. Zero-hop answers (the origin
  // already owned the key) teach nothing a jump could improve.
  uint64_t lo = 0;
  uint64_t hi = 0;
  if (owner != net::kNullPeer && owner != r.from &&
      b.RouteHint(owner, &lo, &hi) && RangeContains(lo, hi, r.rk)) {
    Learn(r.from, lo, hi, owner, hops);
  }
  return 0;
}

Departure Manager::BeforeMembership(const Backend& b,
                                    net::PeerId leaver) const {
  Departure d;
  d.peer = leaver;
  if (leaver != net::kNullPeer) d.hinted = b.RouteHint(leaver, &d.lo, &d.hi);
  return d;
}

void Manager::AfterMembership(const Backend& b, const Departure& d,
                              net::PeerId joiner) {
  uint64_t lo = 0;
  uint64_t hi = 0;
  if (d.peer != net::kNullPeer) {
    if (d.hinted) InvalidateRange(d.lo, d.hi);
    InvalidatePeer(d.peer);
  } else if (joiner != net::kNullPeer && b.RouteHint(joiner, &lo, &hi)) {
    InvalidateRange(lo, hi);
  }
  ++version_;
}

int Manager::Lookup(net::PeerId node, uint64_t rk, RouteEntry* out) {
  NodeCache* nc = nodes_.Find(node);
  if (nc == nullptr || nc->entries.empty()) return -1;
  std::vector<RouteEntry>& v = nc->entries;
  // Greatest lo <= rk; entries are sorted by lo and non-overlapping, so it
  // is the only candidate that can contain rk.
  auto it = std::upper_bound(
      v.begin(), v.end(), rk,
      [](uint64_t k, const RouteEntry& e) { return k < e.lo; });
  if (it == v.begin()) return -1;
  --it;
  if (!SlotContains(*it, rk)) return -1;
  it->stamp = ++nc->tick;
  *out = *it;
  return static_cast<int>(it - v.begin());
}

void Manager::InsertEntry(NodeCache* nc, uint64_t lo, uint64_t hi,
                          net::PeerId owner, int cost) {
  std::vector<RouteEntry>& v = nc->entries;
  auto at = std::lower_bound(
      v.begin(), v.end(), lo,
      [](const RouteEntry& e, uint64_t k) { return e.lo < k; });
  size_t first = static_cast<size_t>(at - v.begin());
  size_t last = first;
  if (lo == 0 && hi == 0) {  // full-space entry supersedes everything
    first = 0;
    last = v.size();
  } else {
    while (last < v.size() && (hi == 0 || v[last].lo < hi)) ++last;
    // A predecessor reaching past lo is truncated, keeping entries
    // non-overlapping (its shortened tail is the freshly learned fact).
    if (first > 0 && SlotContains(v[first - 1], lo) &&
        !(v[first - 1].lo == 0 && v[first - 1].hi == 0)) {
      v[first - 1].hi = lo;
    }
  }
  total_entries_ -= last - first;
  v.erase(v.begin() + static_cast<long>(first),
          v.begin() + static_cast<long>(last));
  if (v.size() >= cfg_.capacity) {  // LRU eviction at capacity
    size_t victim = 0;
    for (size_t i = 1; i < v.size(); ++i) {
      if (v[i].stamp < v[victim].stamp) victim = i;
    }
    v.erase(v.begin() + static_cast<long>(victim));
    if (victim < first) --first;
    ++stats_.evictions;
    --total_entries_;
  }
  RouteEntry e;
  e.lo = lo;
  e.hi = hi;
  e.owner = owner;
  e.cost = cost;
  e.stamp = ++nc->tick;
  v.insert(v.begin() + static_cast<long>(first), e);
  ++total_entries_;
}

void Manager::Learn(net::PeerId node, uint64_t lo, uint64_t hi,
                    net::PeerId owner, int cost) {
  if (cfg_.capacity == 0 || owner == net::kNullPeer) return;
  NodeCache& nc = nodes_.GetOrInsert(node);
  if (lo == hi) {
    InsertEntry(&nc, 0, 0, owner, cost);  // owner spans the whole space
  } else if (lo < hi) {
    InsertEntry(&nc, lo, hi, owner, cost);
  } else {
    // Wrapped (hash-ring) interval: split at the end of the space so every
    // stored entry searches as a plain sorted range.
    InsertEntry(&nc, lo, 0, owner, cost);
    if (hi > 0) InsertEntry(&nc, 0, hi, owner, cost);
  }
}

void Manager::InvalidatePeer(net::PeerId owner) {
  nodes_.ForEach([&](uint64_t, NodeCache& nc) {
    auto dead = std::remove_if(
        nc.entries.begin(), nc.entries.end(),
        [owner](const RouteEntry& e) { return e.owner == owner; });
    size_t removed = static_cast<size_t>(nc.entries.end() - dead);
    nc.entries.erase(dead, nc.entries.end());
    stats_.invalidations += removed;
    total_entries_ -= removed;
  });
}

void Manager::InvalidateRange(uint64_t lo, uint64_t hi) {
  nodes_.ForEach([&](uint64_t, NodeCache& nc) {
    auto dead = std::remove_if(
        nc.entries.begin(), nc.entries.end(), [lo, hi](const RouteEntry& e) {
          return Intersects(e.lo, e.hi, lo, hi);
        });
    size_t removed = static_cast<size_t>(nc.entries.end() - dead);
    nc.entries.erase(dead, nc.entries.end());
    stats_.invalidations += removed;
    total_entries_ -= removed;
  });
}

void Manager::RefreshFastTable(const Backend& b, net::Network* net,
                               net::PeerId node) {
  NodeCache& nc = nodes_.GetOrInsert(node);
  if (nc.refreshed_version == version_) return;
  if (snapshot_version_ != version_) {
    fast_.clear();
    b.CollectFastTable(cfg_.root_levels, &fast_);
    snapshot_version_ = version_;
  }
  // Lazy refresh: each live fast-table node ships its region to the
  // consulting node, billed as maintenance traffic inside this op.
  for (const FastEntry& fe : fast_) {
    if (fe.peer == node || !net->IsAlive(fe.peer)) continue;
    net->Count(fe.peer, node, net::MsgType::kCacheRefresh);
  }
  nc.refreshed_version = version_;
  ++stats_.refreshes;
}

const FastEntry* Manager::FastLookup(uint64_t rk) const {
  const FastEntry* best = nullptr;
  for (const FastEntry& e : fast_) {
    if (!RangeContains(e.lo, e.hi, rk)) continue;
    if (best == nullptr || e.depth > best->depth) best = &e;
  }
  return best;
}

size_t Manager::EntriesFor(net::PeerId node) const {
  const NodeCache* nc = nodes_.Find(node);
  return nc == nullptr ? 0 : nc->entries.size();
}

}  // namespace cache
}  // namespace baton
