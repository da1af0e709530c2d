#include "overlay/baton_overlay.h"

#include "util/check.h"

namespace baton {
namespace overlay {

BatonOverlay::BatonOverlay(const BatonConfig& cfg, uint64_t seed)
    : baton_(std::make_unique<BatonNetwork>(cfg, &net_, seed)) {}

const std::string& BatonOverlay::name() const {
  static const std::string kName = "baton";
  return kName;
}

uint32_t BatonOverlay::capabilities() const {
  uint32_t caps =
      kRangeSearch | kFailRecovery | kLoadBalance | kOrderedGrowth;
  if (baton_->config().replication.factor > 0) caps |= kReplication;
  return caps;
}

PeerId BatonOverlay::RetryOrigin(PeerId origin, int attempt) const {
  if (!baton_->InOverlay(origin)) return origin;
  const BatonNode& n = baton_->node(origin);
  PeerId cand[3];
  int cnt = 0;
  for (const NodeRef* r : {&n.left_adj, &n.right_adj, &n.parent}) {
    if (r->valid() && baton_->InOverlay(r->peer) && net_.IsAlive(r->peer)) {
      cand[cnt++] = r->peer;
    }
  }
  if (cnt == 0) return origin;
  return cand[(attempt - 1) % cnt];
}

bool BatonOverlay::RouteHint(PeerId peer, uint64_t* lo, uint64_t* hi) const {
  if (!baton_->InOverlay(peer)) return false;
  const Range& r = baton_->node(peer).range;
  if (r.lo >= r.hi) return false;  // empty ranges must not hint
  *lo = static_cast<uint64_t>(r.lo);
  *hi = static_cast<uint64_t>(r.hi);
  return true;
}

namespace {

PeerId LeftmostOf(const BatonNetwork& bn, PeerId p) {
  while (bn.node(p).left_child.valid()) p = bn.node(p).left_child.peer;
  return p;
}

PeerId RightmostOf(const BatonNetwork& bn, PeerId p) {
  while (bn.node(p).right_child.valid()) p = bn.node(p).right_child.peer;
  return p;
}

/// One fast-table entry per tree node above `levels`, spanning the node's
/// whole subtree: a jump lands inside the subtree that owns the key, so the
/// remaining walk is bounded by the subtree height.
void CollectBatonSubtree(const BatonNetwork& bn, PeerId p, int depth,
                         int levels, std::vector<cache::FastEntry>* out) {
  const BatonNode& n = bn.node(p);
  const Key lo = bn.node(LeftmostOf(bn, p)).range.lo;
  const Key hi = bn.node(RightmostOf(bn, p)).range.hi;
  if (lo < hi) {
    out->push_back({static_cast<uint64_t>(lo), static_cast<uint64_t>(hi), p,
                    depth});
  }
  if (depth + 1 >= levels) return;
  if (n.left_child.valid()) {
    CollectBatonSubtree(bn, n.left_child.peer, depth + 1, levels, out);
  }
  if (n.right_child.valid()) {
    CollectBatonSubtree(bn, n.right_child.peer, depth + 1, levels, out);
  }
}

}  // namespace

void BatonOverlay::CollectFastTable(int levels,
                                    std::vector<cache::FastEntry>* out) const {
  if (levels <= 0) return;
  PeerId root = baton_->root();
  if (root == kNullPeer) return;
  CollectBatonSubtree(*baton_, root, 0, levels, out);
}

PeerId BatonOverlay::DoBootstrap() { return baton_->Bootstrap(); }

void BatonOverlay::DoJoin(PeerId contact, OpStats* st) {
  Result<PeerId> r = baton_->Join(contact);
  if (!r.ok()) {
    st->status = r.status();
    return;
  }
  st->peer = r.value();
}

void BatonOverlay::DoLeave(PeerId leaver, OpStats* st) {
  st->status = baton_->Leave(leaver);
}

void BatonOverlay::DoFail(PeerId victim, OpStats* st) {
  (void)st;
  baton_->Fail(victim);
}

void BatonOverlay::DoRecoverAllFailures(OpStats* st) {
  st->status = baton_->RecoverAllFailures();
}

void BatonOverlay::DoInsert(PeerId from, Key key, OpStats* st) {
  st->status = baton_->Insert(from, key);
}

void BatonOverlay::DoDelete(PeerId from, Key key, OpStats* st) {
  st->status = baton_->Delete(from, key);
}

void BatonOverlay::DoExactSearch(PeerId from, Key key, OpStats* st) {
  auto r = baton_->ExactSearch(from, key);
  if (!r.ok()) {
    st->status = r.status();
    return;
  }
  st->peer = r.value().node;
  st->found = r.value().found;
  st->hops = r.value().hops;
}

void BatonOverlay::DoRangeSearch(PeerId from, Key lo, Key hi, OpStats* st) {
  auto r = baton_->RangeSearch(from, lo, hi);
  if (!r.ok()) {
    st->status = r.status();
    return;
  }
  st->nodes = r.value().nodes.size();
  st->matches = r.value().matches;
  st->hops = r.value().hops;
  st->found = r.value().matches > 0;
}

BatonNetwork& BatonBackend(Overlay& ov) {
  auto* adapter = dynamic_cast<BatonOverlay*>(&ov);
  BATON_CHECK(adapter != nullptr)
      << "overlay '" << ov.name() << "' is not the baton backend";
  return adapter->baton();
}

const BatonNetwork& BatonBackend(const Overlay& ov) {
  const auto* adapter = dynamic_cast<const BatonOverlay*>(&ov);
  BATON_CHECK(adapter != nullptr)
      << "overlay '" << ov.name() << "' is not the baton backend";
  return adapter->baton();
}

}  // namespace overlay
}  // namespace baton
