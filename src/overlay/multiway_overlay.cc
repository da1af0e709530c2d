#include "overlay/multiway_overlay.h"

#include "util/check.h"

namespace baton {
namespace overlay {

MultiwayOverlay::MultiwayOverlay(const multiway::MultiwayConfig& cfg,
                                 uint64_t seed)
    : tree_(std::make_unique<multiway::MultiwayNetwork>(cfg, &net_, seed)) {}

const std::string& MultiwayOverlay::name() const {
  static const std::string kName = "multiway";
  return kName;
}

PeerId MultiwayOverlay::RetryOrigin(PeerId origin, int attempt) const {
  const multiway::MultiwayNode& n = tree_->node(origin);
  if (!n.in_overlay) return origin;
  PeerId cand[3];
  int cnt = 0;
  for (PeerId p : {n.left_nb, n.right_nb, n.parent}) {
    if (p != kNullPeer && tree_->node(p).in_overlay && net_.IsAlive(p)) {
      cand[cnt++] = p;
    }
  }
  if (cnt == 0) return origin;
  return cand[(attempt - 1) % cnt];
}

bool MultiwayOverlay::RouteHint(PeerId peer, uint64_t* lo,
                                uint64_t* hi) const {
  const multiway::MultiwayNode& n = tree_->node(peer);
  if (!n.in_overlay || n.range.lo >= n.range.hi) return false;
  *lo = static_cast<uint64_t>(n.range.lo);
  *hi = static_cast<uint64_t>(n.range.hi);
  return true;
}

namespace {

/// Every node already maintains its subtree extent, so the fast-table is a
/// direct read of the top levels.
void CollectMultiwaySubtree(const multiway::MultiwayNetwork& mw, PeerId p,
                            int depth, int levels,
                            std::vector<cache::FastEntry>* out) {
  const multiway::MultiwayNode& n = mw.node(p);
  if (n.extent.lo < n.extent.hi) {
    out->push_back({static_cast<uint64_t>(n.extent.lo),
                    static_cast<uint64_t>(n.extent.hi), p, depth});
  }
  if (depth + 1 >= levels) return;
  for (PeerId c : n.children) {
    CollectMultiwaySubtree(mw, c, depth + 1, levels, out);
  }
}

}  // namespace

void MultiwayOverlay::CollectFastTable(
    int levels, std::vector<cache::FastEntry>* out) const {
  if (levels <= 0 || tree_->size() == 0) return;
  // Climb to the root from any member (the backend keeps it private).
  std::vector<PeerId> ms = tree_->Members();
  if (ms.empty()) return;
  PeerId root = ms.front();
  while (tree_->node(root).parent != kNullPeer) {
    root = tree_->node(root).parent;
  }
  CollectMultiwaySubtree(*tree_, root, 0, levels, out);
}

PeerId MultiwayOverlay::DoBootstrap() { return tree_->Bootstrap(); }

void MultiwayOverlay::DoJoin(PeerId contact, OpStats* st) {
  Result<PeerId> r = tree_->Join(contact);
  if (!r.ok()) {
    st->status = r.status();
    return;
  }
  st->peer = r.value();
}

void MultiwayOverlay::DoLeave(PeerId leaver, OpStats* st) {
  st->status = tree_->Leave(leaver);
}

void MultiwayOverlay::DoInsert(PeerId from, Key key, OpStats* st) {
  st->status = tree_->Insert(from, key);
}

void MultiwayOverlay::DoDelete(PeerId from, Key key, OpStats* st) {
  st->status = tree_->Delete(from, key);
}

void MultiwayOverlay::DoExactSearch(PeerId from, Key key, OpStats* st) {
  auto r = tree_->ExactSearch(from, key);
  if (!r.ok()) {
    st->status = r.status();
    return;
  }
  st->peer = r.value().node;
  st->found = r.value().found;
  st->hops = r.value().hops;
}

void MultiwayOverlay::DoRangeSearch(PeerId from, Key lo, Key hi,
                                    OpStats* st) {
  auto r = tree_->RangeSearch(from, lo, hi);
  if (!r.ok()) {
    st->status = r.status();
    return;
  }
  st->nodes = r.value().nodes.size();
  st->matches = r.value().matches;
  st->hops = r.value().hops;
  st->found = r.value().matches > 0;
}

multiway::MultiwayNetwork& MultiwayBackend(Overlay& ov) {
  auto* adapter = dynamic_cast<MultiwayOverlay*>(&ov);
  BATON_CHECK(adapter != nullptr)
      << "overlay '" << ov.name() << "' is not the multiway backend";
  return adapter->multiway();
}

const multiway::MultiwayNetwork& MultiwayBackend(const Overlay& ov) {
  const auto* adapter = dynamic_cast<const MultiwayOverlay*>(&ov);
  BATON_CHECK(adapter != nullptr)
      << "overlay '" << ov.name() << "' is not the multiway backend";
  return adapter->multiway();
}

}  // namespace overlay
}  // namespace baton
